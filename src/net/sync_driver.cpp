#include "net/sync_driver.h"

#include <chrono>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "obs/events.h"

namespace rbvc::net {

SyncDriverResult run_sync_over_transport(sim::SyncProcess& p, Transport& t,
                                         SyncDriverOptions opts) {
  const std::size_t n = t.size();
  // Protocol messages buffered by send-round tag; eor[r] = endpoints whose
  // round-r marker arrived.
  std::map<std::size_t, std::vector<Message>> pending;
  std::map<std::size_t, std::set<ProcessId>> eor;

  SyncDriverResult res;
  for (std::size_t r = 0; r < opts.max_rounds && !p.decided(); ++r) {
    std::vector<Message> inbox;
    if (r > 0) {
      auto it = pending.find(r - 1);
      if (it != pending.end()) {
        inbox = std::move(it->second);
        pending.erase(it);
      }
    }
    res.messages += inbox.size();
    obs::events::emit(obs::events::Type::kRoundStart, static_cast<int>(r),
                      static_cast<std::int64_t>(inbox.size()));

    // The round body's sends are collected, round-tagged and pushed after
    // it returns (as the sync engines deliver a round's sends only after
    // the round completes), with the end-of-round markers in one batch.
    CollectingOutbox out;
    p.round(r, inbox, out);
    ++res.rounds;

    for (auto& [to, m] : out.sent) {
      m.meta.insert(m.meta.begin(), static_cast<int>(r));
    }
    for (ProcessId q = 0; q < n; ++q) {
      out.sent.emplace_back(q, Message("__eor", {static_cast<int>(r)}));
    }
    t.send_batch(std::move(out.sent));

    // Barrier: collect EOR(r) from every endpoint (self included -- the
    // marker loops back through the transport like any other message).
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(opts.round_timeout_ms);
    while (eor[r].size() < n) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) {
        ++res.timeouts;
        obs::events::emit(obs::events::Type::kRoundTimeout,
                          static_cast<int>(r),
                          static_cast<std::int64_t>(n - eor[r].size()));
        break;
      }
      const int left = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
              .count());
      auto m = t.receive(left > 0 ? left : 1);
      if (!m) {
        if (t.closed()) {
          res.decided = p.decided();
          return res;
        }
        continue;  // re-check the deadline
      }
      if (m->meta.empty()) continue;
      const auto tag = static_cast<std::size_t>(m->meta.front());
      if (m->kind == "__eor") {
        if (tag >= r) eor[tag].insert(m->from);
        continue;
      }
      // A message tagged q feeds round q+1; anything older already ran.
      if (tag < r) continue;
      m->meta.erase(m->meta.begin());
      pending[tag].push_back(std::move(*m));
    }
    if (eor[r].size() >= n) {
      obs::events::emit(obs::events::Type::kRoundBarrier, static_cast<int>(r),
                        static_cast<std::int64_t>(eor[r].size()));
    }
    eor.erase(r);
  }
  res.decided = p.decided();
  return res;
}

}  // namespace rbvc::net
