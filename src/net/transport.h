// The messaging API boundary: protocol code sends and receives through an
// opaque net::Transport instead of talking to an engine (the HoneyBadgerBFT
// send/receive-channel decomposition). Three implementations ship:
//
//   SimTransport  (net/sim_transport.h)  -- adapter over the sim engines'
//       per-delivery Outbox; push-only (the engine delivers via callbacks),
//       preserving ScheduleLog record/replay byte-for-byte.
//   LocalBus      (net/local_bus.h)      -- in-process loopback: one
//       lock-free MPSC mailbox per endpoint, endpoints driven from real
//       threads (exec-pool or std::thread).
//   TcpTransport  (net/tcp_transport.h)  -- TCP sockets carrying
//       length-prefixed frames of the versioned wire codec (net/wire.h).
//
// The send half IS sim::Outbox -- the engines' abstract send channel was
// already engine-free, so Transport extends it with identity and a
// blocking/polling receive. Protocol components (BrachaRbc, WitnessExchange,
// DolevStrong, the EIG/ALGO processes, AsyncAveragingProcess) are written
// against the channel alone and therefore run unchanged over any transport;
// the hosting runtimes (net/node.h, net/sync_driver.h) pump receive() and
// feed them.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "sim/message.h"

namespace rbvc::net {

using sim::Message;
using sim::Outbox;
using sim::ProcessId;

class Transport;

/// Messages addressed to their recipients, in send order.
using Batch = std::vector<std::pair<ProcessId, Message>>;

/// Send channel that only records: hosting runtimes hand it to protocol
/// code and push the collected sends through one Transport::send_batch.
struct CollectingOutbox final : Outbox {
  Batch sent;
  void send(ProcessId to, Message m) override {
    sent.emplace_back(to, std::move(m));
  }
};

/// Delivery-callback consumer: the push-mode variant of the receive API.
/// Sim engines invoke it per scheduled delivery; pull-based transports
/// invoke it from poll()/pump_until().
class Listener {
 public:
  virtual ~Listener() = default;
  virtual void on_message(const Message& m, Transport& t) = 0;
};

/// A bidirectional message channel bound to one process of an n-process
/// cluster. send() stamps `from = self()` and `to`; receive() returns the
/// next delivered message. Implementations must deliver every message sent
/// between live endpoints (reliable channels, the paper's network model);
/// ordering is transport-specific and protocols must not rely on it.
class Transport : public Outbox {
 public:
  /// Next delivered message, waiting up to `timeout_ms` (0 = non-blocking
  /// poll). nullopt when nothing arrived in time or the transport is
  /// push-only (SimTransport) or closed.
  virtual std::optional<Message> receive(int timeout_ms) = 0;

  /// This endpoint's process id in [0, size()).
  virtual ProcessId self() const = 0;

  /// Cluster size n (endpoints a send() may address).
  virtual std::size_t size() const = 0;

  /// Sends every message of `batch` as send() would, in order. A transport
  /// may coalesce the batch's frames to one peer into one write; per-peer
  /// order is the batch order either way. The default is a send() loop.
  virtual void send_batch(Batch batch) {
    for (auto& [to, m] : batch) send(to, std::move(m));
  }

  /// True once the transport can no longer deliver (peer shutdown /
  /// close()); receive() then returns nullopt immediately.
  virtual bool closed() const { return false; }

  /// Drains immediately-available messages into `l`; returns the count.
  std::size_t poll(Listener& l) {
    std::size_t delivered = 0;
    while (auto m = receive(0)) {
      l.on_message(*m, *this);
      ++delivered;
    }
    return delivered;
  }

  /// Pumps deliveries into `l` until `done` returns true or the channel
  /// stays idle for `idle_timeout_ms`. Returns the number delivered.
  template <class DonePredicate>
  std::size_t pump_until(Listener& l, DonePredicate done,
                         int idle_timeout_ms) {
    std::size_t delivered = 0;
    while (!done()) {
      auto m = receive(idle_timeout_ms);
      if (!m) break;
      l.on_message(*m, *this);
      ++delivered;
    }
    return delivered;
  }
};

}  // namespace rbvc::net
