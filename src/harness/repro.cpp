#include "harness/repro.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>

#include "obs/metrics.h"
#include "sim/trace.h"

namespace rbvc::harness {

namespace {

constexpr const char* kHeaderV3 = "rbvc-repro v3";
constexpr const char* kHeaderV2 = "rbvc-repro v2";        // no metrics line
constexpr const char* kHeaderV1 = "rbvc-async-repro v1";  // legacy, async

std::string fmt_double(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string fmt_vec(const Vec& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ' ';
    out += fmt_double(v[i]);
  }
  return out;
}

std::vector<double> parse_doubles(const std::string& s) {
  std::vector<double> out;
  std::istringstream in(s);
  double x;
  while (in >> x) out.push_back(x);
  return out;
}

std::vector<std::size_t> parse_sizes(const std::string& s) {
  std::vector<std::size_t> out;
  std::istringstream in(s);
  std::uint64_t x;
  while (in >> x) out.push_back(static_cast<std::size_t>(x));
  return out;
}

std::uint64_t parse_u64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

int parse_header_version(const std::string& line) {
  if (line == kHeaderV3) return 3;
  if (line == kHeaderV2) return 2;
  if (line == kHeaderV1) return 1;
  throw invalid_argument("repro: unsupported header `" + line +
                         "` (this build reads `" + kHeaderV3 + "`, `" +
                         kHeaderV2 + "`, and legacy `" + kHeaderV1 + "`)");
}

// ---------------------------------------------------------------------------
// Envelope: everything outside the mode-specific experiment fields.
// ---------------------------------------------------------------------------

/// Per-mode experiment field reader: returns true when the key was
/// consumed. Unconsumed keys are ignored for forward compatibility.
template <class ExperimentT>
using FieldReader =
    std::function<bool(ExperimentT&, const std::string&, const std::string&)>;

template <class ExperimentT>
Repro<ExperimentT> parse_envelope(const std::string& text, ReproMode want,
                                  const FieldReader<ExperimentT>& field) {
  Repro<ExperimentT> r;
  std::istringstream in(text);
  std::string line;
  RBVC_REQUIRE(std::getline(in, line), "repro: empty input");
  const int version = parse_header_version(line);
  ReproMode mode = ReproMode::kAsync;
  bool mode_seen = version == 1;  // v1 files are implicitly async
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t sp = line.find(' ');
    const std::string key = line.substr(0, sp);
    const std::string val =
        sp == std::string::npos ? std::string() : line.substr(sp + 1);
    if (key == "mode") {
      const auto parsed = parse_repro_mode(val);
      RBVC_REQUIRE(parsed.has_value(), "repro: unknown mode `" + val + "`");
      mode = *parsed;
      mode_seen = true;
    } else if (key == "property") {
      r.property = val;
    } else if (key == "failure") {
      r.failure = sim::unescape_detail(val);
    } else if (key == "schedule") {
      r.schedule = sim::ScheduleLog::parse(val);
    } else if (key == "trace") {
      r.trace_dump = sim::unescape_detail(val);
    } else if (key == "metrics") {
      r.metrics_json = sim::unescape_detail(val);
      // Validate eagerly: a corrupt metrics snapshot should fail the load
      // with a line-level message, not blow up whoever dumps it later.
      // Unknown metric *names* are fine (forward compatibility); malformed
      // JSON or an unknown schema version is not.
      try {
        (void)obs::Registry::parse(r.metrics_json);
      } catch (const std::exception& ex) {
        throw invalid_argument(std::string("repro: bad metrics line: ") +
                               ex.what());
      }
    } else {
      field(r.experiment, key, val);  // unknown keys: skipped
    }
  }
  RBVC_REQUIRE(mode_seen, "repro: mode-tagged file is missing its `mode` line");
  RBVC_REQUIRE(mode == want,
               std::string("repro: file mode is `") + to_string(mode) +
                   "`, this parser expects `" + to_string(want) + "`");
  return r;
}

template <class ExperimentT>
std::string serialize_envelope(const Repro<ExperimentT>& r, ReproMode mode,
                               const std::string& experiment_fields) {
  std::string out;
  out += kHeaderV3;
  out += '\n';
  out += std::string("mode ") + to_string(mode) + "\n";
  out += "property " + r.property + "\n";
  out += "failure " + sim::escape_detail(r.failure) + "\n";
  out += experiment_fields;
  out += "schedule " + r.schedule.serialize() + "\n";
  if (!r.trace_dump.empty()) {
    out += "trace " + sim::escape_detail(r.trace_dump) + "\n";
  }
  if (!r.metrics_json.empty()) {
    out += "metrics " + sim::escape_detail(r.metrics_json) + "\n";
  }
  return out;
}

std::string common_tail(const std::vector<std::size_t>& byzantine,
                        const std::vector<Vec>& inputs) {
  std::string out;
  if (!byzantine.empty()) {
    out += "byzantine";
    for (std::size_t id : byzantine) out += " " + std::to_string(id);
    out += '\n';
  }
  for (const Vec& v : inputs) out += "input " + fmt_vec(v) + "\n";
  return out;
}

// ---------------------------------------------------------------------------
// Async experiment fields (the v1 key set; the retired `minimax` line is
// still read, no longer written).
// ---------------------------------------------------------------------------

std::string async_fields(const workload::AsyncExperiment& e) {
  std::string out;
  out += "n " + std::to_string(e.prm.n) + "\n";
  out += "f " + std::to_string(e.prm.f) + "\n";
  out += "rounds " + std::to_string(e.prm.rounds) + "\n";
  out += "rule " + std::to_string(static_cast<int>(e.prm.rule)) + "\n";
  out += "use_witness " + std::to_string(e.prm.use_witness ? 1 : 0) + "\n";
  out += "quorum_override " + std::to_string(e.prm.quorum_override) + "\n";
  out += "tol " + fmt_double(e.prm.tol) + "\n";
  out += "d " + std::to_string(e.d) + "\n";
  out += "strategy " + std::to_string(static_cast<int>(e.strategy)) + "\n";
  out += "scheduler " + std::to_string(static_cast<int>(e.scheduler)) + "\n";
  out += "seed " + std::to_string(e.seed) + "\n";
  out += "max_events " + std::to_string(e.max_events) + "\n";
  out += common_tail(e.byzantine_ids, e.honest_inputs);
  return out;
}

bool async_field(workload::AsyncExperiment& e, const std::string& key,
                 const std::string& val) {
  if (key == "n") {
    e.prm.n = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "f") {
    e.prm.f = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "rounds") {
    e.prm.rounds = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "rule") {
    e.prm.rule = static_cast<consensus::AsyncAveragingProcess::Round0Rule>(
        parse_u64(val));
  } else if (key == "use_witness") {
    e.prm.use_witness = parse_u64(val) != 0;
  } else if (key == "quorum_override") {
    e.prm.quorum_override = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "tol") {
    e.prm.tol = parse_doubles(val).at(0);
  } else if (key == "minimax") {
    // Older files carry the retired first-order solver's budget; delta* no
    // longer takes one, so the line is checked and ignored.
    RBVC_REQUIRE(parse_doubles(val).size() == 4,
                 "async repro: bad minimax line");
  } else if (key == "d") {
    e.d = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "strategy") {
    e.strategy = static_cast<workload::AsyncStrategy>(parse_u64(val));
  } else if (key == "scheduler") {
    e.scheduler = static_cast<workload::SchedulerKind>(parse_u64(val));
  } else if (key == "seed") {
    e.seed = parse_u64(val);
  } else if (key == "max_events") {
    e.max_events = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "byzantine") {
    e.byzantine_ids = parse_sizes(val);
  } else if (key == "input") {
    e.honest_inputs.push_back(parse_doubles(val));
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Sync experiment fields.
// ---------------------------------------------------------------------------

std::string sync_fields(const workload::SyncExperiment& e) {
  RBVC_REQUIRE(e.rule != workload::SyncRule::kCustom,
               "sync repro: a custom DecisionFn closure cannot be "
               "serialized; set SyncExperiment::rule instead");
  std::string out;
  out += "n " + std::to_string(e.n) + "\n";
  out += "f " + std::to_string(e.f) + "\n";
  out += "strategy " + std::to_string(static_cast<int>(e.strategy)) + "\n";
  out += "backend " + std::to_string(static_cast<int>(e.backend)) + "\n";
  out += "rule " + std::to_string(static_cast<int>(e.rule)) + "\n";
  out += "k " + std::to_string(e.k) + "\n";
  out += "validate_chains " + std::to_string(e.validate_chains ? 1 : 0) +
         "\n";
  out += "seed " + std::to_string(e.seed) + "\n";
  out += common_tail(e.byzantine_ids, e.honest_inputs);
  return out;
}

bool sync_field(workload::SyncExperiment& e, const std::string& key,
                const std::string& val) {
  if (key == "n") {
    e.n = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "f") {
    e.f = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "strategy") {
    e.strategy = static_cast<workload::SyncStrategy>(parse_u64(val));
  } else if (key == "backend") {
    e.backend = static_cast<workload::SyncBackend>(parse_u64(val));
  } else if (key == "rule") {
    e.rule = static_cast<workload::SyncRule>(parse_u64(val));
  } else if (key == "k") {
    e.k = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "validate_chains") {
    e.validate_chains = parse_u64(val) != 0;
  } else if (key == "seed") {
    e.seed = parse_u64(val);
  } else if (key == "byzantine") {
    e.byzantine_ids = parse_sizes(val);
  } else if (key == "input") {
    e.honest_inputs.push_back(parse_doubles(val));
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// RBC experiment fields.
// ---------------------------------------------------------------------------

std::string rbc_fields(const workload::RbcExperiment& e) {
  std::string out;
  out += "n " + std::to_string(e.n) + "\n";
  out += "f " + std::to_string(e.f) + "\n";
  out += "strategy " + std::to_string(static_cast<int>(e.strategy)) + "\n";
  out += "scheduler " + std::to_string(static_cast<int>(e.scheduler)) + "\n";
  out += "quorum_echo " + std::to_string(e.quorums.echo) + "\n";
  out += "quorum_amplify " + std::to_string(e.quorums.ready_amplify) + "\n";
  out += "quorum_deliver " + std::to_string(e.quorums.ready_deliver) + "\n";
  // Omitted for the default "everyone broadcasts" sentinel so pre-existing
  // repro files (and their byte-exact round-trips) are unchanged. An
  // explicit empty list serializes as a bare `broadcasters` line.
  const bool all_broadcast =
      e.broadcasters.size() == 1 &&
      e.broadcasters.front() == workload::RbcExperiment::kBroadcastAll;
  if (!all_broadcast) {
    out += "broadcasters";
    for (std::size_t id : e.broadcasters) out += " " + std::to_string(id);
    out += '\n';
  }
  out += "seed " + std::to_string(e.seed) + "\n";
  out += "max_events " + std::to_string(e.max_events) + "\n";
  out += common_tail(e.byzantine_ids, e.honest_inputs);
  return out;
}

bool rbc_field(workload::RbcExperiment& e, const std::string& key,
               const std::string& val) {
  if (key == "n") {
    e.n = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "f") {
    e.f = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "strategy") {
    e.strategy = static_cast<workload::AsyncStrategy>(parse_u64(val));
  } else if (key == "scheduler") {
    e.scheduler = static_cast<workload::SchedulerKind>(parse_u64(val));
  } else if (key == "quorum_echo") {
    e.quorums.echo = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "quorum_amplify") {
    e.quorums.ready_amplify = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "quorum_deliver") {
    e.quorums.ready_deliver = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "broadcasters") {
    e.broadcasters = parse_sizes(val);  // bare line -> explicit empty list
  } else if (key == "seed") {
    e.seed = parse_u64(val);
  } else if (key == "max_events") {
    e.max_events = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "byzantine") {
    e.byzantine_ids = parse_sizes(val);
  } else if (key == "input") {
    e.honest_inputs.push_back(parse_doubles(val));
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Dolev-Strong broadcast experiment fields.
// ---------------------------------------------------------------------------

std::string ds_fields(const workload::BroadcastExperiment& e) {
  std::string out;
  out += "n " + std::to_string(e.n) + "\n";
  out += "f " + std::to_string(e.f) + "\n";
  out += "strategy " + std::to_string(static_cast<int>(e.strategy)) + "\n";
  out += "validate_chains " + std::to_string(e.validate_chains ? 1 : 0) +
         "\n";
  out += "seed " + std::to_string(e.seed) + "\n";
  out += common_tail(e.byzantine_ids, e.honest_inputs);
  return out;
}

bool ds_field(workload::BroadcastExperiment& e, const std::string& key,
              const std::string& val) {
  if (key == "n") {
    e.n = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "f") {
    e.f = static_cast<std::size_t>(parse_u64(val));
  } else if (key == "strategy") {
    e.strategy = static_cast<workload::SyncStrategy>(parse_u64(val));
  } else if (key == "validate_chains") {
    e.validate_chains = parse_u64(val) != 0;
  } else if (key == "seed") {
    e.seed = parse_u64(val);
  } else if (key == "byzantine") {
    e.byzantine_ids = parse_sizes(val);
  } else if (key == "input") {
    e.honest_inputs.push_back(parse_doubles(val));
  } else {
    return false;
  }
  return true;
}

}  // namespace

const char* to_string(ReproMode mode) {
  switch (mode) {
    case ReproMode::kAsync:
      return "async";
    case ReproMode::kSync:
      return "sync";
    case ReproMode::kRbc:
      return "rbc";
    case ReproMode::kDs:
      return "ds";
  }
  return "?";
}

std::optional<ReproMode> parse_repro_mode(const std::string& tag) {
  if (tag == "async") return ReproMode::kAsync;
  if (tag == "sync") return ReproMode::kSync;
  if (tag == "rbc") return ReproMode::kRbc;
  if (tag == "ds") return ReproMode::kDs;
  return std::nullopt;
}

ReproInfo peek_repro(const std::string& text) {
  ReproInfo info;
  std::istringstream in(text);
  std::string line;
  RBVC_REQUIRE(std::getline(in, line), "repro: empty input");
  info.version = parse_header_version(line);
  bool mode_seen = info.version == 1;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t sp = line.find(' ');
    const std::string key = line.substr(0, sp);
    const std::string val =
        sp == std::string::npos ? std::string() : line.substr(sp + 1);
    if (key == "mode") {
      const auto parsed = parse_repro_mode(val);
      RBVC_REQUIRE(parsed.has_value(), "repro: unknown mode `" + val + "`");
      info.mode = *parsed;
      mode_seen = true;
    } else if (key == "property") {
      info.property = val;
    }
  }
  RBVC_REQUIRE(mode_seen, "repro: mode-tagged file is missing its `mode` line");
  return info;
}

ReproInfo peek_repro_file(const std::string& path) {
  return peek_repro(read_repro_file(path));
}

std::string serialize_repro(const AsyncRepro& r) {
  return serialize_envelope(r, ReproMode::kAsync, async_fields(r.experiment));
}

std::string serialize_repro(const SyncRepro& r) {
  return serialize_envelope(r, ReproMode::kSync, sync_fields(r.experiment));
}

std::string serialize_repro(const RbcRepro& r) {
  return serialize_envelope(r, ReproMode::kRbc, rbc_fields(r.experiment));
}

std::string serialize_repro(const DsRepro& r) {
  return serialize_envelope(r, ReproMode::kDs, ds_fields(r.experiment));
}

AsyncRepro parse_async_repro(const std::string& text) {
  AsyncRepro r = parse_envelope<workload::AsyncExperiment>(
      text, ReproMode::kAsync, async_field);
  RBVC_REQUIRE(r.experiment.prm.n > 0, "async repro: missing n");
  return r;
}

SyncRepro parse_sync_repro(const std::string& text) {
  SyncRepro r = parse_envelope<workload::SyncExperiment>(
      text, ReproMode::kSync, sync_field);
  RBVC_REQUIRE(r.experiment.n > 0, "sync repro: missing n");
  RBVC_REQUIRE(r.experiment.rule != workload::SyncRule::kCustom,
               "sync repro: missing or custom decision rule");
  return r;
}

RbcRepro parse_rbc_repro(const std::string& text) {
  RbcRepro r = parse_envelope<workload::RbcExperiment>(text, ReproMode::kRbc,
                                                       rbc_field);
  RBVC_REQUIRE(r.experiment.n > 0, "rbc repro: missing n");
  return r;
}

DsRepro parse_ds_repro(const std::string& text) {
  DsRepro r = parse_envelope<workload::BroadcastExperiment>(
      text, ReproMode::kDs, ds_field);
  RBVC_REQUIRE(r.experiment.n > 0, "ds repro: missing n");
  return r;
}

void write_repro_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  RBVC_REQUIRE(out.good(), "write_repro: cannot open " + path);
  out << text;
  RBVC_REQUIRE(out.good(), "write_repro: write failed for " + path);
}

std::string read_repro_file(const std::string& path) {
  std::ifstream in(path);
  RBVC_REQUIRE(in.good(), "load_repro: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

AsyncRepro load_async_repro(const std::string& path) {
  return parse_async_repro(read_repro_file(path));
}

SyncRepro load_sync_repro(const std::string& path) {
  return parse_sync_repro(read_repro_file(path));
}

RbcRepro load_rbc_repro(const std::string& path) {
  return parse_rbc_repro(read_repro_file(path));
}

DsRepro load_ds_repro(const std::string& path) {
  return parse_ds_repro(read_repro_file(path));
}

workload::AsyncOutcome replay_async_repro(const AsyncRepro& r) {
  workload::AsyncExperiment e = r.experiment;
  e.record = nullptr;
  e.replay = &r.schedule;
  e.capture_trace = true;
  return workload::run_async_experiment(e);
}

}  // namespace rbvc::harness
