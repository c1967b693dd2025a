// rbvc_perfbench: the repository benchmark's binary.
//
//   rbvc_perfbench --workload <cluster_tcp|sweep_async|algo_l2|algo_linf>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--ops <k>] [--jobs <j>]
//   rbvc_perfbench --selftest
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics,
// the exclusive-time report and the tracing overhead. The last stdout line
// is always one JSON object: {"correct", "attempted", "failed", "metrics"}.
// perfbench/README.md describes the workloads and every metric.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rbvc_perfbench: %s\nusage: rbvc_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--ops <k>] "
               "[--jobs <j>]\n       rbvc_perfbench --selftest\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return perfbench::run_selftest();
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string(v) == "1";
    } else if (a == "--ops") {
      opt.ops = std::strtoull(v, nullptr, 10);
    } else if (a == "--jobs") {
      opt.jobs = std::strtoull(v, nullptr, 10);
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  try {
    perfbench::Report r;
    if (opt.workload == "cluster_tcp") {
      r = perfbench::run_cluster_tcp(opt);
    } else if (opt.workload == "sweep_async") {
      r = perfbench::run_sweep_async(opt);
    } else if (opt.workload == "algo_l2") {
      r = perfbench::run_algo(opt, false);
    } else if (opt.workload == "algo_linf") {
      r = perfbench::run_algo(opt, true);
    } else {
      usage(("unknown workload `" + opt.workload + "`").c_str());
    }
    perfbench::print_report(opt, r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rbvc_perfbench: %s\n", e.what());
    return 1;
  }
}
