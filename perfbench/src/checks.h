// Output checkers. They run after the measured window, judge every op the
// window completed, and count bad ones as failed ops -- they never abort
// the run, so one bad output cannot hide the others (the self-test plants
// each kind of bad output and checks the tally).
#pragma once

#include <string>
#include <vector>

#include "linalg/vec.h"

namespace perfbench {

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double ratio_sum = 0.0;  // sum of achieved-delta / budget over checked ops
  std::size_t ratio_n = 0;
  std::vector<std::string> failures;  // first few reasons, for the log

  void fail(std::string why);
  double ratio_mean() const {
    return ratio_n ? ratio_sum / static_cast<double>(ratio_n) : 0.0;
  }
};

/// The paper's Table 1 budget for delta*_p of `s` with f faults:
///   d^(1/2 - 1/p) * max-edge_p(E+) / (floor(n/f) - 2),
/// worst case over the C(n, f) choices of faulty inputs. This is Thm 12
/// at n = (d+1)f (floor(n/f) - 2 = d - 1) and Conjectures 1 and 3 below it.
double table1_budget(const std::vector<rbvc::Vec>& s, std::size_t f, double p);

/// One Step-2 decision: the input multiset and delta_star's answer.
struct DeltaRecord {
  std::vector<rbvc::Vec> input;
  std::size_t f = 0;
  double p = 2.0;
  double value = 0.0;
  rbvc::Vec point;
  std::string label;  // names the op in failure messages
};

/// Witness check: `point` lies within `value` (plus tolerance) of every
/// drop-f hull, i.e. in Gamma_(value,p)(input). Adds delta/budget to the
/// ratio on success.
void check_delta(const DeltaRecord& r, Tally& t);

/// One consensus instance as the client saw it.
struct InstanceRecord {
  std::vector<rbvc::Vec> honest_inputs;  // inputs of the correct nodes
  std::vector<rbvc::Vec> decisions;      // every ok decision reported
  std::size_t reports = 0;               // ok + failed reports
  bool stalled = false;                  // no quorum before the deadline
};

/// Instance check: every one of the `nodes` correct nodes reported an ok
/// decision (a failed report, a missing one or a stall fails the instance),
/// eps-agreement between every pair, and (delta,2)-relaxed validity against
/// the honest inputs with the input-dependent budget kappa * max honest
/// edge. Adds the achieved delta / budget to the ratio on success.
void check_instance(const InstanceRecord& r, std::size_t nodes, double eps,
                    double kappa, Tally& t);

/// Achieved delta / budget of a decided instance (no pass/fail).
double instance_delta_ratio(const std::vector<rbvc::Vec>& decisions,
                            const std::vector<rbvc::Vec>& honest_inputs,
                            double kappa);

}  // namespace perfbench
