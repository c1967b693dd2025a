// Unit costs of single library calls on a workload's own inputs (see
// unit_costs.cpp). Each stops early once `budget_s` seconds are spent.
#pragma once

#include <vector>

#include "bench.h"
#include "sim/message.h"

namespace perfbench {

/// Mean microseconds per detail::wolfe_min_norm call projecting points[k]
/// (the input's centroid when absent) onto each drop-f subset of inputs[k].
double wolfe_us_per_call(const std::vector<std::vector<rbvc::Vec>>& inputs,
                         const std::vector<rbvc::Vec>& points, std::size_t f,
                         double budget_s);
/// Median microseconds per warm GammaDeltaProbe::probe (p = inf) along
/// delta_star_linear's bisection.
double probe_us_per_call(const std::vector<std::vector<rbvc::Vec>>& inputs,
                         std::size_t f, double budget_s);
/// Median microseconds per gamma_point call (one LP feasibility solve).
double gamma_point_us_per_call(const std::vector<std::vector<rbvc::Vec>>& inputs,
                               std::size_t f, double budget_s);
/// Microseconds per encode_message + frame + try_unframe + decode_message.
double codec_us_per_frame(const std::vector<rbvc::sim::Message>& msgs,
                          double budget_s);

/// Sets opt.wolfe_us_per_eval, lp.probe_us and lp.solve_us, each measured
/// for at most `budget_s`; returns the Wolfe cost.
double set_unit_costs(LayerMetrics& lm,
                      const std::vector<std::vector<rbvc::Vec>>& inputs,
                      const std::vector<rbvc::Vec>& points, std::size_t f,
                      double budget_s);

}  // namespace perfbench
