// The traced run: one untraced and one traced run of a workload, then
// replays of the run's own inputs into each layer's public functions, folded
// into the per-layer metrics listed in BENCHMARK.json.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "ncnas/obs/profiler.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What the program's own profiler says about reward estimation. Eval time
/// is the total of the top-most evaluation scopes ("eval", and the ladder's
/// per-candidate "ladder/build|train|validate"); per-scope self time and
/// FLOPs are summed inside those subtrees only, so controller gemms and
/// driver bookkeeping stay out of both numerator and base.
struct EvalBreakdown {
  double eval_ms = 0.0;
  std::map<std::string, double> self_ms;
  std::map<std::string, double> flops;
  double ppo_update_ms = 0.0;  ///< "rl/ppo_update" totals, wherever they ran
};
[[nodiscard]] EvalBreakdown eval_breakdown(const ncnas::obs::ProfileSnapshot& profile);

/// Share of eval time spent in the named scopes' self time (base: eval_ms).
[[nodiscard]] Ratio eval_share(const EvalBreakdown& b, const std::vector<std::string>& scopes);
/// Achieved GFLOP/s of one kernel inside evaluations (FLOPs over self time).
[[nodiscard]] double eval_gflops(const EvalBreakdown& b, const std::string& kernel);
/// Serial evaluation CPU over the pool's capacity during the run.
[[nodiscard]] Ratio pool_busy_share(double eval_cpu_s, double run_s, std::size_t threads);

struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;    ///< what a ratio is a share of; empty for non-ratios
  std::string target;  ///< the end-to-end metric and workload it should move
};

struct TracedReport {
  std::vector<LayerMetric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double untraced_evals_per_s = 0.0;
  double traced_evals_per_s = 0.0;
  std::string trace_path;
  std::map<std::string, double> span_self_ms;  ///< self time per span name
};

/// Runs the traced measurement of `w`. `expected` are the reference digests
/// (empty: the untraced run's digests become the reference for the traced
/// one). Spans are written as Chrome-trace JSON under opts.work_dir.
[[nodiscard]] TracedReport run_traced(Workload w, std::uint64_t bench_seed, const Options& opts,
                                      const std::vector<std::string>& expected);

}  // namespace perfbench
