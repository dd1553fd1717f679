// Self-tests of the benchmark's own plumbing: the percentile rule, ratio
// bases, span self time, and result digests that do not depend on the pool
// size. Run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "layers.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted input
  return v;
}

TEST(PercentileRule, NearestRank) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({7.0}, 0.95), 7.0);
  EXPECT_EQ(percentile(iota(100), 0.5), 50.0);
  EXPECT_EQ(percentile(iota(100), 0.95), 95.0);
  EXPECT_EQ(percentile(iota(200), 0.95), 190.0);
  EXPECT_EQ(percentile(iota(3), 0.95), 3.0);
  EXPECT_EQ(median(iota(4)), 2.0);
  EXPECT_EQ(samples_beyond(200, 0.95), 10u);
  EXPECT_EQ(samples_beyond(199, 0.95), 9u);
}

TEST(PercentileRule, HighestPercentileWithTenBeyond) {
  const TailPercentile t200 = tail_percentile(iota(200));
  EXPECT_EQ(t200.q, 0.95);
  EXPECT_EQ(t200.beyond, 10u);
  EXPECT_EQ(t200.samples, 200u);
  EXPECT_EQ(t200.value, 190.0);

  const TailPercentile t1000 = tail_percentile(iota(1000));
  EXPECT_EQ(t1000.q, 0.99);
  EXPECT_EQ(t1000.beyond, 10u);

  const TailPercentile t354 = tail_percentile(iota(354));
  EXPECT_EQ(t354.q, 0.95);
  EXPECT_GE(t354.beyond, 10u);

  // Too few samples for any percentile to have ten above it.
  const TailPercentile t10 = tail_percentile(iota(10));
  EXPECT_EQ(t10.q, 0.0);
  EXPECT_EQ(t10.samples, 10u);
  EXPECT_EQ(tail_percentile(iota(20)).q, 0.5);
}

TEST(PercentileRule, RoundP95FallsBackToTheMedianWithoutTenBeyond) {
  EXPECT_EQ(p95_or_median(iota(200)), 190.0);  // 10 beyond p95
  EXPECT_EQ(p95_or_median(iota(199)), 100.0);  // 9 beyond: the median
  EXPECT_EQ(p95_or_median({5000.0, 9000.0, 5100.0, 5200.0, 4900.0}), 5100.0);
}

ncnas::obs::ProfileNode node(std::string name, double total, double self, double flops,
                             std::vector<ncnas::obs::ProfileNode> kids = {}) {
  ncnas::obs::ProfileNode n;
  n.name = std::move(name);
  n.total_ms = total;
  n.self_ms = self;
  n.flops = flops;
  n.children = std::move(kids);
  return n;
}

TEST(RatioBases, SharesAreOfEvalTimeOnly) {
  ncnas::obs::ProfileSnapshot p;
  // Event-loop thread: the controller's gemms must not count as eval work.
  p.roots.push_back(node("driver/run", 500, 300, 0,
                         {node("rl/ppo_update", 50, 30, 0, {node("gemm", 20, 20, 1e9)}),
                          node("eval", 100, 10, 0,
                               {node("op/dense", 70, 30, 0, {node("gemm", 40, 40, 4e7)}),
                                node("op/dropout", 20, 20, 0)})}));
  // Pool thread: a flat eval and a ladder rung under a non-eval batch scope.
  p.roots.push_back(node("eval", 50, 30, 0, {node("gemm_nt", 20, 20, 2e7)}));
  p.roots.push_back(node("ladder/batch", 80, 30, 0,
                         {node("ladder/train", 50, 40, 0, {node("gemm_tn", 10, 10, 1e7)})}));

  const EvalBreakdown b = eval_breakdown(p);
  EXPECT_DOUBLE_EQ(b.eval_ms, 200.0);  // 100 + 50 + 50; ladder/batch's wait excluded
  EXPECT_DOUBLE_EQ(b.ppo_update_ms, 50.0);

  const Ratio gemm = eval_share(b, {"gemm", "gemm_nt", "gemm_tn"});
  EXPECT_DOUBLE_EQ(gemm.base, 200.0);
  EXPECT_DOUBLE_EQ(gemm.part, 70.0);  // 40 + 20 + 10: the rl gemm is not eval work
  EXPECT_DOUBLE_EQ(gemm.value(), 0.35);
  EXPECT_DOUBLE_EQ(eval_share(b, {"op/dense"}).value(), 30.0 / 200.0);
  EXPECT_DOUBLE_EQ(eval_share(b, {"op/conv1d"}).value(), 0.0);
  EXPECT_DOUBLE_EQ(eval_gflops(b, "gemm"), 1.0);  // 4e7 FLOP over 40 ms
  EXPECT_DOUBLE_EQ(eval_gflops(b, "gemm_nt"), 1.0);
  EXPECT_DOUBLE_EQ(eval_gflops(b, "axpy"), 0.0);

  const Ratio busy = pool_busy_share(3.0, 2.0, 4);
  EXPECT_DOUBLE_EQ(busy.base, 8.0);
  EXPECT_DOUBLE_EQ(busy.value(), 0.375);
  EXPECT_EQ((Ratio{5.0, 0.0}).value(), 0.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanRecorder rec;
  const int parent = rec.add("parent", 0, 1000, -1);
  rec.add("a", 100, 400, parent);
  rec.add("b", 300, 500, parent);   // overlaps a: the union counts once
  rec.add("c", 900, 1200, parent);  // clipped at the parent's end
  const int other = rec.add("other", 0, 50, -1);
  EXPECT_DOUBLE_EQ(rec.duration_ms(parent), 1.0);
  EXPECT_DOUBLE_EQ(rec.self_ms(parent), (1000.0 - 400.0 - 100.0) / 1000.0);
  EXPECT_DOUBLE_EQ(rec.self_ms(other), 0.05);
  EXPECT_EQ(rec.durations_ms("a").size(), 1u);

  SpanRecorder live;
  {
    SpanRecorder::Scope outer(live, "outer");
    SpanRecorder::Scope inner(live, "inner");
  }
  ASSERT_EQ(live.spans().size(), 2u);
  EXPECT_EQ(live.spans()[1].parent, 0);
  EXPECT_LE(live.self_ms(0), live.duration_ms(0));
  std::ostringstream json;
  live.write_chrome_trace(json);
  EXPECT_NE(json.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.str().find("\"parent\":0"), std::string::npos);
}

TEST(Seeds, DerivedInputsAreDistinctAndStable) {
  const Seeds a = derive_seeds(1);
  EXPECT_EQ(a.data, derive_seeds(1).data);
  EXPECT_NE(a.data, a.search);
  EXPECT_NE(a.search, a.replica);
  EXPECT_NE(a.data, derive_seeds(2).data);
  EXPECT_EQ(hex64(fnv1a64("")), "cbf29ce484222325");
  EXPECT_EQ(hex64(fnv1a64("a")), "af63dc4c8601ec8c");
}

// The benchmark's plumbing must not depend on scheduling: a shortened
// workload gives the same digests on a 1-thread pool and an nproc pool.
std::vector<std::string> digests(Workload w, std::size_t threads) {
  Options opts;
  opts.threads = threads;
  opts.shortened = true;
  opts.work_dir = (std::filesystem::temp_directory_path() / "perfbench-selftest").string();
  if (const char* dir = std::getenv("PERFBENCH_WORK_DIR")) opts.work_dir = dir;
  std::filesystem::create_directories(opts.work_dir);
  const auto setup = make_setup(w, derive_seeds(3), opts, static_cast<int>(threads));
  RunOutcome out = run_workload(*setup);
  EXPECT_EQ(check_outcome(out, {}, opts.work_dir), 0u);
  std::vector<std::string> d;
  for (const TenantRun& t : out.tenants) d.push_back(t.digest);
  EXPECT_GT(out.evals(), 0u);
  return d;
}

TEST(Digests, SameOnOneThreadAndNproc) {
  for (const Workload w : {Workload::kSearchA2cCombo, Workload::kServeSlicedNt3}) {
    const std::vector<std::string> one = digests(w, 1);
    const std::vector<std::string> many = digests(w, std::max<std::size_t>(2, nproc()));
    EXPECT_EQ(one, many) << workload_name(w);
    EXPECT_EQ(one.size(), w == Workload::kServeSlicedNt3 ? 3u : 1u);
  }
}

}  // namespace
}  // namespace perfbench
