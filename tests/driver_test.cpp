#include <gtest/gtest.h>

#include "ncnas/nas/driver.hpp"
#include "ncnas/space/spaces.hpp"
#include "ncnas/tensor/thread_pool.hpp"

namespace ncnas::nas {
namespace {

data::Dataset tiny_nt3() {
  data::Nt3Dims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.length = 64;
  dims.motif = 6;
  return data::make_nt3(5, dims);
}

SearchConfig small_config(SearchStrategy strategy) {
  SearchConfig cfg;
  cfg.strategy = strategy;
  cfg.cluster = {.num_agents = 3, .workers_per_agent = 4};
  cfg.wall_time_seconds = 1800.0;  // 30 simulated minutes
  cfg.fidelity = {.epochs = 1, .subset_fraction = 1.0};
  cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};
  cfg.seed = 11;
  return cfg;
}

TEST(Driver, RandomSearchProducesOrderedEvaluations) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchDriver driver(s, ds, small_config(SearchStrategy::kRandom));
  const SearchResult res = driver.run();
  EXPECT_GT(res.evals.size(), 10u);
  for (std::size_t i = 1; i < res.evals.size(); ++i) {
    EXPECT_LE(res.evals[i - 1].time, res.evals[i].time);
  }
  EXPECT_LE(res.end_time, 1800.0 + 1e-6);
  EXPECT_GT(res.unique_archs, 0u);
  EXPECT_EQ(res.ppo_updates, 0u);
}

TEST(Driver, A3CRunsPpoUpdates) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchDriver driver(s, ds, small_config(SearchStrategy::kA3C));
  const SearchResult res = driver.run();
  EXPECT_GT(res.ppo_updates, 0u);
  EXPECT_GT(res.evals.size(), 10u);
}

TEST(Driver, A2CRoundsAreSynchronized) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchDriver driver(s, ds, small_config(SearchStrategy::kA2C));
  const SearchResult res = driver.run();
  // Synchronous rounds: PPO update count is a multiple of the agent count,
  // unless the convergence stop fired mid-round (which is legitimate).
  EXPECT_GT(res.ppo_updates, 0u);
  if (!res.converged_early) EXPECT_EQ(res.ppo_updates % 3, 0u);
}

TEST(Driver, DeterministicAcrossRuns) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  cfg.wall_time_seconds = 600.0;
  const SearchResult a = SearchDriver(s, ds, cfg).run();
  const SearchResult b = SearchDriver(s, ds, cfg).run();
  ASSERT_EQ(a.evals.size(), b.evals.size());
  for (std::size_t i = 0; i < a.evals.size(); ++i) {
    EXPECT_EQ(a.evals[i].reward, b.evals[i].reward);
    EXPECT_EQ(a.evals[i].arch, b.evals[i].arch);
    EXPECT_DOUBLE_EQ(a.evals[i].time, b.evals[i].time);
  }
}

// A four-architecture space: every agent's cache fills within a few cycles,
// so the all-agents-converged stop fires well before the wall-time limit.
space::SearchSpace tiny_space() {
  using namespace space;
  Structure st;
  st.name = "nt3-tiny";
  st.input_names = {"rna-seq.expression"};
  Cell cell{"C0", {}};
  Block b{"b0", SkipRef::to_input(0), {}};
  b.nodes.emplace_back(VariableNode{"conv", {IdentityOp{}, Conv1DOp{4, 3}}});
  b.nodes.emplace_back(VariableNode{"act", {IdentityOp{}, ActivationOp{nn::Act::kRelu}}});
  cell.blocks.push_back(std::move(b));
  st.cells.push_back(std::move(cell));
  st.output_cells = {0};
  return SearchSpace(std::move(st));
}

/// The full record stream and every tally the search computes.
void expect_same_search(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.evals.size(), b.evals.size());
  for (std::size_t i = 0; i < a.evals.size(); ++i) {
    SCOPED_TRACE("eval " + std::to_string(i));
    const EvalRecord& x = a.evals[i];
    const EvalRecord& y = b.evals[i];
    EXPECT_DOUBLE_EQ(x.time, y.time);
    EXPECT_EQ(x.reward, y.reward);
    EXPECT_EQ(x.params, y.params);
    EXPECT_DOUBLE_EQ(x.sim_duration, y.sim_duration);
    EXPECT_EQ(x.cache_hit, y.cache_hit);
    EXPECT_EQ(x.shared_hit, y.shared_hit);
    EXPECT_EQ(x.timed_out, y.timed_out);
    EXPECT_EQ(x.failed, y.failed);
    EXPECT_EQ(x.attempts, y.attempts);
    EXPECT_EQ(x.agent, y.agent);
    EXPECT_EQ(x.arch, y.arch);
  }
  EXPECT_DOUBLE_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.converged_early, b.converged_early);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.unique_archs, b.unique_archs);
  EXPECT_EQ(a.ppo_updates, b.ppo_updates);
  ASSERT_EQ(a.utilization.size(), b.utilization.size());
  for (std::size_t i = 0; i < a.utilization.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.utilization[i], b.utilization[i]);
  }
}

// Trainings run ahead of the event loop on a pool, and their rewards are
// awaited only where something reads them; with a journal attached they are
// awaited at commit instead. Every schedule must produce the same search:
// no pool, a 1-thread pool, a 4-thread pool, and a 4-thread pool with a
// journal — for every strategy, with a budget cap that lands inside a round,
// and on a run that converges early (trainings still in flight at the stop).
TEST(Driver, DeterministicWithThreadPool) {
  const data::Dataset ds = tiny_nt3();
  const space::SearchSpace nt3 = space::nt3_small_space();
  const space::SearchSpace tiny = tiny_space();
  tensor::ThreadPool pool1(1);
  tensor::ThreadPool pool4(4);
  enum class Scenario { kPlain, kBudget, kConverging };
  for (const SearchStrategy strategy : {SearchStrategy::kA3C, SearchStrategy::kA2C,
                                        SearchStrategy::kRandom, SearchStrategy::kEvolution}) {
    for (const Scenario scenario :
         {Scenario::kPlain, Scenario::kBudget, Scenario::kConverging}) {
      SCOPED_TRACE(std::string(strategy_name(strategy)) + " scenario " +
                   std::to_string(static_cast<int>(scenario)));
      SearchConfig cfg = small_config(strategy);
      // The converging run gets a wall-time limit only the stop can beat.
      cfg.wall_time_seconds = scenario == Scenario::kConverging ? 1e5 : 600.0;
      if (scenario == Scenario::kBudget) cfg.max_evaluations = 7;  // inside the 2nd batch
      const space::SearchSpace& s = scenario == Scenario::kConverging ? tiny : nt3;

      const SearchResult reference = SearchDriver(s, ds, cfg).run();
      EXPECT_EQ(reference.converged_early, scenario == Scenario::kConverging);

      expect_same_search(reference, SearchDriver(s, ds, cfg, &pool1).run());
      expect_same_search(reference, SearchDriver(s, ds, cfg, &pool4).run());
      obs::Telemetry tel;
      tel.enable_journal();
      SearchConfig journaled = cfg;
      journaled.telemetry = &tel;
      expect_same_search(reference, SearchDriver(s, ds, journaled, &pool4).run());
    }
  }
}

TEST(Driver, UtilizationBounded) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchDriver driver(s, ds, small_config(SearchStrategy::kRandom));
  const SearchResult res = driver.run();
  ASSERT_FALSE(res.utilization.empty());
  for (double u : res.utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
}

TEST(Driver, MaxEvaluationsCapRespected) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kRandom);
  cfg.max_evaluations = 20;
  const SearchResult res = SearchDriver(s, ds, cfg).run();
  std::size_t real = 0;
  for (const EvalRecord& e : res.evals) real += !e.cache_hit;
  EXPECT_LE(real, 20u + cfg.cluster.num_agents * cfg.cluster.workers_per_agent);
}

TEST(Driver, FreshEvaluationsAreNotMarkedCached) {
  // Regression: first-occurrence evaluations must count as real worker tasks,
  // not cache hits (random search over a ~6e8 space basically never repeats).
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kRandom);
  cfg.wall_time_seconds = 600.0;
  const SearchResult res = SearchDriver(s, ds, cfg).run();
  ASSERT_GT(res.evals.size(), 0u);
  EXPECT_EQ(res.cache_hits, 0u);
  EXPECT_FALSE(res.converged_early);
  for (const EvalRecord& e : res.evals) EXPECT_FALSE(e.cache_hit);
}

TEST(Driver, BestSoFarIsMonotone) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const SearchResult res = SearchDriver(s, ds, small_config(SearchStrategy::kRandom)).run();
  const auto best = res.best_so_far();
  for (std::size_t i = 1; i < best.size(); ++i) {
    EXPECT_GE(best[i].second, best[i - 1].second);
  }
}

TEST(Driver, TopKUniqueAndSorted) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  const SearchResult res = SearchDriver(s, ds, small_config(SearchStrategy::kRandom)).run();
  const auto top = res.top_k(5);
  ASSERT_LE(top.size(), 5u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].reward, top[i].reward);
    EXPECT_NE(space::arch_key(top[i - 1].arch), space::arch_key(top[i].arch));
  }
}

TEST(Driver, TopKExcludesTimedOutAndFailedRecords) {
  // Floored rewards — timeout kills and retry-exhausted dispatches — are not
  // measurements and must never rank, even when they numerically beat a real
  // (bad) evaluation.
  SearchResult res;
  EvalRecord good;
  good.reward = 0.4f;
  good.arch = {1};
  EvalRecord timed_out;
  timed_out.reward = 0.9f;
  timed_out.timed_out = true;
  timed_out.arch = {2};
  EvalRecord failed;
  failed.reward = 0.9f;
  failed.failed = true;
  failed.arch = {3};
  res.evals = {timed_out, good, failed};
  const auto top = res.top_k(3);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].arch, good.arch);
  EXPECT_EQ(top[0].reward, 0.4f);
}

TEST(Driver, RejectsEmptyCluster) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kRandom);
  cfg.cluster.num_agents = 0;
  EXPECT_THROW(SearchDriver(s, ds, cfg), std::invalid_argument);
}

TEST(StrategyName, AllNamed) {
  EXPECT_STREQ(strategy_name(SearchStrategy::kA3C), "A3C");
  EXPECT_STREQ(strategy_name(SearchStrategy::kA2C), "A2C");
  EXPECT_STREQ(strategy_name(SearchStrategy::kRandom), "RDM");
  EXPECT_STREQ(strategy_name(SearchStrategy::kEvolution), "EVO");
}

TEST(Driver, TelemetryCountersReconcileWithResult) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  obs::Telemetry tel;
  tel.enable_journal();
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  cfg.telemetry = &tel;
  const SearchResult res = SearchDriver(s, ds, cfg).run();

  EXPECT_TRUE(res.telemetry_enabled);
  ASSERT_NE(res.telemetry, nullptr);
  const obs::MetricsSnapshot& m = res.telemetry->metrics;

  const std::uint64_t evals = m.counter_value("ncnas_evals_total");
  const std::uint64_t hits = m.counter_value("ncnas_cache_hits_total");
  const std::uint64_t real = m.counter_value("ncnas_real_evals_total");
  EXPECT_GT(evals, 0u);
  EXPECT_EQ(evals, hits + real);
  EXPECT_EQ(hits, res.cache_hits);
  EXPECT_EQ(m.counter_value("ncnas_eval_timeouts_total"), res.timeouts);
  EXPECT_EQ(m.counter_value("ncnas_ppo_updates_total"), res.ppo_updates);

  // Every real evaluation landed exactly one sample in the sim-duration
  // histogram, and its simulated seconds sum to the histogram's sum.
  const obs::HistogramSample* sim = m.histogram("ncnas_eval_sim_duration_seconds");
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->count, real);
  EXPECT_GT(m.counter_value("ncnas_agent_cycles_total"), 0u);
  EXPECT_GT(m.counter_value("ncnas_ps_delta_applies_total"), 0u);

  // The journal tells the same story as the counters, event for event.
  std::size_t j_cached = 0, j_finished = 0, j_timeouts = 0, j_ppo = 0, j_exchanges = 0;
  for (const obs::JournalEvent& e : res.telemetry->journal) {
    switch (e.type) {
      case obs::JournalEventType::kEvalCached: ++j_cached; break;
      case obs::JournalEventType::kEvalFinished: ++j_finished; break;
      case obs::JournalEventType::kEvalTimeout: ++j_timeouts; break;
      case obs::JournalEventType::kPpoUpdate: ++j_ppo; break;
      case obs::JournalEventType::kPsExchange: ++j_exchanges; break;
      default: break;
    }
  }
  EXPECT_EQ(j_cached, hits);
  EXPECT_EQ(j_finished, real);
  EXPECT_EQ(j_timeouts, m.counter_value("ncnas_eval_timeouts_total"));
  EXPECT_EQ(j_ppo, res.ppo_updates);
  EXPECT_EQ(j_exchanges, m.counter_value("ncnas_ps_exchanges_total"));
  EXPECT_GT(j_exchanges, 0u);
}

TEST(Driver, TelemetryTraceHasCycleSpansPerAgent) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  obs::Telemetry tel;
  SearchConfig cfg = small_config(SearchStrategy::kA2C);
  cfg.telemetry = &tel;
  (void)SearchDriver(s, ds, cfg).run();

  std::vector<std::size_t> cycle_spans(cfg.cluster.num_agents, 0);
  std::size_t barrier_spans = 0;
  for (const obs::TraceEvent& e : tel.trace().snapshot()) {
    if (e.name == "agent_cycle") {
      EXPECT_EQ(e.phase, 'X');
      ASSERT_LT(e.tid, cycle_spans.size());
      ++cycle_spans[e.tid];
    }
    if (e.name == "a2c_barrier_wait") ++barrier_spans;
  }
  for (std::size_t n : cycle_spans) EXPECT_GE(n, 1u);
  EXPECT_GT(barrier_spans, 0u);
}

TEST(Driver, TelemetryDisabledLeavesResultsBitIdentical) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  SearchConfig cfg = small_config(SearchStrategy::kA3C);
  cfg.wall_time_seconds = 600.0;
  const SearchResult plain = SearchDriver(s, ds, cfg).run();
  obs::Telemetry tel;
  tel.enable_journal();   // the heaviest observation configuration:
  tel.enable_watchdog();  // journal + watchdog must still not perturb results
  cfg.telemetry = &tel;
  const SearchResult observed = SearchDriver(s, ds, cfg).run();

  EXPECT_FALSE(plain.telemetry_enabled);
  EXPECT_EQ(plain.telemetry, nullptr);
  ASSERT_EQ(plain.evals.size(), observed.evals.size());
  for (std::size_t i = 0; i < plain.evals.size(); ++i) {
    EXPECT_EQ(plain.evals[i].reward, observed.evals[i].reward);
    EXPECT_EQ(plain.evals[i].arch, observed.evals[i].arch);
    EXPECT_DOUBLE_EQ(plain.evals[i].time, observed.evals[i].time);
  }
  EXPECT_EQ(plain.cache_hits, observed.cache_hits);
  EXPECT_EQ(plain.ppo_updates, observed.ppo_updates);
  EXPECT_DOUBLE_EQ(plain.end_time, observed.end_time);
}

TEST(Driver, ProfilerOnOffLeavesResultsBitIdentical) {
  const space::SearchSpace s = space::nt3_small_space();
  const data::Dataset ds = tiny_nt3();
  for (const SearchStrategy strategy : {SearchStrategy::kRandom, SearchStrategy::kA3C,
                                        SearchStrategy::kA2C, SearchStrategy::kEvolution}) {
    SearchConfig cfg = small_config(strategy);
    cfg.wall_time_seconds = 600.0;
    const SearchResult plain = SearchDriver(s, ds, cfg).run();

    obs::Telemetry tel;
    tel.enable_profiler();
    cfg.telemetry = &tel;
    const SearchResult profiled = SearchDriver(s, ds, cfg).run();

    ASSERT_EQ(plain.evals.size(), profiled.evals.size());
    for (std::size_t i = 0; i < plain.evals.size(); ++i) {
      EXPECT_EQ(plain.evals[i].reward, profiled.evals[i].reward);
      EXPECT_EQ(plain.evals[i].arch, profiled.evals[i].arch);
      EXPECT_DOUBLE_EQ(plain.evals[i].time, profiled.evals[i].time);
    }
    EXPECT_EQ(plain.cache_hits, profiled.cache_hits);
    EXPECT_EQ(plain.ppo_updates, profiled.ppo_updates);
    EXPECT_DOUBLE_EQ(plain.end_time, profiled.end_time);
    // And the profiler actually saw the run: real training happened inside
    // installed scopes, so the snapshot cannot be empty.
    const obs::ProfileSnapshot prof = tel.profiler()->snapshot();
    EXPECT_FALSE(prof.empty());
    bool saw_eval = false;
    for (const obs::FlatProfileEntry& e : prof.flat()) saw_eval |= e.name == "eval";
    EXPECT_TRUE(saw_eval);
  }
}

}  // namespace
}  // namespace ncnas::nas
