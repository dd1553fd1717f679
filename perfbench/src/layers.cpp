#include "layers.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>

#include "ncnas/ckpt/snapshot.hpp"
#include "ncnas/exec/evaluator.hpp"
#include "ncnas/exec/fidelity_ladder.hpp"
#include "ncnas/nn/trainer.hpp"
#include "ncnas/obs/journal.hpp"
#include "ncnas/rl/controller.hpp"

namespace perfbench {

namespace nas = ncnas::nas;
namespace exec = ncnas::exec;
namespace obs = ncnas::obs;
namespace fs = std::filesystem;

namespace {

// Replay sizes. p95 metrics need at least 200 samples for ten to lie beyond
// the 95th percentile.
constexpr std::size_t kNnReplays = 200;
constexpr std::size_t kSampleReplays = 400;
constexpr std::size_t kPpoReplays = 200;
constexpr std::size_t kWhatIfLadderBatches = 8;
constexpr std::size_t kSummarizePasses = 5;
constexpr std::size_t kTenantsJsonCalls = 20;
constexpr std::size_t kExtraSetups = 3;

bool is_eval_root(const std::string& name) {
  return name == "eval" || name == "ladder/build" || name == "ladder/train" ||
         name == "ladder/validate";
}

void add_subtree(const obs::ProfileNode& n, EvalBreakdown& b) {
  b.self_ms[n.name] += n.self_ms;
  b.flops[n.name] += n.flops;
  for (const obs::ProfileNode& c : n.children) add_subtree(c, b);
}

void walk(const obs::ProfileNode& n, EvalBreakdown& b) {
  if (n.name == "rl/ppo_update") b.ppo_update_ms += n.total_ms;
  if (is_eval_root(n.name)) {
    b.eval_ms += n.total_ms;
    add_subtree(n, b);
    return;
  }
  for (const obs::ProfileNode& c : n.children) walk(c, b);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

template <typename Fn>
void timed(SpanRecorder& rec, const char* name, Fn&& fn) {
  SpanRecorder::Scope scope(rec, name);
  fn();
}

struct Training {
  std::size_t tenant = 0;
  const ncnas::space::ArchEncoding* arch = nullptr;
};

ncnas::nn::TrainOptions train_options(const exec::FidelityConfig& f,
                                      const ncnas::data::Dataset& ds) {
  ncnas::nn::TrainOptions opts;
  opts.epochs = f.epochs;
  opts.batch_size = f.batch_size != 0 ? f.batch_size : ds.batch_size;
  opts.learning_rate = f.learning_rate;
  opts.loss = ds.loss;
  opts.subset_fraction = f.subset_fraction;
  return opts;
}

// Each metric names the end-to-end metric and workload it should move.
constexpr const char* kTensorTarget = "evals_per_s on search-a2c-combo; ~none on search-a3c-nt3";
constexpr const char* kSearchTarget = "evals_per_s on both searches";
constexpr const char* kServeEvalTarget = "evals_per_s on serve-sliced-nt3";
constexpr const char* kNasTarget = "evals_per_s on search-a2c-combo; flat on search-a3c-nt3";
constexpr const char* kRlTarget = "evals_per_s on search-a2c-combo; round_p50_ms on serve-sliced-nt3";
constexpr const char* kCkptTarget = "round_p50_ms, round_p95_ms on serve-sliced-nt3";
constexpr const char* kObsTarget = "round_p50_ms on serve-sliced-nt3";
constexpr const char* kServeTarget = "round_p95_ms on serve-sliced-nt3";

}  // namespace

EvalBreakdown eval_breakdown(const obs::ProfileSnapshot& profile) {
  EvalBreakdown b;
  for (const obs::ProfileNode& root : profile.roots) walk(root, b);
  return b;
}

Ratio eval_share(const EvalBreakdown& b, const std::vector<std::string>& scopes) {
  Ratio r{0.0, b.eval_ms};
  for (const std::string& s : scopes) {
    if (const auto it = b.self_ms.find(s); it != b.self_ms.end()) r.part += it->second;
  }
  return r;
}

double eval_gflops(const EvalBreakdown& b, const std::string& kernel) {
  const auto f = b.flops.find(kernel);
  const auto t = b.self_ms.find(kernel);
  if (f == b.flops.end() || t == b.self_ms.end() || t->second <= 0.0) return 0.0;
  return f->second / (t->second * 1e6);
}

Ratio pool_busy_share(double eval_cpu_s, double run_s, std::size_t threads) {
  return {eval_cpu_s, run_s * static_cast<double>(threads)};
}

TracedReport run_traced(Workload w, std::uint64_t bench_seed, const Options& opts,
                        const std::vector<std::string>& expected) {
  const Seeds seeds = derive_seeds(bench_seed);
  const std::string pid = std::to_string(::getpid());
  TracedReport rep;
  SpanRecorder rec;
  std::vector<double> data_make_s;

  // Run 0, tracing off: the reference for the tracing overhead and the
  // untraced wall time the pool-busy share is taken over.
  RunOutcome plain;
  std::size_t threads = 0;
  {
    auto setup = make_setup(w, seeds, opts, 0);
    data_make_s.push_back(setup->data_make_s);
    threads = setup->pool->thread_count();
    plain = run_workload(*setup);
  }
  rep.attempted += plain.tenants.size();
  rep.failed += check_outcome(plain, expected, opts.work_dir);
  std::vector<std::string> reference = expected;
  if (reference.empty()) {
    for (const TenantRun& t : plain.tenants) reference.push_back(t.digest);
  }

  // Run 1, traced: spans around the program's entry points, the program's
  // own profiler, and (searches) a journal plus a checkpoint policy so the
  // obs and ckpt replays below have real inputs. None of these may change a
  // result bit, which the digest check enforces.
  rec.set_run(1);
  const int root = rec.begin("workload");
  std::unique_ptr<Setup> setup = make_setup(w, seeds, opts, 1, &rec);
  data_make_s.push_back(setup->data_make_s);
  const bool serving = w == Workload::kServeSlicedNt3;
  obs::Telemetry telemetry;
  telemetry.enable_profiler();
  telemetry.enable_journal();
  const std::string ckpt_dir = (fs::path(opts.work_dir) / ("ckpt-" + pid)).string();
  fs::remove_all(ckpt_dir);
  ncnas::ckpt::CheckpointConfig checkpoint;
  checkpoint.directory = ckpt_dir;
  checkpoint.interval_seconds = setup->search.wall_time_seconds / 8.0;
  checkpoint.keep_last = 0;
  const std::string replay_snapshot = (fs::path(opts.work_dir) / ("replay-" + pid + ".ckpt")).string();

  std::size_t snapshots = 0;
  std::vector<double> snapshot_kb;
  const auto replay_snapshot_io = [&](const std::string& path) {
    ncnas::ckpt::Snapshot snap;
    timed(rec, "ckpt.read", [&] { snap = ncnas::ckpt::read_snapshot(path); });
    timed(rec, "ckpt.write", [&] {
      ncnas::ckpt::write_snapshot(replay_snapshot, snap.header, snap.payload);
    });
    ++snapshots;
    snapshot_kb.push_back(static_cast<double>(fs::file_size(path)) / 1024.0);
  };

  obs::Profiler serve_profiler;
  RunHooks hooks;
  hooks.spans = &rec;
  std::optional<obs::ProfilerInstallGuard> install;
  std::vector<std::string> last_snapshot(setup->tenant_ids.size());
  if (serving) {
    // Sessions make their own per-slice telemetry without a profiler, so the
    // driver's install guard is a no-op and this one stays in effect.
    install.emplace(&serve_profiler);
    hooks.after_step = [&](Setup& s) {
      for (std::size_t i = 0; i < s.tenant_ids.size(); ++i) {
        const std::string& path = s.server->session(s.tenant_ids[i]).snapshot_path();
        if (path.empty() || path == last_snapshot[i]) continue;
        last_snapshot[i] = path;
        replay_snapshot_io(path);
      }
      timed(rec, "obs.tenants_json", [&] { (void)s.server->tenants_json(); });
    };
  } else {
    hooks.telemetry = &telemetry;
    hooks.checkpoint = &checkpoint;
  }
  RunOutcome traced = run_workload(*setup, hooks);
  install.reset();
  rec.end(root);
  // The result records that it was observed and checkpointed; those two
  // bookkeeping fields are the only ones a traced search may change.
  for (TenantRun& t : traced.tenants) {
    if (serving) break;
    t.result.telemetry_enabled = false;
    t.result.telemetry.reset();
    t.result.checkpoints_written = 0;
  }
  rep.attempted += traced.tenants.size();
  rep.failed += check_outcome(traced, reference, opts.work_dir);
  rep.untraced_evals_per_s = plain.run_s > 0 ? plain.evals() / plain.run_s : 0.0;
  rep.traced_evals_per_s = traced.run_s > 0 ? traced.evals() / traced.run_s : 0.0;

  const EvalBreakdown b =
      eval_breakdown(serving ? serve_profiler.snapshot() : telemetry.profiler()->snapshot());

  // Run 2: replays of the run's own inputs, serially, with the program
  // untraced. Replay seeds only affect timing.
  rec.set_run(2);
  const int replay_root = rec.begin("replay");
  const ncnas::space::SearchSpace& space = *setup->space;
  const ncnas::data::Dataset& ds = setup->dataset;
  std::vector<Training> flat;
  std::vector<std::vector<ncnas::space::ArchEncoding>> ladder_batches;
  std::vector<float> rewards;
  std::size_t timeouts = 0, cache_hits = 0, ladder_trainings = 0;
  for (std::size_t ti = 0; ti < traced.tenants.size(); ++ti) {
    const TenantRun& t = traced.tenants[ti];
    if (!t.ok) continue;
    timeouts += t.result.timeouts;
    cache_hits += t.result.cache_hits;
    ladder_trainings += t.result.ladder_trainings;
    const std::size_t batch = std::max<std::size_t>(1, t.config.cluster.workers_per_agent);
    for (const nas::EvalRecord& e : t.result.evals) {
      rewards.push_back(e.reward);
      if (e.cache_hit || e.failed) continue;
      if (t.config.ladder.enabled()) {
        if (ladder_batches.empty() || ladder_batches.back().size() == batch) {
          ladder_batches.emplace_back();
        }
        ladder_batches.back().push_back(e.arch);
      } else if (!e.timed_out) {
        flat.push_back({ti, &e.arch});
      }
    }
  }
  std::vector<std::unique_ptr<exec::TrainingEvaluator>> evaluators;
  for (const TenantRun& t : traced.tenants) {
    evaluators.push_back(
        std::make_unique<exec::TrainingEvaluator>(space, ds, t.config.fidelity, t.config.cost));
  }

  // exec: every flat real training once, then the ladder tenant's batches.
  for (std::size_t i = 0; i < flat.size(); ++i) {
    timed(rec, "exec.evaluate", [&] {
      (void)evaluators[flat[i].tenant]->evaluate(*flat[i].arch, derive_seed(seeds.replay, i));
    });
  }
  const TenantRun* ladder_tenant = nullptr;
  for (const TenantRun& t : traced.tenants) {
    if (t.ok && t.config.ladder.enabled()) ladder_tenant = &t;
  }
  double ladder_cpu_s = 0.0;
  if (ladder_tenant != nullptr) {
    const exec::FidelityLadder ladder(space, ds, ladder_tenant->config.ladder,
                                      ladder_tenant->config.cost);
    for (std::size_t i = 0; i < ladder_batches.size(); ++i) {
      timed(rec, "exec.ladder_batch", [&] {
        (void)ladder.evaluate_batch(ladder_batches[i], derive_seed(seeds.replay, 1000 + i));
      });
    }
    ladder_cpu_s = sum(rec.durations_ms("exec.ladder_batch")) / 1e3;
  } else if (!flat.empty()) {
    // No tenant runs a ladder: time what a two-rung ladder over this
    // workload's own fidelity would cost on its first batches. Not part of
    // eval CPU, since the run did not do this work.
    const TenantRun& t = traced.tenants[flat.front().tenant];
    exec::FidelityConfig top = t.config.fidelity;
    top.epochs = std::max<std::size_t>(2, 2 * top.epochs);
    const exec::FidelityLadder ladder(space, ds, exec::make_geometric_ladder(top, 2, 2),
                                      t.config.cost);
    const std::size_t batch = std::max<std::size_t>(1, t.config.cluster.workers_per_agent);
    for (std::size_t i = 0; i < kWhatIfLadderBatches && (i + 1) * batch <= flat.size(); ++i) {
      std::vector<ncnas::space::ArchEncoding> archs;
      for (std::size_t k = 0; k < batch; ++k) archs.push_back(*flat[i * batch + k].arch);
      timed(rec, "exec.ladder_batch",
            [&] { (void)ladder.evaluate_batch(archs, derive_seed(seeds.replay, 1000 + i)); });
    }
  }
  const std::vector<double> evaluate_ms = rec.durations_ms("exec.evaluate");
  const double eval_cpu_s = sum(evaluate_ms) / 1e3 + ladder_cpu_s;

  // nn: build, fit and validate separately, on flat trainings spread over
  // the run (cycled when the run trained fewer than kNnReplays).
  if (!flat.empty()) {
    for (std::size_t k = 0; k < kNnReplays; ++k) {
      const Training& tr = flat[(k * flat.size()) / kNnReplays % flat.size()];
      const exec::TrainingEvaluator& ev = *evaluators[tr.tenant];
      const exec::FidelityConfig& f = ev.fidelity();
      const std::uint64_t seed = derive_seed(seeds.replay, 5000 + k);
      std::optional<ncnas::nn::Graph> model;
      timed(rec, "nn.build", [&] { model.emplace(ev.build(*tr.arch, seed)); });
      const ncnas::nn::TrainOptions topts = train_options(f, ds);
      ncnas::tensor::Rng rng = ncnas::tensor::Rng(seed).split(1);
      timed(rec, "nn.fit", [&] { (void)ncnas::nn::fit(*model, ds.x_train, ds.y_train, topts, rng); });
      const auto rows = static_cast<std::size_t>(
          std::max(1.0, f.valid_fraction * static_cast<double>(ds.valid_rows())));
      std::vector<ncnas::tensor::Tensor> xv;
      for (const ncnas::tensor::Tensor& x : ds.x_valid) {
        xv.push_back(ncnas::nn::slice_rows(x, 0, std::min(rows, ds.valid_rows())));
      }
      const ncnas::tensor::Tensor yv =
          ncnas::nn::slice_rows(ds.y_valid, 0, std::min(rows, ds.valid_rows()));
      timed(rec, "nn.validate", [&] { (void)ncnas::nn::evaluate(*model, xv, yv, ds.metric); });
    }
  }

  // rl: the controller at the workload's space and per-agent batch.
  {
    const TenantRun& t = traced.tenants.front();
    ncnas::rl::Controller controller(space.arities(), seeds.replay);
    ncnas::tensor::Rng rng(seeds.replay);
    std::vector<ncnas::rl::Rollout> rollouts;
    for (std::size_t i = 0; i < kSampleReplays; ++i) {
      timed(rec, "rl.sample", [&] { rollouts.push_back(controller.sample(rng)); });
    }
    const std::size_t batch = std::max<std::size_t>(1, t.config.cluster.workers_per_agent);
    if (rewards.empty()) rewards.push_back(0.0f);
    for (std::size_t i = 0; i < kPpoReplays; ++i) {
      std::vector<ncnas::rl::Rollout> rb;
      std::vector<float> rw;
      for (std::size_t k = 0; k < batch; ++k) {
        rb.push_back(rollouts[(i * batch + k) % rollouts.size()]);
        rw.push_back(rewards[(i * batch + k) % rewards.size()]);
      }
      timed(rec, "rl.ppo_update", [&] { (void)controller.ppo_update(rb, rw, t.config.ppo); });
    }
  }

  // ckpt (searches): the traced run's own snapshots, read and rewritten.
  if (!serving) {
    for (const std::string& path : ncnas::ckpt::list_checkpoints(ckpt_dir)) replay_snapshot_io(path);
  }
  fs::remove_all(ckpt_dir);
  fs::remove(replay_snapshot);

  // obs: summarize the run's (stitched) journals; /tenants rendering.
  std::vector<std::vector<obs::JournalEvent>> journals;
  if (serving) {
    for (const std::uint32_t id : setup->tenant_ids) journals.push_back(setup->server->journal(id));
  } else {
    journals.push_back(telemetry.journal()->snapshot());
  }
  std::size_t journal_events = 0;
  for (const auto& j : journals) journal_events += j.size();
  for (std::size_t pass = 0; pass < kSummarizePasses; ++pass) {
    for (const auto& j : journals) {
      timed(rec, "obs.summarize", [&] { (void)obs::summarize_journal(j); });
    }
  }
  if (!serving) {
    // A search has no server: render /tenants for a one-tenant server that
    // has admitted this search, so the metric exists on every workload.
    ncnas::serve::ServeConfig scfg;
    scfg.total_slots = setup->search.cluster.total_workers();
    scfg.state_dir = (fs::path(opts.work_dir) / ("tenants-" + pid)).string();
    {
      ncnas::serve::SearchServer server(scfg);
      ncnas::serve::TenantSpec spec;
      spec.name = workload_name(w);
      spec.space = &space;
      spec.dataset = &ds;
      spec.config = setup->search;
      (void)server.submit(std::move(spec));
      for (std::size_t i = 0; i < kTenantsJsonCalls; ++i) {
        timed(rec, "obs.tenants_json", [&] { (void)server.tenants_json(); });
      }
    }
    fs::remove_all(scfg.state_dir);
  }

  // data: a few more set-ups for a steadier median.
  for (std::size_t i = 0; i < kExtraSetups; ++i) {
    data_make_s.push_back(make_setup(w, seeds, opts, static_cast<int>(2 + i))->data_make_s);
  }
  rec.end(replay_root);

  std::size_t rounds = 0, slices = 0, preemptions = 0;
  exec::SharedEvalCache::Stats shared;
  if (serving) {
    rounds = setup->server->rounds();
    for (const std::uint32_t id : setup->tenant_ids) {
      slices += setup->server->session(id).slices();
      preemptions += setup->server->session(id).preemptions();
    }
    shared = setup->shared->totals();
  }

  const Ratio gemm = eval_share(b, {"gemm", "gemm_nt", "gemm_tn"});
  const Ratio busy = pool_busy_share(eval_cpu_s, plain.run_s, threads);
  const Ratio ppo_serial{b.ppo_update_ms / 1e3, traced.run_s};
  const Ratio shared_hits{static_cast<double>(shared.hits),
                          static_cast<double>(shared.hits + shared.misses)};
  const std::string eval_base = "eval time " + std::to_string(b.eval_ms / 1e3) + " s (profiler)";
  const auto share = [&](const char* name, const std::vector<std::string>& scopes,
                         const char* target) {
    return LayerMetric{name, eval_share(b, scopes).value(), "ratio", eval_base, target};
  };
  const auto ms = [](const char* name, double v, const char* target) {
    return LayerMetric{name, v, "ms", "", target};
  };
  const auto count = [](const char* name, std::size_t v, const char* target) {
    return LayerMetric{name, static_cast<double>(v), "count", "", target};
  };
  const std::vector<double> fit = rec.durations_ms("nn.fit");
  const std::vector<double> ppo = rec.durations_ms("rl.ppo_update");
  std::vector<double> sample_us = rec.durations_ms("rl.sample");
  for (double& v : sample_us) v *= 1e3;

  rep.metrics = {
      {"tensor.gemm_gflops", eval_gflops(b, "gemm"), "GFLOP/s", "", kTensorTarget},
      {"tensor.gemm_nt_gflops", eval_gflops(b, "gemm_nt"), "GFLOP/s", "", kTensorTarget},
      {"tensor.gemm_tn_gflops", eval_gflops(b, "gemm_tn"), "GFLOP/s", "", kTensorTarget},
      {"tensor.gemm_share", gemm.value(), "ratio", eval_base, kTensorTarget},
      ms("nn.fit_ms_p50", percentile(fit, 0.5), kSearchTarget),
      ms("nn.fit_ms_p95", percentile(fit, 0.95), kSearchTarget),
      ms("nn.validate_ms_p50", median(rec.durations_ms("nn.validate")), kSearchTarget),
      ms("nn.build_ms_p50", median(rec.durations_ms("nn.build")), kSearchTarget),
      share("nn.conv1d_share", {"op/conv1d"},
            "evals_per_s on search-a3c-nt3 and serve-sliced-nt3"),
      share("nn.activation_share", {"op/activation"},
            "evals_per_s on search-a3c-nt3 and serve-sliced-nt3"),
      share("nn.dense_share", {"op/dense"}, "evals_per_s on search-a2c-combo"),
      share("nn.dropout_share", {"op/dropout"}, "evals_per_s on search-a2c-combo"),
      ms("exec.evaluate_ms_p50", percentile(evaluate_ms, 0.5), kSearchTarget),
      ms("exec.evaluate_ms_p95", percentile(evaluate_ms, 0.95), kSearchTarget),
      {"exec.eval_cpu_s", eval_cpu_s, "s", "", kSearchTarget},
      count("exec.timeouts", timeouts, kSearchTarget),
      {"exec.shared_hit_ratio", shared_hits.value(), "ratio",
       "shared-cache lookups " + std::to_string(static_cast<std::size_t>(shared_hits.base)),
       kServeEvalTarget},
      count("exec.cross_tenant_hits", shared.cross_tenant_hits, kServeEvalTarget),
      ms("exec.ladder_batch_ms_p50", median(rec.durations_ms("exec.ladder_batch")),
         kServeEvalTarget),
      count("exec.ladder_trainings", ladder_trainings, kServeEvalTarget),
      {"nas.run_s", plain.run_s, "s", "", kNasTarget},
      {"nas.pool_busy_share", busy.value(), "ratio",
       "nas.run_s x " + std::to_string(threads) + " pool threads = " +
           std::to_string(busy.base) + " s",
       kNasTarget},
      count("nas.real_trainings", flat.size() + ladder_trainings, kNasTarget),
      count("nas.cache_hits", cache_hits, kNasTarget),
      {"rl.sample_us_p50", median(sample_us), "us", "", kRlTarget},
      ms("rl.ppo_update_ms_p50", percentile(ppo, 0.5), kRlTarget),
      ms("rl.ppo_update_ms_p95", percentile(ppo, 0.95), kRlTarget),
      {"rl.ppo_serial_share", ppo_serial.value(), "ratio",
       "traced run wall " + std::to_string(traced.run_s) + " s", kRlTarget},
      count("ckpt.snapshots", snapshots, kCkptTarget),
      {"ckpt.snapshot_kb_max", max_of(snapshot_kb), "KiB", "", kCkptTarget},
      ms("ckpt.read_ms_p50", median(rec.durations_ms("ckpt.read")), kCkptTarget),
      ms("ckpt.write_ms_p50", median(rec.durations_ms("ckpt.write")), kCkptTarget),
      count("obs.journal_events", journal_events, kObsTarget),
      ms("obs.summarize_ms_p50", median(rec.durations_ms("obs.summarize")), kObsTarget),
      ms("obs.tenants_json_ms", median(rec.durations_ms("obs.tenants_json")), kObsTarget),
      count("serve.rounds", rounds, kServeTarget),
      count("serve.slices", slices, kServeTarget),
      count("serve.preemptions", preemptions, kServeTarget),
      {"data.make_s", median(data_make_s), "s", "", "setup_s on all"},
  };

  rep.trace_path = (fs::path(opts.work_dir) / (std::string("trace-") + workload_name(w) + "-" +
                                               std::to_string(bench_seed) + ".json"))
                       .string();
  std::ofstream trace(rep.trace_path);
  rec.write_chrome_trace(trace);
  rep.span_self_ms = rec.self_ms_by_name();
  return rep;
}

}  // namespace perfbench
