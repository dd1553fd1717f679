#include "workloads.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ncnas/exec/fidelity_ladder.hpp"
#include "ncnas/exec/presets.hpp"
#include "ncnas/nas/result_io.hpp"
#include "ncnas/space/spaces.hpp"
#include "stats.hpp"

namespace perfbench {

namespace nas = ncnas::nas;
namespace serve = ncnas::serve;
namespace data = ncnas::data;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Purposes fed to derive_seed; changing one changes every reference digest.
enum Purpose : std::uint64_t { kData = 1, kSearch = 2, kReplica = 3, kReplay = 4 };

nas::SearchConfig a2c_combo_config(const Seeds& seeds, bool shortened) {
  nas::SearchConfig cfg;
  cfg.strategy = nas::SearchStrategy::kA2C;
  cfg.cluster = {.num_agents = 4, .workers_per_agent = 4};
  cfg.wall_time_seconds = (shortened ? 4.0 : 30.0) * 60.0;
  cfg.fidelity = {.epochs = 1, .subset_fraction = 0.5};
  cfg.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};
  cfg.seed = seeds.search;
  return cfg;
}

nas::SearchConfig a3c_nt3_config(const Seeds& seeds, bool shortened) {
  nas::SearchConfig cfg;
  cfg.strategy = nas::SearchStrategy::kA3C;
  cfg.cluster = {.num_agents = 4, .workers_per_agent = 4};
  cfg.wall_time_seconds = (shortened ? 8.0 : 60.0) * 60.0;
  cfg.fidelity = ncnas::exec::default_fidelity("nt3");
  cfg.cost = ncnas::exec::default_cost("nt3");
  cfg.seed = seeds.search;
  return cfg;
}

data::Dataset tiny_nt3(std::uint64_t seed) {
  data::Nt3Dims dims;
  dims.train = 64;
  dims.valid = 32;
  dims.length = 64;
  dims.motif = 6;
  return data::make_nt3(seed, dims);
}

// The serve workload's quantum is short on purpose: every slice writes a
// snapshot, resumes from one and re-summarizes its stitched journal, so
// ckpt/obs/serve carry real work per round.
constexpr double kServeQuantumSeconds = 15.0;

std::vector<serve::TenantSpec> serve_tenants(const Setup& s, const Seeds& seeds, bool shortened) {
  nas::SearchConfig base;
  base.cluster = {.num_agents = 3, .workers_per_agent = 4};
  base.wall_time_seconds = shortened ? 120.0 : 900.0;
  base.fidelity = {.epochs = 1, .subset_fraction = 1.0};
  base.cost = {.startup_seconds = 20.0, .seconds_per_megaunit = 1.0, .timeout_seconds = 600.0};

  const auto spec = [&](std::string name, nas::SearchStrategy strategy, std::uint64_t seed,
                        double priority) {
    serve::TenantSpec t;
    t.name = std::move(name);
    t.space = &*s.space;
    t.dataset = &s.dataset;
    t.config = base;
    t.config.strategy = strategy;
    t.config.seed = seed;
    t.priority = priority;
    return t;
  };
  serve::TenantSpec ladder = spec("a3c-ladder", nas::SearchStrategy::kA3C, seeds.search, 2.0);
  ladder.config.ladder =
      ncnas::exec::make_geometric_ladder({.epochs = 2, .subset_fraction = 1.0}, 2, 2);
  // The replica shares the A2C tenant's seed, so it samples the same
  // architectures and is served mostly from the shared cache.
  return {std::move(ladder), spec("a2c", nas::SearchStrategy::kA2C, seeds.replica, 1.0),
          spec("a2c-replica", nas::SearchStrategy::kA2C, seeds.replica, 1.0)};
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "search-a2c-combo") return Workload::kSearchA2cCombo;
  if (name == "search-a3c-nt3") return Workload::kSearchA3cNt3;
  if (name == "serve-sliced-nt3") return Workload::kServeSlicedNt3;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSearchA2cCombo: return "search-a2c-combo";
    case Workload::kSearchA3cNt3: return "search-a3c-nt3";
    case Workload::kServeSlicedNt3: return "serve-sliced-nt3";
  }
  return "?";
}

Seeds derive_seeds(std::uint64_t bench_seed, std::size_t instance) {
  const std::uint64_t base = 8 * static_cast<std::uint64_t>(instance);
  return {derive_seed(bench_seed, base + kData), derive_seed(bench_seed, base + kSearch),
          derive_seed(bench_seed, base + kReplica), derive_seed(bench_seed, base + kReplay)};
}

std::size_t planned_instances(Workload w, double seconds) {
  double nominal = 0.0;
  switch (w) {
    case Workload::kSearchA2cCombo: nominal = 5.5; break;
    case Workload::kSearchA3cNt3: nominal = 4.6; break;
    case Workload::kServeSlicedNt3: nominal = 3.8; break;
  }
  return std::max<std::size_t>(2, static_cast<std::size_t>(std::llround(seconds / nominal)));
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

Setup::~Setup() {
  server.reset();
  if (!state_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(state_dir, ec);
  }
}

std::unique_ptr<Setup> make_setup(Workload w, const Seeds& seeds, const Options& opts,
                                  int instance, SpanRecorder* spans) {
  auto s = std::make_unique<Setup>();
  s->workload = w;
  const auto step = [spans](const char* name, const auto& fn) {
    std::optional<SpanRecorder::Scope> scope;
    if (spans != nullptr) scope.emplace(*spans, name);
    fn();
  };
  const auto t0 = Clock::now();
  step("data.make", [&] {
    switch (w) {
      case Workload::kSearchA2cCombo: {
        data::ComboDims dims;
        dims.train = 512;
        dims.valid = 128;
        s->dataset = data::make_combo(seeds.data, dims);
        break;
      }
      case Workload::kSearchA3cNt3: s->dataset = data::make_nt3(seeds.data); break;
      case Workload::kServeSlicedNt3: s->dataset = tiny_nt3(seeds.data); break;
    }
  });
  s->data_make_s = seconds_since(t0);
  step("space.build", [&] {
    s->space = w == Workload::kSearchA2cCombo ? ncnas::space::combo_small_space()
                                              : ncnas::space::nt3_small_space();
  });
  if (w == Workload::kSearchA2cCombo) s->search = a2c_combo_config(seeds, opts.shortened);
  if (w == Workload::kSearchA3cNt3) s->search = a3c_nt3_config(seeds, opts.shortened);
  step("pool.start", [&] {
    s->pool = std::make_unique<ncnas::tensor::ThreadPool>(opts.threads == 0 ? nproc()
                                                                            : opts.threads);
  });
  if (w == Workload::kServeSlicedNt3) step("serve.submit", [&] {
    s->state_dir = (std::filesystem::path(opts.work_dir) /
                    ("serve-" + std::to_string(::getpid()) + "-" + std::to_string(instance)))
                       .string();
    std::filesystem::remove_all(s->state_dir);
    s->shared = std::make_unique<ncnas::exec::SharedEvalCache>();
    std::vector<serve::TenantSpec> specs = serve_tenants(*s, seeds, opts.shortened);
    serve::ServeConfig scfg;
    scfg.total_slots = specs.front().config.cluster.total_workers();  // one gang per round
    scfg.quantum_seconds = kServeQuantumSeconds;
    scfg.max_tenants = specs.size();
    scfg.state_dir = s->state_dir;
    scfg.shared_cache = s->shared.get();
    scfg.pool = s->pool.get();
    s->server = std::make_unique<serve::SearchServer>(scfg);
    for (serve::TenantSpec& spec : specs) {
      const std::string name = spec.name;
      try {
        s->tenant_ids.push_back(s->server->submit(std::move(spec)));
      } catch (const serve::AdmissionError&) {
        s->refused.push_back(name);  // a failed tenant search in run_workload
      }
    }
  });
  s->setup_s = seconds_since(t0);
  return s;
}

std::size_t RunOutcome::evals() const {
  std::size_t n = 0;
  for (const TenantRun& t : tenants) n += t.ok ? t.result.evals.size() : 0;
  return n;
}

std::size_t check_outcome(RunOutcome& out, const std::vector<std::string>& expected,
                          const std::string& work_dir) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < out.tenants.size(); ++i) {
    TenantRun& t = out.tenants[i];
    if (!t.ok) {
      ++failed;
      continue;
    }
    t.digest = result_digest(t.result, nas::config_fingerprint(t.config, t.space_name), work_dir);
    if (!expected.empty() && (i >= expected.size() || expected[i] != t.digest)) ++failed;
  }
  return failed;
}

std::string result_digest(const nas::SearchResult& result, const std::string& fingerprint,
                          const std::string& work_dir) {
  const std::string path =
      (std::filesystem::path(work_dir) / ("result-" + std::to_string(::getpid()) + ".log"))
          .string();
  nas::save_result(path, result, fingerprint);
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  in.close();
  std::filesystem::remove(path);
  return hex64(fnv1a64(text.str()));
}

RunOutcome run_workload(Setup& s, const RunHooks& hooks) {
  RunOutcome out;
  const std::string& space_name = s.space->name();
  const auto t0 = Clock::now();
  if (s.workload != Workload::kServeSlicedNt3) {
    TenantRun t;
    t.name = workload_name(s.workload);
    t.config = s.search;
    t.space_name = space_name;
    nas::SearchConfig cfg = s.search;
    cfg.telemetry = hooks.telemetry;
    cfg.checkpoint = hooks.checkpoint;
    try {
      std::optional<SpanRecorder::Scope> span;
      if (hooks.spans != nullptr) span.emplace(*hooks.spans, "nas.run");
      t.result = nas::SearchDriver(*s.space, s.dataset, cfg, s.pool.get()).run();
      t.ok = true;
    } catch (const std::exception& e) {
      t.error = e.what();
    }
    out.run_s = seconds_since(t0);
    out.tenants.push_back(std::move(t));
  } else {
    std::string error;
    try {
      bool more = true;
      while (more) {
        const int span = hooks.spans != nullptr ? hooks.spans->begin("serve.step") : -1;
        const auto r0 = Clock::now();
        more = s.server->step();
        out.step_ms.push_back(seconds_since(r0) * 1e3);
        if (span >= 0) hooks.spans->end(span);
        if (hooks.after_step) hooks.after_step(s);
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    out.run_s = 0.0;
    for (const double ms : out.step_ms) out.run_s += ms / 1e3;
    for (const std::uint32_t id : s.tenant_ids) {
      const serve::TenantSession& session = s.server->session(id);
      TenantRun t;
      t.name = session.name();
      t.config = session.spec().config;
      t.space_name = space_name;
      if (!error.empty()) {
        t.error = "server threw: " + error;
      } else if (session.state() == serve::TenantState::kFinished) {
        t.result = session.result();
        t.ok = true;
      } else {
        t.error = std::string("tenant ") + serve::tenant_state_name(session.state()) + ": " +
                  session.error();
      }
      out.tenants.push_back(std::move(t));
    }
    for (const std::string& name : s.refused) {
      TenantRun t;
      t.name = name;
      t.error = "admission refused";
      out.tenants.push_back(std::move(t));
    }
  }
  return out;
}

}  // namespace perfbench
