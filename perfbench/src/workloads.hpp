// The benchmark's three workloads, driven through the public ncnas API the
// way a user drives it: default kernel tier (no tensor::KernelConfig is ever
// installed), null telemetry on timed runs, one tensor::ThreadPool of at
// most nproc threads, no sockets.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ncnas/ckpt/checkpoint.hpp"
#include "ncnas/data/dataset.hpp"
#include "ncnas/exec/shared_cache.hpp"
#include "ncnas/nas/driver.hpp"
#include "ncnas/obs/telemetry.hpp"
#include "ncnas/serve/server.hpp"
#include "ncnas/space/search_space.hpp"
#include "ncnas/tensor/thread_pool.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Workload { kSearchA2cCombo, kSearchA3cNt3, kServeSlicedNt3 };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

/// Inputs derived from the benchmark seed (see derive_seed). A timed run
/// runs several instances of its workload, each on its own derived inputs:
/// the cost of a search depends on the architectures its seed leads to, and
/// averaging over instances keeps that out of the run-to-run spread.
struct Seeds {
  std::uint64_t data = 0;     ///< dataset generator
  std::uint64_t search = 0;   ///< the search (serve: the prioritized A3C tenant)
  std::uint64_t replica = 0;  ///< serve: the A2C tenant and its replica
  std::uint64_t replay = 0;   ///< traced-run replays; affects timing only
};
[[nodiscard]] Seeds derive_seeds(std::uint64_t bench_seed, std::size_t instance = 0);

/// Instances a timed run of `seconds` makes: the run length divided by the
/// workload's nominal instance time on a 4-thread AVX2 host, at least 2.
/// Fixed by the arguments alone, so every run of a seed does the same work.
[[nodiscard]] std::size_t planned_instances(Workload w, double seconds);

struct Options {
  std::size_t threads = 0;  ///< pool threads; 0 = nproc
  bool shortened = false;   ///< self-test sizes: a few simulated minutes
  std::string work_dir;     ///< scratch for serve snapshots and result logs
};

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] std::size_t nproc();

/// Everything built before the timed phase. Timed as setup_s.
struct Setup {
  Workload workload{};
  ncnas::data::Dataset dataset;
  std::optional<ncnas::space::SearchSpace> space;
  std::unique_ptr<ncnas::tensor::ThreadPool> pool;
  ncnas::nas::SearchConfig search;  ///< search workloads
  // serve workload
  std::string state_dir;
  std::unique_ptr<ncnas::exec::SharedEvalCache> shared;
  std::unique_ptr<ncnas::serve::SearchServer> server;
  std::vector<std::uint32_t> tenant_ids;  ///< admitted tenants, in submission order
  std::vector<std::string> refused;       ///< tenants admission turned away
  // timings
  double data_make_s = 0.0;
  double setup_s = 0.0;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
  ~Setup();
};

/// Builds a workload's inputs; `instance` keeps concurrent state dirs apart.
/// With `spans`, each step is recorded as a span (traced run only).
[[nodiscard]] std::unique_ptr<Setup> make_setup(Workload w, const Seeds& seeds,
                                                const Options& opts, int instance,
                                                SpanRecorder* spans = nullptr);

struct TenantRun {
  std::string name;
  bool ok = false;  ///< finished without exception / kFailed / admission error
  std::string error;
  ncnas::nas::SearchResult result;
  ncnas::nas::SearchConfig config;  ///< as submitted (telemetry/ckpt unset)
  std::string space_name;
  std::string digest;               ///< FNV-1a of the nas::save_result text
};

struct RunOutcome {
  double run_s = 0.0;
  std::vector<double> step_ms;  ///< serve: one entry per SearchServer::step()
  std::vector<TenantRun> tenants;
  [[nodiscard]] std::size_t evals() const;
};

/// Hooks the traced run attaches; all null on timed runs.
struct RunHooks {
  ncnas::obs::Telemetry* telemetry = nullptr;           ///< search workloads
  const ncnas::ckpt::CheckpointConfig* checkpoint = nullptr;  ///< search workloads
  std::function<void(Setup&)> after_step;              ///< serve, after each round
  SpanRecorder* spans = nullptr;  ///< records nas.run / serve.step spans
};

/// Runs the workload to completion on `setup` (consumed: run once per setup).
[[nodiscard]] RunOutcome run_workload(Setup& setup, const RunHooks& hooks = {});

/// Computes each finished tenant's digest and counts failures: tenants that
/// did not finish, and digests that differ from `expected` (one per tenant,
/// in submission order). With `expected` empty only unfinished tenants count.
std::size_t check_outcome(RunOutcome& out, const std::vector<std::string>& expected,
                          const std::string& work_dir);

/// FNV-1a over nas::save_result's text, written through `work_dir`.
[[nodiscard]] std::string result_digest(const ncnas::nas::SearchResult& result,
                                        const std::string& fingerprint,
                                        const std::string& work_dir);

}  // namespace perfbench
