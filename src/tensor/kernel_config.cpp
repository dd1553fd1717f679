#include "ncnas/tensor/kernel_config.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "ncnas/tensor/thread_pool.hpp"
#include "simd_kernels.hpp"

namespace ncnas::tensor {

namespace {

// Compile-time half of the SIMD eligibility gate. The scalar blocked
// micro-kernels only compile to per-element FMA chains — the chains the
// explicit SIMD kernels issue — when this library is built optimized with
// FMA contraction available (x86 needs -mfma / -march=native; aarch64 has
// fused multiply-add in baseline NEON). In any other build (e.g. -O0, or a
// generic x86 target without FMA) the scalar tiers use separate multiply and
// add roundings, and dispatching to SIMD would break bit-identity — so the
// tier reports unavailable and everything falls back to blocked kernels.
#if defined(__OPTIMIZE__) && (defined(__FMA__) || defined(__aarch64__))
constexpr bool kSimdContractCompatible = true;
#else
constexpr bool kSimdContractCompatible = false;
#endif

/// NCNAS_SIMD environment kill switch, read once: "off"/"0" disables the
/// SIMD tier process-wide regardless of any KernelConfig. Any other value
/// (including "on") leaves dispatch to the config policy.
bool simd_env_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("NCNAS_SIMD");
    if (env == nullptr) return true;
    return std::strcmp(env, "off") != 0 && std::strcmp(env, "0") != 0;
  }();
  return enabled;
}

// Each field is its own atomic so concurrent *reads* from kernel call sites
// are race-free without a lock on the hot path. Writes are documented as
// phase boundaries only (see kernel_config.hpp), so field-level tearing
// across a concurrent read cannot happen in a correct program.
std::atomic<std::size_t> g_threads{1};
std::atomic<std::size_t> g_block_rows{64};
std::atomic<std::size_t> g_block_cols{256};
std::atomic<std::size_t> g_min_blocked_flops{16 * 1024};
std::atomic<std::size_t> g_min_parallel_elems{32 * 1024};
std::atomic<int> g_simd{static_cast<int>(SimdMode::kAuto)};

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;  // sized g_pool_threads, lazily built
std::size_t g_pool_threads = 0;

}  // namespace

bool KernelConfig::simd_available() noexcept {
  return kSimdContractCompatible && simd_env_enabled() && simd::active_table() != nullptr;
}

const char* KernelConfig::simd_isa() noexcept {
  return simd_available() ? simd::active_table()->isa : "";
}

bool KernelConfig::simd_active() const noexcept {
  return blocked() && simd != SimdMode::kOff && simd_available();
}

KernelConfig KernelConfig::parallel(std::size_t threads) {
  KernelConfig cfg;
  cfg.threads =
      threads != 0 ? threads
                   : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return cfg;
}

void set_kernel_config(const KernelConfig& cfg) {
  if (cfg.block_rows == 0 || cfg.block_cols == 0) {
    throw std::invalid_argument("set_kernel_config: block sizes must be positive");
  }
  g_threads.store(cfg.threads);
  g_block_rows.store(cfg.block_rows);
  g_block_cols.store(cfg.block_cols);
  g_min_blocked_flops.store(cfg.min_blocked_flops);
  g_min_parallel_elems.store(cfg.min_parallel_elems);
  g_simd.store(static_cast<int>(cfg.simd));
}

KernelConfig kernel_config() {
  KernelConfig cfg;
  cfg.threads = g_threads.load();
  cfg.block_rows = g_block_rows.load();
  cfg.block_cols = g_block_cols.load();
  cfg.min_blocked_flops = g_min_blocked_flops.load();
  cfg.min_parallel_elems = g_min_parallel_elems.load();
  cfg.simd = static_cast<SimdMode>(g_simd.load());
  return cfg;
}

ThreadPool& detail::kernel_pool() {
  const std::size_t want = std::max<std::size_t>(2, g_threads.load());
  std::scoped_lock lock(g_pool_mutex);
  if (!g_pool || g_pool_threads != want) {
    g_pool.reset();  // join the old workers before spawning replacements
    g_pool = std::make_unique<ThreadPool>(want);
    g_pool_threads = want;
  }
  return *g_pool;
}

}  // namespace ncnas::tensor
