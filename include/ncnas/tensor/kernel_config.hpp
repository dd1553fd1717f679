// Process-wide kernel execution policy for the dense linear-algebra layer.
//
// The default (threads == 1) runs gemm/gemm_nt/gemm_tn and the large
// elementwise helpers on cache-blocked kernels on the calling thread;
// threads > 1 additionally spreads row blocks of the output across a
// dedicated internal ThreadPool (separate from the search driver's pool, so
// nested use cannot deadlock). On the blocked path, SimdMode selects the
// runtime-dispatched SIMD micro-kernel tier (AVX2 on x86-64, NEON on
// aarch64) — same bytes, fewer instructions. threads == 0
// (KernelConfig::reference()) keeps the original serial reference kernels:
// the oracle every other tier is tested against.
//
// Determinism is a hard design rule, not an aspiration: every output element
// is produced by exactly one task and accumulated in the same (k-ascending)
// order at every thread count, so results are bit-identical across 1..N
// threads and against the reference kernels. kernel_diff_test verifies this
// exhaustively; because results never change, the kernel configuration is —
// like telemetry and checkpointing, and unlike a non-empty fault plan —
// deliberately excluded from nas::config_fingerprint().
#pragma once

#include <cstddef>

namespace ncnas::tensor {

class ThreadPool;

/// Policy for the runtime-dispatched SIMD micro-kernel tier.
///
/// The SIMD tier substitutes explicit vector micro-kernels (AVX2+FMA on
/// x86-64, NEON on aarch64) for the scalar blocked micro-kernels. It is only
/// ever *eligible* when this translation unit set was compiled optimized with
/// FMA contraction available (see simd_available()): the scalar kernels then
/// compile to the exact per-element fused-multiply-add chains the SIMD
/// kernels issue explicitly, so both tiers produce identical bytes. In any
/// other build the tier silently resolves to the blocked kernels. The same
/// policy gates the tanh/sigmoid libm mirrors (ops.hpp), which in addition
/// need their one-time probe against the host libm to pass.
enum class SimdMode : int {
  kAuto = 0,  ///< Use the SIMD tier whenever it is available (the default).
  kOff = 1,   ///< Never use SIMD micro-kernels, even when available.
  kOn = 2,    ///< Request SIMD; falls back to blocked when unavailable.
};

struct KernelConfig {
  /// 0 = serial reference kernels (the oracle, see reference()).
  /// >= 1 = blocked kernels (1, serial, is the default); > 1 also
  /// parallelizes across an internal pool.
  std::size_t threads = 1;
  /// Rows of the output handled per task (MC). Each task owns its rows
  /// exclusively — the "one writer per output element" half of the rule.
  std::size_t block_rows = 64;
  /// Columns of B processed per cache pass (NC); rounded up internally to a
  /// whole number of packed micro-panels.
  std::size_t block_cols = 256;
  /// m*n*k below which gemm stays on the reference kernels even in blocked
  /// mode. Purely a dispatch heuristic: both paths produce identical bits,
  /// this only skips pack/dispatch overhead on tiny problems.
  std::size_t min_blocked_flops = 16 * 1024;
  /// Element count below which the elementwise helpers stay serial.
  std::size_t min_parallel_elems = 32 * 1024;
  /// SIMD micro-kernel policy (only consulted on the blocked path; the
  /// serial reference kernels never dispatch to SIMD). The NCNAS_SIMD
  /// environment variable acts as a process-wide kill switch: "off"/"0"
  /// disables the tier regardless of this field.
  SimdMode simd = SimdMode::kAuto;

  /// Blocked kernels requested (serial when threads == 1).
  [[nodiscard]] bool blocked() const noexcept { return threads >= 1; }
  /// Blocked kernels spread over the internal pool.
  [[nodiscard]] bool pooled() const noexcept { return threads > 1; }
  /// True when this config's blocked path will use SIMD micro-kernels:
  /// blocked() and the simd policy resolves on and simd_available().
  [[nodiscard]] bool simd_active() const noexcept;

  /// Blocked + pooled config; `threads` 0 picks hardware concurrency.
  [[nodiscard]] static KernelConfig parallel(std::size_t threads = 0);
  /// The default: blocked kernels on the calling thread.
  [[nodiscard]] static KernelConfig serial() noexcept { return {}; }
  /// The serial reference kernels (threads == 0): the straightforward loops
  /// every blocked, pooled and SIMD tier must match bit for bit.
  [[nodiscard]] static KernelConfig reference() noexcept {
    KernelConfig cfg;
    cfg.threads = 0;
    return cfg;
  }

  /// Whether the SIMD tier can run in this process: the library was built
  /// optimized with FMA contraction (x86) or for aarch64, the CPU supports
  /// the ISA (AVX2+FMA checked at runtime on x86), and the NCNAS_SIMD
  /// environment variable does not say "off".
  [[nodiscard]] static bool simd_available() noexcept;
  /// ISA label of the available SIMD tier: "avx2", "neon", or "" when
  /// simd_available() is false.
  [[nodiscard]] static const char* simd_isa() noexcept;
};

/// Installs `cfg` process-wide. Fields are individually atomic, but the
/// switch is not transactional: do not call while kernels are executing on
/// other threads (set it at startup, or between phases, as the tests do).
/// Throws std::invalid_argument on zero block sizes.
void set_kernel_config(const KernelConfig& cfg);

/// The currently installed policy.
[[nodiscard]] KernelConfig kernel_config();

/// RAII scoped override for tests and benches; restores on destruction.
class KernelConfigGuard {
 public:
  explicit KernelConfigGuard(const KernelConfig& cfg) : prev_(kernel_config()) {
    set_kernel_config(cfg);
  }
  ~KernelConfigGuard() { set_kernel_config(prev_); }

  KernelConfigGuard(const KernelConfigGuard&) = delete;
  KernelConfigGuard& operator=(const KernelConfigGuard&) = delete;

 private:
  KernelConfig prev_;
};

namespace detail {
/// The pool behind pooled kernels, created lazily and resized when the
/// configured thread count changes. Only call when kernel_config().pooled().
[[nodiscard]] ThreadPool& kernel_pool();
}  // namespace detail

}  // namespace ncnas::tensor
