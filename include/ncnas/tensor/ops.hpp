// Dense linear-algebra kernels used by the nn layers.
//
// Three tiers, selected by the process-wide KernelConfig (kernel_config.hpp):
//
//  * Reference kernels (`*_ref`, KernelConfig::reference()): the original
//    single-threaded triple loops. These are the oracles — simple enough to
//    be obviously correct, and the bit-exact ground truth kernel_diff_test
//    compares against.
//  * Blocked kernels (the default, on the calling thread): cache-blocked,
//    B-panel-packed micro-kernels, optionally parallelized over row blocks
//    of the output on a dedicated internal ThreadPool. Deterministic by construction — each output element is
//    written by exactly one task and accumulated in the same k-ascending
//    order at every thread count — so results stay bit-identical across
//    1..N threads and against the reference kernels.
//  * SIMD kernels (on by default where eligible, see KernelConfig::simd):
//    explicit AVX2+FMA / NEON micro-kernels consuming the same packed
//    panels as the blocked tier. They issue the identical per-element FMA
//    accumulation chain the compiler produces for the scalar tiers under
//    -ffp-contract (the build gate in kernel_config.cpp guarantees this),
//    so all three tiers remain bit-identical. Ragged edges of every problem
//    are always handled by the scalar micro-kernels.
//
// Both gemm and gemm_nt share one packed-panel driver: gemm_nt packs B^T
// into the same k-major panel layout and runs the exact same micro-kernels,
// rather than a separate strided kernel.
//
// NaN semantics: kernels never skip zero operands, so 0 * NaN = NaN
// propagates into the output like IEEE 754 says it should. (An earlier
// `if (aik == 0.0f) continue;` fast path made FLOP counts data-dependent
// and silently masked NaN/Inf in the other operand; kernel_diff_test pins
// the propagating behaviour.)
//
// Reductions (sum/mean/dot/squared_norm) intentionally stay serial in every
// mode: they are single accumulation chains, and splitting them across
// threads would change the addition tree and break bit-identity.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ncnas/tensor/tensor.hpp"

namespace ncnas::tensor {

/// The execution tier a gemm dispatches to (see the header comment).
enum class GemmPath {
  kReference = 0,  ///< serial triple loop (small sizes, or blocking off)
  kBlocked = 1,    ///< packed-panel scalar micro-kernels
  kSimd = 2,       ///< packed-panel SIMD micro-kernels (interior only)
};

/// The tier a gemm/gemm_nt/gemm_tn of dims (m, k, n) would run on under the
/// currently installed KernelConfig. Pure planning — no work is done. All
/// three variants share one dispatch rule, so one introspection covers them;
/// tests use this to pin the reference/blocked crossover and to assert the
/// SIMD tier actually engages when expected.
[[nodiscard]] GemmPath planned_gemm_path(std::size_t m, std::size_t k, std::size_t n);

/// C = A(m,k) * B(k,n). Shapes validated; C is overwritten. Dispatches to
/// the blocked kernel when the installed KernelConfig asks for it.
void gemm(const Tensor& a, const Tensor& b, Tensor& c);

/// C = A(m,k) * B(n,k)^T.
void gemm_nt(const Tensor& a, const Tensor& b, Tensor& c);

/// C = A(k,m)^T * B(k,n).
void gemm_tn(const Tensor& a, const Tensor& b, Tensor& c);

/// Serial reference kernels — ignore KernelConfig entirely. The differential
/// oracles for the blocked kernels, and the baseline bench_kernels measures
/// speedup against.
void gemm_ref(const Tensor& a, const Tensor& b, Tensor& c);
void gemm_nt_ref(const Tensor& a, const Tensor& b, Tensor& c);
void gemm_tn_ref(const Tensor& a, const Tensor& b, Tensor& c);

/// Returns A * B freshly allocated.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// y += x (same shape).
void add_inplace(Tensor& y, const Tensor& x);

/// y += alpha * x (same shape). The axpy of reference BLAS.
void axpy(float alpha, const Tensor& x, Tensor& y);

/// y *= alpha.
void scale_inplace(Tensor& y, float alpha);

/// Adds a row vector `bias`(n) to every row of `y`(m,n).
void add_row_bias(Tensor& y, const Tensor& bias);

/// Accumulates column sums of `g`(m,n) into `out`(n): out += sum_rows(g).
void accumulate_col_sums(const Tensor& g, Tensor& out);

/// y[i] = std::tanh(y[i]), bit for bit, at every kernel tier. On the SIMD
/// tier this runs a vector mirror of the host libm's tanhf when the mirror
/// is engaged (see libm_mirror_engaged); otherwise the std::tanh loop runs.
void tanh_inplace(Tensor& y);
void tanh_inplace(float* y, std::size_t n);

/// y[i] = 1 / (1 + std::exp(-y[i])), bit for bit, at every kernel tier —
/// the logistic sigmoid, with the same libm mirror rule as tanh_inplace.
void sigmoid_inplace(Tensor& y);
void sigmoid_inplace(float* y, std::size_t n);

/// The pointwise functions that have a SIMD libm mirror.
enum class LibmFn { kTanh, kSigmoid };

/// True when tanh_inplace / sigmoid_inplace run the SIMD mirror of `fn` under
/// the installed KernelConfig: the config is simd_active(), this build and
/// CPU have a mirror (AVX2+FMA on x86-64; none on NEON), and a one-time
/// probe found it bit-identical to the host's std::tanh / std::exp. Any
/// other libm (non-glibc, a correctly rounded tanhf, ...) keeps the loops.
[[nodiscard]] bool libm_mirror_engaged(LibmFn fn);

namespace detail {
/// Runs the raw SIMD mirror of `fn` in place over y[0, n), ignoring the
/// KernelConfig and the probe. Returns false, leaving y untouched, when this
/// build or CPU has no mirror. For tests that check the mirror itself.
bool run_libm_mirror(LibmFn fn, float* y, std::size_t n);

/// |x| bit patterns at which a mirror switches branch (tanhf and its expm1f
/// cut-offs and reduction steps, expf's overflow/underflow limits). Tests
/// and the engagement probe check the inputs around each one.
[[nodiscard]] std::vector<std::uint32_t> libm_branch_points();
}  // namespace detail

/// Sum of all elements.
[[nodiscard]] float sum(const Tensor& t);

/// Mean of all elements (0 for empty tensors).
[[nodiscard]] float mean(const Tensor& t);

/// Dot product of two same-shape tensors viewed flat.
[[nodiscard]] float dot(const Tensor& a, const Tensor& b);

/// Squared L2 norm.
[[nodiscard]] float squared_norm(const Tensor& t);

/// Runs fn(begin, end) over disjoint fixed-grain chunks of [0, n). Chunk
/// boundaries depend only on n — never on the thread count — and each index
/// belongs to exactly one chunk, so any fn whose per-index work is
/// independent produces identical bytes serially and on the pool. Runs on
/// the kernel pool when the installed KernelConfig is pooled and n clears
/// its min_parallel_elems threshold; serially otherwise.
void parallel_elems(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

/// Row-sliced variant for 2-D work: fn(row_begin, row_end) over chunks whose
/// grain is derived from `cols` (so a chunk is a constant amount of work
/// regardless of matrix shape). Same determinism contract as parallel_elems.
void parallel_rows(std::size_t rows, std::size_t cols,
                   const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace ncnas::tensor
