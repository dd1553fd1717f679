// Internal interface between the blocked kernel drivers (ops.cpp) and the
// ISA-specific SIMD micro-kernel translation units.
//
// The contract mirrors the scalar micro-kernels exactly: every C element is
// one fused-multiply-add accumulation chain over k ascending, started from
// zero, stored once. The SIMD kernels only ever handle the regular interior
// of a problem — full kPanelWidth-wide packed panels, full vector-width
// column chunks — and the drivers route every edge (ragged panel widths,
// leftover columns) to the scalar micro-kernels in ops.cpp. Since bit
// equality is a per-element property, mixing producers per region is safe,
// and the SIMD code never needs masked loads.
//
// Why the table can be used at all: ops.cpp is compiled with -ffp-contract
// and (in release builds) FMA available, so its scalar accumulation loops
// compile to per-element FMA chains — the same single-rounding operations
// _mm256_fmadd_ps / vfmaq_f32 perform. KernelConfig::simd_available() gates
// dispatch on exactly that build condition; see kernel_config.cpp.
#pragma once

#include <cstddef>

namespace ncnas::tensor::simd {

/// Must equal ops.cpp's kPanelWidth (static_assert'd at registration).
inline constexpr std::size_t kSimdPanelWidth = 32;

struct KernelTable {
  const char* isa;  // "avx2" or "neon"

  /// gemm/gemm_nt micro-kernel over one full kSimdPanelWidth-wide packed
  /// k-major B panel `bp`: writes C rows [i0, i1), columns [j0, j0+W).
  void (*gemm_panel)(const float* pa, const float* bp, float* pc, std::size_t k, std::size_t n,
                     std::size_t i0, std::size_t i1, std::size_t j0);

  /// gemm_tn micro-kernel: C rows [i0, i1) for the leading n_full columns,
  /// where n_full is a multiple of the vector width the table was built for
  /// (columns [n_full, n) are the caller's problem). A is (k, m), B is (k, n).
  void (*gemm_tn_block)(const float* pa, const float* pb, float* pc, std::size_t m, std::size_t k,
                        std::size_t n, std::size_t i0, std::size_t i1, std::size_t n_full);

  /// Column count gemm_tn_block can cover: n rounded down to vector width.
  std::size_t (*gemm_tn_full_cols)(std::size_t n);

  /// y[i] += alpha * x[i] for i in [b, e).
  void (*axpy_range)(float alpha, const float* x, float* y, std::size_t b, std::size_t e);
  /// y[i] *= alpha for i in [b, e).
  void (*scale_range)(float alpha, float* y, std::size_t b, std::size_t e);
  /// row-major y(m, n): y[i][j] += bias[j] for rows [r0, r1).
  void (*add_bias_rows)(float* y, const float* bias, std::size_t n, std::size_t r0, std::size_t r1);
  /// out[j] += sum_i g[i][j] for columns [j0, j1), rows ascending (g is m x n).
  void (*col_sum_cols)(const float* g, float* out, std::size_t m, std::size_t n, std::size_t j0,
                       std::size_t j1);

  /// Libm mirrors, in place over [b, e): y[i] = std::tanh(y[i]) and
  /// y[i] = 1 / (1 + std::exp(-y[i])), reproducing one specific libm bit for
  /// bit (see simd_libm_avx2.cpp). nullptr where no mirror exists; callers
  /// must also check that the host libm is the mirrored one (ops.cpp probes).
  void (*tanh_range)(float* y, std::size_t b, std::size_t e);
  void (*sigmoid_range)(float* y, std::size_t b, std::size_t e);
};

/// The AVX2 libm mirrors (simd_libm_avx2.cpp, x86-64 builds only).
void tanh_range_avx2(float* y, std::size_t b, std::size_t e);
void sigmoid_range_avx2(float* y, std::size_t b, std::size_t e);

/// The AVX2+FMA table, or nullptr when not built for x86-64 or the CPU lacks
/// AVX2/FMA (checked once at runtime).
const KernelTable* avx2_table();

/// The NEON table, or nullptr when not built for aarch64.
const KernelTable* neon_table();

/// The table for this machine (cached), or nullptr. This is raw capability —
/// KernelConfig::simd_available() layers the build-flag gate and the
/// NCNAS_SIMD environment kill switch on top.
const KernelTable* active_table();

}  // namespace ncnas::tensor::simd
