// AVX2+FMA micro-kernels for the SIMD tier (x86-64).
//
// This translation unit is compiled with -mavx2 -mfma appended to the base
// flags (see src/tensor/CMakeLists.txt), so it may execute AVX2 instructions
// unconditionally — the dispatch layer (simd_dispatch.cpp, compiled with
// base flags only) verifies CPU support before ever handing out this table.
//
// Determinism contract (same as the scalar micro-kernels in ops.cpp): every
// C element is a single accumulation chain of fused multiply-adds over k
// ascending, started from +0, stored exactly once. _mm256_fmadd_ps performs
// the same single-rounding operation per lane that the contracted scalar
// loops perform per element, so bytes match the blocked tier and, through
// it, the reference kernels. Scalar tails here use std::fmaf explicitly for
// the same reason. No zero-operand skips anywhere: 0 * NaN must stay NaN.

#include "simd_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cmath>

namespace ncnas::tensor::simd {

namespace {

constexpr std::size_t kW = kSimdPanelWidth;  // 32 floats = 4 ymm registers

/// R-row step over one full packed panel: 4R accumulator vectors stay live
/// across the whole k loop. R = 3 keeps 12 accumulators + broadcasts within
/// the 16 ymm registers; a single-row variant mops up the tail.
template <int R>
void panel_step(const float* pa, const float* bp, float* pc, std::size_t k, std::size_t n,
                std::size_t i, std::size_t j0) {
  const float* a[R];
  for (int r = 0; r < R; ++r) a[r] = pa + (i + r) * k;
  __m256 acc[R][4];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < 4; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* brow = bp + kk * kW;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    const __m256 b2 = _mm256_loadu_ps(brow + 16);
    const __m256 b3 = _mm256_loadu_ps(brow + 24);
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(a[r][kk]);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
      acc[r][2] = _mm256_fmadd_ps(av, b2, acc[r][2]);
      acc[r][3] = _mm256_fmadd_ps(av, b3, acc[r][3]);
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = pc + (i + r) * n + j0;
    for (int v = 0; v < 4; ++v) _mm256_storeu_ps(crow + 8 * v, acc[r][v]);
  }
}

void gemm_panel(const float* pa, const float* bp, float* pc, std::size_t k, std::size_t n,
                std::size_t i0, std::size_t i1, std::size_t j0) {
  std::size_t i = i0;
  for (; i + 3 <= i1; i += 3) panel_step<3>(pa, bp, pc, k, n, i, j0);
  for (; i < i1; ++i) panel_step<1>(pa, bp, pc, k, n, i, j0);
}

/// gemm_tn R-row step over a 16-column chunk: A columns i..i+R are adjacent
/// floats within each A row (A is k x m), B rows are contiguous.
template <int R>
void tn_step(const float* pa, const float* pb, float* pc, std::size_t m, std::size_t k,
             std::size_t n, std::size_t i, std::size_t j0) {
  __m256 acc[R][2];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < 2; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m + i;
    const float* brow = pb + kk * n + j0;
    const __m256 b0 = _mm256_loadu_ps(brow);
    const __m256 b1 = _mm256_loadu_ps(brow + 8);
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_set1_ps(arow[r]);
      acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
      acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = pc + (i + r) * n + j0;
    _mm256_storeu_ps(crow, acc[r][0]);
    _mm256_storeu_ps(crow + 8, acc[r][1]);
  }
}

std::size_t tn_full_cols(std::size_t n) { return n & ~std::size_t{15}; }

void gemm_tn_block(const float* pa, const float* pb, float* pc, std::size_t m, std::size_t k,
                   std::size_t n, std::size_t i0, std::size_t i1, std::size_t n_full) {
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    for (std::size_t j0 = 0; j0 + 16 <= n_full; j0 += 16) tn_step<4>(pa, pb, pc, m, k, n, i, j0);
  }
  for (; i < i1; ++i) {
    for (std::size_t j0 = 0; j0 + 16 <= n_full; j0 += 16) tn_step<1>(pa, pb, pc, m, k, n, i, j0);
  }
}

void axpy_range(float alpha, const float* x, float* y, std::size_t b, std::size_t e) {
  const __m256 av = _mm256_set1_ps(alpha);
  std::size_t i = b;
  for (; i + 8 <= e; i += 8) {
    const __m256 yv = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_fmadd_ps(av, _mm256_loadu_ps(x + i), yv));
  }
  for (; i < e; ++i) y[i] = std::fmaf(alpha, x[i], y[i]);
}

void scale_range(float alpha, float* y, std::size_t b, std::size_t e) {
  const __m256 av = _mm256_set1_ps(alpha);
  std::size_t i = b;
  for (; i + 8 <= e; i += 8) _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), av));
  for (; i < e; ++i) y[i] *= alpha;
}

void add_bias_rows(float* y, const float* bias, std::size_t n, std::size_t r0, std::size_t r1) {
  for (std::size_t r = r0; r < r1; ++r) {
    float* row = y + r * n;
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      _mm256_storeu_ps(row + j, _mm256_add_ps(_mm256_loadu_ps(row + j), _mm256_loadu_ps(bias + j)));
    }
    for (; j < n; ++j) row[j] += bias[j];
  }
}

void col_sum_cols(const float* g, float* out, std::size_t m, std::size_t n, std::size_t j0,
                  std::size_t j1) {
  // Row-ascending accumulation per column, exactly like the serial loop —
  // vectorizing across columns never reorders any single column's chain.
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = g + i * n;
    std::size_t j = j0;
    for (; j + 8 <= j1; j += 8) {
      _mm256_storeu_ps(out + j, _mm256_add_ps(_mm256_loadu_ps(out + j), _mm256_loadu_ps(row + j)));
    }
    for (; j < j1; ++j) out[j] += row[j];
  }
}

const KernelTable kAvx2Table = {
    "avx2",     gemm_panel, gemm_tn_block, tn_full_cols,
    axpy_range, scale_range, add_bias_rows, col_sum_cols,
    tanh_range_avx2, sigmoid_range_avx2,
};

}  // namespace

const KernelTable* avx2_table() { return &kAvx2Table; }

}  // namespace ncnas::tensor::simd

#else  // non-x86: no AVX2 table to offer

namespace ncnas::tensor::simd {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace ncnas::tensor::simd

#endif
