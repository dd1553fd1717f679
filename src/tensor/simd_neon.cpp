// NEON micro-kernels for the SIMD tier (aarch64).
//
// Structurally a mirror of simd_avx2.cpp at 128-bit vector width: every C
// element is one fused-multiply-add chain over k ascending (vfmaq_f32 is
// fused on aarch64), started from +0, stored once, no zero-operand skips.
// aarch64 baseline NEON is mandatory, so unlike AVX2 there is no runtime
// CPU check — the table is available whenever the build targets aarch64.

#include "simd_kernels.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>

namespace ncnas::tensor::simd {

namespace {

constexpr std::size_t kW = kSimdPanelWidth;  // 32 floats = 8 q registers

/// R-row step over one full packed panel: 8R accumulators; R = 3 keeps 24
/// accumulators + panel loads within the 32 q registers.
template <int R>
void panel_step(const float* pa, const float* bp, float* pc, std::size_t k, std::size_t n,
                std::size_t i, std::size_t j0) {
  const float* a[R];
  for (int r = 0; r < R; ++r) a[r] = pa + (i + r) * k;
  float32x4_t acc[R][8];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < 8; ++v) acc[r][v] = vdupq_n_f32(0.0f);
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* brow = bp + kk * kW;
    for (int r = 0; r < R; ++r) {
      const float32x4_t av = vdupq_n_f32(a[r][kk]);
      for (int v = 0; v < 8; ++v) {
        acc[r][v] = vfmaq_f32(acc[r][v], av, vld1q_f32(brow + 4 * v));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = pc + (i + r) * n + j0;
    for (int v = 0; v < 8; ++v) vst1q_f32(crow + 4 * v, acc[r][v]);
  }
}

void gemm_panel(const float* pa, const float* bp, float* pc, std::size_t k, std::size_t n,
                std::size_t i0, std::size_t i1, std::size_t j0) {
  std::size_t i = i0;
  for (; i + 3 <= i1; i += 3) panel_step<3>(pa, bp, pc, k, n, i, j0);
  for (; i < i1; ++i) panel_step<1>(pa, bp, pc, k, n, i, j0);
}

template <int R>
void tn_step(const float* pa, const float* pb, float* pc, std::size_t m, std::size_t k,
             std::size_t n, std::size_t i, std::size_t j0) {
  float32x4_t acc[R][4];
  for (int r = 0; r < R; ++r) {
    for (int v = 0; v < 4; ++v) acc[r][v] = vdupq_n_f32(0.0f);
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m + i;
    const float* brow = pb + kk * n + j0;
    for (int r = 0; r < R; ++r) {
      const float32x4_t av = vdupq_n_f32(arow[r]);
      for (int v = 0; v < 4; ++v) {
        acc[r][v] = vfmaq_f32(acc[r][v], av, vld1q_f32(brow + 4 * v));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    float* crow = pc + (i + r) * n + j0;
    for (int v = 0; v < 4; ++v) vst1q_f32(crow + 4 * v, acc[r][v]);
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
  const float32x4_t av = vdupq_n_f32(alpha);
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) {
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), av, vld1q_f32(x + i)));
  }
  for (; i < e; ++i) y[i] = std::fmaf(alpha, x[i], y[i]);
}

void scale_range(float alpha, float* y, std::size_t b, std::size_t e) {
  const float32x4_t av = vdupq_n_f32(alpha);
  std::size_t i = b;
  for (; i + 4 <= e; i += 4) vst1q_f32(y + i, vmulq_f32(vld1q_f32(y + i), av));
  for (; i < e; ++i) y[i] *= alpha;
}

void add_bias_rows(float* y, const float* bias, std::size_t n, std::size_t r0, std::size_t r1) {
  for (std::size_t r = r0; r < r1; ++r) {
    float* row = y + r * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      vst1q_f32(row + j, vaddq_f32(vld1q_f32(row + j), vld1q_f32(bias + j)));
    }
    for (; j < n; ++j) row[j] += bias[j];
  }
}

void col_sum_cols(const float* g, float* out, std::size_t m, std::size_t n, std::size_t j0,
                  std::size_t j1) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = g + i * n;
    std::size_t j = j0;
    for (; j + 4 <= j1; j += 4) {
      vst1q_f32(out + j, vaddq_f32(vld1q_f32(out + j), vld1q_f32(row + j)));
    }
    for (; j < j1; ++j) out[j] += row[j];
  }
}

const KernelTable kNeonTable = {
    "neon",     gemm_panel, gemm_tn_block, tn_full_cols,
    axpy_range, scale_range, add_bias_rows, col_sum_cols,
    nullptr,    nullptr,  // no libm mirrors: NEON hosts keep the scalar loops
};

}  // namespace

const KernelTable* neon_table() { return &kNeonTable; }

}  // namespace ncnas::tensor::simd

#else  // non-aarch64: no NEON table to offer

namespace ncnas::tensor::simd {
const KernelTable* neon_table() { return nullptr; }
}  // namespace ncnas::tensor::simd

#endif
