// Differential oracle suite for the blocked/parallel tensor kernels.
//
// The contract under test (tensor/kernel_config.hpp): blocked kernels — at
// any thread count and any block geometry — produce bytes identical to the
// serial reference kernels. Equality below is exact (EXPECT_EQ on floats /
// Tensor::operator== which is bitwise), never approximate: a one-ULP drift
// is a determinism bug, not noise.

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ncnas/tensor/kernel_config.hpp"
#include "ncnas/tensor/ops.hpp"
#include "ncnas/tensor/rng.hpp"
#include "ncnas/tensor/tensor.hpp"

namespace {

using ncnas::tensor::GemmPath;
using ncnas::tensor::KernelConfig;
using ncnas::tensor::KernelConfigGuard;
using ncnas::tensor::Rng;
using ncnas::tensor::SimdMode;
using ncnas::tensor::Tensor;

std::size_t hardware_threads() {
  return std::max<std::size_t>(2, std::thread::hardware_concurrency());
}

/// The thread counts the suite sweeps, per the issue: 1, 2, hardware.
std::vector<std::size_t> thread_counts() { return {1, 2, hardware_threads()}; }

KernelConfig test_config(std::size_t threads, SimdMode simd = SimdMode::kAuto) {
  KernelConfig cfg;
  cfg.threads = threads;
  cfg.simd = simd;
  cfg.block_rows = 8;    // small enough that every sweep shape spans blocks
  cfg.block_cols = 32;   // two packed panels per cache pass
  cfg.min_blocked_flops = 0;    // force the blocked path even for 1x1x1
  cfg.min_parallel_elems = 0;   // force pool dispatch for tiny elementwise ops
  return cfg;
}

/// One non-reference tier configuration in the differential sweep: the
/// scalar blocked kernels (SIMD forced off) and the SIMD tier, each at
/// several thread counts. Where the SIMD tier is unavailable its entries
/// degrade to the blocked tier, which keeps the sweep valid everywhere.
struct TierMode {
  std::size_t threads;
  SimdMode simd;
  const char* label;
};

std::vector<TierMode> tier_sweep() {
  static const std::size_t hw = hardware_threads();
  return {{1, SimdMode::kOff, "blocked_t1"},
          {2, SimdMode::kOff, "blocked_t2"},
          {hw, SimdMode::kOff, "blocked_tmax"},
          {1, SimdMode::kOn, "simd_t1"},
          {hw, SimdMode::kOn, "simd_tmax"}};
}

Tensor random_tensor(const ncnas::tensor::Shape& shape, Rng& rng) {
  Tensor t(shape);
  for (float& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

bool bytes_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Shapes stressing every dispatch edge: empty dims, unit dims, exact
/// block/panel multiples, off-by-one around panel (16) and block (8/32)
/// boundaries, tall/thin and short/wide extremes.
struct GemmShape {
  std::size_t m, k, n;
};

std::vector<GemmShape> sweep_shapes() {
  return {
      {0, 0, 0}, {0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {1, 1, 1},  {1, 7, 1},
      {1, 1, 9}, {5, 1, 5}, {4, 4, 4}, {8, 8, 16}, {8, 8, 32}, {16, 16, 16},
      {7, 5, 3}, {9, 11, 17}, {15, 13, 31}, {17, 9, 33}, {23, 29, 19},
      {33, 7, 65}, {1, 64, 96}, {96, 64, 1}, {2, 128, 2}, {64, 3, 64},
  };
}

class KernelDiff : public ::testing::Test {
 protected:
  Rng rng_{0xC0FFEEULL};
};

// --- blocked vs reference, exact ------------------------------------------

TEST_F(KernelDiff, GemmMatchesReferenceBitwiseAcrossShapesAndThreads) {
  for (const GemmShape& s : sweep_shapes()) {
    const Tensor a = random_tensor({s.m, s.k}, rng_);
    const Tensor b = random_tensor({s.k, s.n}, rng_);
    Tensor want({s.m, s.n});
    ncnas::tensor::gemm_ref(a, b, want);
    for (const TierMode& tm : tier_sweep()) {
      KernelConfigGuard guard(test_config(tm.threads, tm.simd));
      Tensor got({s.m, s.n});
      // Poison the output first: the blocked kernel must fully overwrite C.
      for (float& v : got.flat()) v = -123.75f;
      ncnas::tensor::gemm(a, b, got);
      EXPECT_TRUE(bytes_equal(want, got))
          << "gemm " << s.m << "x" << s.k << "x" << s.n << " tier=" << tm.label
          << " max|diff|=" << ncnas::tensor::max_abs_diff(want, got);
    }
  }
}

TEST_F(KernelDiff, GemmNtMatchesReferenceBitwiseAcrossShapesAndThreads) {
  for (const GemmShape& s : sweep_shapes()) {
    const Tensor a = random_tensor({s.m, s.k}, rng_);
    const Tensor b = random_tensor({s.n, s.k}, rng_);
    Tensor want({s.m, s.n});
    ncnas::tensor::gemm_nt_ref(a, b, want);
    for (const TierMode& tm : tier_sweep()) {
      KernelConfigGuard guard(test_config(tm.threads, tm.simd));
      Tensor got({s.m, s.n});
      for (float& v : got.flat()) v = -123.75f;
      ncnas::tensor::gemm_nt(a, b, got);
      EXPECT_TRUE(bytes_equal(want, got))
          << "gemm_nt " << s.m << "x" << s.k << "x" << s.n << " tier=" << tm.label
          << " max|diff|=" << ncnas::tensor::max_abs_diff(want, got);
    }
  }
}

TEST_F(KernelDiff, GemmTnMatchesReferenceBitwiseAcrossShapesAndThreads) {
  for (const GemmShape& s : sweep_shapes()) {
    const Tensor a = random_tensor({s.k, s.m}, rng_);
    const Tensor b = random_tensor({s.k, s.n}, rng_);
    Tensor want({s.m, s.n});
    ncnas::tensor::gemm_tn_ref(a, b, want);
    for (const TierMode& tm : tier_sweep()) {
      KernelConfigGuard guard(test_config(tm.threads, tm.simd));
      Tensor got({s.m, s.n});
      for (float& v : got.flat()) v = -123.75f;
      ncnas::tensor::gemm_tn(a, b, got);
      EXPECT_TRUE(bytes_equal(want, got))
          << "gemm_tn " << s.m << "x" << s.k << "x" << s.n << " tier=" << tm.label
          << " max|diff|=" << ncnas::tensor::max_abs_diff(want, got);
    }
  }
}

TEST_F(KernelDiff, BlockGeometryNeverChangesBits) {
  const Tensor a = random_tensor({37, 23}, rng_);
  const Tensor b = random_tensor({23, 41}, rng_);
  Tensor want({37, 41});
  ncnas::tensor::gemm_ref(a, b, want);
  for (std::size_t br : {1UL, 3UL, 8UL, 64UL, 256UL}) {
    for (std::size_t bc : {1UL, 16UL, 48UL, 256UL}) {
      KernelConfig cfg = test_config(hardware_threads());
      cfg.block_rows = br;
      cfg.block_cols = bc;
      KernelConfigGuard guard(cfg);
      Tensor got({37, 41});
      ncnas::tensor::gemm(a, b, got);
      EXPECT_TRUE(bytes_equal(want, got)) << "block_rows=" << br << " block_cols=" << bc;
    }
  }
}

// --- determinism across thread counts -------------------------------------

TEST_F(KernelDiff, ThreadCountNeverChangesBits) {
  const Tensor a = random_tensor({31, 47}, rng_);
  const Tensor b = random_tensor({47, 29}, rng_);
  Tensor base({31, 29});
  {
    KernelConfigGuard guard(test_config(1));
    ncnas::tensor::gemm(a, b, base);
  }
  for (std::size_t t : {2UL, 3UL, 5UL, hardware_threads()}) {
    KernelConfigGuard guard(test_config(t));
    Tensor got({31, 29});
    ncnas::tensor::gemm(a, b, got);
    EXPECT_TRUE(bytes_equal(base, got)) << "threads=" << t;
  }
}

TEST_F(KernelDiff, RepeatedRunsAreIdenticalUnderPool) {
  // Dynamic task scheduling must not leak into results: hammer the same
  // product repeatedly on the pool and require one unique answer.
  const Tensor a = random_tensor({26, 33}, rng_);
  const Tensor b = random_tensor({33, 50}, rng_);
  KernelConfigGuard guard(test_config(hardware_threads()));
  Tensor first({26, 50});
  ncnas::tensor::gemm(a, b, first);
  for (int run = 0; run < 20; ++run) {
    Tensor again({26, 50});
    ncnas::tensor::gemm(a, b, again);
    ASSERT_TRUE(bytes_equal(first, again)) << "run " << run;
  }
}

// --- inputs unchanged (no in-place scribbling) ----------------------------

TEST_F(KernelDiff, InputsAreNotModified) {
  const Tensor a = random_tensor({19, 21}, rng_);
  const Tensor b = random_tensor({21, 35}, rng_);
  const Tensor a_copy = a;
  const Tensor b_copy = b;
  KernelConfigGuard guard(test_config(hardware_threads()));
  Tensor c({19, 35});
  ncnas::tensor::gemm(a, b, c);
  EXPECT_TRUE(bytes_equal(a, a_copy));
  EXPECT_TRUE(bytes_equal(b, b_copy));
}

// --- NaN/Inf semantics (the removed zero-skip fast path) ------------------

TEST_F(KernelDiff, ZeroTimesNanPropagatesNan) {
  // A has an explicit 0.0 in the slot that multiplies B's NaN. The old
  // `if (aik == 0.0f) continue;` fast path skipped the product and produced
  // a finite (wrong) result; IEEE 754 says 0 * NaN = NaN must reach C.
  Tensor a({2, 3});
  a(0, 0) = 1.0f; a(0, 1) = 0.0f; a(0, 2) = 2.0f;
  a(1, 0) = 0.0f; a(1, 1) = 4.0f; a(1, 2) = 0.5f;
  Tensor b({3, 2});
  for (float& v : b.flat()) v = 1.0f;
  b(1, 0) = std::numeric_limits<float>::quiet_NaN();
  for (std::size_t t : {0UL, 1UL, hardware_threads()}) {
    KernelConfigGuard guard(test_config(t));
    Tensor c({2, 2});
    ncnas::tensor::gemm(a, b, c);
    EXPECT_TRUE(std::isnan(c(0, 0))) << "threads=" << t;  // 0 * NaN in play
    EXPECT_TRUE(std::isnan(c(1, 0))) << "threads=" << t;  // 4 * NaN in play
    EXPECT_FLOAT_EQ(c(0, 1), 3.0f) << "threads=" << t;    // NaN column only
    EXPECT_FLOAT_EQ(c(1, 1), 4.5f) << "threads=" << t;
  }
}

TEST_F(KernelDiff, ZeroTimesInfPropagatesNan) {
  Tensor a({1, 2});
  a(0, 0) = 0.0f;
  a(0, 1) = 1.0f;
  Tensor b({2, 1});
  b(0, 0) = std::numeric_limits<float>::infinity();
  b(1, 0) = 7.0f;
  for (std::size_t t : {0UL, 1UL, hardware_threads()}) {
    KernelConfigGuard guard(test_config(t));
    Tensor c({1, 1});
    ncnas::tensor::gemm(a, b, c);
    EXPECT_TRUE(std::isnan(c(0, 0))) << "threads=" << t;  // 0 * inf = NaN
  }
}

TEST_F(KernelDiff, GemmTnZeroTimesNanPropagatesNan) {
  // Same pinning for gemm_tn, which carried its own `aki == 0.0f` skip.
  Tensor a({2, 1});  // A^T is 1x2
  a(0, 0) = 0.0f;
  a(1, 0) = 1.0f;
  Tensor b({2, 1});
  b(0, 0) = std::numeric_limits<float>::quiet_NaN();
  b(1, 0) = 2.0f;
  for (std::size_t t : {0UL, 1UL, hardware_threads()}) {
    KernelConfigGuard guard(test_config(t));
    Tensor c({1, 1});
    ncnas::tensor::gemm_tn(a, b, c);
    EXPECT_TRUE(std::isnan(c(0, 0))) << "threads=" << t;
  }
}

// --- elementwise helpers ---------------------------------------------------

TEST_F(KernelDiff, ElementwiseOpsMatchSerialBitwise) {
  // Large enough to span many parallel_elems grains.
  const std::size_t n = 100'003;
  const Tensor x = random_tensor({n}, rng_);
  const Tensor y0 = random_tensor({n}, rng_);

  // Activation inputs spread over every tanh/sigmoid branch: tiny, unit,
  // saturated and exp-overflowing magnitudes, plus the non-finite values.
  Tensor act_in = x;
  for (std::size_t i = 0; i < n; ++i) act_in[i] *= std::ldexp(1.0f, static_cast<int>(i % 40) - 32);
  const float specials[] = {0.0f, -0.0f, std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN(), 22.0f, -1.0f, 100.0f,
                            -100.0f, 1e-30f};
  for (std::size_t i = 0; i < std::size(specials); ++i) act_in[i] = specials[i];

  Tensor want_axpy = y0;
  Tensor want_scale = y0;
  Tensor want_tanh = act_in;
  Tensor want_sigmoid = act_in;
  {
    KernelConfigGuard reference(KernelConfig::reference());
    ncnas::tensor::axpy(0.37f, x, want_axpy);
    ncnas::tensor::scale_inplace(want_scale, -1.72f);
    ncnas::tensor::tanh_inplace(want_tanh);
    ncnas::tensor::sigmoid_inplace(want_sigmoid);
  }

  for (const TierMode& tm : tier_sweep()) {
    KernelConfigGuard guard(test_config(tm.threads, tm.simd));
    Tensor got_axpy = y0;
    ncnas::tensor::axpy(0.37f, x, got_axpy);
    EXPECT_TRUE(bytes_equal(want_axpy, got_axpy)) << "axpy tier=" << tm.label;
    Tensor got_scale = y0;
    ncnas::tensor::scale_inplace(got_scale, -1.72f);
    EXPECT_TRUE(bytes_equal(want_scale, got_scale)) << "scale tier=" << tm.label;
    Tensor got_tanh = act_in;
    ncnas::tensor::tanh_inplace(got_tanh);
    EXPECT_TRUE(bytes_equal(want_tanh, got_tanh)) << "tanh tier=" << tm.label;
    Tensor got_sigmoid = act_in;
    ncnas::tensor::sigmoid_inplace(got_sigmoid);
    EXPECT_TRUE(bytes_equal(want_sigmoid, got_sigmoid)) << "sigmoid tier=" << tm.label;
  }
}

TEST_F(KernelDiff, RowwiseOpsMatchSerialBitwise) {
  const std::size_t m = 513, n = 259;
  const Tensor g = random_tensor({m, n}, rng_);
  const Tensor bias = random_tensor({n}, rng_);
  const Tensor y0 = random_tensor({m, n}, rng_);
  const Tensor colsum0 = random_tensor({n}, rng_);

  Tensor want_bias = y0;
  Tensor want_colsum = colsum0;
  {
    KernelConfigGuard reference(KernelConfig::reference());
    ncnas::tensor::add_row_bias(want_bias, bias);
    ncnas::tensor::accumulate_col_sums(g, want_colsum);
  }

  for (const TierMode& tm : tier_sweep()) {
    KernelConfigGuard guard(test_config(tm.threads, tm.simd));
    Tensor got_bias = y0;
    ncnas::tensor::add_row_bias(got_bias, bias);
    EXPECT_TRUE(bytes_equal(want_bias, got_bias)) << "add_row_bias tier=" << tm.label;
    Tensor got_colsum = colsum0;
    ncnas::tensor::accumulate_col_sums(g, got_colsum);
    EXPECT_TRUE(bytes_equal(want_colsum, got_colsum)) << "accumulate_col_sums tier=" << tm.label;
  }
}

TEST_F(KernelDiff, ParallelElemsCoversEveryIndexOnce) {
  KernelConfigGuard guard(test_config(hardware_threads()));
  const std::size_t n = 70'000;  // > 4 grains
  std::vector<int> hits(n, 0);
  ncnas::tensor::parallel_elems(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i;
  }
}

// --- dispatch & validation -------------------------------------------------

TEST_F(KernelDiff, TinyProblemsFallBackToReferenceBelowThreshold) {
  KernelConfig cfg = KernelConfig::parallel();  // default thresholds
  KernelConfigGuard guard(cfg);
  // 2x2x2 is far below min_blocked_flops; both paths are bit-identical
  // anyway, so just sanity-check the result.
  Tensor a({2, 2});
  a(0, 0) = 1.0f; a(0, 1) = 2.0f; a(1, 0) = 3.0f; a(1, 1) = 4.0f;
  Tensor c({2, 2});
  ncnas::tensor::gemm(a, a, c);
  EXPECT_FLOAT_EQ(c(0, 0), 7.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 22.0f);
}

TEST_F(KernelDiff, ShapeValidationStillThrowsInBlockedMode) {
  KernelConfigGuard guard(test_config(hardware_threads()));
  Tensor a({2, 3});
  Tensor b({4, 5});  // inner mismatch
  Tensor c({2, 5});
  EXPECT_THROW(ncnas::tensor::gemm(a, b, c), std::invalid_argument);
  EXPECT_THROW(ncnas::tensor::gemm_nt(a, b, c), std::invalid_argument);
  Tensor bad_c({3, 5});
  Tensor ok_b({3, 5});
  EXPECT_THROW(ncnas::tensor::gemm(a, ok_b, bad_c), std::invalid_argument);
}

TEST_F(KernelDiff, ReferenceBlockedCrossoverPinned) {
  // Pins the small-size cutoff that fixed the gemm_nt regression: below
  // min_blocked_flops every gemm variant takes the reference path outright
  // (no blocking/packing overhead), at or above it the blocked tiers run.
  KernelConfig cfg = KernelConfig::parallel(1);
  cfg.simd = SimdMode::kOff;
  cfg.min_blocked_flops = 1000;
  KernelConfigGuard guard(cfg);
  using ncnas::tensor::planned_gemm_path;
  EXPECT_EQ(planned_gemm_path(9, 9, 9), GemmPath::kReference);     // 729 < 1000
  EXPECT_EQ(planned_gemm_path(10, 10, 10), GemmPath::kBlocked);    // exactly 1000
  EXPECT_EQ(planned_gemm_path(16, 16, 16), GemmPath::kBlocked);
  // The default threshold keeps genuinely tiny products on the reference
  // path even in fully parallel configs.
  KernelConfigGuard defaults{KernelConfig::parallel()};
  EXPECT_EQ(planned_gemm_path(8, 8, 8), GemmPath::kReference);
  EXPECT_EQ(planned_gemm_path(64, 64, 64),
            KernelConfig::simd_available() ? GemmPath::kSimd : GemmPath::kBlocked);
}

TEST_F(KernelDiff, SimdTierEngagesExactlyWhenEligible) {
  using ncnas::tensor::planned_gemm_path;
  {
    // threads == 0 is the serial reference tier; SIMD must never engage.
    KernelConfigGuard guard{KernelConfig::reference()};
    EXPECT_EQ(planned_gemm_path(64, 64, 64), GemmPath::kReference);
  }
  {
    // The installed default (blocked, one thread, SIMD auto) takes the
    // fastest tier the host offers.
    KernelConfigGuard guard{KernelConfig{}};
    EXPECT_EQ(planned_gemm_path(64, 64, 64),
              KernelConfig::simd_available() ? GemmPath::kSimd : GemmPath::kBlocked);
  }
  {
    KernelConfigGuard guard(test_config(1, SimdMode::kOff));
    EXPECT_EQ(planned_gemm_path(64, 64, 64), GemmPath::kBlocked);
  }
  {
    KernelConfigGuard guard(test_config(1, SimdMode::kOn));
    const GemmPath p = planned_gemm_path(64, 64, 64);
    if (KernelConfig::simd_available()) {
      EXPECT_EQ(p, GemmPath::kSimd);
      EXPECT_STRNE(KernelConfig::simd_isa(), "");
    } else {
      EXPECT_EQ(p, GemmPath::kBlocked);
      EXPECT_STREQ(KernelConfig::simd_isa(), "");
    }
  }
}

TEST_F(KernelDiff, SimdNanPropagationMatchesReference) {
  // NaN/Inf travel through the SIMD micro-kernels exactly as through the
  // reference loops — including values that only touch the panel interior
  // vs only the scalar edge region of the same product.
  const std::size_t m = 9, k = 13, n = 47;  // 47 = one full panel + edge 15
  Tensor a = random_tensor({m, k}, rng_);
  Tensor b = random_tensor({k, n}, rng_);
  a(3, 5) = std::numeric_limits<float>::quiet_NaN();
  b(7, 2) = std::numeric_limits<float>::infinity();   // interior column
  b(2, 40) = -std::numeric_limits<float>::infinity();  // edge column
  Tensor want({m, n});
  ncnas::tensor::gemm_ref(a, b, want);
  for (const TierMode& tm : tier_sweep()) {
    KernelConfigGuard guard(test_config(tm.threads, tm.simd));
    Tensor got({m, n});
    ncnas::tensor::gemm(a, b, got);
    EXPECT_TRUE(bytes_equal(want, got)) << "tier=" << tm.label;
  }
}

TEST_F(KernelDiff, SetKernelConfigRejectsZeroBlocks) {
  KernelConfig cfg;
  cfg.block_rows = 0;
  EXPECT_THROW(ncnas::tensor::set_kernel_config(cfg), std::invalid_argument);
  cfg = KernelConfig{};
  cfg.block_cols = 0;
  EXPECT_THROW(ncnas::tensor::set_kernel_config(cfg), std::invalid_argument);
}

TEST_F(KernelDiff, GuardRestoresPreviousConfig) {
  const KernelConfig before = ncnas::tensor::kernel_config();
  {
    KernelConfigGuard guard(test_config(3));
    EXPECT_EQ(ncnas::tensor::kernel_config().threads, 3u);
  }
  const KernelConfig after = ncnas::tensor::kernel_config();
  EXPECT_EQ(after.threads, before.threads);
  EXPECT_EQ(after.block_rows, before.block_rows);
}

}  // namespace
