// Bit-exactness suite for the tanh / sigmoid kernels.
//
// tensor::tanh_inplace and tensor::sigmoid_inplace promise the bytes of the
// scalar std::tanh and 1 / (1 + std::exp(-x)) loops at every kernel tier. On
// AVX2+FMA hosts the SIMD tier runs vector mirrors of the host libm's
// algorithms, engaged only after a one-time probe agrees with that libm.
// This suite checks the promise directly against the libm:
//
//   * a 2^24-point strided sweep over all 2^32 bit patterns, default tier
//     and reference tier both against the scalar libm results;
//   * +-64 ulps around every branch point of the mirrored algorithms;
//   * engagement: the default config takes the mirror exactly when it is
//     available and agrees with the libm; reference() and simd off never do.
//
// Usage:
//   activation_exact_test                 the tier-1 checks above
//   activation_exact_test --exhaustive    adds every one of the 2^32 inputs
//                                         for both functions (about a
//                                         minute on four threads)
//
// NaN inputs are compared by bits like every other input: the mirrors
// reproduce the libm's NaN propagation too.

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "ncnas/tensor/kernel_config.hpp"
#include "ncnas/tensor/ops.hpp"

namespace {

using ncnas::tensor::KernelConfig;
using ncnas::tensor::KernelConfigGuard;
using ncnas::tensor::LibmFn;
using ncnas::tensor::SimdMode;

bool g_exhaustive = false;

/// True on the libm the mirrors were transcribed from (glibc 2.36, x86-64).
/// There a mirror that fails its probe has regressed rather than met a
/// foreign libm, so the engagement test insists on it.
bool host_libm_is_mirrored_glibc() {
#if defined(__GLIBC__)
  return std::strcmp(gnu_get_libc_version(), "2.36") == 0;
#else
  return false;
#endif
}

const char* name_of(LibmFn fn) { return fn == LibmFn::kTanh ? "tanh" : "sigmoid"; }

float libm(LibmFn fn, float v) {
  return fn == LibmFn::kTanh ? std::tanh(v) : 1.0f / (1.0f + std::exp(-v));
}

void apply(LibmFn fn, std::vector<float>& y) {
  if (fn == LibmFn::kTanh) {
    ncnas::tensor::tanh_inplace(y.data(), y.size());
  } else {
    ncnas::tensor::sigmoid_inplace(y.data(), y.size());
  }
}

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

/// Counts inputs where `got` differs in any bit from the libm result, and
/// reports the first few.
std::size_t count_mismatches(LibmFn fn, const std::vector<float>& in,
                             const std::vector<float>& got, const char* what) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const float want = libm(fn, in[i]);
    if (bits(got[i]) == bits(want)) continue;
    if (++bad <= 5) {
      ADD_FAILURE() << name_of(fn) << " " << what << ": input 0x" << std::hex << bits(in[i])
                    << " (" << in[i] << ") gave 0x" << bits(got[i]) << ", libm gives 0x"
                    << bits(want);
    }
  }
  return bad;
}

/// Inputs within +-ulps of every branch point, both signs.
std::vector<float> branch_neighbourhoods(std::uint32_t ulps) {
  std::vector<float> in;
  for (const std::uint32_t b : ncnas::tensor::detail::libm_branch_points()) {
    for (std::uint32_t u = b - ulps; u != b + ulps + 1; ++u) {
      in.push_back(std::bit_cast<float>(u));
      in.push_back(std::bit_cast<float>(u | 0x80000000u));
    }
  }
  return in;
}

/// Runs the default tier (the mirror, where engaged) and the reference tier
/// over `in`, and checks both against the libm.
void check_tiers(LibmFn fn, const std::vector<float>& in) {
  std::vector<float> got = in;
  apply(fn, got);
  EXPECT_EQ(count_mismatches(fn, in, got, "default tier"), 0u);
  KernelConfigGuard reference(KernelConfig::reference());
  got = in;
  apply(fn, got);
  EXPECT_EQ(count_mismatches(fn, in, got, "reference tier"), 0u);
}

class ActivationExact : public ::testing::TestWithParam<LibmFn> {};

TEST_P(ActivationExact, StridedSweepMatchesLibm) {
  // Stride 257 walks all 2^32 patterns 2^24 times apart with the low bits
  // rotating, so every exponent, both signs, NaNs, infinities and
  // subnormals are all visited. Chunked to keep the footprint small.
  constexpr std::uint64_t kPoints = std::uint64_t{1} << 24;
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
  for (std::uint64_t c = 0; c < kPoints; c += kChunk) {
    std::vector<float> in(kChunk);
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      in[i] = std::bit_cast<float>(static_cast<std::uint32_t>((c + i) * 257u));
    }
    check_tiers(GetParam(), in);
    if (HasFailure()) return;
  }
}

TEST_P(ActivationExact, BranchNeighbourhoodsMatchLibm) {
  check_tiers(GetParam(), branch_neighbourhoods(64));
}

TEST_P(ActivationExact, EngagementFollowsTierAndProbe) {
  const LibmFn fn = GetParam();
  {
    KernelConfigGuard reference(KernelConfig::reference());
    EXPECT_FALSE(ncnas::tensor::libm_mirror_engaged(fn)) << "reference() must keep libm";
  }
  {
    KernelConfig off;
    off.simd = SimdMode::kOff;
    KernelConfigGuard guard(off);
    EXPECT_FALSE(ncnas::tensor::libm_mirror_engaged(fn)) << "SimdMode::kOff must keep libm";
  }
  const char* env = std::getenv("NCNAS_SIMD");
  if (env != nullptr && (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0)) {
    EXPECT_FALSE(KernelConfig::simd_available());
    EXPECT_FALSE(ncnas::tensor::libm_mirror_engaged(fn)) << "NCNAS_SIMD=off must keep libm";
    return;
  }
  // The default engages exactly when the SIMD tier is AVX2 (NEON has no
  // mirror) and the mirror agrees with this host's libm.
  bool mirror_agrees = false;
  std::vector<float> in = branch_neighbourhoods(8);
  for (std::uint32_t i = 0; i < 65536; ++i) in.push_back(std::bit_cast<float>(i * 65537u));
  std::vector<float> got = in;
  if (ncnas::tensor::detail::run_libm_mirror(fn, got.data(), got.size())) {
    mirror_agrees = true;
    for (std::size_t i = 0; i < in.size(); ++i) {
      mirror_agrees = mirror_agrees && bits(got[i]) == bits(libm(fn, in[i]));
    }
  }
  const bool want = KernelConfig::simd_available() &&
                    std::strcmp(KernelConfig::simd_isa(), "avx2") == 0 && mirror_agrees;
  EXPECT_EQ(ncnas::tensor::libm_mirror_engaged(fn), want)
      << "isa=" << KernelConfig::simd_isa() << " mirror_agrees=" << mirror_agrees;
  if (std::strcmp(KernelConfig::simd_isa(), "avx2") == 0 && host_libm_is_mirrored_glibc()) {
    EXPECT_TRUE(ncnas::tensor::libm_mirror_engaged(fn))
        << "the mirror no longer matches the glibc it was transcribed from";
  }
}

INSTANTIATE_TEST_SUITE_P(Functions, ActivationExact,
                         ::testing::Values(LibmFn::kTanh, LibmFn::kSigmoid),
                         [](const ::testing::TestParamInfo<LibmFn>& info) {
                           return std::string(name_of(info.param));
                         });

/// Every 32-bit input, split over the hardware threads. Registered only
/// under --exhaustive; skipped where the default tier does not run the
/// mirror (there is then nothing but libm itself to compare).
void exhaustive_check(LibmFn fn) {
  if (!ncnas::tensor::libm_mirror_engaged(fn)) {
    GTEST_SKIP() << name_of(fn) << " mirror not engaged on this host";
  }
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
  constexpr std::uint64_t kChunks = (std::uint64_t{1} << 32) / kChunk;
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> first_bad{~std::uint64_t{0}};
  auto worker = [&] {
    std::vector<float> in(kChunk), got(kChunk);
    for (std::uint64_t c = next.fetch_add(1); c < kChunks; c = next.fetch_add(1)) {
      for (std::uint64_t i = 0; i < kChunk; ++i) {
        in[i] = std::bit_cast<float>(static_cast<std::uint32_t>(c * kChunk + i));
      }
      got = in;
      apply(fn, got);
      for (std::uint64_t i = 0; i < kChunk; ++i) {
        if (bits(got[i]) == bits(libm(fn, in[i]))) continue;
        mismatches.fetch_add(1);
        std::uint64_t seen = first_bad.load();
        const std::uint64_t u = c * kChunk + i;
        while (u < seen && !first_bad.compare_exchange_weak(seen, u)) {
        }
      }
    }
  };
  std::vector<std::thread> pool;
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  EXPECT_EQ(mismatches.load(), 0u) << name_of(fn) << ": first mismatching input 0x" << std::hex
                                   << first_bad.load();
  std::printf("%s: all 2^32 inputs checked, %llu mismatches\n", name_of(fn),
              static_cast<unsigned long long>(mismatches.load()));
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--exhaustive") == 0) g_exhaustive = true;
  }
  if (g_exhaustive) {
    for (const LibmFn fn : {LibmFn::kTanh, LibmFn::kSigmoid}) {
      ::testing::RegisterTest("ActivationExhaustive", name_of(fn), nullptr, nullptr, __FILE__,
                              __LINE__, [fn]() -> ::testing::Test* {
                                struct Check : ::testing::Test {
                                  explicit Check(LibmFn f) : fn(f) {}
                                  void TestBody() override { exhaustive_check(fn); }
                                  LibmFn fn;
                                };
                                return new Check(fn);
                              });
    }
  }
  return RUN_ALL_TESTS();
}
