// AVX2 mirrors of glibc's scalar tanhf and expf for the SIMD tier (x86-64).
//
// tanh_inplace / sigmoid_inplace promise the bytes of std::tanh and of
// 1 / (1 + std::exp(-x)) at every kernel tier. The kernels below reproduce
// the exact operation sequence glibc 2.36's x86-64 libm performs — read off
// `objdump -d libm.so.6` — so each lane rounds exactly where the scalar code
// rounds. Scalar branches become lanes: every branch is computed and the
// right one is blended in per element.
//
//  * tanhf is fdlibm's s_tanhf.c over fdlibm's s_expm1f.c (the Q1..Q5
//    polynomial), compiled for baseline x86-64: separate multiplies and adds,
//    no FMA anywhere. The expm1f mirror covers only the arguments tanhf
//    passes it: 2|x| for |x| in [1, 22) and -2|x| for |x| in [2^-55, 1).
//  * expf is the FMA ifunc variant (__expf_fma, sysdeps/ieee754/flt-32/
//    e_expf.c): double-precision evaluation over a 32-entry 2^(i/32) table,
//    with fused multiply-adds exactly where that variant has them.
//
// This translation unit is compiled with -mavx2 -mfma -ffp-contract=off (see
// src/tensor/CMakeLists.txt). Contraction must stay off here: the repo-wide
// -ffp-contract=fast would fuse the separate mul/add steps of the fdlibm
// mirror into FMAs and change its rounding. Every FMA below is explicit.
//
// Nothing here checks which libm the process actually runs. ops.cpp engages
// these kernels only after a one-time probe agrees bit for bit with the
// host's std::tanh / std::exp; on any other libm the scalar loops run.

#include "simd_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstdint>

namespace ncnas::tensor::simd {

namespace {

__m256i splat(std::uint32_t u) { return _mm256_set1_epi32(static_cast<int>(u)); }
__m256 splat_bits(std::uint32_t u) { return _mm256_castsi256_ps(splat(u)); }
__m256 as_float(__m256i v) { return _mm256_castsi256_ps(v); }
__m256i as_int(__m256 v) { return _mm256_castps_si256(v); }

/// Lane-wise `mask ? yes : no`; mask lanes are all-ones or all-zeros.
__m256 pick(__m256i mask, __m256 yes, __m256 no) {
  return _mm256_blendv_ps(no, yes, as_float(mask));
}
__m256i pick(__m256i mask, __m256i yes, __m256i no) {
  return _mm256_blendv_epi8(no, yes, mask);
}

/// Signed lane compare a > b (every operand here fits in 31 bits or is a
/// two's-complement k, so signed order is the intended order).
__m256i gt(__m256i a, std::uint32_t b) { return _mm256_cmpgt_epi32(a, splat(b)); }

// ---- fdlibm expm1f, restricted to tanhf's arguments ----------------------

constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
constexpr float kQ1 = -3.3333335072e-02f;     // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;      // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;     // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;      // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;     // 0xb457edbb

/// expm1f(a) for a in [2, 44) or a in (-2, -2^-54]. Other lanes produce
/// garbage the caller discards.
__m256 expm1f_for_tanh(__m256 a) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256i ua = as_int(a);
  const __m256i ha = _mm256_and_si256(ua, splat(0x7fffffffu));
  const __m256i neg = _mm256_srai_epi32(ua, 31);  // all-ones where a < 0

  // Argument reduction a = k*ln2 + r. |a| <= ln2/2: k = 0. |a| < 1.5 ln2:
  // k = +-1. Otherwise k = (int)(invln2*a +- 0.5), truncated like cvttss2si.
  const __m256 bias = pick(neg, _mm256_set1_ps(-0.5f), half);
  const __m256i k_round =
      _mm256_cvttps_epi32(_mm256_add_ps(bias, _mm256_mul_ps(_mm256_set1_ps(kInvLn2), a)));
  const __m256i k_unit = _mm256_or_si256(neg, splat(1));  // -1 or +1
  const __m256i reduced = gt(ha, 0x3eb17218u);
  const __m256i unit = _mm256_andnot_si256(gt(ha, 0x3f851591u), reduced);
  const __m256i k = _mm256_and_si256(reduced, pick(unit, k_unit, k_round));
  // With t = k the fdlibm forms all fall out of one sequence: t*ln2_hi is
  // exactly +-ln2_hi for k = +-1 (so a - t*ln2_hi is a -+ ln2_hi), and k = 0
  // leaves x = a with c = 0, which the k == 0 result below never reads.
  const __m256 t = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(a, _mm256_mul_ps(t, _mm256_set1_ps(kLn2Hi)));
  const __m256 lo = _mm256_mul_ps(t, _mm256_set1_ps(kLn2Lo));
  const __m256 x = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, x), lo);

  // x is now in the primary range.
  const __m256 hfx = _mm256_mul_ps(x, half);
  const __m256 hxs = _mm256_mul_ps(x, hfx);
  __m256 r1 = _mm256_mul_ps(_mm256_set1_ps(kQ5), hxs);
  r1 = _mm256_mul_ps(_mm256_add_ps(r1, _mm256_set1_ps(kQ4)), hxs);
  r1 = _mm256_mul_ps(_mm256_add_ps(r1, _mm256_set1_ps(kQ3)), hxs);
  r1 = _mm256_mul_ps(_mm256_add_ps(r1, _mm256_set1_ps(kQ2)), hxs);
  r1 = _mm256_mul_ps(_mm256_add_ps(r1, _mm256_set1_ps(kQ1)), hxs);
  r1 = _mm256_add_ps(r1, one);
  const __m256 tt = _mm256_sub_ps(_mm256_set1_ps(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e = _mm256_mul_ps(
      _mm256_div_ps(_mm256_sub_ps(r1, tt),
                    _mm256_sub_ps(_mm256_set1_ps(6.0f), _mm256_mul_ps(x, tt))),
      hxs);

  // k == 0: x - (x*e - hxs).
  const __m256 res_k0 = _mm256_sub_ps(x, _mm256_sub_ps(_mm256_mul_ps(x, e), hxs));

  // k != 0: e' = (x*(e-c) - c) - hxs, then one of three reconstructions.
  const __m256 ek =
      _mm256_sub_ps(_mm256_sub_ps(_mm256_mul_ps(x, _mm256_sub_ps(e, c)), c), hxs);
  const __m256 e_minus_x = _mm256_sub_ps(ek, x);
  const __m256i k_exp = _mm256_slli_epi32(k, 23);  // k added to the exponent field
  // k == -1: 0.5*(x - e') - 0.5.
  const __m256 res_km1 = _mm256_sub_ps(_mm256_mul_ps(_mm256_sub_ps(x, ek), half), half);
  // k <= -2 or k > 56: scale 1 - (e' - x) by 2^k, then subtract 1.
  const __m256 res_far = _mm256_sub_ps(
      as_float(_mm256_add_epi32(as_int(_mm256_sub_ps(one, e_minus_x)), k_exp)), one);
  // 2 <= k <= 22: (1 - 2^-k) - (e' - x), scaled by 2^k. The variable shift
  // yields 0 for counts outside [0, 31], so off-branch lanes stay defined.
  const __m256 one_minus_ulp =
      as_float(_mm256_sub_epi32(splat(0x3f800000u), _mm256_srav_epi32(splat(0x1000000u), k)));
  const __m256 res_mid =
      as_float(_mm256_add_epi32(as_int(_mm256_sub_ps(one_minus_ulp, e_minus_x)), k_exp));
  // 23 <= k <= 56: ((x - (e' + 2^-k)) + 1), scaled by 2^k.
  const __m256 two_m_k = as_float(_mm256_slli_epi32(_mm256_sub_epi32(splat(0x7f), k), 23));
  const __m256 res_high = as_float(_mm256_add_epi32(
      as_int(_mm256_add_ps(_mm256_sub_ps(x, _mm256_add_ps(ek, two_m_k)), one)), k_exp));

  const __m256i k_far = _mm256_or_si256(gt(k, 56), _mm256_cmpgt_epi32(splat(0xffffffffu), k));
  __m256 res = pick(gt(k, 22), res_high, res_mid);
  res = pick(k_far, res_far, res);
  res = pick(_mm256_cmpeq_epi32(k, splat(0xffffffffu)), res_km1, res);
  res = pick(_mm256_cmpeq_epi32(k, _mm256_setzero_si256()), res_k0, res);
  // |a| < 2^-25 returns a itself (fdlibm's x - ((huge+x) - (huge+x))).
  return pick(gt(ha, 0x32ffffffu), res, a);
}

// ---- fdlibm tanhf ---------------------------------------------------------

__m256 tanhf8(__m256 v) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256i uv = as_int(v);
  const __m256i iv = _mm256_and_si256(uv, splat(0x7fffffffu));
  const __m256i sign = _mm256_andnot_si256(splat(0x7fffffffu), uv);
  const __m256 av = as_float(iv);

  // |v| in [2^-55, 22): |v| >= 1 gives 1 - 2/(t+2) with t = expm1f(2|v|),
  // |v| < 1 gives -t/(t+2) with t = expm1f(-2|v|); the sign is reapplied.
  // Both forms share the divisor, so one division serves both branches.
  const __m256i big = gt(iv, 0x3f7fffffu);
  const __m256 t = expm1f_for_tanh(pick(big, _mm256_add_ps(av, av),
                                        _mm256_mul_ps(av, _mm256_set1_ps(-2.0f))));
  const __m256 q = _mm256_div_ps(pick(big, two, _mm256_xor_ps(t, splat_bits(0x80000000u))),
                                 _mm256_add_ps(t, two));
  __m256 res = pick(big, _mm256_sub_ps(one, q), q);
  // |v| >= 22: 1 - tiny (which rounds to 1).
  res = pick(gt(iv, 0x41afffffu), _mm256_sub_ps(one, _mm256_set1_ps(1.0e-30f)), res);
  res = _mm256_xor_ps(res, as_float(sign));
  // |v| < 2^-55 (zero included): v*(1 + v), which is v.
  res = pick(gt(iv, 0x23ffffffu), res, _mm256_mul_ps(_mm256_add_ps(one, v), v));
  // Inf and NaN: 1/v + 1 for a clear sign bit, 1/v - 1 for a set one.
  const __m256 inv = _mm256_div_ps(one, v);
  const __m256 nonfinite =
      pick(_mm256_cmpeq_epi32(sign, _mm256_setzero_si256()), _mm256_add_ps(inv, one),
           _mm256_sub_ps(inv, one));
  return pick(gt(iv, 0x7f7fffffu), nonfinite, res);
}

// ---- glibc expf (FMA variant) ---------------------------------------------

// __exp2f_data: InvLn2N = 32/ln2, SHIFT = 0x1.8p52, C0..C2 (poly_scaled),
// and T[i] = asuint64(2^(i/32)) - (i << 47).
constexpr double kInvLn2N = 0x1.71547652b82fep+5;
constexpr double kShift = 0x1.8p+52;
constexpr double kC0 = 0x1.c6af84b912394p-20;
constexpr double kC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kC2 = 0x1.62e42ff0c52d6p-6;
alignas(32) constexpr std::uint64_t kExp2Tab[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

/// The expf main path on four lanes, in double precision.
__m128 expf_main4(__m128 v) {
  const __m256d xd = _mm256_cvtps_pd(v);
  const __m256d inv_ln2n = _mm256_set1_pd(kInvLn2N);
  const __m256d shift = _mm256_set1_pd(kShift);
  // kd = round(z) via the shift trick, with z = InvLn2N*xd fused into it;
  // r = z - kd recomputes z inside a second fused operation.
  __m256d kd = _mm256_fmadd_pd(inv_ln2n, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  kd = _mm256_sub_pd(kd, shift);
  const __m256d r = _mm256_fmsub_pd(inv_ln2n, xd, kd);
  const __m256i idx = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
  const __m256i tab = _mm256_i64gather_epi64(reinterpret_cast<const long long*>(kExp2Tab), idx, 8);
  const __m256d s = _mm256_castsi256_pd(_mm256_add_epi64(tab, _mm256_slli_epi64(ki, 47)));
  const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(kC0), r, _mm256_set1_pd(kC1));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(kC2), r, _mm256_set1_pd(1.0));
  y = _mm256_fmadd_pd(z, r2, y);
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
}

__m256 expf8(__m256 v) {
  __m256 res = _mm256_set_m128(expf_main4(_mm256_extractf128_ps(v, 1)),
                               expf_main4(_mm256_castps256_ps128(v)));
  // |v| >= 88 (top 12 bits of |v| at least 0x42b) leaves the main path for
  // the lanes that overflow, underflow, or are not finite.
  const __m256i uv = as_int(v);
  const __m256i abstop = _mm256_and_si256(_mm256_srli_epi32(uv, 20), splat(0x7ff));
  if (_mm256_testz_si256(gt(abstop, 0x42a), gt(abstop, 0x42a)) != 0) return res;
  // v < log(2^-149): 0x1.4p-75f squared, which rounds to the least subnormal.
  res = pick(as_int(_mm256_cmp_ps(v, splat_bits(0xc2ce8ecfu), _CMP_LT_OQ)),
             _mm256_mul_ps(splat_bits(0x1a200000u), splat_bits(0x1a200000u)), res);
  // v < log(2^-150): 2^-95 squared, which is +0.
  res = pick(as_int(_mm256_cmp_ps(v, splat_bits(0xc2cff1b4u), _CMP_LT_OQ)),
             _mm256_mul_ps(splat_bits(0x10000000u), splat_bits(0x10000000u)), res);
  // v > log(2^128): 2^97 squared, which is +inf.
  res = pick(as_int(_mm256_cmp_ps(v, splat_bits(0x42b17217u), _CMP_GT_OQ)),
             _mm256_mul_ps(splat_bits(0x70000000u), splat_bits(0x70000000u)), res);
  // Inf and NaN: v + v; -inf: +0.
  res = pick(gt(abstop, 0x7f7), _mm256_add_ps(v, v), res);
  return pick(_mm256_cmpeq_epi32(uv, splat(0xff800000u)), _mm256_setzero_ps(), res);
}

__m256 sigmoid8(__m256 v) {
  const __m256 one = _mm256_set1_ps(1.0f);
  return _mm256_div_ps(one, _mm256_add_ps(one, expf8(_mm256_xor_ps(v, splat_bits(0x80000000u)))));
}

/// Applies f to y[b, e) in place: full vectors, then one masked vector for
/// the tail (its inactive lanes compute on zeros and are never stored).
template <__m256 (*F)(__m256)>
void apply_range(float* y, std::size_t b, std::size_t e) {
  std::size_t i = b;
  for (; i + 8 <= e; i += 8) _mm256_storeu_ps(y + i, F(_mm256_loadu_ps(y + i)));
  if (i < e) {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(e - i)), lane);
    _mm256_maskstore_ps(y + i, mask, F(_mm256_maskload_ps(y + i, mask)));
  }
}

}  // namespace

void tanh_range_avx2(float* y, std::size_t b, std::size_t e) { apply_range<tanhf8>(y, b, e); }

void sigmoid_range_avx2(float* y, std::size_t b, std::size_t e) {
  apply_range<sigmoid8>(y, b, e);
}

}  // namespace ncnas::tensor::simd

#endif
