// Lane-width abstraction for the deterministic SIMD kernels.
//
// Each Pack type exposes the same static operation set over W doubles /
// W unsigned 64-bit integers / W boolean lanes.  simd_dag.hpp instantiates
// one shared dataflow graph against these, so the scalar (W = 1), AVX2
// (W = 4) and AVX-512 (W = 8) kernels are by construction the same
// sequence of IEEE-754 exactly-rounded operations -- the basis of the
// bitwise scalar==SIMD determinism contract (simd.hpp).
//
// Semantics pinned across implementations:
//  * fmin/fmax follow vminpd/vmaxpd exactly: (a < b) ? a : b and
//    (a > b) ? a : b -- the SECOND operand wins on NaN or signed-zero ties.
//  * comparisons are ordered-quiet (_CMP_*_OQ): any NaN compares false.
//  * fblend(m, a, b) selects a where the mask lane is true, else b.
//  * u53_to_f64 requires v < 2^53 (exact in double); small_i64_to_f64
//    requires |v| < 2^51.  Both are exact conversions at every width.
//  * sext32 sign-extends the low 32 bits of each 64-bit lane.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace swapgame::math::simd {

struct PackScalar {
  static constexpr std::size_t kWidth = 1;
  using F = double;
  using I = std::uint64_t;
  using M = bool;

  static F fbroad(double v) noexcept { return v; }
  static I ibroad(std::uint64_t v) noexcept { return v; }
  static F fload(const double* p) noexcept { return *p; }
  static void fstore(double* p, F v) noexcept { *p = v; }
  static I iload(const std::uint64_t* p) noexcept { return *p; }
  static void istore(std::uint64_t* p, I v) noexcept { *p = v; }

  static F fadd(F a, F b) noexcept { return a + b; }
  static F fsub(F a, F b) noexcept { return a - b; }
  static F fmul(F a, F b) noexcept { return a * b; }
  static F fdiv(F a, F b) noexcept { return a / b; }
  static F fsqrt(F a) noexcept { return std::sqrt(a); }
  static F fmin(F a, F b) noexcept { return a < b ? a : b; }
  static F fmax(F a, F b) noexcept { return a > b ? a : b; }
  static F fneg(F a) noexcept { return i2f(f2i(a) ^ 0x8000000000000000ULL); }
  static F fabs_(F a) noexcept { return i2f(f2i(a) & 0x7FFFFFFFFFFFFFFFULL); }

  static M flt(F a, F b) noexcept { return a < b; }
  static M fle(F a, F b) noexcept { return a <= b; }
  static M fgt(F a, F b) noexcept { return a > b; }
  static M fge(F a, F b) noexcept { return a >= b; }
  static M feq(F a, F b) noexcept { return a == b; }
  static F fblend(M m, F a, F b) noexcept { return m ? a : b; }

  static M mfalse() noexcept { return false; }
  static M mand(M a, M b) noexcept { return a && b; }
  static M mor(M a, M b) noexcept { return a || b; }
  static unsigned mbits(M m) noexcept { return m ? 1u : 0u; }

  static I f2i(F a) noexcept {
    I r;
    std::memcpy(&r, &a, sizeof(r));
    return r;
  }
  static F i2f(I a) noexcept {
    F r;
    std::memcpy(&r, &a, sizeof(r));
    return r;
  }

  static I iadd(I a, I b) noexcept { return a + b; }
  static I isub(I a, I b) noexcept { return a - b; }
  static I iand(I a, I b) noexcept { return a & b; }
  static I ior(I a, I b) noexcept { return a | b; }
  static I ixor(I a, I b) noexcept { return a ^ b; }
  template <int K>
  static I ishl(I a) noexcept {
    return a << K;
  }
  template <int K>
  static I ishr(I a) noexcept {
    return a >> K;
  }
  static I sext32(I a) noexcept {
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(
            static_cast<std::uint32_t>(a & 0xFFFFFFFFULL))));
  }
  static F u53_to_f64(I v) noexcept { return static_cast<double>(v); }
  static F small_i64_to_f64(I v) noexcept {
    return static_cast<double>(static_cast<std::int64_t>(v));
  }
};

#if defined(__AVX2__)

struct PackAvx2 {
  static constexpr std::size_t kWidth = 4;
  using F = __m256d;
  using I = __m256i;
  using M = __m256d;  // all-ones / all-zero lanes from vcmppd

  static F fbroad(double v) noexcept { return _mm256_set1_pd(v); }
  static I ibroad(std::uint64_t v) noexcept {
    return _mm256_set1_epi64x(static_cast<long long>(v));
  }
  static F fload(const double* p) noexcept { return _mm256_loadu_pd(p); }
  static void fstore(double* p, F v) noexcept { _mm256_storeu_pd(p, v); }
  static I iload(const std::uint64_t* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void istore(std::uint64_t* p, I v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }

  static F fadd(F a, F b) noexcept { return _mm256_add_pd(a, b); }
  static F fsub(F a, F b) noexcept { return _mm256_sub_pd(a, b); }
  static F fmul(F a, F b) noexcept { return _mm256_mul_pd(a, b); }
  static F fdiv(F a, F b) noexcept { return _mm256_div_pd(a, b); }
  static F fsqrt(F a) noexcept { return _mm256_sqrt_pd(a); }
  static F fmin(F a, F b) noexcept { return _mm256_min_pd(a, b); }
  static F fmax(F a, F b) noexcept { return _mm256_max_pd(a, b); }
  static F fneg(F a) noexcept { return _mm256_xor_pd(a, fbroad(-0.0)); }
  static F fabs_(F a) noexcept { return _mm256_andnot_pd(fbroad(-0.0), a); }

  static M flt(F a, F b) noexcept { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static M fle(F a, F b) noexcept { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  static M fgt(F a, F b) noexcept { return _mm256_cmp_pd(a, b, _CMP_GT_OQ); }
  static M fge(F a, F b) noexcept { return _mm256_cmp_pd(a, b, _CMP_GE_OQ); }
  static M feq(F a, F b) noexcept { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  static F fblend(M m, F a, F b) noexcept { return _mm256_blendv_pd(b, a, m); }

  static M mfalse() noexcept { return _mm256_setzero_pd(); }
  static M mand(M a, M b) noexcept { return _mm256_and_pd(a, b); }
  static M mor(M a, M b) noexcept { return _mm256_or_pd(a, b); }
  static unsigned mbits(M m) noexcept {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }

  static I f2i(F a) noexcept { return _mm256_castpd_si256(a); }
  static F i2f(I a) noexcept { return _mm256_castsi256_pd(a); }

  static I iadd(I a, I b) noexcept { return _mm256_add_epi64(a, b); }
  static I isub(I a, I b) noexcept { return _mm256_sub_epi64(a, b); }
  static I iand(I a, I b) noexcept { return _mm256_and_si256(a, b); }
  static I ior(I a, I b) noexcept { return _mm256_or_si256(a, b); }
  static I ixor(I a, I b) noexcept { return _mm256_xor_si256(a, b); }
  template <int K>
  static I ishl(I a) noexcept {
    return _mm256_slli_epi64(a, K);
  }
  template <int K>
  static I ishr(I a) noexcept {
    return _mm256_srli_epi64(a, K);
  }
  static I sext32(I a) noexcept {
    // No 64-bit arithmetic shift in AVX2: gather the low dwords and use the
    // widening signed conversion instead.
    const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    const __m128i lo =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(a, idx));
    return _mm256_cvtepi32_epi64(lo);
  }
  static F u53_to_f64(I v) noexcept {
    // Exact u64 -> f64 for v < 2^53 via the magic-number hi/lo split:
    // (2^84 + hi*2^32) - (2^84 + 2^52) + (2^52 + lo) == v with every
    // intermediate step exact.
    const I hi = _mm256_or_si256(_mm256_srli_epi64(v, 32),
                                 f2i(fbroad(0x1.0p84)));
    const I lo = _mm256_or_si256(_mm256_and_si256(v, ibroad(0xFFFFFFFFULL)),
                                 f2i(fbroad(0x1.0p52)));
    return fadd(fsub(i2f(hi), fbroad(0x1.0p84 + 0x1.0p52)), i2f(lo));
  }
  static F small_i64_to_f64(I v) noexcept {
    // Exact i64 -> f64 for |v| < 2^51: bias into the mantissa of 1.5*2^52.
    const I t = _mm256_add_epi64(v, f2i(fbroad(0x1.8p52)));
    return fsub(i2f(t), fbroad(0x1.8p52));
  }
};

#endif  // __AVX2__

#if defined(__AVX512F__) && defined(__AVX512DQ__)

struct PackAvx512 {
  static constexpr std::size_t kWidth = 8;
  using F = __m512d;
  using I = __m512i;
  using M = __mmask8;

  static F fbroad(double v) noexcept { return _mm512_set1_pd(v); }
  static I ibroad(std::uint64_t v) noexcept {
    return _mm512_set1_epi64(static_cast<long long>(v));
  }
  static F fload(const double* p) noexcept { return _mm512_loadu_pd(p); }
  static void fstore(double* p, F v) noexcept { _mm512_storeu_pd(p, v); }
  static I iload(const std::uint64_t* p) noexcept {
    return _mm512_loadu_si512(p);
  }
  static void istore(std::uint64_t* p, I v) noexcept {
    _mm512_storeu_si512(p, v);
  }

  static F fadd(F a, F b) noexcept { return _mm512_add_pd(a, b); }
  static F fsub(F a, F b) noexcept { return _mm512_sub_pd(a, b); }
  static F fmul(F a, F b) noexcept { return _mm512_mul_pd(a, b); }
  static F fdiv(F a, F b) noexcept { return _mm512_div_pd(a, b); }
  static F fsqrt(F a) noexcept { return _mm512_sqrt_pd(a); }
  static F fmin(F a, F b) noexcept { return _mm512_min_pd(a, b); }
  static F fmax(F a, F b) noexcept { return _mm512_max_pd(a, b); }
  static F fneg(F a) noexcept {
    return _mm512_castsi512_pd(
        _mm512_xor_si512(_mm512_castpd_si512(a), f2i(fbroad(-0.0))));
  }
  static F fabs_(F a) noexcept { return _mm512_abs_pd(a); }

  static M flt(F a, F b) noexcept {
    return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ);
  }
  static M fle(F a, F b) noexcept {
    return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ);
  }
  static M fgt(F a, F b) noexcept {
    return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ);
  }
  static M fge(F a, F b) noexcept {
    return _mm512_cmp_pd_mask(a, b, _CMP_GE_OQ);
  }
  static M feq(F a, F b) noexcept {
    return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ);
  }
  static F fblend(M m, F a, F b) noexcept {
    return _mm512_mask_blend_pd(m, b, a);
  }

  static M mfalse() noexcept { return 0; }
  static M mand(M a, M b) noexcept { return static_cast<M>(a & b); }
  static M mor(M a, M b) noexcept { return static_cast<M>(a | b); }
  static unsigned mbits(M m) noexcept { return m; }

  static I f2i(F a) noexcept { return _mm512_castpd_si512(a); }
  static F i2f(I a) noexcept { return _mm512_castsi512_pd(a); }

  static I iadd(I a, I b) noexcept { return _mm512_add_epi64(a, b); }
  static I isub(I a, I b) noexcept { return _mm512_sub_epi64(a, b); }
  static I iand(I a, I b) noexcept { return _mm512_and_si512(a, b); }
  static I ior(I a, I b) noexcept { return _mm512_or_si512(a, b); }
  static I ixor(I a, I b) noexcept { return _mm512_xor_si512(a, b); }
  template <int K>
  static I ishl(I a) noexcept {
    return _mm512_slli_epi64(a, K);
  }
  template <int K>
  static I ishr(I a) noexcept {
    return _mm512_srli_epi64(a, K);
  }
  static I sext32(I a) noexcept {
    return _mm512_srai_epi64(_mm512_slli_epi64(a, 32), 32);
  }
  static F u53_to_f64(I v) noexcept { return _mm512_cvtepu64_pd(v); }
  static F small_i64_to_f64(I v) noexcept { return _mm512_cvtepi64_pd(v); }
};

#endif  // __AVX512F__ && __AVX512DQ__

}  // namespace swapgame::math::simd
