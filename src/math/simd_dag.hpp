// The shared dataflow graph behind every SIMD dispatch level.
//
// Everything here is templated on a Pack (simd_pack.hpp) and built ONLY
// from IEEE-754 exactly-rounded operations -- +, -, *, /, sqrt, min/max,
// blends and bit manipulation.  No libm call and no FMA contraction ever
// enters the graph (the math library is compiled with -ffp-contract=off),
// so instantiations at W = 1, 4, 8 execute the same rounding sequence
// per lane and the results are bitwise identical across dispatch levels.
// That forces from-scratch exp/log/erfc kernels: libm implementations are
// not vectorizable and differ across libc versions, which would break the
// scalar==SIMD contract.  Accuracy (verified by tools/gen_det_coeffs.py
// and tests/test_special.cpp):
//   det_exp   ~1e-16 relative (degree-12 Taylor on |r| <= ln2/2)
//   det_log   ~1e-16 relative (atanh series after sqrt(2)-normalization)
//   det_erfc  <= ~1e-15 relative for |x| < 1, <= 2.2e-13 for x in [1, 27]
//   quantile  initial Acklam (<= 1.15e-9) + one Halley step off det_erfc:
//             limited by det_erfc, comfortably inside the 1e-13 CDF
//             round-trip and 1e-9 tail bounds the test suite enforces.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "simd.hpp"
#include "simd_pack.hpp"

// Force-inline the graph nodes: quantile alone is ~550 instructions per
// pack, far above GCC's inlining thresholds, and an out-of-line call per
// pack would block constant hoisting and cross-iteration scheduling in
// the transform loops (measured ~20% on the AVX2 quantile).
#if defined(__GNUC__) || defined(__clang__)
#define SWAPGAME_DAG_INLINE [[gnu::always_inline]]
#else
#define SWAPGAME_DAG_INLINE
#endif

namespace swapgame::math::simd {

inline constexpr double kInvSqrt2 = 0.7071067811865475244008443621048490;
inline constexpr double kInvSqrt2Pi = 0.3989422804014326779399460599343819;

// --- generated by tools/gen_det_coeffs.py (do not hand-edit) ---
// kErfPoly: erf(x)/x in t = x^2 on [0, 1]; max rel err 3.8e-23 (exact
// arithmetic; the double evaluation adds ~1e-16).
inline constexpr double kErfPoly[] = {
    1.1283791670955126,     -0.37612638903183752,   0.11283791670955126,
    -0.026866170645131219,  0.0052239776254416740,  -0.00085483270234030006,
    0.00012055332978879484, -1.4925650236967502e-5, 1.6462110782018636e-6,
    -1.6365768648832072e-7, 1.4806027146128752e-8,  -1.2277734486795524e-9,
    9.3237235181530266e-11, -6.1967364287877000e-12, 2.8067128195611262e-13,
};
// kErfcR1: erfc(1/s) * exp(1/s^2) / s for s in [1/2.857, 1] (ax in
// [1, 2.857]); max rel err 2.2e-13.
inline constexpr double kErfcR1[] = {
    0.56422365979702131,  -0.00076631272883275618, -0.27472574237512503,
    -0.036804323265059254, 0.49557654568561545,    0.25476784065040383,
    -3.4237602725937880,   8.3327427553117912,     -12.163043771329991,
    12.298333980002362,    -8.9076211279349974,    4.5766570542849798,
    -1.5928017150983572,   0.33784529824517953,    -0.033040292495469972,
};
// kErfcR2: same target for s in [1/28, 1/2.857] (ax in [2.857, 28]);
// max rel err 6.0e-15.
inline constexpr double kErfcR2[] = {
    0.56418958355349417,   -5.8981452369709825e-10, -0.28209477041688306,
    -1.3522195031477322e-7, 0.42312736580773600,    0.00060625196046914120,
    -1.0703769489337258,    0.16761900760798515,    2.1380992126644196,
    10.431826497929749,     -66.122955711583042,    159.86637815723560,
    -215.86090492311203,    162.65269281713338,     -53.936470326579790,
};
// --- end generated coefficients ---

// s boundary between kErfcR1 and kErfcR2 (1/2.857, the fdlibm split).
inline constexpr double kErfcSplit = 0.35001750087504375218;

// exp: degree-12 Taylor in the ln2/2-reduced remainder (1/k! is not
// exactly representable but the compile-time fold rounds once, which is
// all the graph needs -- the same double at every level).
inline constexpr double kExpTaylor[] = {
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
    1.0 / 40320.0,
    1.0 / 362880.0,
    1.0 / 3628800.0,
    1.0 / 39916800.0,
    1.0 / 479001600.0,
};

// log: atanh series tail q(z) = sum z^k / (2k + 3) with s = (m-1)/(m+1),
// z = s^2 <= 0.0295, truncation below 1e-18 relative.
inline constexpr double kLogAtanh[] = {
    1.0 / 3.0,  1.0 / 5.0,  1.0 / 7.0,  1.0 / 9.0,  1.0 / 11.0,
    1.0 / 13.0, 1.0 / 15.0, 1.0 / 17.0, 1.0 / 19.0, 1.0 / 21.0,
};

// Acklam's rational inverse-normal-CDF approximation (same constants as
// the pre-SIMD scalar src/math/special.cpp), highest-degree first.
inline constexpr double kAcklamA[] = {-3.969683028665376e+01,
                                      2.209460984245205e+02,
                                      -2.759285104469687e+02,
                                      1.383577518672690e+02,
                                      -3.066479806614716e+01,
                                      2.506628277459239e+00};
inline constexpr double kAcklamB[] = {-5.447609879822406e+01,
                                      1.615858368580409e+02,
                                      -1.556989798598866e+02,
                                      6.680131188771972e+01,
                                      -1.328068155288572e+01};
inline constexpr double kAcklamC[] = {-7.784894002430293e-03,
                                      -3.223964580411365e-01,
                                      -2.400758277161838e+00,
                                      -2.549732539343734e+00,
                                      4.374664141464968e+00,
                                      2.938163982698783e+00};
inline constexpr double kAcklamD[] = {7.784695709041462e-03,
                                      3.224671290700398e-01,
                                      2.445134137142996e+00,
                                      3.754408661907416e+00};
inline constexpr double kAcklamPLow = 0.02425;
inline constexpr double kAcklamPHigh = 1.0 - kAcklamPLow;

// exp/log range-reduction constants (fdlibm ln2 split: kLn2Hi has 27
// trailing zero mantissa bits, so k * kLn2Hi is exact for |k| <= 2^11).
inline constexpr double kInvLn2 = 1.4426950408889634074;
inline constexpr double kExpShifter = 6755399441055744.0;  // 1.5 * 2^52
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
inline constexpr double kSqrt2 = 1.4142135623730951;
inline constexpr double kOneMinusUlp = 0x1.fffffffffffffp-1;
inline constexpr double kMinDenormal = 0x1p-1074;

template <class P>
struct Dag {
  using F = typename P::F;
  using I = typename P::I;
  using M = typename P::M;

  /// Estrin segment [Lo, Lo + Len) of a polynomial, ascending degree.
  /// `xp[k]` holds x^(2^k); `Rev` reads the coefficient of x^i as
  /// c[N-1-i] (the Acklam highest-degree-first layout).  The split point
  /// is always a power of two, so the association tree is FIXED and every
  /// dispatch level rounds identically.  Estrin instead of Horner because
  /// the quantile graph is latency-bound: a degree-14 Horner chain is 14
  /// serial mul+add pairs, the Estrin tree is 4 levels deep.
  template <bool Rev, std::size_t Lo, std::size_t Len, std::size_t N,
            std::size_t NP>
  SWAPGAME_DAG_INLINE static F estrin_seg(const double (&c)[N],
                                          const F (&xp)[NP]) noexcept {
    constexpr auto coeff = [](const double(&cc)[N], std::size_t i) {
      return Rev ? cc[N - 1 - i] : cc[i];
    };
    if constexpr (Len == 1) {
      return P::fbroad(coeff(c, Lo));
    } else if constexpr (Len == 2) {
      return P::fadd(P::fbroad(coeff(c, Lo)),
                     P::fmul(xp[0], P::fbroad(coeff(c, Lo + 1))));
    } else {
      constexpr std::size_t H = std::bit_floor(Len - 1);
      constexpr std::size_t K = static_cast<std::size_t>(std::countr_zero(H));
      return P::fadd(estrin_seg<Rev, Lo, H>(c, xp),
                     P::fmul(xp[K], estrin_seg<Rev, Lo + H, Len - H>(c, xp)));
    }
  }

  template <bool Rev, std::size_t N>
  SWAPGAME_DAG_INLINE static F poly_estrin(const double (&c)[N], F x) noexcept {
    if constexpr (N == 1) {
      return P::fbroad(Rev ? c[N - 1] : c[0]);
    } else {
      constexpr std::size_t NP = std::bit_width(std::bit_floor(N - 1));
      F xp[NP];
      xp[0] = x;
      for (std::size_t k = 1; k < NP; ++k) {
        xp[k] = P::fmul(xp[k - 1], xp[k - 1]);
      }
      return estrin_seg<Rev, 0, N>(c, xp);
    }
  }

  /// Polynomial over a lowest-degree-first coefficient array.
  template <std::size_t N>
  SWAPGAME_DAG_INLINE static F poly_lo(const double (&c)[N], F x) noexcept {
    return poly_estrin<false>(c, x);
  }

  /// Polynomial over a highest-degree-first coefficient array (Acklam
  /// layout).
  template <std::size_t N>
  SWAPGAME_DAG_INLINE static F poly_hi(const double (&c)[N], F x) noexcept {
    return poly_estrin<true>(c, x);
  }

  template <int K>
  static I irotl(I v) noexcept {
    return P::ior(P::template ishl<K>(v), P::template ishr<64 - K>(v));
  }

  /// One xoshiro256++ step per lane over the four state words.
  SWAPGAME_DAG_INLINE static I xoshiro_next(I& s0, I& s1, I& s2, I& s3) noexcept {
    const I result = P::iadd(irotl<23>(P::iadd(s0, s3)), s0);
    const I t = P::template ishl<17>(s1);
    s2 = P::ixor(s2, s0);
    s3 = P::ixor(s3, s1);
    s1 = P::ixor(s1, s2);
    s0 = P::ixor(s0, s3);
    s2 = P::ixor(s2, t);
    s3 = irotl<45>(s3);
    return result;
  }

  /// Raw 64-bit word -> uniform strictly inside (0, 1): the +0.5 shift
  /// avoids 0, the min clamp repairs the one tie-to-even case
  /// ((2^53 - 1 + 0.5) * 2^-53 rounds UP to exactly 1.0) that would
  /// otherwise leak +inf out of the quantile.
  SWAPGAME_DAG_INLINE static F uniform_from_word(I w) noexcept {
    const F d = P::u53_to_f64(P::template ishr<11>(w));
    const F u = P::fmul(P::fadd(d, P::fbroad(0.5)), P::fbroad(0x1.0p-53));
    return P::fmin(u, P::fbroad(kOneMinusUlp));
  }

  /// exp(x) for finite x; inputs are clamped to the double range so
  /// discarded lanes can hold any finite garbage.
  SWAPGAME_DAG_INLINE static F det_exp(F x) noexcept {
    x = P::fmax(x, P::fbroad(-745.0));
    x = P::fmin(x, P::fbroad(709.7));
    // k = round(x / ln2) via the 1.5*2^52 shifter; the low 32 bits of the
    // shifted double's bit pattern hold k in two's complement.
    const F t = P::fadd(P::fmul(x, P::fbroad(kInvLn2)),
                        P::fbroad(kExpShifter));
    const I ki = P::sext32(P::f2i(t));
    const F kd = P::fsub(t, P::fbroad(kExpShifter));
    F r = P::fsub(x, P::fmul(kd, P::fbroad(kLn2Hi)));
    r = P::fsub(r, P::fmul(kd, P::fbroad(kLn2Lo)));
    const F p = poly_lo(kExpTaylor, r);
    // Two-step 2^k scaling: k in [-1075, 1024] exceeds the normal
    // exponent range on both sides, so split k = k1 + k2 with
    // k1 = floor(k / 2) (computed shift-only: AVX2 lacks a 64-bit
    // arithmetic right shift).
    const I k1 = P::isub(P::template ishr<1>(P::iadd(ki, P::ibroad(2048))),
                         P::ibroad(1024));
    const I k2 = P::isub(ki, k1);
    const F s1 =
        P::i2f(P::template ishl<52>(P::iadd(k1, P::ibroad(1023))));
    const F s2 =
        P::i2f(P::template ishl<52>(P::iadd(k2, P::ibroad(1023))));
    return P::fmul(P::fmul(p, s1), s2);
  }

  /// ln(x) for x in [2^-1074, 2): exact mantissa/exponent split, sqrt(2)
  /// normalization, atanh series in (m-1)/(m+1).
  SWAPGAME_DAG_INLINE static F det_log(F x) noexcept {
    // Subnormal rescue: scale by 2^54 and repay in the exponent.
    const M sub = P::flt(x, P::fbroad(0x1p-1022));
    const F xs = P::fblend(sub, P::fmul(x, P::fbroad(0x1p54)), x);
    const F eadj = P::fblend(sub, P::fbroad(-54.0), P::fbroad(0.0));
    const I bits = P::f2i(xs);
    const I ebits = P::template ishr<52>(bits);
    F e = P::small_i64_to_f64(P::isub(ebits, P::ibroad(1023)));
    const I mant =
        P::ior(P::iand(bits, P::ibroad(0x000FFFFFFFFFFFFFULL)),
               P::ibroad(0x3FF0000000000000ULL));
    F m = P::i2f(mant);  // in [1, 2)
    // Normalize to [sqrt2/2, sqrt2) so s is small and m - 1 is exact.
    const M big = P::fge(m, P::fbroad(kSqrt2));
    m = P::fblend(big, P::fmul(m, P::fbroad(0.5)), m);
    e = P::fadd(e, P::fblend(big, P::fbroad(1.0), P::fbroad(0.0)));
    e = P::fadd(e, eadj);
    const F f = P::fsub(m, P::fbroad(1.0));  // exact (Sterbenz)
    const F s = P::fdiv(f, P::fadd(m, P::fbroad(1.0)));
    const F z = P::fmul(s, s);
    const F q = poly_lo(kLogAtanh, z);
    const F lm = P::fadd(s, P::fmul(P::fmul(s, z), q));  // atanh(s)
    return P::fadd(P::fmul(e, P::fbroad(kLn2Hi)),
                   P::fadd(P::fadd(lm, lm), P::fmul(e, P::fbroad(kLn2Lo))));
  }

  /// erfc(ax) for ax >= 0, given e = exp(-ax^2) (the caller may share a
  /// few-ulp-perturbed exponential, e.g. exp(-z^2/2) for ax = -z/sqrt2;
  /// erfc's relative sensitivity to that argument noise is far below the
  /// kernel's own 2.2e-13 bound).  tools/gen_det_coeffs.py documents the
  /// kernel structure and verified error bounds.
  SWAPGAME_DAG_INLINE static F erfc_nonneg(F ax, F e) noexcept {
    // Branch A (ax < 1): 1 - ax * P(ax^2); clamp the poly argument so
    // branch-B lanes evaluate harmlessly.
    const F t = P::fmin(P::fmul(ax, ax), P::fbroad(1.0));
    const F pa =
        P::fsub(P::fbroad(1.0), P::fmul(ax, poly_lo(kErfPoly, t)));
    // Branch B (ax >= 1): e * s * R(s), s = 1/ax; the max keeps branch-A
    // lanes from dividing by values near zero.
    const F s = P::fdiv(P::fbroad(1.0), P::fmax(ax, P::fbroad(1.0)));
    const F r = P::fblend(P::fgt(s, P::fbroad(kErfcSplit)),
                          poly_lo(kErfcR1, s), poly_lo(kErfcR2, s));
    const F pb = P::fmul(P::fmul(e, s), r);
    return P::fblend(P::flt(ax, P::fbroad(1.0)), pa, pb);
  }

  /// erfc(x) for finite x.
  SWAPGAME_DAG_INLINE static F det_erfc(F x) noexcept {
    const F ax = P::fabs_(x);
    const F pos = erfc_nonneg(ax, det_exp(P::fneg(P::fmul(ax, ax))));
    return P::fblend(P::flt(x, P::fbroad(0.0)),
                     P::fsub(P::fbroad(2.0), pos), pos);
  }

  /// Phi^-1(u) with the scalar normal_quantile contract: -inf at 0, +inf
  /// at 1, NaN outside [0, 1] or on NaN.  The input is FOLDED onto
  /// (0, 1/2] by the exact reflection u -> 1 - u (Sterbenz: exact for
  /// u >= 1/2), the central Acklam branch is evaluated on the full pack
  /// and the tail branch on every pack that holds a tail lane, the two are
  /// mask-blended, one Halley step off det_erfc/det_exp polishes every
  /// lane, and the sign is unfolded last.  Refining on the folded side is
  /// what keeps the UPPER tail accurate: at z <= 0 the residual
  /// Phi(z) - u is a difference of two SMALL numbers with full relative
  /// precision, whereas near u = 1 it would drown in the ulp of 1 and
  /// leave the upper tail at Acklam's raw 1.15e-9.  Folding also makes
  /// the antithetic mirror exact: quantile(1-u) is bitwise -quantile(u).
  SWAPGAME_DAG_INLINE static F quantile(F u) noexcept {
    const M valid =
        P::mand(P::fge(u, P::fbroad(0.0)), P::fle(u, P::fbroad(1.0)));
    const M is0 = P::feq(u, P::fbroad(0.0));
    const M is1 = P::feq(u, P::fbroad(1.0));
    // Clamp into (0, 1) so every lane computes finite intermediates; the
    // boundary/invalid lanes are overridden by the final blends.
    F uc = P::fmax(u, P::fbroad(kMinDenormal));
    uc = P::fmin(uc, P::fbroad(kOneMinusUlp));
    // Fold the upper half down: uf in (0, 1/2], z(uc) = -z(uf) there.
    const M hi = P::fgt(uc, P::fbroad(0.5));
    const F uf = P::fblend(hi, P::fsub(P::fbroad(1.0), uc), uc);

    // Tail (uf < p_low): q = sqrt(-2 ln uf), z = C(q)/D(q).  Central:
    // rational in r = (uf - 1/2)^2; q <= 0, so z <= 0 on both branches.
    // Numerator and denominator are blended BEFORE a single shared
    // division (per lane the quotient of the selected branch either way;
    // the second divide was pure latency).  The tail branch (det_log,
    // sqrt, the C/D polynomials) runs only for a pack that holds a tail
    // lane (2 * p_low = 4.85% of uniforms): a blend with an all-false mask
    // keeps the central values, so skipping it changes no lane.
    const M tail = P::flt(uf, P::fbroad(kAcklamPLow));
    const F q = P::fsub(uf, P::fbroad(0.5));
    const F r = P::fmul(q, q);
    F num = P::fmul(poly_hi(kAcklamA, r), q);
    F den = P::fadd(P::fmul(poly_hi(kAcklamB, r), r), P::fbroad(1.0));
    if (P::mbits(tail) != 0) {
      const F ql = P::fsqrt(P::fmul(P::fbroad(-2.0), det_log(uf)));
      num = P::fblend(tail, poly_hi(kAcklamC, ql), num);
      den = P::fblend(
          tail, P::fadd(P::fmul(poly_hi(kAcklamD, ql), ql), P::fbroad(1.0)),
          den);
    }
    F z = P::fdiv(num, den);

    // One Halley refinement of Phi(z) - uf = 0 at z <= 0, where
    // 0.5 * erfc(-z / sqrt(2)) is small and fully precise.  The
    // exponential is computed once and shared between the erfc tail
    // branch (exp(-ax^2), ax = -z/sqrt2) and the pdf.
    const F ehalf =
        det_exp(P::fmul(P::fbroad(-0.5), P::fmul(z, z)));
    const F cdf = P::fmul(
        P::fbroad(0.5),
        erfc_nonneg(P::fmul(P::fneg(z), P::fbroad(kInvSqrt2)), ehalf));
    // At u near the minimum denormal the two-step exp scaling can round
    // the pdf to +0; pin it to the smallest denormal so err/pdf stays
    // finite (the Halley step is a no-op there anyway).
    const F pdf = P::fmax(P::fmul(P::fbroad(kInvSqrt2Pi), ehalf),
                          P::fbroad(kMinDenormal));
    // Fused Halley update: z - v/(1 + z v / 2) with v = err/pdf, rewritten
    // with one division as z - err/(pdf + z err / 2).
    const F err = P::fsub(cdf, uf);
    z = P::fsub(z, P::fdiv(err, P::fadd(pdf, P::fmul(P::fmul(P::fbroad(0.5),
                                                             z),
                                                     err))));
    // Unfold the reflection.
    z = P::fblend(hi, P::fneg(z), z);

    z = P::fblend(is0,
                  P::fbroad(-std::numeric_limits<double>::infinity()), z);
    z = P::fblend(is1,
                  P::fbroad(std::numeric_limits<double>::infinity()), z);
    return P::fblend(valid, z,
                     P::fbroad(std::numeric_limits<double>::quiet_NaN()));
  }
};

// --------------------------------------------------------------------------
// The four dispatchable kernels (KernelTable entries).  Each is a straight
// loop over packs; tails are evaluated on padded temporaries so every lane
// of every pack runs the identical graph.

template <class P>
void fill_uniform01_t(Xoshiro256& rng, double* out, std::size_t n) {
  if (n == 0) return;
  using I = typename P::I;
  constexpr std::size_t W = P::kWidth;
  static_assert(kFillLanes % W == 0);
  constexpr std::size_t G = kFillLanes / W;

  // Derive the kFillLanes generator lanes: lane j is the caller's state
  // advanced by j jump()s (2^128 steps), far outside any chunk stream.
  std::uint64_t s[4][kFillLanes];
  {
    Xoshiro256 lane = rng;
    for (std::size_t j = 0; j < kFillLanes; ++j) {
      const std::array<std::uint64_t, 4>& st = lane.state();
      for (std::size_t w = 0; w < 4; ++w) s[w][j] = st[w];
      if (j + 1 < kFillLanes) lane.jump();
    }
  }
  I s0[G], s1[G], s2[G], s3[G];
  for (std::size_t g = 0; g < G; ++g) {
    s0[g] = P::iload(&s[0][g * W]);
    s1[g] = P::iload(&s[1][g * W]);
    s2[g] = P::iload(&s[2][g * W]);
    s3[g] = P::iload(&s[3][g * W]);
  }

  const std::size_t groups = n / kFillLanes;
  for (std::size_t qi = 0; qi < groups; ++qi) {
    for (std::size_t g = 0; g < G; ++g) {
      const I w = Dag<P>::xoshiro_next(s0[g], s1[g], s2[g], s3[g]);
      P::fstore(out + qi * kFillLanes + g * W,
                Dag<P>::uniform_from_word(w));
    }
  }
  const std::size_t rem = n - groups * kFillLanes;
  if (rem != 0) {
    // Tail: step ALL lanes once (unconsumed draws are discarded) so the
    // final state depends only on ceil(n / kFillLanes).
    double tmp[kFillLanes];
    for (std::size_t g = 0; g < G; ++g) {
      const I w = Dag<P>::xoshiro_next(s0[g], s1[g], s2[g], s3[g]);
      P::fstore(tmp + g * W, Dag<P>::uniform_from_word(w));
    }
    for (std::size_t j = 0; j < rem; ++j) out[groups * kFillLanes + j] = tmp[j];
  }
  // The caller's generator continues as lane 0: its state advanced by
  // ceil(n / kFillLanes) plain steps.
  P::istore(&s[0][0], s0[0]);
  P::istore(&s[1][0], s1[0]);
  P::istore(&s[2][0], s2[0]);
  P::istore(&s[3][0], s3[0]);
  rng.set_state({s[0][0], s[1][0], s[2][0], s[3][0]});
}

template <class P>
void normal_quantile_transform_t(double* buf, std::size_t n) {
  constexpr std::size_t W = P::kWidth;
  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    P::fstore(buf + i, Dag<P>::quantile(P::fload(buf + i)));
  }
  if (i < n) {
    double tmp[W];
    for (std::size_t j = 0; j < W; ++j) tmp[j] = j < n - i ? buf[i + j] : 0.5;
    P::fstore(tmp, Dag<P>::quantile(P::fload(tmp)));
    for (std::size_t j = 0; j < n - i; ++j) buf[i + j] = tmp[j];
  }
}

template <class P>
ZEvalCounts zkernel_eval_t(const ZKernelPod& k, const double* z2,
                           const double* z3, double sign, double* y,
                           double* x, std::size_t n) {
  using F = typename P::F;
  using M = typename P::M;
  constexpr std::size_t W = P::kWidth;
  const F sgn = P::fbroad(sign);
  const F one = P::fbroad(1.0);
  const F zero = P::fbroad(0.0);
  const F c0 = P::fbroad(k.c0);
  const F c1 = P::fbroad(k.c1);
  std::size_t locked = 0;
  std::size_t revealed = 0;

  const auto eval = [&](F a2, F a3, F& yv,
                        F& xv) -> std::pair<unsigned, unsigned> {
    a2 = P::fmul(a2, sgn);
    a3 = P::fmul(a3, sgn);
    M inr = P::mfalse();
    for (std::size_t r = 0; r < k.region_count; ++r) {
      inr = P::mor(inr, P::mand(P::fge(a2, P::fbroad(k.regions[r].lo)),
                                P::flt(a2, P::fbroad(k.regions[r].hi))));
    }
    const F thr = P::fadd(c0, P::fmul(c1, a2));
    const M succ =
        k.always_reveal ? inr : P::mand(inr, P::fgt(a3, thr));
    xv = P::fblend(inr, one, zero);
    if (k.smooth) {
      if (k.always_reveal) {
        yv = xv;  // P[reveal | z2] = 1 on every locked lane
      } else {
        const F pr = P::fmul(
            P::fbroad(0.5),
            Dag<P>::det_erfc(P::fmul(thr, P::fbroad(kInvSqrt2))));
        yv = P::fblend(inr, pr, zero);
      }
    } else {
      yv = P::fblend(succ, one, zero);
    }
    return {P::mbits(inr), P::mbits(succ)};
  };

  std::size_t i = 0;
  for (; i + W <= n; i += W) {
    F yv, xv;
    const auto [lb, sb] = eval(P::fload(z2 + i), P::fload(z3 + i), yv, xv);
    locked += std::popcount(lb);
    revealed += std::popcount(sb);
    P::fstore(y + i, yv);
    P::fstore(x + i, xv);
  }
  if (i < n) {
    const unsigned rem = static_cast<unsigned>(n - i);
    double t2[W] = {};
    double t3[W] = {};
    double ty[W];
    double tx[W];
    for (unsigned j = 0; j < rem; ++j) {
      t2[j] = z2[i + j];
      t3[j] = z3[i + j];
    }
    F yv, xv;
    const auto [lb, sb] = eval(P::fload(t2), P::fload(t3), yv, xv);
    const unsigned live = (1u << rem) - 1u;
    locked += std::popcount(lb & live);
    revealed += std::popcount(sb & live);
    P::fstore(ty, yv);
    P::fstore(tx, xv);
    for (unsigned j = 0; j < rem; ++j) {
      y[i + j] = ty[j];
      x[i + j] = tx[j];
    }
  }
  return {locked, revealed};
}

template <class P>
void welford_block_t(const double* y, const double* x, std::size_t n,
                     WelfordLanes& lanes) {
  using F = typename P::F;
  constexpr std::size_t W = P::kWidth;
  constexpr std::size_t G = 8 / W;
  F vn[G], vmy[G], vmx[G], vm2y[G], vm2x[G], vcxy[G];
  for (std::size_t g = 0; g < G; ++g) {
    vn[g] = P::fload(lanes.n + g * W);
    vmy[g] = P::fload(lanes.mean_y + g * W);
    vmx[g] = P::fload(lanes.mean_x + g * W);
    vm2y[g] = P::fload(lanes.m2y + g * W);
    vm2x[g] = P::fload(lanes.m2x + g * W);
    vcxy[g] = P::fload(lanes.cxy + g * W);
  }
  const F one = P::fbroad(1.0);
  const std::size_t groups = n / 8;
  // Same update order as ControlVariateAccumulator::add: deltas off the
  // OLD means, M2/cross terms off the NEW means.
  for (std::size_t qi = 0; qi < groups; ++qi) {
    for (std::size_t g = 0; g < G; ++g) {
      const F yv = P::fload(y + qi * 8 + g * W);
      const F xv = P::fload(x + qi * 8 + g * W);
      vn[g] = P::fadd(vn[g], one);
      const F dy = P::fsub(yv, vmy[g]);
      const F dx = P::fsub(xv, vmx[g]);
      vmy[g] = P::fadd(vmy[g], P::fdiv(dy, vn[g]));
      vmx[g] = P::fadd(vmx[g], P::fdiv(dx, vn[g]));
      vm2y[g] = P::fadd(vm2y[g], P::fmul(dy, P::fsub(yv, vmy[g])));
      vm2x[g] = P::fadd(vm2x[g], P::fmul(dx, P::fsub(xv, vmx[g])));
      vcxy[g] = P::fadd(vcxy[g], P::fmul(dx, P::fsub(yv, vmy[g])));
    }
  }
  for (std::size_t g = 0; g < G; ++g) {
    P::fstore(lanes.n + g * W, vn[g]);
    P::fstore(lanes.mean_y + g * W, vmy[g]);
    P::fstore(lanes.mean_x + g * W, vmx[g]);
    P::fstore(lanes.m2y + g * W, vm2y[g]);
    P::fstore(lanes.m2x + g * W, vm2x[g]);
    P::fstore(lanes.cxy + g * W, vcxy[g]);
  }
  // Ragged tail: scalar per-lane updates with the identical operation
  // sequence (plain double ops round exactly like their pack versions).
  for (std::size_t j = 0; j < n - groups * 8; ++j) {
    const double yv = y[groups * 8 + j];
    const double xv = x[groups * 8 + j];
    lanes.n[j] += 1.0;
    const double dy = yv - lanes.mean_y[j];
    const double dx = xv - lanes.mean_x[j];
    lanes.mean_y[j] += dy / lanes.n[j];
    lanes.mean_x[j] += dx / lanes.n[j];
    lanes.m2y[j] += dy * (yv - lanes.mean_y[j]);
    lanes.m2x[j] += dx * (xv - lanes.mean_x[j]);
    lanes.cxy[j] += dx * (yv - lanes.mean_y[j]);
  }
}

}  // namespace swapgame::math::simd
