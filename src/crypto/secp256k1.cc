#include "crypto/secp256k1.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "crypto/ec_backend.h"

namespace wedge {
namespace secp256k1 {

namespace {

using uint128 = unsigned __int128;

// p = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE FFFFFC2F
constexpr U256 kP(0xFFFFFFFEFFFFFC2FULL, 0xFFFFFFFFFFFFFFFFULL,
                  0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL);
// 2^256 - p = 2^32 + 977 = 0x1000003D1.
constexpr U256 kCp(0x00000001000003D1ULL, 0, 0, 0);
// n = FFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE BAAEDCE6 AF48A03B BFD25E8C D0364141
constexpr U256 kN(0xBFD25E8CD0364141ULL, 0xBAAEDCE6AF48A03BULL,
                  0xFFFFFFFFFFFFFFFEULL, 0xFFFFFFFFFFFFFFFFULL);
// 2^256 - n = 0x14551231950B75FC4402DA1732FC9BEBF.
constexpr U256 kCn(0x402DA1732FC9BEBFULL, 0x4551231950B75FC4ULL, 0x1ULL, 0);

constexpr U256 kGx(0x59F2815B16F81798ULL, 0x029BFCDB2DCE28D9ULL,
                   0x55A06295CE870B07ULL, 0x79BE667EF9DCBBACULL);
constexpr U256 kGy(0x9C47D08FFB10D4B8ULL, 0xFD17B448A6855419ULL,
                   0x5DA4FBFC0E1108A8ULL, 0x483ADA7726A3C465ULL);

constexpr U256 kCurveB(7);

// --- GLV endomorphism constants ---
// lambda^3 = 1 (mod n); phi(x, y) = (beta*x, y) satisfies phi(P) =
// lambda*P for every curve point. The lattice constants below implement
// the decomposition k = k1 + k2*lambda with |k1|, |k2| < ~2^128
// (Guide to ECC alg. 3.74; same values as libsecp256k1).
constexpr U256 kLambda(0xDF02967C1B23BD72ULL, 0x122E22EA20816678ULL,
                       0xA5261C028812645AULL, 0x5363AD4CC05C30E0ULL);
constexpr U256 kBeta(0xC1396C28719501EEULL, 0x9CF0497512F58995ULL,
                     0x6E64479EAC3434E9ULL, 0x7AE96A2B657C0710ULL);
// -b1 and -b2 (mod n) of the reduced lattice basis.
constexpr U256 kMinusB1(0x6F547FA90ABFE4C3ULL, 0xE4437ED6010E8828ULL, 0, 0);
constexpr U256 kMinusB2(0xD765CDA83DB1562CULL, 0x8A280AC50774346DULL,
                        0xFFFFFFFFFFFFFFFEULL, 0xFFFFFFFFFFFFFFFFULL);
// g1 = round(2^384 * b2 / n), g2 = round(2^384 * (-b1) / n): the
// precomputed rounding divisors for the basis projection.
constexpr U256 kG1(0xE893209A45DBB031ULL, 0x3DAA8A1471E8CA7FULL,
                   0xE86C90E49284EB15ULL, 0x3086D221A7D46BCDULL);
constexpr U256 kG2(0x1571B4AE8AC47F71ULL, 0x221208AC9DF506C6ULL,
                   0x6F547FA90ABFE4C4ULL, 0xE4437ED6010E8828ULL);
// Bound on a split half's magnitude, with margin over the true ~2^128:
// a residue longer than this is a negative component.
constexpr int kGlvMaxBits = 132;

[[noreturn]] void DieZeroInverse(const char* fn) {
  std::fprintf(stderr,
               "wedge/secp256k1: %s called on zero input (no inverse "
               "exists); this is a caller bug, aborting\n",
               fn);
  std::abort();
}

// --- Field layer: 5x52-bit limbs with lazy reduction ---
// An element is n[0] + n[1]*2^52 + n[2]*2^104 + n[3]*2^156 + n[4]*2^208
// (libsecp256k1's field_5x52 discipline). Its value need not be below p;
// a magnitude M bounds the limbs instead: n[0..3] <= 2M(2^52 - 1) and
// n[4] <= 2M(2^48 - 1). The type Fe<M> carries that bound, so the
// compiler checks every formula below against the kernels' limits:
//   - Add and MulInt work limb by limb; magnitudes add or scale.
//   - Neg(a) is 2(M+1)p - a, limb by limb: magnitude M+1.
//   - Half adds p to an odd value and shifts: magnitude M/2 + 1.
//   - Mul and Sqr take magnitudes up to kMaxMagnitude and return
//     magnitude 1 (limbs 0-3 below 2^52, the value maybe >= p).
// Products accumulate in unsigned __int128 with no carry chain; a column
// of weight 2^(52(k+5)) folds into column k times R = 2^260 mod p. A
// value is normalized (fully reduced) only before a comparison, a parity
// test or an encoding.

using Limbs = std::array<uint64_t, 5>;

constexpr uint64_t kM52 = 0xFFFFFFFFFFFFFULL;  // 2^52 - 1
constexpr uint64_t kM48 = 0x0FFFFFFFFFFFFULL;  // 2^48 - 1
// Limb 0 of p; limbs 1-3 are kM52 and limb 4 is kM48.
constexpr uint64_t kP0 = 0xFFFFEFFFFFC2FULL;
// 2^256 mod p, and R = 2^260 mod p.
constexpr uint64_t kFoldC = 0x1000003D1ULL;
constexpr uint64_t kFoldR = 0x1000003D10ULL;

// The largest magnitude a multiply, a square or a normalization accepts:
// 2M(2^52 - 1) < 2^56 per limb keeps every column sum of Mul below 2^115.
constexpr int kMaxMagnitude = 8;

inline Limbs MulLimbs(const Limbs& a, const Limbs& b) {
  const uint64_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
  // pk below is column k of the product: the sum of a[i]*b[k-i].
  Limbs r;
  uint128 d = static_cast<uint128>(a0) * b[3] +
              static_cast<uint128>(a1) * b[2] +
              static_cast<uint128>(a2) * b[1] + static_cast<uint128>(a3) * b[0];
  uint128 c = static_cast<uint128>(a4) * b[4];  // p8, folds into columns 3-4.
  d += static_cast<uint128>(static_cast<uint64_t>(c) & kM52) * kFoldR;
  c >>= 52;
  const uint64_t t3 = static_cast<uint64_t>(d) & kM52;
  d >>= 52;
  d += static_cast<uint128>(a0) * b[4] + static_cast<uint128>(a1) * b[3] +
       static_cast<uint128>(a2) * b[2] + static_cast<uint128>(a3) * b[1] +
       static_cast<uint128>(a4) * b[0];
  d += static_cast<uint128>(static_cast<uint64_t>(c)) * kFoldR;
  uint64_t t4 = static_cast<uint64_t>(d) & kM52;
  d >>= 52;
  const uint64_t tx = t4 >> 48;  // Bits 256-259: weight 2^256 == kFoldC.
  t4 &= kM48;
  c = static_cast<uint128>(a0) * b[0];
  d += static_cast<uint128>(a1) * b[4] + static_cast<uint128>(a2) * b[3] +
       static_cast<uint128>(a3) * b[2] + static_cast<uint128>(a4) * b[1];
  // Column 5's low limb has weight 2^260 = 16 * 2^256: merge it with tx.
  const uint64_t u0 = ((static_cast<uint64_t>(d) & kM52) << 4) | tx;
  d >>= 52;
  c += static_cast<uint128>(u0) * kFoldC;
  r[0] = static_cast<uint64_t>(c) & kM52;
  c >>= 52;
  c += static_cast<uint128>(a0) * b[1] + static_cast<uint128>(a1) * b[0];
  d += static_cast<uint128>(a2) * b[4] + static_cast<uint128>(a3) * b[3] +
       static_cast<uint128>(a4) * b[2];
  c += static_cast<uint128>(static_cast<uint64_t>(d) & kM52) * kFoldR;
  d >>= 52;
  r[1] = static_cast<uint64_t>(c) & kM52;
  c >>= 52;
  c += static_cast<uint128>(a0) * b[2] + static_cast<uint128>(a1) * b[1] +
       static_cast<uint128>(a2) * b[0];
  d += static_cast<uint128>(a3) * b[4] + static_cast<uint128>(a4) * b[3];
  c += static_cast<uint128>(static_cast<uint64_t>(d) & kM52) * kFoldR;
  d >>= 52;
  r[2] = static_cast<uint64_t>(c) & kM52;
  c >>= 52;
  c += static_cast<uint128>(static_cast<uint64_t>(d)) * kFoldR + t3;
  r[3] = static_cast<uint64_t>(c) & kM52;
  c >>= 52;
  r[4] = static_cast<uint64_t>(c) + t4;
  return r;
}

/// MulLimbs(a, a) with the symmetric products taken once and doubled.
inline Limbs SqrLimbs(const Limbs& a) {
  uint64_t a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
  Limbs r;
  uint128 d = static_cast<uint128>(a0 * 2) * a3 +
              static_cast<uint128>(a1 * 2) * a2;
  uint128 c = static_cast<uint128>(a4) * a4;
  d += static_cast<uint128>(static_cast<uint64_t>(c) & kM52) * kFoldR;
  c >>= 52;
  const uint64_t t3 = static_cast<uint64_t>(d) & kM52;
  d >>= 52;
  a4 *= 2;
  d += static_cast<uint128>(a0) * a4 + static_cast<uint128>(a1 * 2) * a3 +
       static_cast<uint128>(a2) * a2;
  d += static_cast<uint128>(static_cast<uint64_t>(c)) * kFoldR;
  uint64_t t4 = static_cast<uint64_t>(d) & kM52;
  d >>= 52;
  const uint64_t tx = t4 >> 48;
  t4 &= kM48;
  c = static_cast<uint128>(a0) * a0;
  d += static_cast<uint128>(a1) * a4 + static_cast<uint128>(a2 * 2) * a3;
  const uint64_t u0 = ((static_cast<uint64_t>(d) & kM52) << 4) | tx;
  d >>= 52;
  c += static_cast<uint128>(u0) * kFoldC;
  r[0] = static_cast<uint64_t>(c) & kM52;
  c >>= 52;
  a0 *= 2;
  c += static_cast<uint128>(a0) * a1;
  d += static_cast<uint128>(a2) * a4 + static_cast<uint128>(a3) * a3;
  c += static_cast<uint128>(static_cast<uint64_t>(d) & kM52) * kFoldR;
  d >>= 52;
  r[1] = static_cast<uint64_t>(c) & kM52;
  c >>= 52;
  c += static_cast<uint128>(a0) * a2 + static_cast<uint128>(a1) * a1;
  d += static_cast<uint128>(a3) * a4;
  c += static_cast<uint128>(static_cast<uint64_t>(d) & kM52) * kFoldR;
  d >>= 52;
  r[2] = static_cast<uint64_t>(c) & kM52;
  c >>= 52;
  c += static_cast<uint128>(static_cast<uint64_t>(d)) * kFoldR + t3;
  r[3] = static_cast<uint64_t>(c) & kM52;
  c >>= 52;
  r[4] = static_cast<uint64_t>(c) + t4;
  return r;
}

/// The canonical limbs of a's value mod p.
inline Limbs NormalizeLimbs(const Limbs& a) {
  uint64_t t0 = a[0], t1 = a[1], t2 = a[2], t3 = a[3], t4 = a[4];
  // Fold the bits above 2^256 in first, so one carry pass leaves a value
  // below 2p.
  uint64_t x = t4 >> 48;
  t4 &= kM48;
  t0 += x * kFoldC;
  t1 += t0 >> 52;
  t0 &= kM52;
  t2 += t1 >> 52;
  t1 &= kM52;
  t3 += t2 >> 52;
  t2 &= kM52;
  t4 += t3 >> 52;
  t3 &= kM52;
  // Subtract p once if the value reached 2^256 (bit 48 of t4) or is >= p.
  const bool ge_p = t4 == kM48 && (t1 & t2 & t3) == kM52 && t0 >= kP0;
  x = (t4 >> 48) | (ge_p ? 1 : 0);
  t0 += x * kFoldC;
  t1 += t0 >> 52;
  t0 &= kM52;
  t2 += t1 >> 52;
  t1 &= kM52;
  t3 += t2 >> 52;
  t2 &= kM52;
  t4 += t3 >> 52;
  t3 &= kM52;
  t4 &= kM48;  // Drops the 2^256 that adding 2^256 - p carried in.
  return {t0, t1, t2, t3, t4};
}

/// Whether a's value is 0 mod p: after one carry pass the value is below
/// 2p, so it is 0 mod p exactly when its limbs are all zero or spell p.
inline bool NormalizesToZero(const Limbs& a) {
  uint64_t t0 = a[0], t1 = a[1], t2 = a[2], t3 = a[3], t4 = a[4];
  const uint64_t x = t4 >> 48;
  t4 &= kM48;
  t0 += x * kFoldC;
  t1 += t0 >> 52;
  t0 &= kM52;
  t2 += t1 >> 52;
  t1 &= kM52;
  t3 += t2 >> 52;
  t2 &= kM52;
  t4 += t3 >> 52;
  t3 &= kM52;
  // z0 is zero for a raw 0; z1 is all ones for a raw p.
  const uint64_t z0 = t0 | t1 | t2 | t3 | t4;
  const uint64_t z1 =
      (t0 ^ 0x1000003D0ULL) & t1 & t2 & t3 & (t4 ^ 0xF000000000000ULL);
  return z0 == 0 || z1 == kM52;
}

/// 2(m+1)p - a for a of magnitude m: a negation of magnitude m + 1.
inline Limbs NegLimbs(const Limbs& a, uint64_t m) {
  const uint64_t k = 2 * (m + 1);
  return {kP0 * k - a[0], kM52 * k - a[1], kM52 * k - a[2], kM52 * k - a[3],
          kM48 * k - a[4]};
}

/// a/2 mod p: an odd raw value gets p added first (limb by limb), then
/// every limb shifts right with its neighbour's low bit carried down.
inline Limbs HalfLimbs(const Limbs& a) {
  const uint64_t mask = (0 - (a[0] & 1)) >> 12;  // kM52 when a is odd.
  const uint64_t t0 = a[0] + (kP0 & mask), t1 = a[1] + mask,
                 t2 = a[2] + mask, t3 = a[3] + mask, t4 = a[4] + (mask >> 4);
  return {(t0 >> 1) + ((t1 & 1) << 51), (t1 >> 1) + ((t2 & 1) << 51),
          (t2 >> 1) + ((t3 & 1) << 51), (t3 >> 1) + ((t4 & 1) << 51),
          t4 >> 1};
}

/// Packs normalized limbs into four 64-bit limbs.
inline U256 PackLimbs(const Limbs& t) {
  return U256(t[0] | (t[1] << 52), (t[1] >> 12) | (t[2] << 40),
              (t[2] >> 24) | (t[3] << 28), (t[3] >> 36) | (t[4] << 16));
}

/// A field element of magnitude at most M (see above).
template <int M>
struct Fe {
  static_assert(M >= 1 && M <= 4 * kMaxMagnitude, "magnitude out of range");
  Limbs n;

  Fe() = default;
  constexpr explicit Fe(const Limbs& limbs) : n(limbs) {}
  /// A value of a smaller magnitude is also one of magnitude M.
  template <int M2>
    requires(M2 < M)
  constexpr Fe(const Fe<M2>& o) : n(o.n) {}
};

template <int A, int B>
inline Fe<1> Mul(const Fe<A>& a, const Fe<B>& b) {
  static_assert(A <= kMaxMagnitude && B <= kMaxMagnitude);
  return Fe<1>(MulLimbs(a.n, b.n));
}

template <int A>
inline Fe<1> Sqr(const Fe<A>& a) {
  static_assert(A <= kMaxMagnitude);
  return Fe<1>(SqrLimbs(a.n));
}

template <int A, int B>
inline Fe<A + B> Add(const Fe<A>& a, const Fe<B>& b) {
  return Fe<A + B>(Limbs{a.n[0] + b.n[0], a.n[1] + b.n[1], a.n[2] + b.n[2],
                         a.n[3] + b.n[3], a.n[4] + b.n[4]});
}

template <int K, int A>
inline Fe<A * K> MulInt(const Fe<A>& a) {
  return Fe<A * K>(Limbs{a.n[0] * K, a.n[1] * K, a.n[2] * K, a.n[3] * K,
                         a.n[4] * K});
}

template <int A>
inline Fe<A + 1> Neg(const Fe<A>& a) {
  return Fe<A + 1>(NegLimbs(a.n, A));
}

template <int A>
inline Fe<A / 2 + 1> Half(const Fe<A>& a) {
  return Fe<A / 2 + 1>(HalfLimbs(a.n));
}

template <int A>
inline bool IsZero(const Fe<A>& a) {
  static_assert(A <= kMaxMagnitude);
  return NormalizesToZero(a.n);
}

template <int A, int B>
inline bool Equal(const Fe<A>& a, const Fe<B>& b) {
  return IsZero(Add(a, Neg(b)));
}

/// The canonical residue: limbs 0-3 below 2^52, limb 4 below 2^48.
template <int A>
inline Fe<1> Normalize(const Fe<A>& a) {
  static_assert(A <= kMaxMagnitude);
  return Fe<1>(NormalizeLimbs(a.n));
}

/// The canonical residue, in 64-bit limbs.
template <int A>
inline U256 ToU256(const Fe<A>& a) {
  static_assert(A <= kMaxMagnitude);
  return PackLimbs(NormalizeLimbs(a.n));
}

/// Any 256-bit value is a magnitude-1 element (limb 4 is below 2^48).
constexpr Fe<1> ToFe(const U256& v) {
  return Fe<1>(Limbs{v.limb[0] & kM52,
                     (v.limb[0] >> 52) | ((v.limb[1] & 0xFFFFFFFFFFULL) << 12),
                     (v.limb[1] >> 40) | ((v.limb[2] & 0xFFFFFFFULL) << 24),
                     (v.limb[2] >> 28) | ((v.limb[3] & 0xFFFFULL) << 36),
                     v.limb[3] >> 16});
}

constexpr Fe<1> kFeOne = ToFe(U256(1));
constexpr Fe<1> kFeCurveB = ToFe(kCurveB);
constexpr Fe<1> kFeBeta = ToFe(kBeta);

inline Fe<1> SqrN(Fe<1> a, int n) {
  for (int i = 0; i < n; ++i) a = Sqr(a);
  return a;
}

/// a^((p+1)/4), a square root of a when one exists (p = 3 mod 4), by
/// libsecp256k1's addition chain: 253 squarings and 13 multiplications.
/// (p+1)/4 is 223 ones, a zero, 22 ones and then 00001100; xk below is
/// a^(2^k - 1).
Fe<1> SqrtCandidate(const Fe<1>& a) {
  const Fe<1> x2 = Mul(Sqr(a), a);
  const Fe<1> x3 = Mul(Sqr(x2), a);
  const Fe<1> x6 = Mul(SqrN(x3, 3), x3);
  const Fe<1> x9 = Mul(SqrN(x6, 3), x3);
  const Fe<1> x11 = Mul(SqrN(x9, 2), x2);
  const Fe<1> x22 = Mul(SqrN(x11, 11), x11);
  const Fe<1> x44 = Mul(SqrN(x22, 22), x22);
  const Fe<1> x88 = Mul(SqrN(x44, 44), x44);
  const Fe<1> x176 = Mul(SqrN(x88, 88), x88);
  const Fe<1> x220 = Mul(SqrN(x176, 44), x44);
  const Fe<1> x223 = Mul(SqrN(x220, 3), x3);
  Fe<1> t = Mul(SqrN(x223, 23), x22);
  t = Mul(SqrN(t, 6), x2);
  return SqrN(t, 2);
}

// --- Modular inversion: variable-time safegcd ---
// Bernstein-Yang divsteps as in libsecp256k1's modinv64_var. Each round
// runs 62 divsteps on the low limbs of f and g alone, which yields a 2x2
// transition matrix; the matrix then updates the full-width f and g and
// the coefficients d and e, which track f = d*x and g = e*x (mod m).
// When g reaches 0, f is +-1 and d is +-1/x. Values are five signed
// 62-bit limbs. A 256-bit inverse takes ~10 rounds, several times fewer
// multiplications than an exponentiation chain.

struct Signed62 {
  int64_t v[5];
};

struct ModInfo {
  Signed62 modulus;        // In the sparsest signed-62 form.
  uint64_t modulus_inv62;  // modulus^-1 mod 2^62.
};

struct Trans2x2 {
  int64_t u, v, q, r;
};

constexpr uint64_t kM62 = ~0ULL >> 2;
constexpr ModInfo kModP{{{-0x1000003D1LL, 0, 0, 0, 256}},
                        0x27C7F6E22DDACACFULL};
constexpr ModInfo kModN{
    {{0x3FD25E8CD0364141LL, 0x2ABB739ABD2280EELL, -0x15LL, 0, 256}},
    0x34F20099AA774EC1ULL};

Signed62 ToSigned62(const U256& a) {
  const auto& l = a.limb;
  return {{static_cast<int64_t>(l[0] & kM62),
           static_cast<int64_t>(((l[0] >> 62) | (l[1] << 2)) & kM62),
           static_cast<int64_t>(((l[1] >> 60) | (l[2] << 4)) & kM62),
           static_cast<int64_t>(((l[2] >> 58) | (l[3] << 6)) & kM62),
           static_cast<int64_t>(l[3] >> 56)}};
}

/// Requires every limb in [0, 2^62) and the value below 2^256.
U256 FromSigned62(const Signed62& a) {
  const uint64_t v0 = a.v[0], v1 = a.v[1], v2 = a.v[2], v3 = a.v[3],
                 v4 = a.v[4];
  return U256(v0 | (v1 << 62), (v1 >> 2) | (v2 << 60),
              (v2 >> 4) | (v3 << 58), (v3 >> 6) | (v4 << 56));
}

/// 62 divsteps on the low 64 bits of f (odd) and g, skipping runs of
/// zeros in g at once and cancelling up to 6 low bits of g per step.
/// Returns the new eta (= -delta) and the transition matrix, scaled by
/// 2^62: t * [f0, g0] == [f, g] * 2^62 after the steps.
int64_t Divsteps62Var(int64_t eta, uint64_t f0, uint64_t g0, Trans2x2* t) {
  uint64_t u = 1, v = 0, q = 0, r = 1;
  uint64_t f = f0, g = g0;
  int i = 62;
  for (;;) {
    // The sentinel bit stops the count at the steps left.
    const int zeros = __builtin_ctzll(g | (~0ULL << i));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    i -= zeros;
    if (i == 0) break;
    // f and g are odd here.
    uint64_t w;
    int limit;
    if (eta < 0) {
      // Swap: (f, g) becomes (g, -f), and the matrix rows follow.
      eta = -eta;
      uint64_t tmp = f;
      f = g;
      g = 0 - tmp;
      tmp = u;
      u = q;
      q = 0 - tmp;
      tmp = v;
      v = r;
      r = 0 - tmp;
      // Cancel up to 6 bits: no more than i remain to do, and eta + 1
      // before eta's sign flips again.
      limit = std::min(static_cast<int>(eta) + 1, i);
      const uint64_t m = (~0ULL >> (64 - limit)) & 63U;
      w = (f * g * (f * f - 2)) & m;  // -g/f mod 2^6.
    } else {
      limit = std::min(static_cast<int>(eta) + 1, i);
      const uint64_t m = (~0ULL >> (64 - limit)) & 15U;
      w = f + (((f + 1) & 4) << 1);  // 1/f mod 2^4.
      w = (0 - w * g) & m;
    }
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t->u = static_cast<int64_t>(u);
  t->v = static_cast<int64_t>(v);
  t->q = static_cast<int64_t>(q);
  t->r = static_cast<int64_t>(r);
  return eta;
}

/// [d, e] = t * [d, e] / 2^62 (mod m), adding multiples of m first so
/// the division is exact. Keeps d and e in (-2m, m).
void UpdateDe62(Signed62* d, Signed62* e, const Trans2x2& t,
                const ModInfo& mod) {
  using int128 = __int128;
  const int64_t d0 = d->v[0], d1 = d->v[1], d2 = d->v[2], d3 = d->v[3],
                d4 = d->v[4];
  const int64_t e0 = e->v[0], e1 = e->v[1], e2 = e->v[2], e3 = e->v[3],
                e4 = e->v[4];
  const int64_t u = t.u, v = t.v, q = t.q, r = t.r;
  // md, me start as [u, q] if d is negative plus [v, r] if e is.
  const int64_t sd = d4 >> 63, se = e4 >> 63;
  int64_t md = (u & sd) + (v & se);
  int64_t me = (q & sd) + (r & se);
  int128 cd = static_cast<int128>(u) * d0 + static_cast<int128>(v) * e0;
  int128 ce = static_cast<int128>(q) * d0 + static_cast<int128>(r) * e0;
  // Correct md, me so the low 62 bits of t*[d,e] + m*[md,me] are zero.
  md -= (mod.modulus_inv62 * static_cast<uint64_t>(cd) + md) & kM62;
  me -= (mod.modulus_inv62 * static_cast<uint64_t>(ce) + me) & kM62;
  cd += static_cast<int128>(mod.modulus.v[0]) * md;
  ce += static_cast<int128>(mod.modulus.v[0]) * me;
  cd >>= 62;
  ce >>= 62;
  const int64_t ds[4] = {d1, d2, d3, d4};
  const int64_t es[4] = {e1, e2, e3, e4};
  for (int k = 0; k < 4; ++k) {
    cd += static_cast<int128>(u) * ds[k] + static_cast<int128>(v) * es[k];
    ce += static_cast<int128>(q) * ds[k] + static_cast<int128>(r) * es[k];
    if (mod.modulus.v[k + 1] != 0) {  // The moduli are sparse.
      cd += static_cast<int128>(mod.modulus.v[k + 1]) * md;
      ce += static_cast<int128>(mod.modulus.v[k + 1]) * me;
    }
    d->v[k] = static_cast<int64_t>(static_cast<uint64_t>(cd) & kM62);
    e->v[k] = static_cast<int64_t>(static_cast<uint64_t>(ce) & kM62);
    cd >>= 62;
    ce >>= 62;
  }
  d->v[4] = static_cast<int64_t>(cd);
  e->v[4] = static_cast<int64_t>(ce);
}

/// [f, g] = t * [f, g] / 2^62 over their low `len` limbs (exact).
void UpdateFg62Var(int len, Signed62* f, Signed62* g, const Trans2x2& t) {
  using int128 = __int128;
  int128 cf = static_cast<int128>(t.u) * f->v[0] +
              static_cast<int128>(t.v) * g->v[0];
  int128 cg = static_cast<int128>(t.q) * f->v[0] +
              static_cast<int128>(t.r) * g->v[0];
  cf >>= 62;
  cg >>= 62;
  for (int i = 1; i < len; ++i) {
    const int64_t fi = f->v[i], gi = g->v[i];
    cf += static_cast<int128>(t.u) * fi + static_cast<int128>(t.v) * gi;
    cg += static_cast<int128>(t.q) * fi + static_cast<int128>(t.r) * gi;
    f->v[i - 1] = static_cast<int64_t>(static_cast<uint64_t>(cf) & kM62);
    g->v[i - 1] = static_cast<int64_t>(static_cast<uint64_t>(cg) & kM62);
    cf >>= 62;
    cg >>= 62;
  }
  f->v[len - 1] = static_cast<int64_t>(cf);
  g->v[len - 1] = static_cast<int64_t>(cg);
}

/// Brings r from (-2m, m) to [0, m), negating it first when `sign` < 0.
void Normalize62(Signed62* r, int64_t sign, const ModInfo& mod) {
  int64_t* x = r->v;
  auto add_modulus_if_negative = [&] {
    const int64_t cond = x[4] >> 63;
    for (int k = 0; k < 5; ++k) x[k] += mod.modulus.v[k] & cond;
  };
  auto carry = [&] {
    for (int k = 0; k < 4; ++k) {
      x[k + 1] += x[k] >> 62;
      x[k] = static_cast<int64_t>(static_cast<uint64_t>(x[k]) & kM62);
    }
  };
  add_modulus_if_negative();
  const int64_t neg = sign >> 63;
  for (int k = 0; k < 5; ++k) x[k] = (x[k] ^ neg) - neg;
  carry();
  add_modulus_if_negative();
  carry();
}

/// x^-1 mod m for x in [1, m).
U256 ModInvVar(const U256& x, const ModInfo& mod) {
  Signed62 d{{0, 0, 0, 0, 0}};
  Signed62 e{{1, 0, 0, 0, 0}};
  Signed62 f = mod.modulus;
  Signed62 g = ToSigned62(x);
  int len = 5;
  int64_t eta = -1;  // -delta; delta starts at 1.
  for (;;) {
    Trans2x2 t;
    eta = Divsteps62Var(eta, static_cast<uint64_t>(f.v[0]),
                        static_cast<uint64_t>(g.v[0]), &t);
    UpdateDe62(&d, &e, t, mod);
    UpdateFg62Var(len, &f, &g, t);
    if (g.v[0] == 0) {
      int64_t any = 0;
      for (int j = 1; j < len; ++j) any |= g.v[j];
      if (any == 0) break;
    }
    // Drop the top limb once it is only sign in both f and g.
    const int64_t fn = f.v[len - 1], gn = g.v[len - 1];
    if (len > 1 && (fn ^ (fn >> 63)) == 0 && (gn ^ (gn >> 63)) == 0) {
      f.v[len - 2] = static_cast<int64_t>(static_cast<uint64_t>(f.v[len - 2]) |
                                          (static_cast<uint64_t>(fn) << 62));
      g.v[len - 2] = static_cast<int64_t>(static_cast<uint64_t>(g.v[len - 2]) |
                                          (static_cast<uint64_t>(gn) << 62));
      --len;
    }
  }
  // g == 0, so f == +-gcd(m, x) == +-1, and d == f/x.
  Normalize62(&d, f.v[len - 1], mod);
  return FromSigned62(d);
}

/// a^-1 for a != 0 mod p.
Fe<1> Inv(const Fe<1>& a) { return ToFe(ModInvVar(ToU256(a), kModP)); }

/// Montgomery's simultaneous-inversion trick in place: one inversion
/// plus three multiplications per element. No element may be zero.
template <typename T, typename MulFn, typename InvFn>
void InvManyInPlace(T* xs, size_t n, MulFn mul, InvFn inv_fn) {
  if (n == 0) return;
  std::vector<T> prefix(n);
  prefix[0] = xs[0];
  for (size_t i = 1; i < n; ++i) prefix[i] = mul(prefix[i - 1], xs[i]);
  T inv = inv_fn(prefix[n - 1]);
  for (size_t i = n; i-- > 1;) {
    const T x = xs[i];
    xs[i] = mul(inv, prefix[i - 1]);
    inv = mul(inv, x);
  }
  xs[0] = inv;
}

void InvMany(Fe<1>* zs, size_t n) {
  InvManyInPlace(
      zs, n, [](const Fe<1>& a, const Fe<1>& b) { return Mul(a, b); }, Inv);
}

// --- Scalars mod n: 4x64-bit limbs ---

/// 192-bit accumulator for the column-wise (product-scanning) loops.
struct Acc192 {
  uint64_t c0 = 0;
  uint64_t c1 = 0;
  uint64_t c2 = 0;

  void MulAdd(uint64_t a, uint64_t b) {
    const uint128 t = static_cast<uint128>(a) * b;
    const uint64_t tl = static_cast<uint64_t>(t);
    // The high word of a 64x64 product is at most 2^64 - 2, so adding
    // the carry cannot wrap.
    const uint64_t th = static_cast<uint64_t>(t >> 64) + (c0 + tl < tl);
    c0 += tl;
    c1 += th;
    c2 += c1 < th;
  }
  void Add(uint64_t a) {
    c0 += a;
    const uint64_t over = c0 < a;
    c1 += over;
    c2 += c1 < over;
  }
  /// Returns the low word and shifts the accumulator down by 64 bits.
  uint64_t Extract() {
    const uint64_t lo = c0;
    c0 = c1;
    c1 = c2;
    c2 = 0;
    return lo;
  }
};

/// out = lo[0..3] + hi[0..H-1] * (2^256 - n), column by column; out has
/// max(4, H + 2) limbs plus the final carry. 2^256 - n is 129 bits. The
/// loops here and in MulModN keep constant trip counts so that -O3
/// unrolls them fully; with bounds that vary per column they stay rolled
/// and BM_FnMul runs ~30% slower.
template <int H>
void FoldModN(const uint64_t* lo, const uint64_t* hi, uint64_t* out) {
  constexpr int kCols = std::max(4, H + 2);
  Acc192 acc;
  for (int k = 0; k < kCols; ++k) {
    if (k < 4) acc.Add(lo[k]);
    for (int i = 0; i < H; ++i) {
      if (k - i >= 0 && k - i < 3) acc.MulAdd(hi[i], kCn.limb[k - i]);
    }
    out[k] = acc.Extract();
  }
  out[kCols] = acc.c0;
}

/// a * b mod n for any 256-bit a and b: a column-wise 4x4 product, then
/// 2^256 == 2^256 - n (mod n) folded in three times (512 -> 385 -> 258
/// -> 256 bits plus a carry) and one conditional subtraction.
U256 MulModN(const U256& a, const U256& b) {
  uint64_t l[8];
  Acc192 acc;
  for (int k = 0; k < 7; ++k) {
    for (int i = 0; i < 4; ++i) {
      if (k - i >= 0 && k - i < 4) acc.MulAdd(a.limb[i], b.limb[k - i]);
    }
    l[k] = acc.Extract();
  }
  l[7] = acc.c0;
  uint64_t m[7];  // m[6] <= 1.
  FoldModN<4>(l, l + 4, m);
  uint64_t p[6];  // p[4] <= 3, p[5] == 0.
  FoldModN<3>(m, m + 4, p);
  uint64_t r[5];  // r[4] is the carry out of 2^256.
  FoldModN<1>(p, p + 4, r);
  const U256 out(r[0], r[1], r[2], r[3]);
  return r[4] != 0 || out >= kN ? out - kN : out;  // Wrapping: adds 2^256 - n.
}

/// Jacobian coordinates: (X, Y, Z) represents (X/Z^2, Y/Z^3). The
/// magnitudes are the largest the group law below returns.
struct Jacobian {
  Fe<4> x;
  Fe<4> y;
  Fe<1> z;
  bool infinity;
};

Jacobian JInfinity() { return Jacobian{kFeOne, kFeOne, kFeOne, true}; }

Jacobian ToJacobian(const AffinePoint& p) {
  if (p.infinity) return JInfinity();
  return Jacobian{ToFe(p.x), ToFe(p.y), kFeOne, false};
}

AffinePoint FromJacobian(const Jacobian& j) {
  if (j.infinity || IsZero(j.z)) return AffinePoint::Infinity();
  const Fe<1> zinv = Inv(j.z);
  const Fe<1> zinv2 = Sqr(zinv);
  AffinePoint out;
  out.x = ToU256(Mul(j.x, zinv2));
  out.y = ToU256(Mul(j.y, Mul(zinv2, zinv)));
  out.infinity = false;
  return out;
}

/// 3M + 4S (libsecp256k1's gej_double with a = 0). Z3 = Y1*Z1, half of
/// dbl-2007-bl's 2*Y1*Z1: the same point, with X3 and Y3 scaled by 1/4
/// and 1/8, which L = 3/2*X1^2 provides. No finite curve point doubles to
/// the identity, since no point on y^2 = x^3 + 7 has y = 0.
Jacobian JDouble(const Jacobian& a) {
  if (a.infinity) return a;
  Jacobian r;
  r.infinity = false;
  r.z = Mul(a.z, a.y);
  const Fe<1> s = Sqr(a.y);                          // S = Y1^2
  const Fe<2> l = Half(MulInt<3>(Sqr(a.x)));         // L = 3/2 * X1^2
  const Fe<1> t = Mul(Neg(s), a.x);                  // T = -X1*S
  const Fe<3> x3 = Add(Add(Sqr(l), t), t);           // L^2 + 2T
  r.x = x3;
  r.y = Neg(Add(Mul(Add(t, x3), l), Sqr(s)));        // -(L(X3 + T) + S^2)
  return r;
}

/// The shared tail of both additions: with h = U2 - U1, i = S1 - S2 and
/// the products U1, S1 and Z3 in hand, X3 = R^2 - H^3 - 2*U1*H^2 and
/// Y3 = R*(U1*H^2 - X3) - S1*H^3, for R = -i.
template <int H, int I, int U, int S>
Jacobian FinishAdd(const Fe<H>& h, const Fe<I>& i, const Fe<U>& u1,
                   const Fe<S>& s1, const Fe<1>& z3) {
  const Fe<2> h2 = Neg(Sqr(h));                      // -H^2
  const Fe<1> h3 = Mul(h2, h);                       // -H^3
  const Fe<1> t = Mul(u1, h2);                       // -U1*H^2
  const Fe<4> x3 = Add(Add(Add(Sqr(i), h3), t), t);
  Jacobian r;
  r.x = x3;
  r.y = Add(Mul(Add(t, x3), i), Mul(h3, s1));
  r.z = z3;
  r.infinity = false;
  return r;
}

/// General addition (12M + 4S, libsecp256k1's gej_add_var).
Jacobian JAdd(const Jacobian& a, const Jacobian& b) {
  if (a.infinity) return b;
  if (b.infinity) return a;
  const Fe<1> z22 = Sqr(b.z);
  const Fe<1> z12 = Sqr(a.z);
  const Fe<1> u1 = Mul(a.x, z22);
  const Fe<1> u2 = Mul(b.x, z12);
  const Fe<1> s1 = Mul(Mul(a.y, z22), b.z);
  const Fe<1> s2 = Mul(Mul(b.y, z12), a.z);
  const Fe<3> h = Add(Neg(u1), u2);
  const Fe<3> i = Add(Neg(s2), s1);
  if (IsZero(h)) return IsZero(i) ? JDouble(a) : JInfinity();
  return FinishAdd(h, i, u1, s1, Mul(Mul(h, b.z), a.z));
}

/// Mixed addition of an affine (bx, by), Z2 = 1: 8M + 3S. The workhorse
/// of every table-driven path — precomputed tables are batch-normalized
/// to affine exactly so this applies.
Jacobian JAddMixed(const Jacobian& a, const Fe<1>& bx, const Fe<2>& by) {
  if (a.infinity) return Jacobian{bx, by, kFeOne, false};
  const Fe<1> z12 = Sqr(a.z);
  const Fe<1> u2 = Mul(bx, z12);
  const Fe<1> s2 = Mul(Mul(by, z12), a.z);
  const Fe<6> h = Add(Neg(a.x), u2);
  const Fe<6> i = Add(Neg(s2), a.y);
  if (IsZero(h)) return IsZero(i) ? JDouble(a) : JInfinity();
  return FinishAdd(h, i, a.x, a.y, Mul(a.z, h));
}

/// acc + e, or acc - e when `negate`; with `x` standing in for e's x when
/// the caller scales it (the GLV endomorphism).
Jacobian AddTablePoint(const Jacobian& acc, const Fe<1>& x,
                       const TablePoint& e, bool negate) {
  const Fe<1> y(e.y);
  return JAddMixed(acc, x, negate ? Fe<2>(Neg(y)) : Fe<2>(y));
}

Jacobian AddTablePoint(const Jacobian& acc, const TablePoint& e,
                       bool negate) {
  return AddTablePoint(acc, Fe<1>(e.x), e, negate);
}

/// Affine coordinates for a span of Jacobian points with ONE field
/// inversion (Montgomery's trick over their z): emit(i, x, y) receives
/// each finite point; identities are skipped.
template <typename Emit>
void BatchNormalizeImpl(const Jacobian* js, size_t n, Emit emit) {
  std::vector<Fe<1>> zs;
  std::vector<size_t> idx;
  zs.reserve(n);
  idx.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (js[i].infinity || IsZero(js[i].z)) continue;
    zs.push_back(js[i].z);
    idx.push_back(i);
  }
  InvMany(zs.data(), zs.size());
  for (size_t k = 0; k < idx.size(); ++k) {
    const Jacobian& j = js[idx[k]];
    const Fe<1> zinv2 = Sqr(zs[k]);
    emit(idx[k], Mul(j.x, zinv2), Mul(j.y, Mul(zinv2, zs[k])));
  }
}

/// Identities map to the affine identity.
void BatchNormalize(const Jacobian* js, size_t n, AffinePoint* out) {
  for (size_t i = 0; i < n; ++i) out[i] = AffinePoint::Infinity();
  BatchNormalizeImpl(js, n, [out](size_t i, const Fe<1>& x, const Fe<1>& y) {
    out[i].x = ToU256(x);
    out[i].y = ToU256(y);
    out[i].infinity = false;
  });
}

/// Table form; every point must be finite.
void BatchNormalize(const Jacobian* js, size_t n, TablePoint* out) {
  BatchNormalizeImpl(js, n, [out](size_t i, const Fe<1>& x, const Fe<1>& y) {
    out[i] = TablePoint{x.n, y.n};
  });
}

// --- Fixed-base comb table ---
// table[w * 128 + d - 1] = d * 256^w * G for w in [0, 33), d in [1, 128].
// ScalarMulBase recodes the scalar into signed byte digits in [-127, 128]
// (the top byte's carry goes into a 33rd window) and adds the entry, or
// its negation, per non-zero digit: <= 33 mixed additions and no
// doublings. 4224 points (~330 KiB), built lazily on first use with a
// single batch normalization.
constexpr int kCombWindows = 33;
constexpr int kCombDigits = 128;

const std::vector<TablePoint>& CombTable() {
  static const auto* table = [] {
    std::vector<Jacobian> jac(static_cast<size_t>(kCombWindows) *
                              kCombDigits);
    Jacobian base = ToJacobian(Generator());
    for (int w = 0; w < kCombWindows; ++w) {
      Jacobian* row = jac.data() + static_cast<size_t>(w) * kCombDigits;
      row[0] = base;
      for (int d = 2; d <= kCombDigits; ++d) {
        row[d - 1] = d % 2 == 0 ? JDouble(row[d / 2 - 1])
                                : JAdd(row[d - 2], base);
      }
      base = JDouble(row[kCombDigits - 1]);  // 256 * previous window base.
    }
    auto* t = new std::vector<TablePoint>(jac.size());
    BatchNormalize(jac.data(), jac.size(), t->data());
    return t;
  }();
  return *table;
}

// --- wNAF ---
// Width-w non-adjacent form: digits are zero or odd in
// (-2^(w-1), 2^(w-1)), at most one non-zero digit per w consecutive
// positions. Scratch must hold kWnafMaxLen entries.
constexpr int kWnafMaxLen = 257;

int ComputeWnaf(const U256& k_in, int width, int8_t* naf) {
  const uint64_t mask = (1ULL << width) - 1;
  const int64_t half = 1LL << (width - 1);
  uint64_t k[4] = {k_in.limb[0], k_in.limb[1], k_in.limb[2], k_in.limb[3]};
  // k >>= s for s in [1, 63].
  auto shift_right = [&k](int s) {
    k[0] = (k[0] >> s) | (k[1] << (64 - s));
    k[1] = (k[1] >> s) | (k[2] << (64 - s));
    k[2] = (k[2] >> s) | (k[3] << (64 - s));
    k[3] >>= s;
  };
  int len = 0;
  while ((k[0] | k[1] | k[2] | k[3]) != 0) {
    if ((k[0] & 1) == 0) {
      // Skip the whole run of trailing zeros, up to 63 bits per shift.
      int run = k[0] != 0 ? __builtin_ctzll(k[0]) : 63;
      for (int i = 0; i < run; ++i) naf[len++] = 0;
      shift_right(run);
      continue;
    }
    int64_t digit = static_cast<int64_t>(k[0] & mask);
    if (digit >= half) digit -= 1LL << width;
    if (digit >= 0) {
      k[0] -= static_cast<uint64_t>(digit);  // Clears the low bits only.
    } else {
      // Scalars here are < n < 2^256 - 2^129, so this add never wraps.
      const uint64_t add = static_cast<uint64_t>(-digit);
      k[0] += add;
      if (k[0] < add) {
        for (int i = 1; i < 4 && ++k[i] == 0; ++i) {
        }
      }
    }
    naf[len++] = static_cast<int8_t>(digit);
    shift_right(1);
  }
  return len;
}

/// Odd multiples {1, 3, ..., 15} * P, batch-normalized to affine — the
/// per-call table for width-5 wNAF over a variable base.
void OddMultiples15(const AffinePoint& p, TablePoint out[8]) {
  Jacobian jac[8];
  jac[0] = ToJacobian(p);
  Jacobian twice = JDouble(jac[0]);
  for (int i = 1; i < 8; ++i) jac[i] = JAdd(jac[i - 1], twice);
  BatchNormalize(jac, 8, out);
}

/// Adds wNAF digit `d` (sign-flipped when `flip`) from a table of odd
/// multiples {1, 3, 5, ...} of some base point.
Jacobian AddWnafDigit(const Jacobian& acc, int d, bool flip,
                      const TablePoint* odd_multiples) {
  if (d == 0) return acc;
  return AddTablePoint(acc, odd_multiples[(std::abs(d) - 1) / 2],
                       (d < 0) != flip);
}

// --- Fixed wNAF tables for verification ---
// Odd multiples {1..127} * G and {1..127} * 2^128 * G (width-8 wNAF):
// splitting u1 into 128-bit halves against the 2^128*G table means the
// interleaved loop only runs ~130 doublings for full-width u1.
struct VerifyTables {
  std::array<TablePoint, 64> g;
  std::array<TablePoint, 64> g128;
};

const VerifyTables& GetVerifyTables() {
  static const auto* tables = [] {
    std::vector<Jacobian> jac(128);
    const Jacobian g = ToJacobian(Generator());
    Jacobian twice = JDouble(g);
    jac[0] = g;
    for (int i = 1; i < 64; ++i) jac[i] = JAdd(jac[i - 1], twice);
    Jacobian g128 = g;
    for (int i = 0; i < 128; ++i) g128 = JDouble(g128);
    jac[64] = g128;
    twice = JDouble(g128);
    for (int i = 65; i < 128; ++i) jac[i] = JAdd(jac[i - 1], twice);
    auto* t = new VerifyTables();
    std::vector<TablePoint> affine(128);
    BatchNormalize(jac.data(), 128, affine.data());
    std::copy(affine.begin(), affine.begin() + 64, t->g.begin());
    std::copy(affine.begin() + 64, affine.end(), t->g128.begin());
    return t;
  }();
  return *tables;
}

/// (k*g1 or k*g2) >> 384, rounded: the projection step of the GLV split.
U256 MulShift384Round(const U256& a, const U256& b) {
  U512 prod = U256::MulWide(a, b);
  U256 shifted(prod.limb[6], prod.limb[7], 0, 0);
  if (prod.limb[5] >> 63) shifted = shifted + U256::One();
  return shifted;
}

void SplitScalarGlvImpl(const U256& k_in, U256* k1, bool* neg1, U256* k2,
                        bool* neg2) {
  U256 k = FnReduce(k_in);
  U256 c1 = MulShift384Round(k, kG1);
  U256 c2 = MulShift384Round(k, kG2);
  U256 r2 = FnAdd(FnMul(c1, kMinusB1), FnMul(c2, kMinusB2));
  U256 r1 = FnSub(k, FnMul(r2, kLambda));
  *neg1 = false;
  *neg2 = false;
  // The true components are signed values of magnitude < ~2^128; a
  // residue near n is a negative component.
  if (r1.BitLength() > kGlvMaxBits) {
    r1 = kN - r1;
    *neg1 = true;
  }
  if (r2.BitLength() > kGlvMaxBits) {
    r2 = kN - r2;
    *neg2 = true;
  }
  *k1 = r1;
  *k2 = r2;
}

// --- Fast backend entry points ---

void FastScalarMulBaseAccum(const U256& k_reduced, Jacobian* acc) {
  const auto& table = CombTable();
  Jacobian result = JInfinity();
  int carry = 0;
  for (int w = 0; w < kCombWindows; ++w) {
    int digit = carry;
    if (w < 32) {
      digit += static_cast<int>((k_reduced.limb[w / 8] >> ((w % 8) * 8)) &
                                0xFF);
    }
    carry = digit > kCombDigits ? 1 : 0;
    digit -= carry * 256;
    if (digit == 0) continue;
    result = AddTablePoint(
        result,
        table[static_cast<size_t>(w) * kCombDigits + std::abs(digit) - 1],
        digit < 0);
  }
  *acc = result;
}

AffinePoint FastScalarMulBase(const U256& k_in) {
  U256 k = FnReduce(k_in);
  if (k.IsZero()) return AffinePoint::Infinity();
  Jacobian acc;
  FastScalarMulBaseAccum(k, &acc);
  return FromJacobian(acc);
}

AffinePoint FastDoubleScalarMulBase(const U256& u1, const AffinePoint& p,
                                    const U256& u2) {
  U256 a = FnReduce(u1);
  U256 b = FnReduce(u2);
  if (p.infinity || b.IsZero()) return FastScalarMulBase(a);

  // u1 split into 128-bit halves (tables for G and 2^128*G); u2 split
  // via the GLV endomorphism into two half-width scalars against P and
  // phi(P) = (beta*x, y).
  U256 a_lo(a.limb[0], a.limb[1], 0, 0);
  U256 a_hi(a.limb[2], a.limb[3], 0, 0);
  U256 k1, k2;
  bool neg1 = false, neg2 = false;
  SplitScalarGlvImpl(b, &k1, &neg1, &k2, &neg2);

  TablePoint p_odd[8] = {};  // Stays zero where p is off the curve.
  OddMultiples15(p, p_odd);
  TablePoint phi_odd[8];
  for (int i = 0; i < 8; ++i) {
    phi_odd[i].x = Mul(Fe<1>(p_odd[i].x), kFeBeta).n;
    phi_odd[i].y = p_odd[i].y;
  }

  const VerifyTables& fixed = GetVerifyTables();
  int8_t naf_alo[kWnafMaxLen], naf_ahi[kWnafMaxLen];
  int8_t naf_k1[kWnafMaxLen], naf_k2[kWnafMaxLen];
  int len_alo = ComputeWnaf(a_lo, 8, naf_alo);
  int len_ahi = ComputeWnaf(a_hi, 8, naf_ahi);
  int len_k1 = ComputeWnaf(k1, 5, naf_k1);
  int len_k2 = ComputeWnaf(k2, 5, naf_k2);
  int len = std::max({len_alo, len_ahi, len_k1, len_k2});

  Jacobian acc = JInfinity();
  for (int i = len - 1; i >= 0; --i) {
    acc = JDouble(acc);
    if (i < len_k1) acc = AddWnafDigit(acc, naf_k1[i], neg1, p_odd);
    if (i < len_k2) acc = AddWnafDigit(acc, naf_k2[i], neg2, phi_odd);
    if (i < len_ahi) {
      acc = AddWnafDigit(acc, naf_ahi[i], false, fixed.g128.data());
    }
    if (i < len_alo) {
      acc = AddWnafDigit(acc, naf_alo[i], false, fixed.g.data());
    }
  }
  return FromJacobian(acc);
}

// --- Fixed-point table (FixedPointTable) ---
// A GLV half (< 2^132) recoded into signed 6-bit digits in [-31, 32]
// needs 22 windows plus one for the final carry. A wider window trades
// a slower build for fewer additions per check (DESIGN.md "Fixed-key
// verification" has the measured trade-off).
constexpr int kKeyWindowBits = 6;
constexpr int kKeyDigits = 1 << (kKeyWindowBits - 1);  // |digit| <= 32
constexpr int kKeyWindows =
    (kGlvMaxBits + kKeyWindowBits - 1) / kKeyWindowBits + 1;  // 23

/// Adds k * Q (sign-flipped when `neg`; phi(Q) = (beta*x, y) in place of
/// Q when `phi`) to `acc` from a FixedPointTable's multiples: one mixed
/// addition per non-zero signed digit. Requires k < 2^kGlvMaxBits.
void AddKeyTableDigits(const TablePoint* table, const U256& k, bool neg,
                       bool phi, Jacobian* acc) {
  constexpr int kRadix = 1 << kKeyWindowBits;
  int carry = 0;
  for (int w = 0; w < kKeyWindows; ++w) {
    const int bit = w * kKeyWindowBits;
    const int limb = bit / 64;
    const int shift = bit % 64;
    uint64_t bits = k.limb[limb] >> shift;
    if (shift > 64 - kKeyWindowBits && limb < 3) {
      bits |= k.limb[limb + 1] << (64 - shift);
    }
    int digit = static_cast<int>(bits & (kRadix - 1)) + carry;
    carry = digit > kKeyDigits ? 1 : 0;
    digit -= carry * kRadix;
    if (digit == 0) continue;
    const TablePoint& e = table[w * kKeyDigits + std::abs(digit) - 1];
    const Fe<1> x(e.x);
    *acc = AddTablePoint(*acc, phi ? Mul(x, kFeBeta) : x, e,
                         (digit < 0) != neg);
  }
}

}  // namespace

FixedPointTable::FixedPointTable(const AffinePoint& q) : q_(q) {
  if (ActiveEcBackend() == EcBackend::kReference) return;
  std::vector<Jacobian> jac(static_cast<size_t>(kKeyWindows) * kKeyDigits);
  Jacobian base = ToJacobian(q);
  for (int w = 0; w < kKeyWindows; ++w) {
    Jacobian* row = jac.data() + static_cast<size_t>(w) * kKeyDigits;
    row[0] = base;
    for (int d = 2; d <= kKeyDigits; ++d) {
      row[d - 1] = d % 2 == 0 ? JDouble(row[d / 2 - 1])
                              : JAdd(row[d - 2], base);
    }
    base = JDouble(row[kKeyDigits - 1]);  // 2^kKeyWindowBits * base.
  }
  multiples_.resize(jac.size());
  BatchNormalize(jac.data(), jac.size(), multiples_.data());
}

void FixedPointTable::DoubleScalarMulBaseMany(const U256* u1s,
                                              const U256* u2s, size_t n,
                                              AffinePoint* out) const {
  if (multiples_.empty()) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = reference::DoubleScalarMulBase(u1s[i], q_, u2s[i]);
    }
    return;
  }
  std::vector<Jacobian> accs(n);
  for (size_t i = 0; i < n; ++i) {
    FastScalarMulBaseAccum(FnReduce(u1s[i]), &accs[i]);
    U256 k1, k2;
    bool neg1 = false, neg2 = false;
    SplitScalarGlvImpl(u2s[i], &k1, &neg1, &k2, &neg2);
    if (k1.BitLength() > kGlvMaxBits || k2.BitLength() > kGlvMaxBits) {
      // Outside the GLV bound (never observed): the generic path.
      accs[i] = ToJacobian(FastDoubleScalarMulBase(u1s[i], q_, u2s[i]));
      continue;
    }
    AddKeyTableDigits(multiples_.data(), k1, neg1, false, &accs[i]);
    AddKeyTableDigits(multiples_.data(), k2, neg2, true, &accs[i]);
  }
  BatchNormalize(accs.data(), n, out);
}

const U256& FieldPrime() {
  static const U256 p = kP;
  return p;
}
const U256& GroupOrder() {
  static const U256 n = kN;
  return n;
}
const U256& FieldC() {
  static const U256 c = kCp;
  return c;
}
const U256& OrderC() {
  static const U256 c = kCn;
  return c;
}

U256 FpAdd(const U256& a, const U256& b) {
  return ToU256(Add(ToFe(a), ToFe(b)));
}

U256 FpSub(const U256& a, const U256& b) {
  return ToU256(Add(ToFe(a), Neg(ToFe(b))));
}

U256 FpMul(const U256& a, const U256& b) {
  return ToU256(Mul(ToFe(a), ToFe(b)));
}

U256 FpSqr(const U256& a) { return ToU256(Sqr(ToFe(a))); }

U256 FpInv(const U256& a) {
  const Fe<1> x = ToFe(a);
  if (IsZero(x)) DieZeroInverse("FpInv");
  return ToU256(Inv(x));
}

void FpInvMany(const U256* xs, size_t n, U256* out) {
  std::vector<Fe<1>> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = ToFe(xs[i]);
    if (IsZero(v[i])) DieZeroInverse("FpInvMany");
  }
  InvMany(v.data(), n);
  for (size_t i = 0; i < n; ++i) out[i] = ToU256(v[i]);
}

Result<U256> FpSqrt(const U256& a) {
  const Fe<1> x = ToFe(a);
  const Fe<1> root = SqrtCandidate(x);
  if (!Equal(Sqr(root), x)) {
    return Status::Verification("no square root exists mod p");
  }
  return ToU256(root);
}

U256 FnAdd(const U256& a, const U256& b) {
  U256 sum;
  const bool carry = U256::AddWithCarry(FnReduce(a), FnReduce(b), &sum);
  return carry || sum >= kN ? sum - kN : sum;  // Wrapping: adds 2^256 - n.
}

U256 FnSub(const U256& a, const U256& b) {
  U256 diff;
  const bool borrow = U256::SubWithBorrow(FnReduce(a), FnReduce(b), &diff);
  return borrow ? diff + kN : diff;
}

U256 FnMul(const U256& a, const U256& b) { return MulModN(a, b); }

U256 FnInv(const U256& a) {
  const U256 r = FnReduce(a);
  if (r.IsZero()) DieZeroInverse("FnInv");
  return ModInvVar(r, kModN);
}

void FnInvMany(const U256* xs, size_t n, U256* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = FnReduce(xs[i]);  // `out` may alias `xs`.
    if (out[i].IsZero()) DieZeroInverse("FnInvMany");
  }
  InvManyInPlace(out, n, MulModN,
                 [](const U256& x) { return ModInvVar(x, kModN); });
}

U256 FnReduce(const U256& a) { return a >= kN ? a - kN : a; }

const AffinePoint& Generator() {
  static const AffinePoint g = [] {
    AffinePoint p;
    p.x = kGx;
    p.y = kGy;
    p.infinity = false;
    return p;
  }();
  return g;
}

bool IsOnCurve(const AffinePoint& p) {
  if (p.infinity) return true;
  if (p.x >= kP || p.y >= kP) return false;
  const Fe<1> x = ToFe(p.x);
  return Equal(Sqr(ToFe(p.y)), Add(Mul(Sqr(x), x), kFeCurveB));
}

AffinePoint Add(const AffinePoint& a, const AffinePoint& b) {
  return FromJacobian(JAdd(ToJacobian(a), ToJacobian(b)));
}

AffinePoint Double(const AffinePoint& a) {
  return FromJacobian(JDouble(ToJacobian(a)));
}

AffinePoint Negate(const AffinePoint& a) {
  if (a.infinity) return a;
  AffinePoint out = a;
  out.y = ToU256(Neg(ToFe(a.y)));
  return out;
}

namespace reference {

AffinePoint ScalarMul(const AffinePoint& p, const U256& k_in) {
  U256 k = FnReduce(k_in);
  if (k.IsZero() || p.infinity) return AffinePoint::Infinity();
  Jacobian base = ToJacobian(p);
  Jacobian result = JInfinity();
  int bits = k.BitLength();
  for (int i = bits - 1; i >= 0; --i) {
    result = JDouble(result);
    if (k.Bit(i)) result = JAdd(result, base);
  }
  return FromJacobian(result);
}

AffinePoint ScalarMulBase(const U256& k) {
  return reference::ScalarMul(Generator(), k);
}

AffinePoint DoubleScalarMulBase(const U256& u1, const AffinePoint& p,
                                const U256& u2) {
  // Plain bit-interleaved Shamir: one shared doubling chain, adds from
  // {G, P, G+P} per bit pair.
  Jacobian g = ToJacobian(Generator());
  Jacobian q = ToJacobian(p);
  Jacobian sum = JAdd(g, q);
  Jacobian result = JInfinity();
  U256 a = FnReduce(u1);
  U256 b = FnReduce(u2);
  int bits = std::max(a.BitLength(), b.BitLength());
  for (int i = bits - 1; i >= 0; --i) {
    result = JDouble(result);
    bool ba = a.Bit(i);
    bool bb = b.Bit(i);
    if (ba && bb) {
      result = JAdd(result, sum);
    } else if (ba) {
      result = JAdd(result, g);
    } else if (bb) {
      result = JAdd(result, q);
    }
  }
  return FromJacobian(result);
}

}  // namespace reference

namespace internal {

void SplitScalarGlv(const U256& k, U256* k1, bool* neg1, U256* k2,
                    bool* neg2) {
  SplitScalarGlvImpl(k, k1, neg1, k2, neg2);
}

const U256& GlvLambda() {
  static const U256 l = kLambda;
  return l;
}

const U256& GlvBeta() {
  static const U256 b = kBeta;
  return b;
}

int FieldMaxMagnitude() { return kMaxMagnitude; }

FieldLimbs FieldMaxLimbs(int m) {
  const uint64_t k = 2 * static_cast<uint64_t>(m);
  return {kM52 * k, kM52 * k, kM52 * k, kM52 * k, kM48 * k};
}

U256 FieldMulLimbs(const FieldLimbs& a, const FieldLimbs& b) {
  return PackLimbs(NormalizeLimbs(MulLimbs(a, b)));
}

U256 FieldSqrLimbs(const FieldLimbs& a) {
  return PackLimbs(NormalizeLimbs(SqrLimbs(a)));
}

U256 FieldNormalizeLimbs(const FieldLimbs& a) {
  return PackLimbs(NormalizeLimbs(a));
}

U256 FieldNegateLimbs(const FieldLimbs& a, int m) {
  return PackLimbs(NormalizeLimbs(NegLimbs(a, static_cast<uint64_t>(m))));
}

U256 FieldHalfLimbs(const FieldLimbs& a) {
  return PackLimbs(NormalizeLimbs(HalfLimbs(a)));
}

bool FieldIsZeroLimbs(const FieldLimbs& a) { return NormalizesToZero(a); }

}  // namespace internal

AffinePoint ScalarMul(const AffinePoint& p, const U256& k) {
  if (ActiveEcBackend() == EcBackend::kReference) {
    return reference::ScalarMul(p, k);
  }
  // The u2 half of the Shamir loop alone: the GLV split runs ~130
  // doublings where a plain wNAF over k runs 256.
  return FastDoubleScalarMulBase(U256::Zero(), p, k);
}

AffinePoint ScalarMulBase(const U256& k) {
  if (ActiveEcBackend() == EcBackend::kReference) {
    return reference::ScalarMulBase(k);
  }
  return FastScalarMulBase(k);
}

void ScalarMulBaseMany(const U256* ks, size_t n, AffinePoint* out) {
  if (n == 0) return;
  if (ActiveEcBackend() == EcBackend::kReference) {
    for (size_t i = 0; i < n; ++i) out[i] = reference::ScalarMulBase(ks[i]);
    return;
  }
  // Accumulate every product in Jacobian form, then normalize the whole
  // batch with one inversion.
  std::vector<Jacobian> accs(n, JInfinity());
  for (size_t i = 0; i < n; ++i) {
    U256 k = FnReduce(ks[i]);
    if (!k.IsZero()) FastScalarMulBaseAccum(k, &accs[i]);
  }
  BatchNormalize(accs.data(), n, out);
}

AffinePoint DoubleScalarMulBase(const U256& u1, const AffinePoint& p,
                                const U256& u2) {
  if (ActiveEcBackend() == EcBackend::kReference) {
    return reference::DoubleScalarMulBase(u1, p, u2);
  }
  return FastDoubleScalarMulBase(u1, p, u2);
}

Result<AffinePoint> LiftX(const U256& x, bool odd_y) {
  if (x >= kP) return Status::InvalidArgument("x not in field");
  const Fe<1> fx = ToFe(x);
  const Fe<1> rhs = Normalize(Add(Mul(Sqr(fx), fx), kFeCurveB));
  const Fe<1> y = SqrtCandidate(rhs);
  if (!Equal(Sqr(y), rhs)) {
    return Status::Verification("no square root exists mod p");
  }
  AffinePoint p;
  p.x = x;
  p.y = ToU256(y);
  if (p.y.Bit(0) != odd_y) p.y = ToU256(Neg(y));
  p.infinity = false;
  return p;
}

Result<Bytes> EncodeUncompressed(const AffinePoint& p) {
  if (p.infinity) return Status::InvalidArgument("cannot encode identity");
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  Append(out, p.x.ToBytesBE());
  Append(out, p.y.ToBytesBE());
  return out;
}

Result<AffinePoint> DecodeUncompressed(const Bytes& b) {
  if (b.size() != 65 || b[0] != 0x04) {
    return Status::InvalidArgument("bad uncompressed point encoding");
  }
  Bytes xb(b.begin() + 1, b.begin() + 33);
  Bytes yb(b.begin() + 33, b.end());
  WEDGE_ASSIGN_OR_RETURN(U256 x, U256::FromBytesBE(xb));
  WEDGE_ASSIGN_OR_RETURN(U256 y, U256::FromBytesBE(yb));
  AffinePoint p;
  p.x = x;
  p.y = y;
  p.infinity = false;
  if (!IsOnCurve(p)) return Status::Verification("point not on curve");
  return p;
}

Result<Bytes> EncodeCompressed(const AffinePoint& p) {
  if (p.infinity) return Status::InvalidArgument("cannot encode identity");
  Bytes out;
  out.reserve(33);
  out.push_back(p.y.Bit(0) ? 0x03 : 0x02);
  Append(out, p.x.ToBytesBE());
  return out;
}

Result<AffinePoint> DecodeCompressed(const Bytes& b) {
  if (b.size() != 33 || (b[0] != 0x02 && b[0] != 0x03)) {
    return Status::InvalidArgument("bad compressed point encoding");
  }
  Bytes xb(b.begin() + 1, b.end());
  WEDGE_ASSIGN_OR_RETURN(U256 x, U256::FromBytesBE(xb));
  return LiftX(x, b[0] == 0x03);
}

}  // namespace secp256k1
}  // namespace wedge
