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

// --- Local inline limb arithmetic ---
// U256's general-purpose operators live in u256.cc and cost a function
// call each; the group law below executes hundreds of field ops per
// point multiplication, so the hot helpers are reimplemented here where
// -O3 can inline and fuse them.

inline int CmpInl(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.limb[i] != b.limb[i]) return a.limb[i] < b.limb[i] ? -1 : 1;
  }
  return 0;
}

/// *a -= b, returning the borrow.
inline bool SubInl(U256* a, const U256& b) {
  uint64_t borrow = 0;
  for (int i = 0; i < 4; ++i) {
    uint128 d = static_cast<uint128>(a->limb[i]) - b.limb[i] - borrow;
    a->limb[i] = static_cast<uint64_t>(d);
    borrow = (d >> 64) ? 1 : 0;
  }
  return borrow != 0;
}

/// *a += b, returning the carry.
inline bool AddInl(U256* a, const U256& b) {
  uint128 acc = 0;
  for (int i = 0; i < 4; ++i) {
    acc += static_cast<uint128>(a->limb[i]) + b.limb[i];
    a->limb[i] = static_cast<uint64_t>(acc);
    acc >>= 64;
  }
  return acc != 0;
}

inline void Shr1Inl(U256* x) {
  x->limb[0] = (x->limb[0] >> 1) | (x->limb[1] << 63);
  x->limb[1] = (x->limb[1] >> 1) | (x->limb[2] << 63);
  x->limb[2] = (x->limb[2] >> 1) | (x->limb[3] << 63);
  x->limb[3] >>= 1;
}

inline U256 FpAddInl(const U256& a, const U256& b) {
  U256 r = a;
  bool over = AddInl(&r, b);
  if (over || CmpInl(r, kP) >= 0) {
    // Subtract p == add c (mod 2^256); a final carry out is exactly the
    // 2^256 wrap and is discarded.
    uint128 acc = static_cast<uint128>(r.limb[0]) + 0x1000003D1ULL;
    r.limb[0] = static_cast<uint64_t>(acc);
    uint64_t carry = static_cast<uint64_t>(acc >> 64);
    for (int i = 1; i < 4 && carry; ++i) {
      acc = static_cast<uint128>(r.limb[i]) + carry;
      r.limb[i] = static_cast<uint64_t>(acc);
      carry = static_cast<uint64_t>(acc >> 64);
    }
  }
  return r;
}

inline U256 FpSubInl(const U256& a, const U256& b) {
  U256 r = a;
  if (SubInl(&r, b)) {
    // Underflowed: add p back == subtract c from the wrapped value.
    uint128 d = static_cast<uint128>(r.limb[0]) - 0x1000003D1ULL;
    r.limb[0] = static_cast<uint64_t>(d);
    uint64_t borrow = (d >> 64) ? 1 : 0;
    for (int i = 1; i < 4 && borrow; ++i) {
      d = static_cast<uint128>(r.limb[i]) - borrow;
      r.limb[i] = static_cast<uint64_t>(d);
      borrow = (d >> 64) ? 1 : 0;
    }
  }
  return r;
}

/// Schoolbook 4x4 -> 8 limb product.
inline void Mul4x4(const U256& a, const U256& b, uint64_t w[8]) {
  for (int i = 0; i < 8; ++i) w[i] = 0;
  for (int i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      uint128 acc = static_cast<uint128>(a.limb[i]) * b.limb[j] +
                    w[i + j] + carry;
      w[i + j] = static_cast<uint64_t>(acc);
      carry = static_cast<uint64_t>(acc >> 64);
    }
    w[i + 4] = carry;
  }
}

/// Dedicated Solinas fold mod p: c = 2^256 - p fits in 34 bits, so one
/// limb-times-scalar pass folds the high 256 bits and a second pass
/// folds the leftover carry limb. Much faster than the generic
/// ReduceWide loop (which re-runs a full 4x4 MulWide per fold).
inline U256 ReducePInl(const uint64_t w[8]) {
  constexpr uint64_t kC = 0x1000003D1ULL;
  uint64_t r[4];
  uint128 acc = 0;
  for (int i = 0; i < 4; ++i) {
    acc += w[i];
    acc += static_cast<uint128>(w[4 + i]) * kC;
    r[i] = static_cast<uint64_t>(acc);
    acc >>= 64;
  }
  // acc < 2^35: fold it once more.
  acc = static_cast<uint128>(static_cast<uint64_t>(acc)) * kC + r[0];
  r[0] = static_cast<uint64_t>(acc);
  acc >>= 64;
  for (int i = 1; i < 4 && acc != 0; ++i) {
    acc += r[i];
    r[i] = static_cast<uint64_t>(acc);
    acc >>= 64;
  }
  U256 out(r[0], r[1], r[2], r[3]);
  if (acc != 0) {
    // Wrapped past 2^256: 2^256 == c (mod p), and the wrapped value is
    // tiny, so adding c cannot carry again.
    AddInl(&out, kCp);
  }
  if (CmpInl(out, kP) >= 0) SubInl(&out, kP);
  return out;
}

inline U256 FpMulInl(const U256& a, const U256& b) {
  uint64_t w[8];
  Mul4x4(a, b, w);
  return ReducePInl(w);
}

inline U256 FpSqrInl(const U256& a) { return FpMulInl(a, a); }

/// *x = (x + (x odd ? m : 0)) / 2, tracking the carry out of the
/// addition. Core step of the binary extended gcd below; m odd.
inline void HalfModInl(U256* x, const U256& m) {
  bool carry = false;
  if (x->limb[0] & 1) carry = AddInl(x, m);
  Shr1Inl(x);
  if (carry) x->limb[3] |= 1ULL << 63;
}

/// *a = a - b mod m (both already < m).
inline void SubModInl(U256* a, const U256& b, const U256& m) {
  if (SubInl(a, b)) AddInl(a, m);
}

/// a^-1 mod m via the variable-time binary extended Euclidean algorithm
/// (~20x faster than the Fermat ladder). Requires m odd prime and
/// a != 0 mod m (checked by the callers).
U256 BinInvMod(const U256& a_in, const U256& m) {
  const U256 one = U256::One();
  U256 u = a_in >= m ? U256::Mod(a_in, m) : a_in;
  U256 v = m;
  U256 x1 = one;
  U256 x2 = U256::Zero();
  while (u != one && v != one) {
    while ((u.limb[0] & 1) == 0) {
      Shr1Inl(&u);
      HalfModInl(&x1, m);
    }
    while ((v.limb[0] & 1) == 0) {
      Shr1Inl(&v);
      HalfModInl(&x2, m);
    }
    if (CmpInl(u, v) >= 0) {
      SubInl(&u, v);
      SubModInl(&x1, x2, m);
    } else {
      SubInl(&v, u);
      SubModInl(&x2, x1, m);
    }
  }
  return u == one ? x1 : x2;
}

/// Montgomery's simultaneous-inversion trick: one real inversion plus
/// three multiplications per element. MulFn is FpMul or FnMul.
template <typename MulFn>
void InvManyImpl(const U256* xs, size_t n, U256* out, const U256& m,
                 MulFn mul, const char* fn) {
  if (n == 0) return;
  std::vector<U256> prefix(n);
  for (size_t i = 0; i < n; ++i) {
    if (xs[i].IsZero()) DieZeroInverse(fn);
    prefix[i] = i == 0 ? xs[i] : mul(prefix[i - 1], xs[i]);
  }
  U256 inv = BinInvMod(prefix[n - 1], m);
  for (size_t i = n; i-- > 1;) {
    U256 x = xs[i];  // Copy first: `out` may alias `xs`.
    out[i] = mul(inv, prefix[i - 1]);
    inv = mul(inv, x);
  }
  out[0] = inv;
}

/// Jacobian coordinates: (X, Y, Z) represents (X/Z^2, Y/Z^3).
struct Jacobian {
  U256 x;
  U256 y;
  U256 z;  // z == 0 marks the identity.

  bool IsInfinity() const { return z.IsZero(); }
  static Jacobian Infinity() {
    return Jacobian{U256::One(), U256::One(), U256::Zero()};
  }
};

Jacobian ToJacobian(const AffinePoint& p) {
  if (p.infinity) return Jacobian::Infinity();
  return Jacobian{p.x, p.y, U256::One()};
}

AffinePoint FromJacobian(const Jacobian& j) {
  if (j.IsInfinity()) return AffinePoint::Infinity();
  U256 zinv = FpInv(j.z);
  U256 zinv2 = FpSqr(zinv);
  U256 zinv3 = FpMul(zinv2, zinv);
  AffinePoint out;
  out.x = FpMul(j.x, zinv2);
  out.y = FpMul(j.y, zinv3);
  out.infinity = false;
  return out;
}

Jacobian JDouble(const Jacobian& p) {
  if (p.IsInfinity() || p.y.IsZero()) return Jacobian::Infinity();
  // dbl-2007-bl simplified for a = 0: 2M + 5S, small constants as
  // addition chains.
  U256 a = FpSqrInl(p.x);  // X^2
  U256 b = FpSqrInl(p.y);  // Y^2
  U256 c = FpSqrInl(b);    // Y^4
  U256 t = FpSubInl(FpSqrInl(FpAddInl(p.x, b)), FpAddInl(a, c));
  U256 d = FpAddInl(t, t);  // 2((X+B)^2 - A - C)
  U256 e = FpAddInl(FpAddInl(a, a), a);  // 3A
  U256 f = FpSqrInl(e);
  Jacobian out;
  out.x = FpSubInl(f, FpAddInl(d, d));
  U256 c2 = FpAddInl(c, c);
  U256 c8 = FpAddInl(FpAddInl(c2, c2), FpAddInl(c2, c2));
  out.y = FpSubInl(FpMulInl(e, FpSubInl(d, out.x)), c8);
  out.z = FpMulInl(FpAddInl(p.y, p.y), p.z);
  return out;
}

Jacobian JAdd(const Jacobian& p, const Jacobian& q) {
  if (p.IsInfinity()) return q;
  if (q.IsInfinity()) return p;
  // add-2007-bl: 11M + 5S.
  U256 z1z1 = FpSqrInl(p.z);
  U256 z2z2 = FpSqrInl(q.z);
  U256 u1 = FpMulInl(p.x, z2z2);
  U256 u2 = FpMulInl(q.x, z1z1);
  U256 s1 = FpMulInl(FpMulInl(p.y, q.z), z2z2);
  U256 s2 = FpMulInl(FpMulInl(q.y, p.z), z1z1);
  if (u1 == u2) {
    if (s1 == s2) return JDouble(p);
    return Jacobian::Infinity();
  }
  U256 h = FpSubInl(u2, u1);
  U256 h2 = FpAddInl(h, h);
  U256 i = FpSqrInl(h2);
  U256 j = FpMulInl(h, i);
  U256 rr = FpSubInl(s2, s1);
  U256 r = FpAddInl(rr, rr);
  U256 v = FpMulInl(u1, i);
  Jacobian out;
  out.x = FpSubInl(FpSubInl(FpSqrInl(r), j), FpAddInl(v, v));
  U256 s1j = FpMulInl(s1, j);
  out.y = FpSubInl(FpMulInl(r, FpSubInl(v, out.x)), FpAddInl(s1j, s1j));
  // Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2) * H == 2*Z1*Z2*H.
  out.z = FpMulInl(
      FpSubInl(FpSqrInl(FpAddInl(p.z, q.z)), FpAddInl(z1z1, z2z2)), h);
  return out;
}

/// Mixed addition (Z2 = 1, madd-2007-bl): 7M + 4S against JAdd's
/// 11M + 5S. The workhorse of every table-driven path — precomputed
/// tables are batch-normalized to affine exactly so this applies.
Jacobian JAddMixed(const Jacobian& p, const AffinePoint& q) {
  if (q.infinity) return p;
  if (p.IsInfinity()) return Jacobian{q.x, q.y, U256::One()};
  U256 z1z1 = FpSqrInl(p.z);
  U256 u2 = FpMulInl(q.x, z1z1);
  U256 s2 = FpMulInl(FpMulInl(q.y, p.z), z1z1);
  if (p.x == u2) {
    if (p.y == s2) return JDouble(p);
    return Jacobian::Infinity();
  }
  U256 h = FpSubInl(u2, p.x);
  U256 hh = FpSqrInl(h);
  U256 hh2 = FpAddInl(hh, hh);
  U256 i = FpAddInl(hh2, hh2);  // 4*HH
  U256 j = FpMulInl(h, i);
  U256 rr = FpSubInl(s2, p.y);
  U256 r = FpAddInl(rr, rr);
  U256 v = FpMulInl(p.x, i);
  Jacobian out;
  out.x = FpSubInl(FpSubInl(FpSqrInl(r), j), FpAddInl(v, v));
  U256 yj = FpMulInl(p.y, j);
  out.y = FpSubInl(FpMulInl(r, FpSubInl(v, out.x)), FpAddInl(yj, yj));
  out.z = FpSubInl(FpSubInl(FpSqrInl(FpAddInl(p.z, h)), z1z1), hh);
  return out;
}

AffinePoint NegateAffine(const AffinePoint& a) {
  if (a.infinity) return a;
  AffinePoint out = a;
  out.y = FpSub(U256::Zero(), a.y);
  return out;
}

/// Converts a span of Jacobian points to affine with ONE field inversion
/// (Montgomery trick over the z coordinates). Infinity entries map to
/// the affine identity.
void BatchNormalize(const Jacobian* js, size_t n, AffinePoint* out) {
  std::vector<U256> zs;
  std::vector<size_t> idx;
  zs.reserve(n);
  idx.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (js[i].IsInfinity()) {
      out[i] = AffinePoint::Infinity();
    } else {
      zs.push_back(js[i].z);
      idx.push_back(i);
    }
  }
  if (zs.empty()) return;
  FpInvMany(zs.data(), zs.size(), zs.data());
  for (size_t k = 0; k < idx.size(); ++k) {
    const Jacobian& j = js[idx[k]];
    U256 zinv2 = FpSqr(zs[k]);
    AffinePoint& o = out[idx[k]];
    o.x = FpMul(j.x, zinv2);
    o.y = FpMul(j.y, FpMul(zinv2, zs[k]));
    o.infinity = false;
  }
}

// --- Fixed-base comb table ---
// table[w * 128 + d - 1] = d * 256^w * G for w in [0, 33), d in [1, 128].
// ScalarMulBase recodes the scalar into signed byte digits in [-127, 128]
// (the top byte's carry goes into a 33rd window) and adds the entry, or
// its negation, per non-zero digit: <= 33 mixed additions and no
// doublings. 4224 points (~300 KiB), built lazily on first use with a
// single batch normalization.
constexpr int kCombWindows = 33;
constexpr int kCombDigits = 128;

const std::vector<AffinePoint>& CombTable() {
  static const auto* table = [] {
    std::vector<Jacobian> jac(static_cast<size_t>(kCombWindows) *
                              kCombDigits);
    Jacobian base{kGx, kGy, U256::One()};
    for (int w = 0; w < kCombWindows; ++w) {
      Jacobian* row = jac.data() + static_cast<size_t>(w) * kCombDigits;
      row[0] = base;
      for (int d = 2; d <= kCombDigits; ++d) {
        row[d - 1] = d % 2 == 0 ? JDouble(row[d / 2 - 1])
                                : JAdd(row[d - 2], base);
      }
      base = JDouble(row[kCombDigits - 1]);  // 256 * previous window base.
    }
    auto* t = new std::vector<AffinePoint>(jac.size());
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

int ComputeWnaf(U256 k, int width, int8_t* naf) {
  const uint64_t mask = (1ULL << width) - 1;
  const int64_t half = 1LL << (width - 1);
  int len = 0;
  while (!k.IsZero()) {
    if ((k.limb[0] & 1) == 0) {
      // Skip the whole run of trailing zeros in one shift.
      int run = k.TrailingZeros();
      for (int i = 0; i < run; ++i) naf[len++] = 0;
      k = k.Shr(run);
    }
    int64_t digit = static_cast<int64_t>(k.limb[0] & mask);
    if (digit >= half) digit -= 1LL << width;
    if (digit >= 0) {
      k = k - U256(static_cast<uint64_t>(digit));
    } else {
      // Scalars here are < n < 2^256 - 2^129, so this add never wraps.
      k = k + U256(static_cast<uint64_t>(-digit));
    }
    naf[len++] = static_cast<int8_t>(digit);
    k = k.Shr(1);
  }
  return len;
}

/// Odd multiples {1, 3, ..., 15} * P, batch-normalized to affine — the
/// per-call table for width-5 wNAF over a variable base.
void OddMultiples15(const AffinePoint& p, AffinePoint out[8]) {
  Jacobian jac[8];
  jac[0] = ToJacobian(p);
  Jacobian twice = JDouble(jac[0]);
  for (int i = 1; i < 8; ++i) jac[i] = JAdd(jac[i - 1], twice);
  BatchNormalize(jac, 8, out);
}

/// Adds wNAF digit `d` (sign-flipped when `flip`) from a table of odd
/// multiples {1, 3, 5, ...} of some base point.
Jacobian AddWnafDigit(Jacobian acc, int d, bool flip,
                      const AffinePoint* odd_multiples) {
  if (d == 0) return acc;
  if (flip) d = -d;
  const AffinePoint& e = odd_multiples[(std::abs(d) - 1) / 2];
  return JAddMixed(acc, d > 0 ? e : NegateAffine(e));
}

// --- Fixed wNAF tables for verification ---
// Odd multiples {1..127} * G and {1..127} * 2^128 * G (width-8 wNAF):
// splitting u1 into 128-bit halves against the 2^128*G table means the
// interleaved loop only runs ~130 doublings for full-width u1.
struct VerifyTables {
  std::array<AffinePoint, 64> g;
  std::array<AffinePoint, 64> g128;
};

const VerifyTables& GetVerifyTables() {
  static const auto* tables = [] {
    std::vector<Jacobian> jac(128);
    Jacobian g{kGx, kGy, U256::One()};
    Jacobian twice = JDouble(g);
    jac[0] = g;
    for (int i = 1; i < 64; ++i) jac[i] = JAdd(jac[i - 1], twice);
    Jacobian g128 = g;
    for (int i = 0; i < 128; ++i) g128 = JDouble(g128);
    jac[64] = g128;
    twice = JDouble(g128);
    for (int i = 65; i < 128; ++i) jac[i] = JAdd(jac[i - 1], twice);
    auto* t = new VerifyTables();
    std::vector<AffinePoint> affine(128);
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
  Jacobian result = Jacobian::Infinity();
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
    AffinePoint e =
        table[static_cast<size_t>(w) * kCombDigits + std::abs(digit) - 1];
    if (digit < 0) e.y = FpSubInl(U256::Zero(), e.y);
    result = JAddMixed(result, e);
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

  AffinePoint p_odd[8];
  OddMultiples15(p, p_odd);
  AffinePoint phi_odd[8];
  for (int i = 0; i < 8; ++i) {
    phi_odd[i].x = FpMul(p_odd[i].x, kBeta);
    phi_odd[i].y = p_odd[i].y;
    phi_odd[i].infinity = false;
  }

  const VerifyTables& fixed = GetVerifyTables();
  int8_t naf_alo[kWnafMaxLen], naf_ahi[kWnafMaxLen];
  int8_t naf_k1[kWnafMaxLen], naf_k2[kWnafMaxLen];
  int len_alo = ComputeWnaf(a_lo, 8, naf_alo);
  int len_ahi = ComputeWnaf(a_hi, 8, naf_ahi);
  int len_k1 = ComputeWnaf(k1, 5, naf_k1);
  int len_k2 = ComputeWnaf(k2, 5, naf_k2);
  int len = std::max({len_alo, len_ahi, len_k1, len_k2});

  Jacobian acc = Jacobian::Infinity();
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
void AddKeyTableDigits(const AffinePoint* table, const U256& k, bool neg,
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
    AffinePoint e = table[w * kKeyDigits + std::abs(digit) - 1];
    if (phi) e.x = FpMulInl(e.x, kBeta);
    if ((digit < 0) != neg) e.y = FpSubInl(U256::Zero(), e.y);
    *acc = JAddMixed(*acc, e);
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

U256 FpAdd(const U256& a, const U256& b) { return FpAddInl(a, b); }
U256 FpSub(const U256& a, const U256& b) { return FpSubInl(a, b); }

U256 FpMul(const U256& a, const U256& b) { return FpMulInl(a, b); }

U256 FpSqr(const U256& a) { return FpMulInl(a, a); }

U256 FpPow(const U256& a, const U256& e) {
  U256 result = U256::One();
  int bits = e.BitLength();
  for (int i = bits - 1; i >= 0; --i) {
    result = FpSqr(result);
    if (e.Bit(i)) result = FpMul(result, a);
  }
  return result;
}

U256 FpInv(const U256& a) {
  U256 r = a >= kP ? U256::Mod(a, kP) : a;
  if (r.IsZero()) DieZeroInverse("FpInv");
  return BinInvMod(r, kP);
}

void FpInvMany(const U256* xs, size_t n, U256* out) {
  InvManyImpl(xs, n, out, kP, &FpMul, "FpInvMany");
}

Result<U256> FpSqrt(const U256& a) {
  // p = 3 (mod 4): sqrt(a) = a^((p+1)/4) when a is a quadratic residue.
  // (p+1) wraps mod 2^256, so compute (p-3)/4 + 1 == (p+1)/4 instead.
  U256 exp = (kP - U256(3)).Shr(2) + U256(1);
  U256 root = FpPow(a, exp);
  if (FpSqr(root) != U256::Mod(a, kP)) {
    return Status::Verification("no square root exists mod p");
  }
  return root;
}

U256 FnAdd(const U256& a, const U256& b) { return AddMod(a, b, kN); }
U256 FnSub(const U256& a, const U256& b) { return SubMod(a, b, kN); }

U256 FnMul(const U256& a, const U256& b) {
  return ReduceWide(U256::MulWide(a, b), kN, kCn);
}

U256 FnInv(const U256& a) {
  U256 r = a >= kN ? U256::Mod(a, kN) : a;
  if (r.IsZero()) DieZeroInverse("FnInv");
  return BinInvMod(r, kN);
}

void FnInvMany(const U256* xs, size_t n, U256* out) {
  InvManyImpl(xs, n, out, kN, &FnMul, "FnInvMany");
}

U256 FnReduce(const U256& a) {
  U256 r = a;
  while (r >= kN) r = r - kN;
  return r;
}

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
  U256 lhs = FpSqr(p.y);
  U256 rhs = FpAdd(FpMul(FpSqr(p.x), p.x), kCurveB);
  return lhs == rhs;
}

AffinePoint Add(const AffinePoint& a, const AffinePoint& b) {
  return FromJacobian(JAdd(ToJacobian(a), ToJacobian(b)));
}

AffinePoint Double(const AffinePoint& a) {
  return FromJacobian(JDouble(ToJacobian(a)));
}

AffinePoint Negate(const AffinePoint& a) { return NegateAffine(a); }

namespace reference {

AffinePoint ScalarMul(const AffinePoint& p, const U256& k_in) {
  U256 k = FnReduce(k_in);
  if (k.IsZero() || p.infinity) return AffinePoint::Infinity();
  Jacobian base = ToJacobian(p);
  Jacobian result = Jacobian::Infinity();
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
  Jacobian result = Jacobian::Infinity();
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
  std::vector<Jacobian> accs(n, Jacobian::Infinity());
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
  U256 rhs = FpAdd(FpMul(FpSqr(x), x), kCurveB);
  WEDGE_ASSIGN_OR_RETURN(U256 y, FpSqrt(rhs));
  if (y.Bit(0) != odd_y) y = FpSub(U256::Zero(), y);
  AffinePoint p;
  p.x = x;
  p.y = y;
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
