// Field and scalar oracle for secp256k1: every public mod-p and mod-n
// operation against u256.cc's generic AddMod/SubMod/MulMod/PowMod/InvMod,
// which share no code with the 5x52-bit lazy field or the mod-n fold.
// Both EC backends run on that one field, so ec_equiv_test cannot catch a
// field bug; this test does. Inputs: a boundary corpus (0, 1, 2, p-1,
// p-2, p-0x1000003D1, n-1, 2^255, 2^256-1, p, n, and every value whose
// 52-bit limbs are all ones or all zeros) crossed with itself, plus 100k
// seeded pairs; the unary ops take the corpus and 100k seeded values. The lazy kernels are also fed the largest magnitude the group law
// may pass them, through the internal:: hooks.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "crypto/secp256k1.h"
#include "crypto/u256.h"

namespace wedge {
namespace secp256k1 {
namespace {

constexpr size_t kSeededPairs = 100000;
// How many leading corpus values also meet the Fermat-ladder InvMod and
// PowMod (each ~1000 generic multiplications): the boundary corpus and
// a few seeded values.
constexpr size_t kLadderPrefix = 64;
constexpr uint64_t kLimb52 = (1ULL << 52) - 1;
constexpr uint64_t kLimb48 = (1ULL << 48) - 1;

std::vector<U256> BoundaryCorpus() {
  const U256& p = FieldPrime();
  const U256& n = GroupOrder();
  std::vector<U256> out = {
      U256::Zero(),          U256::One(),           U256(2),
      p - U256(1),           p - U256(2),           p - U256(0x1000003D1),
      n - U256(1),           U256::One().Shl(255),  U256::Max(),
      p,                     n,
  };
  // Each of the five 52-bit limbs (48 bits on top) all ones or all zeros.
  for (int mask = 0; mask < 32; ++mask) {
    U256 v;
    for (int limb = 0; limb < 5; ++limb) {
      if ((mask >> limb) & 1) {
        v = v | U256(limb == 4 ? kLimb48 : kLimb52).Shl(52 * limb);
      }
    }
    out.push_back(v);
  }
  return out;
}

/// a mod m for any 256-bit a, where m > 2^255 (p and n both are): at
/// most one subtraction, with the generic U256 operators.
U256 Reduce(const U256& a, const U256& m) { return a >= m ? a - m : a; }

struct Pair {
  U256 a;
  U256 b;
};

/// The boundary corpus crossed with itself, then seeded random pairs.
std::vector<Pair> Pairs() {
  const std::vector<U256> edge = BoundaryCorpus();
  std::vector<Pair> out;
  out.reserve(edge.size() * edge.size() + kSeededPairs);
  for (const U256& a : edge) {
    for (const U256& b : edge) out.push_back({a, b});
  }
  Rng rng(0xF1E1D);
  for (size_t i = 0; i < kSeededPairs; ++i) {
    out.push_back({U256(rng.Next(), rng.Next(), rng.Next(), rng.Next()),
                   U256(rng.Next(), rng.Next(), rng.Next(), rng.Next())});
  }
  return out;
}

TEST(FieldOracleTest, FieldOpsMatchGenericArithmetic) {
  const U256& p = FieldPrime();
  for (const Pair& pr : Pairs()) {
    const U256 a = Reduce(pr.a, p);
    const U256 b = Reduce(pr.b, p);
    ASSERT_EQ(FpAdd(pr.a, pr.b), AddMod(a, b, p))
        << pr.a.ToHex() << " " << pr.b.ToHex();
    ASSERT_EQ(FpSub(pr.a, pr.b), SubMod(a, b, p))
        << pr.a.ToHex() << " " << pr.b.ToHex();
    ASSERT_EQ(FpMul(pr.a, pr.b), MulMod(a, b, p))
        << pr.a.ToHex() << " " << pr.b.ToHex();
    ASSERT_EQ(FpSqr(pr.a), MulMod(a, a, p)) << pr.a.ToHex();
  }
}

TEST(FieldOracleTest, ScalarOpsMatchGenericArithmetic) {
  const U256& n = GroupOrder();
  for (const Pair& pr : Pairs()) {
    const U256 a = Reduce(pr.a, n);
    const U256 b = Reduce(pr.b, n);
    ASSERT_EQ(FnReduce(pr.a), a) << pr.a.ToHex();
    ASSERT_EQ(FnAdd(pr.a, pr.b), AddMod(a, b, n))
        << pr.a.ToHex() << " " << pr.b.ToHex();
    ASSERT_EQ(FnSub(pr.a, pr.b), SubMod(a, b, n))
        << pr.a.ToHex() << " " << pr.b.ToHex();
    ASSERT_EQ(FnMul(pr.a, pr.b), MulMod(a, b, n))
        << pr.a.ToHex() << " " << pr.b.ToHex();
  }
}

/// Values for the inversion and square-root checks: the boundary corpus,
/// then seeded ones.
std::vector<U256> UnaryCorpus() {
  std::vector<U256> out = BoundaryCorpus();
  Rng rng(0x1A7E);
  for (size_t i = 0; i < kSeededPairs; ++i) {
    out.push_back(U256(rng.Next(), rng.Next(), rng.Next(), rng.Next()));
  }
  return out;
}

// The inverse is unique, so x * inv == 1 under the generic MulMod pins
// it; the slower Fermat InvMod is compared directly on a prefix.
TEST(FieldOracleTest, InversesMatchGenericArithmetic) {
  const U256& p = FieldPrime();
  const U256& n = GroupOrder();
  const std::vector<U256> xs = UnaryCorpus();
  for (size_t i = 0; i < xs.size(); ++i) {
    const U256 xp = Reduce(xs[i], p);
    if (!xp.IsZero()) {
      const U256 inv = FpInv(xs[i]);
      ASSERT_LT(inv, p) << xs[i].ToHex();
      ASSERT_EQ(MulMod(xp, inv, p), U256::One()) << xs[i].ToHex();
      if (i < kLadderPrefix) {
        ASSERT_EQ(inv, InvMod(xp, p)) << xs[i].ToHex();
      }
    }
    const U256 xn = Reduce(xs[i], n);
    if (!xn.IsZero()) {
      const U256 inv = FnInv(xs[i]);
      ASSERT_LT(inv, n) << xs[i].ToHex();
      ASSERT_EQ(MulMod(xn, inv, n), U256::One()) << xs[i].ToHex();
      if (i < kLadderPrefix) {
        ASSERT_EQ(inv, InvMod(xn, n)) << xs[i].ToHex();
      }
    }
  }
}

TEST(FieldOracleTest, BatchInversesMatchSingles) {
  const U256& p = FieldPrime();
  const U256& n = GroupOrder();
  std::vector<U256> fp;
  std::vector<U256> fn;
  for (const U256& x : UnaryCorpus()) {
    if (!Reduce(x, p).IsZero()) fp.push_back(x);
    if (!Reduce(x, n).IsZero()) fn.push_back(x);
  }
  // Batches of varied sizes, so every position of the prefix-product
  // trick meets edge values.
  for (size_t begin = 0, size = 1; begin < fp.size(); begin += size, ++size) {
    const size_t len = std::min(size, fp.size() - begin);
    std::vector<U256> out(len);
    FpInvMany(fp.data() + begin, len, out.data());
    for (size_t i = 0; i < len; ++i) {
      ASSERT_EQ(out[i], FpInv(fp[begin + i])) << fp[begin + i].ToHex();
    }
  }
  for (size_t begin = 0, size = 1; begin < fn.size(); begin += size, ++size) {
    const size_t len = std::min(size, fn.size() - begin);
    std::vector<U256> out(len);
    FnInvMany(fn.data() + begin, len, out.data());
    for (size_t i = 0; i < len; ++i) {
      ASSERT_EQ(out[i], FnInv(fn[begin + i])) << fn[begin + i].ToHex();
    }
  }
}

// FpSqrt returns a^((p+1)/4). A root r passes iff r*r == a under the
// generic MulMod; for p = 3 mod 4, exactly one of a and -a is a square
// (a != 0), so a failure must come with a root of -a. PowMod checks the
// exact root on a prefix.
TEST(FieldOracleTest, SquareRootsMatchGenericArithmetic) {
  const U256& p = FieldPrime();
  const U256 exp = (p - U256(3)).Shr(2) + U256(1);  // (p+1)/4
  const std::vector<U256> xs = UnaryCorpus();
  for (size_t i = 0; i < xs.size(); ++i) {
    const U256 a = Reduce(xs[i], p);
    const Result<U256> root = FpSqrt(xs[i]);
    if (root.ok()) {
      ASSERT_LT(root.value(), p);
      ASSERT_EQ(MulMod(root.value(), root.value(), p), a) << xs[i].ToHex();
    } else {
      ASSERT_FALSE(a.IsZero());
      ASSERT_TRUE(FpSqrt(SubMod(U256::Zero(), a, p)).ok()) << xs[i].ToHex();
    }
    if (i < kLadderPrefix) {
      const U256 candidate = PowMod(a, exp, p);
      ASSERT_EQ(root.ok(), MulMod(candidate, candidate, p) == a);
      if (root.ok()) {
        ASSERT_EQ(root.value(), candidate) << xs[i].ToHex();
      }
    }
  }
}

// --- Lazy-magnitude kernels ---

using internal::FieldLimbs;

/// sum(l[i] * 2^(52i)) mod p by Horner's rule on the generic helpers.
U256 LimbsModP(const FieldLimbs& l) {
  const U256& p = FieldPrime();
  const U256 radix = U256::One().Shl(52);
  U256 acc;
  for (int i = 4; i >= 0; --i) {
    acc = AddMod(MulMod(acc, radix, p), U256::Mod(U256(l[i]), p), p);
  }
  return acc;
}

/// Limb vectors of magnitude m: the largest, p's own limbs scaled to
/// the bound, and seeded ones below it.
std::vector<FieldLimbs> LazyCorpus(int m, Rng& rng) {
  const FieldLimbs max = internal::FieldMaxLimbs(m);
  std::vector<FieldLimbs> out = {max, FieldLimbs{}};
  // k*p spelled limb by limb for every k the bound admits: all 0 mod p.
  const FieldLimbs p_limbs = {0xFFFFEFFFFFC2FULL, kLimb52, kLimb52, kLimb52,
                              kLimb48};
  for (uint64_t k = 1; k <= 2 * static_cast<uint64_t>(m); ++k) {
    FieldLimbs v;
    for (int i = 0; i < 5; ++i) v[i] = p_limbs[i] * k;
    out.push_back(v);
  }
  for (int i = 0; i < 2000; ++i) {
    FieldLimbs v;
    for (int j = 0; j < 5; ++j) {
      // Mostly full-width draws, with every fourth limb at its bound.
      v[j] = (rng.Next() & 3) == 0 ? max[j] : rng.Next() % (max[j] + 1);
    }
    out.push_back(v);
  }
  return out;
}

TEST(FieldOracleTest, LazyKernelsHoldAtTheLargestMagnitude) {
  const U256& p = FieldPrime();
  const U256 half = (p + U256::One()).Shr(1);  // 1/2 mod p.
  const int max_m = internal::FieldMaxMagnitude();
  ASSERT_GE(max_m, 1);
  Rng rng(0x1A2B);
  for (int m = 1; m <= max_m; ++m) {
    const std::vector<FieldLimbs> corpus = LazyCorpus(m, rng);
    const FieldLimbs top = internal::FieldMaxLimbs(m);
    const U256 top_mod = LimbsModP(top);
    for (const FieldLimbs& a : corpus) {
      const U256 am = LimbsModP(a);
      ASSERT_EQ(internal::FieldNormalizeLimbs(a), am) << "m = " << m;
      ASSERT_EQ(internal::FieldIsZeroLimbs(a), am.IsZero()) << "m = " << m;
      ASSERT_EQ(internal::FieldSqrLimbs(a), MulMod(am, am, p)) << "m = " << m;
      ASSERT_EQ(internal::FieldMulLimbs(a, top), MulMod(am, top_mod, p))
          << "m = " << m;
      ASSERT_EQ(internal::FieldMulLimbs(top, a), MulMod(top_mod, am, p))
          << "m = " << m;
      ASSERT_EQ(internal::FieldNegateLimbs(a, m), SubMod(U256::Zero(), am, p))
          << "m = " << m;
      ASSERT_EQ(internal::FieldHalfLimbs(a), MulMod(am, half, p))
          << "m = " << m;
    }
  }
}

}  // namespace
}  // namespace secp256k1
}  // namespace wedge
