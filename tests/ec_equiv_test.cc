// Cross-backend equivalence suite for the secp256k1 fast path: every
// table/wNAF/GLV shortcut must be point-identical to the naive
// double-and-add reference, and the batch ECDSA APIs byte-identical to
// their scalar counterparts (RFC 6979 pins every nonce, so equality is
// exact, not statistical). Runs regardless of which backend the
// dispatcher picked; check.sh reruns it with WEDGE_EC_BACKEND=reference
// and CI also builds with -DWEDGE_DISABLE_ECPRECOMP=ON.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.h"
#include "crypto/ec_backend.h"
#include "crypto/ecdsa.h"
#include "crypto/secp256k1.h"

namespace wedge {
namespace secp256k1 {
namespace {

/// Pins the fast backend for a test body when it is compiled in;
/// restores the previous backend on destruction.
class ScopedBackend {
 public:
  explicit ScopedBackend(EcBackend backend)
      : previous_(ActiveEcBackend()),
        active_(SetEcBackendForTest(backend)) {}
  ~ScopedBackend() { SetEcBackendForTest(previous_); }
  bool active() const { return active_; }

 private:
  EcBackend previous_;
  bool active_;
};

std::vector<U256> SeededCorpus(size_t count, uint64_t seed) {
  const U256& n = GroupOrder();
  std::vector<U256> out;
  out.reserve(count + 24);
  // Edge cases first: identity-adjacent scalars, order boundaries, and
  // values exercising the mod-n reduction documented on ScalarMul.
  out.push_back(U256::Zero());
  out.push_back(U256::One());
  out.push_back(U256(2));
  out.push_back(n - U256::One());   // n - 1
  out.push_back(n);                 // == 0 after reduction
  out.push_back(n + U256::One());   // == 1 after reduction
  out.push_back(U256::One().Shl(255));  // 2^255
  out.push_back(U256::Max());       // 2^256 - 1
  out.push_back(U256::One().Shl(128));  // GLV split boundary region
  out.push_back(n.Shr(1));
  // Carry-heavy scalars for the signed-digit comb: bytes at and around
  // the 128 digit boundary, and a carry out of the top byte.
  auto every_byte = [](uint64_t byte) {
    const uint64_t limb = byte * 0x0101010101010101ULL;
    return U256(limb, limb, limb, limb);
  };
  out.push_back(every_byte(0x80));
  out.push_back(every_byte(0x81));
  out.push_back(every_byte(0x7F));
  out.push_back(U256(0x80).Shl(248));  // 0x80 in the top byte only.
  out.push_back(U256(128));
  out.push_back(U256(129));
  out.push_back(U256(255));
  out.push_back(U256(256));
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    out.push_back(U256(rng.Next(), rng.Next(), rng.Next(), rng.Next()));
  }
  return out;
}

TEST(EcEquivTest, ScalarMulBaseMatchesReferenceAcrossCorpus) {
  ScopedBackend fast(EcBackend::kFast);
  if (!fast.active()) GTEST_SKIP() << "fast backend compiled out";
  // 10k scalars: the comb covers every window/digit combination many
  // times over, and the edge cases pin reduction semantics.
  for (const U256& k : SeededCorpus(10000, 0xEC0FFEE)) {
    ASSERT_EQ(ScalarMulBase(k), reference::ScalarMulBase(k))
        << "k = " << k.ToHex();
  }
}

TEST(EcEquivTest, ScalarMulMatchesReference) {
  ScopedBackend fast(EcBackend::kFast);
  if (!fast.active()) GTEST_SKIP() << "fast backend compiled out";
  AffinePoint p = reference::ScalarMulBase(U256(0xABCDEF));
  for (const U256& k : SeededCorpus(300, 0xBEEF)) {
    ASSERT_EQ(ScalarMul(p, k), reference::ScalarMul(p, k))
        << "k = " << k.ToHex();
  }
  // Infinity in, infinity out.
  EXPECT_TRUE(ScalarMul(AffinePoint::Infinity(), U256(7)).infinity);
}

TEST(EcEquivTest, ScalarMulReducesScalarModN) {
  // Documented on ScalarMul: k is ALWAYS reduced mod n first.
  AffinePoint p = ScalarMulBase(U256(0x1234));
  EXPECT_EQ(ScalarMul(p, GroupOrder() + U256(5)), ScalarMul(p, U256(5)));
  EXPECT_TRUE(ScalarMul(p, GroupOrder()).infinity);
  EXPECT_EQ(ScalarMulBase(GroupOrder() + U256(5)), ScalarMulBase(U256(5)));
}

TEST(EcEquivTest, DoubleScalarMulBaseMatchesReference) {
  ScopedBackend fast(EcBackend::kFast);
  if (!fast.active()) GTEST_SKIP() << "fast backend compiled out";
  AffinePoint p = reference::ScalarMulBase(U256(0x5EED));
  std::vector<U256> corpus = SeededCorpus(200, 0xD00D);
  for (size_t i = 0; i + 1 < corpus.size(); i += 2) {
    const U256& u1 = corpus[i];
    const U256& u2 = corpus[i + 1];
    ASSERT_EQ(DoubleScalarMulBase(u1, p, u2),
              reference::DoubleScalarMulBase(u1, p, u2))
        << "u1 = " << u1.ToHex() << " u2 = " << u2.ToHex();
  }
}

TEST(EcEquivTest, GlvSplitReassemblesAndIsHalfWidth) {
  const U256& n = GroupOrder();
  const U256& lambda = internal::GlvLambda();
  for (const U256& k : SeededCorpus(2000, 0x617F)) {
    U256 k1, k2;
    bool neg1 = false, neg2 = false;
    internal::SplitScalarGlv(k, &k1, &neg1, &k2, &neg2);
    // Magnitudes are genuinely half-width.
    EXPECT_LE(k1.BitLength(), 132) << "k = " << k.ToHex();
    EXPECT_LE(k2.BitLength(), 132) << "k = " << k.ToHex();
    // (±k1) + (±k2)*lambda == k (mod n).
    U256 t1 = neg1 ? FnSub(U256::Zero(), k1) : k1;
    U256 t2 = neg2 ? FnSub(U256::Zero(), k2) : k2;
    EXPECT_EQ(FnAdd(t1, FnMul(t2, lambda)), FnReduce(k))
        << "k = " << k.ToHex();
  }
}

TEST(EcEquivTest, GlvEndomorphismActsAsLambda) {
  // phi(P) = (beta*x, y) must equal lambda*P — the identity the verify
  // loop's phi-table relies on.
  AffinePoint p = ScalarMulBase(U256(0xFEED));
  AffinePoint phi;
  phi.x = FpMul(p.x, internal::GlvBeta());
  phi.y = p.y;
  phi.infinity = false;
  EXPECT_TRUE(IsOnCurve(phi));
  EXPECT_EQ(phi, ScalarMul(p, internal::GlvLambda()));
}

TEST(EcEquivTest, ScalarMulBaseManyMatchesSingles) {
  std::vector<U256> ks = SeededCorpus(500, 0xBA7C4);
  std::vector<AffinePoint> batch(ks.size());
  ScalarMulBaseMany(ks.data(), ks.size(), batch.data());
  for (size_t i = 0; i < ks.size(); ++i) {
    ASSERT_EQ(batch[i], ScalarMulBase(ks[i])) << "i = " << i;
  }
}

TEST(EcEquivTest, BatchInversionMatchesSingles) {
  Rng rng(0x1412);
  std::vector<U256> xs;
  for (int i = 0; i < 300; ++i) {
    U256 x = U256::Mod(U256(rng.Next(), rng.Next(), rng.Next(), rng.Next()),
                       FieldPrime());
    if (!x.IsZero()) xs.push_back(x);
  }
  std::vector<U256> inv(xs.size());
  FpInvMany(xs.data(), xs.size(), inv.data());
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(inv[i], FpInv(xs[i])) << "i = " << i;
  }
  // Aliasing form (out == xs) must give the same answers.
  std::vector<U256> aliased = xs;
  FpInvMany(aliased.data(), aliased.size(), aliased.data());
  EXPECT_EQ(aliased, inv);

  std::vector<U256> ninv(xs.size());
  FnInvMany(xs.data(), xs.size(), ninv.data());
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(ninv[i], FnInv(xs[i])) << "i = " << i;
  }
}

TEST(EcEquivDeathTest, ZeroInversionAborts) {
  // FnInv/FpInv on zero is always a caller bug: the contract is a hard
  // abort, never a garbage inverse.
  EXPECT_DEATH(FpInv(U256::Zero()), "zero input");
  EXPECT_DEATH(FnInv(U256::Zero()), "zero input");
  EXPECT_DEATH(FnInv(GroupOrder()), "zero input");
  U256 xs[2] = {U256(3), U256::Zero()};
  U256 out[2];
  EXPECT_DEATH(FpInvMany(xs, 2, out), "zero input");
}

TEST(EcEquivTest, SignManyByteIdenticalToSingles) {
  KeyPair kp = KeyPair::FromSeed(77);
  std::vector<Hash256> hashes;
  Rng rng(0x51671);
  for (int i = 0; i < 512; ++i) {
    Hash256 h;
    for (auto& b : h) b = static_cast<uint8_t>(rng.Next());
    hashes.push_back(h);
  }
  std::vector<EcdsaSignature> batch =
      EcdsaSignMany(kp.private_key(), hashes);
  ASSERT_EQ(batch.size(), hashes.size());
  for (size_t i = 0; i < hashes.size(); ++i) {
    EcdsaSignature single = EcdsaSign(kp.private_key(), hashes[i]);
    ASSERT_EQ(batch[i].Serialize(), single.Serialize()) << "i = " << i;
  }
}

TEST(EcEquivTest, SignManyMatchesAcrossBackends) {
  ScopedBackend fast(EcBackend::kFast);
  if (!fast.active()) GTEST_SKIP() << "fast backend compiled out";
  KeyPair kp = KeyPair::FromSeed(99);
  std::vector<Hash256> hashes;
  for (int i = 0; i < 32; ++i) {
    Hash256 h{};
    h[0] = static_cast<uint8_t>(i);
    h[31] = 0xA5;
    hashes.push_back(h);
  }
  std::vector<EcdsaSignature> fast_sigs =
      EcdsaSignMany(kp.private_key(), hashes);
  {
    ScopedBackend ref(EcBackend::kReference);
    std::vector<EcdsaSignature> ref_sigs =
        EcdsaSignMany(kp.private_key(), hashes);
    for (size_t i = 0; i < hashes.size(); ++i) {
      ASSERT_EQ(fast_sigs[i].Serialize(), ref_sigs[i].Serialize())
          << "i = " << i;
    }
  }
}

// --- Fixed-key verification (VerifyRecoverableMany) ---
// Its verdict must be exactly RecoverSigner(h, sig) == address(Q) for
// every input, valid or not; each case below targets one branch of the
// recovery predicate.

/// What the recovery path says about (hash, sig) for the key `q`.
bool RecoversTo(const Hash256& h, const EcdsaSignature& sig,
                const AffinePoint& q) {
  return RecoverSigner(h, sig) == AddressFromPublicKey(q);
}

/// A signature whose R has x >= n, so its recovery id has bit 1 set and
/// names x = r + n. A real signer produces one with probability ~2^-128,
/// so it is built backwards: pick R, s and the hash, and take the key
/// that recovery yields as the signer's.
struct OverflowCase {
  AffinePoint key;
  Hash256 hash{};
  EcdsaSignature sig;
};

OverflowCase MakeOverflowCase(uint64_t seed) {
  const U256& n = GroupOrder();
  Rng rng(seed);
  OverflowCase c;
  U256 x = n + U256(rng.Next() & 0xFFFF);
  bool odd = (rng.Next() & 1) != 0;
  while (!LiftX(x, odd).ok()) x = x + U256::One();
  c.sig.r = x - n;
  c.sig.s = FnReduce(U256(rng.Next(), rng.Next(), rng.Next(), 1));
  c.sig.recovery_id = static_cast<uint8_t>(2 | (odd ? 1 : 0));
  for (auto& b : c.hash) b = static_cast<uint8_t>(rng.Next());
  c.key = EcdsaRecover(c.hash, c.sig).value();
  return c;
}

/// A signature whose id bit 1 makes r + n wrap past 2^256. Recovery
/// rejects it, although the wrapped value r + n - 2^256 is the x of a
/// point R; `key` is what recovery would return if it let the wrap
/// through, so a verifier that misses the wrap accepts the signature.
OverflowCase MakeWrappingCase(uint64_t seed) {
  Rng rng(seed);
  OverflowCase c;
  U256 x(rng.Next(), rng.Next(), rng.Next(), rng.Next() >> 2);
  bool odd = (rng.Next() & 1) != 0;
  while (!LiftX(x, odd).ok()) x = x + U256::One();
  c.sig.r = x + OrderC();  // r + n = x + 2^256.
  c.sig.s = FnReduce(U256(rng.Next(), rng.Next(), rng.Next(), 1));
  c.sig.recovery_id = static_cast<uint8_t>(2 | (odd ? 1 : 0));
  for (auto& b : c.hash) b = static_cast<uint8_t>(rng.Next());
  const U256 z = FnReduce(U256::FromHash(c.hash));
  const U256 rinv = FnInv(c.sig.r);
  c.key = DoubleScalarMulBase(FnMul(FnSub(U256::Zero(), z), rinv),
                              LiftX(x, odd).value(),
                              FnMul(c.sig.s, rinv));
  return c;
}

/// The cases, cycled over a key's messages by index.
enum class SigCase {
  kValid,
  kParityFlipped,
  kBit1Set,          // Names r + n, which is >= p for a real r.
  kHighS,            // s -> n - s, same id: R's mirror, wrong parity.
  kHighSParityFlipped,  // s -> n - s, id bit 0 flipped: recovery accepts.
  kHashBitFlipped,
  kRZero,
  kSZero,
  kREqualsN,
  kSEqualsN,
  kRAboveN,
  kSAboveN,
  kOtherKey,
  kForeignOverflow,  // A valid r + n signature, by some other key.
  kCount,
};

struct Item {
  SigCase kind;
  Hash256 hash{};
  EcdsaSignature sig;
};

/// 256 distinct messages signed by `kp`, each mutated by its case, plus
/// the two valid signatures over hashes that are 0 mod n (u1 = 0).
std::vector<Item> KeyCorpus(const KeyPair& kp, const KeyPair& other,
                            uint64_t seed) {
  const U256& n = GroupOrder();
  Rng rng(seed);
  const OverflowCase foreign = MakeOverflowCase(seed ^ 0x0F);
  std::vector<Item> items;
  for (int i = 0; i < 256; ++i) {
    Item it;
    it.kind = static_cast<SigCase>(i % static_cast<int>(SigCase::kCount));
    for (auto& b : it.hash) b = static_cast<uint8_t>(rng.Next());
    it.sig = EcdsaSign(kp.private_key(), it.hash);
    switch (it.kind) {
      case SigCase::kValid: break;
      case SigCase::kParityFlipped: it.sig.recovery_id ^= 1; break;
      case SigCase::kBit1Set: it.sig.recovery_id |= 2; break;
      case SigCase::kHighS: it.sig.s = n - it.sig.s; break;
      case SigCase::kHighSParityFlipped:
        it.sig.s = n - it.sig.s;
        it.sig.recovery_id ^= 1;
        break;
      case SigCase::kHashBitFlipped: it.hash[i % 32] ^= 0x10; break;
      case SigCase::kRZero: it.sig.r = U256::Zero(); break;
      case SigCase::kSZero: it.sig.s = U256::Zero(); break;
      case SigCase::kREqualsN: it.sig.r = n; break;
      case SigCase::kSEqualsN: it.sig.s = n; break;
      case SigCase::kRAboveN: it.sig.r = n + U256(i); break;
      case SigCase::kSAboveN: it.sig.s = U256::Max(); break;
      case SigCase::kOtherKey:
        it.sig = EcdsaSign(other.private_key(), it.hash);
        break;
      case SigCase::kForeignOverflow:
        it.hash = foreign.hash;
        it.sig = foreign.sig;
        break;
      case SigCase::kCount: break;
    }
    items.push_back(it);
  }
  Hash256 zero{};
  Hash256 order{};
  Bytes nb = n.ToBytesBE();
  std::copy(nb.begin(), nb.end(), order.begin());
  for (const Hash256& h : {zero, order}) {
    items.push_back({SigCase::kValid, h, EcdsaSign(kp.private_key(), h)});
  }
  return items;
}

std::vector<uint8_t> VerifyItems(const AffinePoint& q,
                                 const std::vector<Item>& items) {
  std::vector<Hash256> hashes;
  std::vector<EcdsaSignature> sigs;
  for (const Item& it : items) {
    hashes.push_back(it.hash);
    sigs.push_back(it.sig);
  }
  FixedPointTable table(q);
  std::vector<uint8_t> ok(items.size(), 0xEE);
  VerifyRecoverableMany(table, hashes.data(), sigs.data(), items.size(),
                        ok.data());
  return ok;
}

TEST(EcEquivTest, FixedPointTableMatchesReference) {
  ScopedBackend fast(EcBackend::kFast);
  if (!fast.active()) GTEST_SKIP() << "fast backend compiled out";
  AffinePoint q = reference::ScalarMulBase(U256(0x7AB1E));
  FixedPointTable table(q);
  // u2 runs through the corpus backwards, so the edge scalars meet
  // random partners on both sides.
  std::vector<U256> u1s = SeededCorpus(300, 0x7AB);
  std::vector<U256> u2s(u1s.rbegin(), u1s.rend());
  std::vector<AffinePoint> out(u1s.size());
  table.DoubleScalarMulBaseMany(u1s.data(), u2s.data(), u1s.size(),
                                out.data());
  for (size_t i = 0; i < u1s.size(); ++i) {
    ASSERT_EQ(out[i], reference::DoubleScalarMulBase(u1s[i], q, u2s[i]))
        << "u1 = " << u1s[i].ToHex() << " u2 = " << u2s[i].ToHex();
  }
  // A sum that cancels to the identity: u1 = -d, u2 = 1 for Q = d*G.
  U256 u1 = FnSub(U256::Zero(), U256(0x7AB1E));
  U256 u2 = U256::One();
  AffinePoint sum;
  table.DoubleScalarMulBaseMany(&u1, &u2, 1, &sum);
  EXPECT_TRUE(sum.infinity);
}

TEST(EcEquivTest, VerifyRecoverableManyEqualsRecoveryPredicate) {
  // 8 keys x (256 mutated messages + 2 with u1 = 0), one mixed batch per
  // key: every item gets its own verdict, and it is recovery's.
  std::vector<std::vector<uint8_t>> fast_verdicts;
  std::vector<std::vector<Item>> corpora;
  std::vector<KeyPair> keys;
  for (uint64_t k = 0; k < 8; ++k) {
    KeyPair kp = KeyPair::FromSeed(500 + k);
    KeyPair other = KeyPair::FromSeed(600 + k);
    std::vector<Item> items = KeyCorpus(kp, other, 0xC0DE + k);
    std::vector<uint8_t> ok = VerifyItems(kp.public_key(), items);
    ASSERT_EQ(ok.size(), items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      const Item& it = items[i];
      ASSERT_LE(ok[i], 1) << "i = " << i;
      EXPECT_EQ(ok[i] == 1, RecoversTo(it.hash, it.sig, kp.public_key()))
          << "key " << k << " item " << i << " case "
          << static_cast<int>(it.kind);
      // Each case lands on the side of the predicate it was built for.
      const bool accept = it.kind == SigCase::kValid ||
                          it.kind == SigCase::kHighSParityFlipped;
      EXPECT_EQ(ok[i] == 1, accept)
          << "key " << k << " item " << i << " case "
          << static_cast<int>(it.kind);
    }
    keys.push_back(kp);
    corpora.push_back(std::move(items));
    fast_verdicts.push_back(std::move(ok));
  }

  // The same corpus through the reference backend: identical verdicts.
  ScopedBackend ref(EcBackend::kReference);
  ASSERT_TRUE(ref.active());
  for (size_t k = 0; k < keys.size(); ++k) {
    EXPECT_EQ(VerifyItems(keys[k].public_key(), corpora[k]),
              fast_verdicts[k])
        << "key " << k;
  }
}

TEST(EcEquivTest, VerifyRecoverableManyNamesRPlusN) {
  // Recovery id bit 1 names x = r + n: the verifier must accept such a
  // signature for its key, and reject one where r + n wraps past 2^256,
  // on both backends.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    OverflowCase c = MakeOverflowCase(seed);
    ASSERT_TRUE(RecoversTo(c.hash, c.sig, c.key));
    std::vector<Item> items(3, Item{SigCase::kValid, c.hash, c.sig});
    items[1].sig.recovery_id ^= 1;  // The mirror of R.
    items[2].sig.recovery_id ^= 2;  // Names x = r instead.
    const std::vector<uint8_t> expect = {1, 0, 0};
    for (size_t i = 0; i < items.size(); ++i) {
      ASSERT_EQ(RecoversTo(items[i].hash, items[i].sig, c.key),
                expect[i] == 1)
          << "seed " << seed << " item " << i;
    }
    OverflowCase w = MakeWrappingCase(seed);
    const std::vector<Item> wrapping = {{SigCase::kValid, w.hash, w.sig}};
    ASSERT_FALSE(RecoversTo(w.hash, w.sig, w.key)) << "seed " << seed;

    EXPECT_EQ(VerifyItems(c.key, items), expect) << "seed " << seed;
    EXPECT_EQ(VerifyItems(w.key, wrapping), std::vector<uint8_t>{0})
        << "seed " << seed;
    ScopedBackend ref(EcBackend::kReference);
    EXPECT_EQ(VerifyItems(c.key, items), expect) << "seed " << seed;
    EXPECT_EQ(VerifyItems(w.key, wrapping), std::vector<uint8_t>{0})
        << "seed " << seed;
  }
}

TEST(EcEquivTest, RecoverConsistentAcrossBackends) {
  ScopedBackend fast(EcBackend::kFast);
  if (!fast.active()) GTEST_SKIP() << "fast backend compiled out";
  KeyPair kp = KeyPair::FromSeed(321);
  Hash256 h{};
  h[5] = 0x42;
  EcdsaSignature sig = EcdsaSign(kp.private_key(), h);
  auto fast_pub = EcdsaRecover(h, sig);
  ASSERT_TRUE(fast_pub.ok());
  {
    ScopedBackend ref(EcBackend::kReference);
    auto ref_pub = EcdsaRecover(h, sig);
    ASSERT_TRUE(ref_pub.ok());
    EXPECT_EQ(fast_pub.value(), ref_pub.value());
  }
  EXPECT_EQ(fast_pub.value(), kp.public_key());
}

}  // namespace
}  // namespace secp256k1
}  // namespace wedge
