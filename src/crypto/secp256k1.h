#ifndef WEDGEBLOCK_CRYPTO_SECP256K1_H_
#define WEDGEBLOCK_CRYPTO_SECP256K1_H_

#include <array>
#include <vector>

#include "crypto/u256.h"

namespace wedge {

/// secp256k1 curve constants and arithmetic: y^2 = x^3 + 7 over F_p.
/// This is the curve used by Ethereum accounts and signatures; the
/// Punishment smart contract's recoverSigner relies on it (Algorithm 2).
namespace secp256k1 {

/// Field prime p = 2^256 - 2^32 - 977.
const U256& FieldPrime();
/// Group order n.
const U256& GroupOrder();
/// 2^256 - p (used by the fast Solinas reduction).
const U256& FieldC();
/// 2^256 - n.
const U256& OrderC();

/// --- Field arithmetic mod p ---
/// Every input may be any 256-bit value (it is reduced mod p); every
/// result is the canonical residue in [0, p). Internally the field is a
/// 5x52-bit lazy-reduction element (DESIGN.md "EC fast path").
U256 FpAdd(const U256& a, const U256& b);
U256 FpSub(const U256& a, const U256& b);
U256 FpMul(const U256& a, const U256& b);
U256 FpSqr(const U256& a);
/// Inverse mod p (variable-time safegcd). Zero has no inverse: an input
/// that is 0 mod p aborts the process (it is always a caller bug, never
/// data-dependent — see DESIGN.md "EC fast path").
U256 FpInv(const U256& a);
/// Batch inversion mod p: out[i] = xs[i]^-1 via Montgomery's
/// simultaneous-inversion trick (one FpInv + 3 muls per element).
/// `out` may alias `xs`. Aborts on any zero input, like FpInv.
void FpInvMany(const U256* xs, size_t n, U256* out);
/// Square root mod p: a^((p+1)/4) (p = 3 mod 4), by a fixed addition
/// chain. Returns an error if a is not a square mod p.
Result<U256> FpSqrt(const U256& a);

/// --- Scalar arithmetic mod n ---
/// Inputs may be any 256-bit values; results are in [0, n).
U256 FnAdd(const U256& a, const U256& b);
U256 FnSub(const U256& a, const U256& b);
U256 FnMul(const U256& a, const U256& b);
/// Inverse mod n (variable-time safegcd); aborts on an input that is
/// 0 mod n (see FpInv).
U256 FnInv(const U256& a);
/// Batch inversion mod n (see FpInvMany). `out` may alias `xs`.
void FnInvMany(const U256* xs, size_t n, U256* out);
/// Reduces an arbitrary 256-bit value mod n.
U256 FnReduce(const U256& a);

/// Curve point in affine coordinates. `infinity` marks the identity.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = true;

  static AffinePoint Infinity() { return AffinePoint{}; }

  bool operator==(const AffinePoint& o) const {
    if (infinity || o.infinity) return infinity == o.infinity;
    return x == o.x && y == o.y;
  }
};

/// The generator point G.
const AffinePoint& Generator();

/// True iff the point satisfies the curve equation (or is the identity).
bool IsOnCurve(const AffinePoint& p);

/// Point addition / doubling / negation (affine API; internally Jacobian).
AffinePoint Add(const AffinePoint& a, const AffinePoint& b);
AffinePoint Double(const AffinePoint& a);
AffinePoint Negate(const AffinePoint& a);

/// k * P. The fast backend splits k with the GLV endomorphism into two
/// half-width scalars against P and phi(P) (width-5 wNAF, ~130
/// doublings), as the u2 half of DoubleScalarMulBase. `k` is ALWAYS
/// reduced mod n first, so ScalarMul(P, n + 5) == ScalarMul(P, 5) —
/// callers comparing scalars for equality must compare them mod n, not
/// as raw 256-bit values (pinned by tests/ec_equiv_test.cc).
/// Constant-time is NOT a goal of this simulation-oriented
/// implementation.
AffinePoint ScalarMul(const AffinePoint& p, const U256& k);

/// k * G via a precomputed signed 8-bit comb table for the generator
/// (lazily built, batch-normalized to affine): k recoded into 33 digits
/// in [-127, 128], one mixed addition per non-zero digit. `k` is reduced
/// mod n like ScalarMul.
AffinePoint ScalarMulBase(const U256& k);

/// Batch fixed-base multiplication: out[i] = ks[i] * G, amortizing the
/// Jacobian->affine normalization across the batch (one field inversion
/// total instead of one per point). Mirrors the Sha256Many batch shape.
void ScalarMulBaseMany(const U256* ks, size_t n, AffinePoint* out);

/// u1*G + u2*P in one interleaved pass (Shamir's trick); the fast
/// backend splits u2 via the GLV endomorphism into two half-width
/// scalars and u1 into 128-bit halves against a 2^128*G table, so only
/// ~130 doublings are needed. Used by ECDSA verification and recovery.
AffinePoint DoubleScalarMulBase(const U256& u1, const AffinePoint& p,
                                const U256& u2);

/// A finite curve point with both coordinates in the field layer's
/// 5x52-bit limb form at magnitude 1 (DESIGN.md "EC fast path"): limb i
/// weighs 2^(52i), limbs 0-3 are below 2^52 and limb 4 below 2^49. The
/// entry type of every precomputed table, so a lookup feeds the group
/// law with no conversion.
struct TablePoint {
  std::array<uint64_t, 5> x;
  std::array<uint64_t, 5> y;
};

/// Precomputed multiples of one fixed point Q, for evaluating many
/// u1*G + u2*Q against the same Q (see DESIGN.md "Fixed-key
/// verification"). On the fast backend it holds d * 2^(6j) * Q for
/// d in [1, 32] and j in [0, 23): 736 points (~58 KiB), built with one
/// batch inversion. The backend active at construction decides how it
/// evaluates; under the reference backend no table is built and every
/// product goes through reference::DoubleScalarMulBase.
class FixedPointTable {
 public:
  /// `q` must be a finite curve point.
  explicit FixedPointTable(const AffinePoint& q);

  /// out[i] = u1s[i]*G + u2s[i]*Q for i in [0, n), point-identical
  /// to DoubleScalarMulBase. u1 goes through the comb for G and u2's GLV
  /// halves through this table (the phi half scales x by beta at
  /// lookup), so there are no doublings; the n results share one batch
  /// normalization.
  void DoubleScalarMulBaseMany(const U256* u1s, const U256* u2s, size_t n,
                               AffinePoint* out) const;

  /// Bytes the table occupies, its multiples included.
  size_t MemoryBytes() const {
    return sizeof(*this) + multiples_.capacity() * sizeof(TablePoint);
  }

 private:
  AffinePoint q_;
  /// multiples_[j * 32 + d - 1] = d * 2^(6j) * q_; empty under the
  /// reference backend.
  std::vector<TablePoint> multiples_;
};

/// Naive double-and-add implementations with no precomputation: the
/// equivalence oracles for the fast paths above, and the code the
/// reference backend (WEDGE_EC_BACKEND=reference or
/// -DWEDGE_DISABLE_ECPRECOMP=ON) routes every public entry point to.
namespace reference {
AffinePoint ScalarMul(const AffinePoint& p, const U256& k);
AffinePoint ScalarMulBase(const U256& k);
AffinePoint DoubleScalarMulBase(const U256& u1, const AffinePoint& p,
                                const U256& u2);
}  // namespace reference

/// Test hooks for the GLV decomposition and the field layer (see
/// DESIGN.md "EC fast path").
namespace internal {
/// Splits FnReduce(k) as k1 + k2*lambda (mod n) where the returned
/// magnitudes are < 2^129 and neg1/neg2 carry the component signs:
/// k == (neg1 ? -k1 : k1) + (neg2 ? -k2 : k2) * lambda (mod n).
void SplitScalarGlv(const U256& k, U256* k1, bool* neg1, U256* k2,
                    bool* neg2);
/// lambda: the cube root of unity mod n with phi(x, y) = (beta*x, y)
/// satisfying phi(P) = lambda*P.
const U256& GlvLambda();
const U256& GlvBeta();

/// A field element's raw 5x52-bit limbs in lazy form: the value is
/// sum(limb[i] * 2^(52i)), which may exceed p.
using FieldLimbs = std::array<uint64_t, 5>;
/// The largest magnitude the field layer lets any group-law formula feed
/// into a multiply, a square or a normalization (its types check every
/// call against it at compile time).
int FieldMaxMagnitude();
/// The largest limbs a value of magnitude m may hold: 2m(2^52 - 1) in
/// limbs 0-3 and 2m(2^48 - 1) in limb 4.
FieldLimbs FieldMaxLimbs(int m);
/// The field kernels on raw limbs (inputs up to FieldMaxMagnitude), each
/// result fully reduced mod p.
U256 FieldMulLimbs(const FieldLimbs& a, const FieldLimbs& b);
U256 FieldSqrLimbs(const FieldLimbs& a);
U256 FieldNormalizeLimbs(const FieldLimbs& a);
/// -a for an input of magnitude m, and a/2.
U256 FieldNegateLimbs(const FieldLimbs& a, int m);
U256 FieldHalfLimbs(const FieldLimbs& a);
/// Whether the value is 0 mod p, without normalizing it.
bool FieldIsZeroLimbs(const FieldLimbs& a);
}  // namespace internal

/// Lifts an x-coordinate to a point with the requested y parity.
Result<AffinePoint> LiftX(const U256& x, bool odd_y);

/// 65-byte uncompressed encoding: 0x04 || X || Y. Identity not encodable.
Result<Bytes> EncodeUncompressed(const AffinePoint& p);
Result<AffinePoint> DecodeUncompressed(const Bytes& b);

/// 33-byte compressed encoding: 0x02/0x03 || X.
Result<Bytes> EncodeCompressed(const AffinePoint& p);
Result<AffinePoint> DecodeCompressed(const Bytes& b);

}  // namespace secp256k1
}  // namespace wedge

#endif  // WEDGEBLOCK_CRYPTO_SECP256K1_H_
