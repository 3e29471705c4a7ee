#ifndef WEDGEBLOCK_CRYPTO_SECP256K1_H_
#define WEDGEBLOCK_CRYPTO_SECP256K1_H_

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

/// --- Field arithmetic mod p (fast reduction) ---
U256 FpAdd(const U256& a, const U256& b);
U256 FpSub(const U256& a, const U256& b);
U256 FpMul(const U256& a, const U256& b);
U256 FpSqr(const U256& a);
/// a^e mod p (square-and-multiply over the fast multiplier).
U256 FpPow(const U256& a, const U256& e);
/// Inverse mod p (variable-time binary extended gcd). Zero has no
/// inverse: a zero input aborts the process (it is always a caller bug,
/// never data-dependent — see DESIGN.md "EC fast path").
U256 FpInv(const U256& a);
/// Batch inversion mod p: out[i] = xs[i]^-1 via Montgomery's
/// simultaneous-inversion trick (one FpInv + 3 muls per element).
/// `out` may alias `xs`. Aborts on any zero input, like FpInv.
void FpInvMany(const U256* xs, size_t n, U256* out);
/// Square root mod p (p = 3 mod 4). Returns error if no root exists.
Result<U256> FpSqrt(const U256& a);

/// --- Scalar arithmetic mod n ---
U256 FnAdd(const U256& a, const U256& b);
U256 FnSub(const U256& a, const U256& b);
U256 FnMul(const U256& a, const U256& b);
/// Inverse mod n; aborts on zero input (see FpInv).
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

/// k * P (width-5 wNAF on the fast backend). `k` is ALWAYS reduced mod n
/// first, so ScalarMul(P, n + 5) == ScalarMul(P, 5) — callers comparing
/// scalars for equality must compare them mod n, not as raw 256-bit
/// values (pinned by tests/ec_equiv_test.cc). Constant-time is NOT a
/// goal of this simulation-oriented implementation.
AffinePoint ScalarMul(const AffinePoint& p, const U256& k);

/// k * G via a precomputed 8-bit comb table for the generator (lazily
/// built, batch-normalized to affine). `k` is reduced mod n like
/// ScalarMul.
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

/// Precomputed multiples of one fixed point Q, for evaluating many
/// u1*G + u2*Q against the same Q (see DESIGN.md "Fixed-key
/// verification"). On the fast backend it holds d * 2^(6j) * Q for
/// d in [1, 32] and j in [0, 23): 736 affine points (~52 KiB), built
/// with one batch inversion. The backend active at construction decides
/// how it evaluates; under the reference backend no table is built and
/// every product goes through reference::DoubleScalarMulBase.
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

 private:
  AffinePoint q_;
  /// multiples_[j * 32 + d - 1] = d * 2^(6j) * q_; empty under the
  /// reference backend.
  std::vector<AffinePoint> multiples_;
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

/// Test hooks for the GLV decomposition (see DESIGN.md "EC fast path").
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
