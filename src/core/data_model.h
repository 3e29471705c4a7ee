#ifndef WEDGEBLOCK_CORE_DATA_MODEL_H_
#define WEDGEBLOCK_CORE_DATA_MODEL_H_

#include "contracts/stage1_message.h"
#include "crypto/ecdsa.h"
#include "merkle/merkle_tree.h"
#include "storage/log_store.h"

namespace wedge {

/// A publisher's append request (paper §4.1): A = (S_p, [n, X]) where X is
/// a key-value data object, n a client-side sequence number and S_p the
/// publisher's signature over [n, X].
struct AppendRequest {
  Address publisher;
  uint64_t sequence = 0;  ///< Client-side monotonically increasing n.
  Bytes key;
  Bytes value;
  EcdsaSignature signature;

  /// Builds and signs a request.
  static AppendRequest Make(const KeyPair& publisher_key, uint64_t sequence,
                            Bytes key, Bytes value);

  /// The signed portion [n, X] plus the publisher address.
  Bytes SignedPayload() const;
  /// SHA-256 of SignedPayload(): the hash the publisher signs.
  Hash256 SignedHash() const;

  /// True iff the signature verifies against the publisher address, by
  /// recovery every time (the oracle the node's cached checks match).
  bool VerifySignature() const;

  /// Canonical encoding of the full request. This is the byte string the
  /// Offchain Node stores as the Merkle leaf, so reads return the
  /// publisher's signature along with the data (making garbage entries
  /// forged by the Offchain Node detectable — §4.3).
  Bytes Serialize() const;
  static Result<AppendRequest> Deserialize(const Bytes& b);
};

/// The stage-1 proof P for a data object: the log position's Merkle root
/// plus the authentication path of this entry. `shard_id` names the
/// engine shard that sealed the position (0 for a bare single node); it
/// is part of the signed statement because log ids are shard-local while
/// all shards sign with the same engine key (see
/// contracts/stage1_message.h).
struct Stage1Proof {
  uint32_t shard_id = 0;
  uint64_t log_id = 0;
  Hash256 mroot{};
  MerkleProof merkle_proof;
};

/// The Offchain Node's response R = (S_e, [X, P, i]) (paper §4.1). The
/// node's signature is the client's evidence for the Punishment contract:
/// it commits the node to blockchain-committing `proof.mroot` at position
/// `proof.log_id`.
struct Stage1Response {
  /// Raw leaf bytes (serialized AppendRequest). Shared with the log
  /// position that stores the same payload — copying a response never
  /// duplicates the entry.
  SharedBytes entry;
  Stage1Proof proof;
  EntryIndex index;       ///< Log position + offset inside the batch.
  EcdsaSignature offchain_signature;

  /// The hash the Offchain Node signs — identical to what the Punishment
  /// contract recomputes in Algorithm 2.
  Hash256 SignedHash() const;

  /// Client-side stage-1 verification: the node's signature is authentic
  /// and the Merkle proof reconstructs the signed root for `entry`. The
  /// signature is checked by SignedBy, so from a node's 16th check on
  /// it runs on that node's key table.
  bool Verify(const Address& offchain_address) const;

  Bytes Serialize() const;
  static Result<Stage1Response> Deserialize(const Bytes& b);
};

/// Outcome of comparing a stage-1 response against the Root Record
/// contract (the client's stage-2 verification, §4.2 link #4).
enum class CommitCheck {
  kBlockchainCommitted,  ///< On-chain root matches the signed root.
  kNotYetCommitted,      ///< No root recorded at this position yet.
  kMismatch,             ///< On-chain root differs: the node lied.
};

}  // namespace wedge

#endif  // WEDGEBLOCK_CORE_DATA_MODEL_H_
