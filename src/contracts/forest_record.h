#ifndef WEDGEBLOCK_CONTRACTS_FOREST_RECORD_H_
#define WEDGEBLOCK_CONTRACTS_FOREST_RECORD_H_

#include <cstdint>

#include "crypto/ecdsa.h"
#include "merkle/merkle_tree.h"

namespace wedge {

/// Second-level ("forest") commitment encodings for the sharded engine.
///
/// A sharded deployment runs N Offchain Node shards but submits a single
/// stage-2 transaction per epoch: the EpochRootAggregator collects each
/// shard's newly sealed batch roots, builds a Merkle tree over
/// (shard_id, log_id, MRoot) leaves, and records only that tree's root
/// on-chain. Clients then verify with a two-level proof: entry -> batch
/// root via the existing stage-1 proof, and batch root -> forest root via
/// an AggregationProof below.
///
/// The leaf encoding and the signed-aggregation message live here — next
/// to the on-chain verifier (Punishment::invokePunishmentForest) — for the
/// same reason stage1_message.h does: node, clients, and contract must
/// hash the exact same bytes.

/// Canonical forest leaf: [u32 shard_id][u64 log_id][32B mroot].
Bytes ForestLeafBytes(uint32_t shard_id, uint64_t log_id,
                      const Hash256& mroot);

/// An engine-signed statement binding one shard batch root into one
/// epoch's forest root. The signature covers the whole statement
/// (including the path), so a proof that verifies against the engine's
/// address but is internally inconsistent is attributable evidence for
/// the punishment path — while a proof tampered in transit simply fails
/// signature verification and is rejected client-side.
struct AggregationProof {
  uint64_t epoch = 0;     ///< Forest-record index the root was filed under.
  uint32_t shard_id = 0;  ///< Shard that sealed the batch.
  uint64_t log_id = 0;    ///< Shard-local batch log id.
  Hash256 mroot{};        ///< The batch (stage-1) Merkle root.
  Hash256 forest_root{};  ///< The epoch's second-level root.
  MerkleProof forest_path;  ///< Path from ForestLeafBytes(...) to the root.
  EcdsaSignature engine_signature;

  /// SHA-256 over the canonical aggregation statement (everything above
  /// except the signature). This is what the engine signs and what the
  /// Punishment contract recovers the signer from.
  Hash256 SignedHash() const;

  /// True when forest_path carries ForestLeafBytes(shard_id, log_id,
  /// mroot) to forest_root.
  bool PathValid() const;

  /// Full client-side check: the statement is signed by `engine`
  /// (checked by SignedBy) AND the path is internally consistent.
  bool Verify(const Address& engine) const;

  Bytes Serialize() const;
  static Result<AggregationProof> Deserialize(const Bytes& b);

  bool operator==(const AggregationProof& o) const {
    return epoch == o.epoch && shard_id == o.shard_id &&
           log_id == o.log_id && mroot == o.mroot &&
           forest_root == o.forest_root && forest_path == o.forest_path &&
           engine_signature == o.engine_signature;
  }
};

}  // namespace wedge

#endif  // WEDGEBLOCK_CONTRACTS_FOREST_RECORD_H_
