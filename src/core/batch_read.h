#ifndef WEDGEBLOCK_CORE_BATCH_READ_H_
#define WEDGEBLOCK_CORE_BATCH_READ_H_

#include "core/data_model.h"
#include "merkle/multi_proof.h"

namespace wedge {

/// A batched read response: many entries of ONE log position,
/// authenticated together by a single Merkle multi-proof and a single
/// Offchain Node signature. Compared to per-entry Stage1Responses this
/// cuts both bandwidth (shared sibling hashes) and verification cost
/// (one ECDSA verify per position instead of per entry) — the auditor's
/// fast path (see bench/ablation_audit_modes).
///
/// `shard_id` names the engine shard that sealed the position (0 for a
/// single node) and is part of the signed statement, exactly as in
/// Stage1Proof: log ids are shard-local while every shard signs with the
/// engine key, so without it one shard's signed batch would verify as
/// another shard's batch of the same log id.
struct BatchReadResponse {
  uint32_t shard_id = 0;
  uint64_t log_id = 0;
  Hash256 mroot{};
  /// (offset within the position, raw leaf bytes) pairs.
  std::vector<std::pair<uint64_t, Bytes>> entries;
  MerkleMultiProof proof;
  EcdsaSignature offchain_signature;

  /// Digest the node signs (covers shard, position, root, offsets and
  /// data).
  Hash256 SignedHash() const;

  /// Full verification: authentic signature (checked by SignedBy) AND
  /// the multi-proof reconstructs the signed root from the returned
  /// entries.
  bool Verify(const Address& offchain_address) const;

  Bytes Serialize() const;
  static Result<BatchReadResponse> Deserialize(const Bytes& b);
};

}  // namespace wedge

#endif  // WEDGEBLOCK_CORE_BATCH_READ_H_
