#include "contracts/forest_record.h"

#include "crypto/signer_key_cache.h"

namespace wedge {

Bytes ForestLeafBytes(uint32_t shard_id, uint64_t log_id,
                      const Hash256& mroot) {
  Bytes leaf;
  leaf.reserve(4 + 8 + 32);
  PutU32(leaf, shard_id);
  PutU64(leaf, log_id);
  Append(leaf, HashToBytes(mroot));
  return leaf;
}

Hash256 AggregationProof::SignedHash() const {
  Bytes msg;
  // Domain separation keeps aggregation signatures from ever colliding
  // with stage-1 response signatures made by the same key.
  const char kDomain[] = "wedge.aggregation.v1";
  msg.insert(msg.end(), kDomain, kDomain + sizeof(kDomain) - 1);
  PutU64(msg, epoch);
  PutU32(msg, shard_id);
  PutU64(msg, log_id);
  Append(msg, HashToBytes(mroot));
  Append(msg, HashToBytes(forest_root));
  PutBytes(msg, forest_path.Serialize());
  return Sha256::Digest(msg);
}

bool AggregationProof::PathValid() const {
  return VerifyMerkleProof(ForestLeafBytes(shard_id, log_id, mroot),
                           forest_path, forest_root);
}

bool AggregationProof::Verify(const Address& engine) const {
  return SignedBy(engine, SignedHash(), engine_signature) && PathValid();
}

Bytes AggregationProof::Serialize() const {
  Bytes out;
  PutU64(out, epoch);
  PutU32(out, shard_id);
  PutU64(out, log_id);
  Append(out, HashToBytes(mroot));
  Append(out, HashToBytes(forest_root));
  PutBytes(out, forest_path.Serialize());
  PutBytes(out, engine_signature.Serialize());
  return out;
}

Result<AggregationProof> AggregationProof::Deserialize(const Bytes& b) {
  ByteReader reader(b);
  AggregationProof proof;
  WEDGE_ASSIGN_OR_RETURN(proof.epoch, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(proof.shard_id, reader.ReadU32());
  WEDGE_ASSIGN_OR_RETURN(proof.log_id, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(Bytes mroot_raw, reader.ReadRaw(32));
  WEDGE_ASSIGN_OR_RETURN(proof.mroot, HashFromBytes(mroot_raw));
  WEDGE_ASSIGN_OR_RETURN(Bytes forest_raw, reader.ReadRaw(32));
  WEDGE_ASSIGN_OR_RETURN(proof.forest_root, HashFromBytes(forest_raw));
  WEDGE_ASSIGN_OR_RETURN(Bytes path_raw, reader.ReadBytes());
  WEDGE_ASSIGN_OR_RETURN(proof.forest_path,
                         MerkleProof::Deserialize(path_raw));
  WEDGE_ASSIGN_OR_RETURN(Bytes sig_raw, reader.ReadBytes());
  WEDGE_ASSIGN_OR_RETURN(proof.engine_signature,
                         EcdsaSignature::Deserialize(sig_raw));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("AggregationProof: trailing bytes");
  }
  return proof;
}

}  // namespace wedge
