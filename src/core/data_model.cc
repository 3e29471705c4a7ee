#include "core/data_model.h"

#include <algorithm>

#include "crypto/signer_key_cache.h"

namespace wedge {

AppendRequest AppendRequest::Make(const KeyPair& publisher_key,
                                  uint64_t sequence, Bytes key, Bytes value) {
  AppendRequest req;
  req.publisher = publisher_key.address();
  req.sequence = sequence;
  req.key = std::move(key);
  req.value = std::move(value);
  req.signature = EcdsaSign(publisher_key.private_key(), req.SignedHash());
  return req;
}

Bytes AppendRequest::SignedPayload() const {
  Bytes out;
  PutString(out, "wedgeblock-append-v1");
  Append(out, publisher.ToBytes());
  PutU64(out, sequence);
  PutBytes(out, key);
  PutBytes(out, value);
  return out;
}

Hash256 AppendRequest::SignedHash() const {
  return Sha256::Digest(SignedPayload());
}

bool AppendRequest::VerifySignature() const {
  // RecoverSigner returns the zero address on failure, so a request that
  // *claims* the zero address must never pass.
  if (publisher.IsZero()) return false;
  return RecoverSigner(SignedHash(), signature) == publisher;
}

Bytes AppendRequest::Serialize() const {
  Bytes out;
  Append(out, publisher.ToBytes());
  PutU64(out, sequence);
  PutBytes(out, key);
  PutBytes(out, value);
  Append(out, signature.Serialize());
  return out;
}

Result<AppendRequest> AppendRequest::Deserialize(const Bytes& b) {
  ByteReader reader(b);
  AppendRequest req;
  WEDGE_ASSIGN_OR_RETURN(Bytes addr, reader.ReadRaw(20));
  std::copy(addr.begin(), addr.end(), req.publisher.bytes.begin());
  WEDGE_ASSIGN_OR_RETURN(req.sequence, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(req.key, reader.ReadBytes());
  WEDGE_ASSIGN_OR_RETURN(req.value, reader.ReadBytes());
  WEDGE_ASSIGN_OR_RETURN(Bytes sig, reader.ReadRaw(65));
  WEDGE_ASSIGN_OR_RETURN(req.signature, EcdsaSignature::Deserialize(sig));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after append request");
  }
  return req;
}

Hash256 Stage1Response::SignedHash() const {
  return Stage1MessageHash(proof.shard_id, proof.log_id, proof.mroot,
                           proof.merkle_proof, entry);
}

bool Stage1Response::Verify(const Address& offchain_address) const {
  if (index.log_id != proof.log_id) return false;
  if (index.offset != proof.merkle_proof.leaf_index) return false;
  if (!SignedBy(offchain_address, SignedHash(), offchain_signature)) {
    return false;
  }
  return VerifyMerkleProof(entry, proof.merkle_proof, proof.mroot);
}

Bytes Stage1Response::Serialize() const {
  Bytes out;
  PutBytes(out, entry);
  PutU32(out, proof.shard_id);
  PutU64(out, proof.log_id);
  Append(out, HashToBytes(proof.mroot));
  PutBytes(out, proof.merkle_proof.Serialize());
  PutU64(out, index.log_id);
  PutU32(out, index.offset);
  Append(out, offchain_signature.Serialize());
  return out;
}

Result<Stage1Response> Stage1Response::Deserialize(const Bytes& b) {
  ByteReader reader(b);
  Stage1Response resp;
  WEDGE_ASSIGN_OR_RETURN(resp.entry, reader.ReadBytes());
  WEDGE_ASSIGN_OR_RETURN(resp.proof.shard_id, reader.ReadU32());
  WEDGE_ASSIGN_OR_RETURN(resp.proof.log_id, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(Bytes root_raw, reader.ReadRaw(32));
  WEDGE_ASSIGN_OR_RETURN(resp.proof.mroot, HashFromBytes(root_raw));
  WEDGE_ASSIGN_OR_RETURN(Bytes proof_raw, reader.ReadBytes());
  WEDGE_ASSIGN_OR_RETURN(resp.proof.merkle_proof,
                         MerkleProof::Deserialize(proof_raw));
  WEDGE_ASSIGN_OR_RETURN(resp.index.log_id, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(resp.index.offset, reader.ReadU32());
  WEDGE_ASSIGN_OR_RETURN(Bytes sig, reader.ReadRaw(65));
  WEDGE_ASSIGN_OR_RETURN(resp.offchain_signature,
                         EcdsaSignature::Deserialize(sig));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after stage-1 response");
  }
  return resp;
}

}  // namespace wedge
