#include "core/rpc_codec.h"

namespace wedge {

Bytes EncodeTenantAppendBody(TenantId tenant,
                             const std::vector<AppendRequest>& requests) {
  Bytes body;
  PutU64(body, tenant);
  PutU32(body, static_cast<uint32_t>(requests.size()));
  for (const AppendRequest& r : requests) PutBytes(body, r.Serialize());
  return body;
}

Bytes EncodeTenantReadBody(TenantId tenant, const EntryIndex& index) {
  Bytes body;
  PutU64(body, tenant);
  PutU64(body, index.log_id);
  PutU32(body, index.offset);
  return body;
}

Bytes EncodeTenantReadBatchBody(TenantId tenant, uint64_t log_id,
                                const std::vector<uint32_t>& offsets) {
  Bytes body;
  PutU64(body, tenant);
  PutU64(body, log_id);
  PutU32(body, static_cast<uint32_t>(offsets.size()));
  for (uint32_t off : offsets) PutU32(body, off);
  return body;
}

Bytes EncodeAggProofBody(TenantId tenant, uint64_t log_id) {
  Bytes body;
  PutU64(body, tenant);
  PutU64(body, log_id);
  return body;
}

Result<std::vector<Stage1Response>> DecodeAppendReply(const Bytes& reply) {
  ByteReader reader(reply);
  WEDGE_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  std::vector<Stage1Response> responses;
  responses.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WEDGE_ASSIGN_OR_RETURN(Bytes raw, reader.ReadBytes());
    WEDGE_ASSIGN_OR_RETURN(Stage1Response resp,
                           Stage1Response::Deserialize(raw));
    responses.push_back(std::move(resp));
  }
  return responses;
}

Result<Stage1Response> DecodeReadReply(const Bytes& reply) {
  return Stage1Response::Deserialize(reply);
}

Result<BatchReadResponse> DecodeReadBatchReply(const Bytes& reply) {
  return BatchReadResponse::Deserialize(reply);
}

Result<AggregationProof> DecodeAggProofReply(const Bytes& reply) {
  return AggregationProof::Deserialize(reply);
}

}  // namespace wedge
