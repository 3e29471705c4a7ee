#include "shard/shard_rpc.h"

namespace wedge {

namespace {

Result<Bytes> DispatchAppend(ShardedLogEngine& engine, TenantId tenant,
                             ByteReader& reader) {
  WEDGE_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  if (count == 0 || count > 1u << 20) {
    return Status::InvalidArgument("bad append count");
  }
  std::vector<AppendRequest> requests;
  requests.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WEDGE_ASSIGN_OR_RETURN(Bytes raw, reader.ReadBytes());
    WEDGE_ASSIGN_OR_RETURN(AppendRequest req, AppendRequest::Deserialize(raw));
    requests.push_back(std::move(req));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after append body");
  }
  WEDGE_ASSIGN_OR_RETURN(std::vector<Stage1Response> responses,
                         engine.Append(tenant, std::move(requests)));
  Bytes out;
  PutU32(out, static_cast<uint32_t>(responses.size()));
  for (const Stage1Response& r : responses) PutBytes(out, r.Serialize());
  return out;
}

Result<Bytes> DispatchRead(ShardedLogEngine& engine, TenantId tenant,
                           ByteReader& reader) {
  EntryIndex index;
  WEDGE_ASSIGN_OR_RETURN(index.log_id, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(index.offset, reader.ReadU32());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after read body");
  }
  WEDGE_ASSIGN_OR_RETURN(Stage1Response response,
                         engine.ReadOne(tenant, index));
  return response.Serialize();
}

Result<Bytes> DispatchReadBatch(ShardedLogEngine& engine, TenantId tenant,
                                ByteReader& reader) {
  uint64_t log_id;
  WEDGE_ASSIGN_OR_RETURN(log_id, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  if (count > 1u << 20) {
    return Status::InvalidArgument("bad readBatch count");
  }
  std::vector<uint32_t> offsets;
  offsets.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WEDGE_ASSIGN_OR_RETURN(uint32_t off, reader.ReadU32());
    offsets.push_back(off);
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after readBatch body");
  }
  WEDGE_ASSIGN_OR_RETURN(BatchReadResponse response,
                         engine.ReadBatch(tenant, log_id, std::move(offsets)));
  return response.Serialize();
}

}  // namespace

Result<Bytes> DispatchEngineRpc(ShardedLogEngine& engine,
                                std::string_view op, const Bytes& body) {
  ByteReader reader(body);
  if (op == kOpAppendTenant || op == kOpReadTenant ||
      op == kOpReadBatchTenant || op == kOpAggProof) {
    // The wire tenant id is client-asserted. For appends the engine can
    // bind it to the request's publisher key
    // (ShardedEngineConfig::authenticate_tenants, typed PermissionDenied
    // on mismatch); without that flag, per-tenant quotas assume
    // cooperative clients.
    WEDGE_ASSIGN_OR_RETURN(TenantId tenant, reader.ReadU64());
    if (op == kOpAppendTenant) return DispatchAppend(engine, tenant, reader);
    if (op == kOpReadTenant) return DispatchRead(engine, tenant, reader);
    if (op == kOpReadBatchTenant) {
      return DispatchReadBatch(engine, tenant, reader);
    }
    // aggProof: [u64 tenant][u64 log_id] -> serialized AggregationProof.
    WEDGE_ASSIGN_OR_RETURN(uint64_t log_id, reader.ReadU64());
    if (!reader.AtEnd()) {
      return Status::InvalidArgument("trailing bytes after aggProof body");
    }
    WEDGE_ASSIGN_OR_RETURN(AggregationProof proof,
                           engine.ProveAggregation(tenant, log_id));
    return proof.Serialize();
  }
  return Status::NotFound("unknown rpc op");
}

}  // namespace wedge
