#ifndef WEDGEBLOCK_CORE_RPC_CODEC_H_
#define WEDGEBLOCK_CORE_RPC_CODEC_H_

#include <string_view>
#include <vector>

#include "contracts/forest_record.h"
#include "core/batch_read.h"
#include "core/data_model.h"
#include "net/wire.h"

namespace wedge {

/// Tenant identity carried by every op below. Tenants are an
/// engine-level routing/quota concept (src/shard/); the codec only moves
/// the id across the wire.
using TenantId = uint64_t;

/// Canonical tenant id derived from a publisher address: the first 8
/// address bytes, big-endian. The wire tenant id is otherwise
/// client-asserted; with ShardedEngineConfig::authenticate_tenants the
/// engine requires every append's tenant to equal the PublisherTenant of
/// its publisher — whose signature the node verifies — so quota budgets
/// bind to keys, not to whatever u64 a client chooses to claim.
inline TenantId PublisherTenant(const Address& publisher) {
  TenantId id = 0;
  for (size_t i = 0; i < 8; ++i) {
    id = (id << 8) | publisher.bytes[i];
  }
  return id;
}

/// Op-level codec for the Offchain Node RPC surface: the client-side body
/// builders and reply decoders of rpc/TcpNodeClient, matching the one
/// server-side decoder, DispatchEngineRpc (shard/shard_rpc.h). See
/// net/wire.h for the framing layers around these bodies.
///
/// Every body opens with the [u64 tenant_id] the engine routes by; a
/// single-tenant client uses tenant 0. Ops and body layouts:
///   "appendT"    body = u64 tenant + u32 count
///                       + count * bytes(serialized AppendRequest)
///                reply = u32 count + count * bytes(serialized Stage1Response)
///   "readT"      body = u64 tenant + u64 log_id + u32 offset
///                reply = serialized Stage1Response
///   "readBatchT" body = u64 tenant + u64 log_id + u32 count
///                       + count * u32 offsets (none = the whole position)
///                reply = serialized BatchReadResponse
///   "aggProof"   body = u64 tenant + u64 log_id
///                reply = serialized AggregationProof
/// Quota rejections come back as error responses carrying a typed
/// ResourceExhausted status string (see Status::FromWireString).
inline constexpr std::string_view kOpAppendTenant = "appendT";
inline constexpr std::string_view kOpReadTenant = "readT";
inline constexpr std::string_view kOpReadBatchTenant = "readBatchT";
inline constexpr std::string_view kOpAggProof = "aggProof";

/// Client-side body builders.
Bytes EncodeTenantAppendBody(TenantId tenant,
                             const std::vector<AppendRequest>& requests);
Bytes EncodeTenantReadBody(TenantId tenant, const EntryIndex& index);
Bytes EncodeTenantReadBatchBody(TenantId tenant, uint64_t log_id,
                                const std::vector<uint32_t>& offsets);
Bytes EncodeAggProofBody(TenantId tenant, uint64_t log_id);

/// Client-side reply decoders (typed errors on truncated/garbage input).
Result<std::vector<Stage1Response>> DecodeAppendReply(const Bytes& reply);
Result<Stage1Response> DecodeReadReply(const Bytes& reply);
Result<BatchReadResponse> DecodeReadBatchReply(const Bytes& reply);
Result<AggregationProof> DecodeAggProofReply(const Bytes& reply);

}  // namespace wedge

#endif  // WEDGEBLOCK_CORE_RPC_CODEC_H_
