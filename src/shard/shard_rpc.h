#ifndef WEDGEBLOCK_SHARD_SHARD_RPC_H_
#define WEDGEBLOCK_SHARD_SHARD_RPC_H_

#include "core/rpc_codec.h"
#include "shard/sharded_engine.h"

namespace wedge {

/// The server-side request decoder: serves the tenant-scoped ops
/// ("appendT"/"readT"/"readBatchT"/"aggProof", see core/rpc_codec.h)
/// against the engine. Every RpcServer in the tree runs this handler; a
/// single node is the 1-shard engine with the classic stage-2 stream.
///
/// Quota rejections propagate as typed ResourceExhausted errors; the RPC
/// server encodes them into the error response via Status::ToString and
/// Status::FromWireString recovers them client-side.
Result<Bytes> DispatchEngineRpc(ShardedLogEngine& engine,
                                std::string_view op, const Bytes& body);

}  // namespace wedge

#endif  // WEDGEBLOCK_SHARD_SHARD_RPC_H_
