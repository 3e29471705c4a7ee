// remote_quickstart — the quickstart flow over real TCP.
//
// Boots a deployment — the single-shard engine wedgeblockd serves by
// default — serves it with rpc/RpcServer on an ephemeral loopback port,
// then talks to it with a pooled rpc/TcpNodeClient the way a publisher on
// another machine would (paper §5): signed append over the socket,
// stage-1 proof verification, a verified read back, and a clean
// drain/shutdown. A single-tenant client uses tenant 0. Prints
// "remote quickstart OK" when every check passed.
//
// Honors WEDGE_SKIP_SOCKET_TESTS=1 (prints SKIPPED and exits 0) for
// sandboxes without loopback networking.

#include <cstdio>
#include <cstdlib>

#include "rpc/rpc_server.h"
#include "rpc/tcp_client.h"
#include "shard/shard_rpc.h"
#include "shard/sharded_engine.h"

using namespace wedge;

int main() {
  const char* skip = std::getenv("WEDGE_SKIP_SOCKET_TESTS");
  if (skip != nullptr && skip[0] == '1') {
    std::printf("remote quickstart SKIPPED (WEDGE_SKIP_SOCKET_TESTS)\n");
    return 0;
  }

  ShardedDeploymentConfig config;
  config.engine.num_shards = 1;
  config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
  config.engine.node.batch_size = 4;
  auto deployment = ShardedDeployment::Create(config);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy: %s\n",
                 deployment.status().ToString().c_str());
    return 1;
  }
  ShardedDeployment& d = **deployment;
  ShardedLogEngine& engine = d.engine();

  RpcServerConfig server_config;  // Ephemeral port on 127.0.0.1.
  KeyPair transport_key = KeyPair::FromSeed(config.engine_key_seed);
  RpcServer server(
      [&engine](std::string_view op, const Bytes& body) {
        return DispatchEngineRpc(engine, op, body);
      },
      transport_key, server_config, &d.telemetry());
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u\n", server.port());

  TcpClientConfig client_config;
  client_config.port = server.port();
  client_config.pool_size = 2;
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  TcpNodeClient client(publisher, transport_key.address(), client_config);
  if (Status s = client.Connect(); !s.ok()) {
    std::fprintf(stderr, "connect: %s\n", s.ToString().c_str());
    return 1;
  }

  // Stage 1 over the wire: signed appends, signed proofs back.
  std::vector<AppendRequest> batch;
  for (uint64_t i = 0; i < 4; ++i) {
    batch.push_back(AppendRequest::Make(publisher, i,
                                        ToBytes("sensor-" + std::to_string(i)),
                                        ToBytes("reading")));
  }
  constexpr TenantId kTenant = 0;
  auto responses = client.AppendForTenant(kTenant, batch);
  if (!responses.ok() || responses->size() != 4) {
    std::fprintf(stderr, "append: %s\n",
                 responses.status().ToString().c_str());
    return 1;
  }
  for (const auto& r : *responses) {
    if (!r.Verify(engine.address())) {
      std::fprintf(stderr, "stage-1 proof failed to verify\n");
      return 1;
    }
  }
  std::printf("4 appends acknowledged with verified stage-1 proofs\n");

  // Verified read back over the same pool.
  auto read = client.ReadOneForTenant(kTenant, responses->front().index);
  if (!read.ok() || !read->Verify(engine.address())) {
    std::fprintf(stderr, "read-back failed\n");
    return 1;
  }

  // Stage 2 still works underneath: mine and check the root landed.
  d.AdvanceBlocks(4);
  if (engine.shard(0).UncommittedDigests() != 0) {
    std::fprintf(stderr, "stage-2 commit missing\n");
    return 1;
  }

  client.Close();
  server.Shutdown();
  std::printf("remote quickstart OK\n");
  return 0;
}
