// Loopback tests for the sharded engine behind the real TCP transport:
// RpcServer serving DispatchEngineRpc over a live ShardedDeployment.
// Pins down the multi-tenant wire contract — tenant-scoped routing, typed
// quota rejections that leave the connection usable, aggregation-proof
// fetch, and the slow-request log naming the routed tenant and shard.
//
// Set WEDGE_SKIP_SOCKET_TESTS=1 to skip at runtime.

#include <cstdlib>
#include <memory>

#include <gtest/gtest.h>

#include "rpc/rpc_server.h"
#include "rpc/tcp_client.h"
#include "shard/shard_rpc.h"
#include "shard/sharded_engine.h"

namespace wedge {
namespace {

bool SocketTestsDisabled() {
  const char* skip = std::getenv("WEDGE_SKIP_SOCKET_TESTS");
  return skip != nullptr && skip[0] == '1';
}

class ShardRpcTest : public ::testing::Test {
 protected:
  void StartServer(uint32_t shards, TenantQuotaConfig quota = {},
                   RpcServerConfig server_config = {}) {
    ShardedDeploymentConfig config;
    config.engine.num_shards = shards;
    config.engine.node.batch_size = 4;
    config.engine.node.worker_threads = 1;
    config.engine.quota = quota;
    config.engine.forest_stage2 = shards > 1;
    auto d = ShardedDeployment::Create(config);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    deployment_ = std::move(d).value();
    server_key_ = std::make_unique<KeyPair>(
        KeyPair::FromSeed(config.engine_key_seed));
    ShardedLogEngine& engine = deployment_->engine();
    server_ = std::make_unique<RpcServer>(
        RpcServer::Handler([&engine](std::string_view op, const Bytes& body) {
          return DispatchEngineRpc(engine, op, body);
        }),
        *server_key_, server_config, &deployment_->telemetry());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  void SetUp() override {
    if (SocketTestsDisabled()) {
      GTEST_SKIP() << "WEDGE_SKIP_SOCKET_TESTS=1";
    }
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  std::unique_ptr<TcpNodeClient> MakeClient() {
    TcpClientConfig config;
    config.port = server_->port();
    config.pool_size = 1;
    config.rpc_timeout = 5 * kMicrosPerSecond;
    return std::make_unique<TcpNodeClient>(KeyPair::FromSeed(0xC11E),
                                           server_key_->address(), config);
  }

  static std::vector<AppendRequest> MakeBatch(const KeyPair& publisher,
                                              uint64_t& seq, int n) {
    std::vector<AppendRequest> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(AppendRequest::Make(publisher, seq++,
                                        ToBytes("k" + std::to_string(i)),
                                        ToBytes("v")));
    }
    return out;
  }

  std::unique_ptr<ShardedDeployment> deployment_;
  std::unique_ptr<KeyPair> server_key_;
  std::unique_ptr<RpcServer> server_;
};

TEST_F(ShardRpcTest, TenantAppendAndReadRoundTrip) {
  StartServer(/*shards=*/4);
  auto client = MakeClient();
  ASSERT_TRUE(client->Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;

  for (TenantId tenant : {TenantId{1}, TenantId{2}, TenantId{3}}) {
    auto responses =
        client->AppendForTenant(tenant, MakeBatch(publisher, seq, 4));
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
    ASSERT_EQ(responses->size(), 4u);
    for (const auto& r : *responses) {
      EXPECT_TRUE(r.Verify(deployment_->engine().address()));
    }
    auto read = client->ReadOneForTenant(tenant, responses->front().index);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_TRUE(read->Verify(deployment_->engine().address()));

    auto batch = client->ReadBatchForTenant(
        tenant, responses->front().index.log_id, {0, 1, 2, 3});
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(batch->entries.size(), 4u);
    // The signed batch names the shard the tenant routes to.
    EXPECT_EQ(batch->shard_id, deployment_->engine().ShardFor(tenant));
    EXPECT_TRUE(batch->Verify(deployment_->engine().address()));
  }
}

TEST_F(ShardRpcTest, QuotaRejectionIsTypedAndConnectionStaysUsable) {
  TenantQuotaConfig quota;
  quota.entries_per_second = 1;
  quota.burst_entries = 8;
  StartServer(/*shards=*/2, quota);
  auto client = MakeClient();
  ASSERT_TRUE(client->Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;

  // The deployment's SimClock is frozen while we talk over TCP, so the
  // bucket cannot refill between calls: the first 8-entry append takes
  // the whole burst, the second must be rejected.
  TenantId tenant = 9;
  auto first = client->AppendForTenant(tenant, MakeBatch(publisher, seq, 8));
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  auto second = client->AppendForTenant(tenant, MakeBatch(publisher, seq, 8));
  ASSERT_FALSE(second.ok());
  // The rejection arrives as the typed quota error, not a transport
  // failure (Status::ToString -> FromWireString round-trip).
  EXPECT_EQ(second.status().code(), Code::kResourceExhausted)
      << second.status().ToString();

  // The connection survives the rejection: reads and further appends for
  // other tenants keep working on the same socket.
  auto read = client->ReadOneForTenant(tenant, first->front().index);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->Verify(deployment_->engine().address()));
  auto other = client->AppendForTenant(77, MakeBatch(publisher, seq, 4));
  EXPECT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_EQ(client->reconnects(), 0u);
}

TEST_F(ShardRpcTest, AggregationProofFetchVerifiesLocally) {
  StartServer(/*shards=*/4);
  auto client = MakeClient();
  ASSERT_TRUE(client->Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;

  TenantId tenant = 5;
  auto responses =
      client->AppendForTenant(tenant, MakeBatch(publisher, seq, 4));
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  client->AppendForTenant(6, MakeBatch(publisher, seq, 4));

  // Before any epoch closes the proof does not exist — typed NotFound.
  auto missing = client->FetchAggregationProof(
      tenant, responses->front().index.log_id);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), Code::kNotFound);

  deployment_->AdvanceBlocks(2);  // Close + mine the epoch.

  auto agg = client->FetchAggregationProof(
      tenant, responses->front().index.log_id);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_TRUE(agg->Verify(deployment_->engine().address()));
  // Two-level binding against the stage-1 response we hold.
  EXPECT_EQ(agg->log_id, responses->front().proof.log_id);
  EXPECT_EQ(agg->mroot, responses->front().proof.mroot);
}

TEST_F(ShardRpcTest, SlowRequestLogNamesTheRoutedTenantAndShard) {
  // Every op body opens with the tenant id, so the slow-request log reads
  // it for every op — aggProof included — and names the shard the router
  // sends that tenant to.
  RpcServerConfig server_config;
  server_config.slow_request_micros = 1;  // Log every request.
  server_config.shard_for_tenant = [this](uint64_t tenant) {
    return static_cast<int>(deployment_->engine().ShardFor(tenant));
  };
  StartServer(/*shards=*/2, {}, server_config);
  TenantId tenant = 1;
  while (deployment_->engine().ShardFor(tenant) != 1) ++tenant;
  auto client = MakeClient();
  ASSERT_TRUE(client->Connect().ok());

  testing::internal::CaptureStderr();
  auto proof = client->FetchAggregationProof(tenant, /*log_id=*/0);
  std::string log = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(proof.ok());  // Nothing appended yet: typed NotFound.
  EXPECT_NE(log.find("\"op\": \"aggProof\", \"tenant\": " +
                     std::to_string(tenant) + ", \"shard\": 1,"),
            std::string::npos)
      << log;
}

}  // namespace
}  // namespace wedge
