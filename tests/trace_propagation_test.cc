// Cross-process trace propagation tests: the optional trace-context
// extension on the RPC request wire format (back-compatibility pinned
// byte-for-byte), the thread-local ScopedTrace plumbing, and the full
// loopback round trip — a client-side trace id must reappear on the
// serving process's tracer spans, and per-op latency histograms must
// materialize on both sides of the wire.
//
// Set WEDGE_SKIP_SOCKET_TESTS=1 to skip the socket-bound fixtures.

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/wire.h"
#include "rpc/rpc_server.h"
#include "rpc/tcp_client.h"
#include "shard/shard_rpc.h"
#include "shard/sharded_engine.h"
#include "telemetry/tracer.h"

namespace wedge {
namespace {

bool SocketTestsDisabled() {
  const char* skip = std::getenv("WEDGE_SKIP_SOCKET_TESTS");
  return skip != nullptr && skip[0] == '1';
}

RpcRequest MakeRequest() {
  RpcRequest req;
  req.rpc_id = 7;
  req.op = "append";
  req.body = ToBytes("payload");
  return req;
}

// The exact encoding every pre-extension peer emits: no trailing bytes
// after the body.
Bytes LegacyEncoding(const RpcRequest& req) {
  Bytes out;
  PutU64(out, req.rpc_id);
  PutString(out, req.op);
  PutBytes(out, req.body);
  return out;
}

TEST(TraceWireTest, UntracedEncodingIsByteIdenticalToLegacy) {
  RpcRequest req = MakeRequest();
  ASSERT_EQ(req.trace_id, 0u);
  EXPECT_EQ(req.Encode(), LegacyEncoding(req));
}

TEST(TraceWireTest, LegacyFrameDecodesUntraced) {
  RpcRequest req = MakeRequest();
  auto decoded = RpcRequest::Decode(LegacyEncoding(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->rpc_id, 7u);
  EXPECT_EQ(decoded->op, "append");
  EXPECT_EQ(decoded->trace_id, 0u);
  EXPECT_TRUE(decoded->origin.empty());
}

TEST(TraceWireTest, TraceExtensionRoundTrips) {
  RpcRequest req = MakeRequest();
  req.trace_id = 0xDEADBEEF01ULL;
  req.origin = "loadgen";
  auto decoded = RpcRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->trace_id, 0xDEADBEEF01ULL);
  EXPECT_EQ(decoded->origin, "loadgen");
  EXPECT_EQ(decoded->op, "append");
  EXPECT_EQ(decoded->body, ToBytes("payload"));
}

TEST(TraceWireTest, RejectsMalformedExtensions) {
  RpcRequest req = MakeRequest();

  // Unknown extension tag: still trailing garbage.
  Bytes bad_tag = LegacyEncoding(req);
  PutU32(bad_tag, 0x12345678);
  PutU64(bad_tag, 1);
  PutString(bad_tag, "x");
  EXPECT_FALSE(RpcRequest::Decode(bad_tag).ok());

  // A trace extension must carry a nonzero id (zero means untraced and
  // must be encoded by omission, keeping untraced frames legacy-exact).
  Bytes zero_id = LegacyEncoding(req);
  PutU32(zero_id, kTraceExtMagic);
  PutU64(zero_id, 0);
  PutString(zero_id, "x");
  EXPECT_FALSE(RpcRequest::Decode(zero_id).ok());

  // Oversized origin.
  Bytes big_origin = LegacyEncoding(req);
  PutU32(big_origin, kTraceExtMagic);
  PutU64(big_origin, 1);
  PutString(big_origin, std::string(kMaxTraceOriginBytes + 1, 'o'));
  EXPECT_FALSE(RpcRequest::Decode(big_origin).ok());

  // Bytes after a well-formed extension.
  RpcRequest traced = MakeRequest();
  traced.trace_id = 5;
  Bytes trailing = traced.Encode();
  trailing.push_back(0);
  EXPECT_FALSE(RpcRequest::Decode(trailing).ok());
}

TEST(ScopedTraceTest, NestsAndRestores) {
  EXPECT_EQ(CurrentTraceId(), 0u);
  {
    ScopedTrace outer(10, "outer");
    EXPECT_EQ(CurrentTraceId(), 10u);
    EXPECT_EQ(CurrentTraceOrigin(), "outer");
    {
      ScopedTrace inner(20, "inner");
      EXPECT_EQ(CurrentTraceId(), 20u);
      EXPECT_EQ(CurrentTraceOrigin(), "inner");
    }
    EXPECT_EQ(CurrentTraceId(), 10u);
    EXPECT_EQ(CurrentTraceOrigin(), "outer");
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
  EXPECT_TRUE(CurrentTraceOrigin().empty());
}

class TracePropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (SocketTestsDisabled()) {
      GTEST_SKIP() << "WEDGE_SKIP_SOCKET_TESTS=1";
    }
    ShardedDeploymentConfig config;
    config.engine.num_shards = 1;
    config.engine.forest_stage2 = false;
    config.engine.node.batch_size = 4;
    config.engine.node.worker_threads = 1;
    auto d = ShardedDeployment::Create(config);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    deployment_ = std::move(d).value();
    server_key_ = std::make_unique<KeyPair>(
        KeyPair::FromSeed(config.engine_key_seed));
    ShardedLogEngine& engine = deployment_->engine();
    RpcServerConfig server_config;  // Ephemeral port.
    server_ = std::make_unique<RpcServer>(
        RpcServer::Handler([&engine](std::string_view op, const Bytes& body) {
          return DispatchEngineRpc(engine, op, body);
        }),
        *server_key_, server_config, &deployment_->telemetry());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
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

TEST_F(TracePropagationTest, TraceIdCrossesTheWireIntoServerSpans) {
  Telemetry client_telemetry{RealClock::Global()};
  TcpClientConfig config;
  config.port = server_->port();
  config.telemetry = &client_telemetry;
  TcpNodeClient client(KeyPair::FromSeed(0xC11E), server_key_->address(),
                       config);
  ASSERT_TRUE(client.Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;

  constexpr uint64_t kTraceId = 0xAB54A98CEB1F0AD2ULL;
  {
    ScopedTrace scope(kTraceId, "trace-test");
    auto responses = client.AppendForTenant(0, MakeBatch(publisher, seq, 4));
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  }
  // A second, untraced call: its server spans must NOT carry the id.
  auto untraced = client.AppendForTenant(0, MakeBatch(publisher, seq, 4));
  ASSERT_TRUE(untraced.ok());
  client.Close();

  bool saw_rpc_recv = false, saw_traced_ingest = false;
  for (const TraceEvent& ev : deployment_->telemetry().tracer.Events()) {
    if (ev.stage == trace_stage::kRpcRecv && ev.trace_id == kTraceId) {
      saw_rpc_recv = true;
      EXPECT_EQ(ev.origin, "trace-test");
    }
    if (ev.stage == trace_stage::kIngest && ev.trace_id == kTraceId) {
      saw_traced_ingest = true;
    }
    // No id leaked onto spans of the untraced request.
    if (ev.trace_id != 0) {
      EXPECT_EQ(ev.trace_id, kTraceId);
    }
  }
  EXPECT_TRUE(saw_rpc_recv);
  EXPECT_TRUE(saw_traced_ingest);

  // Per-op latency histograms materialized on both ends of the wire.
  MetricsSnapshot server_snap = deployment_->telemetry().metrics.Snapshot();
  const HistogramSnapshot* server_op =
      server_snap.FindHistogram("wedge.rpc.op_us{op=appendT}");
  ASSERT_NE(server_op, nullptr);
  EXPECT_EQ(server_op->count, 2u);
  MetricsSnapshot client_snap = client_telemetry.metrics.Snapshot();
  const HistogramSnapshot* client_op =
      client_snap.FindHistogram("wedge.client.rpc_us{op=appendT}");
  ASSERT_NE(client_op, nullptr);
  EXPECT_EQ(client_op->count, 2u);
}

TEST_F(TracePropagationTest, ClientWithoutTelemetryStaysQuiet) {
  TcpClientConfig config;
  config.port = server_->port();  // No telemetry wired in.
  TcpNodeClient client(KeyPair::FromSeed(0xC11E), server_key_->address(),
                       config);
  ASSERT_TRUE(client.Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  ASSERT_TRUE(client.AppendForTenant(0, MakeBatch(publisher, seq, 4)).ok());
  client.Close();
  // The server still serves and records; the client just has nowhere to
  // record — this must not crash or allocate a registry behind our back.
  MetricsSnapshot snap = deployment_->telemetry().metrics.Snapshot();
  EXPECT_GE(snap.CounterValue("wedge.rpc.requests"), 1u);
}

}  // namespace
}  // namespace wedge
