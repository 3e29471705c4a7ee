// Loopback end-to-end tests for the TCP transport (src/rpc/): RpcServer +
// TcpNodeClient against a live single-shard engine (the classic stage-2
// configuration wedgeblockd serves by default) on an ephemeral 127.0.0.1
// port. Also replays malformed, tampered, replayed and reordered frames
// against the server over raw sockets that run the session handshake,
// and drives the client against hand-written servers (impostor keys,
// stale rpc_ids, bad reply tags, slow replies) to pin down the hardening
// rules.
//
// Set WEDGE_SKIP_SOCKET_TESTS=1 to skip at runtime (sandboxes without
// loopback networking); the WEDGE_SKIP_SOCKET_TESTS CMake option removes
// the binary from the build entirely.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"
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

// Blocking loopback dial for raw-frame tests (the adversary's socket).
int DialLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool WriteAll(int fd, const Bytes& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Reads frames off `fd` until one completes (or EOF / timeout).
Result<Bytes> ReadOneFrame(int fd) {
  FrameDecoder decoder;
  uint8_t buf[4096];
  while (true) {
    Bytes payload;
    auto got = decoder.Next(&payload);
    if (!got.ok()) return got.status();
    if (*got) return payload;
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) return Status::Unavailable("peer closed");
    if (n < 0) return Status::Timeout("read timed out");
    decoder.Feed(buf, static_cast<size_t>(n));
  }
}

// Loopback listener on an ephemeral port, for hand-written servers.
int ListenLoopback(uint16_t* port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;  // Port 0: ephemeral.
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  socklen_t len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 1) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

// The client side of the session handshake over a raw socket.
Result<Session> HandshakeAsClient(int fd, const Address& server) {
  WEDGE_ASSIGN_OR_RETURN(ClientHello hello, StartClientHandshake());
  if (!WriteAll(fd, EncodeFrame(hello.payload))) {
    return Status::Unavailable("hello not sent");
  }
  WEDGE_ASSIGN_OR_RETURN(Bytes reply, ReadOneFrame(fd));
  return FinishClientHandshake(hello, server, reply);
}

// The server side of the session handshake over an accepted raw socket.
Result<Session> HandshakeAsServer(int fd, const KeyPair& key) {
  WEDGE_ASSIGN_OR_RETURN(Bytes hello, ReadOneFrame(fd));
  WEDGE_ASSIGN_OR_RETURN(ServerHandshake handshake,
                         AcceptClientHello(key, hello));
  if (!WriteAll(fd, EncodeFrame(handshake.reply))) {
    return Status::Unavailable("reply not sent");
  }
  return std::move(handshake.session);
}

Bytes Sealed(Session& session, const Bytes& payload) {
  Bytes frame;
  session.Seal(payload, &frame);
  return frame;
}

// Reads one request frame off `fd`, opens it and returns its rpc_id.
Result<uint64_t> ReadRequestId(int fd, Session& session) {
  WEDGE_ASSIGN_OR_RETURN(Bytes frame, ReadOneFrame(fd));
  WEDGE_RETURN_IF_ERROR(session.Open(&frame));
  WEDGE_ASSIGN_OR_RETURN(RpcRequest request, RpcRequest::Decode(frame));
  return request.rpc_id;
}

// A one-connection server that completes the handshake with `key`, reads
// one request, and answers it with whatever `reply` writes to the socket
// (given the session and the request's rpc_id). It then holds the socket
// open until the client hangs up.
template <typename ReplyFn>
void ServeOneRequest(int listen_fd, const KeyPair& key, ReplyFn reply) {
  int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return;
  timeval tv{.tv_sec = 5, .tv_usec = 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  auto session = HandshakeAsServer(fd, key);
  if (session.ok()) {
    auto rpc_id = ReadRequestId(fd, *session);
    if (rpc_id.ok()) {
      reply(fd, *session, *rpc_id);
      uint8_t byte;
      while (::read(fd, &byte, 1) > 0) {
      }
    }
  }
  ::close(fd);
}

// Answers the first request with a reply under the wrong rpc_id and —
// when `genuine_body` is set — then the real reply, both sealed in the
// session the real server key established.
void ServeStaleThenGenuine(int listen_fd, const KeyPair& key,
                           const Bytes& stale_body,
                           const std::optional<Bytes>& genuine_body) {
  ServeOneRequest(listen_fd, key,
                  [&](int fd, Session& session, uint64_t rpc_id) {
                    auto send = [&](uint64_t id, const Bytes& body) {
                      WriteAll(fd, Sealed(session,
                                          RpcResponse::Success(id, body)
                                              .Encode()));
                    };
                    send(rpc_id + 1000, stale_body);
                    if (genuine_body.has_value()) send(rpc_id, *genuine_body);
                  });
}

// Polls `done` for up to five seconds.
template <typename Pred>
bool Eventually(Pred done) {
  for (int i = 0; i < 500 && !done(); ++i) ::usleep(10'000);
  return done();
}

constexpr TenantId kTenant = 0;

class RpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (SocketTestsDisabled()) {
      GTEST_SKIP() << "WEDGE_SKIP_SOCKET_TESTS=1";
    }
    ShardedDeploymentConfig config = Config();
    auto d = ShardedDeployment::Create(config);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    deployment_ = std::move(d).value();
    server_key_ = std::make_unique<KeyPair>(
        KeyPair::FromSeed(config.engine_key_seed));
    RpcServerConfig server_config;  // Ephemeral port.
    server_ = std::make_unique<RpcServer>(EngineHandler(), *server_key_,
                                          server_config,
                                          &deployment_->telemetry());
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  // A bare node: one shard with the classic stage-2 stream.
  static ShardedDeploymentConfig Config() {
    ShardedDeploymentConfig config;
    config.engine.num_shards = 1;
    config.engine.forest_stage2 = false;
    config.engine.node.batch_size = 4;
    config.engine.node.worker_threads = 1;
    return config;
  }

  ShardedLogEngine& engine() { return deployment_->engine(); }

  RpcServer::Handler EngineHandler() {
    ShardedLogEngine& e = engine();
    return [&e](std::string_view op, const Bytes& body) {
      return DispatchEngineRpc(e, op, body);
    };
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  std::unique_ptr<TcpNodeClient> MakeClient(int pool_size = 1,
                                            Micros timeout = 5 *
                                                             kMicrosPerSecond) {
    TcpClientConfig config;
    config.port = server_->port();
    config.pool_size = pool_size;
    config.rpc_timeout = timeout;
    return std::make_unique<TcpNodeClient>(KeyPair::FromSeed(0xC11E),
                                           server_key_->address(), config);
  }

  static std::vector<AppendRequest> MakeBatch(const KeyPair& publisher,
                                              uint64_t& seq, int n,
                                              const std::string& tag = "k") {
    std::vector<AppendRequest> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(AppendRequest::Make(publisher, seq++,
                                        ToBytes(tag + std::to_string(i)),
                                        ToBytes("v")));
    }
    return out;
  }

  std::unique_ptr<ShardedDeployment> deployment_;
  std::unique_ptr<KeyPair> server_key_;
  std::unique_ptr<RpcServer> server_;
};

TEST_F(RpcTest, AppendReadAndBatchReadOverLoopback) {
  auto client = MakeClient(/*pool_size=*/2);
  ASSERT_TRUE(client->Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;

  auto responses =
      client->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4));
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), 4u);
  for (const auto& r : *responses) {
    EXPECT_TRUE(r.Verify(engine().address()));
  }

  auto read = client->ReadOneForTenant(kTenant, EntryIndex{0, 2});
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->index, (EntryIndex{0, 2}));
  EXPECT_TRUE(read->Verify(engine().address()));

  auto missing = client->ReadOneForTenant(kTenant, EntryIndex{9, 0});
  ASSERT_FALSE(missing.ok());
  // Remote errors arrive typed (Status::FromWireString round-trip).
  EXPECT_EQ(missing.status().code(), Code::kNotFound);

  auto batch = client->ReadBatchForTenant(kTenant, 0, {0, 3});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->entries.size(), 2u);
  EXPECT_TRUE(batch->Verify(engine().address()));

  EXPECT_EQ(client->discarded_responses(), 0u);
  EXPECT_EQ(server_->requests_served(), 4u);
  // One queue-wait sample per served request (the hello is not one).
  MetricsSnapshot snap = deployment_->telemetry().metrics.Snapshot();
  const HistogramSnapshot* queue_wait =
      snap.FindHistogram("wedge.rpc.queue_wait_us");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_EQ(queue_wait->count, server_->requests_served());
  client->Close();
}

TEST_F(RpcTest, ConcurrentPipelinedClientsEveryProofVerifies) {
  auto client = MakeClient(/*pool_size=*/2);
  ASSERT_TRUE(client->Connect().ok());
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      KeyPair publisher = KeyPair::FromSeed(1000 + t);
      uint64_t seq = 0;
      for (int round = 0; round < kRounds; ++round) {
        auto responses = client->AppendForTenant(
            kTenant,
            MakeBatch(publisher, seq, 4, "t" + std::to_string(t) + "-"));
        if (!responses.ok() || responses->size() != 4) {
          ++failures;
          continue;
        }
        for (const auto& r : *responses) {
          if (!r.Verify(engine().address())) ++failures;
        }
        auto read = client->ReadOneForTenant(kTenant, responses->front().index);
        if (!read.ok() || read->index != responses->front().index ||
            !read->Verify(engine().address())) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(client->discarded_responses(), 0u);
  EXPECT_EQ(client->reconnects(), 0u);
  // One append + one read per round per thread.
  EXPECT_EQ(server_->requests_served(),
            static_cast<uint64_t>(kThreads * kRounds * 2));
  client->Close();
  server_->Shutdown();  // Graceful drain with clients having been active.
}

TEST_F(RpcTest, OutOfOrderResponsesOnOneSocket) {
  // pool_size=1 forces both threads onto one pipelined socket: a slow big
  // append and fast small reads interleave, so responses come back out of
  // order and must be correlated by rpc_id.
  auto client = MakeClient(/*pool_size=*/1);
  ASSERT_TRUE(client->Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  ASSERT_TRUE(
      client->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4)).ok());

  std::atomic<int> failures{0};
  std::thread writer([&] {
    KeyPair big_publisher = KeyPair::FromSeed(2000);
    uint64_t big_seq = 0;
    for (int i = 0; i < 5; ++i) {
      std::vector<AppendRequest> batch;
      for (int j = 0; j < 32; ++j) {
        batch.push_back(AppendRequest::Make(big_publisher, big_seq++,
                                            ToBytes("big"),
                                            Bytes(16 * 1024, 0xAB)));
      }
      if (!client->AppendForTenant(kTenant, batch).ok()) ++failures;
    }
  });
  std::thread reader([&] {
    for (int i = 0; i < 40; ++i) {
      auto read = client->ReadOneForTenant(
          kTenant, EntryIndex{0, static_cast<uint32_t>(i % 4)});
      if (!read.ok() ||
          read->index.offset != static_cast<uint32_t>(i % 4)) {
        ++failures;
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(client->discarded_responses(), 0u);
  client->Close();
}

TEST_F(RpcTest, TcpAndInProcessEngineRepliesAreByteIdentical) {
  // One seeded workload over TCP and, in lock step, through an
  // identically seeded in-process engine must produce byte-identical
  // replies (RFC 6979 signing makes the node's signatures
  // deterministic): the transport frames, signs and routes, but never
  // changes what the engine says.
  auto local = ShardedDeployment::Create(Config());
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  ShardedLogEngine& in_process = (*local)->engine();
  auto client = MakeClient();
  ASSERT_TRUE(client->Connect().ok());

  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t tcp_seq = 0, local_seq = 0;
  std::vector<EntryIndex> written;
  Rng rng(0x5EED);
  for (int op = 0; op < 40; ++op) {
    uint64_t kind = written.empty() ? 0 : rng.Uniform(3);
    if (kind == 0) {
      int n = 1 + static_cast<int>(rng.Uniform(6));
      auto tcp = client->AppendForTenant(kTenant,
                                         MakeBatch(publisher, tcp_seq, n));
      auto mem = in_process.Append(kTenant, MakeBatch(publisher, local_seq, n));
      ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
      ASSERT_TRUE(mem.ok()) << mem.status().ToString();
      ASSERT_EQ(tcp->size(), mem->size());
      for (size_t i = 0; i < tcp->size(); ++i) {
        EXPECT_EQ((*tcp)[i].Serialize(), (*mem)[i].Serialize())
            << "op " << op << " append response " << i;
        written.push_back((*tcp)[i].index);
      }
    } else if (kind == 1) {
      EntryIndex index = written[rng.Uniform(written.size())];
      auto tcp = client->ReadOneForTenant(kTenant, index);
      auto mem = in_process.ReadOne(kTenant, index);
      ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
      ASSERT_TRUE(mem.ok()) << mem.status().ToString();
      EXPECT_EQ(tcp->Serialize(), mem->Serialize()) << "op " << op;
    } else {
      uint64_t log_id = written[rng.Uniform(written.size())].log_id;
      std::vector<uint32_t> offsets;  // Empty: the whole position.
      if (rng.Bernoulli(0.5)) offsets.push_back(0);
      auto tcp = client->ReadBatchForTenant(kTenant, log_id, offsets);
      auto mem = in_process.ReadBatch(kTenant, log_id, offsets);
      ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
      ASSERT_TRUE(mem.ok()) << mem.status().ToString();
      EXPECT_EQ(tcp->Serialize(), mem->Serialize()) << "op " << op;
    }
  }
  // Failures are identical too: the typed status crosses the wire.
  auto tcp_missing = client->ReadOneForTenant(kTenant, EntryIndex{999, 0});
  auto mem_missing = in_process.ReadOne(kTenant, EntryIndex{999, 0});
  ASSERT_FALSE(tcp_missing.ok());
  ASSERT_FALSE(mem_missing.ok());
  EXPECT_EQ(tcp_missing.status().code(), mem_missing.status().code());
  client->Close();
}

TEST_F(RpcTest, MalformedFrameCorpusAgainstTcpServer) {
  // Complete a real handshake, seal one valid append frame, then send
  // mutated copies of it. The server may not crash or serve a mutant,
  // and must keep serving valid traffic afterwards.
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  RpcRequest request;
  request.rpc_id = 1;
  request.op = std::string(kOpAppendTenant);
  request.body = EncodeTenantAppendBody(kTenant, MakeBatch(publisher, seq, 4));
  const Bytes payload = request.Encode();

  Rng rng(0xC0FFEE);
  // A few adversarial connections, several mutants each.
  for (int conn = 0; conn < 8; ++conn) {
    int fd = DialLoopback(server_->port());
    ASSERT_GE(fd, 0);
    auto session = HandshakeAsClient(fd, server_key_->address());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    const Bytes frame = Sealed(*session, payload);
    for (int m = 0; m < 8; ++m) {
      Bytes mutant = frame;
      size_t flips = 1 + rng.Uniform(8);
      for (size_t f = 0; f < flips; ++f) {
        mutant[rng.Uniform(mutant.size())] ^= 1 << rng.Uniform(8);
      }
      if (mutant == frame) continue;  // The flips cancelled out.
      if (!WriteAll(fd, mutant)) break;  // Server closed on us: expected.
    }
    ::close(fd);
  }
  EXPECT_EQ(server_->requests_served(), 0u);

  // The server still serves valid traffic.
  EXPECT_TRUE(server_->running());
  auto tcp_client = MakeClient();
  auto responses =
      tcp_client->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4));
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  for (const auto& r : *responses) {
    EXPECT_TRUE(r.Verify(engine().address()));
  }
  tcp_client->Close();
}

TEST_F(RpcTest, OversizeAndGarbageFramesCloseTheConnection) {
  // Length field over the server's limit: connection must be closed.
  int fd = DialLoopback(server_->port());
  ASSERT_GE(fd, 0);
  Bytes header;
  PutU32(header, kFrameMagic);
  PutU32(header, static_cast<uint32_t>(kDefaultMaxFrameBytes + 1));
  ASSERT_TRUE(WriteAll(fd, header));
  uint8_t buf[16];
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);  // EOF: server closed.
  ::close(fd);

  // Garbage magic: same fate.
  fd = DialLoopback(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteAll(fd, ToBytes("GET / HTTP/1.1\r\n\r\n")));
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);
  ::close(fd);

  // The server shrugs it off.
  EXPECT_TRUE(server_->running());
  auto client = MakeClient();
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  EXPECT_TRUE(
      client->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4)).ok());
  client->Close();
}

TEST_F(RpcTest, WellTaggedUndecodableRequestGetsTypedErrorReply) {
  // A well-tagged frame whose payload has a readable rpc_id but is
  // otherwise garbage: the server must answer with an error response
  // carrying that rpc_id (not crash, not stay silent).
  Bytes payload;
  PutU64(payload, 5555);
  PutU32(payload, 0xFFFFFFFF);  // Absurd op-name length.
  int fd = DialLoopback(server_->port());
  ASSERT_GE(fd, 0);
  auto session = HandshakeAsClient(fd, server_key_->address());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(WriteAll(fd, Sealed(*session, payload)));

  auto reply = ReadOneFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(session->Open(&*reply).ok());
  auto response = RpcResponse::Decode(*reply);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->rpc_id, 5555u);
  EXPECT_FALSE(response->ok);
  EXPECT_FALSE(response->error.empty());
  ::close(fd);
}

TEST_F(RpcTest, ClientReconnectsAfterServerRestart) {
  TcpClientConfig client_config;
  client_config.port = server_->port();
  client_config.rpc_timeout = 2 * kMicrosPerSecond;
  TcpNodeClient client(KeyPair::FromSeed(0xC11E), server_key_->address(),
                       client_config);
  ASSERT_TRUE(client.Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  ASSERT_TRUE(
      client.AppendForTenant(kTenant, MakeBatch(publisher, seq, 4)).ok());

  uint16_t port = server_->port();
  server_->Shutdown();
  EXPECT_FALSE(client.ReadOneForTenant(kTenant, EntryIndex{0, 0}).ok());

  // Same node, same port: the client must redial with backoff and recover.
  RpcServerConfig server_config;
  server_config.port = port;
  RpcServer revived(EngineHandler(), *server_key_, server_config);
  ASSERT_TRUE(revived.Start().ok());
  bool recovered = false;
  for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
    recovered = client.ReadOneForTenant(kTenant, EntryIndex{0, 0}).ok();
    if (!recovered) ::usleep(50'000);
  }
  EXPECT_TRUE(recovered);
  EXPECT_GE(client.reconnects(), 1u);
  client.Close();
  revived.Shutdown();
}

TEST_F(RpcTest, AppendAfterAServerRestartRedialsAndLandsOnce) {
  // With no call in flight nothing reads the client's socket, so the
  // restarted server's close is still unread when the next append starts.
  // The client must notice it before writing: an append written into the
  // dead socket would fail as sent (and never be resent), where a redial
  // lands it.
  auto client = MakeClient();
  ASSERT_TRUE(client->Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  ASSERT_TRUE(
      client->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4)).ok());

  uint16_t port = server_->port();
  server_->Shutdown();
  RpcServerConfig server_config;
  server_config.port = port;
  RpcServer revived(EngineHandler(), *server_key_, server_config);
  ASSERT_TRUE(revived.Start().ok());

  auto appended =
      client->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4, "after"));
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_EQ(client->reconnects(), 1u);
  EXPECT_EQ(client->retries(), 0u);
  EXPECT_EQ(revived.requests_served(), 1u);
  // Exactly once: one more position, which reads back as appended.
  EXPECT_EQ(engine().shard(0).LogPositions(), 2u);
  for (const Stage1Response& r : *appended) {
    EXPECT_EQ(r.index.log_id, 1u);
    auto read = client->ReadOneForTenant(kTenant, r.index);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read->Serialize(), r.Serialize());
  }
  client->Close();
  revived.Shutdown();
}

TEST_F(RpcTest, DrainServesPipelinedRequestsAcrossHalfCloseAndRestart) {
  // A client pipelines requests and half-closes its write side before
  // reading any reply. The server has already TCP-acked those requests;
  // dropping the produced responses on EOF (or on shutdown) would be
  // acks-then-drops, which a restarting shard must never do. Big replies
  // make sure the write buffers cannot be flushed in one pass, so the
  // drain path itself is on the hook.
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  std::vector<AppendRequest> big;
  std::vector<uint32_t> offsets;
  // One full batch (batch_size=4) of fat entries: every readBatch reply
  // below is ~1MB, so six pipelined replies cannot hide in the kernel
  // socket buffers while the peer is not reading.
  for (int i = 0; i < 4; ++i) {
    big.push_back(AppendRequest::Make(publisher, seq++, ToBytes("big"),
                                      Bytes(256 * 1024, 0xAB)));
    offsets.push_back(static_cast<uint32_t>(i));
  }
  {
    auto setup_client = MakeClient();
    ASSERT_TRUE(setup_client->Connect().ok());
    ASSERT_TRUE(setup_client->AppendForTenant(kTenant, big).ok());
    setup_client->Close();
  }

  constexpr int kPipelined = 6;
  int fd = DialLoopback(server_->port());
  ASSERT_GE(fd, 0);
  auto session = HandshakeAsClient(fd, server_key_->address());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Bytes wire;
  for (int i = 0; i < kPipelined; ++i) {
    RpcRequest request;
    request.rpc_id = 100 + static_cast<uint64_t>(i);
    request.op = std::string(kOpReadBatchTenant);
    request.body = EncodeTenantReadBatchBody(kTenant, 0, offsets);
    session->Seal(request.Encode(), &wire);
  }
  ASSERT_TRUE(WriteAll(fd, wire));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);  // Server sees EOF immediately.

  // One decoder across all replies: back-to-back frames straddle read
  // chunks, so per-call decoders (ReadOneFrame) would drop the tail.
  FrameDecoder decoder;
  uint8_t rbuf[64 * 1024];
  auto read_next_frame = [&]() -> Result<Bytes> {
    while (true) {
      Bytes payload;
      auto got = decoder.Next(&payload);
      if (!got.ok()) return got.status();
      if (*got) return payload;
      ssize_t n = ::read(fd, rbuf, sizeof(rbuf));
      if (n == 0) return Status::Unavailable("peer closed");
      if (n < 0) return Status::Timeout("read timed out");
      decoder.Feed(rbuf, static_cast<size_t>(n));
    }
  };
  std::set<uint64_t> rpc_ids;
  for (int i = 0; i < kPipelined; ++i) {
    auto reply = read_next_frame();
    ASSERT_TRUE(reply.ok())
        << "reply " << i << " lost: " << reply.status().ToString();
    ASSERT_TRUE(session->Open(&*reply).ok()) << "reply " << i;
    auto response = RpcResponse::Decode(*reply);
    ASSERT_TRUE(response.ok());
    EXPECT_TRUE(response->ok) << response->error;
    rpc_ids.insert(response->rpc_id);
  }
  EXPECT_EQ(rpc_ids.size(), static_cast<size_t>(kPipelined));
  ::close(fd);

  // Restart path: graceful shutdown, then revive on the same port. The
  // drained node must come back serving the same log.
  uint16_t port = server_->port();
  server_->Shutdown();
  RpcServerConfig server_config;
  server_config.port = port;
  RpcServer revived(EngineHandler(), *server_key_, server_config);
  ASSERT_TRUE(revived.Start().ok());
  auto client = MakeClient();
  bool recovered = false;
  for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
    auto read = client->ReadOneForTenant(kTenant, EntryIndex{0, 0});
    recovered = read.ok() && read->Verify(engine().address());
    if (!recovered) ::usleep(50'000);
  }
  EXPECT_TRUE(recovered);
  client->Close();
  revived.Shutdown();
}

TEST_F(RpcTest, ShutdownIsIdempotentAndRefusesNewWork) {
  auto client = MakeClient(/*pool_size=*/1, /*timeout=*/kMicrosPerSecond);
  ASSERT_TRUE(client->Connect().ok());
  server_->Shutdown();
  server_->Shutdown();  // Idempotent.
  EXPECT_FALSE(server_->running());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  EXPECT_FALSE(
      client->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4)).ok());
  client->Close();
  client->Close();  // Also idempotent.
}

TEST_F(RpcTest, EmptyOffsetListReadsTheWholePosition) {
  auto client = MakeClient();
  ASSERT_TRUE(client->Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  ASSERT_TRUE(
      client->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4)).ok());
  auto whole = client->ReadBatchForTenant(kTenant, 0, {});
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ASSERT_EQ(whole->entries.size(), 4u);
  for (size_t i = 0; i < whole->entries.size(); ++i) {
    EXPECT_EQ(whole->entries[i].first, i);
  }
  EXPECT_TRUE(whole->Verify(engine().address()));
  client->Close();
}

TEST_F(RpcTest, ImpostorServerFailsTheHandshake) {
  // A second server over the same engine holds a transport key the
  // client does not pin: the handshake fails at dial time, so no request
  // ever reaches it.
  RpcServer impostor(EngineHandler(), KeyPair::FromSeed(666),
                     RpcServerConfig{});
  ASSERT_TRUE(impostor.Start().ok());
  TcpClientConfig config;
  config.port = impostor.port();
  config.rpc_timeout = 300 * kMicrosPerMilli;
  TcpNodeClient pinned(KeyPair::FromSeed(0xC11E), server_key_->address(),
                       config);
  Status connected = pinned.Connect();
  ASSERT_FALSE(connected.ok());
  EXPECT_EQ(connected.code(), Code::kUnavailable);
  EXPECT_NE(connected.ToString().find("handshake"), std::string::npos)
      << connected.ToString();
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  auto result = pinned.AppendForTenant(kTenant, MakeBatch(publisher, seq, 4));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kUnavailable);
  pinned.Close();
  EXPECT_EQ(impostor.requests_served(), 0u);
  impostor.Shutdown();
}

TEST_F(RpcTest, MismatchedRpcIdIsNeverDeliveredToAWaiter) {
  // Genuine entries make the stale reply maximally plausible: signed by
  // the real server key, carrying a decodable Stage1Response — only the
  // rpc_id is wrong.
  auto seeding = MakeClient();
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  ASSERT_TRUE(
      seeding->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4)).ok());
  auto stale = seeding->ReadOneForTenant(kTenant, EntryIndex{0, 0});
  auto genuine = seeding->ReadOneForTenant(kTenant, EntryIndex{0, 1});
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(genuine.ok());
  seeding->Close();

  // Reads entry {0,1} from a hand-written server that sends the stale
  // reply first and then, when given, the genuine one.
  auto read_via_fake = [&](const std::optional<Bytes>& genuine_body,
                           Micros timeout, uint64_t* discarded) {
    uint16_t port = 0;
    int listen_fd = ListenLoopback(&port);
    EXPECT_GE(listen_fd, 0);
    std::thread fake([&] {
      ServeStaleThenGenuine(listen_fd, *server_key_, stale->Serialize(),
                            genuine_body);
    });
    TcpClientConfig config;
    config.port = port;
    config.rpc_timeout = timeout;
    TcpNodeClient client(KeyPair::FromSeed(0xC11E), server_key_->address(),
                         config);
    auto read = client.ReadOneForTenant(kTenant, EntryIndex{0, 1});
    Eventually([&] { return client.discarded_responses() >= 1; });
    *discarded = client.discarded_responses();
    client.Close();  // Lets the fake server see EOF.
    fake.join();
    ::close(listen_fd);
    return read;
  };

  // Case 1: a stale reply races a live call. The client must skip it and
  // return the answer for the rpc_id it actually issued.
  uint64_t discarded = 0;
  auto read = read_via_fake(genuine->Serialize(), 5 * kMicrosPerSecond,
                            &discarded);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->index, (EntryIndex{0, 1}));  // Not the stale {0,0}.
  EXPECT_EQ(read->Serialize(), genuine->Serialize());
  EXPECT_EQ(discarded, 1u);

  // Case 2: the stale reply is the only traffic. If a mismatched rpc_id
  // could satisfy a waiter this would "succeed" with the stale entry;
  // instead it must time out.
  auto alone = read_via_fake(std::nullopt, 300 * kMicrosPerMilli, &discarded);
  ASSERT_FALSE(alone.ok());
  EXPECT_EQ(alone.status().code(), Code::kDeadlineExceeded);
  EXPECT_EQ(discarded, 1u);
}

// A sealed append request of 4 entries (one full log position).
Bytes AppendRequestPayload(uint64_t rpc_id, uint64_t* seq) {
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  std::vector<AppendRequest> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(AppendRequest::Make(publisher, (*seq)++,
                                        ToBytes("k" + std::to_string(i)),
                                        ToBytes("v")));
  }
  RpcRequest request;
  request.rpc_id = rpc_id;
  request.op = std::string(kOpAppendTenant);
  request.body = EncodeTenantAppendBody(kTenant, batch);
  return request.Encode();
}

TEST_F(RpcTest, TamperedFrameClosesTheConnectionUnserved) {
  // A sealed frame with one payload byte flipped no longer matches its
  // tag: the server closes the connection without serving or answering.
  uint64_t seq = 0;
  int fd = DialLoopback(server_->port());
  ASSERT_GE(fd, 0);
  auto session = HandshakeAsClient(fd, server_key_->address());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Bytes frame = Sealed(*session, AppendRequestPayload(7, &seq));
  frame[kFrameHeaderBytes + 3] ^= 1;
  ASSERT_TRUE(WriteAll(fd, frame));
  uint8_t buf[16];
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);  // EOF, no reply.
  ::close(fd);
  EXPECT_EQ(server_->requests_served(), 0u);
  EXPECT_EQ(engine().shard(0).LogPositions(), 0u);
}

TEST_F(RpcTest, ReplayedFrameIsServedOnceThenTheConnectionCloses) {
  // The same sealed append frame twice: the copy carries a used sequence
  // number, so the append lands once and the connection closes.
  const uint64_t malformed_before =
      deployment_->telemetry().metrics.Snapshot().CounterValue(
          "wedge.rpc.malformed_frames");
  uint64_t seq = 0;
  int fd = DialLoopback(server_->port());
  ASSERT_GE(fd, 0);
  auto session = HandshakeAsClient(fd, server_key_->address());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const Bytes frame = Sealed(*session, AppendRequestPayload(8, &seq));
  Bytes twice = frame;
  Append(twice, frame);
  ASSERT_TRUE(WriteAll(fd, twice));
  // The first copy's reply, then EOF.
  FrameDecoder decoder;
  uint8_t buf[4096];
  std::vector<Bytes> replies;
  for (;;) {
    Bytes reply;
    auto got = decoder.Next(&reply);
    ASSERT_TRUE(got.ok());
    if (*got) {
      replies.push_back(std::move(reply));
      continue;
    }
    ssize_t n = ::read(fd, buf, sizeof(buf));
    ASSERT_GE(n, 0) << "no EOF";
    if (n == 0) break;
    decoder.Feed(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  // The server flushes the reply it already produced before it closes.
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_TRUE(session->Open(&replies[0]).ok());
  auto response = RpcResponse::Decode(replies[0]);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->rpc_id, 8u);
  EXPECT_TRUE(response->ok) << response->error;
  EXPECT_EQ(server_->requests_served(), 1u);
  EXPECT_EQ(engine().shard(0).LogPositions(), 1u);
  EXPECT_EQ(deployment_->telemetry().metrics.Snapshot().CounterValue(
                "wedge.rpc.malformed_frames"),
            malformed_before + 1);
}

TEST_F(RpcTest, ReorderedFramesCloseTheConnectionUnserved) {
  // Frame 1 arrives before frame 0: it fails its tag at sequence number
  // 0, and the connection closes before either is served.
  uint64_t seq = 0;
  int fd = DialLoopback(server_->port());
  ASSERT_GE(fd, 0);
  auto session = HandshakeAsClient(fd, server_key_->address());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  const Bytes first = Sealed(*session, AppendRequestPayload(1, &seq));
  const Bytes second = Sealed(*session, AppendRequestPayload(2, &seq));
  Bytes swapped = second;
  Append(swapped, first);
  ASSERT_TRUE(WriteAll(fd, swapped));
  uint8_t buf[16];
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);  // EOF, no reply.
  ::close(fd);
  EXPECT_EQ(server_->requests_served(), 0u);
  EXPECT_EQ(engine().shard(0).LogPositions(), 0u);
}

TEST_F(RpcTest, EnvelopeEraFirstFrameClosesTheConnection) {
  // An old client opens with a signed envelope, [sender][bytes
  // payload][65-byte signature], instead of a hello. The server closes
  // that connection, counts it, and keeps serving everyone else.
  const uint64_t malformed_before =
      deployment_->telemetry().metrics.Snapshot().CounterValue(
          "wedge.rpc.malformed_frames");
  KeyPair old_client = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  const Bytes request = AppendRequestPayload(3, &seq);
  Bytes material;
  Append(material, old_client.address().ToBytes());
  PutBytes(material, request);
  Bytes envelope = material;
  Append(envelope, EcdsaSign(old_client.private_key(),
                             Sha256::Digest(material))
                       .Serialize());
  int fd = DialLoopback(server_->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteAll(fd, EncodeFrame(envelope)));
  uint8_t buf[16];
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);  // EOF, no reply.
  ::close(fd);
  EXPECT_EQ(deployment_->telemetry().metrics.Snapshot().CounterValue(
                "wedge.rpc.malformed_frames"),
            malformed_before + 1);
  EXPECT_EQ(server_->requests_served(), 0u);

  auto client = MakeClient();
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t client_seq = 0;
  EXPECT_TRUE(client
                  ->AppendForTenant(kTenant,
                                    MakeBatch(publisher, client_seq, 4))
                  .ok());
  client->Close();
}

TEST_F(RpcTest, PeerThatNeverCompletesTheHandshakeFailsConnect) {
  // An envelope-era server reads the hello, fails to parse it and
  // closes; a stalled one never answers. Either way Connect() fails
  // kUnavailable, naming the handshake, within rpc_timeout.
  for (bool answer_with_close : {true, false}) {
    uint16_t port = 0;
    int listen_fd = ListenLoopback(&port);
    ASSERT_GE(listen_fd, 0);
    std::thread peer([&] {
      int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;
      timeval tv{.tv_sec = 5, .tv_usec = 0};
      setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      auto hello = ReadOneFrame(fd);
      EXPECT_TRUE(hello.ok());
      if (!answer_with_close) {
        uint8_t byte;
        while (::read(fd, &byte, 1) > 0) {
        }
      }
      ::close(fd);
    });
    TcpClientConfig config;
    config.port = port;
    config.rpc_timeout = 200 * kMicrosPerMilli;
    TcpNodeClient client(KeyPair::FromSeed(0xC11E), server_key_->address(),
                         config);
    Status connected = client.Connect();
    ASSERT_FALSE(connected.ok());
    EXPECT_EQ(connected.code(), Code::kUnavailable);
    EXPECT_NE(connected.ToString().find("handshake"), std::string::npos)
        << connected.ToString();
    client.Close();  // Lets the stalled peer see EOF.
    peer.join();
    ::close(listen_fd);
  }
}

TEST_F(RpcTest, BadReplyTagFailsInFlightCallsAndDeliversNothing) {
  // A hand-written server with the real key completes the handshake,
  // then answers with a genuine reply whose tag has one bit flipped. The
  // client must drop the connection and fail the call kUnavailable
  // without handing the reply to anyone.
  auto seeding = MakeClient();
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  ASSERT_TRUE(
      seeding->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4)).ok());
  auto genuine = seeding->ReadOneForTenant(kTenant, EntryIndex{0, 1});
  ASSERT_TRUE(genuine.ok());
  seeding->Close();

  uint16_t port = 0;
  int listen_fd = ListenLoopback(&port);
  ASSERT_GE(listen_fd, 0);
  std::thread fake([&] {
    ServeOneRequest(listen_fd, *server_key_,
                    [&](int fd, Session& session, uint64_t rpc_id) {
                      Bytes frame = Sealed(
                          session, RpcResponse::Success(rpc_id,
                                                        genuine->Serialize())
                                       .Encode());
                      frame.back() ^= 0x01;
                      WriteAll(fd, frame);
                    });
  });
  TcpClientConfig config;
  config.port = port;
  config.max_call_attempts = 1;  // One connection, one verdict.
  TcpNodeClient client(KeyPair::FromSeed(0xC11E), server_key_->address(),
                       config);
  auto read = client.ReadOneForTenant(kTenant, EntryIndex{0, 1});
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Code::kUnavailable)
      << read.status().ToString();
  EXPECT_EQ(client.discarded_responses(), 0u);
  client.Close();
  fake.join();
  ::close(listen_fd);
}

TEST_F(RpcTest, EveryFrameDroppedFailsTheCallAndLogsNothing) {
  // Total omission on the client's link: every frame send kills the
  // connection instead of delivering. The append fails typed, is not
  // resent, and the node logs nothing.
  FaultSpec spec;
  spec.send_drop_rate = 1.0;
  TcpClientConfig config;
  config.port = server_->port();
  config.faults = std::make_shared<FaultyTransport>(spec);
  TcpNodeClient client(KeyPair::FromSeed(0xC11E), server_key_->address(),
                       config);
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  auto result = client.AppendForTenant(kTenant, MakeBatch(publisher, seq, 4));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kUnavailable)
      << result.status().ToString();
  EXPECT_EQ(client.retries(), 0u);
  client.Close();
  EXPECT_EQ(server_->requests_served(), 0u);
  EXPECT_EQ(engine().shard(0).LogPositions(), 0u);
}

TEST_F(RpcTest, RequestOverTheClientCapIsRejectedBeforeSending) {
  TcpClientConfig config;
  config.port = server_->port();
  config.max_frame_bytes = 2048;
  TcpNodeClient capped(KeyPair::FromSeed(0xC11E), server_key_->address(),
                       config);
  ASSERT_TRUE(capped.Connect().ok());
  // Connect() sent the 77-byte hello; the rejected call adds nothing.
  auto bytes_in = [&] {
    return deployment_->telemetry().metrics.Snapshot().CounterValue(
        "wedge.rpc.bytes_in");
  };
  const uint64_t bytes_in_after_connect = bytes_in();
  EXPECT_EQ(bytes_in_after_connect, kFrameHeaderBytes + kHelloBytes);
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  std::vector<AppendRequest> batch;
  batch.push_back(AppendRequest::Make(publisher, 0, ToBytes("k"),
                                      Bytes(4096, 0x55)));  // Past the cap.
  auto result = capped.AppendForTenant(kTenant, batch);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kInvalidArgument);
  // Nothing crossed the wire and nothing was logged.
  capped.Close();
  EXPECT_EQ(server_->requests_served(), 0u);
  EXPECT_EQ(bytes_in(), bytes_in_after_connect);
  EXPECT_EQ(engine().shard(0).LogPositions(), 0u);
}

TEST_F(RpcTest, RequestOverTheServerCapFailsWithoutRetryAndLogsNothing) {
  RpcServerConfig server_config;
  server_config.max_frame_bytes = 1024;
  RpcServer capped(EngineHandler(), *server_key_, server_config);
  ASSERT_TRUE(capped.Start().ok());
  TcpClientConfig config;  // Default (32 MiB) client cap.
  config.port = capped.port();
  TcpNodeClient client(KeyPair::FromSeed(0xC11E), server_key_->address(),
                       config);
  ASSERT_TRUE(client.Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  std::vector<AppendRequest> batch;
  batch.push_back(AppendRequest::Make(publisher, 0, ToBytes("k"),
                                      Bytes(2048, 0x55)));
  auto result = client.AppendForTenant(kTenant, batch);
  ASSERT_FALSE(result.ok());
  // The server closes the connection on the oversize frame. The append
  // reached the wire, so it may not be resent (it might have executed).
  EXPECT_EQ(result.status().code(), Code::kUnavailable)
      << result.status().ToString();
  EXPECT_EQ(client.retries(), 0u);
  EXPECT_EQ(capped.requests_served(), 0u);
  EXPECT_EQ(engine().shard(0).LogPositions(), 0u);
  client.Close();
  capped.Shutdown();
}

TEST_F(RpcTest, SlowReplyIsDeadlineExceededAndTheAppendLandsOnce) {
  // The node serves the request, but the reply cannot arrive before the
  // deadline — the client must see kDeadlineExceeded (the omission
  // surface), not a late success, and must not resend the append.
  RpcServer::Handler dispatch = EngineHandler();
  RpcServer slow(
      [dispatch](std::string_view op, const Bytes& body) {
        if (op == kOpAppendTenant) {
          std::this_thread::sleep_for(std::chrono::milliseconds(300));
        }
        return dispatch(op, body);
      },
      *server_key_, RpcServerConfig{});
  ASSERT_TRUE(slow.Start().ok());
  TcpClientConfig config;
  config.port = slow.port();
  config.rpc_timeout = 50 * kMicrosPerMilli;
  TcpNodeClient client(KeyPair::FromSeed(0xC11E), server_key_->address(),
                       config);
  ASSERT_TRUE(client.Connect().ok());
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  auto result = client.AppendForTenant(kTenant, MakeBatch(publisher, seq, 4));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Code::kDeadlineExceeded);
  // The late reply arrives after the waiter left. The client reads its
  // socket only inside a call, so the next call on the connection (a
  // fast read, once the append has executed) reads the late reply first
  // and discards it. The append executed exactly once.
  ASSERT_TRUE(
      Eventually([&] { return engine().shard(0).LogPositions() == 1; }));
  auto read = client.ReadOneForTenant(kTenant, EntryIndex{0, 0});
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_TRUE(read->Verify(engine().address()));
  EXPECT_EQ(client.discarded_responses(), 1u);
  EXPECT_EQ(client.retries(), 0u);
  EXPECT_EQ(slow.requests_served(), 2u);  // The append once, then the read.
  EXPECT_EQ(engine().shard(0).LogPositions(), 1u);
  client.Close();
  slow.Shutdown();
}

TEST_F(RpcTest, CallerTimingOutWithTheReadRoleStrandsNoOtherCall) {
  // pool_size = 1 puts four reads on one socket. A hand-written server
  // holds the first read's reply, so the first caller holds the read role
  // until its deadline. Three later callers wait behind it, and their
  // replies arrive only after it has given up: they are served only if it
  // passed the role on.
  auto seeding = MakeClient();
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  ASSERT_TRUE(
      seeding->AppendForTenant(kTenant, MakeBatch(publisher, seq, 4)).ok());
  std::vector<Stage1Response> genuine;
  for (uint32_t offset = 0; offset < 4; ++offset) {
    auto read = seeding->ReadOneForTenant(kTenant, EntryIndex{0, offset});
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    genuine.push_back(*read);
  }
  seeding->Close();

  uint16_t port = 0;
  int listen_fd = ListenLoopback(&port);
  ASSERT_GE(listen_fd, 0);
  std::atomic<bool> first_received{false};
  std::atomic<bool> first_returned{false};
  std::thread peer([&] {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    timeval tv{.tv_sec = 5, .tv_usec = 0};
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    auto session = HandshakeAsServer(fd, *server_key_);
    if (!session.ok()) {
      ::close(fd);
      return;
    }
    // One decoder across requests: concurrent callers' frames may share a
    // read chunk.
    FrameDecoder decoder;
    struct Read {
      uint64_t rpc_id = 0;
      uint32_t offset = 0;
    };
    auto next_read = [&]() -> Result<Read> {
      uint8_t buf[4096];
      for (;;) {
        Bytes frame;
        WEDGE_ASSIGN_OR_RETURN(bool got, decoder.Next(&frame));
        if (got) {
          WEDGE_RETURN_IF_ERROR(session->Open(&frame));
          WEDGE_ASSIGN_OR_RETURN(RpcRequest request,
                                 RpcRequest::Decode(frame));
          ByteReader body(request.body);  // [tenant][log_id][offset]
          WEDGE_RETURN_IF_ERROR(body.ReadU64().status());
          WEDGE_RETURN_IF_ERROR(body.ReadU64().status());
          WEDGE_ASSIGN_OR_RETURN(uint32_t offset, body.ReadU32());
          return Read{request.rpc_id, offset};
        }
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0) return Status::Unavailable("no request");
        decoder.Feed(buf, static_cast<size_t>(n));
      }
    };
    auto reply = [&](const Read& read) {
      WriteAll(fd, Sealed(*session,
                          RpcResponse::Success(
                              read.rpc_id, genuine[read.offset].Serialize())
                              .Encode()));
    };
    auto first = next_read();
    first_received = true;
    std::vector<Read> later;
    for (int i = 0; i < 3; ++i) {
      auto read = next_read();
      if (read.ok()) later.push_back(*read);
    }
    Eventually([&] { return first_returned.load(); });
    for (const Read& read : later) reply(read);
    if (first.ok()) reply(*first);  // Late: its caller has left.
    auto check = next_read();
    if (check.ok()) reply(*check);
    uint8_t byte;
    while (::read(fd, &byte, 1) > 0) {
    }
    ::close(fd);
  });

  TcpClientConfig config;
  config.port = port;
  config.pool_size = 1;
  config.rpc_timeout = kMicrosPerSecond;
  config.max_call_attempts = 1;
  TcpNodeClient client(KeyPair::FromSeed(0xC11E), server_key_->address(),
                       config);
  // EXPECT, not ASSERT, until the threads are joined.
  EXPECT_TRUE(client.Connect().ok());
  Status first_status;
  std::thread first([&] {
    first_status = client.ReadOneForTenant(kTenant, EntryIndex{0, 0}).status();
    first_returned = true;
  });
  EXPECT_TRUE(Eventually([&] { return first_received.load(); }));
  ::usleep(300'000);  // The first caller is deep in its wait, holding the role.
  std::atomic<int> served{0};
  std::vector<std::thread> others;
  for (uint32_t offset = 1; offset < 4; ++offset) {
    others.emplace_back([&, offset] {
      auto read = client.ReadOneForTenant(kTenant, EntryIndex{0, offset});
      EXPECT_TRUE(read.ok()) << offset << ": " << read.status().ToString();
      if (read.ok() && read->Serialize() == genuine[offset].Serialize()) {
        ++served;
      }
    });
  }
  first.join();
  for (auto& t : others) t.join();
  EXPECT_EQ(first_status.code(), Code::kDeadlineExceeded)
      << first_status.ToString();
  EXPECT_EQ(served.load(), 3);

  // The connection stayed up; the next call reads the first read's late
  // reply, drops it, and gets its own.
  auto check = client.ReadOneForTenant(kTenant, EntryIndex{0, 2});
  EXPECT_TRUE(check.ok()) << check.status().ToString();
  if (check.ok()) {
    EXPECT_EQ(check->Serialize(), genuine[2].Serialize());
  }
  EXPECT_EQ(client.discarded_responses(), 1u);
  EXPECT_EQ(client.reconnects(), 0u);
  client.Close();
  peer.join();
  ::close(listen_fd);
}

}  // namespace
}  // namespace wedge
