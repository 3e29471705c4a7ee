#include "net/wire.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "crypto/secp256k1.h"

namespace wedge {
namespace {

Bytes SamplePayload() { return ToBytes("hello wedgeblock"); }

// ---------------------------------------------------------------------------
// Framing.

TEST(FrameTest, RoundTrip) {
  Bytes frame = EncodeFrame(SamplePayload());
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + SamplePayload().size());

  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  Bytes out;
  auto got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(out, SamplePayload());
  // Nothing left.
  got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameTest, EmptyPayloadFrame) {
  Bytes frame = EncodeFrame(Bytes{});
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  Bytes out = ToBytes("sentinel");
  auto got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_TRUE(out.empty());
}

TEST(FrameTest, ByteByByteFeed) {
  Bytes frame = EncodeFrame(SamplePayload());
  FrameDecoder decoder;
  Bytes out;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.Feed(&frame[i], 1);
    auto got = decoder.Next(&out);
    ASSERT_TRUE(got.ok()) << "at byte " << i;
    EXPECT_FALSE(*got) << "frame completed early at byte " << i;
  }
  decoder.Feed(&frame[frame.size() - 1], 1);
  auto got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(out, SamplePayload());
}

TEST(FrameTest, ManyFramesInOneFeed) {
  Bytes stream;
  for (int i = 0; i < 16; ++i) {
    Append(stream, EncodeFrame(ToBytes("payload-" + std::to_string(i))));
  }
  // Plus half of the next frame.
  Bytes last = EncodeFrame(ToBytes("tail"));
  stream.insert(stream.end(), last.begin(), last.begin() + 5);

  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  Bytes out;
  for (int i = 0; i < 16; ++i) {
    auto got = decoder.Next(&out);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(*got);
    EXPECT_EQ(out, ToBytes("payload-" + std::to_string(i)));
  }
  auto got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);  // Tail incomplete.
  decoder.Feed(last.data() + 5, last.size() - 5);
  got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(out, ToBytes("tail"));
}

TEST(FrameTest, BadMagicPoisons) {
  Bytes frame = EncodeFrame(SamplePayload());
  frame[0] ^= 0xFF;
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  Bytes out;
  auto got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), Code::kCorruption);
  EXPECT_TRUE(decoder.poisoned());

  // Poisoning is permanent even for subsequent valid bytes.
  Bytes good = EncodeFrame(SamplePayload());
  decoder.Feed(good.data(), good.size());
  got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
}

TEST(FrameTest, OversizeLengthPoisons) {
  FrameDecoder decoder(/*max_frame_bytes=*/1024);
  Bytes header;
  PutU32(header, kFrameMagic);
  PutU32(header, 1025);  // One byte over the limit.
  decoder.Feed(header.data(), header.size());
  Bytes out;
  auto got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), Code::kOutOfRange);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(FrameTest, MaxSizeFrameAccepted) {
  FrameDecoder decoder(/*max_frame_bytes=*/64);
  Rng rng(7);
  Bytes payload = rng.NextBytes(64);
  Bytes frame = EncodeFrame(payload);
  decoder.Feed(frame.data(), frame.size());
  Bytes out;
  auto got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(out, payload);
}

TEST(FrameTest, BufferCompacts) {
  // After consuming many frames the internal buffer must not grow without
  // bound; buffered() reflects only unconsumed bytes.
  FrameDecoder decoder;
  Bytes out;
  for (int i = 0; i < 1000; ++i) {
    Bytes frame = EncodeFrame(ToBytes(std::string(100, 'x')));
    decoder.Feed(frame.data(), frame.size());
    auto got = decoder.Next(&out);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(*got);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Request / response payload codec.

TEST(RpcCodecTest, RequestRoundTrip) {
  RpcRequest request;
  request.rpc_id = 0x1122334455667788ull;
  request.op = "append";
  request.body = ToBytes("body-bytes");
  auto decoded = RpcRequest::Decode(request.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->rpc_id, request.rpc_id);
  EXPECT_EQ(decoded->op, request.op);
  EXPECT_EQ(decoded->body, request.body);
}

TEST(RpcCodecTest, ResponseRoundTrips) {
  RpcResponse ok_resp = RpcResponse::Success(42, ToBytes("result"));
  auto decoded = RpcResponse::Decode(ok_resp.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->rpc_id, 42u);
  EXPECT_TRUE(decoded->ok);
  EXPECT_EQ(decoded->body, ToBytes("result"));

  RpcResponse err_resp = RpcResponse::Failure(43, "no such entry");
  decoded = RpcResponse::Decode(err_resp.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->rpc_id, 43u);
  EXPECT_FALSE(decoded->ok);
  EXPECT_EQ(decoded->error, "no such entry");
}

TEST(RpcCodecTest, RequestTruncationAtEveryPrefixRejected) {
  RpcRequest request;
  request.rpc_id = 99;
  request.op = "readBatch";
  request.body = ToBytes("0123456789");
  Bytes wire = request.Encode();
  for (size_t n = 0; n < wire.size(); ++n) {
    Bytes prefix(wire.begin(), wire.begin() + n);
    auto decoded = RpcRequest::Decode(prefix);
    EXPECT_FALSE(decoded.ok()) << "prefix of " << n << " bytes decoded";
  }
}

TEST(RpcCodecTest, ResponseTruncationAtEveryPrefixRejected) {
  Bytes ok_wire = RpcResponse::Success(7, ToBytes("abcdef")).Encode();
  Bytes err_wire = RpcResponse::Failure(8, "boom").Encode();
  for (const Bytes& wire : {ok_wire, err_wire}) {
    for (size_t n = 0; n < wire.size(); ++n) {
      Bytes prefix(wire.begin(), wire.begin() + n);
      EXPECT_FALSE(RpcResponse::Decode(prefix).ok())
          << "prefix of " << n << " bytes decoded";
    }
  }
}

TEST(RpcCodecTest, TrailingBytesRejected) {
  RpcRequest traced;
  traced.rpc_id = 1;
  traced.op = "read";
  Bytes request = traced.Encode();
  request.push_back(0);
  EXPECT_FALSE(RpcRequest::Decode(request).ok());

  Bytes response = RpcResponse::Success(1, ToBytes("x")).Encode();
  response.push_back(0);
  EXPECT_FALSE(RpcResponse::Decode(response).ok());
}

TEST(RpcCodecTest, OversizeOpNameRejected) {
  RpcRequest request;
  request.rpc_id = 5;
  request.op = std::string(kMaxOpBytes + 1, 'z');
  auto decoded = RpcRequest::Decode(request.Encode());
  ASSERT_FALSE(decoded.ok());
}

TEST(RpcCodecTest, GarbageNeverDecodes) {
  Rng rng(0xBADF00D);
  for (int i = 0; i < 200; ++i) {
    Bytes garbage = rng.NextBytes(rng.Uniform(64));
    // Either decode succeeds by luck (must be internally consistent) or a
    // typed error comes back. Never a crash.
    auto request = RpcRequest::Decode(garbage);
    if (request.ok()) {
      EXPECT_LE(request->op.size(), kMaxOpBytes);
    }
    (void)RpcResponse::Decode(garbage);
  }
}

// The malformed-frame corpus: mutate valid encoded frames/payloads and make
// sure the decoders always fail cleanly (tested against live transports in
// rpc_test.cc and remote_test.cc).
TEST(RpcCodecTest, MutatedFrameCorpus) {
  Rng rng(2024);
  RpcRequest request;
  request.rpc_id = 77;
  request.op = "append";
  request.body = rng.NextBytes(256);
  const Bytes payload = request.Encode();
  const Bytes frame = EncodeFrame(payload);

  for (int round = 0; round < 500; ++round) {
    Bytes mutant = frame;
    size_t flips = 1 + rng.Uniform(8);
    for (size_t f = 0; f < flips; ++f) {
      mutant[rng.Uniform(mutant.size())] ^= 1 << rng.Uniform(8);
    }
    FrameDecoder decoder(/*max_frame_bytes=*/4096);
    decoder.Feed(mutant.data(), mutant.size());
    Bytes out;
    while (true) {
      auto got = decoder.Next(&out);
      if (!got.ok() || !*got) break;
      (void)RpcRequest::Decode(out);  // Must not crash on mutated payloads.
    }
  }
}

// ---------------------------------------------------------------------------
// Session handshake and sealed frames.

KeyPair ServerKey() { return KeyPair::FromSeed(0x5E55); }

struct SessionPair {
  Session client;
  Session server;
};

Result<SessionPair> Handshake() {
  const KeyPair key = ServerKey();
  WEDGE_ASSIGN_OR_RETURN(ClientHello hello, StartClientHandshake());
  WEDGE_ASSIGN_OR_RETURN(ServerHandshake accepted,
                         AcceptClientHello(key, hello.payload));
  WEDGE_ASSIGN_OR_RETURN(
      Session client,
      FinishClientHandshake(hello, key.address(), accepted.reply));
  return SessionPair{std::move(client), std::move(accepted.session)};
}

// Seals `payload` and returns the frame payload the receiver's
// FrameDecoder would pop: payload || tag.
Bytes SealedPayload(Session& sender, const Bytes& payload) {
  Bytes frame;
  sender.Seal(payload, &frame);
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  Bytes out;
  auto got = decoder.Next(&out);
  EXPECT_TRUE(got.ok() && *got);
  EXPECT_EQ(decoder.buffered(), 0u);
  return out;
}

TEST(SessionTest, RoundTripInBothDirections) {
  auto pair = Handshake();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  for (int i = 0; i < 4; ++i) {
    const Bytes request = ToBytes("request-" + std::to_string(i));
    Bytes frame = SealedPayload(pair->client, request);
    EXPECT_EQ(frame.size(), request.size() + kSessionTagBytes);
    ASSERT_TRUE(pair->server.Open(&frame).ok()) << "request " << i;
    EXPECT_EQ(frame, request);

    const Bytes response = i == 3 ? Bytes{} : ToBytes("response-" +
                                                      std::to_string(i));
    frame = SealedPayload(pair->server, response);
    ASSERT_TRUE(pair->client.Open(&frame).ok()) << "response " << i;
    EXPECT_EQ(frame, response);
  }
}

TEST(SessionTest, AnySingleByteFlipFails) {
  auto pair = Handshake();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  const Bytes sealed = SealedPayload(pair->client, SamplePayload());
  // Every byte of the payload and of the tag.
  for (size_t i = 0; i < sealed.size(); ++i) {
    Bytes mutant = sealed;
    mutant[i] ^= 0x01;
    Session receiver = pair->server;
    EXPECT_FALSE(receiver.Open(&mutant).ok()) << "byte " << i;
  }
  Bytes intact = sealed;
  EXPECT_TRUE(pair->server.Open(&intact).ok());
  // Too short to hold a tag.
  Bytes stub(kSessionTagBytes - 1, 0);
  EXPECT_FALSE(pair->server.Open(&stub).ok());
}

TEST(SessionTest, ReplayAndReorderFail) {
  auto pair = Handshake();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  const Bytes frame0 = SealedPayload(pair->client, ToBytes("zero"));
  const Bytes frame1 = SealedPayload(pair->client, ToBytes("one"));

  Session replayed = pair->server;
  Bytes copy = frame0;
  ASSERT_TRUE(replayed.Open(&copy).ok());
  copy = frame0;
  EXPECT_FALSE(replayed.Open(&copy).ok()) << "replay opened";

  Session reordered = pair->server;
  copy = frame1;
  EXPECT_FALSE(reordered.Open(&copy).ok()) << "frame 1 opened first";
}

TEST(SessionTest, ReflectedFrameFails) {
  auto pair = Handshake();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  // A frame sent back to its own sender fails: each direction has its
  // own key.
  Bytes from_client = SealedPayload(pair->client, SamplePayload());
  EXPECT_FALSE(pair->client.Open(&from_client).ok());
  Bytes from_server = SealedPayload(pair->server, SamplePayload());
  EXPECT_FALSE(pair->server.Open(&from_server).ok());
}

TEST(HandshakeTest, CutOrExtendedHandshakeFramesRejected) {
  const KeyPair key = ServerKey();
  auto hello = StartClientHandshake();
  ASSERT_TRUE(hello.ok());
  ASSERT_EQ(hello->payload.size(), kHelloBytes);
  for (size_t n = 0; n < hello->payload.size(); ++n) {
    Bytes cut(hello->payload.begin(), hello->payload.begin() + n);
    EXPECT_FALSE(AcceptClientHello(key, cut).ok()) << "hello cut at " << n;
  }
  Bytes longer = hello->payload;
  longer.push_back(0);
  EXPECT_FALSE(AcceptClientHello(key, longer).ok());
  Bytes wrong_magic = hello->payload;
  wrong_magic[0] ^= 0x01;
  EXPECT_FALSE(AcceptClientHello(key, wrong_magic).ok());

  auto accepted = AcceptClientHello(key, hello->payload);
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  const Bytes& reply = accepted->reply;
  ASSERT_EQ(reply.size(), kHelloReplyBytes);
  for (size_t n = 0; n < reply.size(); ++n) {
    Bytes cut(reply.begin(), reply.begin() + n);
    EXPECT_FALSE(FinishClientHandshake(*hello, key.address(), cut).ok())
        << "reply cut at " << n;
  }
  Bytes reply_longer = reply;
  reply_longer.push_back(0);
  EXPECT_FALSE(
      FinishClientHandshake(*hello, key.address(), reply_longer).ok());
  EXPECT_TRUE(FinishClientHandshake(*hello, key.address(), reply).ok());
}

TEST(HandshakeTest, InvalidSharesRejected) {
  using namespace secp256k1;
  const KeyPair key = ServerKey();
  auto hello_with = [](const U256& x, const U256& y) {
    Bytes hello;
    PutU32(hello, kHelloMagic);
    hello.push_back(0x04);
    Append(hello, x.ToBytesBE());
    Append(hello, y.ToBytesBE());
    return hello;
  };
  const AffinePoint g = Generator();
  ASSERT_TRUE(AcceptClientHello(key, hello_with(g.x, g.y)).ok());

  // Off the curve.
  const U256 bad_y = FpAdd(g.y, U256::One());
  ASSERT_FALSE(IsOnCurve(AffinePoint{g.x, bad_y, false}));
  EXPECT_FALSE(AcceptClientHello(key, hello_with(g.x, bad_y)).ok());

  // x >= p, including an x whose residue mod p is a curve point: the
  // decoder must reject the non-canonical encoding, not reduce it.
  EXPECT_FALSE(AcceptClientHello(key, hello_with(FieldPrime(), g.y)).ok());
  uint64_t small = 1;
  while (!LiftX(U256(small), false).ok()) ++small;
  const U256 y = LiftX(U256(small), false)->y;
  ASSERT_TRUE(AcceptClientHello(key, hello_with(U256(small), y)).ok());
  const U256 alias = FieldPrime() + U256(small);  // Still < 2^256.
  EXPECT_FALSE(AcceptClientHello(key, hello_with(alias, y)).ok())
      << "x = p + " << small;
}

TEST(HandshakeTest, WrongPinOrBadConfirmRejected) {
  const KeyPair key = ServerKey();
  auto hello = StartClientHandshake();
  ASSERT_TRUE(hello.ok());
  auto accepted = AcceptClientHello(key, hello->payload);
  ASSERT_TRUE(accepted.ok());

  // The reply's key is not the pinned one.
  const Address other = KeyPair::FromSeed(0x07E7).address();
  EXPECT_FALSE(FinishClientHandshake(*hello, other, accepted->reply).ok());

  // One flipped bit anywhere in confirm.
  for (size_t bit = 0; bit < 8 * kSessionTagBytes; ++bit) {
    Bytes reply = accepted->reply;
    reply[kHelloReplyBytes - kSessionTagBytes + bit / 8] ^= 1 << (bit % 8);
    EXPECT_FALSE(FinishClientHandshake(*hello, key.address(), reply).ok())
        << "bit " << bit;
  }

  // An impostor swaps in its own key and pins it, but cannot produce the
  // confirm tag for it without its secret in the real handshake.
  const KeyPair impostor = KeyPair::FromSeed(0x07E7);
  auto impostor_q = secp256k1::EncodeUncompressed(impostor.public_key());
  ASSERT_TRUE(impostor_q.ok());
  Bytes swapped = accepted->reply;
  std::copy(impostor_q->begin(), impostor_q->end(), swapped.begin());
  EXPECT_FALSE(
      FinishClientHandshake(*hello, impostor.address(), swapped).ok());
}

TEST(HandshakeTest, TwoHandshakesOverOneHelloGiveDifferentKeys) {
  const KeyPair key = ServerKey();
  auto hello = StartClientHandshake();
  ASSERT_TRUE(hello.ok());
  auto first = AcceptClientHello(key, hello->payload);
  auto second = AcceptClientHello(key, hello->payload);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->reply, second->reply);  // Fresh nonces.
  auto client1 = FinishClientHandshake(*hello, key.address(), first->reply);
  auto client2 = FinishClientHandshake(*hello, key.address(), second->reply);
  ASSERT_TRUE(client1.ok());
  ASSERT_TRUE(client2.ok());

  const Bytes sealed1 = SealedPayload(first->session, SamplePayload());
  const Bytes sealed2 = SealedPayload(second->session, SamplePayload());
  EXPECT_NE(sealed1, sealed2);
  // A frame of one session never opens in the other: a recorded session
  // cannot be replayed into a new connection.
  Bytes copy = sealed1;
  EXPECT_FALSE(Session(*client2).Open(&copy).ok());
  copy = sealed1;
  EXPECT_TRUE(Session(*client1).Open(&copy).ok());
  copy = sealed2;
  EXPECT_TRUE(Session(*client2).Open(&copy).ok());
}

}  // namespace
}  // namespace wedge
