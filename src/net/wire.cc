#include "net/wire.h"

#include <errno.h>
#include <sys/random.h>

#include <algorithm>
#include <cstring>

#include "crypto/hmac_sha256.h"

namespace wedge {

Bytes EncodeFrame(const Bytes& payload) {
  Bytes out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(out, kFrameMagic);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  Append(out, payload);
  return out;
}

void FrameDecoder::Feed(const uint8_t* data, size_t n) {
  // Compact once the consumed prefix dominates, keeping the buffer small
  // without a memmove per frame.
  if (pos_ > 0 && pos_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + pos_);
    pos_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + n);
}

Result<bool> FrameDecoder::Next(Bytes* out) {
  if (poisoned_) {
    return Status::Corruption("frame stream already poisoned");
  }
  if (buffered() < kFrameHeaderBytes) return false;
  const uint8_t* head = buffer_.data() + pos_;
  uint32_t magic = (uint32_t{head[0]} << 24) | (uint32_t{head[1]} << 16) |
                   (uint32_t{head[2]} << 8) | uint32_t{head[3]};
  uint32_t length = (uint32_t{head[4]} << 24) | (uint32_t{head[5]} << 16) |
                    (uint32_t{head[6]} << 8) | uint32_t{head[7]};
  if (magic != kFrameMagic) {
    poisoned_ = true;
    return Status::Corruption("bad frame magic");
  }
  if (length > max_frame_bytes_) {
    poisoned_ = true;
    return Status::OutOfRange("frame length " + std::to_string(length) +
                              " exceeds limit " +
                              std::to_string(max_frame_bytes_));
  }
  if (buffered() < kFrameHeaderBytes + length) return false;
  out->assign(head + kFrameHeaderBytes, head + kFrameHeaderBytes + length);
  pos_ += kFrameHeaderBytes + length;
  return true;
}

namespace {

/// Domain label opening the handshake transcript hash.
constexpr std::string_view kSessionLabel = "WedgeBlock RPC session v1";

Status FillRandom(uint8_t* out, size_t n) {
  while (n > 0) {
    ssize_t got = getrandom(out, n, 0);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("getrandom: ") +
                              std::strerror(errno));
    }
    out += got;
    n -= static_cast<size_t>(got);
  }
  return Status::Ok();
}

bool TagsEqual(const uint8_t* a, const uint8_t* b) {
  uint8_t diff = 0;
  for (size_t i = 0; i < kSessionTagBytes; ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

struct SessionKeys {
  Bytes c2s;
  Bytes s2c;
  Hash256 confirm;
};

/// The handshake's key schedule; `hello` is the whole hello payload and
/// `q` the server key's 65-byte encoding.
SessionKeys DeriveSessionKeys(const secp256k1::AffinePoint& shared,
                              const Bytes& hello, const Bytes& q,
                              const Bytes& nonce) {
  Sha256 transcript;
  transcript.Update(kSessionLabel);
  transcript.Update(hello);
  transcript.Update(q);
  transcript.Update(nonce);
  const Bytes t = HashToBytes(transcript.Finish());
  const Bytes x = shared.x.ToBytesBE();
  const Bytes c2s = ToBytes("c2s"), s2c = ToBytes("s2c");
  const Bytes confirm = ToBytes("confirm");
  return SessionKeys{HashToBytes(HmacSha256(x, {&t, &c2s})),
                     HashToBytes(HmacSha256(x, {&t, &s2c})),
                     HmacSha256(x, {&t, &confirm})};
}

}  // namespace

void Session::Seal(const Bytes& payload, Bytes* out) {
  Bytes seq;
  PutU64(seq, send_seq_++);
  const Hash256 tag = HmacSha256(send_key_, {&seq, &payload});
  PutU32(*out, kFrameMagic);
  PutU32(*out, static_cast<uint32_t>(payload.size() + kSessionTagBytes));
  Append(*out, payload);
  out->insert(out->end(), tag.begin(), tag.end());
}

Status Session::Open(Bytes* frame_payload) {
  if (frame_payload->size() < kSessionTagBytes) {
    return Status::Verification("frame shorter than its tag");
  }
  uint8_t tag[kSessionTagBytes];
  std::memcpy(tag, frame_payload->data() + frame_payload->size() -
                       kSessionTagBytes,
              kSessionTagBytes);
  frame_payload->resize(frame_payload->size() - kSessionTagBytes);
  Bytes seq;
  PutU64(seq, recv_seq_);
  const Hash256 want = HmacSha256(recv_key_, {&seq, frame_payload});
  if (!TagsEqual(want.data(), tag)) {
    return Status::Verification("bad frame tag");
  }
  ++recv_seq_;
  return Status::Ok();
}

Result<ClientHello> StartClientHandshake() {
  ClientHello hello;
  const U256& n = secp256k1::GroupOrder();
  do {
    Bytes secret(32);
    WEDGE_RETURN_IF_ERROR(FillRandom(secret.data(), secret.size()));
    WEDGE_ASSIGN_OR_RETURN(hello.ephemeral, U256::FromBytesBE(secret));
  } while (hello.ephemeral.IsZero() || hello.ephemeral >= n);
  WEDGE_ASSIGN_OR_RETURN(
      Bytes share,
      secp256k1::EncodeUncompressed(secp256k1::ScalarMulBase(hello.ephemeral)));
  PutU32(hello.payload, kHelloMagic);
  Append(hello.payload, share);
  return hello;
}

Result<ServerHandshake> AcceptClientHello(const KeyPair& transport_key,
                                          const Bytes& hello) {
  if (hello.size() != kHelloBytes) {
    return Status::InvalidArgument("client hello has the wrong length");
  }
  ByteReader reader(hello);
  WEDGE_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kHelloMagic) {
    return Status::InvalidArgument("first frame is not a client hello");
  }
  WEDGE_ASSIGN_OR_RETURN(Bytes share, reader.ReadRaw(65));
  // Validated before any multiplication by the static key: an unchecked
  // point would make the handshake an invalid-curve oracle against it.
  WEDGE_ASSIGN_OR_RETURN(secp256k1::AffinePoint e_pub,
                         secp256k1::DecodeUncompressed(share));
  Bytes nonce(32);
  WEDGE_RETURN_IF_ERROR(FillRandom(nonce.data(), nonce.size()));
  WEDGE_ASSIGN_OR_RETURN(
      Bytes q, secp256k1::EncodeUncompressed(transport_key.public_key()));
  SessionKeys keys = DeriveSessionKeys(
      secp256k1::ScalarMul(e_pub, transport_key.private_key()), hello, q,
      nonce);
  Bytes reply = std::move(q);
  Append(reply, nonce);
  reply.insert(reply.end(), keys.confirm.begin(), keys.confirm.end());
  return ServerHandshake{std::move(reply),
                         Session(std::move(keys.s2c), std::move(keys.c2s))};
}

Result<Session> FinishClientHandshake(const ClientHello& hello,
                                      const Address& server_address,
                                      const Bytes& reply) {
  if (reply.size() != kHelloReplyBytes) {
    return Status::InvalidArgument("handshake reply has the wrong length");
  }
  ByteReader reader(reply);
  WEDGE_ASSIGN_OR_RETURN(Bytes q, reader.ReadRaw(65));
  WEDGE_ASSIGN_OR_RETURN(Bytes nonce, reader.ReadRaw(32));
  WEDGE_ASSIGN_OR_RETURN(Bytes confirm, reader.ReadRaw(kSessionTagBytes));
  WEDGE_ASSIGN_OR_RETURN(secp256k1::AffinePoint q_pub,
                         secp256k1::DecodeUncompressed(q));
  if (AddressFromPublicKey(q_pub) != server_address) {
    return Status::Verification("server key is not the pinned address " +
                                server_address.ToHex());
  }
  SessionKeys keys = DeriveSessionKeys(
      secp256k1::ScalarMul(q_pub, hello.ephemeral), hello.payload, q, nonce);
  if (!TagsEqual(keys.confirm.data(), confirm.data())) {
    return Status::Verification("handshake key confirmation failed");
  }
  return Session(std::move(keys.c2s), std::move(keys.s2c));
}

Bytes RpcRequest::Encode() const {
  Bytes out;
  PutU64(out, rpc_id);
  PutString(out, op);
  PutBytes(out, body);
  if (trace_id != 0) {
    PutU32(out, kTraceExtMagic);
    PutU64(out, trace_id);
    PutString(out, origin);
  }
  return out;
}

Result<RpcRequest> RpcRequest::Decode(const Bytes& payload) {
  ByteReader reader(payload);
  RpcRequest req;
  WEDGE_ASSIGN_OR_RETURN(req.rpc_id, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(req.op, reader.ReadString());
  if (req.op.size() > kMaxOpBytes) {
    return Status::OutOfRange("rpc op name too long");
  }
  WEDGE_ASSIGN_OR_RETURN(req.body, reader.ReadBytes());
  if (reader.AtEnd()) return req;  // Legacy frame: untraced.
  WEDGE_ASSIGN_OR_RETURN(uint32_t ext_magic, reader.ReadU32());
  if (ext_magic != kTraceExtMagic) {
    return Status::InvalidArgument("trailing bytes after rpc request");
  }
  WEDGE_ASSIGN_OR_RETURN(req.trace_id, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(req.origin, reader.ReadString());
  if (req.origin.size() > kMaxTraceOriginBytes) {
    return Status::OutOfRange("trace origin too long");
  }
  if (req.trace_id == 0) {
    return Status::InvalidArgument("trace extension with zero trace_id");
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after rpc request");
  }
  return req;
}

RpcResponse RpcResponse::Success(uint64_t id, Bytes body) {
  RpcResponse resp;
  resp.rpc_id = id;
  resp.ok = true;
  resp.body = std::move(body);
  return resp;
}

RpcResponse RpcResponse::Failure(uint64_t id, std::string error) {
  RpcResponse resp;
  resp.rpc_id = id;
  resp.ok = false;
  resp.error = std::move(error);
  return resp;
}

Bytes RpcResponse::Encode() const {
  Bytes out;
  PutU64(out, rpc_id);
  out.push_back(ok ? 1 : 0);
  if (ok) {
    PutBytes(out, body);
  } else {
    PutString(out, error);
  }
  return out;
}

Result<RpcResponse> RpcResponse::Decode(const Bytes& payload) {
  ByteReader reader(payload);
  RpcResponse resp;
  WEDGE_ASSIGN_OR_RETURN(resp.rpc_id, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(Bytes flag, reader.ReadRaw(1));
  resp.ok = flag[0] != 0;
  if (resp.ok) {
    WEDGE_ASSIGN_OR_RETURN(resp.body, reader.ReadBytes());
  } else {
    WEDGE_ASSIGN_OR_RETURN(resp.error, reader.ReadString());
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after rpc response");
  }
  return resp;
}

}  // namespace wedge
