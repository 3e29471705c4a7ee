#ifndef WEDGEBLOCK_NET_WIRE_H_
#define WEDGEBLOCK_NET_WIRE_H_

#include <string>
#include <string_view>

#include "common/bytes.h"
#include "crypto/ecdsa.h"

namespace wedge {

/// The RPC wire protocol of WedgeBlock's client <-> Offchain Node
/// boundary, spoken by the TCP stack (rpc/) and nothing else:
///
///   frame:    [u32 magic "WDGB"][u32 length][payload][32-byte tag]
///   tag:      HMAC-SHA256(k_dir, u64 seq || payload)
///   request:  [u64 rpc_id][string op][bytes body]
///   response: [u64 rpc_id][u8 ok][bytes body | string error]
///
/// A connection opens with a one-round-trip handshake (Noise "NK": the
/// client knows the server's key, the server does not know the client)
/// whose two frames carry no tag:
///
///   hello:    [u32 "WDBH"][E = e*G, 65-byte uncompressed]
///   reply:    [Q, 65-byte uncompressed][32-byte nonce][32-byte confirm]
///
/// After it, every frame in each direction is tagged under that
/// direction's key and sequence number (see Session). Op bodies live one
/// layer up (core/rpc_codec.h). Every decoder here is bounds-checked and
/// returns a typed error for truncated, oversized or garbage input — a
/// malformed frame must never crash a server.

/// Frame header magic: rejects non-WedgeBlock traffic (and most stream
/// desynchronization) before any allocation happens.
constexpr uint32_t kFrameMagic = 0x57444742;  // "WDGB"
constexpr size_t kFrameHeaderBytes = 8;       // magic + length.

/// Default ceiling for one frame. Sized for the paper's worst case (a
/// 2000-entry batch of ~1 KB values plus per-entry Merkle proofs and
/// signatures is a few MB).
constexpr size_t kDefaultMaxFrameBytes = 32u << 20;

/// Hard cap on the RPC op-name length; ops are short identifiers.
constexpr size_t kMaxOpBytes = 64;

/// Tag opening the optional trace-context extension appended after a
/// request body ("TRAC"). Old decoders rejected any trailing bytes, so a
/// tag (rather than a version bump) keeps the extension self-describing:
/// an extension-less encoding is byte-identical to the legacy format and
/// a frame with trailing garbage still fails with a typed error.
constexpr uint32_t kTraceExtMagic = 0x54524143;  // "TRAC"

/// Hard cap on the trace-origin annotation; origins are short labels
/// ("loadgen", "fleetmon", "chaos").
constexpr size_t kMaxTraceOriginBytes = 64;

/// Wraps `payload` in a frame header with no tag: the two handshake
/// frames. Every later frame goes through Session::Seal.
Bytes EncodeFrame(const Bytes& payload);

/// Incremental frame parser for a TCP receive path: feed arbitrary byte
/// chunks, pop complete payloads. Malformed input (bad magic, length over
/// the limit) poisons the decoder — a byte stream cannot be resynchronized
/// after corruption, so the connection must be closed.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends raw received bytes to the internal buffer.
  void Feed(const uint8_t* data, size_t n);

  /// Pops the next complete frame payload into `out`. Returns true when a
  /// frame was produced, false when more bytes are needed, or a typed
  /// error (kCorruption / kOutOfRange) when the stream is malformed.
  Result<bool> Next(Bytes* out);

  /// True once a malformed header has been seen; every later Next() fails.
  bool poisoned() const { return poisoned_; }
  /// Bytes buffered but not yet returned as frames.
  size_t buffered() const { return buffer_.size() - pos_; }

 private:
  size_t max_frame_bytes_;
  Bytes buffer_;
  size_t pos_ = 0;  // Consumed prefix of buffer_ (compacted lazily).
  bool poisoned_ = false;
};

/// Inner magic of the client hello ("WDBH"), the first frame of every
/// connection. A peer that opens with anything else is closed.
constexpr uint32_t kHelloMagic = 0x57444248;
constexpr size_t kHelloBytes = 4 + 65;
/// Q || nonce || confirm.
constexpr size_t kHelloReplyBytes = 65 + 32 + 32;
/// Trailing HMAC-SHA256 tag on every frame after the handshake.
constexpr size_t kSessionTagBytes = 32;

/// One authenticated connection: an HMAC-SHA256 key and a sequence
/// number per direction, both counted from 0. Seal tags
/// (seq || payload) under the send key; Open accepts a frame only under
/// the receive key and the next receive sequence number, so a tampered,
/// replayed, reordered, reflected or forged frame fails. Frames are
/// authenticated, not encrypted.
///
/// Seal and Open touch disjoint state: one thread may seal while another
/// opens. Built by the handshake functions below.
class Session {
 public:
  Session(Bytes send_key, Bytes recv_key)
      : send_key_(std::move(send_key)), recv_key_(std::move(recv_key)) {}

  /// Appends the frame [magic][length][payload][tag] to *out and advances
  /// the send sequence number.
  void Seal(const Bytes& payload, Bytes* out);

  /// Checks the trailing tag of one received frame payload (as
  /// FrameDecoder returns it) and strips it in place, advancing the
  /// receive sequence number. On failure the caller must close the
  /// connection: the stream can no longer be trusted.
  Status Open(Bytes* frame_payload);

 private:
  Bytes send_key_;
  Bytes recv_key_;
  uint64_t send_seq_ = 0;
  uint64_t recv_seq_ = 0;
};

/// The client's open handshake: its ephemeral secret e and the hello
/// payload carrying E = e*G.
struct ClientHello {
  U256 ephemeral;
  Bytes payload;
};

/// The server's answer to a hello: the reply payload and its session.
struct ServerHandshake {
  Bytes reply;
  Session session;
};

/// Draws e from the OS CSPRNG (getrandom(2)) and builds the hello.
Result<ClientHello> StartClientHandshake();

/// Server side. Decodes and validates E (on the curve, coordinates below
/// p) before any scalar multiplication, because the ECDH runs on the
/// static transport key. Draws a fresh nonce, so two handshakes over one
/// hello give different keys. With T = SHA-256(label || hello || Q ||
/// nonce) and x = (d*E).x, the keys are HMAC(x, T || "c2s") and
/// HMAC(x, T || "s2c"), and confirm is HMAC(x, T || "confirm").
Result<ServerHandshake> AcceptClientHello(const KeyPair& transport_key,
                                          const Bytes& hello);

/// Client side. Accepts the reply only when Q hashes to
/// `server_address` and confirm proves knowledge of (e*Q).x.
Result<Session> FinishClientHandshake(const ClientHello& hello,
                                      const Address& server_address,
                                      const Bytes& reply);

/// One RPC request, the payload of a client frame.
///
/// Wire layout: [u64 rpc_id][string op][bytes body] plus an optional
/// trace-context extension [u32 "TRAC"][u64 trace_id][string origin].
/// The extension is emitted only when trace_id != 0, so untraced
/// requests encode byte-identically to the pre-extension format and old
/// frames decode unchanged (trace_id defaults to 0 = untraced).
struct RpcRequest {
  uint64_t rpc_id = 0;
  std::string op;
  Bytes body;
  uint64_t trace_id = 0;  ///< Cross-process trace id (0 = untraced).
  std::string origin;     ///< Trace origin label; carried iff traced.

  Bytes Encode() const;
  /// Rejects truncated input, oversized op names and trailing bytes.
  static Result<RpcRequest> Decode(const Bytes& payload);
};

/// One RPC response, the payload of a server frame.
struct RpcResponse {
  uint64_t rpc_id = 0;
  bool ok = false;
  Bytes body;         ///< Set when ok.
  std::string error;  ///< Set when !ok.

  static RpcResponse Success(uint64_t id, Bytes body);
  static RpcResponse Failure(uint64_t id, std::string error);

  Bytes Encode() const;
  /// Rejects truncated input and trailing bytes.
  static Result<RpcResponse> Decode(const Bytes& payload);
};

}  // namespace wedge

#endif  // WEDGEBLOCK_NET_WIRE_H_
