#ifndef WEDGEBLOCK_RPC_TCP_CLIENT_H_
#define WEDGEBLOCK_RPC_TCP_CLIENT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "core/rpc_codec.h"
#include "net/fault_transport.h"
#include "net/wire.h"
#include "telemetry/telemetry.h"

namespace wedge {

struct TcpClientConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Connections in the pool. Calls are spread round-robin; each
  /// connection pipelines any number of concurrent callers.
  int pool_size = 1;
  Micros rpc_timeout = 5 * kMicrosPerSecond;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Exponential reconnect backoff bounds for broken connections.
  Micros reconnect_backoff_min = 50 * kMicrosPerMilli;
  Micros reconnect_backoff_max = 2 * kMicrosPerSecond;
  /// Total attempts per call when the failure is retry-safe (see Call's
  /// retry rules). 1 disables retries entirely.
  int max_call_attempts = 3;
  /// Exponential backoff between retry attempts, plus a deterministic
  /// jitter draw of up to half the current backoff (seeded, so runs
  /// replay exactly).
  Micros retry_backoff_min = 20 * kMicrosPerMilli;
  Micros retry_backoff_max = 500 * kMicrosPerMilli;
  uint64_t retry_jitter_seed = 0x7E7B;
  /// Optional deterministic fault injection on this client's dials and
  /// frame sends (shared across clients to script fleet-wide partitions).
  std::shared_ptr<FaultyTransport> faults;
  /// Optional client-side telemetry sink: per-op RPC latency histograms
  /// (`wedge.client.rpc_us{op=<op>}`, wall clock around the whole call
  /// including retries). Must outlive the client; null disables.
  Telemetry* telemetry = nullptr;
};

/// The client side of the RPC boundary: tagged frames (net/wire.h) over a
/// pool of TCP connections with request pipelining. Each dial runs the
/// session handshake before the connection carries any call: it sends a
/// fresh ephemeral share and accepts the server only when its transport
/// key hashes to the pinned `server_address` and its key-confirmation
/// tag checks (waiting up to rpc_timeout). After that every frame in both
/// directions carries an HMAC tag under a per-direction key and sequence
/// number. The client is anonymous on the wire: tenants are bound by the
/// per-entry publisher signatures, not by the channel.
///
/// Many threads can have calls in flight on one pooled connection, and
/// responses may return out of order. The connection has no thread of its
/// own: a caller waiting for its reply reads the socket itself. One caller
/// at a time holds a connection's read role (its frame decoder and the
/// receive side of its session). The holder opens each frame, hands
/// replies for other rpc_ids to their waiters, and returns on its own
/// reply after passing the role to a caller that is still waiting. So a
/// lone call reads its own reply, with no thread hand-off. A response
/// with an unknown rpc_id (stale or late) is counted and discarded when
/// the next holder reads it — it is never handed to a waiter. A frame
/// whose tag fails (tampered, replayed, reordered, forged) closes the
/// connection and delivers nothing.
///
/// Failure behaviour: EOF, a socket error, an unsyncable stream or a bad
/// frame tag fails all of the connection's in-flight calls with
/// kUnavailable. An idle connection that the server closed is noticed
/// before the next request is written to it. A dropped connection, like
/// a failed handshake, is redialed lazily with exponential backoff;
/// calls spill over to the other pool connections meanwhile. A call that
/// sees no reply within rpc_timeout returns kDeadlineExceeded (the
/// omission-attack surface, §4.7) — the request may have executed
/// server-side, so it is never blindly retried here. kUnavailable
/// failures are retried up to max_call_attempts times with exponential
/// backoff + seeded jitter, but for non-idempotent ops (appends) only
/// while the request provably never reached the wire.
///
/// Thread-safe: any number of threads may call the op methods
/// concurrently.
class TcpNodeClient {
 public:
  /// `server_address` pins the server's transport key. `key` is unused:
  /// the client does not authenticate itself on the wire.
  TcpNodeClient(KeyPair key, const Address& server_address,
                TcpClientConfig config);
  ~TcpNodeClient();

  TcpNodeClient(const TcpNodeClient&) = delete;
  TcpNodeClient& operator=(const TcpNodeClient&) = delete;

  /// Dials the pool. OK when at least one connection is up (the rest
  /// retry lazily on use).
  Status Connect();

  /// Shuts every connection down, fails the calls in flight on them and
  /// closes the sockets. Idempotent; the destructor calls it.
  void Close();

  /// The tenant-scoped ops (core/rpc_codec.h "appendT"/"readT"/
  /// "readBatchT"); a single-tenant client uses tenant 0. Server-side
  /// quota rejections come back as typed Code::kResourceExhausted
  /// statuses, not transport errors — the connection stays usable.
  /// ReadBatchForTenant with no offsets reads the whole position.
  Result<std::vector<Stage1Response>> AppendForTenant(
      TenantId tenant, const std::vector<AppendRequest>& requests);
  Result<Stage1Response> ReadOneForTenant(TenantId tenant,
                                          const EntryIndex& index);
  Result<BatchReadResponse> ReadBatchForTenant(
      TenantId tenant, uint64_t log_id,
      const std::vector<uint32_t>& offsets);
  /// Fetches the engine-signed batch-root -> forest-root proof for a
  /// sealed batch ("aggProof").
  Result<AggregationProof> FetchAggregationProof(TenantId tenant,
                                                 uint64_t log_id);

  uint64_t reconnects() const { return reconnects_.load(); }
  /// Responses dropped because no waiter matched their rpc_id.
  uint64_t discarded_responses() const { return discarded_.load(); }
  /// Retry attempts made after kUnavailable failures (not first attempts).
  uint64_t retries() const { return retries_.load(); }

 private:
  /// One call awaiting its reply; lives on the caller's stack. Guarded by
  /// its connection's mu.
  struct Waiter {
    /// Signalled when the reply (or a failure) is delivered, and when the
    /// read role passes to this caller.
    std::condition_variable cv;
    bool done = false;
    Status error;       ///< Transport-level failure (timeout handled by caller).
    RpcResponse response;
  };

  struct Conn {
    std::mutex mu;  ///< Guards fd/connected/waiters/reading/backoff state.
    int fd = -1;
    bool connected = false;
    /// Calls whose request is on this socket; each leaves the map before
    /// its caller returns.
    std::unordered_map<uint64_t, Waiter*> waiters;
    /// A caller holds the read role: it alone reads the socket, feeds
    /// `decoder` and opens frames, with mu released. A new socket is
    /// installed, or the old one closed, only while nobody holds it.
    bool reading = false;
    std::condition_variable role_free;  ///< Signalled when reading clears.
    FrameDecoder decoder;  ///< The read-role holder's.
    Bytes read_buf;        ///< The read-role holder's.
    Micros backoff = 0;
    Micros next_attempt_at = 0;
    bool dialing = false;  ///< One dial (and handshake) at a time.
    std::mutex write_mu;  ///< Serializes frame writes from pipelined callers.
    /// The live connection's keys. Replaced only under write_mu while
    /// nobody holds the read role; writers seal under write_mu, the
    /// read-role holder opens.
    std::optional<Session> session;
  };

  struct Dialed {
    int fd;
    Session session;
  };

  /// `idempotent` ops (reads, proof fetches) retry on any kUnavailable;
  /// non-idempotent ops (appends) retry only when the attempt failed
  /// before any byte of the request was written.
  Result<Bytes> Call(std::string_view op, const Bytes& body, bool idempotent);
  /// One pass over the pool. Sets *request_sent once any attempt started
  /// writing the request to a socket.
  Result<Bytes> CallAttempt(uint64_t rpc_id, const Bytes& payload,
                            bool* request_sent);
  /// Lazily-resolved `wedge.client.rpc_us{op=<op>}` histogram (null when
  /// the config carries no telemetry).
  Histogram* OpHistogram(std::string_view op);
  /// OK when `conn` is up, dialing it first when it is down (or idle and
  /// closed by the server) and its backoff allows.
  Status EnsureConnected(Conn& conn);
  /// Opens a socket to the server and runs the session handshake on it.
  Result<Dialed> Dial();
  /// Sends the hello on `fd` and checks the reply within rpc_timeout.
  Result<Session> Handshake(int fd);
  /// Waits for `waiter`'s reply until `deadline`, taking the read role
  /// whenever it is free; on timeout, deregisters `rpc_id`.
  Result<Bytes> AwaitReply(Conn& conn, uint64_t rpc_id, Waiter& waiter,
                           std::chrono::steady_clock::time_point deadline);
  /// The read role: reads the socket and delivers replies until `self`
  /// is done, the connection fails or `deadline` passes. Entered and left
  /// with `lock` (on conn.mu) held; reads with it released.
  void ReadReplies(Conn& conn, std::unique_lock<std::mutex>& lock,
                   const Waiter& self,
                   std::chrono::steady_clock::time_point deadline);
  /// Opens one received frame and hands its response to the waiter.
  /// Returns false when the frame's tag fails: the connection must close.
  bool HandlePayload(Conn& conn, Bytes& payload);
  /// Shuts the socket down and fails every in-flight call on `conn`; the
  /// next call redials. Caller holds conn.mu.
  void DropConnectionLocked(Conn& conn, const Status& status);
  /// Seals `payload` for the connection and writes the frame.
  Status WriteFrame(Conn& conn, const Bytes& payload);

  const Address server_address_;
  const TcpClientConfig config_;
  const std::string endpoint_;  ///< "host:port" key for fault injection.
  std::vector<std::unique_ptr<Conn>> pool_;
  std::atomic<uint64_t> next_rpc_id_{1};
  std::atomic<uint64_t> next_conn_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> discarded_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<bool> closed_{false};
  std::mutex jitter_mu_;
  Rng jitter_rng_;
  std::mutex op_hist_mu_;
  std::unordered_map<std::string, Histogram*> op_hists_;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_RPC_TCP_CLIENT_H_
