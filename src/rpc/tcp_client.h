#ifndef WEDGEBLOCK_RPC_TCP_CLIENT_H_
#define WEDGEBLOCK_RPC_TCP_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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

/// The client side of the RPC boundary: signed envelope payloads
/// (net/wire.h) over a pool of TCP connections with request pipelining.
/// Each pooled connection has one reader thread that correlates responses
/// to waiting callers by rpc_id, so many threads can have calls in flight
/// on one socket and responses may return out of order. A response with
/// an unknown rpc_id (stale, duplicated, or forged) or signed by any key
/// but the pinned server key is counted and discarded — it is never
/// handed to a waiter.
///
/// Failure behaviour: a broken socket fails all of its in-flight calls
/// with kUnavailable and is redialed lazily with exponential backoff;
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
  /// `server_address` pins the transport key replies must be signed with.
  TcpNodeClient(KeyPair key, const Address& server_address,
                TcpClientConfig config);
  ~TcpNodeClient();

  TcpNodeClient(const TcpNodeClient&) = delete;
  TcpNodeClient& operator=(const TcpNodeClient&) = delete;

  /// Dials the pool. OK when at least one connection is up (the rest
  /// retry lazily on use).
  Status Connect();

  /// Shuts every connection down and joins the reader threads. Idempotent;
  /// the destructor calls it.
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
  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Status error;       ///< Transport-level failure (timeout handled by caller).
    RpcResponse response;
  };

  struct Conn {
    std::mutex mu;  ///< Guards fd/connected/waiters/backoff state.
    int fd = -1;
    bool connected = false;
    std::thread reader;
    std::unordered_map<uint64_t, std::shared_ptr<Waiter>> waiters;
    Micros backoff = 0;
    Micros next_attempt_at = 0;
    std::mutex write_mu;  ///< Serializes frame writes from pipelined callers.
  };

  /// `idempotent` ops (reads, proof fetches) retry on any kUnavailable;
  /// non-idempotent ops (appends) retry only when the attempt failed
  /// before any byte of the request was written.
  Result<Bytes> Call(std::string_view op, const Bytes& body, bool idempotent);
  /// One pass over the pool. Sets *request_sent once any attempt started
  /// writing the request to a socket.
  Result<Bytes> CallAttempt(uint64_t rpc_id, const Bytes& frame,
                            bool* request_sent);
  /// Lazily-resolved `wedge.client.rpc_us{op=<op>}` histogram (null when
  /// the config carries no telemetry).
  Histogram* OpHistogram(std::string_view op);
  Status EnsureConnected(Conn& conn);
  void ReaderLoop(Conn& conn);
  void HandlePayload(Conn& conn, const Bytes& payload);
  /// Fails every in-flight waiter on `conn` (socket died).
  void FailAllWaiters(Conn& conn, const Status& status);
  Status WriteFrame(Conn& conn, const Bytes& frame);

  const KeyPair key_;
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
