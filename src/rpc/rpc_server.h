#ifndef WEDGEBLOCK_RPC_RPC_SERVER_H_
#define WEDGEBLOCK_RPC_RPC_SERVER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "net/wire.h"
#include "telemetry/telemetry.h"

namespace wedge {

/// Tuning knobs for the TCP serving stack.
struct RpcServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Worker event loops; each owns its own epoll instance and a disjoint
  /// set of connections, so workers never contend on connection state.
  int num_workers = 2;
  /// Frames larger than this poison the connection (see net/wire.h).
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Requests decoded per processing pass before the worker forces a
  /// write flush — bounds memory for deeply pipelined clients.
  int max_inflight_requests = 64;
  /// When a connection's pending write buffer grows past this, the worker
  /// stops reading from it (backpressure) until the peer drains replies.
  size_t write_high_watermark = 8u << 20;
  int max_connections = 1024;
  /// Graceful-shutdown budget for flushing already-queued replies.
  Micros drain_timeout = 2 * kMicrosPerSecond;
  /// Requests slower than this (wall clock around dispatch) emit one
  /// structured JSONL line on stderr with op, tenant, shard, trace_id
  /// and duration, and bump wedge.rpc.slow_requests. 0 disables.
  Micros slow_request_micros = 0;
  /// Resolves the shard serving a tenant for the slow-request log (the
  /// daemon binds its engine's router); -1 when unset/unknown.
  std::function<int(uint64_t tenant)> shard_for_tenant;
};

/// Epoll-based TCP RPC server: the client <-> Offchain Node boundary.
/// One acceptor thread hands connections round-robin to `num_workers`
/// event-loop threads; each connection carries length-prefixed frames
/// (net/wire.h). A connection opens with the client's hello, which the
/// server answers with its transport public key, a fresh nonce and a
/// key-confirmation tag (AcceptClientHello); every later frame in both
/// directions carries an HMAC tag under the session's per-direction key
/// and sequence number. No signature is made or checked per frame: the
/// client is anonymous on the wire, and tenants are bound by the
/// per-entry publisher signatures inside each append. Every request goes
/// to one Handler — in this tree always DispatchEngineRpc
/// (shard/shard_rpc.h) bound to a ShardedLogEngine.
///
/// Robustness rules (tested by wire_test/rpc_test), each close counted in
/// wedge.rpc.malformed_frames:
///  - a malformed frame header (bad magic, oversize) closes the connection;
///  - a first frame that is not a valid hello (wrong magic or length, an
///    off-curve share) closes the connection;
///  - a frame whose tag fails (tampered, replayed, reordered, forged)
///    closes the connection unserved;
///  - a well-tagged but undecodable request gets an error response when
///    its rpc_id prefix is readable, else the connection is closed;
///  - the server never crashes on arbitrary bytes.
///
/// Telemetry (`wedge.rpc.*`): connections gauge, conns_accepted /
/// requests / responses_error / malformed_frames / bytes_in / bytes_out
/// counters, one latency histogram per op (`op_us{op=<op>}`) measured on
/// the real clock around dispatch, and `queue_wait_us`: per served
/// request, the time from the epoll_wait return that delivered its frame
/// to the start of its dispatch — a lower bound on the time it waited
/// behind other connections' inline dispatches.
class RpcServer {
 public:
  /// Decodes an op body and produces a reply body (or a typed error the
  /// server encodes into the error response). Must be thread-safe —
  /// every worker calls it concurrently.
  using Handler =
      std::function<Result<Bytes>(std::string_view op, const Bytes& body)>;

  RpcServer(Handler handler, KeyPair transport_key, RpcServerConfig config,
            Telemetry* telemetry = nullptr);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds, listens and spawns the acceptor + worker threads.
  Status Start();

  /// Graceful shutdown: stop accepting, flush queued replies (bounded by
  /// config.drain_timeout), close every connection, join all threads.
  /// Idempotent.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }
  uint64_t requests_served() const {
    return requests_counter_ == nullptr ? 0 : requests_counter_->Value();
  }

 private:
  struct Connection {
    int fd = -1;
    FrameDecoder decoder;
    Bytes write_buf;       ///< Encoded reply frames awaiting the socket.
    size_t write_pos = 0;  ///< Flushed prefix of write_buf.
    bool paused = false;   ///< EPOLLIN disabled for backpressure.
    uint32_t armed_events = 0;  ///< Events currently registered in epoll.
    std::optional<Session> session;  ///< Set once the hello is answered.

    explicit Connection(int fd_in, size_t max_frame)
        : fd(fd_in), decoder(max_frame) {}
    size_t unflushed() const { return write_buf.size() - write_pos; }
  };

  struct Worker {
    int epoll_fd = -1;
    int wake_fd = -1;  ///< eventfd: new connections or shutdown.
    std::thread thread;
    std::mutex mu;                   ///< Guards incoming only.
    std::vector<int> incoming;       ///< Accepted fds awaiting adoption.
    std::unordered_map<int, std::unique_ptr<Connection>> conns;
    Micros woke_at = 0;  ///< When the last epoll_wait returned events.
  };

  void AcceptLoop();
  void WorkerLoop(Worker& worker);
  void AdoptIncoming(Worker& worker);
  /// Reads until EAGAIN; returns false when the connection must close.
  bool HandleReadable(Worker& worker, Connection& conn);
  /// Decodes and serves buffered frames; returns false to close.
  bool ProcessFrames(Worker& worker, Connection& conn);
  /// Serves one opened request payload; returns false to close the
  /// connection.
  bool ServePayload(Worker& worker, Connection& conn, const Bytes& payload);
  void QueueReply(Connection& conn, const RpcResponse& response);
  /// Flushes write_buf until EAGAIN; returns false on socket error.
  bool FlushWrites(Connection& conn);
  /// Serves every frame already decoded off `conn` and pushes the queued
  /// replies out (bounded blocking, until `deadline`). Used on peer EOF
  /// and on shutdown, where the connection is about to close: a request
  /// the server already read must never lose its produced response.
  void DrainConnection(Worker& worker, Connection& conn, Micros deadline);
  void UpdateInterest(Worker& worker, Connection& conn);
  void CloseConnection(Worker& worker, int fd);
  void DrainAndCloseAll(Worker& worker);

  const Handler handler_;
  const KeyPair key_;
  const RpcServerConfig config_;
  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* const telemetry_;

  Gauge* connections_gauge_ = nullptr;
  Counter* accepted_counter_ = nullptr;
  Counter* rejected_counter_ = nullptr;
  Counter* requests_counter_ = nullptr;
  Counter* error_responses_counter_ = nullptr;
  Counter* malformed_counter_ = nullptr;
  Counter* bytes_in_counter_ = nullptr;
  Counter* bytes_out_counter_ = nullptr;
  Counter* slow_requests_counter_ = nullptr;
  Histogram* queue_wait_hist_ = nullptr;

  /// Lazily-resolved per-op latency histograms
  /// (`wedge.rpc.op_us{op=<op>}`). Ops are a small fixed set, so the map
  /// stays tiny; resolved pointers are stable for the registry lifetime.
  Histogram* OpHistogram(const std::string& op);
  mutable std::mutex op_hist_mu_;
  std::unordered_map<std::string, Histogram*> op_hists_;

  int listen_fd_ = -1;
  int accept_wake_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::atomic<int> open_connections_{0};
  std::thread acceptor_;
  std::vector<std::unique_ptr<Worker>> workers_;
  size_t next_worker_ = 0;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_RPC_RPC_SERVER_H_
