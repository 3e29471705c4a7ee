#include "rpc/tcp_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace wedge {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Bytes the read-role holder asks the socket for at a time.
constexpr size_t kReadChunk = 64 * 1024;

/// False once the peer has hung up on `fd` or the socket has failed: a
/// zero-timeout poll for those events alone. Unread bytes (a late reply)
/// leave it open.
bool PeerOpen(int fd) {
  pollfd pfd{fd, POLLRDHUP, 0};
  if (poll(&pfd, 1, 0) <= 0) return true;
  return (pfd.revents & (POLLRDHUP | POLLHUP | POLLERR | POLLNVAL)) == 0;
}

/// Writes all of `data` to the blocking socket `fd`.
Status SendAll(int fd, const Bytes& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a server that closed on us must fail this call with
    // EPIPE instead of delivering SIGPIPE to the process.
    ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("write failed: " +
                                 std::string(strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

TcpNodeClient::TcpNodeClient(KeyPair /*key*/, const Address& server_address,
                             TcpClientConfig config)
    : server_address_(server_address),
      config_(std::move(config)),
      endpoint_(config_.host + ":" + std::to_string(config_.port)),
      jitter_rng_(config_.retry_jitter_seed) {
  int n = config_.pool_size < 1 ? 1 : config_.pool_size;
  for (int i = 0; i < n; ++i) {
    pool_.push_back(std::make_unique<Conn>());
    pool_.back()->read_buf.resize(kReadChunk);
  }
}

TcpNodeClient::~TcpNodeClient() { Close(); }

Status TcpNodeClient::Connect() {
  Status last = Status::Ok();
  int up = 0;
  for (auto& conn : pool_) {
    Status s = EnsureConnected(*conn);
    if (s.ok()) {
      ++up;
    } else {
      last = s;
    }
  }
  if (up == 0) {
    return Status::Unavailable("could not reach " + config_.host + ":" +
                               std::to_string(config_.port) + " (" +
                               last.ToString() + ")");
  }
  return Status::Ok();
}

void TcpNodeClient::Close() {
  if (closed_.exchange(true)) return;
  for (auto& conn : pool_) {
    std::unique_lock<std::mutex> lock(conn->mu);
    if (conn->fd >= 0) {
      // Wakes a read-role holder and any writer blocked in send.
      DropConnectionLocked(*conn, Status::Unavailable("client closed"));
    }
    conn->role_free.wait(lock, [&] { return !conn->reading; });
    lock.unlock();
    std::lock_guard<std::mutex> write_lock(conn->write_mu);
    lock.lock();
    if (conn->fd >= 0) close(conn->fd);
    conn->fd = -1;
  }
}

Status TcpNodeClient::EnsureConnected(Conn& conn) {
  if (closed_.load()) return Status::FailedPrecondition("client closed");
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.connected) {
      // A call in flight reads the socket and sees a close itself. An idle
      // connection has no reader, so check that the server has not closed
      // it (say, by restarting) before a request is written into it: an
      // append written there would fail as sent, where a redial lands it.
      if (!conn.waiters.empty() || PeerOpen(conn.fd)) return Status::Ok();
      DropConnectionLocked(conn, Status::Unavailable("connection lost"));
    }
    Micros now = RealClock::Global()->NowMicros();
    if (conn.dialing || now < conn.next_attempt_at) {
      return Status::Unavailable("connection down, backing off");
    }
    // Claim this dial attempt: concurrent callers back off until it
    // resolves.
    conn.dialing = true;
  }
  Result<Dialed> dialed = Dial();
  std::lock_guard<std::mutex> write_lock(conn.write_mu);
  std::unique_lock<std::mutex> lock(conn.mu);
  // A caller may still hold the read role on the dead socket; it leaves
  // promptly (the socket is shut down and its call failed). Swap only
  // after it has.
  conn.role_free.wait(lock, [&] { return !conn.reading; });
  conn.dialing = false;
  if (!dialed.ok()) {
    conn.backoff = conn.backoff == 0
                       ? config_.reconnect_backoff_min
                       : std::min(conn.backoff * 2,
                                  config_.reconnect_backoff_max);
    conn.next_attempt_at = RealClock::Global()->NowMicros() + conn.backoff;
    return dialed.status();
  }
  if (closed_.load()) {
    close(dialed->fd);
    return Status::FailedPrecondition("client closed");
  }
  if (conn.fd >= 0) {
    close(conn.fd);
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  conn.fd = dialed->fd;
  conn.session.emplace(std::move(dialed->session));
  conn.decoder = FrameDecoder(config_.max_frame_bytes);
  conn.connected = true;
  conn.backoff = 0;
  conn.next_attempt_at = 0;
  return Status::Ok();
}

Result<TcpNodeClient::Dialed> TcpNodeClient::Dial() {
  if (config_.faults != nullptr && !config_.faults->AllowConnect(endpoint_)) {
    return Status::Unavailable("connect " + endpoint_ +
                               ": refused (injected fault)");
  }
  int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::Internal("socket: " + std::string(strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad host " + config_.host);
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::Unavailable("connect " + endpoint_ + ": " +
                                   strerror(errno));
    close(fd);
    return s;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  Result<Session> session = Handshake(fd);
  if (!session.ok()) {
    close(fd);
    return Status::Unavailable("handshake with " + endpoint_ + " failed: " +
                               session.status().ToString());
  }
  return Dialed{fd, std::move(session).value()};
}

Result<Session> TcpNodeClient::Handshake(int fd) {
  WEDGE_ASSIGN_OR_RETURN(ClientHello hello, StartClientHandshake());
  WEDGE_RETURN_IF_ERROR(SendAll(fd, EncodeFrame(hello.payload)));
  // Read exactly the fixed-size reply frame: any later bytes belong to
  // the read role.
  Bytes in(kFrameHeaderBytes + kHelloReplyBytes);
  size_t got = 0;
  const Micros deadline =
      RealClock::Global()->NowMicros() + config_.rpc_timeout;
  while (got < in.size()) {
    Micros left = deadline - RealClock::Global()->NowMicros();
    if (left <= 0) return Status::DeadlineExceeded("no reply in time");
    pollfd pfd{fd, POLLIN, 0};
    int ready = poll(&pfd, 1, static_cast<int>((left + 999) / 1000));
    if (ready < 0 && errno != EINTR) {
      return Status::Unavailable("poll: " + std::string(strerror(errno)));
    }
    if (ready <= 0) continue;
    ssize_t n = read(fd, in.data() + got, in.size() - got);
    if (n == 0) return Status::Unavailable("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("read: " + std::string(strerror(errno)));
    }
    got += static_cast<size_t>(n);
  }
  FrameDecoder decoder(kHelloReplyBytes);
  decoder.Feed(in.data(), in.size());
  Bytes reply;
  WEDGE_ASSIGN_OR_RETURN(bool framed, decoder.Next(&reply));
  if (!framed || decoder.buffered() != 0) {
    return Status::Corruption("reply is not one frame");
  }
  return FinishClientHandshake(hello, server_address_, reply);
}

void TcpNodeClient::ReadReplies(Conn& conn,
                                std::unique_lock<std::mutex>& lock,
                                const Waiter& self,
                                SteadyClock::time_point deadline) {
  const int fd = conn.fd;
  while (!self.done) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - SteadyClock::now());
    if (left.count() <= 0) return;
    lock.unlock();
    bool lost = false;    // EOF or a socket error.
    bool broken = false;  // The stream can no longer be trusted.
    pollfd pfd{fd, POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0) {
      lost = errno != EINTR;
    } else if (ready > 0) {
      const ssize_t n = read(fd, conn.read_buf.data(), conn.read_buf.size());
      if (n == 0 || (n < 0 && errno != EINTR)) {
        lost = true;
      } else if (n > 0) {
        conn.decoder.Feed(conn.read_buf.data(), static_cast<size_t>(n));
        while (!broken) {
          Bytes payload;
          Result<bool> has = conn.decoder.Next(&payload);
          if (!has.ok()) {
            broken = true;  // Unsyncable garbage from the server side.
          } else if (!has.value()) {
            break;
          } else if (!HandlePayload(conn, payload)) {
            broken = true;  // Tag failed: nothing after it can be trusted.
          }
        }
      }
    }
    lock.lock();
    if (lost || broken) {
      DropConnectionLocked(conn, Status::Unavailable("connection lost"));
      return;
    }
  }
}

bool TcpNodeClient::HandlePayload(Conn& conn, Bytes& payload) {
  // Only the read-role holder opens frames on the connection's session.
  if (!conn.session->Open(&payload).ok()) return false;
  auto response = RpcResponse::Decode(payload);
  if (!response.ok()) {
    discarded_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  std::lock_guard<std::mutex> lock(conn.mu);
  auto it = conn.waiters.find(response->rpc_id);
  if (it == conn.waiters.end()) {
    // Stale (timed-out caller already left) or mismatched rpc_id: never
    // deliver it to some other waiter.
    discarded_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  Waiter& waiter = *it->second;
  conn.waiters.erase(it);
  waiter.response = std::move(response).value();
  waiter.done = true;
  waiter.cv.notify_one();
  return true;
}

void TcpNodeClient::DropConnectionLocked(Conn& conn, const Status& status) {
  if (conn.fd >= 0) shutdown(conn.fd, SHUT_RDWR);
  conn.connected = false;
  for (auto& [id, waiter] : conn.waiters) {
    (void)id;
    waiter->error = status;
    waiter->done = true;
    waiter->cv.notify_one();
  }
  conn.waiters.clear();
}

Status TcpNodeClient::WriteFrame(Conn& conn, const Bytes& payload) {
  std::lock_guard<std::mutex> write_lock(conn.write_mu);
  int fd;
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (!conn.connected) return Status::Unavailable("connection lost");
    fd = conn.fd;
  }
  // Sealed under write_mu, so sequence order is write order, for the
  // session of the connection that carries it.
  Bytes frame;
  conn.session->Seal(payload, &frame);
  int copies = 1;
  if (config_.faults != nullptr) {
    FaultyTransport::SendDecision decision = config_.faults->OnSend(endpoint_);
    if (decision.delay > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(decision.delay));
    }
    if (decision.action == FaultyTransport::SendAction::kDrop) {
      // Kill the whole connection, as a mid-stream RST would: every
      // in-flight call fails and the socket is redialed with backoff.
      std::lock_guard<std::mutex> lock(conn.mu);
      DropConnectionLocked(conn, Status::Unavailable("connection lost"));
      return Status::Unavailable("write failed: dropped (injected fault)");
    }
    if (decision.action == FaultyTransport::SendAction::kDuplicate) {
      copies = 2;  // One sealed frame twice: the server sees a replay.
    }
  }
  for (int copy = 0; copy < copies; ++copy) {
    Status sent = SendAll(fd, frame);
    if (!sent.ok()) {
      // In-flight calls fail fast, not at their timeout.
      std::lock_guard<std::mutex> lock(conn.mu);
      DropConnectionLocked(conn, Status::Unavailable("connection lost"));
      return sent;
    }
  }
  return Status::Ok();
}

Histogram* TcpNodeClient::OpHistogram(std::string_view op) {
  if (config_.telemetry == nullptr) return nullptr;
  std::lock_guard<std::mutex> lock(op_hist_mu_);
  std::string key(op);
  auto it = op_hists_.find(key);
  if (it != op_hists_.end()) return it->second;
  Histogram* h = config_.telemetry->metrics.GetHistogram(
      "wedge.client.rpc_us{op=" + key + "}");
  op_hists_.emplace(std::move(key), h);
  return h;
}

Result<Bytes> TcpNodeClient::Call(std::string_view op, const Bytes& body,
                                  bool idempotent) {
  if (closed_.load()) return Status::FailedPrecondition("client closed");
  // Records the whole call (retries included) into
  // wedge.client.rpc_us{op=...} on every exit path.
  struct LatencyRecorder {
    Histogram* hist;
    Micros start;
    ~LatencyRecorder() {
      if (hist != nullptr) {
        hist->Record(RealClock::Global()->NowMicros() - start);
      }
    }
  } recorder{OpHistogram(op), RealClock::Global()->NowMicros()};
  RpcRequest request;
  request.rpc_id = next_rpc_id_.fetch_add(1, std::memory_order_relaxed);
  request.op = std::string(op);
  request.body = body;
  // Propagate the calling thread's trace context (ScopedTrace) onto the
  // wire; untraced calls encode byte-identically to the legacy format.
  request.trace_id = CurrentTraceId();
  if (request.trace_id != 0) request.origin = CurrentTraceOrigin();
  const Bytes payload = request.Encode();
  if (payload.size() + kSessionTagBytes > config_.max_frame_bytes) {
    return Status::InvalidArgument(
        "request exceeds frame limit (" +
        std::to_string(payload.size() + kSessionTagBytes) + " > " +
        std::to_string(config_.max_frame_bytes) + ")");
  }

  int attempts = std::max(1, config_.max_call_attempts);
  Micros backoff = config_.retry_backoff_min;
  Result<Bytes> result = Status::Unavailable("no call attempt made");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      Micros jitter;
      {
        std::lock_guard<std::mutex> lock(jitter_mu_);
        jitter = backoff > 1 ? jitter_rng_.Uniform(backoff / 2) : 0;
      }
      std::this_thread::sleep_for(
          std::chrono::microseconds(backoff + jitter));
      backoff = std::min(backoff * 2, config_.retry_backoff_max);
      if (closed_.load()) return Status::FailedPrecondition("client closed");
    }
    bool request_sent = false;
    result = CallAttempt(request.rpc_id, payload, &request_sent);
    if (result.ok()) return result;
    // Only kUnavailable is retry-safe: the peer never replied. A sent
    // non-idempotent request (append) may still have executed before the
    // connection died, so it must surface the failure instead of risking
    // a duplicate entry. kDeadlineExceeded is never retried here for the
    // same reason.
    bool retryable =
        result.status().code() == Code::kUnavailable &&
        (idempotent || !request_sent);
    if (!retryable) return result;
  }
  return result;
}

Result<Bytes> TcpNodeClient::CallAttempt(uint64_t rpc_id,
                                         const Bytes& payload,
                                         bool* request_sent) {
  Status last = Status::Unavailable("connection pool exhausted");
  size_t start = next_conn_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < pool_.size(); ++i) {
    Conn& conn = *pool_[(start + i) % pool_.size()];
    Status st = EnsureConnected(conn);
    if (!st.ok()) {
      last = st;
      continue;
    }
    Waiter waiter;
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      if (!conn.connected) continue;
      conn.waiters.emplace(rpc_id, &waiter);
    }
    *request_sent = true;  // Bytes may hit the wire from here on.
    st = WriteFrame(conn, payload);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.waiters.erase(rpc_id);
      last = st;
      continue;
    }
    return AwaitReply(
        conn, rpc_id, waiter,
        SteadyClock::now() + std::chrono::microseconds(config_.rpc_timeout));
  }
  return last;
}

Result<Bytes> TcpNodeClient::AwaitReply(Conn& conn, uint64_t rpc_id,
                                        Waiter& waiter,
                                        SteadyClock::time_point deadline) {
  std::unique_lock<std::mutex> lock(conn.mu);
  for (;;) {
    if (!waiter.done && !conn.reading) {
      conn.reading = true;
      ReadReplies(conn, lock, waiter, deadline);
      conn.reading = false;
      conn.role_free.notify_all();
    }
    if (waiter.done) break;
    if (SteadyClock::now() >= deadline) {
      // A reply that arrives later is counted and dropped by whoever
      // reads it next.
      conn.waiters.erase(rpc_id);
      break;
    }
    // Another caller holds the read role: wait for it to deliver this
    // reply, or to pass the role on.
    if (conn.reading) waiter.cv.wait_until(lock, deadline);
  }
  // Whoever leaves with the role free wakes a caller still waiting to take
  // it, so no call is stranded behind one that timed out.
  if (!conn.reading && !conn.waiters.empty()) {
    conn.waiters.begin()->second->cv.notify_one();
  }
  if (!waiter.done) {
    return Status::DeadlineExceeded("rpc timed out (omission or loss)");
  }
  if (!waiter.error.ok()) return waiter.error;
  if (!waiter.response.ok) {
    // Error responses carry a "<CodeName>: <message>" status string, so
    // typed server-side failures (e.g. quota kResourceExhausted) stay
    // typed across the wire instead of collapsing into kUnavailable.
    return Status::FromWireString(waiter.response.error);
  }
  return std::move(waiter.response.body);
}

Result<std::vector<Stage1Response>> TcpNodeClient::AppendForTenant(
    TenantId tenant, const std::vector<AppendRequest>& requests) {
  WEDGE_ASSIGN_OR_RETURN(
      Bytes reply,
      Call(kOpAppendTenant, EncodeTenantAppendBody(tenant, requests),
           /*idempotent=*/false));
  return DecodeAppendReply(reply);
}

Result<Stage1Response> TcpNodeClient::ReadOneForTenant(
    TenantId tenant, const EntryIndex& index) {
  WEDGE_ASSIGN_OR_RETURN(
      Bytes reply, Call(kOpReadTenant, EncodeTenantReadBody(tenant, index),
                        /*idempotent=*/true));
  return DecodeReadReply(reply);
}

Result<BatchReadResponse> TcpNodeClient::ReadBatchForTenant(
    TenantId tenant, uint64_t log_id, const std::vector<uint32_t>& offsets) {
  WEDGE_ASSIGN_OR_RETURN(
      Bytes reply,
      Call(kOpReadBatchTenant,
           EncodeTenantReadBatchBody(tenant, log_id, offsets),
           /*idempotent=*/true));
  return DecodeReadBatchReply(reply);
}

Result<AggregationProof> TcpNodeClient::FetchAggregationProof(
    TenantId tenant, uint64_t log_id) {
  WEDGE_ASSIGN_OR_RETURN(
      Bytes reply, Call(kOpAggProof, EncodeAggProofBody(tenant, log_id),
                        /*idempotent=*/true));
  return DecodeAggProofReply(reply);
}

}  // namespace wedge
