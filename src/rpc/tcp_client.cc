#include "rpc/tcp_client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace wedge {

TcpNodeClient::TcpNodeClient(KeyPair key, const Address& server_address,
                             TcpClientConfig config)
    : key_(std::move(key)),
      server_address_(server_address),
      config_(std::move(config)),
      endpoint_(config_.host + ":" + std::to_string(config_.port)),
      jitter_rng_(config_.retry_jitter_seed) {
  int n = config_.pool_size < 1 ? 1 : config_.pool_size;
  for (int i = 0; i < n; ++i) pool_.push_back(std::make_unique<Conn>());
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
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->fd >= 0) shutdown(conn->fd, SHUT_RDWR);
    }
    if (conn->reader.joinable()) conn->reader.join();
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd >= 0) close(conn->fd);
    conn->fd = -1;
    conn->connected = false;
  }
}

Status TcpNodeClient::EnsureConnected(Conn& conn) {
  if (closed_.load()) return Status::FailedPrecondition("client closed");
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.connected) return Status::Ok();
    Micros now = RealClock::Global()->NowMicros();
    if (now < conn.next_attempt_at) {
      return Status::Unavailable("connection down, backing off");
    }
    // Claim this dial attempt: concurrent callers back off until it
    // resolves (success resets the backoff state below).
    conn.next_attempt_at =
        now + (conn.backoff > 0 ? conn.backoff : config_.reconnect_backoff_min);
  }
  // The old reader has observed the dead socket (connected was false);
  // join it outside conn.mu — its exit path takes that mutex.
  if (conn.reader.joinable()) conn.reader.join();

  if (config_.faults != nullptr && !config_.faults->AllowConnect(endpoint_)) {
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.backoff = conn.backoff == 0
                       ? config_.reconnect_backoff_min
                       : std::min(conn.backoff * 2,
                                  config_.reconnect_backoff_max);
    conn.next_attempt_at = RealClock::Global()->NowMicros() + conn.backoff;
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
    Status s = Status::Unavailable("connect " + config_.host + ":" +
                                   std::to_string(config_.port) + ": " +
                                   strerror(errno));
    close(fd);
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.backoff = conn.backoff == 0
                       ? config_.reconnect_backoff_min
                       : std::min(conn.backoff * 2,
                                  config_.reconnect_backoff_max);
    conn.next_attempt_at = RealClock::Global()->NowMicros() + conn.backoff;
    return s;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  std::lock_guard<std::mutex> write_lock(conn.write_mu);
  std::lock_guard<std::mutex> lock(conn.mu);
  if (closed_.load()) {
    close(fd);
    return Status::FailedPrecondition("client closed");
  }
  if (conn.fd >= 0) {
    close(conn.fd);
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  conn.fd = fd;
  conn.connected = true;
  conn.backoff = 0;
  conn.next_attempt_at = 0;
  conn.reader = std::thread([this, &conn] { ReaderLoop(conn); });
  return Status::Ok();
}

void TcpNodeClient::ReaderLoop(Conn& conn) {
  int fd;
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    fd = conn.fd;
  }
  FrameDecoder decoder(config_.max_frame_bytes);
  std::vector<uint8_t> buf(64 * 1024);
  bool broken = false;
  while (!broken) {
    ssize_t n = read(fd, buf.data(), buf.size());
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    decoder.Feed(buf.data(), static_cast<size_t>(n));
    for (;;) {
      Bytes payload;
      Result<bool> has = decoder.Next(&payload);
      if (!has.ok()) {
        broken = true;  // Unsyncable garbage from the server side.
        break;
      }
      if (!has.value()) break;
      HandlePayload(conn, payload);
    }
  }
  if (broken) shutdown(fd, SHUT_RDWR);
  FailAllWaiters(conn, Status::Unavailable("connection lost"));
}

void TcpNodeClient::HandlePayload(Conn& conn, const Bytes& payload) {
  auto envelope = SignedEnvelope::Deserialize(payload);
  if (!envelope.ok() || !envelope->Verify() ||
      envelope->sender != server_address_) {
    discarded_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto response = RpcResponse::Decode(envelope->payload);
  if (!response.ok()) {
    discarded_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::shared_ptr<Waiter> waiter;
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    auto it = conn.waiters.find(response->rpc_id);
    if (it != conn.waiters.end()) {
      waiter = it->second;
      conn.waiters.erase(it);
    }
  }
  if (waiter == nullptr) {
    // Stale (timed-out caller already left) or mismatched rpc_id: never
    // deliver it to some other waiter.
    discarded_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(waiter->mu);
    waiter->response = std::move(response).value();
    waiter->done = true;
  }
  waiter->cv.notify_all();
}

void TcpNodeClient::FailAllWaiters(Conn& conn, const Status& status) {
  std::unordered_map<uint64_t, std::shared_ptr<Waiter>> orphans;
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    orphans.swap(conn.waiters);
    conn.connected = false;
  }
  for (auto& [id, waiter] : orphans) {
    (void)id;
    {
      std::lock_guard<std::mutex> lock(waiter->mu);
      waiter->error = status;
      waiter->done = true;
    }
    waiter->cv.notify_all();
  }
}

Status TcpNodeClient::WriteFrame(Conn& conn, const Bytes& frame) {
  std::lock_guard<std::mutex> write_lock(conn.write_mu);
  int fd;
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (!conn.connected) return Status::Unavailable("connection lost");
    fd = conn.fd;
  }
  int copies = 1;
  if (config_.faults != nullptr) {
    FaultyTransport::SendDecision decision = config_.faults->OnSend(endpoint_);
    if (decision.delay > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(decision.delay));
    }
    if (decision.action == FaultyTransport::SendAction::kDrop) {
      // Kill the whole connection, as a mid-stream RST would: the reader
      // fails every in-flight call and the socket is redialed with backoff.
      shutdown(fd, SHUT_RDWR);
      return Status::Unavailable("write failed: dropped (injected fault)");
    }
    if (decision.action == FaultyTransport::SendAction::kDuplicate) {
      copies = 2;
    }
  }
  for (int copy = 0; copy < copies; ++copy) {
    size_t sent = 0;
    while (sent < frame.size()) {
      // MSG_NOSIGNAL: a server that closed on us must fail this call with
      // EPIPE instead of delivering SIGPIPE to the process.
      ssize_t n = send(fd, frame.data() + sent, frame.size() - sent,
                       MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        // Wake the reader so in-flight calls fail fast, not at timeout.
        shutdown(fd, SHUT_RDWR);
        return Status::Unavailable("write failed: " +
                                   std::string(strerror(errno)));
      }
      sent += static_cast<size_t>(n);
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
  SignedEnvelope envelope = SignedEnvelope::Create(key_, request.Encode());
  Bytes payload = envelope.Serialize();
  if (payload.size() > config_.max_frame_bytes) {
    return Status::InvalidArgument("request exceeds frame limit (" +
                                   std::to_string(payload.size()) + " > " +
                                   std::to_string(config_.max_frame_bytes) +
                                   ")");
  }
  Bytes frame = EncodeFrame(payload);

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
    result = CallAttempt(request.rpc_id, frame, &request_sent);
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

Result<Bytes> TcpNodeClient::CallAttempt(uint64_t rpc_id, const Bytes& frame,
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
    auto waiter = std::make_shared<Waiter>();
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      if (!conn.connected) continue;
      conn.waiters.emplace(rpc_id, waiter);
    }
    *request_sent = true;  // Bytes may hit the wire from here on.
    st = WriteFrame(conn, frame);
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.waiters.erase(rpc_id);
      last = st;
      continue;
    }

    std::unique_lock<std::mutex> wl(waiter->mu);
    bool done = waiter->cv.wait_for(
        wl, std::chrono::microseconds(config_.rpc_timeout),
        [&] { return waiter->done; });
    if (!done) {
      wl.unlock();
      bool deregistered;
      {
        std::lock_guard<std::mutex> lock(conn.mu);
        deregistered = conn.waiters.erase(rpc_id) == 1;
      }
      if (deregistered) {
        return Status::DeadlineExceeded("rpc timed out (omission or loss)");
      }
      // The reader claimed the waiter between our timeout and the
      // deregistration — the response is a moment away; take it.
      wl.lock();
      waiter->cv.wait(wl, [&] { return waiter->done; });
    }
    if (!waiter->error.ok()) return waiter->error;
    if (!waiter->response.ok) {
      // Error responses carry a "<CodeName>: <message>" status string, so
      // typed server-side failures (e.g. quota kResourceExhausted) stay
      // typed across the wire instead of collapsing into kUnavailable.
      return Status::FromWireString(waiter->response.error);
    }
    return std::move(waiter->response.body);
  }
  return last;
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
