#include "rpc/rpc_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

namespace wedge {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

RpcServer::RpcServer(Handler handler, KeyPair transport_key,
                     RpcServerConfig config, Telemetry* telemetry)
    : handler_(std::move(handler)),
      key_(std::move(transport_key)),
      config_(std::move(config)),
      owned_telemetry_(telemetry == nullptr ? std::make_unique<Telemetry>()
                                            : nullptr),
      telemetry_(telemetry == nullptr ? owned_telemetry_.get() : telemetry) {
  MetricsRegistry& m = telemetry_->metrics;
  connections_gauge_ = m.GetGauge("wedge.rpc.connections");
  accepted_counter_ = m.GetCounter("wedge.rpc.conns_accepted");
  rejected_counter_ = m.GetCounter("wedge.rpc.conns_rejected");
  requests_counter_ = m.GetCounter("wedge.rpc.requests");
  error_responses_counter_ = m.GetCounter("wedge.rpc.responses_error");
  malformed_counter_ = m.GetCounter("wedge.rpc.malformed_frames");
  bytes_in_counter_ = m.GetCounter("wedge.rpc.bytes_in");
  bytes_out_counter_ = m.GetCounter("wedge.rpc.bytes_out");
  slow_requests_counter_ = m.GetCounter("wedge.rpc.slow_requests");
}

Histogram* RpcServer::OpHistogram(const std::string& op) {
  std::lock_guard<std::mutex> lock(op_hist_mu_);
  auto it = op_hists_.find(op);
  if (it != op_hists_.end()) return it->second;
  Histogram* h =
      telemetry_->metrics.GetHistogram("wedge.rpc.op_us{op=" + op + "}");
  op_hists_.emplace(op, h);
  return h;
}

RpcServer::~RpcServer() { Shutdown(); }

Status RpcServer::Start() {
  if (running_.load()) return Status::FailedPrecondition("already started");
  stop_.store(false);

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address " + config_.bind_address);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Errno("bind " + config_.bind_address + ":" +
                     std::to_string(config_.port));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (listen(listen_fd_, 128) < 0) {
    Status s = Errno("listen");
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (!SetNonBlocking(listen_fd_)) return Errno("fcntl(listen)");

  accept_wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (accept_wake_fd_ < 0) return Errno("eventfd");

  int n_workers = config_.num_workers < 1 ? 1 : config_.num_workers;
  workers_.clear();
  for (int i = 0; i < n_workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    w->wake_fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (w->epoll_fd < 0 || w->wake_fd < 0) return Errno("worker setup");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = w->wake_fd;
    epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->wake_fd, &ev);
    workers_.push_back(std::move(w));
  }

  running_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    Worker* worker = w.get();
    worker->thread = std::thread([this, worker] { WorkerLoop(*worker); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void RpcServer::Shutdown() {
  if (!running_.exchange(false)) return;
  stop_.store(true, std::memory_order_release);
  uint64_t one = 1;
  (void)!write(accept_wake_fd_, &one, sizeof(one));
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& w : workers_) {
    (void)!write(w->wake_fd, &one, sizeof(one));
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
    if (w->wake_fd >= 0) close(w->wake_fd);
    if (w->epoll_fd >= 0) close(w->epoll_fd);
  }
  workers_.clear();
  if (accept_wake_fd_ >= 0) close(accept_wake_fd_);
  accept_wake_fd_ = -1;
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
}

void RpcServer::AcceptLoop() {
  int epfd = epoll_create1(EPOLL_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  epoll_ctl(epfd, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = accept_wake_fd_;
  epoll_ctl(epfd, EPOLL_CTL_ADD, accept_wake_fd_, &ev);

  while (!stop_.load(std::memory_order_acquire)) {
    epoll_event events[16];
    int n = epoll_wait(epfd, events, 16, 500);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd != listen_fd_) continue;  // Wakeup.
      for (;;) {
        int fd = accept4(listen_fd_, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) break;  // EAGAIN or transient error: wait for epoll.
        if (open_connections_.load(std::memory_order_relaxed) >=
            config_.max_connections) {
          rejected_counter_->Add(1);
          close(fd);
          continue;
        }
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        accepted_counter_->Add(1);
        open_connections_.fetch_add(1, std::memory_order_relaxed);
        connections_gauge_->Add(1);
        Worker& w = *workers_[next_worker_++ % workers_.size()];
        {
          std::lock_guard<std::mutex> lock(w.mu);
          w.incoming.push_back(fd);
        }
        uint64_t v = 1;
        (void)!write(w.wake_fd, &v, sizeof(v));
      }
    }
  }
  close(epfd);
}

void RpcServer::AdoptIncoming(Worker& worker) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    fds.swap(worker.incoming);
  }
  for (int fd : fds) {
    auto conn = std::make_unique<Connection>(fd, config_.max_frame_bytes);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    if (epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      close(fd);
      open_connections_.fetch_sub(1, std::memory_order_relaxed);
      connections_gauge_->Add(-1);
      continue;
    }
    conn->armed_events = ev.events;
    worker.conns.emplace(fd, std::move(conn));
  }
}

void RpcServer::WorkerLoop(Worker& worker) {
  while (!stop_.load(std::memory_order_acquire)) {
    epoll_event events[64];
    int n = epoll_wait(worker.epoll_fd, events, 64, 500);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == worker.wake_fd) {
        uint64_t v;
        (void)!read(worker.wake_fd, &v, sizeof(v));
        AdoptIncoming(worker);
        continue;
      }
      auto it = worker.conns.find(fd);
      if (it == worker.conns.end()) continue;
      Connection& conn = *it->second;
      bool alive = true;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        alive = false;
      }
      if (alive && (events[i].events & EPOLLOUT)) {
        alive = FlushWrites(conn);
        // Backpressure release: resume reading (and serve frames that
        // were already buffered) once the peer drained our replies.
        if (alive && conn.paused &&
            conn.unflushed() < config_.write_high_watermark / 2) {
          conn.paused = false;
          alive = ProcessFrames(worker, conn);
        }
      }
      if (alive && (events[i].events & (EPOLLIN | EPOLLRDHUP))) {
        alive = HandleReadable(worker, conn);
      }
      if (alive) {
        UpdateInterest(worker, conn);
      } else {
        CloseConnection(worker, fd);
      }
    }
  }
  DrainAndCloseAll(worker);
}

bool RpcServer::HandleReadable(Worker& worker, Connection& conn) {
  uint8_t buf[64 * 1024];
  for (;;) {
    if (conn.paused) break;  // Backpressure: stop consuming input.
    ssize_t n = read(conn.fd, buf, sizeof(buf));
    if (n == 0) {
      // Peer EOF — but a pipelining client may have half-closed after
      // sending requests whose replies are still queued (or not yet
      // produced). Serve and flush them before the close, otherwise the
      // server acks at the TCP level and then drops the responses.
      DrainConnection(worker, conn,
                      RealClock::Global()->NowMicros() +
                          config_.drain_timeout);
      return false;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    bytes_in_counter_->Add(static_cast<uint64_t>(n));
    conn.decoder.Feed(buf, static_cast<size_t>(n));
    if (!ProcessFrames(worker, conn)) return false;
  }
  return true;
}

bool RpcServer::ProcessFrames(Worker& worker, Connection& conn) {
  (void)worker;
  int served_this_pass = 0;
  for (;;) {
    Bytes payload;
    Result<bool> has = conn.decoder.Next(&payload);
    if (!has.ok()) {
      // Bad magic or oversize length: the stream cannot be resynced.
      malformed_counter_->Add(1);
      return false;
    }
    if (!has.value()) break;
    if (!ServePayload(conn, payload)) return false;
    // Bound the work (and reply memory) one pipelined peer can queue
    // before we push bytes back out.
    if (++served_this_pass >= config_.max_inflight_requests ||
        conn.unflushed() >= config_.write_high_watermark) {
      if (!FlushWrites(conn)) return false;
      served_this_pass = 0;
      if (conn.unflushed() >= config_.write_high_watermark) {
        conn.paused = true;
        break;
      }
    }
  }
  return FlushWrites(conn);
}

bool RpcServer::ServePayload(Connection& conn, const Bytes& payload) {
  auto envelope = SignedEnvelope::Deserialize(payload);
  if (!envelope.ok() || !envelope->Verify()) {
    // A byte-stream peer sending unsigned/forged envelopes is broken or
    // malicious: close the connection.
    malformed_counter_->Add(1);
    return false;
  }
  auto request = RpcRequest::Decode(envelope->payload);
  if (!request.ok()) {
    malformed_counter_->Add(1);
    ByteReader reader(envelope->payload);
    auto rpc_id = reader.ReadU64();
    if (!rpc_id.ok()) return false;  // Not even correlatable: close.
    error_responses_counter_->Add(1);
    QueueReply(conn, RpcResponse::Failure(rpc_id.value(),
                                          request.status().ToString()));
    return true;
  }

  requests_counter_->Add(1);
  Micros start = RealClock::Global()->NowMicros();
  Result<Bytes> result = Status::Internal("handler not invoked");
  {
    // Install the frame's trace context for the duration of the dispatch:
    // every tracer span the node emits on this thread (ingest, seal,
    // stage1_signed, ...) is stamped with the client's trace_id, which is
    // what stitches the cross-process timeline together.
    ScopedTrace scope(request->trace_id, request->origin);
    if (request->trace_id != 0) {
      telemetry_->tracer.Event(0, trace_stage::kRpcRecv, 0,
                               "op=" + request->op);
    }
    result = handler_(request->op, request->body);
  }
  Micros elapsed = RealClock::Global()->NowMicros() - start;
  OpHistogram(request->op)->Record(elapsed);
  if (config_.slow_request_micros > 0 &&
      elapsed >= config_.slow_request_micros) {
    slow_requests_counter_->Add(1);
    // Every op body opens with the u64 tenant id (core/rpc_codec.h).
    ByteReader body_reader(request->body);
    auto t = body_reader.ReadU64();
    uint64_t tenant = t.ok() ? t.value() : 0;
    int shard = config_.shard_for_tenant ? config_.shard_for_tenant(tenant)
                                         : -1;
    std::fprintf(stderr,
                 "{\"kind\": \"slow_request\", \"op\": \"%s\", "
                 "\"tenant\": %llu, \"shard\": %d, \"trace_id\": %llu, "
                 "\"us\": %lld, \"ok\": %s}\n",
                 request->op.c_str(),
                 static_cast<unsigned long long>(tenant), shard,
                 static_cast<unsigned long long>(request->trace_id),
                 static_cast<long long>(elapsed),
                 result.ok() ? "true" : "false");
  }

  if (result.ok()) {
    QueueReply(conn, RpcResponse::Success(request->rpc_id,
                                          std::move(result).value()));
  } else {
    error_responses_counter_->Add(1);
    QueueReply(conn, RpcResponse::Failure(request->rpc_id,
                                          result.status().ToString()));
  }
  return true;
}

void RpcServer::QueueReply(Connection& conn, const RpcResponse& response) {
  SignedEnvelope envelope = SignedEnvelope::Create(key_, response.Encode());
  Bytes frame = EncodeFrame(envelope.Serialize());
  // Compact the flushed prefix before growing the buffer.
  if (conn.write_pos > 0 && conn.write_pos >= conn.write_buf.size() / 2) {
    conn.write_buf.erase(conn.write_buf.begin(),
                         conn.write_buf.begin() + conn.write_pos);
    conn.write_pos = 0;
  }
  Append(conn.write_buf, frame);
}

bool RpcServer::FlushWrites(Connection& conn) {
  while (conn.write_pos < conn.write_buf.size()) {
    // MSG_NOSIGNAL: a peer that disappears mid-reply must surface as EPIPE
    // on this connection, not SIGPIPE-kill the server.
    ssize_t n = send(conn.fd, conn.write_buf.data() + conn.write_pos,
                     conn.write_buf.size() - conn.write_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    bytes_out_counter_->Add(static_cast<uint64_t>(n));
    conn.write_pos += static_cast<size_t>(n);
  }
  if (conn.write_pos == conn.write_buf.size()) {
    conn.write_buf.clear();
    conn.write_pos = 0;
  }
  return true;
}

void RpcServer::UpdateInterest(Worker& worker, Connection& conn) {
  uint32_t want = EPOLLRDHUP;
  if (!conn.paused) want |= EPOLLIN;
  if (conn.unflushed() > 0) want |= EPOLLOUT;
  if (want == conn.armed_events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.fd = conn.fd;
  epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.armed_events = want;
}

void RpcServer::CloseConnection(Worker& worker, int fd) {
  epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  worker.conns.erase(fd);
  close(fd);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
  connections_gauge_->Add(-1);
}

void RpcServer::DrainConnection(Worker& worker, Connection& conn,
                                Micros deadline) {
  // Loop because ProcessFrames may re-pause under the write high
  // watermark: serve, flush hard, repeat until the decoder is empty, the
  // socket dies, or the budget runs out.
  for (;;) {
    conn.paused = false;
    bool ok = ProcessFrames(worker, conn);
    while (ok && conn.unflushed() > 0 &&
           RealClock::Global()->NowMicros() < deadline) {
      if (!FlushWrites(conn)) {
        ok = false;
        break;
      }
      if (conn.unflushed() > 0) usleep(1000);
    }
    if (!ok || !conn.paused ||
        RealClock::Global()->NowMicros() >= deadline) {
      break;
    }
  }
}

void RpcServer::DrainAndCloseAll(Worker& worker) {
  // Graceful shutdown must not swallow work the server already took in:
  // every decoded request is served and every queued (signed) reply is
  // flushed within the drain budget before the sockets close.
  Micros deadline = RealClock::Global()->NowMicros() + config_.drain_timeout;
  for (auto& [fd, conn] : worker.conns) {
    DrainConnection(worker, *conn, deadline);
    epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
    close(fd);
    open_connections_.fetch_sub(1, std::memory_order_relaxed);
    connections_gauge_->Add(-1);
  }
  worker.conns.clear();
}

}  // namespace wedge
