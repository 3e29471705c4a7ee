// perfbench — the repository benchmark: verified appends and reads against
// the production serving stack over loopback TCP.
//
// One process stands up the stack the way `wedgeblockd --shards 2 --store
// segment --fsync --log-dir D` wires it (forest stage 2, ingest signature
// checks, one stage-1 signature per entry, RpcServer + DispatchEngineRpc
// on an ephemeral port, one block every 200 ms) and drives it with four
// closed-loop TcpNodeClient connections spread over 64 tenants. After a
// warm-up it measures one window of --seconds, checks every reply, reads
// back a sample of acked entries, drains stage 2 and checks sampled
// batches against the chain. It prints every metric with its unit and,
// as its last line, one JSON object (see README.md).
//
// All measurement is from outside the program: the benchmark's own timers
// around the calls it makes into each layer, plus deltas of the registry
// histograms and counters the program already keeps.
//
// Usage:
//   perfbench --workload ingest|read_mix --seed N --seconds N --trace 0|1
//             --work-dir DIR [--trace-out FILE]

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "checks.h"
#include "core/client.h"
#include "crypto/sha256.h"
#include "rpc/rpc_server.h"
#include "rpc/tcp_client.h"
#include "shard/shard_rpc.h"
#include "shard/sharded_engine.h"
#include "storage/segstore/segment_store.h"
#include "telemetry/tracer.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace wedge::perfbench {
namespace {

namespace fs = std::filesystem;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Taken during static initialization, before main: set-up time counts
/// from here.
const int64_t kProcessStartNs = NowNs();

// The serving stack, at wedgeblockd's defaults except where the benchmark
// pins the production configuration (2 shards, segment store, fsync).
constexpr uint32_t kShards = 2;
constexpr int kRpcWorkers = 2;
constexpr size_t kNodeThreads = 4;
constexpr uint32_t kNodeBatch = 500;
constexpr uint32_t kEpochBlocks = 4;
constexpr int64_t kBlockEveryMs = 200;
constexpr size_t kMaxFrameBytes = 32u << 20;

// The load.
constexpr int kClients = 4;
constexpr size_t kTenants = 64;
constexpr size_t kKeyBytes = 64;
/// Acked entries each client keeps (seeded reservoir) for the read-back
/// and stage-2 checks after the window.
constexpr size_t kAckedSamplesPerClient = 128;
constexpr size_t kStage2Checks = 32;
/// The window is cut into this many equal parts, each with its own
/// hypervisor steal share (see QuietSubWindows). Steal varies from one
/// second to the next, so the parts are short.
constexpr int kSubWindows = 30;
/// A sub-window whose steal share is above this is disturbed by the host.
constexpr double kStealCeiling = 0.05;
/// The end-to-end figures always cover at least this many sub-windows.
constexpr size_t kMinQuietSubWindows = 5;
constexpr int64_t kWarmupSeconds = 3;
/// Cold stand-ups per run, each in a fresh process; setup_s is their
/// median, since one stand-up (~13 ms, nearly all CPU) varies by tens of
/// percent from one process to the next.
constexpr int kColdSetups = 21;

struct Spec {
  std::string_view name;
  int appenders;               ///< Closed-loop appendT clients; the rest read.
  uint32_t entries_per_call;
  size_t value_bytes;
  uint32_t verify_every;       ///< One verified response per k append calls.
  uint32_t read_verify_every;  ///< One verification + store probe per k reads.
  /// read_mix: positions appended in set-up. Each read takes a preloaded
  /// entry no earlier read took; at 128 entries a position this covers
  /// about three times the reads of a 30 s run (warm-up and window) at
  /// the 2.0-2.3k reads/s measured on a 4-vCPU VM.
  uint32_t preload_positions;
  uint32_t preload_entries;
};

// Why these two: see README.md ("Workloads").
constexpr Spec kSpecs[] = {
    {"ingest", 4, 256, 1024, 1, 1, 0, 0},
    {"read_mix", 1, 8, 256, 4, 8, 1600, 128},
};

struct Args {
  const Spec* spec = nullptr;
  uint64_t seed = 0;
  int64_t seconds = 0;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  bool setup_only = false;  ///< Stand up, print the set-up time, exit.
};

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E5Full;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Spans: kept in memory per thread, written at exit (traced runs only).

struct Span {
  uint64_t trace_id;
  uint64_t span_id;
  uint64_t parent_id;
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
};

class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : next_id_(uint64_t{thread + 1} << 40) {}
  uint64_t NewId() { return ++next_id_; }
  void Add(uint64_t trace, uint64_t id, uint64_t parent, const char* name,
           int64_t start, int64_t end) {
    spans_.push_back(Span{trace, id, parent, name, start, end});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// One operation's trace: a root span plus children. Inert when untraced.
struct OpTrace {
  SpanLog* log = nullptr;
  uint64_t id = 0;  ///< Trace id == root span id; 0 when untraced.

  void Child(const char* name, int64_t start, int64_t end) const {
    if (id != 0) log->Add(id, log->NewId(), id, name, start, end);
  }
  void Root(const char* name, int64_t start, int64_t end) const {
    if (id != 0) log->Add(id, id, 0, name, start, end);
  }
};

// ---------------------------------------------------------------------
// Measurement.

struct WindowStats {
  std::vector<int64_t> append_ns, read_ns, verify_ns, probe_ns, block_ns;
  /// Completion times: of each latency sample above (append_at, read_at)
  /// and of each call whose reply passed its checks (*_ok_at).
  std::vector<int64_t> append_at, read_at, append_ok_at, read_ok_at;
  uint64_t append_calls = 0, append_failed = 0, entries = 0;
  uint64_t payload_bytes = 0;  ///< Key + value bytes of acked entries.
  uint64_t read_calls = 0, read_failed = 0, reads = 0, reads_repeated = 0;
  uint64_t unconfirmed_max = 0;

  void Merge(const WindowStats& o) {
    auto cat = [](std::vector<int64_t>& a, const std::vector<int64_t>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(append_ns, o.append_ns);
    cat(read_ns, o.read_ns);
    cat(verify_ns, o.verify_ns);
    cat(probe_ns, o.probe_ns);
    cat(block_ns, o.block_ns);
    cat(append_at, o.append_at);
    cat(read_at, o.read_at);
    cat(append_ok_at, o.append_ok_at);
    cat(read_ok_at, o.read_ok_at);
    append_calls += o.append_calls;
    append_failed += o.append_failed;
    entries += o.entries;
    payload_bytes += o.payload_bytes;
    read_calls += o.read_calls;
    read_failed += o.read_failed;
    reads += o.reads;
    reads_repeated += o.reads_repeated;
    unconfirmed_max = std::max(unconfirmed_max, o.unconfirmed_max);
  }
};

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec / 1e6;
}

/// A sub-window boundary.
struct Cut {
  int64_t ns;
  double cpu_s;
  uint64_t cpu_total, cpu_steal;  ///< /proc/stat jiffies.
};

/// Process and host state at a window boundary.
struct Mark {
  int64_t ns = 0;
  double cpu_s = 0;           ///< getrusage user + sys.
  uint64_t write_bytes = 0;   ///< /proc/self/io.
  uint64_t cpu_total = 0;     ///< /proc/stat jiffies, user..steal.
  uint64_t cpu_steal = 0;
  uint64_t client_retries = 0;
  MetricsSnapshot registry;
};

uint64_t ProcField(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) {
      return std::strtoull(line.c_str() + n, nullptr, 10);
    }
  }
  return 0;
}

void ReadProcStat(uint64_t* total, uint64_t* steal) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  *total = 0;
  *steal = 0;
  for (int i = 0; i < 8; ++i) {
    uint64_t v = 0;
    in >> v;
    *total += v;
    if (i == 7) *steal = v;
  }
}

std::string LoadAvg() {
  std::ifstream in("/proc/loadavg");
  std::string one;
  in >> one;
  return one;
}

struct HistDelta {
  uint64_t count = 0;
  int64_t sum = 0;
  double Mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
};

HistDelta Delta(const Mark& a, const Mark& b, const std::string& name) {
  HistDelta d;
  const HistogramSnapshot* hb = b.registry.FindHistogram(name);
  if (hb == nullptr) return d;
  d.count = hb->count;
  d.sum = hb->sum;
  if (const HistogramSnapshot* ha = a.registry.FindHistogram(name)) {
    d.count -= ha->count;
    d.sum -= ha->sum;
  }
  return d;
}

uint64_t CounterDelta(const Mark& a, const Mark& b, const std::string& name) {
  return b.registry.CounterValue(name) - a.registry.CounterValue(name);
}

/// Nearest-rank quantile of sorted samples.
double Quantile(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * sorted.size()));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

/// Samples strictly beyond the nearest-rank q-quantile.
size_t Beyond(size_t n, double q) {
  return n - std::clamp<size_t>(static_cast<size_t>(std::ceil(q * n)), 1, n);
}

double MeanNs(const std::vector<int64_t>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (int64_t x : v) s += static_cast<double>(x);
  return s / v.size();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// On a shared VM, hypervisor steal explains much of the run-to-run
/// variance: a closed loop that waits on wake-ups and syncs loses several
/// times the stolen share. The end-to-end figures are therefore measured
/// over the quiet sub-windows only, those whose steal share is at most
/// kStealCeiling. When fewer than kMinQuietSubWindows are quiet, the ones
/// with the least steal make up the number and `*off_host` is set.
std::vector<int> QuietSubWindows(const std::vector<double>& steal,
                                 bool* off_host) {
  std::vector<int> order(steal.size());
  for (size_t j = 0; j < order.size(); ++j) order[j] = static_cast<int>(j);
  std::stable_sort(order.begin(), order.end(),
                   [&](int x, int y) { return steal[x] < steal[y]; });
  size_t quiet = 0;
  while (quiet < order.size() && steal[order[quiet]] <= kStealCeiling) {
    ++quiet;
  }
  *off_host = quiet < kMinQuietSubWindows;
  order.resize(std::min(order.size(), std::max(quiet, kMinQuietSubWindows)));
  std::sort(order.begin(), order.end());
  return order;
}

// ---------------------------------------------------------------------
// The load.

struct Tenant {
  KeyPair key;
  TenantId id;
  uint32_t shard;
  uint64_t next_seq = 0;
  Rng values;  ///< Seeded stream for keys and values: no request repeats.
};

/// Builds `n` requests with fresh sequence numbers and seeded contents and
/// batch-signs them with the tenant's key.
std::vector<AppendRequest> MakeBatch(Tenant& t, uint32_t n,
                                     size_t value_bytes) {
  std::vector<AppendRequest> batch(n);
  std::vector<Hash256> digests(n);
  for (uint32_t i = 0; i < n; ++i) {
    AppendRequest& r = batch[i];
    r.publisher = t.key.address();
    r.sequence = t.next_seq++;
    PutU64(r.key, t.id);
    PutU64(r.key, r.sequence);
    Append(r.key, t.values.NextBytes(kKeyBytes - 16));
    r.value = t.values.NextBytes(value_bytes);
    digests[i] = Sha256::Digest(r.SignedPayload());
  }
  std::vector<EcdsaSignature> sigs(n);
  EcdsaSignMany(t.key.private_key(), digests.data(), n, sigs.data());
  for (uint32_t i = 0; i < n; ++i) batch[i].signature = sigs[i];
  return batch;
}

struct ReadTarget {
  uint32_t tenant;  ///< Index into Stack::tenants.
  EntryIndex index;
  Hash256 sha;      ///< SHA-256 of the serialized request appended there.
};

/// A sampled, verified append response kept for the checks after the
/// window.
struct Acked {
  uint32_t tenant;
  Stage1Response response;
  Hash256 sha;
};

/// One stood-up serving stack plus the benchmark's clients and tenants.
struct Stack {
  std::string dir;
  std::unique_ptr<ShardedDeployment> d;
  std::unique_ptr<RpcServer> server;
  std::vector<std::unique_ptr<TcpNodeClient>> clients;
  std::vector<Tenant> tenants;      ///< Alternating shards, 32 on each.
  std::vector<ReadTarget> targets;  ///< read_mix preload, in a fixed order.

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    for (auto& c : clients) c->Close();
    clients.clear();
    if (server != nullptr) server->Shutdown();
    server.reset();
    d.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  ShardedLogEngine& engine() { return d->engine(); }
  uint64_t retries() const {
    uint64_t r = 0;
    for (const auto& c : clients) r += c->retries();
    return r;
  }
};

struct Candidate {
  KeyPair key;
  TenantId id;
};

/// Seed-derived publisher keys, generated on demand and shared by every
/// set-up repetition.
class Candidates {
 public:
  explicit Candidates(uint64_t seed) : seed_(seed) {}
  const Candidate& Get(size_t k) {
    while (list_.size() <= k) {
      KeyPair key = KeyPair::FromSeed(Mix(seed_, list_.size()));
      TenantId id = PublisherTenant(key.address());
      list_.push_back(Candidate{std::move(key), id});
    }
    return list_[k];
  }

 private:
  uint64_t seed_;
  std::vector<Candidate> list_;
};

/// Picks 64 tenants, 32 on each shard as the engine routes them, so the
/// load splits evenly whatever the seed.
void AssignTenants(Stack& s, Candidates& candidates, uint64_t seed) {
  std::vector<std::vector<size_t>> by_shard(kShards);
  const size_t per_shard = kTenants / kShards;
  size_t picked = 0;
  for (size_t k = 0; picked < kTenants; ++k) {
    uint32_t shard = s.engine().ShardFor(candidates.Get(k).id);
    if (by_shard[shard].size() < per_shard) {
      by_shard[shard].push_back(k);
      ++picked;
    }
  }
  for (size_t i = 0; i < per_shard; ++i) {
    for (uint32_t shard = 0; shard < kShards; ++shard) {
      const Candidate& c = candidates.Get(by_shard[shard][i]);
      s.tenants.push_back(Tenant{c.key, c.id, shard, 0,
                                 Rng(Mix(seed, 1000 + s.tenants.size()))});
    }
  }
}

Result<std::unique_ptr<Stack>> StandUp(const std::string& dir,
                                       uint64_t seed) {
  auto s = std::make_unique<Stack>();
  s->dir = dir;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());

  ShardedDeploymentConfig config;
  config.engine.num_shards = kShards;
  config.engine.node.batch_size = kNodeBatch;
  config.engine.node.worker_threads = kNodeThreads;
  config.engine.node.verify_client_signatures = true;
  config.engine.epoch_ticks = kEpochBlocks;
  config.engine.forest_stage2 = true;
  config.log_dir = dir;
  config.store_backend = StoreBackend::kSegment;
  config.log_fsync = true;
  WEDGE_ASSIGN_OR_RETURN(s->d, ShardedDeployment::Create(config));

  RpcServerConfig server_config;
  server_config.port = 0;
  server_config.num_workers = kRpcWorkers;
  server_config.max_frame_bytes = kMaxFrameBytes;
  ShardedLogEngine& engine = s->engine();
  server_config.shard_for_tenant = [&engine](uint64_t tenant) {
    return static_cast<int>(engine.ShardFor(tenant));
  };
  s->server = std::make_unique<RpcServer>(
      [&engine](std::string_view op, const Bytes& body) {
        return DispatchEngineRpc(engine, op, body);
      },
      KeyPair::FromSeed(config.engine_key_seed), server_config,
      &s->d->telemetry());
  WEDGE_RETURN_IF_ERROR(s->server->Start());

  for (int i = 0; i < kClients; ++i) {
    TcpClientConfig client_config;
    client_config.port = s->server->port();
    client_config.pool_size = 1;
    client_config.max_frame_bytes = kMaxFrameBytes;
    s->clients.push_back(std::make_unique<TcpNodeClient>(
        KeyPair::FromSeed(Mix(seed, 0xC11E + i)), engine.address(),
        client_config));
    WEDGE_RETURN_IF_ERROR(s->clients.back()->Connect());
  }
  return s;
}

/// Client `c` of `of` owns a contiguous block of the alternating tenant
/// list, so it appends to both shards evenly.
std::vector<size_t> TenantBlock(int c, int of) {
  std::vector<size_t> out;
  const size_t per = kTenants / of;
  for (size_t i = 0; i < per; ++i) out.push_back(c * per + i);
  return out;
}

/// read_mix set-up: appends the log through the same appendT path, one
/// position per call, from all clients at once.
Status Preload(Stack& s, const Spec& spec) {
  std::vector<std::vector<ReadTarget>> parts(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<size_t> mine = TenantBlock(c, kClients);
      const uint32_t calls = spec.preload_positions / kClients;
      for (uint32_t k = 0; k < calls; ++k) {
        const size_t ti = mine[k % mine.size()];
        Tenant& t = s.tenants[ti];
        std::vector<AppendRequest> batch =
            MakeBatch(t, spec.preload_entries, spec.value_bytes);
        auto reply = s.clients[c]->AppendForTenant(t.id, batch);
        if (!reply.ok()) {
          errors[c] = "preload appendT: " + reply.status().ToString();
          return;
        }
        if (std::string e = CheckAppendReply(batch, *reply, t.shard);
            !e.empty()) {
          errors[c] = "preload appendT: " + e;
          return;
        }
        for (size_t j = 0; j < batch.size(); ++j) {
          parts[c].push_back(ReadTarget{static_cast<uint32_t>(ti),
                                        (*reply)[j].index,
                                        Sha256::Digest(batch[j].Serialize())});
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) return Status::Internal(e);
  }
  for (auto& p : parts) {
    s.targets.insert(s.targets.end(), p.begin(), p.end());
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------
// The run.

/// One closed-loop client thread (or the block-mining thread).
struct Worker {
  Worker(uint32_t index, uint64_t seed) : index(index), rng(seed), spans(index) {}

  uint32_t index;
  Rng rng;
  SpanLog spans;
  WindowStats win[2];
  std::vector<size_t> tenants;  ///< Appenders: indices into Stack::tenants.
  size_t next_tenant = 0;
  std::vector<Acked> acked;     ///< Seeded reservoir of verified responses.
  uint64_t acked_seen = 0;
};

class Bench {
 public:
  Bench(const Args& args, Stack& stack)
      : args_(args), spec_(*args.spec), s_(stack) {}

  /// Warm-up, the window(s), then the checks after the window.
  void Run();
  /// `standup_s`: the cold stand-up times; `preload_s`: the read_mix
  /// preload's time (0 elsewhere), printed only.
  void Report(const std::vector<double>& standup_s, double preload_s);

 private:
  bool Transport(const Status& st) const {
    return st.code() == Code::kUnavailable ||
           st.code() == Code::kDeadlineExceeded;
  }
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(fail_mu_);
    if (failures_.size() < 20) failures_.push_back(what);
    ++failure_count_;
  }
  WindowStats* Current(Worker& w) {
    int win = window_.load(std::memory_order_acquire);
    return win > 0 ? &w.win[win - 1] : nullptr;
  }
  OpTrace Trace(Worker& w) {
    OpTrace t;
    if (tracing_.load(std::memory_order_relaxed)) {
      t.log = &w.spans;
      t.id = w.spans.NewId();
    }
    return t;
  }
  Mark TakeMark();
  /// Seals every shard's WAL into a segment now (see Run).
  void SealAll();

  void AppendLoop(Worker& w);
  void ReadLoop(Worker& w);
  void MineLoop(Worker& w);
  void AppendOnce(Worker& w);
  /// One checked readT. `verify` also runs the stage-1 verification and a
  /// direct store probe of the same entry.
  void ReadOnce(Worker& w, TcpNodeClient& client, const ReadTarget& target,
                bool verify, const OpTrace& trace, WindowStats* stats);
  void Sample(Worker& w, uint32_t tenant, const Stage1Response& r,
              const Hash256& sha);
  void ReadBack();
  void CheckStage2();

  const Args& args_;
  const Spec& spec_;
  Stack& s_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<Worker> miner_;
  std::vector<uint32_t> read_order_;  ///< Seeded permutation of targets.
  std::atomic<uint64_t> read_cursor_{0};

  std::atomic<int> window_{0};  ///< 0 outside, else the window number.
  std::atomic<bool> tracing_{false};
  std::atomic<bool> stop_{false};
  std::vector<Mark> marks_;     ///< Window boundaries.
  std::vector<std::vector<Cut>> cuts_;  ///< Per window: kSubWindows + 1.
  uint64_t sealed_write_bytes_ = 0;  ///< write_bytes after the closing seal.
  int traced_window_ = 0;       ///< 1-based; 0 when untraced.
  int64_t warmup_ns_ = 0;
  Mark readback_begin_, readback_end_;
  WindowStats readback_;
  uint64_t stage2_checked_ = 0;

  std::mutex fail_mu_;
  std::vector<std::string> failures_;
  uint64_t failure_count_ = 0;
};

Cut TakeCut() {
  Cut c{NowNs(), CpuSeconds(), 0, 0};
  ReadProcStat(&c.cpu_total, &c.cpu_steal);
  return c;
}

Mark Bench::TakeMark() {
  Mark m;
  m.ns = NowNs();
  m.cpu_s = CpuSeconds();
  m.write_bytes = ProcField("/proc/self/io", "write_bytes:");
  ReadProcStat(&m.cpu_total, &m.cpu_steal);
  m.client_retries = s_.retries();
  m.registry = s_.d->telemetry().metrics.Snapshot();
  return m;
}

void Bench::Sample(Worker& w, uint32_t tenant, const Stage1Response& r,
                   const Hash256& sha) {
  ++w.acked_seen;
  if (w.acked.size() < kAckedSamplesPerClient) {
    w.acked.push_back(Acked{tenant, r, sha});
    return;
  }
  uint64_t slot = w.rng.Uniform(w.acked_seen);
  if (slot < kAckedSamplesPerClient) w.acked[slot] = Acked{tenant, r, sha};
}

void Bench::AppendOnce(Worker& w) {
  const size_t ti = w.tenants[w.next_tenant++ % w.tenants.size()];
  Tenant& t = s_.tenants[ti];
  TcpNodeClient& client = *s_.clients[w.index];
  OpTrace trace = Trace(w);
  const int64_t start = NowNs();
  std::vector<AppendRequest> batch =
      MakeBatch(t, spec_.entries_per_call, spec_.value_bytes);
  const int64_t signed_at = NowNs();
  trace.Child("client.sign", start, signed_at);
  Result<std::vector<Stage1Response>> reply = Status::Internal("unsent");
  {
    ScopedTrace scope(trace.id, trace.id != 0 ? "perfbench" : "");
    reply = client.AppendForTenant(t.id, batch);
  }
  const int64_t replied_at = NowNs();
  trace.Child("rpc.appendT", signed_at, replied_at);
  WindowStats* stats = Current(w);
  if (stats != nullptr) {
    ++stats->append_calls;
    stats->append_ns.push_back(replied_at - signed_at);
    stats->append_at.push_back(replied_at);
  }
  if (!reply.ok()) {
    if (Transport(reply.status())) {
      if (stats != nullptr) ++stats->append_failed;
    } else {
      Fail("appendT tenant " + std::to_string(t.id) + ": " +
           reply.status().ToString());
    }
    trace.Root("op.append", start, NowNs());
    return;
  }
  if (std::string e = CheckAppendReply(batch, *reply, t.shard); !e.empty()) {
    // A reply of the wrong shape is not sampled: it may be short.
    Fail("appendT tenant " + std::to_string(t.id) + ": " + e);
    trace.Root("op.append", start, NowNs());
    return;
  }
  if (stats != nullptr) {
    stats->append_ok_at.push_back(replied_at);
    stats->entries += batch.size();
    stats->payload_bytes += batch.size() * (kKeyBytes + spec_.value_bytes);
  }
  if (w.rng.Uniform(spec_.verify_every) == 0) {
    const size_t i = w.rng.Uniform(batch.size());
    const Stage1Response& r = (*reply)[i];
    const Hash256 sha = Sha256::Digest(batch[i].Serialize());
    const int64_t v0 = NowNs();
    std::string e = CheckVerifiedEntry(r, s_.engine().address(), t.shard,
                                       r.index, sha);
    const int64_t v1 = NowNs();
    trace.Child("client.verify", v0, v1);
    if (!e.empty()) {
      Fail("appendT tenant " + std::to_string(t.id) + " response " +
           std::to_string(i) + ": " + e);
    } else {
      Sample(w, static_cast<uint32_t>(ti), r, sha);
      Result<SharedBytes> probed =
          s_.engine().shard(t.shard).store().GetEntry(r.index);
      const int64_t p1 = NowNs();
      trace.Child("store.get_entry", v1, p1);
      if (!probed.ok() || Sha256::Digest(probed->get()) != sha) {
        Fail("store probe of an acked entry on shard " +
             std::to_string(t.shard));
      }
      if (stats != nullptr) {
        stats->verify_ns.push_back(v1 - v0);
        stats->probe_ns.push_back(p1 - v1);
      }
    }
  }
  trace.Root("op.append", start, NowNs());
}

void Bench::ReadOnce(Worker& w, TcpNodeClient& client,
                     const ReadTarget& target, bool verify,
                     const OpTrace& trace, WindowStats* stats_in) {
  const Tenant& t = s_.tenants[target.tenant];
  const int64_t start = NowNs();
  Result<Stage1Response> reply = Status::Internal("unsent");
  {
    ScopedTrace scope(trace.id, trace.id != 0 ? "perfbench" : "");
    reply = client.ReadOneForTenant(t.id, target.index);
  }
  const int64_t replied_at = NowNs();
  trace.Child("rpc.readT", start, replied_at);
  WindowStats* stats = stats_in != nullptr ? stats_in : Current(w);
  if (stats != nullptr) {
    ++stats->read_calls;
    stats->read_ns.push_back(replied_at - start);
    stats->read_at.push_back(replied_at);
  }
  auto what = [&] {
    return "readT tenant " + std::to_string(t.id) + " at " +
           std::to_string(target.index.log_id) + ":" +
           std::to_string(target.index.offset) + ": ";
  };
  if (!reply.ok()) {
    if (Transport(reply.status())) {
      if (stats != nullptr) ++stats->read_failed;
    } else {
      Fail(what() + reply.status().ToString());
    }
    return;
  }
  if (std::string e = CheckReadReply(target.index, *reply, t.shard);
      !e.empty()) {
    Fail(what() + e);
    return;
  }
  if (stats != nullptr) {
    ++stats->reads;
    stats->read_ok_at.push_back(replied_at);
  }
  if (!verify) return;
  const int64_t v0 = NowNs();
  std::string e = CheckVerifiedEntry(*reply, s_.engine().address(), t.shard,
                                     target.index, target.sha);
  const int64_t v1 = NowNs();
  trace.Child("client.verify", v0, v1);
  if (!e.empty()) Fail(what() + e);
  Result<SharedBytes> probed =
      s_.engine().shard(t.shard).store().GetEntry(target.index);
  const int64_t p1 = NowNs();
  trace.Child("store.get_entry", v1, p1);
  if (!probed.ok() || Sha256::Digest(probed->get()) != target.sha) {
    Fail("store probe " + what() + "bytes differ");
  }
  if (stats != nullptr) {
    stats->verify_ns.push_back(v1 - v0);
    stats->probe_ns.push_back(p1 - v1);
  }
}

void Bench::AppendLoop(Worker& w) {
  while (!stop_.load(std::memory_order_acquire)) AppendOnce(w);
}

void Bench::ReadLoop(Worker& w) {
  TcpNodeClient& client = *s_.clients[w.index];
  const uint64_t n = read_order_.size();
  while (!stop_.load(std::memory_order_acquire)) {
    const uint64_t k = read_cursor_.fetch_add(1, std::memory_order_relaxed);
    const ReadTarget& target = s_.targets[read_order_[k % n]];
    const bool verify = w.rng.Uniform(spec_.read_verify_every) == 0;
    OpTrace trace = Trace(w);
    const int64_t start = NowNs();
    ReadOnce(w, client, target, verify, trace, nullptr);
    trace.Root("op.read", start, NowNs());
    if (k >= n) {
      if (WindowStats* stats = Current(w)) ++stats->reads_repeated;
    }
  }
}

/// wedgeblockd's serve loop: poll every 20 ms, one block per 200 ms.
void Bench::MineLoop(Worker& w) {
  int64_t last = NowNs();
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int64_t now = NowNs();
    if (now - last < kBlockEveryMs * 1'000'000) continue;
    last = now;
    OpTrace trace = Trace(w);
    s_.d->AdvanceBlocks(1);
    const int64_t end = NowNs();
    trace.Root("chain.block", now, end);
    const uint64_t unconfirmed = s_.engine().aggregator()->epochs_unconfirmed();
    if (WindowStats* stats = Current(w)) {
      stats->block_ns.push_back(end - now);
      stats->unconfirmed_max = std::max(stats->unconfirmed_max, unconfirmed);
    }
  }
}

void Bench::SealAll() {
  for (uint32_t i = 0; i < kShards; ++i) {
    auto* store = dynamic_cast<SegmentLogStore*>(&s_.engine().shard(i).store());
    Status st = store == nullptr ? Status::Internal("not a segment store")
                                 : store->SealNow();
    if (!st.ok()) Fail("seal shard " + std::to_string(i) + ": " + st.ToString());
  }
}

void Bench::Run() {
  const int readers = kClients - spec_.appenders;
  for (int c = 0; c < kClients; ++c) {
    auto w = std::make_unique<Worker>(c, Mix(args_.seed, 7000 + c));
    if (c < spec_.appenders) w->tenants = TenantBlock(c, spec_.appenders);
    workers_.push_back(std::move(w));
  }
  miner_ = std::make_unique<Worker>(kClients, Mix(args_.seed, 7999));
  if (readers > 0) {
    read_order_.resize(s_.targets.size());
    for (uint32_t i = 0; i < read_order_.size(); ++i) read_order_[i] = i;
    Rng rng(Mix(args_.seed, 0x5EAD));
    for (size_t i = read_order_.size(); i > 1; --i) {
      std::swap(read_order_[i - 1], read_order_[rng.Uniform(i)]);
    }
  }

  std::vector<std::thread> threads;
  for (auto& w : workers_) {
    Worker* wp = w.get();
    if (static_cast<int>(wp->index) < spec_.appenders) {
      threads.emplace_back([this, wp] { AppendLoop(*wp); });
    } else {
      threads.emplace_back([this, wp] { ReadLoop(*wp); });
    }
  }
  threads.emplace_back([this] { MineLoop(*miner_); });

  // Unmeasured warm-up: lazy tables, connection buffers and steady load
  // land before the window. It ends by sealing every shard, which is also
  // this process's first segment seal, and the window ends with another
  // seal after the load stops: write_bytes then count every entry acked
  // in the window with both its WAL write and its segment copy, however
  // the window falls against the store's own 256-position / 64 MiB seals.
  const int64_t warm0 = NowNs();
  std::this_thread::sleep_for(std::chrono::seconds(kWarmupSeconds));
  SealAll();
  warmup_ns_ = NowNs() - warm0;

  // A traced run splits its --seconds into an untraced control window and
  // the traced one, so the tracing overhead is a paired difference on one
  // host and the run makes no more reads than an untraced one.
  const int windows = args_.trace ? 2 : 1;
  traced_window_ = args_.trace ? 2 : 0;
  const int64_t window_ms = args_.seconds * 1000 / windows;
  for (int win = 1; win <= windows; ++win) {
    marks_.push_back(TakeMark());
    tracing_.store(win == traced_window_, std::memory_order_relaxed);
    window_.store(win, std::memory_order_release);
    const auto start = std::chrono::steady_clock::now();
    cuts_.push_back({TakeCut()});
    for (int j = 1; j <= kSubWindows; ++j) {
      std::this_thread::sleep_until(
          start + std::chrono::milliseconds(window_ms * j / kSubWindows));
      cuts_.back().push_back(TakeCut());
    }
  }
  marks_.push_back(TakeMark());
  window_.store(0, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  tracing_.store(false);
  SealAll();
  sealed_write_bytes_ = ProcField("/proc/self/io", "write_bytes:");

  ReadBack();
  CheckStage2();
}

/// Reads back every sampled acked entry over TCP, unloaded, checking it.
/// Append-only workloads take their read ledger from this phase.
void Bench::ReadBack() {
  readback_begin_ = TakeMark();
  Worker& w = *workers_[0];
  for (auto& worker : workers_) {
    for (const Acked& a : worker->acked) {
      ReadTarget target{a.tenant, a.response.index, a.sha};
      ReadOnce(w, *s_.clients[0], target, /*verify=*/true, OpTrace{},
               &readback_);
    }
  }
  readback_end_ = TakeMark();
}

/// Drains stage 2 (close an epoch over everything sealed, then mine until
/// no epoch is unconfirmed) and checks sampled acked batches end to end:
/// aggregation proof over TCP, its signature and path, and the forest
/// root recorded on chain.
void Bench::CheckStage2() {
  ShardedLogEngine& engine = s_.engine();
  EpochRootAggregator* agg = engine.aggregator();
  auto closed = engine.AggregateNow();
  if (!closed.ok() && closed.status().code() != Code::kNotFound) {
    Fail("stage-2 drain: " + closed.status().ToString());
    return;
  }
  bool drained = false;
  for (int i = 0; i < 512 && !drained; ++i) {
    s_.d->AdvanceBlocks(1);
    drained = agg->epochs_unconfirmed() == 0 && agg->staged_count() == 0;
  }
  if (!drained) {
    Fail("stage-2 drain: " + std::to_string(agg->epochs_unconfirmed()) +
         " epochs still unconfirmed");
    return;
  }
  UserClient verifier(KeyPair::FromSeed(Mix(args_.seed, 0xA0D1)),
                      &engine.shard(0), &s_.d->chain(),
                      s_.d->root_record_address());
  std::vector<const Acked*> picks;
  for (auto& worker : workers_) {
    for (const Acked& a : worker->acked) picks.push_back(&a);
  }
  Rng rng(Mix(args_.seed, 0x57A6));
  for (size_t i = picks.size(); i > 1; --i) {
    std::swap(picks[i - 1], picks[rng.Uniform(i)]);
  }
  if (picks.size() > kStage2Checks) picks.resize(kStage2Checks);
  for (const Acked* a : picks) {
    const Tenant& t = s_.tenants[a->tenant];
    const uint64_t log_id = a->response.proof.log_id;
    const std::string what = "aggProof tenant " + std::to_string(t.id) +
                             " log " + std::to_string(log_id) + ": ";
    auto proof = s_.clients[0]->FetchAggregationProof(t.id, log_id);
    if (!proof.ok()) {
      Fail(what + proof.status().ToString());
      continue;
    }
    if (!verifier.VerifyAggregation(a->response, *proof)) {
      Fail(what + "aggregation proof does not verify");
      continue;
    }
    auto committed = verifier.CheckForestCommit(*proof);
    if (!committed.ok() ||
        *committed != CommitCheck::kBlockchainCommitted) {
      Fail(what + "forest root not committed on chain");
      continue;
    }
    ++stage2_checked_;
  }
}

// ---------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintLine(const char* name, double value, const char* unit,
               const std::string& note = "") {
  std::printf("  %-34s %14.3f %-9s %s\n", name, value, unit, note.c_str());
}

std::string Json(const std::vector<Metric>& metrics, bool correct,
                 uint64_t attempted, uint64_t failed) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

/// Per span name: count, mean duration and mean self time (duration minus
/// the children it caused).
void PrintSelfTimes(const std::vector<const Span*>& spans) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span* s : spans) {
    if (s->parent_id != 0) child_ns[s->parent_id] += s->end_ns - s->start_ns;
  }
  struct Row {
    uint64_t n = 0;
    double dur = 0, self = 0;
  };
  std::map<std::string, Row> rows;
  for (const Span* s : spans) {
    Row& r = rows[s->name];
    const int64_t dur = s->end_ns - s->start_ns;
    auto it = child_ns.find(s->span_id);
    ++r.n;
    r.dur += dur;
    r.self += dur - (it == child_ns.end() ? 0 : it->second);
  }
  std::printf("span self times (traced window and after):\n");
  for (const auto& [name, r] : rows) {
    std::printf("  %-20s n=%-8llu mean %10.1f us  self %10.1f us\n",
                name.c_str(), static_cast<unsigned long long>(r.n),
                r.dur / r.n / 1e3, r.self / r.n / 1e3);
  }
}

void Bench::Report(const std::vector<double>& standup_s, double preload_s) {
  // The measured window: the first one, or the traced one.
  const int win = args_.trace ? traced_window_ : 1;
  const Mark& a = marks_[win - 1];
  const Mark& b = marks_[win];
  WindowStats ws, control;
  uint64_t payload_all = 0;  ///< Acked over every window (see SealAll).
  for (auto& w : workers_) {
    ws.Merge(w->win[win - 1]);
    if (args_.trace) control.Merge(w->win[0]);
    for (const WindowStats& x : w->win) payload_all += x.payload_bytes;
  }
  ws.Merge(miner_->win[win - 1]);
  const double window_s = (b.ns - a.ns) / 1e9;
  auto cpu_per_op = [](const Mark& m0, const Mark& m1, const WindowStats& w) {
    const uint64_t ops = w.entries + w.reads;
    return ops == 0 ? 0.0 : (m1.cpu_s - m0.cpu_s) * 1e6 / ops;
  };

  // The headline call: readT on read_mix, appendT on ingest.
  const bool reads_headline = spec_.appenders < kClients;
  const double ops = ws.entries + ws.reads;
  // Per sub-window: steal share, ops checked, CPU and headline-call
  // latencies. The end-to-end figures pool the quiet sub-windows.
  const std::vector<Cut>& cuts = cuts_[win - 1];
  const std::vector<int64_t>& calls_at =
      reads_headline ? ws.read_at : ws.append_at;
  const std::vector<int64_t>& calls_ns =
      reads_headline ? ws.read_ns : ws.append_ns;
  std::vector<double> sub_steal, sub_n;  ///< sub_n: ops checked.
  std::vector<std::vector<int64_t>> sub_lat(kSubWindows);
  for (int j = 0; j < kSubWindows; ++j) {
    const int64_t t0 = cuts[j].ns, t1 = cuts[j + 1].ns;
    auto in = [&](int64_t t) { return t >= t0 && t < t1; };
    double n = 0;
    for (int64_t t : ws.append_ok_at) n += in(t) ? spec_.entries_per_call : 0;
    for (int64_t t : ws.read_ok_at) n += in(t) ? 1 : 0;
    for (size_t i = 0; i < calls_at.size(); ++i) {
      if (in(calls_at[i])) sub_lat[j].push_back(calls_ns[i]);
    }
    std::sort(sub_lat[j].begin(), sub_lat[j].end());
    const uint64_t jiffies = cuts[j + 1].cpu_total - cuts[j].cpu_total;
    sub_steal.push_back(
        jiffies == 0 ? 0.0
                     : static_cast<double>(cuts[j + 1].cpu_steal -
                                           cuts[j].cpu_steal) /
                           jiffies);
    sub_n.push_back(n);
  }
  bool off_host = false;
  const std::vector<int> quiet = QuietSubWindows(sub_steal, &off_host);
  double quiet_ops = 0, quiet_s = 0, quiet_cpu_s = 0;
  std::vector<int64_t> calls;  ///< Headline-call latencies, quiet part.
  for (int j : quiet) {
    quiet_ops += sub_n[j];
    quiet_s += (cuts[j + 1].ns - cuts[j].ns) / 1e9;
    quiet_cpu_s += cuts[j + 1].cpu_s - cuts[j].cpu_s;
    calls.insert(calls.end(), sub_lat[j].begin(), sub_lat[j].end());
  }
  std::sort(calls.begin(), calls.end());
  const uint64_t attempted = ws.append_calls + ws.read_calls;
  const uint64_t failed = ws.append_failed + ws.read_failed;
  const double steal = b.cpu_total == a.cpu_total
                           ? 0.0
                           : static_cast<double>(b.cpu_steal - a.cpu_steal) /
                                 (b.cpu_total - a.cpu_total);

  std::printf("perfbench workload=%s seed=%llu seconds=%lld trace=%d\n",
              std::string(spec_.name).c_str(),
              static_cast<unsigned long long>(args_.seed),
              static_cast<long long>(args_.seconds), args_.trace ? 1 : 0);
  std::printf("host: nproc=%ld build=%s steal_share=%.4f loadavg_1m=%s "
              "warmup_s=%.2f window_s=%.3f quiet_sub_windows=%zu%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE, steal,
              LoadAvg().c_str(), warmup_ns_ / 1e9, window_s, quiet.size(),
              off_host ? " OFF-HOST" : "");

  std::vector<Metric> e2e;
  e2e.push_back({"ops_per_s", quiet_s == 0 ? 0.0 : quiet_ops / quiet_s,
                 "ops/s"});
  e2e.push_back({"call_p50_ms", Quantile(calls, 0.50) / 1e6, "ms"});
  e2e.push_back({"call_p90_ms", Quantile(calls, 0.90) / 1e6, "ms"});
  e2e.push_back({"cpu_us_per_op",
                 quiet_ops == 0 ? 0.0 : quiet_cpu_s * 1e6 / quiet_ops, "us"});
  e2e.push_back({"write_amplification",
                 payload_all == 0
                     ? 0.0
                     : static_cast<double>(sealed_write_bytes_ -
                                           marks_.front().write_bytes) /
                           payload_all,
                 "ratio"});
  e2e.push_back({"setup_s", Median(standup_s), "s"});
  e2e.push_back({"peak_rss_mb",
                 ProcField("/proc/self/status", "VmHWM:") / 1024.0, "MiB"});

  std::printf("end-to-end (%s window; the first four over its %zu quiet "
              "sub-windows, %zu headline calls, %zu beyond p90):\n",
              args_.trace ? "traced" : "untraced", quiet.size(), calls.size(),
              Beyond(calls.size(), 0.90));
  for (const Metric& m : e2e) PrintLine(m.name.c_str(), m.value, m.unit.c_str());
  for (int j = 0; j < kSubWindows; ++j) {
    const double s = (cuts[j + 1].ns - cuts[j].ns) / 1e9;
    const double cpu = cuts[j + 1].cpu_s - cuts[j].cpu_s;
    std::printf("  sub-window %d: steal %.4f ops_per_s %.1f cpu_us_per_op "
                "%.1f calls %zu p50 %.3f p90 %.3f%s\n",
                j + 1, sub_steal[j], sub_n[j] / s,
                sub_n[j] == 0 ? 0.0 : cpu * 1e6 / sub_n[j],
                sub_lat[j].size(), Quantile(sub_lat[j], 0.50) / 1e6,
                Quantile(sub_lat[j], 0.90) / 1e6,
                std::find(quiet.begin(), quiet.end(), j) != quiet.end()
                    ? " quiet"
                    : "");
  }
  std::vector<int64_t> appends = ws.append_ns, reads = ws.read_ns;
  std::sort(appends.begin(), appends.end());
  std::sort(reads.begin(), reads.end());
  auto quantiles = [](const char* what, const std::vector<int64_t>& v) {
    if (v.empty()) return;
    std::printf("  %-7s calls n=%zu p50 %.3f ms, p90 %.3f ms (%zu beyond), ",
                what, v.size(), Quantile(v, 0.5) / 1e6, Quantile(v, 0.9) / 1e6,
                Beyond(v.size(), 0.9));
    if (Beyond(v.size(), 0.99) >= 10) {
      std::printf("p99 %.3f ms (%zu beyond)\n", Quantile(v, 0.99) / 1e6,
                  Beyond(v.size(), 0.99));
    } else {
      std::printf("p99 not reported (%zu beyond)\n", Beyond(v.size(), 0.99));
    }
  };
  quantiles("appendT", appends);
  quantiles("readT", reads);
  std::printf("  append_entries_per_s %.1f, read_ops_per_s %.1f, "
              "failed_ops_ratio %.6f (%llu of %llu calls)\n",
              ws.entries / window_s, ws.reads / window_s,
              attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  const double repeat_share =
      ws.read_calls == 0 ? 0.0
                         : static_cast<double>(ws.reads_repeated) / ws.read_calls;
  std::printf("  reads repeating an earlier target: %llu of %llu calls, "
              "%llu preloaded targets\n",
              static_cast<unsigned long long>(ws.reads_repeated),
              static_cast<unsigned long long>(ws.read_calls),
              static_cast<unsigned long long>(s_.targets.size()));
  std::printf("  preload_s %.3f; setup_s is the median of %zu stand-ups "
              "(s):",
              preload_s, standup_s.size());
  for (double v : standup_s) std::printf(" %.4f", v);
  std::printf("\n");

  // Per-layer ledger. Reads come from the window on read_mix and from the
  // unloaded read-back phase on the append-only workloads.
  const Mark& ra = reads_headline ? a : readback_begin_;
  const Mark& rb = reads_headline ? b : readback_end_;
  const WindowStats& rs = reads_headline ? ws : readback_;
  const HistDelta rpc_append = Delta(a, b, "wedge.rpc.op_us{op=appendT}");
  const HistDelta rpc_read = Delta(ra, rb, "wedge.rpc.op_us{op=readT}");
  const HistDelta node_append = Delta(a, b, "wedge.node.append_us");
  const HistDelta node_seal = Delta(a, b, "wedge.node.seal_us");
  const HistDelta node_sign = Delta(a, b, "wedge.node.sign_us");
  const HistDelta node_read = Delta(ra, rb, "wedge.node.read_us");
  const HistDelta commit_wait = Delta(a, b, "wedge.store.group_commit_wait_us");
  const HistDelta sync = Delta(a, b, "wedge.store.group_commit_sync_us");
  const HistDelta leaves = Delta(a, b, "wedge.engine.epoch_leaves");
  const uint64_t hits = CounterDelta(ra, rb, "wedge.node.tree_cache_hits");
  const uint64_t misses = CounterDelta(ra, rb, "wedge.node.tree_cache_misses");

  const double append_call = MeanNs(ws.append_ns) / 1e3;
  const double read_call = MeanNs(rs.read_ns) / 1e3;
  const double sign = node_sign.Mean();
  const double seal_other = node_seal.Mean() - sign - commit_wait.Mean();
  std::vector<int64_t> blocks = ws.block_ns;
  std::sort(blocks.begin(), blocks.end());

  std::vector<Metric> layer;
  layer.push_back({"rpc.append_call_us", append_call, "us"});
  layer.push_back({"rpc.append_dispatch_us", rpc_append.Mean(), "us"});
  layer.push_back({"rpc.append_transport_us", append_call - rpc_append.Mean(), "us"});
  layer.push_back({"rpc.read_call_us", read_call, "us"});
  layer.push_back({"rpc.read_dispatch_us", rpc_read.Mean(), "us"});
  layer.push_back({"rpc.read_transport_us", read_call - rpc_read.Mean(), "us"});
  layer.push_back({"rpc.bytes_per_op",
                   ops == 0 ? 0.0
                            : (CounterDelta(a, b, "wedge.rpc.bytes_in") +
                               CounterDelta(a, b, "wedge.rpc.bytes_out")) /
                                  ops,
                   "bytes"});
  layer.push_back({"rpc.client_retries",
                   static_cast<double>(
                       b.client_retries - a.client_retries +
                       CounterDelta(a, b, "wedge.rpc.responses_error")),
                   "count"});
  layer.push_back({"shard.dispatch_overhead_us",
                   rpc_append.Mean() - node_append.Mean(), "us"});
  layer.push_back({"shard.read_dispatch_overhead_us",
                   rpc_read.Mean() - node_read.Mean(), "us"});
  layer.push_back({"shard.block_us", MeanNs(blocks) / 1e3, "us"});
  layer.push_back({"shard.block_max_us",
                   blocks.empty() ? 0.0 : blocks.back() / 1e3, "us"});
  layer.push_back({"shard.epoch_leaves", leaves.Mean(), "count"});
  layer.push_back({"shard.unconfirmed_epochs_max",
                   static_cast<double>(ws.unconfirmed_max), "count"});
  layer.push_back({"core.ingest_verify_us",
                   node_append.Mean() - node_seal.Mean(), "us"});
  layer.push_back({"core.sign_us", sign, "us"});
  layer.push_back({"core.seal_other_us", seal_other, "us"});
  layer.push_back({"core.read_us", node_read.Mean(), "us"});
  layer.push_back({"core.tree_cache_hit_ratio",
                   hits + misses == 0
                       ? 0.0
                       : static_cast<double>(hits) / (hits + misses),
                   "ratio"});
  layer.push_back({"core.client_verify_us",
                   MeanNs(reads_headline ? rs.verify_ns : ws.verify_ns) / 1e3,
                   "us"});
  layer.push_back({"storage.commit_wait_us", commit_wait.Mean(), "us"});
  layer.push_back({"storage.sync_us", sync.Mean(), "us"});
  layer.push_back({"storage.entries_per_sync",
                   sync.count == 0 ? 0.0
                                   : static_cast<double>(ws.entries) / sync.count,
                   "entries"});
  layer.push_back({"storage.seals",
                   static_cast<double>(CounterDelta(a, b, "wedge.store.seals")),
                   "count"});
  layer.push_back({"storage.get_entry_us",
                   MeanNs(reads_headline ? rs.probe_ns : ws.probe_ns) / 1e3,
                   "us"});
  layer.push_back({"telemetry.trace_overhead_us_per_op",
                   args_.trace ? cpu_per_op(a, b, ws) -
                                     cpu_per_op(marks_[0], marks_[1], control)
                               : 0.0,
                   "us"});
  layer.push_back({"workload.read_repeat_share", repeat_share, "ratio"});
  std::map<std::string, double> L;
  for (const Metric& m : layer) L[m.name] = m.value;

  std::printf("append ledger: rpc.append_call_us %.1f over %zu calls, "
              "%.1f entries per call\n",
              append_call, ws.append_ns.size(),
              ws.append_calls == 0 ? 0.0
                                   : static_cast<double>(ws.entries) /
                                         ws.append_calls);
  PrintLine("rpc.append_transport_us", L["rpc.append_transport_us"], "us",
            "lump: client encode/decode, envelope sign+recover, framing, "
            "socket copies, RPC-worker queueing");
  PrintLine("shard.dispatch_overhead_us", L["shard.dispatch_overhead_us"], "us",
            "body decode, admission, routing, reply encode");
  PrintLine("core.ingest_verify_us", L["core.ingest_verify_us"], "us",
            "publisher-signature recovery");
  PrintLine("core.sign_us", sign, "us",
            reads_headline ? "stage-1 signing; mixes per-read signatures here"
                           : "stage-1 signing, per sealed batch");
  PrintLine("storage.commit_wait_us", commit_wait.Mean(), "us",
            "group-commit wait");
  PrintLine("core.seal_other_us", seal_other, "us",
            "lump: serialize, Merkle build + proofs, ticket waits, store "
            "prepare");
  std::printf("read ledger (%s): rpc.read_call_us %.1f over %zu calls\n",
              reads_headline ? "window" : "unloaded read-back after the window",
              read_call, rs.read_ns.size());
  PrintLine("rpc.read_transport_us", L["rpc.read_transport_us"], "us",
            "lump: as for appends");
  PrintLine("shard.read_dispatch_overhead_us",
            L["shard.read_dispatch_overhead_us"], "us",
            "body decode, routing, reply encode");
  PrintLine("core.read_us", node_read.Mean(), "us",
            "store read + tree + proof + signature");
  std::printf("other layers:\n");
  for (const char* name :
       {"rpc.bytes_per_op", "rpc.client_retries", "shard.block_us",
        "shard.block_max_us", "shard.epoch_leaves",
        "shard.unconfirmed_epochs_max", "core.tree_cache_hit_ratio",
        "core.client_verify_us", "storage.sync_us",
        "storage.entries_per_sync", "storage.seals", "storage.get_entry_us",
        "telemetry.trace_overhead_us_per_op", "workload.read_repeat_share"}) {
    PrintLine(name, L[name], "");
  }
  std::printf("  tree cache base: %llu hits + %llu misses; %zu blocks; "
              "%llu stage-2 batches checked on chain\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses), blocks.size(),
              static_cast<unsigned long long>(stage2_checked_));

  if (args_.trace) {
    std::vector<const Span*> spans;
    for (auto& w : workers_) {
      for (const Span& s : w->spans.spans()) spans.push_back(&s);
    }
    for (const Span& s : miner_->spans.spans()) spans.push_back(&s);
    PrintSelfTimes(spans);
    if (!args_.trace_out.empty()) {
      std::ofstream out(args_.trace_out, std::ios::trunc);
      for (const Span* s : spans) {
        out << "{\"kind\": \"bench_span\", \"trace_id\": " << s->trace_id
            << ", \"span_id\": " << s->span_id
            << ", \"parent_id\": " << s->parent_id << ", \"name\": \""
            << s->name << "\", \"start_ns\": " << s->start_ns - kProcessStartNs
            << ", \"dur_ns\": " << s->end_ns - s->start_ns << "}\n";
      }
      // The program's own spans that carry the propagated trace ids.
      for (const TraceEvent& e : s_.d->telemetry().tracer.Events()) {
        if (e.trace_id != 0) out << e.ToJson() << "\n";
      }
    }
  }

  const bool correct = failure_count_ == 0;
  if (Beyond(calls.size(), 0.90) < 10) {
    std::printf("WARNING: %zu headline calls leave fewer than 10 beyond "
                "p90\n",
                calls.size());
  }
  if (off_host) {
    std::printf("WARNING: off-host run: fewer than %zu sub-windows had at "
                "most %.0f%% steal\n",
                kMinQuietSubWindows, kStealCeiling * 100);
  }
  if (repeat_share > 0) {
    std::printf("WARNING: %.4f of the window's reads repeat a target, so a "
                "cache of repeated inputs could flatter them\n",
                repeat_share);
  }
  for (const std::string& f : failures_) std::printf("FAIL: %s\n", f.c_str());
  if (failure_count_ > failures_.size()) {
    std::printf("FAIL: ... %llu failed checks in all\n",
                static_cast<unsigned long long>(failure_count_));
  }
  // Every metric goes out; BENCHMARK.json picks the end-to-end set from
  // untraced runs and the per-layer set from traced ones.
  e2e.insert(e2e.end(), layer.begin(), layer.end());
  std::printf("%s\n", Json(e2e, correct, attempted, failed).c_str());
}

// ---------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|read_mix --seed N "
               "--seconds N --trace 0|1 --work-dir DIR\n"
               "                 [--trace-out FILE]\n");
  return 2;
}

/// Runs `perfbench --setup-only 1` in a fresh process and returns the
/// set-up time it reports.
Result<double> ColdSetup(const Args& args, int i) {
  const std::string exe = fs::read_symlink("/proc/self/exe").string();
  const std::string dir = args.work_dir + "/cold-" + std::to_string(i);
  if (exe.find('\'') != std::string::npos ||
      dir.find('\'') != std::string::npos) {
    return Status::InvalidArgument("paths must not contain quotes");
  }
  const std::string cmd = "'" + exe + "' --setup-only 1 --workload " +
                          std::string(args.spec->name) + " --seed " +
                          std::to_string(args.seed) +
                          " --seconds 1 --trace 0 --work-dir '" + dir + "'";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return Status::Internal("popen failed");
  double seconds = -1;
  const int got = std::fscanf(pipe, "%lf", &seconds);
  const int status = pclose(pipe);
  if (got != 1 || status != 0 || seconds <= 0) {
    return Status::Internal("set-up process failed: " + cmd);
  }
  return seconds;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    std::string v = argv[++i];
    if (flag == "--workload") {
      for (const Spec& s : kSpecs) {
        if (s.name == v) args.spec = &s;
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoll(v.c_str());
    } else if (flag == "--trace") {
      args.trace = v == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = v;
    } else if (flag == "--trace-out") {
      args.trace_out = v;
    } else if (flag == "--setup-only") {
      args.setup_only = v == "1";
    } else {
      return Usage();
    }
  }
  if (args.spec == nullptr || args.seconds < 1 || args.work_dir.empty()) {
    return Usage();
  }

  // Set-up time counts from process start until the server accepts calls
  // (the median of kColdSetups stand-ups). Picking the benchmark's own
  // tenant keys is not the program's set-up and is left out. The read_mix
  // preload is timed and printed, but is not part of setup_s: it is a
  // multi-second append measurement whose time follows the host's speed.
  auto stood = StandUp(args.work_dir + "/stack", args.seed);
  if (!stood.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 stood.status().ToString().c_str());
    return 1;
  }
  std::vector<double> standup_s = {(NowNs() - kProcessStartNs) / 1e9};
  if (args.setup_only) {
    std::printf("%.9f\n", standup_s[0]);
    return 0;
  }
  std::unique_ptr<Stack> stack = std::move(stood).value();
  // The other stand-ups run in fresh processes of this binary.
  for (int i = 1; i < kColdSetups; ++i) {
    auto t = ColdSetup(args, i);
    if (!t.ok()) {
      std::fprintf(stderr, "cold set-up failed: %s\n",
                   t.status().ToString().c_str());
      return 1;
    }
    standup_s.push_back(*t);
  }
  Candidates candidates(args.seed);
  AssignTenants(*stack, candidates, args.seed);
  double preload_s = 0;
  if (args.spec->preload_positions > 0) {
    const int64_t t0 = NowNs();
    Status st = Preload(*stack, *args.spec);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    preload_s = (NowNs() - t0) / 1e9;
  }

  Bench bench(args, *stack);
  bench.Run();
  bench.Report(standup_s, preload_s);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace wedge::perfbench

int main(int argc, char** argv) { return wedge::perfbench::Main(argc, argv); }
