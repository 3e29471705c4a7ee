// loadgen — open/closed-loop workload driver for the TCP serving stack.
//
// Drives a wedgeblockd-style RpcServer over real sockets with a pool of
// pipelined TcpNodeClient connections and emits one JSONL row per run:
// achieved throughput, p50/p99/p999 append and read latency (sourced from
// the local telemetry registry), and error counts.
//
// Modes:
//   closed  — fixed concurrency: each of --threads workers keeps exactly
//             one RPC in flight (classic closed loop).
//   open    — target rate: workers fire at a paced schedule targeting
//             --rate ops/s total, independent of response latency (late
//             ops fire immediately and are counted in sched_lagged).
//
// Usage:
//   loadgen --spawn-server [--mode open|closed] [--rate N] [--threads N]
//           [--connections N] [--duration-s N] [--batch N] [--value-bytes N]
//           [--read-fraction F] [--server-workers N] [--verify-sigs]
//           [--seed N] [--telemetry-out PATH]
//           [--tenants N] [--tenant-skew S] [--server-shards N]
//           [--tenant-rate N] [--tenant-burst N] [--tenant-inflight N]
//           [--log-dir PATH] [--fsync]
//   loadgen --host H --port P ...   # against an external wedgeblockd
//
// --log-dir puts the spawned server's shard logs in segment stores under
// PATH, as `wedgeblockd --log-dir` does (default: in memory); --fsync
// makes their acks power-loss durable (group commit), so closed-loop runs
// measure the real durability cost. The JSONL row stamps `store`
// (memory or segment) and payload `bytes_per_s` either way.
//
// With --spawn-server the server runs in-process on an ephemeral loopback
// port (the ctest smoke runs use this); traffic still crosses real TCP.
// The spawned server is the engine wedgeblockd serves: one shard with the
// classic stage-2 stream for --tenants 1, --server-shards shards with
// forest stage 2 otherwise.
//
// Every operation uses the tenant-scoped RPCs; a single-tenant run is
// tenant 0. Multi-tenant mode (--tenants > 1): every operation first
// samples a tenant from a Zipf(S) distribution (--tenant-skew 0 =
// uniform) and signs with that tenant's own publisher keypair. The JSONL
// row then carries per-tenant append p50/p99 and quota-rejection counts
// — a rejection is a typed ResourceExhausted status from admission
// control, counted separately from transport errors. --tenant-rate/
// --tenant-burst/--tenant-inflight set the spawned server's admission
// quotas.
//
// Fleet mode (--fleet h:p,h:p,...): drives a FleetRouter over one
// wedgeblockd process per endpoint instead of a single connection pool —
// every op is tenant-routed on the client-side consistent-hash ring and
// per-shard breakers convert dead processes into typed fast-fails.
//
// Trace sampling (--trace-every N): every Nth append runs under a fresh
// propagated trace context — the client stamps client_enqueue /
// client_acked spans locally and the trace_id rides the RPC frame so the
// serving daemon's spans (rpc_recv, ingest, seal, ...) carry the same id.
// Dump with --telemetry-out and stitch with tools/trace_summary.py.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "rpc/rpc_server.h"
#include "rpc/tcp_client.h"
#include "shard/fleet_router.h"
#include "shard/router.h"
#include "shard/shard_rpc.h"
#include "shard/sharded_engine.h"
#include "telemetry/tracer.h"

namespace wedge {
namespace {

struct Options {
  bool spawn_server = false;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string mode = "closed";
  double rate = 2000;  // Total target ops/s (open mode).
  int threads = 4;
  int connections = 2;
  int64_t duration_s = 5;
  uint32_t batch = 64;  // Append requests per RPC.
  size_t value_bytes = 1024;
  double read_fraction = 0.2;
  int server_workers = 2;
  bool verify_sigs = false;
  uint64_t seed = 42;
  std::string telemetry_out;
  uint64_t tenants = 1;
  double tenant_skew = 0;   ///< Zipf exponent (0 = uniform).
  uint32_t server_shards = 2;  ///< Spawned server shards (tenants > 1).
  uint64_t tenant_rate = 0;
  uint64_t tenant_burst = 0;
  uint64_t tenant_inflight = 0;
  std::string fleet;        ///< Comma-separated host:port shard endpoints.
  uint64_t trace_every = 0; ///< Trace every Nth append (0 = off).
  std::string log_dir;      ///< Spawned server durable dir ("" = memory).
  bool fsync = false;       ///< Power-loss durable acks (with log_dir).
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--spawn-server | --host H --port P]\n"
      "          [--mode open|closed] [--rate OPS_PER_S] [--threads N]\n"
      "          [--connections N] [--duration-s N] [--batch N]\n"
      "          [--value-bytes N] [--read-fraction F] [--server-workers N]\n"
      "          [--verify-sigs] [--seed N] [--telemetry-out PATH]\n"
      "          [--tenants N] [--tenant-skew S] [--server-shards N]\n"
      "          [--tenant-rate N] [--tenant-burst N] [--tenant-inflight N]\n"
      "          [--fleet H:P,H:P,...] [--trace-every N]\n"
      "          [--log-dir PATH] [--fsync]\n",
      argv0);
  return 2;
}

Result<Options> Parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(flag + " needs a value");
      }
      return std::string(argv[++i]);
    };
    if (flag == "--spawn-server") {
      opts.spawn_server = true;
    } else if (flag == "--host") {
      WEDGE_ASSIGN_OR_RETURN(opts.host, next());
    } else if (flag == "--port") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.port = static_cast<uint16_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (flag == "--mode") {
      WEDGE_ASSIGN_OR_RETURN(opts.mode, next());
      if (opts.mode != "open" && opts.mode != "closed") {
        return Status::InvalidArgument("--mode must be open or closed");
      }
    } else if (flag == "--rate") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.rate = std::atof(v.c_str());
    } else if (flag == "--threads") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.threads = std::atoi(v.c_str());
    } else if (flag == "--connections") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.connections = std::atoi(v.c_str());
    } else if (flag == "--duration-s") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.duration_s = std::atoll(v.c_str());
    } else if (flag == "--batch") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.batch = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (flag == "--value-bytes") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.value_bytes = std::strtoul(v.c_str(), nullptr, 10);
    } else if (flag == "--read-fraction") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.read_fraction = std::atof(v.c_str());
    } else if (flag == "--server-workers") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.server_workers = std::atoi(v.c_str());
    } else if (flag == "--verify-sigs") {
      opts.verify_sigs = true;
    } else if (flag == "--seed") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--telemetry-out") {
      WEDGE_ASSIGN_OR_RETURN(opts.telemetry_out, next());
    } else if (flag == "--tenants") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.tenants = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--tenant-skew") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.tenant_skew = std::atof(v.c_str());
    } else if (flag == "--server-shards") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.server_shards =
          static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (flag == "--tenant-rate") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.tenant_rate = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--tenant-burst") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.tenant_burst = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--tenant-inflight") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.tenant_inflight = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--fleet") {
      WEDGE_ASSIGN_OR_RETURN(opts.fleet, next());
    } else if (flag == "--log-dir") {
      WEDGE_ASSIGN_OR_RETURN(opts.log_dir, next());
    } else if (flag == "--fsync") {
      opts.fsync = true;
    } else if (flag == "--trace-every") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.trace_every = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (!opts.fleet.empty() && opts.spawn_server) {
    return Status::InvalidArgument("--fleet drives external daemons; drop "
                                   "--spawn-server");
  }
  if (!opts.spawn_server && opts.port == 0 && opts.fleet.empty()) {
    return Status::InvalidArgument(
        "need --spawn-server, --host/--port, or --fleet");
  }
  if (opts.threads < 1 || opts.connections < 1 || opts.batch == 0 ||
      opts.duration_s < 1 || opts.rate <= 0 || opts.read_fraction < 0 ||
      opts.read_fraction > 1 || opts.tenants < 1 || opts.tenant_skew < 0 ||
      opts.server_shards < 1 || opts.tenants > 4096) {
    return Status::InvalidArgument("bad flag value");
  }
  if (!opts.log_dir.empty() && !opts.spawn_server) {
    return Status::InvalidArgument(
        "--log-dir needs --spawn-server (the spawned engine owns the "
        "durable stores)");
  }
  return opts;
}

/// Zipf(s) over [0, n): tenant 0 is the hottest. s = 0 degenerates to
/// uniform. Inverse-CDF sampling against a precomputed table.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) {
    cdf_.reserve(n);
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }

  size_t Sample(Rng& rng) const {
    double u = rng.NextDouble();
    size_t i = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// "h:p,h:p,..." -> endpoints, with the permissive parsing a shell
/// one-liner deserves (spaces trimmed, empty items rejected).
Result<std::vector<FleetEndpoint>> ParseFleet(const std::string& spec) {
  std::vector<FleetEndpoint> endpoints;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    while (!item.empty() && item.front() == ' ') item.erase(item.begin());
    while (!item.empty() && item.back() == ' ') item.pop_back();
    size_t colon = item.rfind(':');
    if (item.empty() || colon == std::string::npos || colon == 0) {
      return Status::InvalidArgument("--fleet item must be host:port: '" +
                                     item + "'");
    }
    unsigned long p = std::strtoul(item.c_str() + colon + 1, nullptr, 10);
    if (p == 0 || p > 65535) {
      return Status::InvalidArgument("--fleet bad port in '" + item + "'");
    }
    FleetEndpoint ep;
    ep.host = item.substr(0, colon);
    ep.port = static_cast<uint16_t>(p);
    endpoints.push_back(std::move(ep));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return endpoints;
}

/// Uniform client surface over the two transports loadgen can drive: a
/// single pooled TcpNodeClient or a FleetRouter fanning out to one TCP
/// endpoint per shard process (--fleet).
struct ClientAdapter {
  TcpNodeClient* direct = nullptr;
  FleetRouter* fleet = nullptr;

  Result<std::vector<Stage1Response>> Append(
      uint64_t tenant, const std::vector<AppendRequest>& batch) {
    if (fleet != nullptr) return fleet->Append(tenant, batch);
    return direct->AppendForTenant(tenant, batch);
  }

  Result<Stage1Response> ReadOne(uint64_t tenant, const EntryIndex& index) {
    if (fleet != nullptr) return fleet->ReadOne(tenant, index);
    return direct->ReadOneForTenant(tenant, index);
  }
};

/// Per-tenant slice of the workload: its own publisher keypair (signed
/// corpus), its own readable-index sample (log ids are tenant-routed in
/// sharded mode), and per-tenant latency/rejection metrics.
struct TenantState {
  std::vector<std::vector<AppendRequest>> corpus;  // Batches to cycle.
  std::mutex indices_mu;
  std::vector<EntryIndex> indices;
  Histogram* append_hist;
  Counter* quota_rejections;
  std::atomic<uint64_t> next_batch{0};
};

/// Shared run state: per-tenant corpora and the client-side registry.
struct RunState {
  std::vector<std::unique_ptr<TenantState>> tenants;
  std::unique_ptr<ZipfSampler> zipf;
  Telemetry telemetry{RealClock::Global()};
  Histogram* append_hist;
  Histogram* read_hist;
  Counter* append_ops;
  Counter* read_ops;
  Counter* errors;
  Counter* quota_rejections;
  Counter* sched_lagged;
  Counter* traces;
  /// Monotone op number driving --trace-every sampling (shared across
  /// workers so "every Nth append" means fleet-wide, not per-thread).
  std::atomic<uint64_t> append_seq{0};
  /// Client-side tenant->shard map (same consistent-hash ring the sharded
  /// engine uses), so failures are attributable to the shard that died
  /// rather than vanishing into one aggregate counter. Null when the
  /// target is single-shard.
  std::unique_ptr<ShardRouter> ring;
  std::vector<Counter*> shard_errors;

  void CountError(uint64_t tenant) {
    errors->Add(1);
    if (ring != nullptr) shard_errors[ring->ShardFor(tenant)]->Add(1);
  }
};

void DoOne(const Options& opts, RunState& state, ClientAdapter& client,
           Rng& rng) {
  // Tenant 0 is the only tenant when --tenants is 1.
  size_t tenant = state.zipf->Sample(rng);
  TenantState& ten = *state.tenants[tenant];
  bool do_read = rng.NextDouble() < opts.read_fraction;
  if (do_read) {
    EntryIndex target;
    {
      std::lock_guard<std::mutex> lock(ten.indices_mu);
      if (ten.indices.empty()) {
        do_read = false;  // Nothing appended yet: fall through to append.
      } else {
        target = ten.indices[rng.Uniform(ten.indices.size())];
      }
    }
    if (do_read) {
      Micros start = RealClock::Global()->NowMicros();
      auto response = client.ReadOne(tenant, target);
      state.read_hist->Record(RealClock::Global()->NowMicros() - start);
      if (response.ok()) {
        state.read_ops->Add(1);
      } else {
        state.CountError(tenant);
      }
      return;
    }
  }
  // Every --trace-every'th append runs under a fresh propagated trace
  // context: the id is stamped onto the wire frame by TcpNodeClient, so
  // the daemon's spans join ours. Ids are derived from (seed, op number)
  // — unique within a run, reproducible across runs of the same seed.
  uint64_t trace_id = 0;
  if (opts.trace_every > 0) {
    uint64_t n = state.append_seq.fetch_add(1);
    if (n % opts.trace_every == 0) {
      trace_id = (opts.seed << 24) + n + 1;
      if (trace_id == 0) trace_id = n + 1;
      state.traces->Add(1);
    }
  }
  ScopedTrace scope(trace_id, trace_id != 0 ? "loadgen" : "");
  uint64_t i = ten.next_batch.fetch_add(1) % ten.corpus.size();
  if (trace_id != 0) {
    state.telemetry.tracer.Event(0, trace_stage::kClientEnqueue, opts.batch,
                                 "tenant=" + std::to_string(tenant));
  }
  Micros start = RealClock::Global()->NowMicros();
  auto responses = client.Append(tenant, ten.corpus[i]);
  Micros took = RealClock::Global()->NowMicros() - start;
  if (trace_id != 0) {
    uint64_t log_id =
        responses.ok() && !responses->empty() ? responses->front().index.log_id
                                              : 0;
    state.telemetry.tracer.Event(
        log_id, trace_stage::kClientAcked, opts.batch,
        std::string("us=") + std::to_string(took) +
            (responses.ok() ? "" : " err=1"));
  }
  state.append_hist->Record(took);
  ten.append_hist->Record(took);
  if (!responses.ok()) {
    if (responses.status().code() == Code::kResourceExhausted) {
      // Admission control said no — a quota signal, not a failure.
      ten.quota_rejections->Add(1);
      state.quota_rejections->Add(1);
    } else {
      state.CountError(tenant);
    }
    return;
  }
  state.append_ops->Add(1);
  // Keep a bounded sample of readable indices.
  std::lock_guard<std::mutex> lock(ten.indices_mu);
  if (ten.indices.size() < 65536 && !responses->empty()) {
    ten.indices.push_back(responses->front().index);
  }
}

void WorkerLoop(const Options& opts, RunState& state, ClientAdapter& client,
                int worker_id, Micros deadline) {
  Rng rng(opts.seed * 7919 + worker_id);
  if (opts.mode == "closed") {
    while (RealClock::Global()->NowMicros() < deadline) {
      DoOne(opts, state, client, rng);
    }
    return;
  }
  // Open loop: this worker owns every (threads)-th slot of the global
  // schedule. A slot that comes due while the previous RPC is still
  // running fires immediately and is counted as lagged.
  Micros interval =
      static_cast<Micros>(opts.threads * kMicrosPerSecond / opts.rate);
  if (interval <= 0) interval = 1;
  Micros next_fire = RealClock::Global()->NowMicros() +
                     static_cast<Micros>(worker_id * interval / opts.threads);
  while (next_fire < deadline) {
    Micros now = RealClock::Global()->NowMicros();
    if (now < next_fire) {
      usleep(static_cast<useconds_t>(next_fire - now));
    } else if (now > next_fire + interval) {
      state.sched_lagged->Add(1);
    }
    DoOne(opts, state, client, rng);
    next_fire += interval;
  }
}

bench::JsonRow& StampQuantiles(bench::JsonRow& row, const MetricsSnapshot& snap,
                               const std::string& metric,
                               const std::string& prefix) {
  bench::StampHistogram(row, snap, metric, prefix);
  const HistogramSnapshot* h = snap.FindHistogram(metric);
  if (h != nullptr && h->count > 0) {
    row.Field(prefix + "_p999",
              static_cast<uint64_t>(h->ValueAtQuantile(0.999)));
  }
  return row;
}

int Run(const Options& opts) {
  using bench::JsonRow;

  // Optional in-process server (still real TCP over loopback): the
  // engine wedgeblockd serves, so the tenant-scoped ops and admission
  // quotas are live end to end.
  std::unique_ptr<ShardedDeployment> deployment;
  std::unique_ptr<RpcServer> server;
  std::string host = opts.host;
  uint16_t port = opts.port;
  if (opts.spawn_server) {
    ShardedDeploymentConfig config;
    config.engine.num_shards = opts.tenants > 1 ? opts.server_shards : 1;
    config.engine.node.batch_size = opts.batch;
    config.engine.node.worker_threads = 4;
    config.engine.node.verify_client_signatures = opts.verify_sigs;
    config.engine.forest_stage2 = config.engine.num_shards > 1;
    config.engine.quota.entries_per_second = opts.tenant_rate;
    config.engine.quota.burst_entries = opts.tenant_burst;
    config.engine.quota.max_inflight_appends = opts.tenant_inflight;
    config.log_dir = opts.log_dir;
    config.log_fsync = opts.fsync;
    auto d = ShardedDeployment::Create(config);
    if (!d.ok()) {
      std::fprintf(stderr, "deployment failed: %s\n",
                   d.status().ToString().c_str());
      return 1;
    }
    deployment = std::move(d).value();
    RpcServerConfig server_config;
    server_config.num_workers = opts.server_workers;
    ShardedLogEngine& engine = deployment->engine();
    server = std::make_unique<RpcServer>(
        [&engine](std::string_view op, const Bytes& body) {
          return DispatchEngineRpc(engine, op, body);
        },
        KeyPair::FromSeed(config.engine_key_seed), server_config,
        &deployment->telemetry());
    Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    host = "127.0.0.1";
    port = server->port();
  }

  // Pre-sign the append corpus once so client-side ECDSA signing does not
  // serialize the load loop (the paper's client machine signs on 96
  // threads; see EXPERIMENTS.md "calibration").
  RunState state;
  state.append_hist =
      state.telemetry.metrics.GetHistogram("wedge.loadgen.append_us");
  state.read_hist =
      state.telemetry.metrics.GetHistogram("wedge.loadgen.read_us");
  state.append_ops =
      state.telemetry.metrics.GetCounter("wedge.loadgen.appends");
  state.read_ops = state.telemetry.metrics.GetCounter("wedge.loadgen.reads");
  state.errors = state.telemetry.metrics.GetCounter("wedge.loadgen.errors");
  state.quota_rejections =
      state.telemetry.metrics.GetCounter("wedge.loadgen.quota_rejections");
  state.sched_lagged =
      state.telemetry.metrics.GetCounter("wedge.loadgen.sched_lagged");
  state.traces = state.telemetry.metrics.GetCounter("wedge.loadgen.traces");
  state.zipf = std::make_unique<ZipfSampler>(opts.tenants, opts.tenant_skew);
  std::vector<FleetEndpoint> fleet_endpoints;
  if (!opts.fleet.empty()) {
    auto parsed = ParseFleet(opts.fleet);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    fleet_endpoints = std::move(parsed).value();
  }
  // --server-shards doubles as the ring size for remote daemons, so
  // per-shard error attribution works against a fleet we did not spawn.
  // In --fleet mode the ring is simply one slot per endpoint.
  uint32_t ring_shards = !fleet_endpoints.empty()
                             ? static_cast<uint32_t>(fleet_endpoints.size())
                             : opts.server_shards;
  if (ring_shards > 1 && (opts.tenants > 1 || !fleet_endpoints.empty())) {
    state.ring = std::make_unique<ShardRouter>(ring_shards);
    for (uint32_t s = 0; s < ring_shards; ++s) {
      state.shard_errors.push_back(state.telemetry.metrics.GetCounter(
          "wedge.loadgen.s" + std::to_string(s) + ".errors"));
    }
  }
  // Fewer pre-signed batches per tenant as the tenant count grows, so a
  // 1024-tenant run does not sign a million requests up front.
  size_t batches_per_tenant = opts.tenants > 1 ? 4 : 8;
  for (uint64_t t = 0; t < opts.tenants; ++t) {
    auto ten = std::make_unique<TenantState>();
    // Tenant t signs with its own keypair, so per-tenant streams are
    // independently attributable (and sequence numbers independent).
    KeyPair publisher = KeyPair::FromSeed(opts.seed + t * 7919);
    auto kvs =
        bench::MakeWorkload(opts.batch * batches_per_tenant, opts.value_bytes,
                            bench::kDefaultKeySize, opts.seed + t);
    uint64_t seq = 0;
    for (size_t b = 0; b < batches_per_tenant; ++b) {
      std::vector<AppendRequest> batch;
      batch.reserve(opts.batch);
      for (uint32_t i = 0; i < opts.batch; ++i) {
        const auto& [k, v] = kvs[b * opts.batch + i];
        batch.push_back(AppendRequest::Make(publisher, seq++, k, v));
      }
      ten->corpus.push_back(std::move(batch));
    }
    std::string prefix = "wedge.loadgen.t" + std::to_string(t);
    ten->append_hist =
        state.telemetry.metrics.GetHistogram(prefix + ".append_us");
    ten->quota_rejections =
        state.telemetry.metrics.GetCounter(prefix + ".quota_rejections");
    state.tenants.push_back(std::move(ten));
  }

  TcpClientConfig client_config;
  client_config.host = host;
  client_config.port = port;
  client_config.pool_size = opts.connections;
  client_config.telemetry = &state.telemetry;
  KeyPair client_key = KeyPair::FromSeed(opts.seed ^ 0xC11E);
  const Address engine_address = KeyPair::FromSeed(0xED6E).address();
  ClientAdapter adapter;
  std::unique_ptr<TcpNodeClient> direct;
  std::unique_ptr<FleetRouter> fleet;
  std::string target_label = host + ":" + std::to_string(port);
  if (!fleet_endpoints.empty()) {
    FleetRouterConfig fleet_config;
    fleet_config.endpoints = fleet_endpoints;
    fleet_config.client = client_config;  // host/port overridden per shard.
    fleet = std::make_unique<FleetRouter>(client_key, engine_address,
                                          fleet_config, &state.telemetry);
    Status connected = fleet->Connect();
    if (!connected.ok()) {
      std::fprintf(stderr, "fleet connect failed: %s\n",
                   connected.ToString().c_str());
      return 1;
    }
    adapter.fleet = fleet.get();
    target_label = "fleet of " + std::to_string(fleet_endpoints.size());
  } else {
    direct = std::make_unique<TcpNodeClient>(client_key, engine_address,
                                             client_config);
    Status connected = direct->Connect();
    if (!connected.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   connected.ToString().c_str());
      return 1;
    }
    adapter.direct = direct.get();
  }

  bench::PrintHeader("loadgen (" + opts.mode + " loop, " + target_label + ")");
  Micros start = RealClock::Global()->NowMicros();
  Micros deadline = start + opts.duration_s * kMicrosPerSecond;
  std::vector<std::thread> workers;
  workers.reserve(opts.threads);
  for (int t = 0; t < opts.threads; ++t) {
    workers.emplace_back(
        [&, t] { WorkerLoop(opts, state, adapter, t, deadline); });
  }
  for (auto& w : workers) w.join();
  double elapsed_s =
      static_cast<double>(RealClock::Global()->NowMicros() - start) /
      kMicrosPerSecond;
  if (direct != nullptr) direct->Close();
  if (fleet != nullptr) fleet->Close();
  if (server != nullptr) server->Shutdown();

  MetricsSnapshot snap = state.telemetry.metrics.Snapshot();
  uint64_t appends = snap.CounterValue("wedge.loadgen.appends");
  uint64_t reads = snap.CounterValue("wedge.loadgen.reads");
  uint64_t errors = snap.CounterValue("wedge.loadgen.errors");
  double rpc_per_s = (appends + reads) / elapsed_s;

  JsonRow row = bench::MakeRow("loadgen", opts.seed, opts.batch);
  row.Field("mode", opts.mode)
      .Field("threads", static_cast<uint64_t>(opts.threads))
      .Field("connections", static_cast<uint64_t>(opts.connections))
      .Field("duration_s", elapsed_s)
      .Field("append_rpcs", appends)
      .Field("read_rpcs", reads)
      .Field("errors", errors)
      .Field("rpc_per_s", rpc_per_s)
      .Field("appends_per_s", appends * opts.batch / elapsed_s)
      // Acked payload bytes (key + value per entry) per second, plus the
      // store serving them, so memory and durable runs are comparable
      // from the row alone.
      .Field("value_bytes", static_cast<uint64_t>(opts.value_bytes))
      .Field("bytes_per_s",
             appends * opts.batch *
                 (opts.value_bytes + bench::kDefaultKeySize) / elapsed_s)
      .Field("store", opts.log_dir.empty() ? "memory" : "segment");
  if (direct != nullptr) {
    row.Field("client_reconnects", direct->reconnects())
        .Field("client_retries", direct->retries())
        .Field("discarded_responses", direct->discarded_responses());
  }
  if (fleet != nullptr) {
    row.Field("fleet_shards", static_cast<uint64_t>(fleet->num_shards()))
        .Field("client_retries", fleet->retries())
        .Field("router_fast_fails", fleet->fast_fails())
        .Field("breaker_trips", fleet->breaker_trips());
  }
  if (opts.trace_every > 0) {
    row.Field("traces", snap.CounterValue("wedge.loadgen.traces"));
  }
  if (state.ring != nullptr) {
    for (uint32_t s = 0; s < state.ring->num_shards(); ++s) {
      row.Field("s" + std::to_string(s) + "_errors",
                snap.CounterValue("wedge.loadgen.s" + std::to_string(s) +
                                  ".errors"));
    }
  }
  if (opts.mode == "open") {
    row.Field("target_rate", opts.rate)
        .Field("sched_lagged", snap.CounterValue("wedge.loadgen.sched_lagged"));
  }
  StampQuantiles(row, snap, "wedge.loadgen.append_us", "append_us");
  StampQuantiles(row, snap, "wedge.loadgen.read_us", "read_us");
  if (opts.tenants > 1) {
    row.Field("tenants", opts.tenants)
        .Field("tenant_skew", opts.tenant_skew)
        .Field("quota_rejections",
               snap.CounterValue("wedge.loadgen.quota_rejections"));
    for (uint64_t t = 0; t < opts.tenants; ++t) {
      std::string metric = "wedge.loadgen.t" + std::to_string(t);
      std::string prefix = "t" + std::to_string(t);
      bench::StampHistogram(row, snap, metric + ".append_us",
                            prefix + "_append_us");
      row.Field(prefix + "_quota_rejections",
                snap.CounterValue(metric + ".quota_rejections"));
    }
  }
  if (deployment != nullptr) {
    // Server-side view (same process when --spawn-server).
    MetricsSnapshot server_snap = deployment->telemetry().metrics.Snapshot();
    row.Field("server_shards",
              static_cast<uint64_t>(deployment->engine().num_shards()))
        .Field("server_requests",
               server_snap.CounterValue("wedge.rpc.requests"))
        .Field("server_bytes_in",
               server_snap.CounterValue("wedge.rpc.bytes_in"))
        .Field("server_bytes_out",
               server_snap.CounterValue("wedge.rpc.bytes_out"))
        .Field("server_malformed",
               server_snap.CounterValue("wedge.rpc.malformed_frames"))
        .Field("server_quota_rejections",
               server_snap.CounterValue("wedge.engine.quota_rejections_rate") +
                   server_snap.CounterValue(
                       "wedge.engine.quota_rejections_inflight") +
                   server_snap.CounterValue(
                       "wedge.engine.quota_rejections_tenant"));
    StampQuantiles(row, server_snap, "wedge.rpc.op_us{op=appendT}",
                   "server_append_us");
    StampQuantiles(row, server_snap, "wedge.rpc.op_us{op=readT}",
                   "server_read_us");
    StampQuantiles(row, server_snap, "wedge.rpc.queue_wait_us",
                   "server_queue_wait_us");
  }
  row.Print();

  bench::MaybeWriteTelemetry(opts.telemetry_out, state.telemetry,
                             /*truncate=*/true);
  if (deployment != nullptr) {
    bench::MaybeWriteTelemetry(opts.telemetry_out, deployment->telemetry());
  }
  // Any failed request is a loud failure: a dead shard or unreachable
  // daemon mid-run must not exit 0 just because other requests landed.
  if (errors > 0) {
    std::fprintf(stderr,
                 "loadgen: %llu request(s) failed (shard down or daemon "
                 "unreachable mid-run); see errors / s<i>_errors in the "
                 "JSONL row\n",
                 static_cast<unsigned long long>(errors));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace wedge

int main(int argc, char** argv) {
  // Runtime escape hatch mirroring the WEDGE_SKIP_SOCKET_TESTS CMake
  // option: the whole tool is socket-bound, so skip cleanly.
  const char* skip = std::getenv("WEDGE_SKIP_SOCKET_TESTS");
  if (skip != nullptr && skip[0] == '1') {
    std::printf("loadgen SKIPPED (WEDGE_SKIP_SOCKET_TESTS)\n");
    return 0;
  }
  auto opts = wedge::Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "%s\n", opts.status().ToString().c_str());
    return wedge::Usage(argv[0]);
  }
  return wedge::Run(*opts);
}
