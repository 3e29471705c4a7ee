// wedgeblockd — the WedgeBlock Offchain Node as a network daemon.
//
// Stands up a full deployment (simulated chain + contracts + the
// sharded log engine) and serves the stage-1 append/read RPC surface over
// real TCP via rpc/RpcServer, the way the paper ran it across machines
// (§5). Clients connect with rpc/TcpNodeClient (see bench/loadgen and
// examples/remote_quickstart).
//
// Usage:
//   wedgeblockd [--port N] [--bind ADDR] [--workers N] [--batch N]
//               [--node-threads N] [--max-frame-mb N] [--no-verify-sigs]
//               [--mine-ms N] [--duration-s N] [--telemetry-out PATH]
//               [--shards N (default 1)] [--tenants N] [--epoch-blocks N]
//               [--tenant-rate N] [--tenant-burst N] [--tenant-inflight N]
//               [--tenant-auth] [--forest] [--log-dir PATH]
//               [--segment-positions N] [--fsync] [--recover]
//
//   --port 0 (default) picks an ephemeral port; the daemon prints
//   "LISTENING <port>" on stdout either way, so scripts can scrape it.
//   --mine-ms advances the simulated chain one block every N real
//   milliseconds (0 disables mining; stage-2 then never confirms).
//   --duration-s exits after N seconds (0 = run until SIGINT/SIGTERM).
//   On shutdown the server drains in-flight replies, then the telemetry
//   registry (wedge.rpc.* + wedge.node.* + chain metrics) is dumped to
//   --telemetry-out when given.
//
//   --shards N (default 1) sets the engine's shard count: N shards behind
//   the consistent-hash tenant router, per-tenant admission quotas, and —
//   for N > 1 — one epoch forest root on chain per --epoch-blocks blocks
//   instead of a stage-2 tx stream per shard. One shard is the bare
//   Offchain Node with the paper's per-batch updateRecords stream
//   (byte-identical responses). Clients use the tenant-scoped ops
//   (TcpNodeClient::AppendForTenant et al.; a single-tenant client is
//   tenant 0). --tenants caps the number of distinct tenants admitted
//   (0 = unlimited); --tenant-rate/--tenant-burst/--tenant-inflight set
//   the per-tenant token-bucket append quota (0 = unlimited). Quota
//   rejections surface to clients as typed ResourceExhausted errors.
//   --tenant-auth requires every append's tenant id to match the id
//   derived from its publisher key (PublisherTenant), so quotas bind to
//   authenticated identities; without it the wire tenant id is trusted
//   and quotas assume cooperative clients. Incompatible with
//   --no-verify-sigs.
//
//   Crash-resilience flags (see DESIGN.md "Sharded failure model &
//   recovery"):
//   --forest forces the epoch forest-root pipeline even at --shards 1,
//   so a fleet of single-shard processes (tools/chaos) gets the same
//   journal + recovery machinery a multi-shard engine does.
//   --log-dir PATH puts every shard log in the segmented store
//   (storage/segstore/) at PATH/shard-<i>.seg/ — a group-committed WAL
//   plus sealed immutable segments, with O(segments) recovery and tenant
//   GC — and, in forest mode, the aggregator journal at
//   PATH/aggregator.journal, so a SIGKILL'd daemon can be restarted over
//   the same directory. Without --log-dir every shard log is in memory.
//   A directory holding a flat-file shard log (PATH/shard-<i>.log, from
//   an older version) is refused at startup.
//   --segment-positions N seals a segment every N positions (0 = the
//   store's default).
//   --fsync makes acks power-loss durable: coalesced group commit (one
//   fdatasync per batch window).
//   --recover hands every shard's unsent roots to its sink, reconciles
//   the journal with the chain and resubmits unconfirmed epochs (or, on
//   the classic stream, recommits what the chain lacks) before serving;
//   the daemon prints
//   "RECOVERED journaled=N restaged=N closed=N resubmitted=N confirmed=N"
//   for scripts to scrape. Recovery on a fresh --log-dir is a no-op, so
//   restart scripts can pass it unconditionally.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "rpc/admin_http.h"
#include "rpc/rpc_server.h"
#include "shard/shard_rpc.h"
#include "shard/sharded_engine.h"
#include "telemetry/export.h"

namespace wedge {
namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

struct Options {
  uint16_t port = 0;
  std::string bind = "127.0.0.1";
  int workers = 2;
  uint32_t batch = 500;
  size_t node_threads = 4;
  size_t max_frame_mb = 32;
  bool verify_sigs = true;
  int64_t mine_ms = 200;
  int64_t duration_s = 0;
  std::string telemetry_out;
  uint32_t shards = 1;           ///< Engine shards (1 = bare node).
  uint64_t tenants = 0;          ///< Max distinct tenants (0 = unlimited).
  uint32_t epoch_blocks = 4;     ///< Blocks per aggregation epoch.
  uint64_t tenant_rate = 0;      ///< Entries/second per tenant (0 = off).
  uint64_t tenant_burst = 0;     ///< Token-bucket burst (0 = 2x rate).
  uint64_t tenant_inflight = 0;  ///< In-flight appends per tenant (0 = off).
  bool tenant_auth = false;      ///< Bind tenant ids to publisher keys.
  bool forest = false;           ///< Force forest stage-2 at any shard count.
  std::string log_dir;           ///< Durable shard logs + aggregator journal.
  uint64_t segment_positions = 0;  ///< Segment seal threshold (0 = default).
  bool fsync = false;            ///< Power-loss durable acks.
  bool recover = false;          ///< Run engine recovery before serving.
  /// Admin HTTP port: -1 disables the endpoint, 0 picks an ephemeral
  /// port. The daemon prints "ADMIN <port>" when enabled.
  int admin_port = -1;
  int64_t slow_request_ms = 0;   ///< Slow-request log threshold (0 = off).
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--bind ADDR] [--workers N] [--batch N]\n"
               "          [--node-threads N] [--max-frame-mb N] "
               "[--no-verify-sigs]\n"
               "          [--mine-ms N] [--duration-s N] "
               "[--telemetry-out PATH]\n"
               "          [--shards N (default 1)] [--tenants N] "
               "[--epoch-blocks N]\n"
               "          [--tenant-rate N] [--tenant-burst N] "
               "[--tenant-inflight N] [--tenant-auth]\n"
               "          [--forest] [--log-dir PATH] "
               "[--segment-positions N]\n"
               "          [--fsync] [--recover]\n"
               "          [--admin-port N] [--slow-request-ms N]\n",
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
    if (flag == "--port") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.port = static_cast<uint16_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (flag == "--bind") {
      WEDGE_ASSIGN_OR_RETURN(opts.bind, next());
    } else if (flag == "--workers") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.workers = std::atoi(v.c_str());
    } else if (flag == "--batch") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.batch = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (flag == "--node-threads") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.node_threads = std::strtoul(v.c_str(), nullptr, 10);
    } else if (flag == "--max-frame-mb") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.max_frame_mb = std::strtoul(v.c_str(), nullptr, 10);
    } else if (flag == "--no-verify-sigs") {
      opts.verify_sigs = false;
    } else if (flag == "--mine-ms") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.mine_ms = std::atoll(v.c_str());
    } else if (flag == "--duration-s") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.duration_s = std::atoll(v.c_str());
    } else if (flag == "--telemetry-out") {
      WEDGE_ASSIGN_OR_RETURN(opts.telemetry_out, next());
    } else if (flag == "--shards") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.shards = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
      if (opts.shards == 0) {
        return Status::InvalidArgument("--shards needs a value >= 1");
      }
    } else if (flag == "--tenants") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.tenants = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--epoch-blocks") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.epoch_blocks =
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
    } else if (flag == "--tenant-auth") {
      opts.tenant_auth = true;
    } else if (flag == "--forest") {
      opts.forest = true;
    } else if (flag == "--log-dir") {
      WEDGE_ASSIGN_OR_RETURN(opts.log_dir, next());
    } else if (flag == "--segment-positions") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.segment_positions = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--fsync") {
      opts.fsync = true;
    } else if (flag == "--recover") {
      opts.recover = true;
    } else if (flag == "--admin-port") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.admin_port = std::atoi(v.c_str());
      if (opts.admin_port < 0 || opts.admin_port > 65535) {
        return Status::InvalidArgument("--admin-port needs 0..65535");
      }
    } else if (flag == "--slow-request-ms") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.slow_request_ms = std::atoll(v.c_str());
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (opts.batch == 0 || opts.workers < 1 || opts.max_frame_mb == 0 ||
      opts.epoch_blocks == 0) {
    return Status::InvalidArgument("bad flag value");
  }
  return opts;
}

/// Unconfirmed forest epochs, beyond those a healthy pipeline holds while
/// their transactions gather confirmations, at which /healthz reports
/// the aggregator wedged: confirmations stopped.
constexpr uint64_t kWedgedUnconfirmedEpochs = 3;

/// Starts the admin HTTP endpoint when --admin-port was given and prints
/// "ADMIN <port>" for scripts to scrape (mirroring "LISTENING <port>").
std::unique_ptr<AdminHttpServer> StartAdmin(const Options& opts,
                                            Telemetry* telemetry,
                                            AdminHttpServer::HealthFn health) {
  if (opts.admin_port < 0) return nullptr;
  AdminHttpConfig config;
  config.bind_address = opts.bind;
  config.port = static_cast<uint16_t>(opts.admin_port);
  auto admin = std::make_unique<AdminHttpServer>(telemetry, config,
                                                 std::move(health));
  Status started = admin->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "admin endpoint failed: %s\n",
                 started.ToString().c_str());
    return nullptr;
  }
  std::printf("ADMIN %u\n", admin->port());
  std::fflush(stdout);
  return admin;
}

/// Blocks until SIGINT/SIGTERM or --duration-s, advancing the simulated
/// chain one block per --mine-ms.
void ServeLoop(const Options& opts, ShardedDeployment& d) {
  struct sigaction sa{};
  sa.sa_handler = HandleSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);

  Micros started_at = RealClock::Global()->NowMicros();
  Micros last_mine = started_at;
  while (!g_stop.load()) {
    usleep(20 * 1000);
    Micros now = RealClock::Global()->NowMicros();
    if (opts.mine_ms > 0 && now - last_mine >= opts.mine_ms * 1000) {
      // One simulated block per interval: confirms pending stage-2 /
      // forest submissions and drives the retry pipeline.
      d.AdvanceBlocks(1);
      last_mine = now;
    }
    if (opts.duration_s > 0 &&
        now - started_at >= opts.duration_s * kMicrosPerSecond) {
      break;
    }
  }
}

int Serve(const Options& opts) {
  ShardedDeploymentConfig config;
  config.engine.num_shards = opts.shards;
  config.engine.node.batch_size = opts.batch;
  config.engine.node.worker_threads = opts.node_threads;
  config.engine.node.verify_client_signatures = opts.verify_sigs;
  config.engine.epoch_ticks = opts.epoch_blocks;
  // A single shard keeps the classic per-batch stage-2 stream (the
  // degenerate configuration, byte-identical to the bare node); two or
  // more shards aggregate into one forest root per epoch. --forest opts
  // a single-shard process into the forest pipeline anyway, which is how
  // a chaos fleet of one-shard daemons gets journaled recovery.
  config.engine.forest_stage2 = opts.shards > 1 || opts.forest;
  config.engine.quota.entries_per_second = opts.tenant_rate;
  config.engine.quota.burst_entries = opts.tenant_burst;
  config.engine.quota.max_inflight_appends = opts.tenant_inflight;
  config.engine.quota.max_tenants = opts.tenants;
  config.engine.authenticate_tenants = opts.tenant_auth;
  config.log_dir = opts.log_dir;
  config.store_segment_positions = opts.segment_positions;
  config.log_fsync = opts.fsync;
  auto deployment = ShardedDeployment::Create(config);
  if (!deployment.ok()) {
    std::fprintf(stderr, "sharded deployment failed: %s\n",
                 deployment.status().ToString().c_str());
    return 1;
  }
  ShardedDeployment& d = **deployment;

  if (opts.recover) {
    auto report = d.engine().Recover();
    if (!report.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    std::printf("RECOVERED journaled=%llu restaged=%llu closed=%llu "
                "resubmitted=%llu confirmed=%llu segments=%llu "
                "wal_tail=%llu wal_torn_bytes=%llu tmp_removed=%llu\n",
                static_cast<unsigned long long>(report->journaled_epochs),
                static_cast<unsigned long long>(report->restaged_roots),
                static_cast<unsigned long long>(report->recovered_epochs),
                static_cast<unsigned long long>(report->resubmitted_epochs),
                static_cast<unsigned long long>(report->confirmed_epochs),
                static_cast<unsigned long long>(report->store_segments),
                static_cast<unsigned long long>(report->store_wal_positions),
                static_cast<unsigned long long>(
                    report->store_wal_truncated_bytes),
                static_cast<unsigned long long>(
                    report->store_tmp_files_removed));
    std::fflush(stdout);
  }

  RpcServerConfig server_config;
  server_config.bind_address = opts.bind;
  server_config.port = opts.port;
  server_config.num_workers = opts.workers;
  server_config.max_frame_bytes = opts.max_frame_mb << 20;
  server_config.slow_request_micros = opts.slow_request_ms * kMicrosPerMilli;
  KeyPair transport_key = KeyPair::FromSeed(config.engine_key_seed);
  ShardedLogEngine& engine = d.engine();
  server_config.shard_for_tenant = [&engine](uint64_t tenant) {
    return static_cast<int>(engine.ShardFor(tenant));
  };
  RpcServer server(
      [&engine](std::string_view op, const Bytes& body) {
        return DispatchEngineRpc(engine, op, body);
      },
      transport_key, server_config, &d.telemetry());
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("LISTENING %u\n", server.port());
  std::printf(
      "engine address %s, %u shards, epoch every %u blocks, batch %u, "
      "%d rpc workers\n",
      engine.address().ToHex().c_str(), engine.num_shards(),
      opts.epoch_blocks, opts.batch, opts.workers);
  std::fflush(stdout);

  // Readiness: recovery (when requested) has succeeded by this point,
  // the RPC server is listening, and the aggregator is not sitting on a
  // backlog of unconfirmable epochs.
  const bool recovered = opts.recover;
  // An epoch closes every --epoch-blocks blocks and confirms
  // `confirmations` blocks after it mines.
  const uint64_t wedged_at =
      kWedgedUnconfirmedEpochs +
      (config.chain.confirmations + opts.epoch_blocks) / opts.epoch_blocks;
  auto health = [&server, &engine, recovered, wedged_at]() {
    AdminHealth h;
    EpochRootAggregator* agg = engine.aggregator();
    const uint64_t unconfirmed =
        agg == nullptr ? 0 : agg->epochs_unconfirmed();
    const bool wedged = unconfirmed >= wedged_at;
    h.ready = server.running() && !wedged;
    std::string detail = "{\"listening\": ";
    detail += server.running() ? "true" : "false";
    detail += ", \"recovery_ran\": ";
    detail += recovered ? "true" : "false";
    detail += ", \"aggregator\": {\"present\": ";
    detail += agg != nullptr ? "true" : "false";
    detail += ", \"epochs_closed\": " +
              std::to_string(agg == nullptr ? 0 : agg->epochs_closed());
    detail += ", \"epochs_unconfirmed\": " + std::to_string(unconfirmed);
    detail += ", \"wedged\": ";
    detail += wedged ? "true" : "false";
    detail += "}, \"shards\": [";
    for (uint32_t s = 0; s < engine.num_shards(); ++s) {
      if (s > 0) detail += ", ";
      detail += "{\"shard\": " + std::to_string(s) + ", \"positions\": " +
                std::to_string(engine.shard(s).LogPositions()) + "}";
    }
    detail += "]}";
    h.detail = std::move(detail);
    return h;
  };
  std::unique_ptr<AdminHttpServer> admin =
      StartAdmin(opts, &d.telemetry(), health);

  ServeLoop(opts, d);
  if (admin != nullptr) admin->Shutdown();

  std::printf("shutting down (served %llu requests)\n",
              static_cast<unsigned long long>(server.requests_served()));
  server.Shutdown();
  if (!opts.telemetry_out.empty()) {
    Status s = WriteTelemetryFile(opts.telemetry_out, d.telemetry(),
                                  /*append=*/false);
    if (!s.ok()) {
      std::fprintf(stderr, "telemetry write failed: %s\n",
                   s.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace wedge

int main(int argc, char** argv) {
  auto opts = wedge::Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "%s\n", opts.status().ToString().c_str());
    return wedge::Usage(argv[0]);
  }
  return wedge::Serve(*opts);
}
