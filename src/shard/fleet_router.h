#ifndef WEDGEBLOCK_SHARD_FLEET_ROUTER_H_
#define WEDGEBLOCK_SHARD_FLEET_ROUTER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rpc/tcp_client.h"
#include "shard/router.h"
#include "telemetry/telemetry.h"

namespace wedge {

/// One shard process of a fleet, addressed over real TCP.
struct FleetEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct FleetRouterConfig {
  /// One endpoint per shard process; endpoint i serves ring shard i.
  std::vector<FleetEndpoint> endpoints;
  /// Virtual nodes per shard on the consistent-hash ring (must match the
  /// server side only in so far as tenants map stably; each process is a
  /// self-contained engine, so any consistent client-side map works).
  uint32_t vnodes_per_shard = 64;
  /// Template for the per-endpoint TcpNodeClient (host/port overridden).
  TcpClientConfig client;
  /// Consecutive transport failures before a shard's breaker opens.
  int breaker_failure_threshold = 3;
  /// How long an open breaker fast-fails before letting one probe through.
  Micros breaker_open_duration = 500 * kMicrosPerMilli;
};

/// Client-side router for a fleet of wedgeblockd shard processes: routes
/// each tenant to its shard over the same consistent-hash ring the
/// in-process engine uses, with per-shard health tracking and a circuit
/// breaker. Because log data lives only on its shard, a dead shard is
/// never "failed over" — instead its breaker converts connect/RPC hangs
/// into immediate typed kUnavailable errors so only that shard's tenants
/// degrade while the rest of the fleet keeps serving at full speed.
///
/// Breaker per shard: Closed (normal) -> Open after
/// `breaker_failure_threshold` consecutive transport failures
/// (kUnavailable / kDeadlineExceeded; typed application errors like
/// NotFound count as contact) -> after `breaker_open_duration` one
/// half-open probe is admitted — success closes the breaker, failure
/// re-opens it for another interval.
///
/// Telemetry (`wedge.router.*`): requests / fast_fails / probes / trips /
/// retries counters and an open_breakers gauge.
///
/// Thread-safe: many worker threads may route concurrently.
class FleetRouter {
 public:
  enum class ShardHealth { kClosed, kOpen, kHalfOpen };

  /// `engine_address` pins the transport key every shard process proves
  /// in its session handshake (the fleet shares one engine key).
  FleetRouter(KeyPair client_key, const Address& engine_address,
              FleetRouterConfig config, Telemetry* telemetry = nullptr);
  ~FleetRouter();

  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  /// Dials every endpoint. OK when at least one shard is reachable (the
  /// rest stay lazy, guarded by their breakers).
  Status Connect();
  void Close();

  Result<std::vector<Stage1Response>> Append(
      TenantId tenant, const std::vector<AppendRequest>& requests);
  Result<Stage1Response> ReadOne(TenantId tenant, const EntryIndex& index);
  Result<BatchReadResponse> ReadBatch(TenantId tenant, uint64_t log_id,
                                      const std::vector<uint32_t>& offsets);
  Result<AggregationProof> FetchAggregationProof(TenantId tenant,
                                                 uint64_t log_id);

  uint32_t ShardFor(TenantId tenant) const { return ring_.ShardFor(tenant); }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  ShardHealth Health(uint32_t shard) const;
  /// Direct access to a shard's client (chaos audits, diagnostics).
  TcpNodeClient& client(uint32_t shard) { return *shards_[shard]->client; }

  uint64_t fast_fails() const { return fast_fails_->Value(); }
  uint64_t breaker_trips() const { return trips_->Value(); }
  uint64_t probes() const { return probes_->Value(); }
  /// Sum of every endpoint client's kUnavailable retry attempts.
  uint64_t retries() const;

 private:
  struct Shard {
    std::unique_ptr<TcpNodeClient> client;
    mutable std::mutex mu;
    ShardHealth health = ShardHealth::kClosed;
    int consecutive_failures = 0;
    Micros opened_at = 0;
    bool probe_in_flight = false;
  };

  /// Fast-fails with kUnavailable while the breaker is open; admits one
  /// probe in half-open.
  Status Admit(Shard& shard, bool* is_probe);
  void OnOutcome(Shard& shard, bool is_probe, const Status& status);
  template <typename Fn>
  auto Routed(TenantId tenant, Fn&& fn)
      -> decltype(fn(std::declval<TcpNodeClient&>()));

  const FleetRouterConfig config_;
  ShardRouter ring_;
  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* telemetry_;
  std::vector<std::unique_ptr<Shard>> shards_;

  Counter* requests_ = nullptr;
  Counter* fast_fails_ = nullptr;
  Counter* probes_ = nullptr;
  Counter* trips_ = nullptr;
  Gauge* open_breakers_ = nullptr;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_SHARD_FLEET_ROUTER_H_
