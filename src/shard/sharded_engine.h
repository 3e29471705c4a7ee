#ifndef WEDGEBLOCK_SHARD_SHARDED_ENGINE_H_
#define WEDGEBLOCK_SHARD_SHARDED_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "contracts/punishment.h"
#include "contracts/root_record.h"
#include "core/client.h"
#include "core/rpc_codec.h"
#include "shard/epoch_aggregator.h"
#include "shard/router.h"
#include "shard/token_bucket.h"
#include "storage/log_store.h"

namespace wedge {

struct ShardedEngineConfig {
  /// Number of independent OffchainNode shards.
  uint32_t num_shards = 1;
  /// Per-shard node configuration (applied to every shard).
  OffchainNodeConfig node;
  /// Per-tenant admission quotas (all-zero = admit everything).
  TenantQuotaConfig quota;
  /// Close an aggregation epoch every N Tick() calls (i.e. every N
  /// blocks when the caller ticks per block).
  uint32_t epoch_ticks = 1;
  /// When true (the default, whatever the shard count), every shard's
  /// root sink is the EpochRootAggregator, which submits one forest root
  /// per epoch. When false — allowed only with num_shards == 1 — the
  /// single shard runs the classic per-batch updateRecords stream, making
  /// the engine behaviourally identical to a bare OffchainNode (the
  /// degenerate configuration the regression benches pin down). A
  /// classic 1-shard deployment sets it false.
  bool forest_stage2 = true;
  /// Virtual nodes per shard on the consistent-hash ring.
  uint32_t router_vnodes = 64;
  /// Require every append's wire tenant id to equal
  /// PublisherTenant(request.publisher) — the id derived from the key the
  /// node verifies signatures against — so quotas bind to keys instead of
  /// client-asserted u64s (spoofing a victim's id or cycling fresh ids to
  /// evade/exhaust quotas then needs forging signatures). Needs
  /// node.verify_client_signatures; off by default because the wire id is
  /// free-form for cooperative deployments (see AdmissionController).
  bool authenticate_tenants = false;
};

/// N independent OffchainNode shards behind a consistent-hash
/// tenant -> shard router, with per-tenant token-bucket admission control
/// and a single epoch-aggregated stage-2 stream (see
/// shard/epoch_aggregator.h). Every shard signs with the same engine key,
/// so one escrow/Punishment deployment covers the whole engine and a
/// client needs no per-shard trust setup.
///
/// Log ids are SHARD-LOCAL (each shard's store numbers its positions
/// densely from 0; stage-1 signatures commit to the (shard_id, log_id)
/// pair — see contracts/stage1_message.h — so the dense namespaces can
/// never be confused for each other); a reader therefore addresses an
/// entry by (tenant, log_id, offset) and the engine routes by tenant.
/// Thread-safe to the same degree OffchainNode is: Append/Read may be
/// called from many RPC workers concurrently.
class ShardedLogEngine {
 public:
  /// `stores` must be empty (memory stores) or have exactly
  /// config.num_shards entries. `chain` may be null (benches).
  /// `journal` (optional, forest mode only) is attached to the
  /// aggregator and replayed before the engine serves anything, so a
  /// restarted engine resumes its epoch numbering and proof index where
  /// the journal left off; call Recover() afterwards to reconcile the
  /// replayed state with the shard tails and the chain.
  static Result<std::unique_ptr<ShardedLogEngine>> Create(
      const ShardedEngineConfig& config, KeyPair engine_key,
      std::vector<std::unique_ptr<LogStore>> stores, Blockchain* chain,
      const Address& root_record_address, Telemetry* telemetry,
      std::unique_ptr<AggregatorJournal> journal = nullptr);

  /// What one Recover() pass did.
  struct RecoveryReport {
    uint64_t journaled_epochs = 0;   ///< Epochs replayed from the journal.
    uint64_t restaged_roots = 0;     ///< Sealed roots the sink lacked.
    uint64_t recovered_epochs = 0;   ///< New epochs closed over those roots.
    uint64_t resubmitted_epochs = 0; ///< Journaled epochs resubmitted on chain.
    uint64_t confirmed_epochs = 0;   ///< Epochs found already recorded.
    // Storage-tier recovery (segment backend; zero on other backends).
    uint64_t store_segments = 0;       ///< Sealed segments across all shards.
    uint64_t store_wal_positions = 0;  ///< Live WAL-tail positions replayed.
    uint64_t store_wal_truncated_bytes = 0;  ///< Torn WAL bytes dropped.
    uint64_t store_tmp_files_removed = 0;    ///< Compaction scratch.
  };

  /// One-pass crash recovery: every shard hands its root sink the
  /// durable roots the sink lacks (OffchainNode::Recover). Classic mode
  /// then commits them. Forest mode first sends the journaled epochs
  /// that never went out — retiring those the chain's forestTail already
  /// covers — then closes the restaged roots into fresh epochs.
  /// Idempotent: a second call (or a call after a clean shutdown) finds
  /// nothing to do.
  Result<RecoveryReport> Recover();

  /// Routed, admission-controlled append. Quota rejections are typed
  /// Status::ResourceExhausted, which the RPC layer forwards verbatim.
  Result<std::vector<Stage1Response>> Append(
      TenantId tenant, std::vector<AppendRequest> requests);

  Result<Stage1Response> ReadOne(TenantId tenant, const EntryIndex& index);
  Result<BatchReadResponse> ReadBatch(TenantId tenant, uint64_t log_id,
                                      std::vector<uint32_t> offsets);

  /// Engine-signed batch-root -> forest-root proof for a tenant's sealed
  /// batch. FailedPrecondition in the degenerate (classic stage-2)
  /// configuration.
  Result<AggregationProof> ProveAggregation(TenantId tenant,
                                            uint64_t log_id);

  /// One "block" of background progress: classic mode ticks each shard's
  /// stage-2 submitter; forest mode lets restarted shards catch their
  /// sink up, closes an epoch every `epoch_ticks` calls, and ticks the
  /// aggregator's forest stream.
  void Tick();

  /// Seals staged batches on every shard (see
  /// OffchainNode::FlushStagedBatch), then force-closes an epoch over
  /// everything sealed so far. For tests and draining.
  Result<TxId> AggregateNow();

  /// Marks a tenant's stored payloads as garbage on its shard's store
  /// (segment backend only — FailedPrecondition otherwise). Space is
  /// reclaimed by CompactStorage() or the store's background thread;
  /// log-id density and every other tenant's proofs are preserved.
  Status RetireTenant(TenantId tenant);
  /// Runs compaction on every shard store that supports it. Returns the
  /// total bytes reclaimed.
  Result<uint64_t> CompactStorage();

  uint32_t ShardFor(TenantId tenant) const {
    return router_.ShardFor(tenant);
  }
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  OffchainNode& shard(uint32_t i) { return *shards_[i]; }
  /// Null in the degenerate (classic stage-2) configuration.
  EpochRootAggregator* aggregator() { return aggregator_.get(); }
  AdmissionController& admission() { return *admission_; }
  const ShardRouter& router() const { return router_; }
  const Address& address() const { return key_.address(); }
  const ShardedEngineConfig& config() const { return config_; }
  Telemetry& telemetry() { return *telemetry_; }

 private:
  ShardedLogEngine(const ShardedEngineConfig& config, KeyPair engine_key,
                   Telemetry* telemetry);

  ShardedEngineConfig config_;
  KeyPair key_;
  ShardRouter router_;
  Telemetry* telemetry_;
  std::unique_ptr<Telemetry> owned_telemetry_;
  std::unique_ptr<AdmissionController> admission_;
  std::vector<std::unique_ptr<OffchainNode>> shards_;
  std::unique_ptr<AggregatorJournal> journal_;
  std::unique_ptr<EpochRootAggregator> aggregator_;
  uint64_t ticks_ = 0;

  struct ShardCounters {
    Counter* appends;
    Counter* entries;
    Counter* reads;
  };
  std::vector<ShardCounters> shard_counters_;
};

/// The shard store behind `ShardedDeploymentConfig::log_dir`.
enum class StoreBackend {
  kSegment,  ///< SegmentLogStore (src/storage/segstore/).
};

/// End-to-end setup of a WedgeBlock instance (paper §3.4
/// initialization): simulated chain, funded engine + publisher accounts,
/// RootRecord + Punishment contracts (escrowed, bound to the engine key),
/// and the engine itself. The paper's single Offchain Node is the 1-shard
/// engine with classic stage 2 (`engine.forest_stage2 = false`).
struct ShardedDeploymentConfig {
  ChainConfig chain;
  ShardedEngineConfig engine;
  Wei escrow = EthToWei(32);
  Wei engine_funding = EthToWei(1000);
  Wei client_funding = EthToWei(1000);
  uint64_t engine_key_seed = 0xED6E;
  int64_t escrow_lock_seconds = 30 * 24 * 3600;
  int64_t omission_grace_seconds = 600;
  /// Per-shard durable stores under `log_dir` ("" = in-memory): one
  /// SegmentLogStore per shard at `<log_dir>/shard-<i>.seg/` (WAL +
  /// sealed segments). Forest mode also keeps the aggregator journal at
  /// `<log_dir>/aggregator.journal`.
  std::string log_dir;
  /// The durable store behind `log_dir`; the segment store is the only
  /// one.
  StoreBackend store_backend = StoreBackend::kSegment;
  /// Positions per sealed segment (0 = store default).
  uint64_t store_segment_positions = 0;
  /// Power-loss durable acks: group-commit fdatasync. Off, acks are
  /// still process-crash durable (flushed past stdio before the ack).
  bool log_fsync = false;
};

class ShardedDeployment {
 public:
  /// `publisher_seed` keys the client the Punishment contract is bound
  /// to (Algorithm 2's immutable clientAddress). `stores`, when given,
  /// backs the shards with caller-built stores (e.g. replicated or
  /// tiered) instead of memory stores; it must have exactly
  /// `engine.num_shards` entries and excludes `log_dir`. A `log_dir`
  /// holding a shard log of the retired flat-file store
  /// (`shard-<i>.log`) is refused with FailedPrecondition.
  static Result<std::unique_ptr<ShardedDeployment>> Create(
      const ShardedDeploymentConfig& config,
      uint64_t publisher_seed = 0xC11E,
      std::vector<std::unique_ptr<LogStore>> stores = {});

  SimClock& clock() { return clock_; }
  Blockchain& chain() { return *chain_; }
  ShardedLogEngine& engine() { return *engine_; }
  Telemetry& telemetry() { return *telemetry_; }
  const Address& root_record_address() const { return root_record_address_; }
  const Address& punishment_address() const { return punishment_address_; }

  /// A publisher client bound to the shard serving `tenant` (the
  /// Punishment contract is bound to the publisher key passed to
  /// Create, whichever tenant it publishes under).
  PublisherClient MakePublisher(TenantId tenant);
  UserClient MakeUser(TenantId tenant, uint64_t seed);
  AuditorClient MakeAuditor(TenantId tenant, uint64_t seed);

  /// Deploys a Payment contract between the bound publisher and the
  /// engine (DApp-logging-as-a-service, §4.5). Returns its address.
  Result<Address> CreatePaymentChannel(int64_t period_seconds,
                                       const Wei& payment_per_period,
                                       int64_t max_overdue_periods);

  /// Advances simulated time, mines pending blocks, and ticks the
  /// engine (stage-2 / epoch aggregation progress).
  void AdvanceBlocks(int count);

 private:
  ShardedDeployment() : clock_(0) {}

  ShardedDeploymentConfig config_;
  uint64_t publisher_seed_ = 0;
  SimClock clock_;
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<Blockchain> chain_;
  std::unique_ptr<ShardedLogEngine> engine_;
  Address root_record_address_;
  Address punishment_address_;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_SHARD_SHARDED_ENGINE_H_
