#ifndef WEDGEBLOCK_SHARD_EPOCH_AGGREGATOR_H_
#define WEDGEBLOCK_SHARD_EPOCH_AGGREGATOR_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "chain/blockchain.h"
#include "contracts/forest_record.h"
#include "core/stage2_submitter.h"
#include "shard/agg_journal.h"

namespace wedge {

/// How the aggregator misbehaves (test hooks, mirroring the node-level
/// ByzantineMode).
enum class AggByzantineMode {
  kHonest = 0,
  /// Prove() flips a byte of the Merkle path and signs the corrupted
  /// statement: attributable evidence for the forest punishment path.
  kCorruptAggProof,
  /// CloseEpoch() aggregates (and files on-chain) flipped batch roots:
  /// the aggregation-level root disagrees with what stage 1 signed.
  kEquivocateBatchRoot,
};

/// Replaces N per-shard stage-2 streams with one: shards push each
/// durable batch root here (it is their RootSink), and every epoch the
/// aggregator builds a second-level Merkle tree over the staged
/// (shard_id, log_id, MRoot) leaves and hands the single forest root to
/// its Stage2Submitter (RootRecord::updateForestRoot) — one transaction
/// per epoch instead of one updateRecords call per shard-batch group.
/// Sending, confirming and retrying are the submitter's; the aggregator
/// keeps staging, the epoch trees, the journal and proofs.
///
/// Clients fetch an engine-signed AggregationProof (batch root -> forest
/// root) to complete their two-level verification; see
/// contracts/forest_record.h for its punishment semantics.
///
/// Thread-safe. Sealers only take the staging lock, so a seal never
/// waits on an epoch's Merkle build, journal write or chain calls.
/// `chain` may be null (aggregation without submission, for benches):
/// every closed epoch then counts as confirmed at once.
class EpochRootAggregator : public RootSink {
 public:
  /// `stage2` tunes the forest stream's deadline, backoff and gas bump.
  EpochRootAggregator(uint32_t num_shards, KeyPair engine_key,
                      Blockchain* chain, const Address& root_record_address,
                      const Stage2SubmitterConfig& stage2,
                      Telemetry* telemetry);

  /// RootSink: stages a shard's durable batch root for the next epoch,
  /// stamped with the current time (the start of its aggregation-lag
  /// measurement).
  Status TakeRoot(uint32_t shard_id, uint64_t log_id,
                  const Hash256& root) override;
  /// RootSink: one past the shard's last staged or journaled log id.
  Result<uint64_t> NextRoot(uint32_t shard_id) override;

  /// Builds the forest tree over what is staged (leaves in
  /// (shard_id, log_id) order, at most kMaxRootsPerCall), journals the
  /// epoch and queues its root for submission. Returns NotFound when
  /// nothing is staged (no transaction wasted on empty epochs), otherwise
  /// the first TxId sent — 0 without a chain, or when the epoch waits for
  /// a retry the submitter has already scheduled.
  Result<TxId> CloseEpoch();

  /// Drives the forest stream one block: the submitter reaps receipts
  /// and retries, epochs never sent go out, and every epoch whose root is
  /// `confirmations` blocks deep is marked (and journaled) confirmed.
  /// Work is proportional to the unconfirmed epochs. Call once per block.
  void Tick();

  /// Attaches a durable journal and replays its state: every journaled
  /// epoch is rebuilt in memory (leaves, forest tree, proof index), the
  /// per-shard cursors advance past every journaled leaf, and epochs not
  /// journaled as confirmed are queued for submission again. Must be
  /// called on a freshly constructed aggregator. `journal` must outlive
  /// the aggregator; CloseEpoch journals each epoch before submitting it,
  /// and every confirmation is journaled too.
  Status AttachJournal(AggregatorJournal* journal);

  /// Crash-recovery pass: sends the epochs that have never been sent,
  /// after retiring those the chain's forestTail already covers. Epochs
  /// with a transaction in flight are left to Tick(), which makes a
  /// second call (or one after a clean shutdown) a no-op.
  Status RecoverEpochs(uint64_t* resubmitted, uint64_t* confirmed);

  /// Engine-signed two-level proof for a sealed batch. Fails with
  /// NotFound until the batch's epoch has been closed.
  Result<AggregationProof> Prove(uint32_t shard_id, uint64_t log_id);

  uint64_t epochs_closed() const;
  uint64_t staged_count() const;
  /// Closed epochs whose forest root is confirmed on chain.
  uint64_t epochs_confirmed() const;
  /// Closed-but-unconfirmed epochs (>0 is normal while a tx gathers
  /// confirmations; a value that keeps growing means stage 2 is wedged —
  /// the /healthz readiness signal).
  uint64_t epochs_unconfirmed() const;
  std::vector<TxId> ForestTxIds() const;
  /// The forest stream's submitter (attempt log, stats).
  Stage2Submitter& stage2_submitter() { return submitter_; }

  void set_byzantine_mode(AggByzantineMode mode) {
    byzantine_mode_.store(mode, std::memory_order_relaxed);
  }

 private:
  struct StagedRoot {
    uint32_t shard_id = 0;
    uint64_t log_id = 0;
    Hash256 mroot{};
    Micros staged_at = 0;
  };
  struct EpochRecord {
    std::vector<StagedRoot> leaves;
    Hash256 root{};
    std::shared_ptr<const MerkleTree> tree;
  };

  Micros Now() const;
  /// Builds the forest tree over `leaves` into an epoch record.
  static Result<EpochRecord> MakeEpoch(std::vector<StagedRoot> leaves);
  /// Indexes and appends a closed epoch; with a chain, an unconfirmed one
  /// is queued on the forest stream.
  Status AddEpochLocked(EpochRecord record);
  /// Marks confirmed (spans + best-effort journal record) every epoch the
  /// submitter has retired: it holds exactly the unconfirmed suffix.
  void ConfirmLocked();
  void MarkConfirmedLocked(uint64_t epoch);

  const KeyPair key_;
  Blockchain* const chain_;
  Telemetry* const telemetry_;
  AggregatorJournal* journal_ = nullptr;  ///< Optional; not owned.
  std::atomic<AggByzantineMode> byzantine_mode_{AggByzantineMode::kHonest};

  Counter* roots_staged_counter_;
  Counter* epochs_closed_counter_;
  Histogram* agg_lag_hist_;
  Histogram* epoch_leaves_hist_;
  Stage2Submitter submitter_;

  /// The only lock a sealer takes.
  mutable std::mutex staged_mu_;
  std::vector<StagedRoot> staged_;
  std::vector<uint64_t> next_root_;  ///< Per-shard next log id to stage.

  mutable std::mutex mu_;  ///< Epoch state; taken before staged_mu_.
  std::vector<EpochRecord> epochs_;  ///< Indexed by epoch number.
  uint64_t confirmed_ = 0;  ///< Epochs [0, confirmed_) are confirmed.
  /// (shard, log) -> (epoch, leaf index). Shard counts are far below
  /// 256, so the key packs the shard into the log id's low byte.
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> index_;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_SHARD_EPOCH_AGGREGATOR_H_
