#ifndef WEDGEBLOCK_CORE_STAGE2_SUBMITTER_H_
#define WEDGEBLOCK_CORE_STAGE2_SUBMITTER_H_

#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "chain/blockchain.h"
#include "contracts/root_record.h"
#include "crypto/sha256.h"
#include "telemetry/telemetry.h"

namespace wedge {

/// Where an OffchainNode hands each durable (log_id, root) it seals, in
/// log order: its own Stage2Submitter (classic updateRecords stream) or
/// the sharded engine's EpochRootAggregator (forest stream).
class RootSink {
 public:
  virtual ~RootSink() = default;
  /// Takes the root of position `log_id` of shard `shard_id`. A shard's
  /// log ids arrive contiguously; a gap is an error.
  virtual Status TakeRoot(uint32_t shard_id, uint64_t log_id,
                          const Hash256& root) = 0;
  /// The first log id of `shard_id` this sink has not taken: where a
  /// restarted shard resumes handing roots over.
  virtual Result<uint64_t> NextRoot(uint32_t shard_id) = 0;
};

/// What a Stage2Submitter commits: both streams share every rule and
/// differ only in this data. Calldata is [u64 first slot][u32 batch roots
/// covered][32B root per slot].
struct Stage2Stream {
  const char* method;       ///< Root Record method.
  const char* tail_getter;  ///< Getter for the method's next free slot.
  uint32_t slots_per_tx;    ///< Slots one transaction carries.
  const char* submitted_metric;  ///< Counter of transactions sent.
  const char* retried_metric;    ///< Counter of retries.
  const char* metric_prefix;     ///< `<prefix><stat>` for the rest.
  bool slot_spans;  ///< Slots are log ids: emit per-slot trace spans.
};

/// Per-batch roots (paper Algorithm 1): one slot per sealed position.
inline constexpr Stage2Stream kRecordsStream = {
    "updateRecords", "tailIdx", RootRecordContract::kMaxRootsPerCall,
    "wedge.stage2.txs_submitted", "wedge.stage2.txs_retried",
    "wedge.stage2.", true};
/// Epoch forest roots: one slot per epoch, one epoch per transaction.
inline constexpr Stage2Stream kForestStream = {
    "updateForestRoot", "forestTail", 1,
    "wedge.engine.forest_txs", "wedge.engine.forest_tx_retries",
    "wedge.engine.forest_", false};

/// Tuning for the resilient stage-2 pipeline.
struct Stage2SubmitterConfig {
  /// Blocks after submission without a receipt before an in-flight
  /// transaction is presumed lost (dropped/evicted/stuck) and retried.
  uint64_t confirmation_deadline_blocks = 8;
  /// Retry backoff in blocks: base * 2^(attempt-1), capped below.
  uint64_t retry_backoff_base_blocks = 1;
  uint64_t retry_backoff_max_blocks = 16;
  /// Gas-price bump per retry: the bid for attempt k is the current
  /// market price times bump^(k-1), capped at cap x market.
  double gas_bump_multiplier = 1.25;
  double gas_bump_cap = 10.0;
};

/// One stage-2 submission attempt, recorded for tests and experiment
/// reports. A slot is a log id on the classic stream and an epoch number
/// on the forest stream. `cause` explains why the transaction was sent:
/// "initial" for the first submission of a journal suffix, "timeout"
/// when the previous transaction missed its confirmation deadline (the
/// submitter cannot distinguish a dropped from an evicted or stuck
/// transaction — all surface as a missing receipt), or "revert" when it
/// mined but reverted.
struct Stage2Attempt {
  TxId tx_id = 0;
  int attempt = 1;       ///< 1 = initial submission, >1 = retry.
  std::string cause;     ///< "initial", "timeout" or "revert".
  Wei gas_bid;           ///< Effective bid (market price when not bumped).
  uint64_t first_log_id = 0;  ///< First slot covered.
  uint32_t count = 0;    ///< Slots covered by this transaction.
  uint64_t block = 0;    ///< Head block number at submission.
};

/// Counters for tests and the fault-resilience bench.
struct Stage2SubmitterStats {
  uint64_t txs_submitted = 0;   ///< Stage-2 transactions sent.
  uint64_t txs_confirmed = 0;   ///< Reached `confirmations` depth, success.
  uint64_t txs_retried = 0;     ///< Resubmissions after a loss/revert.
  uint64_t txs_timed_out = 0;   ///< Presumed lost (no receipt by deadline).
  uint64_t txs_reverted = 0;    ///< Mined but reverted.
  uint64_t digests_confirmed = 0;  ///< Journal slots covered on-chain.
};

/// Resilient stage-2 submission pipeline: the only code that builds,
/// sends, reaps and retries stage-2 transactions, for both streams (see
/// Stage2Stream).
///
/// Roots live in a pending journal from Enqueue until a *confirmed*
/// on-chain receipt (ChainConfig::confirmations blocks deep) covers them
/// — a chain Submit error, a dropped or evicted transaction, a forced
/// revert, or a gas spike never loses a root; the journal suffix is
/// simply resubmitted (with exponential backoff and gas-price bumping)
/// until the contract's tail advances past it. The contract's sequential
/// start-slot check makes duplicate in-flight transactions revert
/// harmlessly, so retries cannot double-commit.
///
/// Thread-safe. Lock order: callers may hold the OffchainNode mutex; the
/// submitter calls into the Blockchain (which never calls back out).
class Stage2Submitter : public RootSink {
 public:
  /// With `telemetry`, the submitter mirrors its stats into the
  /// stream's counters, records confirmation-lag histograms
  /// (`confirm_lag_us` / `confirm_lag_blocks`, simulated time from
  /// Enqueue to on-chain tail coverage), and — when the stream's slots
  /// are log ids — emits per-position stage2_enqueued / tx_submitted /
  /// tx_retry / confirmed trace events.
  Stage2Submitter(const Stage2SubmitterConfig& config, Blockchain* chain,
                  const Address& sender, const Address& root_record_address,
                  Telemetry* telemetry = nullptr,
                  const Stage2Stream& stream = kRecordsStream);

  Stage2Submitter(const Stage2Submitter&) = delete;
  Stage2Submitter& operator=(const Stage2Submitter&) = delete;

  /// Journals a root for slot `id`, committing `leaves` batch roots (1
  /// for a batch root, the leaf count for an epoch's forest root). Slots
  /// must arrive contiguously (each call one past the previous); the
  /// first call fixes the base.
  Status Enqueue(uint64_t id, const Hash256& root, uint32_t leaves = 1);

  /// RootSink: journals a node's batch root (slot = log id).
  Status TakeRoot(uint32_t /*shard_id*/, uint64_t log_id,
                  const Hash256& root) override {
    return Enqueue(log_id, root);
  }
  /// RootSink: one past the journal's last slot, or the contract's tail
  /// when the journal is empty.
  Result<uint64_t> NextRoot(uint32_t shard_id) override;

  /// Submits one transaction per `slots_per_tx` chunk of the unsubmitted
  /// journal suffix, after retiring what the contract's tail covers when
  /// nothing is in flight. Returns the first TxId, or NotFound when
  /// nothing is unsubmitted or a scheduled retry will carry it. Entries
  /// leave the journal only when confirmed (see Tick).
  Result<TxId> SubmitPending();

  /// Drives the state machine one step: reaps confirmed receipts (and
  /// retires the journal prefix the on-chain tail now covers), detects
  /// reverted and timed-out transactions, and issues backed-off,
  /// gas-bumped retries. Call once per mined block (the node's
  /// Stage2Tick, which ShardedDeployment's block pump drives, does so).
  void Tick();

  /// Drops journal entries not yet covered by a submission (the
  /// byzantine omission attack discards exactly the promised digests).
  /// Returns the number discarded.
  size_t DiscardUnsubmitted();

  /// Journal entries not yet covered by an in-flight transaction.
  size_t UnsubmittedDigests() const;
  /// All journal entries (submitted or not) still awaiting confirmation.
  size_t UncommittedDigests() const;
  /// TxIds of every stage-2 transaction submitted so far (incl. retries).
  std::vector<TxId> TxIds() const;
  /// Every submission attempt so far, in order (initial + retries).
  std::vector<Stage2Attempt> attempts() const;
  Stage2SubmitterStats stats() const;

 private:
  struct InFlightTx {
    TxId id = 0;
    uint64_t first_id = 0;  ///< First log id covered.
    uint32_t count = 0;     ///< Number of roots in the calldata.
    uint64_t submitted_block = 0;
    bool mined = false;     ///< Receipt seen, awaiting confirmation depth.
  };

  /// One journalled digest, stamped with its enqueue time so the
  /// confirmation lag (enqueue -> tail coverage) can be measured.
  struct JournalEntry {
    uint64_t log_id = 0;  ///< Slot id.
    Hash256 root{};
    uint32_t leaves = 1;
    Micros enqueued_at = 0;
    uint64_t enqueued_block = 0;
  };

  // All *Locked methods assume mu_ is held.
  Result<TxId> SubmitPendingLocked(const Wei& gas_bid,
                                   const std::string& cause);
  Result<uint64_t> ChainTailLocked() const;
  /// Retires the journal prefix the contract's tail covers, up to the
  /// first slot whose transaction is not yet confirmation-deep.
  void ReconcileWithChainTailLocked();
  Wei BumpedBidLocked(int attempt) const;
  uint64_t BackoffBlocksLocked(int attempt) const;

  const Stage2SubmitterConfig config_;
  const Stage2Stream stream_;
  Blockchain* const chain_;
  const Address sender_;
  const Address root_record_address_;
  Telemetry* const telemetry_;
  // Resolved once at construction; null when telemetry_ is null.
  Counter* submitted_counter_ = nullptr;
  Counter* confirmed_counter_ = nullptr;
  Counter* retried_counter_ = nullptr;
  Counter* timed_out_counter_ = nullptr;
  Counter* reverted_counter_ = nullptr;
  Counter* digests_confirmed_counter_ = nullptr;
  Histogram* confirm_lag_us_hist_ = nullptr;
  Histogram* confirm_lag_blocks_hist_ = nullptr;

  mutable std::mutex mu_;
  /// Pending journal: contiguous slots awaiting confirmed on-chain
  /// commitment.
  std::deque<JournalEntry> journal_;
  /// Journal-prefix entries covered by an in-flight transaction.
  size_t submitted_count_ = 0;
  std::vector<InFlightTx> in_flight_;
  std::vector<TxId> all_tx_ids_;
  std::vector<Stage2Attempt> attempts_;
  /// Retry scheduling after a loss/revert.
  std::string retry_cause_;
  bool retry_pending_ = false;
  uint64_t retry_at_block_ = 0;
  int attempt_ = 1;  ///< Attempt number for the next (re)submission.
  Stage2SubmitterStats stats_;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_CORE_STAGE2_SUBMITTER_H_
