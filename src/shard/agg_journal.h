#ifndef WEDGEBLOCK_SHARD_AGG_JOURNAL_H_
#define WEDGEBLOCK_SHARD_AGG_JOURNAL_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "storage/framed_log.h"

namespace wedge {

/// One (shard_id, log_id, MRoot) forest leaf as journaled with its epoch.
struct JournalLeaf {
  uint32_t shard_id = 0;
  uint64_t log_id = 0;
  Hash256 mroot{};
};

/// An epoch as recovered from the journal.
struct JournaledEpoch {
  uint64_t epoch = 0;
  Hash256 root{};
  std::vector<JournalLeaf> leaves;
  /// True when a confirm record followed the close record: the epoch's
  /// forest root was seen committed on chain before the crash.
  bool confirmed = false;
};

/// Durable write-ahead journal for EpochRootAggregator. Two record types:
/// an epoch-close record (epoch number, forest root, every leaf), written
/// BEFORE the updateForestRoot transaction is submitted, and an
/// epoch-confirm record, written when the transaction is seen committed.
/// Replaying the journal therefore recovers exactly which sealed batch
/// roots were assigned to which epoch, and which epochs still need their
/// root (re)submitted — the aggregator-side half of crash recovery
/// (ShardedLogEngine::Recover() supplies the shard-side half).
///
/// On disk it is a FramedLog (torn tails truncated on Open, failed
/// appends rolled back, so a retried epoch never lands behind a torn
/// frame). Epoch-close records must arrive with consecutive epoch numbers
/// from 0 (the aggregator's numbering); replay stops at the first record
/// that breaks the sequence, treating it like a torn tail.
///
/// Thread-safe: appends may come from concurrent Tick()/CloseEpoch()
/// paths (the aggregator serializes them under its own mutex anyway).
class AggregatorJournal {
 public:
  /// `fsync` after every record: off by default (each record still
  /// reaches the OS before the append returns) and on for durability
  /// runs.
  using Options = FramedLog::Options;

  /// Opens (creating if needed) the journal at `path`, replaying any
  /// existing records into epochs().
  static Result<std::unique_ptr<AggregatorJournal>> Open(
      const std::string& path, const Options& options);
  static Result<std::unique_ptr<AggregatorJournal>> Open(
      const std::string& path) {
    return Open(path, Options());
  }

  /// Journals the close of `epoch` over `leaves` with forest root `root`.
  /// Epochs must be appended consecutively from the replayed tail.
  Status AppendEpoch(uint64_t epoch, const Hash256& root,
                     const std::vector<JournalLeaf>& leaves);

  /// Journals the on-chain confirmation of a previously closed epoch.
  Status AppendConfirmed(uint64_t epoch);

  /// State replayed by Open(), ordered by epoch number (dense from 0).
  /// Live appends through this object keep it in sync.
  const std::vector<JournaledEpoch>& epochs() const { return epochs_; }

 private:
  AggregatorJournal() = default;

  mutable std::mutex mu_;
  std::vector<JournaledEpoch> epochs_;
  std::unique_ptr<FramedLog> log_;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_SHARD_AGG_JOURNAL_H_
