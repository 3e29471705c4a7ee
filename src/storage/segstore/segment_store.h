#ifndef WEDGEBLOCK_STORAGE_SEGSTORE_SEGMENT_STORE_H_
#define WEDGEBLOCK_STORAGE_SEGSTORE_SEGMENT_STORE_H_

#include <condition_variable>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "storage/segstore/segment.h"
#include "telemetry/metrics.h"

namespace wedge {

/// Segmented durable log store: an active write-ahead log with
/// group-commit, sealed immutable segments with a footer index, and
/// tenant-granularity compaction/GC (see segment.h for on-disk formats
/// and DESIGN.md "Durable storage engine" for the recovery state
/// machine).
///
/// Directory layout:
///   <dir>/wal.log          active WAL (framed kind-0 records)
///   <dir>/seg-<seq>.seg    sealed segments, seq dense from 0
///   <dir>/retired.tenants  persisted GC set (framed u64 list)
///   <dir>/*.tmp            in-flight compaction / retired-set scratch
///                          (removed on recovery)
///
/// Write path: AppendPrepare buffers the framed record into the WAL's
/// stdio stream under the store mutex (cheap — no syscall past the
/// buffer), records its footer row, and returns a durability token.
/// WaitDurable(token) runs the group commit: the first waiter becomes
/// leader, flushes + fdatasyncs everything prepared so far in ONE sync,
/// and releases every waiter it covered together; late waiters piggyback
/// on the in-flight sync or lead the next one. While cohorts form, a
/// leader first lingers 200 µs so the rest of the cohort lands in its
/// window; a solo synchronous appender skips the linger.
/// `wedge.store.group_commit_batch` records how many appends each sync
/// amortized and `wedge.store.group_commit_wait_us` the per-append wait.
/// The plain Append() is prepare + wait (the durable-synchronous
/// degenerate case).
///
/// Read path: a WAL-resident position is served from memory under the
/// store mutex. A sealed read only snapshots its segment (a shared
/// reference, the fd opened and footer loaded on first use) and footer
/// row under the mutex, then does its preads with the mutex released, so
/// no read waits behind another read's I/O and none stalls an append.
/// Get() preads the whole record and checks its frame checksum;
/// GetEntry() preads one entry through the record's end-offset table
/// (ReadPositionEntry) and leaves its integrity to the caller's Merkle
/// leaf check. `wedge.store.read_us` times every GetEntry.
///
/// Visibility: Size()/Get()/Scan() expose only DURABLE positions. A
/// prepared-but-unsynced position is invisible so nothing downstream
/// (epoch aggregation, read proofs) can commit to a root that a crash
/// could still revoke — the caller acks only after WaitDurable returns.
///
/// When the WAL reaches segment_positions or 64 MiB the WAL itself
/// becomes the segment, so each appended byte is written once: the
/// footer rows kept since each record was prepared and the trailer are
/// appended to wal.log, which is fdatasynced and renamed to
/// seg-<seq>.seg; a new wal.log is created, and one directory fsync
/// covers the rename and the new WAL before the seal returns. A crash
/// before the rename leaves a tail that WAL replay drops as torn; a crash
/// after it leaves a complete segment (and, at most, no WAL yet).
/// `wedge.store.seal_us` times each seal and `wedge.store.wal_bytes`
/// gauges the bytes in active WALs.
///
/// Startup is O(segments + WAL tail): one trailer pread per segment plus
/// a replay of the (bounded) active WAL; segment footers are loaded
/// lazily on first read and verified against the trailer checksum.
class SegmentLogStore : public LogStore {
 public:
  enum class Durability {
    /// Group-flush only (no fsync): durable against process crash. The
    /// group leader still batches the fflush, so acks release together.
    kNone,
    /// Group-commit fdatasync: power-loss durable, one sync per batch
    /// window. The default.
    kGroupCommit,
    /// fflush + fsync inline in every AppendPrepare (no coalescing).
    /// The per-append-fsync baseline the storage bench compares against.
    kSyncEachAppend,
  };

  /// Simulated crash points for recovery tests: the store completes the
  /// seal up to the chosen point, then poisons itself (as if the process
  /// died there); the test reopens the directory to exercise recovery.
  enum class CrashPoint {
    kNone,
    kSealAfterTailSync,  ///< Footer+trailer fdatasynced, WAL not renamed.
    kSealAfterRename,    ///< WAL renamed to the segment, no new WAL yet.
  };

  struct Options {
    Durability durability = Durability::kGroupCommit;
    /// Seal the WAL into a segment after this many positions (or 64 MiB
    /// of WAL, whichever comes first).
    uint32_t segment_positions = 256;
    MetricsRegistry* metrics = nullptr;
    CrashPoint crash_point = CrashPoint::kNone;
  };

  /// What recovery found when the directory was opened.
  struct RecoveryInfo {
    uint64_t segments = 0;            ///< Sealed segments discovered.
    uint64_t sealed_positions = 0;    ///< Positions covered by segments.
    uint64_t wal_positions = 0;       ///< Live WAL tail replayed.
    uint64_t wal_truncated_bytes = 0; ///< Torn tail dropped from the WAL.
    uint64_t tmp_files_removed = 0;   ///< Compaction/retired-set scratch.
  };

  struct CompactionStats {
    uint64_t segments_rewritten = 0;
    uint64_t positions_dropped = 0;
    uint64_t bytes_reclaimed = 0;
  };

  /// Opens (creating if needed) the store at directory `dir` and runs
  /// O(segments) recovery.
  static Result<std::unique_ptr<SegmentLogStore>> Open(const std::string& dir,
                                                       const Options& options);

  ~SegmentLogStore() override;

  // LogStore interface. Append == AppendPrepare + WaitDurable.
  Status Append(const LogPosition& position) override;
  Result<uint64_t> AppendPrepare(const LogPosition& position) override;
  Status WaitDurable(uint64_t token) override;
  Result<LogPosition> Get(uint64_t log_id) const override;
  Result<SharedBytes> GetEntry(const EntryIndex& index) const override;
  uint64_t Size() const override;
  Status Scan(uint64_t first, uint64_t last,
              const std::function<bool(const LogPosition&)>& callback)
      const override;
  /// Served from the footer index (or tombstone) without touching the
  /// record payload — a GC'd position still answers, so live
  /// aggregation proofs over retired neighbors keep verifying.
  Result<Hash256> GetRoot(uint64_t log_id) const override;
  Result<uint32_t> GetEntryCount(uint64_t log_id) const override;

  /// Marks every position owned by `tenant` as garbage. Persisted (the
  /// set survives restarts); reclamation happens at the next Compact().
  Status RetireTenant(uint64_t tenant);
  /// Rewrites every sealed segment holding retired tenants' data,
  /// replacing their positions with tombstones (log-id density and all
  /// live records preserved byte-identically). Safe concurrently with
  /// appends and reads.
  Result<CompactionStats> Compact();

  /// Seals the current WAL tail (if non-empty) into a segment now.
  Status SealNow();

  const RecoveryInfo& recovery() const { return recovery_; }
  const Options& options() const { return options_; }
  uint64_t SegmentCount() const;
  std::set<uint64_t> RetiredTenants() const;

 private:
  /// A sealed segment: its trailer plus the runtime state to read it.
  /// EnsureOpenLocked() sets `fd` and the index once, under mu_; after
  /// that nothing changes, so a reader holding a shared reference may use
  /// them with mu_ released (compaction swaps in a new Segment instead).
  struct Segment : SegmentTrailer {
    /// `entries` is the index when a seal or compaction just wrote it;
    /// empty (recovery), EnsureOpenLocked() loads it on first use.
    Segment(std::string path, const SegmentTrailer& trailer,
            std::vector<SegmentIndexEntry> entries = {});
    ~Segment();
    Segment(const Segment&) = delete;
    Segment& operator=(const Segment&) = delete;

    std::string path;
    bool index_loaded = false;
    std::vector<SegmentIndexEntry> entries;
    std::vector<TenantExtent> extents;
    int fd = -1;
  };

  /// What a sealed read needs once mu_ is released: the segment, kept
  /// alive (and its fd open) by the reference, and the record's row.
  struct SealedRecord {
    std::shared_ptr<const Segment> segment;
    SegmentIndexEntry row;
  };

  explicit SegmentLogStore(std::string dir, const Options& options);

  Status RecoverLocked();
  /// Replays wal.log from wal_base_id_, drops a torn tail and opens the
  /// WAL for appends.
  Status ReplayWalLocked();
  /// Opens wal.log for appends, creating it if it does not exist.
  Status OpenWalLocked();
  Status LoadRetiredLocked();
  Status PersistRetiredLocked();

  /// Records `poison` as the store's first unrecoverable failure, wakes
  /// every waiter, and returns it.
  Status PoisonLocked(Status poison);
  /// Writes `position`'s framed record to the WAL stream (no flush) and
  /// tracks it. A short write poisons the store, since stdio cannot roll
  /// a half-record back.
  Status WalWriteLocked(const LogPosition& position);
  /// Adds `position`, whose record of `record_len` bytes was just written
  /// or replayed at the end of the WAL, to the WAL's positions and footer
  /// rows.
  void TrackWalRecordLocked(LogPosition position, uint64_t record_len);
  /// Seals the WAL into a new segment by appending its footer and trailer
  /// and renaming it. Requires no sync in flight. On success a new WAL is
  /// open and empty, durable_count_ covers the sealed range, and the
  /// sealed positions are in `*sealed` (empty on entry) for the caller to
  /// free once mu_ is released.
  Status SealLocked(std::unique_lock<std::mutex>& lock,
                    std::vector<LogPosition>* sealed);
  /// Group-commit: returns once log ids <= token are durable (or the
  /// store failed). See class comment.
  Status WaitDurableLocked(uint64_t token, std::unique_lock<std::mutex>& lock);

  std::shared_ptr<Segment> FindSegmentLocked(uint64_t log_id) const;
  /// Opens the segment's fd and loads its index, each on first use.
  Status EnsureOpenLocked(Segment* segment) const;
  /// Snapshots sealed position `log_id` (below wal_base_id_) for a read
  /// after mu_ is released.
  Result<SealedRecord> SnapshotSealedLocked(uint64_t log_id) const;
  /// Unframed, checksum-verified payload of the record `row` indexes in
  /// the open `segment`. Takes no lock.
  static Result<Bytes> ReadPayload(const Segment& segment,
                                   const SegmentIndexEntry& row);
  /// GetEntry() without its timing.
  Result<SharedBytes> ReadEntry(const EntryIndex& index) const;

  Status CompactSegmentLocked(std::unique_lock<std::mutex>& lock,
                              size_t seg_index, CompactionStats* stats);

  std::string SegmentPath(size_t seq) const;

  const std::string dir_;
  const Options options_;

  Histogram* batch_hist_ = nullptr;
  Histogram* wait_hist_ = nullptr;
  Histogram* sync_hist_ = nullptr;
  Histogram* seal_hist_ = nullptr;
  Histogram* read_hist_ = nullptr;
  Gauge* wal_bytes_gauge_ = nullptr;
  Counter* seals_counter_ = nullptr;
  Counter* compactions_counter_ = nullptr;
  Counter* reclaimed_counter_ = nullptr;

  /// Serializes whole compaction passes (mu_ still guards the state the
  /// pass snapshots and swaps; segment rewrites run with mu_ released).
  std::mutex compact_mu_;
  mutable std::mutex mu_;
  mutable std::condition_variable commit_cv_;
  Status poison_;                 ///< First unrecoverable I/O failure.
  FILE* wal_file_ = nullptr;
  uint64_t wal_bytes_ = 0;        ///< Bytes written to the current WAL.
  uint64_t wal_base_id_ = 0;      ///< Log id of wal_positions_[0].
  std::vector<LogPosition> wal_positions_;
  /// Footer rows of wal_positions_, offsets dense from 0: the index the
  /// WAL is sealed with.
  std::vector<SegmentIndexEntry> wal_index_;
  uint64_t prepared_count_ = 0;   ///< Ids < this are written (maybe buffered).
  uint64_t durable_count_ = 0;    ///< Ids < this are durable & visible.
  bool sync_in_flight_ = false;
  uint64_t last_commit_batch_ = 1;  ///< Cohort size of the previous sync.
  std::vector<std::shared_ptr<Segment>> segments_;
  std::set<uint64_t> retired_;
  RecoveryInfo recovery_;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_STORAGE_SEGSTORE_SEGMENT_STORE_H_
