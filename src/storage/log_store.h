#ifndef WEDGEBLOCK_STORAGE_LOG_STORE_H_
#define WEDGEBLOCK_STORAGE_LOG_STORE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/sha256.h"

namespace wedge {

/// One position of the append-only log (paper §4.1): a batch of client
/// data objects plus the Merkle root computed over them.
struct LogPosition {
  uint64_t log_id = 0;            ///< Monotonically increasing position id.
  /// The batched append payloads. SharedBytes so sealing can hand the
  /// same allocation to the store, the Merkle tree and every stage-1
  /// response without copying ~1 KB per entry (copies bump a refcount).
  std::vector<SharedBytes> data_list;
  Hash256 mroot{};                ///< Merkle root over data_list.
};

/// Address of a single entry: which log position and where inside it.
struct EntryIndex {
  uint64_t log_id = 0;
  uint32_t offset = 0;

  bool operator==(const EntryIndex& o) const {
    return log_id == o.log_id && offset == o.offset;
  }
};

/// Abstract append-only store for log positions. Implementations must be
/// thread-safe: the Offchain Node appends from its batching thread while
/// read requests are served concurrently.
class LogStore {
 public:
  virtual ~LogStore() = default;

  /// Appends a position. Positions must arrive with consecutive log_ids
  /// starting at 0; anything else fails with FailedPrecondition. When
  /// Append returns OK the position is durable (to the store's
  /// configured durability level) and visible to readers.
  virtual Status Append(const LogPosition& position) = 0;

  /// Two-phase append for stores with delayed durability (group commit).
  /// AppendPrepare stages the position — subject to the same consecutive
  /// log_id rule — and returns a durability token; the position MUST NOT
  /// be acked (or exposed to aggregation) until WaitDurable(token)
  /// returns OK. The split lets the caller release its sealing-order
  /// ticket between the two calls, so concurrent sealers coalesce into
  /// one group commit instead of serializing a sync each.
  ///
  /// Default: Append() is already durable on return, so prepare == append
  /// and the wait is a no-op.
  virtual Result<uint64_t> AppendPrepare(const LogPosition& position) {
    Status s = Append(position);
    if (!s.ok()) return s;
    return position.log_id;
  }
  /// Blocks until every position up to the token's is durable (or the
  /// store failed — the typed error is returned to every waiter).
  virtual Status WaitDurable(uint64_t /*token*/) { return Status::Ok(); }

  /// Merkle root of a position. Stores that garbage-collect payloads
  /// override this to answer from index metadata, so a GC'd position
  /// still serves the root that live aggregation proofs commit to.
  virtual Result<Hash256> GetRoot(uint64_t log_id) const {
    auto pos = Get(log_id);
    if (!pos.ok()) return pos.status();
    return pos.value().mroot;
  }
  /// Entry count of a position (same GC rationale as GetRoot).
  virtual Result<uint32_t> GetEntryCount(uint64_t log_id) const {
    auto pos = Get(log_id);
    if (!pos.ok()) return pos.status();
    return static_cast<uint32_t>(pos.value().data_list.size());
  }

  /// Fetches a whole position.
  virtual Result<LogPosition> Get(uint64_t log_id) const = 0;

  /// Fetches one entry's payload (a shared reference, not a copy).
  /// kNotFound when the position does not exist (or was
  /// garbage-collected) or `index.offset` is not below its entry count.
  /// Unlike Get(), a store may serve the entry without checking its
  /// whole position's checksum (SegmentLogStore reads just the entry), so
  /// a caller that vouches for the bytes checks them against the
  /// position's Merkle leaf, as OffchainNode::ReadOne does before it
  /// signs.
  virtual Result<SharedBytes> GetEntry(const EntryIndex& index) const = 0;

  /// Number of stored positions.
  virtual uint64_t Size() const = 0;

  /// Visits positions [first, last] in order. Stops early if the callback
  /// returns false.
  virtual Status Scan(
      uint64_t first, uint64_t last,
      const std::function<bool(const LogPosition&)>& callback) const = 0;
};

/// Heap-backed store.
class MemoryLogStore : public LogStore {
 public:
  Status Append(const LogPosition& position) override;
  Result<LogPosition> Get(uint64_t log_id) const override;
  Result<SharedBytes> GetEntry(const EntryIndex& index) const override;
  uint64_t Size() const override;
  Status Scan(uint64_t first, uint64_t last,
              const std::function<bool(const LogPosition&)>& callback)
      const override;

 private:
  mutable std::mutex mu_;
  std::vector<LogPosition> positions_;
};

/// Primary + follower replication (the "replicated" curves in Figures 3
/// and 5): every append is applied to the primary and forwarded to each
/// follower before it is acknowledged.
class ReplicatedLogStore : public LogStore {
 public:
  /// `followers` may be empty (degenerates to the primary alone).
  ReplicatedLogStore(std::unique_ptr<LogStore> primary,
                     std::vector<std::unique_ptr<LogStore>> followers);

  Status Append(const LogPosition& position) override;
  Result<LogPosition> Get(uint64_t log_id) const override;
  Result<SharedBytes> GetEntry(const EntryIndex& index) const override;
  uint64_t Size() const override;
  Status Scan(uint64_t first, uint64_t last,
              const std::function<bool(const LogPosition&)>& callback)
      const override;

  size_t follower_count() const { return followers_.size(); }

 private:
  std::unique_ptr<LogStore> primary_;
  std::vector<std::unique_ptr<LogStore>> followers_;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_STORAGE_LOG_STORE_H_
