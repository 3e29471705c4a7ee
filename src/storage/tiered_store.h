#ifndef WEDGEBLOCK_STORAGE_TIERED_STORE_H_
#define WEDGEBLOCK_STORAGE_TIERED_STORE_H_

#include <map>

#include "storage/decentralized_archive.h"
#include "telemetry/metrics.h"

namespace wedge {

/// Hot/cold tiered log storage: the Offchain Node keeps only the most
/// recent `hot_capacity` positions in memory; older positions spill to a
/// DecentralizedArchive (the §4.7 persistence layer) and are fetched —
/// and integrity-verified against their recorded Merkle roots — on
/// demand. This bounds the node's local footprint for long-lived logs
/// (the paper's 10M-entry read experiment would hold ~10 GB otherwise)
/// without weakening any guarantee: archive fetches are verified the
/// same way clients verify reads.
class TieredLogStore : public LogStore {
 public:
  /// `archive` must outlive the store. hot_capacity >= 1. With
  /// `metrics`, cold reads bump a `wedge.store.cold_reads` counter and
  /// archive fetches record a wall-clock
  /// `wedge.store.archive_fetch_us` histogram.
  TieredLogStore(size_t hot_capacity, DecentralizedArchive* archive,
                 MetricsRegistry* metrics = nullptr);

  Status Append(const LogPosition& position) override;
  Result<LogPosition> Get(uint64_t log_id) const override;
  Result<SharedBytes> GetEntry(const EntryIndex& index) const override;
  uint64_t Size() const override;
  Status Scan(uint64_t first, uint64_t last,
              const std::function<bool(const LogPosition&)>& callback)
      const override;
  /// Served from the local root index: a root lookup for a cold
  /// position must not cost (or depend on) an archive round trip.
  Result<Hash256> GetRoot(uint64_t log_id) const override;

  /// Positions currently held in the hot tier.
  size_t HotCount() const;
  /// Archive fetches served so far (cold reads).
  uint64_t ColdReads() const;

 private:
  Result<LogPosition> FetchLocked(uint64_t log_id) const;

  const size_t hot_capacity_;
  DecentralizedArchive* const archive_;
  Counter* cold_read_counter_ = nullptr;
  Histogram* fetch_hist_ = nullptr;

  mutable std::mutex mu_;
  std::map<uint64_t, LogPosition> hot_;       // Ordered: eviction = begin().
  std::vector<Hash256> roots_;                // Root index for ALL positions.
  mutable uint64_t cold_reads_ = 0;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_STORAGE_TIERED_STORE_H_
