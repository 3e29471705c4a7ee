#ifndef WEDGEBLOCK_STORAGE_SEGSTORE_SEGMENT_H_
#define WEDGEBLOCK_STORAGE_SEGSTORE_SEGMENT_H_

#include <cstdio>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "storage/framed_log.h"
#include "storage/log_store.h"

namespace wedge {

/// On-disk formats of the segmented store (src/storage/segstore/).
///
/// Everything durable is built from one framed-record primitive (the
/// FramedLog format the aggregator journal also writes, so torn-tail
/// recovery logic is shared by inspection):
///
///   record  := [u32 payload_len BE][payload][32B sha256(payload)]
///
/// Record payloads are kind-prefixed:
///
///   payload := [u8 kind][body]
///     kind 0 (position):  body = [u64 log_id][u32 count]
///                                count * [u32 entry end offset]
///                                [entry bytes...][32B mroot]
///     kind 1 (tombstone): body = [u64 log_id][u32 entry_count]
///                                [u64 owner_tenant][32B mroot]
///
/// Entry i of a position is bytes [end[i-1], end[i]) of the entry bytes
/// (end[-1] = 0). The table costs 4 bytes per entry, as a length prefix
/// per entry would, and puts every boundary in front of the entries, so
/// ReadPositionEntry reads one entry with two small preads.
///
/// The WAL (`wal.log`) holds only kind-0 records. A sealed segment
/// (`seg-<seq>.seg`) holds one record per position (kind 0, or kind 1
/// after compaction dropped a retired tenant's payload), followed by a
/// footer index and a fixed-size trailer:
///
///   footer  := [u32 count]
///              count * [u64 offset][u32 record_len][u8 kind]
///                      [u64 owner_tenant][u32 entry_count][32B mroot]
///              [u32 n_extents]
///              n_extents * [u64 tenant][u64 first_id][u64 last_id]
///   trailer := [4B "WSGF"][u32 version][u64 base_id][u32 count]
///              [u64 footer_off][u32 footer_len][32B sha256(footer)]
///
/// So a full WAL becomes a segment by appending EncodeSegmentTail() to it
/// and renaming it; compaction writes the same bytes in one go with
/// WriteSegmentFile(). The trailer is exactly kSegmentTrailerBytes long
/// and always the last bytes of the file, so startup recovery learns a
/// segment's id range with a single pread — O(segments) startup, not
/// O(entries). The footer (checksummed by the trailer) is loaded lazily
/// on first read access. A tail appended to a WAL that is never renamed
/// is not a valid frame, so WAL replay drops it as a torn tail.
///
/// Version 2 is the kind-0 layout above. A version-1 segment fails the
/// trailer check, and a version-1 WAL record (a checksum-valid frame that
/// does not decode) makes WAL replay refuse the directory, so neither is
/// ever truncated or misread.

inline constexpr char kSegmentMagic[4] = {'W', 'S', 'G', 'F'};
inline constexpr uint32_t kSegmentVersion = 2;
inline constexpr size_t kSegmentTrailerBytes = 4 + 4 + 8 + 4 + 8 + 4 + 32;

/// Record payload kinds.
inline constexpr uint8_t kRecordPosition = 0;
inline constexpr uint8_t kRecordTombstone = 1;

/// Owner tenant of a position whose entries span multiple tenants (or
/// whose entries are too short to carry a publisher address). Mixed
/// positions are never garbage-collected.
inline constexpr uint64_t kMixedOwnerTenant = ~0ull;

/// Tenant that owns a serialized AppendRequest: the first 8 bytes of the
/// publisher address, which AppendRequest::Serialize places at offset 0.
/// Mirrors PublisherTenant (core/rpc_codec.h) without a core dependency;
/// tests pin the two together.
uint64_t EntryOwnerTenant(const SharedBytes& entry);
/// Owner of a whole position: the common owner of every entry, or
/// kMixedOwnerTenant when entries disagree / are malformed / absent.
uint64_t PositionOwnerTenant(const LogPosition& position);

/// One footer row: everything needed to read (or skip) a record without
/// touching the records region.
struct SegmentIndexEntry {
  uint64_t offset = 0;       ///< Byte offset of the record frame.
  uint32_t record_len = 0;   ///< Whole frame length (incl. framing).
  uint8_t kind = kRecordPosition;
  uint64_t owner = kMixedOwnerTenant;
  uint32_t entry_count = 0;
  Hash256 mroot{};
};

/// Contiguous run of positions owned by one tenant (footer metadata used
/// by compaction to decide cheaply whether a segment holds GC-able data).
struct TenantExtent {
  uint64_t tenant = 0;
  uint64_t first_id = 0;
  uint64_t last_id = 0;
};

/// Trailer contents (the O(1)-readable identity of a sealed segment).
struct SegmentTrailer {
  uint64_t base_id = 0;
  uint32_t count = 0;
  uint64_t footer_off = 0;
  uint32_t footer_len = 0;
  Hash256 footer_sha{};

  /// Size of the whole segment file: records, footer and trailer.
  uint64_t file_bytes() const {
    return footer_off + footer_len + kSegmentTrailerBytes;
  }
};

/// Encodes a kind-0 record payload for `position`.
Bytes EncodePositionPayload(const LogPosition& position);
/// Encodes a kind-1 tombstone payload.
Bytes EncodeTombstonePayload(uint64_t log_id, uint32_t entry_count,
                             uint64_t owner, const Hash256& mroot);

/// Decoded record payload (either kind).
struct DecodedRecord {
  uint8_t kind = kRecordPosition;
  LogPosition position;      ///< Valid when kind == kRecordPosition.
  uint64_t log_id = 0;       ///< Valid for both kinds.
  uint32_t entry_count = 0;  ///< Valid for both kinds.
  uint64_t owner = kMixedOwnerTenant;  ///< Tombstones only (else derived).
  Hash256 mroot{};           ///< Valid for both kinds.
};
Result<DecodedRecord> DecodeRecordPayload(const Bytes& payload);

/// Reads entry `offset` of the record that `row` indexes in the segment
/// open at `fd`: one pread of its two bounding end offsets, then one of
/// its bytes. The frame checksum is not checked (that would need the whole
/// record), so the caller checks the entry against its Merkle leaf.
/// kNotFound for a tombstone or an offset past the entry count;
/// kCorruption when the end offsets do not fit inside `row.record_len`,
/// so a damaged table never reads outside the record.
Result<SharedBytes> ReadPositionEntry(int fd, const SegmentIndexEntry& row,
                                      uint32_t offset);

/// Parses a footer, which must hold `expect_count` rows.
Result<std::pair<std::vector<SegmentIndexEntry>, std::vector<TenantExtent>>>
DecodeFooter(const Bytes& footer, uint32_t expect_count);

/// Computes the per-tenant extents of an index (consecutive same-owner
/// runs; kMixedOwnerTenant runs are excluded).
std::vector<TenantExtent> BuildExtents(
    const std::vector<SegmentIndexEntry>& entries, uint64_t base_id);

/// The footer + trailer that complete a segment whose records, indexed by
/// `entries` (offsets dense from 0), end at byte `records_end`. Fills in
/// `*trailer`.
Bytes EncodeSegmentTail(const std::vector<SegmentIndexEntry>& entries,
                        uint64_t base_id, uint64_t records_end,
                        SegmentTrailer* trailer);

/// Writes a complete sealed segment file (records + footer + trailer) at
/// `path` and fsyncs it. `payloads[i]` is the unframed record payload for
/// `(*entries)[i]`, whose kind/owner/entry_count/mroot the caller filled
/// in; the writer frames each payload and fills in offset/record_len.
/// Returns the trailer written, or typed kIoError on any write/sync
/// failure.
Result<SegmentTrailer> WriteSegmentFile(
    const std::string& path, uint64_t base_id,
    const std::vector<Bytes>& payloads,
    std::vector<SegmentIndexEntry>* entries);

/// Reads and validates the fixed trailer of a sealed segment, including
/// that it accounts for every byte of the file.
Result<SegmentTrailer> ReadSegmentTrailer(const std::string& path);

/// fsyncs the directory containing `path` so a rename into it is durable.
Status SyncParentDir(const std::string& path);

}  // namespace wedge

#endif  // WEDGEBLOCK_STORAGE_SEGSTORE_SEGMENT_H_
