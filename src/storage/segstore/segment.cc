#include "storage/segstore/segment.h"

#include <fcntl.h>
#include <libgen.h>
#include <unistd.h>

#include <cstring>

namespace wedge {

namespace {
/// AppendRequest::Serialize() layout prefix: 20 raw publisher-address
/// bytes at offset 0 (see core/data_model.cc), then a u64 sequence. An
/// entry shorter than that cannot carry a publisher.
constexpr size_t kAddressBytes = 20;
constexpr size_t kMinOwnedEntryBytes = kAddressBytes + 8;

/// Kind-0 body: [u64 log_id][u32 count] precede the end-offset table.
constexpr size_t kPositionHeaderBytes = 1 + 8 + 4;  // With the kind byte.
/// Bytes of a kind-0 frame besides its table and entries: the length
/// prefix, header, root and checksum.
constexpr uint64_t kPositionFrameFixedBytes =
    kFrameOverhead + kPositionHeaderBytes + 32;

uint32_t LoadU32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

/// The position a kind-0 payload holds.
Result<LogPosition> DecodePositionPayload(const Bytes& payload) {
  if (payload.size() < kPositionHeaderBytes + 32) {
    return Status::Corruption("position record too short");
  }
  LogPosition pos;
  pos.log_id = (static_cast<uint64_t>(LoadU32(&payload[1])) << 32) |
               LoadU32(&payload[5]);
  const uint64_t count = LoadU32(&payload[9]);
  const uint64_t entries_at = kPositionHeaderBytes + 4 * count;
  if (entries_at + 32 > payload.size()) {
    return Status::Corruption("entry table does not fit its record");
  }
  const uint64_t entries_bytes = payload.size() - 32 - entries_at;
  const uint8_t* entries = payload.data() + entries_at;
  pos.data_list.reserve(count);
  uint64_t begin = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t end = LoadU32(&payload[kPositionHeaderBytes + 4 * i]);
    if (end < begin || end > entries_bytes) {
      return Status::Corruption("entry end offsets do not fit the record");
    }
    pos.data_list.emplace_back(Bytes(entries + begin, entries + end));
    begin = end;
  }
  if (begin != entries_bytes) {
    return Status::Corruption("entry end offsets do not cover the entries");
  }
  std::memcpy(pos.mroot.data(), entries + entries_bytes, 32);
  return pos;
}

Bytes EncodeFooter(const std::vector<SegmentIndexEntry>& entries,
                   const std::vector<TenantExtent>& extents) {
  Bytes out;
  PutU32(out, static_cast<uint32_t>(entries.size()));
  for (const SegmentIndexEntry& e : entries) {
    PutU64(out, e.offset);
    PutU32(out, e.record_len);
    out.push_back(e.kind);
    PutU64(out, e.owner);
    PutU32(out, e.entry_count);
    Append(out, HashToBytes(e.mroot));
  }
  PutU32(out, static_cast<uint32_t>(extents.size()));
  for (const TenantExtent& x : extents) {
    PutU64(out, x.tenant);
    PutU64(out, x.first_id);
    PutU64(out, x.last_id);
  }
  return out;
}

Bytes EncodeTrailer(const SegmentTrailer& trailer) {
  Bytes out(kSegmentMagic, kSegmentMagic + 4);
  PutU32(out, kSegmentVersion);
  PutU64(out, trailer.base_id);
  PutU32(out, trailer.count);
  PutU64(out, trailer.footer_off);
  PutU32(out, trailer.footer_len);
  Append(out, HashToBytes(trailer.footer_sha));
  return out;
}

Result<SegmentTrailer> DecodeTrailer(const Bytes& raw) {
  if (raw.size() != kSegmentTrailerBytes) {
    return Status::Corruption("segment trailer has wrong size");
  }
  if (std::memcmp(raw.data(), kSegmentMagic, 4) != 0) {
    return Status::Corruption("segment trailer magic mismatch");
  }
  ByteReader reader(raw);
  (void)reader.ReadRaw(4);  // Magic, checked above.
  WEDGE_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kSegmentVersion) {
    return Status::Corruption("unsupported segment version " +
                              std::to_string(version));
  }
  SegmentTrailer t;
  WEDGE_ASSIGN_OR_RETURN(t.base_id, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(t.count, reader.ReadU32());
  WEDGE_ASSIGN_OR_RETURN(t.footer_off, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(t.footer_len, reader.ReadU32());
  WEDGE_ASSIGN_OR_RETURN(Bytes sha_raw, reader.ReadRaw(32));
  WEDGE_ASSIGN_OR_RETURN(t.footer_sha, HashFromBytes(sha_raw));
  return t;
}

}  // namespace

uint64_t EntryOwnerTenant(const SharedBytes& entry) {
  if (entry.size() < kMinOwnedEntryBytes) return kMixedOwnerTenant;
  uint64_t id = 0;
  for (size_t i = 0; i < 8; ++i) {
    id = (id << 8) | entry.data()[i];
  }
  return id;
}

uint64_t PositionOwnerTenant(const LogPosition& position) {
  if (position.data_list.empty()) return kMixedOwnerTenant;
  uint64_t owner = EntryOwnerTenant(position.data_list[0]);
  if (owner == kMixedOwnerTenant) return kMixedOwnerTenant;
  for (size_t i = 1; i < position.data_list.size(); ++i) {
    if (EntryOwnerTenant(position.data_list[i]) != owner) {
      return kMixedOwnerTenant;
    }
  }
  return owner;
}

Bytes EncodePositionPayload(const LogPosition& position) {
  size_t entry_bytes = 0;
  for (const SharedBytes& entry : position.data_list) {
    entry_bytes += entry.size();
  }
  Bytes payload;
  payload.reserve(kPositionHeaderBytes + 4 * position.data_list.size() +
                  entry_bytes + 32);
  payload.push_back(kRecordPosition);
  PutU64(payload, position.log_id);
  PutU32(payload, static_cast<uint32_t>(position.data_list.size()));
  uint32_t end = 0;
  for (const SharedBytes& entry : position.data_list) {
    end += static_cast<uint32_t>(entry.size());
    PutU32(payload, end);
  }
  for (const SharedBytes& entry : position.data_list) {
    Append(payload, entry.get());
  }
  Append(payload, HashToBytes(position.mroot));
  return payload;
}

Bytes EncodeTombstonePayload(uint64_t log_id, uint32_t entry_count,
                             uint64_t owner, const Hash256& mroot) {
  Bytes payload;
  payload.push_back(kRecordTombstone);
  PutU64(payload, log_id);
  PutU32(payload, entry_count);
  PutU64(payload, owner);
  Append(payload, HashToBytes(mroot));
  return payload;
}

Result<DecodedRecord> DecodeRecordPayload(const Bytes& payload) {
  if (payload.empty()) {
    return Status::Corruption("empty segment record payload");
  }
  DecodedRecord out;
  out.kind = payload[0];
  if (out.kind == kRecordPosition) {
    WEDGE_ASSIGN_OR_RETURN(out.position, DecodePositionPayload(payload));
    out.log_id = out.position.log_id;
    out.entry_count = static_cast<uint32_t>(out.position.data_list.size());
    out.owner = PositionOwnerTenant(out.position);
    out.mroot = out.position.mroot;
    return out;
  }
  if (out.kind == kRecordTombstone) {
    Bytes body(payload.begin() + 1, payload.end());
    ByteReader reader(body);
    WEDGE_ASSIGN_OR_RETURN(out.log_id, reader.ReadU64());
    WEDGE_ASSIGN_OR_RETURN(out.entry_count, reader.ReadU32());
    WEDGE_ASSIGN_OR_RETURN(out.owner, reader.ReadU64());
    WEDGE_ASSIGN_OR_RETURN(Bytes root_raw, reader.ReadRaw(32));
    WEDGE_ASSIGN_OR_RETURN(out.mroot, HashFromBytes(root_raw));
    if (!reader.AtEnd()) {
      return Status::Corruption("trailing bytes after tombstone record");
    }
    return out;
  }
  return Status::Corruption("unknown segment record kind " +
                            std::to_string(out.kind));
}

Result<SharedBytes> ReadPositionEntry(int fd, const SegmentIndexEntry& row,
                                      uint32_t offset) {
  if (row.kind == kRecordTombstone) {
    return Status::NotFound("log position was garbage-collected");
  }
  if (offset >= row.entry_count) {
    return Status::NotFound("entry offset out of range");
  }
  const uint64_t table_bytes = 4ull * row.entry_count;
  if (kPositionFrameFixedBytes + table_bytes > row.record_len) {
    return Status::Corruption("entry table does not fit its record");
  }
  const uint64_t entries_bytes =
      row.record_len - kPositionFrameFixedBytes - table_bytes;
  const uint64_t table_at = row.offset + 4 + kPositionHeaderBytes;
  // Entry 0 starts at 0; any other starts where its predecessor ends.
  uint8_t bounds[8];
  const size_t bounds_len = offset == 0 ? 4 : 8;
  const uint64_t bounds_at = table_at + 4ull * offset + 4 - bounds_len;
  if (::pread(fd, bounds, bounds_len, static_cast<off_t>(bounds_at)) !=
      static_cast<ssize_t>(bounds_len)) {
    return Status::IoError("cannot read entry end offsets");
  }
  const uint32_t begin = offset == 0 ? 0 : LoadU32(bounds);
  const uint32_t end = LoadU32(bounds + bounds_len - 4);
  if (begin > end || end > entries_bytes) {
    return Status::Corruption("entry end offsets do not fit the record");
  }
  Bytes entry(end - begin);
  if (!entry.empty() &&
      ::pread(fd, entry.data(), entry.size(),
              static_cast<off_t>(table_at + table_bytes + begin)) !=
          static_cast<ssize_t>(entry.size())) {
    return Status::IoError("cannot read entry bytes");
  }
  return SharedBytes(std::move(entry));
}

Result<std::pair<std::vector<SegmentIndexEntry>, std::vector<TenantExtent>>>
DecodeFooter(const Bytes& footer, uint32_t expect_count) {
  ByteReader reader(footer);
  WEDGE_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  if (count != expect_count) {
    return Status::Corruption("segment footer count mismatch");
  }
  std::vector<SegmentIndexEntry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SegmentIndexEntry e;
    WEDGE_ASSIGN_OR_RETURN(e.offset, reader.ReadU64());
    WEDGE_ASSIGN_OR_RETURN(e.record_len, reader.ReadU32());
    WEDGE_ASSIGN_OR_RETURN(Bytes kind_raw, reader.ReadRaw(1));
    e.kind = kind_raw[0];
    WEDGE_ASSIGN_OR_RETURN(e.owner, reader.ReadU64());
    WEDGE_ASSIGN_OR_RETURN(e.entry_count, reader.ReadU32());
    WEDGE_ASSIGN_OR_RETURN(Bytes root_raw, reader.ReadRaw(32));
    WEDGE_ASSIGN_OR_RETURN(e.mroot, HashFromBytes(root_raw));
    entries.push_back(e);
  }
  WEDGE_ASSIGN_OR_RETURN(uint32_t n_extents, reader.ReadU32());
  std::vector<TenantExtent> extents;
  extents.reserve(n_extents);
  for (uint32_t i = 0; i < n_extents; ++i) {
    TenantExtent x;
    WEDGE_ASSIGN_OR_RETURN(x.tenant, reader.ReadU64());
    WEDGE_ASSIGN_OR_RETURN(x.first_id, reader.ReadU64());
    WEDGE_ASSIGN_OR_RETURN(x.last_id, reader.ReadU64());
    extents.push_back(x);
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after segment footer");
  }
  return std::make_pair(std::move(entries), std::move(extents));
}

std::vector<TenantExtent> BuildExtents(
    const std::vector<SegmentIndexEntry>& entries, uint64_t base_id) {
  std::vector<TenantExtent> extents;
  for (size_t i = 0; i < entries.size(); ++i) {
    uint64_t owner = entries[i].owner;
    if (owner == kMixedOwnerTenant) continue;
    uint64_t id = base_id + i;
    if (!extents.empty() && extents.back().tenant == owner &&
        extents.back().last_id + 1 == id) {
      extents.back().last_id = id;
    } else {
      extents.push_back(TenantExtent{owner, id, id});
    }
  }
  return extents;
}

Bytes EncodeSegmentTail(const std::vector<SegmentIndexEntry>& entries,
                        uint64_t base_id, uint64_t records_end,
                        SegmentTrailer* trailer) {
  Bytes tail = EncodeFooter(entries, BuildExtents(entries, base_id));
  trailer->base_id = base_id;
  trailer->count = static_cast<uint32_t>(entries.size());
  trailer->footer_off = records_end;
  trailer->footer_len = static_cast<uint32_t>(tail.size());
  trailer->footer_sha = Sha256::Digest(tail);
  Append(tail, EncodeTrailer(*trailer));
  return tail;
}

Result<SegmentTrailer> WriteSegmentFile(
    const std::string& path, uint64_t base_id,
    const std::vector<Bytes>& payloads,
    std::vector<SegmentIndexEntry>* entries) {
  if (payloads.size() != entries->size()) {
    return Status::InvalidArgument("payloads/entries size mismatch");
  }
  Bytes file_bytes;
  for (size_t i = 0; i < payloads.size(); ++i) {
    (*entries)[i].offset = file_bytes.size();
    (*entries)[i].record_len =
        static_cast<uint32_t>(payloads[i].size() + kFrameOverhead);
    AppendFrame(file_bytes, payloads[i]);
  }
  SegmentTrailer trailer;
  Append(file_bytes,
         EncodeSegmentTail(*entries, base_id, file_bytes.size(), &trailer));

  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create segment file: " + path);
  }
  size_t written = 0;
  while (written < file_bytes.size()) {
    ssize_t n =
        ::write(fd, file_bytes.data() + written, file_bytes.size() - written);
    if (n <= 0) {
      ::close(fd);
      return Status::IoError("short write to segment file: " + path);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return Status::IoError("fsync failed on segment file: " + path);
  }
  if (::close(fd) != 0) {
    return Status::IoError("close failed on segment file: " + path);
  }
  return trailer;
}

Result<SegmentTrailer> ReadSegmentTrailer(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open segment file: " + path);
  }
  off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < static_cast<off_t>(kSegmentTrailerBytes)) {
    ::close(fd);
    return Status::Corruption("segment file too small for trailer: " + path);
  }
  Bytes raw(kSegmentTrailerBytes);
  ssize_t n = ::pread(fd, raw.data(), raw.size(),
                      size - static_cast<off_t>(kSegmentTrailerBytes));
  ::close(fd);
  if (n != static_cast<ssize_t>(raw.size())) {
    return Status::IoError("cannot read segment trailer: " + path);
  }
  WEDGE_ASSIGN_OR_RETURN(SegmentTrailer trailer, DecodeTrailer(raw));
  if (trailer.file_bytes() != static_cast<uint64_t>(size)) {
    return Status::Corruption("segment trailer does not match file size: " +
                              path);
  }
  return trailer;
}

Status SyncParentDir(const std::string& path) {
  std::string copy = path;
  const char* dir = ::dirname(copy.data());
  int fd = ::open(dir, O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError(std::string("cannot open directory: ") + dir);
  }
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IoError(std::string("fsync failed on directory: ") + dir);
  }
  return Status::Ok();
}

}  // namespace wedge
