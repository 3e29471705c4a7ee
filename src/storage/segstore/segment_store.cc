#include "storage/segstore/segment_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "common/clock.h"

namespace wedge {

namespace {

constexpr char kWalName[] = "wal.log";
constexpr char kRetiredName[] = "retired.tenants";

/// How long a group-commit leader lingers before issuing the sync, once
/// the store sees concurrent appenders: without it a leader elected right
/// after the previous release syncs a half-formed cohort (~half the
/// concurrent appenders per window).
constexpr std::chrono::microseconds kGroupCommitLinger{200};
/// A WAL this large is sealed even below segment_positions.
constexpr uint64_t kSegmentBytes = 64ull << 20;

/// seg-<seq>.seg -> seq, or nullopt-ish failure via bool.
bool ParseSegmentName(const std::string& name, uint64_t* seq) {
  if (name.size() < 9 || name.compare(0, 4, "seg-") != 0 ||
      name.compare(name.size() - 4, 4, ".seg") != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = 4; i < name.size() - 4; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *seq = value;
  return true;
}

bool HasSuffix(const std::string& name, const char* suffix) {
  size_t n = std::strlen(suffix);
  return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
}

}  // namespace

SegmentLogStore::Segment::Segment(std::string path,
                                  const SegmentTrailer& trailer,
                                  std::vector<SegmentIndexEntry> entries)
    : SegmentTrailer(trailer),
      path(std::move(path)),
      index_loaded(!entries.empty()),
      entries(std::move(entries)),
      extents(BuildExtents(this->entries, trailer.base_id)) {}

SegmentLogStore::Segment::~Segment() {
  if (fd >= 0) ::close(fd);
}

SegmentLogStore::SegmentLogStore(std::string dir, const Options& options)
    : dir_(std::move(dir)), options_(options) {
  if (options_.metrics != nullptr) {
    batch_hist_ =
        options_.metrics->GetHistogram("wedge.store.group_commit_batch");
    wait_hist_ =
        options_.metrics->GetHistogram("wedge.store.group_commit_wait_us");
    sync_hist_ =
        options_.metrics->GetHistogram("wedge.store.group_commit_sync_us");
    seal_hist_ = options_.metrics->GetHistogram("wedge.store.seal_us");
    read_hist_ = options_.metrics->GetHistogram("wedge.store.read_us");
    wal_bytes_gauge_ = options_.metrics->GetGauge("wedge.store.wal_bytes");
    seals_counter_ = options_.metrics->GetCounter("wedge.store.seals");
    compactions_counter_ =
        options_.metrics->GetCounter("wedge.store.compactions");
    reclaimed_counter_ =
        options_.metrics->GetCounter("wedge.store.gc_reclaimed_bytes");
  }
}

SegmentLogStore::~SegmentLogStore() {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_file_ != nullptr) {
    std::fflush(wal_file_);
    if (options_.durability == Durability::kGroupCommit) {
      ::fdatasync(fileno(wal_file_));
    }
    std::fclose(wal_file_);
  }
  if (wal_bytes_gauge_ != nullptr) {
    wal_bytes_gauge_->Add(-static_cast<int64_t>(wal_bytes_));
  }
}

std::string SegmentLogStore::SegmentPath(size_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06zu.seg", seq);
  return dir_ + "/" + name;
}

Result<std::unique_ptr<SegmentLogStore>> SegmentLogStore::Open(
    const std::string& dir, const Options& options) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create store directory: " + dir);
  }
  std::unique_ptr<SegmentLogStore> store(new SegmentLogStore(dir, options));
  {
    std::unique_lock<std::mutex> lock(store->mu_);
    WEDGE_RETURN_IF_ERROR(store->RecoverLocked());
  }
  return store;
}

Status SegmentLogStore::RecoverLocked() {
  // Pass 1: directory listing. Interrupted compaction scratch (*.tmp) is
  // deleted — a .tmp was never renamed into place, so the original
  // segment (or retired-tenant file) still holds every byte.
  std::vector<std::pair<uint64_t, std::string>> seg_names;
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) {
    return Status::IoError("cannot open store directory: " + dir_);
  }
  while (struct dirent* ent = ::readdir(d)) {
    std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    if (HasSuffix(name, ".tmp")) {
      ::unlink((dir_ + "/" + name).c_str());
      ++recovery_.tmp_files_removed;
      continue;
    }
    uint64_t seq = 0;
    if (ParseSegmentName(name, &seq)) {
      seg_names.emplace_back(seq, dir_ + "/" + name);
    }
  }
  ::closedir(d);

  // Pass 2: one trailer pread per segment — O(segments), no entry replay.
  std::sort(seg_names.begin(), seg_names.end());
  uint64_t next_base = 0;
  for (size_t i = 0; i < seg_names.size(); ++i) {
    if (seg_names[i].first != i) {
      return Status::Corruption("segment sequence gap at " +
                                seg_names[i].second);
    }
    WEDGE_ASSIGN_OR_RETURN(SegmentTrailer trailer,
                           ReadSegmentTrailer(seg_names[i].second));
    if (trailer.base_id != next_base) {
      return Status::Corruption("segment id gap at " + seg_names[i].second);
    }
    next_base = trailer.base_id + trailer.count;
    segments_.push_back(
        std::make_shared<Segment>(std::move(seg_names[i].second), trailer));
  }
  recovery_.segments = segments_.size();
  recovery_.sealed_positions = next_base;

  // Pass 3: replay the (bounded) WAL tail past the sealed range.
  wal_base_id_ = next_base;
  WEDGE_RETURN_IF_ERROR(ReplayWalLocked());
  prepared_count_ = next_base + wal_positions_.size();
  durable_count_ = prepared_count_;
  recovery_.wal_positions = wal_positions_.size();

  return LoadRetiredLocked();
}

Status SegmentLogStore::ReplayWalLocked() {
  const std::string path = dir_ + "/" + kWalName;
  FILE* replay = std::fopen(path.c_str(), "rb");
  if (replay == nullptr) {
    // No WAL: a fresh store, or a crash between a seal's rename and its
    // new WAL. The latter finishes the seal: the new WAL's directory entry
    // is synced before any append into it can be acked. (A fresh store's
    // own directory is not synced into its parent either.)
    WEDGE_RETURN_IF_ERROR(OpenWalLocked());
    return segments_.empty() ? Status::Ok() : SyncParentDir(path);
  }
  // Replay ends at the first torn or checksum-failing frame (a crashed
  // append, or the footer of a seal that crashed before its rename),
  // which is truncated below. An intact frame that is not the next
  // position record (another layout version, or a log id out of order)
  // was written and acked as it is, so the store refuses to open rather
  // than truncate it with everything after it.
  Status refused;
  const long valid_end = ReplayFrames(replay, [&](Bytes&& payload) {
    const uint64_t record_len = payload.size() + kFrameOverhead;
    const uint64_t want_id = wal_base_id_ + wal_positions_.size();
    auto decoded = DecodeRecordPayload(payload);
    if (!decoded.ok() || decoded.value().kind != kRecordPosition ||
        decoded.value().log_id != want_id) {
      refused = Status::Corruption("intact WAL record is not position " +
                                   std::to_string(want_id) + ": " + path);
      return false;
    }
    TrackWalRecordLocked(std::move(decoded).value().position, record_len);
    return true;
  });
  std::fseek(replay, 0, SEEK_END);
  const long file_end = std::ftell(replay);
  std::fclose(replay);
  WEDGE_RETURN_IF_ERROR(refused);
  if (file_end > valid_end) {
    recovery_.wal_truncated_bytes = static_cast<uint64_t>(file_end - valid_end);
    // Appends go to the end of the file, so the tail must really go.
    if (::truncate(path.c_str(), valid_end) != 0) {
      return Status::IoError("cannot truncate torn WAL tail: " + path);
    }
  }
  return OpenWalLocked();
}

Status SegmentLogStore::OpenWalLocked() {
  const std::string path = dir_ + "/" + kWalName;
  FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IoError("cannot open WAL: " + path);
  }
  std::setvbuf(f, nullptr, _IOFBF, 1 << 20);
  wal_file_ = f;
  return Status::Ok();
}

Status SegmentLogStore::LoadRetiredLocked() {
  const std::string path = dir_ + "/" + kRetiredName;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::Ok();  // Nothing retired yet.
  std::optional<Bytes> payload;
  ReplayFrames(f, [&payload](Bytes&& frame_payload) {
    payload = std::move(frame_payload);
    return false;  // The file holds exactly one frame.
  });
  std::fclose(f);
  if (!payload.has_value()) {
    return Status::Corruption("retired-tenant file is corrupt: " + path);
  }
  ByteReader reader(*payload);
  WEDGE_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  for (uint32_t i = 0; i < count; ++i) {
    WEDGE_ASSIGN_OR_RETURN(uint64_t tenant, reader.ReadU64());
    retired_.insert(tenant);
  }
  return Status::Ok();
}

Status SegmentLogStore::PersistRetiredLocked() {
  const std::string path = dir_ + "/" + kRetiredName;
  const std::string tmp = path + ".tmp";
  Bytes payload;
  PutU32(payload, static_cast<uint32_t>(retired_.size()));
  for (uint64_t tenant : retired_) PutU64(payload, tenant);
  Bytes record;
  AppendFrame(record, payload);
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError("cannot create retired-tenant file: " + tmp);
  }
  if (std::fwrite(record.data(), 1, record.size(), f) != record.size() ||
      std::fflush(f) != 0 || ::fdatasync(fileno(f)) != 0) {
    std::fclose(f);
    return Status::IoError("cannot write retired-tenant file: " + tmp);
  }
  std::fclose(f);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot rename retired-tenant file into place");
  }
  return SyncParentDir(path);
}

Status SegmentLogStore::PoisonLocked(Status poison) {
  poison_ = std::move(poison);
  commit_cv_.notify_all();
  return poison_;
}

Status SegmentLogStore::WalWriteLocked(const LogPosition& position) {
  Bytes record;
  AppendFrame(record, EncodePositionPayload(position));
  if (std::fwrite(record.data(), 1, record.size(), wal_file_) !=
      record.size()) {
    // A partial frame may now sit in the stdio buffer where later appends
    // would land behind it; there is no clean rollback through stdio, so
    // fail the store (crash-equivalent: recovery truncates the torn tail,
    // and nothing unacked was ever exposed).
    return PoisonLocked(
        Status::IoError("short write to WAL; store is read-only"));
  }
  TrackWalRecordLocked(position, record.size());
  return Status::Ok();
}

void SegmentLogStore::TrackWalRecordLocked(LogPosition position,
                                           uint64_t record_len) {
  SegmentIndexEntry row;
  row.offset = wal_bytes_;
  row.record_len = static_cast<uint32_t>(record_len);
  row.kind = kRecordPosition;
  row.owner = PositionOwnerTenant(position);
  row.entry_count = static_cast<uint32_t>(position.data_list.size());
  row.mroot = position.mroot;
  wal_index_.push_back(row);
  wal_positions_.push_back(std::move(position));
  wal_bytes_ += record_len;
  if (wal_bytes_gauge_ != nullptr) {
    wal_bytes_gauge_->Add(static_cast<int64_t>(record_len));
  }
}

Result<uint64_t> SegmentLogStore::AppendPrepare(const LogPosition& position) {
  // Declared before the lock, so the positions a seal hands over are freed
  // after mu_ is released: a full WAL holds tens of thousands of entry
  // buffers, and freeing them takes milliseconds.
  std::vector<LogPosition> sealed;
  std::unique_lock<std::mutex> lock(mu_);
  WEDGE_RETURN_IF_ERROR(poison_);
  if (position.log_id != prepared_count_) {
    return Status::FailedPrecondition("log positions must be consecutive");
  }
  WEDGE_RETURN_IF_ERROR(WalWriteLocked(position));
  ++prepared_count_;

  if (options_.durability == Durability::kSyncEachAppend) {
    if (std::fflush(wal_file_) != 0 || ::fsync(fileno(wal_file_)) != 0) {
      return PoisonLocked(
          Status::IoError("WAL sync failed; store is read-only"));
    }
    durable_count_ = prepared_count_;
  }

  if (wal_positions_.size() >= options_.segment_positions ||
      wal_bytes_ >= kSegmentBytes) {
    WEDGE_RETURN_IF_ERROR(SealLocked(lock, &sealed));
  }
  return position.log_id;
}

Status SegmentLogStore::WaitDurable(uint64_t token) {
  std::unique_lock<std::mutex> lock(mu_);
  return WaitDurableLocked(token, lock);
}

Status SegmentLogStore::WaitDurableLocked(uint64_t token,
                                          std::unique_lock<std::mutex>& lock) {
  if (token >= prepared_count_) {
    return Status::InvalidArgument("WaitDurable token was never prepared");
  }
  Stopwatch wait_watch(RealClock::Global());
  while (durable_count_ <= token) {
    WEDGE_RETURN_IF_ERROR(poison_);
    if (!sync_in_flight_) {
      // Leader: one flush (+ fdatasync) covers every append prepared so
      // far; the whole cohort's acks release together below. When the
      // store is seeing concurrent appenders (a cohort formed last
      // window, or more than our own append is already outstanding), the
      // leader lingers briefly first so the rest of the cohort — threads
      // released by the previous sync that haven't re-prepared yet —
      // lands in this window instead of splitting it in half. A solo
      // synchronous appender never observes a cohort, so it skips the
      // linger and keeps bare per-append sync latency.
      sync_in_flight_ = true;
      const bool cohort_active =
          last_commit_batch_ > 1 || prepared_count_ - durable_count_ > 1;
      if (options_.durability == Durability::kGroupCommit && cohort_active) {
        lock.unlock();
        std::this_thread::sleep_for(kGroupCommitLinger);
        lock.lock();
        if (!poison_.ok()) {
          sync_in_flight_ = false;
          commit_cv_.notify_all();
          return poison_;
        }
      }
      const uint64_t target = prepared_count_;
      const uint64_t prev_durable = durable_count_;
      FILE* f = wal_file_;
      lock.unlock();
      Stopwatch sync_watch(RealClock::Global());
      bool ok = std::fflush(f) == 0;
      if (ok && options_.durability == Durability::kGroupCommit) {
        ok = ::fdatasync(fileno(f)) == 0;
      }
      const int64_t sync_us = sync_watch.ElapsedMicros();
      lock.lock();
      sync_in_flight_ = false;
      if (!ok) {
        return PoisonLocked(
            Status::IoError("group commit sync failed; store is read-only"));
      }
      durable_count_ = std::max(durable_count_, target);
      if (durable_count_ > prev_durable) {
        last_commit_batch_ = durable_count_ - prev_durable;
        if (batch_hist_ != nullptr) {
          batch_hist_->Record(static_cast<int64_t>(last_commit_batch_));
        }
      }
      if (sync_hist_ != nullptr) sync_hist_->Record(sync_us);
      commit_cv_.notify_all();
    } else {
      commit_cv_.wait(lock);
    }
  }
  if (wait_hist_ != nullptr) wait_hist_->Record(wait_watch.ElapsedMicros());
  return Status::Ok();
}

Status SegmentLogStore::Append(const LogPosition& position) {
  WEDGE_ASSIGN_OR_RETURN(uint64_t token, AppendPrepare(position));
  return WaitDurable(token);
}

Status SegmentLogStore::SealLocked(std::unique_lock<std::mutex>& lock,
                                   std::vector<LogPosition>* sealed) {
  Stopwatch seal_watch(RealClock::Global());
  // A sync in flight is reading the WAL stream concurrently; wait it out
  // (syncs are bounded, and nothing new can start while we hold mu_).
  commit_cv_.wait(lock, [this] { return !sync_in_flight_; });
  WEDGE_RETURN_IF_ERROR(poison_);
  if (wal_positions_.empty()) return Status::Ok();

  // The WAL's records already sit at the offsets of wal_index_, so a
  // footer and trailer make it a complete segment.
  SegmentTrailer trailer;
  const Bytes tail =
      EncodeSegmentTail(wal_index_, wal_base_id_, wal_bytes_, &trailer);
  if (std::fwrite(tail.data(), 1, tail.size(), wal_file_) != tail.size() ||
      std::fflush(wal_file_) != 0 || ::fdatasync(fileno(wal_file_)) != 0) {
    return PoisonLocked(Status::IoError("cannot write segment tail to WAL"));
  }
  if (options_.crash_point == CrashPoint::kSealAfterTailSync) {
    return PoisonLocked(
        Status::Internal("simulated crash after sealing the WAL tail"));
  }

  // Until this rename, recovery replays the WAL and drops the tail.
  const std::string wal_path = dir_ + "/" + kWalName;
  std::string seg_path = SegmentPath(segments_.size());
  if (::rename(wal_path.c_str(), seg_path.c_str()) != 0) {
    return PoisonLocked(Status::IoError("cannot rename WAL to " + seg_path));
  }
  if (options_.crash_point == CrashPoint::kSealAfterRename) {
    return PoisonLocked(
        Status::Internal("simulated crash after renaming the WAL"));
  }

  // One directory sync covers the rename and the new WAL's entry, before
  // any append into the new WAL can be acked.
  std::fclose(wal_file_);
  wal_file_ = nullptr;
  Status opened = OpenWalLocked();
  if (opened.ok()) opened = SyncParentDir(wal_path);
  if (!opened.ok()) return PoisonLocked(opened);

  // The segment owns [base_id, base_id + count), all of it fsynced, so
  // every group-commit waiter in that range is satisfied.
  durable_count_ = std::max(durable_count_, wal_base_id_ + trailer.count);
  wal_base_id_ += trailer.count;
  sealed->swap(wal_positions_);
  segments_.push_back(std::make_shared<Segment>(
      std::move(seg_path), trailer, std::exchange(wal_index_, {})));
  if (wal_bytes_gauge_ != nullptr) {
    wal_bytes_gauge_->Add(-static_cast<int64_t>(wal_bytes_));
  }
  wal_bytes_ = 0;
  if (seals_counter_ != nullptr) seals_counter_->Add(1);
  if (seal_hist_ != nullptr) seal_hist_->Record(seal_watch.ElapsedMicros());
  commit_cv_.notify_all();
  return Status::Ok();
}

Status SegmentLogStore::SealNow() {
  std::vector<LogPosition> sealed;  // Freed unlocked, as in AppendPrepare.
  std::unique_lock<std::mutex> lock(mu_);
  WEDGE_RETURN_IF_ERROR(poison_);
  return SealLocked(lock, &sealed);
}

std::shared_ptr<SegmentLogStore::Segment> SegmentLogStore::FindSegmentLocked(
    uint64_t log_id) const {
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), log_id,
      [](uint64_t id, const std::shared_ptr<Segment>& s) {
        return id < s->base_id;
      });
  if (it == segments_.begin()) return nullptr;
  const std::shared_ptr<Segment>& seg = *std::prev(it);
  if (log_id >= seg->base_id + seg->count) return nullptr;
  return seg;
}

Status SegmentLogStore::EnsureOpenLocked(Segment* segment) const {
  if (segment->fd < 0) {
    segment->fd = ::open(segment->path.c_str(), O_RDONLY);
    if (segment->fd < 0) {
      return Status::IoError("cannot open segment: " + segment->path);
    }
  }
  if (segment->index_loaded) return Status::Ok();
  Bytes footer(segment->footer_len);
  ssize_t n = ::pread(segment->fd, footer.data(), footer.size(),
                      static_cast<off_t>(segment->footer_off));
  if (n != static_cast<ssize_t>(footer.size())) {
    return Status::IoError("cannot read segment footer: " + segment->path);
  }
  if (Sha256::Digest(footer) != segment->footer_sha) {
    return Status::Corruption("segment footer checksum mismatch: " +
                              segment->path);
  }
  WEDGE_ASSIGN_OR_RETURN(auto decoded, DecodeFooter(footer, segment->count));
  segment->entries = std::move(decoded.first);
  segment->extents = std::move(decoded.second);
  segment->index_loaded = true;
  return Status::Ok();
}

Result<SegmentLogStore::SealedRecord> SegmentLogStore::SnapshotSealedLocked(
    uint64_t log_id) const {
  std::shared_ptr<Segment> seg = FindSegmentLocked(log_id);
  if (seg == nullptr) {
    return Status::NotFound("log position does not exist");
  }
  WEDGE_RETURN_IF_ERROR(EnsureOpenLocked(seg.get()));
  const SegmentIndexEntry row = seg->entries[log_id - seg->base_id];
  return SealedRecord{std::move(seg), row};
}

Result<Bytes> SegmentLogStore::ReadPayload(const Segment& segment,
                                           const SegmentIndexEntry& row) {
  Bytes frame(row.record_len);
  ssize_t n = ::pread(segment.fd, frame.data(), frame.size(),
                      static_cast<off_t>(row.offset));
  if (n != static_cast<ssize_t>(frame.size())) {
    return Status::IoError("cannot read segment record: " + segment.path);
  }
  Result<Bytes> payload = DecodeFrame(frame);
  if (!payload.ok()) {
    return Status::Corruption("segment record: " +
                              payload.status().ToString() + ": " +
                              segment.path);
  }
  return payload;
}

Result<LogPosition> SegmentLogStore::Get(uint64_t log_id) const {
  SealedRecord sealed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (log_id >= durable_count_) {
      return Status::NotFound("log position does not exist");
    }
    if (log_id >= wal_base_id_) {
      return wal_positions_[log_id - wal_base_id_];
    }
    WEDGE_ASSIGN_OR_RETURN(sealed, SnapshotSealedLocked(log_id));
  }
  WEDGE_ASSIGN_OR_RETURN(Bytes payload,
                         ReadPayload(*sealed.segment, sealed.row));
  WEDGE_ASSIGN_OR_RETURN(DecodedRecord record, DecodeRecordPayload(payload));
  if (record.log_id != log_id) {
    return Status::Corruption("segment record id mismatch");
  }
  if (record.kind == kRecordTombstone) {
    return Status::NotFound("log position was garbage-collected");
  }
  return std::move(record.position);
}

Result<SharedBytes> SegmentLogStore::GetEntry(const EntryIndex& index) const {
  Stopwatch watch(RealClock::Global());
  Result<SharedBytes> entry = ReadEntry(index);
  if (read_hist_ != nullptr) read_hist_->Record(watch.ElapsedMicros());
  return entry;
}

Result<SharedBytes> SegmentLogStore::ReadEntry(const EntryIndex& index) const {
  SealedRecord sealed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (index.log_id >= durable_count_) {
      return Status::NotFound("log position does not exist");
    }
    if (index.log_id >= wal_base_id_) {
      const LogPosition& pos = wal_positions_[index.log_id - wal_base_id_];
      if (index.offset >= pos.data_list.size()) {
        return Status::NotFound("entry offset out of range");
      }
      return pos.data_list[index.offset];
    }
    WEDGE_ASSIGN_OR_RETURN(sealed, SnapshotSealedLocked(index.log_id));
  }
  Result<SharedBytes> entry =
      ReadPositionEntry(sealed.segment->fd, sealed.row, index.offset);
  if (!entry.ok() && entry.status().code() != Code::kNotFound) {
    return Status(entry.status().code(),
                  entry.status().message() + ": " + sealed.segment->path);
  }
  return entry;
}

uint64_t SegmentLogStore::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_count_;
}

Status SegmentLogStore::Scan(
    uint64_t first, uint64_t last,
    const std::function<bool(const LogPosition&)>& callback) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (first > last || last >= durable_count_) {
      return Status::OutOfRange("scan range outside the log");
    }
  }
  for (uint64_t id = first; id <= last; ++id) {
    auto pos = Get(id);
    if (!pos.ok()) {
      // GC'd positions are simply absent from a scan.
      if (pos.status().code() == Code::kNotFound) continue;
      return pos.status();
    }
    if (!callback(pos.value())) break;
  }
  return Status::Ok();
}

Result<Hash256> SegmentLogStore::GetRoot(uint64_t log_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (log_id >= durable_count_) {
    return Status::NotFound("log position does not exist");
  }
  if (log_id >= wal_base_id_) {
    return wal_positions_[log_id - wal_base_id_].mroot;
  }
  std::shared_ptr<Segment> seg = FindSegmentLocked(log_id);
  if (seg == nullptr) {
    return Status::NotFound("log position does not exist");
  }
  // Footer-only: no payload read, and tombstones still answer (live
  // aggregation proofs over GC'd neighbors must keep verifying).
  WEDGE_RETURN_IF_ERROR(EnsureOpenLocked(seg.get()));
  return seg->entries[log_id - seg->base_id].mroot;
}

Result<uint32_t> SegmentLogStore::GetEntryCount(uint64_t log_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (log_id >= durable_count_) {
    return Status::NotFound("log position does not exist");
  }
  if (log_id >= wal_base_id_) {
    return static_cast<uint32_t>(
        wal_positions_[log_id - wal_base_id_].data_list.size());
  }
  std::shared_ptr<Segment> seg = FindSegmentLocked(log_id);
  if (seg == nullptr) {
    return Status::NotFound("log position does not exist");
  }
  WEDGE_RETURN_IF_ERROR(EnsureOpenLocked(seg.get()));
  return seg->entries[log_id - seg->base_id].entry_count;
}

uint64_t SegmentLogStore::SegmentCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

std::set<uint64_t> SegmentLogStore::RetiredTenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retired_;
}

Status SegmentLogStore::RetireTenant(uint64_t tenant) {
  if (tenant == kMixedOwnerTenant) {
    return Status::InvalidArgument("cannot retire the mixed-owner tenant");
  }
  std::lock_guard<std::mutex> lock(mu_);
  WEDGE_RETURN_IF_ERROR(poison_);
  if (!retired_.insert(tenant).second) return Status::Ok();
  return PersistRetiredLocked();
}

Status SegmentLogStore::CompactSegmentLocked(
    std::unique_lock<std::mutex>& lock, size_t seg_index,
    CompactionStats* stats) {
  std::shared_ptr<Segment> old_seg = segments_[seg_index];
  WEDGE_RETURN_IF_ERROR(EnsureOpenLocked(old_seg.get()));

  // Does this segment hold any live (kind-0) position of a retired
  // tenant? Extents answer without scanning when no owner matches.
  bool needs = false;
  for (const TenantExtent& x : old_seg->extents) {
    if (retired_.count(x.tenant) == 0) continue;
    for (uint64_t id = x.first_id; id <= x.last_id; ++id) {
      if (old_seg->entries[id - old_seg->base_id].kind == kRecordPosition) {
        needs = true;
        break;
      }
    }
    if (needs) break;
  }
  if (!needs) return Status::Ok();

  // Retired positions become tombstones that keep id/root/count for
  // proof continuity (decided under mu_, which guards retired_).
  std::vector<SegmentIndexEntry> entries = old_seg->entries;
  uint64_t dropped = 0;
  for (SegmentIndexEntry& e : entries) {
    if (e.kind == kRecordPosition && retired_.count(e.owner) != 0) {
      e.kind = kRecordTombstone;
      ++dropped;
    }
  }

  // Read and rewrite with mu_ released: the source segment is immutable,
  // readers keep using its still-open fd even after the rename replaces
  // the directory entry, and compact_mu_ keeps other passes out. Live
  // records are copied byte-identically (raw payload bytes, no
  // re-serialization).
  const std::string tmp_path = old_seg->path + ".tmp";
  const std::string final_path = old_seg->path;
  const uint64_t base_id = old_seg->base_id;
  lock.unlock();
  auto rewrite = [&]() -> Result<SegmentTrailer> {
    std::vector<Bytes> payloads;
    payloads.reserve(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      const SegmentIndexEntry& e = entries[i];
      if (e.kind != old_seg->entries[i].kind) {
        payloads.push_back(EncodeTombstonePayload(base_id + i, e.entry_count,
                                                  e.owner, e.mroot));
        continue;
      }
      WEDGE_ASSIGN_OR_RETURN(Bytes payload,
                             ReadPayload(*old_seg, old_seg->entries[i]));
      payloads.push_back(std::move(payload));
    }
    return WriteSegmentFile(tmp_path, base_id, payloads, &entries);
  };
  Result<SegmentTrailer> written = rewrite();
  Status placed = written.status();
  if (placed.ok() && ::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    placed = Status::IoError("cannot rename compacted segment into place");
  }
  if (placed.ok()) placed = SyncParentDir(final_path);
  lock.lock();
  if (!placed.ok()) {
    ::unlink(tmp_path.c_str());
    return placed;
  }
  auto seg = std::make_shared<Segment>(final_path, written.value(),
                                       std::move(entries));

  stats->segments_rewritten += 1;
  stats->positions_dropped += dropped;
  if (old_seg->file_bytes() > seg->file_bytes()) {
    stats->bytes_reclaimed += old_seg->file_bytes() - seg->file_bytes();
  }
  segments_[seg_index] = std::move(seg);
  return Status::Ok();
}

Result<SegmentLogStore::CompactionStats> SegmentLogStore::Compact() {
  std::lock_guard<std::mutex> serialize(compact_mu_);
  CompactionStats stats;
  std::unique_lock<std::mutex> lock(mu_);
  WEDGE_RETURN_IF_ERROR(poison_);
  if (retired_.empty()) return stats;
  // segments_ only grows at the tail (seals) while mu_ is dropped inside
  // CompactSegmentLocked, and compact_mu_ excludes concurrent passes, so
  // a stable index walk visits every pre-existing segment exactly once.
  for (size_t i = 0; i < segments_.size(); ++i) {
    WEDGE_RETURN_IF_ERROR(CompactSegmentLocked(lock, i, &stats));
  }
  if (compactions_counter_ != nullptr && stats.segments_rewritten > 0) {
    compactions_counter_->Add(1);
  }
  if (reclaimed_counter_ != nullptr) {
    reclaimed_counter_->Add(static_cast<int64_t>(stats.bytes_reclaimed));
  }
  return stats;
}

}  // namespace wedge
