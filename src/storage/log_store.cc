#include "storage/log_store.h"

#include "common/clock.h"

namespace wedge {

Bytes LogPosition::Serialize() const {
  Bytes out;
  PutU64(out, log_id);
  PutU32(out, static_cast<uint32_t>(data_list.size()));
  for (const SharedBytes& entry : data_list) PutBytes(out, entry);
  Append(out, HashToBytes(mroot));
  return out;
}

Result<LogPosition> LogPosition::Deserialize(const Bytes& b) {
  ByteReader reader(b);
  LogPosition pos;
  WEDGE_ASSIGN_OR_RETURN(pos.log_id, reader.ReadU64());
  WEDGE_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
  pos.data_list.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WEDGE_ASSIGN_OR_RETURN(Bytes entry, reader.ReadBytes());
    pos.data_list.push_back(std::move(entry));
  }
  WEDGE_ASSIGN_OR_RETURN(Bytes root_raw, reader.ReadRaw(32));
  WEDGE_ASSIGN_OR_RETURN(pos.mroot, HashFromBytes(root_raw));
  if (!reader.AtEnd()) {
    return Status::Corruption("trailing bytes after log position");
  }
  return pos;
}

Status MemoryLogStore::Append(const LogPosition& position) {
  std::lock_guard<std::mutex> lock(mu_);
  if (position.log_id != positions_.size()) {
    return Status::FailedPrecondition("log positions must be consecutive");
  }
  positions_.push_back(position);
  return Status::Ok();
}

Result<LogPosition> MemoryLogStore::Get(uint64_t log_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (log_id >= positions_.size()) {
    return Status::NotFound("log position does not exist");
  }
  return positions_[log_id];
}

Result<SharedBytes> MemoryLogStore::GetEntry(const EntryIndex& index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (index.log_id >= positions_.size()) {
    return Status::NotFound("log position does not exist");
  }
  const LogPosition& pos = positions_[index.log_id];
  if (index.offset >= pos.data_list.size()) {
    return Status::NotFound("entry offset out of range");
  }
  return pos.data_list[index.offset];
}

uint64_t MemoryLogStore::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return positions_.size();
}

Status MemoryLogStore::Scan(
    uint64_t first, uint64_t last,
    const std::function<bool(const LogPosition&)>& callback) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (first > last || last >= positions_.size()) {
    return Status::OutOfRange("scan range outside the log");
  }
  for (uint64_t i = first; i <= last; ++i) {
    if (!callback(positions_[i])) break;
  }
  return Status::Ok();
}

Result<std::unique_ptr<FileLogStore>> FileLogStore::Open(
    const std::string& path, const Options& options) {
  std::unique_ptr<FileLogStore> store(new FileLogStore(options));
  FramedLog::Options log_options;
  log_options.fsync = options.fsync_on_append;
  log_options.fail_after_bytes = options.fail_after_bytes;
  log_options.fsync_hist = store->fsync_hist_;
  auto& positions = store->positions_;
  WEDGE_ASSIGN_OR_RETURN(
      store->log_,
      FramedLog::Open(path, log_options, [&positions](Bytes&& payload) {
        auto pos = LogPosition::Deserialize(payload);
        if (!pos.ok() || pos.value().log_id != positions.size()) return false;
        positions.push_back(std::move(pos).value());
        return true;
      }));
  return store;
}

Status FileLogStore::Append(const LogPosition& position) {
  Stopwatch watch(RealClock::Global());
  std::lock_guard<std::mutex> lock(mu_);
  if (position.log_id != positions_.size()) {
    return Status::FailedPrecondition("log positions must be consecutive");
  }
  WEDGE_RETURN_IF_ERROR(log_->Append(position.Serialize()));
  positions_.push_back(position);
  if (append_hist_ != nullptr) append_hist_->Record(watch.ElapsedMicros());
  return Status::Ok();
}

Result<LogPosition> FileLogStore::Get(uint64_t log_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (log_id >= positions_.size()) {
    return Status::NotFound("log position does not exist");
  }
  return positions_[log_id];
}

Result<SharedBytes> FileLogStore::GetEntry(const EntryIndex& index) const {
  Stopwatch watch(RealClock::Global());
  std::lock_guard<std::mutex> lock(mu_);
  if (index.log_id >= positions_.size()) {
    return Status::NotFound("log position does not exist");
  }
  const LogPosition& pos = positions_[index.log_id];
  if (index.offset >= pos.data_list.size()) {
    return Status::NotFound("entry offset out of range");
  }
  if (read_hist_ != nullptr) read_hist_->Record(watch.ElapsedMicros());
  return pos.data_list[index.offset];
}

uint64_t FileLogStore::Size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return positions_.size();
}

Status FileLogStore::Scan(
    uint64_t first, uint64_t last,
    const std::function<bool(const LogPosition&)>& callback) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (first > last || last >= positions_.size()) {
    return Status::OutOfRange("scan range outside the log");
  }
  for (uint64_t i = first; i <= last; ++i) {
    if (!callback(positions_[i])) break;
  }
  return Status::Ok();
}

Status FileLogStore::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return log_->Flush();
}

ReplicatedLogStore::ReplicatedLogStore(
    std::unique_ptr<LogStore> primary,
    std::vector<std::unique_ptr<LogStore>> followers)
    : primary_(std::move(primary)), followers_(std::move(followers)) {}

Status ReplicatedLogStore::Append(const LogPosition& position) {
  WEDGE_RETURN_IF_ERROR(primary_->Append(position));
  for (auto& follower : followers_) {
    WEDGE_RETURN_IF_ERROR(follower->Append(position));
  }
  return Status::Ok();
}

Result<LogPosition> ReplicatedLogStore::Get(uint64_t log_id) const {
  return primary_->Get(log_id);
}

Result<SharedBytes> ReplicatedLogStore::GetEntry(const EntryIndex& index) const {
  return primary_->GetEntry(index);
}

uint64_t ReplicatedLogStore::Size() const { return primary_->Size(); }

Status ReplicatedLogStore::Scan(
    uint64_t first, uint64_t last,
    const std::function<bool(const LogPosition&)>& callback) const {
  return primary_->Scan(first, last, callback);
}

}  // namespace wedge
