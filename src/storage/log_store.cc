#include "storage/log_store.h"

namespace wedge {

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
