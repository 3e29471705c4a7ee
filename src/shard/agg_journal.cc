#include "shard/agg_journal.h"

namespace wedge {

namespace {

constexpr uint8_t kRecordEpochClosed = 1;
constexpr uint8_t kRecordEpochConfirmed = 2;

Bytes EncodeEpochClosed(uint64_t epoch, const Hash256& root,
                        const std::vector<JournalLeaf>& leaves) {
  Bytes payload;
  payload.push_back(kRecordEpochClosed);
  PutU64(payload, epoch);
  Append(payload, HashToBytes(root));
  PutU32(payload, static_cast<uint32_t>(leaves.size()));
  for (const JournalLeaf& leaf : leaves) {
    PutU32(payload, leaf.shard_id);
    PutU64(payload, leaf.log_id);
    Append(payload, HashToBytes(leaf.mroot));
  }
  return payload;
}

Bytes EncodeEpochConfirmed(uint64_t epoch) {
  Bytes payload;
  payload.push_back(kRecordEpochConfirmed);
  PutU64(payload, epoch);
  return payload;
}

/// Applies one replayed payload to `epochs`. False = record is well-formed
/// bytes but semantically out of sequence (treated like a torn tail).
bool ApplyPayload(const Bytes& payload, std::vector<JournaledEpoch>* epochs) {
  ByteReader reader(payload);
  auto type_raw = reader.ReadRaw(1);
  if (!type_raw.ok()) return false;
  uint8_t type = type_raw.value()[0];
  if (type == kRecordEpochClosed) {
    JournaledEpoch entry;
    auto epoch = reader.ReadU64();
    if (!epoch.ok() || epoch.value() != epochs->size()) return false;
    entry.epoch = epoch.value();
    auto root_raw = reader.ReadRaw(32);
    if (!root_raw.ok()) return false;
    auto root = HashFromBytes(root_raw.value());
    if (!root.ok()) return false;
    entry.root = root.value();
    auto count = reader.ReadU32();
    if (!count.ok()) return false;
    entry.leaves.reserve(count.value());
    for (uint32_t i = 0; i < count.value(); ++i) {
      JournalLeaf leaf;
      auto shard = reader.ReadU32();
      auto log_id = reader.ReadU64();
      auto mroot_raw = reader.ReadRaw(32);
      if (!shard.ok() || !log_id.ok() || !mroot_raw.ok()) return false;
      auto mroot = HashFromBytes(mroot_raw.value());
      if (!mroot.ok()) return false;
      leaf.shard_id = shard.value();
      leaf.log_id = log_id.value();
      leaf.mroot = mroot.value();
      entry.leaves.push_back(leaf);
    }
    if (!reader.AtEnd()) return false;
    epochs->push_back(std::move(entry));
    return true;
  }
  if (type == kRecordEpochConfirmed) {
    auto epoch = reader.ReadU64();
    if (!epoch.ok() || !reader.AtEnd()) return false;
    if (epoch.value() >= epochs->size()) return false;
    (*epochs)[epoch.value()].confirmed = true;
    return true;
  }
  return false;  // Unknown record type: stop, like a torn tail.
}

}  // namespace

Result<std::unique_ptr<AggregatorJournal>> AggregatorJournal::Open(
    const std::string& path, const Options& options) {
  std::unique_ptr<AggregatorJournal> journal(new AggregatorJournal());
  auto* epochs = &journal->epochs_;
  WEDGE_ASSIGN_OR_RETURN(
      journal->log_,
      FramedLog::Open(path, options, [epochs](Bytes&& payload) {
        return ApplyPayload(payload, epochs);
      }));
  return journal;
}

Status AggregatorJournal::AppendEpoch(uint64_t epoch, const Hash256& root,
                                      const std::vector<JournalLeaf>& leaves) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != epochs_.size()) {
    return Status::FailedPrecondition(
        "journal epochs must be consecutive (got " + std::to_string(epoch) +
        ", expected " + std::to_string(epochs_.size()) + ")");
  }
  WEDGE_RETURN_IF_ERROR(log_->Append(EncodeEpochClosed(epoch, root, leaves)));
  JournaledEpoch entry;
  entry.epoch = epoch;
  entry.root = root;
  entry.leaves = leaves;
  epochs_.push_back(std::move(entry));
  return Status::Ok();
}

Status AggregatorJournal::AppendConfirmed(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch >= epochs_.size()) {
    return Status::FailedPrecondition("confirm for unknown epoch " +
                                      std::to_string(epoch));
  }
  if (epochs_[epoch].confirmed) return Status::Ok();  // Idempotent.
  WEDGE_RETURN_IF_ERROR(log_->Append(EncodeEpochConfirmed(epoch)));
  epochs_[epoch].confirmed = true;
  return Status::Ok();
}

}  // namespace wedge
