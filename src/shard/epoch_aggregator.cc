#include "shard/epoch_aggregator.h"

#include <algorithm>
#include <tuple>

#include "contracts/root_record.h"

namespace wedge {

namespace {

uint64_t PositionKey(uint32_t shard_id, uint64_t log_id) {
  // Shard counts are tiny; log ids never plausibly reach 2^56.
  return (log_id << 8) | (shard_id & 0xFF);
}

}  // namespace

EpochRootAggregator::EpochRootAggregator(uint32_t num_shards,
                                         KeyPair engine_key,
                                         Blockchain* chain,
                                         const Address& root_record_address,
                                         const Stage2SubmitterConfig& stage2,
                                         Telemetry* telemetry)
    : key_(std::move(engine_key)),
      chain_(chain),
      telemetry_(telemetry),
      roots_staged_counter_(
          telemetry->metrics.GetCounter("wedge.engine.roots_staged")),
      epochs_closed_counter_(
          telemetry->metrics.GetCounter("wedge.engine.epochs_closed")),
      agg_lag_hist_(
          telemetry->metrics.GetHistogram("wedge.engine.agg_lag_us")),
      epoch_leaves_hist_(
          telemetry->metrics.GetHistogram("wedge.engine.epoch_leaves")),
      submitter_(stage2, chain, key_.address(), root_record_address,
                 telemetry, kForestStream),
      next_root_(num_shards, 0) {}

Micros EpochRootAggregator::Now() const {
  return chain_ != nullptr ? chain_->clock()->NowMicros()
                           : RealClock::Global()->NowMicros();
}

Status EpochRootAggregator::TakeRoot(uint32_t shard_id, uint64_t log_id,
                                     const Hash256& root) {
  Micros now = Now();
  std::lock_guard<std::mutex> lock(staged_mu_);
  if (shard_id >= next_root_.size() || log_id != next_root_[shard_id]) {
    return Status::InvalidArgument("shard " + std::to_string(shard_id) +
                                   " handed log " + std::to_string(log_id) +
                                   " out of order");
  }
  staged_.push_back(StagedRoot{shard_id, log_id, root, now});
  next_root_[shard_id] = log_id + 1;
  roots_staged_counter_->Add(1);
  return Status::Ok();
}

Result<uint64_t> EpochRootAggregator::NextRoot(uint32_t shard_id) {
  std::lock_guard<std::mutex> lock(staged_mu_);
  if (shard_id >= next_root_.size()) {
    return Status::InvalidArgument("unknown shard");
  }
  return next_root_[shard_id];
}

Result<EpochRootAggregator::EpochRecord> EpochRootAggregator::MakeEpoch(
    std::vector<StagedRoot> leaves) {
  std::vector<Bytes> leaf_bytes;
  leaf_bytes.reserve(leaves.size());
  for (const StagedRoot& leaf : leaves) {
    leaf_bytes.push_back(
        ForestLeafBytes(leaf.shard_id, leaf.log_id, leaf.mroot));
  }
  WEDGE_ASSIGN_OR_RETURN(MerkleTree tree, MerkleTree::Build(leaf_bytes));
  EpochRecord record;
  record.leaves = std::move(leaves);
  record.root = tree.Root();
  record.tree = std::make_shared<const MerkleTree>(std::move(tree));
  return record;
}

Status EpochRootAggregator::AddEpochLocked(EpochRecord record) {
  const uint64_t epoch = epochs_.size();
  for (size_t i = 0; i < record.leaves.size(); ++i) {
    index_[PositionKey(record.leaves[i].shard_id,
                       record.leaves[i].log_id)] = {epoch, i};
  }
  epochs_.push_back(std::move(record));
  if (chain_ == nullptr || epoch < confirmed_) return Status::Ok();
  return submitter_.Enqueue(
      epoch, epochs_.back().root,
      static_cast<uint32_t>(epochs_.back().leaves.size()));
}

Status EpochRootAggregator::AttachJournal(AggregatorJournal* journal) {
  std::lock_guard<std::mutex> lock(mu_);
  std::lock_guard<std::mutex> staged_lock(staged_mu_);
  if (journal_ != nullptr) {
    return Status::FailedPrecondition("journal already attached");
  }
  if (!epochs_.empty() || !staged_.empty()) {
    return Status::FailedPrecondition(
        "journal must be attached before the aggregator does any work");
  }
  for (const JournaledEpoch& entry : journal->epochs()) {
    std::vector<StagedRoot> leaves;
    for (const JournalLeaf& leaf : entry.leaves) {
      leaves.push_back(StagedRoot{leaf.shard_id, leaf.log_id, leaf.mroot});
      if (leaf.shard_id < next_root_.size()) {
        next_root_[leaf.shard_id] =
            std::max(next_root_[leaf.shard_id], leaf.log_id + 1);
      }
    }
    WEDGE_ASSIGN_OR_RETURN(EpochRecord record, MakeEpoch(std::move(leaves)));
    if (record.root != entry.root) {
      return Status::Corruption(
          "journaled forest root for epoch " + std::to_string(entry.epoch) +
          " does not match its journaled leaves");
    }
    // Confirmations are journaled in epoch order; one missing (a failed
    // best-effort write) leaves the rest to forestTail reconciliation.
    // Every epoch from the first unconfirmed one on is queued again.
    if (entry.confirmed && confirmed_ == epochs_.size()) ++confirmed_;
    WEDGE_RETURN_IF_ERROR(AddEpochLocked(std::move(record)));
  }
  journal_ = journal;
  ConfirmLocked();
  return Status::Ok();
}

Status EpochRootAggregator::RecoverEpochs(uint64_t* resubmitted,
                                          uint64_t* confirmed) {
  *resubmitted = *confirmed = 0;
  if (chain_ == nullptr) return Status::Ok();
  const uint64_t retired_before = submitter_.stats().digests_confirmed;
  const uint64_t unsent = submitter_.UnsubmittedDigests();
  Result<TxId> sent = submitter_.SubmitPending();
  if (!sent.ok() && sent.status().code() != Code::kNotFound) {
    return sent.status();
  }
  *confirmed = submitter_.stats().digests_confirmed - retired_before;
  if (sent.ok()) *resubmitted = unsent - *confirmed;
  std::lock_guard<std::mutex> lock(mu_);
  ConfirmLocked();
  return Status::Ok();
}

Result<TxId> EpochRootAggregator::CloseEpoch() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<StagedRoot> leaves;
    {
      std::lock_guard<std::mutex> staged_lock(staged_mu_);
      if (staged_.empty()) {
        return Status::NotFound("no batch roots staged for this epoch");
      }
      size_t take = std::min<size_t>(staged_.size(),
                                     RootRecordContract::kMaxRootsPerCall);
      leaves.assign(staged_.begin(), staged_.begin() + take);
      staged_.erase(staged_.begin(), staged_.begin() + take);
    }
    // Shards push concurrently; ordering the leaves makes an epoch's
    // root independent of thread timing. Each shard's roots stay a
    // contiguous run in log order, epoch after epoch.
    std::sort(leaves.begin(), leaves.end(),
              [](const StagedRoot& a, const StagedRoot& b) {
                return std::tie(a.shard_id, a.log_id) <
                       std::tie(b.shard_id, b.log_id);
              });
    if (byzantine_mode_.load(std::memory_order_relaxed) ==
        AggByzantineMode::kEquivocateBatchRoot) {
      for (StagedRoot& leaf : leaves) leaf.mroot[0] ^= 0xFF;  // Lie.
    }
    WEDGE_ASSIGN_OR_RETURN(EpochRecord record, MakeEpoch(std::move(leaves)));
    const uint64_t epoch = epochs_.size();
    if (journal_ != nullptr) {
      // Journal BEFORE the transaction: a crash between the two leaves a
      // journaled-but-unsent epoch, which the next life resends. The
      // reverse order could strand an on-chain root the restarted
      // aggregator knows nothing about.
      std::vector<JournalLeaf> journal_leaves;
      journal_leaves.reserve(record.leaves.size());
      for (const StagedRoot& leaf : record.leaves) {
        journal_leaves.push_back(JournalLeaf{leaf.shard_id, leaf.log_id,
                                             leaf.mroot});
      }
      Status journaled =
          journal_->AppendEpoch(epoch, record.root, journal_leaves);
      if (!journaled.ok()) {
        // Un-stage: the next CloseEpoch retries the same epoch number.
        std::lock_guard<std::mutex> staged_lock(staged_mu_);
        staged_.insert(staged_.begin(), record.leaves.begin(),
                       record.leaves.end());
        return journaled;
      }
    }
    // One span per folded leaf, keyed by the batch's log id: the trace
    // tool joins these to the (traced) ingest span of the same log id in
    // this process's dump, extending a client trace into the aggregator.
    Micros now = Now();
    for (const StagedRoot& leaf : record.leaves) {
      agg_lag_hist_->Record(now - leaf.staged_at);
      telemetry_->tracer.Event(leaf.log_id, trace_stage::kAggEpoch, 1,
                               "epoch=" + std::to_string(epoch) +
                                   " shard=" + std::to_string(leaf.shard_id));
    }
    epochs_closed_counter_->Add(1);
    epoch_leaves_hist_->Record(static_cast<int64_t>(record.leaves.size()));
    WEDGE_RETURN_IF_ERROR(AddEpochLocked(std::move(record)));
    if (chain_ == nullptr) {
      ConfirmLocked();
      return TxId(0);
    }
  }
  Result<TxId> sent = submitter_.SubmitPending();
  if (!sent.ok() && sent.status().code() == Code::kNotFound) {
    return TxId(0);  // Queued behind an already scheduled retry.
  }
  return sent;
}

void EpochRootAggregator::Tick() {
  if (chain_ == nullptr) return;
  submitter_.Tick();
  // Epochs never sent — replayed from the journal, or whose submission
  // failed — go out now, unless a scheduled retry will carry them.
  if (submitter_.UnsubmittedDigests() > 0) (void)submitter_.SubmitPending();
  std::lock_guard<std::mutex> lock(mu_);
  ConfirmLocked();
}

void EpochRootAggregator::ConfirmLocked() {
  // The contract records epochs in order, so the submitter retires a
  // prefix: what it still holds is exactly the unconfirmed suffix.
  const uint64_t confirmed =
      chain_ == nullptr ? epochs_.size()
                        : epochs_.size() - submitter_.UncommittedDigests();
  for (; confirmed_ < confirmed; ++confirmed_) MarkConfirmedLocked(confirmed_);
}

void EpochRootAggregator::MarkConfirmedLocked(uint64_t epoch) {
  for (const StagedRoot& leaf : epochs_[epoch].leaves) {
    telemetry_->tracer.Event(leaf.log_id, trace_stage::kAggConfirmed, 1,
                             "epoch=" + std::to_string(epoch) +
                                 " shard=" + std::to_string(leaf.shard_id));
  }
  if (journal_ != nullptr) (void)journal_->AppendConfirmed(epoch);
}

Result<AggregationProof> EpochRootAggregator::Prove(uint32_t shard_id,
                                                    uint64_t log_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(PositionKey(shard_id, log_id));
  if (it == index_.end()) {
    return Status::NotFound("batch root not aggregated yet");
  }
  const auto [epoch, leaf_idx] = it->second;
  const EpochRecord& record = epochs_[epoch];

  AggregationProof proof;
  proof.epoch = epoch;
  proof.shard_id = shard_id;
  proof.log_id = log_id;
  proof.mroot = record.leaves[leaf_idx].mroot;
  proof.forest_root = record.root;
  WEDGE_ASSIGN_OR_RETURN(proof.forest_path, record.tree->Prove(leaf_idx));
  if (byzantine_mode_.load(std::memory_order_relaxed) ==
          AggByzantineMode::kCorruptAggProof &&
      !proof.forest_path.path.empty()) {
    // Corrupt BEFORE signing: the statement stays attributable to the
    // engine's key, which is exactly what makes it punishable.
    proof.forest_path.path[0].sibling[0] ^= 0xFF;
  }
  proof.engine_signature = EcdsaSign(key_.private_key(), proof.SignedHash());
  return proof;
}

uint64_t EpochRootAggregator::epochs_closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_.size();
}

uint64_t EpochRootAggregator::staged_count() const {
  std::lock_guard<std::mutex> lock(staged_mu_);
  return staged_.size();
}

uint64_t EpochRootAggregator::epochs_confirmed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return confirmed_;
}

uint64_t EpochRootAggregator::epochs_unconfirmed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epochs_.size() - confirmed_;
}

std::vector<TxId> EpochRootAggregator::ForestTxIds() const {
  return submitter_.TxIds();
}

}  // namespace wedge
