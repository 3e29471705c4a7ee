#include "core/stage2_submitter.h"

#include <algorithm>

#include "common/bytes.h"

namespace wedge {

Stage2Submitter::Stage2Submitter(const Stage2SubmitterConfig& config,
                                 Blockchain* chain, const Address& sender,
                                 const Address& root_record_address,
                                 Telemetry* telemetry,
                                 const Stage2Stream& stream)
    : config_(config),
      stream_(stream),
      chain_(chain),
      sender_(sender),
      root_record_address_(root_record_address),
      telemetry_(telemetry) {
  if (telemetry_ != nullptr) {
    MetricsRegistry& m = telemetry_->metrics;
    auto name = [&](std::string s) { return stream_.metric_prefix + s; };
    submitted_counter_ = m.GetCounter(stream_.submitted_metric);
    confirmed_counter_ = m.GetCounter(name("txs_confirmed"));
    retried_counter_ = m.GetCounter(stream_.retried_metric);
    timed_out_counter_ = m.GetCounter(name("txs_timed_out"));
    reverted_counter_ = m.GetCounter(name("txs_reverted"));
    digests_confirmed_counter_ = m.GetCounter(name("digests_confirmed"));
    confirm_lag_us_hist_ = m.GetHistogram(name("confirm_lag_us"));
    confirm_lag_blocks_hist_ = m.GetHistogram(name("confirm_lag_blocks"));
  }
}

Status Stage2Submitter::Enqueue(uint64_t id, const Hash256& root,
                                uint32_t leaves) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!journal_.empty() && id != journal_.back().log_id + 1) {
    return Status::InvalidArgument("stage-2 journal gap: non-contiguous id");
  }
  JournalEntry entry;
  entry.log_id = id;
  entry.root = root;
  entry.leaves = leaves;
  if (chain_ != nullptr) {
    entry.enqueued_at = chain_->clock()->NowMicros();
    entry.enqueued_block = chain_->HeadNumber();
  }
  journal_.push_back(entry);
  if (telemetry_ != nullptr && stream_.slot_spans) {
    telemetry_->tracer.Event(id, trace_stage::kStage2Enqueued);
  }
  return Status::Ok();
}

Result<uint64_t> Stage2Submitter::NextRoot(uint32_t /*shard_id*/) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!journal_.empty()) return journal_.back().log_id + 1;
  if (chain_ == nullptr) {
    return Status::FailedPrecondition("no blockchain attached");
  }
  return ChainTailLocked();
}

Result<TxId> Stage2Submitter::SubmitPending() {
  std::lock_guard<std::mutex> lock(mu_);
  if (retry_pending_) {
    return Status::NotFound("unsent roots wait for the scheduled retry");
  }
  if (chain_ != nullptr && in_flight_.empty() && !journal_.empty()) {
    // Nothing of ours is in flight, so a slot below the tail was landed
    // by an attempt this submitter no longer tracks (a previous life, or
    // one given up on): resending it could only revert.
    ReconcileWithChainTailLocked();
  }
  return SubmitPendingLocked(/*gas_bid=*/Wei(), "initial");
}

Result<TxId> Stage2Submitter::SubmitPendingLocked(const Wei& gas_bid,
                                                  const std::string& cause) {
  if (submitted_count_ >= journal_.size()) {
    return Status::NotFound("no pending digests");
  }
  if (chain_ == nullptr) {
    return Status::FailedPrecondition("no blockchain attached");
  }
  TxId first_tx = 0;
  while (submitted_count_ < journal_.size()) {
    size_t take = std::min<size_t>(journal_.size() - submitted_count_,
                                   stream_.slots_per_tx);
    Transaction tx;
    tx.from = sender_;
    tx.to = root_record_address_;
    tx.method = stream_.method;
    tx.gas_price_bid = gas_bid;
    uint64_t first_id = journal_[submitted_count_].log_id;
    uint32_t leaves = 0;
    Bytes roots;
    for (size_t i = 0; i < take; ++i) {
      leaves += journal_[submitted_count_ + i].leaves;
      Append(roots, HashToBytes(journal_[submitted_count_ + i].root));
    }
    PutU64(tx.calldata, first_id);
    PutU32(tx.calldata, leaves);
    Append(tx.calldata, roots);
    // On Submit failure the journal is untouched: the digests stay
    // pending and the next SubmitPending/Tick covers them again.
    WEDGE_ASSIGN_OR_RETURN(TxId id, chain_->Submit(tx));
    if (first_tx == 0) first_tx = id;
    InFlightTx rec;
    rec.id = id;
    rec.first_id = first_id;
    rec.count = static_cast<uint32_t>(take);
    rec.submitted_block = chain_->HeadNumber();
    in_flight_.push_back(rec);
    all_tx_ids_.push_back(id);
    submitted_count_ += take;
    ++stats_.txs_submitted;
    Stage2Attempt attempt;
    attempt.tx_id = id;
    attempt.attempt = attempt_;
    attempt.cause = cause;
    attempt.gas_bid = gas_bid.IsZero() ? chain_->CurrentGasPrice() : gas_bid;
    attempt.first_log_id = first_id;
    attempt.count = static_cast<uint32_t>(take);
    attempt.block = rec.submitted_block;
    attempts_.push_back(attempt);
    if (submitted_counter_ != nullptr) submitted_counter_->Add(1);
    if (telemetry_ != nullptr && stream_.slot_spans) {
      std::string note =
          "attempt=" + std::to_string(attempt_) + " cause=" + cause;
      for (size_t i = 0; i < take; ++i) {
        telemetry_->tracer.Event(first_id + i, trace_stage::kTxSubmitted,
                                 take, note);
      }
    }
  }
  return first_tx;
}

void Stage2Submitter::Tick() {
  std::lock_guard<std::mutex> lock(mu_);
  if (chain_ == nullptr) return;
  uint64_t head = chain_->HeadNumber();

  bool failed_any = false;
  bool confirmed_any = false;
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    Result<Receipt> receipt = chain_->GetReceipt(it->id);
    if (receipt.ok()) {
      if (!receipt.value().success) {
        // Mined but reverted (injected, or landed behind a lost slot).
        // A stale duplicate of slots the chain holds is no failure.
        ++stats_.txs_reverted;
        if (reverted_counter_ != nullptr) reverted_counter_->Add(1);
        Result<uint64_t> tail = ChainTailLocked();
        if (!tail.ok() || it->first_id + it->count > tail.value()) {
          retry_cause_ = "revert";
          failed_any = true;
        }
        it = in_flight_.erase(it);
        continue;
      }
      if (chain_->IsConfirmed(it->id)) {
        ++stats_.txs_confirmed;
        if (confirmed_counter_ != nullptr) confirmed_counter_->Add(1);
        confirmed_any = true;
        it = in_flight_.erase(it);
        continue;
      }
      it->mined = true;  // Awaiting confirmation depth.
      ++it;
      continue;
    }
    if (head >= it->submitted_block + config_.confirmation_deadline_blocks) {
      // No receipt within the deadline: presumed dropped/evicted/stuck.
      ++stats_.txs_timed_out;
      if (timed_out_counter_ != nullptr) timed_out_counter_->Add(1);
      retry_cause_ = "timeout";
      failed_any = true;
      it = in_flight_.erase(it);
      continue;
    }
    ++it;
  }

  if (failed_any) {
    // An unmined transaction can only land behind the lost slots and
    // revert: abandon those and resend everything after the mined ones,
    // which hold the journal's front once it is reconciled.
    in_flight_.erase(std::remove_if(in_flight_.begin(), in_flight_.end(),
                                    [](const InFlightTx& tx) {
                                      return !tx.mined;
                                    }),
                     in_flight_.end());
  }
  if (confirmed_any || failed_any) ReconcileWithChainTailLocked();
  if (failed_any) {
    submitted_count_ = 0;
    for (const InFlightTx& tx : in_flight_) submitted_count_ += tx.count;
  }
  if (confirmed_any && !failed_any && !retry_pending_) {
    attempt_ = 1;  // Healthy again: future retries start fresh.
  }
  if (failed_any && !retry_pending_) {
    retry_pending_ = true;
    ++attempt_;
    retry_at_block_ = head + BackoffBlocksLocked(attempt_);
    if (telemetry_ != nullptr && stream_.slot_spans && !journal_.empty()) {
      telemetry_->tracer.Event(
          journal_.front().log_id, trace_stage::kTxRetry, 0,
          "cause=" + retry_cause_ + " attempt=" + std::to_string(attempt_) +
              " retry_at_block=" + std::to_string(retry_at_block_));
    }
  }

  if (retry_pending_ && head >= retry_at_block_ &&
      submitted_count_ < journal_.size()) {
    Result<TxId> resubmit =
        SubmitPendingLocked(BumpedBidLocked(attempt_), retry_cause_);
    if (resubmit.ok()) {
      ++stats_.txs_retried;
      if (retried_counter_ != nullptr) retried_counter_->Add(1);
      retry_pending_ = false;
    } else {
      // Chain rejected the retry (e.g. transient balance shortfall):
      // back off further and try again.
      ++attempt_;
      retry_at_block_ = head + BackoffBlocksLocked(attempt_);
    }
  } else if (retry_pending_ && submitted_count_ >= journal_.size()) {
    // Everything the failed transactions carried is already on-chain
    // (a presumed-lost transaction mined after its deadline).
    retry_pending_ = false;
  }
}

Result<uint64_t> Stage2Submitter::ChainTailLocked() const {
  WEDGE_ASSIGN_OR_RETURN(
      Bytes encoded, chain_->Call(root_record_address_, stream_.tail_getter,
                                  {}));
  ByteReader reader(encoded);
  return reader.ReadU64();
}

void Stage2Submitter::ReconcileWithChainTailLocked() {
  Result<uint64_t> tail = ChainTailLocked();
  if (!tail.ok()) return;
  // A slot counts as confirmed once its transaction is `confirmations`
  // deep: stop at the first one still gathering depth.
  uint64_t end = tail.value();
  for (const InFlightTx& tx : in_flight_) {
    if (tx.mined) end = std::min(end, tx.first_id);
  }
  Micros now = chain_->clock()->NowMicros();
  uint64_t head = chain_->HeadNumber();
  while (!journal_.empty() && journal_.front().log_id < end) {
    const JournalEntry& entry = journal_.front();
    if (confirm_lag_us_hist_ != nullptr) {
      confirm_lag_us_hist_->Record(now - entry.enqueued_at);
      confirm_lag_blocks_hist_->Record(
          static_cast<int64_t>(head - entry.enqueued_block));
    }
    if (digests_confirmed_counter_ != nullptr) {
      digests_confirmed_counter_->Add(1);
    }
    if (telemetry_ != nullptr && stream_.slot_spans) {
      telemetry_->tracer.Event(entry.log_id, trace_stage::kConfirmed);
    }
    journal_.pop_front();
    if (submitted_count_ > 0) --submitted_count_;
    ++stats_.digests_confirmed;
  }
}

Wei Stage2Submitter::BumpedBidLocked(int attempt) const {
  // bid = market * min(bump^(attempt-1), cap), in permille arithmetic.
  double mult = 1.0;
  for (int i = 1; i < attempt && mult < config_.gas_bump_cap; ++i) {
    mult *= config_.gas_bump_multiplier;
  }
  mult = std::min(mult, std::max(1.0, config_.gas_bump_cap));
  Wei market = chain_->CurrentGasPrice();
  U256 scaled = market * U256(static_cast<uint64_t>(mult * 1000.0));
  U256 q, r;
  scaled.DivMod(U256(1000), &q, &r).ok();
  // Never bid below market: an underpriced bid would wait forever.
  return q < market ? market : q;
}

uint64_t Stage2Submitter::BackoffBlocksLocked(int attempt) const {
  uint64_t blocks = config_.retry_backoff_base_blocks;
  for (int i = 2; i < attempt && blocks < config_.retry_backoff_max_blocks;
       ++i) {
    blocks *= 2;
  }
  return std::max<uint64_t>(
      1, std::min(blocks, config_.retry_backoff_max_blocks));
}

size_t Stage2Submitter::DiscardUnsubmitted() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = journal_.size() - submitted_count_;
  journal_.resize(submitted_count_);
  return dropped;
}

size_t Stage2Submitter::UnsubmittedDigests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_.size() - submitted_count_;
}

size_t Stage2Submitter::UncommittedDigests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return journal_.size();
}

std::vector<TxId> Stage2Submitter::TxIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return all_tx_ids_;
}

std::vector<Stage2Attempt> Stage2Submitter::attempts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempts_;
}

Stage2SubmitterStats Stage2Submitter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace wedge
