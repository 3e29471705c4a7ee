#include "core/client.h"

#include <algorithm>
#include <atomic>
#include <set>

#include "common/random.h"

namespace wedge {

ClientBase::ClientBase(KeyPair key, OffchainNode* node, Blockchain* chain,
                       const Address& root_record_address)
    : key_(std::move(key)),
      node_(node),
      chain_(chain),
      root_record_address_(root_record_address) {}

bool ClientBase::VerifyStage1(const Stage1Response& response) const {
  return response.Verify(node_->address());
}

Result<CommitCheck> ClientBase::CheckBlockchainCommit(
    const Stage1Response& response) const {
  if (chain_ == nullptr) {
    return Status::FailedPrecondition("no blockchain attached");
  }
  Bytes query;
  PutU64(query, response.proof.log_id);
  WEDGE_ASSIGN_OR_RETURN(
      Bytes raw, chain_->Call(root_record_address_, "getRootAtIndex", query));
  ByteReader reader(raw);
  WEDGE_ASSIGN_OR_RETURN(Bytes found, reader.ReadRaw(1));
  WEDGE_ASSIGN_OR_RETURN(Bytes root_raw, reader.ReadRaw(32));
  if (found[0] == 0) return CommitCheck::kNotYetCommitted;
  WEDGE_ASSIGN_OR_RETURN(Hash256 recorded, HashFromBytes(root_raw));
  return recorded == response.proof.mroot ? CommitCheck::kBlockchainCommitted
                                          : CommitCheck::kMismatch;
}

bool ClientBase::VerifyAggregation(const Stage1Response& response,
                                   const AggregationProof& agg) const {
  // Log ids are shard-local: the proof must bind the response's shard as
  // well as its log id, mirroring the Punishment contract's same-shard
  // rule.
  if (agg.shard_id != response.proof.shard_id ||
      agg.log_id != response.proof.log_id ||
      agg.mroot != response.proof.mroot) {
    return false;
  }
  return agg.Verify(node_->address());
}

Result<CommitCheck> ClientBase::CheckForestCommit(
    const AggregationProof& agg) const {
  if (chain_ == nullptr) {
    return Status::FailedPrecondition("no blockchain attached");
  }
  Bytes query;
  PutU64(query, agg.epoch);
  WEDGE_ASSIGN_OR_RETURN(
      Bytes raw, chain_->Call(root_record_address_, "getForestRoot", query));
  ByteReader reader(raw);
  WEDGE_ASSIGN_OR_RETURN(Bytes found, reader.ReadRaw(1));
  WEDGE_ASSIGN_OR_RETURN(Bytes root_raw, reader.ReadRaw(32));
  if (found[0] == 0) return CommitCheck::kNotYetCommitted;
  WEDGE_ASSIGN_OR_RETURN(Hash256 recorded, HashFromBytes(root_raw));
  return recorded == agg.forest_root ? CommitCheck::kBlockchainCommitted
                                     : CommitCheck::kMismatch;
}

Result<std::vector<std::pair<bool, Hash256>>> ClientBase::FetchRootRange(
    uint64_t first, uint64_t last) const {
  if (chain_ == nullptr) {
    return Status::FailedPrecondition("no blockchain attached");
  }
  if (first > last) return Status::InvalidArgument("empty range");
  constexpr uint32_t kChunk = 4096;
  std::vector<std::pair<bool, Hash256>> out;
  out.reserve(last - first + 1);
  for (uint64_t cursor = first; cursor <= last;) {
    uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(kChunk, last - cursor + 1));
    Bytes query;
    PutU64(query, cursor);
    PutU32(query, count);
    WEDGE_ASSIGN_OR_RETURN(
        Bytes raw, chain_->Call(root_record_address_, "getRootsInRange",
                                query));
    ByteReader reader(raw);
    for (uint32_t i = 0; i < count; ++i) {
      WEDGE_ASSIGN_OR_RETURN(Bytes found, reader.ReadRaw(1));
      WEDGE_ASSIGN_OR_RETURN(Bytes root_raw, reader.ReadRaw(32));
      WEDGE_ASSIGN_OR_RETURN(Hash256 root, HashFromBytes(root_raw));
      out.emplace_back(found[0] != 0, root);
    }
    cursor += count;
  }
  return out;
}

PublisherClient::PublisherClient(KeyPair key, OffchainNode* node,
                                 Blockchain* chain,
                                 const Address& root_record_address,
                                 const Address& punishment_address)
    : ClientBase(std::move(key), node, chain, root_record_address),
      punishment_address_(punishment_address) {}

std::vector<AppendRequest> PublisherClient::MakeRequests(
    const std::vector<std::pair<Bytes, Bytes>>& kvs) {
  std::vector<AppendRequest> out;
  out.reserve(kvs.size());
  for (const auto& [k, v] : kvs) {
    out.push_back(AppendRequest::Make(key_, next_sequence_++, k, v));
  }
  return out;
}

Result<std::vector<Stage1Response>> PublisherClient::Publish(
    const std::vector<AppendRequest>& requests) {
  WEDGE_ASSIGN_OR_RETURN(std::vector<Stage1Response> responses,
                         node_->Append(requests));
  // Verify every response (paper §4.2: the publisher checks each R's
  // proof and signature before considering stage-1 complete).
  std::atomic<bool> all_ok{true};
  // Verification is CPU-bound ECDSA; run it inline per response — callers
  // measuring latency want this cost included.
  for (const Stage1Response& r : responses) {
    if (!VerifyStage1(r)) {
      all_ok.store(false);
      break;
    }
  }
  if (!all_ok.load()) {
    return Status::Verification(
        "stage-1 response failed verification (punishable if signed)");
  }
  return responses;
}

Result<Stage2Outcome> PublisherClient::FinalizeOrPunish(
    const Stage1Response& response, int max_blocks) {
  if (chain_ == nullptr) {
    return Status::FailedPrecondition("no blockchain attached");
  }
  Stage2Outcome outcome;
  for (int i = 0; i < max_blocks; ++i) {
    WEDGE_ASSIGN_OR_RETURN(outcome.check, CheckBlockchainCommit(response));
    if (outcome.check != CommitCheck::kNotYetCommitted) break;
    chain_->clock()->AdvanceSeconds(chain_->config().block_interval_seconds);
    chain_->PumpUntilNow();
  }
  if (outcome.check == CommitCheck::kBlockchainCommitted) {
    return outcome;
  }
  if (outcome.check == CommitCheck::kNotYetCommitted) {
    // Omission path: a missing digest is only punishable after a public
    // on-chain deadline (the Punishment contract's grace period). File
    // the claim, wait it out, and re-check before punishing — an honest
    // but slow node gets its last chance to commit.
    WEDGE_ASSIGN_OR_RETURN(Receipt claim, FileOmissionClaim(response.proof.log_id));
    if (!claim.success) {
      return Status::Reverted("omission claim rejected: " +
                              claim.revert_reason);
    }
    chain_->clock()->AdvanceSeconds(grace_hint_seconds_ + 1);
    chain_->PumpUntilNow();
    WEDGE_ASSIGN_OR_RETURN(outcome.check, CheckBlockchainCommit(response));
    if (outcome.check == CommitCheck::kBlockchainCommitted) {
      return outcome;
    }
  }
  // Mismatch, or the omission deadline passed: punishable with the
  // signed stage-1 response.
  WEDGE_ASSIGN_OR_RETURN(outcome.punishment_receipt,
                         TriggerPunishment(response));
  outcome.punishment_triggered = true;
  return outcome;
}

Result<Receipt> PublisherClient::FileOmissionClaim(uint64_t log_id) {
  if (chain_ == nullptr) {
    return Status::FailedPrecondition("no blockchain attached");
  }
  Transaction tx;
  tx.from = key_.address();
  tx.to = punishment_address_;
  tx.method = "fileOmissionClaim";
  PutU64(tx.calldata, log_id);
  WEDGE_ASSIGN_OR_RETURN(TxId id, chain_->Submit(tx));
  return chain_->WaitForReceipt(id);
}

Result<Receipt> PublisherClient::TriggerPunishment(
    const Stage1Response& response) {
  if (chain_ == nullptr) {
    return Status::FailedPrecondition("no blockchain attached");
  }
  Transaction tx;
  tx.from = key_.address();
  tx.to = punishment_address_;
  tx.method = "invokePunishment";
  PutU64(tx.calldata, response.proof.log_id);
  Append(tx.calldata, HashToBytes(response.proof.mroot));
  PutBytes(tx.calldata, response.proof.merkle_proof.Serialize());
  PutBytes(tx.calldata, response.entry);
  PutBytes(tx.calldata, response.offchain_signature.Serialize());
  WEDGE_ASSIGN_OR_RETURN(TxId id, chain_->Submit(tx));
  return chain_->WaitForReceipt(id);
}

Result<Receipt> PublisherClient::TriggerForestPunishment(
    const Stage1Response& response, const AggregationProof& agg) {
  if (chain_ == nullptr) {
    return Status::FailedPrecondition("no blockchain attached");
  }
  Transaction tx;
  tx.from = key_.address();
  tx.to = punishment_address_;
  tx.method = "invokePunishmentForest";
  PutU64(tx.calldata, response.proof.log_id);
  Append(tx.calldata, HashToBytes(response.proof.mroot));
  PutBytes(tx.calldata, response.proof.merkle_proof.Serialize());
  PutBytes(tx.calldata, response.entry);
  PutBytes(tx.calldata, response.offchain_signature.Serialize());
  PutBytes(tx.calldata, agg.Serialize());
  WEDGE_ASSIGN_OR_RETURN(TxId id, chain_->Submit(tx));
  return chain_->WaitForReceipt(id);
}

Result<Stage1Response> UserClient::ReadVerified(
    const EntryIndex& index, bool require_blockchain_commit) {
  WEDGE_ASSIGN_OR_RETURN(Stage1Response response, node_->ReadOne(index));
  if (!VerifyStage1(response)) {
    return Status::Verification("read response failed stage-1 verification");
  }
  if (require_blockchain_commit) {
    WEDGE_ASSIGN_OR_RETURN(CommitCheck check, CheckBlockchainCommit(response));
    if (check != CommitCheck::kBlockchainCommitted) {
      return Status::Verification(
          check == CommitCheck::kMismatch
              ? "on-chain root mismatch: offchain node lied"
              : "entry not blockchain-committed yet");
    }
  }
  return response;
}

Result<std::vector<Stage1Response>> UserClient::ReadManyVerified(
    const std::vector<EntryIndex>& indices, bool require_blockchain_commit) {
  WEDGE_ASSIGN_OR_RETURN(std::vector<Stage1Response> responses,
                         node_->Read(indices));
  for (const Stage1Response& r : responses) {
    if (!VerifyStage1(r)) {
      return Status::Verification("read response failed stage-1 verification");
    }
  }
  if (require_blockchain_commit) {
    for (const Stage1Response& r : responses) {
      WEDGE_ASSIGN_OR_RETURN(CommitCheck check, CheckBlockchainCommit(r));
      if (check != CommitCheck::kBlockchainCommitted) {
        return Status::Verification("entry not blockchain-committed");
      }
    }
  }
  return responses;
}

Result<AuditReport> AuditorClient::Audit(uint64_t first_id, uint64_t last_id) {
  AuditReport report;
  const Clock* wall = RealClock::Global();

  Micros read_start = wall->NowMicros();
  WEDGE_ASSIGN_OR_RETURN(std::vector<Stage1Response> responses,
                         node_->Scan(first_id, last_id));
  report.read_micros = wall->NowMicros() - read_start;

  // Cache the on-chain root per position: an audit touches every entry of
  // a position, but the Root Record lookup is per position.
  std::unordered_map<uint64_t, Result<CommitCheck>> position_check;

  Micros verify_start = wall->NowMicros();
  for (const Stage1Response& r : responses) {
    ++report.entries_checked;
    if (!VerifyStage1(r)) {
      ++report.stage1_failures;
      continue;
    }
    if (chain_ == nullptr) continue;
    auto it = position_check.find(r.proof.log_id);
    if (it == position_check.end()) {
      it = position_check.emplace(r.proof.log_id, CheckBlockchainCommit(r))
               .first;
    }
    if (!it->second.ok()) return it->second.status();
    switch (it->second.value()) {
      case CommitCheck::kBlockchainCommitted:
        break;
      case CommitCheck::kNotYetCommitted:
        ++report.not_yet_committed;
        break;
      case CommitCheck::kMismatch:
        ++report.onchain_mismatches;
        break;
    }
  }
  report.verify_micros = wall->NowMicros() - verify_start;
  return report;
}

Result<AuditReport> AuditorClient::AuditFast(uint64_t first_id,
                                             uint64_t last_id) {
  if (first_id > last_id) {
    return Status::InvalidArgument("empty audit range");
  }
  AuditReport report;
  const Clock* wall = RealClock::Global();

  std::vector<BatchReadResponse> batches;
  Micros read_start = wall->NowMicros();
  for (uint64_t id = first_id; id <= last_id; ++id) {
    WEDGE_ASSIGN_OR_RETURN(BatchReadResponse batch, node_->ReadBatch(id));
    batches.push_back(std::move(batch));
  }
  report.read_micros = wall->NowMicros() - read_start;

  Micros verify_start = wall->NowMicros();
  // One chunked range query covers every audited position's on-chain root.
  std::vector<std::pair<bool, Hash256>> roots;
  if (chain_ != nullptr) {
    WEDGE_ASSIGN_OR_RETURN(roots, FetchRootRange(first_id, last_id));
  }
  for (const BatchReadResponse& batch : batches) {
    report.entries_checked += batch.entries.size();
    // One signature + one multi-proof check covers the whole position.
    if (!batch.Verify(node_->address())) {
      report.stage1_failures += batch.entries.size();
      continue;
    }
    if (chain_ == nullptr) continue;
    const auto& [found, recorded] = roots[batch.log_id - first_id];
    if (!found) {
      report.not_yet_committed += batch.entries.size();
    } else if (recorded != batch.mroot) {
      report.onchain_mismatches += batch.entries.size();
    }
  }
  report.verify_micros = wall->NowMicros() - verify_start;
  return report;
}

Result<AuditReport> AuditorClient::AuditSample(uint64_t first_id,
                                               uint64_t last_id,
                                               uint32_t samples_per_position,
                                               uint64_t seed) {
  if (first_id > last_id) {
    return Status::InvalidArgument("empty audit range");
  }
  if (samples_per_position == 0) {
    return Status::InvalidArgument("sample size must be positive");
  }
  AuditReport report;
  const Clock* wall = RealClock::Global();
  Rng rng(seed);

  std::vector<BatchReadResponse> batches;
  Micros read_start = wall->NowMicros();
  for (uint64_t id = first_id; id <= last_id; ++id) {
    WEDGE_ASSIGN_OR_RETURN(uint32_t count, node_->PositionEntryCount(id));
    std::vector<uint32_t> offsets;
    if (samples_per_position >= count) {
      // Degenerate to a full read.
    } else {
      std::set<uint32_t> chosen;
      while (chosen.size() < samples_per_position) {
        chosen.insert(static_cast<uint32_t>(rng.Uniform(count)));
      }
      offsets.assign(chosen.begin(), chosen.end());
    }
    WEDGE_ASSIGN_OR_RETURN(BatchReadResponse batch,
                           node_->ReadBatch(id, std::move(offsets)));
    batches.push_back(std::move(batch));
  }
  report.read_micros = wall->NowMicros() - read_start;

  Micros verify_start = wall->NowMicros();
  // One chunked range query covers every audited position's on-chain root.
  std::vector<std::pair<bool, Hash256>> roots;
  if (chain_ != nullptr) {
    WEDGE_ASSIGN_OR_RETURN(roots, FetchRootRange(first_id, last_id));
  }
  for (const BatchReadResponse& batch : batches) {
    report.entries_checked += batch.entries.size();
    if (!batch.Verify(node_->address())) {
      report.stage1_failures += batch.entries.size();
      continue;
    }
    if (chain_ == nullptr) continue;
    const auto& [found, recorded] = roots[batch.log_id - first_id];
    if (!found) {
      report.not_yet_committed += batch.entries.size();
    } else if (recorded != batch.mroot) {
      report.onchain_mismatches += batch.entries.size();
    }
  }
  report.verify_micros = wall->NowMicros() - verify_start;
  return report;
}

Result<Receipt> PaymentChannelClient::Invoke(const std::string& method,
                                             const Wei& value) {
  Transaction tx;
  tx.from = actor_;
  tx.to = payment_address_;
  tx.value = value;
  tx.method = method;
  WEDGE_ASSIGN_OR_RETURN(TxId id, chain_->Submit(tx));
  WEDGE_ASSIGN_OR_RETURN(Receipt receipt, chain_->WaitForReceipt(id));
  if (!receipt.success) {
    return Status::Reverted(method + ": " + receipt.revert_reason);
  }
  return receipt;
}

Result<Receipt> PaymentChannelClient::Deposit(const Wei& amount) {
  return Invoke("deposit", amount);
}

Result<Receipt> PaymentChannelClient::StartPayment() {
  return Invoke("startPayment", Wei());
}

Result<Receipt> PaymentChannelClient::UpdateStatus() {
  return Invoke("updatePaymentStatus", Wei());
}

Result<Receipt> PaymentChannelClient::WithdrawOffchain() {
  return Invoke("withdrawOffchain", Wei());
}

Result<Receipt> PaymentChannelClient::WithdrawClient() {
  return Invoke("withdrawClient", Wei());
}

Result<Receipt> PaymentChannelClient::Terminate() {
  return Invoke("terminate", Wei());
}

Result<Wei> PaymentChannelClient::ReservedForEdge() const {
  WEDGE_ASSIGN_OR_RETURN(Bytes raw,
                         chain_->Call(payment_address_, "reservedForEdge", {}));
  return U256::FromBytesBE(raw);
}

Result<uint64_t> PaymentChannelClient::RemainingPeriods() const {
  WEDGE_ASSIGN_OR_RETURN(Bytes raw,
                         chain_->Call(payment_address_, "remainingPeriods", {}));
  ByteReader reader(raw);
  return reader.ReadU64();
}

Result<bool> PaymentChannelClient::IsTerminated() const {
  WEDGE_ASSIGN_OR_RETURN(Bytes raw,
                         chain_->Call(payment_address_, "isTerminated", {}));
  if (raw.size() != 1) return Status::Internal("bad isTerminated reply");
  return raw[0] != 0;
}

}  // namespace wedge
