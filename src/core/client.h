#ifndef WEDGEBLOCK_CORE_CLIENT_H_
#define WEDGEBLOCK_CORE_CLIENT_H_

#include "contracts/forest_record.h"
#include "core/offchain_node.h"

namespace wedge {

/// Result of a publisher driving one response through stage 2
/// (§4.2 "Publisher Append Requests", links #4/#5 in Figure 2).
struct Stage2Outcome {
  CommitCheck check = CommitCheck::kNotYetCommitted;
  bool punishment_triggered = false;
  Receipt punishment_receipt;  ///< Valid when punishment_triggered.
};

/// Shared verification helpers for all client roles.
class ClientBase {
 public:
  ClientBase(KeyPair key, OffchainNode* node, Blockchain* chain,
             const Address& root_record_address);

  const Address& address() const { return key_.address(); }
  const KeyPair& key() const { return key_; }

  /// Stage-1 verification of a response (signature + Merkle proof).
  bool VerifyStage1(const Stage1Response& response) const;

  /// Compares a response's signed root against the Root Record contract
  /// (link #4 in Figure 2).
  Result<CommitCheck> CheckBlockchainCommit(
      const Stage1Response& response) const;

  /// Second level of a two-level verification (sharded deployments): the
  /// aggregation proof must bind exactly this response's
  /// (shard_id, log_id, MRoot) into its forest root, be signed by the
  /// Offchain Node's key, and carry a valid batch-root -> forest-root
  /// path. Log ids are shard-local, so the shard binding is what keeps
  /// same-numbered logs on different shards apart.
  bool VerifyAggregation(const Stage1Response& response,
                         const AggregationProof& agg) const;

  /// Compares an aggregation proof's forest root against the Root Record
  /// contract's forest records — the sharded counterpart of
  /// CheckBlockchainCommit. A verification result of kMismatch (or a
  /// VerifyAggregation failure on a signed proof) feeds the forest
  /// punishment path; see PublisherClient::TriggerForestPunishment.
  Result<CommitCheck> CheckForestCommit(const AggregationProof& agg) const;

  /// Fetches the recorded roots for positions [first, last] with chunked
  /// getRootsInRange calls (one eth_call per 4096 positions). Entries are
  /// (found, root) in position order.
  Result<std::vector<std::pair<bool, Hash256>>> FetchRootRange(
      uint64_t first, uint64_t last) const;

 protected:
  KeyPair key_;
  OffchainNode* node_;
  Blockchain* chain_;
  Address root_record_address_;
};

/// The Publisher role: signs and appends entries, verifies stage-1
/// responses, later confirms stage-2 commitment and, on conflict, invokes
/// the Punishment contract.
class PublisherClient : public ClientBase {
 public:
  PublisherClient(KeyPair key, OffchainNode* node, Blockchain* chain,
                  const Address& root_record_address,
                  const Address& punishment_address);

  /// Builds signed append requests from key-value pairs, assigning
  /// consecutive client-side sequence numbers.
  std::vector<AppendRequest> MakeRequests(
      const std::vector<std::pair<Bytes, Bytes>>& kvs);

  /// Sends requests to the Offchain Node and verifies every stage-1
  /// response. Fails with Code::kVerification if any response is invalid
  /// (an invalid-but-signed response is punishable evidence; see
  /// TriggerPunishment).
  Result<std::vector<Stage1Response>> Publish(
      const std::vector<AppendRequest>& requests);

  /// Waits (advancing the sim clock) for the response's log position to
  /// appear in the Root Record contract, then verifies it. On a mismatch
  /// — or if the node never commits within `max_blocks` — the publisher
  /// invokes the Punishment contract with the signed response.
  Result<Stage2Outcome> FinalizeOrPunish(const Stage1Response& response,
                                         int max_blocks = 16);

  /// Invokes the Punishment contract with `response` as evidence and
  /// waits for the transaction. The receipt's success flag says whether
  /// the escrow was seized.
  Result<Receipt> TriggerPunishment(const Stage1Response& response);

  /// Two-level variant: submits the signed stage-1 response together
  /// with the engine-signed aggregation proof as evidence
  /// (invokePunishmentForest). Punishes on any signed inconsistency —
  /// equivocation between the two levels, a corrupt signed proof, or a
  /// forest root differing from the recorded one.
  Result<Receipt> TriggerForestPunishment(const Stage1Response& response,
                                          const AggregationProof& agg);

  /// Files an on-chain omission claim for a log position whose digest
  /// never appeared (starts the Punishment contract's grace clock).
  Result<Receipt> FileOmissionClaim(uint64_t log_id);

  const Address& punishment_address() const { return punishment_address_; }

  /// Next unused sequence number.
  uint64_t next_sequence() const { return next_sequence_; }

  /// The omission grace period FinalizeOrPunish waits out after filing a
  /// claim; must match the Punishment contract's configuration.
  void set_omission_grace_seconds(int64_t seconds) {
    grace_hint_seconds_ = seconds;
  }

 private:
  Address punishment_address_;
  uint64_t next_sequence_ = 0;
  int64_t grace_hint_seconds_ = 600;
};

/// The User role: random reads with stage-1 + on-chain verification.
class UserClient : public ClientBase {
 public:
  using ClientBase::ClientBase;

  /// Reads one entry and verifies the stage-1 response; when
  /// `require_blockchain_commit` is set, also checks the Root Record.
  Result<Stage1Response> ReadVerified(const EntryIndex& index,
                                      bool require_blockchain_commit = false);

  /// Batched variant of ReadVerified.
  Result<std::vector<Stage1Response>> ReadManyVerified(
      const std::vector<EntryIndex>& indices,
      bool require_blockchain_commit = false);
};

/// Aggregate result of an audit pass over a log range.
struct AuditReport {
  uint64_t entries_checked = 0;
  uint64_t stage1_failures = 0;     ///< Bad signature or Merkle proof.
  uint64_t onchain_mismatches = 0;  ///< Signed root != recorded root.
  uint64_t not_yet_committed = 0;
  Micros read_micros = 0;
  Micros verify_micros = 0;

  bool Clean() const {
    return stage1_failures == 0 && onchain_mismatches == 0;
  }
};

/// The Auditor role: scans a range of log positions and verifies every
/// entry against the on-chain roots (§4.2 "Read Requests", audit form).
class AuditorClient : public ClientBase {
 public:
  using ClientBase::ClientBase;

  /// Audits log positions [first_id, last_id] entry by entry (one signed
  /// response + one ECDSA verification per entry, as in the paper's
  /// Figure 9 experiment).
  Result<AuditReport> Audit(uint64_t first_id, uint64_t last_id);

  /// Fast audit using batched reads: one multi-proof + one signature per
  /// position. Same guarantees, far less verification work (see
  /// bench/ablation_audit_modes in ablation_lmt).
  Result<AuditReport> AuditFast(uint64_t first_id, uint64_t last_id);

  /// Sampled audit: verifies only `samples_per_position` randomly chosen
  /// entries of each position (batched reads). Detection of a tampered
  /// position is probabilistic — see SampleDetectionProbability in
  /// core/economics.h for sizing the sample against the escrow model.
  /// Root mismatches (equivocation/omission) are still detected with
  /// certainty since every position's root is checked.
  Result<AuditReport> AuditSample(uint64_t first_id, uint64_t last_id,
                                  uint32_t samples_per_position,
                                  uint64_t seed);
};

/// Convenience wrapper driving a Payment contract from both sides; used
/// by the logging-as-a-service example and tests.
class PaymentChannelClient {
 public:
  PaymentChannelClient(Blockchain* chain, Address payment_address,
                       Address actor)
      : chain_(chain), payment_address_(payment_address), actor_(actor) {}

  /// Client-side: deposit ether into the channel.
  Result<Receipt> Deposit(const Wei& amount);
  /// Client-side: start the subscription stream.
  Result<Receipt> StartPayment();
  /// Either side: recompute the split (emits the Algorithm 3 events).
  Result<Receipt> UpdateStatus();
  /// Offchain side: withdraw everything currently reserved.
  Result<Receipt> WithdrawOffchain();
  /// Client side: withdraw the unreserved remainder.
  Result<Receipt> WithdrawClient();
  /// Client side: settle and close.
  Result<Receipt> Terminate();

  Result<Wei> ReservedForEdge() const;
  Result<uint64_t> RemainingPeriods() const;
  Result<bool> IsTerminated() const;

 private:
  Result<Receipt> Invoke(const std::string& method, const Wei& value);

  Blockchain* chain_;
  Address payment_address_;
  Address actor_;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_CORE_CLIENT_H_
