#include "contracts/punishment.h"

#include <gtest/gtest.h>

#include "shard/sharded_engine.h"

namespace wedge {
namespace {

/// End-to-end punishment scenarios: a real Offchain Node produces signed
/// stage-1 responses under various byzantine modes and the bound publisher
/// uses them as evidence (Algorithm 2).
class PunishmentTest : public ::testing::Test {
 protected:
  static ShardedDeploymentConfig Config(ByzantineMode mode) {
    ShardedDeploymentConfig config;
    config.engine.num_shards = 1;
    config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
    config.engine.node.batch_size = 8;
    config.engine.node.worker_threads = 2;
    config.engine.node.byzantine_mode = mode;
    config.escrow = EthToWei(32);
    return config;
  }

  static std::vector<std::pair<Bytes, Bytes>> Workload(int n) {
    std::vector<std::pair<Bytes, Bytes>> kvs;
    for (int i = 0; i < n; ++i) {
      kvs.emplace_back(ToBytes("key" + std::to_string(i)),
                       ToBytes("value" + std::to_string(i)));
    }
    return kvs;
  }
};

TEST_F(PunishmentTest, HonestNodeCannotBePunished) {
  auto d = ShardedDeployment::Create(Config(ByzantineMode::kHonest));
  ASSERT_TRUE(d.ok());
  PublisherClient pub = (*d)->MakePublisher(0);
  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());
  (*d)->AdvanceBlocks(5);

  // Stage 2 landed and matches.
  auto check = pub.CheckBlockchainCommit(responses->front());
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value(), CommitCheck::kBlockchainCommitted);

  // Honest evidence cannot draw the escrow.
  auto receipt = pub.TriggerPunishment(responses->front());
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
  EXPECT_NE(receipt->revert_reason.find("no inconsistency"),
            std::string::npos);
  EXPECT_EQ((*d)->chain().BalanceOf((*d)->punishment_address()), EthToWei(32));
}

TEST_F(PunishmentTest, EquivocationForfeitsEscrow) {
  auto d = ShardedDeployment::Create(Config(ByzantineMode::kEquivocateRoot));
  ASSERT_TRUE(d.ok());
  PublisherClient pub = (*d)->MakePublisher(0);
  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());  // Stage-1 looks perfectly honest.
  (*d)->AdvanceBlocks(5);

  auto check = pub.CheckBlockchainCommit(responses->front());
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value(), CommitCheck::kMismatch);  // The lie is visible.

  Wei client_before = (*d)->chain().BalanceOf(pub.address());
  auto receipt = pub.TriggerPunishment(responses->front());
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success);
  // Full escrow moved to the client (minus the gas the client paid).
  EXPECT_EQ((*d)->chain().BalanceOf((*d)->punishment_address()), Wei());
  EXPECT_EQ((*d)->chain().BalanceOf(pub.address()) + receipt->fee,
            client_before + EthToWei(32));
  // All-or-nothing: a second punishment attempt reverts.
  auto again = pub.TriggerPunishment(responses->back());
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->success);
}

TEST_F(PunishmentTest, OmittedStage2IsPunishableAfterGrace) {
  auto d = ShardedDeployment::Create(Config(ByzantineMode::kOmitStage2));
  ASSERT_TRUE(d.ok());
  PublisherClient pub = (*d)->MakePublisher(0);
  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());
  (*d)->AdvanceBlocks(10);  // Plenty of time; the digest never shows up.

  auto check = pub.CheckBlockchainCommit(responses->front());
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value(), CommitCheck::kNotYetCommitted);

  // Punishing a merely-missing root without a claim is rejected: the
  // node must first get a public deadline.
  auto premature = pub.TriggerPunishment(responses->front());
  ASSERT_TRUE(premature.ok());
  EXPECT_FALSE(premature->success);
  EXPECT_NE(premature->revert_reason.find("omission claim"),
            std::string::npos);

  // File the claim; during the grace period punishment still fails.
  auto claim = pub.FileOmissionClaim(0);
  ASSERT_TRUE(claim.ok());
  EXPECT_TRUE(claim->success);
  auto during_grace = pub.TriggerPunishment(responses->front());
  ASSERT_TRUE(during_grace.ok());
  EXPECT_FALSE(during_grace->success);

  // After the grace deadline the broken promise forfeits the escrow.
  (*d)->clock().AdvanceSeconds(601);
  (*d)->chain().PumpUntilNow();
  auto receipt = pub.TriggerPunishment(responses->front());
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success);
}

TEST_F(PunishmentTest, HonestSlowNodeSurvivesOmissionClaim) {
  // An impatient client files a claim while the (honest) node's stage-2
  // transaction is still pending; once it lands, punishment is
  // impossible and duplicate claims are rejected.
  auto d = ShardedDeployment::Create(Config(ByzantineMode::kHonest));
  ASSERT_TRUE(d.ok());
  PublisherClient pub = (*d)->MakePublisher(0);
  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());
  // Digest not mined yet; claim is filed (mining the claim also mines
  // the digest, which is exactly the grace period's purpose).
  auto claim = pub.FileOmissionClaim(0);
  ASSERT_TRUE(claim.ok());
  (*d)->clock().AdvanceSeconds(601);
  (*d)->chain().PumpUntilNow();
  auto receipt = pub.TriggerPunishment(responses->front());
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);  // Root matches: no inconsistency.
  EXPECT_EQ((*d)->chain().BalanceOf((*d)->punishment_address()), EthToWei(32));
  // A claim against a committed position is pointless and rejected.
  auto again = pub.FileOmissionClaim(0);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->success);
}

TEST_F(PunishmentTest, OmissionClaimOnlyByBoundClient) {
  auto d = ShardedDeployment::Create(Config(ByzantineMode::kOmitStage2));
  ASSERT_TRUE(d.ok());
  PublisherClient pub = (*d)->MakePublisher(0);
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(8))).ok());
  (*d)->AdvanceBlocks(2);

  Address stranger = KeyPair::FromSeed(4242).address();
  (*d)->chain().Fund(stranger, EthToWei(10));
  Transaction tx;
  tx.from = stranger;
  tx.to = (*d)->punishment_address();
  tx.method = "fileOmissionClaim";
  PutU64(tx.calldata, 0);
  auto id = (*d)->chain().Submit(tx);
  ASSERT_TRUE(id.ok());
  auto receipt = (*d)->chain().WaitForReceipt(id.value());
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
}

TEST_F(PunishmentTest, SignedCorruptProofIsPunishable) {
  auto d = ShardedDeployment::Create(Config(ByzantineMode::kCorruptProof));
  ASSERT_TRUE(d.ok());
  PublisherClient pub = (*d)->MakePublisher(0);
  auto requests = pub.MakeRequests(Workload(8));
  // Publish() itself flags the bad proof at stage-1 verification.
  auto responses = pub.Publish(requests);
  EXPECT_FALSE(responses.ok());
  EXPECT_EQ(responses.status().code(), Code::kVerification);

  // Get the raw (signed, corrupt) responses directly and punish with one.
  auto raw = (*d)->engine().Append(/*tenant=*/0, requests);
  ASSERT_TRUE(raw.ok());
  (*d)->AdvanceBlocks(5);
  auto receipt = pub.TriggerPunishment(raw->front());
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success);  // Algorithm 2 case 2.
}

TEST_F(PunishmentTest, FabricatedEvidenceRejected) {
  auto d = ShardedDeployment::Create(Config(ByzantineMode::kHonest));
  ASSERT_TRUE(d.ok());
  PublisherClient pub = (*d)->MakePublisher(0);
  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());
  (*d)->AdvanceBlocks(5);

  // A malicious client tampers with the response and re-signs with its
  // own key: the signature no longer recovers to the Offchain Node.
  Stage1Response forged = responses->front();
  Bytes tampered_entry = forged.entry.get();
  tampered_entry.back() ^= 0xFF;
  forged.entry = std::move(tampered_entry);
  forged.offchain_signature =
      EcdsaSign(pub.key().private_key(), forged.SignedHash());
  auto receipt = pub.TriggerPunishment(forged);
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
  EXPECT_NE(receipt->revert_reason.find("signature"), std::string::npos);
  EXPECT_EQ((*d)->chain().BalanceOf((*d)->punishment_address()), EthToWei(32));
}

TEST_F(PunishmentTest, TamperedReadDetectedAndPunished) {
  auto d = ShardedDeployment::Create(Config(ByzantineMode::kHonest));
  ASSERT_TRUE(d.ok());
  PublisherClient pub = (*d)->MakePublisher(0);
  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());
  (*d)->AdvanceBlocks(5);

  // The node turns malicious for reads only.
  (*d)->engine().shard(0).set_byzantine_mode(ByzantineMode::kTamperReadData);
  auto read = (*d)->engine().ReadOne(/*tenant=*/0, EntryIndex{0, 3});
  ASSERT_TRUE(read.ok());
  // The forged response passes stage-1 verification (it is internally
  // consistent and signed!) ...
  EXPECT_TRUE(read->Verify((*d)->engine().address()));
  // ... but its root cannot match the blockchain-committed one.
  auto check = pub.CheckBlockchainCommit(read.value());
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value(), CommitCheck::kMismatch);
  auto receipt = pub.TriggerPunishment(read.value());
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success);
}

TEST_F(PunishmentTest, FinalizeOrPunishFlow) {
  // Honest path: finalizes without punishment.
  {
    auto d = ShardedDeployment::Create(Config(ByzantineMode::kHonest));
    ASSERT_TRUE(d.ok());
    PublisherClient pub = (*d)->MakePublisher(0);
    auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
    ASSERT_TRUE(responses.ok());
    auto outcome = pub.FinalizeOrPunish(responses->front());
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->check, CommitCheck::kBlockchainCommitted);
    EXPECT_FALSE(outcome->punishment_triggered);
  }
  // Equivocating path: punishes automatically.
  {
    auto d = ShardedDeployment::Create(Config(ByzantineMode::kEquivocateRoot));
    ASSERT_TRUE(d.ok());
    PublisherClient pub = (*d)->MakePublisher(0);
    auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
    ASSERT_TRUE(responses.ok());
    auto outcome = pub.FinalizeOrPunish(responses->front());
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->check, CommitCheck::kMismatch);
    EXPECT_TRUE(outcome->punishment_triggered);
    EXPECT_TRUE(outcome->punishment_receipt.success);
  }
  // Omission path: files the claim, waits out the grace, then punishes.
  {
    auto d = ShardedDeployment::Create(Config(ByzantineMode::kOmitStage2));
    ASSERT_TRUE(d.ok());
    PublisherClient pub = (*d)->MakePublisher(0);
    auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
    ASSERT_TRUE(responses.ok());
    auto outcome = pub.FinalizeOrPunish(responses->front(), /*max_blocks=*/3);
    ASSERT_TRUE(outcome.ok());
    EXPECT_EQ(outcome->check, CommitCheck::kNotYetCommitted);
    EXPECT_TRUE(outcome->punishment_triggered);
    EXPECT_TRUE(outcome->punishment_receipt.success);
  }
}

TEST_F(PunishmentTest, EscrowRefundLifecycle) {
  ShardedDeploymentConfig config = Config(ByzantineMode::kHonest);
  config.escrow_lock_seconds = 1000;
  auto d = ShardedDeployment::Create(config);
  ASSERT_TRUE(d.ok());
  Address offchain = (*d)->engine().address();
  Address punishment = (*d)->punishment_address();
  auto& chain = (*d)->chain();

  auto refund = [&](const Address& sender) -> Receipt {
    Transaction tx;
    tx.from = sender;
    tx.to = punishment;
    tx.method = "refundEscrow";
    auto id = chain.Submit(tx);
    EXPECT_TRUE(id.ok());
    return chain.WaitForReceipt(id.value()).value();
  };

  // Too early.
  EXPECT_FALSE(refund(offchain).success);
  // Wrong caller.
  (*d)->clock().AdvanceSeconds(2000);
  chain.PumpUntilNow();
  EXPECT_FALSE(refund((*d)->MakePublisher(0).address()).success);
  // Correct caller after the lock: full refund.
  Wei before = chain.BalanceOf(offchain);
  Receipt ok = refund(offchain);
  EXPECT_TRUE(ok.success);
  EXPECT_EQ(chain.BalanceOf(punishment), Wei());
  EXPECT_EQ(chain.BalanceOf(offchain) + ok.fee, before + EthToWei(32));
}

TEST_F(PunishmentTest, IsPunishedView) {
  auto d = ShardedDeployment::Create(Config(ByzantineMode::kEquivocateRoot));
  ASSERT_TRUE(d.ok());
  PublisherClient pub = (*d)->MakePublisher(0);
  auto raw = (*d)->chain().Call((*d)->punishment_address(), "isPunished", {});
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ((*raw)[0], 0);

  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());
  (*d)->AdvanceBlocks(5);
  ASSERT_TRUE(pub.TriggerPunishment(responses->front())->success);

  raw = (*d)->chain().Call((*d)->punishment_address(), "isPunished", {});
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ((*raw)[0], 1);
}

}  // namespace
}  // namespace wedge
