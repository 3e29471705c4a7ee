#include "core/batch_read.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "shard/sharded_engine.h"

namespace wedge {
namespace {

class BatchReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ShardedDeploymentConfig config;
    config.engine.num_shards = 1;
    config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
    config.engine.node.batch_size = 8;
    config.engine.node.worker_threads = 2;
    auto d = ShardedDeployment::Create(config);
    ASSERT_TRUE(d.ok());
    deployment_ = std::move(d).value();
    // One publisher for the whole test, so sequence numbers keep counting.
    publisher_ =
        std::make_unique<PublisherClient>(deployment_->MakePublisher(0));
    std::vector<std::pair<Bytes, Bytes>> kvs;
    for (int i = 0; i < 24; ++i) {
      kvs.emplace_back(ToBytes("k" + std::to_string(i)),
                       ToBytes("v" + std::to_string(i)));
    }
    ASSERT_TRUE(publisher_->Publish(publisher_->MakeRequests(kvs)).ok());
    deployment_->AdvanceBlocks(4);
  }

  OffchainNode& node() { return deployment_->engine().shard(0); }

  std::unique_ptr<ShardedDeployment> deployment_;
  std::unique_ptr<PublisherClient> publisher_;
};

TEST_F(BatchReadTest, WholePositionRead) {
  auto batch = node().ReadBatch(1);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->log_id, 1u);
  EXPECT_EQ(batch->entries.size(), 8u);
  EXPECT_TRUE(batch->Verify(node().address()));
  // Entries decode to the original requests in order.
  for (size_t i = 0; i < batch->entries.size(); ++i) {
    EXPECT_EQ(batch->entries[i].first, i);
    auto req = AppendRequest::Deserialize(batch->entries[i].second);
    ASSERT_TRUE(req.ok());
    EXPECT_EQ(req->sequence, 8 + i);  // Position 1 holds requests 8..15.
  }
}

TEST_F(BatchReadTest, SelectedOffsetsRead) {
  auto batch = node().ReadBatch(0, {1, 4, 6});
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->entries.size(), 3u);
  EXPECT_TRUE(batch->Verify(node().address()));
}

TEST_F(BatchReadTest, RejectsBadTargets) {
  EXPECT_FALSE(node().ReadBatch(99).ok());
  EXPECT_FALSE(node().ReadBatch(0, {8}).ok());
}

TEST_F(BatchReadTest, VerifyCatchesTampering) {
  auto batch = node().ReadBatch(0).value();
  Address signer = node().address();
  ASSERT_TRUE(batch.Verify(signer));

  auto bad = batch;
  bad.entries[3].second.back() ^= 1;  // Tampered data.
  EXPECT_FALSE(bad.Verify(signer));

  bad = batch;
  bad.entries[2].first = 7;  // Misattributed offset.
  EXPECT_FALSE(bad.Verify(signer));

  bad = batch;
  bad.mroot[0] ^= 1;  // Wrong root (signature breaks).
  EXPECT_FALSE(bad.Verify(signer));

  bad = batch;
  bad.offchain_signature =
      EcdsaSign(KeyPair::FromSeed(123).private_key(), bad.SignedHash());
  EXPECT_FALSE(bad.Verify(signer));  // Signed by an imposter.

  bad = batch;
  bad.entries.clear();
  EXPECT_FALSE(bad.Verify(signer));
}

TEST_F(BatchReadTest, SerializationRoundTrip) {
  auto batch = node().ReadBatch(2, {0, 3}).value();
  auto back = BatchReadResponse::Deserialize(batch.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->Verify(node().address()));
  EXPECT_EQ(back->entries.size(), batch.entries.size());
  EXPECT_FALSE(BatchReadResponse::Deserialize(Bytes{9}).ok());
}

TEST_F(BatchReadTest, FastAuditMatchesSlowAudit) {
  AuditorClient auditor = deployment_->MakeAuditor(/*tenant=*/0, /*seed=*/55);
  auto slow = auditor.Audit(0, 2);
  auto fast = auditor.AuditFast(0, 2);
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->entries_checked, slow->entries_checked);
  EXPECT_TRUE(fast->Clean());
  EXPECT_TRUE(slow->Clean());
  EXPECT_EQ(fast->not_yet_committed, 0u);
}

TEST_F(BatchReadTest, FastAuditDetectsEquivocation) {
  // Flip the node to tampering mode: ReadBatch serves the honest stored
  // data (tamper injection targets single reads), so instead test the
  // on-chain mismatch path by making the node equivocate on a NEW batch
  // whose digest is never honestly committed.
  node().set_byzantine_mode(ByzantineMode::kEquivocateRoot);
  PublisherClient& pub = *publisher_;
  std::vector<std::pair<Bytes, Bytes>> kvs;
  for (int i = 0; i < 8; ++i) {
    kvs.emplace_back(ToBytes("x" + std::to_string(i)), ToBytes("y"));
  }
  ASSERT_TRUE(node().Append(pub.MakeRequests(kvs)).ok());
  deployment_->AdvanceBlocks(4);

  AuditorClient auditor = deployment_->MakeAuditor(/*tenant=*/0, /*seed=*/56);
  auto fast = auditor.AuditFast(3, 3);  // The equivocated position.
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->onchain_mismatches, 8u);
  EXPECT_FALSE(fast->Clean());
}

TEST_F(BatchReadTest, FastAuditFlagsUncommittedPositions) {
  node().set_byzantine_mode(ByzantineMode::kOmitStage2);
  PublisherClient& pub = *publisher_;
  std::vector<std::pair<Bytes, Bytes>> kvs;
  for (int i = 0; i < 8; ++i) {
    kvs.emplace_back(ToBytes("o" + std::to_string(i)), ToBytes("p"));
  }
  ASSERT_TRUE(node().Append(pub.MakeRequests(kvs)).ok());
  deployment_->AdvanceBlocks(4);

  AuditorClient auditor = deployment_->MakeAuditor(/*tenant=*/0, /*seed=*/57);
  auto fast = auditor.AuditFast(3, 3);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->not_yet_committed, 8u);
}

TEST_F(BatchReadTest, FastAuditRejectsEmptyRange) {
  AuditorClient auditor = deployment_->MakeAuditor(/*tenant=*/0, /*seed=*/58);
  EXPECT_FALSE(auditor.AuditFast(2, 1).ok());
}

}  // namespace
}  // namespace wedge
