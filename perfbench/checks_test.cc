// The benchmark's output checks must reject a tampered reply.

#include "checks.h"

#include <gtest/gtest.h>

#include "core/offchain_node.h"
#include "crypto/sha256.h"

namespace wedge::perfbench {
namespace {

constexpr uint32_t kShard = 1;

class ChecksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    OffchainNodeConfig config;
    config.shard_id = kShard;
    config.auto_stage2 = false;
    config.worker_threads = 1;
    node_ = std::make_unique<OffchainNode>(
        config, KeyPair::FromSeed(0xED6E), std::make_unique<MemoryLogStore>(),
        nullptr, Address::Zero());
    KeyPair publisher = KeyPair::FromSeed(7);
    for (uint64_t i = 0; i < 4; ++i) {
      sent_.push_back(AppendRequest::Make(publisher, i, ToBytes("k"),
                                          ToBytes("v" + std::to_string(i))));
    }
    auto reply = node_->Append(sent_);
    ASSERT_TRUE(reply.ok());
    got_ = *reply;
  }

  std::string Verify(const Stage1Response& r, size_t i) const {
    return CheckVerifiedEntry(r, node_->address(), kShard, got_[i].index,
                              Sha256::Digest(sent_[i].Serialize()));
  }

  std::unique_ptr<OffchainNode> node_;
  std::vector<AppendRequest> sent_;
  std::vector<Stage1Response> got_;
};

TEST_F(ChecksTest, AcceptsHonestReplies) {
  EXPECT_EQ(CheckAppendReply(sent_, got_, kShard), "");
  for (size_t i = 0; i < got_.size(); ++i) {
    EXPECT_EQ(Verify(got_[i], i), "");
    EXPECT_EQ(CheckReadReply(got_[i].index, got_[i], kShard), "");
  }
}

TEST_F(ChecksTest, RejectsFlippedEntryByte) {
  Stage1Response r = got_[2];
  Bytes entry = r.entry.get();
  entry[entry.size() / 2] ^= 0x01;
  r.entry = entry;
  EXPECT_NE(Verify(r, 2), "");
}

TEST_F(ChecksTest, RejectsWrongShard) {
  std::vector<Stage1Response> tampered = got_;
  tampered[1].proof.shard_id = kShard + 1;
  EXPECT_NE(CheckAppendReply(sent_, tampered, kShard), "");
  EXPECT_NE(CheckReadReply(got_[1].index, tampered[1], kShard), "");
  EXPECT_NE(CheckAppendReply(sent_, got_, kShard + 1), "");
  // The shard id is inside the signed statement, so relabelling it also
  // breaks verification.
  EXPECT_NE(CheckVerifiedEntry(tampered[1], node_->address(), kShard + 1,
                               got_[1].index,
                               Sha256::Digest(sent_[1].Serialize())),
            "");
}

TEST_F(ChecksTest, RejectsForgedSignature) {
  Stage1Response r = got_[0];
  r.offchain_signature =
      EcdsaSign(KeyPair::FromSeed(0xBAD).private_key(), r.SignedHash());
  EXPECT_NE(Verify(r, 0), "");
}

TEST_F(ChecksTest, RejectsWrongOffset) {
  std::vector<Stage1Response> swapped = got_;
  std::swap(swapped[0], swapped[3]);
  EXPECT_NE(CheckAppendReply(sent_, swapped, kShard), "");
  EXPECT_NE(CheckReadReply(EntryIndex{got_[0].index.log_id, 2}, got_[3],
                           kShard),
            "");
}

TEST_F(ChecksTest, RejectsMissingResponseAndOtherBytes) {
  std::vector<Stage1Response> short_reply(got_.begin(), got_.end() - 1);
  EXPECT_NE(CheckAppendReply(sent_, short_reply, kShard), "");
  EXPECT_NE(CheckAppendReply(sent_, {}, kShard), "");
  // An authentic response for a different entry is not the one appended.
  EXPECT_NE(CheckVerifiedEntry(got_[1], node_->address(), kShard,
                               got_[1].index,
                               Sha256::Digest(sent_[2].Serialize())),
            "");
}

}  // namespace
}  // namespace wedge::perfbench
