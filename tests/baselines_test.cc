#include "baselines/baselines.h"

#include <gtest/gtest.h>

#include "common/random.h"

namespace wedge {
namespace {

std::vector<std::pair<Bytes, Bytes>> Workload(int n, size_t value_size = 64) {
  Rng rng(n + 1000);
  std::vector<std::pair<Bytes, Bytes>> kvs;
  for (int i = 0; i < n; ++i) {
    kvs.emplace_back(rng.NextBytes(8), rng.NextBytes(value_size));
  }
  return kvs;
}

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() : clock_(0), chain_(ChainConfig{}, &clock_) {
    key_ = KeyPair::FromSeed(5);
    chain_.Fund(key_.address(), EthToWei(100000));
  }

  SimClock clock_;
  Blockchain chain_;
  KeyPair key_{KeyPair::FromSeed(5)};
};

TEST_F(BaselinesTest, OclCommitsEverythingOnChain) {
  auto ocl = OclClient::Create(&chain_, key_, /*max_pending=*/2);
  ASSERT_TRUE(ocl.ok());
  auto workload = Workload(6);
  auto stats = (*ocl)->CommitAll(workload);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->operations, 6u);
  EXPECT_GT(stats->gas_used, 6 * gas::kTxBase);
  EXPECT_GT(stats->commit_latency_micros, 0);
  // Data is readable back from the contract.
  Bytes query;
  PutU64(query, 3);
  auto raw = chain_.Call((*ocl)->contract_address(), "getEntry", query);
  ASSERT_TRUE(raw.ok());
  ByteReader reader(raw.value());
  EXPECT_EQ(reader.ReadBytes().value(), workload[3].first);
  EXPECT_EQ(reader.ReadBytes().value(), workload[3].second);
}

TEST_F(BaselinesTest, OclCostDominatedByStorage) {
  auto ocl = OclClient::Create(&chain_, key_);
  ASSERT_TRUE(ocl.ok());
  auto stats = (*ocl)->CommitAll(Workload(2, /*value_size=*/1024));
  ASSERT_TRUE(stats.ok());
  // 1024-byte value = 32 words * 20k = 640k gas minimum per op.
  EXPECT_GT(stats->gas_used / stats->operations, 600'000u);
}

TEST_F(BaselinesTest, SoclWritesOnlyDigests) {
  auto socl = SoclClient::Create(&chain_, key_, /*batch_size=*/4);
  ASSERT_TRUE(socl.ok());
  auto stats = (*socl)->CommitAll(Workload(12, /*value_size=*/1024));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->operations, 12u);
  // Per-op gas is tiny compared to OCL (digest only: ~50k per batch of 4).
  EXPECT_LT(stats->gas_used / stats->operations, 30'000u);
  // Three digests recorded sequentially.
  auto tail = chain_.Call((*socl)->root_record_address(), "tailIdx", {});
  ASSERT_TRUE(tail.ok());
  ByteReader reader(tail.value());
  EXPECT_EQ(reader.ReadU64().value(), 3u);
}

TEST_F(BaselinesTest, SoclLatencyBoundByChain) {
  auto socl = SoclClient::Create(&chain_, key_, /*batch_size=*/4);
  ASSERT_TRUE(socl.ok());
  auto stats = (*socl)->CommitAll(Workload(8));
  ASSERT_TRUE(stats.ok());
  // Synchronous commitment cannot beat the block interval.
  EXPECT_GE(stats->commit_latency_micros,
            13 * kMicrosPerSecond);
}

TEST_F(BaselinesTest, RhlPostsBatchesWithCalldataCost) {
  auto rhl = RhlClient::Create(&chain_, key_, /*batch_size=*/4,
                               /*challenge_window_seconds=*/3600,
                               /*escrow=*/EthToWei(8));
  ASSERT_TRUE(rhl.ok());
  auto stats = (*rhl)->CommitAll(Workload(8, /*value_size=*/1024));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->operations, 8u);
  // Calldata-driven: over 16 gas per posted byte.
  EXPECT_GT(stats->gas_used,
            stats->bytes_committed * 16);
  // But much cheaper than OCL storage (sanity bound).
  EXPECT_LT(stats->gas_used / stats->operations, 200'000u);
  EXPECT_EQ((*rhl)->posted_batches().size(), 2u);
}

TEST_F(BaselinesTest, RhlChallengeOnlySucceedsOnFraud) {
  auto rhl = RhlClient::Create(&chain_, key_, 4, 3600, EthToWei(8));
  ASSERT_TRUE(rhl.ok());
  auto workload = Workload(4);
  ASSERT_TRUE((*rhl)->CommitAll(workload).ok());

  KeyPair challenger = KeyPair::FromSeed(6);
  chain_.Fund(challenger.address(), EthToWei(10));

  // Honest batch: challenge reverts.
  auto honest = (*rhl)->Challenge(challenger, 0, (*rhl)->posted_batches()[0]);
  ASSERT_TRUE(honest.ok());
  EXPECT_FALSE(honest->success);

  // Replaying wrong data also reverts (cannot frame the sequencer).
  Bytes wrong = (*rhl)->posted_batches()[0];
  wrong.back() ^= 1;
  auto framed = (*rhl)->Challenge(challenger, 0, wrong);
  ASSERT_TRUE(framed.ok());
  EXPECT_FALSE(framed->success);
}

TEST_F(BaselinesTest, RhlFraudulentDigestSlashed) {
  // A fraudulent sequencer posts a batch whose digest does not match.
  auto rhl = RhlClient::Create(&chain_, key_, 4, 3600, EthToWei(8));
  ASSERT_TRUE(rhl.ok());
  Bytes batch = EncodeKvBatch(Workload(4), 0, 4);
  Hash256 wrong_digest = Sha256::Digest("not the real digest");

  Transaction tx;
  tx.from = key_.address();
  tx.to = (*rhl)->contract_address();
  tx.method = "submitBatch";
  PutBytes(tx.calldata, batch);
  Append(tx.calldata, HashToBytes(wrong_digest));
  tx.gas_limit = 5'000'000;
  auto id = chain_.Submit(tx);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(chain_.WaitForReceipt(id.value())->success);

  KeyPair challenger = KeyPair::FromSeed(7);
  chain_.Fund(challenger.address(), EthToWei(10));
  Wei before = chain_.BalanceOf(challenger.address());
  auto receipt = (*rhl)->Challenge(challenger, 0, batch);
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success);
  // The challenger won the 8 ETH escrow.
  EXPECT_EQ(chain_.BalanceOf(challenger.address()) + receipt->fee,
            before + EthToWei(8));
}

TEST_F(BaselinesTest, RhlFinalityAfterChallengeWindow) {
  auto rhl = RhlClient::Create(&chain_, key_, 4, /*window=*/600);
  ASSERT_TRUE(rhl.ok());
  ASSERT_TRUE((*rhl)->CommitAll(Workload(4)).ok());
  Bytes query;
  PutU64(query, 0);
  auto is_final = chain_.Call((*rhl)->contract_address(), "isFinal", query);
  ASSERT_TRUE(is_final.ok());
  EXPECT_EQ((*is_final)[0], 0);  // Window still open.

  clock_.AdvanceSeconds(700);
  chain_.PumpUntilNow();
  is_final = chain_.Call((*rhl)->contract_address(), "isFinal", query);
  ASSERT_TRUE(is_final.ok());
  EXPECT_EQ((*is_final)[0], 1);
  EXPECT_EQ((*rhl)->FinalityLagMicros(), 600 * kMicrosPerSecond);
}

TEST_F(BaselinesTest, CostOrderingMatchesPaper) {
  // The Table 1 shape: cost(OCL) ~= cost(RHL) >> cost(SOCL) ~= cost(WB).
  auto workload = Workload(8, /*value_size=*/1024);

  auto ocl = OclClient::Create(&chain_, key_);
  auto stats_ocl = (*ocl)->CommitAll(workload);
  ASSERT_TRUE(stats_ocl.ok());

  auto socl = SoclClient::Create(&chain_, key_, 4);
  auto stats_socl = (*socl)->CommitAll(workload);
  ASSERT_TRUE(stats_socl.ok());

  auto rhl = RhlClient::Create(&chain_, key_, 4);
  auto stats_rhl = (*rhl)->CommitAll(workload);
  ASSERT_TRUE(stats_rhl.ok());

  double ocl_cost = stats_ocl->EthPerOp();
  double socl_cost = stats_socl->EthPerOp();
  double rhl_cost = stats_rhl->EthPerOp();
  EXPECT_GT(ocl_cost, 10 * socl_cost);
  EXPECT_GT(rhl_cost, socl_cost);
  EXPECT_GT(ocl_cost, rhl_cost);  // Storage beats calldata in cost.
}

}  // namespace
}  // namespace wedge
