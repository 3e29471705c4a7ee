#include "core/economics.h"

#include <gtest/gtest.h>

#include "shard/sharded_engine.h"

namespace wedge {
namespace {

TEST(EconomicsTest, RequiredEscrowScalesWithExposure) {
  EscrowModel model;
  model.gain_per_op = GweiToWei(1);  // 1 gwei gained per forged op.
  model.ops_per_second = 1000;
  model.detection_window_seconds = 60;
  model.safety_margin = 1.0;
  // 1 gwei * 1000 ops/s * 60 s = 60,000 gwei.
  EXPECT_EQ(RequiredEscrow(model), GweiToWei(60'000));

  model.safety_margin = 2.0;
  EXPECT_EQ(RequiredEscrow(model), GweiToWei(120'000));

  model.detection_window_seconds = 120;
  EXPECT_EQ(RequiredEscrow(model), GweiToWei(240'000));
}

TEST(EconomicsTest, DegenerateModelsNeedNoEscrow) {
  EscrowModel model;
  model.gain_per_op = Wei();
  model.ops_per_second = 1000;
  model.detection_window_seconds = 60;
  EXPECT_TRUE(RequiredEscrow(model).IsZero());
  EXPECT_TRUE(EscrowIsDeterrent(Wei(), model));

  model.gain_per_op = GweiToWei(1);
  model.ops_per_second = 0;
  EXPECT_TRUE(RequiredEscrow(model).IsZero());
}

TEST(EconomicsTest, SafetyMarginFloorsAtOne) {
  EscrowModel model;
  model.gain_per_op = GweiToWei(1);
  model.ops_per_second = 10;
  model.detection_window_seconds = 10;
  model.safety_margin = 0.1;  // Nonsense margin is clamped up to 1.
  EXPECT_EQ(RequiredEscrow(model), GweiToWei(100));
}

TEST(EconomicsTest, DeterrentThreshold) {
  EscrowModel model;
  model.gain_per_op = GweiToWei(2);
  model.ops_per_second = 100;
  model.detection_window_seconds = 10;
  model.safety_margin = 1.0;
  Wei required = RequiredEscrow(model);  // 2000 gwei.
  EXPECT_TRUE(EscrowIsDeterrent(required, model));
  EXPECT_FALSE(EscrowIsDeterrent(required - U256(1), model));
}

TEST(EconomicsTest, MaxSafeDetectionWindowInvertsTheModel) {
  EscrowModel model;
  model.gain_per_op = GweiToWei(1);
  model.ops_per_second = 1000;
  model.safety_margin = 1.0;
  // 1 ETH escrow / (1 gwei * 1000 ops/s) = 1e9 / 1e3 ... = 1e6 seconds.
  double window = MaxSafeDetectionWindow(EthToWei(1), model);
  EXPECT_NEAR(window, 1e6, 1e3);
  // Sanity: the window round-trips through RequiredEscrow.
  model.detection_window_seconds = window * 0.99;
  EXPECT_TRUE(EscrowIsDeterrent(EthToWei(1), model));
  model.detection_window_seconds = window * 1.01;
  EXPECT_FALSE(EscrowIsDeterrent(EthToWei(1), model));

  model.ops_per_second = 0;
  EXPECT_EQ(MaxSafeDetectionWindow(EthToWei(1), model), 0);
}

TEST(EconomicsTest, SampleDetectionProbabilityBounds) {
  // No tampering or no samples: nothing to detect.
  EXPECT_EQ(SampleDetectionProbability(100, 0, 10), 0.0);
  EXPECT_EQ(SampleDetectionProbability(100, 5, 0), 0.0);
  EXPECT_EQ(SampleDetectionProbability(0, 5, 5), 0.0);
  // Everything tampered or everything sampled: certain detection.
  EXPECT_EQ(SampleDetectionProbability(100, 100, 1), 1.0);
  EXPECT_EQ(SampleDetectionProbability(100, 1, 100), 1.0);
  // One tampered entry, one sample out of N: probability 1/N.
  EXPECT_NEAR(SampleDetectionProbability(100, 1, 1), 0.01, 1e-12);
  // Monotone in the sample size.
  double prev = 0;
  for (uint32_t s = 1; s < 100; s += 7) {
    double p = SampleDetectionProbability(100, 3, s);
    EXPECT_GE(p, prev);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
  // Half sampled, one tampered: exactly 1/2.
  EXPECT_NEAR(SampleDetectionProbability(10, 1, 5), 0.5, 1e-12);
}

TEST(EconomicsTest, SampledAuditDetectsRootEquivocationCertainly) {
  // Root-level lies (equivocation/omission) hit every sample, so even a
  // 1-entry sample per position detects them.
  ShardedDeploymentConfig config;
  config.engine.num_shards = 1;
  config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
  config.engine.node.batch_size = 8;
  config.engine.node.byzantine_mode = ByzantineMode::kEquivocateRoot;
  auto d = ShardedDeployment::Create(config);
  ASSERT_TRUE(d.ok());
  PublisherClient pub = (*d)->MakePublisher(0);
  std::vector<std::pair<Bytes, Bytes>> kvs;
  for (int i = 0; i < 16; ++i) {
    kvs.emplace_back(ToBytes("k" + std::to_string(i)), ToBytes("v"));
  }
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(kvs)).ok());
  (*d)->AdvanceBlocks(4);

  AuditorClient auditor = (*d)->MakeAuditor(/*tenant=*/0, /*seed=*/3);
  auto report = auditor.AuditSample(0, 1, /*samples_per_position=*/1,
                                    /*seed=*/77);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->entries_checked, 2u);  // One sample per position.
  EXPECT_EQ(report->onchain_mismatches, 2u);
  EXPECT_FALSE(report->Clean());
}

TEST(EconomicsTest, SampledAuditOnHonestLogIsCleanAndCheap) {
  ShardedDeploymentConfig config;
  config.engine.num_shards = 1;
  config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
  config.engine.node.batch_size = 16;
  auto d = ShardedDeployment::Create(config);
  ASSERT_TRUE(d.ok());
  PublisherClient pub = (*d)->MakePublisher(0);
  std::vector<std::pair<Bytes, Bytes>> kvs;
  for (int i = 0; i < 48; ++i) {
    kvs.emplace_back(ToBytes("k" + std::to_string(i)), ToBytes("v"));
  }
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(kvs)).ok());
  (*d)->AdvanceBlocks(4);

  AuditorClient auditor = (*d)->MakeAuditor(/*tenant=*/0, /*seed=*/4);
  auto report = auditor.AuditSample(0, 2, 4, 99);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->entries_checked, 12u);  // 4 of 16 per position.
  EXPECT_TRUE(report->Clean());
  // Oversampling degenerates to a full read.
  auto full = auditor.AuditSample(0, 2, 100, 99);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->entries_checked, 48u);
  // Guards.
  EXPECT_FALSE(auditor.AuditSample(2, 0, 4, 1).ok());
  EXPECT_FALSE(auditor.AuditSample(0, 2, 0, 1).ok());
}

TEST(EconomicsTest, GasPriceVolatilityMovesFees) {
  ChainConfig config;
  config.gas_price_volatility = 0.5;
  SimClock clock(0);
  Blockchain chain(config, &clock);
  Address alice = KeyPair::FromSeed(1).address();
  Address bob = KeyPair::FromSeed(2).address();
  chain.Fund(alice, EthToWei(100));

  std::set<std::string> fees;
  for (int i = 0; i < 6; ++i) {
    Transaction tx;
    tx.from = alice;
    tx.to = bob;
    tx.value = U256(1);
    auto id = chain.Submit(tx);
    ASSERT_TRUE(id.ok());
    clock.AdvanceSeconds(13);
    chain.PumpUntilNow();
    auto receipt = chain.GetReceipt(id.value());
    ASSERT_TRUE(receipt.ok());
    fees.insert(receipt->fee.ToDecimal());
    // Price stays within the +/-50% band.
    Wei price = chain.CurrentGasPrice();
    EXPECT_GE(price, GweiToWei(50));
    EXPECT_LE(price, GweiToWei(150));
  }
  // Identical transactions paid different fees across blocks.
  EXPECT_GT(fees.size(), 1u);

  // With volatility off the price is constant.
  SimClock clock2(0);
  Blockchain stable(ChainConfig{}, &clock2);
  EXPECT_EQ(stable.CurrentGasPrice(), GweiToWei(100));
  clock2.AdvanceSeconds(130);
  stable.PumpUntilNow();
  EXPECT_EQ(stable.CurrentGasPrice(), GweiToWei(100));
}

}  // namespace
}  // namespace wedge
