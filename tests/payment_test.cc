#include "contracts/payment.h"

#include <gtest/gtest.h>

#include "shard/sharded_engine.h"

namespace wedge {
namespace {

/// Payment-channel scenarios for the DApp-logging-as-a-service model
/// (paper §4.5, Algorithm 3). Channel: 100 wei per 60-second period,
/// at most 5 overdue periods.
class PaymentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ShardedDeploymentConfig config;
    config.engine.num_shards = 1;
    config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
    config.engine.node.batch_size = 4;
    config.engine.node.worker_threads = 1;
    auto d = ShardedDeployment::Create(config);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    deployment_ = std::move(d).value();
    auto addr = deployment_->CreatePaymentChannel(
        /*period_seconds=*/60, /*payment_per_period=*/U256(100),
        /*max_overdue_periods=*/5);
    ASSERT_TRUE(addr.ok()) << addr.status().ToString();
    payment_address_ = addr.value();
    client_address_ = deployment_->MakePublisher(0).address();
    client_ = std::make_unique<PaymentChannelClient>(
        &deployment_->chain(), payment_address_, client_address_);
    offchain_ = std::make_unique<PaymentChannelClient>(
        &deployment_->chain(), payment_address_,
        deployment_->engine().address());
  }

  /// Advances sim time by whole seconds and mines.
  void Elapse(int64_t seconds) {
    deployment_->clock().AdvanceSeconds(seconds);
    deployment_->chain().PumpUntilNow();
  }

  std::unique_ptr<ShardedDeployment> deployment_;
  Address client_address_;
  Address payment_address_;
  std::unique_ptr<PaymentChannelClient> client_;
  std::unique_ptr<PaymentChannelClient> offchain_;
};

TEST_F(PaymentTest, DepositOnlyByClient) {
  ASSERT_TRUE(client_->Deposit(U256(10'000)).ok());
  EXPECT_EQ(deployment_->chain().BalanceOf(payment_address_), U256(10'000));
  // The Offchain Node cannot fund the channel.
  EXPECT_FALSE(offchain_->Deposit(U256(1)).ok());
}

TEST_F(PaymentTest, StartPaymentGuards) {
  EXPECT_FALSE(offchain_->StartPayment().ok());  // Wrong party.
  ASSERT_TRUE(client_->Deposit(U256(10'000)).ok());
  ASSERT_TRUE(client_->StartPayment().ok());
  EXPECT_FALSE(client_->StartPayment().ok());  // Already started.
}

TEST_F(PaymentTest, UpdateBeforeStartReverts) {
  EXPECT_FALSE(client_->UpdateStatus().ok());
}

TEST_F(PaymentTest, StreamingReservation) {
  ASSERT_TRUE(client_->Deposit(U256(10'000)).ok());
  ASSERT_TRUE(client_->StartPayment().ok());
  EXPECT_EQ(client_->ReservedForEdge().value(), Wei());

  // ~3 periods elapse (use block-aligned arithmetic: updates happen at
  // the next mined block's timestamp).
  Elapse(3 * 60);
  auto receipt = client_->UpdateStatus();
  ASSERT_TRUE(receipt.ok());
  Wei reserved = client_->ReservedForEdge().value();
  // At least 3 periods accrued; block-timestamp rounding may add some.
  EXPECT_GE(reserved, U256(300));
  EXPECT_LE(reserved, U256(600));
  // A follow-up update only accrues what the confirmation delay itself
  // added (each transaction advances ~1 simulated minute): monotone, and
  // bounded by two more periods.
  ASSERT_TRUE(client_->UpdateStatus().ok());
  Wei reserved2 = client_->ReservedForEdge().value();
  EXPECT_GE(reserved2, reserved);
  EXPECT_LE(reserved2, reserved + U256(200));
  // Emits PaymentStateUpdated while funded.
  bool found = false;
  for (const auto& ev : receipt->events) {
    found |= ev.name == "PaymentStateUpdated";
  }
  EXPECT_TRUE(found);
}

TEST_F(PaymentTest, OffchainWithdrawal) {
  ASSERT_TRUE(client_->Deposit(U256(10'000)).ok());
  ASSERT_TRUE(client_->StartPayment().ok());
  Elapse(5 * 60);
  Wei before = deployment_->chain().BalanceOf(deployment_->engine().address());
  auto receipt = offchain_->WithdrawOffchain();
  ASSERT_TRUE(receipt.ok());
  Wei after = deployment_->chain().BalanceOf(deployment_->engine().address());
  // Withdrew >= 5 periods worth, minus gas.
  EXPECT_GE(after + receipt->fee, before + U256(500));
  EXPECT_EQ(client_->ReservedForEdge().value(), Wei());
  // Client cannot call the offchain withdrawal.
  EXPECT_FALSE(client_->WithdrawOffchain().ok());
}

TEST_F(PaymentTest, ClientWithdrawalKeepsReservedPortion) {
  ASSERT_TRUE(client_->Deposit(U256(1'000)).ok());
  ASSERT_TRUE(client_->StartPayment().ok());
  Elapse(2 * 60);
  ASSERT_TRUE(client_->UpdateStatus().ok());
  ASSERT_TRUE(client_->WithdrawClient().ok());
  // Only the unreserved remainder left the contract: what stays behind is
  // exactly the (post-withdraw-update) reserved portion.
  Wei reserved = client_->ReservedForEdge().value();
  EXPECT_GT(reserved, Wei());
  EXPECT_EQ(deployment_->chain().BalanceOf(payment_address_), reserved);
  EXPECT_FALSE(offchain_->WithdrawClient().ok());  // Wrong party.
}

TEST_F(PaymentTest, NoOverdrawEver) {
  ASSERT_TRUE(client_->Deposit(U256(250)).ok());  // Covers 2.5 periods.
  ASSERT_TRUE(client_->StartPayment().ok());
  Elapse(4 * 60);  // 4 periods owed, only 2 covered.
  auto receipt = client_->UpdateStatus();
  ASSERT_TRUE(receipt.ok());
  Wei reserved = client_->ReservedForEdge().value();
  EXPECT_EQ(reserved, U256(200));  // Whole periods only, never overdrawn.
  bool insufficient = false;
  for (const auto& ev : receipt->events) {
    insufficient |= ev.name == "DepositInsufficient";
  }
  EXPECT_TRUE(insufficient);
  EXPECT_FALSE(client_->IsTerminated().value());
}

TEST_F(PaymentTest, ViolationTerminatesAndSweeps) {
  ASSERT_TRUE(client_->Deposit(U256(100)).ok());  // One period only.
  ASSERT_TRUE(client_->StartPayment().ok());
  // 10 periods elapse; 9 overdue > max 5.
  Elapse(10 * 60);
  Wei offchain_before =
      deployment_->chain().BalanceOf(deployment_->engine().address());
  auto receipt = offchain_->UpdateStatus();
  ASSERT_TRUE(receipt.ok());
  bool violated = false;
  for (const auto& ev : receipt->events) {
    violated |= ev.name == "ContractViolated";
  }
  EXPECT_TRUE(violated);
  EXPECT_TRUE(client_->IsTerminated().value());
  // Entire balance swept to the Offchain Node (it paid gas for the call,
  // so compare with the fee added back).
  EXPECT_EQ(deployment_->chain().BalanceOf(payment_address_), Wei());
  EXPECT_EQ(deployment_->chain().BalanceOf(deployment_->engine().address()) +
                receipt->fee,
            offchain_before + U256(100));
  // No further deposits accepted.
  EXPECT_FALSE(client_->Deposit(U256(1)).ok());
}

TEST_F(PaymentTest, CleanTermination) {
  ASSERT_TRUE(client_->Deposit(U256(1'000)).ok());
  ASSERT_TRUE(client_->StartPayment().ok());
  Elapse(3 * 60);
  Wei client_before =
      deployment_->chain().BalanceOf(client_address_);
  Wei offchain_before =
      deployment_->chain().BalanceOf(deployment_->engine().address());
  auto receipt = client_->Terminate();
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(client_->IsTerminated().value());
  EXPECT_EQ(deployment_->chain().BalanceOf(payment_address_), Wei());
  // Offchain got the accrued periods; client got the rest back.
  Wei offchain_after =
      deployment_->chain().BalanceOf(deployment_->engine().address());
  EXPECT_GE(offchain_after, offchain_before + U256(300));
  EXPECT_GT(deployment_->chain().BalanceOf(client_address_) +
                receipt->fee,
            client_before);
  // Terminate twice fails.
  EXPECT_FALSE(client_->Terminate().ok());
}

TEST_F(PaymentTest, RemainingPeriodsView) {
  ASSERT_TRUE(client_->Deposit(U256(1'000)).ok());
  ASSERT_TRUE(client_->StartPayment().ok());
  EXPECT_EQ(client_->RemainingPeriods().value(), 10u);
  Elapse(2 * 60);
  ASSERT_TRUE(client_->UpdateStatus().ok());
  EXPECT_LE(client_->RemainingPeriods().value(), 8u);
}

TEST_F(PaymentTest, ConservationOfFunds) {
  // Total wei across contract + both parties stays constant modulo gas.
  ASSERT_TRUE(client_->Deposit(U256(5'000)).ok());
  ASSERT_TRUE(client_->StartPayment().ok());
  auto& chain = deployment_->chain();
  Address client = client_address_;
  Address offchain = deployment_->engine().address();
  Wei total_before = chain.BalanceOf(client) + chain.BalanceOf(offchain) +
                     chain.BalanceOf(payment_address_) +
                     chain.TotalFeesPaid(client) +
                     chain.TotalFeesPaid(offchain);
  Elapse(7 * 60);
  ASSERT_TRUE(client_->UpdateStatus().ok());
  ASSERT_TRUE(offchain_->WithdrawOffchain().ok());
  ASSERT_TRUE(client_->Terminate().ok());
  Wei total_after = chain.BalanceOf(client) + chain.BalanceOf(offchain) +
                    chain.BalanceOf(payment_address_) +
                    chain.TotalFeesPaid(client) +
                    chain.TotalFeesPaid(offchain);
  EXPECT_EQ(total_before, total_after);
}

}  // namespace
}  // namespace wedge
