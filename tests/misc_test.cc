// Cross-cutting coverage: canonical message encodings, contract
// framework guards, chain bookkeeping corners.

#include <gtest/gtest.h>

#include "contracts/stage1_message.h"
#include "shard/sharded_engine.h"

namespace wedge {
namespace {

TEST(Stage1MessageTest, EncodingIsCanonicalAndDomainSeparated) {
  MerkleProof proof;
  proof.leaf_index = 3;
  proof.path.push_back(MerkleProofNode{Sha256::Digest("sib"), true});
  Hash256 root = Sha256::Digest("root");
  Bytes data = ToBytes("payload");

  Bytes a = EncodeStage1Message(0, 7, root, proof, data);
  Bytes b = EncodeStage1Message(0, 7, root, proof, data);
  EXPECT_EQ(a, b);  // Deterministic.

  // Every field matters.
  EXPECT_NE(Stage1MessageHash(0, 7, root, proof, data),
            Stage1MessageHash(0, 8, root, proof, data));
  // Shard identity is part of the statement: the same log id on two
  // shards must never hash alike (log ids are shard-local).
  EXPECT_NE(Stage1MessageHash(0, 7, root, proof, data),
            Stage1MessageHash(1, 7, root, proof, data));
  EXPECT_NE(Stage1MessageHash(0, 7, root, proof, data),
            Stage1MessageHash(0, 7, Sha256::Digest("other"), proof, data));
  EXPECT_NE(Stage1MessageHash(0, 7, root, proof, data),
            Stage1MessageHash(0, 7, root, proof, ToBytes("other")));
  MerkleProof other_proof = proof;
  other_proof.leaf_index = 4;
  EXPECT_NE(Stage1MessageHash(0, 7, root, proof, data),
            Stage1MessageHash(0, 7, root, other_proof, data));

  // Length-prefixing prevents field-boundary ambiguity: moving a byte
  // from the end of one field to the start of the next changes the hash.
  EXPECT_NE(Stage1MessageHash(0, 7, root, proof, ToBytes("ab")),
            Stage1MessageHash(0, 7, root, proof, ToBytes("a")));
}

/// Guard-behaviour probe contract.
class ProbeContract : public Contract {
 public:
  std::string_view Name() const override { return "Probe"; }
  Result<Bytes> Call(CallContext& ctx, std::string_view method,
                     const Bytes& args) override {
    (void)args;
    if (method == "emit_in_readonly") {
      ctx.Emit("ShouldNotAppear", Bytes());
      Bytes out;
      PutU32(out, static_cast<uint32_t>(ctx.staged_events().size()));
      return out;
    }
    if (method == "transfer_in_readonly") {
      Status s = ctx.TransferOut(ctx.sender(), U256(1));
      return Bytes{static_cast<uint8_t>(s.ok() ? 1 : 0)};
    }
    if (method == "overdraw") {
      return ctx.TransferOut(ctx.sender(), EthToWei(1'000'000)).ok()
                 ? Result<Bytes>(Bytes{1})
                 : Result<Bytes>(Status::Reverted("insufficient"));
    }
    if (method == "block_info") {
      Bytes out;
      PutU64(out, ctx.block_number());
      PutU64(out, static_cast<uint64_t>(ctx.block_timestamp()));
      return out;
    }
    return Status::NotFound("unknown");
  }
};

class FrameworkGuardTest : public ::testing::Test {
 protected:
  FrameworkGuardTest() : clock_(0), chain_(ChainConfig{}, &clock_) {
    owner_ = KeyPair::FromSeed(1).address();
    chain_.Fund(owner_, EthToWei(10));
    contract_ = chain_.Deploy(owner_, std::make_unique<ProbeContract>())
                    .value();
  }
  SimClock clock_;
  Blockchain chain_;
  Address owner_;
  Address contract_;
};

TEST_F(FrameworkGuardTest, ReadOnlyCallsCannotEmit) {
  auto raw = chain_.Call(contract_, "emit_in_readonly", {});
  ASSERT_TRUE(raw.ok());
  ByteReader reader(raw.value());
  EXPECT_EQ(reader.ReadU32().value(), 0u);  // Event was swallowed.
}

TEST_F(FrameworkGuardTest, ReadOnlyCallsCannotTransfer) {
  auto raw = chain_.Call(contract_, "transfer_in_readonly", {});
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ((*raw)[0], 0);
}

TEST_F(FrameworkGuardTest, ContractCannotOverdraw) {
  Transaction tx;
  tx.from = owner_;
  tx.to = contract_;
  tx.method = "overdraw";
  auto id = chain_.Submit(tx);
  ASSERT_TRUE(id.ok());
  auto receipt = chain_.WaitForReceipt(id.value());
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
}

TEST_F(FrameworkGuardTest, BlockInfoVisibleToContracts) {
  clock_.AdvanceSeconds(13 * 3);
  chain_.PumpUntilNow();
  Transaction tx;
  tx.from = owner_;
  tx.to = contract_;
  tx.method = "block_info";
  auto id = chain_.Submit(tx);
  ASSERT_TRUE(id.ok());
  clock_.AdvanceSeconds(13);
  chain_.PumpUntilNow();
  auto receipt = chain_.GetReceipt(id.value());
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(receipt->block_number, 4u);
  EXPECT_EQ(receipt->block_timestamp, 13 * 4);
}

TEST(ChainBookkeepingTest, DeployedAddressesAreUnique) {
  SimClock clock(0);
  Blockchain chain(ChainConfig{}, &clock);
  Address owner = KeyPair::FromSeed(1).address();
  chain.Fund(owner, EthToWei(100));
  std::set<std::string> addresses;
  for (int i = 0; i < 10; ++i) {
    auto addr = chain.Deploy(owner, std::make_unique<ProbeContract>());
    ASSERT_TRUE(addr.ok());
    EXPECT_TRUE(addresses.insert(addr->ToHex()).second);
  }
}

TEST(ChainBookkeepingTest, NoncesIncreasePerSender) {
  SimClock clock(0);
  Blockchain chain(ChainConfig{}, &clock);
  Address a = KeyPair::FromSeed(1).address();
  Address b = KeyPair::FromSeed(2).address();
  chain.Fund(a, EthToWei(10));
  chain.Fund(b, EthToWei(10));
  Transaction tx;
  tx.to = b;
  tx.value = U256(1);
  tx.from = a;
  ASSERT_TRUE(chain.Submit(tx).ok());
  ASSERT_TRUE(chain.Submit(tx).ok());
  tx.from = b;
  tx.to = a;
  ASSERT_TRUE(chain.Submit(tx).ok());
  clock.AdvanceSeconds(13);
  chain.PumpUntilNow();
  // Nonces are per-account: a used 0,1; b used 0. (Observable through
  // receipts being distinct transactions that all executed.)
  EXPECT_EQ(chain.HeadNumber(), 1u);
}

TEST(ChainBookkeepingTest, UnknownTxQueries) {
  SimClock clock(0);
  Blockchain chain(ChainConfig{}, &clock);
  EXPECT_FALSE(chain.GetReceipt(42).ok());
  EXPECT_FALSE(chain.IsConfirmed(42));
}

TEST(ChainBookkeepingTest, PumpIsIdempotent) {
  SimClock clock(0);
  Blockchain chain(ChainConfig{}, &clock);
  clock.AdvanceSeconds(13);
  chain.PumpUntilNow();
  uint64_t head = chain.HeadNumber();
  chain.PumpUntilNow();
  chain.PumpUntilNow();
  EXPECT_EQ(chain.HeadNumber(), head);
}

TEST(WeiFormattingTest, SmallAndCompositeValues) {
  EXPECT_EQ(WeiToEthString(Wei()), "0.0");
  EXPECT_EQ(WeiToEthString(U256(1)), "0.000000000000000001");
  EXPECT_EQ(WeiToEthString(EthToWei(5) + GweiToWei(250'000'000)),
            "5.25");
}

TEST(PaymentViewsTest, IsStartedView) {
  ShardedDeploymentConfig config;
  config.engine.num_shards = 1;
  config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
  config.engine.node.batch_size = 4;
  auto d = ShardedDeployment::Create(config);
  ASSERT_TRUE(d.ok());
  auto payment = (*d)->CreatePaymentChannel(60, U256(100), 5);
  ASSERT_TRUE(payment.ok());
  auto raw = (*d)->chain().Call(payment.value(), "isStarted", {});
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ((*raw)[0], 0);
  PaymentChannelClient client(&(*d)->chain(), payment.value(),
                              (*d)->MakePublisher(0).address());
  ASSERT_TRUE(client.Deposit(U256(1000)).ok());
  ASSERT_TRUE(client.StartPayment().ok());
  raw = (*d)->chain().Call(payment.value(), "isStarted", {});
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ((*raw)[0], 1);
}

}  // namespace
}  // namespace wedge
