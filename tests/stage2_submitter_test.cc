#include "core/stage2_submitter.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/random.h"
#include "shard/sharded_engine.h"
#include "storage/segstore/segment_store.h"

namespace wedge {
namespace {

std::vector<std::pair<Bytes, Bytes>> Workload(int n) {
  Rng rng(n);
  std::vector<std::pair<Bytes, Bytes>> kvs;
  for (int i = 0; i < n; ++i) {
    kvs.emplace_back(ToBytes("k" + std::to_string(i)), rng.NextBytes(32));
  }
  return kvs;
}

/// A classic 1-shard deployment: its shard's submitter is under test.
ShardedDeploymentConfig ClassicConfig(uint32_t batch_size) {
  ShardedDeploymentConfig config;
  config.engine.num_shards = 1;
  config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
  config.engine.node.batch_size = batch_size;
  config.engine.node.worker_threads = 2;
  return config;
}

std::unique_ptr<ShardedDeployment> Make(uint32_t batch_size) {
  auto d = ShardedDeployment::Create(ClassicConfig(batch_size));
  EXPECT_TRUE(d.ok());
  return std::move(d).value();
}

OffchainNode& Node(ShardedDeployment& d) { return d.engine().shard(0); }

uint64_t OnChainTail(Blockchain& chain, const Address& root_record) {
  auto out = chain.Call(root_record, "tailIdx", {});
  EXPECT_TRUE(out.ok());
  ByteReader reader(out.value());
  auto tail = reader.ReadU64();
  EXPECT_TRUE(tail.ok());
  return tail.value();
}

/// Acceptance: the fault injector drops the first two stage-2
/// transactions; the pipeline retries until every batch root is
/// confirmed on-chain — zero digests lost.
TEST(Stage2SubmitterTest, DroppedStage2TxsAreRetriedUntilAllRootsConfirm) {
  auto d = Make(/*batch_size=*/4);
  d->chain().fault_injector()->Schedule(FaultType::kDropTx, 2);

  PublisherClient pub = d->MakePublisher(0);
  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());  // 2 batches -> 2 (dropped) stage-2 txs.
  EXPECT_EQ(Node(*d).UncommittedDigests(), 2u);
  EXPECT_EQ(d->chain().fault_injector()->stats().txs_dropped, 2u);

  // Past the confirmation deadline + backoff + confirmation depth.
  d->AdvanceBlocks(20);

  EXPECT_EQ(Node(*d).UncommittedDigests(), 0u);
  EXPECT_EQ(OnChainTail(d->chain(), d->root_record_address()), 2u);
  for (const Stage1Response& r : responses.value()) {
    auto check = pub.CheckBlockchainCommit(r);
    ASSERT_TRUE(check.ok());
    EXPECT_EQ(check.value(), CommitCheck::kBlockchainCommitted);
  }
  Stage2SubmitterStats stats = Node(*d).stage2_submitter()->stats();
  EXPECT_EQ(stats.txs_timed_out, 2u);
  EXPECT_GE(stats.txs_retried, 1u);
  EXPECT_EQ(stats.digests_confirmed, 2u);
}

TEST(Stage2SubmitterTest, RevertedStage2TxIsRetried) {
  auto d = Make(/*batch_size=*/4);
  d->chain().fault_injector()->Schedule(FaultType::kRevertTx, 1);

  PublisherClient pub = d->MakePublisher(0);
  auto responses = pub.Publish(pub.MakeRequests(Workload(4)));
  ASSERT_TRUE(responses.ok());

  d->AdvanceBlocks(16);

  EXPECT_EQ(Node(*d).UncommittedDigests(), 0u);
  EXPECT_EQ(OnChainTail(d->chain(), d->root_record_address()), 1u);
  Stage2SubmitterStats stats = Node(*d).stage2_submitter()->stats();
  EXPECT_EQ(stats.txs_reverted, 1u);
  EXPECT_GE(stats.txs_retried, 1u);
}

TEST(Stage2SubmitterTest, EvictedStage2TxIsRetried) {
  auto d = Make(/*batch_size=*/4);
  // Evict the stage-2 tx from the mempool, and delay the next blocks so
  // it cannot mine before its eviction deadline.
  d->chain().fault_injector()->Schedule(FaultType::kEvictTx, 1);
  d->chain().fault_injector()->Schedule(FaultType::kDelayBlock, 2);

  PublisherClient pub = d->MakePublisher(0);
  auto responses = pub.Publish(pub.MakeRequests(Workload(4)));
  ASSERT_TRUE(responses.ok());

  d->AdvanceBlocks(24);

  EXPECT_EQ(Node(*d).UncommittedDigests(), 0u);
  EXPECT_EQ(d->chain().fault_injector()->stats().txs_evicted, 1u);
  EXPECT_EQ(OnChainTail(d->chain(), d->root_record_address()), 1u);
}

TEST(Stage2SubmitterTest, SteadyDropProbabilityNeverLosesDigests) {
  ShardedDeploymentConfig config = ClassicConfig(/*batch_size=*/4);
  config.chain.faults.drop_probability = 0.3;
  config.chain.faults.seed = 7;
  auto made = ShardedDeployment::Create(config);
  ASSERT_TRUE(made.ok());
  auto d = std::move(made).value();

  PublisherClient pub = d->MakePublisher(0);
  for (int round = 0; round < 4; ++round) {
    auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
    ASSERT_TRUE(responses.ok());
    d->AdvanceBlocks(12);
  }
  d->AdvanceBlocks(30);
  EXPECT_EQ(Node(*d).UncommittedDigests(), 0u);
  EXPECT_EQ(OnChainTail(d->chain(), d->root_record_address()), 8u);
}

/// The structured per-attempt log must mirror the scripted fault
/// sequence: a dropped transaction surfaces as a "timeout" retry with a
/// bumped gas bid, a reverted one as a "revert" retry.
TEST(Stage2SubmitterTest, AttemptLogRecordsCausesMatchingScriptedFaults) {
  {
    auto d = Make(/*batch_size=*/4);
    d->chain().fault_injector()->Schedule(FaultType::kDropTx, 1);
    PublisherClient pub = d->MakePublisher(0);
    ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(4))).ok());
    d->AdvanceBlocks(20);
    ASSERT_EQ(Node(*d).UncommittedDigests(), 0u);

    auto attempts = Node(*d).stage2_submitter()->attempts();
    ASSERT_EQ(attempts.size(), 2u);
    EXPECT_EQ(attempts[0].attempt, 1);
    EXPECT_EQ(attempts[0].cause, "initial");
    EXPECT_EQ(attempts[0].first_log_id, 0u);
    EXPECT_EQ(attempts[0].count, 1u);
    EXPECT_EQ(attempts[1].attempt, 2);
    EXPECT_EQ(attempts[1].cause, "timeout");  // Drop surfaces as timeout.
    // The retry outbids the initial submission (gas bump).
    EXPECT_TRUE(attempts[1].gas_bid > attempts[0].gas_bid);
    EXPECT_GT(attempts[1].block, attempts[0].block);
  }
  {
    auto d = Make(/*batch_size=*/4);
    d->chain().fault_injector()->Schedule(FaultType::kRevertTx, 1);
    PublisherClient pub = d->MakePublisher(0);
    ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(4))).ok());
    d->AdvanceBlocks(16);
    ASSERT_EQ(Node(*d).UncommittedDigests(), 0u);

    auto attempts = Node(*d).stage2_submitter()->attempts();
    ASSERT_EQ(attempts.size(), 2u);
    EXPECT_EQ(attempts[0].cause, "initial");
    EXPECT_EQ(attempts[1].cause, "revert");  // Receipt seen, reverted.
    EXPECT_TRUE(attempts[1].gas_bid > attempts[0].gas_bid);
  }
}

/// The attempt trail also lands in the shared tracer: tx_submitted spans
/// carry attempt/cause notes and the chain still ends confirmed.
TEST(Stage2SubmitterTest, TraceShowsRetriedSubmissionEndingConfirmed) {
  auto d = Make(/*batch_size=*/4);
  d->chain().fault_injector()->Schedule(FaultType::kDropTx, 1);
  PublisherClient pub = d->MakePublisher(0);
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(4))).ok());
  d->AdvanceBlocks(20);
  ASSERT_EQ(Node(*d).UncommittedDigests(), 0u);

  Tracer& tracer = d->telemetry().tracer;
  EXPECT_TRUE(tracer.ChainEndsConfirmed(0));
  int submits = 0, retries = 0;
  for (const TraceEvent& ev : tracer.EventsFor(0)) {
    if (ev.stage == trace_stage::kTxSubmitted) {
      ++submits;
      EXPECT_NE(ev.note.find("attempt="), std::string::npos);
      EXPECT_NE(ev.note.find("cause="), std::string::npos);
    }
    if (ev.stage == trace_stage::kTxRetry) ++retries;
  }
  EXPECT_EQ(submits, 2);  // Initial + one retry.
  EXPECT_EQ(retries, 1);
}

TEST(Stage2SubmitterTest, EnqueueRejectsGaps) {
  SimClock clock(0);
  Blockchain chain(ChainConfig{}, &clock);
  Stage2Submitter submitter(Stage2SubmitterConfig{}, &chain,
                            KeyPair::FromSeed(1).address(),
                            KeyPair::FromSeed(2).address());
  EXPECT_TRUE(submitter.Enqueue(3, Hash256{}).ok());
  EXPECT_TRUE(submitter.Enqueue(4, Hash256{}).ok());
  Status gap = submitter.Enqueue(6, Hash256{});
  EXPECT_EQ(gap.code(), Code::kInvalidArgument);
  EXPECT_EQ(submitter.UncommittedDigests(), 2u);
}

/// Acceptance: kill the node after sealing batches whose digests never
/// reached the chain; reopen the segment store, Recover(), and the
/// pipeline commits the pre-crash roots.
TEST(Stage2SubmitterTest, RecoverRecommitsRootsSealedBeforeCrash) {
  std::string path = ::testing::TempDir() + "/wedge_recover_test.seg";
  std::filesystem::remove_all(path);

  SimClock clock(0);
  Blockchain chain(ChainConfig{}, &clock);
  KeyPair node_key = KeyPair::FromSeed(0xED6E);
  KeyPair client_key = KeyPair::FromSeed(0xC11E);
  chain.Fund(node_key.address(), EthToWei(1000));
  auto root_record = chain.Deploy(
      node_key.address(),
      std::make_unique<RootRecordContract>(node_key.address()));
  ASSERT_TRUE(root_record.ok());

  OffchainNodeConfig node_config;
  node_config.batch_size = 2;
  node_config.worker_threads = 2;
  node_config.auto_stage2 = false;

  auto append_batches = [&](OffchainNode& node, uint64_t first_seq, int n) {
    std::vector<AppendRequest> requests;
    for (int i = 0; i < n; ++i) {
      requests.push_back(AppendRequest::Make(
          client_key, first_seq + i, ToBytes("k" + std::to_string(i)),
          ToBytes("v")));
    }
    auto responses = node.Append(requests);
    ASSERT_TRUE(responses.ok());
  };
  auto pump = [&](OffchainNode& node, int blocks) {
    for (int i = 0; i < blocks; ++i) {
      clock.AdvanceSeconds(chain.config().block_interval_seconds);
      chain.PumpUntilNow();
      node.Stage2Tick();
    }
  };

  {
    auto store = SegmentLogStore::Open(path, SegmentLogStore::Options());
    ASSERT_TRUE(store.ok());
    OffchainNode node(node_config, node_key, std::move(store).value(), &chain,
                      root_record.value());
    // Seal positions 0,1 and commit them on-chain.
    append_batches(node, 0, 4);  // batch_size 2 -> positions 0,1.
    ASSERT_EQ(node.PendingDigests(), 2u);
    auto tx = node.CommitPendingDigests();
    ASSERT_TRUE(tx.ok());
    pump(node, chain.config().confirmations + 2);
    EXPECT_EQ(node.UncommittedDigests(), 0u);

    // Seal positions 2,3; their digests never reach the chain — the node
    // dies before CommitPendingDigests. (The destructor closes the WAL;
    // torn-tail truncation is covered by the storage tests.)
    append_batches(node, 100, 4);
    EXPECT_EQ(node.PendingDigests(), 2u);
  }
  EXPECT_EQ(OnChainTail(chain, root_record.value()), 2u);

  // Restart: reopen the store, reconcile against the chain, recommit.
  auto store = SegmentLogStore::Open(path, SegmentLogStore::Options());
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(store.value()->Size(), 4u);
  std::vector<Hash256> expected_roots;
  for (uint64_t id = 2; id < 4; ++id) {
    expected_roots.push_back(store.value()->Get(id).value().mroot);
  }
  OffchainNode node(node_config, node_key, std::move(store).value(), &chain,
                    root_record.value());
  auto recovered = node.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), 2u);
  EXPECT_EQ(node.PendingDigests(), 2u);
  auto tx = node.CommitPendingDigests();
  ASSERT_TRUE(tx.ok());
  pump(node, chain.config().confirmations + 2);
  EXPECT_EQ(node.UncommittedDigests(), 0u);
  EXPECT_EQ(OnChainTail(chain, root_record.value()), 4u);
  for (uint64_t id = 2; id < 4; ++id) {
    Bytes query;
    PutU64(query, id);
    auto out = chain.Call(root_record.value(), "getRootAtIndex", query);
    ASSERT_TRUE(out.ok());
    ByteReader reader(out.value());
    auto found = reader.ReadRaw(1);
    auto root_raw = reader.ReadRaw(32);
    ASSERT_TRUE(found.ok() && root_raw.ok());
    EXPECT_EQ(found.value()[0], 1u);
    EXPECT_EQ(root_raw.value(), HashToBytes(expected_roots[id - 2]));
  }

  std::filesystem::remove_all(path);
}

}  // namespace
}  // namespace wedge
