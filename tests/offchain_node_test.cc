#include "core/offchain_node.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "common/random.h"
#include "core/client.h"
#include "crypto/signer_key_cache.h"
#include "shard/sharded_engine.h"
#include "storage/segstore/segment_store.h"

namespace wedge {
namespace {

std::vector<std::pair<Bytes, Bytes>> Workload(int n, size_t value_size = 32) {
  Rng rng(n);
  std::vector<std::pair<Bytes, Bytes>> kvs;
  for (int i = 0; i < n; ++i) {
    kvs.emplace_back(ToBytes("k" + std::to_string(i)),
                     rng.NextBytes(value_size));
  }
  return kvs;
}

TEST(AppendRequestTest, SignAndVerify) {
  KeyPair key = KeyPair::FromSeed(1);
  AppendRequest req =
      AppendRequest::Make(key, 7, ToBytes("key"), ToBytes("value"));
  EXPECT_EQ(req.publisher, key.address());
  EXPECT_EQ(req.sequence, 7u);
  EXPECT_TRUE(req.VerifySignature());

  // Any field tamper breaks the signature.
  AppendRequest bad = req;
  bad.sequence = 8;
  EXPECT_FALSE(bad.VerifySignature());
  bad = req;
  bad.value[0] ^= 1;
  EXPECT_FALSE(bad.VerifySignature());
  bad = req;
  bad.publisher = KeyPair::FromSeed(2).address();
  EXPECT_FALSE(bad.VerifySignature());
}

TEST(AppendRequestTest, SerializationRoundTrip) {
  KeyPair key = KeyPair::FromSeed(3);
  AppendRequest req =
      AppendRequest::Make(key, 42, ToBytes("k"), ToBytes("v"));
  auto back = AppendRequest::Deserialize(req.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->publisher, req.publisher);
  EXPECT_EQ(back->sequence, req.sequence);
  EXPECT_EQ(back->key, req.key);
  EXPECT_EQ(back->value, req.value);
  EXPECT_TRUE(back->VerifySignature());
  EXPECT_FALSE(AppendRequest::Deserialize(Bytes{1, 2, 3}).ok());
}

/// The node under test is the single shard of a classic 1-shard
/// deployment: `Node(*d)` is that shard.
ShardedDeploymentConfig ClassicConfig() {
  ShardedDeploymentConfig config;
  config.engine.num_shards = 1;
  config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
  return config;
}

OffchainNode& Node(ShardedDeployment& d) { return d.engine().shard(0); }

class OffchainNodeTest : public ::testing::Test {
 protected:
  static std::unique_ptr<ShardedDeployment> Make(uint32_t batch_size,
                                                 bool auto_stage2 = true) {
    ShardedDeploymentConfig config = ClassicConfig();
    config.engine.node.batch_size = batch_size;
    config.engine.node.worker_threads = 2;
    config.engine.node.auto_stage2 = auto_stage2;
    auto d = ShardedDeployment::Create(config);
    EXPECT_TRUE(d.ok());
    return std::move(d).value();
  }
};

TEST_F(OffchainNodeTest, AppendReturnsVerifiableResponses) {
  auto d = Make(4);
  PublisherClient pub = d->MakePublisher(0);
  auto responses = pub.Publish(pub.MakeRequests(Workload(10)));
  ASSERT_TRUE(responses.ok());
  ASSERT_EQ(responses->size(), 10u);
  // 10 requests with batch size 4 -> positions 0,1,2 (4+4+2).
  EXPECT_EQ(Node(*d).LogPositions(), 3u);
  for (size_t i = 0; i < responses->size(); ++i) {
    const Stage1Response& r = (*responses)[i];
    EXPECT_TRUE(r.Verify(Node(*d).address()));
    EXPECT_EQ(r.index.log_id, i / 4);
    EXPECT_EQ(r.index.offset, i % 4);
    // The leaf round-trips to the original request.
    auto req = AppendRequest::Deserialize(r.entry);
    ASSERT_TRUE(req.ok());
    EXPECT_EQ(req->sequence, i);
  }
}

TEST_F(OffchainNodeTest, ResponsesWithinBatchShareRoot) {
  auto d = Make(8);
  PublisherClient pub = d->MakePublisher(0);
  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());
  for (const auto& r : *responses) {
    EXPECT_EQ(r.proof.mroot, responses->front().proof.mroot);
    EXPECT_EQ(r.proof.log_id, 0u);
  }
}

TEST_F(OffchainNodeTest, RejectsEmptyAndBadSignatures) {
  auto d = Make(4);
  EXPECT_FALSE(Node(*d).Append({}).ok());

  KeyPair key = KeyPair::FromSeed(9);
  AppendRequest good = AppendRequest::Make(key, 0, ToBytes("k"), ToBytes("v"));
  AppendRequest bad = good;
  bad.value.push_back(0xFF);  // Signature now invalid.
  auto responses = Node(*d).Append({good, bad});
  ASSERT_TRUE(responses.ok());
  EXPECT_EQ(responses->size(), 1u);  // Only the valid one accepted.
  EXPECT_EQ(Node(*d).stats().invalid_signatures_rejected, 1u);

  auto all_bad = Node(*d).Append({bad});
  EXPECT_FALSE(all_bad.ok());
}

TEST_F(OffchainNodeTest, Stage2CommitsDigests) {
  auto d = Make(4);
  PublisherClient pub = d->MakePublisher(0);
  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());
  EXPECT_EQ(Node(*d).stats().stage2_txs_submitted, 2u);

  // Before mining: not committed.
  auto check = pub.CheckBlockchainCommit(responses->front());
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value(), CommitCheck::kNotYetCommitted);

  d->AdvanceBlocks(2);
  check = pub.CheckBlockchainCommit(responses->front());
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value(), CommitCheck::kBlockchainCommitted);
  check = pub.CheckBlockchainCommit(responses->back());
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value(), CommitCheck::kBlockchainCommitted);
}

TEST_F(OffchainNodeTest, ManualStage2Batching) {
  auto d = Make(4, /*auto_stage2=*/false);
  PublisherClient pub = d->MakePublisher(0);
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(12))).ok());
  EXPECT_EQ(Node(*d).PendingDigests(), 3u);
  EXPECT_EQ(Node(*d).stats().stage2_txs_submitted, 0u);

  // One transaction carries all three digests (grouped lazy commit).
  auto tx = Node(*d).CommitPendingDigests();
  ASSERT_TRUE(tx.ok());
  EXPECT_EQ(Node(*d).PendingDigests(), 0u);
  auto receipt = d->chain().WaitForReceipt(tx.value());
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success);

  // Nothing left to commit.
  EXPECT_EQ(Node(*d).CommitPendingDigests().status().code(), Code::kNotFound);
}

TEST_F(OffchainNodeTest, StreamingPathSealsOnBatchBoundary) {
  auto d = Make(4);
  KeyPair key = KeyPair::FromSeed(11);
  std::vector<std::vector<Stage1Response>> delivered;
  Node(*d).SetResponseCallback(
      [&](std::vector<Stage1Response>&& batch) {
        delivered.push_back(std::move(batch));
      });
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(Node(*d)
                    .SubmitAppend(AppendRequest::Make(
                        key, i, ToBytes("k"), ToBytes("v")))
                    .ok());
  }
  EXPECT_EQ(delivered.size(), 1u);  // One full batch of 4 sealed.
  EXPECT_EQ(Node(*d).StagedRequests(), 2u);
  auto flushed = Node(*d).FlushStagedBatch();
  ASSERT_TRUE(flushed.ok());
  // With a callback set, the sealed responses have exactly one owner: the
  // callback. The returned vector is empty (no second copy is made).
  EXPECT_TRUE(flushed->empty());
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[1].size(), 2u);
  EXPECT_EQ(Node(*d).StagedRequests(), 0u);
  EXPECT_EQ(Node(*d).FlushStagedBatch().status().code(), Code::kNotFound);
}

TEST_F(OffchainNodeTest, ReadReturnsFreshVerifiableResponse) {
  auto d = Make(4);
  PublisherClient pub = d->MakePublisher(0);
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(8))).ok());
  d->AdvanceBlocks(2);

  auto read = Node(*d).ReadOne(EntryIndex{1, 2});
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->Verify(Node(*d).address()));
  auto req = AppendRequest::Deserialize(read->entry);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->sequence, 6u);  // Position 1, offset 2 = 6th request.

  EXPECT_FALSE(Node(*d).ReadOne(EntryIndex{5, 0}).ok());
  EXPECT_FALSE(Node(*d).ReadOne(EntryIndex{0, 9}).ok());
}

TEST_F(OffchainNodeTest, BatchReadAndScan) {
  auto d = Make(4);
  PublisherClient pub = d->MakePublisher(0);
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(12))).ok());

  auto many = Node(*d).Read({{0, 1}, {1, 3}, {2, 0}});
  ASSERT_TRUE(many.ok());
  EXPECT_EQ(many->size(), 3u);
  for (const auto& r : *many) EXPECT_TRUE(r.Verify(Node(*d).address()));

  auto scan = Node(*d).Scan(0, 2);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->size(), 12u);
  for (const auto& r : *scan) EXPECT_TRUE(r.Verify(Node(*d).address()));
  EXPECT_GE(Node(*d).stats().reads_served, 15u);
}

TEST_F(OffchainNodeTest, TreeCacheEvictionStillServesReads) {
  ShardedDeploymentConfig config = ClassicConfig();
  config.engine.node.batch_size = 2;
  config.engine.node.worker_threads = 1;
  config.engine.node.tree_cache_capacity = 1;  // Evict aggressively.
  auto d = ShardedDeployment::Create(config);
  ASSERT_TRUE(d.ok());
  PublisherClient pub = (*d)->MakePublisher(0);
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(8))).ok());
  // Position 0's tree was evicted; the node must rebuild it.
  auto read = Node(**d).ReadOne(EntryIndex{0, 1});
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->Verify(Node(**d).address()));
}

// ---------------------------------------------------------------------
// A read whose position's tree is cached from its seal serves the
// signature the seal made for that entry. The statement is the one the
// seal signed and RFC 6979 signing is deterministic, so the reply is
// byte-identical to a freshly signed one; every other read signs afresh.

/// Samples in wedge.node.sign_us: one per inline signature, one per
/// pooled batch.
uint64_t SignSamples(OffchainNode& node) {
  return node.telemetry()
      .metrics.Snapshot()
      .FindHistogram("wedge.node.sign_us")
      ->count;
}

TEST_F(OffchainNodeTest, WarmReadsAndScansServeTheAppendResponsesBytes) {
  auto d = Make(4);
  OffchainNode& node = Node(*d);
  PublisherClient pub = d->MakePublisher(0);
  auto appended = pub.Publish(pub.MakeRequests(Workload(10)));  // 4+4+2.
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  const uint64_t signs = SignSamples(node);

  for (const Stage1Response& r : *appended) {
    auto read = node.ReadOne(r.index);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read->Serialize(), r.Serialize())
        << r.index.log_id << ":" << r.index.offset;
  }
  auto scan = node.Scan(0, 2);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->size(), appended->size());
  for (size_t i = 0; i < scan->size(); ++i) {
    EXPECT_EQ((*scan)[i].Serialize(), (*appended)[i].Serialize()) << i;
  }
  // Every reply came from the seal: nothing was signed again.
  EXPECT_EQ(SignSamples(node), signs);
  EXPECT_EQ(node.stats().tree_cache_misses, 0u);
}

TEST_F(OffchainNodeTest, ColdReadsAndScansSignTheSameBytesAfresh) {
  ShardedDeploymentConfig config = ClassicConfig();
  config.engine.node.batch_size = 4;
  config.engine.node.worker_threads = 2;
  config.engine.node.tree_cache_capacity = 1;  // Every read below misses.
  auto d = ShardedDeployment::Create(config);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  OffchainNode& node = Node(**d);
  PublisherClient pub = (*d)->MakePublisher(0);
  auto appended = pub.Publish(pub.MakeRequests(Workload(12)));
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  const uint64_t signs = SignSamples(node);

  // Positions 0, 1, 2 in turn: each evicts the one before it.
  for (const Stage1Response& r : *appended) {
    auto read = node.ReadOne(r.index);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read->Serialize(), r.Serialize())
        << r.index.log_id << ":" << r.index.offset;
  }
  EXPECT_EQ(node.stats().tree_cache_misses, 3u);
  // A rebuilt tree carries no signatures: each read signed inline.
  EXPECT_EQ(SignSamples(node), signs + appended->size());

  auto scan = node.Scan(0, 2);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->size(), appended->size());
  for (size_t i = 0; i < scan->size(); ++i) {
    EXPECT_EQ((*scan)[i].Serialize(), (*appended)[i].Serialize()) << i;
  }
  EXPECT_EQ(node.stats().tree_cache_misses, 6u);
}

TEST_F(OffchainNodeTest, PositionSealedUnderCorruptProofReadsBackHonest) {
  auto d = Make(4);
  OffchainNode& node = Node(*d);
  PublisherClient pub = d->MakePublisher(0);
  node.set_byzantine_mode(ByzantineMode::kCorruptProof);
  auto appended = node.Append(pub.MakeRequests(Workload(4)));
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  // The node turns honest; its cached tree is still the corrupt seal's.
  node.set_byzantine_mode(ByzantineMode::kHonest);
  const uint64_t signs = SignSamples(node);

  for (const Stage1Response& r : *appended) {
    EXPECT_FALSE(r.Verify(node.address()));  // A signed corrupt path.
    auto read = node.ReadOne(r.index);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_TRUE(read->Verify(node.address()));
    EXPECT_EQ(read->entry, r.entry);
    EXPECT_NE(read->Serialize(), r.Serialize());
  }
  // The corrupt seal's signatures were never cached: each read signed.
  EXPECT_EQ(SignSamples(node), signs + appended->size());
  auto scan = node.Scan(0, 0);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->size(), appended->size());
  for (const Stage1Response& r : *scan) EXPECT_TRUE(r.Verify(node.address()));
}

TEST_F(OffchainNodeTest, UnsignedSealsStillServeSignedReads) {
  ShardedDeploymentConfig config = ClassicConfig();
  config.engine.node.batch_size = 4;
  config.engine.node.worker_threads = 2;
  config.engine.node.sign_stage1_responses = false;
  auto d = ShardedDeployment::Create(config);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  OffchainNode& node = Node(**d);
  PublisherClient pub = (*d)->MakePublisher(0);
  auto appended = node.Append(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();

  for (const Stage1Response& r : *appended) {
    EXPECT_FALSE(r.Verify(node.address()));  // Sealed unsigned.
    auto read = node.ReadOne(r.index);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_TRUE(read->Verify(node.address()));
    EXPECT_EQ(read->entry, r.entry);
  }
  auto scan = node.Scan(0, 1);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->size(), appended->size());
  for (const Stage1Response& r : *scan) EXPECT_TRUE(r.Verify(node.address()));
}

TEST(TreeCacheBytesTest, SealTimeSignaturesAddOneSignaturePerCachedEntry) {
  Telemetry telemetry;
  Gauge* gauge = telemetry.metrics.GetGauge("wedge.node.tree_cache_bytes");
  gauge->Add(1000);  // Another node's share of a shared registry.
  const int64_t before = gauge->Value();
  auto make_node = [&](bool sign) {
    OffchainNodeConfig config;
    config.batch_size = 4;
    config.worker_threads = 1;
    config.auto_stage2 = false;
    config.sign_stage1_responses = sign;
    return std::make_unique<OffchainNode>(
        config, KeyPair::FromSeed(0xED6E), std::make_unique<MemoryLogStore>(),
        nullptr, Address{}, &telemetry);
  };
  KeyPair publisher = KeyPair::FromSeed(9);
  std::vector<AppendRequest> requests;  // Three positions of four.
  for (int i = 0; i < 12; ++i) {
    requests.push_back(AppendRequest::Make(
        publisher, i, ToBytes("k" + std::to_string(i)), ToBytes("v")));
  }

  auto unsigned_node = make_node(/*sign=*/false);
  ASSERT_TRUE(unsigned_node->Append(requests).ok());
  const int64_t trees = gauge->Value() - before;
  EXPECT_EQ(trees, 3 * 7 * static_cast<int64_t>(sizeof(Hash256)));
  {
    // The same positions, signed: one signature more per cached entry.
    auto signed_node = make_node(/*sign=*/true);
    ASSERT_TRUE(signed_node->Append(requests).ok());
    const int64_t sigs = 12 * static_cast<int64_t>(sizeof(EcdsaSignature));
    EXPECT_EQ(gauge->Value() - before, 2 * trees + sigs);
    // Warm reads serve the cached signatures and add nothing.
    ASSERT_TRUE(signed_node->Scan(0, 2).ok());
    ASSERT_TRUE(signed_node->ReadOne(EntryIndex{1, 3}).ok());
    EXPECT_EQ(gauge->Value() - before, 2 * trees + sigs);
  }
  EXPECT_EQ(gauge->Value() - before, trees);
  unsigned_node.reset();
  EXPECT_EQ(gauge->Value(), before);
}

TEST_F(OffchainNodeTest, UserClientVerifiedReads) {
  auto d = Make(4);
  PublisherClient pub = d->MakePublisher(0);
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(8))).ok());
  UserClient user = d->MakeUser(/*tenant=*/0, /*seed=*/77);

  // Stage-1-only read works immediately.
  auto r1 = user.ReadVerified(EntryIndex{0, 0});
  ASSERT_TRUE(r1.ok());
  // Blockchain-committed read requires stage 2 to land.
  EXPECT_FALSE(user.ReadVerified(EntryIndex{0, 0}, true).ok());
  d->AdvanceBlocks(2);
  EXPECT_TRUE(user.ReadVerified(EntryIndex{0, 0}, true).ok());

  auto many = user.ReadManyVerified({{0, 1}, {1, 1}}, true);
  ASSERT_TRUE(many.ok());
  EXPECT_EQ(many->size(), 2u);
}

TEST_F(OffchainNodeTest, AuditorReportsCleanLog) {
  auto d = Make(4);
  PublisherClient pub = d->MakePublisher(0);
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(12))).ok());
  d->AdvanceBlocks(2);
  AuditorClient auditor = d->MakeAuditor(/*tenant=*/0, /*seed=*/88);
  auto report = auditor.Audit(0, 2);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->entries_checked, 12u);
  EXPECT_TRUE(report->Clean());
  EXPECT_EQ(report->not_yet_committed, 0u);
}

TEST_F(OffchainNodeTest, AuditorDetectsTamperedLog) {
  auto d = Make(4);
  PublisherClient pub = d->MakePublisher(0);
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(Workload(8))).ok());
  d->AdvanceBlocks(2);
  Node(*d).set_byzantine_mode(ByzantineMode::kTamperReadData);
  AuditorClient auditor = d->MakeAuditor(/*tenant=*/0, /*seed=*/88);
  auto report = auditor.Audit(0, 1);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->Clean());
  // Forged responses verify at stage 1 but mismatch on-chain.
  EXPECT_EQ(report->stage1_failures, 0u);
  EXPECT_EQ(report->onchain_mismatches, report->entries_checked);
}

TEST_F(OffchainNodeTest, Stage1ResponseSerializationRoundTrip) {
  auto d = Make(4);
  PublisherClient pub = d->MakePublisher(0);
  auto responses = pub.Publish(pub.MakeRequests(Workload(4)));
  ASSERT_TRUE(responses.ok());
  const Stage1Response& r = responses->front();
  auto back = Stage1Response::Deserialize(r.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->Verify(Node(*d).address()));
  EXPECT_EQ(back->entry, r.entry);
  EXPECT_EQ(back->proof.mroot, r.proof.mroot);
  EXPECT_FALSE(Stage1Response::Deserialize(Bytes(3, 1)).ok());
}

TEST_F(OffchainNodeTest, VerifyRejectsCrossIndexResponses) {
  auto d = Make(4);
  PublisherClient pub = d->MakePublisher(0);
  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());
  // Swap the index of a response: stage-1 verification must fail.
  Stage1Response mixed = (*responses)[0];
  mixed.index = (*responses)[5].index;
  EXPECT_FALSE(mixed.Verify(Node(*d).address()));
}

TEST_F(OffchainNodeTest, DigestsSurviveStage2SubmitFailure) {
  // Regression: a failed chain Submit used to drain the pending digests
  // and lose the roots for good. They must stay journaled for retry.
  SimClock clock(0);
  Blockchain chain(ChainConfig{}, &clock);
  KeyPair node_key = KeyPair::FromSeed(5);
  chain.Fund(node_key.address(), EthToWei(10));

  OffchainNodeConfig config;
  config.batch_size = 2;
  config.worker_threads = 2;
  config.auto_stage2 = false;
  // No contract at the target address: every Submit fails with NotFound.
  Address bogus_target = KeyPair::FromSeed(99).address();
  OffchainNode node(config, node_key, std::make_unique<MemoryLogStore>(),
                    &chain, bogus_target);

  KeyPair client = KeyPair::FromSeed(6);
  std::vector<AppendRequest> requests;
  for (uint64_t i = 0; i < 2; ++i) {
    requests.push_back(
        AppendRequest::Make(client, i, ToBytes("k"), ToBytes("v")));
  }
  ASSERT_TRUE(node.Append(requests).ok());
  ASSERT_EQ(node.PendingDigests(), 1u);

  auto tx = node.CommitPendingDigests();
  EXPECT_FALSE(tx.ok());
  // The digest survives the failure and a later commit can retry it.
  EXPECT_EQ(node.PendingDigests(), 1u);
  EXPECT_EQ(node.UncommittedDigests(), 1u);
  EXPECT_EQ(node.stats().stage2_txs_submitted, 0u);
}

TEST_F(OffchainNodeTest, OrderingPreservedAcrossStage2) {
  // The order committed off-chain equals the order committed on-chain:
  // entries' positions never change once stage-1 responses are issued
  // (the gaming use case's requirement, §2.3).
  auto d = Make(4);
  PublisherClient pub = d->MakePublisher(0);
  auto responses = pub.Publish(pub.MakeRequests(Workload(8)));
  ASSERT_TRUE(responses.ok());
  d->AdvanceBlocks(2);
  for (const auto& r : *responses) {
    // Re-read every entry by its index; contents must match and still
    // verify against the now blockchain-committed root.
    auto read = Node(*d).ReadOne(r.index);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->entry, r.entry);
    auto check = pub.CheckBlockchainCommit(read.value());
    ASSERT_TRUE(check.ok());
    EXPECT_EQ(check.value(), CommitCheck::kBlockchainCommitted);
  }
}

// --- Ingest signature checks: key table vs per-entry recovery ---
// A publisher's large group in one call is checked against a key table;
// these tests pin that the node still accepts exactly what recovering
// each entry accepts.

/// Ways to break (or, for kMalleated, merely re-shape) a request's
/// signature.
enum class Forgery { kTamperedValue, kParityFlipped, kOtherKey, kSZero,
                     kMalleated };

void Forge(AppendRequest* r, Forgery how) {
  const U256& n = secp256k1::GroupOrder();
  switch (how) {
    case Forgery::kTamperedValue: r->value.push_back(0x5A); break;
    case Forgery::kParityFlipped: r->signature.recovery_id ^= 1; break;
    case Forgery::kOtherKey:
      r->signature =
          EcdsaSign(KeyPair::FromSeed(777).private_key(), r->SignedHash());
      break;
    case Forgery::kSZero: r->signature.s = U256::Zero(); break;
    case Forgery::kMalleated:
      // High s with the mirrored parity: still recovers to the signer.
      r->signature.s = n - r->signature.s;
      r->signature.recovery_id ^= 1;
      break;
  }
}

/// `count` signed requests by `key`; sequence numbers start at `first`
/// so every request of a call is identifiable by its sequence alone.
std::vector<AppendRequest> SignedRequests(const KeyPair& key, size_t count,
                                          uint64_t first) {
  std::vector<AppendRequest> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(AppendRequest::Make(key, first + i,
                                      ToBytes("k" + std::to_string(i)),
                                      ToBytes("v" + std::to_string(i))));
  }
  return out;
}

class IngestVerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ShardedDeploymentConfig config = ClassicConfig();
    config.engine.node.batch_size = 64;
    config.engine.node.worker_threads = 2;
    config.engine.node.verify_client_signatures = true;
    auto d = ShardedDeployment::Create(config);
    ASSERT_TRUE(d.ok());
    d_ = std::move(d).value();
  }

  OffchainNode& node() { return Node(*d_); }

  /// Appends `requests` in one call and checks that the accepted
  /// responses (in order) and the rejection count are exactly those of
  /// the per-entry recovery predicate. Returns the call's key-table
  /// checks.
  uint64_t AppendAndCheck(const std::vector<AppendRequest>& requests) {
    std::vector<uint64_t> expected;
    for (const AppendRequest& r : requests) {
      if (r.VerifySignature()) expected.push_back(r.sequence);
    }
    const OffchainNodeStats before = node().stats();
    auto responses = node().Append(requests);
    const OffchainNodeStats after = node().stats();
    if (expected.empty()) {
      EXPECT_FALSE(responses.ok());
      EXPECT_EQ(responses.status().code(), Code::kInvalidArgument);
    } else {
      EXPECT_TRUE(responses.ok()) << responses.status().ToString();
      std::vector<uint64_t> accepted;
      if (responses.ok()) {
        for (const Stage1Response& r : *responses) {
          auto req = AppendRequest::Deserialize(r.entry);
          EXPECT_TRUE(req.ok());
          if (req.ok()) accepted.push_back(req->sequence);
        }
      }
      EXPECT_EQ(accepted, expected);
    }
    EXPECT_EQ(after.invalid_signatures_rejected -
                  before.invalid_signatures_rejected,
              requests.size() - expected.size());
    return after.key_table_checks - before.key_table_checks;
  }

  std::unique_ptr<ShardedDeployment> d_;
};

TEST_F(IngestVerifyTest, CleanLargeCallChecksAllButTheAnchorAgainstTable) {
  EXPECT_EQ(AppendAndCheck(SignedRequests(KeyPair::FromSeed(1), 256, 0)),
            255u);
}

TEST_F(IngestVerifyTest, SmallCallRecoversEveryEntry) {
  std::vector<AppendRequest> requests =
      SignedRequests(KeyPair::FromSeed(1), 15, 0);
  Forge(&requests[7], Forgery::kParityFlipped);
  EXPECT_EQ(AppendAndCheck(requests), 0u);
}

TEST_F(IngestVerifyTest, ScatteredForgeriesInLargeCall) {
  std::vector<AppendRequest> requests =
      SignedRequests(KeyPair::FromSeed(2), 256, 0);
  const Forgery kinds[] = {Forgery::kTamperedValue, Forgery::kParityFlipped,
                           Forgery::kOtherKey, Forgery::kSZero,
                           Forgery::kMalleated};
  const size_t forged[] = {1, 5, 17, 63, 64, 100, 101, 130, 200, 254, 255};
  for (size_t j = 0; j < std::size(forged); ++j) {
    Forge(&requests[forged[j]], kinds[j % std::size(kinds)]);
  }
  EXPECT_EQ(AppendAndCheck(requests), 255u);
}

TEST_F(IngestVerifyTest, KeyComesFromFirstEntryThatRecovers) {
  std::vector<AppendRequest> requests =
      SignedRequests(KeyPair::FromSeed(3), 64, 0);
  Forge(&requests[0], Forgery::kOtherKey);
  Forge(&requests[1], Forgery::kTamperedValue);
  Forge(&requests[2], Forgery::kParityFlipped);
  Forge(&requests[40], Forgery::kOtherKey);
  const uint64_t table_checks = AppendAndCheck(requests);
  // Entry 3 is the anchor; a recovery wave may have covered a few more.
  EXPECT_GT(table_checks, 0u);
  EXPECT_LE(table_checks, 60u);
}

TEST_F(IngestVerifyTest, TwoPublishersEitherSideOfTheCutoff) {
  KeyPair a = KeyPair::FromSeed(4);
  KeyPair b = KeyPair::FromSeed(5);
  std::vector<AppendRequest> big = SignedRequests(a, 40, 0);
  std::vector<AppendRequest> small = SignedRequests(b, 8, 1000);
  Forge(&big[9], Forgery::kOtherKey);
  Forge(&big[33], Forgery::kMalleated);
  Forge(&small[2], Forgery::kTamperedValue);
  std::vector<AppendRequest> requests;
  for (size_t i = 0; i < big.size(); ++i) {
    requests.push_back(big[i]);
    if (i % 5 == 0) requests.push_back(small[i / 5]);
  }
  // Only the 40-entry group takes the table: 39 checks after its anchor.
  EXPECT_EQ(AppendAndCheck(requests), 39u);
}

TEST_F(IngestVerifyTest, AllForgedGroup) {
  std::vector<AppendRequest> forged =
      SignedRequests(KeyPair::FromSeed(6), 20, 0);
  for (AppendRequest& r : forged) Forge(&r, Forgery::kOtherKey);
  std::vector<AppendRequest> requests = forged;
  for (AppendRequest& r : SignedRequests(KeyPair::FromSeed(7), 4, 100)) {
    requests.push_back(std::move(r));
  }
  EXPECT_EQ(AppendAndCheck(requests), 0u);
  // Nothing valid at all: the call still fails as a whole.
  EXPECT_EQ(AppendAndCheck(forged), 0u);
}

TEST_F(IngestVerifyTest, ZeroAddressPublisherNeverPasses) {
  // A group claiming the zero address (which failed recovery also
  // yields) stays on per-entry recovery, and none of it passes.
  std::vector<AppendRequest> zero;
  KeyPair signer = KeyPair::FromSeed(8);
  for (uint64_t i = 0; i < 20; ++i) {
    AppendRequest r;
    r.publisher = Address::Zero();
    r.sequence = i;
    r.key = ToBytes("k");
    r.value = ToBytes("v");
    r.signature = EcdsaSign(signer.private_key(), r.SignedHash());
    zero.push_back(std::move(r));
  }
  EXPECT_EQ(AppendAndCheck(zero), 0u);
  std::vector<AppendRequest> mixed = zero;
  for (AppendRequest& r : SignedRequests(signer, 16, 100)) {
    mixed.push_back(std::move(r));
  }
  EXPECT_EQ(AppendAndCheck(mixed), 15u);
}

TEST_F(IngestVerifyTest, SecondLargeCallRunsEntirelyOnTheTable) {
  KeyPair key = KeyPair::FromSeed(11);
  EXPECT_EQ(AppendAndCheck(SignedRequests(key, 256, 0)), 255u);
  // The publisher's table outlives the call: no recovery at all.
  EXPECT_EQ(AppendAndCheck(SignedRequests(key, 256, 1000)), 256u);
  EXPECT_EQ(node().stats().key_table_builds, 1u);
}

TEST_F(IngestVerifyTest, SmallCallsReachThePublishersTable) {
  // read_mix's appender sends 8 entries a call. The first call recovers
  // all eight; the second brings the publisher to 16 checks, builds its
  // table and runs on it, with every forgery kind mixed in.
  KeyPair key = KeyPair::FromSeed(12);
  EXPECT_EQ(AppendAndCheck(SignedRequests(key, 8, 0)), 0u);
  std::vector<AppendRequest> second = SignedRequests(key, 8, 100);
  const Forgery kinds[] = {Forgery::kTamperedValue, Forgery::kParityFlipped,
                           Forgery::kOtherKey, Forgery::kSZero,
                           Forgery::kMalleated};
  for (size_t j = 0; j < std::size(kinds); ++j) Forge(&second[j + 1], kinds[j]);
  EXPECT_EQ(AppendAndCheck(second), 8u);
  EXPECT_EQ(AppendAndCheck(SignedRequests(key, 8, 200)), 8u);
  EXPECT_EQ(node().stats().key_table_builds, 1u);
}

TEST_F(IngestVerifyTest, KeyTablesStayBoundedAcrossPublishers) {
  MetricsRegistry& m = node().telemetry().metrics;
  Gauge* tables = m.GetGauge("wedge.node.key_tables");
  Gauge* bytes = m.GetGauge("wedge.node.key_table_bytes");
  // 300 publishers of 16 entries, 30 to a call: each gets a table, and
  // the node keeps the most recent 256.
  int64_t table_bytes = 0;
  for (uint64_t call = 0; call < 10; ++call) {
    std::vector<AppendRequest> requests;
    for (uint64_t p = 0; p < 30; ++p) {
      KeyPair key = KeyPair::FromSeed(5000 + call * 30 + p);
      for (AppendRequest& r : SignedRequests(key, 16, 0)) {
        requests.push_back(std::move(r));
      }
    }
    EXPECT_EQ(AppendAndCheck(requests), 30u * 15);
    if (call == 0) table_bytes = bytes->Value() / tables->Value();
    EXPECT_LE(tables->Value(), 256);
    EXPECT_EQ(bytes->Value(), tables->Value() * table_bytes);
  }
  EXPECT_EQ(tables->Value(), 256);
  EXPECT_EQ(node().stats().key_table_builds, 300u);
}

TEST(KeyTableGaugeTest, NodeTakesItsTablesOutOfTheGauges) {
  Telemetry telemetry;
  Gauge* tables = telemetry.metrics.GetGauge("wedge.node.key_tables");
  Gauge* bytes = telemetry.metrics.GetGauge("wedge.node.key_table_bytes");
  tables->Add(5);  // Other nodes' share of a shared registry.
  bytes->Add(1000);
  OffchainNodeConfig config;
  config.batch_size = 16;
  config.worker_threads = 1;
  config.auto_stage2 = false;
  auto node = std::make_unique<OffchainNode>(
      config, KeyPair::FromSeed(0xED6E), std::make_unique<MemoryLogStore>(),
      nullptr, Address{}, &telemetry);
  ASSERT_TRUE(node->Append(SignedRequests(KeyPair::FromSeed(9), 16, 0)).ok());
  EXPECT_EQ(tables->Value(), 6);
  EXPECT_GT(bytes->Value(), 1000);
  EXPECT_EQ(node->stats().key_table_builds, 1u);
  node.reset();
  EXPECT_EQ(tables->Value(), 5);
  EXPECT_EQ(bytes->Value(), 1000);
}

// --- Response checks on the engine's key table (SignedBy) ---
// Each test pins an engine key no other test uses, so the process-wide
// cache sees it fresh.

TEST(SignedByTest, ChecksOnAnEngineTableStillRefuseTampering) {
  ShardedDeploymentConfig config = ClassicConfig();
  config.engine_key_seed = 0x51B7ED;
  config.engine.node.batch_size = 32;
  auto d = ShardedDeployment::Create(config);
  ASSERT_TRUE(d.ok());
  OffchainNode& node = Node(**d);
  const Address engine = node.address();
  PublisherClient pub = (*d)->MakePublisher(0);
  auto appended = node.Append(pub.MakeRequests(Workload(32)));
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();

  // The 16th check builds the engine's table; the rest run on it.
  const SignerKeyCache::Stats before = SignedByStats();
  for (const Stage1Response& r : *appended) EXPECT_TRUE(r.Verify(engine));
  EXPECT_GE(SignedByStats().table_checks - before.table_checks, 16u);
  EXPECT_GE(SignedByStats().tables, 1u);

  const KeyPair other = KeyPair::FromSeed(0x07E5);
  auto flip_byte = [](const EcdsaSignature& sig) {
    Bytes raw = sig.Serialize();
    raw[40] ^= 0x01;  // A byte of s.
    return EcdsaSignature::Deserialize(raw).value();
  };
  const Stage1Response& good = (*appended)[3];
  Stage1Response flipped = good;
  flipped.offchain_signature = flip_byte(good.offchain_signature);
  EXPECT_FALSE(flipped.Verify(engine));
  Stage1Response foreign = good;
  foreign.offchain_signature =
      EcdsaSign(other.private_key(), good.SignedHash());
  EXPECT_FALSE(foreign.Verify(engine));
  Stage1Response entry = good;
  Bytes tampered = good.entry.get();
  tampered.back() ^= 0x01;
  entry.entry = tampered;
  EXPECT_FALSE(entry.Verify(engine));
  Stage1Response path = good;
  ASSERT_FALSE(path.proof.merkle_proof.path.empty());
  path.proof.merkle_proof.path[0].sibling[0] ^= 0x01;
  EXPECT_FALSE(path.Verify(engine));
  EXPECT_TRUE(good.Verify(engine));

  // Batch reads run on the same table.
  Result<BatchReadResponse> batch = node.ReadBatch(0, {0, 5, 9});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  const uint64_t table_checks = SignedByStats().table_checks;
  EXPECT_TRUE(batch->Verify(engine));
  EXPECT_EQ(SignedByStats().table_checks, table_checks + 1);
  BatchReadResponse bflipped = *batch;
  bflipped.offchain_signature = flip_byte(batch->offchain_signature);
  EXPECT_FALSE(bflipped.Verify(engine));
  BatchReadResponse bforeign = *batch;
  bforeign.offchain_signature =
      EcdsaSign(other.private_key(), batch->SignedHash());
  EXPECT_FALSE(bforeign.Verify(engine));
  BatchReadResponse bentry = *batch;
  bentry.entries[1].second.back() ^= 0x01;
  EXPECT_FALSE(bentry.Verify(engine));
  BatchReadResponse bpath = *batch;
  ASSERT_FALSE(bpath.proof.siblings.empty());
  bpath.proof.siblings[0][0] ^= 0x01;
  EXPECT_FALSE(bpath.Verify(engine));
}

TEST(KeyCacheConcurrencyTest, AppendersAndVerifiersCrossAdmissionTogether) {
  // Appenders send one publisher's 4-entry calls across its admission
  // (its table comes at 16 checks) while verifiers check one fresh
  // engine's responses as its table is built. Every verdict must be
  // recovery's.
  ShardedDeploymentConfig config = ClassicConfig();
  config.engine_key_seed = 0xC0C0A;
  config.engine.node.batch_size = 16;
  config.engine.node.worker_threads = 2;
  config.engine.node.verify_client_signatures = true;
  auto d = ShardedDeployment::Create(config);
  ASSERT_TRUE(d.ok());
  OffchainNode& node = Node(**d);
  const Address engine = node.address();
  // Responses to check, made before any check of the engine key. This
  // 24-entry call admits 0xBEEF and builds its table, so the appenders'
  // work is what the stats gain from here on.
  auto responses =
      node.Append(SignedRequests(KeyPair::FromSeed(0xBEEF), 24, 0));
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  const OffchainNodeStats before = node.stats();

  const KeyPair publisher = KeyPair::FromSeed(0xFEED);
  const Forgery kinds[] = {Forgery::kTamperedValue, Forgery::kParityFlipped,
                           Forgery::kOtherKey, Forgery::kSZero,
                           Forgery::kMalleated};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t call = 0; call < 6; ++call) {
        std::vector<AppendRequest> requests =
            SignedRequests(publisher, 4, (t * 6 + call) * 4);
        Forge(&requests[call % 4], kinds[(t + call) % std::size(kinds)]);
        std::vector<uint64_t> expected;
        for (const AppendRequest& r : requests) {
          if (r.VerifySignature()) expected.push_back(r.sequence);
        }
        auto got = node.Append(requests);
        std::vector<uint64_t> accepted;
        if (got.ok()) {
          for (const Stage1Response& r : *got) {
            accepted.push_back(AppendRequest::Deserialize(r.entry)->sequence);
          }
        }
        if (accepted != expected) ++wrong;
      }
    });
  }
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (const Stage1Response& r : *responses) {
        Stage1Response bad = r;
        bad.offchain_signature.recovery_id ^= 1;
        if (!r.Verify(engine) || bad.Verify(engine)) ++wrong;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  // 0xFEED's table is built at least once and, since each appender
  // builds at most once before a table is kept, at most once per
  // appender; its later calls run on it.
  const OffchainNodeStats after = node.stats();
  EXPECT_GE(after.key_table_builds - before.key_table_builds, 1u);
  EXPECT_LE(after.key_table_builds - before.key_table_builds, 4u);
  EXPECT_GT(after.key_table_checks, before.key_table_checks);
}

// ---------------------------------------------------------------------
// Reads over the segment store: a single-entry read is checked against
// its Merkle leaf, not the record checksum, so a damaged entry is refused
// unsigned while its neighbours still serve.

class SegmentNodeTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kBatch = 4;

  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("wedge_segnode_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    node_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// A chain-less node whose store seals every two positions.
  void MakeNode(size_t tree_cache_capacity = 4096) {
    SegmentLogStore::Options options;
    options.segment_positions = 2;
    auto store = SegmentLogStore::Open(dir_, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    OffchainNodeConfig config;
    config.batch_size = kBatch;
    config.worker_threads = 2;
    config.auto_stage2 = false;
    config.tree_cache_capacity = tree_cache_capacity;
    node_ = std::make_unique<OffchainNode>(
        config, KeyPair::FromSeed(0xED6E), std::move(store).value(), nullptr,
        Address{});
  }

  /// Appends `positions` full batches and keeps their entries.
  void AppendPositions(int positions) {
    KeyPair publisher = KeyPair::FromSeed(9);
    Rng rng(positions);
    std::vector<AppendRequest> requests;
    for (int i = 0; i < positions * static_cast<int>(kBatch); ++i) {
      requests.push_back(AppendRequest::Make(
          publisher, entries_.size() + i, ToBytes("k" + std::to_string(i)),
          rng.NextBytes(64)));
    }
    auto responses = node_->Append(requests);
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
    for (const Stage1Response& r : *responses) entries_.push_back(r.entry);
  }

  const SharedBytes& Entry(uint64_t log_id, uint32_t offset) const {
    return entries_[log_id * kBatch + offset];
  }

  std::string SegmentPath(int seq) const {
    char name[32];
    std::snprintf(name, sizeof(name), "/seg-%06d.seg", seq);
    return dir_ + name;
  }

  /// XORs one byte of a sealed segment file in place, so a reader that
  /// already holds the file open sees it too.
  static void FlipByte(const std::string& path, size_t at, uint8_t mask) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(at));
    const char byte = static_cast<char>(f.get() ^ mask);
    f.seekp(static_cast<std::streamoff>(at));
    f.put(byte);
  }

  /// Offset of `entry`'s bytes in the segment file at `path`.
  static size_t FindInFile(const std::string& path, const SharedBytes& entry) {
    std::ifstream in(path, std::ios::binary);
    const Bytes file((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    auto at = std::search(file.begin(), file.end(), entry.get().begin(),
                          entry.get().end());
    EXPECT_NE(at, file.end());
    return static_cast<size_t>(at - file.begin());
  }

  std::string dir_;
  std::unique_ptr<OffchainNode> node_;
  std::vector<SharedBytes> entries_;
};

TEST_F(SegmentNodeTest, DamagedEntryIsRefusedUnsignedWhileItsNeighboursServe) {
  MakeNode();
  AppendPositions(4);  // seg-000000 holds positions 0-1, seg-000001 2-3.

  // One byte inside entry 1:2.
  const std::string seg0 = SegmentPath(0);
  FlipByte(seg0, FindInFile(seg0, Entry(1, 2)) + 30, 0x01);
  const uint64_t signs = SignSamples(*node_);
  auto refused = node_->ReadOne(EntryIndex{1, 2});
  EXPECT_EQ(refused.status().code(), Code::kCorruption);
  EXPECT_EQ(SignSamples(*node_), signs);
  auto neighbour = node_->ReadOne(EntryIndex{1, 0});  // Seal-signed.
  ASSERT_TRUE(neighbour.ok()) << neighbour.status().ToString();
  EXPECT_TRUE(neighbour->Verify(node_->address()));
  EXPECT_EQ(neighbour->entry, Entry(1, 0));
  // A whole-position read still checks the record checksum.
  EXPECT_EQ(node_->store().Get(1).status().code(), Code::kCorruption);

  // The low byte of end[1] of position 2, the first record of
  // seg-000001 ([u32 len][u8 kind][u64 log_id][u32 count], then the
  // table): entries 1 and 2 now read shifted bytes from inside the
  // record, which do not hash to their leaves.
  FlipByte(SegmentPath(1), 4 + 1 + 8 + 4 + 4 + 3, 0x01);
  for (uint32_t offset : {1u, 2u}) {
    EXPECT_EQ(node_->ReadOne(EntryIndex{2, offset}).status().code(),
              Code::kCorruption)
        << offset;
  }
  // Refusals sign nothing, and the warm neighbour served the signature
  // its seal made.
  EXPECT_EQ(SignSamples(*node_), signs);
  for (uint32_t offset : {0u, 3u}) {
    auto read = node_->ReadOne(EntryIndex{2, offset});
    ASSERT_TRUE(read.ok()) << offset << ": " << read.status().ToString();
    EXPECT_TRUE(read->Verify(node_->address()));
  }

  // Batched reads carry the lowest failing index's own status.
  EXPECT_EQ(node_->Read({{0, 1}, {1, 2}, {9, 0}}).status().code(),
            Code::kCorruption);
  EXPECT_EQ(node_->Read({{9, 0}, {1, 2}}).status().code(), Code::kNotFound);
  UserClient user(KeyPair::FromSeed(77), node_.get(), nullptr, Address{});
  EXPECT_EQ(user.ReadManyVerified({{0, 0}, {1, 2}, {3, 1}}).status().code(),
            Code::kCorruption);
  auto clean = user.ReadManyVerified({{0, 0}, {1, 3}, {3, 1}});
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
}

TEST_F(SegmentNodeTest, ColdReadsVerifyWithATreeCacheSmallerThanTheLog) {
  MakeNode(/*tree_cache_capacity=*/2);
  AppendPositions(6);  // Three sealed segments, six positions.
  Gauge* cache_bytes =
      node_->telemetry().metrics.GetGauge("wedge.node.tree_cache_bytes");
  // A 4-leaf tree holds 4 + 2 + 1 hashes. The two positions the seals
  // left cached also hold their entries' signatures.
  constexpr int64_t kTreeBytes = 7 * sizeof(Hash256);
  constexpr int64_t kSigBytes = kBatch * sizeof(EcdsaSignature);
  EXPECT_EQ(cache_bytes->Value(), 2 * (kTreeBytes + kSigBytes));

  for (uint64_t id = 0; id < 6; ++id) {
    for (uint32_t offset = 0; offset < kBatch; ++offset) {
      auto read = node_->ReadOne(EntryIndex{id, offset});
      ASSERT_TRUE(read.ok()) << id << ":" << offset << " "
                             << read.status().ToString();
      EXPECT_TRUE(read->Verify(node_->address()));
      EXPECT_EQ(read->entry, Entry(id, offset));
    }
  }
  // Positions 0-3 were evicted before they were read, and rebuilt; the
  // rebuilt trees hold no signatures.
  EXPECT_GE(node_->stats().tree_cache_misses, 4u);
  EXPECT_EQ(cache_bytes->Value(), 2 * kTreeBytes);
}

}  // namespace
}  // namespace wedge
