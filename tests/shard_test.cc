#include "shard/sharded_engine.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

#include "common/bytes.h"
#include "shard/router.h"
#include "shard/token_bucket.h"
#include "storage/log_store.h"

namespace wedge {
namespace {

std::vector<AppendRequest> MakeBatch(const KeyPair& publisher, uint64_t* seq,
                                     int n) {
  std::vector<AppendRequest> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(AppendRequest::Make(publisher, (*seq)++,
                                      ToBytes("k" + std::to_string(i)),
                                      ToBytes("value")));
  }
  return out;
}

// ---------------------------------------------------------------------
// Router

TEST(ShardRouterTest, DeterministicAcrossInstances) {
  // Two independently built rings (e.g. one per process, or one before
  // and one after a restart) must agree on every tenant.
  ShardRouter a(8), b(8);
  for (uint64_t tenant = 0; tenant < 5000; ++tenant) {
    ASSERT_EQ(a.ShardFor(tenant), b.ShardFor(tenant)) << tenant;
  }
}

TEST(ShardRouterTest, CoversAllShardsRoughlyEvenly) {
  ShardRouter router(8);
  std::vector<uint64_t> counts(8, 0);
  for (uint64_t tenant = 0; tenant < 8000; ++tenant) {
    uint32_t s = router.ShardFor(tenant);
    ASSERT_LT(s, 8u);
    ++counts[s];
  }
  for (uint32_t s = 0; s < 8; ++s) {
    // Perfectly even would be 1000; consistent hashing with 64 vnodes
    // lands well within 3x either way.
    EXPECT_GT(counts[s], 300u) << "shard " << s;
    EXPECT_LT(counts[s], 3000u) << "shard " << s;
  }
}

TEST(ShardRouterTest, SingleShardAlwaysZero) {
  ShardRouter router(1);
  for (uint64_t tenant = 0; tenant < 100; ++tenant) {
    EXPECT_EQ(router.ShardFor(tenant), 0u);
  }
}

TEST(ShardRouterTest, MostTenantsStayPutWhenAddingAShard) {
  // The consistent-hashing property: growing 4 -> 5 shards should move
  // roughly 1/5 of tenants, not reshuffle everything like tenant % N.
  ShardRouter before(4), after(5);
  uint64_t moved = 0, total = 10'000;
  for (uint64_t tenant = 0; tenant < total; ++tenant) {
    if (before.ShardFor(tenant) != after.ShardFor(tenant)) ++moved;
  }
  EXPECT_LT(moved, total / 2) << "consistent hashing property lost";
  EXPECT_GT(moved, 0u) << "the new shard got nothing";
}

// ---------------------------------------------------------------------
// Token bucket & admission

TEST(TokenBucketTest, RefillsAtRate) {
  SimClock clock(0);
  TokenBucket bucket(/*rate=*/10, /*burst=*/20, clock.NowMicros());
  EXPECT_TRUE(bucket.TryTake(20, clock.NowMicros()));   // Full burst.
  EXPECT_FALSE(bucket.TryTake(1, clock.NowMicros()));   // Empty.
  clock.AdvanceSeconds(1);
  EXPECT_TRUE(bucket.TryTake(10, clock.NowMicros()));   // 1 s of refill.
  EXPECT_FALSE(bucket.TryTake(1, clock.NowMicros()));
  clock.AdvanceSeconds(100);
  EXPECT_TRUE(bucket.TryTake(20, clock.NowMicros()));   // Capped at burst.
  EXPECT_FALSE(bucket.TryTake(1, clock.NowMicros()));
}

TEST(AdmissionControllerTest, QuotaRejectionsAreTyped) {
  SimClock clock(0);
  MetricsRegistry metrics;
  TenantQuotaConfig quota;
  quota.entries_per_second = 10;
  quota.burst_entries = 16;
  quota.max_inflight_appends = 1;
  quota.max_tenants = 2;
  AdmissionController admission(quota, &clock, &metrics);

  // Rate: the burst admits 16 entries, then the bucket is dry.
  ASSERT_TRUE(admission.AdmitAppend(1, 16).ok());
  admission.EndAppend(1);
  Status rate = admission.AdmitAppend(1, 16);
  EXPECT_EQ(rate.code(), Code::kResourceExhausted);
  EXPECT_EQ(admission.rate_rejections(), 1u);

  // In-flight: tenant 2 holds its one slot until EndAppend.
  ASSERT_TRUE(admission.AdmitAppend(2, 1).ok());
  Status inflight = admission.AdmitAppend(2, 1);
  EXPECT_EQ(inflight.code(), Code::kResourceExhausted);
  EXPECT_EQ(admission.inflight_rejections(), 1u);
  admission.EndAppend(2);
  clock.AdvanceSeconds(1);
  EXPECT_TRUE(admission.AdmitAppend(2, 1).ok());
  admission.EndAppend(2);

  // Tenant cap: a third distinct tenant is refused outright.
  Status tenant = admission.AdmitAppend(3, 1);
  EXPECT_EQ(tenant.code(), Code::kResourceExhausted);
  EXPECT_EQ(admission.tenant_rejections(), 1u);
}

TEST(AdmissionControllerTest, ZeroConfigAdmitsEverything) {
  SimClock clock(0);
  MetricsRegistry metrics;
  AdmissionController admission(TenantQuotaConfig{}, &clock, &metrics);
  for (uint64_t tenant = 0; tenant < 100; ++tenant) {
    EXPECT_TRUE(admission.AdmitAppend(tenant, 1'000'000).ok());
    admission.EndAppend(tenant);
  }
  // With no quota configured there is nothing to enforce, so no amount of
  // distinct ids may accumulate per-tenant state.
  EXPECT_EQ(admission.tracked_tenants(), 0u);
}

TEST(AdmissionControllerTest, RejectedRequestsLeaveNoTenantState) {
  SimClock clock(0);
  MetricsRegistry metrics;
  TenantQuotaConfig quota;
  quota.entries_per_second = 1;
  quota.burst_entries = 4;
  quota.max_tenants = 2;
  AdmissionController admission(quota, &clock, &metrics);
  ASSERT_TRUE(admission.AdmitAppend(1, 1).ok());
  admission.EndAppend(1);
  ASSERT_TRUE(admission.AdmitAppend(2, 1).ok());
  admission.EndAppend(2);
  ASSERT_EQ(admission.tracked_tenants(), 2u);
  // An over-cap tenant is rejected WITHOUT being recorded — otherwise a
  // client cycling fresh ids could pin map entries it was never granted.
  EXPECT_EQ(admission.AdmitAppend(3, 1).code(), Code::kResourceExhausted);
  EXPECT_EQ(admission.tracked_tenants(), 2u);

  // Same for the rate check: a fresh tenant asking for more than the
  // burst can never be admitted, so it must be rejected statelessly.
  TenantQuotaConfig rate_only;
  rate_only.entries_per_second = 1;
  rate_only.burst_entries = 4;
  AdmissionController rate_admission(rate_only, &clock, &metrics);
  EXPECT_EQ(rate_admission.AdmitAppend(9, 100).code(),
            Code::kResourceExhausted);
  EXPECT_EQ(rate_admission.tracked_tenants(), 0u);
}

TEST(AdmissionControllerTest, IdleTenantsAreEvictedForNewOnes) {
  SimClock clock(0);
  MetricsRegistry metrics;
  TenantQuotaConfig quota;
  quota.max_inflight_appends = 4;
  quota.max_tenants = 2;
  quota.idle_tenant_seconds = 10;
  AdmissionController admission(quota, &clock, &metrics);
  ASSERT_TRUE(admission.AdmitAppend(1, 1).ok());
  admission.EndAppend(1);
  ASSERT_TRUE(admission.AdmitAppend(2, 1).ok());  // Stays in flight.
  // Cap full, nobody idle long enough: the third tenant is refused.
  EXPECT_EQ(admission.AdmitAppend(3, 1).code(), Code::kResourceExhausted);
  clock.AdvanceSeconds(11);
  // Tenant 1 idled past the horizon and its slot is reclaimed; tenant 2
  // still has an append in flight and must survive the sweep.
  EXPECT_TRUE(admission.AdmitAppend(3, 1).ok());
  EXPECT_EQ(admission.tracked_tenants(), 2u);
  admission.EndAppend(2);
  admission.EndAppend(3);
}

TEST(AdmissionControllerTest, EndAppendRefundsUnusedEntries) {
  SimClock clock(0);
  MetricsRegistry metrics;
  TenantQuotaConfig quota;
  quota.entries_per_second = 1;
  quota.burst_entries = 4;
  AdmissionController admission(quota, &clock, &metrics);
  ASSERT_TRUE(admission.AdmitAppend(1, 4).ok());
  // The whole call was dropped by the node (e.g. forged signatures sent
  // under this tenant's name): the refund restores the budget in full.
  admission.EndAppend(1, 4);
  EXPECT_TRUE(admission.AdmitAppend(1, 4).ok());
  admission.EndAppend(1);  // This one landed: tokens stay spent.
  EXPECT_EQ(admission.AdmitAppend(1, 1).code(), Code::kResourceExhausted);
}

// ---------------------------------------------------------------------
// Tenant authentication (tenant id <-> publisher key binding)

TEST(TenantAuthTest, MismatchedTenantIsPermissionDenied) {
  ShardedEngineConfig config;
  config.num_shards = 2;
  config.node.batch_size = 4;
  config.node.worker_threads = 1;
  config.authenticate_tenants = true;
  Telemetry telemetry;
  auto engine = ShardedLogEngine::Create(config, KeyPair::FromSeed(1), {},
                                         nullptr, Address{}, &telemetry);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  TenantId own = PublisherTenant(publisher.address());
  uint64_t seq = 0;
  EXPECT_TRUE((*engine)->Append(own, MakeBatch(publisher, &seq, 4)).ok());
  // Appending the same (validly signed) requests under any other tenant
  // id is an identity mismatch, refused before any quota is charged.
  auto spoofed = (*engine)->Append(own + 1, MakeBatch(publisher, &seq, 4));
  ASSERT_FALSE(spoofed.ok());
  EXPECT_EQ(spoofed.status().code(), Code::kPermissionDenied);
}

TEST(TenantAuthTest, RequiresSignatureVerification) {
  ShardedEngineConfig config;
  config.authenticate_tenants = true;
  config.node.verify_client_signatures = false;
  Telemetry telemetry;
  auto engine = ShardedLogEngine::Create(config, KeyPair::FromSeed(1), {},
                                         nullptr, Address{}, &telemetry);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), Code::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Engine: routing, quotas, aggregation

class ShardedEngineTest : public ::testing::Test {
 protected:
  void Build(uint32_t shards, TenantQuotaConfig quota = {},
             uint32_t batch_size = 4) {
    ShardedDeploymentConfig config;
    config.engine.num_shards = shards;
    config.engine.node.batch_size = batch_size;
    config.engine.node.worker_threads = 1;
    config.engine.quota = quota;
    config.engine.forest_stage2 = shards > 1;
    auto d = ShardedDeployment::Create(config);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    deployment_ = std::move(d).value();
    publisher_key_ = std::make_unique<KeyPair>(KeyPair::FromSeed(0xC11E));
  }

  // Appends one full batch for `tenant` and returns the responses.
  std::vector<Stage1Response> AppendBatch(TenantId tenant, int n = 4) {
    auto r = deployment_->engine().Append(
        tenant, MakeBatch(*publisher_key_, &seq_, n));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : std::vector<Stage1Response>{};
  }

  std::unique_ptr<ShardedDeployment> deployment_;
  std::unique_ptr<KeyPair> publisher_key_;
  uint64_t seq_ = 0;
};

TEST_F(ShardedEngineTest, RoutesToTheRingShardAndCounts) {
  Build(4);
  ShardedLogEngine& e = deployment_->engine();
  for (TenantId tenant = 0; tenant < 8; ++tenant) {
    auto responses = AppendBatch(tenant);
    ASSERT_EQ(responses.size(), 4u);
    // The entry is readable through the tenant route...
    auto read = e.ReadOne(tenant, responses.front().index);
    ASSERT_TRUE(read.ok());
    // ...and physically lives on the shard the ring names.
    uint32_t s = e.ShardFor(tenant);
    EXPECT_TRUE(e.shard(s).ReadOne(responses.front().index).ok());
  }
  MetricsSnapshot snap = deployment_->telemetry().metrics.Snapshot();
  uint64_t appends = 0, entries = 0;
  for (uint32_t s = 0; s < 4; ++s) {
    std::string prefix = "wedge.shard." + std::to_string(s) + ".";
    appends += snap.CounterValue(prefix + "appends");
    entries += snap.CounterValue(prefix + "entries");
  }
  EXPECT_EQ(appends, 8u);
  EXPECT_EQ(entries, 32u);
}

TEST_F(ShardedEngineTest, QuotaRejectionIsTypedAndRecovers) {
  TenantQuotaConfig quota;
  quota.entries_per_second = 1;
  quota.burst_entries = 4;
  Build(2, quota);
  AppendBatch(/*tenant=*/7);  // Consumes the whole burst.
  auto rejected = deployment_->engine().Append(
      7, MakeBatch(*publisher_key_, &seq_, 4));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), Code::kResourceExhausted);
  // Another tenant is unaffected; the throttled one recovers with time
  // (the admission clock is the deployment's SimClock).
  AppendBatch(/*tenant=*/8);
  deployment_->clock().AdvanceSeconds(4);
  AppendBatch(/*tenant=*/7);
}

TEST_F(ShardedEngineTest, OneForestTxPerEpochAndLagRecorded) {
  Build(4);
  for (TenantId tenant = 0; tenant < 6; ++tenant) AppendBatch(tenant);
  deployment_->AdvanceBlocks(2);  // Poll + close epoch 0, mine it.
  for (TenantId tenant = 0; tenant < 6; ++tenant) AppendBatch(tenant);
  deployment_->AdvanceBlocks(2);
  // Empty-epoch ticks submit nothing; these blocks only carry the second
  // forest tx to confirmation depth.
  deployment_->AdvanceBlocks(4);

  EpochRootAggregator* agg = deployment_->engine().aggregator();
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->epochs_closed(), 2u);
  EXPECT_EQ(agg->ForestTxIds().size(), 2u);  // Exactly one tx per epoch.
  for (TxId tx : agg->ForestTxIds()) {
    EXPECT_TRUE(deployment_->chain().IsConfirmed(tx));
  }
  MetricsSnapshot snap = deployment_->telemetry().metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("wedge.engine.epochs_closed"), 2u);
  EXPECT_EQ(snap.CounterValue("wedge.engine.forest_txs"), 2u);
  EXPECT_EQ(snap.CounterValue("wedge.engine.forest_tx_retries"), 0u);
  const HistogramSnapshot* lag =
      snap.FindHistogram("wedge.engine.agg_lag_us");
  ASSERT_NE(lag, nullptr);
  EXPECT_EQ(lag->count, 12u);  // One lag sample per aggregated batch root.
}

TEST_F(ShardedEngineTest, TwoLevelProofVerifiesEndToEnd) {
  Build(4);
  TenantId tenant = 3;
  auto responses = AppendBatch(tenant);
  ASSERT_EQ(responses.size(), 4u);
  deployment_->AdvanceBlocks(2);

  ShardedLogEngine& e = deployment_->engine();
  const Stage1Response& r = responses.front();
  // Level 1: entry -> batch root (the classic stage-1 proof).
  ASSERT_TRUE(r.Verify(e.address()));
  // Level 2: batch root -> forest root, signed by the engine.
  auto agg = e.ProveAggregation(tenant, r.index.log_id);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  PublisherClient client = deployment_->MakePublisher(tenant);
  EXPECT_TRUE(client.VerifyAggregation(r, *agg));
  // And the forest root is what the chain recorded for that epoch.
  auto check = client.CheckForestCommit(*agg);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(*check, CommitCheck::kBlockchainCommitted);
}

TEST_F(ShardedEngineTest, ProofForUnaggregatedBatchIsNotFound) {
  Build(2);
  TenantId tenant = 1;
  auto responses = AppendBatch(tenant);
  // No epoch closed yet: the proof cannot exist.
  auto agg = deployment_->engine().ProveAggregation(
      tenant, responses.front().index.log_id);
  ASSERT_FALSE(agg.ok());
  EXPECT_EQ(agg.status().code(), Code::kNotFound);
}

TEST_F(ShardedEngineTest, TamperedAggProofIsRejectedNotPunishable) {
  Build(4);
  TenantId tenant = 2;
  auto responses = AppendBatch(tenant);
  // More leaves in the epoch so the forest path is non-empty.
  AppendBatch(tenant + 1);
  AppendBatch(tenant + 2);
  deployment_->AdvanceBlocks(2);
  auto agg = deployment_->engine().ProveAggregation(
      tenant, responses.front().index.log_id);
  ASSERT_TRUE(agg.ok());
  PublisherClient client = deployment_->MakePublisher(tenant);
  ASSERT_TRUE(client.VerifyAggregation(responses.front(), *agg));

  // In-transit tampering (after signing): the signature covers the path,
  // so verification fails — and the evidence is NOT attributable, so the
  // contract refuses to punish for it.
  AggregationProof tampered = *agg;
  ASSERT_FALSE(tampered.forest_path.path.empty());
  tampered.forest_path.path[0].sibling[0] ^= 0xFF;
  EXPECT_FALSE(client.VerifyAggregation(responses.front(), tampered));
  auto receipt = client.TriggerForestPunishment(responses.front(), tampered);
  if (receipt.ok()) {
    EXPECT_FALSE(receipt->success);  // Reverted: unattributable evidence.
  }

  // Same for a tampered binding (mroot).
  AggregationProof rebound = *agg;
  rebound.mroot[0] ^= 0xFF;
  EXPECT_FALSE(client.VerifyAggregation(responses.front(), rebound));
}

TEST_F(ShardedEngineTest, SignedCorruptAggProofIsPunishable) {
  Build(4);
  TenantId tenant = 5;
  auto responses = AppendBatch(tenant);
  // More leaves in the epoch so the forest path is non-empty.
  AppendBatch(tenant + 1);
  AppendBatch(tenant + 2);
  deployment_->AdvanceBlocks(2);

  EpochRootAggregator* agg_src = deployment_->engine().aggregator();
  agg_src->set_byzantine_mode(AggByzantineMode::kCorruptAggProof);
  auto agg = deployment_->engine().ProveAggregation(
      tenant, responses.front().index.log_id);
  ASSERT_TRUE(agg.ok());
  PublisherClient client = deployment_->MakePublisher(tenant);
  // The statement is signed by the engine but internally inconsistent:
  // rejected client-side AND attributable on-chain.
  EXPECT_FALSE(client.VerifyAggregation(responses.front(), *agg));
  auto receipt = client.TriggerForestPunishment(responses.front(), *agg);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_TRUE(receipt->success) << "signed-corrupt proof must punish";
}

TEST_F(ShardedEngineTest, EquivocatedForestRootIsPunishable) {
  Build(4);
  EpochRootAggregator* agg_src = deployment_->engine().aggregator();
  agg_src->set_byzantine_mode(AggByzantineMode::kEquivocateBatchRoot);
  TenantId tenant = 4;
  auto responses = AppendBatch(tenant);
  deployment_->AdvanceBlocks(2);  // Epoch closes over LYING batch roots.
  agg_src->set_byzantine_mode(AggByzantineMode::kHonest);

  auto agg = deployment_->engine().ProveAggregation(
      tenant, responses.front().index.log_id);
  ASSERT_TRUE(agg.ok());
  PublisherClient client = deployment_->MakePublisher(tenant);
  // The proof is internally consistent and signed — but its mroot is not
  // what stage 1 signed for this batch: equivocation between the levels.
  EXPECT_TRUE(agg->Verify(deployment_->engine().address()));
  EXPECT_FALSE(client.VerifyAggregation(responses.front(), *agg));
  auto receipt = client.TriggerForestPunishment(responses.front(), *agg);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_TRUE(receipt->success) << "equivocation must punish";
}

TEST_F(ShardedEngineTest, CrossShardEvidenceCannotPunishHonestEngine) {
  Build(4);
  ShardedLogEngine& e = deployment_->engine();
  // Two tenants on DIFFERENT shards. Both shards number their logs
  // densely from 0, so each tenant's first batch is "log 0" — the
  // collision a cross-shard evidence splice needs.
  TenantId a = 0, b = 1;
  while (e.ShardFor(b) == e.ShardFor(a)) ++b;
  auto resp_a = AppendBatch(a);
  auto resp_b = AppendBatch(b);
  ASSERT_FALSE(resp_a.empty());
  ASSERT_FALSE(resp_b.empty());
  ASSERT_EQ(resp_a.front().index.log_id, resp_b.front().index.log_id)
      << "the attack needs colliding shard-local log ids";
  ASSERT_NE(resp_a.front().proof.mroot, resp_b.front().proof.mroot);
  // Stage-1 responses carry (and sign) their shard of origin.
  EXPECT_EQ(resp_a.front().proof.shard_id, e.ShardFor(a));
  EXPECT_EQ(resp_b.front().proof.shard_id, e.ShardFor(b));
  deployment_->AdvanceBlocks(2);

  auto agg_b = e.ProveAggregation(b, resp_b.front().index.log_id);
  ASSERT_TRUE(agg_b.ok()) << agg_b.status().ToString();
  PublisherClient client = deployment_->MakePublisher(a);
  // Shard A's honest stage-1 response spliced with shard B's honest
  // aggregation proof for the same log id but a different root: both
  // pieces are genuinely engine-signed, yet together they "show" an
  // mroot mismatch. The stage-1 statement's shard id is what exposes the
  // splice — the client rejects it and the contract must refuse to
  // punish (the stage-1 signature does not verify under shard B's id).
  EXPECT_FALSE(client.VerifyAggregation(resp_a.front(), *agg_b));
  auto receipt = client.TriggerForestPunishment(resp_a.front(), *agg_b);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_FALSE(receipt->success)
      << "honest engine's escrow seized by cross-shard evidence splice";
}

TEST_F(ShardedEngineTest, BatchReadStatementBindsItsShard) {
  Build(4);
  ShardedLogEngine& e = deployment_->engine();
  // A tenant on shard 1: its first batch is that shard's log 0, a log id
  // every other shard also has.
  TenantId tenant = 0;
  while (e.ShardFor(tenant) != 1) ++tenant;
  auto responses = AppendBatch(tenant);
  ASSERT_FALSE(responses.empty());
  auto batch = e.ReadBatch(tenant, responses.front().index.log_id, {});
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->shard_id, 1u);
  EXPECT_TRUE(batch->Verify(e.address()));
  // Relabelled as shard 0's log 0 the engine-signed batch no longer
  // verifies: the shard id is inside the signed statement.
  BatchReadResponse spliced = *batch;
  spliced.shard_id = 0;
  EXPECT_FALSE(spliced.Verify(e.address()));
  // And the serialized reply carries it.
  auto back = BatchReadResponse::Deserialize(batch->Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->shard_id, 1u);
  EXPECT_TRUE(back->Verify(e.address()));
}

TEST_F(ShardedEngineTest, HonestProofDoesNotPunish) {
  Build(4);
  TenantId tenant = 6;
  auto responses = AppendBatch(tenant);
  AppendBatch(tenant + 1);
  deployment_->AdvanceBlocks(2);
  auto agg = deployment_->engine().ProveAggregation(
      tenant, responses.front().index.log_id);
  ASSERT_TRUE(agg.ok());
  PublisherClient client = deployment_->MakePublisher(tenant);
  auto receipt = client.TriggerForestPunishment(responses.front(), *agg);
  if (receipt.ok()) {
    EXPECT_FALSE(receipt->success) << "honest engine must not be punishable";
  }
}

TEST_F(ShardedEngineTest, LostForestTxIsResubmittedAndConfirms) {
  Build(2);
  // The epoch-0 forest submission is acknowledged but never reaches the
  // mempool (dishonest/crashing RPC node).
  deployment_->chain().fault_injector()->Schedule(FaultType::kDropTx, 1);
  auto responses = AppendBatch(/*tenant=*/3);
  ASSERT_FALSE(responses.empty());
  deployment_->AdvanceBlocks(1);  // Poll + close epoch 0; tx dropped.
  // Past the resubmission deadline, plus enough blocks for the retry to
  // mine and reach chain confirmation depth.
  deployment_->AdvanceBlocks(
      static_cast<int>(Stage2SubmitterConfig{}.confirmation_deadline_blocks) +
      6);

  EpochRootAggregator* agg = deployment_->engine().aggregator();
  ASSERT_NE(agg, nullptr);
  // Exactly one resubmission once the deadline passed — and it landed.
  ASSERT_EQ(agg->ForestTxIds().size(), 2u);
  EXPECT_FALSE(deployment_->chain().IsConfirmed(agg->ForestTxIds().front()));
  EXPECT_TRUE(deployment_->chain().IsConfirmed(agg->ForestTxIds().back()));
  MetricsSnapshot snap = deployment_->telemetry().metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("wedge.engine.forest_tx_retries"), 1u);

  auto proof = deployment_->engine().ProveAggregation(
      3, responses.front().index.log_id);
  ASSERT_TRUE(proof.ok());
  PublisherClient client = deployment_->MakePublisher(3);
  auto check = client.CheckForestCommit(*proof);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(*check, CommitCheck::kBlockchainCommitted);
}

TEST_F(ShardedEngineTest, AlreadyRecordedEpochConfirmsWithoutResubmit) {
  Build(2);
  deployment_->chain().fault_injector()->Schedule(FaultType::kDropTx, 1);
  auto responses = AppendBatch(/*tenant=*/3);
  ASSERT_FALSE(responses.empty());
  deployment_->AdvanceBlocks(1);  // Close epoch 0; the submission is lost.

  // The "lost" transaction actually made it through another path (say a
  // second RPC node): the identical root lands under the engine's key.
  // Blindly resubmitting would now revert with epoch != forestTail on
  // every tick, forever.
  auto proof = deployment_->engine().ProveAggregation(
      3, responses.front().index.log_id);
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  Transaction tx;
  tx.from = deployment_->engine().address();
  tx.to = deployment_->root_record_address();
  tx.method = "updateForestRoot";
  PutU64(tx.calldata, proof->epoch);
  PutU32(tx.calldata, 1);  // One batch root staged in this epoch.
  Append(tx.calldata, HashToBytes(proof->forest_root));
  ASSERT_TRUE(deployment_->chain().Submit(tx).ok());

  deployment_->AdvanceBlocks(
      static_cast<int>(Stage2SubmitterConfig{}.confirmation_deadline_blocks) +
      2);
  EpochRootAggregator* agg = deployment_->engine().aggregator();
  ASSERT_NE(agg, nullptr);
  // Recovery consulted the chain, found the epoch recorded, and marked
  // it confirmed: no retry transaction, no revert loop.
  EXPECT_EQ(agg->ForestTxIds().size(), 1u);
  MetricsSnapshot snap = deployment_->telemetry().metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("wedge.engine.forest_tx_retries"), 0u);
  PublisherClient client = deployment_->MakePublisher(3);
  auto check = client.CheckForestCommit(*proof);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_EQ(*check, CommitCheck::kBlockchainCommitted);
}

TEST_F(ShardedEngineTest, ForestEpochConfirmsAtConfirmationDepth) {
  Build(2);
  EpochRootAggregator* agg = deployment_->engine().aggregator();
  AppendBatch(/*tenant=*/1);
  deployment_->AdvanceBlocks(1);  // Close epoch 0 and send its tx.
  deployment_->AdvanceBlocks(1);  // Mined: a receipt, not yet deep.
  ASSERT_EQ(agg->ForestTxIds().size(), 1u);
  ASSERT_TRUE(deployment_->chain().GetReceipt(agg->ForestTxIds()[0]).ok());
  EXPECT_EQ(agg->epochs_unconfirmed(), 1u);
  // The classic rule: confirmed once `confirmations` blocks sit on top.
  deployment_->AdvanceBlocks(deployment_->chain().config().confirmations);
  EXPECT_EQ(agg->epochs_unconfirmed(), 0u);
  EXPECT_EQ(agg->epochs_confirmed(), 1u);
}

/// Every closed epoch of `d` is recorded on chain under the root the
/// aggregator proves for it; `acked` holds one sealed batch per tenant.
void ExpectEveryEpochCommitted(
    ShardedDeployment& d,
    const std::vector<std::pair<TenantId, Stage1Response>>& acked) {
  ShardedLogEngine& e = d.engine();
  std::set<uint64_t> epochs;
  for (const auto& [tenant, response] : acked) {
    auto proof = e.ProveAggregation(tenant, response.index.log_id);
    ASSERT_TRUE(proof.ok()) << proof.status().ToString();
    PublisherClient client = d.MakePublisher(tenant);
    EXPECT_TRUE(client.VerifyAggregation(response, *proof));
    auto check = client.CheckForestCommit(*proof);
    ASSERT_TRUE(check.ok()) << check.status().ToString();
    EXPECT_EQ(*check, CommitCheck::kBlockchainCommitted)
        << "epoch " << proof->epoch;
    epochs.insert(proof->epoch);
  }
  EXPECT_EQ(epochs.size(), e.aggregator()->epochs_closed())
      << "an epoch holds no acked batch";
}

TEST_F(ShardedEngineTest, ForestStreamRetriesScriptedFaultsWithCauses) {
  Build(2);
  EpochRootAggregator* agg = deployment_->engine().aggregator();
  FaultInjector* faults = deployment_->chain().fault_injector();
  struct Phase {
    FaultType fault;
    const char* retry_cause;
  };
  // A gas spike rides on a dropped epoch's bumped retry (initial sends
  // bid the market price, which a spike cannot undercut).
  const Phase phases[] = {{FaultType::kDropTx, "timeout"},
                          {FaultType::kEvictTx, "timeout"},
                          {FaultType::kRevertTx, "revert"},
                          {FaultType::kGasSpike, "timeout"}};
  std::vector<std::pair<TenantId, Stage1Response>> acked;
  TenantId tenant = 0;
  for (const Phase& phase : phases) {
    const size_t before = agg->stage2_submitter().attempts().size();
    const uint64_t epoch = agg->epochs_closed();
    if (phase.fault == FaultType::kEvictTx) {
      // Hold mining back so the tx is evicted before it can land.
      faults->Schedule(FaultType::kEvictTx, 1);
      faults->Schedule(FaultType::kDelayBlock, 2);
    } else if (phase.fault == FaultType::kGasSpike) {
      faults->Schedule(FaultType::kDropTx, 1);
    } else {
      faults->Schedule(phase.fault, 1);
    }
    auto responses = AppendBatch(tenant);
    ASSERT_FALSE(responses.empty());
    acked.emplace_back(tenant++, responses.front());
    bool spiked = false;
    for (int i = 0; i < 64 && (agg->epochs_closed() == epoch ||
                               agg->epochs_unconfirmed() > 0);
         ++i) {
      deployment_->AdvanceBlocks(1);
      if (phase.fault == FaultType::kGasSpike && !spiked &&
          agg->stage2_submitter().attempts().size() == before + 2) {
        // The bumped retry is in the mempool: spike the next block.
        faults->Schedule(FaultType::kGasSpike, 1);
        spiked = true;
      }
    }
    ASSERT_EQ(agg->epochs_unconfirmed(), 0u);
    auto attempts = agg->stage2_submitter().attempts();
    ASSERT_EQ(attempts.size(), before + 2) << "phase " << epoch;
    EXPECT_EQ(attempts[before].cause, "initial");
    EXPECT_EQ(attempts[before].first_log_id, epoch);
    EXPECT_EQ(attempts[before + 1].cause, phase.retry_cause);
    EXPECT_EQ(attempts[before + 1].first_log_id, epoch);
    EXPECT_EQ(attempts[before + 1].attempt, 2);
    EXPECT_TRUE(attempts[before + 1].gas_bid > attempts[before].gas_bid);
    if (phase.fault == FaultType::kGasSpike) {
      // The spiked block priced the bumped retry out; the next mined it.
      auto receipt =
          deployment_->chain().GetReceipt(attempts[before + 1].tx_id);
      ASSERT_TRUE(receipt.ok());
      EXPECT_GE(receipt->block_number, attempts[before + 1].block + 2);
    }
  }
  FaultStats injected = faults->stats();
  EXPECT_EQ(injected.txs_dropped, 2u);
  EXPECT_EQ(injected.txs_evicted, 1u);
  EXPECT_EQ(injected.txs_reverted, 1u);
  EXPECT_EQ(injected.gas_spikes, 1u);
  MetricsSnapshot snap = deployment_->telemetry().metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("wedge.engine.forest_tx_retries"), 4u);
  EXPECT_EQ(snap.CounterValue("wedge.engine.forest_txs"), 8u);
  ExpectEveryEpochCommitted(*deployment_, acked);
}

/// A two-shard forest deployment whose chain injects every fault class
/// at seeded rates.
std::unique_ptr<ShardedDeployment> MakeFaultyForest(uint64_t seed) {
  ShardedDeploymentConfig config;
  config.engine.num_shards = 2;
  config.engine.node.batch_size = 4;
  config.engine.node.worker_threads = 1;
  config.chain.faults.seed = seed;
  config.chain.faults.drop_probability = 0.15;
  config.chain.faults.evict_probability = 0.1;
  config.chain.faults.revert_probability = 0.1;
  config.chain.faults.delay_probability = 0.1;
  config.chain.faults.gas_spike_probability = 0.2;
  auto made = ShardedDeployment::Create(config);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return made.ok() ? std::move(made).value() : nullptr;
}

TEST(ShardedForestFaultTest, SeededFaultsMatchTheAttemptLog) {
  auto d = MakeFaultyForest(0x5EED);
  ASSERT_NE(d, nullptr);
  EpochRootAggregator* agg = d->engine().aggregator();
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  // One epoch in flight at a time, so every failure is the epoch's own.
  std::vector<std::pair<TenantId, Stage1Response>> acked;
  for (TenantId tenant = 0; tenant < 24; ++tenant) {
    auto r = d->engine().Append(tenant, MakeBatch(publisher, &seq, 4));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    acked.emplace_back(tenant, r->front());
    d->AdvanceBlocks(1);
    for (int i = 0; i < 128 && agg->epochs_unconfirmed() > 0; ++i) {
      d->AdvanceBlocks(1);
    }
    ASSERT_EQ(agg->epochs_unconfirmed(), 0u) << "epoch " << tenant;
  }
  ExpectEveryEpochCommitted(*d, acked);

  // Drops and evictions surface as timeouts, reverts as reverts, each
  // retried once; gas spikes only delay a bumped retry.
  FaultStats injected = d->chain().fault_injector()->stats();
  Stage2SubmitterStats stats = agg->stage2_submitter().stats();
  ASSERT_GT(injected.txs_dropped, 0u);
  ASSERT_GT(injected.txs_reverted, 0u);
  ASSERT_GT(injected.gas_spikes, 0u);
  EXPECT_EQ(stats.txs_timed_out, injected.txs_dropped + injected.txs_evicted);
  EXPECT_EQ(stats.txs_reverted, injected.txs_reverted);
  std::map<std::string, uint64_t> causes;
  for (const Stage2Attempt& a : agg->stage2_submitter().attempts()) {
    ++causes[a.cause];
  }
  EXPECT_EQ(causes.size(), 3u);  // initial, timeout, revert — nothing else.
  EXPECT_EQ(causes["initial"], agg->epochs_closed());
  EXPECT_EQ(causes["timeout"], stats.txs_timed_out);
  EXPECT_EQ(causes["revert"], stats.txs_reverted);
  EXPECT_EQ(stats.digests_confirmed, agg->epochs_closed());
}

TEST(ShardedForestFaultTest, SeededFaultsUnderContinuousEpochsLoseNothing) {
  auto d = MakeFaultyForest(0xFA57);
  ASSERT_NE(d, nullptr);
  EpochRootAggregator* agg = d->engine().aggregator();
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  // An epoch closes every block while earlier ones are still retried: a
  // lost epoch makes the ones behind it revert until it is resent.
  std::vector<std::pair<TenantId, Stage1Response>> acked;
  for (TenantId tenant = 0; tenant < 24; ++tenant) {
    auto r = d->engine().Append(tenant, MakeBatch(publisher, &seq, 4));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    acked.emplace_back(tenant, r->front());
    d->AdvanceBlocks(1);
  }
  for (int i = 0; i < 512 && agg->epochs_unconfirmed() > 0; ++i) {
    d->AdvanceBlocks(1);
  }
  ASSERT_EQ(agg->epochs_unconfirmed(), 0u);
  ExpectEveryEpochCommitted(*d, acked);
  FaultStats injected = d->chain().fault_injector()->stats();
  ASSERT_GT(injected.txs_dropped + injected.txs_reverted, 0u);
  EXPECT_GT(agg->stage2_submitter().stats().txs_retried, 0u);
  for (const Stage2Attempt& a : agg->stage2_submitter().attempts()) {
    EXPECT_TRUE(a.cause == "initial" || a.cause == "timeout" ||
                a.cause == "revert")
        << a.cause;
  }
}

TEST(ShardedForestStateTest, ShardAndAggregatorStateStaysBounded) {
  ShardedDeploymentConfig config;
  config.engine.num_shards = 2;
  config.engine.node.batch_size = 1;
  config.engine.node.worker_threads = 1;
  config.engine.node.verify_client_signatures = false;
  config.engine.node.sign_stage1_responses = false;
  auto made = ShardedDeployment::Create(config);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  ShardedDeployment& d = **made;
  ShardedLogEngine& e = d.engine();
  EpochRootAggregator* agg = e.aggregator();
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;

  constexpr int kPositions = 2000;
  for (int i = 0; i < kPositions; ++i) {
    ASSERT_TRUE(e.Append(i % 16, MakeBatch(publisher, &seq, 1)).ok());
    if (i % 32 == 31) {
      d.AdvanceBlocks(1);
      ASSERT_LE(agg->stage2_submitter().UncommittedDigests(),
                agg->epochs_unconfirmed());
    }
  }
  for (int i = 0; i < 64 && (agg->epochs_unconfirmed() > 0 ||
                             agg->staged_count() > 0);
       ++i) {
    d.AdvanceBlocks(1);
    ASSERT_LE(agg->stage2_submitter().UncommittedDigests(),
              agg->epochs_unconfirmed());
  }
  uint64_t sealed = 0;
  for (uint32_t s = 0; s < e.num_shards(); ++s) {
    sealed += e.shard(s).LogPositions();
    // Forest shards hand their roots to the aggregator: no shard-level
    // stage-2 journal grows with the log.
    EXPECT_EQ(e.shard(s).UncommittedDigests(), 0u) << "shard " << s;
  }
  EXPECT_GE(sealed, static_cast<uint64_t>(kPositions));
  EXPECT_EQ(agg->epochs_unconfirmed(), 0u);
  EXPECT_EQ(agg->stage2_submitter().UncommittedDigests(), 0u);
  EXPECT_GE(agg->epochs_closed(), 60u);
}

TEST_F(ShardedEngineTest, RoutingIsStableAcrossRestartWithFileStores) {
  std::string dir = ::testing::TempDir() + "/wedge_shard_restart";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ShardedDeploymentConfig config;
  config.engine.num_shards = 4;
  config.engine.node.batch_size = 4;
  config.engine.node.worker_threads = 1;
  config.log_dir = dir;

  std::vector<std::pair<TenantId, EntryIndex>> written;
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  {
    auto d = ShardedDeployment::Create(config);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    for (TenantId tenant = 10; tenant < 18; ++tenant) {
      auto r = (*d)->engine().Append(tenant, MakeBatch(publisher, &seq, 4));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      written.emplace_back(tenant, r->front().index);
    }
  }
  // "Restart": a fresh process image over the same shard files. The ring
  // is rebuilt from (num_shards, vnodes) alone, so every tenant's entry
  // must be found exactly where the new router looks.
  {
    auto d = ShardedDeployment::Create(config);
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    for (const auto& [tenant, index] : written) {
      auto read = (*d)->engine().ReadOne(tenant, index);
      ASSERT_TRUE(read.ok())
          << "tenant " << tenant << ": " << read.status().ToString();
      EXPECT_TRUE(read->Verify((*d)->engine().address()));
    }
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ShardedEngineTest, DegenerateSingleShardMatchesBareNode) {
  // shards=1 + classic stage 2 must be byte-identical to a bare
  // OffchainNode: same responses, same roots, same signatures (RFC 6979
  // determinism makes this exact).
  OffchainNodeConfig node_config;
  node_config.batch_size = 4;
  node_config.worker_threads = 1;
  node_config.auto_stage2 = false;
  KeyPair engine_key = KeyPair::FromSeed(0xED6E);
  KeyPair publisher = KeyPair::FromSeed(0xC11E);

  uint64_t seq_bare = 0;
  Telemetry bare_telemetry;
  OffchainNode bare(node_config, engine_key,
                    std::make_unique<MemoryLogStore>(), nullptr, Address{},
                    &bare_telemetry);
  auto bare_responses = bare.Append(MakeBatch(publisher, &seq_bare, 4));
  ASSERT_TRUE(bare_responses.ok());

  ShardedEngineConfig engine_config;
  engine_config.num_shards = 1;
  engine_config.node = node_config;
  engine_config.forest_stage2 = false;
  Telemetry engine_telemetry;
  auto engine = ShardedLogEngine::Create(engine_config, engine_key, {},
                                         nullptr, Address{},
                                         &engine_telemetry);
  ASSERT_TRUE(engine.ok());
  uint64_t seq_engine = 0;
  auto engine_responses =
      (*engine)->Append(0, MakeBatch(publisher, &seq_engine, 4));
  ASSERT_TRUE(engine_responses.ok());

  ASSERT_EQ(bare_responses->size(), engine_responses->size());
  for (size_t i = 0; i < bare_responses->size(); ++i) {
    EXPECT_EQ((*bare_responses)[i].Serialize(),
              (*engine_responses)[i].Serialize())
        << "response " << i << " diverged";
  }
}

TEST_F(ShardedEngineTest, ForestStage2OffNeedsSingleShard) {
  ShardedEngineConfig config;
  config.num_shards = 2;
  config.forest_stage2 = false;
  Telemetry telemetry;
  auto engine = ShardedLogEngine::Create(config, KeyPair::FromSeed(1), {},
                                         nullptr, Address{}, &telemetry);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), Code::kInvalidArgument);
}

// ---------------------------------------------------------------------
// OffchainNodeStats registry audit (the PR-4 cache counters were missing
// from the snapshot)

TEST(OffchainNodeStatsTest, SnapshotsEveryRegisteredNodeCounter) {
  OffchainNodeConfig config;
  config.batch_size = 4;
  config.worker_threads = 1;
  config.auto_stage2 = false;
  Telemetry telemetry;
  OffchainNode node(config, KeyPair::FromSeed(0xED6E),
                    std::make_unique<MemoryLogStore>(), nullptr, Address{},
                    &telemetry);
  KeyPair publisher = KeyPair::FromSeed(0xC11E);
  uint64_t seq = 0;
  auto responses = node.Append(MakeBatch(publisher, &seq, 4));
  ASSERT_TRUE(responses.ok());
  // Two reads of the same sealed position: at least one tree rebuild
  // (miss) and, with a warm cache, at least one hit.
  ASSERT_TRUE(node.ReadOne(responses->front().index).ok());
  ASSERT_TRUE(node.ReadOne(responses->front().index).ok());

  OffchainNodeStats stats = node.stats();
  MetricsSnapshot snap = telemetry.metrics.Snapshot();
  // The struct is DERIVED from the registry: every wedge.node.* counter
  // the node registers must round-trip through stats() exactly.
  EXPECT_EQ(stats.entries_ingested,
            snap.CounterValue("wedge.node.entries_ingested"));
  EXPECT_EQ(stats.batches_created,
            snap.CounterValue("wedge.node.batches_created"));
  EXPECT_EQ(stats.invalid_signatures_rejected,
            snap.CounterValue("wedge.node.invalid_signatures_rejected"));
  EXPECT_EQ(stats.reads_served, snap.CounterValue("wedge.node.reads_served"));
  EXPECT_EQ(stats.tree_cache_hits,
            snap.CounterValue("wedge.node.tree_cache_hits"));
  EXPECT_EQ(stats.tree_cache_misses,
            snap.CounterValue("wedge.node.tree_cache_misses"));
  EXPECT_GT(stats.tree_cache_hits + stats.tree_cache_misses, 0u)
      << "reads must touch the tree cache";
}

}  // namespace
}  // namespace wedge
