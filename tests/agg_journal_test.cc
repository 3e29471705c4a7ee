// Durability tests for the aggregator journal and the sharded recovery
// path it feeds: torn-tail truncation round-trips, the
// crash-between-journal-write-and-transaction window, and idempotent
// double recovery. The engine-level cases model a SIGKILL by dropping a
// ShardedDeployment (its simulated chain dies with it, exactly like a
// crashed process) and rebuilding another over the same log directory.

#include "shard/agg_journal.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "shard/sharded_engine.h"

namespace wedge {
namespace {

std::string TempDir(const char* tag) {
  std::string dir = std::filesystem::temp_directory_path() /
                    (std::string("wedge_aggj_") + tag + "_" +
                     std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Hash256 FakeHash(uint8_t fill) {
  Hash256 h{};
  h.fill(fill);
  return h;
}

std::vector<JournalLeaf> MakeLeaves(int n, uint8_t salt) {
  std::vector<JournalLeaf> leaves;
  for (int i = 0; i < n; ++i) {
    leaves.push_back(JournalLeaf{static_cast<uint32_t>(i % 3),
                                 static_cast<uint64_t>(10 + i),
                                 FakeHash(static_cast<uint8_t>(salt + i))});
  }
  return leaves;
}

TEST(AggregatorJournalTest, AppendReplayRoundTrip) {
  std::string dir = TempDir("roundtrip");
  std::string path = dir + "/aggregator.journal";
  {
    auto journal = AggregatorJournal::Open(path, {});
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_TRUE(
        (*journal)->AppendEpoch(0, FakeHash(0xA0), MakeLeaves(3, 1)).ok());
    ASSERT_TRUE(
        (*journal)->AppendEpoch(1, FakeHash(0xA1), MakeLeaves(2, 9)).ok());
    ASSERT_TRUE((*journal)->AppendConfirmed(0).ok());
  }
  auto reopened = AggregatorJournal::Open(path, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& epochs = (*reopened)->epochs();
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0].epoch, 0u);
  EXPECT_EQ(epochs[0].root, FakeHash(0xA0));
  EXPECT_TRUE(epochs[0].confirmed);
  ASSERT_EQ(epochs[0].leaves.size(), 3u);
  EXPECT_EQ(epochs[0].leaves[1].shard_id, 1u);
  EXPECT_EQ(epochs[0].leaves[1].log_id, 11u);
  EXPECT_EQ(epochs[0].leaves[1].mroot, FakeHash(2));
  EXPECT_EQ(epochs[1].epoch, 1u);
  EXPECT_FALSE(epochs[1].confirmed);
  std::filesystem::remove_all(dir);
}

TEST(AggregatorJournalTest, EnforcesInvariants) {
  std::string dir = TempDir("invariants");
  auto journal = AggregatorJournal::Open(dir + "/j", {});
  ASSERT_TRUE(journal.ok());
  // Confirming an unknown epoch is a caller bug, not a silent no-op.
  EXPECT_EQ((*journal)->AppendConfirmed(5).code(),
            Code::kFailedPrecondition);
  ASSERT_TRUE((*journal)->AppendEpoch(0, FakeHash(1), MakeLeaves(1, 0)).ok());
  // Epochs are consecutive by construction; a gap means state was lost.
  EXPECT_FALSE((*journal)->AppendEpoch(2, FakeHash(2), MakeLeaves(1, 0)).ok());
  // Re-confirming is idempotent (Tick and Recover may race to it).
  ASSERT_TRUE((*journal)->AppendConfirmed(0).ok());
  EXPECT_TRUE((*journal)->AppendConfirmed(0).ok());
  std::filesystem::remove_all(dir);
}

TEST(AggregatorJournalTest, TornTailTruncationRoundTrip) {
  std::string dir = TempDir("torn");
  std::string path = dir + "/aggregator.journal";
  {
    auto journal = AggregatorJournal::Open(path, {});
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(
        (*journal)->AppendEpoch(0, FakeHash(0xB0), MakeLeaves(2, 0)).ok());
    ASSERT_TRUE(
        (*journal)->AppendEpoch(1, FakeHash(0xB1), MakeLeaves(2, 4)).ok());
  }
  // A crash mid-write leaves a torn record: append half a header plus
  // garbage that can never checksum.
  {
    FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint8_t garbage[] = {0x00, 0x00, 0x01, 0xFF, 0xDE, 0xAD};
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  // Reopen: the valid prefix replays, the torn tail is truncated away,
  // and the journal accepts the next consecutive epoch as if the torn
  // write had never happened.
  {
    auto reopened = AggregatorJournal::Open(path, {});
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_EQ((*reopened)->epochs().size(), 2u);
    EXPECT_EQ((*reopened)->epochs()[1].root, FakeHash(0xB1));
    ASSERT_TRUE(
        (*reopened)->AppendEpoch(2, FakeHash(0xB2), MakeLeaves(1, 8)).ok());
  }
  // And the rewritten tail itself replays cleanly.
  auto again = AggregatorJournal::Open(path, {});
  ASSERT_TRUE(again.ok());
  ASSERT_EQ((*again)->epochs().size(), 3u);
  EXPECT_EQ((*again)->epochs()[2].epoch, 2u);
  std::filesystem::remove_all(dir);
}

TEST(AggregatorJournalTest, TornAppendIsRolledBackSoARetriedEpochReplays) {
  std::string dir = TempDir("torn_append");
  std::string path = dir + "/aggregator.journal";
  AggregatorJournal::Options options;
  // Simulated device capacity: room for the small records below, not
  // for a 64-leaf epoch (each leaf journals 44 bytes).
  options.fail_after_bytes = 1000;
  {
    auto journal = AggregatorJournal::Open(path, options);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    ASSERT_TRUE(
        (*journal)->AppendEpoch(0, FakeHash(0xC0), MakeLeaves(3, 0)).ok());
    ASSERT_TRUE(
        (*journal)->AppendEpoch(1, FakeHash(0xC1), MakeLeaves(3, 3)).ok());
    ASSERT_TRUE((*journal)->AppendConfirmed(0).ok());
    // The disk fills mid-record: a torn frame is written, then the
    // append fails with nothing acked.
    Status torn = (*journal)->AppendEpoch(2, FakeHash(0xC2),
                                          MakeLeaves(64, 6));
    ASSERT_FALSE(torn.ok());
    EXPECT_EQ(torn.code(), Code::kIoError);
    EXPECT_EQ((*journal)->epochs().size(), 2u);
    // CloseEpoch retries the same epoch number (here with fewer leaves,
    // as when some were re-staged), and journaling continues behind it.
    ASSERT_TRUE(
        (*journal)->AppendEpoch(2, FakeHash(0xD2), MakeLeaves(2, 6)).ok());
    ASSERT_TRUE(
        (*journal)->AppendEpoch(3, FakeHash(0xD3), MakeLeaves(1, 8)).ok());
  }
  // Every epoch whose AppendEpoch returned OK replays: the torn frame
  // was rolled back instead of sitting in front of epochs 2 and 3.
  auto reopened = AggregatorJournal::Open(path, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& epochs = (*reopened)->epochs();
  ASSERT_EQ(epochs.size(), 4u);
  EXPECT_EQ(epochs[0].root, FakeHash(0xC0));
  EXPECT_TRUE(epochs[0].confirmed);
  EXPECT_EQ(epochs[1].root, FakeHash(0xC1));
  EXPECT_EQ(epochs[2].root, FakeHash(0xD2));
  EXPECT_EQ(epochs[2].leaves.size(), 2u);
  EXPECT_EQ(epochs[3].root, FakeHash(0xD3));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Engine-level recovery over a journaled deployment.

class ShardedRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = TempDir("recovery"); }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  Result<std::unique_ptr<ShardedDeployment>> Build() {
    ShardedDeploymentConfig config;
    config.engine.num_shards = 2;
    config.engine.node.batch_size = 4;
    config.engine.node.worker_threads = 1;
    config.log_dir = dir_;
    return ShardedDeployment::Create(config);
  }

  std::vector<AppendRequest> MakeBatch(int n) {
    std::vector<AppendRequest> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(AppendRequest::Make(publisher_, seq_++,
                                        ToBytes("k" + std::to_string(i)),
                                        ToBytes("v")));
    }
    return out;
  }

  std::string dir_;
  KeyPair publisher_ = KeyPair::FromSeed(0xC11E);
  uint64_t seq_ = 0;
};

TEST_F(ShardedRecoveryTest, CrashAfterJournalBeforeConfirmResubmits) {
  std::vector<Stage1Response> acked;
  {
    // Life 1: two tenants append, the epoch closes (journal record +
    // forest tx), then the process "crashes" before the tx confirms —
    // dropping the deployment kills the sim chain just like SIGKILL
    // kills a wedgeblockd, which is exactly the
    // journal-written-but-no-confirmed-transaction window.
    auto d = Build();
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    for (TenantId tenant = 0; tenant < 2; ++tenant) {
      auto r = (*d)->engine().Append(tenant, MakeBatch(4));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      for (const auto& response : *r) acked.push_back(response);
    }
    (*d)->AdvanceBlocks(1);  // Poll + close epoch 0; tx still pending.
  }
  {
    // Life 2: same log dir, fresh chain. The journal replays the epoch,
    // Recover finds its root missing on-chain and resubmits it.
    auto d = Build();
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    auto report = (*d)->engine().Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->journaled_epochs, 1u);
    EXPECT_EQ(report->resubmitted_epochs, 1u);
    (*d)->AdvanceBlocks(2);  // Confirm the resubmission.

    // Every entry acked in life 1 is readable and provable end to end.
    for (const auto& response : acked) {
      TenantId tenant = 0;  // Tenants 0/1 both map somewhere; try both.
      auto read = (*d)->engine().ReadOne(tenant, response.index);
      if (!read.ok()) read = (*d)->engine().ReadOne(1, response.index);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      EXPECT_TRUE(read->Verify((*d)->engine().address()));
    }
    auto proof = (*d)->engine().ProveAggregation(0, acked.front().index.log_id);
    if (!proof.ok()) {
      proof = (*d)->engine().ProveAggregation(1, acked.front().index.log_id);
    }
    ASSERT_TRUE(proof.ok()) << proof.status().ToString();
    EXPECT_TRUE(proof->Verify((*d)->engine().address()));

    // Double recovery is a no-op: nothing left to restage or resubmit.
    auto second = (*d)->engine().Recover();
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second->restaged_roots, 0u);
    EXPECT_EQ(second->recovered_epochs, 0u);
    EXPECT_EQ(second->resubmitted_epochs, 0u);
  }
}

TEST_F(ShardedRecoveryTest, SealedButUnjournaledRootsCloseIntoFreshEpochs) {
  {
    // Life 1: batches seal into the shard logs but the process dies
    // before any epoch closes — the journal stays empty while the
    // obligation lives in the shard stores.
    auto d = Build();
    ASSERT_TRUE(d.ok());
    for (TenantId tenant = 0; tenant < 3; ++tenant) {
      ASSERT_TRUE((*d)->engine().Append(tenant, MakeBatch(4)).ok());
    }
    // No AdvanceBlocks: crash strictly before the first epoch close.
  }
  {
    auto d = Build();
    ASSERT_TRUE(d.ok());
    auto report = (*d)->engine().Recover();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->journaled_epochs, 0u);
    EXPECT_GE(report->restaged_roots, 3u);  // One sealed batch per tenant.
    EXPECT_GE(report->recovered_epochs, 1u);
    (*d)->AdvanceBlocks(2);
    // The recovered epochs confirm and prove like normally closed ones.
    auto agg = (*d)->engine().aggregator();
    ASSERT_NE(agg, nullptr);
    EXPECT_GE(agg->epochs_closed(), 1u);
  }
}

TEST_F(ShardedRecoveryTest, RestartWithoutRecoverCatchesUpOnTicks) {
  struct Acked {
    TenantId tenant;
    EntryIndex index;
  };
  std::vector<Acked> acked;
  auto append = [&](ShardedDeployment& d, TenantId tenant) {
    auto r = d.engine().Append(tenant, MakeBatch(4));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    acked.push_back(Acked{tenant, r->front().index});
  };
  {
    // Life 1: epoch 0 closes (journaled, tx pending), then two more
    // batches seal into the shard stores without reaching any epoch.
    auto d = Build();
    ASSERT_TRUE(d.ok()) << d.status().ToString();
    append(**d, 0);
    append(**d, 1);
    (*d)->AdvanceBlocks(1);
    append(**d, 2);
    append(**d, 3);
  }
  auto d = Build();
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  // Life 2 serves before Recover(): a new seal lands behind the
  // unstaged tail of its shard, and ordinary ticks hand that tail over
  // and resend the journaled epoch the fresh chain never saw.
  append(**d, 0);
  EpochRootAggregator* agg = (*d)->engine().aggregator();
  for (int i = 0; i < 32 && (agg->epochs_unconfirmed() > 0 ||
                             agg->staged_count() > 0);
       ++i) {
    (*d)->AdvanceBlocks(1);
  }
  ASSERT_EQ(agg->epochs_unconfirmed(), 0u);
  ASSERT_EQ(agg->staged_count(), 0u);
  for (const Acked& a : acked) {
    auto proof = (*d)->engine().ProveAggregation(a.tenant, a.index.log_id);
    ASSERT_TRUE(proof.ok()) << "tenant " << a.tenant << ": "
                            << proof.status().ToString();
    PublisherClient client = (*d)->MakePublisher(a.tenant);
    auto check = client.CheckForestCommit(*proof);
    ASSERT_TRUE(check.ok()) << check.status().ToString();
    EXPECT_EQ(*check, CommitCheck::kBlockchainCommitted);
  }
  // Recover() after the ticks caught up finds nothing left to do.
  auto report = (*d)->engine().Recover();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->restaged_roots, 0u);
  EXPECT_EQ(report->recovered_epochs, 0u);
  EXPECT_EQ(report->resubmitted_epochs, 0u);
}

}  // namespace
}  // namespace wedge
