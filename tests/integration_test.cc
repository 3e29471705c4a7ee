// Cross-module integration tests: concurrent clients against one node,
// disk-backed deployment with restart recovery (and refusal of a
// leftover flat-file shard log), caller-built replicated
// and tiered stores, end-to-end flows that touch every library at once.
// Every deployment is the paper's single Offchain Node: the 1-shard
// engine with classic stage 2.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <thread>

#include "common/random.h"
#include "shard/sharded_engine.h"
#include "storage/tiered_store.h"

namespace wedge {
namespace {

ShardedDeploymentConfig ClassicConfig(uint32_t batch_size) {
  ShardedDeploymentConfig config;
  config.engine.num_shards = 1;
  config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
  config.engine.node.batch_size = batch_size;
  return config;
}

std::vector<std::unique_ptr<LogStore>> OneStore(
    std::unique_ptr<LogStore> store) {
  std::vector<std::unique_ptr<LogStore>> stores;
  stores.push_back(std::move(store));
  return stores;
}

TEST(IntegrationTest, ConcurrentPublishersGetDisjointIndices) {
  ShardedDeploymentConfig config = ClassicConfig(10);
  config.engine.node.worker_threads = 2;
  auto d = ShardedDeployment::Create(config);
  ASSERT_TRUE(d.ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;
  std::vector<std::vector<Stage1Response>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      KeyPair key = KeyPair::FromSeed(7000 + t);
      std::vector<AppendRequest> reqs;
      for (int i = 0; i < kPerThread; ++i) {
        reqs.push_back(AppendRequest::Make(
            key, i, ToBytes("t" + std::to_string(t)),
            ToBytes("v" + std::to_string(i))));
      }
      auto responses = (*d)->engine().Append(/*tenant=*/0, std::move(reqs));
      ASSERT_TRUE(responses.ok());
      results[t] = std::move(responses).value();
    });
  }
  for (auto& th : threads) th.join();

  // Every response verifies, and (log_id, offset) pairs are globally
  // unique across threads.
  std::set<std::pair<uint64_t, uint32_t>> seen;
  for (const auto& batch : results) {
    EXPECT_EQ(batch.size(), kPerThread);
    for (const auto& r : batch) {
      EXPECT_TRUE(r.Verify((*d)->engine().address()));
      EXPECT_TRUE(seen.insert({r.index.log_id, r.index.offset}).second)
          << "duplicate index assigned";
    }
  }
  EXPECT_EQ(seen.size(), kThreads * kPerThread);
  EXPECT_EQ((*d)->engine().shard(0).stats().entries_ingested,
            static_cast<uint64_t>(kThreads * kPerThread));

  // After stage 2, every single entry is blockchain-committed.
  (*d)->AdvanceBlocks(4);
  PublisherClient pub = (*d)->MakePublisher(0);
  for (const auto& batch : results) {
    for (const auto& r : batch) {
      auto check = pub.CheckBlockchainCommit(r);
      ASSERT_TRUE(check.ok());
      EXPECT_EQ(check.value(), CommitCheck::kBlockchainCommitted);
    }
  }
}

/// Acceptance: under a 10% stage-2 drop rate, every log position's trace
/// runs the full lifecycle and ends `confirmed`, timestamps are monotone
/// along each chain, and two runs at the same seed produce byte-identical
/// trace dumps (all tracer time comes from the SimClock).
TEST(IntegrationTest, TraceCoversEveryEntryUnderDropFaults) {
  auto run = [](std::string* dump) {
    ShardedDeploymentConfig config = ClassicConfig(5);
    config.engine.node.worker_threads = 2;
    config.chain.faults.drop_probability = 0.10;
    config.chain.faults.seed = 0x7EAC;
    auto made = ShardedDeployment::Create(config);
    ASSERT_TRUE(made.ok());
    auto d = std::move(made).value();
    OffchainNode& node = d->engine().shard(0);

    PublisherClient pub = d->MakePublisher(0);
    std::vector<std::pair<Bytes, Bytes>> kvs;
    for (int i = 0; i < 40; ++i) {
      kvs.emplace_back(ToBytes("k" + std::to_string(i)), ToBytes("v"));
    }
    auto responses = pub.Publish(pub.MakeRequests(kvs));
    ASSERT_TRUE(responses.ok());
    for (int i = 0; i < 128 && node.UncommittedDigests() > 0; ++i) {
      d->AdvanceBlocks(1);
    }
    ASSERT_EQ(node.UncommittedDigests(), 0u);  // Retries landed all.

    // Every entry's position has a complete lifecycle chain.
    Tracer& tracer = d->telemetry().tracer;
    std::set<uint64_t> positions;
    for (const Stage1Response& r : responses.value()) {
      positions.insert(r.index.log_id);
    }
    EXPECT_EQ(positions.size(), 8u);  // 40 entries / batch_size 5.
    for (uint64_t log_id : positions) {
      EXPECT_TRUE(tracer.ChainEndsConfirmed(log_id)) << "log " << log_id;
      auto events = tracer.EventsFor(log_id);
      ASSERT_GE(events.size(), 6u) << "log " << log_id;
      EXPECT_EQ(events.front().stage, trace_stage::kIngest);
      EXPECT_EQ(events.back().stage, trace_stage::kConfirmed);
      for (size_t i = 1; i < events.size(); ++i) {
        EXPECT_GE(events[i].at, events[i - 1].at)
            << "log " << log_id << " event " << i;
        EXPECT_GT(events[i].seq, events[i - 1].seq);
      }
    }
    *dump = tracer.ToJsonLines();
  };

  std::string first, second;
  run(&first);
  run(&second);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // Same seed -> identical traces.
}

TEST(IntegrationTest, ConcurrentReadsWhileAppending) {
  ShardedDeploymentConfig config = ClassicConfig(5);
  config.engine.node.worker_threads = 2;
  auto d = ShardedDeployment::Create(config);
  ASSERT_TRUE(d.ok());
  PublisherClient pub = (*d)->MakePublisher(0);
  std::vector<std::pair<Bytes, Bytes>> kvs;
  for (int i = 0; i < 25; ++i) {
    kvs.emplace_back(ToBytes("k" + std::to_string(i)), ToBytes("v"));
  }
  ASSERT_TRUE(pub.Publish(pub.MakeRequests(kvs)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> reads_ok{0};
  std::thread reader([&] {
    Rng rng(1);
    while (!stop.load()) {
      EntryIndex idx{rng.Uniform(5), static_cast<uint32_t>(rng.Uniform(5))};
      auto r = (*d)->engine().ReadOne(/*tenant=*/0, idx);
      if (r.ok() && r->Verify((*d)->engine().address())) {
        reads_ok.fetch_add(1);
      }
    }
  });
  // Appends continue while the reader hammers the node: three rounds,
  // and more until the reader has had a read verified, since three
  // rounds can end before the reader thread first runs. The bound keeps
  // a reader that never verifies a read failing.
  for (int round = 0; round < 3 || (reads_ok.load() == 0 && round < 1000);
       ++round) {
    std::vector<std::pair<Bytes, Bytes>> more;
    for (int i = 0; i < 10; ++i) {
      more.emplace_back(ToBytes("r" + std::to_string(round)), ToBytes("x"));
    }
    ASSERT_TRUE(pub.Publish(pub.MakeRequests(more)).ok());
  }
  stop.store(true);
  reader.join();
  EXPECT_GT(reads_ok.load(), 0);
}

TEST(IntegrationTest, FileBackedDeploymentSurvivesRestart) {
  std::string dir = std::filesystem::temp_directory_path() /
                    ("wedge_integration_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ShardedDeploymentConfig config = ClassicConfig(4);
  config.log_dir = dir;

  Hash256 committed_root;
  {
    auto d = ShardedDeployment::Create(config);
    ASSERT_TRUE(d.ok());
    PublisherClient pub = (*d)->MakePublisher(0);
    auto responses = pub.Publish(pub.MakeRequests({
        {ToBytes("persist/1"), ToBytes("one")},
        {ToBytes("persist/2"), ToBytes("two")},
        {ToBytes("persist/3"), ToBytes("three")},
        {ToBytes("persist/4"), ToBytes("four")},
    }));
    ASSERT_TRUE(responses.ok());
    committed_root = responses->front().proof.mroot;
  }

  // "Restart": a fresh node over the same log directory recovers the data
  // and serves reads whose root matches what clients already hold.
  {
    auto d = ShardedDeployment::Create(config);
    ASSERT_TRUE(d.ok());
    EXPECT_EQ((*d)->engine().shard(0).LogPositions(), 1u);
    auto read = (*d)->engine().ReadOne(/*tenant=*/0, EntryIndex{0, 1});
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->proof.mroot, committed_root);
    auto req = AppendRequest::Deserialize(read->entry);
    ASSERT_TRUE(req.ok());
    EXPECT_EQ(ToString(req->value), "two");
  }
  std::filesystem::remove_all(dir);
}

TEST(IntegrationTest, LeftoverFlatFileShardLogIsRefused) {
  // A log_dir written by a version whose shard logs were flat files
  // (shard-<i>.log). Opening an empty segment store beside one would
  // serve that shard from log id 0 again.
  std::string dir = std::filesystem::temp_directory_path() /
                    ("wedge_integration_flat_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string flat = dir + "/shard-1.log";
  const std::string bytes = "acked positions of an older daemon";
  std::ofstream(flat, std::ios::binary) << bytes;

  ShardedDeploymentConfig config;
  config.engine.num_shards = 2;
  config.log_dir = dir;
  auto d = ShardedDeployment::Create(config);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), Code::kFailedPrecondition);
  EXPECT_NE(d.status().message().find(flat), std::string::npos)
      << d.status().ToString();

  // Nothing was opened or created, not even the other shard's store, and
  // the leftover log is untouched.
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"shard-1.log"});
  std::ifstream in(flat, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}), bytes);

  // Once the old log is moved away the directory opens as segment stores.
  std::filesystem::remove(flat);
  d = ShardedDeployment::Create(config);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(std::filesystem::is_directory(dir + "/shard-0.seg"));
  EXPECT_TRUE(std::filesystem::is_directory(dir + "/shard-1.seg"));
  d->reset();
  std::filesystem::remove_all(dir);
}

TEST(IntegrationTest, ReplicatedDeploymentServesAfterIngest) {
  std::vector<std::unique_ptr<LogStore>> followers;
  followers.push_back(std::make_unique<MemoryLogStore>());
  followers.push_back(std::make_unique<MemoryLogStore>());
  auto d = ShardedDeployment::Create(
      ClassicConfig(6), /*publisher_seed=*/0xC11E,
      OneStore(std::make_unique<ReplicatedLogStore>(
          std::make_unique<MemoryLogStore>(), std::move(followers))));
  ASSERT_TRUE(d.ok());
  PublisherClient pub = (*d)->MakePublisher(0);
  std::vector<std::pair<Bytes, Bytes>> kvs;
  for (int i = 0; i < 12; ++i) {
    kvs.emplace_back(ToBytes("rep" + std::to_string(i)), ToBytes("v"));
  }
  auto responses = pub.Publish(pub.MakeRequests(kvs));
  ASSERT_TRUE(responses.ok());
  EXPECT_EQ((*d)->engine().shard(0).LogPositions(), 2u);
  auto read = (*d)->engine().ReadOne(/*tenant=*/0, EntryIndex{1, 3});
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->Verify((*d)->engine().address()));
}

TEST(IntegrationTest, TieredDeploymentServesColdReads) {
  // Keeps two positions hot; older ones spill to a 12-peer archive that
  // holds three copies of each. Declared first so it outlives the store.
  DecentralizedArchive archive(/*num_peers=*/12, /*replication_k=*/3,
                               /*seed=*/0xED6E);
  ShardedDeploymentConfig config = ClassicConfig(4);
  config.engine.node.tree_cache_capacity = 1;  // Force tree rebuilds.
  auto d = ShardedDeployment::Create(
      config, /*publisher_seed=*/0xC11E,
      OneStore(std::make_unique<TieredLogStore>(/*hot_capacity=*/2,
                                                &archive)));
  ASSERT_TRUE(d.ok());
  PublisherClient pub = (*d)->MakePublisher(0);
  std::vector<std::pair<Bytes, Bytes>> kvs;
  for (int i = 0; i < 24; ++i) {
    kvs.emplace_back(ToBytes("t" + std::to_string(i)), ToBytes("v"));
  }
  auto responses = pub.Publish(pub.MakeRequests(kvs));
  ASSERT_TRUE(responses.ok());
  EXPECT_EQ((*d)->engine().shard(0).LogPositions(), 6u);
  EXPECT_EQ(archive.LiveCopies(0), 3);
  (*d)->AdvanceBlocks(4);

  // Position 0 left the hot tier long ago; the read transparently pulls
  // it back from the archive, and the result still verifies end-to-end.
  UserClient user = (*d)->MakeUser(/*tenant=*/0, /*seed=*/5);
  auto read = user.ReadVerified(EntryIndex{0, 3}, true);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
}

TEST(IntegrationTest, MultiplePublishersShareOneBatch) {
  // Entries from different publishers interleave within one log
  // position; each publisher's stage-1 response only vouches for its own
  // leaf (§4.3: clients need not verify other operations in the batch).
  auto d = ShardedDeployment::Create(ClassicConfig(6));
  ASSERT_TRUE(d.ok());

  KeyPair p1 = KeyPair::FromSeed(801);
  KeyPair p2 = KeyPair::FromSeed(802);
  std::vector<AppendRequest> mixed;
  for (int i = 0; i < 3; ++i) {
    mixed.push_back(
        AppendRequest::Make(p1, i, ToBytes("p1"), ToBytes("a")));
    mixed.push_back(
        AppendRequest::Make(p2, i, ToBytes("p2"), ToBytes("b")));
  }
  auto responses = (*d)->engine().Append(/*tenant=*/0, std::move(mixed));
  ASSERT_TRUE(responses.ok());
  ASSERT_EQ(responses->size(), 6u);
  // All share one position/root, each entry attributable to its signer.
  for (size_t i = 0; i < responses->size(); ++i) {
    EXPECT_EQ((*responses)[i].proof.log_id, 0u);
    auto req = AppendRequest::Deserialize((*responses)[i].entry);
    ASSERT_TRUE(req.ok());
    EXPECT_EQ(req->publisher, (i % 2 == 0) ? p1.address() : p2.address());
    EXPECT_TRUE(req->VerifySignature());
  }
}

TEST(IntegrationTest, GarbageEntriesDoNotAffectHonestClients) {
  // §4.3: an Offchain Node may stuff unsigned garbage into a batch; it
  // wastes its own resources but honest clients' entries still verify.
  ShardedDeploymentConfig config = ClassicConfig(4);
  config.engine.node.verify_client_signatures = false;  // Accepts garbage.
  auto d = ShardedDeployment::Create(config);
  ASSERT_TRUE(d.ok());

  KeyPair honest = KeyPair::FromSeed(900);
  std::vector<AppendRequest> batch;
  batch.push_back(
      AppendRequest::Make(honest, 0, ToBytes("real"), ToBytes("entry")));
  for (int i = 0; i < 3; ++i) {
    AppendRequest garbage;  // Unsigned junk injected by the node.
    garbage.publisher = Address::Zero();
    garbage.sequence = i;
    garbage.key = ToBytes("junk");
    garbage.value = ToBytes("junk");
    batch.push_back(garbage);
  }
  auto responses = (*d)->engine().Append(/*tenant=*/0, std::move(batch));
  ASSERT_TRUE(responses.ok());
  (*d)->AdvanceBlocks(4);

  // The honest client's entry stage-1-verifies and blockchain-commits.
  const Stage1Response& mine = responses->front();
  EXPECT_TRUE(mine.Verify((*d)->engine().address()));
  auto check = (*d)->MakePublisher(0).CheckBlockchainCommit(mine);
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value(), CommitCheck::kBlockchainCommitted);
  // The garbage entries are identifiable as unsigned.
  auto junk = AppendRequest::Deserialize((*responses)[1].entry);
  ASSERT_TRUE(junk.ok());
  EXPECT_FALSE(junk->VerifySignature());
}

TEST(IntegrationTest, CallerBuiltStoresMatchTheShardsAndExcludeLogDir) {
  // Stores and log_dir both name the shards' backing: refuse the pair
  // before anything is opened under the directory.
  ShardedDeploymentConfig config = ClassicConfig(4);
  config.log_dir = std::filesystem::temp_directory_path() /
                   ("wedge_integration_both_" + std::to_string(::getpid()));
  auto both = ShardedDeployment::Create(
      config, /*publisher_seed=*/0xC11E,
      OneStore(std::make_unique<MemoryLogStore>()));
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), Code::kInvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(config.log_dir));

  // One store per shard, no more and no fewer.
  std::vector<std::unique_ptr<LogStore>> two;
  two.push_back(std::make_unique<MemoryLogStore>());
  two.push_back(std::make_unique<MemoryLogStore>());
  auto too_many = ShardedDeployment::Create(
      ClassicConfig(4), /*publisher_seed=*/0xC11E, std::move(two));
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), Code::kInvalidArgument);

  ShardedDeploymentConfig forest;
  forest.engine.num_shards = 2;
  auto too_few = ShardedDeployment::Create(
      forest, /*publisher_seed=*/0xC11E,
      OneStore(std::make_unique<MemoryLogStore>()));
  ASSERT_FALSE(too_few.ok());
  EXPECT_EQ(too_few.status().code(), Code::kInvalidArgument);
}

}  // namespace
}  // namespace wedge
