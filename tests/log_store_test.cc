#include "storage/log_store.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "common/random.h"
#include "merkle/merkle_tree.h"
#include "storage/segstore/segment_store.h"

namespace wedge {
namespace {

LogPosition MakePosition(uint64_t id, size_t entries, uint64_t seed = 7) {
  Rng rng(seed + id);
  LogPosition pos;
  pos.log_id = id;
  for (size_t i = 0; i < entries; ++i) {
    pos.data_list.push_back(rng.NextBytes(40));
  }
  pos.mroot = MerkleTree::Build(pos.data_list)->Root();
  return pos;
}

std::string TempPath(const char* tag) {
  return std::filesystem::temp_directory_path() /
         (std::string("wedge_log_test_") + tag + "_" +
          std::to_string(::getpid()));
}

// Coverage via a parameterized fixture over all store kinds.
enum class StoreKind { kMemory, kSegment, kReplicated };

class LogStoreTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override {
    switch (GetParam()) {
      case StoreKind::kMemory:
        store_ = std::make_unique<MemoryLogStore>();
        break;
      case StoreKind::kSegment: {
        path_ = TempPath("param");
        std::filesystem::remove_all(path_);
        auto opened = SegmentLogStore::Open(path_, SegmentLogStore::Options());
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        store_ = std::move(opened).value();
        break;
      }
      case StoreKind::kReplicated: {
        std::vector<std::unique_ptr<LogStore>> followers;
        followers.push_back(std::make_unique<MemoryLogStore>());
        followers.push_back(std::make_unique<MemoryLogStore>());
        store_ = std::make_unique<ReplicatedLogStore>(
            std::make_unique<MemoryLogStore>(), std::move(followers));
        break;
      }
    }
  }

  void TearDown() override {
    store_.reset();
    if (!path_.empty()) std::filesystem::remove_all(path_);
  }

  std::unique_ptr<LogStore> store_;
  std::string path_;
};

TEST_P(LogStoreTest, AppendAndGet) {
  EXPECT_EQ(store_->Size(), 0u);
  LogPosition pos = MakePosition(0, 4);
  ASSERT_TRUE(store_->Append(pos).ok());
  EXPECT_EQ(store_->Size(), 1u);
  auto got = store_->Get(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->data_list, pos.data_list);
  EXPECT_EQ(got->mroot, pos.mroot);
  EXPECT_FALSE(store_->Get(1).ok());
}

TEST_P(LogStoreTest, EnforcesConsecutiveIds) {
  EXPECT_FALSE(store_->Append(MakePosition(5, 2)).ok());
  ASSERT_TRUE(store_->Append(MakePosition(0, 2)).ok());
  EXPECT_FALSE(store_->Append(MakePosition(0, 2)).ok());  // Duplicate.
  EXPECT_FALSE(store_->Append(MakePosition(2, 2)).ok());  // Gap.
  ASSERT_TRUE(store_->Append(MakePosition(1, 2)).ok());
}

TEST_P(LogStoreTest, GetEntryAddressing) {
  ASSERT_TRUE(store_->Append(MakePosition(0, 3)).ok());
  ASSERT_TRUE(store_->Append(MakePosition(1, 3)).ok());
  auto pos1 = store_->Get(1);
  ASSERT_TRUE(pos1.ok());
  auto entry = store_->GetEntry(EntryIndex{1, 2});
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry.value(), pos1->data_list[2]);
  EXPECT_FALSE(store_->GetEntry(EntryIndex{1, 3}).ok());  // Offset OOB.
  EXPECT_FALSE(store_->GetEntry(EntryIndex{2, 0}).ok());  // Position OOB.
}

TEST_P(LogStoreTest, ScanVisitsRangeInOrder) {
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(store_->Append(MakePosition(i, 2)).ok());
  }
  std::vector<uint64_t> seen;
  ASSERT_TRUE(store_
                  ->Scan(1, 3,
                         [&](const LogPosition& p) {
                           seen.push_back(p.log_id);
                           return true;
                         })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2, 3}));

  // Early stop.
  seen.clear();
  ASSERT_TRUE(store_
                  ->Scan(0, 4,
                         [&](const LogPosition& p) {
                           seen.push_back(p.log_id);
                           return p.log_id < 2;
                         })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{0, 1, 2}));

  EXPECT_FALSE(store_->Scan(3, 7, [](const LogPosition&) { return true; }).ok());
  EXPECT_FALSE(store_->Scan(3, 1, [](const LogPosition&) { return true; }).ok());
}

INSTANTIATE_TEST_SUITE_P(AllStores, LogStoreTest,
                         ::testing::Values(StoreKind::kMemory,
                                           StoreKind::kSegment,
                                           StoreKind::kReplicated));

TEST(ReplicatedLogStoreTest, FollowersReceiveEveryAppend) {
  auto follower1 = std::make_unique<MemoryLogStore>();
  auto follower2 = std::make_unique<MemoryLogStore>();
  MemoryLogStore* f1 = follower1.get();
  MemoryLogStore* f2 = follower2.get();
  std::vector<std::unique_ptr<LogStore>> followers;
  followers.push_back(std::move(follower1));
  followers.push_back(std::move(follower2));
  ReplicatedLogStore store(std::make_unique<MemoryLogStore>(),
                           std::move(followers));
  EXPECT_EQ(store.follower_count(), 2u);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.Append(MakePosition(i, 2)).ok());
  }
  EXPECT_EQ(store.Size(), 4u);
  EXPECT_EQ(f1->Size(), 4u);
  EXPECT_EQ(f2->Size(), 4u);
  EXPECT_EQ(f1->Get(2)->mroot, store.Get(2)->mroot);
}

}  // namespace
}  // namespace wedge
