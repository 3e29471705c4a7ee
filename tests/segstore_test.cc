// Invariant tests for the segmented storage engine
// (storage/segstore/): WAL torn-tail truncation, crash windows inside
// the seal-by-rename sequence, double-recovery idempotence, renamed
// segments byte-identical to WriteSegmentFile, seal telemetry,
// group-commit visibility, per-entry reads equal to whole-position reads
// and bounded by their record when damaged, refusal of the version-1
// layout, tenant GC preserving live entries byte-identically with
// every proof still verifying, and a full device (a typed IoError, no
// acked-then-lost window).

#include "storage/segstore/segment_store.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "common/random.h"
#include "core/data_model.h"
#include "core/rpc_codec.h"
#include "merkle/merkle_tree.h"
#include "shard/sharded_engine.h"

namespace wedge {
namespace {

/// A fresh directory for one test, named by `tag` and the process id,
/// and removed with everything in it when the guard leaves scope.
struct TempDir {
  explicit TempDir(const char* tag)
      : path(std::filesystem::temp_directory_path() /
             (std::string("wedge_segstore_") + tag + "_" +
              std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string path;
};

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

/// A position of `entries` 40-byte entries whose first 8 bytes name
/// `tenant`, the owner EntryOwnerTenant reads, so compaction can retire
/// it without signing anything.
LogPosition MakeTenantPosition(uint64_t id, uint64_t tenant,
                               size_t entries = 2) {
  Rng rng(id);
  LogPosition pos;
  pos.log_id = id;
  for (size_t i = 0; i < entries; ++i) {
    Bytes entry;
    PutU64(entry, tenant);
    Append(entry, rng.NextBytes(32));
    pos.data_list.push_back(std::move(entry));
  }
  pos.mroot = MerkleTree::Build(pos.data_list)->Root();
  return pos;
}

/// A position whose every entry is a serialized AppendRequest signed by
/// `publisher` — the shape OffchainNode stores, and the only shape the
/// GC owner attribution recognizes.
LogPosition MakeOwnedPosition(uint64_t id, const KeyPair& publisher,
                              uint64_t* seq, size_t entries = 3) {
  LogPosition pos;
  pos.log_id = id;
  for (size_t i = 0; i < entries; ++i) {
    AppendRequest req =
        AppendRequest::Make(publisher, (*seq)++, ToBytes("k"),
                            ToBytes("value-" + std::to_string(id)));
    pos.data_list.push_back(req.Serialize());
  }
  pos.mroot = MerkleTree::Build(pos.data_list)->Root();
  return pos;
}

SegmentLogStore::Options SmallSegments(uint32_t positions = 4) {
  SegmentLogStore::Options options;
  options.segment_positions = positions;
  return options;
}

std::unique_ptr<SegmentLogStore> OpenOrDie(const std::string& dir,
                                           const SegmentLogStore::Options& o) {
  auto store = SegmentLogStore::Open(dir, o);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return store.ok() ? std::move(store).value() : nullptr;
}

Bytes ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const Bytes& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

TEST(SegmentStoreTest, AppendGetScanAcrossSealBoundaries) {
  const TempDir dir_guard("basic");
  const std::string& dir = dir_guard.path;
  auto store = OpenOrDie(dir, SmallSegments());
  for (uint64_t i = 0; i < 11; ++i) {
    ASSERT_TRUE(store->Append(MakePosition(i, 3)).ok());
  }
  // 11 positions at 4/segment: two sealed segments + a 3-position WAL.
  EXPECT_EQ(store->Size(), 11u);
  EXPECT_EQ(store->SegmentCount(), 2u);
  for (uint64_t i = 0; i < 11; ++i) {
    auto got = store->Get(i);
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    LogPosition want = MakePosition(i, 3);
    EXPECT_EQ(got->data_list, want.data_list);
    EXPECT_EQ(got->mroot, want.mroot);
    EXPECT_EQ(store->GetRoot(i).value(), want.mroot);
    EXPECT_EQ(store->GetEntryCount(i).value(), 3u);
  }
  auto entry = store->GetEntry(EntryIndex{5, 2});
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry.value(), MakePosition(5, 3).data_list[2]);

  std::vector<uint64_t> seen;
  ASSERT_TRUE(store
                  ->Scan(2, 9,
                         [&](const LogPosition& p) {
                           seen.push_back(p.log_id);
                           return true;
                         })
                  .ok());
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(seen.front(), 2u);
  EXPECT_EQ(seen.back(), 9u);

  EXPECT_FALSE(store->Get(11).ok());
  EXPECT_FALSE(store->Append(MakePosition(13, 2)).ok());  // Gap.
}

TEST(SegmentStoreTest, ReopenRecoversSegmentsAndWalTail) {
  const TempDir dir_guard("reopen");
  const std::string& dir = dir_guard.path;
  {
    auto store = OpenOrDie(dir, SmallSegments());
    for (uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(store->Append(MakePosition(i, 2)).ok());
    }
  }
  auto reopened = OpenOrDie(dir, SmallSegments());
  const auto& info = reopened->recovery();
  EXPECT_EQ(info.segments, 2u);
  EXPECT_EQ(info.sealed_positions, 8u);
  EXPECT_EQ(info.wal_positions, 2u);
  EXPECT_EQ(info.wal_truncated_bytes, 0u);
  EXPECT_EQ(reopened->Size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(reopened->Get(i)->mroot, MakePosition(i, 2).mroot) << i;
  }
  // The recovered store keeps appending where it left off.
  ASSERT_TRUE(reopened->Append(MakePosition(10, 2)).ok());
  EXPECT_EQ(reopened->Size(), 11u);
}

TEST(SegmentStoreTest, TruncatesTornWalTail) {
  const TempDir dir_guard("torn");
  const std::string& dir = dir_guard.path;
  {
    auto store = OpenOrDie(dir, SmallSegments(/*positions=*/64));
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(store->Append(MakePosition(i, 2)).ok());
    }
  }
  std::string wal = dir + "/wal.log";
  auto size = std::filesystem::file_size(wal);
  std::filesystem::resize_file(wal, size - 10);

  auto reopened = OpenOrDie(dir, SmallSegments(/*positions=*/64));
  EXPECT_EQ(reopened->Size(), 4u);  // Torn record 4 dropped.
  EXPECT_GT(reopened->recovery().wal_truncated_bytes, 0u);
  // The tail is reusable: a replacement append for id 4 lands and a
  // fresh replay sees no remnant of the torn record.
  LogPosition replacement = MakePosition(4, 2, /*seed=*/99);
  ASSERT_TRUE(reopened->Append(replacement).ok());
  reopened.reset();
  auto final_store = OpenOrDie(dir, SmallSegments(/*positions=*/64));
  EXPECT_EQ(final_store->Size(), 5u);
  EXPECT_EQ(final_store->Get(4)->data_list, replacement.data_list);
  EXPECT_EQ(final_store->recovery().wal_truncated_bytes, 0u);
}

TEST(SegmentStoreTest, AckedAppendsReplayWhileTheStoreIsOpen) {
  // An ack means the record is past the store's buffers (and on disk with
  // group commit): a copy of the directory taken while the store is still
  // open, without a seal or a close, replays every acked position.
  for (auto durability : {SegmentLogStore::Durability::kGroupCommit,
                          SegmentLogStore::Durability::kNone}) {
    const TempDir dir_guard("acked_open");
    const TempDir copy_guard("acked_open_copy");
    SegmentLogStore::Options options = SmallSegments(/*positions=*/64);
    options.durability = durability;
    auto store = OpenOrDie(dir_guard.path, options);
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(store->Append(MakePosition(i, 2)).ok());
    }
    std::filesystem::copy(dir_guard.path, copy_guard.path,
                          std::filesystem::copy_options::recursive);
    auto replay = OpenOrDie(copy_guard.path, options);
    EXPECT_EQ(replay->Size(), 3u);
    EXPECT_EQ(replay->Get(2)->mroot, MakePosition(2, 2).mroot);
    EXPECT_EQ(replay->recovery().wal_truncated_bytes, 0u);
  }
}

TEST(SegmentStoreTest, CorruptWalRecordEndsTheReplay) {
  const TempDir dir_guard("corrupt_wal");
  const std::string& dir = dir_guard.path;
  {
    auto store = OpenOrDie(dir, SmallSegments(/*positions=*/64));
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(store->Append(MakePosition(i, 2)).ok());
    }
  }
  // Flip a byte in the middle of the second record: its checksum fails,
  // so replay keeps the first record and drops everything from there.
  const std::string wal = dir + "/wal.log";
  Bytes bytes = ReadFile(wal);
  bytes[bytes.size() / 2] ^= 0xFF;
  WriteFile(wal, bytes);

  auto reopened = OpenOrDie(dir, SmallSegments(/*positions=*/64));
  EXPECT_EQ(reopened->Size(), 1u);
  EXPECT_EQ(reopened->Get(0)->mroot, MakePosition(0, 2).mroot);
  EXPECT_GT(reopened->recovery().wal_truncated_bytes, 0u);
}

/// Appends ids 0..3 to a 4-position store that crashes at `point` inside
/// the seal the 4th append triggers.
void CrashInsideSeal(const std::string& dir,
                     SegmentLogStore::CrashPoint point) {
  SegmentLogStore::Options options = SmallSegments();
  options.crash_point = point;
  auto store = OpenOrDie(dir, options);
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(store->Append(MakePosition(i, 2)).ok());
  }
  // The simulated crash poisons the store the way a dead process stops
  // answering, so the append that crossed the threshold is not acked.
  EXPECT_FALSE(store->Append(MakePosition(3, 2)).ok());
}

TEST(SegmentStoreTest, CrashAfterTailSyncReplaysTheWal) {
  const TempDir dir_guard("crash_tail");
  const std::string& dir = dir_guard.path;
  CrashInsideSeal(dir, SegmentLogStore::CrashPoint::kSealAfterTailSync);
  // Footer and trailer are durable at the end of wal.log, never renamed.
  EXPECT_FALSE(std::filesystem::exists(dir + "/seg-000000.seg"));
  const uint64_t crashed_wal = std::filesystem::file_size(dir + "/wal.log");

  auto reopened = OpenOrDie(dir, SmallSegments());
  const auto& info = reopened->recovery();
  EXPECT_EQ(info.segments, 0u);
  EXPECT_EQ(info.wal_positions, 4u);  // Every position replayed.
  // The tail is not a frame: replay drops it like any torn tail.
  EXPECT_GT(info.wal_truncated_bytes, kSegmentTrailerBytes);
  EXPECT_EQ(std::filesystem::file_size(dir + "/wal.log"),
            crashed_wal - info.wal_truncated_bytes);
  EXPECT_EQ(reopened->Size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(reopened->Get(i)->mroot, MakePosition(i, 2).mroot) << i;
  }
  // The next append seals a valid segment over all five positions.
  ASSERT_TRUE(reopened->Append(MakePosition(4, 2)).ok());
  EXPECT_EQ(reopened->SegmentCount(), 1u);
  reopened.reset();
  auto sealed = OpenOrDie(dir, SmallSegments());
  EXPECT_EQ(sealed->recovery().segments, 1u);
  EXPECT_EQ(sealed->recovery().sealed_positions, 5u);
  EXPECT_EQ(sealed->recovery().wal_positions, 0u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sealed->Get(i)->data_list, MakePosition(i, 2).data_list) << i;
  }
}

TEST(SegmentStoreTest, CrashAfterRenameLeavesASegmentAndAnEmptyWal) {
  const TempDir dir_guard("crash_rename");
  const std::string& dir = dir_guard.path;
  CrashInsideSeal(dir, SegmentLogStore::CrashPoint::kSealAfterRename);
  // The WAL became the segment; its successor was never created.
  EXPECT_TRUE(std::filesystem::exists(dir + "/seg-000000.seg"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/wal.log"));

  auto reopened = OpenOrDie(dir, SmallSegments());
  const auto& info = reopened->recovery();
  EXPECT_EQ(info.segments, 1u);
  EXPECT_EQ(info.sealed_positions, 4u);
  EXPECT_EQ(info.wal_positions, 0u);
  EXPECT_EQ(info.wal_truncated_bytes, 0u);
  EXPECT_EQ(std::filesystem::file_size(dir + "/wal.log"), 0u);
  EXPECT_EQ(reopened->Size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(reopened->Get(i)->mroot, MakePosition(i, 2).mroot) << i;
  }
  ASSERT_TRUE(reopened->Append(MakePosition(4, 2)).ok());
  EXPECT_EQ(reopened->Size(), 5u);
  EXPECT_EQ(reopened->Get(4)->mroot, MakePosition(4, 2).mroot);
}

TEST(SegmentStoreTest, DoubleRecoveryIsIdempotent) {
  for (auto point : {SegmentLogStore::CrashPoint::kSealAfterTailSync,
                     SegmentLogStore::CrashPoint::kSealAfterRename}) {
    SCOPED_TRACE(static_cast<int>(point));
    const TempDir dir_guard("double");
    const std::string& dir = dir_guard.path;
    CrashInsideSeal(dir, point);
    // The first recovery repairs (drops the unrenamed tail, or creates
    // the missing WAL); the second finds nothing to repair.
    uint64_t first_segments = 0;
    {
      auto first = OpenOrDie(dir, SmallSegments());
      first_segments = first->recovery().segments;
    }
    auto second = OpenOrDie(dir, SmallSegments());
    const auto& info = second->recovery();
    EXPECT_EQ(info.segments, first_segments);
    EXPECT_EQ(info.wal_truncated_bytes, 0u);
    EXPECT_EQ(info.tmp_files_removed, 0u);
    EXPECT_EQ(second->Size(), 4u);
    for (uint64_t i = 0; i < 4; ++i) {
      EXPECT_EQ(second->Get(i)->mroot, MakePosition(i, 2).mroot) << i;
    }
  }
}

/// A kind-0 payload in the version-1 layout: the kind byte, the log id,
/// the entry count, each entry behind its own length prefix, the root.
Bytes Version1Payload(const LogPosition& pos) {
  Bytes payload{kRecordPosition};
  PutU64(payload, pos.log_id);
  PutU32(payload, static_cast<uint32_t>(pos.data_list.size()));
  for (const SharedBytes& entry : pos.data_list) PutBytes(payload, entry);
  Append(payload, HashToBytes(pos.mroot));
  return payload;
}

/// The segment WriteSegmentFile writes for `positions`, read back.
Bytes WrittenSegment(const std::string& path, uint64_t base_id,
                     const std::vector<LogPosition>& positions) {
  std::vector<Bytes> payloads;
  std::vector<SegmentIndexEntry> entries;
  for (const LogPosition& pos : positions) {
    payloads.push_back(EncodePositionPayload(pos));
    SegmentIndexEntry e;
    e.owner = PositionOwnerTenant(pos);
    e.entry_count = static_cast<uint32_t>(pos.data_list.size());
    e.mroot = pos.mroot;
    entries.push_back(e);
  }
  EXPECT_TRUE(WriteSegmentFile(path, base_id, payloads, &entries).ok());
  return ReadFile(path);
}

TEST(SegmentStoreTest, RenamedSegmentsMatchWriteSegmentFileByteForByte) {
  const TempDir dir_guard("bytes");
  const std::string& dir = dir_guard.path;
  KeyPair pub_a = KeyPair::FromSeed(0xA);
  KeyPair pub_b = KeyPair::FromSeed(0xB);
  uint64_t seq_a = 0, seq_b = 0;
  // Owned runs give the footer tenant extents; anonymous positions are
  // mixed-owner rows between them.
  std::vector<LogPosition> positions;
  for (uint64_t i = 0; i < 10; ++i) {
    positions.push_back(i % 3 == 2 ? MakePosition(i, 1 + i % 4)
                        : i < 5    ? MakeOwnedPosition(i, pub_a, &seq_a)
                                   : MakeOwnedPosition(i, pub_b, &seq_b));
  }
  {
    auto store = OpenOrDie(dir, SmallSegments(/*positions=*/64));
    for (uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(store->Append(positions[i]).ok());
    }
  }
  // Tear record 4. The reopened WAL must keep its offsets dense, so the
  // replacement and later records land where a fresh file puts them.
  std::filesystem::resize_file(
      dir + "/wal.log", std::filesystem::file_size(dir + "/wal.log") - 10);
  auto store = OpenOrDie(dir, SmallSegments(/*positions=*/64));
  ASSERT_GT(store->recovery().wal_truncated_bytes, 0u);
  ASSERT_EQ(store->Size(), 4u);
  for (uint64_t i = 4; i < 7; ++i) {
    ASSERT_TRUE(store->Append(positions[i]).ok());
  }
  ASSERT_TRUE(store->SealNow().ok());
  for (uint64_t i = 7; i < 10; ++i) {
    ASSERT_TRUE(store->Append(positions[i]).ok());
  }
  ASSERT_TRUE(store->SealNow().ok());
  ASSERT_EQ(store->SegmentCount(), 2u);

  const std::vector<LogPosition> first(positions.begin(),
                                       positions.begin() + 7);
  const std::vector<LogPosition> second(positions.begin() + 7,
                                        positions.end());
  EXPECT_EQ(ReadFile(dir + "/seg-000000.seg"),
            WrittenSegment(dir + "/want-0", 0, first));
  EXPECT_EQ(ReadFile(dir + "/seg-000001.seg"),
            WrittenSegment(dir + "/want-1", 7, second));
  // The store serves the renamed segments from its in-memory index and,
  // after a reopen, from the footer it wrote.
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(store->Get(i)->data_list, positions[i].data_list) << i;
  }
  store.reset();
  auto reopened = OpenOrDie(dir, SmallSegments(/*positions=*/64));
  EXPECT_EQ(reopened->recovery().segments, 2u);
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(reopened->Get(i)->data_list, positions[i].data_list) << i;
    EXPECT_EQ(reopened->GetRoot(i).value(), positions[i].mroot) << i;
  }
}

TEST(SegmentStoreTest, RejectsASegmentItsTrailerDoesNotCover) {
  const TempDir dir_guard("trailer_size");
  const std::string& dir = dir_guard.path;
  {
    auto store = OpenOrDie(dir, SmallSegments());
    for (uint64_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(store->Append(MakePosition(i, 2)).ok());
    }
  }
  // Stray bytes between the footer and the trailer: the trailer still
  // ends the file, but no longer accounts for every byte of it.
  const std::string seg = dir + "/seg-000000.seg";
  Bytes bytes = ReadFile(seg);
  bytes.insert(bytes.end() - kSegmentTrailerBytes, 8, 0);
  WriteFile(seg, bytes);
  auto reopened = SegmentLogStore::Open(dir, SmallSegments());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), Code::kCorruption);
}

TEST(SegmentStoreTest, RefusesAVersion1Segment) {
  const TempDir dir_guard("v1_segment");
  const std::string& dir = dir_guard.path;
  std::filesystem::create_directories(dir);
  std::vector<Bytes> payloads;
  std::vector<SegmentIndexEntry> entries;
  for (uint64_t i = 0; i < 3; ++i) {
    const LogPosition pos = MakePosition(i, 3);
    payloads.push_back(Version1Payload(pos));
    SegmentIndexEntry e;
    e.entry_count = 3;
    e.mroot = pos.mroot;
    entries.push_back(e);
  }
  const std::string seg = dir + "/seg-000000.seg";
  ASSERT_TRUE(WriteSegmentFile(seg, 0, payloads, &entries).ok());
  // Version 1 wrote the same footer and trailer, with version 1 in the
  // trailer's [4B magic][u32 version] prefix.
  Bytes bytes = ReadFile(seg);
  bytes[bytes.size() - kSegmentTrailerBytes + 7] = 1;
  WriteFile(seg, bytes);

  auto store = SegmentLogStore::Open(dir, SmallSegments());
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), Code::kCorruption);
  EXPECT_EQ(ReadFile(seg), bytes);
}

TEST(SegmentStoreTest, RefusesAVersion1WalAndLeavesItByteIdentical) {
  const TempDir dir_guard("v1_wal");
  const std::string& dir = dir_guard.path;
  std::filesystem::create_directories(dir);
  // Intact, acked frames whose payloads do not decode: replay must not
  // take them for a torn tail and truncate them.
  Bytes wal;
  for (uint64_t i = 0; i < 3; ++i) {
    AppendFrame(wal, Version1Payload(MakePosition(i, 3)));
  }
  const std::string path = dir + "/wal.log";
  WriteFile(path, wal);

  auto store = SegmentLogStore::Open(dir, SmallSegments());
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), Code::kCorruption);
  EXPECT_EQ(ReadFile(path), wal);
}

TEST(SegmentStoreTest, GetEntryMatchesGetInEveryResidence) {
  const TempDir dir_guard("get_entry");
  const std::string& dir = dir_guard.path;
  MetricsRegistry metrics;
  SegmentLogStore::Options options = SmallSegments(/*positions=*/64);
  options.metrics = &metrics;
  // Position 0 is tenant 5's, retired below so compaction rewrites the
  // segment; 1 and 2 are mixed-owner and survive it byte-identically.
  // Together they read a zero-length entry first, last and in between.
  constexpr uint64_t kRetired = 5;
  std::vector<LogPosition> positions = {MakeTenantPosition(0, kRetired),
                                        MakePosition(1, 5),
                                        MakePosition(2, 3)};
  positions[1].data_list[2] = Bytes{};
  positions[2].data_list.front() = Bytes{};
  positions[2].data_list.back() = Bytes{};
  for (LogPosition& pos : positions) {
    pos.mroot = MerkleTree::Build(pos.data_list)->Root();
  }

  uint64_t reads = 0;
  auto expect_entries_match = [&](const SegmentLogStore& store) {
    for (uint64_t id = 1; id < 3; ++id) {
      const std::vector<SharedBytes>& want = positions[id].data_list;
      // Entries first, so a reopened store loads its footer for them.
      for (uint32_t i = 0; i < want.size(); ++i) {
        auto entry = store.GetEntry(EntryIndex{id, i});
        ASSERT_TRUE(entry.ok()) << id << ":" << i << " "
                                << entry.status().ToString();
        EXPECT_EQ(entry->get(), want[i].get()) << id << ":" << i;
      }
      auto whole = store.Get(id);
      ASSERT_TRUE(whole.ok()) << whole.status().ToString();
      EXPECT_EQ(whole->data_list, want);
      const uint32_t count = static_cast<uint32_t>(want.size());
      EXPECT_EQ(store.GetEntry(EntryIndex{id, count}).status().code(),
                Code::kNotFound);
      reads += want.size() + 1;
    }
    EXPECT_EQ(store.GetEntry(EntryIndex{3, 0}).status().code(),
              Code::kNotFound);
    ++reads;
  };

  auto store = OpenOrDie(dir, options);
  for (const LogPosition& pos : positions) {
    ASSERT_TRUE(store->Append(pos).ok());
  }
  {
    SCOPED_TRACE("WAL-resident");
    expect_entries_match(*store);
  }
  ASSERT_TRUE(store->SealNow().ok());
  {
    SCOPED_TRACE("freshly sealed");
    expect_entries_match(*store);
  }
  store.reset();
  store = OpenOrDie(dir, options);
  {
    SCOPED_TRACE("reopened");
    expect_entries_match(*store);
  }
  ASSERT_TRUE(store->RetireTenant(kRetired).ok());
  auto stats = store->Compact();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->segments_rewritten, 1u);
  {
    SCOPED_TRACE("compacted");
    expect_entries_match(*store);
  }
  EXPECT_EQ(store->GetEntry(EntryIndex{0, 0}).status().code(),
            Code::kNotFound);
  ++reads;

  // Every GetEntry is timed, whatever it returned.
  const MetricsSnapshot snap = metrics.Snapshot();
  const HistogramSnapshot* read_us = snap.FindHistogram("wedge.store.read_us");
  ASSERT_NE(read_us, nullptr);
  EXPECT_EQ(read_us->count, reads);
}

TEST(SegmentStoreTest, DamagedEndOffsetsNeverReadOutsideTheRecord) {
  const TempDir dir_guard("end_offsets");
  const std::string& dir = dir_guard.path;
  const LogPosition pos = MakePosition(0, 4);
  {
    auto store = OpenOrDie(dir, SmallSegments());
    ASSERT_TRUE(store->Append(pos).ok());
    ASSERT_TRUE(store->SealNow().ok());
  }
  const std::string seg = dir + "/seg-000000.seg";
  const Bytes original = ReadFile(seg);
  // The record sits at offset 0: [u32 payload_len][u8 kind][u64 log_id]
  // [u32 count], then the end-offset table, then four 40-byte entries.
  constexpr size_t kTableAt = 4 + 1 + 8 + 4;
  const auto entries_begin = original.begin() + kTableAt + 4 * 4;
  const auto entries_end = entries_begin + 4 * 40;
  // Damage end[1], the bound between entries 1 and 2: high bits push it
  // past the record, low bits move it inside.
  for (size_t byte = 0; byte < 4; ++byte) {
    for (uint8_t mask : {0x01, 0x80, 0xFF}) {
      SCOPED_TRACE("byte " + std::to_string(byte) + " mask " +
                   std::to_string(mask));
      Bytes damaged = original;
      damaged[kTableAt + 4 + byte] ^= mask;
      WriteFile(seg, damaged);
      auto store = OpenOrDie(dir, SmallSegments());
      EXPECT_EQ(store->Get(0).status().code(), Code::kCorruption);
      for (uint32_t i : {1u, 2u}) {
        auto entry = store->GetEntry(EntryIndex{0, i});
        if (!entry.ok()) {
          EXPECT_EQ(entry.status().code(), Code::kCorruption) << i;
          continue;
        }
        // Wrong bytes, for the node's leaf check to reject, but read
        // from inside the record's entries.
        EXPECT_NE(entry->get(), pos.data_list[i].get()) << i;
        EXPECT_NE(std::search(entries_begin, entries_end,
                              entry->get().begin(), entry->get().end()),
                  entries_end)
            << i;
      }
      EXPECT_EQ(store->GetEntry(EntryIndex{0, 0})->get(),
                pos.data_list[0].get());
      EXPECT_EQ(store->GetEntry(EntryIndex{0, 3})->get(),
                pos.data_list[3].get());
    }
  }
}

TEST(SegmentStoreTest, SealTelemetryTimesEverySealAndDrainsTheWalGauge) {
  const TempDir dir_guard("seal_metrics");
  const std::string& dir = dir_guard.path;
  MetricsRegistry metrics;
  SegmentLogStore::Options options = SmallSegments();
  options.metrics = &metrics;
  auto store = OpenOrDie(dir, options);
  auto wal_gauge = [&metrics] {
    for (const auto& [name, value] : metrics.Snapshot().gauges) {
      if (name == "wedge.store.wal_bytes") return value;
    }
    return int64_t{-1};
  };
  EXPECT_EQ(wal_gauge(), 0);
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(store->Append(MakePosition(i, 2)).ok());
  }
  // Two threshold seals; the gauge holds the 2-position WAL tail.
  EXPECT_EQ(wal_gauge(),
            static_cast<int64_t>(std::filesystem::file_size(dir + "/wal.log")));
  EXPECT_GT(wal_gauge(), 0);
  ASSERT_TRUE(store->SealNow().ok());
  ASSERT_TRUE(store->SealNow().ok());  // Empty WAL: no seal, no sample.
  EXPECT_EQ(wal_gauge(), 0);

  MetricsSnapshot snap = metrics.Snapshot();
  const HistogramSnapshot* seal_us = snap.FindHistogram("wedge.store.seal_us");
  ASSERT_NE(seal_us, nullptr);
  EXPECT_EQ(snap.CounterValue("wedge.store.seals"), 3u);
  EXPECT_EQ(seal_us->count, snap.CounterValue("wedge.store.seals"));
}

TEST(SegmentStoreTest, PreparedButUnsyncedPositionsAreInvisible) {
  const TempDir dir_guard("visibility");
  const std::string& dir = dir_guard.path;
  auto store = OpenOrDie(dir, SmallSegments(/*positions=*/64));
  auto token = store->AppendPrepare(MakePosition(0, 2));
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  // Prepared ≠ durable: nothing downstream may see the position until
  // WaitDurable returns — a crash here must be able to revoke it.
  EXPECT_EQ(store->Size(), 0u);
  EXPECT_FALSE(store->Get(0).ok());
  ASSERT_TRUE(store->WaitDurable(*token).ok());
  EXPECT_EQ(store->Size(), 1u);
  EXPECT_TRUE(store->Get(0).ok());
}

TEST(SegmentStoreTest, GroupCommitCoalescesConcurrentAppenders) {
  const TempDir dir_guard("group");
  const std::string& dir = dir_guard.path;
  MetricsRegistry metrics;
  SegmentLogStore::Options options = SmallSegments(/*positions=*/1024);
  options.metrics = &metrics;
  auto store = OpenOrDie(dir, options);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::mutex ticket_mu;
  uint64_t next_id = 0;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t token;
        {
          // Mirrors the engine's seal ticket: prepares are serialized,
          // durability waits overlap and coalesce.
          std::lock_guard<std::mutex> lock(ticket_mu);
          auto prepared = store->AppendPrepare(MakePosition(next_id, 2));
          if (!prepared.ok()) {
            failures.fetch_add(1);
            continue;
          }
          ++next_id;
          token = *prepared;
        }
        if (!store->WaitDurable(token).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store->Size(), uint64_t{kThreads * kPerThread});

  MetricsSnapshot snap = metrics.Snapshot();
  const HistogramSnapshot* batch =
      snap.FindHistogram("wedge.store.group_commit_batch");
  ASSERT_NE(batch, nullptr);
  // Coalescing happened: fewer syncs than appends, i.e. some sync
  // covered more than one append.
  EXPECT_LT(batch->count, uint64_t{kThreads * kPerThread});
  EXPECT_GT(batch->count, 0u);
}

TEST(SegmentStoreTest, ReadsStayCorrectWhileConcurrentAppendersSeal) {
  const TempDir dir_guard("concurrent_seal");
  const std::string& dir = dir_guard.path;
  auto store = OpenOrDie(dir, SmallSegments(/*positions=*/8));
  constexpr uint64_t kPositions = 240;
  // Every third position is the retired tenant's, so a compaction pass
  // keeps swapping in rewritten segments under the readers.
  constexpr uint64_t kRetired = 1;
  auto position = [](uint64_t id) {
    return MakeTenantPosition(id, id % 3 == 0 ? kRetired : 2);
  };
  ASSERT_TRUE(store->RetireTenant(kRetired).ok());
  std::mutex ticket_mu;
  uint64_t next_id = 0;
  std::atomic<int> appenders_left{4};
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        uint64_t token;
        {
          // Prepares are serialized as under the engine's seal ticket;
          // every 8th one seals while other threads wait or read.
          std::lock_guard<std::mutex> lock(ticket_mu);
          if (next_id == kPositions) break;
          auto prepared = store->AppendPrepare(position(next_id));
          if (!prepared.ok()) {
            failures.fetch_add(1);
            break;
          }
          ++next_id;
          token = *prepared;
        }
        if (!store->WaitDurable(token).ok()) failures.fetch_add(1);
      }
      appenders_left.fetch_sub(1);
    });
  }
  std::atomic<uint64_t> rewritten{0};
  threads.emplace_back([&] {
    while (appenders_left.load() > 0) {
      auto stats = store->Compact();
      if (stats.ok()) {
        rewritten.fetch_add(stats->segments_rewritten);
      } else {
        failures.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  // A read either returns what was appended or, for a retired position
  // that compaction reached, kNotFound.
  auto bad = [](const Status& status, uint64_t id) {
    return id % 3 != 0 || status.code() != Code::kNotFound;
  };
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t n = t; !done.load(); ++n) {
        const uint64_t size = store->Size();
        if (size == 0) continue;
        const uint64_t id = (n * 7) % size;
        const LogPosition want = position(id);
        auto got = store->Get(id);
        if (got.ok() ? got->mroot != want.mroot : bad(got.status(), id)) {
          failures.fetch_add(1);
        }
        const uint32_t offset = n % 2;
        auto entry = store->GetEntry(EntryIndex{id, offset});
        if (entry.ok() ? entry->get() != want.data_list[offset].get()
                       : bad(entry.status(), id)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int t = 0; t < 5; ++t) threads[t].join();
  done.store(true);
  for (size_t t = 5; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(rewritten.load(), 0u);
  EXPECT_EQ(store->Size(), kPositions);
  EXPECT_EQ(store->SegmentCount(), kPositions / 8);
  ASSERT_TRUE(store->Compact().ok());
  for (uint64_t id = 0; id < kPositions; ++id) {
    auto entry = store->GetEntry(EntryIndex{id, 1});
    if (id % 3 == 0) {
      EXPECT_EQ(entry.status().code(), Code::kNotFound) << id;
    } else {
      ASSERT_TRUE(entry.ok()) << id << ": " << entry.status().ToString();
      EXPECT_EQ(entry->get(), position(id).data_list[1].get()) << id;
    }
  }
}

TEST(SegmentStoreTest, OwnerAttributionMatchesPublisherTenant) {
  KeyPair publisher = KeyPair::FromSeed(0xABCD);
  uint64_t seq = 0;
  LogPosition pos = MakeOwnedPosition(0, publisher, &seq);
  // The GC owner derived from raw leaf bytes must agree with the
  // admission-control identity derived from the key, or RetireTenant
  // would drop the wrong tenant's data.
  EXPECT_EQ(PositionOwnerTenant(pos), PublisherTenant(publisher.address()));
  // Mixed or unattributable positions are never GC-eligible.
  LogPosition anon = MakePosition(1, 2);
  EXPECT_EQ(PositionOwnerTenant(anon), kMixedOwnerTenant);
}

TEST(SegmentStoreTest, CompactionDropsRetiredAndPreservesLiveBytes) {
  const TempDir dir_guard("gc");
  const std::string& dir = dir_guard.path;
  KeyPair pub_a = KeyPair::FromSeed(0xA);
  KeyPair pub_b = KeyPair::FromSeed(0xB);
  uint64_t tenant_a = PublisherTenant(pub_a.address());
  uint64_t tenant_b = PublisherTenant(pub_b.address());
  uint64_t seq_a = 0, seq_b = 0;

  auto store = OpenOrDie(dir, SmallSegments(/*positions=*/2));
  // Interleave owners across three sealed segments + no WAL tail.
  std::vector<LogPosition> originals;
  for (uint64_t i = 0; i < 6; ++i) {
    LogPosition pos = i % 2 == 0 ? MakeOwnedPosition(i, pub_a, &seq_a)
                                 : MakeOwnedPosition(i, pub_b, &seq_b);
    originals.push_back(pos);
    ASSERT_TRUE(store->Append(pos).ok());
  }
  ASSERT_EQ(store->SegmentCount(), 3u);

  ASSERT_TRUE(store->RetireTenant(tenant_a).ok());
  auto stats = store->Compact();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->segments_rewritten, 3u);
  EXPECT_EQ(stats->positions_dropped, 3u);
  EXPECT_GT(stats->bytes_reclaimed, 0u);

  for (uint64_t i = 0; i < 6; ++i) {
    if (i % 2 == 0) {
      // Retired: payload gone, but the position still answers for
      // proofs — log-id density, root, and entry count survive.
      auto got = store->Get(i);
      EXPECT_FALSE(got.ok());
      EXPECT_EQ(got.status().code(), Code::kNotFound);
      EXPECT_EQ(store->GetRoot(i).value(), originals[i].mroot);
      EXPECT_EQ(store->GetEntryCount(i).value(), 3u);
    } else {
      // Live: byte-identical to what was acked.
      auto got = store->Get(i);
      ASSERT_TRUE(got.ok()) << i;
      EXPECT_EQ(got->data_list, originals[i].data_list);
      EXPECT_EQ(got->mroot, originals[i].mroot);
      // Stage-1 material still verifies: rebuilt tree root matches and
      // the leaves deserialize back to signature-valid requests.
      EXPECT_EQ(MerkleTree::Build(got->data_list)->Root(), got->mroot);
      for (const SharedBytes& leaf : got->data_list) {
        auto req = AppendRequest::Deserialize(leaf);
        ASSERT_TRUE(req.ok());
        EXPECT_TRUE(req->VerifySignature());
      }
    }
  }
  // Scan skips GC'd positions instead of failing.
  std::vector<uint64_t> seen;
  ASSERT_TRUE(store
                  ->Scan(0, 5,
                         [&](const LogPosition& p) {
                           seen.push_back(p.log_id);
                           return true;
                         })
                  .ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 3, 5}));

  // A second pass finds nothing left to reclaim.
  auto again = store->Compact();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->segments_rewritten, 0u);

  // The retired set and tombstones survive a restart.
  (void)tenant_b;
  store.reset();
  auto reopened = OpenOrDie(dir, SmallSegments(/*positions=*/2));
  EXPECT_EQ(reopened->RetiredTenants().count(tenant_a), 1u);
  EXPECT_FALSE(reopened->Get(0).ok());
  EXPECT_EQ(reopened->GetRoot(0).value(), originals[0].mroot);
  EXPECT_EQ(reopened->Get(1)->data_list, originals[1].data_list);
}

TEST(SegmentStoreTest, RejectsMixedOwnerRetirement) {
  const TempDir dir_guard("gc_mixed");
  const std::string& dir = dir_guard.path;
  auto store = OpenOrDie(dir, SmallSegments());
  EXPECT_FALSE(store->RetireTenant(kMixedOwnerTenant).ok());
}

// ---------------------------------------------------------------------
// Engine-level GC: proofs over retired neighbors keep verifying.

TEST(SegmentStoreEngineTest, CompactionKeepsLiveProofsVerifying) {
  const TempDir dir_guard("engine_gc");
  const std::string& dir = dir_guard.path;
  std::filesystem::create_directories(dir);
  KeyPair pub_a = KeyPair::FromSeed(0x1111);
  KeyPair pub_b = KeyPair::FromSeed(0x2222);
  // Wire tenant id == authenticated owner id, so the engine's routed
  // RetireTenant names the same tenant the store's GC attribution sees.
  TenantId tenant_a = PublisherTenant(pub_a.address());
  TenantId tenant_b = PublisherTenant(pub_b.address());

  ShardedDeploymentConfig config;
  config.engine.num_shards = 2;
  config.engine.node.batch_size = 4;
  config.engine.node.worker_threads = 1;
  config.log_dir = dir;
  config.store_segment_positions = 2;
  auto d = ShardedDeployment::Create(config);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  ShardedLogEngine& e = (*d)->engine();

  auto append = [&](TenantId tenant, const KeyPair& key, uint64_t* seq) {
    std::vector<AppendRequest> batch;
    for (int i = 0; i < 4; ++i) {
      batch.push_back(AppendRequest::Make(key, (*seq)++, ToBytes("k"),
                                          ToBytes("v")));
    }
    auto r = e.Append(tenant, std::move(batch));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : std::vector<Stage1Response>{};
  };

  uint64_t seq_a = 0, seq_b = 0;
  std::vector<Stage1Response> kept;
  for (int round = 0; round < 3; ++round) {
    append(tenant_a, pub_a, &seq_a);
    auto r = append(tenant_b, pub_b, &seq_b);
    ASSERT_FALSE(r.empty());
    kept.push_back(r.front());
  }
  (*d)->AdvanceBlocks(2);  // Close + mine the forest epoch.

  ASSERT_TRUE(e.RetireTenant(tenant_a).ok());
  auto reclaimed = e.CompactStorage();
  ASSERT_TRUE(reclaimed.ok()) << reclaimed.status().ToString();

  // Every live ack still reads back and passes both proof levels.
  for (const Stage1Response& r : kept) {
    auto read = e.ReadOne(tenant_b, r.index);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read->entry, r.entry);
    EXPECT_TRUE(read->Verify(e.address()));
    auto agg = e.ProveAggregation(tenant_b, r.index.log_id);
    ASSERT_TRUE(agg.ok()) << agg.status().ToString();
    PublisherClient client = (*d)->MakePublisher(tenant_b);
    EXPECT_TRUE(client.VerifyAggregation(*read, *agg));
  }
  // Retiring a tenant on memory stores is a typed precondition error.
  ShardedDeploymentConfig memory_config = config;
  memory_config.log_dir.clear();
  auto memory_d = ShardedDeployment::Create(memory_config);
  ASSERT_TRUE(memory_d.ok());
  EXPECT_EQ((*memory_d)->engine().RetireTenant(tenant_a).code(),
            Code::kFailedPrecondition);
}

// ---------------------------------------------------------------------
// A full device: typed IoError, no acked-then-lost window.

/// Lowers this process's file-size limit to `bytes` and ignores SIGXFSZ,
/// so a write past the limit fails with EFBIG the way a write to a full
/// device fails with ENOSPC; restores both when it leaves scope.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    if (::getrlimit(RLIMIT_FSIZE, &saved_) != 0) return;
    previous_handler_ = ::signal(SIGXFSZ, SIG_IGN);
    if (previous_handler_ == SIG_ERR) return;
    rlimit lowered = saved_;
    lowered.rlim_cur = bytes;
    ok_ = ::setrlimit(RLIMIT_FSIZE, &lowered) == 0;
  }
  ~FileSizeLimit() {
    if (ok_) ::setrlimit(RLIMIT_FSIZE, &saved_);
    if (previous_handler_ != SIG_ERR) ::signal(SIGXFSZ, previous_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

  bool ok() const { return ok_; }

 private:
  rlimit saved_{};
  sighandler_t previous_handler_ = SIG_ERR;
  bool ok_ = false;
};

TEST(SegmentStoreFaultTest, FullDeviceFailsTypedAndRecoversTheAckedPrefix) {
  const TempDir dir_guard("full_device");
  const std::string& dir = dir_guard.path;
  // Room for a few dozen WAL records of 4 × 40-byte entries, and below
  // the default seal threshold, so the failure lands in a WAL append.
  constexpr rlim_t kDeviceBytes = 8 << 10;
  std::vector<LogPosition> acked;
  Status failure = Status::Ok();
  {
    auto store = OpenOrDie(dir, SegmentLogStore::Options());
    ASSERT_NE(store, nullptr);
    const FileSizeLimit limit(kDeviceBytes);
    ASSERT_TRUE(limit.ok());
    for (uint64_t i = 0; i < 1000; ++i) {
      LogPosition pos = MakePosition(i, 4);
      failure = store->Append(pos);
      if (!failure.ok()) break;
      acked.push_back(std::move(pos));
    }
    // The device filled: the failing append is a typed IoError, not
    // Corruption and not a silent success.
    ASSERT_FALSE(failure.ok());
    EXPECT_EQ(failure.code(), Code::kIoError) << failure.ToString();
    ASSERT_GT(acked.size(), 0u);
    // The store poisoned itself: later appends fail typed too, and it
    // serves exactly the acked prefix.
    for (uint64_t id : {uint64_t{acked.size()}, uint64_t{acked.size() + 1}}) {
      Status again = store->Append(MakePosition(id, 4));
      EXPECT_EQ(again.code(), Code::kIoError) << again.ToString();
    }
    EXPECT_EQ(store->Size(), acked.size());
    EXPECT_FALSE(store->Get(acked.size()).ok());
    // Destroyed while the device is still full, as a crashed process
    // would leave it: nothing buffered behind the failure reaches disk.
    store.reset();
  }

  // Recovery drops the torn tail and keeps exactly the acked prefix,
  // byte for byte.
  auto reopened = OpenOrDie(dir, SegmentLogStore::Options());
  ASSERT_NE(reopened, nullptr);
  ASSERT_EQ(reopened->Size(), acked.size());
  for (uint64_t i = 0; i < acked.size(); ++i) {
    auto pos = reopened->Get(i);
    ASSERT_TRUE(pos.ok()) << i << ": " << pos.status().ToString();
    EXPECT_EQ(pos->data_list, acked[i].data_list) << i;
    EXPECT_EQ(pos->mroot, acked[i].mroot) << i;
  }
  // And the log continues where the acked prefix ends.
  EXPECT_TRUE(reopened->Append(MakePosition(acked.size(), 4)).ok());
}

}  // namespace
}  // namespace wedge
