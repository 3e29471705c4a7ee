// End-to-end chaos test: real wedgeblockd processes over real TCP, a
// seeded fault schedule (SIGKILL mid-epoch, timed partition, graceful
// restart), recovery with --recover, and a full two-level audit. The
// acceptance bar is zero loss: every client-acked entry readable, its
// stage-1 proof verifying, and its log covered by a verifying forest
// aggregation proof.
//
// WEDGE_WEDGEBLOCKD_PATH is injected by CMake ($<TARGET_FILE:wedgeblockd>).
// Set WEDGE_SKIP_SOCKET_TESTS=1 to skip at runtime.

#include "tools/chaos_harness.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

namespace wedge {
namespace {

bool SocketTestsDisabled() {
  const char* skip = std::getenv("WEDGE_SKIP_SOCKET_TESTS");
  return skip != nullptr && skip[0] == '1';
}

TEST(ChaosScheduleTest, DeterministicInSeedAndFleetSize) {
  for (uint64_t seed : {uint64_t{1}, uint64_t{0xC4A05}, uint64_t{998877}}) {
    for (uint32_t procs : {3u, 5u, 9u}) {
      ChaosSchedule a = MakeChaosSchedule(seed, procs);
      ChaosSchedule b = MakeChaosSchedule(seed, procs);
      EXPECT_EQ(a.kill_victim, b.kill_victim);
      EXPECT_EQ(a.partition_victim, b.partition_victim);
      EXPECT_EQ(a.restart_victim, b.restart_victim);
      EXPECT_EQ(a.partition_micros, b.partition_micros);
      // Victims are valid and pairwise distinct, so every fault mode
      // exercises a different process.
      EXPECT_LT(a.kill_victim, procs);
      EXPECT_LT(a.partition_victim, procs);
      EXPECT_LT(a.restart_victim, procs);
      EXPECT_NE(a.kill_victim, a.partition_victim);
      EXPECT_NE(a.kill_victim, a.restart_victim);
      EXPECT_NE(a.partition_victim, a.restart_victim);
    }
  }
  // Different seeds must be able to produce different schedules.
  bool any_diff = false;
  ChaosSchedule base = MakeChaosSchedule(1, 5);
  for (uint64_t seed = 2; seed < 12 && !any_diff; ++seed) {
    ChaosSchedule other = MakeChaosSchedule(seed, 5);
    any_diff = other.kill_victim != base.kill_victim ||
               other.partition_victim != base.partition_victim ||
               other.partition_micros != base.partition_micros;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ChaosScenarioTest, SeededFaultScheduleLosesNothing) {
  if (SocketTestsDisabled()) {
    GTEST_SKIP() << "WEDGE_SKIP_SOCKET_TESTS=1";
  }
  ChaosRunOptions options;
  options.fleet.daemon_binary = WEDGE_WEDGEBLOCKD_PATH;
  options.fleet.work_dir =
      (std::filesystem::temp_directory_path() /
       ("wedge_chaos_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(options.fleet.work_dir);
  std::filesystem::create_directories(options.fleet.work_dir);
  options.fleet.num_procs = 3;
  options.seed = 0xC4A05;
  options.tenants = 6;
  options.batches_per_round = 6;
  options.entries_per_batch = 4;
  options.value_bytes = 48;
  options.audit_timeout = 90 * kMicrosPerSecond;

  auto report = RunChaosScenario(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The workload made real progress and the SIGKILL victim actually held
  // acked entries — otherwise the crash window tested nothing.
  EXPECT_GT(report->workload.entries_acked, 0u);
  ASSERT_EQ(report->acked_per_shard.size(), 3u);
  EXPECT_GT(report->acked_per_shard[report->schedule.kill_victim], 0u);

  // Zero loss: everything acked is readable, stage-1 verified, and
  // covered by a verifying forest proof after recovery.
  EXPECT_EQ(report->audit.acked, report->workload.entries_acked);
  EXPECT_EQ(report->audit.readable, report->audit.acked);
  EXPECT_EQ(report->audit.stage1_ok, report->audit.acked);
  EXPECT_EQ(report->audit.proof_ok, report->audit.proof_total);
  EXPECT_EQ(report->audit.lost, 0u);
  EXPECT_TRUE(report->audit.zero_loss());

  // The faults were real: the breaker tripped at least once for the
  // SIGKILL, and the client retried around transient unavailability.
  EXPECT_GE(report->breaker_trips, 1u);

  std::filesystem::remove_all(options.fleet.work_dir);
}

TEST(ChaosScenarioTest, SegmentStoreFleetLosesNothing) {
  if (SocketTestsDisabled()) {
    GTEST_SKIP() << "WEDGE_SKIP_SOCKET_TESTS=1";
  }
  // Same scenario under another seed, with segments sealed every 4
  // positions (the fleet default, named here because the check below
  // depends on it) so the SIGKILL victim dies holding both sealed
  // segments and a live WAL tail — recovery then exercises the
  // O(segments) trailer scan and the WAL replay.
  ChaosRunOptions options;
  options.fleet.daemon_binary = WEDGE_WEDGEBLOCKD_PATH;
  options.fleet.work_dir =
      (std::filesystem::temp_directory_path() /
       ("wedge_chaos_seg_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(options.fleet.work_dir);
  std::filesystem::create_directories(options.fleet.work_dir);
  options.fleet.num_procs = 3;
  options.fleet.segment_positions = 4;
  options.seed = 0x5E65;
  options.tenants = 6;
  options.batches_per_round = 6;
  options.entries_per_batch = 4;
  options.value_bytes = 48;
  options.audit_timeout = 90 * kMicrosPerSecond;

  auto report = RunChaosScenario(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_GT(report->workload.entries_acked, 0u);
  ASSERT_EQ(report->acked_per_shard.size(), 3u);
  EXPECT_GT(report->acked_per_shard[report->schedule.kill_victim], 0u);

  EXPECT_EQ(report->audit.acked, report->workload.entries_acked);
  EXPECT_EQ(report->audit.readable, report->audit.acked);
  EXPECT_EQ(report->audit.stage1_ok, report->audit.acked);
  EXPECT_EQ(report->audit.proof_ok, report->audit.proof_total);
  EXPECT_EQ(report->audit.lost, 0u);
  EXPECT_TRUE(report->audit.zero_loss());

  // The kill victim's directory really is segmented: at least one
  // sealed segment file exists beside the WAL.
  bool saw_segment = false;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           options.fleet.work_dir)) {
    if (entry.path().extension() == ".seg") saw_segment = true;
  }
  EXPECT_TRUE(saw_segment);

  std::filesystem::remove_all(options.fleet.work_dir);
}

}  // namespace
}  // namespace wedge
