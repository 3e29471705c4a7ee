// chaos — scripted fault injection against a fleet of wedgeblockd
// processes (the driver behind tools/chaos.sh and the chaos_test ctest
// entry).
//
// Spawns N single-shard forest-mode daemons, runs a seeded append
// workload across tenants while SIGKILL-ing one process mid-epoch,
// partitioning a second for a timed window and gracefully restarting a
// third, then restarts the crashed process with --recover and audits
// that every client-acked entry is still readable and passes two-level
// verification (stage-1 proof + forest aggregation proof).
//
// Usage:
//   chaos --binary PATH [--work-dir PATH] [--procs N] [--seed N]
//         [--tenants N] [--batches N] [--entries N] [--value-bytes N]
//         [--audit-timeout-s N] [--json-out PATH]
//
// Every daemon keeps its shard log in the segmented store
// (storage/segstore/) and seals a segment every few positions, so the
// SIGKILL lands across WAL + sealed segments and recovery exercises the
// O(segments) trailer scan and the WAL replay.
//
// Prints a human summary plus one machine-readable "CHAOS_RESULT {...}"
// JSON line (also written to --json-out when given). Exits 0 only on
// zero loss: every acked entry readable, stage-1 verified, and covered
// by a verifying forest proof.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tools/chaos_harness.h"

namespace wedge {
namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --binary PATH [--work-dir PATH] [--procs N] [--seed N]\n"
      "          [--tenants N] [--batches N] [--entries N]\n"
      "          [--value-bytes N]\n"
      "          [--audit-timeout-s N] [--json-out PATH]\n",
      argv0);
  return 2;
}

std::string ReportJson(const ChaosRunOptions& options,
                       const ChaosRunReport& report) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"seed\": %llu, \"procs\": %u, \"kill_victim\": %u, "
      "\"partition_victim\": %u, \"restart_victim\": %u, "
      "\"partition_ms\": %lld, \"batches_attempted\": %llu, "
      "\"batches_acked\": %llu, \"batches_failed\": %llu, "
      "\"entries_acked\": %llu, \"entries_at_risk\": %llu, "
      "\"readable\": %llu, \"stage1_ok\": %llu, \"proofs_ok\": %llu, "
      "\"proofs_total\": %llu, \"lost\": %llu, \"zero_loss\": %s, "
      "\"recovery_ms\": %lld, \"audit_ms\": %lld, \"client_retries\": %llu, "
      "\"breaker_trips\": %llu, \"fast_fails\": %llu}",
      static_cast<unsigned long long>(options.seed),
      options.fleet.num_procs, report.schedule.kill_victim,
      report.schedule.partition_victim, report.schedule.restart_victim,
      static_cast<long long>(report.schedule.partition_micros /
                             kMicrosPerMilli),
      static_cast<unsigned long long>(report.workload.batches_attempted),
      static_cast<unsigned long long>(report.workload.batches_acked),
      static_cast<unsigned long long>(report.workload.batches_failed),
      static_cast<unsigned long long>(report.workload.entries_acked),
      static_cast<unsigned long long>(
          report.schedule.kill_victim < report.acked_per_shard.size()
              ? report.acked_per_shard[report.schedule.kill_victim]
              : 0),
      static_cast<unsigned long long>(report.audit.readable),
      static_cast<unsigned long long>(report.audit.stage1_ok),
      static_cast<unsigned long long>(report.audit.proof_ok),
      static_cast<unsigned long long>(report.audit.proof_total),
      static_cast<unsigned long long>(report.audit.lost),
      report.audit.zero_loss() ? "true" : "false",
      static_cast<long long>(report.recovery_micros / kMicrosPerMilli),
      static_cast<long long>(report.audit.audit_micros / kMicrosPerMilli),
      static_cast<unsigned long long>(report.client_retries),
      static_cast<unsigned long long>(report.breaker_trips),
      static_cast<unsigned long long>(report.fast_fails));
  return buf;
}

int Run(int argc, char** argv) {
  ChaosRunOptions options;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--binary" && (v = next())) {
      options.fleet.daemon_binary = v;
    } else if (flag == "--work-dir" && (v = next())) {
      options.fleet.work_dir = v;
    } else if (flag == "--procs" && (v = next())) {
      options.fleet.num_procs =
          static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (flag == "--seed" && (v = next())) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--tenants" && (v = next())) {
      options.tenants = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (flag == "--batches" && (v = next())) {
      options.batches_per_round = std::atoi(v);
    } else if (flag == "--entries" && (v = next())) {
      options.entries_per_batch = std::atoi(v);
    } else if (flag == "--value-bytes" && (v = next())) {
      options.value_bytes = std::atoi(v);
    } else if (flag == "--audit-timeout-s" && (v = next())) {
      options.audit_timeout = std::atoll(v) * kMicrosPerSecond;
    } else if (flag == "--json-out" && (v = next())) {
      json_out = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.fleet.daemon_binary.empty()) return Usage(argv[0]);
  if (options.fleet.work_dir.empty()) {
    char tmpl[] = "/tmp/wedge-chaos-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      return 1;
    }
    options.fleet.work_dir = tmpl;
  }

  std::printf("chaos: %u procs, seed %llu, work dir %s\n",
              options.fleet.num_procs,
              static_cast<unsigned long long>(options.seed),
              options.fleet.work_dir.c_str());
  auto report = RunChaosScenario(options);
  if (!report.ok()) {
    std::fprintf(stderr, "chaos run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "schedule: SIGKILL proc %u, partition proc %u (%lld ms), "
      "restart proc %u\n",
      report->schedule.kill_victim, report->schedule.partition_victim,
      static_cast<long long>(report->schedule.partition_micros /
                             kMicrosPerMilli),
      report->schedule.restart_victim);
  std::printf(
      "workload: %llu/%llu batches acked (%llu failed typed), "
      "%llu entries acked, %llu on the killed proc\n",
      static_cast<unsigned long long>(report->workload.batches_acked),
      static_cast<unsigned long long>(report->workload.batches_attempted),
      static_cast<unsigned long long>(report->workload.batches_failed),
      static_cast<unsigned long long>(report->workload.entries_acked),
      static_cast<unsigned long long>(
          report->acked_per_shard[report->schedule.kill_victim]));
  std::printf(
      "audit: %llu/%llu readable, %llu stage-1 ok, %llu/%llu forest "
      "proofs ok, %llu lost; recovery %lld ms\n",
      static_cast<unsigned long long>(report->audit.readable),
      static_cast<unsigned long long>(report->audit.acked),
      static_cast<unsigned long long>(report->audit.stage1_ok),
      static_cast<unsigned long long>(report->audit.proof_ok),
      static_cast<unsigned long long>(report->audit.proof_total),
      static_cast<unsigned long long>(report->audit.lost),
      static_cast<long long>(report->recovery_micros / kMicrosPerMilli));

  if (!report->snapshot_path.empty()) {
    std::printf("fleet metrics snapshot (failed audit): %s\n",
                report->snapshot_path.c_str());
  }
  std::string json = ReportJson(options, *report);
  std::printf("CHAOS_RESULT %s\n", json.c_str());
  if (!json_out.empty()) {
    FILE* f = std::fopen(json_out.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
    }
  }
  return report->audit.zero_loss() ? 0 : 1;
}

}  // namespace
}  // namespace wedge

int main(int argc, char** argv) { return wedge::Run(argc, argv); }
