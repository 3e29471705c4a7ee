// storage_sweep — durability-cost and recovery-time sweep of the
// segmented storage engine (storage/segstore/).
//
// Part 1 (throughput): N appender threads drive one store through the
// engine's real write protocol — AppendPrepare under a ticket mutex
// (mirroring OffchainNode's seal ticket), WaitDurable outside it — for
// each durability arm:
//   seg_group_commit   segment store, one fdatasync per batch window
//   seg_sync_each      segment store, fflush+fsync inline per append
//   seg_nosync         segment store, group fflush only
// The headline criterion: group-commit durable throughput >= 10x the
// per-append-fsync baseline (the syncs coalesce; both arms are
// power-loss durable before ack). Each arm also reports its seals
// (count, p50/max `wedge.store.seal_us`) and write amplification: the
// /proc/self/io write_bytes the arm caused per byte it appended.
//
// Part 2 (recovery): writes a fixed number of entries at several
// segment sizes and measures reopen time. Recovery is one trailer pread
// per segment + a bounded WAL replay — flat in entries-per-segment.
// Criterion: 1M-entry segment recovery < 2s.
//
// Usage:
//   storage_sweep [--quick] [--threads N] [--depth N] [--per-arm-mb N]
//                 [--value-bytes N] [--entries-per-position N]
//                 [--recovery-entries N] [--dir PATH] [--json-out PATH]
//
// The default run writes ~1 GB per throughput arm (a sustained multi-GB
// disk workload overall); --quick shrinks everything for CI smoke use.
// Writes BENCH_storage.json (--json-out) and prints one JSONL row per
// arm as it completes.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "storage/log_store.h"
#include "storage/segstore/segment_store.h"
#include "telemetry/metrics.h"

namespace wedge {
namespace {

struct Options {
  bool quick = false;
  int threads = 32;
  size_t depth = 8;
  uint64_t per_arm_mb = 1024;
  // Small positions by default: a durable append's cost is then the
  // disk's fixed sync latency, not data bandwidth, which is the regime
  // group commit amortizes (N acks per sync). Bigger positions (e.g.
  // --entries-per-position 8 --value-bytes 1024) shift every durable
  // arm toward the disk's synced-write bandwidth, where the arms
  // converge and the ratio compresses toward 1.
  size_t value_bytes = 64;
  uint32_t entries_per_position = 1;
  uint64_t recovery_entries = 1'000'000;
  std::string dir;
  std::string json_out = "BENCH_storage.json";
  uint64_t seed = 42;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--quick] [--threads N] [--depth N] "
               "[--per-arm-mb N]\n"
               "          [--value-bytes N] [--entries-per-position N]\n"
               "          [--recovery-entries N] [--dir PATH] "
               "[--json-out PATH]\n",
               argv0);
  return 2;
}

Result<Options> Parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> Result<std::string> {
      if (i + 1 >= argc) {
        return Status::InvalidArgument(flag + " needs a value");
      }
      return std::string(argv[++i]);
    };
    if (flag == "--quick") {
      opts.quick = true;
    } else if (flag == "--threads") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.threads = std::atoi(v.c_str());
    } else if (flag == "--depth") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.depth = std::strtoul(v.c_str(), nullptr, 10);
    } else if (flag == "--per-arm-mb") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.per_arm_mb = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--value-bytes") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.value_bytes = std::strtoul(v.c_str(), nullptr, 10);
    } else if (flag == "--entries-per-position") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.entries_per_position =
          static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (flag == "--recovery-entries") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.recovery_entries = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--dir") {
      WEDGE_ASSIGN_OR_RETURN(opts.dir, next());
    } else if (flag == "--json-out") {
      WEDGE_ASSIGN_OR_RETURN(opts.json_out, next());
    } else if (flag == "--seed") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      return Usage(argv[0]), Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (opts.quick) {
    // CI smoke: small enough for seconds, still crossing seal
    // boundaries and coalescing real syncs. Thread count stays at the
    // default — the group-commit speedup scales with the number of
    // concurrent appenders a sync window can cover.
    opts.per_arm_mb = 4;
    opts.recovery_entries = 20'000;
  }
  if (opts.threads < 1 || opts.depth == 0 || opts.per_arm_mb == 0 ||
      opts.entries_per_position == 0 || opts.recovery_entries == 0) {
    return Status::InvalidArgument("bad flag value");
  }
  return opts;
}

/// Pre-built position templates: payload bytes are shared (refcounted),
/// so per-append cost is one struct copy + the store's own serialize.
std::vector<LogPosition> MakeTemplates(const Options& opts, size_t n) {
  Rng rng(opts.seed);
  std::vector<LogPosition> templates;
  templates.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    LogPosition pos;
    for (uint32_t e = 0; e < opts.entries_per_position; ++e) {
      pos.data_list.push_back(
          rng.NextBytes(bench::kDefaultKeySize + opts.value_bytes));
    }
    pos.mroot = MerkleTree::Build(pos.data_list)->Root();
    templates.push_back(std::move(pos));
  }
  return templates;
}

uint64_t PositionBytes(const Options& opts) {
  // Approximate on-disk bytes per position (payload dominates).
  return static_cast<uint64_t>(opts.entries_per_position) *
         (bench::kDefaultKeySize + opts.value_bytes);
}

struct ArmResult {
  std::string name;
  uint64_t positions = 0;
  uint64_t entries = 0;
  uint64_t bytes = 0;
  double seconds = 0;
  double positions_per_s = 0;
  double entries_per_s = 0;
  double mb_per_s = 0;
  uint64_t syncs = 0;        ///< Group-commit windows.
  double mean_batch = 0;     ///< Appends amortized per sync.
  uint64_t seals = 0;
  uint64_t seal_us_p50 = 0;
  uint64_t seal_us_max = 0;
  double write_amplification = 0;  ///< write_bytes delta / bytes.
};

/// Bytes this process has caused to be written to storage
/// (/proc/self/io `write_bytes`), or 0 where the kernel does not say.
uint64_t ProcWriteBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "write_bytes:") return value;
  }
  return 0;
}

/// Runs one throughput arm: `threads` workers, ticketed prepare +
/// unticketed durability wait, `positions` appends total. Each worker
/// keeps up to `opts.depth` prepares in flight before waiting on the
/// newest token (tokens are orderable, so that wait covers the whole
/// window) — modeling an engine with more concurrent sealers than this
/// machine has spare OS threads. The per-append-fsync arms are
/// unaffected: their prepare pays the sync inline, which is the whole
/// point of the comparison.
ArmResult RunArm(const std::string& name, LogStore* store,
                 const MetricsRegistry& metrics, const Options& opts,
                 uint64_t positions,
                 const std::vector<LogPosition>& templates) {
  ArmResult result;
  result.name = name;
  std::mutex ticket_mu;
  uint64_t next_id = 0;
  std::atomic<uint64_t> failures{0};

  const uint64_t write_bytes_before = ProcWriteBytes();
  Stopwatch watch(RealClock::Global());
  std::vector<std::thread> workers;
  workers.reserve(opts.threads);
  for (int t = 0; t < opts.threads; ++t) {
    workers.emplace_back([&] {
      uint64_t window_last = 0;
      size_t window = 0;
      for (;;) {
        bool done = false;
        {
          std::lock_guard<std::mutex> lock(ticket_mu);
          if (next_id >= positions) {
            done = true;
          } else {
            LogPosition pos = templates[next_id % templates.size()];
            pos.log_id = next_id;
            auto prepared = store->AppendPrepare(pos);
            if (!prepared.ok()) {
              failures.fetch_add(1);
              return;
            }
            ++next_id;
            window_last = *prepared;
            ++window;
          }
        }
        if (window > 0 && (done || window >= opts.depth)) {
          if (!store->WaitDurable(window_last).ok()) {
            failures.fetch_add(1);
            return;
          }
          window = 0;
        }
        if (done) return;
      }
    });
  }
  for (auto& w : workers) w.join();
  result.seconds =
      static_cast<double>(watch.ElapsedMicros()) / kMicrosPerSecond;
  if (failures.load() > 0) {
    std::fprintf(stderr, "arm %s: %llu failures\n", name.c_str(),
                 static_cast<unsigned long long>(failures.load()));
    std::exit(1);
  }
  result.positions = positions;
  result.entries = positions * opts.entries_per_position;
  result.bytes = positions * PositionBytes(opts);
  result.positions_per_s = positions / result.seconds;
  result.entries_per_s = result.entries / result.seconds;
  result.mb_per_s =
      static_cast<double>(result.bytes) / (1 << 20) / result.seconds;
  MetricsSnapshot snap = metrics.Snapshot();
  const HistogramSnapshot* batch =
      snap.FindHistogram("wedge.store.group_commit_batch");
  if (batch != nullptr && batch->count > 0) {
    result.syncs = batch->count;
    result.mean_batch =
        static_cast<double>(positions) / static_cast<double>(batch->count);
  }
  result.seals = snap.CounterValue("wedge.store.seals");
  const HistogramSnapshot* seal = snap.FindHistogram("wedge.store.seal_us");
  if (seal != nullptr && seal->count > 0) {
    result.seal_us_p50 = static_cast<uint64_t>(seal->ValueAtQuantile(0.5));
    result.seal_us_max = static_cast<uint64_t>(seal->max);
  }
  result.write_amplification =
      static_cast<double>(ProcWriteBytes() - write_bytes_before) /
      static_cast<double>(result.bytes);
  return result;
}

void PrintArm(const Options& opts, const ArmResult& r) {
  bench::JsonRow row = bench::MakeRow("storage_sweep", opts.seed,
                                      opts.entries_per_position);
  row.Field("arm", r.name)
      .Field("threads", static_cast<uint64_t>(opts.threads))
      .Field("depth", static_cast<uint64_t>(opts.depth))
      .Field("positions", r.positions)
      .Field("entries", r.entries)
      .Field("bytes", r.bytes)
      .Field("seconds", r.seconds)
      .Field("positions_per_s", r.positions_per_s)
      .Field("entries_per_s", r.entries_per_s)
      .Field("mb_per_s", r.mb_per_s);
  if (r.syncs > 0) {
    row.Field("syncs", r.syncs).Field("mean_commit_batch", r.mean_batch);
  }
  row.Field("seals", r.seals)
      .Field("seal_us_p50", r.seal_us_p50)
      .Field("seal_us_max", r.seal_us_max)
      .Field("write_amplification", r.write_amplification);
  row.Print();
  std::fflush(stdout);
}

struct RecoveryResult {
  std::string name;
  uint64_t entries = 0;
  uint64_t positions = 0;
  uint64_t segments = 0;
  double write_seconds = 0;
  double recover_seconds = 0;
};

/// Writes `positions` small positions with the given segment size,
/// closes the store, and times a cold reopen.
RecoveryResult RunRecovery(const Options& opts, const std::string& dir,
                           uint32_t segment_positions, uint64_t positions,
                           uint32_t entries_per_position) {
  RecoveryResult result;
  result.positions = positions;
  result.entries = positions * entries_per_position;
  std::filesystem::remove_all(dir);

  Rng rng(opts.seed);
  LogPosition tmpl;
  for (uint32_t e = 0; e < entries_per_position; ++e) {
    tmpl.data_list.push_back(rng.NextBytes(32));
  }
  tmpl.mroot = MerkleTree::Build(tmpl.data_list)->Root();

  Stopwatch write_watch(RealClock::Global());
  result.name = "segment_" + std::to_string(segment_positions);
  SegmentLogStore::Options store_options;
  store_options.durability = SegmentLogStore::Durability::kNone;
  store_options.segment_positions = segment_positions;
  auto store = SegmentLogStore::Open(dir, store_options);
  if (!store.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 store.status().ToString().c_str());
    std::exit(1);
  }
  for (uint64_t i = 0; i < positions; ++i) {
    LogPosition pos = tmpl;
    pos.log_id = i;
    if (!(*store)->Append(pos).ok()) std::exit(1);
  }
  result.write_seconds =
      static_cast<double>(write_watch.ElapsedMicros()) / kMicrosPerSecond;
  store->reset();

  Stopwatch recover_watch(RealClock::Global());
  auto reopened = SegmentLogStore::Open(dir, store_options);
  result.recover_seconds =
      static_cast<double>(recover_watch.ElapsedMicros()) / kMicrosPerSecond;
  if (!reopened.ok() || (*reopened)->Size() != positions) {
    std::fprintf(stderr, "recovery mismatch for %s\n", result.name.c_str());
    std::exit(1);
  }
  result.segments = (*reopened)->SegmentCount();
  std::filesystem::remove_all(dir);

  bench::JsonRow row = bench::MakeRow("storage_sweep_recovery", opts.seed,
                                      entries_per_position);
  row.Field("arm", result.name)
      .Field("positions", result.positions)
      .Field("entries", result.entries)
      .Field("segments", result.segments)
      .Field("write_seconds", result.write_seconds)
      .Field("recover_seconds", result.recover_seconds);
  row.Print();
  std::fflush(stdout);
  return result;
}

int Run(const Options& opts) {
  std::string root = opts.dir;
  if (root.empty()) {
    // Scratch must live on a real filesystem — sync costs are the whole
    // point — so default beside the output, not in some tmpfs.
    root = "wedge-storage-sweep-scratch";
  }
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  const uint64_t positions_per_arm =
      std::max<uint64_t>(opts.per_arm_mb * (1ull << 20) / PositionBytes(opts),
                         opts.threads * 4);
  // The per-append-fsync baseline pays one disk sync per position; cap
  // its arm so the sweep finishes, and scale its measured throughput
  // from the smaller sample (steady-state per-append cost is flat).
  const uint64_t sync_each_cap =
      opts.quick ? positions_per_arm
                 : std::min<uint64_t>(positions_per_arm, 20'000);

  bench::PrintHeader(
      "storage_sweep (" + std::to_string(opts.threads) + " threads, " +
      std::to_string(positions_per_arm) + " positions/arm, ~" +
      std::to_string(positions_per_arm * PositionBytes(opts) >> 20) +
      " MB/arm)");
  std::vector<LogPosition> templates = MakeTemplates(opts, 64);

  std::vector<ArmResult> arms;
  auto run_segment_arm = [&](const std::string& name,
                             SegmentLogStore::Durability durability,
                             uint64_t positions) {
    std::string dir = root + "/" + name;
    MetricsRegistry metrics;
    SegmentLogStore::Options store_options;
    store_options.durability = durability;
    store_options.metrics = &metrics;
    auto store = SegmentLogStore::Open(dir, store_options);
    if (!store.ok()) {
      std::fprintf(stderr, "open %s failed: %s\n", name.c_str(),
                   store.status().ToString().c_str());
      std::exit(1);
    }
    arms.push_back(
        RunArm(name, store->get(), metrics, opts, positions, templates));
    PrintArm(opts, arms.back());
    store->reset();
    std::filesystem::remove_all(dir);
  };

  run_segment_arm("seg_group_commit", SegmentLogStore::Durability::kGroupCommit,
                  positions_per_arm);
  run_segment_arm("seg_sync_each", SegmentLogStore::Durability::kSyncEachAppend,
                  sync_each_cap);
  run_segment_arm("seg_nosync", SegmentLogStore::Durability::kNone,
                  positions_per_arm);

  const ArmResult& group = arms[0];
  const ArmResult& sync_each = arms[1];
  double speedup = group.positions_per_s / sync_each.positions_per_s;

  // Recovery sweep: fixed entry count, varying entries-per-segment —
  // recovery stays flat. Small 2-entry positions keep the write phase
  // quick.
  const uint32_t kRecoveryEntriesPerPosition = 2;
  const uint64_t recovery_positions =
      opts.recovery_entries / kRecoveryEntriesPerPosition;
  std::vector<RecoveryResult> recoveries;
  for (uint32_t segment_positions : {1024u, 4096u, 16384u}) {
    recoveries.push_back(RunRecovery(opts, root + "/recovery", segment_positions,
                                     recovery_positions,
                                     kRecoveryEntriesPerPosition));
  }

  double worst_segment_recovery = 0;
  for (const RecoveryResult& r : recoveries) {
    worst_segment_recovery =
        std::max(worst_segment_recovery, r.recover_seconds);
  }

  std::vector<std::string> failures;
  if (speedup < 10.0) {
    failures.push_back("group-commit speedup " + std::to_string(speedup) +
                       "x < 10x over per-append fsync");
  }
  // The acceptance gate pins 1M entries; scale the bound when --quick
  // (or a flag) shrinks the sweep, keeping the criterion meaningful.
  double recovery_bound =
      2.0 * (static_cast<double>(opts.recovery_entries) / 1'000'000.0);
  if (recovery_bound < 0.25) recovery_bound = 0.25;  // Timer noise floor.
  if (worst_segment_recovery > recovery_bound) {
    failures.push_back("segment recovery " +
                       std::to_string(worst_segment_recovery) + "s > " +
                       std::to_string(recovery_bound) + "s for " +
                       std::to_string(opts.recovery_entries) + " entries");
  }

  std::filesystem::remove_all(root);

  if (!opts.json_out.empty()) {
    std::ofstream f(opts.json_out, std::ios::trunc);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", opts.json_out.c_str());
      return 1;
    }
    f << "{\n"
      << "  \"bench\": \"storage_sweep\",\n"
      << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n"
      << "  \"threads\": " << opts.threads << ",\n"
      << "  \"depth\": " << opts.depth << ",\n"
      << "  \"value_bytes\": " << opts.value_bytes << ",\n"
      << "  \"entries_per_position\": " << opts.entries_per_position << ",\n"
      << "  \"arms\": [\n";
    for (size_t i = 0; i < arms.size(); ++i) {
      const ArmResult& r = arms[i];
      f << "    {\"arm\": \"" << r.name << "\", \"positions\": " << r.positions
        << ", \"entries\": " << r.entries << ", \"bytes\": " << r.bytes
        << ", \"seconds\": " << r.seconds
        << ", \"positions_per_s\": " << static_cast<uint64_t>(r.positions_per_s)
        << ", \"entries_per_s\": " << static_cast<uint64_t>(r.entries_per_s)
        << ", \"mb_per_s\": " << r.mb_per_s << ", \"syncs\": " << r.syncs
        << ", \"mean_commit_batch\": " << r.mean_batch
        << ", \"seals\": " << r.seals
        << ", \"seal_us_p50\": " << r.seal_us_p50
        << ", \"seal_us_max\": " << r.seal_us_max
        << ", \"write_amplification\": " << r.write_amplification << "}"
        << (i + 1 < arms.size() ? "," : "") << "\n";
    }
    f << "  ],\n"
      << "  \"group_commit_speedup_vs_sync_each\": " << speedup << ",\n"
      << "  \"recovery\": [\n";
    for (size_t i = 0; i < recoveries.size(); ++i) {
      const RecoveryResult& r = recoveries[i];
      f << "    {\"arm\": \"" << r.name << "\", \"entries\": " << r.entries
        << ", \"positions\": " << r.positions
        << ", \"segments\": " << r.segments
        << ", \"write_seconds\": " << r.write_seconds
        << ", \"recover_seconds\": " << r.recover_seconds << "}"
        << (i + 1 < recoveries.size() ? "," : "") << "\n";
    }
    f << "  ],\n"
      << "  \"recovery_entries\": " << opts.recovery_entries << ",\n"
      << "  \"worst_segment_recovery_seconds\": " << worst_segment_recovery
      << ",\n"
      << "  \"criteria_passed\": " << (failures.empty() ? "true" : "false")
      << "\n}\n";
    std::printf("wrote %s\n", opts.json_out.c_str());
  }

  for (const std::string& f : failures) {
    std::fprintf(stderr, "CRITERION FAILED: %s\n", f.c_str());
  }
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace wedge

int main(int argc, char** argv) {
  auto opts = wedge::Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "%s\n", opts.status().ToString().c_str());
    return 2;
  }
  return wedge::Run(*opts);
}
