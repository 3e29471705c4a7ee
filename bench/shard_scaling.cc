// shard_scaling — sealed-entry throughput of the sharded engine vs a
// single node, plus the stage-2 economics of epoch aggregation.
//
// Phase 1 (throughput): drives T client threads of pre-built append
// batches into (a) a 1-shard engine and (b) an N-shard engine, both in
// forest mode with no chain attached and no ticking, so the measurement
// is pure stage-1 seal throughput. Shards run independent worker pools,
// so on a multi-core host the N-shard engine should scale.
//
// Phase 1b (sign throughput): per-shard stage-1 signing in isolation —
// scalar EcdsaSign vs one-thread EcdsaSignMany vs pool-fanned chunks —
// so the signer-pool core-scaling claim is visible in BENCH_shard.json
// rather than only end-to-end (informational, never enforced: the ratio
// is core-count dependent).
//
// Phase 2 (stage-2 txs): a full sharded deployment over the simulated
// chain; appends entries while mining, then drains. Counts one forest
// transaction per closed epoch versus the classic per-batch stage-2
// stream, normalised to txs per 100k entries.
//
// Writes a JSON report (--json-out, default BENCH_shard.json in the
// CWD) and exits non-zero when an enforced criterion fails:
//   - forest mode submits exactly one stage-2 tx per epoch (always);
//   - N-shard throughput >= 2x single-shard (only on hosts with >= 4
//     hardware threads — shard parallelism cannot show on fewer cores).
//
// Usage: shard_scaling [--shards N] [--entries N] [--batch N]
//                      [--threads N] [--json-out PATH] [--seed N]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "crypto/ecdsa.h"
#include "shard/sharded_engine.h"

namespace wedge {
namespace {

struct Options {
  uint32_t shards = 4;
  uint64_t entries = 100'000;
  uint32_t batch = 500;
  int threads = 4;
  uint64_t seed = 42;
  std::string json_out = "BENCH_shard.json";
};

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
    if (flag == "--shards") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.shards = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (flag == "--entries") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.entries = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--batch") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.batch = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (flag == "--threads") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.threads = std::atoi(v.c_str());
    } else if (flag == "--seed") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--json-out") {
      WEDGE_ASSIGN_OR_RETURN(opts.json_out, next());
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (opts.shards < 1 || opts.entries == 0 || opts.batch == 0 ||
      opts.threads < 1) {
    return Status::InvalidArgument("bad flag value");
  }
  return opts;
}

/// Stage-1 seal throughput of an engine with `num_shards` shards, no
/// chain, no ticking. Tenant t is pinned to thread t % threads so every
/// thread drives a disjoint tenant set (and, with enough tenants, every
/// shard sees traffic).
double MeasureThroughput(const Options& opts, uint32_t num_shards) {
  ShardedEngineConfig config;
  config.num_shards = num_shards;
  config.node.batch_size = opts.batch;
  config.node.worker_threads = 2;
  config.node.verify_client_signatures = false;
  config.forest_stage2 = true;  // Aggregator owns stage 2; never ticked.
  Telemetry telemetry;
  auto engine =
      ShardedLogEngine::Create(config, KeyPair::FromSeed(0xED6E), {},
                               /*chain=*/nullptr, Address{}, &telemetry);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine create failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  ShardedLogEngine& e = **engine;

  // 4 tenants per shard spreads load across the ring without making the
  // router the variable under test.
  uint64_t tenants = static_cast<uint64_t>(num_shards) * 4;
  auto kvs = bench::MakeWorkload(opts.batch, bench::kDefaultValueSize,
                                 bench::kDefaultKeySize, opts.seed);
  std::vector<AppendRequest> batch =
      bench::MakeUnsignedRequests(KeyPair::FromSeed(opts.seed).address(), kvs);

  uint64_t batches_total = (opts.entries + opts.batch - 1) / opts.batch;
  std::vector<std::thread> workers;
  Micros start = RealClock::Global()->NowMicros();
  for (int t = 0; t < opts.threads; ++t) {
    workers.emplace_back([&, t] {
      // Thread t owns batches t, t+T, t+2T, ... and cycles its tenants.
      for (uint64_t b = t; b < batches_total; b += opts.threads) {
        uint64_t tenant = b % tenants;
        auto r = e.Append(tenant, batch);
        if (!r.ok()) {
          std::fprintf(stderr, "append failed: %s\n",
                       r.status().ToString().c_str());
          std::abort();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  double elapsed_s =
      static_cast<double>(RealClock::Global()->NowMicros() - start) /
      kMicrosPerSecond;
  return static_cast<double>(batches_total * opts.batch) / elapsed_s;
}

struct SignThroughput {
  double single_per_s = 0;  ///< One EcdsaSign per entry, one thread.
  double batch_per_s = 0;   ///< One-thread EcdsaSignMany (batched inversions).
  double pooled_per_s = 0;  ///< Chunked EcdsaSignMany fanned over the pool.
};

/// Phase 1b: per-shard stage-1 sign throughput, isolating the signer
/// pool from the rest of sealing. The single->batch ratio shows the
/// batched-inversion win; batch->pooled shows core scaling (expect ~1x
/// on a 1-core host — the JSON records cores so readers can judge).
SignThroughput MeasureSignThroughput(const Options& opts) {
  constexpr size_t kCount = 4096;
  constexpr size_t kChunk = 128;  // Matches OffchainNode::SignResponsesPooled.
  KeyPair kp = KeyPair::FromSeed(0x5161);
  std::vector<Hash256> hashes(kCount);
  for (size_t i = 0; i < kCount; ++i) {
    hashes[i] = Sha256::Digest("sign-bench-" + std::to_string(i));
  }
  std::vector<EcdsaSignature> sigs(kCount);
  RealClock* clock = RealClock::Global();
  SignThroughput out;

  Micros t0 = clock->NowMicros();
  for (size_t i = 0; i < kCount; ++i) {
    sigs[i] = EcdsaSign(kp.private_key(), hashes[i]);
  }
  out.single_per_s =
      kCount * kMicrosPerSecond /
      static_cast<double>(clock->NowMicros() - t0);

  t0 = clock->NowMicros();
  EcdsaSignMany(kp.private_key(), hashes.data(), kCount, sigs.data());
  out.batch_per_s = kCount * kMicrosPerSecond /
                    static_cast<double>(clock->NowMicros() - t0);

  ThreadPool pool(opts.threads);
  const size_t chunks = (kCount + kChunk - 1) / kChunk;
  t0 = clock->NowMicros();
  pool.ParallelFor(chunks, [&](size_t c) {
    const size_t begin = c * kChunk;
    const size_t count = std::min(kChunk, kCount - begin);
    EcdsaSignMany(kp.private_key(), hashes.data() + begin, count,
                  sigs.data() + begin);
  });
  out.pooled_per_s = kCount * kMicrosPerSecond /
                     static_cast<double>(clock->NowMicros() - t0);
  return out;
}

struct Stage2Result {
  uint64_t entries = 0;
  uint64_t epochs = 0;
  uint64_t forest_txs = 0;
  uint64_t forest_retries = 0;
  uint64_t classic_txs = 0;
  double forest_txs_per_100k = 0;
  double classic_txs_per_100k = 0;
};

/// Phase 2: on-chain tx accounting. Forest mode over the simulated
/// chain, plus a classic single-node deployment as the baseline tx
/// stream, both fed the same number of entries.
Result<Stage2Result> MeasureStage2(const Options& opts) {
  Stage2Result out;
  // Keep the chain phase cheap: it measures tx counts, not throughput.
  out.entries = std::min<uint64_t>(opts.entries, 20'000);
  uint64_t batches = out.entries / opts.batch;

  auto kvs = bench::MakeWorkload(opts.batch, bench::kDefaultValueSize,
                                 bench::kDefaultKeySize, opts.seed);
  std::vector<AppendRequest> batch =
      bench::MakeUnsignedRequests(KeyPair::FromSeed(opts.seed).address(), kvs);

  {
    ShardedDeploymentConfig config;
    config.engine.num_shards = opts.shards;
    config.engine.node.batch_size = opts.batch;
    config.engine.node.worker_threads = 2;
    config.engine.node.verify_client_signatures = false;
    config.engine.epoch_ticks = 4;  // One epoch per 4 mined blocks.
    auto deployment = ShardedDeployment::Create(config);
    WEDGE_RETURN_IF_ERROR(deployment.status());
    ShardedDeployment& d = **deployment;
    for (uint64_t b = 0; b < batches; ++b) {
      WEDGE_RETURN_IF_ERROR(
          d.engine().Append(/*tenant=*/b % (opts.shards * 4), batch).status());
      if (b % 8 == 7) d.AdvanceBlocks(1);
    }
    // Drain: close the final epoch over everything still staged, then
    // mine until receipts land.
    (void)d.engine().AggregateNow();
    d.AdvanceBlocks(4);
    EpochRootAggregator* agg = d.engine().aggregator();
    out.epochs = agg->epochs_closed();
    out.forest_txs = agg->ForestTxIds().size();
    MetricsSnapshot snap = d.telemetry().metrics.Snapshot();
    out.forest_retries = snap.CounterValue("wedge.engine.forest_tx_retries");
    out.forest_txs_per_100k =
        static_cast<double>(out.forest_txs) * 100'000 / out.entries;
  }

  {
    auto d = bench::MakeBenchDeployment(opts.batch);
    for (uint64_t b = 0; b < batches; ++b) {
      WEDGE_RETURN_IF_ERROR(
          d->engine().Append(/*tenant=*/0, batch).status());
      if (b % 8 == 7) d->AdvanceBlocks(1);
    }
    d->AdvanceBlocks(4);
    MetricsSnapshot snap = d->telemetry().metrics.Snapshot();
    out.classic_txs = snap.CounterValue("wedge.stage2.txs_submitted");
    out.classic_txs_per_100k =
        static_cast<double>(out.classic_txs) * 100'000 / out.entries;
  }
  return out;
}

int Run(const Options& opts) {
  unsigned cores = std::thread::hardware_concurrency();
  bench::PrintHeader("shard_scaling (" + std::to_string(opts.shards) +
                     " shards, " + std::to_string(cores) + " cores)");

  double single = MeasureThroughput(opts, 1);
  double sharded = MeasureThroughput(opts, opts.shards);
  double speedup = single > 0 ? sharded / single : 0;
  std::printf("  1 shard : %.0f entries/s\n", single);
  std::printf("  %u shards: %.0f entries/s (%.2fx)\n", opts.shards, sharded,
              speedup);

  SignThroughput sign = MeasureSignThroughput(opts);
  double sign_batch_speedup =
      sign.single_per_s > 0 ? sign.batch_per_s / sign.single_per_s : 0;
  double sign_pool_speedup =
      sign.batch_per_s > 0 ? sign.pooled_per_s / sign.batch_per_s : 0;
  std::printf("  sign    : %.0f/s single, %.0f/s batched (%.2fx), "
              "%.0f/s pooled x%d (%.2fx)\n",
              sign.single_per_s, sign.batch_per_s, sign_batch_speedup,
              sign.pooled_per_s, opts.threads, sign_pool_speedup);

  auto stage2 = MeasureStage2(opts);
  if (!stage2.ok()) {
    std::fprintf(stderr, "stage-2 phase failed: %s\n",
                 stage2.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "  stage-2: %llu forest txs over %llu epochs (%llu retries) vs "
      "%llu classic txs, for %llu entries\n",
      static_cast<unsigned long long>(stage2->forest_txs),
      static_cast<unsigned long long>(stage2->epochs),
      static_cast<unsigned long long>(stage2->forest_retries),
      static_cast<unsigned long long>(stage2->classic_txs),
      static_cast<unsigned long long>(stage2->entries));

  // Enforced criteria.
  std::vector<std::string> failures;
  // The fault-free simulated chain never drops a forest tx, so exactly
  // one submission per closed epoch is the invariant (retries would
  // mean the aggregator resubmitted unnecessarily).
  if (stage2->forest_txs != stage2->epochs) {
    failures.push_back("expected exactly one stage-2 tx per epoch, got " +
                       std::to_string(stage2->forest_txs) + " txs for " +
                       std::to_string(stage2->epochs) + " epochs");
  }
  bool enforce_speedup = cores >= 4;
  if (enforce_speedup && speedup < 2.0) {
    failures.push_back("sharded speedup " + std::to_string(speedup) +
                       "x < 2.0x on a " + std::to_string(cores) +
                       "-core host");
  }

  bench::JsonRow row = bench::MakeRow("shard_scaling", opts.seed, opts.batch);
  row.Field("shards", static_cast<uint64_t>(opts.shards))
      .Field("cores", static_cast<uint64_t>(cores))
      .Field("entries", opts.entries)
      .Field("threads", static_cast<uint64_t>(opts.threads))
      .Field("single_entries_per_s", single)
      .Field("sharded_entries_per_s", sharded)
      .Field("speedup", speedup)
      .Field("sign_single_per_s", sign.single_per_s)
      .Field("sign_batch_per_s", sign.batch_per_s)
      .Field("sign_pooled_per_s", sign.pooled_per_s)
      .Field("speedup_enforced", std::string(enforce_speedup ? "yes" : "no"))
      .Field("stage2_entries", stage2->entries)
      .Field("epochs", stage2->epochs)
      .Field("forest_txs", stage2->forest_txs)
      .Field("forest_tx_retries", stage2->forest_retries)
      .Field("forest_txs_per_100k", stage2->forest_txs_per_100k)
      .Field("classic_txs", stage2->classic_txs)
      .Field("classic_txs_per_100k", stage2->classic_txs_per_100k)
      .Field("criteria_passed",
             std::string(failures.empty() ? "true" : "false"));
  row.Print();

  if (!opts.json_out.empty()) {
    std::ofstream f(opts.json_out, std::ios::trunc);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", opts.json_out.c_str());
      return 1;
    }
    f << "{\n"
      << "  \"bench\": \"shard_scaling\",\n"
      << "  \"shards\": " << opts.shards << ",\n"
      << "  \"cores\": " << cores << ",\n"
      << "  \"entries\": " << opts.entries << ",\n"
      << "  \"single_entries_per_s\": " << static_cast<uint64_t>(single)
      << ",\n"
      << "  \"sharded_entries_per_s\": " << static_cast<uint64_t>(sharded)
      << ",\n"
      << "  \"speedup\": " << speedup << ",\n"
      << "  \"speedup_enforced\": " << (enforce_speedup ? "true" : "false")
      << ",\n"
      << "  \"sign_single_per_s\": " << static_cast<uint64_t>(sign.single_per_s)
      << ",\n"
      << "  \"sign_batch_per_s\": " << static_cast<uint64_t>(sign.batch_per_s)
      << ",\n"
      << "  \"sign_pooled_per_s\": " << static_cast<uint64_t>(sign.pooled_per_s)
      << ",\n"
      << "  \"sign_batch_speedup\": " << sign_batch_speedup << ",\n"
      << "  \"sign_pool_speedup\": " << sign_pool_speedup << ",\n"
      << "  \"stage2_entries\": " << stage2->entries << ",\n"
      << "  \"epochs\": " << stage2->epochs << ",\n"
      << "  \"forest_txs\": " << stage2->forest_txs << ",\n"
      << "  \"forest_tx_retries\": " << stage2->forest_retries << ",\n"
      << "  \"forest_txs_per_100k\": " << stage2->forest_txs_per_100k << ",\n"
      << "  \"classic_txs\": " << stage2->classic_txs << ",\n"
      << "  \"classic_txs_per_100k\": " << stage2->classic_txs_per_100k
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
