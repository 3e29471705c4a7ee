// Robustness sweep: publisher latency and digest-confirmation lag as the
// simulated chain drops 0-20% of submitted transactions. The stage-2
// submitter's timeout/backoff/retry pipeline must land every batch root
// on-chain regardless of the drop rate; the expected shape is a flat
// stage-1 latency (the publisher never waits on the chain) and a
// confirmation lag that grows with the drop probability as timed-out
// submissions are retried.
//
// Emits one JSON row per drop rate (JSON Lines) for plotting. A forest
// arm repeats the sweep against a two-shard engine, whose aggregator
// lands one forest root per round through the same submitter; it must
// lose nothing at any rate either.
//
// A second phase runs the sharded crash-recovery scenario: a journaled
// two-shard deployment acks entries and closes an epoch, "crashes"
// before the forest transaction confirms (the deployment — and with it
// the simulated chain — is dropped, like a SIGKILL'd process), and a new
// deployment over the same log directory runs Recover(). The phase
// writes BENCH_chaos.json (recovery time, entries at risk, zero-loss
// flag) — the in-process counterpart of tools/chaos.sh.

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <map>

#include "bench/bench_util.h"
#include "shard/sharded_engine.h"

namespace wedge {
namespace bench {
namespace {

constexpr uint32_t kBatch = 50;
constexpr int kRounds = 30;  // One stage-2 tx per round: enough draws
                             // for drops to materialize at 5-20%.
constexpr uint64_t kMaxBlocksPerRound = 512;  // Safety cap, never hit.

/// Crash-recovery over a journaled sharded deployment; writes `json_out`.
/// Returns true on zero loss.
bool RunShardedCrashRecovery(const std::string& json_out) {
  PrintHeader("Fault resilience: sharded crash recovery (BENCH_chaos)");
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("wedge_bench_chaos_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  ShardedDeploymentConfig config;
  config.engine.num_shards = 2;
  config.engine.node.batch_size = 16;
  config.engine.node.worker_threads = 2;
  config.engine.node.verify_client_signatures = false;
  config.log_dir = dir;

  constexpr uint64_t kTenants = 4;
  constexpr int kBatchesPerTenant = 4;
  KeyPair publisher = KeyPair::FromSeed(0xC4A0);
  uint64_t seq = 0;
  struct Acked {
    TenantId tenant;
    EntryIndex index;
  };
  std::vector<Acked> ledger;

  {
    // Life 1: ack entries, close the epoch (journal record + forest tx),
    // crash before confirmation.
    auto made = ShardedDeployment::Create(config);
    if (!made.ok()) std::abort();
    auto d = std::move(made).value();
    for (uint64_t t = 0; t < kTenants; ++t) {
      for (int b = 0; b < kBatchesPerTenant; ++b) {
        auto kvs = MakeWorkload(config.engine.node.batch_size,
                                kDefaultValueSize, kDefaultKeySize,
                                /*seed=*/t * 100 + b);
        std::vector<AppendRequest> batch;
        for (const auto& [k, v] : kvs) {
          batch.push_back(AppendRequest::Make(publisher, seq++, k, v));
        }
        auto responses = d->engine().Append(t, batch);
        if (!responses.ok()) std::abort();
        for (const auto& r : *responses) ledger.push_back(Acked{t, r.index});
      }
    }
    d->AdvanceBlocks(1);  // Epoch closes; its tx never confirms.
  }

  // Life 2: fresh deployment (fresh chain) over the same log directory.
  Stopwatch recovery_watch(RealClock::Global());
  auto made = ShardedDeployment::Create(config);
  if (!made.ok()) std::abort();
  auto d = std::move(made).value();
  auto report = d->engine().Recover();
  if (!report.ok()) std::abort();
  double recovery_ms = recovery_watch.ElapsedSeconds() * 1e3;
  d->AdvanceBlocks(2);  // Confirm the resubmitted epochs.

  // Audit: every acked entry readable + stage-1 verified, every touched
  // log covered by a verifying forest proof.
  uint64_t readable = 0, stage1_ok = 0;
  std::map<std::pair<TenantId, uint64_t>, bool> logs;
  for (const Acked& acked : ledger) {
    auto read = d->engine().ReadOne(acked.tenant, acked.index);
    if (!read.ok()) continue;
    ++readable;
    if (read->Verify(d->engine().address())) ++stage1_ok;
    logs.emplace(std::make_pair(acked.tenant, acked.index.log_id), false);
  }
  uint64_t proofs_ok = 0;
  for (auto& [key, unused] : logs) {
    (void)unused;
    auto proof = d->engine().ProveAggregation(key.first, key.second);
    if (proof.ok() && proof->Verify(d->engine().address())) ++proofs_ok;
  }
  bool zero_loss =
      stage1_ok == ledger.size() && proofs_ok == logs.size();

  JsonRow row = MakeRow("fault_resilience_chaos", /*seed=*/0xC4A0,
                        config.engine.node.batch_size);
  row.Field("shards", static_cast<uint64_t>(config.engine.num_shards))
      .Field("tenants", kTenants)
      .Field("entries_at_risk", static_cast<uint64_t>(ledger.size()))
      .Field("readable", readable)
      .Field("stage1_ok", stage1_ok)
      .Field("proofs_ok", proofs_ok)
      .Field("proofs_total", static_cast<uint64_t>(logs.size()))
      .Field("journaled_epochs", report->journaled_epochs)
      .Field("resubmitted_epochs", report->resubmitted_epochs)
      .Field("recovery_ms", recovery_ms)
      .Field("zero_loss", std::string(zero_loss ? "true" : "false"));
  row.Print();

  FILE* f = std::fopen(json_out.c_str(), "w");
  if (f != nullptr) {
    std::fprintf(
        f,
        "{\n  \"bench\": \"fault_resilience_chaos\",\n"
        "  \"shards\": %u,\n  \"tenants\": %llu,\n"
        "  \"entries_at_risk\": %zu,\n  \"readable\": %llu,\n"
        "  \"stage1_ok\": %llu,\n  \"proofs_ok\": %llu,\n"
        "  \"proofs_total\": %zu,\n  \"journaled_epochs\": %llu,\n"
        "  \"resubmitted_epochs\": %llu,\n  \"recovery_ms\": %.3f,\n"
        "  \"zero_loss\": %s,\n  \"criteria_passed\": %s\n}\n",
        config.engine.num_shards,
        static_cast<unsigned long long>(kTenants), ledger.size(),
        static_cast<unsigned long long>(readable),
        static_cast<unsigned long long>(stage1_ok),
        static_cast<unsigned long long>(proofs_ok), logs.size(),
        static_cast<unsigned long long>(report->journaled_epochs),
        static_cast<unsigned long long>(report->resubmitted_epochs),
        recovery_ms, zero_loss ? "true" : "false",
        zero_loss ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", json_out.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
  }
  std::filesystem::remove_all(dir);
  return zero_loss;
}

/// The drop-rate sweep against the forest stream. Returns true when every
/// round's batch proves into an epoch the chain recorded, at every rate.
bool RunForestDropSweep(const std::vector<double>& drop_rates) {
  PrintHeader("Fault resilience: forest stage-2 confirmation vs drop rate");
  bool zero_loss = true;
  for (double drop : drop_rates) {
    ShardedDeploymentConfig config;
    config.engine.num_shards = 2;
    config.engine.node.batch_size = kBatch;
    config.engine.node.worker_threads = 4;
    config.engine.node.verify_client_signatures = false;
    config.chain.faults.drop_probability = drop;
    config.chain.faults.seed = 0xF0E5 + static_cast<uint64_t>(drop * 1000.0);
    config.engine_funding = EthToWei(1'000'000);
    auto made = ShardedDeployment::Create(config);
    if (!made.ok()) std::abort();
    auto d = std::move(made).value();
    EpochRootAggregator* agg = d->engine().aggregator();
    KeyPair publisher = KeyPair::FromSeed(0xC11E);
    uint64_t seq = 0;

    std::vector<std::pair<TenantId, Stage1Response>> acked;
    uint64_t lag_blocks_total = 0;
    for (int round = 0; round < kRounds; ++round) {
      auto kvs = MakeWorkload(kBatch, kDefaultValueSize, kDefaultKeySize,
                              /*seed=*/1000 + round);
      std::vector<AppendRequest> batch;
      for (const auto& [k, v] : kvs) {
        batch.push_back(AppendRequest::Make(publisher, seq++, k, v));
      }
      const TenantId tenant = static_cast<TenantId>(round);
      auto responses = d->engine().Append(tenant, batch);
      if (!responses.ok()) std::abort();
      acked.emplace_back(tenant, responses->front());
      // Blocks until the round's epoch closes and its root is past the
      // confirmation depth — retries included.
      uint64_t blocks = 0;
      do {
        d->AdvanceBlocks(1);
        ++blocks;
      } while ((agg->epochs_unconfirmed() > 0 || agg->staged_count() > 0) &&
               blocks < kMaxBlocksPerRound);
      lag_blocks_total += blocks;
    }

    uint64_t committed = 0;
    for (const auto& [tenant, response] : acked) {
      auto proof = d->engine().ProveAggregation(tenant, response.index.log_id);
      if (!proof.ok()) continue;
      PublisherClient client = d->MakePublisher(tenant);
      auto check = client.CheckForestCommit(*proof);
      if (client.VerifyAggregation(response, *proof) && check.ok() &&
          *check == CommitCheck::kBlockchainCommitted) {
        ++committed;
      }
    }
    const bool lossless = committed == acked.size();
    zero_loss = zero_loss && lossless;

    Stage2SubmitterStats stats = agg->stage2_submitter().stats();
    MetricsSnapshot snap = d->telemetry().metrics.Snapshot();
    JsonRow row =
        MakeRow("fault_resilience_forest", config.chain.faults.seed, kBatch);
    StampFaults(row, config.chain.faults);
    row.Field("drop_probability", drop)
        .Field("rounds", static_cast<uint64_t>(kRounds))
        .Field("confirm_lag_blocks_avg",
               static_cast<double>(lag_blocks_total) / kRounds)
        .Field("injected_txs_dropped",
               snap.CounterValue("wedge.faults.txs_dropped"))
        .Field("observed_txs_timed_out", stats.txs_timed_out)
        .Field("observed_txs_reverted", stats.txs_reverted)
        .Field("forest_txs", snap.CounterValue("wedge.engine.forest_txs"))
        .Field("forest_tx_retries",
               snap.CounterValue("wedge.engine.forest_tx_retries"))
        .Field("epochs_confirmed", agg->epochs_confirmed())
        .Field("batches_committed", committed)
        .Field("zero_loss", std::string(lossless ? "true" : "false"));
    row.Print();
  }
  return zero_loss;
}

}  // namespace

int Main(int argc, char** argv) {
  PrintHeader("Fault resilience: stage-2 confirmation vs tx drop rate");
  const std::string telemetry_out = TelemetryOutArg(argc, argv);
  std::string chaos_json = "BENCH_chaos.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--chaos-json") chaos_json = argv[i + 1];
  }

  const std::vector<double> kDropRates = {0.0, 0.05, 0.10, 0.15, 0.20};
  bool first_rate = true;
  for (double drop : kDropRates) {
    ShardedDeploymentConfig config;
    config.engine.num_shards = 1;
    config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
    config.engine.node.batch_size = kBatch;
    config.engine.node.worker_threads = 4;
    config.engine.node.verify_client_signatures = false;
    config.chain.faults.drop_probability = drop;
    // Independent draws per rate: with a shared seed the same uniform
    // sequence decides every rate and one unlucky seed flattens the sweep.
    config.chain.faults.seed = 0xBE7C + static_cast<uint64_t>(drop * 1000.0);
    config.engine_funding = EthToWei(1'000'000);
    config.client_funding = EthToWei(1'000'000);
    auto made = ShardedDeployment::Create(config);
    if (!made.ok()) std::abort();
    auto d = std::move(made).value();
    PublisherClient pub = d->MakePublisher(0);
    OffchainNode& node = d->engine().shard(0);

    double stage1_ms_total = 0.0;
    uint64_t lag_blocks_total = 0;
    for (int round = 0; round < kRounds; ++round) {
      auto kvs = MakeWorkload(kBatch, kDefaultValueSize, kDefaultKeySize,
                              /*seed=*/1000 + round);
      Stopwatch sw(RealClock::Global());
      auto responses = pub.Publish(pub.MakeRequests(kvs));
      stage1_ms_total += sw.ElapsedSeconds() * 1e3;
      if (!responses.ok()) std::abort();

      // Simulated chain time until every digest of the round is past the
      // confirmation depth — retries included.
      uint64_t blocks = 0;
      while (node.UncommittedDigests() > 0 &&
             blocks < kMaxBlocksPerRound) {
        d->AdvanceBlocks(1);
        ++blocks;
      }
      if (node.UncommittedDigests() > 0) std::abort();  // Lost root.
      lag_blocks_total += blocks;
    }

    double lag_blocks_avg = static_cast<double>(lag_blocks_total) / kRounds;
    double lag_s_avg =
        lag_blocks_avg * d->chain().config().block_interval_seconds;
    MetricsSnapshot snap = d->telemetry().metrics.Snapshot();
    JsonRow row = MakeRow("fault_resilience", config.chain.faults.seed, kBatch);
    StampFaults(row, config.chain.faults);
    row.Field("drop_probability", drop)
        .Field("rounds", static_cast<uint64_t>(kRounds))
        .Field("stage1_latency_ms_avg", stage1_ms_total / kRounds)
        .Field("confirm_lag_blocks_avg", lag_blocks_avg)
        .Field("confirm_lag_s_avg", lag_s_avg);
    StampHistogram(row, snap, "wedge.node.append_us", "stage1_append_us");
    StampHistogram(row, snap, "wedge.stage2.confirm_lag_us", "confirm_lag_us");
    StampHistogram(row, snap, "wedge.stage2.confirm_lag_blocks",
                   "confirm_lag_blocks");
    StampFaultAndRetryCounters(row, snap);
    row.Print();
    // One telemetry file for the sweep: truncate on the first rate,
    // append the rest (each dump is a self-contained JSONL section).
    MaybeWriteTelemetry(telemetry_out, d->telemetry(),
                        /*truncate=*/first_rate);
    first_rate = false;
  }
  std::printf(
      "\nshape checks: stage-1 latency flat across drop rates; "
      "confirmation lag grows with drop probability (timeout + backoff "
      "per retry); digests_confirmed equals rounds at every rate — no "
      "root is ever lost.\n");

  const bool forest_ok = RunForestDropSweep(kDropRates);
  const bool chaos_ok = RunShardedCrashRecovery(chaos_json);
  return forest_ok && chaos_ok ? 0 : 1;
}

}  // namespace bench
}  // namespace wedge

int main(int argc, char** argv) { return wedge::bench::Main(argc, argv); }
