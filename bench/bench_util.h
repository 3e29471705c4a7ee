#ifndef WEDGEBLOCK_BENCH_BENCH_UTIL_H_
#define WEDGEBLOCK_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "common/random.h"
#include "crypto/signer_key_cache.h"
#include "shard/sharded_engine.h"
#include "telemetry/export.h"

namespace wedge {
namespace bench {

/// Paper default append payload: 64-byte key + value (default 1024 B),
/// ~1 KB per operation (§6.2).
constexpr size_t kDefaultKeySize = 64;
constexpr size_t kDefaultValueSize = 1024;

/// Generates a key-value workload.
inline std::vector<std::pair<Bytes, Bytes>> MakeWorkload(
    size_t n, size_t value_size = kDefaultValueSize,
    size_t key_size = kDefaultKeySize, uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<std::pair<Bytes, Bytes>> kvs;
  kvs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    kvs.emplace_back(rng.NextBytes(key_size), rng.NextBytes(value_size));
  }
  return kvs;
}

/// Builds append requests WITHOUT paying client-side ECDSA cost (dummy
/// signatures). Pair with OffchainNodeConfig.verify_client_signatures =
/// false: the benches measure the Offchain Node pipeline, and this keeps
/// our single-core harness comparable to the paper's 96-thread client
/// machine (see EXPERIMENTS.md, "calibration").
inline std::vector<AppendRequest> MakeUnsignedRequests(
    const Address& publisher,
    const std::vector<std::pair<Bytes, Bytes>>& kvs) {
  std::vector<AppendRequest> reqs;
  reqs.reserve(kvs.size());
  uint64_t seq = 0;
  for (const auto& [k, v] : kvs) {
    AppendRequest req;
    req.publisher = publisher;
    req.sequence = seq++;
    req.key = k;
    req.value = v;
    req.signature.r = U256(1);
    req.signature.s = U256(1);
    reqs.push_back(std::move(req));
  }
  return reqs;
}

/// A deployment pre-configured for benchmarking: the 1-shard engine with
/// classic stage 2 (what `wedgeblockd` serves by default), signature
/// verification off (see above), everything else per the paper's
/// defaults. Append through `engine().Append(0, ...)`, the call the RPC
/// dispatcher makes. `replication_followers` > 0 replicates the shard's
/// memory store to that many memory followers (Figures 3/5 red curves
/// use 2).
inline std::unique_ptr<ShardedDeployment> MakeBenchDeployment(
    uint32_t batch_size, int replication_followers = 0,
    bool sign_responses = true, bool auto_stage2 = true) {
  ShardedDeploymentConfig config;
  config.engine.num_shards = 1;
  config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
  config.engine.node.batch_size = batch_size;
  config.engine.node.worker_threads = 4;
  config.engine.node.verify_client_signatures = false;
  config.engine.node.sign_stage1_responses = sign_responses;
  config.engine.node.auto_stage2 = auto_stage2;
  config.engine_funding = EthToWei(1'000'000);
  config.client_funding = EthToWei(1'000'000);
  std::vector<std::unique_ptr<LogStore>> stores;
  if (replication_followers > 0) {
    std::vector<std::unique_ptr<LogStore>> followers;
    for (int i = 0; i < replication_followers; ++i) {
      followers.push_back(std::make_unique<MemoryLogStore>());
    }
    stores.push_back(std::make_unique<ReplicatedLogStore>(
        std::make_unique<MemoryLogStore>(), std::move(followers)));
  }
  auto d = ShardedDeployment::Create(config, /*publisher_seed=*/0xC11E,
                                     std::move(stores));
  if (!d.ok()) {
    std::fprintf(stderr, "deployment failed: %s\n",
                 d.status().ToString().c_str());
    std::abort();
  }
  return std::move(d).value();
}

/// Checks the first SignerKeyCache::kTableAfterChecks of `responses`
/// against `engine`, untimed, so the engine key is cached with its table
/// before a timed sample of checks. The sample then measures the
/// per-response check a publisher pays on a batch, and the key's one-time
/// admission (its first recoveries and its table build, once per process)
/// is not projected onto every response of the batch.
inline void AdmitEngineKey(const std::vector<Stage1Response>& responses,
                           const Address& engine) {
  const size_t n =
      std::min<size_t>(SignerKeyCache::kTableAfterChecks, responses.size());
  for (size_t i = 0; i < n; ++i) {
    if (!responses[i].Verify(engine)) std::abort();
  }
}

/// Mines all pending stage-2 transactions and returns the on-chain cost
/// per operation in ETH, excluding fees paid before `fees_before` (e.g.
/// the deployment-phase gas).
inline double Stage2EthPerOp(ShardedDeployment& d, const Wei& fees_before,
                             uint64_t ops) {
  d.AdvanceBlocks(4);
  Wei fees = d.chain().TotalFeesPaid(d.engine().address()) - fees_before;
  return WeiToEthDouble(fees) / static_cast<double>(ops);
}

/// Pretty printing helpers shared by the figure harnesses.
inline void PrintHeader(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

/// Machine-readable bench output: one JSON object per line (JSON Lines),
/// fields emitted in call order. Keys and string values must not need
/// escaping (plain identifiers).
class JsonRow {
 public:
  JsonRow& Field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return Raw(key, buf);
  }
  JsonRow& Field(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonRow& Field(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + value + "\"");
  }
  void Print() const { std::printf("{%s}\n", fields_.c_str()); }

 private:
  JsonRow& Raw(const std::string& key, const std::string& literal) {
    if (!fields_.empty()) fields_ += ", ";
    fields_ += "\"" + key + "\": " + literal;
    return *this;
  }
  std::string fields_;
};

/// The single bench-row factory: every bench row starts here so each one
/// carries the run configuration (bench name, seed, batch size) and rows
/// from different benches stay mergeable in one JSONL stream.
inline JsonRow MakeRow(const std::string& bench_name, uint64_t seed,
                       uint32_t batch_size) {
  JsonRow row;
  row.Field("bench", bench_name)
      .Field("seed", seed)
      .Field("batch_size", static_cast<uint64_t>(batch_size));
  return row;
}

/// Stamps the chain fault configuration onto a row (only the non-zero
/// probabilities, to keep fault-free rows compact).
inline JsonRow& StampFaults(JsonRow& row, const FaultConfig& faults) {
  if (faults.drop_probability > 0) {
    row.Field("fault_drop_p", faults.drop_probability);
  }
  if (faults.evict_probability > 0) {
    row.Field("fault_evict_p", faults.evict_probability);
  }
  if (faults.revert_probability > 0) {
    row.Field("fault_revert_p", faults.revert_probability);
  }
  if (faults.delay_probability > 0) {
    row.Field("fault_delay_p", faults.delay_probability);
  }
  if (faults.gas_spike_probability > 0) {
    row.Field("fault_gas_spike_p", faults.gas_spike_probability);
  }
  return row;
}

/// Adds `<prefix>_p50/_p95/_p99/_max` of the named registry histogram to
/// the row. No-op when the histogram is absent or empty.
inline JsonRow& StampHistogram(JsonRow& row, const MetricsSnapshot& snap,
                               const std::string& metric,
                               const std::string& prefix) {
  const HistogramSnapshot* h = snap.FindHistogram(metric);
  if (h == nullptr || h->count == 0) return row;
  row.Field(prefix + "_p50", static_cast<uint64_t>(h->ValueAtQuantile(0.50)))
      .Field(prefix + "_p95", static_cast<uint64_t>(h->ValueAtQuantile(0.95)))
      .Field(prefix + "_p99", static_cast<uint64_t>(h->ValueAtQuantile(0.99)))
      .Field(prefix + "_max", static_cast<uint64_t>(h->max));
  return row;
}

/// Adds the injected-fault counters (`wedge.faults.*`) and the stage-2
/// pipeline's observed retry/timeout/revert counters (`wedge.stage2.*`)
/// to the row, so reports can compare injected vs observed fault counts.
inline JsonRow& StampFaultAndRetryCounters(JsonRow& row,
                                           const MetricsSnapshot& snap) {
  row.Field("injected_txs_dropped",
            snap.CounterValue("wedge.faults.txs_dropped"))
      .Field("injected_txs_evicted",
             snap.CounterValue("wedge.faults.txs_evicted"))
      .Field("injected_txs_reverted",
             snap.CounterValue("wedge.faults.txs_reverted"))
      .Field("observed_txs_timed_out",
             snap.CounterValue("wedge.stage2.txs_timed_out"))
      .Field("observed_txs_reverted",
             snap.CounterValue("wedge.stage2.txs_reverted"))
      .Field("stage2_txs_retried",
             snap.CounterValue("wedge.stage2.txs_retried"))
      .Field("stage2_digests_confirmed",
             snap.CounterValue("wedge.stage2.digests_confirmed"));
  return row;
}

/// Parses an optional `--telemetry-out <path>` flag. Returns "" when the
/// flag is absent (benches that take no other flags share this).
inline std::string TelemetryOutArg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--telemetry-out") return argv[i + 1];
  }
  return "";
}

/// Appends (or creates, when `truncate` is set) a telemetry dump at
/// `path`. Errors are reported to stderr but never fail the bench.
inline void MaybeWriteTelemetry(const std::string& path,
                                const Telemetry& telemetry,
                                bool truncate = false) {
  if (path.empty()) return;
  Status s = WriteTelemetryFile(path, telemetry, /*append=*/!truncate);
  if (!s.ok()) {
    std::fprintf(stderr, "telemetry write failed: %s\n",
                 s.ToString().c_str());
  }
}

}  // namespace bench
}  // namespace wedge

#endif  // WEDGEBLOCK_BENCH_BENCH_UTIL_H_
