// Reproduces Figure 3: Offchain Node ingest throughput and on-chain
// monetary cost per operation as a function of the batch size, with and
// without replication (paper §6.3, "Varying the Batch Size").
//
// Paper shape to reproduce: throughput declines mildly (<~18%) as batch
// size grows 500 -> 10000; cost per op drops steeply (~87%) because one
// stage-2 digest write amortizes over more operations.

#include "bench/bench_util.h"
#include "bench/shard_equiv.h"

namespace wedge {
namespace bench {
namespace {

struct Row {
  uint32_t batch_size;
  double tput_ops;        // Signed stage-1 throughput, ops/s.
  double tput_repl_ops;   // Same with 2 replication followers.
  double merkle_ops;      // Tree+proof-only throughput (shows log factor).
  double eth_per_op;      // Stage-2 cost per operation.
};

double RunIngest(uint32_t batch_size, int followers, bool sign,
                 size_t n_entries, double* eth_per_op,
                 MetricsSnapshot* snap_out = nullptr,
                 const std::string& telemetry_out = "",
                 bool telemetry_truncate = false) {
  auto d = MakeBenchDeployment(batch_size, followers, sign);
  auto kvs = MakeWorkload(n_entries);
  auto reqs = MakeUnsignedRequests(d->MakePublisher(0).address(), kvs);
  Wei fees_before = d->chain().TotalFeesPaid(d->engine().address());

  Stopwatch sw(RealClock::Global());
  auto responses = d->engine().Append(/*tenant=*/0, reqs);
  double secs = sw.ElapsedSeconds();
  if (!responses.ok()) {
    std::fprintf(stderr, "append failed: %s\n",
                 responses.status().ToString().c_str());
    std::abort();
  }
  if (eth_per_op != nullptr) {
    *eth_per_op = Stage2EthPerOp(*d, fees_before, n_entries);
  }
  if (snap_out != nullptr) *snap_out = d->telemetry().metrics.Snapshot();
  MaybeWriteTelemetry(telemetry_out, d->telemetry(), telemetry_truncate);
  return static_cast<double>(n_entries) / secs;
}

}  // namespace

void Main(int argc, char** argv) {
  PrintHeader("Figure 3: throughput & cost/op vs batch size");
  // These single-node rows must also describe `wedgeblockd --shards 1`:
  // pin the degenerate engine to the bare node before measuring.
  AssertDegenerateEngineMatchesBareNode(/*batch_size=*/500,
                                        /*n_entries=*/1000);
  const std::string telemetry_out = TelemetryOutArg(argc, argv);
  std::printf("%-10s %14s %18s %16s %14s\n", "batch", "tput(ops/s)",
              "tput-repl(ops/s)", "merkle-only(ops/s)", "ETH/op");

  const uint32_t kBatchSizes[] = {500, 1000, 2000, 4000, 8000, 10000};
  double first_tput = 0, last_tput = 0, first_cost = 0, last_cost = 0;
  for (uint32_t batch : kBatchSizes) {
    // One full batch per config keeps total runtime bounded; signing
    // dominates so per-batch throughput is representative.
    size_t n = batch;
    double eth = 0;
    MetricsSnapshot snap;
    double tput = RunIngest(batch, 0, true, n, &eth, &snap, telemetry_out,
                            /*telemetry_truncate=*/batch == kBatchSizes[0]);
    double tput_repl = RunIngest(batch, 2, true, n, nullptr);
    double merkle = RunIngest(batch, 0, false, n, nullptr);
    std::printf("%-10u %14.0f %18.0f %16.0f %14.3e\n", batch, tput, tput_repl,
                merkle, eth);
    JsonRow row = MakeRow("fig3_batch_size", /*seed=*/42, batch);
    row.Field("throughput_ops", tput)
        .Field("throughput_repl_ops", tput_repl)
        .Field("merkle_only_ops", merkle)
        .Field("eth_per_op", eth);
    StampHistogram(row, snap, "wedge.node.append_us", "stage1_append_us");
    StampHistogram(row, snap, "wedge.node.seal_us", "seal_us");
    StampHistogram(row, snap, "wedge.stage2.confirm_lag_us", "confirm_lag_us");
    StampFaultAndRetryCounters(row, snap);
    row.Print();
    if (batch == kBatchSizes[0]) {
      first_tput = tput;
      first_cost = eth;
    }
    last_tput = tput;
    last_cost = eth;
  }
  std::printf(
      "\nshape checks: throughput change 500->10000 = %+.1f%% "
      "(paper: ~-18%%), cost change = %+.1f%% (paper: ~-87%%)\n",
      100.0 * (last_tput - first_tput) / first_tput,
      100.0 * (last_cost - first_cost) / first_cost);
}

}  // namespace bench
}  // namespace wedge

int main(int argc, char** argv) { wedge::bench::Main(argc, argv); }
