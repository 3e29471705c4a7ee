// Reproduces Figure 4: Publisher-side latency vs batch size (paper §6.3):
//   - first operation delay: time to the first stage-1 response (includes
//     building the whole Merkle tree),
//   - last operation delay: time until every response is produced,
//   - stage-1 commitment delay: last delay + the publisher verifying all
//     responses.
// Also reports the average stage-2 commitment latency (paper: ~43 s of
// chain time, independent of batch size).

#include "bench/bench_util.h"

namespace wedge {
namespace bench {
namespace {

constexpr int kVerifySample = 128;  // Responses verified to project the
                                    // full-batch verification cost.

}  // namespace

void Main(int argc, char** argv) {
  PrintHeader("Figure 4: publisher latency vs batch size");
  const std::string telemetry_out = TelemetryOutArg(argc, argv);
  std::printf("%-10s %12s %12s %14s %14s\n", "batch", "first(ms)", "last(ms)",
              "stage1(ms)", "stage2(s,sim)");

  const uint32_t kBatchSizes[] = {500, 1000, 2000, 4000, 8000, 10000};
  for (uint32_t batch : kBatchSizes) {
    auto d = MakeBenchDeployment(batch);
    auto kvs = MakeWorkload(batch);
    auto reqs = MakeUnsignedRequests(d->MakePublisher(0).address(), kvs);

    // First-op delay: tree construction + one proof + one signature. We
    // measure it directly by sealing a single-entry... no: the first
    // response cannot be produced before the whole batch's tree exists,
    // so measure tree build over the real leaves + one sign.
    std::vector<Bytes> leaves;
    leaves.reserve(reqs.size());
    for (const auto& r : reqs) leaves.push_back(r.Serialize());
    Stopwatch sw(RealClock::Global());
    auto tree = MerkleTree::Build(leaves);
    Hash256 h = Sha256::Digest("probe");
    KeyPair probe = KeyPair::FromSeed(1);
    (void)EcdsaSign(probe.private_key(), h);
    double first_ms = sw.ElapsedSeconds() * 1e3;

    // Last-op delay: the full Append call.
    sw.Reset();
    auto responses = d->engine().Append(/*tenant=*/0, reqs);
    double last_ms = sw.ElapsedSeconds() * 1e3;
    if (!responses.ok()) std::abort();

    // Stage-1 commitment delay: + verification of all responses
    // (projected from a sample; verification cost is linear).
    AdmitEngineKey(*responses, d->engine().address());
    sw.Reset();
    int sample = std::min<int>(kVerifySample, responses->size());
    for (int i = 0; i < sample; ++i) {
      if (!(*responses)[i].Verify(d->engine().address())) std::abort();
    }
    double verify_ms =
        sw.ElapsedSeconds() * 1e3 / sample * responses->size();
    double stage1_ms = last_ms + verify_ms;

    // Stage-2 latency in simulated chain time: submission to confirmed.
    Micros t0 = d->clock().NowMicros();
    d->AdvanceBlocks(d->chain().config().confirmations + 1);
    double stage2_s =
        static_cast<double>(d->clock().NowMicros() - t0) / kMicrosPerSecond;

    std::printf("%-10u %12.1f %12.1f %14.1f %14.1f\n", batch, first_ms,
                last_ms, stage1_ms, stage2_s);

    MetricsSnapshot snap = d->telemetry().metrics.Snapshot();
    JsonRow row = MakeRow("fig4_publisher_latency", /*seed=*/42, batch);
    row.Field("first_op_ms", first_ms)
        .Field("last_op_ms", last_ms)
        .Field("stage1_commit_ms", stage1_ms)
        .Field("stage2_commit_s", stage2_s);
    StampHistogram(row, snap, "wedge.node.append_us", "stage1_append_us");
    StampHistogram(row, snap, "wedge.node.seal_us", "seal_us");
    StampHistogram(row, snap, "wedge.stage2.confirm_lag_us", "confirm_lag_us");
    StampHistogram(row, snap, "wedge.stage2.confirm_lag_blocks",
                   "confirm_lag_blocks");
    StampFaultAndRetryCounters(row, snap);
    row.Print();
    MaybeWriteTelemetry(telemetry_out, d->telemetry(),
                        /*truncate=*/batch == kBatchSizes[0]);
  }
  std::printf(
      "\nshape checks: all three delays grow with batch size; first-op "
      "delay grows fastest relative (tree build up front); stage-2 is flat "
      "(~4 block intervals ~= paper's 43 s average).\n");
}

}  // namespace bench
}  // namespace wedge

int main(int argc, char** argv) { wedge::bench::Main(argc, argv); }
