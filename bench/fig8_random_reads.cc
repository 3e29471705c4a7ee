// Reproduces Figure 8: random-key read throughput as a function of the
// batch size used at ingest time (paper §6.3, "Reading Experiments").
//
// Paper setup: 10M-entry log, 50k random reads, throughput 1800-2100
// ops/s, roughly independent of batch size. Scaled here to a 30k-entry
// log and 600 random reads per configuration (single-core harness); the
// shape — flat across batch sizes — is what is being reproduced. Each
// read includes the Offchain Node generating a signed response and the
// User verifying it.

#include "bench/bench_util.h"

namespace wedge {
namespace bench {
namespace {

constexpr size_t kLogEntries = 30'000;
constexpr size_t kReads = 600;

}  // namespace

void Main() {
  PrintHeader("Figure 8: random read throughput vs ingest batch size");
  std::printf("%-10s %16s\n", "batch", "reads/s");

  const uint32_t kBatchSizes[] = {500, 1000, 2000, 4000, 8000, 10000};
  double min_tput = 1e18, max_tput = 0;
  for (uint32_t batch : kBatchSizes) {
    // Preload the log without response signatures (setup cost only).
    auto d = MakeBenchDeployment(batch, 0, /*sign_responses=*/false,
                                 /*auto_stage2=*/false);
    auto kvs = MakeWorkload(kLogEntries);
    auto reqs = MakeUnsignedRequests(d->MakePublisher(0).address(), kvs);
    if (!d->engine().Append(/*tenant=*/0, std::move(reqs)).ok()) std::abort();

    UserClient user = d->MakeUser(/*tenant=*/0, /*seed=*/7);
    Rng rng(batch);
    std::vector<EntryIndex> indices;
    indices.reserve(kReads);
    uint64_t positions = d->engine().shard(0).LogPositions();
    for (size_t i = 0; i < kReads; ++i) {
      uint64_t log_id = rng.Uniform(positions);
      uint32_t limit = static_cast<uint32_t>(
          std::min<uint64_t>(batch, kLogEntries - log_id * batch));
      indices.push_back(
          EntryIndex{log_id, static_cast<uint32_t>(rng.Uniform(limit))});
    }

    Stopwatch sw(RealClock::Global());
    for (const EntryIndex& idx : indices) {
      auto r = user.ReadVerified(idx);
      if (!r.ok()) {
        std::fprintf(stderr, "read failed: %s\n", r.status().ToString().c_str());
        std::abort();
      }
    }
    double tput = kReads / sw.ElapsedSeconds();
    std::printf("%-10u %16.0f\n", batch, tput);
    min_tput = std::min(min_tput, tput);
    max_tput = std::max(max_tput, tput);
  }
  std::printf(
      "\nshape check: read throughput varies only %.1f%% across batch "
      "sizes (paper: flat, 1800-2100 ops/s on their hardware).\n",
      100.0 * (max_tput - min_tput) / max_tput);
}

}  // namespace bench
}  // namespace wedge

int main() { wedge::bench::Main(); }
