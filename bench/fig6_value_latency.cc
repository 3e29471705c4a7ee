// Reproduces Figure 6: publisher latency vs value size, batch fixed at
// 2000 (paper §6.3). Paper shape: all delays grow moderately with value
// size; stage-1 commitment delay grows ~66% over an 8x value increase —
// much slower than the payload growth.

#include "bench/bench_util.h"

namespace wedge {
namespace bench {

void Main() {
  PrintHeader("Figure 6: publisher latency vs value size (batch=2000)");
  std::printf("%-12s %12s %12s %14s\n", "value(B)", "first(ms)", "last(ms)",
              "stage1(ms)");

  const size_t kValueSizes[] = {512, 1024, 2048, 4096};
  constexpr uint32_t kBatch = 2000;
  constexpr int kVerifySample = 128;
  double first_stage1 = 0, last_stage1 = 0;
  for (size_t value_size : kValueSizes) {
    auto d = MakeBenchDeployment(kBatch);
    auto kvs = MakeWorkload(kBatch, value_size);
    auto reqs = MakeUnsignedRequests(d->MakePublisher(0).address(), kvs);

    std::vector<Bytes> leaves;
    leaves.reserve(reqs.size());
    for (const auto& r : reqs) leaves.push_back(r.Serialize());
    Stopwatch sw(RealClock::Global());
    (void)MerkleTree::Build(leaves);
    KeyPair probe = KeyPair::FromSeed(1);
    (void)EcdsaSign(probe.private_key(), Sha256::Digest("p"));
    double first_ms = sw.ElapsedSeconds() * 1e3;

    sw.Reset();
    auto responses = d->engine().Append(/*tenant=*/0, reqs);
    double last_ms = sw.ElapsedSeconds() * 1e3;
    if (!responses.ok()) std::abort();

    AdmitEngineKey(*responses, d->engine().address());
    sw.Reset();
    int sample = std::min<int>(kVerifySample, responses->size());
    for (int i = 0; i < sample; ++i) {
      if (!(*responses)[i].Verify(d->engine().address())) std::abort();
    }
    double stage1_ms =
        last_ms + sw.ElapsedSeconds() * 1e3 / sample * responses->size();

    std::printf("%-12zu %12.1f %12.1f %14.1f\n", value_size, first_ms, last_ms,
                stage1_ms);
    if (value_size == kValueSizes[0]) first_stage1 = stage1_ms;
    last_stage1 = stage1_ms;
  }
  std::printf(
      "\nshape check: stage-1 delay grows %+.0f%% over the 8x value-size "
      "increase (paper: +66%%) — far sublinear in payload size.\n",
      100.0 * (last_stage1 - first_stage1) / first_stage1);
}

}  // namespace bench
}  // namespace wedge

int main() { wedge::bench::Main(); }
