// Reproduces Figure 5: throughput (MB/s and ops/s) and cost/op as the
// append value size varies, batch size fixed at 2000 (paper §6.3,
// "Varying the Value Size").
//
// Paper shape: MB/s throughput INCREASES with value size (hashing larger
// leaves is cheap relative to the per-op pipeline), replication changes
// little, and cost/op stays flat (digest size is independent of value
// size).

#include "bench/bench_util.h"

namespace wedge {
namespace bench {

void Main() {
  PrintHeader("Figure 5: throughput & cost/op vs value size (batch=2000)");
  std::printf("%-12s %12s %14s %16s %14s\n", "value(B)", "ops/s", "MB/s",
              "MB/s-repl", "ETH/op");

  const size_t kValueSizes[] = {512, 1024, 2048, 4096};
  constexpr uint32_t kBatch = 2000;
  double first_mbps = 0, last_mbps = 0, first_cost = 0, last_cost = 0;
  for (size_t value_size : kValueSizes) {
    double op_bytes = static_cast<double>(value_size + kDefaultKeySize);

    auto run = [&](int followers, double* eth) {
      auto d = MakeBenchDeployment(kBatch, followers);
      auto kvs = MakeWorkload(kBatch, value_size);
      auto reqs = MakeUnsignedRequests(d->MakePublisher(0).address(), kvs);
      Wei fees_before = d->chain().TotalFeesPaid(d->engine().address());
      Stopwatch sw(RealClock::Global());
      auto responses = d->engine().Append(/*tenant=*/0, reqs);
      double secs = sw.ElapsedSeconds();
      if (!responses.ok()) std::abort();
      if (eth != nullptr) *eth = Stage2EthPerOp(*d, fees_before, kBatch);
      return (kBatch * op_bytes / (1024.0 * 1024.0)) / secs;
    };

    double eth = 0;
    double mbps = run(0, &eth);
    double mbps_repl = run(2, nullptr);
    double ops = mbps * (1024.0 * 1024.0) / op_bytes;
    std::printf("%-12zu %12.0f %14.2f %16.2f %14.3e\n", value_size, ops, mbps,
                mbps_repl, eth);
    if (value_size == kValueSizes[0]) {
      first_mbps = mbps;
      first_cost = eth;
    }
    last_mbps = mbps;
    last_cost = eth;
  }
  std::printf(
      "\nshape checks: MB/s grows %0.1fx from 512B to 4096B (paper: grows "
      "with value size); cost/op changes %+.1f%% (paper: ~flat).\n",
      last_mbps / first_mbps,
      100.0 * (last_cost - first_cost) / (first_cost > 0 ? first_cost : 1));
}

}  // namespace bench
}  // namespace wedge

int main() { wedge::bench::Main(); }
