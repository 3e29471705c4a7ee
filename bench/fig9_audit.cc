// Reproduces Figure 9: full-log audit latency vs number of audited
// operations, and the share of time spent in verification (paper §6.3,
// "Reading Experiments": latency linear in audit size; ~42% of time in
// verification).
//
// Scaled from the paper's 10k-200k operations to 500-4000 (single-core
// harness; the paper's client verified with 96 threads). Linearity and
// the verification share are the reproduced shapes.

#include "bench/bench_util.h"

namespace wedge {
namespace bench {

void Main() {
  PrintHeader("Figure 9: audit latency vs audited operations (batch=500)");
  std::printf("%-12s %14s %16s %14s\n", "operations", "latency(s)",
              "verify-share(%)", "ops/s");

  constexpr uint32_t kBatch = 500;
  constexpr size_t kLogEntries = 4000;
  auto d = MakeBenchDeployment(kBatch);
  auto kvs = MakeWorkload(kLogEntries);
  auto reqs = MakeUnsignedRequests(d->MakePublisher(0).address(), kvs);
  if (!d->engine().Append(/*tenant=*/0, std::move(reqs)).ok()) std::abort();
  d->AdvanceBlocks(4);  // Stage-2 digests all land.

  AuditorClient auditor = d->MakeAuditor(/*tenant=*/0, /*seed=*/9);
  // Warm-up pass: fill CPU caches / ramp the clock before measuring so
  // the smallest audit is not penalized.
  if (!auditor.Audit(0, 1).ok()) std::abort();

  const size_t kAuditSizes[] = {500, 1000, 2000, 4000};
  double first_latency = 0, first_n = 0, last_latency = 0, last_n = 0;
  for (size_t n : kAuditSizes) {
    uint64_t last_position = n / kBatch - 1;
    auto report = auditor.Audit(0, last_position);
    if (!report.ok()) {
      std::fprintf(stderr, "audit failed: %s\n",
                   report.status().ToString().c_str());
      std::abort();
    }
    if (!report->Clean()) std::abort();
    double total_s = static_cast<double>(report->read_micros +
                                         report->verify_micros) /
                     kMicrosPerSecond;
    double share = 100.0 * report->verify_micros /
                   (report->read_micros + report->verify_micros);
    std::printf("%-12zu %14.2f %16.1f %14.0f\n", n, total_s, share,
                report->entries_checked / total_s);
    if (n == kAuditSizes[0]) {
      first_latency = total_s;
      first_n = n;
    }
    last_latency = total_s;
    last_n = n;
  }
  double scaling = (last_latency / first_latency) / (last_n / first_n);
  std::printf(
      "\nshape checks: latency scales ~linearly with audit size "
      "(normalized slope %.2f, 1.0 = perfectly linear; paper: linear); "
      "verification consumes a large share of audit time (paper: ~42%%).\n",
      scaling);
}

}  // namespace bench
}  // namespace wedge

int main() { wedge::bench::Main(); }
