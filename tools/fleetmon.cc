// fleetmon — fleet-wide observability scraper for wedgeblockd daemons.
//
// Polls the /metrics.json admin endpoint of every target each round,
// merges the per-process snapshots losslessly (counters/gauges sum,
// histogram buckets add, quantiles recomputed from the merged buckets —
// see src/telemetry/fleet_merge.h), and emits ONE consolidated JSONL row
// per round:
//
//   - fleet totals: rpc requests, entries ingested, error responses,
//     quota rejections, slow requests, dropped trace spans
//   - merged append-latency p50/p99 across every process
//   - cross-shard skew of entries ingested (max/mean; 1.0 = balanced)
//   - per-target health: up flag plus per-second error/quota/slow rates
//     over the scrape interval (first round reports cumulative counts)
//
// A target that fails to answer (connect refused, timeout, malformed
// body) is reported down for the round; the merge proceeds over the
// processes that did answer, so one dead shard never blinds the monitor.
//
// Usage:
//   fleetmon --targets H:P,H:P,... [--interval-ms N] [--rounds N]
//            [--out PATH]
//
// --rounds 0 polls forever (operator mode); the smoke tests use a small
// finite count. --out appends rows to PATH instead of stdout.

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/clock.h"
#include "common/result.h"
#include "net/http_client.h"
#include "telemetry/fleet_merge.h"
#include "telemetry/metrics.h"

namespace wedge {
namespace {

struct Target {
  std::string host;
  uint16_t port = 0;
  std::string label;  // "host:port" as given.
};

struct Options {
  std::vector<Target> targets;
  int64_t interval_ms = 1000;
  int64_t rounds = 1;
  std::string out;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --targets H:P,H:P,... [--interval-ms N]\n"
               "          [--rounds N] [--out PATH]\n"
               "--rounds 0 polls until killed.\n",
               argv0);
  return 2;
}

Result<std::vector<Target>> ParseTargets(const std::string& spec) {
  std::vector<Target> targets;
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    std::string item = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    while (!item.empty() && item.front() == ' ') item.erase(item.begin());
    while (!item.empty() && item.back() == ' ') item.pop_back();
    size_t colon = item.rfind(':');
    if (item.empty() || colon == std::string::npos || colon == 0) {
      return Status::InvalidArgument("--targets item must be host:port: '" +
                                     item + "'");
    }
    unsigned long p = std::strtoul(item.c_str() + colon + 1, nullptr, 10);
    if (p == 0 || p > 65535) {
      return Status::InvalidArgument("bad port in '" + item + "'");
    }
    Target t;
    t.host = item.substr(0, colon);
    t.port = static_cast<uint16_t>(p);
    t.label = item;
    targets.push_back(std::move(t));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return targets;
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
    if (flag == "--targets") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      WEDGE_ASSIGN_OR_RETURN(opts.targets, ParseTargets(v));
    } else if (flag == "--interval-ms") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.interval_ms = std::atoll(v.c_str());
    } else if (flag == "--rounds") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.rounds = std::atoll(v.c_str());
    } else if (flag == "--out") {
      WEDGE_ASSIGN_OR_RETURN(opts.out, next());
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (opts.targets.empty()) {
    return Status::InvalidArgument("need --targets");
  }
  if (opts.interval_ms < 1 || opts.rounds < 0) {
    return Status::InvalidArgument("bad flag value");
  }
  return opts;
}

/// Counters a per-target rate is derived from between rounds.
struct TargetCounters {
  bool seen = false;
  uint64_t errors = 0;
  uint64_t quota = 0;
  uint64_t slow = 0;
};

uint64_t QuotaRejections(const MetricsSnapshot& snap) {
  return snap.CounterValue("wedge.engine.quota_rejections_rate") +
         snap.CounterValue("wedge.engine.quota_rejections_inflight") +
         snap.CounterValue("wedge.engine.quota_rejections_tenant");
}

void AppendF(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

int Run(const Options& opts) {
  FILE* sink = stdout;
  if (!opts.out.empty()) {
    sink = std::fopen(opts.out.c_str(), "a");
    if (sink == nullptr) {
      std::fprintf(stderr, "fleetmon: cannot open %s\n", opts.out.c_str());
      return 1;
    }
  }
  std::vector<TargetCounters> prev(opts.targets.size());
  double interval_s = static_cast<double>(opts.interval_ms) / 1000.0;
  for (int64_t round = 0; opts.rounds == 0 || round < opts.rounds; ++round) {
    if (round > 0) usleep(static_cast<useconds_t>(opts.interval_ms * 1000));
    std::vector<MetricsSnapshot> up_snaps;
    std::string per_target = "[";
    size_t up = 0;
    for (size_t i = 0; i < opts.targets.size(); ++i) {
      const Target& t = opts.targets[i];
      if (i > 0) per_target += ", ";
      Result<HttpResponse> resp =
          HttpGet(t.host, t.port, "/metrics.json", 3 * kMicrosPerSecond);
      Result<MetricsSnapshot> snap =
          resp.ok() && resp->status == 200
              ? ParseMetricsJsonLines(resp->body)
              : Result<MetricsSnapshot>(
                    resp.ok() ? Status::Unavailable(
                                    "http " + std::to_string(resp->status))
                              : resp.status());
      if (!snap.ok()) {
        prev[i].seen = false;
        AppendF(per_target, "{\"target\": \"%s\", \"up\": false}",
                t.label.c_str());
        continue;
      }
      ++up;
      uint64_t errors = snap->CounterValue("wedge.rpc.responses_error");
      uint64_t quota = QuotaRejections(*snap);
      uint64_t slow = snap->CounterValue("wedge.rpc.slow_requests");
      // First sight of a target reports rates over its whole lifetime
      // baseline (cumulative / interval is meaningless), so rates are
      // emitted only once a previous round established a baseline.
      AppendF(per_target,
              "{\"target\": \"%s\", \"up\": true, \"requests\": %llu, "
              "\"entries_ingested\": %llu",
              t.label.c_str(),
              static_cast<unsigned long long>(
                  snap->CounterValue("wedge.rpc.requests")),
              static_cast<unsigned long long>(
                  snap->CounterValue("wedge.node.entries_ingested")));
      if (prev[i].seen) {
        AppendF(per_target,
                ", \"err_per_s\": %.3f, \"quota_per_s\": %.3f, "
                "\"slow_per_s\": %.3f",
                (errors - prev[i].errors) / interval_s,
                (quota - prev[i].quota) / interval_s,
                (slow - prev[i].slow) / interval_s);
      }
      AppendF(per_target,
              ", \"errors\": %llu, \"quota_rejections\": %llu, "
              "\"slow_requests\": %llu}",
              static_cast<unsigned long long>(errors),
              static_cast<unsigned long long>(quota),
              static_cast<unsigned long long>(slow));
      prev[i] = {true, errors, quota, slow};
      up_snaps.push_back(std::move(snap).value());
    }
    per_target += "]";

    MetricsSnapshot merged = MergeSnapshots(up_snaps);
    double skew = CounterSkew(up_snaps, "wedge.node.entries_ingested");
    std::string row = "{\"kind\": \"fleetmon\"";
    AppendF(row, ", \"round\": %lld", static_cast<long long>(round));
    AppendF(row, ", \"at_us\": %lld",
            static_cast<long long>(RealClock::Global()->NowMicros()));
    AppendF(row, ", \"targets\": %zu, \"up\": %zu", opts.targets.size(), up);
    AppendF(row, ", \"skew_entries_ingested\": %.4f", skew);
    AppendF(row, ", \"requests\": %llu",
            static_cast<unsigned long long>(
                merged.CounterValue("wedge.rpc.requests")));
    AppendF(row, ", \"entries_ingested\": %llu",
            static_cast<unsigned long long>(
                merged.CounterValue("wedge.node.entries_ingested")));
    AppendF(row, ", \"responses_error\": %llu",
            static_cast<unsigned long long>(
                merged.CounterValue("wedge.rpc.responses_error")));
    AppendF(row, ", \"quota_rejections\": %llu",
            static_cast<unsigned long long>(QuotaRejections(merged)));
    AppendF(row, ", \"slow_requests\": %llu",
            static_cast<unsigned long long>(
                merged.CounterValue("wedge.rpc.slow_requests")));
    AppendF(row, ", \"trace_dropped\": %llu",
            static_cast<unsigned long long>(
                merged.CounterValue("wedge.trace.dropped")));
    AppendF(row, ", \"epochs_closed\": %llu",
            static_cast<unsigned long long>(
                merged.CounterValue("wedge.engine.epochs_closed")));
    const HistogramSnapshot* append_us =
        merged.FindHistogram("wedge.rpc.op_us{op=appendT}");
    if (append_us != nullptr && append_us->count > 0) {
      AppendF(row, ", \"append_p50_us\": %llu, \"append_p99_us\": %llu",
              static_cast<unsigned long long>(append_us->ValueAtQuantile(0.5)),
              static_cast<unsigned long long>(
                  append_us->ValueAtQuantile(0.99)));
    }
    row += ", \"per_target\": " + per_target + "}";
    std::fprintf(sink, "%s\n", row.c_str());
    std::fflush(sink);
  }
  if (sink != stdout) std::fclose(sink);
  return 0;
}

}  // namespace
}  // namespace wedge

int main(int argc, char** argv) {
  const char* skip = std::getenv("WEDGE_SKIP_SOCKET_TESTS");
  if (skip != nullptr && skip[0] == '1') {
    std::printf("fleetmon SKIPPED (WEDGE_SKIP_SOCKET_TESTS)\n");
    return 0;
  }
  auto opts = wedge::Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "%s\n", opts.status().ToString().c_str());
    return wedge::Usage(argv[0]);
  }
  return wedge::Run(*opts);
}
