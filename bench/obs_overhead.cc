// obs_overhead — proves the observability plane is cheap enough to leave
// on: measures Offchain Node ingest/seal throughput with the full
// observability stack live (every append under a propagated ScopedTrace,
// admin HTTP endpoint up, a scraper hammering /metrics and /metrics.json
// concurrently) against an identical run with all of it off, and
// enforces that the cost stays under --max-overhead-pct (default 6%).
//
// The budget is relative, so it must be recalibrated whenever the append
// path itself gets faster: the secp256k1 fast path cut per-append cost
// ~7x (≈160µs → ≈23µs/entry on the reference box), which inflated the
// same ≈0.7µs/entry absolute tracing cost from <1% to ≈3%. The report
// therefore also carries overhead_us_per_entry — compare that across
// runs to distinguish a genuinely more expensive observability plane
// from a cheaper base path.
//
// Rounds alternate untraced/traced and the medians are compared, so a
// single noisy round (CPU frequency excursion, page-cache miss) does not
// produce a phantom regression. Writes a BENCH_obs.json report in the
// same shape as BENCH_shard.json, with `criteria_passed`.
//
// Usage:
//   obs_overhead [--batch N] [--batches N] [--rounds N]
//                [--max-overhead-pct F] [--json-out PATH] [--seed N]

#include <algorithm>
#include <atomic>
#include <fstream>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/http_client.h"
#include "rpc/admin_http.h"
#include "telemetry/tracer.h"

namespace wedge {
namespace bench {
namespace {

struct Options {
  uint32_t batch = 2000;
  size_t batches = 8;
  int rounds = 3;
  double max_overhead_pct = 6.0;
  std::string json_out = "BENCH_obs.json";
  uint64_t seed = 42;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--batch N] [--batches N] [--rounds N]\n"
               "          [--max-overhead-pct F] [--json-out PATH] "
               "[--seed N]\n",
               argv0);
  return 2;
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
    if (flag == "--batch") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.batch = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (flag == "--batches") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.batches = std::strtoul(v.c_str(), nullptr, 10);
    } else if (flag == "--rounds") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.rounds = std::atoi(v.c_str());
    } else if (flag == "--max-overhead-pct") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.max_overhead_pct = std::atof(v.c_str());
    } else if (flag == "--json-out") {
      WEDGE_ASSIGN_OR_RETURN(opts.json_out, next());
    } else if (flag == "--seed") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else {
      return Status::InvalidArgument("unknown flag " + flag);
    }
  }
  if (opts.batch == 0 || opts.batches == 0 || opts.rounds < 1) {
    return Status::InvalidArgument("bad flag value");
  }
  return opts;
}

/// One measured run: `batches` full batches through a fresh deployment.
/// `observed` turns on the whole plane: per-append ScopedTrace (a fresh
/// propagated trace id each batch, exactly what loadgen --trace-every 1
/// causes server-side) plus the admin endpoint with a live scraper.
double RunOnce(const Options& opts, bool observed, uint64_t* scrapes_out) {
  auto d = MakeBenchDeployment(opts.batch);
  auto kvs = MakeWorkload(opts.batch * opts.batches, kDefaultValueSize,
                          kDefaultKeySize, opts.seed);
  std::vector<std::vector<AppendRequest>> corpus;
  corpus.reserve(opts.batches);
  {
    auto all = MakeUnsignedRequests(d->MakePublisher(0).address(), kvs);
    for (size_t b = 0; b < opts.batches; ++b) {
      corpus.emplace_back(all.begin() + b * opts.batch,
                          all.begin() + (b + 1) * opts.batch);
    }
  }

  std::unique_ptr<AdminHttpServer> admin;
  std::thread scraper;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> scrapes{0};
  if (observed) {
    AdminHttpConfig admin_config;  // Ephemeral port on loopback.
    admin = std::make_unique<AdminHttpServer>(&d->telemetry(), admin_config);
    Status started = admin->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "admin start failed: %s\n",
                   started.ToString().c_str());
      std::abort();
    }
    uint16_t port = admin->port();
    scraper = std::thread([port, &done, &scrapes] {
      uint64_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto r = HttpGet("127.0.0.1", port,
                         (i++ % 2 == 0) ? "/metrics" : "/metrics.json");
        if (r.ok()) scrapes.fetch_add(1, std::memory_order_relaxed);
        usleep(10'000);
      }
    });
  }

  Stopwatch sw(RealClock::Global());
  for (size_t b = 0; b < opts.batches; ++b) {
    uint64_t trace_id = observed ? (opts.seed << 24) + b + 1 : 0;
    ScopedTrace scope(trace_id, observed ? "obs_overhead" : "");
    auto responses = d->engine().Append(/*tenant=*/0, corpus[b]);
    if (!responses.ok()) {
      std::fprintf(stderr, "append failed: %s\n",
                   responses.status().ToString().c_str());
      std::abort();
    }
  }
  double secs = sw.ElapsedSeconds();

  if (observed) {
    done.store(true, std::memory_order_release);
    scraper.join();
    admin->Shutdown();
    if (scrapes_out != nullptr) *scrapes_out += scrapes.load();
  }
  return static_cast<double>(opts.batch) * opts.batches / secs;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int Main(int argc, char** argv) {
  auto parsed = Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return Usage(argv[0]);
  }
  const Options opts = *parsed;
  PrintHeader("observability overhead (trace + admin scrape vs off)");

  // Warm-up run (allocator, code paths) that is not measured.
  (void)RunOnce(opts, /*observed=*/false, nullptr);

  std::vector<double> untraced, traced;
  uint64_t scrapes = 0;
  for (int r = 0; r < opts.rounds; ++r) {
    untraced.push_back(RunOnce(opts, /*observed=*/false, nullptr));
    traced.push_back(RunOnce(opts, /*observed=*/true, &scrapes));
    std::printf("round %d: untraced %.0f entries/s, observed %.0f entries/s\n",
                r, untraced.back(), traced.back());
  }
  double untraced_eps = Median(untraced);
  double traced_eps = Median(traced);
  double overhead_pct = 100.0 * (untraced_eps - traced_eps) / untraced_eps;
  double overhead_us = 1e6 / traced_eps - 1e6 / untraced_eps;
  bool passed = overhead_pct <= opts.max_overhead_pct;
  std::printf(
      "median untraced %.0f entries/s, observed %.0f entries/s, "
      "overhead %.2f%% = %.2f us/entry (max %.1f%%), %llu scrapes served\n",
      untraced_eps, traced_eps, overhead_pct, overhead_us,
      opts.max_overhead_pct, static_cast<unsigned long long>(scrapes));

  JsonRow row = MakeRow("obs_overhead", opts.seed, opts.batch);
  row.Field("batches", static_cast<uint64_t>(opts.batches))
      .Field("rounds", static_cast<uint64_t>(opts.rounds))
      .Field("untraced_eps", untraced_eps)
      .Field("traced_eps", traced_eps)
      .Field("overhead_pct", overhead_pct)
      .Field("overhead_us_per_entry", overhead_us)
      .Field("scrapes", scrapes)
      .Field("criteria_passed", std::string(passed ? "true" : "false"));
  row.Print();

  if (!opts.json_out.empty()) {
    std::ofstream f(opts.json_out, std::ios::trunc);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", opts.json_out.c_str());
      return 1;
    }
    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "{\n"
                  "  \"bench\": \"obs_overhead\",\n"
                  "  \"batch\": %u,\n"
                  "  \"batches\": %zu,\n"
                  "  \"rounds\": %d,\n"
                  "  \"untraced_eps\": %.1f,\n"
                  "  \"traced_eps\": %.1f,\n"
                  "  \"overhead_pct\": %.3f,\n"
                  "  \"overhead_us_per_entry\": %.3f,\n"
                  "  \"max_overhead_pct\": %.1f,\n"
                  "  \"scrapes\": %llu,\n"
                  "  \"criteria_passed\": %s\n"
                  "}\n",
                  opts.batch, opts.batches, opts.rounds, untraced_eps,
                  traced_eps, overhead_pct, overhead_us,
                  opts.max_overhead_pct,
                  static_cast<unsigned long long>(scrapes),
                  passed ? "true" : "false");
    f << buf;
    std::printf("wrote %s\n", opts.json_out.c_str());
  }
  if (!passed) {
    std::fprintf(stderr,
                 "obs_overhead FAILED: %.2f%% > %.1f%% allowed overhead\n",
                 overhead_pct, opts.max_overhead_pct);
    return 1;
  }
  return 0;
}

}  // namespace bench
}  // namespace wedge

int main(int argc, char** argv) {
  // The observed mode serves and scrapes real loopback sockets.
  const char* skip = std::getenv("WEDGE_SKIP_SOCKET_TESTS");
  if (skip != nullptr && skip[0] == '1') {
    std::printf("obs_overhead SKIPPED (WEDGE_SKIP_SOCKET_TESTS)\n");
    return 0;
  }
  return wedge::bench::Main(argc, argv);
}
