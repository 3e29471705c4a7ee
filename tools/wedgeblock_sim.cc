// wedgeblock_sim — end-to-end WedgeBlock simulation driver.
//
// Runs a configurable workload through a fresh deployment (simulated
// chain + contracts + Offchain Node, the single-shard engine with classic
// stage 2 that `wedgeblockd` serves by default), optionally with a
// byzantine node, then audits and reports performance, on-chain cost,
// and punishment outcomes. The quickest way to poke at the system
// without writing code.
//
// Usage:
//   wedgeblock_sim [--ops N] [--batch N] [--value-bytes N]
//                  [--byzantine honest|equivocate|tamper-reads|omit-stage2|
//                               corrupt-proof]
//                  [--gas-gwei N] [--block-seconds N] [--replicas N]
//                  [--audit-samples N] [--seed N] [--telemetry-out PATH]
//
// Examples:
//   wedgeblock_sim --ops 4000 --batch 2000
//   wedgeblock_sim --byzantine equivocate          # watch the punishment
//   wedgeblock_sim --ops 10000 --audit-samples 16  # sampled audit
//   wedgeblock_sim --telemetry-out run.jsonl       # metrics + trace dump
//
// --telemetry-out writes the run's metrics registry and the per-entry
// lifecycle trace as JSON Lines (or Prometheus text when PATH ends in
// ".prom"). Feed the JSONL to tools/trace_summary.py for a per-stage
// latency table.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/economics.h"
#include "shard/sharded_engine.h"
#include "telemetry/export.h"

namespace wedge {
namespace {

struct Options {
  uint64_t ops = 2000;
  uint32_t batch = 500;
  size_t value_bytes = 1024;
  ByzantineMode byzantine = ByzantineMode::kHonest;
  uint64_t gas_gwei = 100;
  int64_t block_seconds = 13;
  int replicas = 0;
  uint32_t audit_samples = 0;  // 0 = full audit.
  uint64_t seed = 42;
  std::string telemetry_out;  // Empty = no telemetry dump.
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--ops N] [--batch N] [--value-bytes N]\n"
               "          [--byzantine honest|equivocate|tamper-reads|"
               "omit-stage2|corrupt-proof]\n"
               "          [--gas-gwei N] [--block-seconds N] [--replicas N]\n"
               "          [--audit-samples N] [--seed N] "
               "[--telemetry-out PATH]\n",
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
    if (flag == "--ops") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.ops = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--batch") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.batch = static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (flag == "--value-bytes") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.value_bytes = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--byzantine") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      if (v == "honest") {
        opts.byzantine = ByzantineMode::kHonest;
      } else if (v == "equivocate") {
        opts.byzantine = ByzantineMode::kEquivocateRoot;
      } else if (v == "tamper-reads") {
        opts.byzantine = ByzantineMode::kTamperReadData;
      } else if (v == "omit-stage2") {
        opts.byzantine = ByzantineMode::kOmitStage2;
      } else if (v == "corrupt-proof") {
        opts.byzantine = ByzantineMode::kCorruptProof;
      } else {
        return Status::InvalidArgument("unknown byzantine mode: " + v);
      }
    } else if (flag == "--gas-gwei") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.gas_gwei = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--block-seconds") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.block_seconds = std::strtoll(v.c_str(), nullptr, 10);
    } else if (flag == "--replicas") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.replicas = std::atoi(v.c_str());
    } else if (flag == "--audit-samples") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.audit_samples =
          static_cast<uint32_t>(std::strtoul(v.c_str(), nullptr, 10));
    } else if (flag == "--seed") {
      WEDGE_ASSIGN_OR_RETURN(std::string v, next());
      opts.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--telemetry-out") {
      WEDGE_ASSIGN_OR_RETURN(opts.telemetry_out, next());
    } else {
      return Status::InvalidArgument("unknown flag: " + flag);
    }
  }
  if (opts.ops == 0 || opts.batch == 0 || opts.block_seconds <= 0) {
    return Status::InvalidArgument("ops/batch/block-seconds must be positive");
  }
  return opts;
}

const char* ModeName(ByzantineMode mode) {
  switch (mode) {
    case ByzantineMode::kHonest:
      return "honest";
    case ByzantineMode::kEquivocateRoot:
      return "equivocate-root";
    case ByzantineMode::kTamperReadData:
      return "tamper-reads";
    case ByzantineMode::kOmitStage2:
      return "omit-stage2";
    case ByzantineMode::kCorruptProof:
      return "corrupt-proof";
  }
  return "?";
}

int Run(const Options& opts) {
  ShardedDeploymentConfig config;
  config.engine.num_shards = 1;
  config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
  config.engine.node.batch_size = opts.batch;
  config.engine.node.byzantine_mode = opts.byzantine;
  config.chain.gas_price = GweiToWei(opts.gas_gwei);
  config.chain.block_interval_seconds = opts.block_seconds;
  config.engine_funding = EthToWei(1'000'000);
  config.client_funding = EthToWei(1'000'000);
  // --replicas: the shard's memory store replicated to N memory followers.
  std::vector<std::unique_ptr<LogStore>> stores;
  if (opts.replicas > 0) {
    std::vector<std::unique_ptr<LogStore>> followers;
    for (int i = 0; i < opts.replicas; ++i) {
      followers.push_back(std::make_unique<MemoryLogStore>());
    }
    stores.push_back(std::make_unique<ReplicatedLogStore>(
        std::make_unique<MemoryLogStore>(), std::move(followers)));
  }
  auto deployment = ShardedDeployment::Create(
      config, /*publisher_seed=*/0xC11E, std::move(stores));
  if (!deployment.ok()) {
    std::fprintf(stderr, "deployment failed: %s\n",
                 deployment.status().ToString().c_str());
    return 1;
  }
  ShardedDeployment& d = **deployment;
  OffchainNode& node = d.engine().shard(0);

  std::printf("wedgeblock_sim: %llu ops, batch %u, %zu-byte values, "
              "node=%s, %d replicas\n",
              static_cast<unsigned long long>(opts.ops), opts.batch,
              opts.value_bytes, ModeName(opts.byzantine), opts.replicas);
  std::printf("contracts: root-record %s, punishment %s (escrow %s ETH)\n",
              d.root_record_address().ToHex().c_str(),
              d.punishment_address().ToHex().c_str(),
              WeiToEthString(d.chain().BalanceOf(d.punishment_address()))
                  .c_str());

  // --- Workload.
  Rng rng(opts.seed);
  std::vector<std::pair<Bytes, Bytes>> kvs;
  kvs.reserve(opts.ops);
  for (uint64_t i = 0; i < opts.ops; ++i) {
    kvs.emplace_back(rng.NextBytes(64), rng.NextBytes(opts.value_bytes));
  }
  PublisherClient publisher = d.MakePublisher(/*tenant=*/0);
  auto requests = publisher.MakeRequests(kvs);

  // --- Stage 1.
  Wei fees_before = d.chain().TotalFeesPaid(node.address());
  Stopwatch sw(RealClock::Global());
  auto responses = d.engine().Append(/*tenant=*/0, std::move(requests));
  double stage1_secs = sw.ElapsedSeconds();
  if (!responses.ok()) {
    std::fprintf(stderr, "append failed: %s\n",
                 responses.status().ToString().c_str());
    return 1;
  }
  double mb = static_cast<double>(opts.ops) * (64 + opts.value_bytes) /
              (1024.0 * 1024.0);
  std::printf("\nstage 1: %zu responses in %.2f s  (%.0f ops/s, %.2f MB/s)\n",
              responses->size(), stage1_secs, opts.ops / stage1_secs,
              mb / stage1_secs);

  // Client-side verification of a sample.
  size_t verify_n = std::min<size_t>(responses->size(), 64);
  size_t verified = 0;
  for (size_t i = 0; i < verify_n; ++i) {
    verified += (*responses)[i].Verify(node.address()) ? 1 : 0;
  }
  std::printf("stage-1 verification sample: %zu/%zu valid\n", verified,
              verify_n);

  // --- Stage 2.
  Micros sim_before = d.clock().NowMicros();
  d.AdvanceBlocks(d.chain().config().confirmations + 2);
  double stage2_secs =
      static_cast<double>(d.clock().NowMicros() - sim_before) /
      kMicrosPerSecond;
  auto check = publisher.CheckBlockchainCommit(responses->front());
  const char* check_str = "?";
  if (check.ok()) {
    switch (check.value()) {
      case CommitCheck::kBlockchainCommitted:
        check_str = "blockchain committed";
        break;
      case CommitCheck::kNotYetCommitted:
        check_str = "NOT committed (omission?)";
        break;
      case CommitCheck::kMismatch:
        check_str = "MISMATCH (equivocation!)";
        break;
    }
  }
  Wei stage2_fees = d.chain().TotalFeesPaid(node.address()) - fees_before;
  std::printf("\nstage 2: %s after %.0f s of chain time; node paid %s ETH "
              "(%.3e ETH/op)\n",
              check_str, stage2_secs, WeiToEthString(stage2_fees).c_str(),
              WeiToEthDouble(stage2_fees) / opts.ops);

  // --- Audit.
  AuditorClient auditor = d.MakeAuditor(/*tenant=*/0, opts.seed ^ 0xA0D17);
  uint64_t last = node.LogPositions() - 1;
  Result<AuditReport> report =
      opts.audit_samples == 0
          ? auditor.AuditFast(0, last)
          : auditor.AuditSample(0, last, opts.audit_samples, opts.seed);
  if (!report.ok()) {
    std::fprintf(stderr, "audit failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("\naudit (%s): %llu entries, %llu stage-1 failures, %llu "
              "on-chain mismatches, %llu uncommitted\n",
              opts.audit_samples == 0 ? "full, batched"
                                      : "sampled",
              static_cast<unsigned long long>(report->entries_checked),
              static_cast<unsigned long long>(report->stage1_failures),
              static_cast<unsigned long long>(report->onchain_mismatches),
              static_cast<unsigned long long>(report->not_yet_committed));

  // --- Punishment, if the audit found anything actionable.
  if (!report->Clean() || report->not_yet_committed > 0) {
    std::printf("\nmisbehaviour detected -> invoking the Punishment "
                "contract with the signed stage-1 response...\n");
    if (report->not_yet_committed > 0) {
      // Omission path: file the claim and wait out the grace period.
      auto claim = publisher.FileOmissionClaim(0);
      if (claim.ok() && claim->success) {
        std::printf("omission claim filed for position 0; waiting out the "
                    "grace period...\n");
        d.clock().AdvanceSeconds(601);
        d.chain().PumpUntilNow();
      }
    }
    auto receipt = publisher.TriggerPunishment(responses->front());
    if (receipt.ok() && receipt->success) {
      std::printf("punishment SUCCEEDED: escrow seized (gas %llu); "
                  "punishment contract balance now %s ETH\n",
                  static_cast<unsigned long long>(receipt->gas_used),
                  WeiToEthString(
                      d.chain().BalanceOf(d.punishment_address()))
                      .c_str());
    } else {
      std::printf("punishment attempt did not succeed (%s)\n",
                  receipt.ok() ? receipt->revert_reason.c_str()
                               : receipt.status().ToString().c_str());
    }
  } else {
    std::printf("\nlog is clean; no punishment warranted\n");
  }

  if (!opts.telemetry_out.empty()) {
    Status wrote = WriteTelemetryFile(opts.telemetry_out, d.telemetry());
    if (!wrote.ok()) {
      std::fprintf(stderr, "telemetry write failed: %s\n",
                   wrote.ToString().c_str());
      return 1;
    }
    std::printf("\ntelemetry written to %s\n", opts.telemetry_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace wedge

int main(int argc, char** argv) {
  auto opts = wedge::Parse(argc, argv);
  if (!opts.ok()) {
    std::fprintf(stderr, "%s\n", opts.status().ToString().c_str());
    return wedge::Usage(argv[0]);
  }
  return wedge::Run(opts.value());
}
