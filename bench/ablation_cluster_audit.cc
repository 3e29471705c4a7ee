// Ablations for the liveness/verification extensions:
//   (a) BFT cluster overhead — stage-1 commit cost of the 3f+1 replica
//       cluster (f = 1, 2) vs the single Offchain Node, and the effect
//       of f faulty replicas on commit latency;
//   (b) audit modes — the paper's per-entry audit (Figure 9 discipline)
//       vs the batched multi-proof audit path (one signature + one
//       multi-proof per position): verification time and proof bytes.

#include "bench/bench_util.h"
#include "cluster/bft_cluster.h"
#include "contracts/root_record.h"

namespace wedge {
namespace bench {
namespace {

void ClusterOverhead() {
  std::printf("\n-- (a) BFT cluster overhead (batch=500) --\n");
  std::printf("%-22s %14s %16s\n", "configuration", "commit(ms)",
              "sim-latency(ms)");

  constexpr int kBatch = 500;
  KeyPair publisher = KeyPair::FromSeed(42);
  std::vector<AppendRequest> batch;
  for (int i = 0; i < kBatch; ++i) {
    batch.push_back(AppendRequest::Make(publisher, i, ToBytes("k"),
                                        ToBytes(std::string(1024, 'v'))));
  }

  // Single node reference.
  {
    auto d = MakeBenchDeployment(kBatch);
    Stopwatch sw(RealClock::Global());
    if (!d->engine().Append(/*tenant=*/0, batch).ok()) std::abort();
    std::printf("%-22s %14.1f %16s\n", "single node",
                sw.ElapsedSeconds() * 1e3, "-");
  }

  for (int f : {1, 2}) {
    for (int faults : {0, f}) {
      SimClock clock(0);
      ClusterConfig config;
      config.f = f;
      OffchainCluster cluster(config, &clock, nullptr, Address::Zero());
      for (int i = 0; i < faults; ++i) {
        cluster.replica(1 + i).set_fault(ReplicaFault::kOmitAcks);
      }
      Micros sim_before = clock.NowMicros();
      Stopwatch sw(RealClock::Global());
      auto commit = cluster.Append(batch);
      if (!commit.ok()) std::abort();
      char label[64];
      std::snprintf(label, sizeof(label), "cluster f=%d (%d faulty)", f,
                    faults);
      std::printf("%-22s %14.1f %16.1f\n", label, sw.ElapsedSeconds() * 1e3,
                  static_cast<double>(clock.NowMicros() - sim_before) / 1e3);
    }
  }
  std::printf("cluster cost = replica co-signing (n ECDSA signs + quorum "
              "verification) + one network round trip; omission faults "
              "do not add latency while a quorum remains.\n");
}

void AuditModes() {
  std::printf("\n-- (b) audit modes: per-entry vs batched multi-proof --\n");
  std::printf("%-12s %18s %18s %14s\n", "entries", "per-entry(ms)",
              "multi-proof(ms)", "speedup");

  constexpr uint32_t kBatch = 500;
  auto d = MakeBenchDeployment(kBatch);
  auto kvs = MakeWorkload(4000);
  auto reqs = MakeUnsignedRequests(d->MakePublisher(0).address(), kvs);
  if (!d->engine().Append(/*tenant=*/0, reqs).ok()) std::abort();
  d->AdvanceBlocks(4);
  AuditorClient auditor = d->MakeAuditor(/*tenant=*/0, /*seed=*/9);

  for (size_t n : {500u, 1000u, 2000u, 4000u}) {
    uint64_t last = n / kBatch - 1;
    auto slow = auditor.Audit(0, last);
    auto fast = auditor.AuditFast(0, last);
    if (!slow.ok() || !fast.ok() || !slow->Clean() || !fast->Clean()) {
      std::abort();
    }
    double slow_ms =
        static_cast<double>(slow->read_micros + slow->verify_micros) / 1e3;
    double fast_ms =
        static_cast<double>(fast->read_micros + fast->verify_micros) / 1e3;
    std::printf("%-12zu %18.1f %18.1f %13.0fx\n", n, slow_ms, fast_ms,
                slow_ms / fast_ms);
  }

  // Proof-size comparison for one position.
  auto batch_resp = d->engine().ReadBatch(/*tenant=*/0, 0, {}).value();
  size_t single_proof_bytes = 0;
  for (uint32_t i = 0; i < kBatch; ++i) {
    single_proof_bytes +=
        d->engine().ReadOne(/*tenant=*/0, EntryIndex{0, i})->Serialize().size();
  }
  std::printf("bandwidth for one %u-entry position: %zu B batched vs %zu B "
              "as individual responses (%.2fx smaller)\n",
              kBatch, batch_resp.Serialize().size(), single_proof_bytes,
              static_cast<double>(single_proof_bytes) /
                  batch_resp.Serialize().size());
}

}  // namespace

void Main() {
  PrintHeader("Ablations: BFT cluster & audit modes");
  ClusterOverhead();
  AuditModes();
}

}  // namespace bench
}  // namespace wedge

int main() { wedge::bench::Main(); }
