// Ablations for the design choices DESIGN.md calls out:
//   (a) stage-2 digest grouping: gas per operation when one updateRecords
//       transaction carries 1, 2, 5, 10 or 20 batch digests — the
//       "minimum writing" lever beyond per-batch amortization;
//   (b) Merkle proof size vs batch size — the stage-1 bandwidth cost of
//       larger batches (the flip side of cheaper stage 2);
//   (c) punishment-path gas — what invoking Algorithm 2 costs a client;
//   (d) lazy vs eager trust: operation-commit latency under LMT (stage 1)
//       vs waiting for the digest on-chain (the SOCL discipline).

#include "bench/bench_util.h"
#include "bench/shard_equiv.h"

namespace wedge {
namespace bench {
namespace {

void StageTwoGrouping() {
  std::printf("\n-- (a) stage-2 digest grouping (batch=2000, 20 batches) --\n");
  std::printf("%-18s %14s %12s\n", "digests per tx", "gas/op", "ETH/op");
  constexpr uint32_t kBatch = 2000;
  constexpr int kBatches = 20;
  for (int group : {1, 2, 5, 10, 20}) {
    auto d = MakeBenchDeployment(kBatch, 0, /*sign_responses=*/false,
                                 /*auto_stage2=*/false);
    auto kvs = MakeWorkload(kBatch);
    const Address publisher = d->MakePublisher(0).address();
    Wei fees_before = d->chain().TotalFeesPaid(d->engine().address());
    uint64_t gas_before = d->chain().TotalGasUsed(d->engine().address());
    for (int b = 0; b < kBatches; ++b) {
      auto reqs = MakeUnsignedRequests(publisher, kvs);
      if (!d->engine().Append(/*tenant=*/0, reqs).ok()) std::abort();
      if ((b + 1) % group == 0) {
        if (!d->engine().shard(0).CommitPendingDigests().ok()) std::abort();
        d->AdvanceBlocks(1);
      }
    }
    d->AdvanceBlocks(4);
    uint64_t ops = static_cast<uint64_t>(kBatch) * kBatches;
    uint64_t gas = d->chain().TotalGasUsed(d->engine().address()) - gas_before;
    double eth =
        WeiToEthDouble(d->chain().TotalFeesPaid(d->engine().address()) -
                       fees_before) /
        ops;
    std::printf("%-18d %14.2f %12.3e\n", group,
                static_cast<double>(gas) / ops, eth);
  }
  std::printf("grouping digests amortizes the 21k tx base across batches.\n");
}

void ProofSizeVsBatch() {
  std::printf("\n-- (b) merkle proof size vs batch size --\n");
  std::printf("%-10s %18s %20s\n", "batch", "proof bytes", "response bytes");
  for (uint32_t batch : {500u, 1000u, 2000u, 4000u, 8000u, 10000u}) {
    auto d = MakeBenchDeployment(batch);
    auto kvs = MakeWorkload(batch);
    auto reqs = MakeUnsignedRequests(d->MakePublisher(0).address(), kvs);
    auto responses = d->engine().Append(/*tenant=*/0, reqs);
    if (!responses.ok()) std::abort();
    const Stage1Response& r = responses->front();
    std::printf("%-10u %18zu %20zu\n", batch,
                r.proof.merkle_proof.Serialize().size(),
                r.Serialize().size());
  }
  std::printf("proof size grows logarithmically: doubling the batch adds "
              "33 bytes (one sibling hash + side flag).\n");
}

void PunishmentGas() {
  std::printf("\n-- (c) punishment-path gas --\n");
  ShardedDeploymentConfig config;
  config.engine.num_shards = 1;
  config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
  config.engine.node.batch_size = 2000;
  config.engine.node.verify_client_signatures = false;
  config.engine.node.byzantine_mode = ByzantineMode::kEquivocateRoot;
  config.engine_funding = EthToWei(10'000);
  config.client_funding = EthToWei(10'000);
  auto d = ShardedDeployment::Create(config);
  if (!d.ok()) std::abort();
  PublisherClient pub = (*d)->MakePublisher(0);
  auto kvs = MakeWorkload(2000);
  auto reqs = MakeUnsignedRequests(pub.address(), kvs);
  auto responses = (*d)->engine().Append(/*tenant=*/0, reqs);
  if (!responses.ok()) std::abort();
  (*d)->AdvanceBlocks(4);
  auto receipt = pub.TriggerPunishment(responses->front());
  if (!receipt.ok() || !receipt->success) std::abort();
  std::printf("invokePunishment gas: %llu (%.4f ETH at %s wei/gas) — paid "
              "once, recovers the full escrow\n",
              static_cast<unsigned long long>(receipt->gas_used),
              WeiToEthDouble(receipt->fee),
              (*d)->chain().config().gas_price.ToDecimal().c_str());
}

void LazyVsEager() {
  std::printf("\n-- (d) lazy (LMT) vs eager trust: commit latency --\n");
  auto d = MakeBenchDeployment(2000);
  auto kvs = MakeWorkload(2000);
  auto reqs = MakeUnsignedRequests(d->MakePublisher(0).address(), kvs);

  Stopwatch sw(RealClock::Global());
  Micros sim_before = d->clock().NowMicros();
  auto responses = d->engine().Append(/*tenant=*/0, reqs);
  if (!responses.ok()) std::abort();
  double stage1_s = sw.ElapsedSeconds();

  // Eager discipline: wait for the digest's on-chain confirmation.
  auto txs = d->engine().shard(0).Stage2TxIds();
  if (txs.empty()) std::abort();
  if (!d->chain().WaitForReceipt(txs.back()).ok()) std::abort();
  double eager_s = stage1_s +
                   static_cast<double>(d->clock().NowMicros() - sim_before) /
                       kMicrosPerSecond;
  std::printf("LMT stage-1 commit: %.2f s (real compute)\n", stage1_s);
  std::printf("eager (SOCL-style) commit: %.2f s (stage 1 + %.0f s chain "
              "wait) -> LMT is %.0fx faster to usable commitment\n",
              eager_s, eager_s - stage1_s, eager_s / stage1_s);
}

}  // namespace

void Main() {
  PrintHeader("Ablations: LMT design choices");
  // The ablation baselines are single-node numbers; make sure the
  // 1-shard engine still IS that baseline, byte for byte.
  AssertDegenerateEngineMatchesBareNode(/*batch_size=*/2000,
                                        /*n_entries=*/2000);
  StageTwoGrouping();
  ProofSizeVsBatch();
  PunishmentGas();
  LazyVsEager();
}

}  // namespace bench
}  // namespace wedge

int main() { wedge::bench::Main(); }
