// Punishment walk-through: a byzantine Offchain Node equivocates — it
// hands out signed stage-1 promises for one Merkle root but commits a
// different root on-chain. The client detects the mismatch (Definition
// 3.1) and drains the node's escrow through the Punishment contract
// (Algorithm 2). This is the lazy-minimum-trust deterrent end to end.
//
// Build & run:  ./build/examples/punishment_demo

#include <cstdio>

#include "shard/sharded_engine.h"

using namespace wedge;

int main() {
  ShardedDeploymentConfig config;
  config.engine.num_shards = 1;
  config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
  config.engine.node.batch_size = 8;
  config.engine.node.byzantine_mode = ByzantineMode::kEquivocateRoot;
  config.escrow = EthToWei(32);
  auto deployment = ShardedDeployment::Create(config);
  if (!deployment.ok()) return 1;
  ShardedDeployment& d = **deployment;
  PublisherClient client = d.MakePublisher(/*tenant=*/0);

  std::printf("escrow locked in Punishment contract: %s ETH\n",
              WeiToEthString(d.chain().BalanceOf(d.punishment_address()))
                  .c_str());

  // The client publishes; stage-1 responses look perfectly honest (they
  // verify!), because the node lies only at stage-2 time.
  auto responses = client.Publish(client.MakeRequests({
      {ToBytes("balance/alice"), ToBytes("100")},
      {ToBytes("balance/bob"), ToBytes("250")},
      {ToBytes("transfer"), ToBytes("alice->bob:25")},
      {ToBytes("balance/alice"), ToBytes("75")},
      {ToBytes("balance/bob"), ToBytes("275")},
      {ToBytes("checkpoint"), ToBytes("epoch-7")},
      {ToBytes("transfer"), ToBytes("bob->alice:5")},
      {ToBytes("checkpoint"), ToBytes("epoch-8")},
  }));
  if (!responses.ok()) return 1;
  std::printf("stage-1: %zu responses received and verified — the client "
              "can already act on them\n",
              responses->size());

  // Lazy stage-2 lands... with a fraudulent root.
  d.AdvanceBlocks(4);
  auto check = client.CheckBlockchainCommit(responses->front());
  if (!check.ok()) return 1;
  std::printf("stage-2 verification: %s\n",
              check.value() == CommitCheck::kMismatch
                  ? "MISMATCH — the node blockchain-committed a different "
                    "root than it promised"
                  : "unexpected result");

  // The signed stage-1 response IS the evidence. One transaction seizes
  // the whole escrow (all-or-nothing punishment, §3.3).
  Wei client_before = d.chain().BalanceOf(client.address());
  auto outcome = client.FinalizeOrPunish(responses->front());
  if (!outcome.ok()) return 1;
  std::printf("punishment triggered: %s (gas %llu)\n",
              outcome->punishment_receipt.success ? "escrow seized"
                                                  : "rejected?!",
              static_cast<unsigned long long>(
                  outcome->punishment_receipt.gas_used));
  Wei client_after = d.chain().BalanceOf(client.address());
  std::printf("client balance delta: +%s ETH (32 escrow - gas)\n",
              WeiToEthString(client_after - client_before).c_str());
  std::printf("punishment contract drained: %s ETH left\n",
              WeiToEthString(d.chain().BalanceOf(d.punishment_address()))
                  .c_str());

  // The contract is now settled: no further claims, and the byzantine
  // node cannot recover its deposit either.
  auto again = client.TriggerPunishment(responses->back());
  std::printf("second punishment attempt: %s (all-or-nothing: contract "
              "already settled)\n",
              again.ok() && !again->success ? "correctly rejected"
                                            : "unexpected");
  std::printf("\npunishment_demo OK\n");
  return 0;
}
