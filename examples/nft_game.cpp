// DApp gaming (paper §2.3, use case 2): an off-chain game server logs
// player actions through WedgeBlock. The key property this example
// demonstrates is ORDER: conflicting game actions are totally ordered by
// their log index at stage-1 time, and that order is exactly what stage 2
// makes immutable — two players can never later disagree about who
// grabbed the sword first.
//
// Build & run:  ./build/examples/nft_game

#include <cstdio>
#include <string>

#include "shard/sharded_engine.h"

using namespace wedge;

int main() {
  ShardedDeploymentConfig config;
  config.engine.num_shards = 1;
  config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
  config.engine.node.batch_size = 8;
  auto deployment = ShardedDeployment::Create(config);
  if (!deployment.ok()) return 1;
  ShardedDeployment& d = **deployment;

  KeyPair alice = KeyPair::FromSeed(111);
  KeyPair bob = KeyPair::FromSeed(222);

  // Both players race to pick up the same legendary item. The game server
  // forwards their signed actions to the Offchain Node in arrival order.
  std::vector<AppendRequest> actions;
  actions.push_back(AppendRequest::Make(
      bob, 0, ToBytes("action/pickup"), ToBytes("bob grabs Excalibur")));
  actions.push_back(AppendRequest::Make(
      alice, 0, ToBytes("action/pickup"), ToBytes("alice grabs Excalibur")));
  actions.push_back(AppendRequest::Make(
      alice, 1, ToBytes("action/trade"),
      ToBytes("alice offers 3 gems for Excalibur")));
  actions.push_back(AppendRequest::Make(
      bob, 1, ToBytes("action/trade"), ToBytes("bob accepts the trade")));
  // Pad to the batch boundary with heartbeat events.
  for (uint64_t i = 2; i < 6; ++i) {
    actions.push_back(AppendRequest::Make(bob, i, ToBytes("heartbeat"),
                                          ToBytes("tick")));
  }

  auto responses = d.engine().Append(/*tenant=*/0, std::move(actions));
  if (!responses.ok()) return 1;

  // Stage-1 proofs fix the order instantly: index (0,0) beats (0,1).
  std::printf("event order at stage-1 (off-chain commit):\n");
  for (size_t i = 0; i < 4; ++i) {
    auto a = AppendRequest::Deserialize((*responses)[i].entry);
    std::printf("  (%llu,%u): %s\n",
                static_cast<unsigned long long>((*responses)[i].index.log_id),
                (*responses)[i].index.offset, ToString(a->value).c_str());
  }
  std::printf("=> conflict resolution: '%s' wins (lower index)\n",
              ToString(AppendRequest::Deserialize((*responses)[0].entry)
                           ->value)
                  .c_str());

  // Stage 2: the same order becomes immutable on-chain.
  d.AdvanceBlocks(4);
  PublisherClient server = d.MakePublisher(/*tenant=*/0);
  for (size_t i = 0; i < responses->size(); ++i) {
    auto check = server.CheckBlockchainCommit((*responses)[i]);
    if (!check.ok() || check.value() != CommitCheck::kBlockchainCommitted) {
      std::fprintf(stderr, "stage-2 verification failed for event %zu\n", i);
      return 1;
    }
  }
  std::printf("all %zu events blockchain-committed in the same order\n",
              responses->size());

  // Later, bob disputes the trade. An auditor replays the log: the order
  // is verifiable by anyone against the on-chain root, so the dispute is
  // settled without trusting the game server.
  AuditorClient auditor = d.MakeAuditor(/*tenant=*/0, /*seed=*/333);
  auto report = auditor.Audit(0, 0);
  if (!report.ok()) return 1;
  std::printf("dispute audit: %llu events verified against the Root Record "
              "contract, clean=%s\n",
              static_cast<unsigned long long>(report->entries_checked),
              report->Clean() ? "yes" : "NO");

  // Each action also carries the PLAYER's signature, so the game server
  // cannot forge moves either.
  auto trade = AppendRequest::Deserialize((*responses)[3].entry);
  std::printf("bob's trade acceptance carries his signature: %s\n",
              trade->VerifySignature() ? "valid" : "INVALID");
  std::printf("\nnft_game OK\n");
  return 0;
}
