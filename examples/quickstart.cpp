// Quickstart: the smallest end-to-end WedgeBlock program.
//
//   1. Deploy the system (simulated chain + Root Record + Punishment
//      contracts + Offchain Node, the single-shard engine).
//   2. Append log entries and receive signed stage-1 proofs immediately.
//   3. Let the lazy stage-2 digest commit land on-chain.
//   4. Read an entry back and verify it against the on-chain root.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "shard/sharded_engine.h"

using namespace wedge;  // Example code; library code never does this.

int main() {
  // 1. One-call deployment with the paper's defaults (batch size 2000 is
  // overkill for 4 entries, so use a small batch).
  ShardedDeploymentConfig config;
  config.engine.num_shards = 1;
  config.engine.forest_stage2 = false;  // Classic per-batch stage 2.
  config.engine.node.batch_size = 4;
  auto deployment = ShardedDeployment::Create(config);
  if (!deployment.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 deployment.status().ToString().c_str());
    return 1;
  }
  ShardedDeployment& d = **deployment;
  std::printf("Root Record contract:  %s\n",
              d.root_record_address().ToHex().c_str());
  std::printf("Punishment contract:   %s (escrow %s ETH)\n",
              d.punishment_address().ToHex().c_str(),
              WeiToEthString(d.chain().BalanceOf(d.punishment_address()))
                  .c_str());

  // 2. Append four entries. Publish() signs each request, sends them to
  // the Offchain Node, and verifies every stage-1 response. A
  // single-tenant client uses tenant 0.
  PublisherClient publisher = d.MakePublisher(/*tenant=*/0);
  auto responses = publisher.Publish(publisher.MakeRequests({
      {ToBytes("temp/kitchen"), ToBytes("21.5C")},
      {ToBytes("temp/garage"), ToBytes("14.0C")},
      {ToBytes("door/front"), ToBytes("locked")},
      {ToBytes("motion/yard"), ToBytes("none")},
  }));
  if (!responses.ok()) {
    std::fprintf(stderr, "append failed: %s\n",
                 responses.status().ToString().c_str());
    return 1;
  }
  std::printf("\nstage-1 (off-chain) committed %zu entries -- usable "
              "immediately under LMT\n",
              responses->size());
  for (const Stage1Response& r : *responses) {
    std::printf("  index (%llu,%u)  root %.16s...\n",
                static_cast<unsigned long long>(r.index.log_id),
                r.index.offset, HashToHex(r.proof.mroot).c_str());
  }

  // 3. The digest write is already in the mempool (lazy commit). Advance
  // simulated chain time so it mines and confirms.
  d.AdvanceBlocks(4);
  auto check = publisher.CheckBlockchainCommit(responses->front());
  std::printf("\nstage-2 check: %s\n",
              check.value() == CommitCheck::kBlockchainCommitted
                  ? "blockchain committed (root matches on-chain record)"
                  : "NOT committed?!");

  // 4. A consumer reads entry (0,2) and verifies it end-to-end.
  UserClient user = d.MakeUser(/*tenant=*/0, /*seed=*/2024);
  auto read = user.ReadVerified(EntryIndex{0, 2},
                                /*require_blockchain_commit=*/true);
  if (!read.ok()) {
    std::fprintf(stderr, "read failed: %s\n", read.status().ToString().c_str());
    return 1;
  }
  auto entry = AppendRequest::Deserialize(read->entry);
  std::printf("verified read of (0,2): %s = %s (publisher %s, seq %llu)\n",
              ToString(entry->key).c_str(), ToString(entry->value).c_str(),
              entry->publisher.ToHex().c_str(),
              static_cast<unsigned long long>(entry->sequence));
  std::printf("\nquickstart OK\n");
  return 0;
}
