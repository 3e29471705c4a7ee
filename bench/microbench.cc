// Google-benchmark microbenchmarks for the primitives every WedgeBlock
// operation is built from: hashing, ECDSA, Merkle trees, the U256 field
// arithmetic and the RPC session handshake. These bound the end-to-end
// numbers reported by the figure harnesses.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/offchain_node.h"
#include "crypto/ecdsa.h"
#include "crypto/keccak256.h"
#include "crypto/sha256_dispatch.h"
#include "merkle/merkle_tree.h"
#include "net/wire.h"
#include "storage/log_store.h"

namespace wedge {
namespace {

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1088)->Arg(4096);

// Batch hashing through the multi-lane dispatcher: `range(0)` messages of
// 1088 bytes each (the paper's serialized-entry size). Compare against
// BM_Sha256/1088 × N to see the multibuffer win.
void BM_Sha256Many(benchmark::State& state) {
  Rng rng(1);
  std::vector<Bytes> msgs;
  std::vector<const uint8_t*> ptrs;
  for (int64_t i = 0; i < state.range(0); ++i) msgs.push_back(rng.NextBytes(1088));
  for (const Bytes& m : msgs) ptrs.push_back(m.data());
  std::vector<Hash256> out(msgs.size());
  for (auto _ : state) {
    Sha256ManySameLen(ptrs.data(), 1088, ptrs.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetBytesProcessed(state.iterations() * state.range(0) * 1088);
}
BENCHMARK(BM_Sha256Many)->Arg(8)->Arg(64)->Arg(2000);

void BM_Keccak256(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.NextBytes(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Keccak256::Digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Keccak256)->Arg(64)->Arg(1088);

void BM_EcdsaSign(benchmark::State& state) {
  KeyPair kp = KeyPair::FromSeed(1);
  Hash256 h = Sha256::Digest("message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(EcdsaSign(kp.private_key(), h));
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  KeyPair kp = KeyPair::FromSeed(1);
  Hash256 h = Sha256::Digest("message");
  EcdsaSignature sig = EcdsaSign(kp.private_key(), h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EcdsaVerify(kp.public_key(), h, sig));
  }
}
BENCHMARK(BM_EcdsaVerify);

void BM_EcdsaRecover(benchmark::State& state) {
  KeyPair kp = KeyPair::FromSeed(1);
  Hash256 h = Sha256::Digest("message");
  EcdsaSignature sig = EcdsaSign(kp.private_key(), h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RecoverSigner(h, sig));
  }
}
BENCHMARK(BM_EcdsaRecover);

// A full sealing batch of signatures through the batched-inversion path;
// per-signature cost is this divided by the arg — compare against
// BM_EcdsaSign to see the amortization win.
void BM_EcdsaSignMany(benchmark::State& state) {
  KeyPair kp = KeyPair::FromSeed(1);
  std::vector<Hash256> hashes(state.range(0));
  for (size_t i = 0; i < hashes.size(); ++i) {
    hashes[i] = Sha256::Digest("entry-" + std::to_string(i));
  }
  std::vector<EcdsaSignature> sigs(hashes.size());
  for (auto _ : state) {
    EcdsaSignMany(kp.private_key(), hashes.data(), hashes.size(),
                  sigs.data());
    benchmark::DoNotOptimize(sigs.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EcdsaSignMany)->Arg(2000)->Unit(benchmark::kMillisecond);

// 256 distinct signatures by one key, the shape of one publisher's
// appendT call. Repeating a single input (as BM_EcdsaRecover does) lets
// the branch predictor learn its path, so it under-reads the per-entry
// cost.
struct SignedCorpus {
  KeyPair key = KeyPair::FromSeed(1);
  std::vector<Hash256> hashes;
  std::vector<EcdsaSignature> sigs;

  explicit SignedCorpus(size_t n) : hashes(n) {
    for (size_t i = 0; i < n; ++i) {
      hashes[i] = Sha256::Digest("entry-" + std::to_string(i));
    }
    sigs = EcdsaSignMany(key.private_key(), hashes);
  }
};

// Per-entry recovery over distinct inputs: the ingest check below the
// node's key-table cutoff.
void BM_RecoverSignerMany(benchmark::State& state) {
  SignedCorpus corpus(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (size_t i = 0; i < corpus.sigs.size(); ++i) {
      benchmark::DoNotOptimize(RecoverSigner(corpus.hashes[i], corpus.sigs[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecoverSignerMany)->Arg(256)->Unit(benchmark::kMillisecond);

// The fixed-key verifier on the same inputs, table prebuilt: the ingest
// check above the cutoff. Compare per item against BM_RecoverSignerMany.
void BM_VerifyRecoverableMany(benchmark::State& state) {
  SignedCorpus corpus(static_cast<size_t>(state.range(0)));
  secp256k1::FixedPointTable table(corpus.key.public_key());
  std::vector<uint8_t> ok(corpus.sigs.size());
  for (auto _ : state) {
    VerifyRecoverableMany(table, corpus.hashes.data(), corpus.sigs.data(),
                          corpus.sigs.size(), ok.data());
    benchmark::DoNotOptimize(ok.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VerifyRecoverableMany)->Arg(256)->Unit(benchmark::kMillisecond);

// One per-key table build: paid once per publisher group of an append.
void BM_FixedPointTableBuild(benchmark::State& state) {
  KeyPair kp = KeyPair::FromSeed(1);
  for (auto _ : state) {
    secp256k1::FixedPointTable table(kp.public_key());
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_FixedPointTableBuild)->Unit(benchmark::kMicrosecond);

void BM_MerkleBuild(benchmark::State& state) {
  Rng rng(1);
  std::vector<Bytes> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(rng.NextBytes(1088));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::Build(leaves));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MerkleBuild)->Arg(500)->Arg(2000)->Arg(10000);

// Pool-parallel build over the same leaves; byte-identical roots (see
// tests/merkle_test.cc), so this isolates the partitioning overhead/win.
void BM_MerkleBuildParallel(benchmark::State& state) {
  Rng rng(1);
  std::vector<Bytes> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(rng.NextBytes(1088));
  }
  ThreadPool pool(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MerkleTree::Build(leaves, &pool));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MerkleBuildParallel)->Arg(500)->Arg(2000)->Arg(10000);

// The full stage-1 seal: serialize, Merkle-build, persist, sign one
// response per entry. 2000 requests of ~1088 serialized bytes — the
// paper's default batch. Dominated by ECDSA signing; the hashing and
// copy-elision work shows up in the spread over BM_EcdsaSign × 2000.
void BM_SealBatch(benchmark::State& state) {
  OffchainNodeConfig config;
  config.batch_size = static_cast<uint32_t>(state.range(0));
  config.auto_stage2 = false;
  config.verify_client_signatures = false;
  config.sign_stage1_responses = true;
  OffchainNode node(config, KeyPair::FromSeed(1),
                    std::make_unique<MemoryLogStore>(), /*chain=*/nullptr,
                    Address{});
  KeyPair publisher = KeyPair::FromSeed(2);
  Rng rng(1);
  std::vector<AppendRequest> requests;
  for (int64_t i = 0; i < state.range(0); ++i) {
    // 1024-byte values serialize to ~1088-byte leaves.
    requests.push_back(AppendRequest::Make(publisher, i, rng.NextBytes(16),
                                           rng.NextBytes(1024)));
  }
  for (auto _ : state) {
    auto responses = node.Append(requests);
    benchmark::DoNotOptimize(responses);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SealBatch)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_MerkleProve(benchmark::State& state) {
  Rng rng(1);
  std::vector<Bytes> leaves;
  for (int64_t i = 0; i < state.range(0); ++i) {
    leaves.push_back(rng.NextBytes(1088));
  }
  auto tree = MerkleTree::Build(leaves);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->Prove(i++ % state.range(0)));
  }
}
BENCHMARK(BM_MerkleProve)->Arg(500)->Arg(2000)->Arg(10000);

void BM_MerkleVerifyProof(benchmark::State& state) {
  Rng rng(1);
  std::vector<Bytes> leaves;
  for (int i = 0; i < 2000; ++i) leaves.push_back(rng.NextBytes(1088));
  auto tree = MerkleTree::Build(leaves);
  auto proof = tree->Prove(1234).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        VerifyMerkleProof(leaves[1234], proof, tree->Root()));
  }
}
BENCHMARK(BM_MerkleVerifyProof);

void BM_FpMul(benchmark::State& state) {
  Rng rng(1);
  U256 a(rng.Next(), rng.Next(), rng.Next(), rng.Next());
  U256 b(rng.Next(), rng.Next(), rng.Next(), rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(secp256k1::FpMul(a, b));
    a = a + U256::One();
  }
}
BENCHMARK(BM_FpMul);

void BM_ScalarMulBase(benchmark::State& state) {
  Rng rng(1);
  U256 k(rng.Next(), rng.Next(), rng.Next(), rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(secp256k1::ScalarMulBase(k));
    k = k + U256::One();
  }
}
BENCHMARK(BM_ScalarMulBase);

// Variable-base k*P: the ECDH of the RPC session handshake.
void BM_ScalarMul(benchmark::State& state) {
  Rng rng(2);
  const secp256k1::AffinePoint p = KeyPair::FromSeed(7).public_key();
  U256 k(rng.Next(), rng.Next(), rng.Next(), rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(secp256k1::ScalarMul(p, k));
    k = k + U256::One();
  }
}
BENCHMARK(BM_ScalarMul)->Unit(benchmark::kMicrosecond);

// One RPC connection's handshake CPU, both sides in one process: the
// client's hello (a comb multiplication), the server's accept (one
// variable-base multiplication) and the client's check (one more).
void BM_SessionHandshake(benchmark::State& state) {
  const KeyPair server = KeyPair::FromSeed(0x5E55);
  for (auto _ : state) {
    auto hello = StartClientHandshake();
    auto accepted = AcceptClientHello(server, hello->payload);
    auto session =
        FinishClientHandshake(*hello, server.address(), accepted->reply);
    if (!session.ok()) state.SkipWithError("handshake failed");
    benchmark::DoNotOptimize(session);
  }
}
BENCHMARK(BM_SessionHandshake)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace wedge

BENCHMARK_MAIN();
