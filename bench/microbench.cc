// Google-benchmark microbenchmarks for the primitives every WedgeBlock
// operation is built from: hashing, ECDSA, Merkle trees, the U256 field
// arithmetic, the RPC session handshake and a sealed single-entry store
// read. These bound the end-to-end numbers reported by the figure
// harnesses.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/offchain_node.h"
#include "crypto/ecdsa.h"
#include "crypto/keccak256.h"
#include "crypto/sha256_dispatch.h"
#include "crypto/signer_key_cache.h"
#include "merkle/merkle_tree.h"
#include "net/wire.h"
#include "storage/log_store.h"
#include "storage/segstore/segment_store.h"

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

// Per-entry recovery over distinct inputs: the check of a signer without
// a key table. /8 is read_mix's append call.
void BM_RecoverSignerMany(benchmark::State& state) {
  SignedCorpus corpus(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (size_t i = 0; i < corpus.sigs.size(); ++i) {
      benchmark::DoNotOptimize(RecoverSigner(corpus.hashes[i], corpus.sigs[i]));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RecoverSignerMany)
    ->Arg(8)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

// The fixed-key verifier on the same inputs, table prebuilt: the check of
// a signer with a key table. Compare per item against
// BM_RecoverSignerMany.
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
BENCHMARK(BM_VerifyRecoverableMany)
    ->Arg(8)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

// One response check by SignedBy for a signer whose key table is cached:
// what a client pays per response after a node's first 16.
void BM_SignedByCached(benchmark::State& state) {
  SignedCorpus corpus(256);
  const Address signer = corpus.key.address();
  // Admits the key, then builds its table at the 16th check.
  for (size_t i = 0; i < SignerKeyCache::kTableAfterChecks; ++i) {
    SignedBy(signer, corpus.hashes[i], corpus.sigs[i]);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SignedBy(signer, corpus.hashes[i], corpus.sigs[i]));
    i = (i + 1) % corpus.sigs.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SignedByCached)->Unit(benchmark::kMicrosecond);

// One SignedBy check for a signer seen once: a recovery, the key's
// admission, and no table. 4096 signers cycle through the 256-signer
// cache, so each is evicted before it comes round again.
void BM_SignedByOneOff(benchmark::State& state) {
  struct OneOff {
    Address signer;
    Hash256 hash;
    EcdsaSignature sig;
  };
  static const std::vector<OneOff> signers = [] {
    std::vector<OneOff> out;
    for (uint64_t k = 0; k < 4096; ++k) {
      KeyPair key = KeyPair::FromSeed(0x0FF0 + k);
      Hash256 h = Sha256::Digest("one-off-" + std::to_string(k));
      out.push_back({key.address(), h, EcdsaSign(key.private_key(), h)});
    }
    return out;
  }();
  size_t i = 0;
  for (auto _ : state) {
    const OneOff& o = signers[i];
    benchmark::DoNotOptimize(SignedBy(o.signer, o.hash, o.sig));
    i = (i + 1) % signers.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SignedByOneOff)->Unit(benchmark::kMicrosecond);

// One per-key table build: paid once per signer, at its 16th check
// (SignerKeyCache::kTableAfterChecks), and again if it is evicted.
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

// The field and scalar kernels through their public U256 entry points.
// Each iteration feeds the previous result back in, so the time is one
// dependent step (conversion to and from the 5x52-bit form included).
U256 RandomU256(Rng& rng) {
  return U256(rng.Next(), rng.Next(), rng.Next(), rng.Next());
}

void BM_FpMul(benchmark::State& state) {
  Rng rng(1);
  U256 a = RandomU256(rng);
  const U256 b = RandomU256(rng);
  for (auto _ : state) {
    a = secp256k1::FpMul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FpMul);

void BM_FpSqr(benchmark::State& state) {
  Rng rng(1);
  U256 a = RandomU256(rng);
  for (auto _ : state) {
    a = secp256k1::FpSqr(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FpSqr);

void BM_FpInv(benchmark::State& state) {
  Rng rng(1);
  U256 a = RandomU256(rng);
  for (auto _ : state) {
    a = secp256k1::FpInv(a);  // Never zero: the inverse of a non-zero.
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FpInv);

// Alternates between a square and its root, so every call finds one.
void BM_FpSqrt(benchmark::State& state) {
  Rng rng(1);
  U256 a = secp256k1::FpSqr(RandomU256(rng));
  for (auto _ : state) {
    a = secp256k1::FpSqr(secp256k1::FpSqrt(a).value());
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FpSqrt);

void BM_FnMul(benchmark::State& state) {
  Rng rng(1);
  U256 a = RandomU256(rng);
  const U256 b = RandomU256(rng);
  for (auto _ : state) {
    a = secp256k1::FnMul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FnMul);

void BM_FnInv(benchmark::State& state) {
  Rng rng(1);
  U256 a = secp256k1::FnReduce(RandomU256(rng));
  for (auto _ : state) {
    a = secp256k1::FnInv(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FnInv);

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

// One entry of a sealed position of 128 × 421 B entries, the shape of a
// read_mix readT's store read: SegmentLogStore::GetEntry's end-offset and
// entry preads (page cache warm after the first pass).
void BM_SegmentGetEntry(benchmark::State& state) {
  const std::string dir =
      std::filesystem::temp_directory_path() /
      ("wedge_bm_get_entry_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    auto store = SegmentLogStore::Open(dir, SegmentLogStore::Options());
    Rng rng(1);
    LogPosition pos;
    for (int i = 0; i < 128; ++i) pos.data_list.push_back(rng.NextBytes(421));
    pos.mroot = MerkleTree::Build(pos.data_list)->Root();
    if (!store.ok() || !(*store)->Append(pos).ok() ||
        !(*store)->SealNow().ok()) {
      state.SkipWithError("cannot build the sealed position");
    }
    uint32_t offset = 0;
    for (auto _ : state) {
      auto entry = (*store)->GetEntry(EntryIndex{0, offset});
      benchmark::DoNotOptimize(entry);
      offset = (offset + 37) % 128;
    }
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_SegmentGetEntry)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace wedge

BENCHMARK_MAIN();
