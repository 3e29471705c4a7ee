#include "crypto/signer_key_cache.h"

#include <algorithm>
#include <array>
#include <functional>

namespace wedge {

using secp256k1::AffinePoint;
using secp256k1::FixedPointTable;

namespace {

/// Runs fn(0), ..., fn(count - 1) across `pool`, or on this thread when
/// there is no pool.
void ForEach(ThreadPool* pool, size_t count,
             const std::function<void(size_t)>& fn) {
  if (pool == nullptr) {
    for (size_t i = 0; i < count; ++i) fn(i);
  } else {
    pool->ParallelFor(count, fn);
  }
}

/// The key (hash, sig) recovers to if its address is `signer`, else the
/// identity: RecoverSigner's verdict, keeping the key.
AffinePoint RecoverKeyOf(const Address& signer, const Hash256& hash,
                         const EcdsaSignature& sig) {
  Result<AffinePoint> q = EcdsaRecover(hash, sig);
  if (q.ok() && AddressFromPublicKey(*q) == signer) return *q;
  return AffinePoint::Infinity();
}

const AffinePoint* FirstKey(const std::vector<AffinePoint>& keys) {
  auto it = std::find_if(keys.begin(), keys.end(),
                         [](const AffinePoint& q) { return !q.infinity; });
  return it == keys.end() ? nullptr : &*it;
}

}  // namespace

/// One signer's items in a Verify call.
struct SignerKeyCache::Group {
  Address signer;
  std::vector<size_t> idx;  ///< Its items, ascending.
  Known known;
  size_t next = 0;  ///< idx[0, next) have their verdicts.
  /// A signer not cached: each item's RecoverKeyOf.
  std::vector<AffinePoint> recovered;
};

SignerKeyCache::Outcome SignerKeyCache::Verify(const Address* signers,
                                               const Hash256* hashes,
                                               const EcdsaSignature* sigs,
                                               size_t n, uint8_t* ok,
                                               ThreadPool* pool) {
  std::fill(ok, ok + n, 0);
  std::vector<Group> groups;
  {
    std::unordered_map<Address, size_t, AddressHasher> group_of;
    for (size_t i = 0; i < n; ++i) {
      if (signers[i].IsZero()) continue;
      auto [it, fresh] = group_of.try_emplace(signers[i], groups.size());
      if (fresh) groups.emplace_back().signer = signers[i];
      groups[it->second].idx.push_back(i);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Group& g : groups) g.known = CountLocked(g.signer, g.idx.size());
  }

  Outcome outcome;
  for (Group& g : groups) {
    if (g.known.build) {
      g.known.table = BuildTable(g.signer, g.known.key, &outcome);
    } else if (g.known.key.infinity && g.idx.size() >= kTableAfterChecks) {
      Anchor(&g, hashes, sigs, ok, pool, &outcome);
    }
  }

  // Every item still without a verdict, in one fan-out: chunks on a
  // table, or one recovery each.
  struct Task {
    Group* g;
    size_t lo;
    size_t hi;
  };
  std::vector<Task> tasks;
  for (Group& g : groups) {
    const size_t m = g.idx.size();
    const size_t step = g.known.table != nullptr ? kTableChunk : 1;
    for (size_t lo = g.next; lo < m; lo += step) {
      tasks.push_back({&g, lo, std::min(m, lo + step)});
    }
    if (g.known.table != nullptr) outcome.table_checks += m - g.next;
    if (g.known.key.infinity) g.recovered.resize(m);
  }
  ForEach(pool, tasks.size(), [&](size_t t) {
    Group& g = *tasks[t].g;
    const size_t lo = tasks[t].lo;
    const size_t len = tasks[t].hi - lo;
    if (g.known.table == nullptr) {
      const size_t i = g.idx[lo];
      const AffinePoint q = RecoverKeyOf(g.signer, hashes[i], sigs[i]);
      ok[i] = q.infinity ? 0 : 1;
      if (!g.recovered.empty()) g.recovered[lo] = q;
      return;
    }
    std::array<Hash256, kTableChunk> h{};
    std::array<EcdsaSignature, kTableChunk> s{};
    std::array<uint8_t, kTableChunk> v{};
    for (size_t k = 0; k < len; ++k) {
      h[k] = hashes[g.idx[lo + k]];
      s[k] = sigs[g.idx[lo + k]];
    }
    VerifyRecoverableMany(*g.known.table, h.data(), s.data(), len, v.data());
    for (size_t k = 0; k < len; ++k) ok[g.idx[lo + k]] = v[k];
  });

  // A signer not cached enters on the key its first valid entry
  // recovered.
  for (Group& g : groups) {
    if (!g.known.key.infinity) continue;
    if (const AffinePoint* key = FirstKey(g.recovered)) {
      Admit(g.signer, *key, g.idx.size(), &outcome);
    }
  }
  table_checks_.fetch_add(outcome.table_checks, std::memory_order_relaxed);
  return outcome;
}

void SignerKeyCache::Anchor(Group* g, const Hash256* hashes,
                            const EcdsaSignature* sigs, uint8_t* ok,
                            ThreadPool* pool, Outcome* outcome) {
  // The first try is alone, so a clean group pays one recovery; after a
  // miss the tries go in pool-wide waves, so forged entries cost no more
  // latency than per-entry recovery.
  const size_t m = g->idx.size();
  const size_t width = pool != nullptr ? pool->num_threads() : 1;
  const AffinePoint* key = nullptr;
  std::vector<AffinePoint> recovered;
  for (size_t wave = 1; g->next < m && key == nullptr; wave = width) {
    const size_t lo = g->next;
    const size_t end = std::min(m, lo + wave);
    recovered.assign(end - lo, AffinePoint::Infinity());
    ForEach(pool, end - lo, [&](size_t k) {
      const size_t i = g->idx[lo + k];
      recovered[k] = RecoverKeyOf(g->signer, hashes[i], sigs[i]);
      ok[i] = recovered[k].infinity ? 0 : 1;
    });
    key = FirstKey(recovered);
    g->next = end;
  }
  if (key == nullptr) return;
  g->known = Admit(g->signer, *key, m, outcome);
  if (g->known.build) {
    g->known.table = BuildTable(g->signer, g->known.key, outcome);
  }
}

SignerKeyCache::Known SignerKeyCache::CountLocked(const Address& signer,
                                                  uint64_t checks) {
  auto it = index_.find(signer);
  if (it == index_.end()) return Known{};
  lru_.splice(lru_.begin(), lru_, it->second);
  Entry& e = *it->second;
  e.checks += checks;
  return Known{e.key, e.table,
               e.table == nullptr && e.checks >= kTableAfterChecks};
}

SignerKeyCache::Known SignerKeyCache::Admit(const Address& signer,
                                            const AffinePoint& key,
                                            uint64_t checks,
                                            Outcome* outcome) {
  // The one way in for a key: under its own address.
  if (key.infinity || AddressFromPublicKey(key) != signer) return Known{};
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.find(signer) == index_.end()) {
    if (lru_.size() >= kCapacity) {
      const Entry& oldest = lru_.back();
      if (oldest.table != nullptr) {
        TableSizeChangedLocked(
            -1, -static_cast<int64_t>(oldest.table->MemoryBytes()), outcome);
      }
      index_.erase(oldest.signer);
      lru_.pop_back();
    }
    lru_.push_front(Entry{signer, key, 0, nullptr});
    index_.emplace(signer, lru_.begin());
  }
  return CountLocked(signer, checks);
}

std::shared_ptr<const FixedPointTable> SignerKeyCache::BuildTable(
    const Address& signer, const AffinePoint& key, Outcome* outcome) {
  auto table = std::make_shared<const FixedPointTable>(key);
  ++outcome->table_builds;
  table_builds_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(signer);
  if (it == index_.end()) return table;  // Evicted: this call's alone.
  Entry& e = *it->second;
  if (e.table == nullptr) {
    e.table = table;
    TableSizeChangedLocked(1, static_cast<int64_t>(table->MemoryBytes()),
                           outcome);
  }
  return e.table;
}

void SignerKeyCache::TableSizeChangedLocked(int64_t tables, int64_t bytes,
                                            Outcome* outcome) {
  tables_ += tables;
  table_bytes_ += bytes;
  outcome->tables_added += tables;
  outcome->table_bytes_added += bytes;
}

SignerKeyCache::Stats SignerKeyCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.signers = lru_.size();
  s.tables = static_cast<size_t>(tables_);
  s.table_bytes = table_bytes_;
  s.table_builds = table_builds_.load(std::memory_order_relaxed);
  s.table_checks = table_checks_.load(std::memory_order_relaxed);
  return s;
}

namespace {

SignerKeyCache& ProcessKeyCache() {
  // Never destroyed: other threads may still check signatures while the
  // process exits.
  static SignerKeyCache* const cache = new SignerKeyCache();
  return *cache;
}

}  // namespace

bool SignedBy(const Address& address, const Hash256& hash,
              const EcdsaSignature& sig) {
  uint8_t ok = 0;
  ProcessKeyCache().Verify(&address, &hash, &sig, 1, &ok);
  return ok == 1;
}

SignerKeyCache::Stats SignedByStats() { return ProcessKeyCache().stats(); }

}  // namespace wedge
