#ifndef WEDGEBLOCK_CRYPTO_SIGNER_KEY_CACHE_H_
#define WEDGEBLOCK_CRYPTO_SIGNER_KEY_CACHE_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/thread_pool.h"
#include "crypto/ecdsa.h"

namespace wedge {

/// A bounded cache of signers' public keys and key tables, for checking
/// many signatures that claim the same few signers (DESIGN.md
/// "Fixed-key verification"). Verify's verdicts are exactly
/// RecoverSigner(hash, sig) == signer; the cache only decides how each
/// is computed:
///   - A signer the cache does not know is checked by recovery, and the
///     key of its first signature that recovers to it is kept. A key
///     enters only under its own address, so a signature that claims
///     one signer but recovers to another cannot plant a key.
///   - Once kTableAfterChecks of a known signer's signatures have been
///     checked, counted across calls with the current call included,
///     its key gets a FixedPointTable, and every later check of that
///     signer runs VerifyRecoverableMany on the table: recovery's own
///     predicate, at ~0.4x its cost.
///   - At most kCapacity signers are kept. The least recently used is
///     evicted and, when next seen, starts over by recovery.
///
/// Thread-safe. The lock covers lookups, counts and inserts only: tables
/// are built and used outside it. Two callers that race to build one
/// signer's table both build it, and the first insert is kept.
class SignerKeyCache {
 public:
  /// Signers kept: with ~58 KiB tables, at most ~15 MiB.
  static constexpr size_t kCapacity = 256;
  /// Checks of one signer after which its key gets a table: ~1.7x the
  /// ~9-entry CPU break-even of one build against recovery.
  static constexpr uint64_t kTableAfterChecks = 16;
  /// Table checks per task; a task's checks share one s-inversion and
  /// one batch normalization.
  static constexpr size_t kTableChunk = 16;

  SignerKeyCache() = default;

  SignerKeyCache(const SignerKeyCache&) = delete;
  SignerKeyCache& operator=(const SignerKeyCache&) = delete;

  /// What one Verify call did.
  struct Outcome {
    size_t table_checks = 0;  ///< Signatures checked on a key table.
    size_t table_builds = 0;  ///< Tables built.
    int64_t tables_added = 0;  ///< Tables kept, less tables evicted.
    int64_t table_bytes_added = 0;  ///< Their bytes, likewise.
  };

  /// ok[i] = 1 iff signers[i] is not the zero address (which failed
  /// recovery also yields) and RecoverSigner(hashes[i], sigs[i]) ==
  /// signers[i], for i in [0, n). The work fans out over `pool` when one
  /// is given; a signer seen for the first time with at least
  /// kTableAfterChecks signatures has its key recovered from the first
  /// that recovers to it, one try first and then pool-wide waves, and
  /// every entry tried keeps recovery's verdict.
  Outcome Verify(const Address* signers, const Hash256* hashes,
                 const EcdsaSignature* sigs, size_t n, uint8_t* ok,
                 ThreadPool* pool = nullptr);

  struct Stats {
    size_t signers = 0;  ///< Keys cached.
    size_t tables = 0;   ///< Cached keys with a table.
    int64_t table_bytes = 0;
    uint64_t table_builds = 0;  ///< Over the cache's lifetime.
    uint64_t table_checks = 0;  ///< Over the cache's lifetime.
  };
  Stats stats() const;

 private:
  struct Entry {
    Address signer;
    secp256k1::AffinePoint key;
    uint64_t checks = 0;
    std::shared_ptr<const secp256k1::FixedPointTable> table;
  };
  /// What a Verify call knows of one signer.
  struct Known {
    secp256k1::AffinePoint key;  ///< The identity when not cached.
    std::shared_ptr<const secp256k1::FixedPointTable> table;
    bool build = false;  ///< Key cached, no table, enough checks.
  };
  struct Group;

  /// Counts `checks` more checks of `signer` if it is cached, marks it
  /// most recently used and returns what is known of it.
  Known CountLocked(const Address& signer, uint64_t checks);
  /// Caches `key` for `signer` (if its address is `signer`) and counts
  /// `checks`.
  Known Admit(const Address& signer, const secp256k1::AffinePoint& key,
              uint64_t checks, Outcome* outcome);
  /// Builds `key`'s table and keeps it for `signer`, unless a table is
  /// already kept or the signer was evicted meanwhile. Returns the table
  /// to check on.
  std::shared_ptr<const secp256k1::FixedPointTable> BuildTable(
      const Address& signer, const secp256k1::AffinePoint& key,
      Outcome* outcome);
  /// Tries a new signer's first entries by recovery until one recovers
  /// to it, then admits its key.
  void Anchor(Group* g, const Hash256* hashes, const EcdsaSignature* sigs,
              uint8_t* ok, ThreadPool* pool, Outcome* outcome);
  void TableSizeChangedLocked(int64_t tables, int64_t bytes,
                              Outcome* outcome);

  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< Most recently used first.
  std::unordered_map<Address, std::list<Entry>::iterator, AddressHasher>
      index_;
  int64_t tables_ = 0;
  int64_t table_bytes_ = 0;
  std::atomic<uint64_t> table_builds_{0};
  std::atomic<uint64_t> table_checks_{0};
};

/// RecoverSigner(hash, sig) == address for a nonzero address, checked on
/// one process-wide SignerKeyCache: a client's check of a signed
/// response against the node or engine address it pins, which after that
/// key's first kTableAfterChecks checks runs on its table.
bool SignedBy(const Address& address, const Hash256& hash,
              const EcdsaSignature& sig);

/// Size and counts of SignedBy's process-wide cache.
SignerKeyCache::Stats SignedByStats();

}  // namespace wedge

#endif  // WEDGEBLOCK_CRYPTO_SIGNER_KEY_CACHE_H_
