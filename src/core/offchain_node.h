#ifndef WEDGEBLOCK_CORE_OFFCHAIN_NODE_H_
#define WEDGEBLOCK_CORE_OFFCHAIN_NODE_H_

#include <atomic>
#include <condition_variable>
#include <list>
#include <memory>
#include <unordered_map>

#include "chain/blockchain.h"
#include "common/thread_pool.h"
#include "core/batch_read.h"
#include "core/data_model.h"
#include "core/stage2_submitter.h"
#include "crypto/signer_key_cache.h"

namespace wedge {

/// Fault-injection modes for the Offchain Node. The byzantine modes drive
/// the safety tests and the punishment-path experiments: every mode other
/// than kHonest is detectable (and punishable) under Definitions 3.1/3.2.
enum class ByzantineMode {
  kHonest,
  /// Stage-1 responses are honest but stage-2 commits a different root
  /// (classic equivocation; caught by CommitCheck::kMismatch).
  kEquivocateRoot,
  /// Read responses carry tampered data with a freshly forged (signed,
  /// internally consistent) proof; caught against the on-chain root.
  kTamperReadData,
  /// Stage-2 commits are silently dropped (omission attack, §4.7).
  kOmitStage2,
  /// Responses are signed over a corrupted Merkle proof; caught by
  /// stage-1 verification and punishable via Algorithm 2 case 2.
  kCorruptProof,
};

struct OffchainNodeConfig {
  /// Append requests per log position (the paper's default is 2000).
  uint32_t batch_size = 2000;
  /// Worker threads for parallel ECDSA signing/verification (the paper's
  /// prototype parallelizes these across all cores, §5).
  size_t worker_threads = 4;
  /// Submit a stage-2 transaction automatically after every batch.
  bool auto_stage2 = true;
  /// With auto_stage2, accumulate this many batch digests before issuing
  /// one updateRecords transaction (the grouping lever measured in
  /// bench/ablation_lmt; 1 = the paper's per-batch behaviour).
  uint32_t stage2_group_batches = 1;
  /// Skip client signature verification on ingest (benchmarking knob; the
  /// default matches the paper's protocol).
  bool verify_client_signatures = true;
  /// Sign stage-1 append responses (the core of LMT; default on). Read
  /// benches turn this off only to preload large logs quickly — read
  /// responses are always signed.
  bool sign_stage1_responses = true;
  /// Positions whose Merkle trees stay cached for read serving. A cached
  /// position of n entries holds its tree's ~2n hashes (~64 B per entry)
  /// and, when this node sealed it with signing on, each entry's
  /// seal-time stage-1 signature (72 B per entry), which warm reads serve
  /// instead of signing again.
  size_t tree_cache_capacity = 4096;
  /// Shard identity baked into every stage-1 signature (see
  /// contracts/stage1_message.h). A bare node is shard 0; the sharded
  /// engine assigns each shard its index so signatures from different
  /// shards can never be confused for each other.
  uint32_t shard_id = 0;
  ByzantineMode byzantine_mode = ByzantineMode::kHonest;
  /// Resilient stage-2 pipeline knobs (timeout, backoff, gas bumping).
  Stage2SubmitterConfig stage2;
};

/// Convenience snapshot of the node's `wedge.node.*` counters. This
/// struct is DERIVED from the telemetry registry (the registry is the
/// source of truth; see OffchainNode::stats()): any counter the node
/// registers must also be snapshotted here, or callers relying on the
/// struct silently lose it.
struct OffchainNodeStats {
  uint64_t entries_ingested = 0;
  uint64_t batches_created = 0;
  uint64_t invalid_signatures_rejected = 0;
  /// Entries whose signature was checked on a publisher's key table
  /// instead of being recovered (see OffchainNode::Append).
  uint64_t key_table_checks = 0;
  /// Publisher key tables built.
  uint64_t key_table_builds = 0;
  uint64_t stage2_txs_submitted = 0;
  uint64_t reads_served = 0;
  uint64_t tree_cache_hits = 0;
  uint64_t tree_cache_misses = 0;
};

/// The Offchain Node (paper §4.3): ingests append requests in batches,
/// builds a Merkle tree per batch, persists the log position, returns
/// signed stage-1 responses, and hands each durable batch root to one
/// RootSink for lazy commitment to the Root Record contract (stage-2) —
/// the LMT protocol. The sink is the node's own Stage2Submitter if it
/// has a chain, or whatever SetRootSink installs.
///
/// Thread-compatible: Append/Read may be called from multiple client
/// threads; internal state is mutex-protected and crypto work fans out to
/// the worker pool.
class OffchainNode {
 public:
  /// `chain` may be null for pure off-chain benchmarking (stage-2 calls
  /// then fail with FailedPrecondition). `telemetry` is the metrics/trace
  /// sink shared with the chain and submitter; when null the node owns a
  /// private one (readable via telemetry()), so instrumentation is
  /// always on.
  OffchainNode(const OffchainNodeConfig& config, KeyPair key,
               std::unique_ptr<LogStore> store, Blockchain* chain,
               const Address& root_record_address,
               Telemetry* telemetry = nullptr);

  ~OffchainNode();
  OffchainNode(const OffchainNode&) = delete;
  OffchainNode& operator=(const OffchainNode&) = delete;

  /// --- Append path (stage 1) ---

  /// Ingests a list of append requests: verifies client signatures,
  /// groups them into batches of config.batch_size, builds one log
  /// position per batch and returns a signed stage-1 response per valid
  /// request (in input order; invalid-signature requests are dropped and
  /// counted in stats). The node keeps its publishers' keys: once 16 of
  /// a publisher's entries have been checked, the rest are checked on
  /// its key table instead of recovered, with the same verdicts.
  Result<std::vector<Stage1Response>> Append(
      const std::vector<AppendRequest>& requests);
  /// Move overload for the hot path: valid requests are moved into the
  /// batch instead of copied (the lvalue overload copies first).
  Result<std::vector<Stage1Response>> Append(
      std::vector<AppendRequest>&& requests);

  /// Delivery hook for responses produced by the streaming path
  /// (SubmitAppend/FlushStagedBatch): the paper's node pushes stage-1
  /// responses back to publishers one batch at a time.
  using ResponseCallback = std::function<void(std::vector<Stage1Response>&&)>;
  void SetResponseCallback(ResponseCallback callback);

  /// Buffers a single request into the current (staging) batch. When the
  /// batch fills up it is sealed and responses flow to the callback.
  Status SubmitAppend(AppendRequest request);
  /// Number of requests waiting in the staging batch.
  size_t StagedRequests() const;
  /// Seals the staging batch regardless of fill level. When a response
  /// callback is set the sealed responses are moved to it (matching the
  /// batch-full path) and the returned vector is empty; otherwise the
  /// responses are returned. Either way there is exactly one owner.
  Result<std::vector<Stage1Response>> FlushStagedBatch();

  /// --- Read path ---

  /// Serves one entry's stage-1 response (§4.3 read requests). The entry
  /// must hash to its position's Merkle leaf, or the read fails with
  /// kCorruption and nothing is signed. A position whose tree is cached
  /// from its seal serves the signature the seal made for that entry (the
  /// same statement, and RFC 6979 makes it the same bytes); any other
  /// position signs afresh.
  Result<Stage1Response> ReadOne(const EntryIndex& index);
  /// ReadOne for each index; on failure, the status of the lowest
  /// failing index.
  Result<std::vector<Stage1Response>> Read(
      const std::vector<EntryIndex>& indices);
  /// Auditor scan: every entry in log positions [first_id, last_id].
  Result<std::vector<Stage1Response>> Scan(uint64_t first_id,
                                           uint64_t last_id);

  /// Batched read of one position: `offsets` selects entries (empty =
  /// the whole position). One multi-proof + one signature authenticate
  /// the whole batch — the fast audit path.
  Result<BatchReadResponse> ReadBatch(uint64_t log_id,
                                      std::vector<uint32_t> offsets = {});

  /// --- Stage 2 (lazy blockchain commitment) ---

  /// Replaces the root sink (null = none) and resumes handing roots over
  /// from the sink's NextRoot. Call before the node seals anything.
  Status SetRootSink(RootSink* sink);

  /// Submits one updateRecords transaction covering all pending digests.
  /// Returns the TxId, or NotFound when nothing is pending. The digests
  /// stay journaled in the submitter until a confirmed receipt covers
  /// them, so a failed or lost transaction never loses a root.
  Result<TxId> CommitPendingDigests();
  /// Digests sealed locally but not yet covered by a stage-2 submission.
  size_t PendingDigests() const;
  /// Digests not yet *confirmed* on-chain (submitted or not).
  size_t UncommittedDigests() const;
  /// TxIds of all stage-2 transactions submitted so far.
  std::vector<TxId> Stage2TxIds() const;
  /// Drives the stage-2 pipeline: reaps confirmations, detects lost or
  /// reverted transactions, retries with backoff + gas bumping. Call once
  /// per mined block (ShardedDeployment::AdvanceBlocks does, through
  /// the engine's Tick).
  void Stage2Tick();
  /// Direct access for tests and experiment harnesses.
  Stage2Submitter* stage2_submitter() { return &submitter_; }

  /// Crash recovery: asks the sink where it stands (RootSink::NextRoot)
  /// and hands it every durable root from there on. Returns the number
  /// handed over. Idempotent, and cheap once the sink has caught up; call
  /// it on a node reopened over an existing store.
  Result<uint64_t> Recover();

  /// --- Introspection ---

  const Address& address() const { return key_.address(); }
  uint64_t LogPositions() const { return store_->Size(); }
  /// The backing store (e.g. for engine-level recovery/GC plumbing).
  LogStore& store() { return *store_; }
  /// Number of entries stored at a log position.
  Result<uint32_t> PositionEntryCount(uint64_t log_id) const;
  OffchainNodeStats stats() const;
  const OffchainNodeConfig& config() const { return config_; }
  /// The node's metrics/trace sink (injected or privately owned).
  Telemetry& telemetry() { return *telemetry_; }

  /// Escape hatch for experiments that need to flip behaviour mid-run
  /// (e.g. an initially honest node that starts equivocating).
  void set_byzantine_mode(ByzantineMode mode);

 private:
  /// valid[i] = 1 iff requests[i].VerifySignature(), checked on keys_.
  void VerifyClientSignatures(const std::vector<AppendRequest>& requests,
                              std::vector<uint8_t>* valid);
  /// Adds one keys_.Verify call's work to the node's counters and
  /// gauges.
  void CountKeyCacheWork(const SignerKeyCache::Outcome& outcome);

  /// Seals `batch` into a log position and produces signed responses.
  Result<std::vector<Stage1Response>> SealBatch(
      std::vector<AppendRequest> batch);

  /// Resumes from the sink's NextRoot. Caller holds enqueue_mu_.
  Status ResumeFromSinkLocked();
  /// Hands the sink every stored root in [next_handoff_, end). Caller
  /// holds enqueue_mu_. Returns the number handed over.
  Result<uint64_t> HandOffLocked(uint64_t end);

  /// A cached position: its Merkle tree and, when this node sealed it
  /// with signing on, the stage-1 signature the seal made for each entry
  /// (null for a tree rebuilt from the store, or a seal that signed
  /// corrupted paths under kCorruptProof).
  struct CachedTree {
    std::shared_ptr<MerkleTree> tree;
    std::shared_ptr<const std::vector<EcdsaSignature>> sigs;
  };

  /// Returns the cached position (or a rebuilt tree with no signatures).
  Result<CachedTree> TreeFor(uint64_t log_id);

  /// Inserts (or touches and refreshes) `entry` in the LRU cache; an
  /// entry without signatures keeps those already cached. Caller holds
  /// mu_.
  void CacheTreeLocked(uint64_t log_id, CachedTree entry);

  /// Builds a stage-1 response; signs it inline (timed into
  /// wedge.node.sign_us) unless `sign` is false, in which case the
  /// caller supplies the signature or batch-signs via
  /// SignResponsesPooled.
  Stage1Response MakeResponse(const SharedBytes& leaf, uint64_t log_id,
                              uint32_t offset, const MerkleTree& tree,
                              bool sign = true) const;

  /// Signs `responses[0..n)` with the node key and returns the
  /// signatures: hashes in parallel, then fans fixed-size EcdsaSignMany
  /// chunks across the worker pool so the batched-inversion savings and
  /// core scaling compose. Records wedge.node.sign_us once for the whole
  /// batch.
  std::vector<EcdsaSignature> SignResponsesPooled(Stage1Response* responses,
                                                  size_t n) const;

  /// Byzantine read path: forge an internally consistent response over
  /// tampered data.
  Result<Stage1Response> ForgeTamperedRead(const EntryIndex& index);

  const OffchainNodeConfig config_;
  const KeyPair key_;
  std::unique_ptr<LogStore> store_;
  Blockchain* const chain_;
  const Address root_record_address_;
  mutable ThreadPool pool_;
  /// Fallback sink when no Telemetry is injected. Declared before
  /// submitter_ so telemetry_ is valid when the submitter is built.
  std::unique_ptr<Telemetry> owned_telemetry_;
  Telemetry* const telemetry_;
  Counter* entries_ingested_counter_ = nullptr;
  Counter* batches_counter_ = nullptr;
  Counter* invalid_sig_counter_ = nullptr;
  Counter* key_table_checks_counter_ = nullptr;
  Counter* key_table_builds_counter_ = nullptr;
  Counter* reads_counter_ = nullptr;
  Counter* tree_cache_hits_counter_ = nullptr;
  Counter* tree_cache_misses_counter_ = nullptr;
  /// Bytes of the cached trees' hashes and signatures (also kept in
  /// tree_cache_bytes_, under mu_, so the destructor can take this node's
  /// share back out).
  Gauge* tree_cache_bytes_gauge_ = nullptr;
  /// Publisher key tables held by keys_, and their bytes (the destructor
  /// takes this node's share back out).
  Gauge* key_tables_gauge_ = nullptr;
  Gauge* key_table_bytes_gauge_ = nullptr;
  Histogram* append_hist_ = nullptr;
  Histogram* seal_hist_ = nullptr;
  Histogram* read_hist_ = nullptr;
  Histogram* sign_hist_ = nullptr;
  Stage2Submitter submitter_;
  /// Publisher keys and key tables, for ingest signature checks.
  SignerKeyCache keys_;

  mutable std::mutex mu_;
  std::vector<AppendRequest> staging_;
  /// LRU tree cache: tree_lru_ is ordered oldest-touched first; each
  /// cache entry carries its position in the list for O(1) touch.
  std::unordered_map<uint64_t,
                     std::pair<CachedTree, std::list<uint64_t>::iterator>>
      tree_cache_;
  std::list<uint64_t> tree_lru_;
  int64_t tree_cache_bytes_ = 0;
  /// Next log id to hand out (dense, monotone). Guarded by mu_; sealing
  /// claims an id in a tiny critical section and does the heavy hashing
  /// and signing outside the lock.
  uint64_t next_log_id_ = 0;
  /// Atomic so read/seal paths can check the mode without taking mu_.
  std::atomic<ByzantineMode> byzantine_mode_;
  ResponseCallback response_callback_;

  /// Seal-ordering ticket: store append PREPARES must happen in log-id
  /// order even when batches finish hashing out of order. A sealer waits
  /// until next_commit_id_ equals its ticket, stages its position
  /// (LogStore::AppendPrepare — a buffered write, no sync), and releases
  /// the ticket BEFORE waiting for durability, so concurrent sealers
  /// coalesce into one group commit instead of serializing a sync each.
  std::mutex seal_mu_;
  std::condition_variable seal_cv_;
  uint64_t next_commit_id_ = 0;

  /// Hand-off ordering ticket: the sink must see roots in log order, and
  /// handing over happens after the durability wait (a root the chain
  /// commits must never be one a crash can revoke), i.e. outside the
  /// seal ticket — so the hand-off order needs a ticket of its own.
  std::mutex enqueue_mu_;
  std::condition_variable enqueue_cv_;
  uint64_t next_enqueue_id_ = 0;
  /// Guarded by enqueue_mu_: where roots go, and the next log id the
  /// sink expects (a fresh node assumes its sink has everything stored;
  /// SetRootSink and Recover ask the sink).
  RootSink* sink_ = nullptr;
  uint64_t next_handoff_ = 0;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_CORE_OFFCHAIN_NODE_H_
