#include "core/offchain_node.h"

#include <algorithm>
#include <atomic>

namespace wedge {

namespace {

/// Heap bytes of a cached position (wedge.node.tree_cache_bytes): its
/// tree's hashes, all levels, and its signatures.
int64_t CachedBytes(const MerkleTree& tree,
                    const std::vector<EcdsaSignature>* sigs) {
  size_t hashes = 0;
  for (size_t level = 0; level < tree.Depth(); ++level) {
    hashes += tree.LevelSize(level);
  }
  const size_t sig_count = sigs == nullptr ? 0 : sigs->size();
  return static_cast<int64_t>(hashes * sizeof(Hash256) +
                              sig_count * sizeof(EcdsaSignature));
}

}  // namespace

OffchainNode::OffchainNode(const OffchainNodeConfig& config, KeyPair key,
                           std::unique_ptr<LogStore> store, Blockchain* chain,
                           const Address& root_record_address,
                           Telemetry* telemetry)
    : config_(config),
      key_(std::move(key)),
      store_(std::move(store)),
      chain_(chain),
      root_record_address_(root_record_address),
      pool_(config.worker_threads),
      owned_telemetry_(
          telemetry != nullptr
              ? nullptr
              : std::make_unique<Telemetry>(
                    chain != nullptr
                        ? static_cast<const Clock*>(chain->clock())
                        : nullptr)),
      telemetry_(telemetry != nullptr ? telemetry : owned_telemetry_.get()),
      submitter_(config.stage2, chain, key_.address(), root_record_address,
                 telemetry_),
      byzantine_mode_(config.byzantine_mode) {
  MetricsRegistry& m = telemetry_->metrics;
  entries_ingested_counter_ = m.GetCounter("wedge.node.entries_ingested");
  batches_counter_ = m.GetCounter("wedge.node.batches_created");
  invalid_sig_counter_ =
      m.GetCounter("wedge.node.invalid_signatures_rejected");
  key_table_checks_counter_ = m.GetCounter("wedge.node.key_table_checks");
  key_table_builds_counter_ = m.GetCounter("wedge.node.key_table_builds");
  reads_counter_ = m.GetCounter("wedge.node.reads_served");
  tree_cache_hits_counter_ = m.GetCounter("wedge.node.tree_cache_hits");
  tree_cache_misses_counter_ = m.GetCounter("wedge.node.tree_cache_misses");
  tree_cache_bytes_gauge_ = m.GetGauge("wedge.node.tree_cache_bytes");
  key_tables_gauge_ = m.GetGauge("wedge.node.key_tables");
  key_table_bytes_gauge_ = m.GetGauge("wedge.node.key_table_bytes");
  append_hist_ = m.GetHistogram("wedge.node.append_us");
  seal_hist_ = m.GetHistogram("wedge.node.seal_us");
  read_hist_ = m.GetHistogram("wedge.node.read_us");
  sign_hist_ = m.GetHistogram("wedge.node.sign_us");
  // A store reopened from disk resumes its id sequence.
  next_log_id_ = store_->Size();
  next_commit_id_ = next_log_id_;
  next_enqueue_id_ = next_log_id_;
  next_handoff_ = next_log_id_;
  if (chain_ != nullptr) sink_ = &submitter_;
}

OffchainNode::~OffchainNode() {
  // The gauges sum every node on the registry, which may outlive this one.
  tree_cache_bytes_gauge_->Add(-tree_cache_bytes_);
  const SignerKeyCache::Stats keys = keys_.stats();
  key_tables_gauge_->Add(-static_cast<int64_t>(keys.tables));
  key_table_bytes_gauge_->Add(-keys.table_bytes);
}

Result<std::vector<Stage1Response>> OffchainNode::Append(
    const std::vector<AppendRequest>& requests) {
  return Append(std::vector<AppendRequest>(requests));
}

Result<std::vector<Stage1Response>> OffchainNode::Append(
    std::vector<AppendRequest>&& requests) {
  if (requests.empty()) {
    return Status::InvalidArgument("empty append request list");
  }
  Stopwatch watch(RealClock::Global());

  std::vector<uint8_t> valid(requests.size(), 1);
  if (config_.verify_client_signatures) {
    VerifyClientSignatures(requests, &valid);
  }

  std::vector<AppendRequest> accepted;
  accepted.reserve(requests.size());
  uint64_t rejected = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (valid[i]) {
      accepted.push_back(std::move(requests[i]));
    } else {
      ++rejected;
    }
  }
  if (rejected > 0) invalid_sig_counter_->Add(rejected);
  if (accepted.empty()) {
    return Status::InvalidArgument("all requests had invalid signatures");
  }

  std::vector<Stage1Response> responses;
  responses.reserve(accepted.size());
  size_t cursor = 0;
  while (cursor < accepted.size()) {
    size_t take = std::min<size_t>(config_.batch_size,
                                   accepted.size() - cursor);
    std::vector<AppendRequest> batch(
        std::make_move_iterator(accepted.begin() + cursor),
        std::make_move_iterator(accepted.begin() + cursor + take));
    cursor += take;
    WEDGE_ASSIGN_OR_RETURN(std::vector<Stage1Response> part,
                           SealBatch(std::move(batch)));
    for (auto& r : part) responses.push_back(std::move(r));
  }
  append_hist_->Record(watch.ElapsedMicros());
  return responses;
}

void OffchainNode::VerifyClientSignatures(
    const std::vector<AppendRequest>& requests, std::vector<uint8_t>* valid) {
  const size_t n = requests.size();
  std::vector<Address> publishers(n);
  std::vector<Hash256> hashes(n);
  std::vector<EcdsaSignature> sigs(n);
  auto gather = [&](size_t i) {
    publishers[i] = requests[i].publisher;
    hashes[i] = requests[i].SignedHash();
    sigs[i] = requests[i].signature;
  };
  // Hashing and signature checks are embarrassingly parallel and run on
  // all cores (paper §5).
  pool_.ParallelFor(n, gather);
  CountKeyCacheWork(keys_.Verify(publishers.data(), hashes.data(),
                                 sigs.data(), n, valid->data(), &pool_));
}

void OffchainNode::CountKeyCacheWork(const SignerKeyCache::Outcome& outcome) {
  if (outcome.table_checks > 0) {
    key_table_checks_counter_->Add(outcome.table_checks);
  }
  if (outcome.table_builds > 0) {
    key_table_builds_counter_->Add(outcome.table_builds);
  }
  if (outcome.tables_added != 0) key_tables_gauge_->Add(outcome.tables_added);
  if (outcome.table_bytes_added != 0) {
    key_table_bytes_gauge_->Add(outcome.table_bytes_added);
  }
}

Status OffchainNode::SubmitAppend(AppendRequest request) {
  if (config_.verify_client_signatures) {
    const Hash256 hash = request.SignedHash();
    uint8_t ok = 0;
    CountKeyCacheWork(
        keys_.Verify(&request.publisher, &hash, &request.signature, 1, &ok));
    if (!ok) {
      invalid_sig_counter_->Add(1);
      return Status::Verification("invalid client signature");
    }
  }
  std::vector<AppendRequest> to_seal;
  {
    std::lock_guard<std::mutex> lock(mu_);
    staging_.push_back(std::move(request));
    if (staging_.size() < config_.batch_size) return Status::Ok();
    to_seal.swap(staging_);
  }
  Result<std::vector<Stage1Response>> sealed = SealBatch(std::move(to_seal));
  if (!sealed.ok()) return sealed.status();
  ResponseCallback cb;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cb = response_callback_;
  }
  if (cb) cb(std::move(sealed).value());
  return Status::Ok();
}

void OffchainNode::SetResponseCallback(ResponseCallback callback) {
  std::lock_guard<std::mutex> lock(mu_);
  response_callback_ = std::move(callback);
}

size_t OffchainNode::StagedRequests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return staging_.size();
}

Result<std::vector<Stage1Response>> OffchainNode::FlushStagedBatch() {
  std::vector<AppendRequest> to_seal;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (staging_.empty()) {
      return Status::NotFound("staging batch is empty");
    }
    to_seal.swap(staging_);
  }
  Result<std::vector<Stage1Response>> sealed = SealBatch(std::move(to_seal));
  if (sealed.ok()) {
    ResponseCallback cb;
    {
      std::lock_guard<std::mutex> lock(mu_);
      cb = response_callback_;
    }
    if (cb) {
      // Single owner: the callback takes the responses (as on the
      // batch-full path) and the caller gets an empty vector.
      cb(std::move(sealed).value());
      return std::vector<Stage1Response>();
    }
  }
  return sealed;
}

Result<std::vector<Stage1Response>> OffchainNode::SealBatch(
    std::vector<AppendRequest> batch) {
  Stopwatch watch(RealClock::Global());
  // Leaves are the canonical encodings of the accepted requests; the
  // batch order fixes the event order that stage-2 will commit (§2.3).
  // Each payload is serialized exactly once into shared ownership: the
  // log position, the Merkle tree and every response reference the same
  // allocation (copying a SharedBytes bumps a refcount).
  std::vector<SharedBytes> leaves(batch.size());
  pool_.ParallelFor(batch.size(),
                    [&](size_t i) { leaves[i] = batch[i].Serialize(); });

  WEDGE_ASSIGN_OR_RETURN(MerkleTree tree, MerkleTree::Build(leaves, &pool_));
  auto shared_tree = std::make_shared<MerkleTree>(std::move(tree));

  LogPosition position;
  position.data_list = leaves;
  position.mroot = shared_tree->Root();

  // Claim the next dense log id — the only work that needs the global
  // node lock. Hashing above and signing below run concurrently across
  // sealers; ids stay dense and monotone.
  uint64_t log_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    log_id = next_log_id_++;
  }
  position.log_id = log_id;
  telemetry_->tracer.Event(log_id, trace_stage::kIngest, batch.size());

  // The store requires consecutive ids, so sealers stage their append in
  // ticket order: wait until every earlier id has prepared. Only the
  // PREPARE — a buffered WAL write, no sync — runs under the ticket; the
  // ticket always advances (even on failure) so a failed append never
  // deadlocks later sealers.
  Status commit_status = Status::Ok();
  uint64_t durable_token = 0;
  {
    std::unique_lock<std::mutex> lock(seal_mu_);
    seal_cv_.wait(lock, [&] { return next_commit_id_ == log_id; });
    Result<uint64_t> prepared = store_->AppendPrepare(position);
    if (prepared.ok()) {
      durable_token = prepared.value();
    } else {
      commit_status = prepared.status();
    }
    ++next_commit_id_;
    seal_cv_.notify_all();
  }
  // Durability wait OUTSIDE the ticket: every concurrent sealer parks
  // here and a group-commit store amortizes one sync across all of them.
  // Nothing downstream — the root hand-off below, the client ack —
  // happens before this returns: a root the chain commits must never be
  // one a crash can still revoke, or a restart would reuse the log id
  // for a different batch and hand out punishable "equivocation".
  if (commit_status.ok()) {
    commit_status = store_->WaitDurable(durable_token);
  }
  {
    // The sink must see roots in log order; the seal ticket is long
    // gone, so handing over holds a ticket of its own. Advances on
    // failure for the same no-deadlock reason.
    std::unique_lock<std::mutex> lock(enqueue_mu_);
    enqueue_cv_.wait(lock, [&] { return next_enqueue_id_ == log_id; });
    if (commit_status.ok() && sink_ != nullptr) {
      Hash256 stage2_root = shared_tree->Root();
      if (byzantine_mode_.load(std::memory_order_relaxed) ==
          ByzantineMode::kEquivocateRoot) {
        // The node promises one root in stage-1 but schedules a
        // different one for blockchain commitment.
        stage2_root[0] ^= 0xFF;
      }
      // Roots stored before a restart that the sink has not seen go
      // first, so it never sees a gap.
      commit_status = HandOffLocked(log_id).status();
      if (commit_status.ok()) {
        commit_status = sink_->TakeRoot(config_.shard_id, log_id, stage2_root);
      }
      if (commit_status.ok()) next_handoff_ = log_id + 1;
    }
    ++next_enqueue_id_;
    enqueue_cv_.notify_all();
  }
  WEDGE_RETURN_IF_ERROR(commit_status);
  telemetry_->tracer.Event(log_id, trace_stage::kSeal, batch.size());
  entries_ingested_counter_->Add(batch.size());
  batches_counter_->Add(1);
  {
    // Cache the freshly built tree for the read path; the signatures join
    // it below, once made.
    std::lock_guard<std::mutex> lock(mu_);
    CacheTreeLocked(log_id, {shared_tree, nullptr});
  }

  // Produce responses in parallel (proof generation per entry), then
  // batch-sign them: chunked EcdsaSignMany fanned across the pool beats
  // one EcdsaSign per entry both by core scaling and by the batched
  // inversions inside each chunk.
  const ByzantineMode mode = byzantine_mode_.load(std::memory_order_relaxed);
  std::vector<Stage1Response> responses(batch.size());
  std::atomic<bool> failed{false};
  pool_.ParallelFor(batch.size(), [&](size_t i) {
    Stage1Response resp;
    resp.entry = leaves[i];
    resp.index = EntryIndex{log_id, static_cast<uint32_t>(i)};
    resp.proof.shard_id = config_.shard_id;
    resp.proof.log_id = log_id;
    resp.proof.mroot = shared_tree->Root();
    if (!shared_tree->ProveInto(i, &resp.proof.merkle_proof).ok()) {
      failed.store(true);
      return;
    }
    if (mode == ByzantineMode::kCorruptProof &&
        !resp.proof.merkle_proof.path.empty()) {
      // Corrupt the path BEFORE signing: the signature stays authentic,
      // which is exactly the case-2 evidence Algorithm 2 punishes.
      resp.proof.merkle_proof.path[0].sibling[0] ^= 0xFF;
    }
    responses[i] = std::move(resp);
  });
  if (failed.load()) {
    return Status::Internal("merkle proof generation failed");
  }
  if (config_.sign_stage1_responses) {
    std::vector<EcdsaSignature> sigs =
        SignResponsesPooled(responses.data(), responses.size());
    // A read of entry i signs the statement signed here for responses[i]
    // (same tree, path and entry), so it serves this signature. Not under
    // kCorruptProof: those signatures cover corrupted paths, and reads
    // serve honest ones.
    if (mode != ByzantineMode::kCorruptProof) {
      auto shared_sigs =
          std::make_shared<const std::vector<EcdsaSignature>>(std::move(sigs));
      std::lock_guard<std::mutex> lock(mu_);
      CacheTreeLocked(log_id, {shared_tree, std::move(shared_sigs)});
    }
  }
  telemetry_->tracer.Event(log_id, trace_stage::kStage1Signed, batch.size());
  seal_hist_->Record(watch.ElapsedMicros());

  if (config_.auto_stage2 &&
      PendingDigests() >= std::max<uint32_t>(1, config_.stage2_group_batches)) {
    Result<TxId> tx = CommitPendingDigests();
    // kOmitStage2 and chain-less configurations legitimately skip.
    if (!tx.ok() && tx.status().code() != Code::kNotFound &&
        tx.status().code() != Code::kFailedPrecondition) {
      return tx.status();
    }
  }
  return responses;
}

Result<TxId> OffchainNode::CommitPendingDigests() {
  if (byzantine_mode_.load(std::memory_order_relaxed) ==
      ByzantineMode::kOmitStage2) {
    // Omission attack: silently discard the promised digests.
    submitter_.DiscardUnsubmitted();
    return Status::NotFound("stage-2 omitted (byzantine)");
  }
  return submitter_.SubmitPending();
}

size_t OffchainNode::PendingDigests() const {
  return submitter_.UnsubmittedDigests();
}

size_t OffchainNode::UncommittedDigests() const {
  return submitter_.UncommittedDigests();
}

std::vector<TxId> OffchainNode::Stage2TxIds() const {
  return submitter_.TxIds();
}

void OffchainNode::Stage2Tick() { submitter_.Tick(); }

Status OffchainNode::SetRootSink(RootSink* sink) {
  std::lock_guard<std::mutex> lock(enqueue_mu_);
  sink_ = sink;
  return sink_ == nullptr ? Status::Ok() : ResumeFromSinkLocked();
}

Result<uint64_t> OffchainNode::Recover() {
  std::lock_guard<std::mutex> lock(enqueue_mu_);
  if (sink_ == nullptr) {
    return Status::FailedPrecondition("no root sink attached");
  }
  WEDGE_RETURN_IF_ERROR(ResumeFromSinkLocked());
  // Every position whose hand-off turn has passed is durable; the sink
  // takes those it is missing and the normal pipeline commits them.
  return HandOffLocked(next_enqueue_id_);
}

Status OffchainNode::ResumeFromSinkLocked() {
  WEDGE_ASSIGN_OR_RETURN(uint64_t next, sink_->NextRoot(config_.shard_id));
  if (next > next_enqueue_id_) {
    return Status::Internal(
        "root sink ahead of the local log: store lost data");
  }
  next_handoff_ = next;
  return Status::Ok();
}

Result<uint64_t> OffchainNode::HandOffLocked(uint64_t end) {
  uint64_t handed = 0;
  for (; next_handoff_ < end; ++next_handoff_, ++handed) {
    WEDGE_ASSIGN_OR_RETURN(Hash256 root, store_->GetRoot(next_handoff_));
    WEDGE_RETURN_IF_ERROR(
        sink_->TakeRoot(config_.shard_id, next_handoff_, root));
  }
  return handed;
}

void OffchainNode::CacheTreeLocked(uint64_t log_id, CachedTree entry) {
  int64_t delta = 0;
  auto it = tree_cache_.find(log_id);
  if (it != tree_cache_.end()) {
    // Already cached (the seal attaching its signatures, or a racing read
    // that rebuilt an evicted tree): touch and refresh. A rebuilt tree has
    // the same leaves, so the seal's signatures still hold for it.
    tree_lru_.splice(tree_lru_.end(), tree_lru_, it->second.second);
    CachedTree& cached = it->second.first;
    delta -= CachedBytes(*cached.tree, cached.sigs.get());
    if (entry.sigs == nullptr) entry.sigs = std::move(cached.sigs);
    cached = std::move(entry);
    delta += CachedBytes(*cached.tree, cached.sigs.get());
  } else {
    delta += CachedBytes(*entry.tree, entry.sigs.get());
    tree_lru_.push_back(log_id);
    tree_cache_.emplace(
        log_id, std::make_pair(std::move(entry), std::prev(tree_lru_.end())));
  }
  while (tree_cache_.size() > config_.tree_cache_capacity &&
         !tree_lru_.empty()) {
    auto evicted = tree_cache_.find(tree_lru_.front());
    const CachedTree& gone = evicted->second.first;
    delta -= CachedBytes(*gone.tree, gone.sigs.get());
    tree_cache_.erase(evicted);
    tree_lru_.pop_front();
  }
  tree_cache_bytes_ += delta;
  tree_cache_bytes_gauge_->Add(delta);
}

Result<OffchainNode::CachedTree> OffchainNode::TreeFor(uint64_t log_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tree_cache_.find(log_id);
    if (it != tree_cache_.end()) {
      // LRU touch: move to the most-recently-used end.
      tree_lru_.splice(tree_lru_.end(), tree_lru_, it->second.second);
      tree_cache_hits_counter_->Add(1);
      return it->second.first;
    }
  }
  tree_cache_misses_counter_->Add(1);
  WEDGE_ASSIGN_OR_RETURN(LogPosition pos, store_->Get(log_id));
  WEDGE_ASSIGN_OR_RETURN(MerkleTree tree, MerkleTree::Build(pos.data_list));
  CachedTree rebuilt{std::make_shared<MerkleTree>(std::move(tree)), nullptr};
  std::lock_guard<std::mutex> lock(mu_);
  CacheTreeLocked(log_id, rebuilt);
  return rebuilt;
}

Stage1Response OffchainNode::MakeResponse(const SharedBytes& leaf,
                                          uint64_t log_id, uint32_t offset,
                                          const MerkleTree& tree,
                                          bool sign) const {
  Stage1Response resp;
  resp.entry = leaf;
  resp.index = EntryIndex{log_id, offset};
  resp.proof.shard_id = config_.shard_id;
  resp.proof.log_id = log_id;
  resp.proof.mroot = tree.Root();
  (void)tree.ProveInto(offset, &resp.proof.merkle_proof);
  if (sign) {
    Stopwatch watch(RealClock::Global());
    resp.offchain_signature = EcdsaSign(key_.private_key(), resp.SignedHash());
    sign_hist_->Record(watch.ElapsedMicros());
  }
  return resp;
}

std::vector<EcdsaSignature> OffchainNode::SignResponsesPooled(
    Stage1Response* responses, size_t n) const {
  if (n == 0) return {};
  Stopwatch watch(RealClock::Global());
  std::vector<Hash256> hashes(n);
  pool_.ParallelFor(n, [&](size_t i) { hashes[i] = responses[i].SignedHash(); });
  // Chunks small enough that every worker gets some, large enough that
  // the batched-inversion amortization inside EcdsaSignMany is intact.
  constexpr size_t kSignChunk = 128;
  std::vector<EcdsaSignature> sigs(n);
  const size_t chunks = (n + kSignChunk - 1) / kSignChunk;
  pool_.ParallelFor(chunks, [&](size_t c) {
    const size_t begin = c * kSignChunk;
    const size_t count = std::min(kSignChunk, n - begin);
    EcdsaSignMany(key_.private_key(), hashes.data() + begin, count,
                  sigs.data() + begin);
  });
  for (size_t i = 0; i < n; ++i) {
    responses[i].offchain_signature = sigs[i];
  }
  sign_hist_->Record(watch.ElapsedMicros());
  return sigs;
}

Result<Stage1Response> OffchainNode::ReadOne(const EntryIndex& index) {
  if (byzantine_mode_.load(std::memory_order_relaxed) ==
      ByzantineMode::kTamperReadData) {
    return ForgeTamperedRead(index);
  }
  Stopwatch watch(RealClock::Global());
  WEDGE_ASSIGN_OR_RETURN(CachedTree cached, TreeFor(index.log_id));
  const MerkleTree& tree = *cached.tree;
  WEDGE_ASSIGN_OR_RETURN(SharedBytes entry, store_->GetEntry(index));
  // A single-entry read is the one the store does not checksum: the
  // entry must hash to its leaf under the root this response signs.
  if (index.offset >= tree.LeafCount() ||
      MerkleTree::HashLeaf(entry) != tree.NodeAt(0, index.offset)) {
    return Status::Corruption("entry " + std::to_string(index.log_id) + ":" +
                              std::to_string(index.offset) +
                              " does not hash to its Merkle leaf");
  }
  reads_counter_->Add(1);
  Stage1Response resp = MakeResponse(entry, index.log_id, index.offset, tree,
                                     /*sign=*/cached.sigs == nullptr);
  if (cached.sigs != nullptr) {
    resp.offchain_signature = (*cached.sigs)[index.offset];
  }
  read_hist_->Record(watch.ElapsedMicros());
  return resp;
}

Result<std::vector<Stage1Response>> OffchainNode::Read(
    const std::vector<EntryIndex>& indices) {
  std::vector<Stage1Response> out(indices.size());
  std::vector<Status> failures(indices.size());
  pool_.ParallelFor(indices.size(), [&](size_t i) {
    auto r = ReadOne(indices[i]);
    if (r.ok()) {
      out[i] = std::move(r).value();
    } else {
      failures[i] = r.status();
    }
  });
  // The lowest failing index's status, typed (not-found, corruption, I/O).
  for (const Status& failure : failures) WEDGE_RETURN_IF_ERROR(failure);
  return out;
}

Result<std::vector<Stage1Response>> OffchainNode::Scan(uint64_t first_id,
                                                       uint64_t last_id) {
  std::vector<Stage1Response> out;
  for (uint64_t id = first_id; id <= last_id; ++id) {
    WEDGE_ASSIGN_OR_RETURN(LogPosition pos, store_->Get(id));
    WEDGE_ASSIGN_OR_RETURN(CachedTree cached, TreeFor(id));
    const std::vector<EcdsaSignature>* sigs = cached.sigs.get();
    size_t base = out.size();
    out.resize(base + pos.data_list.size());
    std::atomic<bool> failed{false};
    const bool tampering = byzantine_mode_.load(std::memory_order_relaxed) ==
                           ByzantineMode::kTamperReadData;
    pool_.ParallelFor(pos.data_list.size(), [&](size_t i) {
      if (tampering) {
        auto forged = ForgeTamperedRead(
            EntryIndex{id, static_cast<uint32_t>(i)});
        if (forged.ok()) {
          out[base + i] = std::move(forged).value();
        } else {
          failed.store(true);
        }
        return;
      }
      // Proofs in parallel; the seal's signatures, or a batch signing
      // below.
      out[base + i] = MakeResponse(pos.data_list[i], id,
                                   static_cast<uint32_t>(i), *cached.tree,
                                   /*sign=*/false);
      if (sigs != nullptr) out[base + i].offchain_signature = (*sigs)[i];
    });
    if (failed.load()) return Status::Internal("scan forgery failed");
    if (!tampering && sigs == nullptr) {
      SignResponsesPooled(out.data() + base, pos.data_list.size());
    }
    reads_counter_->Add(pos.data_list.size());
  }
  return out;
}

Result<BatchReadResponse> OffchainNode::ReadBatch(
    uint64_t log_id, std::vector<uint32_t> offsets) {
  WEDGE_ASSIGN_OR_RETURN(LogPosition pos, store_->Get(log_id));
  WEDGE_ASSIGN_OR_RETURN(CachedTree cached, TreeFor(log_id));
  const std::shared_ptr<MerkleTree>& tree = cached.tree;

  if (offsets.empty()) {
    offsets.resize(pos.data_list.size());
    for (size_t i = 0; i < offsets.size(); ++i) {
      offsets[i] = static_cast<uint32_t>(i);
    }
  }
  BatchReadResponse resp;
  resp.shard_id = config_.shard_id;
  resp.log_id = log_id;
  resp.mroot = tree->Root();
  std::vector<uint64_t> indices;
  indices.reserve(offsets.size());
  for (uint32_t offset : offsets) {
    if (offset >= pos.data_list.size()) {
      return Status::NotFound("entry offset out of range");
    }
    resp.entries.emplace_back(offset, pos.data_list[offset]);
    indices.push_back(offset);
  }
  WEDGE_ASSIGN_OR_RETURN(resp.proof, BuildMultiProof(*tree, indices));
  {
    Stopwatch sign_watch(RealClock::Global());
    resp.offchain_signature =
        EcdsaSign(key_.private_key(), resp.SignedHash());
    sign_hist_->Record(sign_watch.ElapsedMicros());
  }
  reads_counter_->Add(resp.entries.size());
  return resp;
}

Result<Stage1Response> OffchainNode::ForgeTamperedRead(
    const EntryIndex& index) {
  // A lying node cannot fake the on-chain root, but it can sign an
  // internally consistent response over tampered data: rebuild the batch
  // with the entry modified, recompute the tree, sign. Stage-1
  // verification passes; the root mismatch against the Root Record
  // contract is the client's punishable evidence.
  WEDGE_ASSIGN_OR_RETURN(LogPosition pos, store_->Get(index.log_id));
  if (index.offset >= pos.data_list.size()) {
    return Status::NotFound("entry offset out of range");
  }
  std::vector<SharedBytes> tampered = pos.data_list;
  if (tampered[index.offset].empty()) {
    tampered[index.offset] = ToBytes("forged");
  } else {
    // SharedBytes is immutable: tamper on a private copy, then share it.
    Bytes mutated = tampered[index.offset].get();
    mutated.back() ^= 0xFF;
    tampered[index.offset] = std::move(mutated);
  }
  WEDGE_ASSIGN_OR_RETURN(MerkleTree fake_tree, MerkleTree::Build(tampered));
  reads_counter_->Add(1);
  return MakeResponse(tampered[index.offset], index.log_id, index.offset,
                      fake_tree);
}

Result<uint32_t> OffchainNode::PositionEntryCount(uint64_t log_id) const {
  // Index-backed (LogStore::GetEntryCount), so a garbage-collected
  // position still answers and aggregation never stalls on GC.
  return store_->GetEntryCount(log_id);
}

OffchainNodeStats OffchainNode::stats() const {
  OffchainNodeStats s;
  s.entries_ingested = entries_ingested_counter_->Value();
  s.batches_created = batches_counter_->Value();
  s.invalid_signatures_rejected = invalid_sig_counter_->Value();
  s.key_table_checks = key_table_checks_counter_->Value();
  s.key_table_builds = key_table_builds_counter_->Value();
  s.reads_served = reads_counter_->Value();
  s.stage2_txs_submitted = submitter_.stats().txs_submitted;
  s.tree_cache_hits = tree_cache_hits_counter_->Value();
  s.tree_cache_misses = tree_cache_misses_counter_->Value();
  return s;
}

void OffchainNode::set_byzantine_mode(ByzantineMode mode) {
  byzantine_mode_.store(mode, std::memory_order_relaxed);
}

}  // namespace wedge
