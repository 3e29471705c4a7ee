#include "checks.h"

#include "crypto/sha256.h"

namespace wedge::perfbench {

std::string CheckAppendReply(const std::vector<AppendRequest>& sent,
                             const std::vector<Stage1Response>& got,
                             uint32_t shard) {
  if (got.size() != sent.size()) {
    return "sent " + std::to_string(sent.size()) + " requests, got " +
           std::to_string(got.size()) + " responses";
  }
  if (got.empty()) return "";
  const uint64_t log_id = got.front().index.log_id;
  for (size_t i = 0; i < got.size(); ++i) {
    const Stage1Response& r = got[i];
    if (r.index.log_id != log_id || r.proof.log_id != log_id) {
      return "response " + std::to_string(i) + " is on log " +
             std::to_string(r.index.log_id) + ", response 0 on log " +
             std::to_string(log_id);
    }
    if (r.index.offset != i) {
      return "response " + std::to_string(i) + " has offset " +
             std::to_string(r.index.offset);
    }
    if (r.proof.shard_id != shard) {
      return "response " + std::to_string(i) + " names shard " +
             std::to_string(r.proof.shard_id) + ", tenant is on shard " +
             std::to_string(shard);
    }
  }
  return "";
}

std::string CheckReadReply(const EntryIndex& asked, const Stage1Response& got,
                           uint32_t shard) {
  if (!(got.index == asked) || got.proof.log_id != asked.log_id) {
    return "asked for " + std::to_string(asked.log_id) + ":" +
           std::to_string(asked.offset) + ", got " +
           std::to_string(got.index.log_id) + ":" +
           std::to_string(got.index.offset);
  }
  if (got.proof.shard_id != shard) {
    return "read names shard " + std::to_string(got.proof.shard_id) +
           ", tenant is on shard " + std::to_string(shard);
  }
  return "";
}

std::string CheckVerifiedEntry(const Stage1Response& got,
                               const Address& engine, uint32_t shard,
                               const EntryIndex& index,
                               const Hash256& entry_sha) {
  if (std::string e = CheckReadReply(index, got, shard); !e.empty()) return e;
  if (!got.Verify(engine)) return "stage-1 verification failed";
  if (Sha256::Digest(got.entry.get()) != entry_sha) {
    return "entry bytes differ from the bytes appended";
  }
  return "";
}

}  // namespace wedge::perfbench
