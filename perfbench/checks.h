#ifndef WEDGEBLOCK_PERFBENCH_CHECKS_H_
#define WEDGEBLOCK_PERFBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "core/data_model.h"

namespace wedge::perfbench {

// Output checks the benchmark applies to the replies it receives. Each
// returns an empty string when the reply is right and otherwise says what
// is wrong, so a failed run names the operation and the defect.

/// Applied to every appendT reply: one response per request, at offsets
/// 0..n-1 of a single log id, each stamped with `shard` (the shard that
/// serves the tenant).
std::string CheckAppendReply(const std::vector<AppendRequest>& sent,
                             const std::vector<Stage1Response>& got,
                             uint32_t shard);

/// Applied to every readT reply: the response is for the requested index
/// and was sealed by `shard`.
std::string CheckReadReply(const EntryIndex& asked, const Stage1Response& got,
                           uint32_t shard);

/// Applied to sampled replies: the response passes stage-1 verification
/// against `engine` (signature over the shard-bound statement plus the
/// Merkle path), sits at `index` on `shard`, and carries the entry whose
/// SHA-256 is `entry_sha` (the serialized request that was appended).
std::string CheckVerifiedEntry(const Stage1Response& got,
                               const Address& engine, uint32_t shard,
                               const EntryIndex& index,
                               const Hash256& entry_sha);

}  // namespace wedge::perfbench

#endif  // WEDGEBLOCK_PERFBENCH_CHECKS_H_
