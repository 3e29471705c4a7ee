#ifndef WEDGEBLOCK_NET_FAULT_TRANSPORT_H_
#define WEDGEBLOCK_NET_FAULT_TRANSPORT_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <string>

#include "common/clock.h"
#include "common/random.h"

namespace wedge {

/// Probabilistic fault rates for a FaultyTransport. All decisions are drawn
/// from one seeded Rng, so a fixed (seed, call sequence) pair replays the
/// exact same fault schedule — chaos runs are reproducible bit-for-bit.
struct FaultSpec {
  uint64_t seed = 1;
  /// Probability that a dial attempt is refused outright (as if the peer's
  /// listener were down), independent of scripted partitions.
  double connect_refuse_rate = 0;
  /// Probability that a frame send kills the connection instead of
  /// delivering (models a mid-stream RST / lossy link that TCP gives up on).
  double send_drop_rate = 0;
  /// Probability that a frame send is delayed by a uniform draw from
  /// [send_delay_min, send_delay_max] before hitting the wire.
  double send_delay_rate = 0;
  Micros send_delay_min = 0;
  Micros send_delay_max = 0;
  /// Probability that a frame is written twice back-to-back. The copy
  /// repeats a sealed frame's sequence number, so the receiver sees a
  /// replay: it fails its tag and the connection closes.
  double send_duplicate_rate = 0;
};

/// Deterministic, seeded network-fault model shared by TcpNodeClient
/// (via TcpClientConfig::faults) and in-process tests. The transport only
/// *decides* — the caller enacts the decision (sleep for a delay, shutdown
/// for a drop, double-write for a duplicate) — so the same object can sit
/// under real sockets or a purely in-memory harness.
///
/// Scripted partitions layer on top of the probabilistic spec: while an
/// endpoint is partitioned, every dial is refused and every send is
/// dropped, deterministically, until Heal()/HealAll(). The wildcard
/// endpoint "*" partitions everything (a full network freeze).
///
/// Thread-safe: all methods may be called from concurrent connections.
class FaultyTransport {
 public:
  explicit FaultyTransport(FaultSpec spec);

  enum class SendAction { kDeliver, kDrop, kDuplicate };
  struct SendDecision {
    SendAction action = SendAction::kDeliver;
    Micros delay = 0;  ///< Sleep this long before enacting `action`.
  };

  /// Returns false when the dial must fail as connection-refused.
  bool AllowConnect(const std::string& endpoint);
  /// Decides the fate of one outbound frame to `endpoint`.
  SendDecision OnSend(const std::string& endpoint);

  /// Scripted partition control. `endpoint` is "host:port", or "*" to cut
  /// every link at once.
  void Partition(const std::string& endpoint);
  void Heal(const std::string& endpoint);
  void HealAll();
  bool IsPartitioned(const std::string& endpoint) const;

  struct Counters {
    uint64_t refused_connects = 0;
    uint64_t dropped_sends = 0;
    uint64_t delayed_sends = 0;
    uint64_t duplicated_sends = 0;
  };
  Counters counters() const;

 private:
  bool PartitionedLocked(const std::string& endpoint) const;

  mutable std::mutex mu_;
  const FaultSpec spec_;
  Rng rng_;
  std::set<std::string> partitioned_;
  Counters counters_;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_NET_FAULT_TRANSPORT_H_
