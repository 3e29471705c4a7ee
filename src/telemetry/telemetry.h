#ifndef WEDGEBLOCK_TELEMETRY_TELEMETRY_H_
#define WEDGEBLOCK_TELEMETRY_TELEMETRY_H_

#include "telemetry/metrics.h"
#include "telemetry/tracer.h"

namespace wedge {

/// The measurement substrate every subsystem reports into: one metrics
/// registry plus one lifecycle tracer, sharing a clock. A
/// ShardedDeployment owns one (on its SimClock, so exports are
/// deterministic per seed) and hands the pointer down to the chain,
/// engine, nodes, stores, and network; components accept a null pointer
/// and fall back to a private instance or no-op.
struct Telemetry {
  Telemetry() : metrics(nullptr), tracer(nullptr) {
    tracer.SetDropCounter(metrics.GetCounter("wedge.trace.dropped"));
  }
  explicit Telemetry(const Clock* clock) : metrics(clock), tracer(clock) {
    tracer.SetDropCounter(metrics.GetCounter("wedge.trace.dropped"));
  }

  MetricsRegistry metrics;
  Tracer tracer;
};

}  // namespace wedge

#endif  // WEDGEBLOCK_TELEMETRY_TELEMETRY_H_
