#ifndef ZBBENCH_PROBES_H_
#define ZBBENCH_PROBES_H_

// Per-layer probes shared by every workload: codec replays on live
// journal batches and the counters the program already exports
// (MetricRegistry, GroupStats, SchedulerStats, JournalVolume,
// NetworkLink, the compute pool).

#include <cstdint>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "replication/replication.h"
#include "sim/environment.h"
#include "sim/network.h"

namespace zbbench {

// Encodes and decodes what each group's primary journal holds right now
// (wire::EncodeBatch/DecodeBatch on a PeekViews batch), timed as wire
// spans, and checks the round trip. Changes no simulation state.
void ReplayCodec(zerobak::replication::ReplicationEngine* engine,
                 const std::vector<uint64_t>& groups, Tracer* tracer,
                 RoundResult* result);

// Fills result->layer from the program's counters and folds the
// simulated ones into the round's fingerprint.
void CollectEngineLayers(zerobak::replication::ReplicationEngine* engine,
                         zerobak::obs::MetricRegistry& registry,
                         const zerobak::sim::NetworkLink& link,
                         const zerobak::sim::SimEnvironment& env,
                         const std::vector<uint64_t>& groups,
                         RoundResult* result);

}  // namespace zbbench

#endif  // ZBBENCH_PROBES_H_
