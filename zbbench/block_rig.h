#ifndef ZBBENCH_BLOCK_RIG_H_
#define ZBBENCH_BLOCK_RIG_H_

// The raw block-write system shared by hot_blocks and outage_resync: two
// storage arrays, the inter-site links and a ReplicationEngine with
// consistency groups of two volumes each, driven through
// StorageArray::SubmitHostWrite on timing-accurate media. Every host
// write is a stamped block recorded in a ShadowLog.

#include <cstdint>
#include <memory>
#include <vector>

#include "checks.h"
#include "common.h"
#include "obs/metrics.h"
#include "obs/rpo.h"
#include "obs/trace.h"
#include "replication/replication.h"
#include "sim/environment.h"
#include "sim/network.h"
#include "storage/array.h"

namespace zbbench {

struct BlockRigConfig {
  size_t groups = 1;
  size_t volumes_per_group = 2;
  uint64_t blocks = 2048;          // Per volume.
  uint64_t base_blocks = 256;      // Leading blocks written before pairing.
  double link_bytes_per_sec = 1.25e8;
  zerobak::SimDuration link_latency = zerobak::Milliseconds(5);
  zerobak::SimDuration link_jitter = zerobak::Microseconds(50);
  uint64_t journal_bytes = 64ull << 20;
};

class BlockRig {
 public:
  BlockRig(const BlockRigConfig& config, const RoundConfig& round,
           Tracer* tracer, RoundResult* result);
  ~BlockRig();

  BlockRig(const BlockRig&) = delete;
  BlockRig& operator=(const BlockRig&) = delete;

  // Builds both sites, writes the base image, creates the groups and
  // pairs and runs the initial copies; records set-up time. Failures are
  // recorded in the result; returns false if the round cannot go on.
  bool Setup();

  zerobak::sim::SimEnvironment* env() { return env_.get(); }
  zerobak::replication::ReplicationEngine* engine() { return engine_.get(); }
  zerobak::sim::NetworkLink* forward_link() { return fwd_.get(); }
  zerobak::sim::NetworkLink* reverse_link() { return rev_.get(); }
  zerobak::obs::RpoTracker* rpo_tracker() { return tracker_.get(); }
  const std::vector<zerobak::replication::GroupId>& groups() const {
    return groups_;
  }
  size_t volume_count() const { return primary_.size(); }
  const ShadowLog& shadow() const { return *shadow_; }

  // Runs the simulation up to `t` (a no-op if already there).
  void AdvanceTo(zerobak::SimTime t);
  // Submits one stamped block write to `volume` at `lba`, due now.
  // Writes with `in_load` set count toward the load-window figures.
  void Submit(size_t volume, uint64_t lba, bool in_load);
  // Host writes submitted but not yet acknowledged.
  uint64_t pending_writes() const { return pending_; }
  // Simulated time of the latest host-write acknowledgement.
  zerobak::SimTime last_ack() const { return last_ack_; }

  // True when no group has an unacknowledged write (RPO 0 everywhere).
  bool Drained() const;
  // Runs event by event until Drained(); returns the simulated time it
  // took, or -1 (and records a failure) if the simulation went idle or
  // `limit` passed first.
  zerobak::SimDuration RunUntilDrained(zerobak::SimDuration limit);

  // Reads benchmark volumes from the backup site.
  VolumeReader SecondaryReader();
  // Flips one bit of one block on the backup site, bypassing the
  // replication guard (negative control); flipping again restores it.
  void CorruptSecondary(size_t volume, uint64_t lba);

  // See probes.h.
  void ReplayCodec();
  void CollectLayers();

 private:
  BlockRigConfig config_;
  RoundConfig round_;
  Tracer* tracer_;
  RoundResult* result_;

  // Declaration order is teardown order in reverse: the engine and the
  // tracker go before the arrays, links and environment they use.
  std::unique_ptr<zerobak::sim::SimEnvironment> env_;
  std::unique_ptr<zerobak::storage::StorageArray> main_;
  std::unique_ptr<zerobak::storage::StorageArray> backup_;
  std::unique_ptr<zerobak::sim::NetworkLink> fwd_;
  std::unique_ptr<zerobak::sim::NetworkLink> rev_;
  std::unique_ptr<zerobak::obs::MetricRegistry> registry_;
  std::unique_ptr<zerobak::obs::TraceRing> trace_ring_;
  std::unique_ptr<zerobak::replication::ReplicationEngine> engine_;
  std::unique_ptr<zerobak::obs::RpoTracker> tracker_;
  std::unique_ptr<ShadowLog> shadow_;

  std::vector<zerobak::storage::VolumeId> primary_;
  std::vector<zerobak::storage::VolumeId> secondary_;
  std::vector<zerobak::replication::GroupId> groups_;
  uint64_t pending_ = 0;
  zerobak::SimTime last_ack_ = 0;
};

}  // namespace zbbench

#endif  // ZBBENCH_BLOCK_RIG_H_
