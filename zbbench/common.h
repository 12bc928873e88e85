#ifndef ZBBENCH_COMMON_H_
#define ZBBENCH_COMMON_H_

// Shared types of the end-to-end benchmark: what one round of a workload
// measures, the operation accounting, and small statistics helpers.
//
// A run repeats whole rounds of one workload. Every round replays the
// same seeded inputs, so every simulated-time figure of a round is
// identical to the first round's (the benchmark checks this through a
// fingerprint) and the host-clock figures are medians over rounds.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/rpo.h"
#include "tracer.h"

namespace zbbench {

// Attempted/failed count of one operation type.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // Counts one attempt and, when `s` is not OK, one failure.
  void Record(const zerobak::Status& s) {
    ++attempted;
    if (!s.ok()) ++failed;
  }
};

// Operation accounting of a round, per operation type.
struct Ops {
  OpCount host_writes;  // Block writes the host submitted to the array.
  OpCount orders;       // EcommerceApp::PlaceOrder calls.
  OpCount control;      // Control-plane calls (groups, pairs, tags, waits).
  OpCount failover;     // Failover calls.

  void Add(const Ops& o) {
    for (auto [dst, src] : {std::pair{&host_writes, &o.host_writes},
                            std::pair{&orders, &o.orders},
                            std::pair{&control, &o.control},
                            std::pair{&failover, &o.failover}}) {
      dst->attempted += src->attempted;
      dst->failed += src->failed;
    }
  }
  uint64_t attempted() const {
    return host_writes.attempted + orders.attempted + control.attempted +
           failover.attempted;
  }
  uint64_t failed() const {
    return host_writes.failed + orders.failed + control.failed +
           failover.failed;
  }
};

// Settings of one round.
struct RoundConfig {
  uint64_t seed = 1;
  unsigned lanes = 1;  // EngineOptions::compute_threads.
  bool traced = false;
  // Also run every correctness check against a deliberately corrupted
  // input (one flipped bit, one tallied quantity off by one) and record
  // in `negative_failures` each check that did NOT catch it.
  bool negative_control = false;
};

// Everything one round measured.
struct RoundResult {
  // --- Host clock ---
  double setup_s = 0;        // Building the system until it is protected.
  double load_host_s = 0;    // The measured load window, catch-up included.
  uint64_t load_writes = 0;  // Host writes acknowledged in that window.
  uint64_t load_orders = 0;  // Orders placed in that window (orders_db).
  uint64_t acked_writes = 0;  // Host writes acknowledged in the round.
  uint64_t blocks_read = 0;   // Blocks read back through the storage layer.
  uint64_t codec_logical_bytes = 0;  // Journal bytes the codec replays saw.

  // --- Simulated time (deterministic per seed) ---
  uint64_t host_bytes = 0;   // Bytes of those writes.
  uint64_t wire_bytes = 0;   // Bytes on the forward link meanwhile.
  std::vector<int64_t> ack_ns;      // Host-write ack latency, per write.
  std::vector<int64_t> rpo_ns;      // RpoTracker samples, all groups.
  std::vector<int64_t> catchup_ns;  // One per catch-up episode.

  // --- Correctness ---
  std::vector<std::string> failures;           // Failed checks.
  std::vector<std::string> negative_failures;  // Checks that missed a fault.
  Ops ops;

  // Per-layer figures, by BENCHMARK.json per_layer name (traced rounds).
  std::map<std::string, double> layer;
  // Values folded into the fingerprint besides the vectors above.
  std::vector<uint64_t> sim_facts;
  TraceSummary trace;

  void Fail(const std::string& what) { failures.push_back(what); }
  // Records `s` as a failed check unless it is OK.
  void Expect(const zerobak::Status& s, const std::string& what) {
    if (!s.ok()) Fail(what + ": " + s.ToString());
  }

  // Hash of every simulated-time output of the round.
  uint64_t Fingerprint() const;
};

// Accumulates host (wall-clock) time over Start/Stop segments.
class HostClock {
 public:
  void Start() { started_ = std::chrono::steady_clock::now(); }
  void Stop() {
    total_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            started_)
                  .count();
  }
  double seconds() const { return total_; }

 private:
  std::chrono::steady_clock::time_point started_{};
  double total_ = 0;
};

// Linear-interpolated percentile of `v` (q in [0, 100]); 0 when empty.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);

// 64-bit mixing hash step (splitmix64 finalizer).
inline uint64_t Mix(uint64_t h, uint64_t v) {
  uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Appends every sample `tracker` took of `groups` to result->rpo_ns.
void CollectRpo(const zerobak::obs::RpoTracker& tracker,
                const std::vector<uint64_t>& groups, RoundResult* result);

// Workload entry points; each builds, loads, checks and tears down one
// complete system.
RoundResult RunOrdersDb(const RoundConfig& config, Tracer* tracer);
RoundResult RunHotBlocks(const RoundConfig& config, Tracer* tracer);
RoundResult RunOutageResync(const RoundConfig& config, Tracer* tracer);

}  // namespace zbbench

#endif  // ZBBENCH_COMMON_H_
