#include "common.h"

#include <algorithm>
#include <cmath>

namespace zbbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

uint64_t RoundResult::Fingerprint() const {
  uint64_t h = 0x5a5a5a5a;
  for (const auto* vec : {&ack_ns, &rpo_ns, &catchup_ns}) {
    h = Mix(h, vec->size());
    for (int64_t x : *vec) h = Mix(h, static_cast<uint64_t>(x));
  }
  for (uint64_t x : {load_writes, load_orders, acked_writes, host_bytes,
                     wire_bytes}) {
    h = Mix(h, x);
  }
  for (uint64_t x : sim_facts) h = Mix(h, x);
  return h;
}

void CollectRpo(const zerobak::obs::RpoTracker& tracker,
                const std::vector<uint64_t>& groups, RoundResult* result) {
  for (uint64_t g : groups) {
    const zerobak::obs::GroupRpoSeries* series = tracker.series(g);
    if (series == nullptr) continue;
    if (series->points.size() != series->samples) {
      result->Fail("RPO series of group " + std::to_string(g) +
                   " rolled over; raise the tracker capacity");
    }
    for (const zerobak::obs::RpoPoint& p : series->points) {
      result->rpo_ns.push_back(p.rpo);
    }
  }
}

}  // namespace zbbench
