// hot_blocks: raw host block writes on timing-accurate media, in an open
// loop at a fixed simulated rate, into several consistency groups of two
// volumes each, with a 90/10 hot/cold LBA skew over a 1 Gbit/s link. It
// isolates the replicated write path (interceptor, journal append, fold,
// scheduler dispatch, encode, link, decode, sorted apply, ack/trim): no
// database and no control-plane work while it runs.
//
// A round runs kPulses load pulses, each followed by a drain; the time
// from the pulse's last host-write acknowledgement until every group is
// back at RPO 0 is one catch-up sample. The round then checks that every
// backup volume equals the shadow log, writes one short burst and fails
// every group over at a seeded instant with batches still on the wire,
// and checks that each group's backup volumes hold exactly one prefix of
// its write log.

#include <string>

#include "block_rig.h"
#include "common/rng.h"

namespace zbbench {

using zerobak::Milliseconds;
using zerobak::SimDuration;
using zerobak::SimTime;

namespace {

constexpr size_t kGroups = 4;
constexpr uint64_t kBlocks = 2048;      // 8 MiB per volume.
constexpr uint64_t kHotBlocks = kBlocks / 10;
// All groups together: the rate of the repo's fold workload (E10, E12,
// E15: hot-10% overwrites at 20 000 writes/s on 1 Gbit/s).
constexpr double kWritesPerSec = 20000;
constexpr int kPulses = 8;
constexpr SimDuration kPulse = Milliseconds(150);
constexpr SimDuration kReplayEvery = Milliseconds(100);

}  // namespace

RoundResult RunHotBlocks(const RoundConfig& config, Tracer* tracer) {
  RoundResult result;
  BlockRigConfig rig_config;
  rig_config.groups = kGroups;
  rig_config.blocks = kBlocks;
  rig_config.base_blocks = 256;
  rig_config.link_bytes_per_sec = 1.25e8;  // 1 Gbit/s.
  BlockRig rig(rig_config, config, tracer, &result);
  if (!rig.Setup()) return result;
  zerobak::sim::SimEnvironment* env = rig.env();

  zerobak::Rng rng(config.seed * 7919 + 17);
  const double mean_gap = 1e9 / kWritesPerSec;
  auto next_write = [&](SimTime* t) {
    *t += 1 + static_cast<SimDuration>(rng.Exponential(mean_gap));
  };
  auto pick = [&](size_t* volume, uint64_t* lba) {
    *volume = rng.Uniform(rig.volume_count());
    *lba = rng.Uniform(10) < 9 ? rng.Uniform(kHotBlocks)
                               : kHotBlocks + rng.Uniform(kBlocks - kHotBlocks);
  };

  HostClock load;
  for (int p = 0; p < kPulses; ++p) {
    const uint64_t wire0 = rig.forward_link()->bytes_sent();
    load.Start();
    rig.rpo_tracker()->Start();
    const SimTime end = env->now() + kPulse;
    SimTime replay_at = env->now() + kReplayEvery;
    SimTime t = env->now();
    for (next_write(&t); t < end; next_write(&t)) {
      if (config.traced && t >= replay_at) {
        rig.AdvanceTo(replay_at);
        load.Stop();
        rig.ReplayCodec();
        load.Start();
        replay_at += kReplayEvery;
      }
      size_t volume = 0;
      uint64_t lba = 0;
      pick(&volume, &lba);
      rig.AdvanceTo(t);
      rig.Submit(volume, lba, true);
    }
    rig.AdvanceTo(end);
    rig.rpo_tracker()->Stop();
    const SimDuration drain = rig.RunUntilDrained(zerobak::Seconds(5));
    load.Stop();
    if (drain < 0) return result;
    result.catchup_ns.push_back(env->now() - rig.last_ack());
    result.wire_bytes += rig.forward_link()->bytes_sent() - wire0;
  }
  result.load_host_s = load.seconds();
  CollectRpo(*rig.rpo_tracker(), rig.groups(), &result);

  const VolumeReader read = rig.SecondaryReader();
  {
    Tracer::Span span(tracer, SpanName::kCheck);
    for (size_t v = 0; v < rig.volume_count(); ++v) {
      result.Expect(CheckVolumeImage(rig.shadow(), read, v, SIZE_MAX),
                    "drained backup volume " + std::to_string(v));
    }
    if (config.negative_control) {
      rig.CorruptSecondary(0, 3);
      if (CheckVolumeImage(rig.shadow(), read, 0, SIZE_MAX).ok()) {
        result.negative_failures.push_back(
            "hot_blocks byte-equality check missed a flipped bit");
      }
      rig.CorruptSecondary(0, 3);
    }
  }

  // Burst, then fail over mid-flight. The burst stops 1 ms before the
  // failover so every write is acknowledged (media latency is ~0.2 ms)
  // while the last batches are still on the 5 ms link.
  const SimTime burst_end =
      env->now() + Milliseconds(20) +
      static_cast<SimDuration>(rng.Uniform(Milliseconds(20)));
  SimTime t = env->now();
  for (next_write(&t); t < burst_end; next_write(&t)) {
    size_t volume = 0;
    uint64_t lba = 0;
    pick(&volume, &lba);
    rig.AdvanceTo(t);
    rig.Submit(volume, lba, false);
  }
  rig.AdvanceTo(burst_end + Milliseconds(1));
  if (rig.pending_writes() != 0) result.Fail("burst writes left unacknowledged");
  std::vector<zerobak::replication::FailoverReport> reports;
  for (uint64_t g : rig.groups()) {
    Tracer::Span span(tracer, SpanName::kFailover);
    auto report = rig.engine()->FailoverGroup(g);
    result.ops.failover.Record(report.status());
    result.Expect(report.status(), "FailoverGroup");
    reports.push_back(report.ok() ? *report
                                  : zerobak::replication::FailoverReport{});
  }
  // Batches still in flight land after the takeover and must be ignored.
  rig.AdvanceTo(env->now() + Milliseconds(20));
  {
    Tracer::Span span(tracer, SpanName::kCheck);
    uint64_t lost_total = 0;
    for (size_t g = 0; g < rig.groups().size(); ++g) {
      auto k = CheckGroupPrefix(rig.shadow(), read, g);
      result.Expect(k.status(), "failover prefix of group " + std::to_string(g));
      if (!k.ok()) continue;
      const uint64_t lost = rig.shadow().log(g).size() - *k;
      if (lost != reports[g].lost_records) {
        result.Fail("group " + std::to_string(g) + " failover reports " +
                    std::to_string(reports[g].lost_records) +
                    " lost records, the replica lacks " +
                    std::to_string(lost));
      }
      lost_total += lost;
      result.sim_facts.push_back(*k);
    }
    if (lost_total == 0) {
      result.Fail("failover found nothing in flight; the prefix check "
                  "tested nothing");
    }
    if (config.negative_control) {
      const size_t v = 0;
      const uint64_t lba = 5;
      rig.CorruptSecondary(v, lba);
      if (CheckGroupPrefix(rig.shadow(), read, 0).ok()) {
        result.negative_failures.push_back(
            "hot_blocks prefix check missed a flipped bit");
      }
      rig.CorruptSecondary(v, lba);
    }
  }
  rig.CollectLayers();
  return result;
}

}  // namespace zbbench
