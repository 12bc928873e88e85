// outage_resync: uniform random host block writes on timing-accurate media
// into one consistency group whose volumes are far larger than its
// journal, over a 1 Gbit/s link. A FaultSchedule partitions the link
// (both directions) long enough for the group to suspend and track dirty
// blocks in its bitmap; on heal, auto-resync ships the dirty extents while
// host writes continue. It exercises the bulk extent path (dirty bitmap,
// extent capture, CRC, parallel apply) with resync reads running beside
// host writes; the journal and the LZ codec sit idle during catch-up.
//
// The catch-up sample is the simulated time from the heal until the
// group is protected again (not suspended, every pair PAIRED, nothing
// dirty) and every write acknowledged before the heal is safe on the
// backup site. Load continues for kTail after that, then the group
// drains, the backup volumes are compared with the shadow log byte for
// byte, and the group is failed over with nothing lost.

#include <string>

#include "block_rig.h"
#include "common/rng.h"
#include "fault/fault_schedule.h"
#include "payload.h"

namespace zbbench {

using zerobak::Milliseconds;
using zerobak::SimDuration;
using zerobak::SimTime;

namespace {

constexpr uint64_t kBlocks = 8192;  // 32 MiB per volume.
constexpr double kWritesPerSec = 4000;
constexpr SimDuration kBeforeOutage = Milliseconds(500);
constexpr SimDuration kOutage = zerobak::Seconds(2);
constexpr SimDuration kTail = Milliseconds(300);
constexpr SimDuration kGiveUp = zerobak::Seconds(60);
constexpr SimDuration kReplayEvery = Milliseconds(100);

bool Protected(BlockRig& rig, SimTime heal) {
  auto* engine = rig.engine();
  const SimTime now = rig.env()->now();
  for (uint64_t g : rig.groups()) {
    auto stats = engine->GetGroupStats(g);
    if (!stats.ok() || stats->suspended || stats->apply_lag >= now - heal) {
      return false;
    }
    for (auto pid : engine->ListGroupPairs(g)) {
      const auto* pair = engine->GetPair(pid);
      if (pair == nullptr ||
          pair->state() != zerobak::replication::PairState::kPaired ||
          pair->dirty_blocks() != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

RoundResult RunOutageResync(const RoundConfig& config, Tracer* tracer) {
  RoundResult result;
  BlockRigConfig rig_config;
  rig_config.groups = 1;
  rig_config.blocks = kBlocks;
  rig_config.base_blocks = 512;
  rig_config.link_bytes_per_sec = 1.25e8;  // 1 Gbit/s.
  rig_config.journal_bytes = 8ull << 20;   // 1/4 of one volume.
  BlockRig rig(rig_config, config, tracer, &result);
  if (!rig.Setup()) return result;
  zerobak::sim::SimEnvironment* env = rig.env();

  zerobak::fault::FaultScheduleConfig faults;
  faults.seed = config.seed;
  // One partition of exactly kOutage, starting within a few microseconds
  // of Arm(): the first gap is exponential with a 20 us mean and the
  // horizon ends long before the outage does.
  faults.horizon = Milliseconds(5);
  faults.mean_flap_interval = zerobak::Microseconds(20);
  faults.min_outage = kOutage;
  faults.max_outage = kOutage;
  zerobak::fault::FaultSchedule schedule(env, faults);
  schedule.AddLink(rig.forward_link());
  schedule.AddLink(rig.reverse_link());

  zerobak::Rng rng(config.seed * 104729 + 3);
  const double mean_gap = 1e9 / kWritesPerSec;
  HostClock load;
  HostClock catchup_host;
  bool catchup_started = false;
  int64_t sim_self_at_heal = 0;
  int64_t catchup_sim_self_ns = 0;
  SimTime heal = -1;
  SimTime caught_up = -1;
  SimTime stop = -1;
  const SimTime start = env->now();
  const SimTime arm_at = start + kBeforeOutage;
  const uint64_t wire0 = rig.forward_link()->bytes_sent();
  load.Start();
  rig.rpo_tracker()->Start();
  SimTime replay_at = start + kReplayEvery;
  for (SimTime t = start;;) {
    t += 1 + static_cast<SimDuration>(rng.Exponential(mean_gap));
    if (heal < 0 && t >= arm_at) {
      rig.AdvanceTo(arm_at);
      Tracer::Span span(tracer, SpanName::kControlCall);
      schedule.Arm();
      result.ops.control.Record(zerobak::OkStatus());
      for (const auto& e : schedule.events()) {
        if (e.kind == zerobak::fault::FaultKind::kLinkUp) {
          heal = std::max(heal, e.at);
        }
      }
      if (schedule.events().size() != 4 || heal <= arm_at) {
        result.Fail("fault schedule did not generate one outage per link");
        return result;
      }
    }
    if (config.traced && t >= replay_at) {
      rig.AdvanceTo(replay_at);
      // The replay is the benchmark's own work: keep it out of both clocks.
      const bool catching_up = catchup_started && caught_up < 0;
      load.Stop();
      if (catching_up) catchup_host.Stop();
      rig.ReplayCodec();
      if (catching_up) catchup_host.Start();
      load.Start();
      replay_at += kReplayEvery;
    }
    if (stop >= 0 && t >= stop) break;
    if (t - start > kGiveUp) {
      result.Fail("group did not catch up within the give-up limit");
      return result;
    }
    rig.AdvanceTo(t);
    if (heal >= 0 && caught_up < 0 && env->now() >= heal) {
      if (!catchup_started) {
        catchup_started = true;
        catchup_host.Start();
        sim_self_at_heal = tracer->self_ns(Layer::kSim);
      }
      if (Protected(rig, heal)) {
        catchup_host.Stop();
        caught_up = env->now();
        stop = caught_up + kTail;
        result.catchup_ns.push_back(caught_up - heal);
        catchup_sim_self_ns = tracer->self_ns(Layer::kSim) - sim_self_at_heal;
      }
    }
    rig.Submit(rng.Uniform(rig.volume_count()), rng.Uniform(kBlocks), true);
  }
  rig.AdvanceTo(stop);
  rig.rpo_tracker()->Stop();
  const SimDuration drain = rig.RunUntilDrained(zerobak::Seconds(5));
  load.Stop();
  if (drain < 0) return result;
  result.load_host_s = load.seconds();
  result.wire_bytes = rig.forward_link()->bytes_sent() - wire0;
  CollectRpo(*rig.rpo_tracker(), rig.groups(), &result);

  const VolumeReader read = rig.SecondaryReader();
  {
    Tracer::Span span(tracer, SpanName::kCheck);
    for (size_t v = 0; v < rig.volume_count(); ++v) {
      result.Expect(CheckVolumeImage(rig.shadow(), read, v, SIZE_MAX),
                    "resynced backup volume " + std::to_string(v));
    }
    if (config.negative_control) {
      rig.CorruptSecondary(1, kBlocks - 1);
      if (CheckVolumeImage(rig.shadow(), read, 1, SIZE_MAX).ok()) {
        result.negative_failures.push_back(
            "outage_resync byte-equality check missed a flipped bit");
      }
      rig.CorruptSecondary(1, kBlocks - 1);
    }
  }
  for (uint64_t g : rig.groups()) {
    Tracer::Span span(tracer, SpanName::kFailover);
    auto report = rig.engine()->FailoverGroup(g);
    result.ops.failover.Record(report.status());
    result.Expect(report.status(), "FailoverGroup");
    if (report.ok() && report->lost_records != 0) {
      result.Fail("failover of a drained group lost " +
                  std::to_string(report->lost_records) + " records");
    }
  }
  rig.CollectLayers();
  const double resync_blocks = result.layer["resync.blocks"];
  if (resync_blocks == 0) {
    result.Fail("the outage caused no resync");
  } else {
    result.layer["resync.advance_ns_per_block"] =
        static_cast<double>(catchup_sim_self_ns) / resync_blocks;
    result.layer["resync.mib_per_host_s"] =
        resync_blocks * kBlockSize / double(1 << 20) / catchup_host.seconds();
  }
  return result;
}

}  // namespace zbbench
