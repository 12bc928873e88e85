#include "block_rig.h"

#include <algorithm>
#include <string>
#include <utility>

#include "payload.h"
#include "probes.h"

namespace zbbench {

using zerobak::Milliseconds;
using zerobak::SimDuration;
using zerobak::SimTime;
using zerobak::Status;

BlockRig::BlockRig(const BlockRigConfig& config, const RoundConfig& round,
                   Tracer* tracer, RoundResult* result)
    : config_(config), round_(round), tracer_(tracer), result_(result) {}

BlockRig::~BlockRig() = default;

bool BlockRig::Setup() {
  HostClock clock;
  clock.Start();
  Ops& ops = result_->ops;
  const size_t volumes = config_.groups * config_.volumes_per_group;
  {
    Tracer::Span span(tracer_, SpanName::kControlCall);
    env_ = std::make_unique<zerobak::sim::SimEnvironment>();
    zerobak::storage::ArrayConfig main_cfg;
    main_cfg.serial = "MAIN";
    main_cfg.seed = round_.seed * 2 + 1;
    zerobak::storage::ArrayConfig backup_cfg;
    backup_cfg.serial = "BKUP";
    backup_cfg.seed = round_.seed * 2 + 2;
    main_ = std::make_unique<zerobak::storage::StorageArray>(env_.get(),
                                                             main_cfg);
    backup_ = std::make_unique<zerobak::storage::StorageArray>(env_.get(),
                                                               backup_cfg);
    zerobak::sim::NetworkLinkConfig link;
    link.base_latency = config_.link_latency;
    link.jitter = config_.link_jitter;
    link.bandwidth_bytes_per_sec = config_.link_bytes_per_sec;
    link.seed = round_.seed * 4 + 1;
    fwd_ = std::make_unique<zerobak::sim::NetworkLink>(env_.get(), link,
                                                       "main->backup");
    link.seed += 1;
    rev_ = std::make_unique<zerobak::sim::NetworkLink>(env_.get(), link,
                                                       "backup->main");
    registry_ = std::make_unique<zerobak::obs::MetricRegistry>();
    trace_ring_ = std::make_unique<zerobak::obs::TraceRing>();
    zerobak::replication::EngineOptions options;
    options.compute_threads = round_.lanes;
    engine_ = std::make_unique<zerobak::replication::ReplicationEngine>(
        env_.get(), main_.get(), backup_.get(), fwd_.get(), rev_.get(),
        options);
    engine_->AttachObservability(registry_.get(), trace_ring_.get());
  }
  shadow_ = std::make_unique<ShadowLog>(round_.seed, volumes,
                                        config_.volumes_per_group,
                                        config_.blocks);

  for (size_t v = 0; v < volumes; ++v) {
    Tracer::Span span(tracer_, SpanName::kControlCall);
    const std::string index = std::to_string(v);
    auto p = main_->CreateVolume(std::string("p").append(index), config_.blocks);
    auto s =
        backup_->CreateVolume(std::string("s").append(index), config_.blocks);
    ops.control.Record(p.status());
    ops.control.Record(s.status());
    if (!p.ok() || !s.ok()) {
      result_->Fail("volume creation failed");
      return false;
    }
    primary_.push_back(*p);
    secondary_.push_back(*s);
  }

  // The base image: both sites start from it through the initial copy.
  for (size_t v = 0; v < volumes; ++v) {
    for (uint64_t lba = 0; lba < config_.base_blocks; ++lba) {
      const uint64_t id = shadow_->NewWrite(v, lba);
      const std::string block = MakeBlock(round_.seed, id, v, lba);
      Tracer::Span span(tracer_, SpanName::kDeviceWrite);
      const Status s = main_->WriteSync(primary_[v], lba, block);
      ops.host_writes.Record(s);
      if (!s.ok()) {
        result_->Expect(s, "base image write");
        return false;
      }
      shadow_->AddBase(id);
      ++result_->acked_writes;
    }
  }

  HostClock configure;
  configure.Start();
  const SimTime configure_start = env_->now();
  for (size_t g = 0; g < config_.groups; ++g) {
    Tracer::Span span(tracer_, SpanName::kControlCall);
    zerobak::replication::ConsistencyGroupConfig cg;
    cg.name = "cg" + std::to_string(g);
    cg.journal_capacity_bytes = config_.journal_bytes;
    auto group = engine_->CreateConsistencyGroup(cg);
    ops.control.Record(group.status());
    if (!group.ok()) {
      result_->Expect(group.status(), "CreateConsistencyGroup");
      return false;
    }
    groups_.push_back(*group);
    for (size_t i = 0; i < config_.volumes_per_group; ++i) {
      const size_t v = g * config_.volumes_per_group + i;
      zerobak::replication::PairConfig pc;
      pc.name = "pair" + std::to_string(v);
      pc.primary = primary_[v];
      pc.secondary = secondary_[v];
      pc.mode = zerobak::replication::ReplicationMode::kAsynchronous;
      pc.group = *group;
      auto pair = engine_->CreatePair(pc);
      ops.control.Record(pair.status());
      if (!pair.ok()) {
        result_->Expect(pair.status(), "CreatePair");
        return false;
      }
    }
  }
  {
    Tracer::Span span(tracer_, SpanName::kAdvance);
    const SimTime limit = env_->now() + zerobak::Seconds(30);
    auto copied = [this] {
      return std::all_of(groups_.begin(), groups_.end(), [this](uint64_t g) {
        return engine_->GroupInitialCopyDone(g);
      });
    };
    while (!copied() && env_->now() < limit) env_->RunFor(Milliseconds(1));
    if (!copied()) {
      result_->Fail("initial copy did not finish");
      return false;
    }
  }
  configure.Stop();
  result_->layer["control.configure_host_ms"] = configure.seconds() * 1e3;
  result_->layer["control.configure_sim_ms"] =
      static_cast<double>(env_->now() - configure_start) / 1e6;

  tracker_ = std::make_unique<zerobak::obs::RpoTracker>(
      env_.get(),
      [this] {
        std::vector<zerobak::obs::RpoTracker::GroupSample> samples;
        for (uint64_t g : groups_) {
          auto rpo = engine_->GroupRpo(g);
          if (rpo.ok()) samples.push_back({g, *rpo});
        }
        return samples;
      },
      Milliseconds(1), size_t{1} << 20);
  clock.Stop();
  result_->setup_s = clock.seconds();
  return true;
}

void BlockRig::AdvanceTo(SimTime t) {
  if (env_->now() >= t) return;
  Tracer::Span span(tracer_, SpanName::kAdvance);
  env_->RunUntil(t);
}

void BlockRig::Submit(size_t volume, uint64_t lba, bool in_load) {
  const uint64_t id = shadow_->NewWrite(volume, lba);
  std::string block;
  {
    Tracer::Span span(tracer_, SpanName::kMakeWrite);
    block = MakeBlock(round_.seed, id, volume, lba);
  }
  const SimTime due = env_->now();
  ++pending_;
  ++result_->ops.host_writes.attempted;
  Tracer::Span span(tracer_, SpanName::kSubmitWrite);
  main_->SubmitHostWrite(
      primary_[volume], lba, std::move(block),
      [this, id, due, in_load](zerobak::block::IoResult io) {
        --pending_;
        if (!io.status.ok()) {
          ++result_->ops.host_writes.failed;
          return;
        }
        shadow_->Acked(id);
        ++result_->acked_writes;
        last_ack_ = env_->now();
        if (in_load) {
          result_->ack_ns.push_back(env_->now() - due);
          ++result_->load_writes;
          result_->host_bytes += kBlockSize;
        }
      });
}

bool BlockRig::Drained() const {
  if (pending_ != 0) return false;
  for (uint64_t g : groups_) {
    auto rpo = engine_->GroupRpo(g);
    if (!rpo.ok() || *rpo != 0) return false;
  }
  return true;
}

SimDuration BlockRig::RunUntilDrained(SimDuration limit) {
  Tracer::Span span(tracer_, SpanName::kAdvance);
  const SimTime start = env_->now();
  while (!Drained()) {
    if (env_->now() - start > limit || !env_->RunOne()) {
      result_->Fail("groups did not drain within " +
                    std::to_string(limit / Milliseconds(1)) + " ms");
      return -1;
    }
  }
  return env_->now() - start;
}

VolumeReader BlockRig::SecondaryReader() {
  return [this](size_t volume, uint64_t lba, uint32_t count,
                std::string* out) {
    Tracer::Span span(tracer_, SpanName::kDeviceRead);
    result_->blocks_read += count;
    return backup_->ReadSync(secondary_[volume], lba, count, out);
  };
}

void BlockRig::CorruptSecondary(size_t volume, uint64_t lba) {
  zerobak::storage::Volume* vol = backup_->GetVolume(secondary_[volume]);
  std::string block;
  if (vol == nullptr || !vol->Read(lba, 1, &block).ok()) {
    result_->Fail("negative control could not read its target block");
    return;
  }
  block[kRandomBytes / 2] ^= 0x10;
  if (!vol->Write(lba, 1, block).ok()) {
    result_->Fail("negative control could not write its target block");
  }
}

void BlockRig::ReplayCodec() {
  zbbench::ReplayCodec(engine_.get(), groups_, tracer_, result_);
}

void BlockRig::CollectLayers() {
  CollectEngineLayers(engine_.get(), *registry_, *fwd_, *env_, groups_,
                      result_);
}

}  // namespace zbbench
