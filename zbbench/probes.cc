#include "probes.h"

#include <algorithm>

#include "replication/wire.h"

namespace zbbench {

void ReplayCodec(zerobak::replication::ReplicationEngine* engine,
                 const std::vector<uint64_t>& groups, Tracer* tracer,
                 RoundResult* result) {
  for (uint64_t g : groups) {
    zerobak::journal::JournalVolume* jnl = engine->primary_journal(g);
    if (jnl == nullptr) continue;
    std::vector<const zerobak::journal::JournalRecord*> views;
    if (jnl->PeekViews(jnl->acked(), 4ull << 20, &views) == 0) continue;
    std::vector<zerobak::journal::JournalRecord> records;
    records.reserve(views.size());
    for (const auto* rec : views) records.push_back(*rec);
    zerobak::replication::wire::EncodedBatch encoded;
    {
      Tracer::Span span(tracer, SpanName::kEncode);
      encoded = zerobak::replication::wire::EncodeBatch(records, true);
    }
    zerobak::StatusOr<std::vector<zerobak::journal::JournalRecord>> decoded =
        std::vector<zerobak::journal::JournalRecord>{};
    {
      Tracer::Span span(tracer, SpanName::kDecode);
      decoded = zerobak::replication::wire::DecodeBatch(encoded.frame);
    }
    Tracer::Span span(tracer, SpanName::kCheck);
    bool same = decoded.ok() && decoded->size() == records.size();
    for (size_t i = 0; same && i < records.size(); ++i) {
      same = (*decoded)[i].sequence == records[i].sequence &&
             (*decoded)[i].data() == records[i].data();
    }
    if (!same) result->Fail("codec replay did not round-trip");
    result->codec_logical_bytes += encoded.logical_bytes;
  }
}

void CollectEngineLayers(zerobak::replication::ReplicationEngine* engine,
                         zerobak::obs::MetricRegistry& registry,
                         const zerobak::sim::NetworkLink& link,
                         const zerobak::sim::SimEnvironment& env,
                         const std::vector<uint64_t>& groups,
                         RoundResult* result) {
  auto& layer = result->layer;
  uint64_t appends = 0;
  uint64_t folded = 0;
  uint64_t peak = 0;
  uint64_t resync_blocks = 0;
  uint64_t resync_extents = 0;
  for (uint64_t g : groups) {
    if (const auto* jnl = engine->primary_journal(g); jnl != nullptr) {
      appends += jnl->appends();
      folded += jnl->folded_records();
      peak = std::max(peak, jnl->peak_used_bytes());
    }
    if (auto stats = engine->GetGroupStats(g); stats.ok()) {
      resync_blocks += stats->resync_blocks;
      resync_extents += stats->resync_extents;
    }
  }
  layer["journal.appends"] = static_cast<double>(appends);
  layer["journal.folded_records"] = static_cast<double>(folded);
  layer["journal.peak_used_bytes"] = static_cast<double>(peak);
  layer["resync.blocks"] = static_cast<double>(resync_blocks);
  layer["resync.extents"] = static_cast<double>(resync_extents);
  layer["resync.blocks_per_extent"] =
      resync_extents == 0 ? 0.0
                          : static_cast<double>(resync_blocks) /
                                static_cast<double>(resync_extents);
  auto counter = [&registry](const char* name) {
    return static_cast<double>(registry.GetCounter(name)->value());
  };
  const double batches = counter("replication.batches_shipped");
  const double wire = counter("replication.wire_bytes_shipped");
  layer["replication.records_per_batch"] =
      batches == 0 ? 0.0 : counter("replication.records_shipped") / batches;
  layer["replication.wire_bytes_per_batch"] =
      batches == 0 ? 0.0 : wire / batches;
  layer["replication.records_applied"] =
      static_cast<double>(engine->total_records_applied());
  layer["replication.suspends"] = counter("replication.suspends");
  layer["replication.resyncs"] = counter("replication.resyncs");
  layer["wire.compression_ratio"] =
      wire == 0 ? 1.0 : counter("replication.logical_bytes_shipped") / wire;
  const auto sched = engine->scheduler_stats();
  layer["sched.dispatches"] = static_cast<double>(sched.dispatches);
  layer["sched.wakeups"] = static_cast<double>(sched.wakeups);
  layer["link.messages"] = static_cast<double>(link.messages_sent());
  layer["link.wire_bytes"] = static_cast<double>(link.bytes_sent());
  zerobak::exec::ThreadPool::Stats pool;
  if (engine->compute_pool() != nullptr) pool = engine->compute_pool()->stats();
  layer["exec.sections"] = static_cast<double>(pool.sections);
  layer["exec.tasks"] = static_cast<double>(pool.tasks);
  layer["exec.steals"] = static_cast<double>(pool.steals);
  layer["sim.events"] = static_cast<double>(env.executed_events());
  // Everything above but the host-side exec.* pool counters is simulated
  // behaviour, identical at any lane count.
  for (const auto& [name, value] : layer) {
    if (name.rfind("exec.", 0) != 0 && name.rfind("control.", 0) != 0) {
      result->sim_facts.push_back(static_cast<uint64_t>(value * 1024));
    }
  }
}

}  // namespace zbbench
