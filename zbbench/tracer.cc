#include "tracer.h"

#include <cstdio>
#include <memory>

namespace zbbench {
namespace {

struct SpanInfo {
  const char* name;
  Layer layer;
};

constexpr SpanInfo kSpans[kSpanNameCount] = {
    {"control.call", Layer::kControl},
    {"app.place_order", Layer::kApp},
    {"app.make_write", Layer::kApp},
    {"storage.device_write", Layer::kStorage},
    {"storage.device_read", Layer::kStorage},
    {"storage.submit_write", Layer::kStorage},
    {"sim.advance", Layer::kSim},
    {"wire.encode", Layer::kWire},
    {"wire.decode", Layer::kWire},
    {"failover.call", Layer::kFailover},
    {"check.verify", Layer::kCheck},
};

}  // namespace

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "control", "app", "storage", "sim", "wire", "failover", "check"};
  return kNames[static_cast<int>(layer)];
}

const char* SpanNameString(SpanName name) {
  return kSpans[static_cast<int>(name)].name;
}

Layer LayerOf(SpanName name) { return kSpans[static_cast<int>(name)].layer; }

void Tracer::BeginRound(bool enabled) {
  enabled_ = enabled;
  summary_ = TraceSummary{};
  stack_.clear();
  if (enabled_) records_.clear();
  epoch_ = std::chrono::steady_clock::now();
}

TraceSummary Tracer::EndRound() {
  if (enabled_) summary_.wall_ns = Now();
  enabled_ = false;
  return summary_;
}

int32_t Tracer::Open(SpanName name) {
  const int32_t parent = stack_.empty() ? -1 : stack_.back().index;
  records_.push_back(Record{name, parent, Now(), 0});
  const auto index = static_cast<int32_t>(records_.size() - 1);
  stack_.push_back(Frame{index, 0});
  return index;
}

void Tracer::Close(int32_t index) {
  Record& rec = records_[static_cast<size_t>(index)];
  rec.end_ns = Now();
  const int64_t duration = rec.end_ns - rec.start_ns;
  const int64_t self = duration - stack_.back().child_ns;
  stack_.pop_back();
  SpanTotals& totals = summary_.spans[static_cast<int>(rec.name)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += self;
  summary_.layer_self_ns[static_cast<int>(LayerOf(rec.name))] += self;
  if (stack_.empty()) {
    summary_.covered_ns += duration;
  } else {
    stack_.back().child_ns += duration;
  }
}

zerobak::Status Tracer::WriteSpans(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> out(std::fopen(path.c_str(), "w"),
                                            &std::fclose);
  if (out == nullptr) {
    return zerobak::UnavailableError("cannot write " + path);
  }
  for (const Record& rec : records_) {
    std::fprintf(out.get(),
                 "{\"name\":\"%s\",\"layer\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d}\n",
                 SpanNameString(rec.name), LayerName(LayerOf(rec.name)),
                 static_cast<long long>(rec.start_ns),
                 static_cast<long long>(rec.end_ns), rec.parent);
  }
  if (std::fflush(out.get()) != 0) {
    return zerobak::UnavailableError("short write to " + path);
  }
  return zerobak::OkStatus();
}

}  // namespace zbbench
