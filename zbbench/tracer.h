#ifndef ZBBENCH_TRACER_H_
#define ZBBENCH_TRACER_H_

// Outside-in span tracer. The benchmark opens a span around each call it
// makes into a layer of the program (a control-plane call, an order, a
// device write, a simulator advance, a codec replay, a failover, a
// check); nothing inside the program is instrumented. Spans of a traced
// round stay in memory and are written out when the run ends. A span's
// self time is its duration minus the time its child spans cover.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace zbbench {

enum class Layer : uint8_t {
  kControl,   // DemoSystem/ReplicationEngine set-up and control calls.
  kApp,       // EcommerceApp orders, or the block writer's payloads.
  kStorage,   // StorageArray host IO and the MiniDb block device.
  kSim,       // SimEnvironment advances (the replication data path runs
              // inside these: interceptor, journal, dispatch, link, apply).
  kWire,      // wire::EncodeBatch/DecodeBatch replays.
  kFailover,  // Failover calls.
  kCheck,     // The benchmark's own correctness checks.
};
inline constexpr int kLayerCount = 7;
const char* LayerName(Layer layer);

enum class SpanName : uint8_t {
  kControlCall,
  kPlaceOrder,
  kMakeWrite,
  kDeviceWrite,
  kDeviceRead,
  kSubmitWrite,
  kAdvance,
  kEncode,
  kDecode,
  kFailover,
  kCheck,
};
inline constexpr int kSpanNameCount = 11;
const char* SpanNameString(SpanName name);
Layer LayerOf(SpanName name);

struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

// What a traced round's spans add up to.
struct TraceSummary {
  SpanTotals spans[kSpanNameCount];
  int64_t layer_self_ns[kLayerCount] = {};
  int64_t wall_ns = 0;     // Round start to round end.
  int64_t covered_ns = 0;  // Time covered by top-level spans.
};

class Tracer {
 public:
  // Starts a round; with `enabled` false every span is a no-op.
  void BeginRound(bool enabled);
  TraceSummary EndRound();
  bool enabled() const { return enabled_; }
  // Self time recorded so far in this round for `layer`.
  int64_t self_ns(Layer layer) const {
    return summary_.layer_self_ns[static_cast<int>(layer)];
  }

  // Writes the spans of the last traced round, one JSON object a line:
  // {"name","layer","start_ns","end_ns","parent"} (parent -1 for roots).
  zerobak::Status WriteSpans(const std::string& path) const;

  class Span {
   public:
    Span(Tracer* tracer, SpanName name)
        : tracer_(tracer != nullptr && tracer->enabled_ ? tracer : nullptr) {
      if (tracer_ != nullptr) index_ = tracer_->Open(name);
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

 private:
  struct Record {
    SpanName name;
    int32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct Frame {
    int32_t index;
    int64_t child_ns;
  };

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
  int32_t Open(SpanName name);
  void Close(int32_t index);

  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_{};
  std::vector<Record> records_;
  std::vector<Frame> stack_;
  TraceSummary summary_;
};

}  // namespace zbbench

#endif  // ZBBENCH_TRACER_H_
