// zbbench: the end-to-end benchmark of zerobak.
//
//   zbbench --workload {orders_db|hot_blocks|outage_resync} --seed N
//           --seconds S --trace {0|1} [--commit SHA] [--trace-out FILE]
//   zbbench --negative-control [--seed N]
//
// A run first plays one warm-up round on a single compute lane; its
// simulated-time results are the reference. It then repeats whole rounds
// on min(2, nproc) compute lanes until S seconds of host time have
// passed; each round must reproduce the reference exactly (the simulation
// is deterministic at any lane count), and host-clock metrics are medians
// over rounds. With --trace 1 every other round is traced, the per-layer
// metrics come from the traced rounds, and the untraced ones give the
// tracing overhead. The last line of standard output is the result:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
//
// --negative-control runs one round of each workload with every check
// also fed a corrupted input, and exits non-zero unless each check caught
// it.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "heap.h"

namespace zbbench {
namespace {

using RunFn = RoundResult (*)(const RoundConfig&, Tracer*);

struct Workload {
  const char* name;
  RunFn run;
};

constexpr Workload kWorkloads[] = {
    {"orders_db", &RunOrdersDb},
    {"hot_blocks", &RunHotBlocks},
    {"outage_resync", &RunOutageResync},
};

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"writes_per_host_s", "1/s"},
    {"ack_p50_us", "us"},
    {"ack_p99_us", "us"},
    {"rpo_p50_ms", "ms"},
    {"rpo_p99_ms", "ms"},
    {"wire_bytes_per_host_byte", "B/B"},
    {"catchup_ms", "ms"},
    {"peak_heap_mib", "MiB"},
};

constexpr Metric kPerLayer[] = {
    {"app.op_self_ns", "ns/op"},
    {"db.block_writes_per_order", "writes/order"},
    {"db.checkpoints", "count"},
    {"storage.device_write_ns", "ns/write"},
    {"storage.device_read_ns", "ns/block"},
    {"sim.advance_ns_per_write", "ns/write"},
    {"sim.events_per_write", "events/write"},
    {"journal.appends", "count"},
    {"journal.folded_records", "count"},
    {"journal.peak_used_bytes", "B"},
    {"replication.records_per_batch", "records/batch"},
    {"replication.wire_bytes_per_batch", "B/batch"},
    {"replication.records_applied", "count"},
    {"replication.suspends", "count"},
    {"replication.resyncs", "count"},
    {"wire.encode_ns_per_kib", "ns/KiB"},
    {"wire.decode_ns_per_kib", "ns/KiB"},
    {"wire.compression_ratio", "B/B"},
    {"sched.dispatches", "count"},
    {"sched.wakeups", "count"},
    {"link.messages", "count"},
    {"link.wire_bytes", "B"},
    {"resync.blocks", "count"},
    {"resync.extents", "count"},
    {"resync.blocks_per_extent", "blocks/extent"},
    {"resync.advance_ns_per_block", "ns/block"},
    {"resync.mib_per_host_s", "MiB/s"},
    {"exec.sections", "count"},
    {"exec.tasks", "count"},
    {"exec.steals", "count"},
    {"snapshot.groups_taken", "count"},
    {"snapshot.preserved_blocks", "count"},
    {"control.configure_host_ms", "ms"},
    {"control.configure_sim_ms", "ms"},
    {"self.control_ms", "ms"},
    {"self.app_ms", "ms"},
    {"self.storage_ms", "ms"},
    {"self.sim_ms", "ms"},
    {"self.wire_ms", "ms"},
    {"self.failover_ms", "ms"},
    {"self.check_ms", "ms"},
    {"trace.uncovered_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string trace_out;
  bool negative_control = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "zbbench: %s\n", why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--negative-control") {
      args.negative_control = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (args.seconds <= 0 || args.seconds > 3600) Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad number for " + flag).c_str());
    }
  }
  return args;
}

unsigned HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::vector<double> AsDoubles(const std::vector<int64_t>& v) {
  return std::vector<double>(v.begin(), v.end());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double WritesPerHostSecond(const RoundResult& r) {
  return Ratio(static_cast<double>(r.load_writes), r.load_host_s);
}

// Only traced rounds carry a wall time in their trace summary.
bool Traced(const RoundResult& r) { return r.trace.wall_ns > 0; }

#if defined(__clang__)
constexpr char kCompiler[] = "clang " __clang_version__;
#else
constexpr char kCompiler[] = "gcc " __VERSION__;
#endif

// The per-layer figures of one traced round.
std::map<std::string, double> LayerFigures(const RoundResult& r) {
  std::map<std::string, double> out = r.layer;
  const TraceSummary& t = r.trace;
  auto span = [&t](SpanName n) -> const SpanTotals& {
    return t.spans[static_cast<int>(n)];
  };
  const SpanTotals& order = span(SpanName::kPlaceOrder);
  const SpanTotals& make = span(SpanName::kMakeWrite);
  out["app.op_self_ns"] = Ratio(static_cast<double>(order.self_ns + make.self_ns),
                                static_cast<double>(order.count + make.count));
  const SpanTotals& dw = span(SpanName::kDeviceWrite);
  const SpanTotals& sw = span(SpanName::kSubmitWrite);
  out["storage.device_write_ns"] =
      Ratio(static_cast<double>(dw.total_ns + sw.total_ns),
            static_cast<double>(dw.count + sw.count));
  out["storage.device_read_ns"] =
      Ratio(static_cast<double>(span(SpanName::kDeviceRead).total_ns),
            static_cast<double>(r.blocks_read));
  const double writes = static_cast<double>(r.acked_writes);
  out["sim.advance_ns_per_write"] = Ratio(
      static_cast<double>(t.layer_self_ns[static_cast<int>(Layer::kSim)]),
      writes);
  out["sim.events_per_write"] = Ratio(r.layer.count("sim.events") != 0
                                          ? r.layer.at("sim.events")
                                          : 0.0,
                                      writes);
  const double kib = static_cast<double>(r.codec_logical_bytes) / 1024.0;
  out["wire.encode_ns_per_kib"] =
      Ratio(static_cast<double>(span(SpanName::kEncode).total_ns), kib);
  out["wire.decode_ns_per_kib"] =
      Ratio(static_cast<double>(span(SpanName::kDecode).total_ns), kib);
  for (int l = 0; l < kLayerCount; ++l) {
    out[std::string("self.") + LayerName(static_cast<Layer>(l)) + "_ms"] =
        static_cast<double>(t.layer_self_ns[l]) / 1e6;
  }
  out["trace.uncovered_ms"] =
      static_cast<double>(t.wall_ns - t.covered_ns) / 1e6;
  return out;
}

void PrintFailures(const char* workload, size_t round, const RoundResult& r) {
  for (const std::string& f : r.failures) {
    std::printf("CHECK FAILED [%s round %zu]: %s\n", workload, round,
                f.c_str());
  }
}

std::string JsonMetrics(const std::vector<std::pair<Metric, double>>& ms) {
  std::string out = "{";
  char buf[256];
  for (size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].first.name, ms[i].second,
                  ms[i].first.unit);
    out += buf;
  }
  return out + "}";
}

int NegativeControl(const Args& args, unsigned lanes) {
  int bad = 0;
  for (const Workload& w : kWorkloads) {
    Tracer tracer;
    tracer.BeginRound(false);
    RoundConfig config;
    config.seed = args.seed;
    config.lanes = lanes;
    config.negative_control = true;
    const RoundResult r = w.run(config, &tracer);
    tracer.EndRound();
    PrintFailures(w.name, 0, r);
    for (const std::string& f : r.negative_failures) {
      std::printf("NEGATIVE CONTROL FAILED [%s]: %s\n", w.name, f.c_str());
    }
    const bool ok = r.failures.empty() && r.negative_failures.empty();
    std::printf("%-14s %s\n", w.name, ok ? "ok: every check caught its fault"
                                         : "FAILED");
    if (!ok) ++bad;
  }
  return bad == 0 ? 0 : 1;
}

int Run(const Args& args) {
  const unsigned cpus = HostCpus();
  // Two compute lanes exercise the parallel sections while leaving CPUs
  // for the rest of the host: with every CPU a lane, one preempted worker
  // stalls each section's join barrier and the host figures scatter.
  const unsigned lanes = std::min(2u, cpus);
  if (args.negative_control) return NegativeControl(args, lanes);

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Usage("unknown --workload");

  Tracer tracer;
  bool correct = true;
  Ops ops;

  // The warm-up round, on one lane, is the simulated-time reference.
  RoundConfig config;
  config.seed = args.seed;
  config.lanes = 1;
  tracer.BeginRound(false);
  RoundResult reference = workload->run(config, &tracer);
  tracer.EndRound();
  ops.Add(reference.ops);
  PrintFailures(workload->name, 0, reference);
  correct = correct && reference.failures.empty();
  const uint64_t fingerprint = reference.Fingerprint();

  config.lanes = lanes;
  std::vector<RoundResult> rounds;
  std::vector<double> heap_mib;  // Untraced rounds' heap high-water marks.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(args.seconds);
  do {
    config.traced = args.trace && rounds.size() % 2 == 0;
    tracer.BeginRound(config.traced);
    const int64_t heap_start = HeapResetPeak();
    RoundResult r = workload->run(config, &tracer);
    const int64_t heap_peak = HeapPeakBytes() - heap_start;
    r.trace = tracer.EndRound();
    if (!config.traced) {
      heap_mib.push_back(static_cast<double>(heap_peak) / (1 << 20));
    }
    ops.Add(r.ops);
    PrintFailures(workload->name, rounds.size() + 1, r);
    correct = correct && r.failures.empty();
    if (r.Fingerprint() != fingerprint) {
      correct = false;
      std::printf("CHECK FAILED [%s round %zu]: simulated results differ "
                  "from the one-lane reference round\n",
                  workload->name, rounds.size() + 1);
    }
    // Keep only what the host-clock metrics need.
    r.ack_ns.clear();
    r.ack_ns.shrink_to_fit();
    r.rpo_ns.clear();
    r.rpo_ns.shrink_to_fit();
    rounds.push_back(std::move(r));
  } while (std::chrono::steady_clock::now() < deadline ||
           (args.trace && rounds.size() < 2));

  std::vector<double> setup;
  std::vector<double> rate_plain;
  std::vector<double> rate_traced;
  for (const RoundResult& r : rounds) {
    setup.push_back(r.setup_s);
    (Traced(r) ? rate_traced : rate_plain).push_back(WritesPerHostSecond(r));
  }
  const std::vector<double> ack = AsDoubles(reference.ack_ns);
  const std::vector<double> rpo = AsDoubles(reference.rpo_ns);
  std::vector<std::pair<Metric, double>> values;
  auto put = [&values](const Metric& m, double v) { values.push_back({m, v}); };
  std::printf("zbbench %s seed=%llu rounds=%zu lanes=%u traced=%d\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              rounds.size(), lanes, args.trace ? 1 : 0);
  std::printf("samples: %zu acks, %zu rpo, %zu catch-ups; %llu orders, "
              "%llu writes in the load window\n",
              ack.size(), rpo.size(), reference.catchup_ns.size(),
              static_cast<unsigned long long>(reference.load_orders),
              static_cast<unsigned long long>(reference.load_writes));
  if (!rate_plain.empty()) {
    std::printf("untraced rounds, writes per host second: min %.6g, "
                "median %.6g, max %.6g\n",
                *std::min_element(rate_plain.begin(), rate_plain.end()),
                Median(rate_plain),
                *std::max_element(rate_plain.begin(), rate_plain.end()));
  }
  if (!heap_mib.empty()) {
    std::printf("untraced rounds, heap high-water MiB: min %.6g, "
                "median %.6g, max %.6g\n",
                *std::min_element(heap_mib.begin(), heap_mib.end()),
                Median(heap_mib),
                *std::max_element(heap_mib.begin(), heap_mib.end()));
  }
  std::vector<double> orders_per_host_s;
  for (const RoundResult& r : rounds) {
    if (!Traced(r)) {
      orders_per_host_s.push_back(
          Ratio(static_cast<double>(r.load_orders), r.load_host_s));
    }
  }
  if (!args.trace) {
    put(kEndToEnd[0], Median(setup));
    put(kEndToEnd[1], Median(rate_plain));
    put(kEndToEnd[2], Percentile(ack, 50) / 1e3);
    put(kEndToEnd[3], Percentile(ack, 99) / 1e3);
    put(kEndToEnd[4], Percentile(rpo, 50) / 1e6);
    put(kEndToEnd[5], Percentile(rpo, 99) / 1e6);
    put(kEndToEnd[6], Ratio(static_cast<double>(reference.wire_bytes),
                            static_cast<double>(reference.host_bytes)));
    put(kEndToEnd[7], Median(AsDoubles(reference.catchup_ns)) / 1e6);
    // Counted on the measured lanes, worker threads included.
    put(kEndToEnd[8], Median(heap_mib));
  } else {
    std::map<std::string, std::vector<double>> per_layer;
    for (const RoundResult& r : rounds) {
      if (!Traced(r)) continue;
      for (const auto& [name, v] : LayerFigures(r)) per_layer[name].push_back(v);
    }
    per_layer["trace.overhead_pct"] = {
        100.0 * (1.0 - Ratio(Median(rate_traced), Median(rate_plain)))};
    for (const Metric& m : kPerLayer) {
      const auto it = per_layer.find(m.name);
      put(m, it == per_layer.end() ? 0.0 : Median(it->second));
    }
  }
  for (const auto& [m, v] : values) {
    std::printf("  %-34s %16.6g %s\n", m.name, v, m.unit);
  }
  std::printf("operations (attempted/failed): host_writes %llu/%llu, "
              "orders %llu/%llu, control %llu/%llu, failover %llu/%llu\n",
              static_cast<unsigned long long>(ops.host_writes.attempted),
              static_cast<unsigned long long>(ops.host_writes.failed),
              static_cast<unsigned long long>(ops.orders.attempted),
              static_cast<unsigned long long>(ops.orders.failed),
              static_cast<unsigned long long>(ops.control.attempted),
              static_cast<unsigned long long>(ops.control.failed),
              static_cast<unsigned long long>(ops.failover.attempted),
              static_cast<unsigned long long>(ops.failover.failed));
  if (args.trace && !args.trace_out.empty()) {
    const zerobak::Status s = tracer.WriteSpans(args.trace_out);
    if (!s.ok()) std::printf("trace spans not written: %s\n", s.ToString().c_str());
  }
  std::printf(
      "{\"run\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"rounds\": %zu, \"traced\": %d, \"lanes\": %u, \"nproc\": %u, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\", "
      "\"fingerprint\": \"%016llx\", \"orders_per_host_s\": %.6g, "
      "\"peak_rss_mib\": %.6g, "
      "\"ops\": {\"host_writes\": [%llu, %llu], \"orders\": [%llu, %llu], "
      "\"control\": [%llu, %llu], \"failover\": [%llu, %llu]}}}\n",
      workload->name, static_cast<unsigned long long>(args.seed), args.seconds,
      rounds.size(), args.trace ? 1 : 0, lanes, cpus, ZBBENCH_BUILD_TYPE,
      kCompiler, args.commit.c_str(),
      static_cast<unsigned long long>(fingerprint), Median(orders_per_host_s),
      PeakRssMib(),
      static_cast<unsigned long long>(ops.host_writes.attempted),
      static_cast<unsigned long long>(ops.host_writes.failed),
      static_cast<unsigned long long>(ops.orders.attempted),
      static_cast<unsigned long long>(ops.orders.failed),
      static_cast<unsigned long long>(ops.control.attempted),
      static_cast<unsigned long long>(ops.control.failed),
      static_cast<unsigned long long>(ops.failover.attempted),
      static_cast<unsigned long long>(ops.failover.failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted()),
              static_cast<unsigned long long>(ops.failed()),
              JsonMetrics(values).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace zbbench

int main(int argc, char** argv) {
  return zbbench::Run(zbbench::ParseArgs(argc, argv));
}
