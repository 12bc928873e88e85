// orders_db: the paper's own scenario, end to end, through
// core::DemoSystem. A namespace with a sales and a stock MiniDb PVC is
// tagged for backup; the namespace operator and the CSI plugins build one
// consistency group and the initial copy runs. E-commerce orders (Zipf-
// skewed items) arrive in an open loop at a fixed simulated rate over a
// 100 Mbit/s link with compression and folding on, while a snapshot
// schedule runs on the backup site. Each database block write goes
// through the array's timing-accurate front end and the database waits
// for its acknowledgement. It is the only workload that exercises the
// database, the control plane and snapshot copy-on-write on the apply
// path; its page traffic is highly compressible.
//
// A round runs kPulses load pulses, each followed by a drain; the time
// from the pulse's last database write acknowledgement until the group is
// back at RPO 0 is one catch-up sample. The round then checks the primary
// databases, the backup volumes against the primary volumes, the newest
// snapshot group and, after a main-site disaster and failover, the
// recovered backup databases, each against the benchmark's own tally of
// placed orders.

#include <memory>
#include <optional>
#include <string>

#include "checks.h"
#include "common.h"
#include "common/rng.h"
#include "container/resource.h"
#include "core/demo_system.h"
#include "db/format.h"
#include "db/minidb.h"
#include "probes.h"
#include "storage/array_device.h"
#include "workload/ecommerce.h"

namespace zbbench {

using zerobak::Milliseconds;
using zerobak::SimDuration;
using zerobak::SimTime;
using zerobak::Status;

namespace {

constexpr char kNs[] = "shop";
constexpr const char* kPvcs[] = {"sales-db", "stock-db"};
constexpr uint64_t kPvcBytes = 8ull << 20;
constexpr char kSchedule[] = "every-500ms";
constexpr double kOrdersPerSec = 400;
constexpr int kPulses = 16;
constexpr SimDuration kPulse = Milliseconds(250);
constexpr SimDuration kReplayEvery = Milliseconds(100);
constexpr uint32_t kItems = 64;
constexpr int64_t kInitialStock = 1000000;
// A WAL of 32 blocks checkpoints every few hundred orders, so every round
// runs checkpoints; a 256-block (1 MiB) checkpoint slot holds a round's
// orders with room to spare, which the round asserts.
constexpr uint64_t kWalBlocks = 32;
constexpr uint64_t kCheckpointBlocks = 256;

zerobak::db::DbOptions DbOptions(bool read_only) {
  zerobak::db::DbOptions options;
  options.wal_blocks = kWalBlocks;
  options.checkpoint_blocks = kCheckpointBlocks;
  options.read_only = read_only;
  return options;
}

// The block device MiniDb runs on at the main site: each write goes
// through StorageArray::SubmitHostWrite (media latency, interceptor,
// journal append) and the simulation runs until the array acknowledges
// it, as a database waits for its IO.
class MainSiteDevice : public zerobak::block::BlockDevice {
 public:
  MainSiteDevice(zerobak::sim::SimEnvironment* env,
                 zerobak::storage::StorageArray* array,
                 zerobak::storage::VolumeId volume, Tracer* tracer,
                 RoundResult* result)
      : env_(env),
        array_(array),
        volume_(volume),
        tracer_(tracer),
        result_(result) {}

  uint32_t block_size() const override {
    return array_->GetVolume(volume_)->block_size();
  }
  uint64_t block_count() const override {
    return array_->GetVolume(volume_)->block_count();
  }

  Status Read(zerobak::block::Lba lba, uint32_t count,
              std::string* out) override {
    Tracer::Span span(tracer_, SpanName::kDeviceRead);
    result_->blocks_read += count;
    return array_->ReadSync(volume_, lba, count, out);
  }

  Status Write(zerobak::block::Lba lba, uint32_t count,
               std::string_view data) override {
    (void)count;
    Tracer::Span span(tracer_, SpanName::kDeviceWrite);
    auto done = std::make_shared<std::optional<Status>>();
    const SimTime issued = env_->now();
    array_->SubmitHostWrite(volume_, lba, std::string(data),
                            [done](zerobak::block::IoResult io) {
                              *done = std::move(io.status);
                            });
    {
      Tracer::Span advance(tracer_, SpanName::kAdvance);
      while (!done->has_value() && env_->RunOne()) {
      }
    }
    const Status status =
        done->has_value()
            ? **done
            : zerobak::InternalError("simulation went idle before the "
                                     "array acknowledged a write");
    result_->ops.host_writes.Record(status);
    if (status.ok()) {
      ++result_->acked_writes;
      last_ack_ = env_->now();
      if (in_load_) {
        result_->ack_ns.push_back(env_->now() - issued);
        ++result_->load_writes;
        result_->host_bytes += data.size();
      }
    }
    return status;
  }

  void set_in_load(bool in_load) { in_load_ = in_load; }
  SimTime last_ack() const { return last_ack_; }

 private:
  zerobak::sim::SimEnvironment* env_;
  zerobak::storage::StorageArray* array_;
  zerobak::storage::VolumeId volume_;
  Tracer* tracer_;
  RoundResult* result_;
  bool in_load_ = false;
  SimTime last_ack_ = 0;
};

// Read-only view of a device for the checks; reads count as storage
// reads, writes are refused.
class CheckDevice : public zerobak::block::BlockDevice {
 public:
  CheckDevice(zerobak::block::BlockDevice* inner, Tracer* tracer,
              RoundResult* result)
      : inner_(inner), tracer_(tracer), result_(result) {}

  uint32_t block_size() const override { return inner_->block_size(); }
  uint64_t block_count() const override { return inner_->block_count(); }
  Status Read(zerobak::block::Lba lba, uint32_t count,
              std::string* out) override {
    Tracer::Span span(tracer_, SpanName::kDeviceRead);
    result_->blocks_read += count;
    return inner_->Read(lba, count, out);
  }
  Status Write(zerobak::block::Lba, uint32_t, std::string_view) override {
    return zerobak::FailedPreconditionError("check devices are read-only");
  }

 private:
  zerobak::block::BlockDevice* inner_;
  Tracer* tracer_;
  RoundResult* result_;
};

// Opens the (sales, stock) databases on `devices` read-only and checks
// them against the tally; with negative control, also checks that a
// tally with one quantity off by one is caught. Returns the order count.
uint64_t CheckImage(zerobak::block::BlockDevice* sales_device,
                    zerobak::block::BlockDevice* stock_device,
                    const OrderTally& tally, bool complete,
                    const std::string& what, const RoundConfig& config,
                    Tracer* tracer, RoundResult* result) {
  CheckDevice sales_dev(sales_device, tracer, result);
  CheckDevice stock_dev(stock_device, tracer, result);
  auto sales = zerobak::db::MiniDb::Open(&sales_dev, DbOptions(true));
  auto stock = zerobak::db::MiniDb::Open(&stock_dev, DbOptions(true));
  result->Expect(sales.status(), what + " sales database");
  result->Expect(stock.status(), what + " stock database");
  if (!sales.ok() || !stock.ok()) return 0;
  auto orders = CheckOrders(tally, **sales, **stock, complete);
  result->Expect(orders.status(), what);
  if (config.negative_control && !tally.orders.empty()) {
    OrderTally wrong = tally;
    wrong.orders.front().quantity += 1;
    if (CheckOrders(wrong, **sales, **stock, complete).ok()) {
      result->negative_failures.push_back(
          what + ": tally check missed a quantity off by one");
    }
  }
  return orders.ok() ? *orders : 0;
}

// Compares two volumes block for block.
Status CompareVolumes(zerobak::block::BlockDevice* a,
                      zerobak::block::BlockDevice* b) {
  constexpr uint32_t kChunk = 256;
  if (a->block_count() != b->block_count()) {
    return zerobak::DataLossError("volume sizes differ");
  }
  std::string da;
  std::string db;
  for (uint64_t lba = 0; lba < a->block_count(); lba += kChunk) {
    const auto n = static_cast<uint32_t>(
        std::min<uint64_t>(kChunk, a->block_count() - lba));
    ZB_RETURN_IF_ERROR(a->Read(lba, n, &da));
    ZB_RETURN_IF_ERROR(b->Read(lba, n, &db));
    if (da != db) {
      const size_t bs = a->block_size();
      for (uint32_t i = 0; i < n; ++i) {
        if (std::string_view(da).substr(i * bs, bs) !=
            std::string_view(db).substr(i * bs, bs)) {
          return zerobak::DataLossError("block " + std::to_string(lba + i) +
                                        " differs");
        }
      }
      return zerobak::DataLossError("blocks differ");
    }
  }
  return zerobak::OkStatus();
}

void FlipBit(zerobak::storage::StorageArray* array,
             zerobak::storage::VolumeId volume, uint64_t lba,
             RoundResult* result) {
  zerobak::storage::Volume* vol = array->GetVolume(volume);
  std::string block;
  if (vol == nullptr || !vol->Read(lba, 1, &block).ok()) {
    result->Fail("negative control could not read its target block");
    return;
  }
  block[17] ^= 0x04;
  if (!vol->Write(lba, 1, block).ok()) {
    result->Fail("negative control could not write its target block");
  }
}

}  // namespace

RoundResult RunOrdersDb(const RoundConfig& config, Tracer* tracer) {
  RoundResult result;
  Ops& ops = result.ops;
  auto control = [&](const Status& s, const std::string& what) {
    ops.control.Record(s);
    result.Expect(s, what);
    return s.ok();
  };

  HostClock setup;
  setup.Start();
  zerobak::sim::SimEnvironment env;
  std::unique_ptr<zerobak::core::DemoSystem> system;
  {
    Tracer::Span span(tracer, SpanName::kControlCall);
    zerobak::core::DemoSystemConfig dc;
    dc.main_array.seed = config.seed * 2 + 1;
    dc.backup_array.seed = config.seed * 2 + 2;
    dc.link.base_latency = Milliseconds(5);
    dc.link.jitter = zerobak::Microseconds(50);
    dc.link.bandwidth_bytes_per_sec = 1.25e7;  // 100 Mbit/s.
    dc.link.seed = config.seed * 4 + 1;
    dc.rpo_sample_interval = 0;  // The benchmark runs its own tracker.
    dc.engine.compute_threads = config.lanes;
    system = std::make_unique<zerobak::core::DemoSystem>(&env, dc);
  }
  zerobak::storage::StorageArray* main_array = system->main_site()->array();
  zerobak::storage::StorageArray* backup_array =
      system->backup_site()->array();
  {
    Tracer::Span span(tracer, SpanName::kControlCall);
    if (!control(system->CreateBusinessNamespace(kNs), "namespace")) {
      return result;
    }
    for (const char* pvc : kPvcs) {
      if (!control(system->CreatePvc(kNs, pvc, kPvcBytes), pvc)) {
        return result;
      }
    }
  }
  {
    Tracer::Span span(tracer, SpanName::kAdvance);
    env.RunFor(Milliseconds(10));
  }
  zerobak::storage::VolumeId main_vol[2] = {};
  for (int i = 0; i < 2; ++i) {
    Tracer::Span span(tracer, SpanName::kControlCall);
    auto vol = system->ResolveMainVolume(kNs, kPvcs[i]);
    if (!control(vol.status(), std::string("resolve ") + kPvcs[i])) {
      return result;
    }
    main_vol[i] = *vol;
  }
  MainSiteDevice sales_dev(&env, main_array, main_vol[0], tracer, &result);
  MainSiteDevice stock_dev(&env, main_array, main_vol[1], tracer, &result);
  std::unique_ptr<zerobak::db::MiniDb> sales;
  std::unique_ptr<zerobak::db::MiniDb> stock;
  for (auto [dev, db] : {std::pair{&sales_dev, &sales},
                         std::pair{&stock_dev, &stock}}) {
    Status s = zerobak::db::MiniDb::Format(dev, DbOptions(false));
    result.Expect(s, "format");
    if (!s.ok()) return result;
    auto opened = zerobak::db::MiniDb::Open(dev, DbOptions(false));
    result.Expect(opened.status(), "open");
    if (!opened.ok()) return result;
    *db = std::move(opened).value();
  }
  zerobak::workload::EcommerceConfig ec;
  ec.num_items = kItems;
  ec.initial_stock_per_item = kInitialStock;
  ec.zipf_theta = 0.99;
  ec.seed = config.seed;
  zerobak::workload::EcommerceApp app(sales.get(), stock.get(), ec);
  {
    Tracer::Span span(tracer, SpanName::kPlaceOrder);
    Status s = app.InitializeCatalog();
    result.Expect(s, "catalog");
    if (!s.ok()) return result;
  }

  HostClock configure;
  configure.Start();
  const SimTime configure_start = env.now();
  {
    Tracer::Span span(tracer, SpanName::kControlCall);
    if (!control(system->TagNamespaceForBackup(kNs), "tag")) return result;
  }
  {
    Tracer::Span span(tracer, SpanName::kControlCall);
    if (!control(system->WaitForBackupConfigured(kNs), "configure")) {
      return result;
    }
  }
  configure.Stop();
  result.layer["control.configure_host_ms"] = configure.seconds() * 1e3;
  result.layer["control.configure_sim_ms"] =
      static_cast<double>(env.now() - configure_start) / 1e6;
  std::vector<uint64_t> groups;
  {
    Tracer::Span span(tracer, SpanName::kControlCall);
    if (!control(system->CreateSnapshotSchedule(kNs, kSchedule,
                                                Milliseconds(500), 3),
                 "snapshot schedule")) {
      return result;
    }
    auto g = system->ReplicationGroupsOf(kNs);
    if (!control(g.status(), "groups")) return result;
    groups = *g;
  }
  zerobak::replication::ReplicationEngine* engine = system->replication();
  zerobak::obs::RpoTracker tracker(
      &env,
      [&] {
        std::vector<zerobak::obs::RpoTracker::GroupSample> samples;
        for (uint64_t g : groups) {
          auto rpo = engine->GroupRpo(g);
          if (rpo.ok()) samples.push_back({g, *rpo});
        }
        return samples;
      },
      Milliseconds(1), size_t{1} << 20);
  const uint32_t generations0 = sales->generation() + stock->generation();
  setup.Stop();
  result.setup_s = setup.seconds();

  // --- Load ---
  OrderTally tally;
  tally.initial_stock = kInitialStock;
  tally.num_items = kItems;
  zerobak::Rng rng(config.seed * 6151 + 5);
  const double mean_gap = 1e9 / kOrdersPerSec;
  auto drained = [&] {
    for (uint64_t g : groups) {
      auto rpo = engine->GroupRpo(g);
      if (!rpo.ok() || *rpo != 0) return false;
    }
    return true;
  };
  HostClock load;
  for (int p = 0; p < kPulses; ++p) {
    const uint64_t wire0 = system->link_to_backup()->bytes_sent();
    load.Start();
    tracker.Start();
    sales_dev.set_in_load(true);
    stock_dev.set_in_load(true);
    const SimTime end = env.now() + kPulse;
    SimTime replay_at = env.now() + kReplayEvery;
    SimTime t = env.now();
    while (true) {
      t += 1 + static_cast<SimDuration>(rng.Exponential(mean_gap));
      if (t >= end) break;
      if (config.traced && t >= replay_at) {
        if (env.now() < replay_at) {
          Tracer::Span span(tracer, SpanName::kAdvance);
          env.RunUntil(replay_at);
        }
        load.Stop();
        ReplayCodec(engine, groups, tracer, &result);
        load.Start();
        replay_at += kReplayEvery;
      }
      if (env.now() < t) {
        Tracer::Span span(tracer, SpanName::kAdvance);
        env.RunUntil(t);
      }
      zerobak::StatusOr<zerobak::workload::OrderResult> order =
          zerobak::InternalError("not placed");
      {
        Tracer::Span span(tracer, SpanName::kPlaceOrder);
        order = app.PlaceOrder();
      }
      ops.orders.Record(order.status());
      result.Expect(order.status(), "PlaceOrder");
      if (!order.ok()) return result;
      tally.orders.push_back({order->order_id, order->item, order->quantity});
      ++result.load_orders;
    }
    sales_dev.set_in_load(false);
    stock_dev.set_in_load(false);
    if (env.now() < end) {
      Tracer::Span span(tracer, SpanName::kAdvance);
      env.RunUntil(end);
    }
    tracker.Stop();
    {
      Tracer::Span span(tracer, SpanName::kAdvance);
      const SimTime start = env.now();
      while (!drained()) {
        if (env.now() - start > zerobak::Seconds(5) || !env.RunOne()) {
          result.Fail("orders did not drain");
          return result;
        }
      }
      result.catchup_ns.push_back(
          env.now() - std::max(sales_dev.last_ack(), stock_dev.last_ack()));
    }
    load.Stop();
    result.wire_bytes += system->link_to_backup()->bytes_sent() - wire0;
  }
  result.load_host_s = load.seconds();
  CollectRpo(tracker, groups, &result);

  // --- Checks ---
  {
    Tracer::Span span(tracer, SpanName::kCheck);
    for (auto [db, name] : {std::pair{sales.get(), "sales"},
                            std::pair{stock.get(), "stock"}}) {
      if (db->wal_bytes_used() > db->wal_capacity_bytes()) {
        result.Fail(std::string(name) + " WAL overran its region");
      }
      zerobak::db::TableData tables;
      for (const std::string& table : db->ListTables()) {
        tables[table] = db->Scan(table);
      }
      const uint64_t image_blocks =
          (zerobak::db::EncodeCheckpoint(tables).size() + 4095) / 4096;
      if (image_blocks * 2 > kCheckpointBlocks) {
        result.Fail(std::string(name) + " checkpoint image uses " +
                    std::to_string(image_blocks) + " of " +
                    std::to_string(kCheckpointBlocks) +
                    " slot blocks: less than 2x headroom");
      }
    }
  }
  result.layer["db.checkpoints"] =
      sales->generation() + stock->generation() - generations0;
  {
    Tracer::Span span(tracer, SpanName::kCheck);
    zerobak::storage::ArrayVolumeDevice ps(main_array, main_vol[0]);
    zerobak::storage::ArrayVolumeDevice pk(main_array, main_vol[1]);
    CheckImage(&ps, &pk, tally, true, "primary databases", config, tracer,
               &result);
  }
  zerobak::storage::VolumeId backup_vol[2] = {};
  for (int i = 0; i < 2; ++i) {
    Tracer::Span span(tracer, SpanName::kControlCall);
    auto vol = system->ResolveBackupVolume(kNs, kPvcs[i]);
    if (!control(vol.status(), "resolve backup volume")) return result;
    backup_vol[i] = *vol;
  }
  {
    Tracer::Span span(tracer, SpanName::kCheck);
    for (int i = 0; i < 2; ++i) {
      zerobak::storage::ArrayVolumeDevice p(main_array, main_vol[i]);
      zerobak::storage::ArrayVolumeDevice b(backup_array, backup_vol[i]);
      CheckDevice pc(&p, tracer, &result);
      CheckDevice bc(&b, tracer, &result);
      result.Expect(CompareVolumes(&pc, &bc),
                    std::string("backup ") + kPvcs[i] + " vs primary");
      if (config.negative_control && i == 0) {
        FlipBit(backup_array, backup_vol[i], 0, &result);
        if (CompareVolumes(&pc, &bc).ok()) {
          result.negative_failures.push_back(
              "orders_db volume comparison missed a flipped bit");
        }
        FlipBit(backup_array, backup_vol[i], 0, &result);
      }
    }
  }
  std::string last_group;
  {
    Tracer::Span span(tracer, SpanName::kControlCall);
    auto schedule = system->backup_site()->api()->Get(
        zerobak::container::kKindSnapshotSchedule, kNs, kSchedule);
    if (!control(schedule.status(), "snapshot schedule status")) {
      return result;
    }
    last_group = schedule->status.GetString("lastGroup");
    if (!control(system->WaitForSnapshotGroup(kNs, last_group),
                 "snapshot group " + last_group)) {
      return result;
    }
  }
  {
    Tracer::Span span(tracer, SpanName::kCheck);
    auto ss = system->ResolveSnapshot(kNs, last_group, kPvcs[0]);
    auto sk = system->ResolveSnapshot(kNs, last_group, kPvcs[1]);
    result.Expect(ss.status(), "snapshot of sales");
    result.Expect(sk.status(), "snapshot of stock");
    if (ss.ok() && sk.ok()) {
      const uint64_t k = CheckImage(*ss, *sk, tally, false,
                                    "snapshot group " + last_group, config,
                                    tracer, &result);
      if (k == 0) result.Fail("the newest snapshot group holds no orders");
      result.sim_facts.push_back(k);
    }
  }
  {
    Tracer::Span span(tracer, SpanName::kControlCall);
    system->FailMainSite();
  }
  {
    Tracer::Span span(tracer, SpanName::kFailover);
    auto report = system->Failover(kNs);
    ops.failover.Record(report.status());
    result.Expect(report.status(), "failover");
    if (report.ok() && report->lost_records != 0) {
      result.Fail("failover of drained groups lost " +
                  std::to_string(report->lost_records) + " records");
    }
  }
  {
    Tracer::Span span(tracer, SpanName::kCheck);
    zerobak::storage::ArrayVolumeDevice bs(backup_array, backup_vol[0]);
    zerobak::storage::ArrayVolumeDevice bk(backup_array, backup_vol[1]);
    CheckImage(&bs, &bk, tally, true, "recovered backup databases", config,
               tracer, &result);
  }

  CollectEngineLayers(engine, *system->metrics(), *system->link_to_backup(),
                      env, groups, &result);
  zerobak::snapshot::SnapshotManager* snaps = system->backup_site()->snapshots();
  const auto snapshot_groups = snaps->ListGroups();
  uint64_t preserved = 0;
  for (auto id : snaps->ListSnapshots()) {
    preserved += snaps->GetSnapshot(id)->preserved_blocks();
  }
  result.layer["snapshot.groups_taken"] =
      snapshot_groups.empty() ? 0.0 : static_cast<double>(snapshot_groups.back());
  result.layer["snapshot.preserved_blocks"] = static_cast<double>(preserved);
  result.layer["db.block_writes_per_order"] =
      result.load_orders == 0 ? 0.0
                              : static_cast<double>(result.load_writes) /
                                    static_cast<double>(result.load_orders);
  result.sim_facts.push_back(preserved);
  result.sim_facts.push_back(tally.orders.size());
  return result;
}

}  // namespace zbbench
