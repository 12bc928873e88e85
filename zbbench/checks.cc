#include "checks.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <map>

#include "common/value.h"
#include "payload.h"
#include "workload/ecommerce.h"

namespace zbbench {

using zerobak::DataLossError;
using zerobak::OkStatus;
using zerobak::Status;
using zerobak::StatusOr;

ShadowLog::ShadowLog(uint64_t seed, size_t volumes, size_t volumes_per_group,
                     uint64_t blocks)
    : seed_(seed),
      volumes_per_group_(volumes_per_group),
      blocks_(blocks),
      writes_(1),
      base_(volumes, std::vector<uint64_t>(blocks, 0)),
      logs_((volumes + volumes_per_group - 1) / volumes_per_group) {}

uint64_t ShadowLog::NewWrite(size_t volume, uint64_t lba) {
  writes_.push_back(
      Write{static_cast<uint32_t>(volume), static_cast<uint32_t>(lba)});
  return writes_.size() - 1;
}

void ShadowLog::AddBase(uint64_t id) {
  const Write& w = writes_[id];
  base_[w.volume][w.lba] = id;
}

void ShadowLog::Acked(uint64_t id) {
  logs_[group_of(writes_[id].volume)].push_back(id);
}

std::vector<uint64_t> ShadowLog::ImageIds(size_t volume, size_t k) const {
  std::vector<uint64_t> image = base_[volume];
  const std::vector<uint64_t>& log = logs_[group_of(volume)];
  k = std::min(k, log.size());
  for (size_t i = 0; i < k; ++i) {
    const Write& w = writes_[log[i]];
    if (w.volume == volume) image[w.lba] = log[i];
  }
  return image;
}

namespace {

constexpr uint32_t kReadChunk = 256;

// Reads blocks [lba, lba + count) of `volume`, checking the length.
Status ReadBlocks(const VolumeReader& read, size_t volume, uint64_t lba,
                  uint32_t count, std::string* out) {
  ZB_RETURN_IF_ERROR(read(volume, lba, count, out));
  if (out->size() != uint64_t{count} * kBlockSize) {
    return DataLossError("short read of volume " + std::to_string(volume));
  }
  return OkStatus();
}

uint32_t ChunkAt(const ShadowLog& shadow, uint64_t lba) {
  return static_cast<uint32_t>(
      std::min<uint64_t>(kReadChunk, shadow.blocks() - lba));
}

// Compares every block of `volume` with the blocks `ids` name.
Status CompareVolume(const ShadowLog& shadow, const VolumeReader& read,
                     size_t volume, const std::vector<uint64_t>& ids) {
  std::string data;
  std::string expected(kBlockSize, '\0');
  for (uint64_t lba = 0; lba < shadow.blocks(); lba += kReadChunk) {
    const uint32_t count = ChunkAt(shadow, lba);
    ZB_RETURN_IF_ERROR(ReadBlocks(read, volume, lba, count, &data));
    for (uint32_t i = 0; i < count; ++i) {
      const uint64_t id = ids[lba + i];
      if (id == 0) {
        std::memset(expected.data(), 0, kBlockSize);
      } else {
        FillBlock(shadow.seed(), id, volume, lba + i, expected.data());
      }
      if (std::memcmp(data.data() + size_t{i} * kBlockSize, expected.data(),
                      kBlockSize) != 0) {
        return DataLossError(
            "volume " + std::to_string(volume) + " block " +
            std::to_string(lba + i) + " differs from write " +
            std::to_string(id) + " (replica holds write " +
            std::to_string(StampId(std::string_view(data).substr(
                size_t{i} * kBlockSize, kBlockSize))) +
            ")");
      }
    }
  }
  return OkStatus();
}

}  // namespace

Status CheckVolumeImage(const ShadowLog& shadow, const VolumeReader& read,
                        size_t volume, size_t k) {
  return CompareVolume(shadow, read, volume, shadow.ImageIds(volume, k));
}

StatusOr<size_t> CheckGroupPrefix(const ShadowLog& shadow,
                                  const VolumeReader& read, size_t group) {
  const std::vector<uint64_t>& log = shadow.log(group);
  std::map<uint64_t, size_t> position;
  for (size_t i = 0; i < log.size(); ++i) position[log[i]] = i;

  // Every write found on the replica must lie inside the prefix, so the
  // only candidate prefix is the one ending at the latest of them; any
  // other prefix would either miss a write the replica holds or contain
  // a later write to one of its blocks.
  const size_t first = group * shadow.volumes_per_group();
  size_t k = 0;
  std::string data;
  for (size_t v = first; v < first + shadow.volumes_per_group(); ++v) {
    for (uint64_t lba = 0; lba < shadow.blocks(); lba += kReadChunk) {
      const uint32_t count = ChunkAt(shadow, lba);
      ZB_RETURN_IF_ERROR(ReadBlocks(read, v, lba, count, &data));
      for (uint32_t i = 0; i < count; ++i) {
        const uint64_t id = StampId(
            std::string_view(data).substr(size_t{i} * kBlockSize, 8));
        auto it = position.find(id);
        if (it != position.end()) k = std::max(k, it->second + 1);
      }
    }
  }
  for (size_t v = first; v < first + shadow.volumes_per_group(); ++v) {
    Status s = CheckVolumeImage(shadow, read, v, k);
    if (!s.ok()) {
      return DataLossError("group " + std::to_string(group) +
                           " is not the prefix of length " +
                           std::to_string(k) + ": " + s.message());
    }
  }
  return k;
}

namespace {

// Parses the zero-padded numeric suffix of `key` after `prefix`.
StatusOr<uint64_t> KeyId(const std::string& key, size_t prefix) {
  if (key.size() <= prefix || key.size() - prefix > 18) {
    return DataLossError("bad key " + key);
  }
  uint64_t id = 0;
  for (size_t i = prefix; i < key.size(); ++i) {
    if (key[i] < '0' || key[i] > '9') return DataLossError("bad key " + key);
    id = id * 10 + static_cast<uint64_t>(key[i] - '0');
  }
  return id;
}

// Checks that `rows` (sorted by zero-padded key) are exactly ids 1..n and
// that each matches the tally; returns n.
StatusOr<uint64_t> CheckRows(const std::map<std::string, std::string>& rows,
                             size_t prefix, const OrderTally& tally,
                             const char* what) {
  uint64_t expect_id = 1;
  for (const auto& [key, json] : rows) {
    ZB_ASSIGN_OR_RETURN(uint64_t id, KeyId(key, prefix));
    if (id != expect_id) {
      return DataLossError(std::string(what) + " ids are not contiguous: " +
                           key + " where id " + std::to_string(expect_id) +
                           " belongs");
    }
    if (id > tally.orders.size()) {
      return DataLossError(std::string(what) + " " + key +
                           " was never placed");
    }
    ZB_ASSIGN_OR_RETURN(zerobak::Value row, zerobak::Value::FromJson(json));
    const TalliedOrder& t = tally.orders[id - 1];
    if (row.GetString("item") != t.item ||
        row.GetInt("quantity", -1) != t.quantity) {
      return DataLossError(std::string(what) + " " + key + " holds " +
                           row.GetString("item") + " x" +
                           std::to_string(row.GetInt("quantity", -1)) +
                           ", tally says " + t.item + " x" +
                           std::to_string(t.quantity));
    }
    ++expect_id;
  }
  return expect_id - 1;
}

}  // namespace

StatusOr<uint64_t> CheckOrders(const OrderTally& tally,
                               const zerobak::db::MiniDb& sales,
                               const zerobak::db::MiniDb& stock,
                               bool complete) {
  using zerobak::workload::ItemKey;
  ZB_ASSIGN_OR_RETURN(
      uint64_t orders,
      CheckRows(sales.Scan(zerobak::workload::kOrderTable),
                std::strlen("order-"), tally, "order"));
  ZB_ASSIGN_OR_RETURN(
      uint64_t movements,
      CheckRows(stock.Scan(zerobak::workload::kMovementTable),
                std::strlen("mv-"), tally, "movement"));
  if (movements != orders && movements != orders + 1) {
    return DataLossError(std::to_string(orders) + " orders but " +
                         std::to_string(movements) +
                         " stock movements: an order lacks its movement "
                         "or movements ran ahead");
  }
  if (complete &&
      (orders != tally.orders.size() || movements != tally.orders.size())) {
    return DataLossError("expected all " +
                         std::to_string(tally.orders.size()) +
                         " tallied orders, found " + std::to_string(orders) +
                         " orders and " + std::to_string(movements) +
                         " movements");
  }
  std::map<std::string, int64_t> sold;
  for (uint64_t i = 0; i < movements; ++i) {
    sold[tally.orders[i].item] += tally.orders[i].quantity;
  }
  const auto& items = stock.Scan(zerobak::workload::kStockTable);
  if (items.size() != tally.num_items) {
    return DataLossError("stock table has " + std::to_string(items.size()) +
                         " items, expected " +
                         std::to_string(tally.num_items));
  }
  for (uint32_t i = 0; i < tally.num_items; ++i) {
    auto it = items.find(ItemKey(i));
    if (it == items.end()) return DataLossError("missing " + ItemKey(i));
    ZB_ASSIGN_OR_RETURN(zerobak::Value row,
                        zerobak::Value::FromJson(it->second));
    const int64_t expect = tally.initial_stock - sold[ItemKey(i)];
    if (row.GetInt("quantity", -1) != expect ||
        row.GetInt("initialQuantity", -1) != tally.initial_stock) {
      return DataLossError(ItemKey(i) + " stock is " +
                           std::to_string(row.GetInt("quantity", -1)) +
                           ", tally says " + std::to_string(expect));
    }
  }
  return orders;
}

}  // namespace zbbench
