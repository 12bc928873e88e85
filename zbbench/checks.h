#ifndef ZBBENCH_CHECKS_H_
#define ZBBENCH_CHECKS_H_

// Correctness checks the benchmark computes itself, apart from the
// program: a shadow log of every acknowledged host write with replica
// comparisons against it, and an independent tally of placed orders.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/minidb.h"

namespace zbbench {

// Reads `count` blocks at `lba` of benchmark volume `volume` (an index
// into the workload's volume list) from one site.
using VolumeReader = std::function<zerobak::Status(
    size_t volume, uint64_t lba, uint32_t count, std::string* out)>;

// Every host write of a block workload, in the order the array
// acknowledged it per consistency group — the order a write-order-
// preserving replica must reproduce.
class ShadowLog {
 public:
  ShadowLog(uint64_t seed, size_t volumes, size_t volumes_per_group,
            uint64_t blocks);

  uint64_t seed() const { return seed_; }
  uint64_t blocks() const { return blocks_; }
  size_t volumes_per_group() const { return volumes_per_group_; }
  size_t group_of(size_t volume) const { return volume / volumes_per_group_; }

  // Assigns the next write id to a write of `volume` at `lba`.
  uint64_t NewWrite(size_t volume, uint64_t lba);
  // Makes write `id` part of the base image both sites start from.
  void AddBase(uint64_t id);
  // Appends acknowledged write `id` to its group's log.
  void Acked(uint64_t id);

  const std::vector<uint64_t>& log(size_t group) const {
    return logs_[group];
  }
  // Write id each block of `volume` holds after the base image plus the
  // first `k` entries of its group's log.
  std::vector<uint64_t> ImageIds(size_t volume, size_t k) const;

 private:
  struct Write {
    uint32_t volume;
    uint32_t lba;
  };
  uint64_t seed_;
  size_t volumes_per_group_;
  uint64_t blocks_;
  std::vector<Write> writes_;               // Indexed by id; [0] unused.
  std::vector<std::vector<uint64_t>> base_;  // Per volume, per block.
  std::vector<std::vector<uint64_t>> logs_;  // Per group.
};

// Byte-for-byte comparison of `volume` with the image of the base plus
// the first `k` writes of its group's log.
zerobak::Status CheckVolumeImage(const ShadowLog& shadow,
                                 const VolumeReader& read, size_t volume,
                                 size_t k);

// Write-order-prefix check: the volumes of `group` must together equal
// the image of ONE prefix of the group's log. Returns that prefix's
// length. The prefix is derived from the stamps found on the replica,
// not from anything the program reports.
zerobak::StatusOr<size_t> CheckGroupPrefix(const ShadowLog& shadow,
                                           const VolumeReader& read,
                                           size_t group);

// The benchmark's own record of the orders it placed.
struct TalliedOrder {
  uint64_t id = 0;
  std::string item;
  int64_t quantity = 0;
};
struct OrderTally {
  std::vector<TalliedOrder> orders;  // orders[i].id == i + 1.
  int64_t initial_stock = 0;
  uint32_t num_items = 0;
};

// Checks a (sales, stock) database pair against the tally: the order
// rows are exactly orders 1..k with the tallied item and quantity, every
// order has its stock movement (movements are 1..k or 1..k+1: the stock
// commit precedes the sales commit), and each item's stock equals its
// initial quantity minus the tallied quantities of its movements. With
// `complete` the pair must hold every tallied order; otherwise any
// prefix is accepted (a point-in-time copy). Returns k.
zerobak::StatusOr<uint64_t> CheckOrders(const OrderTally& tally,
                                        const zerobak::db::MiniDb& sales,
                                        const zerobak::db::MiniDb& stock,
                                        bool complete);

}  // namespace zbbench

#endif  // ZBBENCH_CHECKS_H_
