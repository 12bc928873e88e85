#ifndef ZBBENCH_PAYLOAD_H_
#define ZBBENCH_PAYLOAD_H_

// Stamped block payloads for the raw block workloads. A block's bytes are
// a pure function of (seed, write id, volume, lba), so the benchmark can
// regenerate the expected content of any block from its shadow log alone
// and compare replicas byte for byte without keeping a copy of the data.

#include <cstdint>
#include <string>
#include <string_view>

namespace zbbench {

inline constexpr uint32_t kBlockSize = 4096;
// Bytes of a block drawn from the PRNG; the rest repeats one 16-byte
// word, so every block compresses by the same factor (about 3.9x with the
// program's LZ codec).
inline constexpr uint32_t kRandomBytes = 1024;

// Layout: [0,8) write id, [8,16) volume, [16,24) lba, [24,kRandomBytes)
// seeded random bytes, then the repeated word. Id 0 is reserved for "never
// written" (an all-zero block).
void FillBlock(uint64_t seed, uint64_t id, uint64_t volume, uint64_t lba,
               char* out);
std::string MakeBlock(uint64_t seed, uint64_t id, uint64_t volume,
                      uint64_t lba);
// The write id stamped into `block` (0 for a zero block). Only the stamp
// is read; callers compare the whole block against FillBlock's output.
uint64_t StampId(std::string_view block);

}  // namespace zbbench

#endif  // ZBBENCH_PAYLOAD_H_
