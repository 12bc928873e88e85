#include "payload.h"

#include <cstring>

namespace zbbench {
namespace {

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void FillBlock(uint64_t seed, uint64_t id, uint64_t volume, uint64_t lba,
               char* out) {
  std::memcpy(out, &id, 8);
  std::memcpy(out + 8, &volume, 8);
  std::memcpy(out + 16, &lba, 8);
  uint64_t state = seed * 0x2545f4914f6cdd1dULL ^ id;
  for (uint32_t off = 24; off < kRandomBytes; off += 8) {
    const uint64_t word = SplitMix(&state);
    std::memcpy(out + off, &word, 8);
  }
  const uint64_t word[2] = {SplitMix(&state), id};
  for (uint32_t off = kRandomBytes; off < kBlockSize; off += 16) {
    std::memcpy(out + off, word, 16);
  }
}

std::string MakeBlock(uint64_t seed, uint64_t id, uint64_t volume,
                      uint64_t lba) {
  std::string block(kBlockSize, '\0');
  if (id != 0) FillBlock(seed, id, volume, lba, block.data());
  return block;
}

uint64_t StampId(std::string_view block) {
  uint64_t id = 0;
  if (block.size() >= 8) std::memcpy(&id, block.data(), 8);
  return id;
}

}  // namespace zbbench
