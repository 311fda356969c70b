#include "digest/digest_map.hpp"

#include "common/check.hpp"
#include "digest/digest_set.hpp"

namespace vecycle {

std::uint64_t DigestMap::IdealIndex(const Digest128& digest) const {
  return DigestSlotHash(digest) & mask_;
}

void DigestMap::Grow() {
  const std::uint64_t capacity =
      slots_.empty() ? 16 : slots_.size() * 2;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  size_ = 0;
  for (const Slot& slot : old) {
    if (slot.occupied) Insert(slot.digest, slot.value);
  }
}

bool DigestMap::Insert(const Digest128& digest, std::uint64_t value) {
  if (slots_.empty() || (size_ + 1) * 2 > slots_.size()) Grow();
  std::uint64_t index = IdealIndex(digest);
  while (true) {
    Slot& slot = slots_[index];
    if (!slot.occupied) {
      slot.digest = digest;
      slot.value = value;
      slot.occupied = true;
      ++size_;
      return true;
    }
    if (slot.digest == digest) return false;
    index = (index + 1) & mask_;
  }
}

const std::uint64_t* DigestMap::Find(const Digest128& digest) const {
  if (slots_.empty()) return nullptr;
  std::uint64_t index = IdealIndex(digest);
  while (true) {
    const Slot& slot = slots_[index];
    if (!slot.occupied) return nullptr;
    if (slot.digest == digest) return &slot.value;
    index = (index + 1) & mask_;
  }
}

bool DigestMap::Erase(const Digest128& digest) {
  if (slots_.empty()) return false;
  std::uint64_t index = IdealIndex(digest);
  while (true) {
    Slot& slot = slots_[index];
    if (!slot.occupied) return false;
    if (slot.digest == digest) break;
    index = (index + 1) & mask_;
  }
  // Backward shift: walk the probe chain after the hole; any entry whose
  // ideal slot lies outside the (hole, current] stretch wraps into the
  // hole, which then moves forward. An empty slot ends the chain.
  std::uint64_t hole = index;
  std::uint64_t probe = (hole + 1) & mask_;
  while (slots_[probe].occupied) {
    const std::uint64_t ideal = IdealIndex(slots_[probe].digest);
    // Distance from ideal slot to `probe` vs from `hole` to `probe`, both
    // measured forward around the ring: the entry may move into the hole
    // only if doing so does not put it before its ideal slot.
    const std::uint64_t probe_dist = (probe - ideal) & mask_;
    const std::uint64_t hole_dist = (probe - hole) & mask_;
    if (probe_dist >= hole_dist) {
      slots_[hole] = slots_[probe];
      hole = probe;
    }
    probe = (probe + 1) & mask_;
  }
  slots_[hole] = Slot{};
  --size_;
  return true;
}

}  // namespace vecycle
