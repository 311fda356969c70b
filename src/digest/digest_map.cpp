#include "digest/digest_map.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace vecycle {

namespace {

constexpr std::uint64_t kMinCapacity = 16;

}  // namespace

DigestMap::DigestMap(std::span<const Digest128> digests) {
  if (digests.empty()) return;
  // <= 50% load even if every digest is distinct: no growth while
  // filling.
  Rehash(std::bit_ceil(std::max<std::uint64_t>(kMinCapacity,
                                               digests.size() * 2)));
  for (std::uint64_t i = 0; i < digests.size(); ++i) Insert(digests[i], i);
}

std::uint64_t DigestMap::IdealIndex(const Digest128& digest) const {
  return DigestSlotHash(digest) & mask_;
}

void DigestMap::Rehash(std::uint64_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  mask_ = capacity - 1;
  size_ = 0;
  for (const Slot& slot : old) {
    if (slot.value != kVacant) Insert(slot.digest, slot.value);
  }
}

bool DigestMap::Insert(const Digest128& digest, std::uint64_t value) {
  VEC_CHECK_MSG(value != kVacant, "DigestMap value collides with kVacant");
  if ((size_ + 1) * 2 > slots_.size()) {
    Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
  }
  std::uint64_t index = IdealIndex(digest);
  while (true) {
    Slot& slot = slots_[index];
    if (slot.value == kVacant) {
      slot = Slot{digest, value};
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
    if (slot.value == kVacant) return nullptr;
    if (slot.digest == digest) return &slot.value;
    index = (index + 1) & mask_;
  }
}

bool DigestMap::Erase(const Digest128& digest) {
  if (slots_.empty()) return false;
  std::uint64_t index = IdealIndex(digest);
  while (true) {
    Slot& slot = slots_[index];
    if (slot.value == kVacant) return false;
    if (slot.digest == digest) break;
    index = (index + 1) & mask_;
  }
  // Backward shift: walk the probe chain after the hole; any entry whose
  // ideal slot lies outside the (hole, current] stretch wraps into the
  // hole, which then moves forward. A vacant slot ends the chain.
  std::uint64_t hole = index;
  std::uint64_t probe = (hole + 1) & mask_;
  while (slots_[probe].value != kVacant) {
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

std::vector<Digest128> DigestMap::Keys() const {
  std::vector<Digest128> keys;
  keys.reserve(size_);
  for (const Slot& slot : slots_) {
    if (slot.value != kVacant) keys.push_back(slot.digest);
  }
  return keys;
}

}  // namespace vecycle
