#include "digest/digest_set.hpp"

#include <algorithm>

namespace vecycle {

namespace {

std::uint64_t NextPowerOfTwo(std::uint64_t n) {
  std::uint64_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

DigestSet::DigestSet(std::vector<Digest128> digests) {
  if (digests.empty()) return;
  // <= 50% load keeps linear-probe chains short (expected < 2 probes).
  const std::uint64_t capacity =
      NextPowerOfTwo(std::max<std::uint64_t>(8, digests.size() * 2));
  slots_.assign(capacity, kEmptySlot);
  mask_ = capacity - 1;
  for (const auto& digest : digests) Insert(digest);
  digests.clear();
}

void DigestSet::Insert(const Digest128& digest) {
  if (digest == kEmptySlot) {
    if (!holds_empty_marker_) {
      holds_empty_marker_ = true;
      ++size_;
    }
    return;
  }
  std::uint64_t index = DigestSlotHash(digest) & mask_;
  while (true) {
    Digest128& slot = slots_[index];
    if (slot == kEmptySlot) {
      slot = digest;
      ++size_;
      return;
    }
    if (slot == digest) return;  // duplicate
    index = (index + 1) & mask_;
  }
}

bool DigestSet::Contains(const Digest128& digest) const {
  if (digest == kEmptySlot) return holds_empty_marker_;
  if (slots_.empty()) return false;
  std::uint64_t index = DigestSlotHash(digest) & mask_;
  while (true) {
    const Digest128& slot = slots_[index];
    if (slot == digest) return true;
    if (slot == kEmptySlot) return false;
    index = (index + 1) & mask_;
  }
}

std::vector<Digest128> DigestSet::ToSortedVector() const {
  std::vector<Digest128> digests;
  digests.reserve(size_);
  for (const auto& slot : slots_) {
    if (slot != kEmptySlot) digests.push_back(slot);
  }
  if (holds_empty_marker_) digests.push_back(kEmptySlot);
  std::sort(digests.begin(), digests.end());
  return digests;
}

}  // namespace vecycle
