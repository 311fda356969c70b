// Flat open-addressing membership set over 128-bit digests.
//
// §3.3 keeps the destination's checksums "in a sorted list, such that we
// can use binary search" — correct, but O(log n) with a cache miss per
// probe level. The source-side membership test (DestHas, §3.2) only ever
// asks "does this content exist at the destination?", never "at which
// offset?", so a flat hash set answers it in O(1): DigestSlotHash picks
// the slot, linear probing resolves collisions, and the full 128-bit
// digest stored in the slot confirms the match (slot-hash collisions
// cannot cause false positives). Slots are a single contiguous Digest128
// array at <= 50% load, so a probe touches one or two cache lines
// instead of log2(n) of them.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "digest/digest.hpp"

namespace vecycle {

/// Home-slot hash of DigestSet and DigestMap: both words folded as
/// std::hash<Digest128> folds them, then mixed by SplitMix64. The fold
/// matters for FNV digests, whose word 1 is always zero (FnvDigest):
/// mixing word 1 alone would send every one of them to the same slot.
inline std::uint64_t DigestSlotHash(const Digest128& digest) {
  return SplitMix64(std::hash<Digest128>{}(digest)).Next();
}

class DigestSet {
 public:
  DigestSet() = default;

  /// Builds the set from `digests`, consuming the vector (no sort needed —
  /// insertion order is irrelevant). Duplicates collapse; Size() reports
  /// distinct digests.
  explicit DigestSet(std::vector<Digest128> digests);

  /// O(1) membership: DigestSlotHash, linear probe, full-digest
  /// confirmation.
  [[nodiscard]] bool Contains(const Digest128& digest) const;

  /// Distinct digests stored.
  [[nodiscard]] std::uint64_t Size() const { return size_; }
  [[nodiscard]] bool Empty() const { return size_ == 0; }

  /// Slot count of the backing table (diagnostics / load-factor checks).
  [[nodiscard]] std::uint64_t Capacity() const { return slots_.size(); }

  /// The stored digests, sorted ascending — the same view the sorted-list
  /// representation exposed (bulk-exchange payloads, tests).
  [[nodiscard]] std::vector<Digest128> ToSortedVector() const;

 private:
  // Empty-slot marker: an arbitrary fixed 128-bit value. A genuine digest
  // equal to it (p = 2^-128, or a hand-crafted test vector) is tracked by
  // the side flag instead of occupying a slot.
  static constexpr Digest128 kEmptySlot =
      Digest128::FromWords(0x9d5c6fabe17c4e2bull, 0x3f84a1d0c2b96e57ull);

  void Insert(const Digest128& digest);

  std::vector<Digest128> slots_;
  std::uint64_t mask_ = 0;  // slots_.size() - 1 (power-of-two table)
  std::uint64_t size_ = 0;
  bool holds_empty_marker_ = false;
};

}  // namespace vecycle
