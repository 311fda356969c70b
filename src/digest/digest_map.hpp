// Flat open-addressing map from 128-bit digests to 64-bit values: the
// tree's one digest-keyed hash table.
//
// §3.3 keeps the destination's checksums "in a sorted list, such that we
// can use binary search" — correct, but O(log n) with a cache miss per
// probe level. Every question the model asks of a digest set is "is this
// content here?" or "where is it?", so a flat hash table answers both in
// O(1): DigestSlotHash picks the home slot, linear probing resolves
// collisions, and the full 128-bit digest stored in the slot confirms the
// match (slot-hash collisions cannot cause false positives). A slot is
// one 24-byte {digest, value} record at <= 50% load, so a probe touches
// one or two cache lines.
//
// Users: the source's knowledge of the destination's pages (§3.2), a
// checkpoint's checksum index (digest -> lowest page holding it, §3.3),
// and the chunk store's content index (digest -> arena slot). Erasure
// uses backward-shift deletion instead of tombstones, so probe chains
// never degrade as the chunk GC churns entries; the table's layout is a
// pure function of the live key set and the insertion order.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "digest/digest.hpp"

namespace vecycle {

/// Home-slot hash of DigestMap: both words folded as std::hash<Digest128>
/// folds them, then mixed by SplitMix64. The fold matters for FNV
/// digests, whose word 1 is always zero (FnvDigest): mixing word 1 alone
/// would send every one of them to the same slot.
inline std::uint64_t DigestSlotHash(const Digest128& digest) {
  return SplitMix64(std::hash<Digest128>{}(digest)).Next();
}

class DigestMap {
 public:
  /// Marks an empty slot; the one value Insert refuses.
  static constexpr std::uint64_t kVacant = ~std::uint64_t{0};

  DigestMap() = default;

  /// Maps each distinct digest of `digests` to the position of its first
  /// occurrence, sizing the table once for all of them.
  explicit DigestMap(std::span<const Digest128> digests);

  /// Inserts `digest -> value`; returns false (leaving the stored value
  /// untouched) when the digest is already present. `value` must not be
  /// kVacant.
  bool Insert(const Digest128& digest, std::uint64_t value);

  /// Pointer to the stored value, or nullptr when absent.
  [[nodiscard]] const std::uint64_t* Find(const Digest128& digest) const;

  [[nodiscard]] bool Contains(const Digest128& digest) const {
    return Find(digest) != nullptr;
  }

  /// Removes the digest; returns false when it was absent. Backward-shift
  /// deletion: later entries of the probe chain slide into the hole, so
  /// no tombstone is left behind.
  bool Erase(const Digest128& digest);

  /// The stored digests in slot order (unsorted).
  [[nodiscard]] std::vector<Digest128> Keys() const;

  [[nodiscard]] std::uint64_t Size() const { return size_; }
  [[nodiscard]] bool Empty() const { return size_ == 0; }

  /// Slot count of the backing table (diagnostics / load-factor checks).
  [[nodiscard]] std::uint64_t Capacity() const { return slots_.size(); }

 private:
  struct Slot {
    Digest128 digest;
    std::uint64_t value = kVacant;
  };

  /// Replaces the table with `capacity` vacant slots (a power of two) and
  /// re-inserts the live entries.
  void Rehash(std::uint64_t capacity);
  [[nodiscard]] std::uint64_t IdealIndex(const Digest128& digest) const;

  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;  // slots_.size() - 1 (power-of-two table)
  std::uint64_t size_ = 0;
};

}  // namespace vecycle
