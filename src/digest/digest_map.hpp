// Flat open-addressing map from 128-bit digests to 64-bit values.
//
// Sibling of DigestSet (the §3.3 membership structure): same power-of-two
// table, same slot hash (DigestSlotHash, over both digest words), same
// <= 50% load factor — but each slot carries a value, and entries can be
// erased. The chunk store uses it as its content index: chunk digest ->
// slot in the chunk arena. Erasure uses backward-shift deletion instead
// of tombstones, so probe chains never degrade as the GC churns entries;
// the table's layout is a pure function of the live key set and the
// insertion order, which the store keeps deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "digest/digest.hpp"

namespace vecycle {

class DigestMap {
 public:
  DigestMap() = default;

  /// Inserts `digest -> value`; returns false (leaving the stored value
  /// untouched) when the digest is already present.
  bool Insert(const Digest128& digest, std::uint64_t value);

  /// Pointer to the stored value, or nullptr when absent.
  [[nodiscard]] const std::uint64_t* Find(const Digest128& digest) const;

  /// Removes the digest; returns false when it was absent. Backward-shift
  /// deletion: later entries of the probe chain slide into the hole, so
  /// no tombstone is left behind.
  bool Erase(const Digest128& digest);

  [[nodiscard]] std::uint64_t Size() const { return size_; }
  [[nodiscard]] bool Empty() const { return size_ == 0; }

  /// Slot count of the backing table (diagnostics / load-factor checks).
  [[nodiscard]] std::uint64_t Capacity() const { return slots_.size(); }

 private:
  struct Slot {
    Digest128 digest;
    std::uint64_t value = 0;
    bool occupied = false;
  };

  void Grow();
  [[nodiscard]] std::uint64_t IdealIndex(const Digest128& digest) const;

  std::vector<Slot> slots_;
  std::uint64_t mask_ = 0;  // slots_.size() - 1 (power-of-two table)
  std::uint64_t size_ = 0;
};

}  // namespace vecycle
