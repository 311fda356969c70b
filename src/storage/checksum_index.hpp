// Sorted checksum index over a checkpoint (§3.3).
//
// While the destination streams the checkpoint into guest RAM it records
// one checksum per 4 KiB block together with the block's file offset, kept
// "in a sorted list, such that we can use binary search to quickly find
// the offset for a given checksum". This class is that structure, plus the
// set view the destination ships to the source in the bulk hash exchange
// (§3.2).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "digest/digest.hpp"
#include "storage/checkpoint.hpp"

namespace vecycle::storage {

class ChecksumIndex {
 public:
  ChecksumIndex() = default;

  /// Builds the index from every page of `checkpoint`, digested as a
  /// GuestMemory in `mode` digests it under `algorithm` — so digests the
  /// migration source computes over its own memory find their pages.
  static ChecksumIndex Build(const Checkpoint& checkpoint,
                             vm::ContentMode mode, DigestAlgorithm algorithm);

  /// Binary-searches for `digest`; returns the page/file-block offset of
  /// one checkpoint page with that content, or nullopt.
  [[nodiscard]] std::optional<vm::PageId> Lookup(
      const Digest128& digest) const;

  [[nodiscard]] bool Contains(const Digest128& digest) const {
    return Lookup(digest).has_value();
  }

  /// Number of index entries (== pages indexed, duplicates collapsed to
  /// their first offset at build time but all entries retained for size
  /// accounting fidelity).
  [[nodiscard]] std::uint64_t EntryCount() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t DistinctDigests() const;
  [[nodiscard]] bool Empty() const { return entries_.empty(); }

  /// The distinct digests, sorted — the §3.2 bulk-exchange payload.
  [[nodiscard]] std::vector<Digest128> DistinctDigestList() const;

  /// Wire size of the bulk hash exchange: distinct digests x digest size.
  [[nodiscard]] Bytes BulkExchangeSize() const;

  [[nodiscard]] DigestAlgorithm Algorithm() const { return algorithm_; }

 private:
  std::vector<std::pair<Digest128, vm::PageId>> entries_;  // sorted by digest
  DigestAlgorithm algorithm_ = DigestAlgorithm::kMd5;
};

}  // namespace vecycle::storage
