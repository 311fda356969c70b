// VM memory checkpoints.
//
// After an outgoing migration the source writes the VM's memory image to
// its local disk (§3). A checkpoint is conceptually that file: one 4 KiB
// record per page, read back sequentially when bootstrapping the next
// incoming migration. Alongside the image, Miyakodori-style generation
// counters are retained (§4.3) so the dirty-tracking strategy can compare
// checkpoint-time and migration-time write generations.
//
// In memory a checkpoint stores content seeds (8 B/page); SizeOnDisk()
// still reports the full page image size, which is what the simulated disk
// charges for and what local storage would actually hold.
//
// Beside the captured image it keeps a sparse overlay of at-rest damage
// (page, stored seed): reads serve the stored content, Seeds() the
// capture, and IntegrityOk() is exactly "no damage recorded".
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "digest/digest.hpp"
#include "digest/digest_map.hpp"
#include "vm/guest_memory.hpp"

namespace vecycle::storage {

class Checkpoint {
 public:
  Checkpoint() = default;

  /// Snapshots `memory`'s content and generation counters.
  static Checkpoint CaptureFrom(const vm::GuestMemory& memory);

  [[nodiscard]] std::uint64_t PageCount() const { return seeds_.size(); }
  [[nodiscard]] bool Empty() const { return seeds_.empty(); }

  /// Stored content seed of `page`: the damaged seed when the overlay
  /// holds one, the captured seed otherwise.
  [[nodiscard]] std::uint64_t SeedAt(vm::PageId page) const;
  [[nodiscard]] std::uint64_t GenerationAt(vm::PageId page) const;
  /// The image as captured; at-rest damage never changes it.
  [[nodiscard]] const std::vector<std::uint64_t>& Seeds() const {
    return seeds_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& Generations() const {
    return generations_;
  }

  /// vm::ContentDigest of the stored image at `page`: what a GuestMemory
  /// in `mode` holding the same content reports from PageDigest(algorithm).
  [[nodiscard]] Digest128 DigestAt(vm::PageId page, vm::ContentMode mode,
                                   DigestAlgorithm algorithm) const;

  /// The §3.3 checksum index over the stored image: each distinct
  /// DigestAt(page, mode, algorithm) maps to the lowest page holding it,
  /// so digests the migration source computes over its own memory find
  /// their checkpoint block. Damaged pages are indexed by the content
  /// actually stored, not by what was captured.
  [[nodiscard]] DigestMap Index(vm::ContentMode mode,
                                DigestAlgorithm algorithm) const;

  /// Size of the on-disk image: page_count * 4 KiB (plus a header the
  /// accounting ignores as noise).
  [[nodiscard]] Bytes SizeOnDisk() const { return Pages(PageCount()); }

  /// Loads the stored content into `memory` (the §3.3 sequential
  /// initialization), one write per page. Page counts must match.
  void RestoreInto(vm::GuestMemory& memory) const;

  /// True when every stored page holds its captured content: what the
  /// §3.3 scan verifies before the destination trusts the image.
  [[nodiscard]] bool IntegrityOk() const { return damage_.empty(); }

  /// Test hook / fault injection: silently replace one page's stored
  /// content, as a latent disk error would. The last write to a page
  /// wins; writing its captured seed back heals it.
  void CorruptPageForTesting(vm::PageId page, std::uint64_t bad_seed);

  /// Durable serialization, for deployments that keep checkpoints across
  /// process restarts. Format: magic 'VECCKPT1', u64 page count, stored
  /// seeds, generations, 16-byte MD5 of the captured seeds‖generations
  /// (little-endian). Load rejects a page count the file cannot hold,
  /// verifies the digest, and throws CheckFailure on any mismatch.
  void SaveFile(const std::string& path) const;
  static Checkpoint LoadFile(const std::string& path);

 private:
  std::vector<std::uint64_t> seeds_;        ///< as captured
  std::vector<std::uint64_t> generations_;  ///< as captured
  /// (page, stored seed), sorted by page; never a page's captured seed.
  std::vector<std::pair<vm::PageId, std::uint64_t>> damage_;
};

}  // namespace vecycle::storage
