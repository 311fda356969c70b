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
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "digest/digest.hpp"
#include "vm/guest_memory.hpp"

namespace vecycle::storage {

class Checkpoint {
 public:
  Checkpoint() = default;

  /// Snapshots `memory`'s content and generation counters.
  static Checkpoint CaptureFrom(const vm::GuestMemory& memory);

  [[nodiscard]] std::uint64_t PageCount() const { return seeds_.size(); }
  [[nodiscard]] bool Empty() const { return seeds_.empty(); }

  [[nodiscard]] std::uint64_t SeedAt(vm::PageId page) const;
  [[nodiscard]] std::uint64_t GenerationAt(vm::PageId page) const;
  [[nodiscard]] const std::vector<std::uint64_t>& Seeds() const {
    return seeds_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& Generations() const {
    return generations_;
  }

  /// vm::ContentDigest of the page image at `page`: what a GuestMemory in
  /// `mode` holding the same content reports from PageDigest(algorithm).
  [[nodiscard]] Digest128 DigestAt(vm::PageId page, vm::ContentMode mode,
                                   DigestAlgorithm algorithm) const;

  /// Size of the on-disk image: page_count * 4 KiB (plus a header the
  /// accounting ignores as noise).
  [[nodiscard]] Bytes SizeOnDisk() const { return Pages(PageCount()); }

  /// Loads the checkpoint's content into `memory` (the §3.3 sequential
  /// initialization). Page counts must match. Counts as guest writes.
  void RestoreInto(vm::GuestMemory& memory) const;

  /// Whole-image integrity digest (over seeds and generations). Computed
  /// at capture time; a checkpoint that sat on a flaky disk can be
  /// verified against it before the destination trusts it (§3.3's
  /// initialization scan is the natural place — the data is being read
  /// anyway). Memoized: the image is immutable, and IntegrityOk() gates
  /// every migration, so recomputing a multi-hundred-KiB MD5 per check
  /// was the single hottest path in the wall-clock profile.
  [[nodiscard]] Digest128 ImageDigest() const;
  [[nodiscard]] bool IntegrityOk() const {
    return ImageDigest() == captured_digest_;
  }

  /// Test hook / fault injection: silently corrupt one page's stored
  /// content, as a latent disk error would.
  void CorruptPageForTesting(vm::PageId page, std::uint64_t bad_seed);

  /// Durable serialization, for deployments that keep checkpoints across
  /// process restarts. Format: magic 'VECCKPT1', u64 page count, seeds,
  /// generations, 16-byte image digest (little-endian). Load verifies the
  /// digest and throws on mismatch.
  void SaveFile(const std::string& path) const;
  static Checkpoint LoadFile(const std::string& path);

 private:
  std::vector<std::uint64_t> seeds_;
  std::vector<std::uint64_t> generations_;
  Digest128 captured_digest_;

  // ImageDigest memo over the immutable image (CorruptPageForTesting is
  // the only mutation and invalidates). `mutable`: caching is invisible
  // to observable state.
  mutable Digest128 image_digest_cache_;
  mutable bool image_digest_cached_ = false;
};

}  // namespace vecycle::storage
