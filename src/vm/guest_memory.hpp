// Page-granular guest memory model.
//
// Every technique the paper studies — sender-side deduplication, dirty-page
// tracking, and VeCycle's content-based redundancy elimination — depends
// only on (a) which pages carry identical content and (b) which pages were
// written when. GuestMemory therefore identifies each page's content by a
// 64-bit seed: equal seed ⇔ equal content. Two representations share that
// semantic:
//
//  * kSeedOnly   — only the seed vector is stored (8 B/page instead of
//                  4 KiB/page), letting benches model 6 GiB VMs (1.57 M
//                  pages) in ~12 MiB. Digests are a closed-form mix of
//                  the seed.
//  * kMaterialized — a real 4 KiB byte image per page, deterministically
//                  expanded from the seed. Digests are computed over the
//                  bytes, and integration tests use this mode to prove the
//                  migration protocol reconstructs memory byte-for-byte.
//
// ContentDigest is the one function that names page content by digest;
// guest memory, checkpoints and the checkpoint index all call it.
//
// Writes bump a per-page generation counter, which is exactly the dirty
// tracking state Miyakodori keeps (§4.3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "digest/digest.hpp"

namespace vecycle::vm {

using PageId = std::uint64_t;

/// Content seed 0 denotes the all-zero page (freshly booted machines are
/// full of them, §2.1).
inline constexpr std::uint64_t kZeroPageSeed = 0;

enum class ContentMode { kSeedOnly, kMaterialized };

/// Deterministically expands a content seed into a full 4 KiB page image.
/// Seed 0 expands to all zeros. Equal seeds always expand to equal bytes,
/// and (for practical purposes) distinct seeds to distinct bytes.
void MaterializePage(std::uint64_t seed, std::span<std::byte> out);

/// Digest of the page content `seed` denotes, under `algorithm`.
///
/// kMaterialized: the real digest of the 4 KiB image MaterializePage
/// expands the seed to. kSeedOnly: a closed-form injective mix of the
/// seed salted by the algorithm — word 0 is a SplitMix64 output, a
/// bijection of the seed, so distinct seeds never collide, and FNV keeps
/// its 64-bit shape (word 1 zero, as FnvDigest). Host-side hashing buys
/// nothing more in seed mode: the ChecksumEngine charges the simulated
/// hashing time either way, and the protocol only compares digests for
/// equality.
[[nodiscard]] Digest128 ContentDigest(ContentMode mode,
                                      DigestAlgorithm algorithm,
                                      std::uint64_t seed);

class GuestMemory {
 public:
  GuestMemory(Bytes ram_size, ContentMode mode);

  [[nodiscard]] std::uint64_t PageCount() const { return seeds_.size(); }
  [[nodiscard]] Bytes RamSize() const { return Pages(PageCount()); }
  [[nodiscard]] ContentMode Mode() const { return mode_; }

  [[nodiscard]] std::uint64_t Seed(PageId page) const;

  /// Every page's content seed, by page index — the whole-memory
  /// counterpart of Seed(). Callers snapshot this at departure time as
  /// the delta-encoding baseline of a future return migration.
  [[nodiscard]] const std::vector<std::uint64_t>& Seeds() const {
    return seeds_;
  }

  /// Overwrites `page` with new content. Bumps the generation counter even
  /// if the seed is unchanged (a store is a store — this is what makes
  /// dirty tracking overestimate, §4.3).
  void WritePage(PageId page, std::uint64_t content_seed);

  /// Rewrites the pages [first, first + seeds.size()) with `seeds`, in
  /// page order, as the net effect of `stores` stores that hit every one
  /// of them: each page's generation rises by exactly one, and
  /// TotalWrites by `stores` (at least seeds.size()). Workloads call it
  /// to fold an interval whose stores certainly covered a region.
  void RewritePages(PageId first, std::span<const std::uint64_t> seeds,
                    std::uint64_t stores);

  /// Copies content from one frame to another, as the guest kernel does
  /// when compacting or COW-duplicating memory. Dirties the destination.
  void CopyPage(PageId from, PageId to);

  /// Per-page generation counter (Miyakodori state). Starts at 0.
  [[nodiscard]] std::uint64_t Generation(PageId page) const;
  [[nodiscard]] const std::vector<std::uint64_t>& Generations() const {
    return generations_;
  }

  /// Overwrites every page's generation counter. The write-generation
  /// state is part of the VM, not of the host: when a migration
  /// completes, the destination's reconstructed memory adopts the
  /// source's counters so dirty tracking stays continuous across hosts
  /// (as Miyakodori's hypervisor-maintained vector does). Copies into the
  /// memory's own vector, so the calling thread allocates nothing.
  void SetGenerations(const std::vector<std::uint64_t>& generations);

  /// Total writes ever applied; cheap global change detector for tests.
  [[nodiscard]] std::uint64_t TotalWrites() const { return total_writes_; }

  /// ContentDigest of the page's current content in this memory's mode.
  /// Migrations pass their MigrationConfig::algorithm; MD5 is the
  /// paper's default (§3.4).
  [[nodiscard]] Digest128 PageDigest(
      PageId page, DigestAlgorithm algorithm = DigestAlgorithm::kMd5) const;

  /// Fast 64-bit content hash for fingerprinting and analysis: SplitMix64
  /// of the seed, so distinct contents never collide.
  [[nodiscard]] std::uint64_t ContentHash64(PageId page) const;

  /// Copies the page's (possibly expanded) bytes into `out` (4 KiB).
  void ReadPage(PageId page, std::span<std::byte> out) const;

  /// Direct view of a materialized page; invalid in kSeedOnly mode.
  [[nodiscard]] std::span<const std::byte> PageBytes(PageId page) const;

  /// True iff both memories have identical content page-by-page.
  [[nodiscard]] bool ContentEquals(const GuestMemory& other) const;

  /// Order-sensitive 64-bit digest of the whole image's content; equal iff
  /// page-by-page content is equal. The audit layer compares source and
  /// destination fingerprints after every migration.
  [[nodiscard]] std::uint64_t ContentFingerprint() const;

  [[nodiscard]] std::uint64_t CountZeroPages() const;

 private:
  void CheckPage(PageId page) const;
  /// One store's effect on the page, without counting it in TotalWrites.
  void Store(PageId page, std::uint64_t content_seed);

  ContentMode mode_;
  std::vector<std::uint64_t> seeds_;
  std::vector<std::uint64_t> generations_;
  std::vector<std::byte> backing_;  // PageCount()*kPageSize in kMaterialized
  std::uint64_t total_writes_ = 0;
};

/// Initial memory composition, following the structure the Memory Buddies
/// traces exhibit (§2.2, Fig. 4): a few percent zero pages, a duplicate
/// pool (shared libraries / page-cache copies) drawn from a small set of
/// distinct contents, and unique content everywhere else.
struct MemoryProfile {
  double zero_fraction = 0.03;
  double duplicate_fraction = 0.08;
  /// Number of distinct contents the duplicate pool draws from.
  std::uint64_t duplicate_pool_size = 512;

  /// Validates and fills `memory`; page placement is randomized with `rng`
  /// so duplicates and zeros are scattered as in real address spaces.
  void Apply(GuestMemory& memory, Xoshiro256& rng) const;
};

}  // namespace vecycle::vm
