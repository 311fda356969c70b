// Guest memory model: dual content representation, digests, generation
// counters, dirty snapshots, memory profiles, and workload mutators.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

#include "common/check.hpp"
#include "digest/hasher.hpp"
#include "per_store_writers.hpp"
#include "vm/dirty_tracker.hpp"
#include "vm/guest_memory.hpp"
#include "vm/workload.hpp"

namespace vecycle::vm {
namespace {

// --- Page materialization. ---

TEST(MaterializePage, ZeroSeedGivesZeroPage) {
  std::array<std::byte, kPageSize> page;
  MaterializePage(kZeroPageSeed, page);
  for (const auto b : page) EXPECT_EQ(b, std::byte{0});
}

TEST(MaterializePage, IsDeterministic) {
  std::array<std::byte, kPageSize> a;
  std::array<std::byte, kPageSize> b;
  MaterializePage(12345, a);
  MaterializePage(12345, b);
  EXPECT_EQ(a, b);
}

TEST(MaterializePage, DistinctSeedsGiveDistinctContent) {
  std::array<std::byte, kPageSize> a;
  std::array<std::byte, kPageSize> b;
  MaterializePage(1, a);
  MaterializePage(2, b);
  EXPECT_NE(a, b);
}

// --- GuestMemory basics. ---

TEST(GuestMemory, GeometryFromRamSize) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  EXPECT_EQ(memory.PageCount(), 256u);
  EXPECT_EQ(memory.RamSize(), MiB(1));
}

TEST(GuestMemory, UnalignedRamSizeThrows) {
  EXPECT_THROW(GuestMemory(Bytes{kPageSize + 1}, ContentMode::kSeedOnly),
               CheckFailure);
}

TEST(GuestMemory, StartsAllZeroPages) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  EXPECT_EQ(memory.CountZeroPages(), memory.PageCount());
}

TEST(GuestMemory, WriteChangesSeedAndGeneration) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(7, 999);
  EXPECT_EQ(memory.Seed(7), 999u);
  EXPECT_EQ(memory.Generation(7), 1u);
  EXPECT_EQ(memory.Generation(8), 0u);
  EXPECT_EQ(memory.TotalWrites(), 1u);
}

TEST(GuestMemory, RewriteWithSameContentStillBumpsGeneration) {
  // This is the semantic that makes dirty tracking overestimate (§4.3).
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(3, 42);
  memory.WritePage(3, 42);
  EXPECT_EQ(memory.Generation(3), 2u);
}

TEST(GuestMemory, CopyPageMovesContentAndDirtiesDestination) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(1, 42);
  memory.CopyPage(1, 2);
  EXPECT_EQ(memory.Seed(2), 42u);
  EXPECT_EQ(memory.Generation(2), 1u);
  EXPECT_EQ(memory.Generation(1), 1u);  // source untouched by the copy
}

TEST(GuestMemory, OutOfRangeAccessThrows) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  EXPECT_THROW((void)memory.Seed(memory.PageCount()), CheckFailure);
  EXPECT_THROW(memory.WritePage(memory.PageCount(), 1), CheckFailure);
}

// --- Digest semantics across modes. ---

TEST(GuestMemory, EqualSeedsGiveEqualDigestsWithinMode) {
  for (const auto mode :
       {ContentMode::kSeedOnly, ContentMode::kMaterialized}) {
    GuestMemory memory(MiB(1), mode);
    memory.WritePage(0, 123);
    memory.WritePage(1, 123);
    memory.WritePage(2, 456);
    EXPECT_EQ(memory.PageDigest(0), memory.PageDigest(1));
    EXPECT_NE(memory.PageDigest(0), memory.PageDigest(2));
  }
}

TEST(GuestMemory, ContentHashMatchesAcrossModes) {
  GuestMemory seeded(MiB(1), ContentMode::kSeedOnly);
  GuestMemory materialized(MiB(1), ContentMode::kMaterialized);
  seeded.WritePage(0, 77);
  materialized.WritePage(0, 77);
  EXPECT_EQ(seeded.ContentHash64(0), materialized.ContentHash64(0));
}

TEST(GuestMemory, MaterializedDigestHashesRealBytes) {
  GuestMemory memory(MiB(1), ContentMode::kMaterialized);
  memory.WritePage(0, 55);
  // Independently materialize and hash; must match PageDigest.
  std::array<std::byte, kPageSize> bytes;
  MaterializePage(55, bytes);
  for (const auto algorithm :
       {DigestAlgorithm::kMd5, DigestAlgorithm::kSha1,
        DigestAlgorithm::kSha256, DigestAlgorithm::kFnv1a}) {
    EXPECT_EQ(memory.PageDigest(0, algorithm),
              ComputeDigest(algorithm, bytes.data(), bytes.size()))
        << ToString(algorithm);
  }
}

TEST(GuestMemory, SeedDigestsKeepEachAlgorithmsShape) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(0, 55);
  // FNV is a 64-bit digest (word 1 zero, as FnvDigest); the others fill
  // both words. One content digests differently under each algorithm.
  EXPECT_EQ(memory.PageDigest(0, DigestAlgorithm::kFnv1a).words[1], 0u);
  std::set<Digest128> digests;
  for (const auto algorithm :
       {DigestAlgorithm::kMd5, DigestAlgorithm::kSha1,
        DigestAlgorithm::kSha256, DigestAlgorithm::kFnv1a}) {
    digests.insert(memory.PageDigest(0, algorithm));
  }
  EXPECT_EQ(digests.size(), 4u);
  EXPECT_THROW((void)memory.PageDigest(0, static_cast<DigestAlgorithm>(42)),
               CheckFailure);
}

TEST(GuestMemory, ReadPageAgreesWithPageBytes) {
  GuestMemory memory(MiB(1), ContentMode::kMaterialized);
  memory.WritePage(4, 99);
  std::array<std::byte, kPageSize> copy;
  memory.ReadPage(4, copy);
  const auto view = memory.PageBytes(4);
  EXPECT_TRUE(std::equal(copy.begin(), copy.end(), view.begin()));
}

TEST(GuestMemory, PageBytesThrowsInSeedMode) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  EXPECT_THROW((void)memory.PageBytes(0), CheckFailure);
}

TEST(GuestMemory, ContentEqualsComparesContent) {
  GuestMemory a(MiB(1), ContentMode::kSeedOnly);
  GuestMemory b(MiB(1), ContentMode::kSeedOnly);
  a.WritePage(0, 1);
  b.WritePage(0, 1);
  EXPECT_TRUE(a.ContentEquals(b));
  b.WritePage(0, 2);
  EXPECT_FALSE(a.ContentEquals(b));
}

TEST(GuestMemory, SetGenerationsAdoptsVector) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  std::vector<std::uint64_t> generations(memory.PageCount(), 9);
  memory.SetGenerations(generations);
  EXPECT_EQ(memory.Generation(0), 9u);
  EXPECT_THROW(memory.SetGenerations({1, 2, 3}), CheckFailure);
}

TEST(GuestMemory, RewritePagesBumpsEachGenerationOnceAndCountsStores) {
  GuestMemory memory(Pages(8), ContentMode::kSeedOnly);
  const std::vector<std::uint64_t> seeds{11, 12, 13};
  memory.RewritePages(2, seeds, /*stores=*/1000);
  for (PageId page = 0; page < memory.PageCount(); ++page) {
    const bool rewritten = page >= 2 && page < 5;
    EXPECT_EQ(memory.Generation(page), rewritten ? 1u : 0u) << page;
    EXPECT_EQ(memory.Seed(page), rewritten ? seeds[page - 2] : kZeroPageSeed);
  }
  EXPECT_EQ(memory.TotalWrites(), 1000u);
  // The range must fit, and every rewritten page needs a store.
  EXPECT_THROW(memory.RewritePages(6, seeds, 3), CheckFailure);
  EXPECT_THROW(memory.RewritePages(9, {}, 0), CheckFailure);
  EXPECT_THROW(memory.RewritePages(0, seeds, 2), CheckFailure);
  EXPECT_EQ(memory.TotalWrites(), 1000u);
}

// --- Digests follow content. ---
//
// PageDigest is a pure function of the page's current content: writes and
// copies change it, and adopting new generation counters never does.

/// What PageDigest must return: ContentDigest of the current seed.
Digest128 ExpectedDigest(const GuestMemory& memory, PageId page) {
  return ContentDigest(memory.Mode(), DigestAlgorithm::kMd5,
                       memory.Seed(page));
}

TEST(DigestCache, WritePageInvalidates) {
  for (const auto mode :
       {ContentMode::kSeedOnly, ContentMode::kMaterialized}) {
    GuestMemory memory(MiB(1), mode);
    memory.WritePage(0, 111);
    const auto before = memory.PageDigest(0);
    memory.WritePage(0, 222);
    const auto after = memory.PageDigest(0);
    EXPECT_NE(before, after);
    EXPECT_EQ(after, ExpectedDigest(memory, 0));
  }
}

TEST(DigestCache, CopyPageInvalidatesDestination) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(0, 111);
  memory.WritePage(1, 222);
  const auto dest_before = memory.PageDigest(1);
  memory.CopyPage(0, 1);
  EXPECT_NE(memory.PageDigest(1), dest_before);
  EXPECT_EQ(memory.PageDigest(1), memory.PageDigest(0));
}

TEST(DigestCache, SetGenerationsKeepsDigestsValid) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(0, 333);
  const auto digest = memory.PageDigest(0);
  std::vector<std::uint64_t> generations(memory.PageCount(), 0);
  memory.SetGenerations(generations);  // content untouched
  EXPECT_EQ(memory.PageDigest(0), digest);
  EXPECT_EQ(memory.PageDigest(0), ExpectedDigest(memory, 0));
}

TEST(DigestCache, GenerationAliasingAfterSetGenerationsIsSafe) {
  // Rewind the counters, then write until the counter climbs back to
  // where an earlier digest was taken: the digest follows the content,
  // not the counter.
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(0, 444);  // generation 1
  const auto stale = memory.PageDigest(0);
  std::vector<std::uint64_t> generations(memory.PageCount(), 0);
  memory.SetGenerations(generations);  // back to generation 0
  memory.WritePage(0, 555);  // generation 1 again, new content
  EXPECT_NE(memory.PageDigest(0), stale);
  EXPECT_EQ(memory.PageDigest(0), ExpectedDigest(memory, 0));
}

TEST(DigestCache, SetGenerationsDropsEntriesStaledByEarlierWrites) {
  // The destination-side sequence of a checkpoint-assisted migration:
  // ApplyRecord digests a page for the in-place check, WritePage fetches
  // the real content, then Finalize adopts the source's counters. The
  // digest must be the fetched content's.
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  memory.WritePage(0, 666);
  const auto stale = memory.PageDigest(0);
  memory.WritePage(0, 777);
  std::vector<std::uint64_t> generations(memory.PageCount(), 5);
  memory.SetGenerations(generations);
  EXPECT_NE(memory.PageDigest(0), stale);
  EXPECT_EQ(memory.PageDigest(0), ExpectedDigest(memory, 0));
}

// --- Memory profile. ---

TEST(MemoryProfile, CompositionMatchesRequestedFractions) {
  GuestMemory memory(MiB(64), ContentMode::kSeedOnly);  // 16384 pages
  Xoshiro256 rng(1);
  MemoryProfile profile;
  profile.zero_fraction = 0.05;
  profile.duplicate_fraction = 0.10;
  profile.Apply(memory, rng);

  const double zeros = static_cast<double>(memory.CountZeroPages()) /
                       static_cast<double>(memory.PageCount());
  EXPECT_NEAR(zeros, 0.05, 0.01);

  std::set<std::uint64_t> unique;
  for (PageId p = 0; p < memory.PageCount(); ++p) {
    unique.insert(memory.Seed(p));
  }
  const double dup_fraction =
      1.0 - static_cast<double>(unique.size()) /
                static_cast<double>(memory.PageCount());
  // Zero pages collapse to one seed; dup pool of 512 seeds absorbs ~10%.
  EXPECT_NEAR(dup_fraction, 0.15, 0.03);
}

TEST(MemoryProfile, InvalidFractionsThrow) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  Xoshiro256 rng(1);
  MemoryProfile profile;
  profile.zero_fraction = 0.6;
  profile.duplicate_fraction = 0.6;
  EXPECT_THROW(profile.Apply(memory, rng), CheckFailure);
}

// --- Dirty snapshots. ---

TEST(DirtySnapshot, DetectsWrites) {
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  DirtySnapshot snapshot(memory);
  memory.WritePage(10, 1);
  memory.WritePage(20, 2);
  EXPECT_TRUE(snapshot.IsDirty(memory, 10));
  EXPECT_FALSE(snapshot.IsDirty(memory, 11));
  EXPECT_EQ(snapshot.CountDirty(memory), 2u);
  EXPECT_EQ(snapshot.DirtyPages(memory), (std::vector<PageId>{10, 20}));
}

TEST(DirtySnapshot, MismatchedGeometryThrows) {
  GuestMemory small(MiB(1), ContentMode::kSeedOnly);
  GuestMemory big(MiB(2), ContentMode::kSeedOnly);
  DirtySnapshot snapshot(small);
  EXPECT_THROW((void)snapshot.CountDirty(big), CheckFailure);
}

// --- Workloads. ---

TEST(IdleWorkload, WritesAtConfiguredRate) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);
  IdleWorkload::Config config;
  config.write_rate_pages_per_s = 4.0;
  IdleWorkload workload(config);
  workload.Advance(memory, Seconds(100.0));
  EXPECT_EQ(memory.TotalWrites(), 400u);
}

TEST(IdleWorkload, CarriesFractionalWritesAcrossSteps) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);
  IdleWorkload::Config config;
  config.write_rate_pages_per_s = 0.5;
  IdleWorkload workload(config);
  for (int i = 0; i < 100; ++i) workload.Advance(memory, Seconds(1.0));
  EXPECT_EQ(memory.TotalWrites(), 50u);
}

TEST(IdleWorkload, WritesStayInHotRegion) {
  GuestMemory memory(MiB(64), ContentMode::kSeedOnly);
  IdleWorkload::Config config;
  config.write_rate_pages_per_s = 100.0;
  config.hot_region_pages = 128;
  IdleWorkload workload(config);
  DirtySnapshot snapshot(memory);
  workload.Advance(memory, Seconds(100.0));
  for (const PageId page : snapshot.DirtyPages(memory)) {
    EXPECT_LT(page, 128u);
  }
}

TEST(UniformRandomWorkload, SpreadsWritesAcrossRam) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);  // 4096 pages
  UniformRandomWorkload workload(100.0, /*seed=*/3);
  DirtySnapshot snapshot(memory);
  workload.Advance(memory, Seconds(20.0));
  const auto dirty = snapshot.DirtyPages(memory);
  // 2000 writes over 4096 pages: expect wide coverage, some collisions.
  EXPECT_GT(dirty.size(), 1500u);
  EXPECT_LT(dirty.size(), 2001u);
}

TEST(HotspotWorkload, ConcentratesWrites) {
  GuestMemory memory(MiB(64), ContentMode::kSeedOnly);  // 16384 pages
  HotspotWorkload::Config config;
  config.write_rate_pages_per_s = 1000.0;
  config.hot_fraction = 0.1;
  config.hot_probability = 0.9;
  HotspotWorkload workload(config);
  DirtySnapshot snapshot(memory);
  workload.Advance(memory, Seconds(10.0));
  const auto hot_boundary =
      static_cast<PageId>(0.1 * static_cast<double>(memory.PageCount()));
  std::uint64_t hot_writes = 0;
  std::uint64_t total = 0;
  for (const PageId page : snapshot.DirtyPages(memory)) {
    ++total;
    if (page < hot_boundary) ++hot_writes;
  }
  EXPECT_GT(total, 0u);
  // Dirty-page fraction in the hot region must dominate.
  EXPECT_GT(static_cast<double>(hot_writes) / static_cast<double>(total),
            0.5);
}

TEST(SequentialRamdisk, FillCoversConfiguredSpan) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);
  SequentialRamdiskWorkload ramdisk(memory.PageCount(), 0.9, /*seed=*/5);
  ramdisk.Fill(memory);
  EXPECT_EQ(ramdisk.PageSpan(),
            static_cast<std::uint64_t>(0.9 * memory.PageCount()));
  // All ramdisk pages have fresh (non-zero) content.
  for (std::uint64_t i = 0; i < ramdisk.PageSpan(); ++i) {
    EXPECT_NE(memory.Seed(ramdisk.FirstPage() + i), kZeroPageSeed);
  }
}

TEST(SequentialRamdisk, UpdateFractionTouchesExactCount) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);
  SequentialRamdiskWorkload ramdisk(memory.PageCount(), 0.9, /*seed=*/5);
  ramdisk.Fill(memory);
  DirtySnapshot snapshot(memory);
  ramdisk.UpdateFraction(memory, 0.25);
  const auto expected =
      static_cast<std::uint64_t>(0.25 * static_cast<double>(ramdisk.PageSpan()));
  EXPECT_EQ(snapshot.CountDirty(memory), expected);
}

TEST(SequentialRamdisk, UpdatesStayInsideRamdisk) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);
  SequentialRamdiskWorkload ramdisk(memory.PageCount(), 0.5, /*seed=*/5);
  ramdisk.Fill(memory);
  DirtySnapshot snapshot(memory);
  ramdisk.UpdateFraction(memory, 1.0);
  for (const PageId page : snapshot.DirtyPages(memory)) {
    EXPECT_LT(page, ramdisk.FirstPage() + ramdisk.PageSpan());
  }
}

TEST(PageRemapWorkload, PreservesContentMultiset) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);
  Xoshiro256 rng(1);
  MemoryProfile{}.Apply(memory, rng);

  std::multiset<std::uint64_t> before;
  for (PageId p = 0; p < memory.PageCount(); ++p) {
    before.insert(memory.Seed(p));
  }

  PageRemapWorkload workload(50.0, /*seed=*/9);
  workload.Advance(memory, Seconds(10.0));

  std::multiset<std::uint64_t> after;
  for (PageId p = 0; p < memory.PageCount(); ++p) {
    after.insert(memory.Seed(p));
  }
  EXPECT_EQ(before, after);
  // ...but pages were dirtied (the Fig. 5 dirty-tracking overestimate).
  EXPECT_GT(memory.TotalWrites(), memory.PageCount());
}

// --- Saturated-interval fold. ---
//
// Each workload is checked against its per-store reference writer
// (per_store_writers.hpp). Below kSaturatingWritesPerPage stores per
// region page the two must agree exactly; at or above it the library
// rewrites each region page once, so every region generation rises by
// exactly one — a per-store run would raise them by ~64 each.

/// Runs `library` and `reference` over the same intervals from the same
/// profiled memory and expects identical seeds, generations and writes.
template <typename Reference>
void ExpectSameStores(Workload& library, Reference& reference, Bytes ram,
                      const std::vector<double>& interval_seconds) {
  GuestMemory ours(ram, ContentMode::kSeedOnly);
  Xoshiro256 profile_rng(77);
  MemoryProfile{}.Apply(ours, profile_rng);
  GuestMemory theirs = ours;
  for (const double seconds : interval_seconds) {
    library.Advance(ours, Seconds(seconds));
    reference.Advance(theirs, Seconds(seconds));
  }
  EXPECT_EQ(ours.Seeds(), theirs.Seeds());
  EXPECT_EQ(ours.Generations(), theirs.Generations());
  EXPECT_EQ(ours.TotalWrites(), theirs.TotalWrites());
  EXPECT_GT(ours.TotalWrites(), ours.PageCount());
}

// Fragmented intervals, each below 64 stores per region page; the
// fractional carry moves between them.
const std::vector<double> kUnsaturatedIntervals{0.3, 1.7, 5.0, 12.25, 0.01};

TEST(WorkloadFold, IdleBelowThresholdMatchesPerStoreWriter) {
  // 500 pages/s over 128 pages: at most 6125 stores per interval < 8192.
  IdleWorkload library({.write_rate_pages_per_s = 500.0,
                        .hot_region_pages = 128,
                        .seed = 3});
  reference::UniformWriter reference(500.0, 128, 3);
  ExpectSameStores(library, reference, MiB(4), kUnsaturatedIntervals);
}

TEST(WorkloadFold, UniformBelowThresholdMatchesPerStoreWriter) {
  // 3000 pages/s over all 1024 pages: at most 36750 stores < 65536.
  UniformRandomWorkload library(3000.0, 4);
  reference::UniformWriter reference(3000.0, 1024, 4);
  ExpectSameStores(library, reference, MiB(4), kUnsaturatedIntervals);
}

TEST(WorkloadFold, AllHotHotspotBelowThresholdMatchesPerStoreWriter) {
  // 1000 pages/s over a 256-page hot region: at most 12250 < 16384.
  HotspotWorkload library({.write_rate_pages_per_s = 1000.0,
                           .hot_fraction = 0.25,
                           .hot_probability = 1.0,
                           .seed = 5});
  reference::HotspotWriter reference(1000.0, 0.25, 1.0, 5);
  ExpectSameStores(library, reference, MiB(4), kUnsaturatedIntervals);
}

TEST(WorkloadFold, MixedHotspotNeverFolds) {
  // Cold leakage makes the stores non-uniform, so even a 100 s interval
  // (390 stores per hot page) is simulated store by store.
  HotspotWorkload library({.write_rate_pages_per_s = 1000.0,
                           .hot_fraction = 0.25,
                           .hot_probability = 0.9,
                           .seed = 6});
  reference::HotspotWriter reference(1000.0, 0.25, 0.9, 6);
  std::vector<double> intervals = kUnsaturatedIntervals;
  intervals.push_back(100.0);
  ExpectSameStores(library, reference, MiB(4), intervals);
}

/// Expects `memory` to show one folded rewrite of pages [0, region) since
/// `before`: each region page carries a new fresh seed and a generation
/// exactly one higher, every other page is untouched, and TotalWrites
/// rose by `writes`.
void ExpectFolded(const GuestMemory& before, const GuestMemory& memory,
                  std::uint64_t region, std::uint64_t writes) {
  for (PageId page = 0; page < memory.PageCount(); ++page) {
    if (page < region) {
      EXPECT_EQ(memory.Generation(page), before.Generation(page) + 1) << page;
      EXPECT_NE(memory.Seed(page), before.Seed(page)) << page;
      EXPECT_NE(memory.Seed(page), kZeroPageSeed) << page;
      EXPECT_EQ(memory.Seed(page) >> 63, 0u) << page;
    } else {
      EXPECT_EQ(memory.Generation(page), before.Generation(page)) << page;
      EXPECT_EQ(memory.Seed(page), before.Seed(page)) << page;
    }
  }
  EXPECT_EQ(memory.TotalWrites(), before.TotalWrites() + writes);
}

TEST(WorkloadFold, MaterializedFoldExpandsEverySeed) {
  GuestMemory memory(MiB(1), ContentMode::kMaterialized);  // 256 pages
  const GuestMemory before = memory;
  IdleWorkload workload({.write_rate_pages_per_s = 64.0 * 64.0,
                         .hot_region_pages = 64,
                         .seed = 7});
  workload.Advance(memory, Seconds(1.0));
  ExpectFolded(before, memory, 64, 64 * 64);
  std::array<std::byte, kPageSize> expected{};
  for (PageId page = 0; page < memory.PageCount(); ++page) {
    MaterializePage(memory.Seed(page), expected);
    const auto bytes = memory.PageBytes(page);
    EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), expected.begin()))
        << page;
  }
}

TEST(WorkloadFold, ThrottledIntervalsFoldOnTheThrottledCount) {
  // 16384 pages/s nominal over 128 pages; at half speed a 1 s interval
  // makes exactly 64 stores per page and folds.
  GuestMemory memory(MiB(1), ContentMode::kSeedOnly);
  IdleWorkload workload({.write_rate_pages_per_s = 16384.0,
                         .hot_region_pages = 128,
                         .seed = 8});
  workload.SetThrottle(0.5);
  GuestMemory before = memory;
  workload.Advance(memory, Seconds(1.0));
  ExpectFolded(before, memory, 128, 8192);

  // Just under the threshold at half speed, every store is simulated.
  IdleWorkload slow({.write_rate_pages_per_s = 16128.0,
                     .hot_region_pages = 128,
                     .seed = 9});
  slow.SetThrottle(0.5);
  reference::UniformWriter reference(8064.0, 128, 9);
  ExpectSameStores(slow, reference, MiB(1), {1.0});
}

TEST(WorkloadFold, DayLongPeriodicAdvanceFoldsEachPhase) {
  // One 24 h call: a 12 h busy phase (all-hot hotspot over the front
  // quarter of RAM) then a 12 h quiet phase (idle over the first 64
  // pages, nested inside it). Each phase is one saturated interval.
  GuestMemory memory(MiB(4), ContentMode::kSeedOnly);  // 1024 pages
  Xoshiro256 profile_rng(10);
  MemoryProfile{}.Apply(memory, profile_rng);
  const GuestMemory before = memory;
  PeriodicWorkload::Config config;
  config.period = Hours(24.0);
  config.busy_fraction = 0.5;
  config.busy = {.write_rate_pages_per_s = 1000.0,
                 .hot_fraction = 0.25,
                 .hot_probability = 1.0,
                 .seed = 11};
  config.quiet = {.write_rate_pages_per_s = 0.5,
                  .hot_region_pages = 64,
                  .seed = 12};
  PeriodicWorkload workload(config);
  workload.Advance(memory, Hours(24.0));
  EXPECT_TRUE(workload.InBusyPhase());

  for (PageId page = 0; page < memory.PageCount(); ++page) {
    const std::uint64_t folds = (page < 256 ? 1 : 0) + (page < 64 ? 1 : 0);
    EXPECT_EQ(memory.Generation(page), before.Generation(page) + folds)
        << page;
    EXPECT_EQ(memory.Seed(page) == before.Seed(page), folds == 0) << page;
  }
  EXPECT_EQ(memory.TotalWrites(),
            before.TotalWrites() + 1000u * 43200u + 21600u);
}

TEST(CompositeWorkload, RunsAllParts) {
  GuestMemory memory(MiB(16), ContentMode::kSeedOnly);
  CompositeWorkload composite;
  composite.Add(std::make_unique<UniformRandomWorkload>(10.0, 1));
  composite.Add(std::make_unique<UniformRandomWorkload>(20.0, 2));
  composite.Advance(memory, Seconds(10.0));
  EXPECT_EQ(memory.TotalWrites(), 300u);
}

}  // namespace
}  // namespace vecycle::vm
