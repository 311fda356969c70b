// Checkpoints, the checkpoint's checksum index (§3.3), and the per-host
// checkpoint store with disk-time accounting.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "audit/replay.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "digest/digest_map.hpp"
#include "digest/md5.hpp"
#include "net/message.hpp"
#include "storage/checkpoint.hpp"
#include "storage/checkpoint_store.hpp"
#include "vm/guest_memory.hpp"

namespace vecycle::storage {
namespace {

constexpr auto kSeedMode = vm::ContentMode::kSeedOnly;

vm::GuestMemory MakeMemory(Bytes ram = MiB(4)) {
  vm::GuestMemory memory(ram, vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(1);
  vm::MemoryProfile{}.Apply(memory, rng);
  return memory;
}

// --- Checkpoint capture / restore. ---

TEST(Checkpoint, CapturesContentAndGenerations) {
  auto memory = MakeMemory();
  memory.WritePage(5, 42);
  const auto cp = Checkpoint::CaptureFrom(memory);
  EXPECT_EQ(cp.PageCount(), memory.PageCount());
  EXPECT_EQ(cp.SeedAt(5), 42u);
  EXPECT_EQ(cp.GenerationAt(5), memory.Generation(5));
}

TEST(Checkpoint, RestoreReproducesContent) {
  auto memory = MakeMemory();
  const auto cp = Checkpoint::CaptureFrom(memory);
  vm::GuestMemory fresh(memory.RamSize(), vm::ContentMode::kSeedOnly);
  cp.RestoreInto(fresh);
  EXPECT_TRUE(fresh.ContentEquals(memory));
}

TEST(Checkpoint, RestoreGeometryMismatchThrows) {
  auto memory = MakeMemory(MiB(4));
  const auto cp = Checkpoint::CaptureFrom(memory);
  vm::GuestMemory other(MiB(8), vm::ContentMode::kSeedOnly);
  EXPECT_THROW(cp.RestoreInto(other), CheckFailure);
}

TEST(Checkpoint, SizeOnDiskIsFullImage) {
  auto memory = MakeMemory(MiB(4));
  const auto cp = Checkpoint::CaptureFrom(memory);
  EXPECT_EQ(cp.SizeOnDisk(), MiB(4));
}

TEST(Checkpoint, DigestMatchesGuestMemory) {
  auto memory = MakeMemory();
  const auto cp = Checkpoint::CaptureFrom(memory);
  for (vm::PageId page = 0; page < 16; ++page) {
    EXPECT_EQ(cp.DigestAt(page, memory.Mode(), DigestAlgorithm::kMd5),
              memory.PageDigest(page));
  }
}

TEST(Checkpoint, FileRoundTrip) {
  auto memory = MakeMemory();
  const auto cp = Checkpoint::CaptureFrom(memory);
  const auto path =
      (std::filesystem::temp_directory_path() / "vecycle_ckpt_test.bin")
          .string();
  cp.SaveFile(path);
  const auto loaded = Checkpoint::LoadFile(path);
  EXPECT_EQ(loaded.Seeds(), cp.Seeds());
  EXPECT_EQ(loaded.Generations(), cp.Generations());
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadRejectsGarbageFile) {
  const auto path =
      (std::filesystem::temp_directory_path() / "vecycle_garbage.bin")
          .string();
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a checkpoint", f);
    std::fclose(f);
  }
  EXPECT_THROW(Checkpoint::LoadFile(path), CheckFailure);
  std::remove(path.c_str());
}

TEST(Checkpoint, IntegrityDigestDetectsCorruption) {
  auto memory = MakeMemory();
  auto cp = Checkpoint::CaptureFrom(memory);
  EXPECT_TRUE(cp.IntegrityOk());
  cp.CorruptPageForTesting(7, 0xDEAD);
  EXPECT_FALSE(cp.IntegrityOk());
}

TEST(Checkpoint, FileLoadRejectsCorruptImage) {
  auto memory = MakeMemory();
  auto cp = Checkpoint::CaptureFrom(memory);
  cp.CorruptPageForTesting(3, 0xBEEF);
  const auto path =
      (std::filesystem::temp_directory_path() / "vecycle_corrupt_ckpt.bin")
          .string();
  cp.SaveFile(path);  // saves the stale digest alongside corrupt data
  EXPECT_THROW(Checkpoint::LoadFile(path), CheckFailure);
  std::filesystem::remove(path);
}

// --- Damage overlay. ---

TEST(CheckpointDamage, WritingTheCapturedSeedBackHeals) {
  auto memory = MakeMemory();
  auto cp = Checkpoint::CaptureFrom(memory);
  cp.CorruptPageForTesting(7, 0xDEAD);
  ASSERT_FALSE(cp.IntegrityOk());
  cp.CorruptPageForTesting(7, memory.Seed(7));
  EXPECT_TRUE(cp.IntegrityOk());
  EXPECT_EQ(cp.SeedAt(7), memory.Seed(7));
}

TEST(CheckpointDamage, ReadsServeDamageWhileSeedsStayAsCaptured) {
  auto memory = MakeMemory();
  auto cp = Checkpoint::CaptureFrom(memory);
  cp.CorruptPageForTesting(700, 0xBAD2);
  cp.CorruptPageForTesting(3, 0xBAD1);

  EXPECT_EQ(cp.SeedAt(3), 0xBAD1u);
  EXPECT_EQ(cp.SeedAt(700), 0xBAD2u);
  EXPECT_EQ(cp.SeedAt(4), memory.Seed(4));
  EXPECT_EQ(cp.DigestAt(3, kSeedMode, DigestAlgorithm::kMd5),
            vm::ContentDigest(kSeedMode, DigestAlgorithm::kMd5, 0xBAD1));
  EXPECT_EQ(cp.DigestAt(4, kSeedMode, DigestAlgorithm::kMd5),
            memory.PageDigest(4));
  EXPECT_EQ(cp.Seeds(), memory.Seeds());
  EXPECT_EQ(cp.Generations(), memory.Generations());

  vm::GuestMemory restored(memory.RamSize(), kSeedMode);
  cp.RestoreInto(restored);
  EXPECT_EQ(restored.TotalWrites(), cp.PageCount());  // each page once
  for (vm::PageId page = 0; page < cp.PageCount(); ++page) {
    ASSERT_EQ(restored.Seed(page), cp.SeedAt(page)) << page;
  }
  EXPECT_EQ(restored.Seed(3), 0xBAD1u);
  EXPECT_EQ(restored.Seed(700), 0xBAD2u);
}

TEST(CheckpointDamage, SecondCorruptionOfAPageKeepsTheLastSeed) {
  auto memory = MakeMemory();
  auto cp = Checkpoint::CaptureFrom(memory);
  cp.CorruptPageForTesting(9, 0xBAD1);
  cp.CorruptPageForTesting(9, 0xBAD2);
  EXPECT_EQ(cp.SeedAt(9), 0xBAD2u);
  EXPECT_FALSE(cp.IntegrityOk());
  // One overlay entry for the page: healing it once heals the image.
  cp.CorruptPageForTesting(9, memory.Seed(9));
  EXPECT_TRUE(cp.IntegrityOk());
}

// --- File format. ---

template <typename T>
void AppendBytes(std::string& out, const T* data, std::size_t count) {
  out.append(reinterpret_cast<const char*>(data), count * sizeof(T));
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(CheckpointFile, SaveWritesStoredSeedsAndTheCapturedImageMd5) {
  vm::GuestMemory memory(Pages(5), kSeedMode);
  for (vm::PageId p = 0; p < 5; ++p) memory.WritePage(p, 100 + p);
  memory.WritePage(2, 555);  // page 2 at generation 2
  auto cp = Checkpoint::CaptureFrom(memory);
  cp.CorruptPageForTesting(1, 0xBAD);

  std::string expected = "VECCKPT1";
  const std::uint64_t count = 5;
  AppendBytes(expected, &count, 1);
  const std::vector<std::uint64_t> stored = {100, 0xBAD, 555, 103, 104};
  AppendBytes(expected, stored.data(), stored.size());
  AppendBytes(expected, memory.Generations().data(), 5);
  std::vector<std::uint64_t> captured = memory.Seeds();
  captured.insert(captured.end(), memory.Generations().begin(),
                  memory.Generations().end());
  const Digest128 digest =
      Md5Digest(captured.data(), captured.size() * sizeof(std::uint64_t));
  AppendBytes(expected, digest.words.data(), digest.words.size());

  const auto path =
      (std::filesystem::temp_directory_path() / "vecycle_ckpt_format.bin")
          .string();
  cp.SaveFile(path);
  EXPECT_EQ(ReadWholeFile(path), expected);
  std::filesystem::remove(path);
}

TEST(CheckpointFile, LoadRejectsAPageCountTheFileCannotHold) {
  const auto cp = Checkpoint::CaptureFrom(MakeMemory(MiB(1)));
  const auto path =
      (std::filesystem::temp_directory_path() / "vecycle_ckpt_count.bin")
          .string();
  cp.SaveFile(path);
  const auto claim = [&path](std::uint64_t count) {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(8);
    file.write(reinterpret_cast<const char*>(&count), sizeof(count));
  };
  // One page more than the file holds.
  claim(cp.PageCount() + 1);
  EXPECT_THROW(Checkpoint::LoadFile(path), CheckFailure);
  // A count whose byte size wraps 64 bits must be rejected before any
  // vector is sized for it.
  claim(std::uint64_t{1} << 61);
  EXPECT_THROW(Checkpoint::LoadFile(path), CheckFailure);
  claim(cp.PageCount());
  EXPECT_EQ(Checkpoint::LoadFile(path).Seeds(), cp.Seeds());
  std::filesystem::remove(path);
}

// --- Checksum index (Checkpoint::Index). ---

TEST(ChecksumIndex, LookupFindsEveryPage) {
  auto memory = MakeMemory();
  const auto cp = Checkpoint::CaptureFrom(memory);
  const DigestMap index = cp.Index(kSeedMode, DigestAlgorithm::kMd5);
  for (vm::PageId page = 0; page < cp.PageCount(); ++page) {
    const std::uint64_t* found =
        index.Find(cp.DigestAt(page, kSeedMode, DigestAlgorithm::kMd5));
    ASSERT_NE(found, nullptr);
    // Duplicates resolve to the lowest page with the same content.
    EXPECT_LE(*found, page);
    EXPECT_EQ(cp.SeedAt(*found), cp.SeedAt(page));
  }
}

TEST(ChecksumIndex, MissingDigestReturnsNullopt) {
  auto memory = MakeMemory();
  const auto cp = Checkpoint::CaptureFrom(memory);
  const DigestMap index = cp.Index(kSeedMode, DigestAlgorithm::kMd5);
  EXPECT_EQ(index.Find(Digest128::FromWords(0xdead, 0xbeef)), nullptr);
}

TEST(ChecksumIndex, DistinctCountCollapsesDuplicates) {
  vm::GuestMemory memory(MiB(1), vm::ContentMode::kSeedOnly);
  for (vm::PageId p = 0; p < memory.PageCount(); ++p) {
    memory.WritePage(p, p % 10);  // 10 distinct contents
  }
  const auto cp = Checkpoint::CaptureFrom(memory);
  const DigestMap index = cp.Index(kSeedMode, DigestAlgorithm::kMd5);
  EXPECT_EQ(index.Size(), 10u);
  EXPECT_EQ(index.Keys().size(), 10u);
  for (vm::PageId p = 0; p < 10; ++p) {
    EXPECT_EQ(*index.Find(cp.DigestAt(p, kSeedMode, DigestAlgorithm::kMd5)),
              p);
  }
}

TEST(ChecksumIndex, BulkExchangeSizeMatchesPaperExample) {
  // §3.2: a 4 GiB VM has 2^20 pages -> 16 MiB of MD5 checksums. Verify at
  // reduced scale: 4 MiB VM, 1024 pages, all distinct -> 16 KiB.
  vm::GuestMemory memory(MiB(4), vm::ContentMode::kSeedOnly);
  for (vm::PageId p = 0; p < memory.PageCount(); ++p) {
    memory.WritePage(p, p + 1000);
  }
  const auto cp = Checkpoint::CaptureFrom(memory);
  net::Message bulk;
  bulk.type = net::MessageType::kBulkHashes;
  bulk.bulk_hashes = cp.Index(kSeedMode, DigestAlgorithm::kMd5).Keys();
  EXPECT_EQ(bulk.WireSize(DigestAlgorithm::kMd5) -
                Bytes{net::kControlFrameBytes},
            KiB(16));
}

TEST(ChecksumIndex, LowestPageMatchesFirstWinsModel) {
  // Property: on random, heavily duplicated images carrying a damage
  // overlay, the index maps every stored digest to the lowest page whose
  // stored content has it — the offset lower_bound over a sorted
  // (digest, page) list returns — and holds nothing else.
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    SplitMix64 rng(0x1d3e + trial);
    const std::uint64_t pool = 1 + rng.Next() % 24;
    vm::GuestMemory memory(Pages(1 + rng.Next() % 700), kSeedMode);
    for (vm::PageId p = 0; p < memory.PageCount(); ++p) {
      memory.WritePage(p, rng.Next() % pool);  // seed 0 is the zero page
    }
    auto cp = Checkpoint::CaptureFrom(memory);
    for (vm::PageId p = 0; p < cp.PageCount(); ++p) {
      // ~1 page in 8 rots, to pool content or to content seen nowhere.
      if (rng.Next() % 8 == 0) {
        cp.CorruptPageForTesting(
            p, rng.Next() % 2 == 0 ? rng.Next() % pool : rng.Next() | 1);
      }
    }
    for (const auto algorithm :
         {DigestAlgorithm::kMd5, DigestAlgorithm::kFnv1a}) {
      std::map<Digest128, vm::PageId> model;
      for (vm::PageId p = 0; p < cp.PageCount(); ++p) {
        model.emplace(cp.DigestAt(p, kSeedMode, algorithm), p);
      }
      const DigestMap index = cp.Index(kSeedMode, algorithm);
      ASSERT_EQ(index.Size(), model.size()) << "trial " << trial;
      for (const auto& [digest, page] : model) {
        const std::uint64_t* found = index.Find(digest);
        ASSERT_NE(found, nullptr) << "trial " << trial;
        EXPECT_EQ(*found, page) << "trial " << trial;
      }
    }
  }
}

// --- Checkpoint store. ---

TEST(CheckpointStore, SaveChargesSequentialWrite) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  CheckpointStore store(disk);
  auto memory = MakeMemory(MiB(110));
  const SimTime done =
      store.Save("vm", Checkpoint::CaptureFrom(memory), kSimEpoch);
  EXPECT_NEAR(ToSeconds(done), 1.0, 0.05);  // 110 MiB at 110 MiB/s
  EXPECT_TRUE(store.Has("vm"));
  EXPECT_EQ(disk.WrittenBytes(), MiB(110));
}

TEST(CheckpointStore, LoadChargesSequentialRead) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  CheckpointStore store(disk);
  auto memory = MakeMemory(MiB(120));
  store.Save("vm", Checkpoint::CaptureFrom(memory), kSimEpoch);
  // The save occupied the disk until ~1.1 s; loading at t=10 s is past it,
  // so the scan takes exactly 120 MiB / 120 MiB/s = 1 s.
  const auto load = store.Load("vm", Seconds(10.0));
  ASSERT_NE(load.checkpoint, nullptr);
  EXPECT_NEAR(ToSeconds(load.ready_at), 11.0, 0.05);
}

TEST(CheckpointStore, LoadMissingVmThrows) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  CheckpointStore store(disk);
  EXPECT_THROW(store.Load("ghost", kSimEpoch), CheckFailure);
}

TEST(CheckpointStore, SaveReplacesPrevious) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  CheckpointStore store(disk);
  auto memory = MakeMemory();
  store.Save("vm", Checkpoint::CaptureFrom(memory), kSimEpoch);
  memory.WritePage(0, 777);
  store.Save("vm", Checkpoint::CaptureFrom(memory), kSimEpoch);
  EXPECT_EQ(store.Size(), 1u);
  EXPECT_EQ(store.Peek("vm")->SeedAt(0), 777u);
}

TEST(CheckpointStore, FootprintSumsImages) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  CheckpointStore store(disk);
  store.Save("a", Checkpoint::CaptureFrom(MakeMemory(MiB(4))), kSimEpoch);
  store.Save("b", Checkpoint::CaptureFrom(MakeMemory(MiB(8))), kSimEpoch);
  EXPECT_EQ(store.FootprintOnDisk(), MiB(12));
  store.Drop("a");
  EXPECT_EQ(store.FootprintOnDisk(), MiB(8));
}

// --- Retention policy. ---

TEST(Retention, QuotaEvictsLeastRecentlyUsed) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  RetentionPolicy policy;
  policy.disk_quota = MiB(10);
  CheckpointStore store(disk, policy);

  store.Save("a", Checkpoint::CaptureFrom(MakeMemory(MiB(4))), Seconds(0));
  store.Save("b", Checkpoint::CaptureFrom(MakeMemory(MiB(4))), Seconds(1));
  // Touch "a" so "b" becomes the LRU entry.
  store.Load("a", Seconds(10));
  // A third 4 MiB checkpoint exceeds the 10 MiB quota: "b" must go.
  store.Save("c", Checkpoint::CaptureFrom(MakeMemory(MiB(4))), Seconds(20));

  EXPECT_TRUE(store.Has("a"));
  EXPECT_FALSE(store.Has("b"));
  EXPECT_TRUE(store.Has("c"));
  EXPECT_EQ(store.Evictions(), 1u);
  EXPECT_LE(store.FootprintOnDisk().count, MiB(10).count);
}

TEST(Retention, CountCapEvicts) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  RetentionPolicy policy;
  policy.max_checkpoints = 2;
  CheckpointStore store(disk, policy);
  store.Save("a", Checkpoint::CaptureFrom(MakeMemory()), Seconds(0));
  store.Save("b", Checkpoint::CaptureFrom(MakeMemory()), Seconds(1));
  store.Save("c", Checkpoint::CaptureFrom(MakeMemory()), Seconds(2));
  EXPECT_EQ(store.Size(), 2u);
  EXPECT_FALSE(store.Has("a"));  // oldest evicted
}

TEST(Retention, ReplacingOwnCheckpointNeedsNoEviction) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  RetentionPolicy policy;
  policy.disk_quota = MiB(4);
  CheckpointStore store(disk, policy);
  store.Save("a", Checkpoint::CaptureFrom(MakeMemory(MiB(4))), Seconds(0));
  store.Save("a", Checkpoint::CaptureFrom(MakeMemory(MiB(4))), Seconds(1));
  EXPECT_TRUE(store.Has("a"));
  EXPECT_EQ(store.Evictions(), 0u);
}

TEST(Retention, OversizedCheckpointIsDiscarded) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  RetentionPolicy policy;
  policy.disk_quota = MiB(2);
  CheckpointStore store(disk, policy);
  store.Save("big", Checkpoint::CaptureFrom(MakeMemory(MiB(4))),
             Seconds(0));
  EXPECT_FALSE(store.Has("big"));
  EXPECT_EQ(store.Evictions(), 1u);
}

/// A store under a tight quota with interleaved saves and recency
/// touches, as a ReplayCheck scenario. Victim selection iterates the
/// hash-keyed checkpoint map; it must follow the documented strict
/// (last_used, VmId) total order, never the hash table's bucket order.
/// The fingerprint folds in the eviction count, the survivor set, and
/// the final footprint, so a victim chosen differently in either run —
/// or between this pinned expectation and a future refactor — diverges.
std::uint64_t EvictionStormScenario(audit::SimAuditor& auditor) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  RetentionPolicy policy;
  policy.disk_quota = MiB(12);
  CheckpointStore store(disk, policy);
  store.SetAuditor(&auditor);
  SimTime at = kSimEpoch;
  for (int round = 0; round < 3; ++round) {
    for (const char* vm : {"a", "b", "c", "d", "e"}) {
      at = store.Save(vm, Checkpoint::CaptureFrom(MakeMemory(MiB(4))), at);
      // Refresh an older entry's recency between saves so the LRU order
      // keeps churning while evictions fire.
      if (vm[0] != 'a' && store.Has("a")) {
        at = store.Load("a", at).ready_at;
      }
    }
  }
  std::uint64_t fp = store.Evictions();
  for (const char* vm : {"a", "b", "c", "d", "e"}) {
    fp = fp * 1099511628211ull ^
         (store.Has(vm) ? 0x9e3779b9ull : 0x7f4a7c15ull);
  }
  return fp * 1099511628211ull ^ store.FootprintOnDisk().count;
}

TEST(RetentionDeterminism, EvictionStormReplaysBitForBit) {
  EXPECT_NO_THROW(audit::ReplayCheck::Verify(EvictionStormScenario));
}

TEST(Retention, UnlimitedByDefault) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  CheckpointStore store(disk);
  for (int i = 0; i < 16; ++i) {
    store.Save("vm" + std::to_string(i),
               Checkpoint::CaptureFrom(MakeMemory()), Seconds(i));
  }
  EXPECT_EQ(store.Size(), 16u);
  EXPECT_EQ(store.Evictions(), 0u);
}

TEST(CheckpointStore, ReadBlockIsRandomAccess) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  CheckpointStore store(disk);
  store.ReadBlock("vm", 0, kSimEpoch);
  EXPECT_EQ(disk.RandomReads(), 1u);
}

}  // namespace
}  // namespace vecycle::storage
