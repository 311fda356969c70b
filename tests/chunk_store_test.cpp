// Content-addressed chunk store: the DigestMap index primitive, chunk
// identity, refcount conservation, deterministic GC, and the chunked
// CheckpointStore backend's core properties — (a) a reconstructed image
// is digest-identical to what was saved, (b) GC never frees a chunk
// reachable from a live manifest, (c) refcounts return to zero once every
// manifest is gone. The properties are then swept under the PDES
// worker-count determinism contract with checkpoint bit-rot injected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "audit/replay.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/scheduler.hpp"
#include "core/vm_instance.hpp"
#include "digest/digest_map.hpp"
#include "fault/fault.hpp"
#include "sim/disk.hpp"
#include "sim/sharded.hpp"
#include "storage/checkpoint.hpp"
#include "storage/checkpoint_store.hpp"
#include "storage/chunk_store.hpp"
#include "vm/guest_memory.hpp"

namespace vecycle::storage {
namespace {

// --- DigestMap ---------------------------------------------------------

Digest128 TestDigest(std::uint64_t i) {
  // Route through ChunkDigest so both words are populated exactly the way
  // the store's real keys are.
  return ChunkDigest(std::span<const std::uint64_t>(&i, 1));
}

TEST(DigestMap, InsertFindEraseRoundTrip) {
  DigestMap map;
  EXPECT_TRUE(map.Empty());
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(map.Insert(TestDigest(i), i * 7));
  }
  EXPECT_EQ(map.Size(), 1000u);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t* value = map.Find(TestDigest(i));
    ASSERT_NE(value, nullptr) << i;
    EXPECT_EQ(*value, i * 7);
  }
  EXPECT_EQ(map.Find(TestDigest(5000)), nullptr);

  for (std::uint64_t i = 0; i < 1000; i += 3) {
    EXPECT_TRUE(map.Erase(TestDigest(i)));
  }
  EXPECT_FALSE(map.Erase(TestDigest(0)));  // already gone
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t* value = map.Find(TestDigest(i));
    if (i % 3 == 0) {
      EXPECT_EQ(value, nullptr) << i;
    } else {
      ASSERT_NE(value, nullptr) << i;
      EXPECT_EQ(*value, i * 7);
    }
  }
}

TEST(DigestMap, DuplicateInsertKeepsFirstValue) {
  DigestMap map;
  EXPECT_TRUE(map.Insert(TestDigest(1), 10));
  EXPECT_FALSE(map.Insert(TestDigest(1), 20));
  EXPECT_EQ(map.Size(), 1u);
  EXPECT_EQ(*map.Find(TestDigest(1)), 10u);
}

TEST(DigestMap, LoadFactorStaysAtMostHalf) {
  DigestMap map;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    map.Insert(TestDigest(i), i);
    EXPECT_GE(map.Capacity(), 2 * map.Size());
  }
}

TEST(DigestMap, ChurnMatchesReferenceModel) {
  // Backward-shift deletion is the part a tombstone-free table gets
  // wrong first: after heavy interleaved insert/erase churn every live
  // key must still be reachable through its probe chain.
  DigestMap map;
  std::map<std::uint64_t, std::uint64_t> model;
  SplitMix64 rng(42);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t key = rng.Next() % 512;
    if (rng.Next() % 3 == 0) {
      EXPECT_EQ(map.Erase(TestDigest(key)), model.erase(key) == 1) << step;
    } else {
      EXPECT_EQ(map.Insert(TestDigest(key), key),
                model.emplace(key, key).second)
          << step;
    }
  }
  EXPECT_EQ(map.Size(), model.size());
  for (std::uint64_t key = 0; key < 512; ++key) {
    const std::uint64_t* value = map.Find(TestDigest(key));
    if (model.contains(key)) {
      ASSERT_NE(value, nullptr) << key;
      EXPECT_EQ(*value, key);
    } else {
      EXPECT_EQ(value, nullptr) << key;
    }
  }
}

// --- Chunk identity ----------------------------------------------------

TEST(ChunkIdentity, DigestPopulatesBothWords) {
  // FnvDigest leaves the high word zero, which would collapse every
  // DigestMap slot hash; the chunk digest must fill both words.
  const auto digest = TestDigest(123);
  EXPECT_NE(digest.words[0], 0u);
  EXPECT_NE(digest.words[1], 0u);
}

TEST(ChunkIdentity, DigestIsAFunctionOfContentAndOrder) {
  const std::vector<std::uint64_t> a = {1, 2, 3};
  const std::vector<std::uint64_t> b = {3, 2, 1};
  const std::vector<std::uint64_t> c = {1, 2};
  EXPECT_EQ(ChunkDigest(a), ChunkDigest(a));
  EXPECT_NE(ChunkDigest(a), ChunkDigest(b));
  EXPECT_NE(ChunkDigest(a), ChunkDigest(c));
}

TEST(ChunkIdentity, ContentKeyMatchesSinglePageChunkDigest) {
  const std::uint64_t seed = 0xfeedface;
  EXPECT_EQ(ChunkContentKey(seed),
            ChunkDigest(std::span<const std::uint64_t>(&seed, 1)).words[1]);
  EXPECT_NE(ChunkContentKey(1), ChunkContentKey(2));
}

// --- ChunkStore --------------------------------------------------------

std::vector<std::uint64_t> SeedRun(std::uint64_t tag, std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  SplitMix64 rng(tag);
  for (auto& seed : seeds) seed = rng.Next();
  return seeds;
}

TEST(ChunkStore, PinDedupsIdenticalContent) {
  ChunkStore store;
  const auto seeds = SeedRun(1, 4);
  const auto digest = ChunkDigest(seeds);
  bool fresh = false;
  const std::uint64_t slot = store.Pin(digest, seeds, Seconds(1), &fresh);
  EXPECT_TRUE(fresh);  // needs a write
  EXPECT_EQ(store.Pin(digest, seeds, Seconds(2), &fresh), slot);
  EXPECT_FALSE(fresh);  // deduplicated
  EXPECT_EQ(store.ResidentChunks(), 1u);
  EXPECT_EQ(store.TotalRefcount(), 2u);
  EXPECT_EQ(store.Footprint(), Pages(4));
  EXPECT_EQ(store.ChunksWritten(), 1u);
  EXPECT_EQ(store.ChunksDeduped(), 1u);
  EXPECT_TRUE(store.Holds(digest));
  EXPECT_EQ(store.SeedsOf(slot), seeds);
  EXPECT_EQ(store.DigestOf(slot), digest);
}

TEST(ChunkStore, SweepNeverFreesAReferencedChunk) {
  ChunkStore store;
  const auto pinned = SeedRun(1, 4);
  const auto loose = SeedRun(2, 4);
  const auto pinned_slot = store.Pin(ChunkDigest(pinned), pinned, Seconds(1));
  store.Unpin(store.Pin(ChunkDigest(loose), loose, Seconds(2)));
  const auto freed = store.SweepUntil(Bytes{0});
  EXPECT_EQ(freed, std::vector<Digest128>{ChunkDigest(loose)});
  EXPECT_EQ(store.SeedsOf(pinned_slot), pinned);
  EXPECT_TRUE(store.Holds(ChunkDigest(pinned)));
  EXPECT_FALSE(store.Holds(ChunkDigest(loose)));
  EXPECT_EQ(store.Footprint(), Pages(4));
  EXPECT_EQ(store.GcFreed(), 1u);
}

TEST(ChunkStore, SweepOrderIsLastUsedThenDigest) {
  ChunkStore store;
  const auto a = SeedRun(10, 2);
  const auto b = SeedRun(11, 2);
  const auto c = SeedRun(12, 2);
  const auto slot_a = store.Pin(ChunkDigest(a), a, Seconds(3));
  store.Unpin(store.Pin(ChunkDigest(b), b, Seconds(1)));
  store.Unpin(store.Pin(ChunkDigest(c), c, Seconds(2)));
  store.Unpin(slot_a);
  // Stop after freeing two chunks: the LRU pair (b then c) goes, a stays.
  const auto freed = store.SweepUntil(Pages(2));
  ASSERT_EQ(freed.size(), 2u);
  EXPECT_EQ(freed[0], ChunkDigest(b));
  EXPECT_EQ(freed[1], ChunkDigest(c));
  EXPECT_TRUE(store.Holds(ChunkDigest(a)));

  // Touch refreshes recency: re-pin b and c, unpin, touch b — now c is
  // the older of the two and goes first. Re-pin a so the survivor of the
  // first sweep is referenced and off the candidate list.
  store.Pin(ChunkDigest(a), a, Seconds(4));
  const auto slot_b = store.Pin(ChunkDigest(b), b, Seconds(4));
  store.Unpin(slot_b);
  store.Unpin(store.Pin(ChunkDigest(c), c, Seconds(5)));
  store.Touch(slot_b, Seconds(9));
  const auto freed2 = store.SweepUntil(Pages(4));
  ASSERT_EQ(freed2.size(), 1u);
  EXPECT_EQ(freed2[0], ChunkDigest(c));
}

TEST(ChunkStore, UnpinWithoutPinThrows) {
  ChunkStore store;
  const auto seeds = SeedRun(1, 2);
  EXPECT_THROW(store.Unpin(0), CheckFailure);
  const auto slot = store.Pin(ChunkDigest(seeds), seeds, Seconds(1));
  store.Unpin(slot);
  EXPECT_THROW(store.Unpin(slot), CheckFailure);
}

TEST(ChunkStore, RepinningKnownContentReturnsTheSameSlot) {
  ChunkStore store;
  const auto a = SeedRun(20, 4);
  const auto b = SeedRun(21, 4);
  const auto slot_a = store.Pin(ChunkDigest(a), a, Seconds(1));
  const auto slot_b = store.Pin(ChunkDigest(b), b, Seconds(1));
  EXPECT_NE(slot_a, slot_b);
  EXPECT_EQ(store.Pin(ChunkDigest(a), a, Seconds(2)), slot_a);
  EXPECT_EQ(store.Pin(ChunkDigest(b), b, Seconds(2)), slot_b);
  // Unpinned to zero but not yet swept: still the same chunk.
  for (int i = 0; i < 2; ++i) store.Unpin(slot_a);
  EXPECT_EQ(store.Pin(ChunkDigest(a), a, Seconds(3)), slot_a);
  EXPECT_EQ(store.ResidentChunks(), 2u);
}

TEST(ChunkStore, DeadSlotsAreRejected) {
  ChunkStore store;
  const auto seeds = SeedRun(30, 2);
  // Never pinned: slot 0 does not exist yet.
  EXPECT_THROW(store.Unpin(0), CheckFailure);
  EXPECT_THROW(store.Touch(0, Seconds(1)), CheckFailure);
  EXPECT_THROW((void)store.SeedsOf(0), CheckFailure);
  EXPECT_THROW((void)store.DigestOf(0), CheckFailure);
  // Freed by a sweep: the slot is still in the arena, but dead.
  const auto slot = store.Pin(ChunkDigest(seeds), seeds, Seconds(1));
  store.Unpin(slot);
  ASSERT_EQ(store.SweepUntil(Bytes{0}).size(), 1u);
  EXPECT_THROW(store.Unpin(slot), CheckFailure);
  EXPECT_THROW(store.Touch(slot, Seconds(2)), CheckFailure);
  EXPECT_THROW((void)store.SeedsOf(slot), CheckFailure);
  EXPECT_THROW((void)store.DigestOf(slot), CheckFailure);
}

TEST(ChunkStore, SweptSlotIsReusedByTheNextFreshPin) {
  ChunkStore store;
  const auto a = SeedRun(40, 2);
  const auto b = SeedRun(41, 2);
  const auto c = SeedRun(42, 2);
  const auto slot_a = store.Pin(ChunkDigest(a), a, Seconds(1));
  const auto slot_b = store.Pin(ChunkDigest(b), b, Seconds(1));
  store.Unpin(slot_a);
  ASSERT_EQ(store.SweepUntil(Bytes{0}).size(), 1u);
  // A dedup hit takes no slot; the next fresh chunk takes the freed one.
  EXPECT_EQ(store.Pin(ChunkDigest(b), b, Seconds(2)), slot_b);
  bool fresh = false;
  EXPECT_EQ(store.Pin(ChunkDigest(c), c, Seconds(2), &fresh), slot_a);
  EXPECT_TRUE(fresh);
  EXPECT_EQ(store.SeedsOf(slot_a), c);
  EXPECT_EQ(store.DigestOf(slot_a), ChunkDigest(c));
  EXPECT_FALSE(store.Holds(ChunkDigest(a)));
}

// --- Chunked CheckpointStore properties --------------------------------

vm::GuestMemory MakeMemory(std::uint64_t rng_seed, Bytes ram = MiB(1)) {
  vm::GuestMemory memory(ram, vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(rng_seed);
  vm::MemoryProfile{}.Apply(memory, rng);
  return memory;
}

StoreConfig ChunkedConfig(std::uint64_t chunk_pages = 4,
                          Bytes ssd_capacity = Bytes{0}) {
  StoreConfig config;
  config.chunking = true;
  config.chunk_pages = chunk_pages;
  config.tier.ssd_capacity = ssd_capacity;
  return config;
}

TEST(ChunkedStore, ReconstructedImageIsDigestIdenticalToSaved) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  CheckpointStore store(disk, RetentionPolicy{}, ChunkedConfig());
  const auto memory = MakeMemory(7);
  const auto saved = Checkpoint::CaptureFrom(memory);
  store.Save("vm", saved, kSimEpoch);

  ASSERT_TRUE(store.Has("vm"));
  EXPECT_EQ(store.Peek("vm")->Seeds(), saved.Seeds());
  EXPECT_EQ(store.Peek("vm")->Generations(), saved.Generations());
  EXPECT_TRUE(store.Peek("vm")->IntegrityOk());
  // The manifest-resolved baseline is the exact page-seed sequence saved.
  EXPECT_EQ(store.BaselineSeeds("vm"), saved.Seeds());
  EXPECT_EQ(store.DepartureGenerations("vm"), saved.Generations());

  const auto load = store.Load("vm", Seconds(10));
  ASSERT_NE(load.checkpoint, nullptr);
  EXPECT_EQ(load.checkpoint->Seeds(), saved.Seeds());
  EXPECT_EQ(load.checkpoint->Generations(), saved.Generations());
  EXPECT_TRUE(load.checkpoint->IntegrityOk());
}

TEST(ChunkedStore, PartialTailChunkRoundTrips) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  CheckpointStore store(disk, RetentionPolicy{}, ChunkedConfig(8));
  // 13 pages: one full chunk of 8 plus a 5-page tail.
  vm::GuestMemory memory(Pages(13), vm::ContentMode::kSeedOnly);
  for (vm::PageId p = 0; p < 13; ++p) memory.WritePage(p, 1000 + p);
  const auto saved = Checkpoint::CaptureFrom(memory);
  store.Save("vm", saved, kSimEpoch);
  EXPECT_EQ(store.BaselineSeeds("vm"), saved.Seeds());
  EXPECT_EQ(store.ResidentChunks(), 2u);
}

TEST(ChunkedStore, IncrementalSaveWritesOnlyAbsentChunks) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  CheckpointStore store(disk, RetentionPolicy{}, ChunkedConfig());
  auto memory = MakeMemory(7);
  store.Save("vm", Checkpoint::CaptureFrom(memory), kSimEpoch);
  const Bytes first = disk.WrittenBytes();
  EXPECT_GE(first, MiB(1));  // a cold save writes the full image

  // Dirty one page and save again: only the chunk holding it (plus
  // manifest metadata) hits the disk.
  memory.WritePage(3, 0xABCDEF);
  store.Save("vm", Checkpoint::CaptureFrom(memory), Seconds(100));
  const Bytes second = disk.WrittenBytes() - first;
  EXPECT_LT(second.count, MiB(1).count / 2);
  EXPECT_GE(second, Pages(4));  // the rewritten chunk itself
  EXPECT_GT(store.ChunksDeduped(), 0u);

  // An identical twin VM saves almost nothing: every chunk dedups.
  const Bytes before_twin = disk.WrittenBytes();
  store.Save("twin", Checkpoint::CaptureFrom(memory), Seconds(200));
  EXPECT_LT((disk.WrittenBytes() - before_twin).count, Pages(4).count);
  EXPECT_EQ(store.BaselineSeeds("twin"), store.BaselineSeeds("vm"));

  // Shared chunks are stored once: two live manifests, one image's worth
  // of chunks on disk.
  EXPECT_LT(store.FootprintOnDisk().count, (MiB(1) + Pages(8)).count);
}

TEST(ChunkedStore, GcNeverFreesAChunkReachableFromALiveManifest) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  RetentionPolicy policy;
  policy.disk_quota = MiB(2);
  CheckpointStore store(disk, policy, ChunkedConfig());
  std::map<std::string, std::vector<std::uint64_t>> saved;
  SimTime at = kSimEpoch;
  for (int round = 0; round < 3; ++round) {
    for (const char* vm : {"a", "b", "c", "d"}) {
      auto memory = MakeMemory(0x5eed + vm[0] + round);
      const auto cp = Checkpoint::CaptureFrom(memory);
      saved[vm] = cp.Seeds();
      at = store.Save(vm, cp, at);
      // Every live manifest must still resolve its exact image, no
      // matter what the quota sweeps freed between saves.
      for (const auto& [id, seeds] : saved) {
        if (!store.Has(id)) continue;
        EXPECT_EQ(store.BaselineSeeds(id), seeds) << id << " round " << round;
      }
    }
  }
  EXPECT_GT(store.Evictions(), 0u);
  EXPECT_GT(store.GcFreedChunks(), 0u);
  EXPECT_LE(store.FootprintOnDisk().count, policy.disk_quota.count);
}

TEST(ChunkedStore, RefcountsReturnToZeroAfterAllManifestsDrop) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  CheckpointStore store(disk, RetentionPolicy{}, ChunkedConfig());
  // Three VMs, two of them identical twins (shared chunks at refcount 2).
  store.Save("a", Checkpoint::CaptureFrom(MakeMemory(1)), Seconds(1));
  store.Save("b", Checkpoint::CaptureFrom(MakeMemory(1)), Seconds(2));
  store.Save("c", Checkpoint::CaptureFrom(MakeMemory(3)), Seconds(3));
  EXPECT_GT(store.TotalChunkRefs(), 0u);
  EXPECT_GT(store.ChunksDeduped(), 0u);

  for (const char* vm : {"a", "b", "c"}) store.Drop(vm);
  EXPECT_EQ(store.TotalChunkRefs(), 0u);

  // Unreferenced chunks still occupy disk until GC actually runs.
  EXPECT_GT(store.FootprintOnDisk().count, 0u);
  const SimTime done = store.CollectGarbage(Seconds(10));
  EXPECT_GT(done, Seconds(10));  // the sweep's metadata writes took time
  EXPECT_EQ(store.ResidentChunks(), 0u);
  EXPECT_EQ(store.FootprintOnDisk(), Bytes{0});
  EXPECT_EQ(store.GcFreedChunks(), store.ChunksWritten());
}

TEST(ChunkedStore, RotAffectsServingCopyButNotBaseline) {
  fault::FaultConfig fault_config;
  fault_config.enabled = true;
  fault_config.seed = 5;
  fault_config.corrupt_probability = 1.0;
  fault_config.corrupt_pages = 4;
  fault::FaultInjector injector(fault_config);

  sim::Disk disk(sim::DiskConfig::Hdd());
  CheckpointStore store(disk, RetentionPolicy{}, ChunkedConfig());
  store.SetFaultInjector(&injector);
  const auto saved = Checkpoint::CaptureFrom(MakeMemory(9));
  store.Save("vm", saved, kSimEpoch);

  EXPECT_TRUE(store.WasCorrupted("vm"));
  EXPECT_FALSE(store.Peek("vm")->IntegrityOk());
  // The chunks hold the image as written; rot damaged the serving copy
  // only, so the delta baseline a return migration plans against is
  // pristine.
  EXPECT_EQ(store.BaselineSeeds("vm"), saved.Seeds());
}

TEST(ChunkedStore, SsdTierServesResidentChunksAndPromotesMisses) {
  sim::Disk disk(sim::DiskConfig::Hdd());
  // Cache holds a quarter of the image: saves make the last-written
  // chunks resident, so loads split between SSD and backing disk.
  CheckpointStore store(disk, RetentionPolicy{},
                        ChunkedConfig(4, KiB(256)));
  const auto saved = Checkpoint::CaptureFrom(MakeMemory(11));
  store.Save("vm", saved, kSimEpoch);
  (void)store.Load("vm", Seconds(10));
  EXPECT_GT(store.SsdHits(), 0u);
  EXPECT_GT(store.SsdMisses(), 0u);

  // A random block read of a non-resident chunk promotes it.
  const std::uint64_t before = store.SsdPromotions();
  bool read_error = false;
  for (std::uint64_t page = 0; page < saved.PageCount(); page += 4) {
    store.ReadBlock("vm", page, Seconds(20), &read_error);
    EXPECT_FALSE(read_error);
  }
  EXPECT_GT(store.SsdPromotions(), before);
}

TEST(ChunkedStore, FlatAndChunkedServeIdenticalContent) {
  sim::Disk flat_disk(sim::DiskConfig::Hdd());
  sim::Disk chunk_disk(sim::DiskConfig::Hdd());
  CheckpointStore flat(flat_disk);
  CheckpointStore chunked(chunk_disk, RetentionPolicy{}, ChunkedConfig());
  const auto saved = Checkpoint::CaptureFrom(MakeMemory(13));
  flat.Save("vm", saved, kSimEpoch);
  chunked.Save("vm", saved, kSimEpoch);
  EXPECT_EQ(flat.BaselineSeeds("vm"), chunked.BaselineSeeds("vm"));
  EXPECT_EQ(flat.DepartureGenerations("vm"),
            chunked.DepartureGenerations("vm"));
  EXPECT_EQ(flat.Peek("vm")->Seeds(), chunked.Peek("vm")->Seeds());
  EXPECT_EQ(flat.Peek("vm")->Generations(), chunked.Peek("vm")->Generations());
  EXPECT_EQ(flat.Peek("vm")->IntegrityOk(), chunked.Peek("vm")->IntegrityOk());
  EXPECT_EQ(flat.FootprintOnDisk(), chunked.FootprintOnDisk());
}

// --- Drop routes through the observer path -----------------------------

TEST(ChunkedStore, DropAndEvictionReportToAuditorAndTracer) {
  audit::SimAuditor auditor;
  obs::TraceRecorder tracer;
  sim::Disk disk(sim::DiskConfig::Hdd());
  CheckpointStore store(disk, RetentionPolicy{}, ChunkedConfig());
  store.SetAuditor(&auditor);
  store.SetTracer(&tracer, tracer.Track(tracer.NewProcess("host"), "store"));

  store.Save("vm", Checkpoint::CaptureFrom(MakeMemory(1)), kSimEpoch);
  const std::size_t events_before = tracer.EventCount();
  const std::uint64_t fp_before = auditor.Fingerprint();
  store.Drop("vm");
  EXPECT_EQ(auditor.Report().checkpoint_drops, 1u);
  EXPECT_NE(auditor.Fingerprint(), fp_before);
  EXPECT_GT(tracer.EventCount(), events_before);  // the drop instant
}

// --- PDES determinism sweep with bit-rot -------------------------------

std::string FleetHost(std::uint32_t site, std::uint32_t host) {
  return "s" + std::to_string(site) + "-h" + std::to_string(host);
}

/// A chunked-store fleet under the worker-count contract: `sites` shards
/// of paired hosts, every host's store running the content-addressed
/// backend with a small SSD tier and a quota tight enough to force GC,
/// plus a per-host fault injector rotting half the checkpoint saves. VMs
/// round-trip (out and back), so the return leg recycles manifests whose
/// serving copies may be rotten. The fingerprint folds the scheduler's
/// combined audit stream with every store's chunk counters in host-name
/// order; any worker-count dependence in pinning, GC sweeps or tier
/// residency diverges it.
std::uint64_t RunChunkedFleet(std::size_t workers, std::uint32_t sites) {
  sim::ShardedSimulator pdes(sites);
  core::Cluster cluster(pdes.Shard(0));
  sim::ShardPlan plan;
  core::HostConfig host_config;
  host_config.retention.disk_quota = MiB(3);
  host_config.store.chunking = true;
  host_config.store.chunk_pages = 2;
  host_config.store.tier.ssd_capacity = KiB(512);
  for (std::uint32_t site = 0; site < sites; ++site) {
    for (std::uint32_t host = 0; host < 2; ++host) {
      host_config.id = FleetHost(site, host);
      cluster.AddHost(host_config);
      plan.Assign(host_config.id, site);
    }
    cluster.Connect(FleetHost(site, 0), FleetHost(site, 1),
                    sim::LinkConfig::Lan());
  }

  // One injector per host store (a store lives on one shard, so no
  // cross-worker feeding): half of all checkpoint saves rot.
  fault::FaultConfig fault_config;
  fault_config.enabled = true;
  fault_config.corrupt_probability = 0.5;
  fault_config.corrupt_pages = 4;
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
  for (std::uint32_t site = 0; site < sites; ++site) {
    for (std::uint32_t host = 0; host < 2; ++host) {
      fault_config.seed = 0x20b + site * 2 + host;
      injectors.push_back(
          std::make_unique<fault::FaultInjector>(fault_config));
      cluster.GetHost(FleetHost(site, host))
          .Store()
          .SetFaultInjector(injectors.back().get());
    }
  }

  core::SchedulerConfig sconfig;
  sconfig.workers = workers;
  core::MigrationScheduler scheduler(cluster, pdes, plan, sconfig);

  migration::MigrationConfig config;
  config.strategy = migration::Strategy::kHashes;
  std::vector<std::unique_ptr<core::VmInstance>> fleet;
  for (std::uint32_t site = 0; site < sites; ++site) {
    for (std::uint64_t v = 0; v < 2; ++v) {
      fleet.push_back(std::make_unique<core::VmInstance>(
          "vm-" + std::to_string(site * 2 + v), MiB(1),
          vm::ContentMode::kSeedOnly));
      // Both VMs of a site share one content seed: identical images, so
      // their checkpoints dedup against each other in the host's store.
      Xoshiro256 rng(0xc0ffee + site);
      vm::MemoryProfile{}.Apply(fleet.back()->Memory(), rng);
      fleet.back()->SetCurrentHost(FleetHost(site, 0));
      scheduler.Submit(*fleet.back(), FleetHost(site, 1), config);
    }
  }
  const std::size_t out = scheduler.Drain();
  // Return leg: recycle the checkpoints the outbound leg wrote back.
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::uint32_t site = static_cast<std::uint32_t>(i / 2);
    scheduler.Submit(*fleet[i], FleetHost(site, 0), config);
  }
  const std::size_t back = scheduler.Drain();
  VEC_CHECK_MSG(out == fleet.size() && back == fleet.size(),
                "chunked fleet: not every VM migrated");

  std::uint64_t fp =
      SplitMix64(scheduler.CombinedFingerprint() ^ (out + back)).Next();
  for (std::uint32_t site = 0; site < sites; ++site) {
    for (std::uint32_t host = 0; host < 2; ++host) {
      const auto& store = cluster.GetHost(FleetHost(site, host)).Store();
      for (const std::uint64_t counter :
           {store.ChunksWritten(), store.ChunksDeduped(),
            store.GcFreedChunks(), store.ResidentChunks(),
            store.TotalChunkRefs(), store.SsdHits(), store.SsdMisses(),
            static_cast<std::uint64_t>(store.FootprintOnDisk().count)}) {
        fp = SplitMix64(fp ^ counter).Next();
      }
    }
  }
  return fp;
}

TEST(ChunkedPdesDeterminism, RotSweepReplaysAtOneFourEightWorkers) {
  audit::ReplayCheck::VerifyWorkers(
      [](std::size_t workers) { return RunChunkedFleet(workers, 4); },
      {1, 4, 8});
}

}  // namespace
}  // namespace vecycle::storage
