// Concurrent migrations through the MigrationSession API: multiple
// transfers share links and host CPUs batch-by-batch, reproducing the
// contention §4.4 alludes to ("the migration traffic competes with other
// network users").
#include <gtest/gtest.h>

#include <unordered_map>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "migration/engine.hpp"
#include "storage/checkpoint.hpp"

namespace vecycle::migration {
namespace {

struct SharedWorld {
  sim::Simulator simulator;
  sim::Link link{sim::LinkConfig::Lan()};
  sim::ChecksumEngine cpu_a{sim::ChecksumEngineConfig{}};
  sim::ChecksumEngine cpu_b{sim::ChecksumEngineConfig{}};
  sim::Disk disk_a{sim::DiskConfig::Hdd()};
  sim::Disk disk_b{sim::DiskConfig::Hdd()};
  storage::CheckpointStore store_a{disk_a};
  storage::CheckpointStore store_b{disk_b};

  MigrationRun MakeRun(vm::GuestMemory& memory, const std::string& vm_id,
                       sim::Direction direction) {
    MigrationRun run;
    run.simulator = &simulator;
    run.link = &link;
    run.direction = direction;
    run.source_memory = &memory;
    if (direction == sim::Direction::kAtoB) {
      run.source = {&cpu_a, &store_a};
      run.destination = {&cpu_b, &store_b};
    } else {
      run.source = {&cpu_b, &store_b};
      run.destination = {&cpu_a, &store_a};
    }
    run.vm_id = vm_id;
    run.config.strategy = Strategy::kFull;
    return run;
  }
};

vm::GuestMemory FilledMemory(Bytes ram, std::uint64_t seed) {
  vm::GuestMemory memory(ram, vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(seed);
  for (vm::PageId p = 0; p < memory.PageCount(); ++p) {
    memory.WritePage(p, rng.Next() | (1ull << 62));
  }
  return memory;
}

double SoloSeconds(Bytes ram) {
  SharedWorld world;
  auto memory = FilledMemory(ram, 1);
  auto outcome =
      RunMigration(world.MakeRun(memory, "solo", sim::Direction::kAtoB));
  return ToSeconds(outcome.stats.total_time);
}

TEST(Concurrency, TwoMigrationsShareTheLink) {
  const double solo = SoloSeconds(MiB(64));

  SharedWorld world;
  auto mem1 = FilledMemory(MiB(64), 1);
  auto mem2 = FilledMemory(MiB(64), 2);
  MigrationSession s1(world.MakeRun(mem1, "vm1", sim::Direction::kAtoB));
  s1.Start();
  MigrationSession s2(world.MakeRun(mem2, "vm2", sim::Direction::kAtoB));
  s2.Start();
  world.simulator.Run();
  ASSERT_TRUE(s1.Completed());
  ASSERT_TRUE(s2.Completed());
  auto o1 = s1.TakeOutcome();
  auto o2 = s2.TakeOutcome();

  EXPECT_TRUE(o1.dest_memory->ContentEquals(mem1));
  EXPECT_TRUE(o2.dest_memory->ContentEquals(mem2));
  // Sharing one link roughly doubles each migration's time.
  EXPECT_GT(ToSeconds(o1.stats.total_time), 1.5 * solo);
  EXPECT_GT(ToSeconds(o2.stats.total_time), 1.5 * solo);
}

TEST(Concurrency, SharingIsFair) {
  SharedWorld world;
  auto mem1 = FilledMemory(MiB(64), 3);
  auto mem2 = FilledMemory(MiB(64), 4);
  MigrationSession s1(world.MakeRun(mem1, "vm1", sim::Direction::kAtoB));
  s1.Start();
  MigrationSession s2(world.MakeRun(mem2, "vm2", sim::Direction::kAtoB));
  s2.Start();
  world.simulator.Run();
  const auto t1 = ToSeconds(s1.TakeOutcome().stats.total_time);
  const auto t2 = ToSeconds(s2.TakeOutcome().stats.total_time);
  // Batch-granular interleaving: neither migration starves.
  EXPECT_LT(std::abs(t1 - t2) / std::max(t1, t2), 0.25);
}

TEST(Concurrency, OppositeDirectionsDoNotContend) {
  const double solo = SoloSeconds(MiB(64));

  SharedWorld world;
  auto mem1 = FilledMemory(MiB(64), 5);
  auto mem2 = FilledMemory(MiB(64), 6);
  MigrationSession s1(world.MakeRun(mem1, "vm1", sim::Direction::kAtoB));
  s1.Start();
  MigrationSession s2(world.MakeRun(mem2, "vm2", sim::Direction::kBtoA));
  s2.Start();
  world.simulator.Run();
  const auto t1 = ToSeconds(s1.TakeOutcome().stats.total_time);
  const auto t2 = ToSeconds(s2.TakeOutcome().stats.total_time);
  // Full duplex: each direction has its own capacity. Only the small
  // reverse-direction acks overlap, so times stay near solo.
  EXPECT_LT(t1, 1.2 * solo);
  EXPECT_LT(t2, 1.2 * solo);
}

TEST(Concurrency, FourWayPileUpStillCompletesCorrectly) {
  SharedWorld world;
  std::vector<vm::GuestMemory> memories;
  for (std::uint64_t i = 0; i < 4; ++i) {
    memories.push_back(FilledMemory(MiB(16), 10 + i));
  }
  std::vector<std::unique_ptr<MigrationSession>> sessions;
  for (std::size_t i = 0; i < memories.size(); ++i) {
    sessions.push_back(std::make_unique<MigrationSession>(world.MakeRun(
        memories[i], "vm" + std::to_string(i),
        i % 2 == 0 ? sim::Direction::kAtoB : sim::Direction::kBtoA)));
    sessions.back()->Start();
  }
  world.simulator.Run();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    ASSERT_TRUE(sessions[i]->Completed()) << i;
    auto outcome = sessions[i]->TakeOutcome();
    EXPECT_TRUE(outcome.dest_memory->ContentEquals(memories[i])) << i;
  }
}

TEST(Concurrency, TakeOutcomeBeforeCompletionThrows) {
  SharedWorld world;
  auto memory = FilledMemory(MiB(16), 20);
  MigrationSession session(
      world.MakeRun(memory, "vm", sim::Direction::kAtoB));
  session.Start();
  EXPECT_FALSE(session.Completed());
  EXPECT_THROW(session.TakeOutcome(), CheckFailure);
  world.simulator.Run();
  (void)session.TakeOutcome();
}

TEST(Concurrency, TakeOutcomeTwiceThrows) {
  SharedWorld world;
  auto memory = FilledMemory(MiB(16), 21);
  MigrationSession session(
      world.MakeRun(memory, "vm", sim::Direction::kAtoB));
  session.Start();
  world.simulator.Run();
  (void)session.TakeOutcome();
  EXPECT_THROW(session.TakeOutcome(), CheckFailure);
}

// --- Gang migration with a shared cross-VM dedup cache (VMFlock [4]). ---

TEST(GangDedup, SharedCacheCollapsesCrossVmDuplicates) {
  // Two VMs built from the same "OS image": 75% of pages drawn from one
  // shared pool, the rest unique per VM.
  auto make_memory = [](std::uint64_t unique_seed) {
    vm::GuestMemory memory(MiB(16), vm::ContentMode::kSeedOnly);
    Xoshiro256 pool_rng(0x05);  // same pool for both VMs
    Xoshiro256 own_rng(unique_seed);
    for (vm::PageId p = 0; p < memory.PageCount(); ++p) {
      if (p % 4 != 0) {
        memory.WritePage(p, 1'000'000 + pool_rng.NextBelow(100'000));
      } else {
        memory.WritePage(p, own_rng.Next() | (1ull << 62));
      }
    }
    return memory;
  };

  auto run_gang = [&](bool shared) {
    SharedWorld world;
    auto mem1 = make_memory(41);
    auto mem2 = make_memory(42);
    std::unordered_map<std::uint64_t, std::uint64_t> gang_cache;

    auto run1 = world.MakeRun(mem1, "vm1", sim::Direction::kAtoB);
    auto run2 = world.MakeRun(mem2, "vm2", sim::Direction::kAtoB);
    run1.config.strategy = Strategy::kDedup;
    run2.config.strategy = Strategy::kDedup;
    if (shared) {
      run1.shared_dedup_cache = &gang_cache;
      run2.shared_dedup_cache = &gang_cache;
    }
    MigrationSession s1(std::move(run1));
    s1.Start();
    MigrationSession s2(std::move(run2));
    s2.Start();
    world.simulator.Run();
    auto o1 = s1.TakeOutcome();
    auto o2 = s2.TakeOutcome();
    EXPECT_TRUE(o1.dest_memory->ContentEquals(mem1));
    EXPECT_TRUE(o2.dest_memory->ContentEquals(mem2));
    return o1.stats.tx_bytes + o2.stats.tx_bytes;
  };

  const auto separate = run_gang(false);
  const auto gang = run_gang(true);
  // The shared pool's pages cross the wire once instead of twice: the
  // gang ships meaningfully less in total.
  EXPECT_LT(gang.count, separate.count * 9 / 10);
}

TEST(GangDedup, PrivateCachesAreIndependent) {
  // Without sharing, identical content in two VMs is sent by both.
  SharedWorld world;
  vm::GuestMemory mem1(MiB(4), vm::ContentMode::kSeedOnly);
  vm::GuestMemory mem2(MiB(4), vm::ContentMode::kSeedOnly);
  for (vm::PageId p = 0; p < mem1.PageCount(); ++p) {
    mem1.WritePage(p, 77);  // one content, everywhere
    mem2.WritePage(p, 77);
  }
  auto run1 = world.MakeRun(mem1, "vm1", sim::Direction::kAtoB);
  auto run2 = world.MakeRun(mem2, "vm2", sim::Direction::kAtoB);
  run1.config.strategy = Strategy::kDedup;
  run2.config.strategy = Strategy::kDedup;
  MigrationSession s1(std::move(run1));
  s1.Start();
  MigrationSession s2(std::move(run2));
  s2.Start();
  world.simulator.Run();
  const auto o1 = s1.TakeOutcome();
  const auto o2 = s2.TakeOutcome();
  // Each VM sends the content once itself.
  EXPECT_EQ(o1.stats.pages_sent_full, 1u);
  EXPECT_EQ(o2.stats.pages_sent_full, 1u);
}

TEST(Concurrency, ConcurrentVeCycleAndBaselineShareSourceCpu) {
  // A VeCycle migration (checksum-bound) and a plain one sharing the same
  // source host: the checksum work and the transfers serialize on their
  // respective shared resources, and both still complete correctly.
  SharedWorld world;
  auto mem1 = FilledMemory(MiB(32), 30);
  auto mem2 = FilledMemory(MiB(32), 31);

  // Give vm1 a checkpoint + knowledge at the destination so it takes the
  // checksum path.
  world.store_b.Save("vm1", storage::Checkpoint::CaptureFrom(mem1),
                     kSimEpoch);
  std::vector<Digest128> knowledge;
  for (vm::PageId p = 0; p < mem1.PageCount(); ++p) {
    knowledge.push_back(mem1.PageDigest(p));
  }

  auto run1 = world.MakeRun(mem1, "vm1", sim::Direction::kAtoB);
  run1.config.strategy = Strategy::kHashes;
  run1.source_knowledge = std::make_shared<const DigestMap>(knowledge);
  MigrationSession s1(std::move(run1));
  s1.Start();
  MigrationSession s2(world.MakeRun(mem2, "vm2", sim::Direction::kAtoB));
  s2.Start();
  world.simulator.Run();

  EXPECT_TRUE(s1.TakeOutcome().dest_memory->ContentEquals(mem1));
  EXPECT_TRUE(s2.TakeOutcome().dest_memory->ContentEquals(mem2));
}

}  // namespace
}  // namespace vecycle::migration
