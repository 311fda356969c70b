// The top-level VeCycle API: cluster topology, VM deployment, and the
// orchestrated migrate/checkpoint/recycle cycle — including the paper's
// headline behaviour, the ping-pong pattern where return migrations get
// dramatically cheaper — and the return-leg knowledge BuildMigrationRun
// derives from the destination's checkpoint store.
#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/orchestrator.hpp"
#include "core/vm_instance.hpp"
#include "vm/workload.hpp"

namespace vecycle::core {
namespace {

struct World {
  sim::Simulator simulator;
  Cluster cluster{simulator};
  MigrationOrchestrator orchestrator{cluster};

  World() {
    cluster.AddHost({"A", sim::DiskConfig::Hdd(), {}, {}, {}});
    cluster.AddHost({"B", sim::DiskConfig::Hdd(), {}, {}, {}});
    cluster.Connect("A", "B", sim::LinkConfig::Lan());
  }
};

VmInstance MakeVm(Bytes ram = MiB(16), std::uint64_t seed = 1) {
  VmInstance vm("vm-1", ram, vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(seed);
  vm::MemoryProfile{}.Apply(vm.Memory(), rng);
  return vm;
}

migration::MigrationConfig VeCycleConfig() {
  migration::MigrationConfig config;
  config.strategy = migration::Strategy::kHashes;
  return config;
}

// --- Cluster topology. ---

TEST(Cluster, RejectsDuplicateHosts) {
  sim::Simulator simulator;
  Cluster cluster(simulator);
  cluster.AddHost({"A", {}, {}, {}, {}});
  EXPECT_THROW(cluster.AddHost({"A", {}, {}, {}, {}}), CheckFailure);
}

TEST(Cluster, HostsAreIndexedInAddHostOrder) {
  sim::Simulator simulator;
  Cluster cluster(simulator);
  // Deliberately not in id order: the index is the AddHost position.
  for (const char* id : {"h-c", "h-a", "h-b"}) {
    cluster.AddHost({id, {}, {}, {}, {}});
  }
  EXPECT_THROW(cluster.AddHost({"h-a", {}, {}, {}, {}}), CheckFailure);

  const std::vector<const Host*> hosts = cluster.Hosts();
  ASSERT_EQ(hosts.size(), 3u);
  ASSERT_EQ(cluster.HostCount(), 3u);
  const std::vector<std::string> order = {"h-c", "h-a", "h-b"};
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(hosts[i]->Id(), order[i]);
    EXPECT_EQ(cluster.IndexOf(order[i]), i);
    EXPECT_EQ(cluster.FindHost(order[i]), hosts[i]);
    EXPECT_EQ(&cluster.GetHost(order[i]), hosts[i]);
  }

  EXPECT_EQ(cluster.FindHost("h-d"), nullptr);
  EXPECT_THROW((void)cluster.GetHost("h-d"), CheckFailure);
  EXPECT_THROW((void)cluster.IndexOf("h-d"), CheckFailure);
  EXPECT_THROW(cluster.Connect("h-a", "h-d", sim::LinkConfig::Lan()),
               CheckFailure);
}

TEST(Cluster, RejectsSelfLink) {
  sim::Simulator simulator;
  Cluster cluster(simulator);
  cluster.AddHost({"A", {}, {}, {}, {}});
  EXPECT_THROW(cluster.Connect("A", "A", sim::LinkConfig::Lan()),
               CheckFailure);
}

TEST(Cluster, PathIsDirectionAware) {
  World world;
  const auto ab = world.cluster.PathBetween("A", "B");
  const auto ba = world.cluster.PathBetween("B", "A");
  EXPECT_EQ(ab.link, ba.link);
  EXPECT_NE(ab.direction == sim::Direction::kAtoB,
            ba.direction == sim::Direction::kAtoB);
}

TEST(Cluster, MissingLinkThrows) {
  sim::Simulator simulator;
  Cluster cluster(simulator);
  cluster.AddHost({"A", {}, {}, {}, {}});
  cluster.AddHost({"B", {}, {}, {}, {}});
  EXPECT_THROW((void)cluster.PathBetween("A", "B"), CheckFailure);
}

// --- Deployment and time. ---

TEST(Orchestrator, DeployPlacesVm) {
  World world;
  auto vm = MakeVm();
  world.orchestrator.Deploy(vm, "A");
  EXPECT_EQ(vm.CurrentHost(), "A");
  EXPECT_THROW(world.orchestrator.Deploy(vm, "B"), CheckFailure);
}

TEST(Orchestrator, RunForAdvancesClockAndWorkload) {
  World world;
  auto vm = MakeVm();
  vm.SetWorkload(std::make_unique<vm::UniformRandomWorkload>(10.0, 7));
  world.orchestrator.Deploy(vm, "A");
  world.orchestrator.RunFor(vm, Hours(1));
  EXPECT_EQ(world.simulator.Now(), Hours(1));
  EXPECT_EQ(vm.Memory().TotalWrites(),
            vm.Memory().PageCount() + 36000u);  // profile init + churn
}

TEST(Orchestrator, MigrateRequiresDeployment) {
  World world;
  auto vm = MakeVm();
  EXPECT_THROW(world.orchestrator.Migrate(vm, "B", VeCycleConfig()),
               CheckFailure);
}

TEST(Orchestrator, MigrateToCurrentHostThrows) {
  World world;
  auto vm = MakeVm();
  world.orchestrator.Deploy(vm, "A");
  EXPECT_THROW(world.orchestrator.Migrate(vm, "A", VeCycleConfig()),
               CheckFailure);
}

// --- The migrate/checkpoint/recycle cycle. ---

TEST(Orchestrator, MigrationMovesVmAndLeavesCheckpoint) {
  World world;
  auto vm = MakeVm();
  world.orchestrator.Deploy(vm, "A");
  const auto before = vm.Memory().Generations();

  const auto stats = world.orchestrator.Migrate(vm, "B", VeCycleConfig());

  EXPECT_EQ(vm.CurrentHost(), "B");
  EXPECT_GT(stats.tx_bytes.count, 0u);
  // The source kept a checkpoint of the departed VM.
  EXPECT_TRUE(world.cluster.GetHost("A").Store().Has("vm-1"));
  EXPECT_FALSE(world.cluster.GetHost("B").Store().Has("vm-1"));
  // The source store is the system of record for what the VM left
  // behind: the departure-time generations and the delta baseline (and
  // the checksums a return leg probes, see ReturnKnowledge below).
  EXPECT_EQ(world.cluster.GetHost("A").Store().DepartureGenerations("vm-1"),
            before);
  EXPECT_EQ(world.cluster.GetHost("A").Store().BaselineSeeds("vm-1"),
            world.cluster.GetHost("A").Store().Peek("vm-1")->Seeds());
}

TEST(Orchestrator, PingPongReturnIsCheap) {
  World world;
  auto vm = MakeVm(MiB(32));
  // An idle guest: at 32 MiB model scale the absolute write rate must be
  // tiny to keep the paper's near-100% similarity (the paper's idle VM
  // touches a vanishing fraction of its multi-GiB RAM).
  vm::IdleWorkload::Config idle;
  idle.write_rate_pages_per_s = 0.5;
  idle.hot_region_pages = 256;
  vm.SetWorkload(std::make_unique<vm::IdleWorkload>(idle));
  world.orchestrator.Deploy(vm, "A");

  const auto first = world.orchestrator.Migrate(vm, "B", VeCycleConfig());
  world.orchestrator.RunFor(vm, Minutes(10));
  const auto back = world.orchestrator.Migrate(vm, "A", VeCycleConfig());

  // First migration had no checkpoint anywhere: full traffic. The return
  // found a near-identical checkpoint at A: traffic collapses (§4.4).
  EXPECT_LT(back.tx_bytes.count * 10, first.tx_bytes.count);
  EXPECT_LT(ToSeconds(back.total_time), ToSeconds(first.total_time));
  // Ping-pong fast path: no bulk hash exchange was needed.
  EXPECT_EQ(back.bulk_exchange_bytes.count, 0u);
  EXPECT_GT(back.pages_sent_checksum, 0u);
}

TEST(Orchestrator, RepeatedPingPongKeepsWorking) {
  World world;
  auto vm = MakeVm(MiB(8));
  vm.SetWorkload(std::make_unique<vm::UniformRandomWorkload>(5.0, 21));
  world.orchestrator.Deploy(vm, "A");

  const char* hosts[] = {"B", "A", "B", "A", "B"};
  for (const char* to : hosts) {
    world.orchestrator.RunFor(vm, Hours(1));
    const auto stats = world.orchestrator.Migrate(vm, to, VeCycleConfig());
    EXPECT_EQ(vm.CurrentHost(), to);
    EXPECT_GT(stats.rounds, 0u);
  }
  // Both hosts hold what the VM last left there.
  EXPECT_TRUE(world.cluster.GetHost("A").Store().Has("vm-1"));
  EXPECT_TRUE(world.cluster.GetHost("B").Store().Has("vm-1"));
}

TEST(Orchestrator, CheckpointReflectsDepartureState) {
  World world;
  auto vm = MakeVm(MiB(8));
  world.orchestrator.Deploy(vm, "A");
  world.orchestrator.Migrate(vm, "B", VeCycleConfig());

  // The checkpoint at A holds exactly the VM's state at departure.
  const auto* checkpoint = world.cluster.GetHost("A").Store().Peek("vm-1");
  ASSERT_NE(checkpoint, nullptr);
  for (vm::PageId p = 0; p < vm.Memory().PageCount(); ++p) {
    EXPECT_EQ(checkpoint->SeedAt(p), vm.Memory().Seed(p));
  }
}

TEST(Orchestrator, ThreeHostCircuitUsesBulkExchangeOnNewPaths) {
  // Legs to hosts the VM never left hold no checkpoint and need no
  // exchange; a return to a host it left finds its checkpoint and names
  // its pages from that host's store, so it needs no exchange either.
  sim::Simulator simulator;
  Cluster cluster(simulator);
  MigrationOrchestrator orchestrator(cluster);
  cluster.AddHost({"A", {}, {}, {}, {}});
  cluster.AddHost({"B", {}, {}, {}, {}});
  cluster.AddHost({"C", {}, {}, {}, {}});
  cluster.Connect("A", "B", sim::LinkConfig::Lan());
  cluster.Connect("B", "C", sim::LinkConfig::Lan());
  cluster.Connect("A", "C", sim::LinkConfig::Lan());

  auto vm = MakeVm(MiB(8));
  orchestrator.Deploy(vm, "A");
  const auto to_b = orchestrator.Migrate(vm, "B", VeCycleConfig());
  const auto to_c = orchestrator.Migrate(vm, "C", VeCycleConfig());
  EXPECT_EQ(to_b.bulk_exchange_bytes.count, 0u);  // no checkpoint at B
  EXPECT_EQ(to_c.bulk_exchange_bytes.count, 0u);  // none at C either

  // Return to A: the checkpoint exists and A's store names its content —
  // fast path, no bulk exchange.
  const auto back_a = orchestrator.Migrate(vm, "A", VeCycleConfig());
  EXPECT_EQ(back_a.bulk_exchange_bytes.count, 0u);
  EXPECT_GT(back_a.pages_sent_checksum, 0u);
}

TEST(Orchestrator, ReturnUnderAnotherAlgorithmStillRecycles) {
  // The outbound leg runs under MD5, the return under SHA-1. The return
  // must name A's checkpoint under its own algorithm: probing foreign
  // digests would find nothing, and with knowledge in hand no bulk
  // exchange would run either — every page would travel in full.
  World world;
  auto vm = MakeVm(MiB(8));
  world.orchestrator.Deploy(vm, "A");
  const auto out = world.orchestrator.Migrate(vm, "B", VeCycleConfig());

  auto sha1 = VeCycleConfig();
  sha1.algorithm = DigestAlgorithm::kSha1;
  const auto back = world.orchestrator.Migrate(vm, "A", sha1);
  EXPECT_EQ(back.bulk_exchange_bytes.count, 0u);
  EXPECT_GT(back.pages_sent_checksum, vm.Memory().PageCount() / 2);
  EXPECT_LT(back.tx_bytes.count * 10, out.tx_bytes.count);
}

TEST(Orchestrator, MiyakodoriStrategyWorksThroughOrchestrator) {
  World world;
  auto vm = MakeVm(MiB(8));
  world.orchestrator.Deploy(vm, "A");

  migration::MigrationConfig dirty;
  dirty.strategy = migration::Strategy::kDirtyTracking;
  world.orchestrator.Migrate(vm, "B", dirty);

  // Touch 50 pages, then return: only those (plus re-sends) travel full.
  for (vm::PageId p = 0; p < 50; ++p) vm.Memory().WritePage(p, 1 << 20);
  const auto back = world.orchestrator.Migrate(vm, "A", dirty);
  EXPECT_EQ(back.pages_skipped_clean, vm.Memory().PageCount() - 50);
  EXPECT_GT(back.pages_skipped_clean, 0u);
}

TEST(Orchestrator, ReturnAfterCheckpointEvictionDegradesGracefully) {
  // A consolidation host with a tight retention quota: VM-1's checkpoint
  // is evicted by VM-2's before VM-1 returns. The return migration must
  // fall back to a cold transfer, not fail for want of the checkpoint.
  sim::Simulator simulator;
  Cluster cluster(simulator);
  MigrationOrchestrator orchestrator(cluster);
  core::HostConfig a{"A", sim::DiskConfig::Hdd(), {}, {}, {}};
  a.retention.max_checkpoints = 1;
  cluster.AddHost(a);
  cluster.AddHost({"B", sim::DiskConfig::Hdd(), {}, {}, {}});
  cluster.Connect("A", "B", sim::LinkConfig::Lan());

  // Distinct ids matter for the store.
  VmInstance vm_one("vm-1", MiB(8), vm::ContentMode::kSeedOnly);
  VmInstance vm_two("vm-2", MiB(8), vm::ContentMode::kSeedOnly);
  Xoshiro256 r1(61);
  Xoshiro256 r2(62);
  vm::MemoryProfile{}.Apply(vm_one.Memory(), r1);
  vm::MemoryProfile{}.Apply(vm_two.Memory(), r2);

  orchestrator.Deploy(vm_one, "A");
  orchestrator.Deploy(vm_two, "A");
  orchestrator.Migrate(vm_one, "B", VeCycleConfig());  // ckpt(vm-1) at A
  orchestrator.Migrate(vm_two, "B", VeCycleConfig());  // evicts ckpt(vm-1)
  EXPECT_FALSE(cluster.GetHost("A").Store().Has("vm-1"));
  EXPECT_TRUE(cluster.GetHost("A").Store().Has("vm-2"));
  EXPECT_EQ(cluster.GetHost("A").Store().Evictions(), 1u);
  // With the checkpoint gone, the source knows nothing of A.
  EXPECT_EQ(BuildMigrationRun(cluster, vm_one, "A", VeCycleConfig())
                .source_knowledge,
            nullptr);

  // vm-1 returns: cold path, still correct.
  const auto back = orchestrator.Migrate(vm_one, "A", VeCycleConfig());
  EXPECT_EQ(back.pages_sent_checksum, 0u);
  EXPECT_EQ(vm_one.CurrentHost(), "A");
}

TEST(Orchestrator, WanMigrationIsSlowerThanLan) {
  sim::Simulator simulator;
  Cluster cluster(simulator);
  MigrationOrchestrator orchestrator(cluster);
  cluster.AddHost({"A", {}, {}, {}, {}});
  cluster.AddHost({"B", {}, {}, {}, {}});
  cluster.AddHost({"C", {}, {}, {}, {}});
  cluster.Connect("A", "B", sim::LinkConfig::Lan());
  cluster.Connect("A", "C", sim::LinkConfig::Wan());

  auto vm_lan = MakeVm(MiB(32), 1);
  auto vm_wan = MakeVm(MiB(32), 1);
  vm_lan.AdoptMemory(
      std::make_unique<vm::GuestMemory>(MiB(32), vm::ContentMode::kSeedOnly));
  vm_wan.AdoptMemory(
      std::make_unique<vm::GuestMemory>(MiB(32), vm::ContentMode::kSeedOnly));
  Xoshiro256 rng(5);
  vm::MemoryProfile{}.Apply(vm_lan.Memory(), rng);
  Xoshiro256 rng2(5);
  vm::MemoryProfile{}.Apply(vm_wan.Memory(), rng2);

  orchestrator.Deploy(vm_lan, "A");
  const auto lan = orchestrator.Migrate(vm_lan, "B", VeCycleConfig());

  orchestrator.Deploy(vm_wan, "A");
  const auto wan = orchestrator.Migrate(vm_wan, "C", VeCycleConfig());

  EXPECT_GT(ToSeconds(wan.total_time), 3.0 * ToSeconds(lan.total_time));
}

// --- Return-leg knowledge, derived from the destination's store. ---

struct KnowledgeCase {
  vm::ContentMode mode;
  bool chunking;
};

class ReturnKnowledge : public ::testing::TestWithParam<KnowledgeCase> {};

TEST_P(ReturnKnowledge, NamesEveryPageOfTheCheckpointLeftBehind) {
  const auto param = GetParam();
  sim::Simulator simulator;
  Cluster cluster(simulator);
  MigrationOrchestrator orchestrator(cluster);
  for (const char* id : {"A", "B"}) {
    HostConfig host{id, sim::DiskConfig::Hdd(), {}, {}, {}};
    host.store.chunking = param.chunking;
    host.store.chunk_pages = 8;
    cluster.AddHost(host);
  }
  cluster.Connect("A", "B", sim::LinkConfig::Lan());

  VmInstance vm("vm-1", MiB(4), param.mode);
  Xoshiro256 rng(17);
  vm::MemoryProfile{}.Apply(vm.Memory(), rng);
  orchestrator.Deploy(vm, "A");
  orchestrator.Migrate(vm, "B", VeCycleConfig());
  // The VM runs on at B, so its memory drifts from what it left at A.
  for (vm::PageId p = 0; p < 64; ++p) {
    vm.Memory().WritePage(p, (std::uint64_t{1} << 40) + p);
  }

  // The return leg digests under its own algorithm, not the outbound's.
  auto config = VeCycleConfig();
  config.algorithm = DigestAlgorithm::kSha1;
  const auto run = BuildMigrationRun(cluster, vm, "A", config);
  ASSERT_NE(run.source_knowledge, nullptr);
  const auto* checkpoint = cluster.GetHost("A").Store().Peek("vm-1");
  ASSERT_NE(checkpoint, nullptr);
  for (vm::PageId p = 0; p < checkpoint->PageCount(); ++p) {
    ASSERT_TRUE(run.source_knowledge->Contains(
        checkpoint->DigestAt(p, param.mode, config.algorithm)))
        << "page " << p;
  }
  // Nothing else: exactly the checkpoint's distinct digests.
  EXPECT_EQ(run.source_knowledge->Size(),
            checkpoint->Index(param.mode, config.algorithm).Size());
  EXPECT_FALSE(run.source_knowledge->Contains(
      vm.Memory().PageDigest(0, config.algorithm)));
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndStores, ReturnKnowledge,
    ::testing::Values(KnowledgeCase{vm::ContentMode::kSeedOnly, false},
                      KnowledgeCase{vm::ContentMode::kSeedOnly, true},
                      KnowledgeCase{vm::ContentMode::kMaterialized, false},
                      KnowledgeCase{vm::ContentMode::kMaterialized, true}),
    [](const auto& info) {
      return std::string(info.param.mode == vm::ContentMode::kSeedOnly
                             ? "seed"
                             : "bytes") +
             (info.param.chunking ? "_chunked" : "_flat");
    });

TEST(NoReturnKnowledge, ForStrategiesWithoutContentHashes) {
  World world;
  auto vm = MakeVm(MiB(8));
  world.orchestrator.Deploy(vm, "A");
  world.orchestrator.Migrate(vm, "B", VeCycleConfig());

  migration::MigrationConfig config;
  for (const auto strategy :
       {migration::Strategy::kFull, migration::Strategy::kDedup,
        migration::Strategy::kDirtyTracking,
        migration::Strategy::kDirtyPlusDedup}) {
    config.strategy = strategy;
    EXPECT_EQ(BuildMigrationRun(world.cluster, vm, "A", config)
                  .source_knowledge,
              nullptr)
        << migration::ToString(strategy);
  }
  for (const auto strategy : {migration::Strategy::kHashes,
                              migration::Strategy::kHashesPlusDedup}) {
    config.strategy = strategy;
    EXPECT_NE(BuildMigrationRun(world.cluster, vm, "A", config)
                  .source_knowledge,
              nullptr)
        << migration::ToString(strategy);
  }
}

TEST(NoReturnKnowledge, ForResizedVm) {
  World world;
  auto vm = MakeVm(MiB(8));
  world.orchestrator.Deploy(vm, "A");
  world.orchestrator.Migrate(vm, "B", VeCycleConfig());

  vm.AdoptMemory(
      std::make_unique<vm::GuestMemory>(MiB(16), vm::ContentMode::kSeedOnly));
  Xoshiro256 rng(3);
  vm::MemoryProfile{}.Apply(vm.Memory(), rng);
  EXPECT_EQ(
      BuildMigrationRun(world.cluster, vm, "A", VeCycleConfig())
          .source_knowledge,
      nullptr);
  // The return itself runs cold and correct.
  const auto back = world.orchestrator.Migrate(vm, "A", VeCycleConfig());
  EXPECT_EQ(back.pages_sent_checksum, 0u);
  EXPECT_EQ(back.bulk_exchange_bytes.count, 0u);
}

}  // namespace
}  // namespace vecycle::core
