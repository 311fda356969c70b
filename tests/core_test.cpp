// The top-level VeCycle API: cluster topology, VM deployment, and the
// orchestrated migrate/checkpoint/remember cycle — including the paper's
// headline behaviour, the ping-pong pattern where return migrations get
// dramatically cheaper.
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

// --- The migrate/checkpoint/remember cycle. ---

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
  // The VM remembers what it left behind; the source store is the system
  // of record for the departure-time generations and delta baseline.
  ASSERT_NE(vm.KnownPageSetAt("A"), nullptr);
  EXPECT_FALSE(vm.KnownPageSetAt("A")->Empty());
  EXPECT_EQ(world.cluster.GetHost("A").Store().DepartureGenerations("vm-1"),
            before);
  EXPECT_EQ(world.cluster.GetHost("A").Store().BaselineSeeds("vm-1"),
            world.cluster.GetHost("A").Store().Peek("vm-1")->Seeds());
  EXPECT_EQ(vm.VisitedHostCount(), 1u);
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
  EXPECT_EQ(vm.VisitedHostCount(), 2u);
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
  // A VM visiting a third host has knowledge of neither — but once a
  // checkpoint exists there, a later return uses it after a bulk
  // exchange... unless the VM remembers, which it does after departing.
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

  // Return to A: checkpoint exists, VM remembers its content (learned
  // during the outgoing migration) — fast path, no bulk exchange.
  const auto back_a = orchestrator.Migrate(vm, "A", VeCycleConfig());
  EXPECT_EQ(back_a.bulk_exchange_bytes.count, 0u);
  EXPECT_GT(back_a.pages_sent_checksum, 0u);
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
  // fall back to a cold transfer, not fail on the VM's stale knowledge.
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

}  // namespace
}  // namespace vecycle::core
