// MigrationScheduler: admission control, priority and per-VM ordering,
// gang dedup across concurrently admitted sessions, conservation under
// link contention, and the serial-equivalence guarantee — a scheduler
// admitting one session at a time reproduces the synchronous engine's
// MigrationStats exactly.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "audit/replay.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/orchestrator.hpp"
#include "core/scheduler.hpp"
#include "core/vm_instance.hpp"
#include "fault/fault.hpp"
#include "vm/workload.hpp"

namespace vecycle::core {
namespace {

migration::MigrationConfig VeCycleConfig() {
  migration::MigrationConfig config;
  config.strategy = migration::Strategy::kHashes;
  return config;
}

migration::MigrationConfig FullConfig() {
  migration::MigrationConfig config;
  config.strategy = migration::Strategy::kFull;
  return config;
}

std::unique_ptr<VmInstance> MakeVm(const std::string& id, Bytes ram,
                                   std::uint64_t seed) {
  auto vm = std::make_unique<VmInstance>(id, ram, vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(seed);
  vm::MemoryProfile{}.Apply(vm->Memory(), rng);
  return vm;
}

/// Two hosts joined by a LAN link, as in core_test.
struct PairWorld {
  sim::Simulator simulator;
  Cluster cluster{simulator};

  PairWorld() {
    cluster.AddHost({"A", sim::DiskConfig::Hdd(), {}, {}, {}});
    cluster.AddHost({"B", sim::DiskConfig::Hdd(), {}, {}, {}});
    cluster.Connect("A", "B", sim::LinkConfig::Lan());
  }
};

/// Triangle of three hosts, every pair connected.
struct TriangleWorld {
  sim::Simulator simulator;
  Cluster cluster{simulator};

  TriangleWorld() {
    for (const char* id : {"A", "B", "C"}) {
      cluster.AddHost({id, sim::DiskConfig::Hdd(), {}, {}, {}});
    }
    cluster.Connect("A", "B", sim::LinkConfig::Lan());
    cluster.Connect("B", "C", sim::LinkConfig::Lan());
    cluster.Connect("A", "C", sim::LinkConfig::Lan());
  }
};

// --- Serial equivalence: the refactor's must-not-change guarantee. ---

TEST(SerialEquivalence, PingPongMatchesSynchronousEngine) {
  // Two independent, identically seeded worlds. One drives the old
  // synchronous facade; the other submits the same legs through the
  // scheduler with capacity one. Every field of every MigrationStats
  // must come out identical — timing, bytes, page classification.
  const auto drive_sync = [](std::vector<migration::MigrationStats>& out) {
    PairWorld world;
    MigrationOrchestrator orchestrator(world.cluster);
    auto vm = MakeVm("vm-1", MiB(32), 7);
    vm->SetWorkload(std::make_unique<vm::IdleWorkload>(
        vm::IdleWorkload::Config{.seed = 11}));
    orchestrator.Deploy(*vm, "A");
    orchestrator.RunFor(*vm, Minutes(10));
    out.push_back(orchestrator.Migrate(*vm, "B", VeCycleConfig()));
    orchestrator.RunFor(*vm, Hours(2));
    out.push_back(orchestrator.Migrate(*vm, "A", VeCycleConfig()));
  };
  const auto drive_scheduled =
      [](std::vector<migration::MigrationStats>& out) {
        PairWorld world;
        SchedulerConfig scheduler_config;
        scheduler_config.max_outgoing_per_host = 1;
        scheduler_config.max_incoming_per_host = 1;
        MigrationOrchestrator orchestrator(world.cluster, scheduler_config);
        auto vm = MakeVm("vm-1", MiB(32), 7);
        vm->SetWorkload(std::make_unique<vm::IdleWorkload>(
            vm::IdleWorkload::Config{.seed = 11}));
        orchestrator.Deploy(*vm, "A");
        orchestrator.RunFor(*vm, Minutes(10));
        orchestrator.MigrateAsync(*vm, "B", VeCycleConfig());
        ASSERT_EQ(orchestrator.Drain(), 1u);
        orchestrator.RunFor(*vm, Hours(2));
        orchestrator.MigrateAsync(*vm, "A", VeCycleConfig());
        ASSERT_EQ(orchestrator.Drain(), 1u);
        for (const auto& completion :
             orchestrator.Scheduler().Completions()) {
          out.push_back(completion.stats);
        }
      };

  std::vector<migration::MigrationStats> sync_stats;
  std::vector<migration::MigrationStats> scheduled_stats;
  drive_sync(sync_stats);
  drive_scheduled(scheduled_stats);

  ASSERT_EQ(sync_stats.size(), 2u);
  ASSERT_EQ(scheduled_stats.size(), 2u);
  EXPECT_EQ(sync_stats[0], scheduled_stats[0]);
  EXPECT_EQ(sync_stats[1], scheduled_stats[1]);
  // The return leg actually exercised the recycled checkpoint: most
  // pages travelled as checksum-only records.
  EXPECT_GT(scheduled_stats[1].pages_sent_checksum, 0u);
}

TEST(SerialEquivalence, BackToBackVmsMatchSynchronousEngine) {
  // Several VMs migrated one after another: the scheduler chains the
  // next admission off the previous completion at the exact sim time the
  // synchronous path would start it.
  constexpr int kVms = 3;
  std::vector<migration::MigrationStats> sync_stats;
  {
    PairWorld world;
    MigrationOrchestrator orchestrator(world.cluster);
    std::vector<std::unique_ptr<VmInstance>> vms;
    for (int i = 0; i < kVms; ++i) {
      vms.push_back(
          MakeVm("vm-" + std::to_string(i), MiB(16), 100 + i));
      orchestrator.Deploy(*vms.back(), "A");
    }
    for (auto& vm : vms) {
      sync_stats.push_back(orchestrator.Migrate(*vm, "B", FullConfig()));
    }
  }
  std::vector<migration::MigrationStats> scheduled_stats;
  {
    PairWorld world;
    SchedulerConfig scheduler_config;
    scheduler_config.max_outgoing_per_host = 1;
    scheduler_config.max_incoming_per_host = 1;
    MigrationScheduler scheduler(world.cluster, scheduler_config);
    std::vector<std::unique_ptr<VmInstance>> vms;
    for (int i = 0; i < kVms; ++i) {
      vms.push_back(
          MakeVm("vm-" + std::to_string(i), MiB(16), 100 + i));
      vms.back()->SetCurrentHost("A");
      scheduler.Submit(*vms.back(), "B", FullConfig());
    }
    ASSERT_EQ(scheduler.Drain(), static_cast<std::size_t>(kVms));
    for (const auto& completion : scheduler.Completions()) {
      scheduled_stats.push_back(completion.stats);
    }
  }
  ASSERT_EQ(scheduled_stats.size(), sync_stats.size());
  for (int i = 0; i < kVms; ++i) {
    EXPECT_EQ(sync_stats[static_cast<std::size_t>(i)],
              scheduled_stats[static_cast<std::size_t>(i)])
        << "vm " << i;
  }
}

// --- Determinism: per-host slot accounting is replay-ordered. ---

/// An 8-VM fleet drained through tight per-host admission caps, as a
/// ReplayCheck scenario. The slot accounting behind admission
/// (outgoing_/incoming_) is indexed by each host's AddHost position:
/// were it hash-ordered, admission sequence — and with it every
/// completion time below — could silently depend on bucket layout. The
/// fingerprint folds in each completion's id, timing and bytes, so any
/// admission reordering between the two runs diverges loudly.
std::uint64_t CappedFleetScenario(audit::SimAuditor& auditor) {
  TriangleWorld world;
  SchedulerConfig config;
  config.max_outgoing_per_host = 1;  // tight caps force the admission
  config.max_incoming_per_host = 1;  // loop through the per-host maps
  config.instruments.auditor = &auditor;
  MigrationScheduler scheduler(world.cluster, config);

  std::vector<std::unique_ptr<VmInstance>> vms;
  const char* placements[] = {"A", "A", "A", "B", "B", "B", "C", "C"};
  const char* destinations[] = {"B", "B", "C", "C", "C", "A", "A", "B"};
  for (int i = 0; i < 8; ++i) {
    vms.push_back(MakeVm("vm-" + std::to_string(i), MiB(8), 200 + i));
    vms.back()->SetCurrentHost(placements[i]);
    scheduler.Submit(*vms.back(), destinations[i], FullConfig());
  }
  scheduler.Drain();

  std::uint64_t fp = 0;
  for (const auto& completion : scheduler.Completions()) {
    fp = fp * 1099511628211ull ^ completion.id;
    fp = fp * 1099511628211ull ^
         static_cast<std::uint64_t>(completion.completed_at.count());
    fp = fp * 1099511628211ull ^ completion.stats.tx_bytes.count;
  }
  return fp;
}

TEST(SchedulerDeterminism, CappedFleetReplaysBitForBit) {
  EXPECT_NO_THROW(audit::ReplayCheck::Verify(
      [](audit::SimAuditor& auditor) { return CappedFleetScenario(auditor); }));
}

// --- Overlap, contention, conservation. ---

TEST(Scheduler, ConcurrentSessionsConserveWireBytes) {
  // 8 VMs across a triangle of hosts migrate concurrently under one
  // shared auditor. Channel ids derive from session ids, so each
  // session's forward-channel byte account must equal the tx_bytes its
  // own stats report — contention may reorder and delay batches, but
  // bytes can neither leak between sessions nor vanish.
  TriangleWorld world;
  audit::SimAuditor auditor;
  SchedulerConfig config;
  config.max_outgoing_per_host = 0;  // unlimited: force full overlap
  config.max_incoming_per_host = 0;
  config.instruments.auditor = &auditor;
  MigrationScheduler scheduler(world.cluster, config);

  std::vector<std::unique_ptr<VmInstance>> vms;
  const char* placements[] = {"A", "A", "A", "B", "B", "B", "C", "C"};
  const char* destinations[] = {"B", "B", "C", "C", "C", "A", "A", "B"};
  std::vector<SessionId> sessions;
  for (int i = 0; i < 8; ++i) {
    vms.push_back(MakeVm("vm-" + std::to_string(i), MiB(8), 200 + i));
    vms.back()->SetCurrentHost(placements[i]);
    sessions.push_back(
        scheduler.Submit(*vms.back(), destinations[i], FullConfig()));
  }
  EXPECT_EQ(scheduler.QueuedCount(), 8u);
  ASSERT_EQ(scheduler.Drain(), 8u);
  EXPECT_EQ(scheduler.QueuedCount(), 0u);
  EXPECT_EQ(scheduler.RunningCount(), 0u);

  for (int i = 0; i < 8; ++i) {
    const auto* completion = scheduler.FindCompletion(sessions[i]);
    ASSERT_NE(completion, nullptr) << i;
    EXPECT_EQ(completion->to, destinations[i]) << i;
    EXPECT_EQ(vms[i]->CurrentHost(), destinations[i]) << i;
    const auto channel =
        static_cast<std::uint32_t>(2 * completion->id);
    EXPECT_EQ(completion->stats.tx_bytes, auditor.ChannelBytes(channel))
        << "session " << completion->id;
  }
}

TEST(Scheduler, GangDedupSharesContentAcrossConcurrentSessions) {
  // Four VMs stamped from one "image" (75% shared pool) leave host A for
  // host B at the same moment. With gang dedup the pool crosses the wire
  // once; with it disabled every VM ships its own copy.
  const auto total_wire_bytes = [](bool gang_dedup) {
    PairWorld world;
    SchedulerConfig config;
    config.max_outgoing_per_host = 0;
    config.max_incoming_per_host = 0;
    config.gang_dedup = gang_dedup;
    MigrationScheduler scheduler(world.cluster, config);

    std::vector<std::unique_ptr<VmInstance>> vms;
    for (int i = 0; i < 4; ++i) {
      auto vm = std::make_unique<VmInstance>("vm-" + std::to_string(i),
                                             MiB(8),
                                             vm::ContentMode::kSeedOnly);
      Xoshiro256 pool_rng(0x05);  // one pool, every VM
      Xoshiro256 own_rng(300 + static_cast<std::uint64_t>(i));
      for (vm::PageId p = 0; p < vm->Memory().PageCount(); ++p) {
        if (p % 4 != 0) {
          vm->Memory().WritePage(p,
                                 1'000'000 + pool_rng.NextBelow(100'000));
        } else {
          vm->Memory().WritePage(p, own_rng.Next() | (1ull << 62));
        }
      }
      vm->SetCurrentHost("A");
      migration::MigrationConfig migration_config;
      migration_config.strategy = migration::Strategy::kDedup;
      scheduler.Submit(*vm, "B", migration_config);
      vms.push_back(std::move(vm));
    }
    EXPECT_EQ(scheduler.Drain(), 4u);
    Bytes total;
    for (const auto& completion : scheduler.Completions()) {
      total += completion.stats.tx_bytes;
    }
    return total;
  };

  const Bytes separate = total_wire_bytes(false);
  const Bytes gang = total_wire_bytes(true);
  EXPECT_LT(gang.count, separate.count * 9 / 10);
}

TEST(Scheduler, EvictedCheckpointStaysReadableForTheReturnLeg) {
  // VM x returns A -> H while VM y leaves H. H keeps one checkpoint, so
  // y's write-back Save evicts x's checkpoint mid-leg. x's pages were
  // swapped pairwise at A, so nearly every checksum record misses in
  // place and is read from the checkpoint at another offset: the
  // destination must keep reading the image it loaded, and x's leg must
  // come out exactly as with an unbounded store.
  const auto return_leg = [](std::size_t max_checkpoints) {
    sim::Simulator simulator;
    Cluster cluster(simulator);
    cluster.AddHost({"A", sim::DiskConfig::Hdd(), {}, {}, {}});
    HostConfig home{"H", sim::DiskConfig::Hdd(), {}, {}, {}};
    home.retention.max_checkpoints = max_checkpoints;
    cluster.AddHost(home);
    cluster.Connect("A", "H", sim::LinkConfig::Lan());
    SchedulerConfig config;
    config.max_outgoing_per_host = 0;
    config.max_incoming_per_host = 0;
    MigrationScheduler scheduler(cluster, config);

    auto x = MakeVm("x", MiB(64), 61);
    auto y = MakeVm("y", MiB(4), 62);
    x->SetCurrentHost("H");
    y->SetCurrentHost("H");
    scheduler.Submit(*x, "A", VeCycleConfig());
    EXPECT_EQ(scheduler.Drain(), 1u);
    vm::GuestMemory& memory = x->Memory();
    for (vm::PageId p = 0; p + 1 < memory.PageCount(); p += 2) {
      const std::uint64_t seed = memory.Seed(p);
      memory.WritePage(p, memory.Seed(p + 1));
      memory.WritePage(p + 1, seed);
    }
    const SessionId leg = scheduler.Submit(*x, "H", VeCycleConfig());
    scheduler.Submit(*y, "A", FullConfig());
    EXPECT_EQ(scheduler.Drain(), 2u);
    EXPECT_EQ(cluster.GetHost("H").Store().Has("x"), max_checkpoints == 0);
    return scheduler.FindCompletion(leg)->stats;
  };
  const auto bounded = return_leg(1);
  const auto unbounded = return_leg(0);
  EXPECT_EQ(bounded, unbounded);
  EXPECT_GT(bounded.pages_from_checkpoint, bounded.pages_sent_checksum / 2);
}

// --- Admission control. ---

TEST(Scheduler, OutgoingCapSerializesAndLiftsContention) {
  // Two equal VMs on one link: with capacity one each session has the
  // link to itself (per-migration time near solo); with capacity two
  // they overlap and share it (times grow well past solo).
  const auto migration_seconds = [](std::size_t cap) {
    PairWorld world;
    SchedulerConfig config;
    config.max_outgoing_per_host = cap;
    config.max_incoming_per_host = 0;
    MigrationScheduler scheduler(world.cluster, config);
    std::vector<std::unique_ptr<VmInstance>> vms;
    for (int i = 0; i < 2; ++i) {
      vms.push_back(MakeVm("vm-" + std::to_string(i), MiB(32), 400 + i));
      vms.back()->SetCurrentHost("A");
      scheduler.Submit(*vms.back(), "B", FullConfig());
    }
    EXPECT_EQ(scheduler.Drain(), 2u);
    std::vector<double> seconds;
    for (const auto& completion : scheduler.Completions()) {
      seconds.push_back(ToSeconds(completion.stats.total_time));
    }
    return seconds;
  };

  const auto serial = migration_seconds(1);
  const auto overlapped = migration_seconds(2);
  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(overlapped.size(), 2u);
  // Serialized sessions run at full link speed; overlapped ones share.
  EXPECT_GT(overlapped[0], 1.5 * serial[0]);
  EXPECT_GT(overlapped[1], 1.5 * serial[1]);
}

TEST(Scheduler, PriorityOrdersAdmissionAcrossVms) {
  PairWorld world;
  SchedulerConfig config;
  config.max_outgoing_per_host = 1;
  config.max_incoming_per_host = 1;
  MigrationScheduler scheduler(world.cluster, config);

  std::vector<std::unique_ptr<VmInstance>> vms;
  const int priorities[] = {0, 5, 1};
  std::vector<SessionId> sessions;
  for (int i = 0; i < 3; ++i) {
    vms.push_back(MakeVm("vm-" + std::to_string(i), MiB(8), 500 + i));
    vms.back()->SetCurrentHost("A");
    sessions.push_back(
        scheduler.Submit(*vms.back(), "B", FullConfig(), priorities[i]));
  }
  ASSERT_EQ(scheduler.Drain(), 3u);
  const auto& completions = scheduler.Completions();
  // Highest priority first, then the rest by descending priority.
  EXPECT_EQ(completions[0].id, sessions[1]);
  EXPECT_EQ(completions[1].id, sessions[2]);
  EXPECT_EQ(completions[2].id, sessions[0]);
}

TEST(Scheduler, PerVmLegsRunInSubmissionOrderRegardlessOfPriority) {
  TriangleWorld world;
  SchedulerConfig config;
  MigrationScheduler scheduler(world.cluster, config);
  auto vm = MakeVm("traveller", MiB(8), 600);
  vm->SetCurrentHost("A");
  // The second leg outranks the first, but it needs the VM on B, so it
  // must wait: per-VM FIFO wins over priority.
  const auto leg1 = scheduler.Submit(*vm, "B", FullConfig(), 0);
  const auto leg2 = scheduler.Submit(*vm, "C", FullConfig(), 10);
  ASSERT_EQ(scheduler.Drain(), 2u);
  const auto& completions = scheduler.Completions();
  EXPECT_EQ(completions[0].id, leg1);
  EXPECT_EQ(completions[0].from, "A");
  EXPECT_EQ(completions[0].to, "B");
  EXPECT_EQ(completions[1].id, leg2);
  EXPECT_EQ(completions[1].from, "B");
  EXPECT_EQ(completions[1].to, "C");
  EXPECT_EQ(vm->CurrentHost(), "C");
}

TEST(Scheduler, CompletionCallbackCanChainFollowOnLegs) {
  TriangleWorld world;
  MigrationScheduler scheduler(world.cluster);
  auto vm = MakeVm("hopper", MiB(8), 700);
  vm->SetCurrentHost("A");
  SessionId second_leg = 0;
  scheduler.Submit(*vm, "B", FullConfig(), 0,
                   [&](const MigrationScheduler::Completion& completion) {
                     EXPECT_EQ(completion.to, "B");
                     EXPECT_GT(completion.stats.rounds, 0u);
                     second_leg =
                         scheduler.Submit(*completion.vm, "C", FullConfig());
                   });
  ASSERT_EQ(scheduler.Drain(), 2u);
  EXPECT_NE(second_leg, 0u);
  EXPECT_EQ(vm->CurrentHost(), "C");
  const auto* completion = scheduler.FindCompletion(second_leg);
  ASSERT_NE(completion, nullptr);
  EXPECT_EQ(completion->from, "B");
}

TEST(Scheduler, SubmitRejectsUndeployedVmAndUnknownHost) {
  PairWorld world;
  MigrationScheduler scheduler(world.cluster);
  auto vm = MakeVm("vm-1", MiB(8), 800);
  EXPECT_THROW(scheduler.Submit(*vm, "B", FullConfig()), CheckFailure);
  vm->SetCurrentHost("A");
  EXPECT_THROW(scheduler.Submit(*vm, "Z", FullConfig()), CheckFailure);
}

TEST(Scheduler, MigrationToCurrentHostFailsAtAdmission) {
  PairWorld world;
  MigrationScheduler scheduler(world.cluster);
  auto vm = MakeVm("vm-1", MiB(8), 900);
  vm->SetCurrentHost("A");
  scheduler.Submit(*vm, "A", FullConfig());
  EXPECT_THROW(scheduler.Drain(), CheckFailure);
}

// --- The issue's fleet acceptance scenario. ---

TEST(FleetAcceptance, EightConcurrentVmsAcrossThreeHostsUnderAudit) {
  TriangleWorld world;
  SchedulerConfig config;
  config.max_outgoing_per_host = 0;
  config.max_incoming_per_host = 0;
  MigrationScheduler scheduler(world.cluster, config);

  auto migration_config = VeCycleConfig();
  migration_config.audit = true;  // per-session auditors, full checks

  std::vector<std::unique_ptr<VmInstance>> vms;
  const char* placements[] = {"A", "A", "A", "B", "B", "C", "C", "C"};
  const char* destinations[] = {"B", "C", "B", "A", "C", "A", "B", "A"};
  for (int i = 0; i < 8; ++i) {
    vms.push_back(MakeVm("fleet-" + std::to_string(i), MiB(8), 1000 + i));
    vms.back()->SetCurrentHost(placements[i]);
    scheduler.Submit(*vms.back(), destinations[i], migration_config);
  }
  // Everything is admissible at once: the drain starts 8 overlapping
  // sessions and completes them all with per-session audits green.
  ASSERT_EQ(scheduler.Drain(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(vms[i]->CurrentHost(), destinations[i]) << i;
    // The source wrote the departed VM's checkpoint back to local disk.
    EXPECT_TRUE(world.cluster.GetHost(placements[i])
                    .Store()
                    .Has(vms[i]->Id()))
        << i;
  }
  EXPECT_EQ(scheduler.Completions().size(), 8u);
}

// --- Fault retries: failure requeues at the front; per-VM FIFO holds. -

TEST(SchedulerFaults, FailedLegRetriesWithoutOvertakingItsSuccessor) {
  TriangleWorld world;
  fault::FaultConfig fault_config;
  fault_config.enabled = true;
  fault_config.seed = 13;
  fault_config.link_outages_per_hour = 6.0;
  fault_config.link_outage_mean = Seconds(2.0);
  fault_config.horizon = Hours(4.0);
  fault::FaultInjector injector(fault_config);
  ASSERT_FALSE(injector.LinkOutages().empty());
  const auto window = injector.LinkOutages().front();

  SchedulerConfig config;
  config.instruments.injector = &injector;
  config.max_attempts = 10;
  MigrationOrchestrator orchestrator(world.cluster, config);
  auto traveller = MakeVm("vm-1", MiB(16), 5);
  auto rival = MakeVm("vm-2", MiB(16), 6);
  orchestrator.Deploy(*traveller, "A");
  orchestrator.Deploy(*rival, "A");
  // Park the fleet just before the first outage so the initial attempts
  // stream into the window and get cut.
  orchestrator.RunFor({traveller.get(), rival.get()},
                      (window.start - kSimEpoch) - Milliseconds(1.0));

  // Both legs of vm-1's journey up front, then a high-priority rival:
  // the retry must neither let leg 2 overtake leg 1 nor starve behind
  // the rival forever.
  orchestrator.MigrateAsync(*traveller, "B", VeCycleConfig());
  orchestrator.MigrateAsync(*traveller, "C", VeCycleConfig());
  orchestrator.MigrateAsync(*rival, "C", VeCycleConfig(), /*priority=*/100);
  EXPECT_EQ(orchestrator.Drain(), 3u);

  auto& scheduler = orchestrator.Scheduler();
  EXPECT_GE(scheduler.Retries(), 1u);
  EXPECT_TRUE(scheduler.Aborts().empty());
  EXPECT_EQ(traveller->CurrentHost(), "C");
  EXPECT_EQ(rival->CurrentHost(), "C");
  // vm-1's legs completed in submission order despite the retry loop.
  std::vector<HostId> traveller_destinations;
  for (const auto& completion : scheduler.Completions()) {
    if (completion.vm == traveller.get()) {
      traveller_destinations.push_back(completion.to);
    }
  }
  ASSERT_EQ(traveller_destinations.size(), 2u);
  EXPECT_EQ(traveller_destinations[0], "B");
  EXPECT_EQ(traveller_destinations[1], "C");
}

}  // namespace
}  // namespace vecycle::core
