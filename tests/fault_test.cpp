// Fault injection and recovery: the vecycle::fault schedule must be a
// deterministic function of its seed, devices must honour the plan the
// way they honour an auditor (one pointer test when detached), and the
// recovery paths must hold — corrupted recycled checkpoints degrade to
// per-page resends instead of aborting, link outages abort the session
// and the scheduler retries with backoff, and a torn-down session never
// fires events into freed actors.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "audit/replay.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/orchestrator.hpp"
#include "core/scheduler.hpp"
#include "core/vm_instance.hpp"
#include "fault/fault.hpp"
#include "migration/engine.hpp"
#include "storage/checkpoint.hpp"
#include "vm/workload.hpp"

namespace vecycle {
namespace {

using migration::MigrationConfig;
using migration::MigrationRun;
using migration::MigrationSession;
using migration::RunMigration;
using migration::Strategy;

struct TestBed {
  sim::Simulator simulator;
  sim::Link link{sim::LinkConfig::Lan()};
  sim::ChecksumEngine src_cpu{sim::ChecksumEngineConfig{}};
  sim::ChecksumEngine dst_cpu{sim::ChecksumEngineConfig{}};
  sim::Disk src_disk{sim::DiskConfig::Hdd()};
  sim::Disk dst_disk{sim::DiskConfig::Hdd()};
  storage::CheckpointStore src_store{src_disk};
  storage::CheckpointStore dst_store{dst_disk};

  MigrationRun MakeRun(vm::GuestMemory& memory, MigrationConfig config) {
    MigrationRun run;
    run.simulator = &simulator;
    run.link = &link;
    run.direction = sim::Direction::kAtoB;
    run.source_memory = &memory;
    run.source = {&src_cpu, &src_store};
    run.destination = {&dst_cpu, &dst_store};
    run.vm_id = "vm";
    run.config = config;
    return run;
  }
};

vm::GuestMemory RandomMemory(Bytes ram, std::uint64_t seed) {
  vm::GuestMemory memory(ram, vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(seed);
  vm::MemoryProfile{}.Apply(memory, rng);
  return memory;
}

std::vector<Digest128> DigestsOf(const vm::GuestMemory& memory) {
  std::vector<Digest128> digests;
  for (vm::PageId p = 0; p < memory.PageCount(); ++p) {
    digests.push_back(memory.PageDigest(p));
  }
  return digests;
}

std::unique_ptr<core::VmInstance> MakeVm(const std::string& id, Bytes ram,
                                         std::uint64_t seed) {
  auto vm =
      std::make_unique<core::VmInstance>(id, ram, vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(seed);
  vm::MemoryProfile{}.Apply(vm->Memory(), rng);
  return vm;
}

/// Two hosts joined by a LAN link, as in scheduler_test.
struct PairWorld {
  sim::Simulator simulator;
  core::Cluster cluster{simulator};

  PairWorld() {
    cluster.AddHost({"A", sim::DiskConfig::Hdd(), {}, {}, {}});
    cluster.AddHost({"B", sim::DiskConfig::Hdd(), {}, {}, {}});
    cluster.Connect("A", "B", sim::LinkConfig::Lan());
  }
};

/// Restores VECYCLE_FAULTS on scope exit so one test cannot leak fault
/// injection into the rest of the suite.
struct ScopedFaultsEnv {
  explicit ScopedFaultsEnv(const char* spec) {
    ::setenv("VECYCLE_FAULTS", spec, 1);
  }
  ~ScopedFaultsEnv() { ::unsetenv("VECYCLE_FAULTS"); }
};

// --- FaultConfig: validation and spec parsing. ------------------------

TEST(FaultConfigTest, ValidateRejectsOutOfRangeValues) {
  const fault::FaultConfig valid;
  valid.Validate();  // defaults must pass

  auto broken = valid;
  broken.link_outages_per_hour = -1.0;
  EXPECT_THROW(broken.Validate(), CheckFailure);

  broken = valid;
  broken.link_outage_mean = SimDuration::zero();
  EXPECT_THROW(broken.Validate(), CheckFailure);

  broken = valid;
  broken.link_degradation_factor = 0.0;
  EXPECT_THROW(broken.Validate(), CheckFailure);

  broken = valid;
  broken.corrupt_probability = 1.5;
  EXPECT_THROW(broken.Validate(), CheckFailure);

  broken = valid;
  broken.corrupt_pages = 0;
  EXPECT_THROW(broken.Validate(), CheckFailure);

  broken = valid;
  broken.truncate_fraction = 0.0;
  EXPECT_THROW(broken.Validate(), CheckFailure);

  broken = valid;
  broken.horizon = SimDuration::zero();
  EXPECT_THROW(broken.Validate(), CheckFailure);
}

TEST(FaultConfigTest, FromSpecParsesEveryKey) {
  const auto config = fault::FaultConfig::FromSpec(
      "seed=42,link_outages_per_hour=3,link_outage_ms=1500,"
      "link_degradations_per_hour=2,link_degradation_ms=250,"
      "link_degradation_factor=0.5,disk_errors_per_hour=6,"
      "disk_error_ms=20,corrupt_prob=0.25,corrupt_pages=16,"
      "truncate_prob=0.5,truncate_fraction=0.5,horizon_hours=1");
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.seed, 42u);
  EXPECT_DOUBLE_EQ(config.link_outages_per_hour, 3.0);
  EXPECT_EQ(config.link_outage_mean, Milliseconds(1500.0));
  EXPECT_DOUBLE_EQ(config.link_degradations_per_hour, 2.0);
  EXPECT_EQ(config.link_degradation_mean, Milliseconds(250.0));
  EXPECT_DOUBLE_EQ(config.link_degradation_factor, 0.5);
  EXPECT_DOUBLE_EQ(config.disk_errors_per_hour, 6.0);
  EXPECT_EQ(config.disk_error_mean, Milliseconds(20.0));
  EXPECT_DOUBLE_EQ(config.corrupt_probability, 0.25);
  EXPECT_EQ(config.corrupt_pages, 16u);
  EXPECT_DOUBLE_EQ(config.truncate_probability, 0.5);
  EXPECT_DOUBLE_EQ(config.truncate_fraction, 0.5);
  EXPECT_EQ(config.horizon, Hours(1.0));
}

TEST(FaultConfigTest, FromSpecBareTruthySelectsDefaultPlan) {
  for (const char* word : {"1", "on", "true", "yes", "TRUE"}) {
    const auto config = fault::FaultConfig::FromSpec(word);
    EXPECT_TRUE(config.enabled) << word;
    EXPECT_GT(config.link_outages_per_hour, 0.0) << word;
    EXPECT_GT(config.corrupt_probability, 0.0) << word;
  }
}

TEST(FaultConfigTest, FromSpecRejectsUnknownKeysAndGarbage) {
  EXPECT_THROW(fault::FaultConfig::FromSpec("frobnicate=1"), CheckFailure);
  EXPECT_THROW(fault::FaultConfig::FromSpec("corrupt_prob=banana"),
               CheckFailure);
  EXPECT_THROW(fault::FaultConfig::FromSpec("corrupt_prob"), CheckFailure);
  // Well-formed but out of range: FromSpec validates before returning.
  EXPECT_THROW(fault::FaultConfig::FromSpec("corrupt_prob=2"), CheckFailure);
}

TEST(FaultConfigTest, FromEnvDisabledWhenUnset) {
  ::unsetenv("VECYCLE_FAULTS");
  EXPECT_FALSE(fault::EnvEnabled());
  EXPECT_FALSE(fault::FaultConfig::FromEnv().enabled);

  ScopedFaultsEnv env("corrupt_prob=1");
  EXPECT_TRUE(fault::EnvEnabled());
  EXPECT_TRUE(fault::FaultConfig::FromEnv().enabled);
}

// --- FaultInjector: the plan is a pure function of the seed. ----------

fault::FaultConfig MixedPlan(std::uint64_t seed) {
  fault::FaultConfig config;
  config.enabled = true;
  config.seed = seed;
  config.link_outages_per_hour = 4.0;
  config.link_degradations_per_hour = 2.0;
  config.disk_errors_per_hour = 12.0;
  config.corrupt_probability = 1.0;
  config.horizon = Hours(48.0);
  return config;
}

void ExpectSameWindows(const std::vector<fault::FaultWindow>& a,
                       const std::vector<fault::FaultWindow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

TEST(FaultInjectorTest, SameSeedReproducesTheExactPlan) {
  fault::FaultInjector a(MixedPlan(7));
  fault::FaultInjector b(MixedPlan(7));
  ASSERT_FALSE(a.LinkOutages().empty());
  ASSERT_FALSE(a.LinkDegradations().empty());
  ASSERT_FALSE(a.DiskErrorWindows().empty());
  ExpectSameWindows(a.LinkOutages(), b.LinkOutages());
  ExpectSameWindows(a.LinkDegradations(), b.LinkDegradations());
  ExpectSameWindows(a.DiskErrorWindows(), b.DiskErrorWindows());

  // Per-checkpoint damage is keyed on (seed, vm, save ordinal).
  const auto plan_a = a.DecideCorruption("vm-1", 2048);
  const auto plan_b = b.DecideCorruption("vm-1", 2048);
  ASSERT_FALSE(plan_a.rotted.empty());
  EXPECT_EQ(plan_a.rotted, plan_b.rotted);
  EXPECT_EQ(plan_a.truncate_from, plan_b.truncate_from);

  // The next save of the same VM draws a fresh decision stream.
  const auto plan_a2 = a.DecideCorruption("vm-1", 2048);
  EXPECT_NE(plan_a.rotted, plan_a2.rotted);
}

TEST(FaultInjectorTest, DifferentSeedsGiveDifferentPlans) {
  fault::FaultInjector a(MixedPlan(7));
  fault::FaultInjector c(MixedPlan(8));
  ASSERT_FALSE(a.LinkOutages().empty());
  ASSERT_FALSE(c.LinkOutages().empty());
  EXPECT_NE(a.LinkOutages().front().start, c.LinkOutages().front().start);
}

TEST(FaultInjectorTest, WindowsAreSortedAndDisjoint) {
  fault::FaultInjector injector(MixedPlan(19));
  for (const auto* windows :
       {&injector.LinkOutages(), &injector.LinkDegradations(),
        &injector.DiskErrorWindows()}) {
    for (std::size_t i = 0; i < windows->size(); ++i) {
      EXPECT_LT((*windows)[i].start, (*windows)[i].end);
      if (i > 0) {
        EXPECT_GT((*windows)[i].start, (*windows)[i - 1].end);
      }
    }
  }
}

TEST(FaultInjectorTest, LinkCutHitsExactlyTheOutageWindows) {
  fault::FaultInjector injector(MixedPlan(3));
  ASSERT_FALSE(injector.LinkOutages().empty());
  const auto window = injector.LinkOutages().front();
  // A booking strictly before the first window is clean; one overlapping
  // it is cut; the counters record only the cut.
  EXPECT_FALSE(injector.LinkCut(kSimEpoch, kSimEpoch + Milliseconds(1.0)));
  EXPECT_EQ(injector.Stats().link_cuts, 0u);
  EXPECT_TRUE(injector.LinkCut(window.start, window.start + Milliseconds(1.0)));
  EXPECT_EQ(injector.Stats().link_cuts, 1u);
  // Closed-open: a booking ending exactly at the window start is clean.
  EXPECT_FALSE(injector.LinkCut(kSimEpoch, window.start));
}

// --- Device integration: disk scans retry past error windows. ---------

TEST(FaultInjectorTest, CheckpointScanRetriesPastDiskErrorWindow) {
  fault::FaultConfig config;
  config.enabled = true;
  config.seed = 11;
  config.disk_errors_per_hour = 60.0;
  config.disk_error_mean = Milliseconds(50.0);
  fault::FaultInjector injector(config);
  ASSERT_FALSE(injector.DiskErrorWindows().empty());
  const auto window = injector.DiskErrorWindows().front();

  sim::Disk disk{sim::DiskConfig::Hdd()};
  storage::CheckpointStore store(disk);
  auto memory = RandomMemory(MiB(8), 17);
  store.Save("vm", storage::Checkpoint::CaptureFrom(memory), kSimEpoch);

  disk.SetFaultInjector(&injector);
  store.SetFaultInjector(&injector);
  // A scan booked into the error window fails and restarts past its end.
  const auto load = store.Load("vm", window.start);
  EXPECT_GE(load.read_retries, 1u);
  EXPECT_GE(load.ready_at, window.end);
  EXPECT_GE(disk.ReadErrors(), 1u);
  EXPECT_GE(injector.Stats().disk_read_errors, 1u);
}

// --- Recovery: corrupted recycled checkpoints degrade per page. -------

migration::MigrationStats RunRecycledMigration(bool rot,
                                               double corrupt_probability,
                                               double truncate_probability) {
  audit::SimAuditor auditor;  // conservation checks stay armed throughout
  TestBed bed;
  bed.simulator.SetAuditor(&auditor);
  auto memory = RandomMemory(MiB(8), 21);

  fault::FaultConfig config;
  config.enabled = true;
  config.seed = 5;
  config.corrupt_probability = corrupt_probability;
  config.corrupt_pages = 64;
  config.truncate_probability = truncate_probability;
  fault::FaultInjector injector(config);
  if (rot) bed.dst_store.SetFaultInjector(&injector);
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  bed.dst_store.SetFaultInjector(nullptr);
  EXPECT_EQ(rot, bed.dst_store.WasCorrupted("vm"));

  const auto knowledge = DigestsOf(memory);
  vm::UniformRandomWorkload churn(50.0, 31);
  churn.Advance(memory, Seconds(5.0));

  MigrationConfig migration_config;
  migration_config.strategy = Strategy::kHashes;
  auto run = bed.MakeRun(memory, migration_config);
  run.instruments.auditor = &auditor;
  run.source_knowledge = std::make_shared<const DigestMap>(knowledge);
  auto outcome = RunMigration(std::move(run));
  // The acceptance bar: the reconstructed memory is bit-identical to the
  // fault-free run's (both must equal the live source).
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  bed.simulator.SetAuditor(nullptr);
  return outcome.stats;
}

TEST(FaultRecovery, CorruptedCheckpointFallsBackPerPage) {
  const auto rotted = RunRecycledMigration(true, 1.0, 0.0);
  const auto clean = RunRecycledMigration(false, 0.0, 0.0);

  EXPECT_GT(rotted.fallback_pages, 0u);
  EXPECT_EQ(clean.fallback_pages, 0u);
  // Recycling still happened: checksum records, not a cold full copy.
  EXPECT_GT(rotted.pages_sent_checksum, 0u);
  // Page conservation with the fallback term.
  EXPECT_EQ(rotted.pages_matched_in_place + rotted.pages_from_checkpoint +
                rotted.fallback_pages,
            rotted.pages_sent_checksum);
  // The resends are pure extra traffic relative to the clean run.
  EXPECT_GT(rotted.tx_bytes.count, clean.tx_bytes.count);
}

TEST(FaultRecovery, TruncatedCheckpointFallsBackPerPage) {
  const auto truncated = RunRecycledMigration(true, 0.0, 1.0);
  EXPECT_GT(truncated.fallback_pages, 0u);
  EXPECT_EQ(truncated.pages_matched_in_place +
                truncated.pages_from_checkpoint + truncated.fallback_pages,
            truncated.pages_sent_checksum);
}

// --- Recovery: degradation slows, outage aborts. ----------------------

TEST(FaultRecovery, LinkDegradationStretchesTheMigration) {
  const auto run_once = [](bool degraded) {
    TestBed bed;
    auto memory = RandomMemory(MiB(32), 44);
    MigrationConfig config;
    config.strategy = Strategy::kFull;
    if (degraded) {
      // Degradation windows that merge into (almost) always-on.
      config.faults.enabled = true;
      config.faults.seed = 12;
      config.faults.link_degradations_per_hour = 36000.0;
      config.faults.link_degradation_mean = Hours(1.0);
      config.faults.link_degradation_factor = 0.25;
      config.faults.horizon = Hours(2.0);
    }
    return RunMigration(bed.MakeRun(memory, config)).stats.total_time;
  };
  const auto degraded = run_once(true);
  const auto clean = run_once(false);
  EXPECT_GT(degraded, clean);
}

TEST(FaultRecovery, LinkOutageAbortsTheSessionWithoutAnOutcome) {
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 55);
  MigrationConfig config;
  config.strategy = Strategy::kFull;
  config.faults.enabled = true;
  config.faults.seed = 2;
  config.faults.link_outages_per_hour = 360000.0;
  config.faults.link_outage_mean = Hours(1.0);
  config.faults.horizon = Hours(2.0);

  bool failed_at_seen = false;
  auto run = bed.MakeRun(memory, config);
  run.on_failed = [&](SimTime) { failed_at_seen = true; };
  MigrationSession session(std::move(run));
  session.Start();
  bed.simulator.Run();

  EXPECT_TRUE(session.Failed());
  EXPECT_TRUE(failed_at_seen);
  EXPECT_THROW(session.TakeOutcome(), migration::MigrationFailed);
}

// --- Recovery: a torn-down session leaves no dangling events. ---------

TEST(FaultRecovery, DestroyedSessionLeavesNoDanglingEvents) {
  TestBed bed;
  auto memory = RandomMemory(MiB(4), 66);
  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  {
    MigrationSession doomed(bed.MakeRun(memory, config));
    doomed.Start();
    // Let it get partway through its protocol, then destroy it with its
    // remaining events still queued.
    bed.simulator.RunUntil(kSimEpoch + Milliseconds(5.0));
  }
  // The leftover events must drain without touching the freed actors.
  bed.simulator.Run();

  // And the world is still usable: a fresh migration on the same bed.
  auto outcome = RunMigration(bed.MakeRun(memory, config));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
}

// --- Determinism: a faulted run replays bit-identically. --------------

TEST(FaultRecovery, FaultedMigrationReplaysDeterministically) {
  audit::ReplayCheck::Verify([](audit::SimAuditor& auditor) -> std::uint64_t {
    TestBed bed;
    bed.simulator.SetAuditor(&auditor);
    auto memory = RandomMemory(MiB(4), 33);
    MigrationConfig config;
    config.strategy = Strategy::kHashesPlusDedup;
    config.faults.enabled = true;
    config.faults.seed = 3;
    config.faults.link_degradations_per_hour = 120.0;
    config.faults.link_degradation_mean = Seconds(10.0);
    config.faults.disk_errors_per_hour = 30.0;
    config.faults.corrupt_probability = 1.0;
    config.faults.horizon = Hours(2.0);
    auto run = bed.MakeRun(memory, config);
    run.instruments.auditor = &auditor;
    auto outcome = RunMigration(std::move(run));
    bed.simulator.SetAuditor(nullptr);
    return static_cast<std::uint64_t>(outcome.stats.tx_bytes.count) ^
           (outcome.stats.fallback_pages << 32);
  });
}

// --- Scheduler: retry with backoff, attempt cap, abort reporting. -----

migration::MigrationConfig HashesConfig() {
  migration::MigrationConfig config;
  config.strategy = migration::Strategy::kHashes;
  return config;
}

TEST(FaultRecovery, SchedulerRetriesAfterOutageAndSucceeds) {
  PairWorld world;
  fault::FaultConfig fault_config;
  fault_config.enabled = true;
  fault_config.seed = 13;
  fault_config.link_outages_per_hour = 6.0;
  fault_config.link_outage_mean = Seconds(2.0);
  fault_config.horizon = Hours(4.0);
  fault::FaultInjector injector(fault_config);
  ASSERT_FALSE(injector.LinkOutages().empty());
  const auto window = injector.LinkOutages().front();

  core::SchedulerConfig scheduler_config;
  scheduler_config.instruments.injector = &injector;
  scheduler_config.max_attempts = 10;
  core::MigrationOrchestrator orchestrator(world.cluster, scheduler_config);
  auto vm = MakeVm("vm-1", MiB(16), 5);
  orchestrator.Deploy(*vm, "A");
  // Park the fleet just before the first outage so the attempt starts,
  // streams into the window, and is cut.
  orchestrator.RunFor(*vm, (window.start - kSimEpoch) - Milliseconds(1.0));
  orchestrator.MigrateAsync(*vm, "B", HashesConfig());
  ASSERT_EQ(orchestrator.Drain(), 1u);

  auto& scheduler = orchestrator.Scheduler();
  EXPECT_GE(scheduler.Retries(), 1u);
  EXPECT_TRUE(scheduler.Aborts().empty());
  ASSERT_EQ(scheduler.Completions().size(), 1u);
  const auto& done = scheduler.Completions().front();
  EXPECT_EQ(done.stats.retries, scheduler.Retries());
  // The retry could not have been admitted before failure + backoff, and
  // the failure happened inside the outage window.
  EXPECT_GT(done.completed_at,
            window.start + scheduler_config.retry_backoff);
  EXPECT_EQ(vm->CurrentHost(), "B");
}

/// An outage plan that merges into one wall: every attempt is cut.
fault::FaultConfig AlwaysDown(std::uint64_t seed) {
  fault::FaultConfig config;
  config.enabled = true;
  config.seed = seed;
  config.link_outages_per_hour = 360000.0;
  config.link_outage_mean = Hours(1.0);
  config.horizon = Hours(8.0);
  return config;
}

TEST(FaultRecovery, AttemptCapThrowsTypedAbortByDefault) {
  PairWorld world;
  fault::FaultInjector injector(AlwaysDown(2));
  core::SchedulerConfig scheduler_config;
  scheduler_config.instruments.injector = &injector;
  scheduler_config.max_attempts = 3;
  core::MigrationOrchestrator orchestrator(world.cluster, scheduler_config);
  auto vm = MakeVm("vm-1", MiB(8), 6);
  orchestrator.Deploy(*vm, "A");
  orchestrator.MigrateAsync(*vm, "B", HashesConfig());
  EXPECT_THROW(orchestrator.Drain(), core::MigrationAborted);
  EXPECT_EQ(vm->CurrentHost(), "A");  // the VM never moved
}

TEST(FaultRecovery, AttemptCapRecordsAbortWhenAskedToKeepDraining) {
  PairWorld world;
  fault::FaultInjector injector(AlwaysDown(2));
  core::SchedulerConfig scheduler_config;
  scheduler_config.instruments.injector = &injector;
  scheduler_config.max_attempts = 3;
  scheduler_config.throw_on_abort = false;
  core::MigrationOrchestrator orchestrator(world.cluster, scheduler_config);
  auto vm = MakeVm("vm-1", MiB(8), 6);
  orchestrator.Deploy(*vm, "A");
  const auto id = orchestrator.MigrateAsync(*vm, "B", HashesConfig());
  EXPECT_EQ(orchestrator.Drain(), 0u);

  auto& scheduler = orchestrator.Scheduler();
  ASSERT_EQ(scheduler.Aborts().size(), 1u);
  const auto& abort = scheduler.Aborts().front();
  EXPECT_EQ(abort.id, id);
  EXPECT_EQ(abort.attempts, 3u);
  EXPECT_EQ(abort.from, "A");
  EXPECT_EQ(abort.to, "B");
  EXPECT_EQ(scheduler.Retries(), 2u);  // attempts 1 and 2 were requeued
  EXPECT_TRUE(scheduler.Completions().empty());
  EXPECT_EQ(vm->CurrentHost(), "A");
}

// --- End to end: VECYCLE_FAULTS corrupts the write-back; the return ---
// --- leg recovers page by page and lands the exact memory image. ------

TEST(FaultRecovery, EnvFaultsCorruptWriteBackAndTheReturnLegRecovers) {
  const auto ping_pong = [](core::VmInstance& vm,
                            audit::SimAuditor* auditor)
      -> std::vector<migration::MigrationStats> {
    PairWorld world;
    core::SchedulerConfig scheduler_config;
    scheduler_config.instruments.auditor = auditor;
    core::MigrationOrchestrator orchestrator(world.cluster,
                                             scheduler_config);
    orchestrator.Deploy(vm, "A");
    orchestrator.RunFor(vm, Minutes(1.0));
    orchestrator.MigrateAsync(vm, "B", HashesConfig());
    EXPECT_EQ(orchestrator.Drain(), 1u);
    orchestrator.RunFor(vm, Minutes(1.0));
    orchestrator.MigrateAsync(vm, "A", HashesConfig());
    EXPECT_EQ(orchestrator.Drain(), 1u);
    std::vector<migration::MigrationStats> stats;
    for (const auto& completion :
         orchestrator.Scheduler().Completions()) {
      stats.push_back(completion.stats);
    }
    return stats;
  };

  // Faulted world: every checkpoint save rots 64 pages, so the leg-1
  // write-back at A hands leg 2 a corrupted image to recycle.
  auto faulted_vm = MakeVm("vm-1", MiB(16), 7);
  std::vector<migration::MigrationStats> faulted;
  {
    ScopedFaultsEnv env("seed=6,corrupt_prob=1,corrupt_pages=64");
    audit::SimAuditor auditor;
    faulted = ping_pong(*faulted_vm, &auditor);
  }
  ASSERT_EQ(faulted.size(), 2u);
  EXPECT_GT(faulted[1].fallback_pages, 0u);
  EXPECT_EQ(faulted_vm->CurrentHost(), "A");

  // Fault-free twin: identical seeds, no injection. The final memory
  // image must be bit-identical — recovery changed traffic, not state.
  auto clean_vm = MakeVm("vm-1", MiB(16), 7);
  audit::SimAuditor clean_auditor;
  const auto clean = ping_pong(*clean_vm, &clean_auditor);
  ASSERT_EQ(clean.size(), 2u);
  EXPECT_EQ(clean[1].fallback_pages, 0u);
  EXPECT_TRUE(faulted_vm->Memory().ContentEquals(clean_vm->Memory()));
}

}  // namespace
}  // namespace vecycle
