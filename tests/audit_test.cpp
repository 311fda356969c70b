// The audit layer: eager causality/wire/checkpoint checks in SimAuditor,
// run-level conservation and end-state-digest audits across the pre-copy
// strategies and post-copy, the VECYCLE_AUDIT environment gate, and the
// ReplayCheck determinism harness (including detection of an injected
// divergence).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "audit/audit.hpp"
#include "audit/replay.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "migration/engine.hpp"
#include "migration/postcopy.hpp"
#include "storage/checkpoint.hpp"
#include "vm/workload.hpp"

namespace vecycle::audit {
namespace {

// --- SimAuditor: eager invariant checks. ---

TEST(SimAuditor, AcceptsMonotonicEventTimes) {
  SimAuditor auditor;
  auditor.OnEventExecuted(Seconds(1.0), 0);
  auditor.OnEventExecuted(Seconds(1.0), 1);  // ties are legal
  auditor.OnEventExecuted(Seconds(2.0), 2);
  EXPECT_EQ(auditor.Report().events_executed, 3u);
}

TEST(SimAuditor, RejectsTimeRunningBackwards) {
  SimAuditor auditor;
  auditor.OnEventExecuted(Seconds(2.0), 0);
  EXPECT_THROW(auditor.OnEventExecuted(Seconds(1.0), 1), CheckFailure);
}

TEST(SimAuditor, RejectsArrivalBeforeDeparture) {
  SimAuditor auditor;
  auditor.OnMessageSent(0, 0, 128, Seconds(1.0), Seconds(1.5));  // fine
  EXPECT_THROW(
      auditor.OnMessageSent(0, 0, 128, Seconds(2.0), Seconds(1.0)),
      CheckFailure);
}

TEST(SimAuditor, RejectsCorruptCheckpoint) {
  SimAuditor auditor;
  auditor.OnCheckpointVerified(true);
  EXPECT_EQ(auditor.Report().checkpoint_verifications, 1u);
  EXPECT_THROW(auditor.OnCheckpointVerified(false), CheckFailure);
}

TEST(SimAuditor, AccountsWireBytesPerChannel) {
  SimAuditor auditor;
  auditor.OnMessageSent(0, 0, 100, kSimEpoch, Seconds(1.0));
  auditor.OnMessageSent(1, 0, 40, kSimEpoch, Seconds(1.0));
  auditor.OnMessageSent(0, 1, 60, Seconds(1.0), Seconds(2.0));
  EXPECT_EQ(auditor.ChannelBytes(0), Bytes{160});
  EXPECT_EQ(auditor.ChannelBytes(1), Bytes{40});
  EXPECT_EQ(auditor.ChannelBytes(7), Bytes{0});
  EXPECT_EQ(auditor.Report().wire_bytes, Bytes{200});
}

TEST(SimAuditor, FingerprintIsOrderSensitive) {
  SimAuditor a;
  a.OnScalar("x", 1);
  a.OnScalar("y", 2);
  SimAuditor b;
  b.OnScalar("y", 2);
  b.OnScalar("x", 1);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

// --- Simulator hook: the auditor observes every executed event. ---

TEST(SimulatorAudit, ObservesEveryExecutedEvent) {
  sim::Simulator simulator;
  SimAuditor auditor;
  simulator.SetAuditor(&auditor);
  for (int i = 0; i < 5; ++i) {
    simulator.Schedule(Seconds(1.0 * (i + 1)), [] {});
  }
  simulator.Run();
  simulator.SetAuditor(nullptr);
  EXPECT_EQ(auditor.Report().events_executed, 5u);
  EXPECT_EQ(simulator.ProcessedEvents(), 5u);
}

// --- End-to-end migration audits. ---

struct TestBed {
  sim::Simulator simulator;
  sim::Link link{sim::LinkConfig::Lan()};
  sim::ChecksumEngine src_cpu{sim::ChecksumEngineConfig{}};
  sim::ChecksumEngine dst_cpu{sim::ChecksumEngineConfig{}};
  sim::Disk src_disk{sim::DiskConfig::Hdd()};
  sim::Disk dst_disk{sim::DiskConfig::Hdd()};
  storage::CheckpointStore src_store{src_disk};
  storage::CheckpointStore dst_store{dst_disk};

  migration::MigrationRun MakeRun(vm::GuestMemory& memory,
                                  migration::MigrationConfig config) {
    migration::MigrationRun run;
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

/// Runs one audited return migration (stale checkpoint + departure
/// metadata at the destination, churn in between) under `strategy`.
migration::MigrationOutcome RunAuditedReturnMigration(
    migration::Strategy strategy, SimAuditor* auditor = nullptr,
    std::uint64_t memory_seed = 11, double churn_rate = 200.0) {
  TestBed bed;
  auto memory = RandomMemory(MiB(8), memory_seed);

  const auto departure_generations = memory.Generations();
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);

  vm::UniformRandomWorkload churn(churn_rate, 99);
  churn.Advance(memory, Seconds(10.0));

  migration::MigrationConfig config;
  config.strategy = strategy;
  config.audit = true;
  auto run = bed.MakeRun(memory, config);
  run.departure_generations = departure_generations;
  run.instruments.auditor = auditor;
  return migration::RunMigration(std::move(run));
}

class AuditedStrategies
    : public ::testing::TestWithParam<migration::Strategy> {};

TEST_P(AuditedStrategies, ConservationAndDigestAuditsRunGreen) {
  // A violation of any audited invariant (page conservation, wire-byte
  // conservation, end-state digest, causality, checkpoint integrity)
  // would throw CheckFailure out of RunMigration/TakeOutcome.
  const auto outcome = RunAuditedReturnMigration(GetParam());
  EXPECT_GT(outcome.stats.tx_bytes.count, 0u);
}

TEST_P(AuditedStrategies, ColdFirstVisitAuditsRunGreen) {
  // No checkpoint at the destination: every strategy degrades to a full
  // first round and the audits must still balance.
  TestBed bed;
  auto memory = RandomMemory(MiB(4), 21);
  migration::MigrationConfig config;
  config.strategy = GetParam();
  config.audit = true;
  const auto outcome =
      migration::RunMigration(bed.MakeRun(memory, config));
  EXPECT_EQ(outcome.stats.Round1Pages(), memory.PageCount());
}

INSTANTIATE_TEST_SUITE_P(
    FirstRoundStrategies, AuditedStrategies,
    ::testing::Values(migration::Strategy::kFull,
                      migration::Strategy::kHashes,
                      migration::Strategy::kDirtyTracking,
                      migration::Strategy::kHashesPlusDedup),
    [](const ::testing::TestParamInfo<migration::Strategy>& info) {
      switch (info.param) {
        case migration::Strategy::kFull:
          return "Full";
        case migration::Strategy::kHashes:
          return "Hashes";
        case migration::Strategy::kDirtyTracking:
          return "Dirty";
        case migration::Strategy::kHashesPlusDedup:
          return "Combined";
        default:
          return "Other";
      }
    });

TEST(MigrationAudit, ExternalAuditorObservesTheRun) {
  SimAuditor auditor;
  RunAuditedReturnMigration(migration::Strategy::kHashes, &auditor);
  const auto& report = auditor.Report();
  EXPECT_GT(report.events_executed, 0u);
  EXPECT_GT(report.messages_sent, 0u);
  EXPECT_GT(report.wire_bytes.count, 0u);
  // The stale checkpoint was loaded (and re-verified) during setup.
  EXPECT_GE(report.checkpoint_verifications, 1u);
  // Finalize folded outcome stats into the stream.
  EXPECT_GT(report.scalars_recorded, 0u);
}

TEST(MigrationAudit, AuditorDetachesFromSharedResources) {
  TestBed bed;
  auto memory = RandomMemory(MiB(2), 5);
  migration::MigrationConfig config;
  config.audit = true;
  migration::RunMigration(bed.MakeRun(memory, config));
  // The session-private auditor is gone; shared resources must not keep
  // a dangling pointer to it.
  EXPECT_EQ(bed.simulator.Auditor(), nullptr);
  EXPECT_EQ(bed.dst_store.Auditor(), nullptr);
}

TEST(MigrationAudit, EnvVariableEnablesAuditing) {
  ASSERT_EQ(setenv("VECYCLE_AUDIT", "1", /*overwrite=*/1), 0);
  EXPECT_TRUE(EnvEnabled());
  // config.audit stays false; the env gate alone must arm the layer, and
  // the audited run must pass.
  TestBed bed;
  auto memory = RandomMemory(MiB(2), 6);
  migration::MigrationConfig config;
  ASSERT_FALSE(config.audit);
  migration::RunMigration(bed.MakeRun(memory, config));
  ASSERT_EQ(unsetenv("VECYCLE_AUDIT"), 0);
  EXPECT_FALSE(EnvEnabled());
}

TEST(MigrationAudit, EnvParsingMatchesDocumentedValues) {
  for (const char* on : {"1", "true", "TRUE", "on", "yes"}) {
    ASSERT_EQ(setenv("VECYCLE_AUDIT", on, 1), 0);
    EXPECT_TRUE(EnvEnabled()) << on;
  }
  for (const char* off : {"0", "false", "off", "no", ""}) {
    ASSERT_EQ(setenv("VECYCLE_AUDIT", off, 1), 0);
    EXPECT_FALSE(EnvEnabled()) << off;
  }
  ASSERT_EQ(unsetenv("VECYCLE_AUDIT"), 0);
}

// --- Post-copy audits. ---

TEST(PostCopyAudit, ResidencyConservationAndDigestRunGreen) {
  sim::Simulator simulator;
  sim::Link link{sim::LinkConfig::Lan()};
  sim::ChecksumEngine src_cpu{sim::ChecksumEngineConfig{}};
  sim::ChecksumEngine dst_cpu{sim::ChecksumEngineConfig{}};
  sim::Disk dst_disk{sim::DiskConfig::Ssd()};
  storage::CheckpointStore dst_store{dst_disk};

  auto memory = RandomMemory(MiB(8), 31);
  dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory), kSimEpoch);
  vm::UniformRandomWorkload churn(200.0, 7);
  churn.Advance(memory, Seconds(5.0));

  SimAuditor auditor;
  migration::PostCopyRun run;
  run.simulator = &simulator;
  run.link = &link;
  run.source_memory = &memory;
  run.source_cpu = &src_cpu;
  run.dest_cpu = &dst_cpu;
  run.dest_store = &dst_store;
  run.instruments.auditor = &auditor;
  const auto outcome = migration::RunPostCopyMigration(std::move(run));

  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  EXPECT_EQ(outcome.stats.pages_from_checkpoint +
                outcome.stats.pages_prefetched +
                outcome.stats.remote_faults,
            memory.PageCount());
  EXPECT_GT(auditor.Report().events_executed, 0u);
  EXPECT_EQ(simulator.Auditor(), nullptr);  // detached on completion
}

// --- Determinism harness. ---

/// One full audited return migration as a ReplayCheck scenario; the
/// memory seed parameterizes injected divergence.
std::uint64_t MigrationScenario(SimAuditor& auditor,
                                std::uint64_t memory_seed) {
  TestBed bed;
  auto memory = RandomMemory(MiB(4), memory_seed);
  const auto departure_generations = memory.Generations();
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  vm::UniformRandomWorkload churn(150.0, 42);
  churn.Advance(memory, Seconds(8.0));

  migration::MigrationConfig config;
  config.strategy = migration::Strategy::kHashes;
  auto run = bed.MakeRun(memory, config);
  run.departure_generations = departure_generations;
  run.instruments.auditor = &auditor;
  const auto outcome = migration::RunMigration(std::move(run));
  return outcome.stats.tx_bytes.count ^ (outcome.stats.rounds * 0x9e37ull);
}

TEST(ReplayCheck, IdenticalRunsAreDeterministic) {
  const auto result = ReplayCheck::Compare(
      [](SimAuditor& auditor) { return MigrationScenario(auditor, 17); });
  EXPECT_TRUE(result.Deterministic());
  EXPECT_NO_THROW(ReplayCheck::Verify(
      [](SimAuditor& auditor) { return MigrationScenario(auditor, 17); }));
}

TEST(ReplayCheck, DetectsInjectedDivergence) {
  // A scenario with hidden mutable state — exactly the bug class the
  // harness exists to catch (unseeded RNGs, leftover statics).
  std::uint64_t calls = 0;
  const ReplayCheck::Scenario diverging = [&calls](SimAuditor& auditor) {
    return MigrationScenario(auditor, 100 + calls++);
  };
  const auto result = ReplayCheck::Compare(diverging);
  EXPECT_FALSE(result.Deterministic());

  calls = 0;
  EXPECT_THROW(ReplayCheck::Verify(diverging), CheckFailure);
}

TEST(ReplayCheck, DetectsDivergenceInStatsAlone) {
  // Even with an empty event stream, a diverging scenario-returned stat
  // fingerprint must fail the check.
  std::uint64_t calls = 0;
  const auto result =
      ReplayCheck::Compare([&calls](SimAuditor&) { return calls++; });
  EXPECT_FALSE(result.Deterministic());
}

}  // namespace
}  // namespace vecycle::audit
