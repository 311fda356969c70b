// The observability layer: TraceRecorder invariants (span nesting,
// sim-time monotonicity, deterministic Chrome-trace output), the
// MetricsRegistry schema, the VECYCLE_TRACE environment gate, the
// single-pointer-test disabled path, and end-to-end traces/metrics from
// pre-copy and post-copy runs — including a ReplayCheck-style proof that
// the exported trace is byte-identical across identically seeded runs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "audit/replay.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "migration/engine.hpp"
#include "migration/observe.hpp"
#include "migration/postcopy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/checkpoint.hpp"
#include "vm/workload.hpp"

namespace vecycle {
namespace {

// --- TraceRecorder: recording invariants. ---

TEST(TraceRecorder, InternsNames) {
  obs::TraceRecorder rec;
  const auto a = rec.Name("round 1");
  const auto b = rec.Name("round 2");
  EXPECT_NE(a, b);
  EXPECT_EQ(rec.Name("round 1"), a);
}

TEST(TraceRecorder, SpansCloseInnermostFirstPerTrack) {
  obs::TraceRecorder rec;
  const auto process = rec.NewProcess("vm/hashes");
  const auto track = rec.Track(process, "rounds");
  const auto outer = rec.BeginSpan(track, rec.Name("outer"), Seconds(1.0));
  const auto inner = rec.BeginSpan(track, rec.Name("inner"), Seconds(2.0));
  // Closing the outer span with the inner still open is the kind of bug
  // the viewers silently mis-render; the recorder rejects it eagerly.
  EXPECT_THROW(rec.EndSpan(outer, Seconds(3.0)), CheckFailure);
  rec.EndSpan(inner, Seconds(3.0));
  rec.EndSpan(outer, Seconds(4.0));
  EXPECT_EQ(rec.EventCount(), 2u);
}

TEST(TraceRecorder, NestingIsPerTrackNotGlobal) {
  obs::TraceRecorder rec;
  const auto process = rec.NewProcess("vm");
  const auto track_a = rec.Track(process, "a");
  const auto track_b = rec.Track(process, "b");
  const auto on_a = rec.BeginSpan(track_a, rec.Name("s"), Seconds(1.0));
  const auto on_b = rec.BeginSpan(track_b, rec.Name("s"), Seconds(2.0));
  // Interleaved closes across *different* tracks are fine.
  EXPECT_NO_THROW(rec.EndSpan(on_a, Seconds(3.0)));
  EXPECT_NO_THROW(rec.EndSpan(on_b, Seconds(4.0)));
}

TEST(TraceRecorder, RejectsSpanEndingBeforeItStarts) {
  obs::TraceRecorder rec;
  const auto process = rec.NewProcess("vm");
  const auto track = rec.Track(process, "t");
  EXPECT_THROW(
      rec.Span(track, rec.Name("backwards"), Seconds(2.0), Seconds(1.0)),
      CheckFailure);
  const auto open = rec.BeginSpan(track, rec.Name("s"), Seconds(5.0));
  EXPECT_THROW(rec.EndSpan(open, Seconds(4.0)), CheckFailure);
}

TEST(TraceRecorder, RejectsEventsBeforeTheSimulationEpoch) {
  obs::TraceRecorder rec;
  const auto process = rec.NewProcess("vm");
  const auto track = rec.Track(process, "t");
  EXPECT_THROW(rec.Instant(track, rec.Name("early"), SimTime{-1}),
               CheckFailure);
}

TEST(TraceRecorder, RejectsUnknownTracksAndProcesses) {
  obs::TraceRecorder rec;
  EXPECT_THROW(rec.Track(/*process=*/0, "orphan"), CheckFailure);
  EXPECT_THROW(rec.Counter(/*track=*/0, rec.Name("c"), kSimEpoch, 1.0),
               CheckFailure);
}

TEST(TraceRecorder, ClearDropsEventsButKeepsInternedHandles) {
  obs::TraceRecorder rec;
  const auto process = rec.NewProcess("vm");
  const auto track = rec.Track(process, "t");
  const auto name = rec.Name("sample");
  rec.Counter(track, name, Seconds(1.0), 7.0);
  ASSERT_FALSE(rec.Empty());
  rec.Clear();
  EXPECT_TRUE(rec.Empty());
  // Components cache NameId/TrackId across runs; they must stay valid.
  EXPECT_EQ(rec.Name("sample"), name);
  EXPECT_NO_THROW(rec.Counter(track, name, Seconds(2.0), 8.0));
}

// --- Chrome-trace export. ---

/// Extracts every "ts" value, in emission order, from trace JSON.
std::vector<double> TimestampsOf(const std::string& json) {
  std::vector<double> out;
  const std::string key = "\"ts\":";
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + key.size())) {
    out.push_back(std::strtod(json.c_str() + at + key.size(), nullptr));
  }
  return out;
}

TEST(ChromeTrace, EventsAreEmittedInTimeOrder) {
  obs::TraceRecorder rec;
  const auto process = rec.NewProcess("vm");
  const auto track = rec.Track(process, "t");
  // Recorded out of order (retroactive spans do this in real runs); the
  // export must still be sorted so viewers and diffs see a stable file.
  rec.Span(track, rec.Name("late"), Seconds(9.0), Seconds(10.0));
  rec.Instant(track, rec.Name("mid"), Seconds(5.0));
  rec.Counter(track, rec.Name("early"), Seconds(1.0), 3.0);
  const auto stamps = TimestampsOf(rec.ChromeTraceJson());
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_TRUE(std::is_sorted(stamps.begin(), stamps.end()));
}

TEST(ChromeTrace, CarriesMetadataArgsAndPhases) {
  obs::TraceRecorder rec;
  const auto process = rec.NewProcess("vm \"quoted\"");
  const auto track = rec.Track(process, "rounds");
  const auto span = rec.BeginSpan(track, rec.Name("round 1"), Seconds(1.0));
  rec.Arg(rec.Name("pages"), 2048);
  rec.EndSpan(span, Seconds(2.0));
  rec.Counter(track, rec.Name("dirty_pages"), Seconds(2.0), 37.0);
  rec.Instant(track, rec.Name("fault"), Seconds(3.0));

  const std::string json = rec.ChromeTraceJson();
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("vm \\\"quoted\\\""), std::string::npos);  // escaped
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"pages\":2048"), std::string::npos);
  EXPECT_NE(json.find("\"dirty_pages\":37"), std::string::npos);
  // A span of 1 s starting at 1 s: microsecond timestamps, fixed
  // three-decimal fraction for nanosecond precision.
  EXPECT_NE(json.find("\"ts\":1000000.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1000000.000"), std::string::npos);
}

// --- Environment gate (mirrors VECYCLE_AUDIT). ---

TEST(TraceEnv, ParsingMatchesDocumentedValues) {
  for (const char* on : {"1", "true", "TRUE", "on", "yes"}) {
    ASSERT_EQ(setenv("VECYCLE_TRACE", on, /*overwrite=*/1), 0);
    EXPECT_TRUE(obs::EnvEnabled()) << on;
  }
  for (const char* off : {"0", "false", "off", "no", ""}) {
    ASSERT_EQ(setenv("VECYCLE_TRACE", off, 1), 0);
    EXPECT_FALSE(obs::EnvEnabled()) << off;
  }
  ASSERT_EQ(unsetenv("VECYCLE_TRACE"), 0);
  EXPECT_FALSE(obs::EnvEnabled());
}

// --- Metrics registry. ---

TEST(Metrics, SerializesTheStableSchema) {
  obs::MetricsRegistry registry;
  auto& record = registry.NewRecord("vm/hashes", "precopy");
  record.Counter("tx_bytes", 123);
  record.Counter("rounds", 4);
  record.Gauge("compression_ratio", 0.5);
  const std::string json = registry.ToJson("obs_test");
  EXPECT_NE(json.find("\"schema\":\"vecycle.metrics.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"source\":\"obs_test\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"vm/hashes\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"precopy\""), std::string::npos);
  EXPECT_NE(json.find("\"tx_bytes\":123"), std::string::npos);
  EXPECT_NE(json.find("\"compression_ratio\":0.5"), std::string::npos);
  EXPECT_EQ(registry.Count(), 1u);
  registry.Clear();
  EXPECT_TRUE(registry.Empty());
}

// --- End-to-end: migrations feed the recorders. ---

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

/// One traced return migration (stale checkpoint at the destination,
/// churn in between) recording into the given private recorders.
migration::MigrationOutcome RunTracedReturnMigration(
    obs::TraceRecorder& tracer, obs::MetricsRegistry& metrics,
    migration::Strategy strategy = migration::Strategy::kHashes) {
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 11);
  const auto departure_generations = memory.Generations();
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  vm::UniformRandomWorkload churn(200.0, 99);
  churn.Advance(memory, Seconds(10.0));

  migration::MigrationConfig config;
  config.strategy = strategy;
  auto run = bed.MakeRun(memory, config);
  run.departure_generations = departure_generations;
  run.instruments.tracer = &tracer;
  run.instruments.metrics = &metrics;
  auto outcome = migration::RunMigration(std::move(run));
  // The run-private wiring must be gone: shared resources cannot keep a
  // pointer into a recorder the caller may destroy.
  EXPECT_EQ(bed.simulator.Tracer(), nullptr);
  EXPECT_EQ(bed.src_cpu.Tracer(), nullptr);
  EXPECT_EQ(bed.dst_cpu.Tracer(), nullptr);
  EXPECT_EQ(bed.dst_store.Tracer(), nullptr);
  return outcome;
}

TEST(MigrationTrace, EmitsRoundSpansPhasesAndCounters) {
  obs::TraceRecorder tracer;
  obs::MetricsRegistry metrics;
  const auto outcome = RunTracedReturnMigration(tracer, metrics);
  ASSERT_FALSE(tracer.Empty());

  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"vm/hashes\""), std::string::npos);  // process
  EXPECT_NE(json.find("\"round 1\""), std::string::npos);
  EXPECT_NE(json.find("\"setup\""), std::string::npos);
  EXPECT_NE(json.find("\"migration\""), std::string::npos);
  EXPECT_NE(json.find("\"downtime\""), std::string::npos);
  EXPECT_NE(json.find("\"wire_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"dirty_pages\""), std::string::npos);
  EXPECT_GT(outcome.stats.rounds, 1u);
  // One span per round on the source-rounds track.
  for (std::uint32_t r = 1; r <= outcome.stats.rounds; ++r) {
    const std::string name = "\"round " + std::to_string(r);
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
}

TEST(MigrationTrace, MetricsRecordCoversEveryStatsField) {
  obs::TraceRecorder tracer;
  obs::MetricsRegistry metrics;
  RunTracedReturnMigration(tracer, metrics);
  ASSERT_EQ(metrics.Count(), 1u);
  const auto& record = metrics.Records().front();
  EXPECT_EQ(record.kind, "precopy");

  const auto has_counter = [&record](std::string_view name) {
    for (const auto& [key, value] : record.counters) {
      if (key == name) return true;
    }
    return false;
  };
  // Every MigrationStats field, by serialized name. Extending the struct
  // without extending RecordMigrationStats should fail here.
  for (const char* name :
       {"rounds", "tx_bytes", "bulk_exchange_bytes", "query_bytes",
        "query_count", "pages_sent_full", "pages_sent_checksum",
        "pages_dup_ref", "pages_skipped_clean", "pages_resent_dirty",
        "pages_matched_in_place", "pages_from_checkpoint",
        "fallback_pages", "disk_read_errors", "retries",
        "source_hashed_bytes", "dest_hashed_bytes", "payload_bytes_original",
        "payload_bytes_on_wire", "total_time_ns", "downtime_ns",
        "setup_time_ns", "round1_pages"}) {
    EXPECT_TRUE(has_counter(name)) << name;
  }
  const auto has_gauge = [&record](std::string_view name) {
    for (const auto& [key, value] : record.gauges) {
      if (key == name) return true;
    }
    return false;
  };
  for (const char* name : {"total_time_s", "downtime_s", "setup_time_s",
                           "throughput_mib_per_s", "compression_ratio"}) {
    EXPECT_TRUE(has_gauge(name)) << name;
  }
}

TEST(MigrationTrace, DisabledRunTouchesNoRecorder) {
  ASSERT_EQ(unsetenv("VECYCLE_TRACE"), 0);
  obs::GlobalTrace().Clear();
  obs::GlobalMetrics().Clear();
  TestBed bed;
  auto memory = RandomMemory(MiB(2), 5);
  migration::MigrationConfig config;
  ASSERT_FALSE(config.trace);
  migration::RunMigration(bed.MakeRun(memory, config));
  EXPECT_TRUE(obs::GlobalTrace().Empty());
  EXPECT_TRUE(obs::GlobalMetrics().Empty());
}

TEST(MigrationTrace, ConfigFlagArmsTheGlobalRecorder) {
  ASSERT_EQ(unsetenv("VECYCLE_TRACE"), 0);
  obs::GlobalTrace().Clear();
  obs::GlobalMetrics().Clear();
  TestBed bed;
  auto memory = RandomMemory(MiB(2), 5);
  migration::MigrationConfig config;
  config.trace = true;
  migration::RunMigration(bed.MakeRun(memory, config));
  EXPECT_FALSE(obs::GlobalTrace().Empty());
  EXPECT_EQ(obs::GlobalMetrics().Count(), 1u);
  obs::GlobalTrace().Clear();
  obs::GlobalMetrics().Clear();
}

TEST(MigrationTrace, EnvVariableArmsTheGlobalRecorder) {
  ASSERT_EQ(setenv("VECYCLE_TRACE", "1", 1), 0);
  obs::GlobalTrace().Clear();
  obs::GlobalMetrics().Clear();
  TestBed bed;
  auto memory = RandomMemory(MiB(2), 6);
  migration::MigrationConfig config;
  ASSERT_FALSE(config.trace);
  migration::RunMigration(bed.MakeRun(memory, config));
  ASSERT_EQ(unsetenv("VECYCLE_TRACE"), 0);
  EXPECT_FALSE(obs::GlobalTrace().Empty());
  obs::GlobalTrace().Clear();
  obs::GlobalMetrics().Clear();
}

// --- Determinism: the exported artifacts are byte-identical. ---

TEST(MigrationTrace, TraceIsByteIdenticalAcrossSeededRuns) {
  obs::TraceRecorder first_trace;
  obs::MetricsRegistry first_metrics;
  RunTracedReturnMigration(first_trace, first_metrics);
  obs::TraceRecorder second_trace;
  obs::MetricsRegistry second_metrics;
  RunTracedReturnMigration(second_trace, second_metrics);
  EXPECT_EQ(first_trace.ChromeTraceJson(), second_trace.ChromeTraceJson());
  EXPECT_EQ(first_metrics.ToJson("replay"), second_metrics.ToJson("replay"));
}

TEST(MigrationTrace, ReplayCheckCoversTheTracedRun) {
  // The trace file content folded into the ReplayCheck fingerprint: any
  // wall-clock leakage or unstable formatting in the recorder itself
  // would diverge here even if the simulation stayed deterministic.
  const audit::ReplayCheck::Scenario scenario =
      [](audit::SimAuditor& auditor) {
        obs::TraceRecorder tracer;
        obs::MetricsRegistry metrics;
        TestBed bed;
        auto memory = RandomMemory(MiB(4), 17);
        const auto departure_generations = memory.Generations();
        bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                           kSimEpoch);
        vm::UniformRandomWorkload churn(150.0, 42);
        churn.Advance(memory, Seconds(8.0));

        migration::MigrationConfig config;
        config.strategy = migration::Strategy::kHashesPlusDedup;
        auto run = bed.MakeRun(memory, config);
        run.departure_generations = departure_generations;
        run.instruments.auditor = &auditor;
        run.instruments.tracer = &tracer;
        run.instruments.metrics = &metrics;
        migration::RunMigration(std::move(run));

        std::uint64_t fingerprint = 0xcbf29ce484222325ull;
        for (const char c :
             tracer.ChromeTraceJson() + metrics.ToJson("replay")) {
          fingerprint = (fingerprint ^ static_cast<unsigned char>(c)) *
                        0x100000001b3ull;
        }
        return fingerprint;
      };
  EXPECT_NO_THROW(audit::ReplayCheck::Verify(scenario));
}

// --- Post-copy. ---

TEST(PostCopyTrace, EmitsPhasesFaultsAndMetrics) {
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

  obs::TraceRecorder tracer;
  obs::MetricsRegistry metrics;
  migration::PostCopyRun run;
  run.simulator = &simulator;
  run.link = &link;
  run.source_memory = &memory;
  run.source_cpu = &src_cpu;
  run.dest_cpu = &dst_cpu;
  run.dest_store = &dst_store;
  run.instruments.tracer = &tracer;
  run.instruments.metrics = &metrics;
  const auto outcome = migration::RunPostCopyMigration(std::move(run));
  EXPECT_EQ(simulator.Tracer(), nullptr);  // detached on completion

  const std::string json = tracer.ChromeTraceJson();
  EXPECT_NE(json.find("\"vm/postcopy\""), std::string::npos);
  EXPECT_NE(json.find("\"switchover\""), std::string::npos);
  EXPECT_NE(json.find("\"residency\""), std::string::npos);
  EXPECT_NE(json.find("\"remaining_pages\""), std::string::npos);
  if (outcome.stats.remote_faults > 0) {
    EXPECT_NE(json.find("\"remote_fault\""), std::string::npos);
  }

  ASSERT_EQ(metrics.Count(), 1u);
  const auto& record = metrics.Records().front();
  EXPECT_EQ(record.kind, "postcopy");
  EXPECT_EQ(record.counters.size(), 8u);  // every PostCopyStats field
  EXPECT_EQ(record.gauges.size(), 3u);
}

}  // namespace
}  // namespace vecycle
