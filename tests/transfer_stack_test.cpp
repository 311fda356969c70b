// Transfer-stack tests (QEMU parity: multifd, recycle-aware delta
// encoding, auto-converge). Multifd must beat the single-stream TCP
// window cap on a WAN link; delta encoding must cut wire bytes on a
// return migration and degrade per page when the recycled baseline
// rotted; auto-converge must throttle a diverging writer into
// convergence. All of it under the byte-conservation audits.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "migration/engine.hpp"
#include "migration/observe.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "storage/checkpoint.hpp"
#include "vm/workload.hpp"

namespace vecycle::migration {
namespace {

struct TestBed {
  explicit TestBed(sim::LinkConfig link_config = sim::LinkConfig::Lan())
      : link(link_config) {}

  sim::Simulator simulator;
  sim::Link link;
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

Bytes SumPerChannel(const MigrationStats& stats) {
  Bytes total;
  for (const auto bytes : stats.tx_bytes_per_channel) total += bytes;
  return total;
}

// --- Multifd -----------------------------------------------------------

/// One WAN pre-copy of a cold 16 MiB VM with `channels` forward streams,
/// audits armed. The single-stream case is capped by the 192 KiB TCP
/// window (~56 Mbps effective); multifd must aggregate past the cap.
MigrationStats RunWanFull(std::uint32_t channels, bool audit = true) {
  TestBed bed{sim::LinkConfig::Wan()};
  auto memory = RandomMemory(MiB(16), 0x3a1);
  MigrationConfig config;
  config.strategy = Strategy::kFull;
  config.audit = audit;
  config.multifd.enabled = channels > 1;
  config.multifd.channels = channels;
  auto outcome = RunMigration(bed.MakeRun(memory, config));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  return outcome.stats;
}

TEST(Multifd, FourChannelsAtLeastTwiceAsFastOnWan) {
  const auto one = RunWanFull(1);
  const auto four = RunWanFull(4);

  // Same pages, near-identical wire bytes (striping a batch into four
  // messages costs four headers instead of one, and rounds end with one
  // marker per channel) — only the wall clock changes materially.
  EXPECT_EQ(one.Round1Pages(), four.Round1Pages());
  EXPECT_GE(four.tx_bytes.count, one.tx_bytes.count);
  EXPECT_LT(four.tx_bytes.count - one.tx_bytes.count,
            one.tx_bytes.count / 100);
  ASSERT_GT(ToSeconds(four.total_time), 0.0);
  const double speedup =
      ToSeconds(one.total_time) / ToSeconds(four.total_time);
  EXPECT_GE(speedup, 2.0) << "multifd speedup only " << speedup << "x";

  // The per-channel accounting is complete and balanced: every stream
  // carried a nontrivial share (pages stripe page % N, so no channel
  // can starve).
  EXPECT_EQ(four.multifd_channels, 4u);
  ASSERT_EQ(four.tx_bytes_per_channel.size(), 4u);
  EXPECT_EQ(SumPerChannel(four), four.tx_bytes);
  for (const auto bytes : four.tx_bytes_per_channel) {
    EXPECT_GT(bytes.count, four.tx_bytes.count / 8);
  }
}

TEST(Multifd, SingleChannelIsByteIdenticalToDisabled) {
  // multifd.enabled with channels = 1 must take the exact pre-multifd
  // path: same times, same bytes, same everything (MigrationStats
  // field-wise equality).
  const auto off = RunWanFull(1);
  TestBed bed{sim::LinkConfig::Wan()};
  auto memory = RandomMemory(MiB(16), 0x3a1);
  MigrationConfig config;
  config.strategy = Strategy::kFull;
  config.audit = true;
  config.multifd.enabled = true;
  config.multifd.channels = 1;
  const auto on = RunMigration(bed.MakeRun(memory, config)).stats;
  EXPECT_EQ(off, on);
}

TEST(Multifd, ReconstructsUnderChurnWithResends) {
  // Multi-round convergence with a live writer: later-round resends
  // stripe across the same channels (page % N) and per-channel FIFO
  // ordering must keep the newest content last.
  TestBed bed{sim::LinkConfig::Wan()};
  auto memory = RandomMemory(MiB(8), 0x3a2);
  vm::UniformRandomWorkload churn(300.0, 0xc4u);
  MigrationConfig config;
  config.strategy = Strategy::kFull;
  config.audit = true;
  config.multifd.enabled = true;
  config.multifd.channels = 3;  // deliberately not a power of two
  config.stop_copy_threshold_pages = 64;
  auto run = bed.MakeRun(memory, config);
  run.workload = &churn;
  auto outcome = RunMigration(std::move(run));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  EXPECT_GT(outcome.stats.rounds, 1u);
  EXPECT_GT(outcome.stats.pages_resent_dirty, 0u);
  EXPECT_EQ(SumPerChannel(outcome.stats), outcome.stats.tx_bytes);
}

TEST(Multifd, EmitsPerChannelTimelinesAndMetrics) {
  TestBed bed{sim::LinkConfig::Wan()};
  auto memory = RandomMemory(MiB(4), 0x3a3);
  MigrationConfig config;
  config.strategy = Strategy::kFull;
  config.trace = true;
  config.multifd.enabled = true;
  config.multifd.channels = 2;
  obs::TraceRecorder tracer;
  obs::MetricsRegistry metrics;
  auto run = bed.MakeRun(memory, config);
  run.instruments.tracer = &tracer;
  run.instruments.metrics = &metrics;
  auto outcome = RunMigration(std::move(run));

  // Per-channel byte and queue-depth timelines, one labelled series per
  // stream — not one aggregated "wire_bytes" line.
  const std::string trace = tracer.ChromeTraceJson();
  EXPECT_NE(trace.find("wire_bytes[ch0]"), std::string::npos);
  EXPECT_NE(trace.find("wire_bytes[ch1]"), std::string::npos);
  EXPECT_NE(trace.find("queue_depth[ch0]"), std::string::npos);
  EXPECT_NE(trace.find("queue_depth[ch1]"), std::string::npos);

  // The metrics record carries the per-channel counters, and they sum to
  // tx_bytes (the invariant tools/validate_metrics.py enforces).
  auto& record =
      RecordMigrationStats(metrics, "transfer_stack", outcome.stats);
  std::uint64_t sum = 0;
  std::uint64_t channels = 0;
  for (const auto& [name, value] : record.counters) {
    if (name == "multifd_channels") channels = value;
    if (name.rfind("tx_bytes_ch", 0) == 0) sum += value;
  }
  EXPECT_EQ(channels, 2u);
  EXPECT_EQ(sum, outcome.stats.tx_bytes.count);
}

// --- Recycle-aware delta encoding --------------------------------------

/// A return migration: the destination holds the VM's recycled
/// checkpoint, the run carries its digests + departure seeds, and `dirty`
/// pages were rewritten since departure. Returns the outcome stats.
MigrationStats RunReturnMigration(bool delta, std::uint64_t dirty_pages,
                                  vm::GuestMemory* check_against = nullptr) {
  TestBed bed;
  auto memory = RandomMemory(MiB(16), 0x0de17a);
  const auto departure_seeds = memory.Seeds();
  const auto departure_generations = memory.Generations();
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  const auto knowledge = DigestsOf(memory);

  // The VM diverges: a contiguous working set is rewritten.
  for (std::uint64_t p = 0; p < dirty_pages; ++p) {
    memory.WritePage(p, 0xbeef0000 + p);
  }

  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  config.audit = true;
  config.delta.enabled = delta;
  auto run = bed.MakeRun(memory, config);
  run.source_knowledge = std::make_shared<const DigestMap>(knowledge);
  run.departure_generations = departure_generations;
  run.departure_seeds = departure_seeds;
  auto outcome = RunMigration(std::move(run));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  if (check_against != nullptr) {
    EXPECT_TRUE(outcome.dest_memory->ContentEquals(*check_against));
  }
  return outcome.stats;
}

TEST(DeltaEncoding, CutsWireBytesOnReturnMigration) {
  const std::uint64_t dirty = 1024;
  const auto full = RunReturnMigration(/*delta=*/false, dirty);
  const auto delta = RunReturnMigration(/*delta=*/true, dirty);

  // Same classification, measurably fewer wire bytes: most dirty pages
  // ship as sub-page deltas against the recycled baseline.
  EXPECT_EQ(full.Round1Pages(), delta.Round1Pages());
  EXPECT_GT(delta.pages_sent_delta, dirty / 2);
  EXPECT_LT(delta.tx_bytes.count, full.tx_bytes.count);
  EXPECT_GT(delta.delta_bytes_original.count,
            delta.delta_bytes_on_wire.count);
  // Deltas are a subset of the full-content sends, so round-1
  // conservation held inside RunReturnMigration's audit already; the
  // fallback counter stays quiet on a pristine checkpoint.
  EXPECT_LE(delta.pages_sent_delta, delta.pages_sent_full);
  EXPECT_EQ(delta.pages_delta_fallback, 0u);
  EXPECT_EQ(delta.fallback_pages, 0u);
  // And it is faster, not just thinner.
  EXPECT_LT(ToSeconds(delta.total_time), ToSeconds(full.total_time));
}

TEST(DeltaEncoding, ColdDestinationDegradesToFullSends) {
  // No checkpoint at the destination: the engine clears the baseline and
  // the run behaves exactly as if delta were off.
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 0x0de17b);
  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  config.audit = true;
  config.delta.enabled = true;
  auto run = bed.MakeRun(memory, config);
  run.departure_seeds = memory.Seeds();  // stale claim, no checkpoint
  auto outcome = RunMigration(std::move(run));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  EXPECT_EQ(outcome.stats.pages_sent_delta, 0u);
  EXPECT_EQ(outcome.stats.delta_bytes_on_wire.count, 0u);
}

TEST(DeltaEncoding, RottenBaselineDegradesPerPage) {
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 0x0de17c);
  const auto departure_seeds = memory.Seeds();
  auto checkpoint = storage::Checkpoint::CaptureFrom(memory);

  // The recycled checkpoint rots in place (vecycle::fault's bit-rot
  // model) on exactly the pages the VM rewrites before returning: every
  // delta the source encodes against those baselines is unappliable.
  const std::uint64_t damaged = 64;
  for (std::uint64_t p = 0; p < damaged; ++p) {
    checkpoint.CorruptPageForTesting(p, 0xdead0000 + p);
  }
  bed.dst_store.Save("vm", std::move(checkpoint), kSimEpoch);
  const auto knowledge = DigestsOf(memory);
  for (std::uint64_t p = 0; p < damaged; ++p) {
    memory.WritePage(p, 0xbeef0000 + p);
  }

  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  config.audit = true;
  config.delta.enabled = true;
  auto run = bed.MakeRun(memory, config);
  run.source_knowledge = std::make_shared<const DigestMap>(knowledge);
  run.departure_seeds = departure_seeds;
  auto outcome = RunMigration(std::move(run));

  // The destination verified each baseline, rejected the rotten ones,
  // and recovered every page over the resend path — content is exact.
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  EXPECT_GT(outcome.stats.pages_delta_fallback, 0u);
  EXPECT_LE(outcome.stats.pages_delta_fallback,
            outcome.stats.pages_sent_delta);
  // Every fallback here is a delta fallback (the rot hits only rewritten
  // pages, so checksum records still verify in place).
  EXPECT_EQ(outcome.stats.fallback_pages,
            outcome.stats.pages_delta_fallback);
}

// --- Auto-converge -----------------------------------------------------

/// WAN migration of a writer that outruns the single-stream wire
/// (~1.7 kpages/s drain vs 5 kpages/s dirty rate) — without throttling
/// this never converges before max_rounds.
MigrationStats RunDivergingWriter(bool converge,
                                  double* final_throttle_keep = nullptr) {
  TestBed bed{sim::LinkConfig::Wan()};
  auto memory = RandomMemory(MiB(8), 0xac5);
  vm::UniformRandomWorkload writer(5000.0, 0x77u);
  MigrationConfig config;
  config.strategy = Strategy::kFull;
  config.audit = true;
  config.auto_converge.enabled = converge;
  config.stop_copy_threshold_pages = 64;
  config.max_rounds = 40;
  auto run = bed.MakeRun(memory, config);
  run.workload = &writer;
  auto outcome = RunMigration(std::move(run));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  if (final_throttle_keep != nullptr) {
    *final_throttle_keep = writer.ThrottleKeep();
  }
  return outcome.stats;
}

TEST(AutoConverge, ThrottlesDivergingWriterIntoConvergence) {
  double keep_after = 0.0;
  const auto unthrottled = RunDivergingWriter(false);
  const auto throttled = RunDivergingWriter(true, &keep_after);

  // Unthrottled, the writer wins every round and the migration runs to
  // the max_rounds livelock guard with a big final dirty set.
  EXPECT_EQ(unthrottled.rounds, 40u);
  EXPECT_EQ(unthrottled.throttle_rounds, 0u);
  EXPECT_EQ(unthrottled.max_throttle, 0.0);

  // Auto-converge ramps the throttle until the dirty set fits under the
  // stop-and-copy threshold: fewer rounds, and downtime bounded by the
  // shrunken final dirty set instead of the whole working set.
  EXPECT_GT(throttled.throttle_rounds, 0u);
  EXPECT_GE(throttled.max_throttle,
            MigrationConfig{}.auto_converge.initial_throttle);
  EXPECT_LE(throttled.max_throttle,
            MigrationConfig{}.auto_converge.max_throttle);
  EXPECT_LT(throttled.rounds, unthrottled.rounds);
  EXPECT_LT(ToSeconds(throttled.downtime), ToSeconds(unthrottled.downtime));

  // The engine restores full guest speed once the VM runs at the
  // destination — the throttle never outlives the migration.
  EXPECT_EQ(keep_after, 1.0);
}

TEST(AutoConverge, StaysQuietWhenTheWireIsWinning) {
  // A slow writer on a LAN converges on its own; auto-converge must not
  // touch the guest.
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 0xac6);
  vm::UniformRandomWorkload writer(50.0, 0x78u);
  MigrationConfig config;
  config.strategy = Strategy::kFull;
  config.audit = true;
  config.auto_converge.enabled = true;
  auto run = bed.MakeRun(memory, config);
  run.workload = &writer;
  auto outcome = RunMigration(std::move(run));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  EXPECT_EQ(outcome.stats.throttle_rounds, 0u);
  EXPECT_EQ(outcome.stats.max_throttle, 0.0);
  EXPECT_EQ(writer.ThrottleKeep(), 1.0);
}

// --- The full stack together -------------------------------------------

TEST(TransferStack, AllThreeCapabilitiesComposeUnderAudit) {
  TestBed bed{sim::LinkConfig::Wan()};
  auto memory = RandomMemory(MiB(16), 0x57ac);
  const auto departure_seeds = memory.Seeds();
  const auto departure_generations = memory.Generations();
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  const auto knowledge = DigestsOf(memory);
  vm::UniformRandomWorkload writer(2000.0, 0x57u);
  writer.Advance(memory, Seconds(5.0));

  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  config.audit = true;
  config.multifd.enabled = true;
  config.multifd.channels = 4;
  config.delta.enabled = true;
  config.auto_converge.enabled = true;
  config.stop_copy_threshold_pages = 128;
  auto run = bed.MakeRun(memory, config);
  run.workload = &writer;
  run.source_knowledge = std::make_shared<const DigestMap>(knowledge);
  run.departure_generations = departure_generations;
  run.departure_seeds = departure_seeds;
  auto outcome = RunMigration(std::move(run));

  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  EXPECT_EQ(outcome.stats.multifd_channels, 4u);
  EXPECT_EQ(SumPerChannel(outcome.stats), outcome.stats.tx_bytes);
  EXPECT_GT(outcome.stats.pages_sent_delta, 0u);
  EXPECT_EQ(writer.ThrottleKeep(), 1.0);
}

}  // namespace
}  // namespace vecycle::migration
