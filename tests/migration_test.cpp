// End-to-end migration engine tests: every strategy must reconstruct the
// source memory exactly, and the per-strategy traffic/time behaviour must
// match the paper's mechanics (checksum-only records for matches, dirty
// skips, dedup references, multi-round convergence, stop-and-copy). Also
// pins the instrument claim contract on the shared resources.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "migration/engine.hpp"
#include "migration/postcopy.hpp"
#include "storage/checkpoint.hpp"
#include "vm/workload.hpp"

namespace vecycle::migration {
namespace {

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

vm::GuestMemory RandomMemory(Bytes ram, std::uint64_t seed,
                             vm::ContentMode mode = vm::ContentMode::kSeedOnly) {
  vm::GuestMemory memory(ram, mode);
  Xoshiro256 rng(seed);
  vm::MemoryProfile{}.Apply(memory, rng);
  return memory;
}

/// Digest list of a memory image — the ping-pong knowledge a source would
/// have learned from a previous incoming migration.
std::vector<Digest128> DigestsOf(const vm::GuestMemory& memory) {
  std::vector<Digest128> digests;
  for (vm::PageId p = 0; p < memory.PageCount(); ++p) {
    digests.push_back(memory.PageDigest(p));
  }
  return digests;
}

// --- Correctness: every strategy reconstructs memory exactly. ---

class StrategyCorrectness : public ::testing::TestWithParam<Strategy> {};

TEST_P(StrategyCorrectness, ReconstructsMemoryWithoutCheckpoint) {
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 1);
  MigrationConfig config;
  config.strategy = GetParam();
  auto outcome = RunMigration(bed.MakeRun(memory, config));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  EXPECT_GT(outcome.stats.tx_bytes.count, 0u);
}

TEST_P(StrategyCorrectness, ReconstructsMemoryWithStaleCheckpoint) {
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 2);

  // The VM visited the destination before: a checkpoint of an older state
  // waits there, and the run carries its departure metadata.
  const auto departure_generations = memory.Generations();
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  const auto knowledge = DigestsOf(memory);

  // The VM diverges meaningfully before returning.
  vm::UniformRandomWorkload churn(100.0, 99);
  churn.Advance(memory, Seconds(10.0));

  MigrationConfig config;
  config.strategy = GetParam();
  auto run = bed.MakeRun(memory, config);
  run.source_knowledge = std::make_shared<const DigestMap>(knowledge);
  run.departure_generations = departure_generations;
  auto outcome = RunMigration(std::move(run));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
}

TEST_P(StrategyCorrectness, GenerationsTravelWithTheVm) {
  TestBed bed;
  auto memory = RandomMemory(MiB(4), 3);
  MigrationConfig config;
  config.strategy = GetParam();
  auto outcome = RunMigration(bed.MakeRun(memory, config));
  EXPECT_EQ(outcome.dest_memory->Generations(), memory.Generations());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyCorrectness,
    ::testing::Values(Strategy::kFull, Strategy::kDedup,
                      Strategy::kDirtyTracking, Strategy::kHashes,
                      Strategy::kDirtyPlusDedup, Strategy::kHashesPlusDedup),
    [](const ::testing::TestParamInfo<Strategy>& info) {
      switch (info.param) {
        case Strategy::kFull:
          return "Full";
        case Strategy::kDedup:
          return "Dedup";
        case Strategy::kDirtyTracking:
          return "Dirty";
        case Strategy::kHashes:
          return "Hashes";
        case Strategy::kDirtyPlusDedup:
          return "DirtyDedup";
        case Strategy::kHashesPlusDedup:
          return "HashesDedup";
      }
      return "Unknown";
    });

// --- Byte-level fidelity in materialized mode. ---

TEST(Migration, MaterializedModeReconstructsBytes) {
  TestBed bed;
  auto memory = RandomMemory(MiB(2), 4, vm::ContentMode::kMaterialized);
  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  auto outcome = RunMigration(bed.MakeRun(memory, config));
  ASSERT_EQ(outcome.dest_memory->Mode(), vm::ContentMode::kMaterialized);
  for (vm::PageId p = 0; p < memory.PageCount(); ++p) {
    const auto src = memory.PageBytes(p);
    const auto dst = outcome.dest_memory->PageBytes(p);
    ASSERT_TRUE(std::equal(src.begin(), src.end(), dst.begin()))
        << "page " << p;
  }
}

// --- Baseline (kFull) behaviour. ---

TEST(Migration, FullSendsEveryPage) {
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 5);
  MigrationConfig config;
  config.strategy = Strategy::kFull;
  auto outcome = RunMigration(bed.MakeRun(memory, config));
  EXPECT_EQ(outcome.stats.Round1Pages(), memory.PageCount());
  EXPECT_EQ(outcome.stats.pages_sent_checksum, 0u);
  EXPECT_EQ(outcome.stats.pages_dup_ref, 0u);
  // Traffic is roughly the RAM size (zero pages elided; default profile
  // has ~3%).
  EXPECT_GT(outcome.stats.tx_bytes, MiB(7));
}

TEST(Migration, FullElidesZeroPages) {
  TestBed bed;
  vm::GuestMemory memory(MiB(8), vm::ContentMode::kSeedOnly);  // all zeros
  MigrationConfig config;
  config.strategy = Strategy::kFull;
  auto outcome = RunMigration(bed.MakeRun(memory, config));
  // Only headers travel: far less than one MiB for 2048 pages.
  EXPECT_LT(outcome.stats.tx_bytes, MiB(1));
}

// --- VeCycle (kHashes) behaviour. ---

TEST(Migration, HashesIdenticalStateSendsOnlyChecksums) {
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 6);
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  auto run = bed.MakeRun(memory, config);
  run.source_knowledge = std::make_shared<const DigestMap>(DigestsOf(memory));
  auto outcome = RunMigration(std::move(run));

  EXPECT_EQ(outcome.stats.pages_sent_full,
            memory.CountZeroPages());  // only the (elided) zero pages
  EXPECT_GT(outcome.stats.pages_sent_checksum, 0u);
  // Traffic is two orders of magnitude below RAM size (§4.4).
  EXPECT_LT(outcome.stats.tx_bytes, MiB(1));
  // Every checksum-only record matched in place: positions unchanged.
  EXPECT_EQ(outcome.stats.pages_from_checkpoint, 0u);
}

TEST(Migration, HashesFetchesMovedContentFromCheckpoint) {
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 7);
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  const auto knowledge = DigestsOf(memory);

  // Remap content between frames: content set unchanged, positions not.
  vm::PageRemapWorkload remap(100.0, 11);
  remap.Advance(memory, Seconds(5.0));

  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  auto run = bed.MakeRun(memory, config);
  run.source_knowledge = std::make_shared<const DigestMap>(knowledge);
  auto outcome = RunMigration(std::move(run));

  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  // Moved pages were satisfied by random checkpoint reads, not network.
  EXPECT_GT(outcome.stats.pages_from_checkpoint, 0u);
  EXPECT_LT(outcome.stats.tx_bytes, MiB(1));
}

TEST(Migration, HashesWithoutKnowledgeTriggersBulkExchange) {
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 8);
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  auto run = bed.MakeRun(memory, config);  // no source_knowledge
  auto outcome = RunMigration(std::move(run));
  EXPECT_GT(outcome.stats.bulk_exchange_bytes.count, 0u);
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  // The exchange pays for itself: checksum traffic instead of pages.
  EXPECT_LT(outcome.stats.tx_bytes, MiB(1));
}

TEST(Migration, HashesWithKnowledgeSkipsBulkExchange) {
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 9);
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  auto run = bed.MakeRun(memory, config);
  run.source_knowledge = std::make_shared<const DigestMap>(DigestsOf(memory));
  auto outcome = RunMigration(std::move(run));
  EXPECT_EQ(outcome.stats.bulk_exchange_bytes.count, 0u);
}

TEST(Migration, HashesWithoutCheckpointDegradesToFull) {
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 10);
  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  auto outcome = RunMigration(bed.MakeRun(memory, config));
  EXPECT_EQ(outcome.stats.pages_sent_checksum, 0u);
  EXPECT_GT(outcome.stats.tx_bytes, MiB(7));
}

// --- Miyakodori (kDirtyTracking) behaviour. ---

TEST(Migration, DirtyTrackingSkipsCleanPages) {
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 11);
  const auto departure = memory.Generations();
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);

  // Touch exactly 100 pages.
  for (vm::PageId p = 0; p < 100; ++p) memory.WritePage(p, 1'000'000 + p);

  MigrationConfig config;
  config.strategy = Strategy::kDirtyTracking;
  auto run = bed.MakeRun(memory, config);
  run.departure_generations = departure;
  auto outcome = RunMigration(std::move(run));

  EXPECT_EQ(outcome.stats.pages_skipped_clean, memory.PageCount() - 100);
  EXPECT_EQ(outcome.stats.pages_sent_full, 100u);
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
}

TEST(Migration, DirtyTrackingOverestimatesOnRemap) {
  // The Fig. 5 caveat: moving content between frames dirties pages without
  // creating new content. Dirty tracking transfers them; VeCycle does not.
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 12);
  const auto departure = memory.Generations();
  const auto knowledge = DigestsOf(memory);
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);

  vm::PageRemapWorkload remap(200.0, 13);
  remap.Advance(memory, Seconds(5.0));

  MigrationConfig dirty_config;
  dirty_config.strategy = Strategy::kDirtyTracking;
  auto dirty_run = bed.MakeRun(memory, dirty_config);
  dirty_run.departure_generations = departure;
  auto dirty_outcome = RunMigration(std::move(dirty_run));

  TestBed bed2;
  bed2.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                      kSimEpoch);
  // Rebuild pre-remap checkpoint state at the second bed's destination:
  // the checkpoint must hold the *old* state for a fair comparison — but
  // content-wise old and new states are identical under remap, so saving
  // the current state is equivalent for kHashes.
  MigrationConfig hash_config;
  hash_config.strategy = Strategy::kHashes;
  auto hash_run = bed2.MakeRun(memory, hash_config);
  hash_run.source_knowledge = std::make_shared<const DigestMap>(knowledge);
  auto hash_outcome = RunMigration(std::move(hash_run));

  EXPECT_GT(dirty_outcome.stats.tx_bytes.count,
            2 * hash_outcome.stats.tx_bytes.count);
}

// --- Dedup behaviour. ---

TEST(Migration, DedupCollapsesIdenticalPages) {
  TestBed bed;
  vm::GuestMemory memory(MiB(8), vm::ContentMode::kSeedOnly);
  // 2048 pages, only 16 distinct contents.
  for (vm::PageId p = 0; p < memory.PageCount(); ++p) {
    memory.WritePage(p, 1 + (p % 16));
  }
  MigrationConfig config;
  config.strategy = Strategy::kDedup;
  auto outcome = RunMigration(bed.MakeRun(memory, config));
  EXPECT_EQ(outcome.stats.pages_sent_full, 16u);
  EXPECT_EQ(outcome.stats.pages_dup_ref, memory.PageCount() - 16);
  EXPECT_LT(outcome.stats.tx_bytes, MiB(1));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
}

TEST(Migration, HashesPlusDedupBeatsPlainHashesOnDuplicates) {
  // New content that is internally duplicated: hashes alone sends each
  // copy, hashes+dedup sends one copy plus references.
  auto make_memory = [] {
    vm::GuestMemory memory(MiB(8), vm::ContentMode::kSeedOnly);
    for (vm::PageId p = 0; p < memory.PageCount(); ++p) {
      memory.WritePage(p, 1 + (p % 64));
    }
    return memory;
  };

  TestBed bed_a;
  auto mem_a = make_memory();
  MigrationConfig plain;
  plain.strategy = Strategy::kHashes;
  auto out_a = RunMigration(bed_a.MakeRun(mem_a, plain));

  TestBed bed_b;
  auto mem_b = make_memory();
  MigrationConfig combo;
  combo.strategy = Strategy::kHashesPlusDedup;
  auto out_b = RunMigration(bed_b.MakeRun(mem_b, combo));

  EXPECT_LT(out_b.stats.tx_bytes.count, out_a.stats.tx_bytes.count / 10);
}

// --- Live-migration dynamics. ---

TEST(Migration, ActiveWorkloadForcesExtraRounds) {
  TestBed bed;
  auto memory = RandomMemory(MiB(64), 14);
  vm::UniformRandomWorkload churn(2000.0, 15);

  MigrationConfig config;
  config.strategy = Strategy::kFull;
  config.stop_copy_threshold_pages = 64;
  auto run = bed.MakeRun(memory, config);
  run.workload = &churn;
  auto outcome = RunMigration(std::move(run));

  EXPECT_GE(outcome.stats.rounds, 3u);
  EXPECT_GT(outcome.stats.pages_resent_dirty, 0u);
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
}

TEST(Migration, FastWriterHitsRoundCap) {
  TestBed bed;
  auto memory = RandomMemory(MiB(32), 16);
  // Writes far faster than the link can drain.
  vm::UniformRandomWorkload churn(200000.0, 17);

  MigrationConfig config;
  config.strategy = Strategy::kFull;
  config.stop_copy_threshold_pages = 16;
  config.max_rounds = 5;
  auto run = bed.MakeRun(memory, config);
  run.workload = &churn;
  auto outcome = RunMigration(std::move(run));

  EXPECT_EQ(outcome.stats.rounds, 5u);
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  EXPECT_GT(outcome.stats.downtime, SimDuration::zero());
}

TEST(Migration, IdleVmConvergesInTwoRounds) {
  TestBed bed;
  auto memory = RandomMemory(MiB(64), 18);
  vm::IdleWorkload idle(vm::IdleWorkload::Config{});

  MigrationConfig config;
  config.strategy = Strategy::kFull;
  auto run = bed.MakeRun(memory, config);
  run.workload = &idle;
  auto outcome = RunMigration(std::move(run));
  EXPECT_EQ(outcome.stats.rounds, 2u);  // first copy + trivial stop round
}

TEST(Migration, DowntimeIsSmallForIdleVm) {
  TestBed bed;
  auto memory = RandomMemory(MiB(64), 19);
  vm::IdleWorkload idle(vm::IdleWorkload::Config{});
  MigrationConfig config;
  config.strategy = Strategy::kFull;
  auto run = bed.MakeRun(memory, config);
  run.workload = &idle;
  auto outcome = RunMigration(std::move(run));
  EXPECT_LT(outcome.stats.downtime, Seconds(0.5));
  EXPECT_LT(outcome.stats.downtime, outcome.stats.total_time);
}

// --- Timing shape (the §4.4 claims at small scale). ---

TEST(Migration, VeCycleIsFasterThanBaselineAtHighSimilarity) {
  auto make = [](Strategy strategy, std::vector<Digest128> knowledge,
                 bool with_checkpoint) {
    auto bed = std::make_unique<TestBed>();
    auto memory = RandomMemory(MiB(64), 20);
    if (with_checkpoint) {
      bed->dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                          kSimEpoch);
    }
    MigrationConfig config;
    config.strategy = strategy;
    auto run = bed->MakeRun(memory, config);
    run.source_knowledge = std::make_shared<const DigestMap>(knowledge);
    return RunMigration(std::move(run)).stats;
  };

  auto memory_for_digests = RandomMemory(MiB(64), 20);
  const auto knowledge = DigestsOf(memory_for_digests);

  const auto baseline = make(Strategy::kFull, {}, false);
  const auto vecycle = make(Strategy::kHashes, knowledge, true);

  // §4.4: 3-4x faster on LAN at ~100% similarity.
  EXPECT_LT(ToSeconds(vecycle.total_time) * 2.0,
            ToSeconds(baseline.total_time));
  // And traffic collapses by orders of magnitude.
  EXPECT_LT(vecycle.tx_bytes.count * 20, baseline.tx_bytes.count);
}

TEST(Migration, ChecksumRateBoundsVeCycle) {
  // §3.4: with high similarity the checksum rate, not the link, is the
  // lower bound. At 350 MiB/s, 64 MiB of hashing takes ~0.18 s at both
  // ends (pipelined); the total time must sit near that, far below the
  // ~0.55 s the link would need for full content.
  TestBed bed;
  auto memory = RandomMemory(MiB(64), 21);
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  auto run = bed.MakeRun(memory, config);
  run.source_knowledge = std::make_shared<const DigestMap>(DigestsOf(memory));
  auto outcome = RunMigration(std::move(run));
  const double hash_seconds = 64.0 / 350.0;
  EXPECT_GT(ToSeconds(outcome.stats.total_time), hash_seconds * 0.9);
  EXPECT_LT(ToSeconds(outcome.stats.total_time), hash_seconds * 3.0);
}

// --- The §3.2 per-page query protocol variant. ---

namespace {

MigrationStats RunQueryMode(sim::LinkConfig link, HashExchangeMode mode,
                            std::uint32_t window) {
  TestBed bed;
  bed.link = sim::Link(link);
  auto memory = RandomMemory(MiB(8), 30);
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  config.hash_exchange = mode;
  config.query_window = window;
  auto run = bed.MakeRun(memory, config);  // no source knowledge -> exchange
  auto outcome = RunMigration(std::move(run));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  return outcome.stats;
}

}  // namespace

TEST(QueryProtocol, ReconstructsMemoryAndCountsQueries) {
  const auto stats = RunQueryMode(sim::LinkConfig::Lan(),
                                  HashExchangeMode::kPerPageQuery, 4);
  EXPECT_GT(stats.query_count, 0u);
  EXPECT_GT(stats.query_bytes.count, 0u);
  EXPECT_EQ(stats.bulk_exchange_bytes.count, 0u);
  // Zero pages are elided without consulting the destination.
  EXPECT_LT(stats.query_count, 2048u);
}

TEST(QueryProtocol, BulkModeIssuesNoQueries) {
  const auto stats =
      RunQueryMode(sim::LinkConfig::Lan(), HashExchangeMode::kBulk, 1);
  EXPECT_EQ(stats.query_count, 0u);
  EXPECT_EQ(stats.query_bytes.count, 0u);
  EXPECT_GT(stats.bulk_exchange_bytes.count, 0u);
}

TEST(QueryProtocol, SynchronousQueriesPayPerPageLatency) {
  // §3.2's expectation, verified: with one outstanding query the WAN's
  // 54 ms round trip dominates everything else.
  const auto bulk =
      RunQueryMode(sim::LinkConfig::Wan(), HashExchangeMode::kBulk, 1);
  const auto query = RunQueryMode(sim::LinkConfig::Wan(),
                                  HashExchangeMode::kPerPageQuery, 1);
  EXPECT_GT(ToSeconds(query.total_time), 10.0 * ToSeconds(bulk.total_time));
}

TEST(QueryProtocol, PipeliningRecoversMostOfTheLoss) {
  const auto narrow = RunQueryMode(sim::LinkConfig::Wan(),
                                   HashExchangeMode::kPerPageQuery, 1);
  const auto wide = RunQueryMode(sim::LinkConfig::Wan(),
                                 HashExchangeMode::kPerPageQuery, 64);
  EXPECT_LT(ToSeconds(wide.total_time) * 5.0,
            ToSeconds(narrow.total_time));
}

TEST(QueryProtocol, PingPongKnowledgeBypassesQueries) {
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 31);
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  config.hash_exchange = HashExchangeMode::kPerPageQuery;
  auto run = bed.MakeRun(memory, config);
  // ping-pong fast path
  run.source_knowledge =
      std::make_shared<const DigestMap>(DigestsOf(memory));
  auto outcome = RunMigration(std::move(run));
  EXPECT_EQ(outcome.stats.query_count, 0u);
}

// --- Wire compression (related work [24], composable with VeCycle). ---

TEST(Compression, ReducesTrafficAndReconstructsMemory) {
  TestBed plain_bed;
  auto memory_a = RandomMemory(MiB(8), 40);
  MigrationConfig plain;
  plain.strategy = Strategy::kFull;
  const auto uncompressed =
      RunMigration(plain_bed.MakeRun(memory_a, plain));

  TestBed zip_bed;
  auto memory_b = RandomMemory(MiB(8), 40);
  MigrationConfig zipped;
  zipped.strategy = Strategy::kFull;
  zipped.compression.enabled = true;
  const auto compressed = RunMigration(zip_bed.MakeRun(memory_b, zipped));

  EXPECT_TRUE(compressed.dest_memory->ContentEquals(memory_b));
  EXPECT_LT(compressed.stats.tx_bytes.count,
            uncompressed.stats.tx_bytes.count * 3 / 4);
  EXPECT_GT(compressed.stats.payload_bytes_original.count,
            compressed.stats.payload_bytes_on_wire.count);
}

TEST(Compression, RatioIsDeterministicPerContent) {
  TestBed bed_a;
  auto mem_a = RandomMemory(MiB(4), 41);
  MigrationConfig config;
  config.strategy = Strategy::kFull;
  config.compression.enabled = true;
  const auto first = RunMigration(bed_a.MakeRun(mem_a, config));

  TestBed bed_b;
  auto mem_b = RandomMemory(MiB(4), 41);
  const auto second = RunMigration(bed_b.MakeRun(mem_b, config));
  EXPECT_EQ(first.stats.payload_bytes_on_wire,
            second.stats.payload_bytes_on_wire);
}

TEST(Compression, ComposesWithVeCycle) {
  // Compression applies only to the genuinely new pages; matched pages
  // travel as checksums either way.
  auto run_one = [](bool compress) {
    TestBed bed;
    auto memory = RandomMemory(MiB(8), 42);
    bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                       kSimEpoch);
    const auto knowledge = DigestsOf(memory);
    vm::UniformRandomWorkload churn(100.0, 43);
    churn.Advance(memory, Seconds(5.0));
    MigrationConfig config;
    config.strategy = Strategy::kHashes;
    config.compression.enabled = compress;
    auto run = bed.MakeRun(memory, config);
    run.source_knowledge = std::make_shared<const DigestMap>(knowledge);
    return RunMigration(std::move(run)).stats;
  };
  const auto without = run_one(false);
  const auto with = run_one(true);
  EXPECT_LT(with.tx_bytes.count, without.tx_bytes.count);
  EXPECT_EQ(with.pages_sent_checksum, without.pages_sent_checksum);
}

TEST(Compression, DisabledLeavesPayloadsUntouched) {
  TestBed bed;
  auto memory = RandomMemory(MiB(4), 44);
  MigrationConfig config;
  config.strategy = Strategy::kFull;
  const auto outcome = RunMigration(bed.MakeRun(memory, config));
  EXPECT_EQ(outcome.stats.payload_bytes_original.count, 0u);
  EXPECT_EQ(outcome.stats.payload_bytes_on_wire.count, 0u);
}

// --- Resized-VM safety. ---

TEST(Migration, ResizedVmIgnoresStaleCheckpoint) {
  TestBed bed;
  // Checkpoint from a 4 MiB incarnation of the VM...
  auto old_memory = RandomMemory(MiB(4), 32);
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(old_memory),
                     kSimEpoch);
  // ...but the VM now has 8 MiB and stale knowledge/generations.
  auto memory = RandomMemory(MiB(8), 33);
  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  auto run = bed.MakeRun(memory, config);
  run.source_knowledge =
      std::make_shared<const DigestMap>(DigestsOf(old_memory));
  run.departure_generations = old_memory.Generations();
  auto outcome = RunMigration(std::move(run));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  // Degraded to a cold migration: no checksum records, no skips.
  EXPECT_EQ(outcome.stats.pages_sent_checksum, 0u);
  EXPECT_EQ(outcome.stats.pages_skipped_clean, 0u);
  // The unusable checkpoint was dropped.
  EXPECT_FALSE(bed.dst_store.Has("vm"));
}

TEST(Migration, CorruptCheckpointDegradesPerPage) {
  // A latent disk error flips a page inside the stored checkpoint. The
  // destination still seeds guest RAM from it — the checksum index is
  // built over the content actually on disk, so the damaged page misses
  // its lookup and only that page is re-fetched in full over the wire.
  // The rest of the image keeps recycling (the fault layer's graceful
  // degradation, instead of the whole migration going cold).
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 50);
  auto checkpoint = storage::Checkpoint::CaptureFrom(memory);
  ASSERT_TRUE(checkpoint.IntegrityOk());
  checkpoint.CorruptPageForTesting(123, 0xBADBADBADull);
  ASSERT_FALSE(checkpoint.IntegrityOk());
  bed.dst_store.Save("vm", std::move(checkpoint), kSimEpoch);

  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  auto run = bed.MakeRun(memory, config);
  run.source_knowledge = std::make_shared<const DigestMap>(DigestsOf(memory));
  auto outcome = RunMigration(std::move(run));

  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  EXPECT_GT(outcome.stats.pages_sent_checksum, 0u);  // still recycling
  EXPECT_TRUE(bed.dst_store.Has("vm"));              // checkpoint retained
  // Every checksum-only record resolved exactly one way.
  EXPECT_EQ(outcome.stats.pages_matched_in_place +
                outcome.stats.pages_from_checkpoint +
                outcome.stats.fallback_pages,
            outcome.stats.pages_sent_checksum);
}

TEST(Migration, IntactCheckpointPassesIntegrityCheck) {
  TestBed bed;
  auto memory = RandomMemory(MiB(8), 51);
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory),
                     kSimEpoch);
  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  auto run = bed.MakeRun(memory, config);
  run.source_knowledge = std::make_shared<const DigestMap>(DigestsOf(memory));
  auto outcome = RunMigration(std::move(run));
  EXPECT_GT(outcome.stats.pages_sent_checksum, 0u);  // recycled as normal
}

TEST(Migration, DirtyTrackingWithResizedVmDegradesToFull) {
  TestBed bed;
  auto old_memory = RandomMemory(MiB(4), 34);
  bed.dst_store.Save("vm", storage::Checkpoint::CaptureFrom(old_memory),
                     kSimEpoch);
  auto memory = RandomMemory(MiB(8), 35);
  MigrationConfig config;
  config.strategy = Strategy::kDirtyTracking;
  auto run = bed.MakeRun(memory, config);
  run.departure_generations = old_memory.Generations();
  auto outcome = RunMigration(std::move(run));
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  EXPECT_EQ(outcome.stats.pages_skipped_clean, 0u);
}

// --- Instrument claims: shared slots are taken only when free and given
// back exactly. ---

/// Instruments a caller attaches to shared resources before a session.
struct CallerInstruments {
  explicit CallerInstruments(const fault::FaultConfig& faults)
      : injector(faults) {}
  audit::SimAuditor auditor;
  obs::TraceRecorder tracer;
  fault::FaultInjector injector;
};

/// One instrument slot on one shared resource of the TestBed: what sits
/// in it, and how a caller fills it.
struct ClaimSlot {
  const char* name;
  const void* (*get)(TestBed&);
  void (*put)(TestBed&, CallerInstruments&);
};

/// Test names print the slot name, not the function pointers' bytes.
void PrintTo(const ClaimSlot& slot, std::ostream* out) { *out << slot.name; }

void PutTracer(auto& resource, obs::TraceRecorder& tracer) {
  resource.SetTracer(&tracer, tracer.Track(tracer.NewProcess("caller"), "own"));
}

const ClaimSlot kClaimSlots[] = {
    {"LinkInjector",
     [](TestBed& b) -> const void* { return b.link.Injector(); },
     [](TestBed& b, CallerInstruments& c) {
       b.link.SetFaultInjector(&c.injector);
     }},
    {"SourceStoreInjector",
     [](TestBed& b) -> const void* { return b.src_store.Injector(); },
     [](TestBed& b, CallerInstruments& c) {
       b.src_store.SetFaultInjector(&c.injector);
     }},
    {"DestStoreInjector",
     [](TestBed& b) -> const void* { return b.dst_store.Injector(); },
     [](TestBed& b, CallerInstruments& c) {
       b.dst_store.SetFaultInjector(&c.injector);
     }},
    {"SourceDiskInjector",
     [](TestBed& b) -> const void* { return b.src_store.Disk().Injector(); },
     [](TestBed& b, CallerInstruments& c) {
       b.src_store.Disk().SetFaultInjector(&c.injector);
     }},
    {"DestDiskInjector",
     [](TestBed& b) -> const void* { return b.dst_store.Disk().Injector(); },
     [](TestBed& b, CallerInstruments& c) {
       b.dst_store.Disk().SetFaultInjector(&c.injector);
     }},
    {"SimulatorAuditor",
     [](TestBed& b) -> const void* { return b.simulator.Auditor(); },
     [](TestBed& b, CallerInstruments& c) {
       b.simulator.SetAuditor(&c.auditor);
     }},
    {"DestStoreAuditor",
     [](TestBed& b) -> const void* { return b.dst_store.Auditor(); },
     [](TestBed& b, CallerInstruments& c) {
       b.dst_store.SetAuditor(&c.auditor);
     }},
    {"SimulatorTracer",
     [](TestBed& b) -> const void* { return b.simulator.Tracer(); },
     [](TestBed& b, CallerInstruments& c) {
       PutTracer(b.simulator, c.tracer);
     }},
    {"SourceCpuTracer",
     [](TestBed& b) -> const void* { return b.src_cpu.Tracer(); },
     [](TestBed& b, CallerInstruments& c) {
       PutTracer(b.src_cpu, c.tracer);
     }},
    {"DestCpuTracer",
     [](TestBed& b) -> const void* { return b.dst_cpu.Tracer(); },
     [](TestBed& b, CallerInstruments& c) {
       PutTracer(b.dst_cpu, c.tracer);
     }},
    {"DestStoreTracer",
     [](TestBed& b) -> const void* { return b.dst_store.Tracer(); },
     [](TestBed& b, CallerInstruments& c) {
       PutTracer(b.dst_store, c.tracer);
     }},
};

/// Every instrument armed: a private auditor from config.audit and a
/// private injector from config.faults — a plan with no faults, or one
/// whose link outage cuts the session's first message.
MigrationConfig ArmedConfig(bool outage) {
  MigrationConfig config;
  config.strategy = Strategy::kHashes;
  config.audit = true;
  config.faults.enabled = true;
  if (outage) {
    config.faults.seed = 2;
    config.faults.link_outages_per_hour = 360000.0;
    config.faults.link_outage_mean = Hours(1.0);
    config.faults.horizon = Hours(2.0);
  }
  return config;
}

class InstrumentClaim : public ::testing::TestWithParam<ClaimSlot> {};

TEST_P(InstrumentClaim, TakesOnlyFreeSlotsAndGivesBackWhatItTook) {
  const ClaimSlot& slot = GetParam();
  // Pre-copy, completed or aborted by a link outage, with the slot free
  // or already holding the caller's instrument.
  for (const bool outage : {false, true}) {
    for (const bool caller_first : {false, true}) {
      SCOPED_TRACE(std::string(outage ? "aborted" : "completed") +
                   (caller_first ? ", caller attached first" : ""));
      const MigrationConfig config = ArmedConfig(outage);
      TestBed bed;
      // The caller's injector runs the same plan, so a caller-held link
      // still cuts the session.
      CallerInstruments mine(config.faults);
      if (caller_first) slot.put(bed, mine);
      const void* const before = slot.get(bed);
      auto memory = RandomMemory(MiB(2), 71);
      obs::TraceRecorder tracer;
      obs::MetricsRegistry metrics;
      auto run = bed.MakeRun(memory, config);
      run.instruments.tracer = &tracer;
      run.instruments.metrics = &metrics;
      {
        MigrationSession session(std::move(run));
        session.Start();
        bed.simulator.Run();
        EXPECT_EQ(session.Failed(), outage);
        if (caller_first) {
          EXPECT_EQ(slot.get(bed), before) << "caller's instrument replaced";
        } else {
          EXPECT_NE(slot.get(bed), nullptr) << "free slot left unclaimed";
        }
      }
      EXPECT_EQ(slot.get(bed), before);
    }
  }

  // Post-copy claims the simulator, CPU and destination-store slots the
  // same way (it has no fault seams, so the injector slots stay free).
  TestBed bed;
  auto memory = RandomMemory(MiB(2), 72);
  obs::TraceRecorder tracer;
  obs::MetricsRegistry metrics;
  PostCopyRun run;
  run.simulator = &bed.simulator;
  run.link = &bed.link;
  run.source_memory = &memory;
  run.source_cpu = &bed.src_cpu;
  run.dest_cpu = &bed.dst_cpu;
  run.dest_store = &bed.dst_store;
  run.config.audit = true;
  run.instruments.tracer = &tracer;
  run.instruments.metrics = &metrics;
  RunPostCopyMigration(std::move(run));
  EXPECT_EQ(slot.get(bed), nullptr);
  // A claimed lane exists only because its claim succeeded.
  const std::string json = tracer.ChromeTraceJson();
  for (const char* lane : {"cpu source", "cpu dest", "store", "event loop"}) {
    EXPECT_NE(json.find(std::string("\"") + lane + "\""), std::string::npos)
        << lane;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SharedResources, InstrumentClaim, ::testing::ValuesIn(kClaimSlots),
    [](const ::testing::TestParamInfo<ClaimSlot>& info) {
      return std::string(info.param.name);
    });

// --- Config validation. ---

TEST(MigrationConfig, RejectsDegenerateValues) {
  MigrationConfig config;
  config.batch_pages = 0;
  EXPECT_THROW(config.Validate(), CheckFailure);
  config = MigrationConfig{};
  config.max_rounds = 1;
  EXPECT_THROW(config.Validate(), CheckFailure);
}

// --- Degenerate-stats guards. ---

TEST(MigrationStatsMath, InstantMigrationReportsZeroThroughputNotNan) {
  // A migration where every page was skipped clean finishes in zero
  // simulated time with zero eligible payload — both derived quantities
  // must stay finite instead of dividing by zero.
  MigrationStats stats;
  EXPECT_EQ(stats.ThroughputBytesPerSecond(), 0.0);
  EXPECT_EQ(stats.CompressionRatio(), 1.0);

  // Bytes on the wire but no elapsed time still reports zero throughput.
  stats.tx_bytes = MiB(16);
  EXPECT_EQ(stats.ThroughputBytesPerSecond(), 0.0);

  // The ordinary case divides as expected once both operands are real.
  stats.total_time = Seconds(2.0);
  EXPECT_DOUBLE_EQ(stats.ThroughputBytesPerSecond(),
                   static_cast<double>(MiB(16).count) / 2.0);
  stats.payload_bytes_original = MiB(8);
  stats.payload_bytes_on_wire = MiB(2);
  EXPECT_DOUBLE_EQ(stats.CompressionRatio(), 0.25);
}

}  // namespace
}  // namespace vecycle::migration
