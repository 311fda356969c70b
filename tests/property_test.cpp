// Property-based suites: invariants that must hold across randomized
// inputs and swept parameter spaces, driven through parameterized gtest.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "common/rng.hpp"
#include "digest/hasher.hpp"
#include "digest/md5.hpp"
#include "digest/sha1.hpp"
#include "digest/sha256.hpp"
#include "fingerprint/fingerprint.hpp"
#include "migration/engine.hpp"
#include "net/message.hpp"
#include "per_store_writers.hpp"
#include "sim/simulator.hpp"
#include "storage/checkpoint.hpp"
#include "vm/dirty_tracker.hpp"
#include "vm/workload.hpp"

namespace vecycle {
namespace {

// =====================================================================
// Digest properties: one-shot == any chunking; injective in practice.
// =====================================================================

class DigestChunking
    : public ::testing::TestWithParam<std::tuple<DigestAlgorithm, int>> {};

TEST_P(DigestChunking, ChunkedUpdateEqualsOneShot) {
  const auto [algorithm, size] = GetParam();
  if (algorithm == DigestAlgorithm::kFnv1a) {
    GTEST_SKIP() << "FNV has no incremental context in the public API";
  }
  std::vector<std::byte> data(static_cast<std::size_t>(size));
  Xoshiro256 rng(static_cast<std::uint64_t>(size) * 31 + 7);
  for (auto& b : data) b = static_cast<std::byte>(rng.Next());

  const auto oneshot = ComputeDigest(algorithm, data.data(), data.size());

  // Re-hash through every prefix split point of a coarse grid.
  for (std::size_t split = 0; split <= data.size();
       split += std::max<std::size_t>(1, data.size() / 7)) {
    Digest128 chunked;
    switch (algorithm) {
      case DigestAlgorithm::kMd5: {
        Md5 ctx;
        ctx.Update(data.data(), split);
        ctx.Update(data.data() + split, data.size() - split);
        chunked = ctx.Finalize();
        break;
      }
      case DigestAlgorithm::kSha1: {
        Sha1 ctx;
        ctx.Update(data.data(), split);
        ctx.Update(data.data() + split, data.size() - split);
        chunked = ctx.Finalize();
        break;
      }
      case DigestAlgorithm::kSha256: {
        Sha256 ctx;
        ctx.Update(data.data(), split);
        ctx.Update(data.data() + split, data.size() - split);
        chunked = ctx.Finalize();
        break;
      }
      case DigestAlgorithm::kFnv1a:
        return;
    }
    EXPECT_EQ(chunked, oneshot) << "split at " << split;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndAlgorithms, DigestChunking,
    ::testing::Combine(::testing::Values(DigestAlgorithm::kMd5,
                                         DigestAlgorithm::kSha1,
                                         DigestAlgorithm::kSha256),
                       ::testing::Values(0, 1, 55, 56, 63, 64, 65, 127, 500,
                                         4096)),
    [](const auto& info) {
      return std::string(ToString(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param));
    });

TEST(DigestProperty, NoCollisionsAcrossManyRandomPages) {
  // 10k random 64-byte buffers: all four algorithms must keep them
  // distinct (a collision here would mean a broken implementation, not
  // bad luck).
  Xoshiro256 rng(99);
  for (const auto algorithm :
       {DigestAlgorithm::kMd5, DigestAlgorithm::kSha1,
        DigestAlgorithm::kSha256, DigestAlgorithm::kFnv1a}) {
    std::map<Digest128, std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 10000; ++i) {
      std::uint64_t buffer[8];
      for (auto& w : buffer) w = rng.Next();
      const auto digest =
          ComputeDigest(algorithm, buffer, sizeof(buffer));
      const auto [it, inserted] = seen.emplace(digest, i);
      EXPECT_TRUE(inserted)
          << ToString(algorithm) << " collision between inputs "
          << it->second << " and " << i;
    }
  }
}

constexpr DigestAlgorithm kAllAlgorithms[] = {
    DigestAlgorithm::kMd5, DigestAlgorithm::kSha1, DigestAlgorithm::kSha256,
    DigestAlgorithm::kFnv1a};

/// Page contents as guests hold them: a MemoryProfile image (zero pages,
/// duplicate-pool contents, unique contents, so seeds repeat), the zero
/// seed, and `random_count` uniformly random seeds.
std::vector<std::uint64_t> PageSeedCorpus(Bytes profiled_ram,
                                          std::uint64_t random_count) {
  vm::GuestMemory profiled(profiled_ram, vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(0xd16e57);
  vm::MemoryProfile{}.Apply(profiled, rng);
  std::vector<std::uint64_t> seeds = profiled.Seeds();
  seeds.push_back(vm::kZeroPageSeed);
  for (std::uint64_t i = 0; i < random_count; ++i) {
    seeds.push_back(rng.Next());
  }
  return seeds;
}

TEST(DigestProperty, PageDigestsEqualExactlyWhenSeedsAre) {
  // Materialized digests hash real 4 KiB images, so that corpus is a few
  // thousand pages; seed-mode digests are a closed-form mix and get 64k.
  for (const auto mode :
       {vm::ContentMode::kSeedOnly, vm::ContentMode::kMaterialized}) {
    const bool seed_mode = mode == vm::ContentMode::kSeedOnly;
    const auto seeds = seed_mode ? PageSeedCorpus(MiB(16), 65536)
                                 : PageSeedCorpus(MiB(4), 2048);
    const std::set<std::uint64_t> distinct(seeds.begin(), seeds.end());
    for (const auto algorithm : kAllAlgorithms) {
      SCOPED_TRACE(std::string(ToString(algorithm)) +
                   (seed_mode ? " seed" : " materialized"));
      std::map<Digest128, std::uint64_t> seed_of;
      for (const auto seed : seeds) {
        const auto [it, inserted] =
            seed_of.emplace(vm::ContentDigest(mode, algorithm, seed), seed);
        if (!inserted) {
          ASSERT_EQ(it->second, seed) << "digest collision";
        }
      }
      // With no collisions, one digest per distinct seed means equal seeds
      // always digested equal.
      EXPECT_EQ(seed_of.size(), distinct.size());
    }
  }
}

TEST(DigestProperty, CheckpointDigestsMatchGuestMemory) {
  for (const auto mode :
       {vm::ContentMode::kSeedOnly, vm::ContentMode::kMaterialized}) {
    vm::GuestMemory memory(MiB(1), mode);
    Xoshiro256 rng(0xc4ec);
    vm::MemoryProfile{}.Apply(memory, rng);
    const auto checkpoint = storage::Checkpoint::CaptureFrom(memory);
    for (const auto algorithm : kAllAlgorithms) {
      for (vm::PageId page = 0; page < memory.PageCount(); ++page) {
        ASSERT_EQ(checkpoint.DigestAt(page, mode, algorithm),
                  memory.PageDigest(page, algorithm))
            << ToString(algorithm) << " page " << page;
      }
    }
  }
}

// =====================================================================
// Simulator properties: arbitrary schedules fire in nondecreasing order.
// =====================================================================

class SimulatorOrdering : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorOrdering, RandomSchedulesFireInOrder) {
  sim::Simulator simulator;
  Xoshiro256 rng(GetParam());
  std::vector<SimTime> fired;
  // Seed events that recursively schedule more events.
  std::function<void(int)> plant = [&](int depth) {
    fired.push_back(simulator.Now());
    if (depth <= 0) return;
    const int children = static_cast<int>(rng.NextBelow(3));
    for (int c = 0; c < children; ++c) {
      simulator.Schedule(Seconds(static_cast<double>(rng.NextBelow(100))),
                         [&plant, depth] { plant(depth - 1); });
    }
  };
  for (int i = 0; i < 10; ++i) {
    simulator.Schedule(Seconds(static_cast<double>(rng.NextBelow(1000))),
                       [&plant] { plant(4); });
  }
  simulator.Run();
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_GE(fired[i], fired[i - 1]);
  }
  EXPECT_GT(fired.size(), 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorOrdering,
                         ::testing::Values(1, 2, 3, 4, 5));

// =====================================================================
// Workload properties: exact op accounting over fragmented intervals.
// =====================================================================

class WorkloadRate : public ::testing::TestWithParam<double> {};

TEST_P(WorkloadRate, FragmentedAdvancesHonorTheRateExactly) {
  const double rate = GetParam();
  vm::GuestMemory memory(MiB(16), vm::ContentMode::kSeedOnly);
  vm::UniformRandomWorkload workload(rate, 5);
  // 1000 seconds delivered in awkward fragments.
  Xoshiro256 rng(11);
  double remaining = 1000.0;
  while (remaining > 0.0) {
    const double step = std::min(
        remaining, 0.1 + static_cast<double>(rng.NextBelow(50)) / 10.0);
    workload.Advance(memory, Seconds(step));
    remaining -= step;
  }
  // The fractional-carry mechanism bounds the error at one op (plus the
  // float rounding of the fragment sum); drift must not accumulate.
  EXPECT_NEAR(static_cast<double>(memory.TotalWrites()), rate * 1000.0,
              1.0);
}

INSTANTIATE_TEST_SUITE_P(Rates, WorkloadRate,
                         ::testing::Values(0.1, 1.0, 3.7, 12.5, 100.0));

// =====================================================================
// Saturated-interval fold: the dirty set per-store simulation produces.
// =====================================================================
//
// Over 100 seeds per region size, one interval of 63, 64 or 65 stores per
// region page runs through a library writer and through its per-store
// reference (per_store_writers.hpp) from the same profiled memory. The
// writer rotates with the seed: idle (hot region = the region, RAM twice
// its size), uniform (RAM = the region) and all-hot hotspot (hot half of
// RAM = the region).

/// Runs one interval of `writes` stores through `library` and
/// `reference` from the same profiled `ram_pages`-page memory, on a region
/// of pages [0, region).
template <typename Reference>
void ExpectPerStoreDirtySet(vm::Workload& library, Reference& reference,
                            std::uint64_t region, std::uint64_t ram_pages,
                            std::uint64_t seed, std::uint64_t writes) {
  vm::GuestMemory initial(Pages(ram_pages), vm::ContentMode::kSeedOnly);
  Xoshiro256 profile_rng(seed ^ 0xf01d);
  vm::MemoryProfile{}.Apply(initial, profile_rng);
  vm::GuestMemory ours = initial;
  vm::GuestMemory theirs = initial;
  library.Advance(ours, Seconds(1.0));
  reference.Advance(theirs, Seconds(1.0));

  const vm::DirtySnapshot snapshot(initial);
  const auto dirty = snapshot.DirtyPages(ours);
  EXPECT_EQ(dirty, snapshot.DirtyPages(theirs));
  EXPECT_EQ(ours.TotalWrites(), initial.TotalWrites() + writes);
  EXPECT_EQ(theirs.TotalWrites(), ours.TotalWrites());
  EXPECT_TRUE(std::all_of(dirty.begin(), dirty.end(),
                          [&](vm::PageId page) { return page < region; }));
  for (vm::PageId page = region; page < ram_pages; ++page) {
    EXPECT_EQ(ours.Seed(page), initial.Seed(page));
  }
  if (writes / region < vm::kSaturatingWritesPerPage) {
    // Unsaturated: simulated store by store, draw for draw.
    EXPECT_EQ(ours.Seeds(), theirs.Seeds());
    EXPECT_EQ(ours.Generations(), theirs.Generations());
    return;
  }
  // Saturated: folded, so every region page moved exactly once.
  EXPECT_EQ(dirty.size(), region);
  std::uint64_t bumped_once = 0;
  for (vm::PageId page = 0; page < region; ++page) {
    if (ours.Generation(page) == initial.Generation(page) + 1) ++bumped_once;
  }
  EXPECT_EQ(bumped_once, region);
}

class SaturationFold : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SaturationFold, DirtySetsMatchPerStoreSimulation) {
  const std::uint64_t region = GetParam();
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    for (const std::uint64_t per_page :
         {vm::kSaturatingWritesPerPage - 1, vm::kSaturatingWritesPerPage,
          vm::kSaturatingWritesPerPage + 1}) {
      const std::uint64_t writes = per_page * region;
      const auto rate = static_cast<double>(writes);  // over one second
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " per_page " << per_page);
      vm::reference::UniformWriter uniform(rate, region, seed);
      if (seed % 3 == 0) {
        vm::IdleWorkload idle({.write_rate_pages_per_s = rate,
                               .hot_region_pages = region,
                               .seed = seed});
        ExpectPerStoreDirtySet(idle, uniform, region, 2 * region, seed,
                               writes);
      } else if (seed % 3 == 1) {
        vm::UniformRandomWorkload library(rate, seed);
        ExpectPerStoreDirtySet(library, uniform, region, region, seed,
                               writes);
      } else {
        vm::HotspotWorkload hotspot({.write_rate_pages_per_s = rate,
                                     .hot_fraction = 0.5,
                                     .hot_probability = 1.0,
                                     .seed = seed});
        vm::reference::HotspotWriter reference(rate, 0.5, 1.0, seed);
        ExpectPerStoreDirtySet(hotspot, reference, region, 2 * region, seed,
                               writes);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Regions, SaturationFold,
                         ::testing::Values(1, 7, 64, 256, 1024));

// =====================================================================
// Similarity metric properties.
// =====================================================================

TEST(SimilarityProperty, BoundedAndReflexive) {
  Xoshiro256 rng(21);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::uint64_t> ha(128);
    std::vector<std::uint64_t> hb(128);
    for (auto& h : ha) h = rng.NextBelow(64);
    for (auto& h : hb) h = rng.NextBelow(64);
    const fp::Fingerprint a(kSimEpoch, ha);
    const fp::Fingerprint b(Minutes(30), hb);
    const double s = fp::Similarity(a, b);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    EXPECT_DOUBLE_EQ(fp::Similarity(a, a), 1.0);
  }
}

TEST(SimilarityProperty, MonotoneUnderContentLoss) {
  // Removing shared content from b can only lower similarity(a, b).
  Xoshiro256 rng(22);
  std::vector<std::uint64_t> base(256);
  for (std::size_t i = 0; i < base.size(); ++i) base[i] = i;
  const fp::Fingerprint a(kSimEpoch, base);

  double previous = 1.0;
  auto hashes = base;
  for (int round = 0; round < 8; ++round) {
    // Replace 32 surviving entries with fresh content.
    for (int k = 0; k < 32; ++k) {
      hashes[rng.NextBelow(hashes.size())] = (1ull << 40) + rng.Next();
    }
    const fp::Fingerprint b(Minutes(30 * (round + 1)), hashes);
    const double s = fp::Similarity(a, b);
    EXPECT_LE(s, previous + 1e-12);
    previous = s;
  }
}

// =====================================================================
// Migration invariants swept across strategy x mode x size x churn.
// =====================================================================

struct SweepCase {
  migration::Strategy strategy;
  vm::ContentMode mode;
  std::uint64_t ram_mib;
  double churn_pages_per_s;
};

class MigrationSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MigrationSweep, InvariantsHold) {
  const auto param = GetParam();

  sim::Simulator simulator;
  sim::Link link(sim::LinkConfig::Lan());
  sim::ChecksumEngine src_cpu{sim::ChecksumEngineConfig{}};
  sim::ChecksumEngine dst_cpu{sim::ChecksumEngineConfig{}};
  sim::Disk src_disk{sim::DiskConfig::Hdd()};
  sim::Disk dst_disk{sim::DiskConfig::Hdd()};
  storage::CheckpointStore src_store{src_disk};
  storage::CheckpointStore dst_store{dst_disk};

  vm::GuestMemory memory(MiB(param.ram_mib), param.mode);
  Xoshiro256 rng(0xbeef ^ param.ram_mib);
  vm::MemoryProfile{}.Apply(memory, rng);

  // Stale checkpoint + VM metadata from a previous visit.
  const auto departure = memory.Generations();
  dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory), kSimEpoch);
  std::vector<Digest128> knowledge;
  for (vm::PageId p = 0; p < memory.PageCount(); ++p) {
    knowledge.push_back(memory.PageDigest(p));
  }

  // Churn before and during the migration.
  vm::UniformRandomWorkload churn(param.churn_pages_per_s, 0x5ee);
  churn.Advance(memory, Seconds(30.0));

  migration::MigrationRun run;
  run.simulator = &simulator;
  run.link = &link;
  run.direction = sim::Direction::kAtoB;
  run.source_memory = &memory;
  run.workload = &churn;
  run.source = {&src_cpu, &src_store};
  run.destination = {&dst_cpu, &dst_store};
  run.vm_id = "vm";
  run.config.strategy = param.strategy;
  run.source_knowledge = std::make_shared<const DigestMap>(knowledge);
  run.departure_generations = departure;

  const auto outcome = migration::RunMigration(std::move(run));
  const auto& stats = outcome.stats;

  // 1. Exact reconstruction, always.
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));
  // 2. Round-1 accounting covers every page exactly once.
  EXPECT_EQ(stats.Round1Pages(), memory.PageCount());
  // 3. Time and traffic are sane.
  EXPECT_GT(stats.total_time, SimDuration::zero());
  EXPECT_GT(stats.tx_bytes.count, 0u);
  EXPECT_GE(stats.total_time, stats.downtime);
  // 4. A checkpoint-using strategy never ships more than RAM + overhead.
  EXPECT_LT(stats.tx_bytes.count,
            Pages(memory.PageCount()).count + memory.PageCount() * 64);
}

std::vector<SweepCase> SweepCases() {
  std::vector<SweepCase> cases;
  for (const auto strategy :
       {migration::Strategy::kFull, migration::Strategy::kDedup,
        migration::Strategy::kDirtyTracking, migration::Strategy::kHashes,
        migration::Strategy::kDirtyPlusDedup,
        migration::Strategy::kHashesPlusDedup}) {
    for (const auto mode :
         {vm::ContentMode::kSeedOnly, vm::ContentMode::kMaterialized}) {
      for (const std::uint64_t ram : {4ull, 16ull}) {
        for (const double churn : {0.0, 200.0}) {
          // Materialized mode only at the small size (it carries real
          // 4 KiB images).
          if (mode == vm::ContentMode::kMaterialized && ram > 4) continue;
          cases.push_back(SweepCase{strategy, mode, ram, churn});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    StrategyModeSizeChurn, MigrationSweep, ::testing::ValuesIn(SweepCases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      const auto& c = info.param;
      std::string name = ToString(c.strategy);
      for (auto& ch : name) {
        if (ch == '+') ch = '_';
      }
      name += c.mode == vm::ContentMode::kSeedOnly ? "_seed" : "_bytes";
      name += "_" + std::to_string(c.ram_mib) + "mib";
      name += c.churn_pages_per_s > 0 ? "_churn" : "_still";
      return name;
    });

// =====================================================================
// Stats conservation: the byte and page counters MigrationStats reports
// must be complete (cover everything the link carried) and disjoint
// (nothing booked under two names), for every strategy x hash-exchange
// mode x compression. Unlike MigrationSweep above, the source starts
// with NO knowledge of the destination, so the §3.2 bulk exchange and
// the per-page-query variant actually run and their traffic has to
// reconcile against the link's own byte counters.
// =====================================================================

struct ConservationCase {
  migration::Strategy strategy;
  migration::HashExchangeMode exchange;
  bool compression;
};

class StatsConservation
    : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(StatsConservation, WireAndPageAccountingReconcile) {
  const auto param = GetParam();

  sim::Simulator simulator;
  sim::Link link(sim::LinkConfig::Lan());
  sim::ChecksumEngine src_cpu{sim::ChecksumEngineConfig{}};
  sim::ChecksumEngine dst_cpu{sim::ChecksumEngineConfig{}};
  sim::Disk dst_disk{sim::DiskConfig::Hdd()};
  storage::CheckpointStore dst_store{dst_disk};

  vm::GuestMemory memory(MiB(16), vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(0xacc0);
  vm::MemoryProfile{}.Apply(memory, rng);

  // Stale checkpoint + departure-time generations from a previous visit,
  // then churn so later rounds and dirty skips both occur.
  const auto departure = memory.Generations();
  dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory), kSimEpoch);
  vm::UniformRandomWorkload churn(400.0, 0x5ee);
  churn.Advance(memory, Seconds(30.0));

  migration::MigrationRun run;
  run.simulator = &simulator;
  run.link = &link;
  run.direction = sim::Direction::kAtoB;
  run.source_memory = &memory;
  run.workload = &churn;
  run.source = {&src_cpu, nullptr};
  run.destination = {&dst_cpu, &dst_store};
  run.vm_id = "vm";
  run.config.strategy = param.strategy;
  run.config.hash_exchange = param.exchange;
  run.config.query_window = 4;
  run.config.compression.enabled = param.compression;
  run.config.stop_copy_threshold_pages = 64;
  run.departure_generations = departure;
  // Deliberately no source_knowledge: the exchange protocol must run.

  const auto outcome = migration::RunMigration(std::move(run));
  const auto& stats = outcome.stats;
  const auto& fwd = link.Stats(sim::Direction::kAtoB);
  const auto& bwd = link.Stats(sim::Direction::kBtoA);
  const std::uint64_t digest_bytes = WireSizeBytes(run.config.algorithm);
  const std::uint64_t question = net::kRecordHeaderBytes + digest_bytes;
  const std::uint64_t verdict = net::kRecordHeaderBytes + 1;

  // Round-1 page classification is a partition of guest RAM.
  EXPECT_EQ(stats.Round1Pages(), memory.PageCount());
  // Every checksum-only record was satisfied exactly once downstream.
  EXPECT_EQ(stats.pages_matched_in_place + stats.pages_from_checkpoint,
            stats.pages_sent_checksum);

  // Forward direction: everything on the wire is either channel traffic
  // (tx_bytes) or a raw query question frame — nothing else, nothing
  // counted twice.
  EXPECT_EQ(fwd.payload_bytes.count,
            stats.tx_bytes.count + stats.query_count * question);
  // Backward direction: the bulk exchange, one control ack per round, and
  // the query verdict frames.
  EXPECT_EQ(bwd.payload_bytes.count,
            stats.bulk_exchange_bytes.count +
                stats.rounds * net::kControlFrameBytes +
                stats.query_count * verdict);
  // query_bytes is exactly the question+verdict traffic, and the two
  // exchange mechanisms are mutually exclusive.
  EXPECT_EQ(stats.query_bytes.count,
            stats.query_count * (question + verdict));
  if (param.exchange == migration::HashExchangeMode::kBulk) {
    EXPECT_EQ(stats.query_count, 0u);
    EXPECT_EQ(stats.query_bytes.count, 0u);
    // The exchange must actually have run for hash strategies (the
    // source started with no knowledge), or the equations above pass
    // vacuously.
    if (migration::UsesContentHashes(param.strategy)) {
      EXPECT_GT(stats.bulk_exchange_bytes.count, 0u);
    }
  } else {
    EXPECT_EQ(stats.bulk_exchange_bytes.count, 0u);
    if (migration::UsesContentHashes(param.strategy)) {
      EXPECT_GT(stats.query_count, 0u);
    }
  }
  // Grand total: link payload in both directions decomposes into the
  // three disjoint stats counters plus the per-round ack frames.
  EXPECT_EQ(fwd.payload_bytes.count + bwd.payload_bytes.count,
            stats.tx_bytes.count + stats.bulk_exchange_bytes.count +
                stats.query_bytes.count +
                stats.rounds * net::kControlFrameBytes);

  // Compression accounting: on-wire never exceeds original; both zero
  // when compression is off.
  EXPECT_LE(stats.payload_bytes_on_wire.count,
            stats.payload_bytes_original.count);
  if (!param.compression) {
    EXPECT_EQ(stats.payload_bytes_original.count, 0u);
    EXPECT_EQ(stats.payload_bytes_on_wire.count, 0u);
  }
  // Guarded derived rates are finite even in degenerate corners.
  EXPECT_GE(stats.CompressionRatio(), 0.0);
  EXPECT_LE(stats.CompressionRatio(), 1.0);
  EXPECT_GE(stats.ThroughputBytesPerSecond(), 0.0);
}

std::vector<ConservationCase> ConservationCases() {
  std::vector<ConservationCase> cases;
  for (const auto strategy :
       {migration::Strategy::kFull, migration::Strategy::kDedup,
        migration::Strategy::kDirtyTracking, migration::Strategy::kHashes,
        migration::Strategy::kDirtyPlusDedup,
        migration::Strategy::kHashesPlusDedup}) {
    for (const auto exchange : {migration::HashExchangeMode::kBulk,
                                migration::HashExchangeMode::kPerPageQuery}) {
      for (const bool compression : {false, true}) {
        cases.push_back(ConservationCase{strategy, exchange, compression});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    StrategyExchangeCompression, StatsConservation,
    ::testing::ValuesIn(ConservationCases()),
    [](const ::testing::TestParamInfo<ConservationCase>& info) {
      const auto& c = info.param;
      std::string name = ToString(c.strategy);
      for (auto& ch : name) {
        if (ch == '+') ch = '_';
      }
      name += c.exchange == migration::HashExchangeMode::kBulk ? "_bulk"
                                                               : "_query";
      name += c.compression ? "_zlib" : "_raw";
      return name;
    });

// =====================================================================
// Transfer-stack conservation: multifd per-channel accounts and delta
// byte/page counters must reconcile against the link's own byte totals,
// for every (channels, delta) combination — forward wire bytes are the
// sum over channels, delta pages stay a subset of content sends, and
// the decoded memory digests equal to the source either way.
// =====================================================================

struct TransferStackCase {
  std::uint32_t channels;
  bool delta;
  bool compression;
};

class TransferStackConservation
    : public ::testing::TestWithParam<TransferStackCase> {};

TEST_P(TransferStackConservation, ChannelAndDeltaAccountingReconcile) {
  const auto param = GetParam();

  sim::Simulator simulator;
  sim::Link link(sim::LinkConfig::Lan());
  sim::ChecksumEngine src_cpu{sim::ChecksumEngineConfig{}};
  sim::ChecksumEngine dst_cpu{sim::ChecksumEngineConfig{}};
  sim::Disk dst_disk{sim::DiskConfig::Hdd()};
  storage::CheckpointStore dst_store{dst_disk};

  vm::GuestMemory memory(MiB(16), vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(0x7f5);
  vm::MemoryProfile{}.Apply(memory, rng);

  // Return-migration setup: recycled checkpoint + departure seeds, then
  // churn, so delta encoding has a baseline and later rounds resend.
  const auto departure_seeds = memory.Seeds();
  const auto departure_generations = memory.Generations();
  dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory), kSimEpoch);
  vm::UniformRandomWorkload churn(400.0, 0x5ef);
  churn.Advance(memory, Seconds(30.0));

  migration::MigrationRun run;
  run.simulator = &simulator;
  run.link = &link;
  run.direction = sim::Direction::kAtoB;
  run.source_memory = &memory;
  run.workload = &churn;
  run.source = {&src_cpu, nullptr};
  run.destination = {&dst_cpu, &dst_store};
  run.vm_id = "vm";
  run.config.strategy = migration::Strategy::kHashes;
  run.config.audit = true;  // per-channel byte-conservation audits armed
  run.config.multifd.enabled = param.channels > 1;
  run.config.multifd.channels = param.channels;
  run.config.delta.enabled = param.delta;
  run.config.compression.enabled = param.compression;
  run.config.stop_copy_threshold_pages = 64;
  run.departure_generations = departure_generations;
  run.departure_seeds = departure_seeds;
  const double delta_max_ratio = run.config.delta.max_ratio;

  const auto outcome = migration::RunMigration(std::move(run));
  const auto& stats = outcome.stats;
  const auto& fwd = link.Stats(sim::Direction::kAtoB);
  const auto& bwd = link.Stats(sim::Direction::kBtoA);

  // The decoded destination image digests equal to the source.
  EXPECT_TRUE(outcome.dest_memory->ContentEquals(memory));

  // Multifd accounting: the per-channel byte accounts are complete and
  // sum to tx_bytes, which is everything the forward wire carried (no
  // knowledge was given, so the bulk exchange ran backward).
  EXPECT_EQ(stats.multifd_channels, param.channels);
  ASSERT_EQ(stats.tx_bytes_per_channel.size(), param.channels);
  Bytes per_channel_sum;
  for (const auto bytes : stats.tx_bytes_per_channel) {
    per_channel_sum += bytes;
  }
  EXPECT_EQ(per_channel_sum, stats.tx_bytes);
  EXPECT_EQ(fwd.payload_bytes.count, stats.tx_bytes.count);
  // Backward: bulk exchange + one ack per round (+ nothing else in a
  // fault-free run — no resend requests).
  EXPECT_EQ(bwd.payload_bytes.count,
            stats.bulk_exchange_bytes.count +
                stats.rounds * net::kControlFrameBytes);

  // Round-1 classification is a partition of guest RAM, with delta pages
  // as a subset of the content sends (not a fifth class).
  EXPECT_EQ(stats.Round1Pages(), memory.PageCount());
  EXPECT_LE(stats.pages_sent_delta,
            stats.pages_sent_full + stats.pages_resent_dirty);

  // Delta accounting: encoded never exceeds original, fraction per page
  // never exceeds max_ratio (plus the 16-byte token floor), all zero
  // when the capability is off.
  EXPECT_LE(stats.delta_bytes_on_wire.count,
            stats.delta_bytes_original.count);
  if (param.delta) {
    EXPECT_GT(stats.pages_sent_delta, 0u);
    EXPECT_EQ(stats.delta_bytes_original.count,
              stats.pages_sent_delta * kPageSize);
    EXPECT_LE(stats.delta_bytes_on_wire.count,
              static_cast<std::uint64_t>(
                  static_cast<double>(stats.delta_bytes_original.count) *
                  delta_max_ratio) +
                  16 * stats.pages_sent_delta);
  } else {
    EXPECT_EQ(stats.pages_sent_delta, 0u);
    EXPECT_EQ(stats.delta_bytes_original.count, 0u);
    EXPECT_EQ(stats.delta_bytes_on_wire.count, 0u);
  }
  // Pristine checkpoint: the per-page degradation path stayed quiet.
  EXPECT_EQ(stats.pages_delta_fallback, 0u);
}

std::vector<TransferStackCase> TransferStackCases() {
  std::vector<TransferStackCase> cases;
  for (const std::uint32_t channels : {1u, 2u, 4u, 8u}) {
    for (const bool delta : {false, true}) {
      for (const bool compression : {false, true}) {
        // Delta and compression are mutually exclusive per record; the
        // combined case proves they partition rather than double-book.
        cases.push_back(TransferStackCase{channels, delta, compression});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    ChannelsDeltaCompression, TransferStackConservation,
    ::testing::ValuesIn(TransferStackCases()),
    [](const ::testing::TestParamInfo<TransferStackCase>& info) {
      const auto& c = info.param;
      std::string name = "ch" + std::to_string(c.channels);
      name += c.delta ? "_delta" : "_plain";
      name += c.compression ? "_zlib" : "_raw";
      return name;
    });

// =====================================================================
// Both ends digest alike. On a warm return leg without source knowledge
// the source names pages by digest and the destination looks them up in
// an index it built over its checkpoint; the two must agree for every
// page representation and algorithm. So seed and materialized mode give
// identical stats, and SHA-1 moves exactly the bytes and pages MD5 does
// (the guest is quiet during the leg, so no count depends on the
// algorithm's simulated hashing rate).
// =====================================================================

migration::MigrationStats RunWarmReturnLeg(migration::Strategy strategy,
                                           vm::ContentMode mode,
                                           DigestAlgorithm algorithm) {
  sim::Simulator simulator;
  sim::Link link(sim::LinkConfig::Lan());
  sim::ChecksumEngine src_cpu{sim::ChecksumEngineConfig{}};
  sim::ChecksumEngine dst_cpu{sim::ChecksumEngineConfig{}};
  sim::Disk dst_disk{sim::DiskConfig::Hdd()};
  storage::CheckpointStore dst_store{dst_disk};

  vm::GuestMemory memory(MiB(8), mode);
  Xoshiro256 rng(0xcac4e);
  vm::MemoryProfile{}.Apply(memory, rng);

  // The stale checkpoint of the previous visit, then churn before the leg.
  const auto departure = memory.Generations();
  dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory), kSimEpoch);
  vm::UniformRandomWorkload churn(300.0, 0x5ee);
  churn.Advance(memory, Seconds(5.0));

  migration::MigrationRun run;
  run.simulator = &simulator;
  run.link = &link;
  run.direction = sim::Direction::kAtoB;
  run.source_memory = &memory;
  run.source = {&src_cpu, nullptr};
  run.destination = {&dst_cpu, &dst_store};
  run.vm_id = "vm";
  run.config.strategy = strategy;
  run.config.algorithm = algorithm;
  run.departure_generations = departure;
  // No source knowledge, so hash strategies run the full bulk exchange
  // and every digest-dependent code path executes.

  return migration::RunMigration(std::move(run)).stats;
}

TEST(DigestAgreement, WarmReturnLegIndependentOfModeAndAlgorithm) {
  for (const auto strategy :
       {migration::Strategy::kFull, migration::Strategy::kDedup,
        migration::Strategy::kDirtyTracking, migration::Strategy::kHashes,
        migration::Strategy::kDirtyPlusDedup,
        migration::Strategy::kHashesPlusDedup}) {
    SCOPED_TRACE(ToString(strategy));
    const auto md5 = RunWarmReturnLeg(strategy, vm::ContentMode::kSeedOnly,
                                      DigestAlgorithm::kMd5);
    if (migration::UsesContentHashes(strategy)) {
      EXPECT_GT(md5.pages_sent_checksum, 0u);
    }

    EXPECT_EQ(RunWarmReturnLeg(strategy, vm::ContentMode::kMaterialized,
                               DigestAlgorithm::kMd5),
              md5);

    const auto sha1 = RunWarmReturnLeg(strategy, vm::ContentMode::kSeedOnly,
                                       DigestAlgorithm::kSha1);
    EXPECT_EQ(sha1.tx_bytes, md5.tx_bytes);
    EXPECT_EQ(sha1.bulk_exchange_bytes, md5.bulk_exchange_bytes);
    EXPECT_EQ(sha1.pages_sent_full, md5.pages_sent_full);
    EXPECT_EQ(sha1.pages_sent_checksum, md5.pages_sent_checksum);
    EXPECT_EQ(sha1.pages_dup_ref, md5.pages_dup_ref);
    EXPECT_EQ(sha1.pages_skipped_clean, md5.pages_skipped_clean);
    EXPECT_EQ(sha1.pages_resent_dirty, md5.pages_resent_dirty);
    EXPECT_EQ(sha1.pages_matched_in_place, md5.pages_matched_in_place);
    EXPECT_EQ(sha1.pages_from_checkpoint, md5.pages_from_checkpoint);
    EXPECT_EQ(sha1.fallback_pages, md5.fallback_pages);
  }
}

}  // namespace
}  // namespace vecycle
