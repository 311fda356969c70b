// Wall-clock performance harness for the hot paths this repo's benches
// lean on: page digests (real MD5 over materialized pages, the closed-form
// seed-mode digest), digest-map construction
// and membership probing (flat hash table vs the sorted-vector baseline
// it replaced), simulator event throughput, and the full six-strategy
// migration sweep of bench_fig5. Workloads are deterministic (fixed
// seeds, fixed iteration counts); only the measured wall time varies by
// machine. Emits BENCH_perf.json for tools/bench_compare.py.
//
// Usage: bench_perf [--out BENCH_perf.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/cluster.hpp"
#include "core/scheduler.hpp"
#include "core/vm_instance.hpp"
#include "digest/digest_map.hpp"
#include "digest/hasher.hpp"
#include "sim/simulator.hpp"
#include "vm/guest_memory.hpp"

namespace {

using namespace vecycle;
using Clock = std::chrono::steady_clock;

struct Result {
  std::string name;
  std::uint64_t iters = 0;
  double ns_per_op = 0.0;
  double bytes_per_sec = 0.0;  // 0 = not a throughput benchmark
};

/// Best-of-`reps` wall time of `body()` (which performs `iters`
/// operations), after one untimed warmup call.
template <typename Body>
Result Measure(const std::string& name, std::uint64_t iters,
               std::uint64_t bytes_per_op, int reps, Body body) {
  body();  // warmup
  double best_ns = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    body();
    const auto t1 = Clock::now();
    best_ns = std::min(
        best_ns, std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  Result result;
  result.name = name;
  result.iters = iters;
  result.ns_per_op = best_ns / static_cast<double>(iters);
  if (bytes_per_op > 0) {
    result.bytes_per_sec = static_cast<double>(bytes_per_op) * 1e9 /
                           result.ns_per_op;
  }
  std::printf("%-32s %12.1f ns/op", name.c_str(), result.ns_per_op);
  if (bytes_per_op > 0) {
    std::printf("  %8.1f MiB/s", result.bytes_per_sec / (1024.0 * 1024.0));
  }
  std::printf("\n");
  return result;
}

std::vector<Digest128> RandomDigests(std::uint64_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Digest128> digests;
  digests.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    digests.push_back(Digest128::FromWords(rng.Next(), rng.Next()));
  }
  return digests;
}

// --- page hashing -----------------------------------------------------

Result BenchPageHashMaterialized() {
  constexpr std::uint64_t kPages = 2048;
  vm::GuestMemory memory(Bytes{kPages * kPageSize},
                         vm::ContentMode::kMaterialized);
  Xoshiro256 rng(7);
  for (vm::PageId p = 0; p < kPages; ++p) memory.WritePage(p, rng.Next());
  return Measure("page_hash_materialized", kPages, kPageSize, 10, [&] {
    for (vm::PageId p = 0; p < kPages; ++p) {
      volatile std::uint64_t sink = memory.PageDigest(p).words[0];
      (void)sink;
    }
  });
}

Result BenchPageDigestSeed() {
  constexpr std::uint64_t kPages = 65536;
  vm::GuestMemory memory(Bytes{kPages * kPageSize},
                         vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(7);
  for (vm::PageId p = 0; p < kPages; ++p) memory.WritePage(p, rng.Next());
  return Measure("page_digest_seed", kPages, 0, 10, [&] {
    for (vm::PageId p = 0; p < kPages; ++p) {
      volatile std::uint64_t sink = memory.PageDigest(p).words[0];
      (void)sink;
    }
  });
}

// --- digest-map membership --------------------------------------------

Result BenchDigestMapBuild() {
  constexpr std::uint64_t kCount = 65536;
  const auto digests = RandomDigests(kCount, 11);
  return Measure("digest_map_build_64k", kCount, 0, 10, [&] {
    const DigestMap map(digests);  // sized once, then filled
    volatile std::uint64_t sink = map.Size();
    (void)sink;
  });
}

Result BenchDigestMapProbe(bool hit) {
  constexpr std::uint64_t kCount = 65536;
  const auto digests = RandomDigests(kCount, 11);
  const DigestMap map(digests);
  const auto probes = hit ? RandomDigests(kCount, 11)   // same stream
                          : RandomDigests(kCount, 13);  // disjoint stream
  return Measure(hit ? "digest_map_probe_hit" : "digest_map_probe_miss",
                 kCount, 0, 10, [&] {
                   std::uint64_t found = 0;
                   for (const auto& d : probes) {
                     found += map.Contains(d) ? 1 : 0;
                   }
                   volatile std::uint64_t sink = found;
                   (void)sink;
                 });
}

Result BenchSortedVectorProbe() {
  // The §3.3 sorted list DigestMap replaced, kept as the comparison point.
  constexpr std::uint64_t kCount = 65536;
  auto sorted = RandomDigests(kCount, 11);
  std::sort(sorted.begin(), sorted.end());
  const auto probes = RandomDigests(kCount, 11);
  return Measure("sorted_vector_probe_hit", kCount, 0, 10, [&] {
    std::uint64_t found = 0;
    for (const auto& d : probes) {
      found += std::binary_search(sorted.begin(), sorted.end(), d) ? 1 : 0;
    }
    volatile std::uint64_t sink = found;
    (void)sink;
  });
}

// --- simulator --------------------------------------------------------

Result BenchSimulatorEvents() {
  constexpr std::uint64_t kEvents = 200000;
  return Measure("simulator_events", kEvents, 0, 10, [&] {
    sim::Simulator simulator;
    simulator.Reserve(kEvents);
    Xoshiro256 rng(3);
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      simulator.ScheduleAt(SimTime{std::chrono::nanoseconds(
                               rng.Next() % 1000000000)},
                           [&fired] { ++fired; });
    }
    simulator.Run();
    volatile std::uint64_t sink = fired;
    (void)sink;
  });
}

// --- end-to-end sweep -------------------------------------------------

Result BenchMigrationSweep() {
  constexpr std::uint64_t kMigrations = 6;
  return Measure("migration_sweep", kMigrations, 0, 3, [&] {
    for (const auto strategy :
         {migration::Strategy::kFull, migration::Strategy::kDedup,
          migration::Strategy::kDirtyTracking, migration::Strategy::kHashes,
          migration::Strategy::kDirtyPlusDedup,
          migration::Strategy::kHashesPlusDedup}) {
      vm::UniformRandomWorkload churn(400.0, 0x5eed);
      (void)bench::MeasureReturnMigration(sim::LinkConfig::Lan(), MiB(64),
                                          strategy, &churn, Seconds(30.0));
    }
  });
}

Result BenchFleetSweep() {
  // Scheduler-driven fleet wave: 8 VMs on 3 hosts, per-host caps of 2,
  // all submitted at once so admissions overlap and queue. The world is
  // rebuilt per rep — the measurement covers setup + drain, matching how
  // the examples use the scheduler.
  constexpr std::uint64_t kFleet = 8;
  return Measure("fleet_sweep", kFleet, 0, 3, [&] {
    sim::Simulator simulator;
    core::Cluster cluster(simulator);
    cluster.AddHost({"a", sim::DiskConfig::Ssd(), {}, {}, {}});
    cluster.AddHost({"b", sim::DiskConfig::Ssd(), {}, {}, {}});
    cluster.AddHost({"c", sim::DiskConfig::Ssd(), {}, {}, {}});
    cluster.Connect("a", "b", sim::LinkConfig::Lan());
    cluster.Connect("b", "c", sim::LinkConfig::Lan());
    cluster.Connect("a", "c", sim::LinkConfig::Lan());
    core::SchedulerConfig scheduler_config;
    scheduler_config.max_outgoing_per_host = 2;
    scheduler_config.max_incoming_per_host = 2;
    core::MigrationScheduler scheduler(cluster, scheduler_config);
    const char* hosts[] = {"a", "b", "c"};
    std::vector<std::unique_ptr<core::VmInstance>> fleet;
    for (std::uint64_t i = 0; i < kFleet; ++i) {
      fleet.push_back(std::make_unique<core::VmInstance>(
          "vm-" + std::to_string(i), MiB(16), vm::ContentMode::kSeedOnly));
      Xoshiro256 rng(0xf1ee7 + i);
      vm::MemoryProfile{}.Apply(fleet.back()->Memory(), rng);
      fleet.back()->SetCurrentHost(hosts[i % 3]);
    }
    migration::MigrationConfig config;
    config.strategy = migration::Strategy::kHashesPlusDedup;
    for (std::uint64_t i = 0; i < kFleet; ++i) {
      scheduler.Submit(*fleet[i], hosts[(i + 1) % 3], config);
    }
    volatile std::uint64_t sink = scheduler.Drain();
    (void)sink;
  });
}

void WriteJson(const std::string& path, const std::vector<Result>& results) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"schema\": \"vecycle.bench_perf.v1\",\n");
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"iters\": %llu, "
                 "\"ns_per_op\": %.3f, \"ops_per_sec\": %.3f",
                 r.name.c_str(),
                 static_cast<unsigned long long>(r.iters), r.ns_per_op,
                 1e9 / r.ns_per_op);
    if (r.bytes_per_sec > 0) {
      std::fprintf(out, ", \"bytes_per_sec\": %.1f", r.bytes_per_sec);
    }
    std::fprintf(out, "}%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out FILE.json]\n", argv[0]);
      return 2;
    }
  }

  bench::PrintHeader("bench_perf: hot-path wall-clock benchmarks");

  std::vector<Result> results;
  results.push_back(BenchPageHashMaterialized());
  results.push_back(BenchPageDigestSeed());
  results.push_back(BenchDigestMapBuild());
  results.push_back(BenchDigestMapProbe(/*hit=*/true));
  results.push_back(BenchDigestMapProbe(/*hit=*/false));
  results.push_back(BenchSortedVectorProbe());
  results.push_back(BenchSimulatorEvents());
  results.push_back(BenchMigrationSweep());
  results.push_back(BenchFleetSweep());

  if (!out_path.empty()) WriteJson(out_path, results);
  return 0;
}
