// The benchmark's three workloads, each built and run through the
// library's public API only (core::MigrationOrchestrator and
// core::MigrationScheduler, the vm and policy interfaces, and the
// read-only counters of the simulator, stores and MigrationStats).
//
//  * diurnal        — bench_policy's diurnal corpus entry under
//                     affinity+cycle placement on one simulator; the fleet
//                     running in place between waves dominates.
//  * fleet_pingpong — fleet_pdes's 1000-host / 10k-VM topology under PDES:
//                     a cold leg to the partner host, then after idle
//                     dwells a warm leg home and a warm leg out again.
//                     Per-session cost and barriers dominate.
//  * wan_return     — 512 MiB VMs bouncing between two WAN hosts with
//                     chunked stores, multifd and delta encoding; per-page
//                     work dominates.
//
// Every input derives from one seed: the library only ever sees the
// generated scenario, memory profiles and workload RNG seeds.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "migration/config.hpp"
#include "policy/placement.hpp"
#include "policy/scenario.hpp"
#include "spans.hpp"

namespace perfbench {

enum class WorkloadKind { kDiurnal, kFleetPingpong, kWanReturn };

[[nodiscard]] std::string_view WorkloadName(WorkloadKind kind);
[[nodiscard]] std::optional<WorkloadKind> ParseWorkload(std::string_view name);

struct RunConfig {
  WorkloadKind workload = WorkloadKind::kDiurnal;
  std::uint64_t seed = 1;
  /// Wraps workloads and the policy in timing decorators and records
  /// spans. Never changes a model output.
  bool traced = false;
  /// PDES worker threads for fleet_pingpong (0 = min(4, cores)). Never
  /// changes a model output.
  std::size_t workers = 0;
};

/// Deterministic (simulated) outputs of one iteration: a function of the
/// workload and seed alone, identical whatever the tracing and worker
/// count. Legs are in completion order.
struct ModelOutputs {
  std::uint64_t legs_expected = 0;
  std::uint64_t legs_completed = 0;
  std::uint64_t aborts = 0;
  std::uint64_t wire_bytes = 0;
  std::vector<vecycle::SimDuration> migration_times;
  std::vector<vecycle::SimDuration> downtimes;
  /// Submit to completion minus total_time, per leg submitted by the
  /// benchmark itself (fleet_pingpong only).
  std::vector<vecycle::SimDuration> queue_waits;
  /// Chained SplitMix64 over the PDES audit fingerprint (0 on one
  /// simulator), completed legs, wire bytes and p99 downtime — the same
  /// fold as policy::RunResult::fingerprint.
  std::uint64_t fingerprint = 0;

  std::uint64_t rounds = 0;
  std::uint64_t pages_full = 0;
  std::uint64_t pages_checksum = 0;
  std::uint64_t pages_resent_dirty = 0;
  std::uint64_t round1_pages = 0;
  std::uint64_t pages_from_checkpoint = 0;
  std::uint64_t bulk_exchange_bytes = 0;
  std::uint64_t delta_bytes_original = 0;
  std::uint64_t delta_bytes_on_wire = 0;
  std::uint64_t hashed_bytes = 0;  ///< source + destination
  std::vector<std::uint64_t> channel_bytes;  ///< Σ tx per channel index

  std::uint64_t checkpoints = 0;
  std::uint64_t footprint_bytes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t chunks_written = 0;
  std::uint64_t chunks_deduped = 0;

  std::vector<std::uint64_t> shard_events;  ///< one entry per simulator

  /// policy::DecisionStats of the placement policy (diurnal only).
  std::uint64_t decisions = 0;
  std::uint64_t deferred = 0;
  std::uint64_t affinity_hits = 0;

  friend bool operator==(const ModelOutputs&, const ModelOutputs&) = default;
};

/// Host time of one call that runs migrations (Drain, Migrate, or a
/// RunPolicy wave), with the kind of legs it ran. Measured in every run.
/// A RunPolicy wave counts no legs: its legs' kind is not known outside.
struct MigrationCall {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint32_t warm_legs = 0;  ///< destination held a checkpoint of the VM
  std::uint32_t cold_legs = 0;
};

struct IterationResult {
  ModelOutputs model;
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< timed phase, after set-up
  double cpu_s = 0.0;   ///< user + system CPU of the timed phase
  std::vector<MigrationCall> migration_calls;
  std::vector<Span> spans;  ///< empty unless traced
};

/// Builds the workload's world from `config.seed` and runs it once.
/// Throws vecycle::CheckFailure when the library's own checks fail.
[[nodiscard]] IterationResult RunIteration(const RunConfig& config);

/// Builds the world as RunIteration does, then tears it down unrun;
/// returns the build's host time (IterationResult::setup_s).
[[nodiscard]] double SetupSeconds(const RunConfig& config);

/// The diurnal workload's inputs, exposed so a test can feed the same
/// scenario to policy::PolicyRunner::Run.
[[nodiscard]] vecycle::policy::Scenario DiurnalScenario(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<vecycle::policy::PlacementPolicy>
DiurnalPolicy();
[[nodiscard]] vecycle::migration::MigrationConfig DiurnalMigrationConfig();

/// Nearest-rank percentile `q` in [0, 100] of `samples` (zero if empty).
[[nodiscard]] vecycle::SimDuration Percentile(
    std::vector<vecycle::SimDuration> samples, double q);

/// The highest percentile with at least ten samples above it, for N
/// samples: 100 * (N - 10) / N (the median for N < 20).
[[nodiscard]] double TailPercentile(std::size_t samples);

}  // namespace perfbench
