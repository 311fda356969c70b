// Fault sweep: migration fleets on an unreliable WAN.
//
// The paper's setting assumes checkpoints that cannot be trusted (§3.3's
// integrity scan) and WAN links that are far from perfect (§4.4). This
// bench quantifies the recovery machinery end to end: a small fleet
// ping-pongs across the CloudNet-style WAN while an injected fault plan
// cuts the link at increasing rates and rots half of all checkpoint
// write-backs. Sessions cut mid-flight abort and are retried with
// exponential backoff (capped attempts); corrupted recycled checkpoints
// degrade to per-page resends instead of aborting. The table reports,
// per strategy and outage rate, the fleet makespan and the recovery
// counters — retries, aborts, fallback pages — that EXPERIMENTS.md
// tracks as the fault baseline.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "audit/audit.hpp"
#include "bench_util.hpp"
#include "fault/fault.hpp"

namespace {

using namespace vecycle;

constexpr std::size_t kVmCount = 4;
const Bytes kRam = MiB(128);

struct SweepResult {
  SimDuration makespan = SimDuration::zero();
  Bytes total_tx;
  std::uint64_t retries = 0;
  std::uint64_t aborts = 0;
  std::uint64_t fallback_pages = 0;
  std::uint64_t link_cuts = 0;
};

SweepResult Sweep(migration::Strategy strategy, double outages_per_hour) {
  bench::TwoHostWorld world(sim::LinkConfig::Wan());

  fault::FaultConfig fault_config;
  fault_config.enabled = true;
  fault_config.seed = 42;
  fault_config.link_outages_per_hour = outages_per_hour;
  fault_config.link_outage_mean = Seconds(10.0);
  fault_config.link_degradations_per_hour = 4.0;
  fault_config.link_degradation_mean = Seconds(30.0);
  fault_config.corrupt_probability = 0.5;
  fault_config.corrupt_pages = 128;
  fault_config.disk_errors_per_hour = 6.0;
  fault::FaultInjector injector(fault_config);

  audit::SimAuditor auditor;  // conservation stays armed under faults
  core::SchedulerConfig scheduler_config;
  scheduler_config.instruments.injector = &injector;
  scheduler_config.instruments.auditor = &auditor;
  scheduler_config.max_attempts = 5;
  scheduler_config.throw_on_abort = false;  // report aborts as a column
  core::MigrationOrchestrator orchestrator(world.cluster, scheduler_config);

  std::vector<std::unique_ptr<core::VmInstance>> vms;
  std::vector<core::VmInstance*> fleet;
  for (std::size_t i = 0; i < kVmCount; ++i) {
    auto vm = std::make_unique<core::VmInstance>(
        "vm" + std::to_string(i), kRam, vm::ContentMode::kSeedOnly);
    Xoshiro256 rng(100 + i);
    vm::MemoryProfile{}.Apply(vm->Memory(), rng);
    vm->SetWorkload(std::make_unique<vm::IdleWorkload>(
        vm::IdleWorkload::Config{.seed = 500 + i}));
    orchestrator.Deploy(*vm, "A");
    fleet.push_back(vm.get());
    vms.push_back(std::move(vm));
  }

  migration::MigrationConfig config;
  config.strategy = strategy;

  // Outbound leg, a working day away, then the return. A VM whose leg
  // aborted permanently stays where it is; later legs are skipped the
  // way a control plane would skip a journey with a missing segment.
  // Makespan counts only the two drain windows — the time the fleet
  // actually spent migrating (and retrying), not the dwell between legs.
  SimDuration migrating = SimDuration::zero();
  const auto drain_timed = [&] {
    const SimTime before = world.simulator.Now();
    orchestrator.Drain();
    migrating += world.simulator.Now() - before;
  };
  orchestrator.RunFor(fleet, Minutes(10.0));
  for (auto* vm : fleet) orchestrator.MigrateAsync(*vm, "B", config);
  drain_timed();
  orchestrator.RunFor(fleet, Hours(8.0));
  for (auto* vm : fleet) {
    if (vm->CurrentHost() == "B") orchestrator.MigrateAsync(*vm, "A", config);
  }
  drain_timed();

  auto& scheduler = orchestrator.Scheduler();
  SweepResult result;
  result.makespan = migrating;
  // Wire-level payload, both directions: cut attempts spent these bytes
  // too, so the cost of a retry storm is visible even when nothing
  // completed (the per-completion stats would read zero).
  const auto path = world.cluster.PathBetween("A", "B");
  result.total_tx = path.link->Stats(sim::Direction::kAtoB).payload_bytes +
                    path.link->Stats(sim::Direction::kBtoA).payload_bytes;
  for (const auto& completion : scheduler.Completions()) {
    result.fallback_pages += completion.stats.fallback_pages;
  }
  result.retries = scheduler.Retries();
  result.aborts = scheduler.Aborts().size();
  result.link_cuts = injector.Stats().link_cuts;
  return result;
}

std::string StrategyName(migration::Strategy strategy) {
  switch (strategy) {
    case migration::Strategy::kFull:
      return "full pre-copy";
    case migration::Strategy::kHashes:
      return "VeCycle";
    default:
      return "VeCycle+dedup";
  }
}

}  // namespace

int main() {
  const obs::ScopedReporter reporter("fault_sweep");
  bench::PrintHeader(
      "Fault sweep: 4-VM WAN ping-pong under injected outages "
      "(mean 10 s), 50% checkpoint rot, capped retries");

  analysis::Table table({"Outages/h", "Scheme", "Migration time",
                         "Wire payload", "Retries", "Aborts",
                         "Fallback pages"});
  for (const double rate : {0.0, 30.0, 120.0}) {
    for (const auto strategy :
         {migration::Strategy::kFull, migration::Strategy::kHashes,
          migration::Strategy::kHashesPlusDedup}) {
      const auto result = Sweep(strategy, rate);
      table.AddRow({analysis::Table::Num(rate, 0), StrategyName(strategy),
                    FormatDuration(result.makespan),
                    FormatBytes(result.total_tx),
                    std::to_string(result.retries),
                    std::to_string(result.aborts),
                    std::to_string(result.fallback_pages)});
    }
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf(
      "Reading the table: the fallback pages come from the 50%%\n"
      "checkpoint-rot probability, not the link — every one was re-sent\n"
      "in full over the wire instead of aborting the return leg (§3.3's\n"
      "integrity scan made recoverable), at every outage rate including\n"
      "zero. Outages hit all strategies at the same simulated instants,\n"
      "so the retry counts match across schemes; the cost shows up as\n"
      "backoff-stretched migration time and wire payload burned by cut\n"
      "attempts. At 120 outages/h the WAN is down often enough that\n"
      "every attempt of the outbound leg is cut: the attempt cap fires,\n"
      "the fleet stays at its source — aborted loudly rather than stuck\n"
      "silently — and the wire payload is pure waste.\n");
  return 0;
}
