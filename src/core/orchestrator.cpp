#include "core/orchestrator.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/check.hpp"

namespace vecycle::core {
namespace {

/// Sorted, deduped candidate list without the VM's current host. Empty
/// input resolves to every host directly linked to the current host, in
/// lexicographic order (Cluster::Hosts is AddHost order; sorting makes
/// the result independent of it).
std::vector<HostId> ResolveCandidates(const Cluster& cluster,
                                      const VmInstance& vm,
                                      std::vector<HostId> candidates) {
  VEC_CHECK_MSG(!vm.CurrentHost().empty(), "VM is not deployed");
  if (candidates.empty()) {
    for (const Host* host : cluster.Hosts()) {
      if (host->Id() != vm.CurrentHost() &&
          cluster.LinkBetween(vm.CurrentHost(), host->Id()) != nullptr) {
        candidates.push_back(host->Id());
      }
    }
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::erase(candidates, vm.CurrentHost());
  VEC_CHECK_MSG(!candidates.empty(),
                "no candidate destination for VM " + vm.Id());
  return candidates;
}

}  // namespace

void MigrationOrchestrator::Deploy(VmInstance& vm, const HostId& host) {
  VEC_CHECK_MSG(vm.CurrentHost().empty(), "VM is already deployed");
  (void)cluster_.GetHost(host);  // existence check
  vm.SetCurrentHost(host);
}

void MigrationOrchestrator::RunFor(VmInstance& vm, SimDuration duration) {
  VEC_CHECK_MSG(!vm.CurrentHost().empty(), "VM is not deployed");
  if (pdes_ != nullptr) {
    pdes_->AdvanceAllTo(pdes_->MaxNow() + duration);
  } else {
    auto& simulator = cluster_.Simulator();
    simulator.RunUntil(simulator.Now() + duration);
  }
  if (vm.Workload() != nullptr) {
    vm.Workload()->Advance(vm.Memory(), duration);
  }
}

void MigrationOrchestrator::RunFor(const std::vector<VmInstance*>& vms,
                                   SimDuration duration) {
  if (pdes_ != nullptr) {
    // Quiescent advance: every shard reaches the same deadline, so the
    // fleet shares one clock again before the workloads churn.
    pdes_->AdvanceAllTo(pdes_->MaxNow() + duration);
  } else {
    auto& simulator = cluster_.Simulator();
    simulator.RunUntil(simulator.Now() + duration);
  }
  for (VmInstance* vm : vms) {
    VEC_CHECK(vm != nullptr);
    VEC_CHECK_MSG(!vm->CurrentHost().empty(), "VM is not deployed");
    if (vm->Workload() != nullptr) {
      vm->Workload()->Advance(vm->Memory(), duration);
    }
  }
}

SessionId MigrationOrchestrator::MigrateAsync(
    VmInstance& vm, const HostId& to,
    const migration::MigrationConfig& config, int priority,
    MigrationScheduler::CompletionCallback on_complete) {
  return scheduler_.Submit(vm, to, config, priority,
                           std::move(on_complete));
}

policy::Decision MigrationOrchestrator::MigrateAuto(
    VmInstance& vm, policy::PlacementPolicy& policy,
    const migration::MigrationConfig& config,
    std::vector<HostId> candidates,
    const std::vector<VmInstance*>* fleet, int priority,
    MigrationScheduler::CompletionCallback on_complete) {
  policy::PlacementQuery query;
  query.cluster = &cluster_;
  query.vm = &vm;
  query.candidates = ResolveCandidates(cluster_, vm, std::move(candidates));
  query.fleet = fleet;
  query.now = pdes_ != nullptr ? pdes_->MaxNow() : cluster_.Simulator().Now();
  policy::Decision decision = policy.Decide(query);
  scheduler_.Submit(vm, decision.to, config, priority,
                    std::move(on_complete));
  return decision;
}

std::vector<policy::Decision> MigrationOrchestrator::RunPolicy(
    const std::vector<VmInstance*>& fleet,
    const std::vector<PolicyLeg>& legs, policy::PlacementPolicy& policy,
    const migration::MigrationConfig& config, SimDuration observe_step) {
  const SimTime wave_start =
      pdes_ != nullptr ? pdes_->MaxNow() : cluster_.Simulator().Now();

  // Decide every leg up front, at the wave's quiescent start.
  std::vector<policy::Decision> decisions;
  decisions.reserve(legs.size());
  std::map<SimDuration, std::vector<std::size_t>> by_defer;
  std::set<const VmInstance*> seen;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const PolicyLeg& leg = legs[i];
    VEC_CHECK_MSG(leg.vm != nullptr, "policy leg has no VM");
    VEC_CHECK_MSG(seen.insert(leg.vm).second,
                  "VM " + leg.vm->Id() + " appears in two legs of one wave");
    policy::PlacementQuery query;
    query.cluster = &cluster_;
    query.vm = leg.vm;
    query.candidates =
        ResolveCandidates(cluster_, *leg.vm, leg.candidates);
    query.fleet = &fleet;
    query.now = wave_start;
    decisions.push_back(policy.Decide(query));
    by_defer[decisions.back().defer].push_back(i);
  }

  // Submit each deferral group at its instant: the fleet runs in place
  // (workloads churning) up to wave_start + defer, then the group's legs
  // are queued and drained. std::map iterates deferrals ascending. The
  // advance is measured from the live clock, not from the previous
  // deferral — draining a group consumes simulated time too.
  for (const auto& [defer, indices] : by_defer) {
    SimTime now =
        pdes_ != nullptr ? pdes_->MaxNow() : cluster_.Simulator().Now();
    const SimTime target = wave_start + defer;
    while (target > now) {
      // Chunked so the policy's dirty-rate sampling keeps its cadence
      // through deferral waits: a single hours-long advance would hand
      // the cycle detectors one smeared interval that blurs the very
      // phase edges the deferral was computed from.
      const SimDuration chunk = observe_step > SimDuration::zero()
                                    ? std::min(observe_step, target - now)
                                    : target - now;
      RunFor(fleet, chunk);
      now = pdes_ != nullptr ? pdes_->MaxNow() : cluster_.Simulator().Now();
      if (observe_step > SimDuration::zero()) {
        for (VmInstance* vm : fleet) policy.Observe(*vm, now);
      }
    }
    for (const std::size_t i : indices) {
      scheduler_.Submit(*legs[i].vm, decisions[i].to, config,
                        legs[i].priority);
    }
    scheduler_.Drain();
  }
  return decisions;
}

migration::MigrationStats MigrationOrchestrator::Migrate(
    VmInstance& vm, const HostId& to,
    const migration::MigrationConfig& config) {
  VEC_CHECK_MSG(pdes_ == nullptr,
                "synchronous Migrate is a single-simulator API; queue "
                "with MigrateAsync and Drain in PDES mode");
  // Session id 0 and no scheduler instruments: the synchronous facade
  // resolves its instruments from the config and environment alone.
  auto outcome =
      migration::RunMigration(BuildMigrationRun(cluster_, vm, to, config));
  ApplyArrival(vm, to, outcome);
  return outcome.stats;
}

}  // namespace vecycle::core
