// Migration orchestrator — the top of the VeCycle public API.
//
// Deploy a VM on a host, let simulated time pass (the workload churns
// guest memory), and migrate it between hosts. Every migration performs
// the full VeCycle bookkeeping of §3:
//   * after the copy completes, the *source* writes a checkpoint of the
//     departed VM to its local disk (outside the measured migration time,
//     as in §4.4),
//   * that checkpoint is the record of what the VM left behind: a future
//     return migration reads its checksums (so it needs no bulk hash
//     exchange) and its generation counters at departure (Miyakodori
//     state) from the store,
//   * the destination bootstraps from its own stale checkpoint when it has
//     one and the strategy uses it.
#pragma once

#include <vector>

#include "core/cluster.hpp"
#include "core/scheduler.hpp"
#include "core/vm_instance.hpp"
#include "migration/engine.hpp"
#include "policy/placement.hpp"

namespace vecycle::core {

/// One leg of a policy wave (RunPolicy): which VM must move and which
/// destinations it may choose among. Empty candidates mean "every host
/// directly linked to the VM's current host".
struct PolicyLeg {
  VmInstance* vm = nullptr;
  std::vector<HostId> candidates;
  int priority = 0;
};

class MigrationOrchestrator {
 public:
  explicit MigrationOrchestrator(Cluster& cluster,
                                 SchedulerConfig scheduler_config = {})
      : cluster_(cluster), scheduler_(cluster, scheduler_config) {}

  /// PDES mode: the fleet runs sharded across `pdes` under `plan` (see
  /// MigrationScheduler's sharded constructor for the contract). The
  /// synchronous Migrate() is unavailable in this mode — queue with
  /// MigrateAsync() and Drain().
  MigrationOrchestrator(Cluster& cluster, sim::ShardedSimulator& pdes,
                        sim::ShardPlan plan,
                        SchedulerConfig scheduler_config = {})
      : cluster_(cluster),
        scheduler_(cluster, pdes, std::move(plan), scheduler_config),
        pdes_(&pdes) {}

  /// Places `vm` on `host` (initial deployment, no traffic).
  void Deploy(VmInstance& vm, const HostId& host);

  /// Advances simulated time by `duration` while the VM runs in place;
  /// the VM's workload is applied over the interval.
  void RunFor(VmInstance& vm, SimDuration duration);

  /// Fleet variant: advances simulated time once, then applies every
  /// VM's workload over the interval.
  void RunFor(const std::vector<VmInstance*>& vms, SimDuration duration);

  /// Migrates `vm` from its current host to `to` and returns the measured
  /// statistics. The VM must be deployed and the hosts connected.
  /// Synchronous: runs the event loop to completion before returning.
  migration::MigrationStats Migrate(VmInstance& vm, const HostId& to,
                                    const migration::MigrationConfig& config);

  /// Queues a migration on the scheduler and returns its session id; the
  /// migration runs (possibly overlapping others) on the next Drain().
  SessionId MigrateAsync(
      VmInstance& vm, const HostId& to,
      const migration::MigrationConfig& config, int priority = 0,
      MigrationScheduler::CompletionCallback on_complete = nullptr);

  /// Consults `policy` for one leg and queues the chosen migration on
  /// the scheduler (run it with Drain()). Candidates are sorted, deduped
  /// and stripped of the VM's current host before the policy sees them;
  /// empty `candidates` resolve to every host directly linked to the
  /// VM's current host. The returned Decision reports the policy's
  /// deferral recommendation, but this call always submits immediately —
  /// callers that honor timing use RunPolicy.
  policy::Decision MigrateAuto(
      VmInstance& vm, policy::PlacementPolicy& policy,
      const migration::MigrationConfig& config,
      std::vector<HostId> candidates = {},
      const std::vector<VmInstance*>* fleet = nullptr, int priority = 0,
      MigrationScheduler::CompletionCallback on_complete = nullptr);

  /// Runs one wave of policy-driven legs to completion. Every decision
  /// is taken up front at the wave's quiescent start (in leg order, so
  /// results never depend on container iteration); legs are then grouped
  /// by the policy's deferral, and each group is submitted and drained
  /// after the fleet has run in place up to its deferral instant —
  /// decisions and submissions only ever happen while the fleet is
  /// quiescent, which is what keeps PDES replays byte-identical. A VM
  /// may appear in at most one leg per wave. A positive `observe_step`
  /// advances deferral waits in chunks of that size and feeds the fleet
  /// to policy.Observe() after each chunk, so dirty-rate sampling keeps
  /// the same cadence inside a wave as between waves (a detector fed one
  /// hours-long smeared interval mislearns the phase edges its next
  /// deferral depends on); zero advances each wait in one step with no
  /// observations. Returns the decisions in leg order.
  std::vector<policy::Decision> RunPolicy(
      const std::vector<VmInstance*>& fleet,
      const std::vector<PolicyLeg>& legs, policy::PlacementPolicy& policy,
      const migration::MigrationConfig& config,
      SimDuration observe_step = SimDuration::zero());

  /// Runs every queued migration to completion; returns how many
  /// finished. See MigrationScheduler::Drain.
  std::size_t Drain() { return scheduler_.Drain(); }

  [[nodiscard]] MigrationScheduler& Scheduler() { return scheduler_; }

 private:
  Cluster& cluster_;
  MigrationScheduler scheduler_;
  sim::ShardedSimulator* pdes_ = nullptr;  ///< null in single-sim mode
};

}  // namespace vecycle::core
