// Datacenter-scale migration scheduler.
//
// The engine layer knows how to run ONE migration (MigrationSession, an
// event-driven actor pair on a shared simulator). This layer turns that
// into fleet operations: callers Submit() as many migrations as they
// like, the scheduler admits them against per-host concurrency caps,
// runs the admitted ones as overlapping sessions that contend for the
// shared links / disks / checksum engines, and starts queued ones the
// moment capacity frees up — all inside a single Drain() of the event
// loop. Completion performs the same §3/§4.4 bookkeeping as the
// synchronous MigrationOrchestrator::Migrate (checkpoint write-back at
// the source, VM relocation), so a scheduler that admits one session at
// a time reproduces the synchronous engine's results exactly.
//
// Concurrent sessions from one host to one destination form a gang
// (VMFlock [4]): they share a sender-side dedup cache, so page content
// common across the gang's VMs travels once.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "core/cluster.hpp"
#include "core/vm_instance.hpp"
#include "migration/engine.hpp"
#include "sim/sharded.hpp"

namespace vecycle::core {

using SessionId = std::uint64_t;

namespace sched_internal {

/// One session-lifecycle notification (completed / failed) crossing from
/// a shard worker to the barrier-time control plane.
struct ControlEvent {
  SimTime when = kSimEpoch;
  SessionId id = 0;
  bool failed = false;
};

/// Per-shard outbox for ControlEvents. The shard's worker appends from
/// inside session callbacks mid-window; the coordinator drains at the
/// barrier. Processing order is (when, id) after a global sort, so which
/// outbox an event arrived through never matters.
struct ControlOutbox {
  common::Mutex mu;
  std::vector<ControlEvent> events VEC_GUARDED_BY(mu);
};

}  // namespace sched_internal

/// Saturating retry-backoff deadline: `backoff * 2^(failures-1)` after
/// `when`, with both the doubling and the final sum clamped so a large
/// configured backoff (or a long failure streak under max_attempts == 0)
/// can never overflow SimDuration — an overflowed product would wrap
/// negative and silently disable the backoff gate. Saturates to
/// SimTime::max(), i.e. "never", at the extreme.
[[nodiscard]] SimTime RetryNotBefore(SimTime when, SimDuration backoff,
                                     std::uint64_t failures);

/// Thrown by the scheduler when a migration exhausts its retry budget
/// and `SchedulerConfig::throw_on_abort` is set. Distinct from engine
/// CheckFailures so fleet callers can tell "a fault won" from "the
/// simulation is broken".
class MigrationAborted : public CheckFailure {
 public:
  explicit MigrationAborted(const std::string& what) : CheckFailure(what) {}
};

/// The MigrationRun of one leg of `vm`, from its current host to `to` —
/// the wiring MigrationOrchestrator::Migrate and the scheduler share: the
/// path, both hosts' CPUs and stores, what `to`'s store holds of the VM
/// (dirty-tracking generations for dirty-tracking strategies, the delta
/// baseline and, for content-hash strategies, the checksum set the source
/// probes instead of a §3.2 bulk exchange), and the in-session checkpoint
/// write-back at the source. The caller's fields come in through
/// `wiring` and are kept: session id, instruments, PDES routing, the
/// destination's memory and lifecycle hooks. Its simulator defaults to
/// the cluster's. Reads only `to`'s store and the cluster's immutable
/// topology, so in PDES mode it runs on the destination shard's worker.
[[nodiscard]] migration::MigrationRun BuildMigrationRun(
    Cluster& cluster, VmInstance& vm, const HostId& to,
    const migration::MigrationConfig& config,
    migration::MigrationRun wiring = {});

/// Arrival bookkeeping of a completed leg to `to`: the VM adopts the
/// memory reconstructed at the destination (moved out of `outcome`) and
/// now runs on `to`.
void ApplyArrival(VmInstance& vm, const HostId& to,
                  migration::MigrationOutcome& outcome);

struct SchedulerConfig {
  /// Per-host admission caps (0 = unlimited). The defaults mirror common
  /// hypervisor practice: a host saturates on a couple of simultaneous
  /// migrations per direction, more just thrash the NIC and disk.
  std::size_t max_outgoing_per_host = 2;
  std::size_t max_incoming_per_host = 2;

  /// Share the sender-side dedup cache across concurrently admitted
  /// sessions with the same (from, to) pair — gang migration. The cache
  /// lives exactly as long as its gang, so serial admission still gives
  /// every session a fresh cache (serial equivalence is preserved).
  bool gang_dedup = true;

  /// Shared instruments handed to every session (callers own them; each
  /// one left null resolves per session from its config, then the
  /// environment). A shared auditor is how fleet tests check
  /// cross-session conservation: channel ids derive from session ids, so
  /// per-session byte accounts stay separate inside one auditor. A
  /// shared injector means one fault plan: all sessions on a link see
  /// the same outage windows.
  migration::Instruments instruments;

  /// Fault recovery: a session aborted by an injected link outage is
  /// requeued and retried up to `max_attempts` total attempts, with
  /// exponential backoff (`retry_backoff`, doubled per failure) before
  /// each retry. 0 attempts means retry forever.
  std::size_t max_attempts = 3;
  SimDuration retry_backoff = Seconds(5.0);

  /// When a request exhausts its attempts: throw MigrationAborted (the
  /// default — an unhandled abort should be loud), or record it in
  /// Aborts() and keep draining the rest of the fleet.
  bool throw_on_abort = true;

  /// Worker threads for the sharded (PDES) constructor; ignored by the
  /// single-simulator constructor. 0 (the default) reads VECYCLE_THREADS.
  /// The worker count never changes results — only wall-clock time.
  std::size_t workers = 0;

  /// Rejects configurations the scheduler cannot execute sensibly. The
  /// admission caps (max_outgoing_per_host / max_incoming_per_host) and
  /// the retry budget (max_attempts) accept every value — 0 means
  /// unlimited for each of them — so only the backoff needs a bound:
  /// a negative retry_backoff would schedule retry wake-ups into the
  /// simulated past. Called by the MigrationScheduler constructor.
  void Validate() const;
};

class MigrationScheduler {
 public:
  /// Everything known about a finished session. `vm` points at the
  /// caller's instance (now relocated to `to`).
  struct Completion {
    SessionId id = 0;
    VmInstance* vm = nullptr;
    HostId from;
    HostId to;
    migration::MigrationStats stats;
    SimTime completed_at = kSimEpoch;
  };
  using CompletionCallback = std::function<void(const Completion&)>;

  explicit MigrationScheduler(Cluster& cluster, SchedulerConfig config = {});

  /// PDES mode: drive the fleet across the shards of `pdes`, with hosts
  /// partitioned by `plan` (which must cover every host of `cluster` and
  /// agree with `pdes` on the shard count). The scheduler owns one
  /// auditor per shard (attached to the shard simulators for the
  /// scheduler's lifetime) and runs its control plane at barrier times,
  /// so `config.instruments.auditor/tracer/injector` must be null — those
  /// would be fed from several workers at once — and Submit() rejects
  /// tracing armed by MigrationConfig::trace or VECYCLE_TRACE, which
  /// resolves to the one process-wide recorder. `instruments.metrics`
  /// stays legal: stats are recorded at barriers only.
  MigrationScheduler(Cluster& cluster, sim::ShardedSimulator& pdes,
                     sim::ShardPlan plan, SchedulerConfig config = {});

  ~MigrationScheduler();

  MigrationScheduler(const MigrationScheduler&) = delete;
  MigrationScheduler& operator=(const MigrationScheduler&) = delete;

  /// Queues a migration of `vm` to `to`. The source host is read from
  /// the VM at *admission* time, so several legs of one VM's journey can
  /// be submitted up front (they run in submission order — per-VM FIFO —
  /// regardless of priority). Higher `priority` admits first across
  /// different VMs; ties admit in submission order. Returns the session
  /// id (session ids start at 1; 0 is the engine's anonymous default).
  /// In PDES mode, throws CheckFailure when `config.trace` or
  /// VECYCLE_TRACE arms tracing.
  SessionId Submit(VmInstance& vm, const HostId& to,
                   const migration::MigrationConfig& config,
                   int priority = 0, CompletionCallback on_complete = nullptr);

  /// Runs the event loop until every submitted migration has completed,
  /// admitting queued sessions as capacity frees. Returns the number of
  /// sessions completed by this call. Throws CheckFailure if requests
  /// remain that can never be admitted.
  std::size_t Drain();

  [[nodiscard]] std::size_t QueuedCount() const {
    common::NullLockGuard lock(mu_);
    return queued_.size();
  }
  [[nodiscard]] std::size_t RunningCount() const {
    common::NullLockGuard lock(mu_);
    return running_.size();
  }

  /// All completions since construction, in completion order. The
  /// reference is stable for reads between Drain() calls; under PDES it
  /// must be snapshotted while the scheduler is quiescent.
  [[nodiscard]] const std::vector<Completion>& Completions() const {
    common::NullLockGuard lock(mu_);
    return completions_;
  }
  [[nodiscard]] const Completion* FindCompletion(SessionId id) const;

  /// A request that exhausted its retry budget (only recorded when
  /// `throw_on_abort` is off; otherwise the abort throws instead).
  struct Abort {
    SessionId id = 0;  ///< the id Submit() returned
    VmInstance* vm = nullptr;
    HostId from;
    HostId to;
    std::uint64_t attempts = 0;  ///< attempts consumed (== max_attempts)
    SimTime failed_at = kSimEpoch;
  };
  [[nodiscard]] const std::vector<Abort>& Aborts() const {
    common::NullLockGuard lock(mu_);
    return aborts_;
  }

  /// Failed attempts that were requeued for another try.
  [[nodiscard]] std::uint64_t Retries() const {
    common::NullLockGuard lock(mu_);
    return retries_;
  }

  [[nodiscard]] const SchedulerConfig& Config() const { return config_; }

  /// PDES mode only: the per-shard audit fingerprints folded together in
  /// shard order — the one number ReplayCheck compares across worker
  /// counts. Read while quiescent (between Drain() calls).
  [[nodiscard]] std::uint64_t CombinedFingerprint() const;

  /// PDES mode only: the auditor observing shard `shard`.
  [[nodiscard]] const audit::SimAuditor& ShardAuditor(
      sim::ShardId shard) const;

 private:
  struct Request {
    SessionId id = 0;  ///< caller-facing id, stable across retries
    VmInstance* vm = nullptr;
    HostId to;
    std::size_t to_host = 0;  ///< Cluster::IndexOf(to)
    migration::MigrationConfig config;
    int priority = 0;
    CompletionCallback on_complete;
    std::uint64_t attempts = 0;     ///< failed attempts so far
    SimTime not_before = kSimEpoch;  ///< retry backoff gate
  };

  struct Running {
    Request request;
    HostId from;
    std::size_t from_host = 0;  ///< Cluster::IndexOf(from)
    /// Shards of the two endpoints (both 0 in single-simulator mode): the
    /// destination half of the session is built on dst_shard's worker,
    /// the source half started and the outcome taken on src_shard's.
    sim::ShardId src_shard = 0;
    sim::ShardId dst_shard = 0;
    /// The scheduler's wiring, from admission until the destination half
    /// completes it (BuildMigrationRun) and builds the session from it.
    migration::MigrationRun run;
    std::unique_ptr<migration::MigrationSession> session;
    bool in_gang = false;
  };

  /// One gang: the shared sender-side dedup cache plus a refcount of the
  /// concurrently running sessions using it.
  struct Gang {
    std::unordered_map<std::uint64_t, std::uint64_t> cache;
    std::size_t sessions = 0;
  };

  /// Admission decisions: admits what the caps allow, in priority order,
  /// then launches the admitted sessions.
  void AdmitEligible() VEC_REQUIRES(mu_);
  /// The serial bookkeeping of one admission: session id, slots, gang,
  /// busy VM, shard routes and the destination's memory. Returns the
  /// session's entry in running_, whose session is not built yet.
  Running& Admit(Request request, std::size_t from_host) VEC_REQUIRES(mu_);
  /// Builds and starts the sessions just admitted, in admission order:
  /// in PDES mode every destination half on its shard's worker, then
  /// every source half on its shard's worker (ForEachShard); with one
  /// simulator each session's halves back to back, as Migrate does.
  void Launch(const std::vector<Running*>& admitted);
  /// The destination half of an admitted session: BuildMigrationRun and
  /// the session's construction. Touches no member guarded by mu_.
  void BuildSession(Running& running) const;
  /// Re-entry point for the retry-backoff wake event: acquires the
  /// scheduler capability, then admits (the simulator must never call
  /// into a VEC_REQUIRES method directly).
  void WakeAdmit();
  /// The serial end of a completion, given the session's taken outcome:
  /// records it, frees the slots, moves the VM and calls the caller back.
  void OnSessionFinished(SessionId id, migration::MigrationOutcome outcome);
  void OnSessionFailed(SessionId id, SimTime when);
  /// Tears down a running session's slot bookkeeping (host caps, gang
  /// refcount) and parks the session object; returns its Request.
  Request ReleaseSlot(SessionId id) VEC_REQUIRES(mu_);

  /// "Now" for admission decisions: the barrier time in PDES mode (shard
  /// clocks diverge inside windows; the barrier is the one shared
  /// instant), the simulator clock otherwise.
  [[nodiscard]] SimTime CurrentTime() const VEC_REQUIRES(mu_);
  /// PDES Drain(): the barrier-window loop around ShardedSimulator::Run.
  std::size_t DrainSharded();
  /// Barrier hook for ShardedSimulator::Run — takes the window's
  /// outcomes on their source shards' workers, processes completions and
  /// failures in (when, id) order, admits, and returns the earliest
  /// pending retry-backoff deadline (or kNoPendingEvent).
  SimTime ControlStep(SimTime now);
  /// Minimum latency over links whose endpoints sit on different shards
  /// (Seconds(1.0) when no link crosses shards — the shards never talk).
  [[nodiscard]] SimDuration ShardLookahead() const;

  Cluster& cluster_;
  // vecycle-analyze: allow(concurrency-guarded-member) written once in the constructor, immutable afterwards
  SchedulerConfig config_;

  // --- PDES mode (all null/empty in single-simulator mode) ---
  // vecycle-analyze: allow(concurrency-guarded-member) set once in the constructor, immutable afterwards
  sim::ShardedSimulator* pdes_ = nullptr;
  // vecycle-analyze: allow(concurrency-guarded-member) set once in the constructor, immutable afterwards
  sim::ShardPlan plan_;
  // vecycle-analyze: allow(concurrency-guarded-member) set once in the constructor, immutable afterwards
  std::size_t workers_ = 1;
  /// Each host's shard, by Cluster host index; filled from the plan once.
  // vecycle-analyze: allow(concurrency-guarded-member) filled once in the constructor, immutable afterwards
  std::vector<sim::ShardId> host_shards_;
  /// One auditor per shard: each is fed by exactly one worker during
  /// windows and read by the coordinator only at barriers.
  // vecycle-analyze: allow(concurrency-guarded-member) vector immutable after construction; each auditor is fed by exactly one worker
  std::vector<std::unique_ptr<audit::SimAuditor>> shard_auditors_;
  // vecycle-analyze: allow(concurrency-guarded-member) vector immutable after construction; per-entry mutexes guard the contents
  std::vector<std::unique_ptr<sched_internal::ControlOutbox>> outboxes_;

  /// Scheduler capability: admission queue, running set, host caps, gang
  /// refcounts and completion records form one consistency domain.
  /// Today a zero-cost NullMutex; the PDES control plane replaces it
  /// with a real lock and inherits the acquisition structure unchanged.
  mutable common::NullMutex mu_;

  SessionId next_id_ VEC_GUARDED_BY(mu_) = 1;

  std::vector<Request> queued_ VEC_GUARDED_BY(mu_);  ///< submission order
  std::map<SessionId, Running> running_ VEC_GUARDED_BY(mu_);
  /// VMs with a session in flight — an index over running_ so the
  /// admission scan probes VM-busy in O(1) instead of walking every
  /// running session per queued candidate (quadratic at fleet scale).
  std::unordered_set<const VmInstance*> busy_vms_ VEC_GUARDED_BY(mu_);
  /// Sessions finished but not yet destructible: OnSessionFinished runs
  /// inside the session's own actor callback, so destruction is deferred
  /// until the event loop returns control to Drain().
  std::vector<std::unique_ptr<migration::MigrationSession>> retired_
      VEC_GUARDED_BY(mu_);

  /// Sessions running out of and into each host, by Cluster host index
  /// (grown to the host count at each admission round).
  std::vector<std::size_t> outgoing_ VEC_GUARDED_BY(mu_);
  std::vector<std::size_t> incoming_ VEC_GUARDED_BY(mu_);
  /// Gangs by (source, destination) host index.
  std::map<std::pair<std::size_t, std::size_t>, Gang> gangs_
      VEC_GUARDED_BY(mu_);

  std::vector<Completion> completions_ VEC_GUARDED_BY(mu_);
  std::vector<Abort> aborts_ VEC_GUARDED_BY(mu_);
  std::uint64_t retries_ VEC_GUARDED_BY(mu_) = 0;

  /// The barrier time the control plane is currently acting at (PDES
  /// mode); admission reads it as "now" because shard clocks disagree.
  SimTime control_now_ VEC_GUARDED_BY(mu_) = kSimEpoch;
};

}  // namespace vecycle::core
