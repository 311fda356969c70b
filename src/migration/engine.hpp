// Migration engine: wires a source and a destination actor over a
// simulated link, runs the event loop to completion, and reports the
// quantities the paper measures. This is the reproduction of the patched
// QEMU 2.0 of §3 — strategy kFull is the unmodified baseline, kHashes is
// VeCycle, the rest are the comparison techniques of Fig. 3/5.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "audit/audit.hpp"
#include "common/check.hpp"
#include "digest/digest_map.hpp"
#include "migration/config.hpp"
#include "migration/instruments.hpp"
#include "migration/stats.hpp"
#include "sim/checksum_engine.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "storage/checkpoint_store.hpp"
#include "vm/guest_memory.hpp"
#include "vm/workload.hpp"

namespace vecycle::migration {

/// Per-host resources a migration endpoint uses.
struct EndpointResources {
  sim::ChecksumEngine* cpu = nullptr;
  storage::CheckpointStore* store = nullptr;  ///< nullable at the source
};

struct MigrationRun {
  sim::Simulator* simulator = nullptr;
  sim::Link* link = nullptr;
  /// Direction of page flow on the link (source -> destination).
  sim::Direction direction = sim::Direction::kAtoB;

  /// Simulator of the destination endpoint when it lives on a different
  /// PDES shard than the source; null (the default) means both endpoints
  /// share `simulator` — the single-shard case, byte-identical to the
  /// pre-PDES engine. Cross-shard sessions additionally require the two
  /// delivery executors below and reject fault injection, per-page hash
  /// queries and per-session tracing (those seams would touch two shards
  /// inside one window).
  sim::Simulator* dest_simulator = nullptr;

  /// Where the forward channel (source -> destination) lands its delivery
  /// closures: the sharded simulator's mailbox route into the destination
  /// shard. Null schedules on `simulator` directly, as before.
  sim::DeliveryExecutor* forward_delivery = nullptr;
  /// Backward channel (destination -> source) route into the source shard.
  sim::DeliveryExecutor* backward_delivery = nullptr;

  /// Earliest simulated time the session may begin. The engine starts at
  /// max(simulator->Now(), start_at); the sharded scheduler passes the
  /// barrier time here, which is ahead of every shard clock, so both
  /// endpoints agree on t0. kSimEpoch (the default) defers to Now().
  SimTime start_at = kSimEpoch;

  /// Session identity under a scheduler. Distinguishes overlapping
  /// migrations everywhere they meet shared infrastructure: audit channel
  /// ids derive from it (2*id forward, 2*id+1 backward when multifd is
  /// inactive; with multifd, forward stream k is
  /// id * 2 * MultifdConfig::kMaxChannels + k and the backward channel
  /// takes the last slot of that block), wire messages are stamped with
  /// it, and trace/metrics labels carry a "#id" suffix when it is
  /// nonzero. 0 is the anonymous single-session default, which keeps the
  /// pre-session channel ids 0/1.
  std::uint64_t session_id = 0;

  /// When true, the session itself performs the paper's §4.4 post-copy
  /// bookkeeping step — writing the departed VM's checkpoint to the
  /// *source* host's store at completion — as its final state-machine
  /// phase. The synchronous facade leaves this off (the orchestrator does
  /// the write-back after RunMigration, as before); the scheduler turns it
  /// on so overlapping sessions book their checkpoint writes inside the
  /// shared event loop.
  bool write_back_checkpoint = false;

  /// Invoked exactly once, when the session reaches SessionPhase::kDone:
  /// the destination runs the VM, the source has seen the final done-ack,
  /// and the optional checkpoint write-back has been booked. TakeOutcome()
  /// is legal from inside the callback. The scheduler uses this to admit
  /// queued migrations the moment capacity frees up.
  std::function<void(SimTime)> on_complete;

  vm::GuestMemory* source_memory = nullptr;  ///< the live VM
  vm::Workload* workload = nullptr;          ///< nullable

  /// Fresh memory of the source's geometry and mode for the destination
  /// to reconstruct the VM into; null allocates it with the session. The
  /// scheduler allocates it on the coordinator at admission, so memory
  /// that the VM keeps after arrival comes from the coordinator's heap
  /// even when the session is built on a shard worker.
  std::unique_ptr<vm::GuestMemory> dest_memory;

  EndpointResources source;
  EndpointResources destination;

  storage::VmId vm_id = "vm";
  MigrationConfig config;

  /// Digests the source already knows to exist at the destination; only
  /// membership is consulted (ping-pong fast path: core::BuildMigrationRun
  /// names the pages of the checkpoint the destination's store holds for
  /// this VM). Null or empty + content-hash strategy + checkpoint at the
  /// destination triggers the §3.2 bulk exchange instead.
  std::shared_ptr<const DigestMap> source_knowledge;

  /// Generation counters at the moment the VM last left the destination
  /// (Miyakodori); empty means no dirty-tracking state.
  std::vector<std::uint64_t> departure_generations;

  /// Per-page content seeds at the moment the VM last left the
  /// destination — what its recycled checkpoint holds, the round-1
  /// baseline for delta encoding (DeltaConfig). The engine forwards this
  /// to the source only when the destination actually restores a
  /// geometry-matching checkpoint; empty disables round-1 deltas.
  std::vector<std::uint64_t> departure_seeds;

  /// Gang migration (VMFlock [4]): concurrent MigrationSessions from one
  /// host to one destination may share a sender-side dedup cache so
  /// cross-VM duplicates (shared OS images, libraries) travel once.
  /// The caller owns the map and its lifetime.
  std::unordered_map<std::uint64_t, std::uint64_t>* shared_dedup_cache =
      nullptr;

  /// Explicit instruments (determinism harness, tests, the scheduler's
  /// fleet-wide auditor or fault plan). Each one left null resolves from
  /// config.audit / config.trace / config.faults, then from the VECYCLE_*
  /// environment (ResolveInstruments). The session attaches them to the
  /// shared simulator, link, stores, disks and CPUs only where no other
  /// session's instrument already sits, and detaches what it attached.
  Instruments instruments;

  /// Destination-side auditor for cross-shard sessions: the backward
  /// channel and the destination store report here, so every audit
  /// observation lands in the auditor of the shard whose worker made it.
  /// Null (single-shard) falls back to the session auditor. Cross-shard
  /// sessions with auditing must supply both, distinct — one auditor fed
  /// from two workers would race.
  audit::SimAuditor* dest_auditor = nullptr;

  /// Invoked at most once, when an injected link outage cuts one of this
  /// session's messages: the session enters SessionPhase::kFailed, drops
  /// every in-flight event it owns, and will never complete. The
  /// scheduler uses this to release capacity and queue a retry.
  std::function<void(SimTime)> on_failed;

  /// Which attempt of a logical migration this session is (0 = first).
  /// Reported as MigrationStats::retries by the attempt that completes.
  std::uint64_t attempt = 0;
};

struct MigrationOutcome {
  MigrationStats stats;
  /// Reconstructed VM memory at the destination (content-identical to the
  /// source at pause time; generation counters carried over).
  std::unique_ptr<vm::GuestMemory> dest_memory;
  SimTime completed_at = kSimEpoch;
};

/// Runs one migration to completion on `run.simulator` (which must not
/// have unrelated pending events). Verifies the protocol reconstructed the
/// memory exactly, and records the outcome into the run's trace and
/// metrics.
MigrationOutcome RunMigration(MigrationRun run);

/// Explicit state machine of one migration session. Phases advance
/// strictly in declaration order (kCheckpointWriteBack is skipped unless
/// MigrationRun::write_back_checkpoint is set); a transition that would
/// run backwards throws CheckFailure. kFailed is terminal and reachable
/// from every phase except kDone (an injected link outage aborts the
/// attempt; the VM keeps running at the source).
enum class SessionPhase {
  kHashExchange,        ///< destination setup + §3.2 bulk hash transfer
  kPreCopy,             ///< iterative copy rounds, guest still running
  kStopAndCopy,         ///< VM paused, final dirty set in flight
  kCheckpointWriteBack, ///< §4.4 source-side checkpoint write
  kDone,                ///< VM runs at the destination
  kFailed,              ///< aborted by an injected fault; VM still at source
};

const char* ToString(SessionPhase phase);

/// Thrown by TakeOutcome() on a session that aborted (SessionPhase::
/// kFailed): there is no outcome — the VM never moved. Callers that
/// retry (the scheduler) never call TakeOutcome on failed sessions;
/// the synchronous RunMigration facade lets this propagate.
class MigrationFailed : public CheckFailure {
 public:
  explicit MigrationFailed(const std::string& what) : CheckFailure(what) {}
};

/// A migration wired up but not yet driven to completion: construct one
/// (or several — they share links and CPUs and contend realistically,
/// batch by batch), Start() each, run the shared simulator, then
/// TakeOutcome().
///
///   MigrationSession a(run_a);
///   MigrationSession b(run_b);   // same link, opposite or same direction
///   a.Start();
///   b.Start();
///   simulator.Run();
///   auto outcome_a = a.TakeOutcome();
///   a.RecordOutcome(outcome_a);  // into the run's trace and metrics
///
/// Construction is the destination half and Start() the source half, so
/// a sharded fleet can run each half on the worker of the shard whose
/// state it touches.
class MigrationSession {
 public:
  /// The destination half: wires the channels, the actors and the
  /// instrument claims, and runs the destination's §3.3 set-up
  /// (DestinationActor::Prepare: checkpoint load and restore, on the
  /// destination's store, disk and CPU). Schedules no event unless the
  /// destination ships its §3.2 bulk hash set (AwaitsHashExchange()).
  explicit MigrationSession(MigrationRun run);
  ~MigrationSession();

  /// The source half, called exactly once after construction: reserves
  /// the source simulator's event heap and schedules round 1 at the
  /// destination's readiness. Touches only the source's simulator and
  /// the live VM. Without it the session never starts, unless it awaits
  /// the bulk hash exchange, whose arrival starts round 1 either way.
  void Start();

  /// True when the session was built without knowledge of a restorable
  /// destination checkpoint and the destination shipped its §3.2 bulk
  /// hash set at set-up: round 1 starts at that message's arrival.
  [[nodiscard]] bool AwaitsHashExchange() const;

  MigrationSession(const MigrationSession&) = delete;
  MigrationSession& operator=(const MigrationSession&) = delete;

  /// True once the VM runs at the destination.
  [[nodiscard]] bool Completed() const;

  /// True once an injected fault aborted this session (terminal).
  [[nodiscard]] bool Failed() const;

  /// Where the session's state machine currently stands.
  [[nodiscard]] SessionPhase Phase() const;

  /// The MigrationRun::session_id this session was created with.
  [[nodiscard]] std::uint64_t Id() const;

  /// Collects statistics and the reconstructed memory; valid exactly once,
  /// after completion. Verifies that the destination reconstructed the
  /// source's content and, under audit, checks conservation and folds the
  /// outcome into the session auditor. Touches only the session, the live
  /// VM and the auditors (reading the destination side's), so sessions of
  /// different source shards may take their outcomes concurrently.
  MigrationOutcome TakeOutcome();

  /// Records a taken outcome into the session's trace (the retroactive
  /// set-up, migration and downtime spans) and metrics registry; a no-op
  /// without them. Kept apart from TakeOutcome because the recorder and
  /// the registry may be shared: a fleet records in one global order.
  void RecordOutcome(const MigrationOutcome& outcome) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace vecycle::migration
