// Conservative parallel discrete-event simulation (PDES).
//
// The single-threaded Simulator caps fleets at tens of hosts (~3.1 M
// events/s). This module shards one logical simulation across several
// Simulator instances — one event queue and clock per shard — and runs
// the shards on worker threads under barrier-window synchronization:
//
//   * Hosts (and with them their disks, CPUs, stores and the VMs they
//     run) are partitioned into shards by a fixed, seed-deterministic
//     ShardPlan. The plan never depends on the worker count.
//   * The minimum propagation latency over links that cross shards is
//     the *lookahead*. Any message sent at time t on a cross-shard link
//     arrives no earlier than t + lookahead, so all shards may execute
//     the window [T, T + lookahead) independently: nothing sent inside
//     the window can be received inside it.
//   * Cross-shard messages are posted to a per-source-shard mailbox
//     (guarded by a real common::Mutex — this is the seam PR 6's
//     NullMutex annotations anticipated) and merged into the target
//     shards at the barrier, in (source shard id, post order) — a
//     deterministic order, so target-queue sequence numbers, and with
//     them every tie-break, replay identically at any worker count.
//
// Worker count is an execution detail: shard s runs on worker s % W, and
// W <= 1 runs every shard inline on the calling thread. Because shards
// never share mutable state inside a window and the merge order is
// fixed, the observable behaviour (audit fingerprints, traces, stats)
// is byte-identical for every W, including 1.
//
// The same workers also serve the control plane at a barrier:
// ForEachShard runs one task per shard on the window pool, so work that
// touches a single shard's state (a migration session's set-up or
// end-state check) leaves the coordinator.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace vecycle::sim {

using ShardId = std::uint32_t;

/// Fixed partition of entity keys (host ids) onto shards. Built once,
/// before the run, and immutable during it; the assignment depends only
/// on the key set, the shard count and the seed — never on the worker
/// count — so every execution of a scenario sees the same partition.
class ShardPlan {
 public:
  ShardPlan() = default;

  /// Seed-deterministic automatic partition: keys are sorted, shuffled by
  /// a seeded Xoshiro256, and dealt round-robin onto `shard_count`
  /// shards. Sorting first makes the result a pure function of the key
  /// *set* (insertion order does not leak in).
  static ShardPlan Build(std::vector<std::string> keys,
                         std::uint32_t shard_count, std::uint64_t seed);

  /// Manual assignment for topology-aware plans (e.g. one shard per
  /// datacenter site, so intra-site LAN links never constrain the
  /// lookahead). Grows the shard count to cover `shard`.
  void Assign(const std::string& key, ShardId shard);

  [[nodiscard]] ShardId ShardOf(const std::string& key) const {
    const auto it = assignment_.find(key);
    VEC_CHECK_MSG(it != assignment_.end(),
                  "shard plan does not cover key: " + key);
    return it->second;
  }

  [[nodiscard]] bool Covers(const std::string& key) const {
    return assignment_.contains(key);
  }

  [[nodiscard]] std::uint32_t ShardCount() const { return shard_count_; }
  [[nodiscard]] std::size_t KeyCount() const { return assignment_.size(); }

  /// Rejects plans no sharded run could execute: zero shards, or an
  /// assignment pointing past the shard count.
  void Validate() const;

 private:
  std::map<std::string, ShardId> assignment_;
  std::uint32_t shard_count_ = 0;
};

/// Worker count requested via the VECYCLE_THREADS environment variable;
/// 1 (the serial facade) when unset or unparsable. Values are clamped to
/// [1, 64].
[[nodiscard]] std::size_t ThreadsFromEnv();

namespace pdes_internal {

/// One cross-shard message waiting in a mailbox for the next barrier.
struct Posted {
  ShardId to = 0;
  SimTime when = kSimEpoch;
  std::function<void()> action;
};

/// Per-source-shard mailbox. Exactly one worker (the source shard's)
/// appends during a window; the coordinator drains at the barrier. The
/// real lock makes that safe even if a future caller posts from the
/// control plane mid-merge, and is uncontended by construction.
struct Mailbox {
  common::Mutex mu;
  std::vector<Posted> posts VEC_GUARDED_BY(mu);
};

}  // namespace pdes_internal

/// A set of Simulator shards plus the cross-shard mailbox and the
/// barrier-window run loop.
///
/// Thread model: between windows (construction, barriers, and after
/// Run() returns) only the coordinating thread touches anything, except
/// inside a ForEachShard call, where each worker runs the tasks of the
/// shards it owns while the coordinator waits. Inside a window, shard s
/// is touched exclusively by the worker that owns it — the per-shard
/// Simulator keeps its zero-cost NullMutex for exactly this reason. The
/// only cross-thread traffic is Post(), which appends to the posting
/// shard's own mailbox under a real lock, and the worker pool handshake;
/// the handshake provides the happens-before edge for everything else.
class ShardedSimulator {
 public:
  explicit ShardedSimulator(std::uint32_t shard_count);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] std::uint32_t ShardCount() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] Simulator& Shard(ShardId shard) {
    VEC_CHECK_MSG(shard < shards_.size(), "shard id out of range");
    return *shards_[shard];
  }

  /// Queues `action` for shard `to` at simulated time `when`, posted by
  /// shard `from`. Safe to call from `from`'s worker while a window runs;
  /// the action is merged into `to`'s event queue at the next barrier.
  /// `when` must be at or after the end of the current window — that is
  /// the conservative-PDES contract the lookahead guarantees.
  void Post(ShardId from, ShardId to, SimTime when,
            std::function<void()> action);

  /// The DeliveryExecutor a channel from shard `from` to shard `to` uses.
  /// Routes are created lazily (coordinator thread only) and live as long
  /// as the ShardedSimulator.
  [[nodiscard]] DeliveryExecutor& Route(ShardId from, ShardId to);

  /// Barrier-time hook: called with the logical time of each window
  /// boundary after the window's cross-shard messages were merged.
  /// Returns the next time the control plane wants to run even if no
  /// events pend (a retry-backoff deadline), or kNoPendingEvent.
  using ControlFn = std::function<SimTime(SimTime now)>;

  /// One shard's share of a barrier parallel-for (ForEachShard).
  using ShardTask = std::function<void(ShardId shard)>;

  /// The barrier parallel-for: calls `task(s)` exactly once for every
  /// shard s and returns when all calls have finished. Called from the
  /// control hook while Run() has a worker pool, shard s's task runs on
  /// worker s % W, the worker that runs shard s's windows; with W <= 1,
  /// or outside Run(), the tasks run inline in shard order. A task may
  /// touch only state its shard owns (or that nobody writes during the
  /// call). When tasks throw, the exception of the lowest such shard is
  /// rethrown after every task has finished.
  void ForEachShard(const ShardTask& task);

  /// Runs every shard to completion under barrier-window synchronization
  /// with the given `lookahead` (must be positive). `workers` <= 1 runs
  /// inline; shard s executes on worker s % workers otherwise. Returns
  /// the latest shard clock. The event order inside each shard and the
  /// merge order between shards are independent of `workers`.
  SimTime Run(std::size_t workers, SimDuration lookahead,
              const ControlFn& control = nullptr);

  /// Advances every shard to `deadline` (events at or before it run,
  /// clocks end at `deadline`), serially in shard order — the sharded
  /// equivalent of Simulator::RunUntil for the quiescent periods between
  /// Drain() calls, when VMs churn in place.
  void AdvanceAllTo(SimTime deadline);

  /// Latest clock across shards — the fleet's notion of "now" while
  /// quiescent.
  [[nodiscard]] SimTime MaxNow() const;

  /// Earliest pending event across shards, or kNoPendingEvent.
  [[nodiscard]] SimTime NextEventTime() const;

 private:
  class MailboxRoute final : public DeliveryExecutor {
   public:
    MailboxRoute(ShardedSimulator* owner, ShardId from, ShardId to)
        : owner_(owner), from_(from), to_(to) {}
    void DeliverAt(SimTime when, std::function<void()> action) override {
      owner_->Post(from_, to_, when, std::move(action));
    }

   private:
    ShardedSimulator* owner_;
    ShardId from_;
    ShardId to_;
  };

  /// Merges every mailbox into its target shards, source shard id first,
  /// post order within a source — the deterministic cross-shard order.
  /// Coordinator only. Returns the number of merged events.
  std::size_t DrainMailboxes(SimTime window_end);

  /// Run()'s worker pool; defined in sharded.cpp.
  struct Pool;

  // Immutable after construction (coordinator wires routes before the
  // workers exist; Route() is documented coordinator-only).
  std::vector<std::unique_ptr<Simulator>> shards_;
  std::vector<std::unique_ptr<pdes_internal::Mailbox>> mailboxes_;
  std::map<std::pair<ShardId, ShardId>, std::unique_ptr<MailboxRoute>>
      routes_;
  /// End of the window currently executing (or last executed): Post()
  /// asserts the conservative contract `when >= window_end_` against it.
  /// Written at barriers only; read by Post() from workers — the barrier
  /// handshake orders those accesses.
  SimTime window_end_ = kSimEpoch;
  /// The pool of the Run() in progress; null when Run() runs inline or
  /// is not running. Coordinator only.
  Pool* pool_ = nullptr;
};

}  // namespace vecycle::sim
