// Discrete-event simulation core.
//
// The paper's evaluation ran on two physical hosts connected by gigabit
// Ethernet (plus netem WAN emulation). We reproduce that testbed as a
// deterministic discrete-event simulation: components schedule callbacks at
// simulated times, and shared resources (links, disks, checksum engines)
// are modeled as FIFO servers so contention and pipelining behave like the
// real serialized devices they stand in for.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "common/check.hpp"
#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "obs/trace.hpp"

namespace vecycle::sim {

/// Sentinel for "no pending event" returned by Simulator::NextEventTime
/// (and by the sharded coordinator when every queue is empty): later than
/// every representable simulated instant.
inline constexpr SimTime kNoPendingEvent = SimTime::max();

/// Where a closure should execute. Channels schedule deliveries through
/// this seam so a message between shards lands on the *receiving* shard's
/// event queue (via the sharded simulator's mailbox) instead of the
/// sender's. The default (no executor) is a plain ScheduleAt on the
/// sender's simulator — the single-shard behaviour.
class DeliveryExecutor {
 public:
  virtual ~DeliveryExecutor() = default;
  virtual void DeliverAt(SimTime when, std::function<void()> action) = 0;
};

/// Deterministic event loop. Events fire in (time, insertion-sequence)
/// order, so two events at the same timestamp run in the order they were
/// scheduled — no implementation-defined tie-breaking.
///
/// Concurrency readiness: the event-loop state (heap, clock, sequence
/// counters) is guarded by `mu_`, today a zero-cost NullMutex. Public
/// methods acquire it for exactly the state they touch and release it
/// before running user actions, so re-entrant Schedule() calls from
/// inside an event remain legal when a real mutex replaces it.
class Simulator {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] SimTime Now() const {
    common::NullLockGuard lock(mu_);
    return now_;
  }

  /// Schedules `action` to run `delay` after the current simulated time.
  void Schedule(SimDuration delay, Action action) {
    ScheduleAt(Now() + delay, std::move(action));
  }

  /// Schedules `action` at an absolute simulated time, which must not be in
  /// the simulated past.
  void ScheduleAt(SimTime when, Action action) {
    common::NullLockGuard lock(mu_);
    VEC_CHECK_MSG(when >= now_, "cannot schedule into the simulated past");
    queue_.push_back(Event{when, next_seq_++, std::move(action)});
    SiftUp(queue_.size() - 1);
  }

  /// Capacity hint: pre-sizes the event heap for `additional` upcoming
  /// events, so bursty schedulers (a migration pumping thousands of
  /// batches) do not pay repeated heap-array reallocations. Grows
  /// geometrically, as push_back does: an exact reserve per hint would
  /// copy the whole heap on every session start.
  void Reserve(std::size_t additional) {
    common::NullLockGuard lock(mu_);
    const std::size_t wanted = queue_.size() + additional;
    if (wanted > queue_.capacity()) {
      queue_.reserve(std::max(wanted, 2 * queue_.capacity()));
    }
  }

  /// Runs one event; returns false if the queue is empty.
  bool Step() {
    Event ev;
    {
      common::NullLockGuard lock(mu_);
      if (queue_.empty()) return false;
      // The hand-rolled heap pops by move: the action leaves the queue
      // without the copy (or the shared_ptr indirection)
      // std::priority_queue would force through its const top().
      ev = PopEarliest();
      now_ = ev.when;
      ++executed_;
      if (auditor_ != nullptr) auditor_->OnEventExecuted(ev.when, ev.seq);
      if (tracer_ != nullptr &&
          (executed_ & (kTraceSampleStride - 1)) == 0) {
        // Sampled queue-depth timeline: one counter event per stride
        // keeps the trace small while still showing event-loop pressure.
        tracer_->Counter(tracer_track_, tracer_counter_, now_,
                         static_cast<double>(queue_.size()));
      }
    }
    // The action runs outside the event-loop capability: actions routinely
    // schedule follow-up events, and that re-entry must not self-deadlock
    // once the capability is a real lock.
    ev.action();
    return true;
  }

  /// Runs until no events remain. Returns the final simulated time.
  SimTime Run() {
    while (Step()) {
    }
    return Now();
  }

  /// Runs until the queue drains or the simulated clock passes `deadline`.
  SimTime RunUntil(SimTime deadline) {
    while (HasEventNoLaterThan(deadline)) {
      Step();
    }
    common::NullLockGuard lock(mu_);
    if (now_ < deadline) now_ = deadline;
    return now_;
  }

  /// Runs every event strictly before `end`, leaving the clock at the
  /// last executed event — it is NOT forced forward to `end`. This is the
  /// conservative-PDES window primitive: a shard executes its share of
  /// the window [T, T+lookahead), then the coordinator merges cross-shard
  /// messages at the barrier. Leaving the clock untouched keeps a
  /// one-shard run byte-identical to Run() (which never forces the clock
  /// either). Returns the number of events executed.
  std::size_t RunWindow(SimTime end) {
    std::size_t executed = 0;
    while (HasEventBefore(end)) {
      Step();
      ++executed;
    }
    return executed;
  }

  /// Timestamp of the earliest pending event, or kNoPendingEvent when the
  /// queue is empty. The sharded coordinator uses this to pick the next
  /// window's start across shards.
  [[nodiscard]] SimTime NextEventTime() const {
    common::NullLockGuard lock(mu_);
    return queue_.empty() ? kNoPendingEvent : queue_.front().when;
  }

  [[nodiscard]] std::size_t PendingEvents() const {
    common::NullLockGuard lock(mu_);
    return queue_.size();
  }
  /// Events actually executed so far (not merely scheduled).
  [[nodiscard]] std::uint64_t ProcessedEvents() const {
    common::NullLockGuard lock(mu_);
    return executed_;
  }
  /// Events ever scheduled, executed or still pending.
  [[nodiscard]] std::uint64_t ScheduledEvents() const {
    common::NullLockGuard lock(mu_);
    return next_seq_;
  }

  /// Attaches an audit observer notified of every executed event; pass
  /// nullptr to detach. The caller owns the sink and must detach it (or
  /// keep it alive) for as long as the simulator runs.
  void SetAuditor(audit::AuditSink* auditor) { auditor_ = auditor; }
  [[nodiscard]] audit::AuditSink* Auditor() const { return auditor_; }

  /// Attaches a trace recorder that receives a sampled pending-event
  /// counter on `track` (one sample every 256 executed events; a single
  /// pointer test per event when detached). Pass nullptr to detach.
  void SetTracer(obs::TraceRecorder* tracer, obs::TrackId track = 0) {
    tracer_ = tracer;
    tracer_track_ = track;
    if (tracer_ != nullptr) tracer_counter_ = tracer_->Name("pending_events");
  }
  [[nodiscard]] obs::TraceRecorder* Tracer() const { return tracer_; }

 private:
  /// Heap node. Holds the action inline (std::function moves are cheap and
  /// noexcept), so scheduling allocates nothing beyond the closure itself.
  struct Event {
    SimTime when = kSimEpoch;
    std::uint64_t seq = 0;
    Action action;
  };

  static bool Earlier(const Event& a, const Event& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  /// True when an event is pending at or before `deadline` (RunUntil's
  /// loop condition, split out so the peek happens under the capability).
  [[nodiscard]] bool HasEventNoLaterThan(SimTime deadline) const {
    common::NullLockGuard lock(mu_);
    return !queue_.empty() && queue_.front().when <= deadline;
  }

  /// RunWindow's loop condition: an event strictly before `end` pends.
  [[nodiscard]] bool HasEventBefore(SimTime end) const {
    common::NullLockGuard lock(mu_);
    return !queue_.empty() && queue_.front().when < end;
  }

  // Binary min-heap over queue_ ordered by (when, seq). Hand-rolled so the
  // root can be moved out on pop and sifts shift a hole instead of
  // swapping (one move per level, not three).
  void SiftUp(std::size_t index) VEC_REQUIRES(mu_) {
    Event ev = std::move(queue_[index]);
    while (index > 0) {
      const std::size_t parent = (index - 1) / 2;
      if (!Earlier(ev, queue_[parent])) break;
      queue_[index] = std::move(queue_[parent]);
      index = parent;
    }
    queue_[index] = std::move(ev);
  }

  void SiftDown(std::size_t index) VEC_REQUIRES(mu_) {
    Event ev = std::move(queue_[index]);
    const std::size_t count = queue_.size();
    while (true) {
      std::size_t child = 2 * index + 1;
      if (child >= count) break;
      if (child + 1 < count && Earlier(queue_[child + 1], queue_[child])) {
        ++child;
      }
      if (!Earlier(queue_[child], ev)) break;
      queue_[index] = std::move(queue_[child]);
      index = child;
    }
    queue_[index] = std::move(ev);
  }

  Event PopEarliest() VEC_REQUIRES(mu_) {
    Event top = std::move(queue_.front());
    if (queue_.size() > 1) {
      queue_.front() = std::move(queue_.back());
      queue_.pop_back();
      SiftDown(0);
    } else {
      queue_.pop_back();
    }
    return top;
  }

  static constexpr std::uint64_t kTraceSampleStride = 256;

  /// Event-loop capability: clock, sequence counters and the heap are one
  /// consistency domain. Mutable so const accessors (Now, PendingEvents)
  /// can acquire it.
  mutable common::NullMutex mu_;

  SimTime now_ VEC_GUARDED_BY(mu_) = kSimEpoch;
  std::uint64_t next_seq_ VEC_GUARDED_BY(mu_) = 0;
  std::uint64_t executed_ VEC_GUARDED_BY(mu_) = 0;
  // Observer wiring happens during single-threaded setup, before any
  // worker exists; the PDES design keeps it that way (attach, then run).
  // vecycle-analyze: allow(concurrency-guarded-member) observers are attached before the loop runs and never swapped mid-run
  audit::AuditSink* auditor_ = nullptr;
  // vecycle-analyze: allow(concurrency-guarded-member) observers are attached before the loop runs and never swapped mid-run
  obs::TraceRecorder* tracer_ = nullptr;
  // vecycle-analyze: allow(concurrency-guarded-member) observers are attached before the loop runs and never swapped mid-run
  obs::TrackId tracer_track_ = 0;
  // vecycle-analyze: allow(concurrency-guarded-member) observers are attached before the loop runs and never swapped mid-run
  obs::NameId tracer_counter_ = 0;
  std::vector<Event> queue_ VEC_GUARDED_BY(mu_);
};

/// A serialized device: at most one request in service at a time, FIFO.
/// Reserve() books `service` time starting no earlier than `earliest` and
/// no earlier than the end of the previous booking, returning the
/// [start, end) of the booking. This fluid model is exact for links and
/// disks whose requests are issued in order — the case everywhere in the
/// migration pipeline.
class FifoResource {
 public:
  struct Booking {
    SimTime start;
    SimTime end;
  };

  Booking Reserve(SimTime earliest, SimDuration service) {
    common::NullLockGuard lock(mu_);
    const SimTime start = std::max(earliest, available_at_);
    const SimTime end = start + service;
    available_at_ = end;
    busy_ += service;
    return Booking{start, end};
  }

  [[nodiscard]] SimTime AvailableAt() const {
    common::NullLockGuard lock(mu_);
    return available_at_;
  }

  /// Total time this resource spent in service — utilization numerator.
  [[nodiscard]] SimDuration BusyTime() const {
    common::NullLockGuard lock(mu_);
    return busy_;
  }

  void Reset() {
    common::NullLockGuard lock(mu_);
    available_at_ = kSimEpoch;
    busy_ = SimDuration::zero();
  }

 private:
  /// A FIFO resource is exactly the kind of cross-shard contention point
  /// PDES has to serialize; its booking cursor is one capability.
  mutable common::NullMutex mu_;
  SimTime available_at_ VEC_GUARDED_BY(mu_) = kSimEpoch;
  SimDuration busy_ VEC_GUARDED_BY(mu_) = SimDuration::zero();
};

}  // namespace vecycle::sim
