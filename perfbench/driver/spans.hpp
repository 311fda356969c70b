// In-memory host-time spans, recorded around the benchmark's calls into
// the library (core.RunFor, core.Drain, ...) and inside its timing
// decorators (vm.Advance, policy.Decide, ...).
//
// A span records its name, host start/end, the span that caused it and a
// group id shared by the spans of one leg or wave. Spans stay in memory
// until the iteration ends. Recording takes no lock on the hot path: each
// thread appends to its own buffer, registered once with the recorder. A
// worker thread's span has no local parent, so it takes the innermost
// span open on the driver thread (e.g. the core.Drain that started the
// workers) as its parent.
//
// Self time is a span's duration minus that of its children on the same
// thread; a child on another thread ran in parallel, so it is not
// subtracted. Host time never feeds a model output.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Span names: the call boundaries the benchmark times.
namespace span {
inline constexpr const char* kRunFor = "core.RunFor";
inline constexpr const char* kRunPolicy = "core.RunPolicy";
inline constexpr const char* kSubmit = "core.Submit";
inline constexpr const char* kDrain = "core.Drain";
inline constexpr const char* kMigrate = "core.Migrate";
inline constexpr const char* kAdvance = "vm.Advance";
inline constexpr const char* kDecide = "policy.Decide";
inline constexpr const char* kObserve = "policy.Observe";
}  // namespace span

struct Span {
  const char* name = nullptr;  ///< one of the span:: constants
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = top level
  std::uint64_t group = 0;   ///< leg or wave id
  std::uint32_t thread = 0;  ///< 0 = the driver thread
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Payload counted at the boundary (vm.Advance: guest writes applied).
  std::uint64_t count = 0;
  /// vm.Advance only: the VM was running in place, not migrating.
  bool in_place = false;

  [[nodiscard]] std::int64_t DurationNs() const { return end_ns - start_ns; }
};

/// One thread's spans, in open order.
struct SpanBuffer {
  std::uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<std::size_t> open;  ///< indices of the open spans, innermost last
};

class SpanRecorder {
 public:
  /// A disabled recorder makes every Open() a no-op scope. The
  /// constructing thread becomes thread 0, the driver thread.
  explicit SpanRecorder(bool enabled);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  class Scope {
   public:
    Scope() = default;
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&& other) noexcept;
    Scope& operator=(Scope&&) = delete;
    ~Scope();

    /// Attach data to the span; no-ops on a disabled recorder's scope.
    void SetCount(std::uint64_t count);
    void SetInPlace(bool in_place);

   private:
    friend class SpanRecorder;
    SpanRecorder* recorder_ = nullptr;
    SpanBuffer* buffer_ = nullptr;
    std::size_t index_ = 0;
  };

  [[nodiscard]] bool Enabled() const { return enabled_; }

  /// Opens a span named `name`, which must have static lifetime.
  [[nodiscard]] Scope Open(const char* name);

  /// Group id stamped on spans opened from now on.
  void SetGroup(std::uint64_t group) {
    group_.store(group, std::memory_order_relaxed);
  }

  /// Name of the innermost span open on the calling thread, or nullptr.
  [[nodiscard]] const char* InnermostOnThisThread();

  /// True on the thread that constructed the recorder.
  [[nodiscard]] bool OnDriverThread();

  /// Every span recorded so far. Call only while no other thread records.
  [[nodiscard]] std::vector<Span> Collect() const;

 private:
  SpanBuffer& ThisThreadBuffer();
  [[nodiscard]] std::int64_t NowNs() const;

  bool enabled_;
  std::uint64_t epoch_;  ///< distinguishes recorders in thread-local state
  Clock::time_point t0_;
  std::atomic<std::uint64_t> group_{0};
  /// Id of the driver thread's innermost open span (0 when none).
  std::atomic<std::uint64_t> driver_innermost_{0};
  mutable std::mutex mu_;
  std::deque<SpanBuffer> buffers_;  ///< guarded by mu_; addresses are stable
};

/// Per-name totals over a span list.
struct SpanTotals {
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t calls = 0;
};

/// Totals per span name, with self time as described above.
[[nodiscard]] std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans);

/// Sum of the durations of the driver thread's top-level spans: how much
/// of the timed phase the spans cover.
[[nodiscard]] std::int64_t TopLevelNs(const std::vector<Span>& spans);

/// Writes spans as one JSON object per line; returns false on I/O error.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
