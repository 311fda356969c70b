// Timing decorators over the library's two extension interfaces. Each
// forwards every call unchanged to the wrapped object and records a span
// around it, so a decorated run computes exactly what an undecorated one
// does (perfbench_test checks the model outputs byte for byte).
#pragma once

#include <memory>
#include <string_view>
#include <utility>

#include "core/scheduler.hpp"
#include "policy/placement.hpp"
#include "spans.hpp"
#include "vm/workload.hpp"

namespace perfbench {

/// Times vm::Workload::Advance and counts the guest writes it applies.
/// A call is "in place" when the VM runs outside any migration: under the
/// driver's core.RunFor, or under core.RunPolicy while the scheduler has no
/// session running (RunPolicy advances the fleet only while quiescent; the
/// engine advances a migrating VM only while its session runs).
class TimedWorkload final : public vecycle::vm::Workload {
 public:
  TimedWorkload(std::unique_ptr<vecycle::vm::Workload> inner,
                SpanRecorder& recorder,
                const vecycle::core::MigrationScheduler& scheduler)
      : inner_(std::move(inner)), recorder_(recorder), scheduler_(scheduler) {}

  void Advance(vecycle::vm::GuestMemory& memory,
               vecycle::SimDuration dt) override {
    const bool in_place = InPlace();
    auto scope = recorder_.Open(span::kAdvance);
    const std::uint64_t before = memory.TotalWrites();
    inner_->Advance(memory, dt);
    scope.SetCount(memory.TotalWrites() - before);
    scope.SetInPlace(in_place);
  }

  void SetThrottle(double keep) override {
    Workload::SetThrottle(keep);
    inner_->SetThrottle(keep);
  }

 private:
  bool InPlace() {
    if (!recorder_.OnDriverThread()) return false;
    const char* caller = recorder_.InnermostOnThisThread();
    if (caller == span::kRunFor) return true;
    return caller == span::kRunPolicy && scheduler_.RunningCount() == 0;
  }

  std::unique_ptr<vecycle::vm::Workload> inner_;
  SpanRecorder& recorder_;
  const vecycle::core::MigrationScheduler& scheduler_;
};

/// Times policy::PlacementPolicy::Decide and Observe. The decorator keeps
/// no statistics of its own: read DecisionStats from the wrapped policy.
class TimedPolicy final : public vecycle::policy::PlacementPolicy {
 public:
  TimedPolicy(vecycle::policy::PlacementPolicy& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  [[nodiscard]] std::string_view Name() const override {
    return inner_.Name();
  }

  [[nodiscard]] vecycle::policy::Decision Decide(
      const vecycle::policy::PlacementQuery& query) override {
    auto scope = recorder_.Open(span::kDecide);
    return inner_.Decide(query);
  }

  void Observe(const vecycle::core::VmInstance& vm,
               vecycle::SimTime now) override {
    auto scope = recorder_.Open(span::kObserve);
    inner_.Observe(vm, now);
  }

 private:
  vecycle::policy::PlacementPolicy& inner_;
  SpanRecorder& recorder_;
};

}  // namespace perfbench
