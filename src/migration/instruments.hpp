// The audit, trace, metrics and fault instruments one migration runs
// under: resolved once per run by one precedence rule, and attached to
// the shared simulator, link, stores, disks and checksum engines through
// one claim scope.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "audit/audit.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vecycle::migration {

/// Observers a run records into. Every pointer is nullable and, when set
/// by a caller, caller-owned: it must outlive the run.
struct Instruments {
  audit::SimAuditor* auditor = nullptr;
  obs::TraceRecorder* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  fault::FaultInjector* injector = nullptr;
};

/// Resolved instruments plus the auditor and injector the resolution
/// created for this run alone. The pointers stay valid across moves.
struct ResolvedInstruments : Instruments {
  std::unique_ptr<audit::SimAuditor> owned_auditor;
  std::unique_ptr<fault::FaultInjector> owned_injector;
};

/// True when `trace_flag` or the VECYCLE_TRACE environment variable arms
/// tracing for a run that names no recorder of its own.
[[nodiscard]] bool TraceArmed(bool trace_flag);

/// The one precedence rule, per instrument: an explicit pointer in
/// `given` wins; otherwise the run's config (`audit_flag`, `trace_flag`,
/// the `faults` plan), then VECYCLE_AUDIT / VECYCLE_TRACE /
/// VECYCLE_FAULTS arms it. An armed auditor is private to the run; so is
/// an armed injector, built from `faults` when that plan is enabled and
/// from VECYCLE_FAULTS otherwise. Null `faults` marks an engine without
/// fault seams (post-copy), which never arms an injector. An armed
/// tracer is obs::GlobalTrace(). Metrics follow the tracer: a run with a
/// tracer but no explicit registry records into obs::GlobalMetrics().
[[nodiscard]] ResolvedInstruments ResolveInstruments(
    const Instruments& given, bool audit_flag, bool trace_flag,
    const fault::FaultConfig* faults);

/// Attaches instruments to resources other runs share: each claim sets a
/// slot only when it is empty, so the first run to find a slot free owns
/// it, and destruction clears exactly the slots this scope set. A null
/// instrument claims nothing. Claimed resources must outlive the scope.
class InstrumentClaims {
 public:
  InstrumentClaims() = default;
  ~InstrumentClaims() {
    for (auto it = releases_.rbegin(); it != releases_.rend(); ++it) (*it)();
  }
  InstrumentClaims(const InstrumentClaims&) = delete;
  InstrumentClaims& operator=(const InstrumentClaims&) = delete;

  template <typename Resource>
  void Auditor(Resource& resource, audit::AuditSink* auditor) {
    if (auditor == nullptr || resource.Auditor() != nullptr) return;
    resource.SetAuditor(auditor);
    releases_.emplace_back([&resource] { resource.SetAuditor(nullptr); });
  }

  /// The resource's lane, `track` under `process`, is created only when
  /// the claim succeeds.
  template <typename Resource>
  void Tracer(Resource& resource, obs::TraceRecorder* tracer,
              std::uint32_t process, std::string_view track) {
    if (tracer == nullptr || resource.Tracer() != nullptr) return;
    resource.SetTracer(tracer, tracer->Track(process, track));
    releases_.emplace_back([&resource] { resource.SetTracer(nullptr); });
  }

  template <typename Resource>
  void Injector(Resource& resource, fault::FaultInjector* injector) {
    if (injector == nullptr || resource.Injector() != nullptr) return;
    resource.SetFaultInjector(injector);
    releases_.emplace_back(
        [&resource] { resource.SetFaultInjector(nullptr); });
  }

 private:
  std::vector<std::function<void()>> releases_;
};

}  // namespace vecycle::migration
