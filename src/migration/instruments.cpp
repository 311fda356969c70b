#include "migration/instruments.hpp"

namespace vecycle::migration {

bool TraceArmed(bool trace_flag) { return trace_flag || obs::EnvEnabled(); }

ResolvedInstruments ResolveInstruments(const Instruments& given,
                                       bool audit_flag, bool trace_flag,
                                       const fault::FaultConfig* faults) {
  ResolvedInstruments resolved;
  static_cast<Instruments&>(resolved) = given;
  if (resolved.auditor == nullptr && (audit_flag || audit::EnvEnabled())) {
    resolved.owned_auditor = std::make_unique<audit::SimAuditor>();
    resolved.auditor = resolved.owned_auditor.get();
  }
  if (resolved.tracer == nullptr && TraceArmed(trace_flag)) {
    resolved.tracer = &obs::GlobalTrace();
  }
  if (resolved.metrics == nullptr && resolved.tracer != nullptr) {
    resolved.metrics = &obs::GlobalMetrics();
  }
  if (resolved.injector == nullptr && faults != nullptr) {
    if (faults->enabled) {
      resolved.owned_injector = std::make_unique<fault::FaultInjector>(*faults);
    } else if (fault::EnvEnabled()) {
      resolved.owned_injector = std::make_unique<fault::FaultInjector>(
          fault::FaultConfig::FromEnv());
    }
    resolved.injector = resolved.owned_injector.get();
  }
  return resolved;
}

}  // namespace vecycle::migration
