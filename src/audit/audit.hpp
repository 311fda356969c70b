// Simulation audit layer.
//
// The paper's central claim — a stale checkpoint plus checksum-identified
// deltas reconstructs guest RAM *exactly* — rests on three properties the
// rest of the codebase asserts only locally: causality (the event loop
// never runs time backwards), conservation (every page is accounted for by
// exactly one transfer mechanism, and the wire carries exactly the bytes
// the protocol priced), and end-state integrity (the reconstructed memory
// digests equal to the source, and checkpoints verify after store/load).
// This module centralizes those checks: components report what they do to
// an AuditSink, and SimAuditor verifies the stream as it happens while
// folding it into a fingerprint the determinism harness (replay.hpp)
// compares across runs.
//
// The layer is compiled in always and enabled per-run — via
// MigrationConfig::audit / PostCopyConfig::audit, the VECYCLE_AUDIT
// environment variable, or by handing a run an explicit SimAuditor.
#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>

#include "common/units.hpp"

namespace vecycle::audit {

/// Observer interface the instrumented components talk to. All methods are
/// no-ops by default so sinks implement only what they care about; the
/// hooks cost one pointer test per event when no sink is attached.
class AuditSink {
 public:
  virtual ~AuditSink() = default;

  /// The simulator executed the event scheduled with sequence number
  /// `seq` at simulated time `when`.
  virtual void OnEventExecuted(SimTime when, std::uint64_t seq);

  /// A channel sent a message: `wire_bytes` bytes of `type_id` (numeric
  /// net::MessageType — audit stays below the net layer) on `channel_id`,
  /// departing no earlier than `depart` and fully arriving at `arrival`.
  virtual void OnMessageSent(std::uint32_t channel_id, std::uint32_t type_id,
                             std::uint64_t wire_bytes, SimTime depart,
                             SimTime arrival);

  /// A checkpoint store verified a checkpoint's integrity on a save or
  /// scanned it on a load.
  virtual void OnCheckpointVerified(bool integrity_ok);

  /// A checkpoint store removed an entry: `evicted` distinguishes policy
  /// removals (retention eviction, oversize discard) from explicit
  /// Drop() calls. Folding both into the audit stream means replay
  /// fingerprints account for every entry that leaves a store.
  virtual void OnCheckpointDropped(bool evicted);

  /// A labelled scalar (final statistics, digests) folded into the audit
  /// stream so ReplayCheck compares outcomes, not just event shapes.
  virtual void OnScalar(std::string_view label, std::uint64_t value);
};

/// Aggregate view of everything a SimAuditor observed.
struct AuditReport {
  std::uint64_t events_executed = 0;
  std::uint64_t messages_sent = 0;
  Bytes wire_bytes;  ///< across all channels
  std::uint64_t checkpoint_verifications = 0;
  std::uint64_t checkpoint_drops = 0;  ///< explicit drops + evictions
  std::uint64_t scalars_recorded = 0;
};

/// The verifying sink. Causality and wire sanity are checked eagerly (a
/// violation throws CheckFailure at the offending event, where the stack
/// still points at the culprit); conservation and end-state checks need
/// run-level totals and live in the components that own them (the
/// migration engine's Finalize, post-copy's Run). Every observation is
/// folded into Fingerprint(), the value ReplayCheck compares across runs.
class SimAuditor final : public AuditSink {
 public:
  void OnEventExecuted(SimTime when, std::uint64_t seq) override;
  void OnMessageSent(std::uint32_t channel_id, std::uint32_t type_id,
                     std::uint64_t wire_bytes, SimTime depart,
                     SimTime arrival) override;
  void OnCheckpointVerified(bool integrity_ok) override;
  void OnCheckpointDropped(bool evicted) override;
  void OnScalar(std::string_view label, std::uint64_t value) override;

  [[nodiscard]] const AuditReport& Report() const { return report_; }

  /// Total wire bytes observed on one channel — the engine cross-checks
  /// this against the channel's own PayloadSent() accounting.
  [[nodiscard]] Bytes ChannelBytes(std::uint32_t channel_id) const;

  /// Order-sensitive fingerprint of the full event/message/scalar stream.
  [[nodiscard]] std::uint64_t Fingerprint() const { return fingerprint_; }

 private:
  void Mix(std::uint64_t value);

  AuditReport report_;
  std::unordered_map<std::uint32_t, Bytes> channel_bytes_;
  SimTime last_event_time_ = kSimEpoch;
  std::uint64_t fingerprint_ = 0x76656379636c65ull;  // "vecycle"
};

/// True when the VECYCLE_AUDIT environment variable requests auditing for
/// every run ("1"/"true"/"on"/"yes", case-insensitive). Lets CI and
/// sanitizer jobs turn the audit layer on without touching call sites.
[[nodiscard]] bool EnvEnabled();

}  // namespace vecycle::audit
