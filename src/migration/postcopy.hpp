// Post-copy migration (related work [13], Hines & Gopalan), composed with
// VeCycle's checkpoint recycling.
//
// Pre-copy ships memory *before* switching execution; post-copy switches
// first (minimal downtime) and fetches memory afterwards: a background
// prefetcher streams pages in order while guest accesses to not-yet-
// resident pages stall on demand fetches across the network.
//
// The VeCycle twist this module adds: when the destination holds a stale
// checkpoint, the source ships the VM's current per-page checksum vector
// at switchover (16 B/page — the §3.2 bulk message in the reverse role).
// Every checkpoint page whose checksum still matches is instantly
// resident, so only the diverged pages can fault remotely. With Fig. 1
// similarities of 60-90%, that removes most of post-copy's notorious
// degradation window.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "migration/config.hpp"
#include "migration/instruments.hpp"
#include "sim/checksum_engine.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "storage/checkpoint_store.hpp"
#include "vm/guest_memory.hpp"

namespace vecycle::migration {

struct PostCopyConfig {
  DigestAlgorithm algorithm = DigestAlgorithm::kMd5;
  /// Reuse a checkpoint at the destination when one exists (the VeCycle
  /// composition); false gives classic cold post-copy.
  bool use_checkpoint = true;
  /// Device/CPU state shipped at switchover (QEMU sends a few MiB).
  Bytes switchover_state = MiB(4);
  /// Guest memory-touch rate at the destination while residency is
  /// incomplete; touches to non-resident pages become remote faults.
  double guest_touch_rate_per_s = 2000.0;
  /// Pages per background-prefetch batch.
  std::uint32_t prefetch_batch = 256;
  std::uint64_t touch_seed = 1;

  /// Runs this migration under the audit layer (src/audit): causality,
  /// residency conservation, and end-state digest checks. VECYCLE_AUDIT
  /// turns this on globally regardless of the flag.
  bool audit = false;

  /// Runs this migration under the observability layer (src/obs):
  /// switchover/residency spans, remaining-page counter, per-fault
  /// instants, and a metrics record of every PostCopyStats field.
  /// VECYCLE_TRACE turns this on globally regardless of the flag.
  bool trace = false;

  void Validate() const;
};

struct PostCopyStats {
  /// Execution gap at switchover (device state + resume) — post-copy's
  /// headline advantage over pre-copy.
  SimDuration downtime = SimDuration::zero();
  /// Switchover until every page is resident at the destination.
  SimDuration time_to_residency = SimDuration::zero();
  /// Guest stall time accumulated on remote demand faults — post-copy's
  /// notorious cost.
  SimDuration total_stall = SimDuration::zero();
  std::uint64_t remote_faults = 0;
  std::uint64_t pages_prefetched = 0;
  /// Pages that never crossed the network: checkpoint content whose
  /// checksum still matched.
  std::uint64_t pages_from_checkpoint = 0;
  Bytes tx_bytes;               ///< source -> destination
  Bytes checksum_vector_bytes;  ///< the switchover checksum shipment
};

struct PostCopyRun {
  sim::Simulator* simulator = nullptr;
  sim::Link* link = nullptr;
  sim::Direction direction = sim::Direction::kAtoB;
  vm::GuestMemory* source_memory = nullptr;
  sim::ChecksumEngine* source_cpu = nullptr;
  sim::ChecksumEngine* dest_cpu = nullptr;
  storage::CheckpointStore* dest_store = nullptr;  ///< nullable
  storage::VmId vm_id = "vm";
  PostCopyConfig config;

  /// Explicit auditor, tracer and metrics registry; each one left null
  /// resolves from config.audit / config.trace, then from VECYCLE_AUDIT /
  /// VECYCLE_TRACE (ResolveInstruments). Post-copy has no fault seams, so
  /// `instruments.injector` must stay null.
  Instruments instruments;
};

struct PostCopyOutcome {
  PostCopyStats stats;
  std::unique_ptr<vm::GuestMemory> dest_memory;
};

/// Runs one post-copy migration to completion on the run's simulator
/// (which must not carry unrelated events). The source memory is frozen
/// at switchover (execution is already at the destination), so the
/// reconstructed memory must equal it exactly.
PostCopyOutcome RunPostCopyMigration(PostCopyRun run);

}  // namespace vecycle::migration
