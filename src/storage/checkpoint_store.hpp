// Per-host checkpoint store.
//
// "We propose that each migration source locally stores a checkpoint of
// the outgoing VM" (§1). The store maps VM identifiers to their most
// recent checkpoint on this host's local disk and owns the disk-time
// accounting. Two backends share one interface:
//
//  * Flat (default, the paper's prototype): Save charges a sequential
//    write of the full image, Load a sequential scan (the §3.3
//    initialization read); retention evicts whole LRU images.
//  * Chunked (StoreConfig::chunking): checkpoints become manifests over a
//    content-addressed refcounted ChunkStore. Save is incremental — only
//    chunks absent from the store are charged to disk, so successive legs
//    of one VM and golden-image twins of co-located VMs share storage —
//    and retention becomes garbage collection: dropping a manifest unpins
//    its chunks, and a deterministic sweep frees unreferenced chunks,
//    never a referenced one. An optional SSD tier (TieredDisk) caches hot
//    chunks so Load/ReadBlock latencies reflect where chunks live.
//
// Either way the store is the system of record for what a departing VM
// left behind: delta-encoding baselines and dirty-tracking generations
// for a return migration resolve through BaselineSeeds() and
// DepartureGenerations() rather than through state carried on the VM.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/audit.hpp"
#include "common/check.hpp"
#include "common/thread_annotations.hpp"
#include "common/units.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sim/disk.hpp"
#include "sim/tiered_disk.hpp"
#include "storage/checkpoint.hpp"
#include "storage/chunk_store.hpp"

namespace vecycle::storage {

using VmId = std::string;

/// Bounds on local checkpoint storage. §1 argues local storage is cheap
/// and abundant, but a consolidation host serving hundreds of desktops
/// still needs a cap; when exceeded, the least-recently-used checkpoint
/// of another VM is evicted (a later return migration of that VM simply
/// degrades to a cold one).
struct RetentionPolicy {
  Bytes disk_quota{0};           ///< total image bytes; 0 = unlimited
  std::size_t max_checkpoints = 0;  ///< count cap; 0 = unlimited

  /// Rejects quotas too small to ever retain a checkpoint: a nonzero
  /// disk_quota below one image means every Save immediately discards
  /// what it wrote, silently degrading all migrations to cold ones.
  /// Opt-in (HostConfig::Validate calls it) rather than enforced by
  /// CheckpointStore, because eviction tests construct deliberately tiny
  /// stores on purpose.
  void Validate(Bytes min_checkpoint_image = Pages(1)) const {
    VEC_CHECK_MSG(
        disk_quota.count == 0 || disk_quota >= min_checkpoint_image,
        "retention disk_quota smaller than one checkpoint image (use 0 "
        "for unlimited)");
  }
};

class CheckpointStore {
 public:
  explicit CheckpointStore(sim::Disk& disk, RetentionPolicy policy = {},
                           StoreConfig config = {})
      : disk_(disk),
        policy_(policy),
        config_((config.Validate(), config)),
        tier_(disk, config.tier) {}

  /// Persists `checkpoint` for `vm`, replacing any previous one. Books the
  /// image write on the disk starting at `earliest`; returns completion.
  /// Flat mode charges the full image; chunked mode charges only chunks
  /// absent from the store (the incremental write) plus manifest metadata.
  /// Evicts least-recently-used checkpoints of other VMs as needed to
  /// satisfy the retention policy; a checkpoint that cannot fit even
  /// alone is not stored (the disk write is still charged — the paper's
  /// prototype writes first, applies policy after).
  SimTime Save(const VmId& vm, Checkpoint checkpoint, SimTime earliest);

  [[nodiscard]] bool Has(const VmId& vm) const {
    common::NullLockGuard lock(mu_);
    return checkpoints_.contains(vm);
  }

  /// Read-only access without disk charge (metadata inspection). The
  /// pointer is valid only until the next Save or Drop; a reader that
  /// spans simulated time holds Load's shared pointer instead.
  [[nodiscard]] const Checkpoint* Peek(const VmId& vm) const;

  /// Result of the §3.3 sequential initialization scan.
  struct LoadResult {
    /// Shared with the store: the image stays readable for the whole
    /// session even if another session's Save evicts or replaces the
    /// entry meanwhile.
    std::shared_ptr<const Checkpoint> checkpoint;
    SimTime ready_at = kSimEpoch;  ///< when the scan's last byte is read
    /// Sequential scans hit by an injected disk-error window are retried
    /// past the window (the whole scan is re-charged); this counts them.
    std::uint32_t read_retries = 0;
  };

  /// Books the full sequential read of the checkpoint image starting at
  /// `earliest`. The caller separately charges checksum computation.
  /// Chunked mode splits the scan by tier residency: SSD-resident chunk
  /// bytes stream from the cache in parallel with the backing-disk
  /// remainder. Under injected disk errors the scan retries until it
  /// lands clear of every error window (bounded; throws CheckFailure on
  /// exhaustion).
  LoadResult Load(const VmId& vm, SimTime earliest);

  /// Books one random 4 KiB block read (Listing 1's lseek+read for a page
  /// whose current content is elsewhere in the checkpoint); `page`
  /// indexes into `vm`'s stored checkpoint. In chunked mode the read
  /// routes through the tier for the chunk holding `page` (SSD hit, or
  /// backing-disk miss that promotes the chunk); flat mode books a plain
  /// random read on the disk. When `read_error` is non-null it reports
  /// whether an injected disk-error window hit the read — the caller
  /// falls back to fetching the page over the wire instead of trusting
  /// the block.
  SimTime ReadBlock(const VmId& vm, std::uint64_t page, SimTime earliest,
                    bool* read_error = nullptr);

  /// Removes `vm`'s checkpoint. Routes through the same observer path as
  /// eviction: the tracer sees a drop instant and the auditor an
  /// OnCheckpointDropped event, so replay fingerprints account for
  /// explicit drops exactly like policy evictions.
  void Drop(const VmId& vm);

  [[nodiscard]] std::size_t Size() const {
    common::NullLockGuard lock(mu_);
    return checkpoints_.size();
  }

  /// Disk footprint of all retained checkpoints: image bytes in flat
  /// mode, resident chunk bytes (shared chunks counted once) in chunked
  /// mode.
  [[nodiscard]] Bytes FootprintOnDisk() const;

  /// Per-page content seeds of `vm`'s checkpoint as captured — what a
  /// return migration delta-encodes against (DeltaConfig round-1
  /// baseline). Resolved through the manifest in chunked mode; never
  /// includes at-rest damage (a damaged stored page fails the
  /// destination's baseline cross-check per page, which is the detection
  /// path — the source plans against what it wrote). Empty when no
  /// checkpoint is held.
  [[nodiscard]] std::vector<std::uint64_t> BaselineSeeds(
      const VmId& vm) const;

  /// Generation counters captured with `vm`'s stored checkpoint
  /// (Miyakodori dirty-tracking state; rot never touches generations).
  /// Empty when no checkpoint is held.
  [[nodiscard]] std::vector<std::uint64_t> DepartureGenerations(
      const VmId& vm) const;

  /// How much of a VM's *current* content this store could serve from
  /// the checkpoint it holds — the affinity signal placement policies
  /// score destinations by.
  struct Overlap {
    /// Pages of `current_seeds` whose content appears anywhere in the
    /// stored checkpoint (set semantics: a page that merely moved frames
    /// still counts, exactly like the §3.2 checksum match would find it).
    std::uint64_t matched_pages = 0;
    std::uint64_t checkpoint_pages = 0;  ///< 0 when no checkpoint is held
    std::uint64_t current_pages = 0;     ///< size of the supplied vector

    /// Matched fraction of the VM's current pages, in [0, 1].
    [[nodiscard]] double Fraction() const {
      return current_pages == 0
                 ? 0.0
                 : static_cast<double>(matched_pages) /
                       static_cast<double>(current_pages);
    }
  };

  /// Metadata-only overlap between `current_seeds` (the VM's live
  /// per-page content, GuestMemory::Seeds()) and the checkpoint held for
  /// `vm`; charges no disk time. Resolves through BaselineSeeds(), so
  /// flat and chunked backends holding the same image report identical
  /// overlap — the chunked store answers from its manifest. All-zero
  /// when no checkpoint is held.
  [[nodiscard]] Overlap ContentOverlap(
      const VmId& vm, const std::vector<std::uint64_t>& current_seeds) const;

  /// Explicit garbage collection (chunked mode): frees every unreferenced
  /// chunk, charges the metadata writes, and emits a GC trace span.
  /// Returns when the sweep's disk work completes (`earliest` when there
  /// was nothing to free or chunking is off).
  SimTime CollectGarbage(SimTime earliest);

  [[nodiscard]] std::uint64_t Evictions() const {
    common::NullLockGuard lock(mu_);
    return evictions_;
  }
  [[nodiscard]] const RetentionPolicy& Policy() const { return policy_; }
  [[nodiscard]] const StoreConfig& Config() const { return config_; }
  [[nodiscard]] bool Chunking() const { return config_.chunking; }

  // Chunk-store and tier counters (all zero in flat mode).
  [[nodiscard]] std::uint64_t ChunksWritten() const {
    common::NullLockGuard lock(mu_);
    return chunks_.ChunksWritten();
  }
  [[nodiscard]] std::uint64_t ChunksDeduped() const {
    common::NullLockGuard lock(mu_);
    return chunks_.ChunksDeduped();
  }
  [[nodiscard]] std::uint64_t GcFreedChunks() const {
    common::NullLockGuard lock(mu_);
    return chunks_.GcFreed();
  }
  [[nodiscard]] std::uint64_t ResidentChunks() const {
    common::NullLockGuard lock(mu_);
    return chunks_.ResidentChunks();
  }
  [[nodiscard]] std::uint64_t TotalChunkRefs() const {
    common::NullLockGuard lock(mu_);
    return chunks_.TotalRefcount();
  }
  [[nodiscard]] std::uint64_t SsdHits() const {
    common::NullLockGuard lock(mu_);
    return tier_.SsdHits();
  }
  [[nodiscard]] std::uint64_t SsdMisses() const {
    common::NullLockGuard lock(mu_);
    return tier_.SsdMisses();
  }
  [[nodiscard]] std::uint64_t SsdPromotions() const {
    common::NullLockGuard lock(mu_);
    return tier_.Promotions();
  }

  /// Attaches an audit observer: every Save reports whether the image it
  /// was handed is undamaged, every Load reports its scan, and every
  /// removal reports a drop event. Pass nullptr to detach.
  void SetAuditor(audit::AuditSink* auditor) { auditor_ = auditor; }
  [[nodiscard]] audit::AuditSink* Auditor() const { return auditor_; }

  /// Attaches a trace recorder: every Save and Load then emits a
  /// retroactive disk-time span on `track`. Pass nullptr to detach.
  void SetTracer(obs::TraceRecorder* tracer, obs::TrackId track = 0) {
    tracer_ = tracer;
    tracer_track_ = track;
  }
  [[nodiscard]] obs::TraceRecorder* Tracer() const { return tracer_; }

  /// Attaches a fault injector: every Save then consults its corruption
  /// plan and may rot/truncate the stored image's damage overlay
  /// (silently — detection is the destination's job). Pass nullptr to
  /// detach. The caller owns the injector.
  void SetFaultInjector(fault::FaultInjector* injector) {
    injector_ = injector;
  }
  [[nodiscard]] fault::FaultInjector* Injector() const { return injector_; }

  /// True when the stored checkpoint for `vm` carries at-rest damage.
  [[nodiscard]] bool WasCorrupted(const VmId& vm) const {
    common::NullLockGuard lock(mu_);
    const auto it = checkpoints_.find(vm);
    return it != checkpoints_.end() && !it->second.checkpoint->IntegrityOk();
  }

  [[nodiscard]] sim::Disk& Disk() { return disk_; }

 private:
  struct Entry {
    /// Captured image + at-rest damage overlay; shared with sessions
    /// that loaded it, so removing the entry never frees an image a
    /// destination is still reading.
    std::shared_ptr<const Checkpoint> checkpoint;
    Manifest manifest;  ///< chunks of the captured image; flat: empty
    SimTime last_used = kSimEpoch;
  };

  /// Why an entry leaves the map; replacement is silent (the paper's
  /// store always overwrote in place), everything else notifies.
  enum class Removal { kReplace, kDrop, kEvict, kDiscard };

  /// Evicts LRU checkpoints (excluding `keep`) until the policy is
  /// satisfied with `incoming_size` more bytes and one more entry.
  /// Returns false if that is impossible. Eviction order is a strict
  /// (last_used, VmId) total order, so it cannot depend on the map's
  /// hash iteration order. In chunked mode unreferenced chunks are swept
  /// before any manifest is evicted, and each eviction is followed by a
  /// sweep — an image only counts against the quota through the chunks
  /// it references.
  bool MakeRoom(const VmId& keep, Bytes incoming_size) VEC_REQUIRES(mu_);

  /// Chunked mode's disk charge: pins `seeds`' chunks into `manifest` and
  /// writes the new ones plus the metadata. Returns completion.
  SimTime WriteChunks(const std::vector<std::uint64_t>& seeds,
                      SimTime earliest, Manifest& manifest)
      VEC_REQUIRES(mu_);

  /// Releases `manifest`'s chunk references (a no-op for an empty one).
  void Unpin(const Manifest& manifest) VEC_REQUIRES(mu_);

  /// Shared exit path for every entry removal: unpins the manifest
  /// (chunked mode) and — except for in-place replacement — emits the
  /// drop observers (trace instant + audit event).
  void RemoveEntry(std::unordered_map<VmId, Entry>::iterator it,
                   Removal removal) VEC_REQUIRES(mu_);

  /// Sweeps unreferenced chunks down to `target` footprint, dropping
  /// tier residency for each freed chunk; accumulates freed digests into
  /// `pending_gc_` for the disk charge at the end of the operation.
  void SweepChunks(Bytes target) VEC_REQUIRES(mu_);

  /// Charges the accumulated sweep's metadata writes and emits the GC
  /// span; returns the completion time (`earliest` when nothing freed).
  SimTime ChargeGc(SimTime earliest) VEC_REQUIRES(mu_);

  /// FootprintOnDisk for callers already holding the capability
  /// (MakeRoom's quota test runs inside Save's critical section).
  [[nodiscard]] Bytes FootprintLocked() const VEC_REQUIRES(mu_);

  /// Conservation invariant, asserted after every mutation: the sum of
  /// chunk refcounts equals the total chunk count of live manifests.
  void CheckRefConservation() const VEC_REQUIRES(mu_);

  /// Store capability: the checkpoint map and its eviction counter are
  /// one consistency domain. A host's store is shared by every session
  /// migrating through that host, which under PDES means every shard.
  mutable common::NullMutex mu_;

  sim::Disk& disk_;
  // vecycle-analyze: allow(concurrency-guarded-member) written once in the constructor, immutable afterwards
  RetentionPolicy policy_;
  // vecycle-analyze: allow(concurrency-guarded-member) written once in the constructor, immutable afterwards
  StoreConfig config_;
  // vecycle-analyze: allow(concurrency-guarded-member) observers are attached before the simulation runs and never swapped mid-run
  fault::FaultInjector* injector_ = nullptr;
  // vecycle-analyze: allow(concurrency-guarded-member) observers are attached before the simulation runs and never swapped mid-run
  audit::AuditSink* auditor_ = nullptr;
  // vecycle-analyze: allow(concurrency-guarded-member) observers are attached before the simulation runs and never swapped mid-run
  obs::TraceRecorder* tracer_ = nullptr;
  // vecycle-analyze: allow(concurrency-guarded-member) observers are attached before the simulation runs and never swapped mid-run
  obs::TrackId tracer_track_ = 0;
  sim::TieredDisk tier_ VEC_GUARDED_BY(mu_);
  ChunkStore chunks_ VEC_GUARDED_BY(mu_);
  std::unordered_map<VmId, Entry> checkpoints_ VEC_GUARDED_BY(mu_);
  /// Total chunk count across live manifests (conservation counterpart
  /// of ChunkStore::TotalRefcount()).
  std::uint64_t manifest_refs_ VEC_GUARDED_BY(mu_) = 0;
  /// Freed chunk digests awaiting their GC disk charge this operation.
  std::vector<Digest128> pending_gc_ VEC_GUARDED_BY(mu_);
  std::uint64_t evictions_ VEC_GUARDED_BY(mu_) = 0;
};

}  // namespace vecycle::storage
