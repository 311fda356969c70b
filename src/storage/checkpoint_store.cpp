#include "storage/checkpoint_store.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace vecycle::storage {

namespace {

/// On-disk bytes of manifest metadata: one wire digest per chunk.
constexpr std::uint64_t kManifestEntryBytes = 16;

/// Metadata write charged per chunk freed by a GC sweep (free-list and
/// index updates — small and sequential, like a real dedup store's log).
constexpr std::uint64_t kGcEntryBytes = 64;

}  // namespace

void CheckpointStore::RemoveEntry(
    std::unordered_map<VmId, Entry>::iterator it, Removal removal) {
  Unpin(it->second.manifest);
  const bool evicted = removal != Removal::kDrop;
  if (removal != Removal::kReplace) {
    if (tracer_ != nullptr) {
      tracer_->Instant(
          tracer_track_,
          tracer_->Name((evicted ? "evict " : "drop ") + it->first),
          it->second.last_used);
    }
    if (auditor_ != nullptr) {
      auditor_->OnCheckpointDropped(evicted);
    }
  }
  checkpoints_.erase(it);
}

void CheckpointStore::SweepChunks(Bytes target) {
  for (const Digest128& digest : chunks_.SweepUntil(target)) {
    tier_.Drop(digest);
    pending_gc_.push_back(digest);
  }
}

SimTime CheckpointStore::ChargeGc(SimTime earliest) {
  if (pending_gc_.empty()) return earliest;
  const SimTime end = disk_.WriteSequential(
      earliest, Bytes{pending_gc_.size() * kGcEntryBytes});
  if (tracer_ != nullptr) {
    tracer_->Span(tracer_track_, tracer_->Name("gc"), earliest, end);
  }
  pending_gc_.clear();
  return end;
}

void CheckpointStore::CheckRefConservation() const {
  VEC_CHECK_MSG(chunks_.TotalRefcount() == manifest_refs_,
                "chunk refcounts out of conservation with live manifests");
}

bool CheckpointStore::MakeRoom(const VmId& keep, Bytes incoming_size) {
  while (true) {
    // Plain statements, not lambdas: the thread-safety analysis treats a
    // lambda body as a separate unannotated function, losing the lock
    // context MakeRoom's VEC_REQUIRES establishes.
    if (config_.chunking && policy_.disk_quota.count != 0) {
      // An image only counts against the quota through the chunks it
      // references: free unreferenced chunks before any manifest pays.
      SweepChunks(policy_.disk_quota);
    }
    const bool over_quota =
        policy_.disk_quota.count != 0 &&
        (FootprintLocked() + incoming_size).count > policy_.disk_quota.count;
    const bool over_count =
        policy_.max_checkpoints != 0 &&
        checkpoints_.size() + 1 > policy_.max_checkpoints;
    if (!over_quota && !over_count) break;
    // Evict the least-recently-used checkpoint that is not `keep`.
    // Ties on last_used break by VmId: the victim is a function of the
    // map's *contents*, never of its hash iteration order, so eviction
    // decisions replay bit-identically across runs and layouts.
    auto victim = checkpoints_.end();
    // vecycle-analyze: allow(determinism-unordered-iteration) victim selection is a strict (last_used, VmId) total order over the entries, so iteration order cannot affect the outcome
    for (auto it = checkpoints_.begin(); it != checkpoints_.end(); ++it) {
      if (it->first == keep) continue;
      if (victim == checkpoints_.end() ||
          it->second.last_used < victim->second.last_used ||
          (it->second.last_used == victim->second.last_used &&
           it->first < victim->first)) {
        victim = it;
      }
    }
    if (victim == checkpoints_.end()) return false;  // nothing evictable
    RemoveEntry(victim, Removal::kEvict);
    ++evictions_;
  }
  return true;
}

SimTime CheckpointStore::WriteChunks(const std::vector<std::uint64_t>& seeds,
                                     SimTime earliest, Manifest& manifest) {
  // Split the captured image into chunks and pin each: new chunks charge
  // disk, known ones dedup.
  const std::uint64_t chunk_pages = config_.chunk_pages;
  manifest.page_count = seeds.size();
  manifest.chunk_pages = chunk_pages;
  manifest.chunks.reserve((manifest.page_count + chunk_pages - 1) /
                          chunk_pages);
  std::vector<std::pair<Digest128, std::uint64_t>> fresh;
  for (std::uint64_t page = 0; page < manifest.page_count;
       page += chunk_pages) {
    const std::uint64_t count =
        std::min(chunk_pages, manifest.page_count - page);
    const std::span<const std::uint64_t> chunk(seeds.data() + page, count);
    const Digest128 digest = ChunkDigest(chunk);
    bool written = false;
    manifest.chunks.push_back(chunks_.Pin(digest, chunk, earliest, &written));
    if (written) fresh.emplace_back(digest, count);
  }
  manifest_refs_ += manifest.chunks.size();

  // Incremental write: only chunks absent from the store touch the disk,
  // plus the manifest metadata itself. The previous manifest of this VM
  // is still pinned while we write, so chunks shared with it dedup here
  // and never transit through refcount zero.
  SimTime done = earliest;
  for (const auto& [digest, count] : fresh) {
    done = tier_.WriteChunk(digest, Pages(count), done);
  }
  return disk_.WriteSequential(
      done, Bytes{manifest.chunks.size() * kManifestEntryBytes});
}

void CheckpointStore::Unpin(const Manifest& manifest) {
  for (const std::uint64_t slot : manifest.chunks) chunks_.Unpin(slot);
  manifest_refs_ -= manifest.chunks.size();
}

SimTime CheckpointStore::Save(const VmId& vm, Checkpoint checkpoint,
                              SimTime earliest) {
  common::NullLockGuard lock(mu_);
  VEC_CHECK_MSG(!checkpoint.Empty(), "refusing to store an empty checkpoint");
  const Bytes size = checkpoint.SizeOnDisk();
  const std::vector<std::uint64_t>& seeds = checkpoint.Seeds();

  // The disk charge: the full image in flat mode, the incremental chunk
  // write in chunked mode (the manifest stays empty in flat mode).
  Manifest manifest;
  const SimTime done = config_.chunking
                           ? WriteChunks(seeds, earliest, manifest)
                           : disk_.WriteSequential(earliest, size);
  if (tracer_ != nullptr) {
    tracer_->Span(tracer_track_, tracer_->Name("save " + vm), earliest, done);
  }

  // Replacing our own previous checkpoint never needs room for both.
  const auto self = checkpoints_.find(vm);
  if (self != checkpoints_.end()) RemoveEntry(self, Removal::kReplace);
  if (policy_.disk_quota.count != 0 && size.count > policy_.disk_quota.count) {
    // Larger than the whole budget: written, then discarded by policy. A
    // chunked image releases its references, and its now-unreferenced
    // chunks are swept back under the quota.
    Unpin(manifest);
    ++evictions_;
    if (config_.chunking) SweepChunks(policy_.disk_quota);
    ChargeGc(done);
    CheckRefConservation();
    return done;
  }
  // Retention sizing: a flat image needs room for all of itself; a
  // chunked one already counts through the chunks it pinned.
  const bool fits = MakeRoom(vm, config_.chunking ? Bytes{0} : size);
  VEC_CHECK_MSG(fits, "retention policy cannot accommodate checkpoint");
  // Watermark GC: a Save that pushes the footprint past the high mark
  // sweeps unreferenced chunks down to the low mark, keeping headroom so
  // steady-state Saves do not evict manifests.
  if (config_.chunking && policy_.disk_quota.count != 0) {
    const double footprint = static_cast<double>(chunks_.Footprint().count);
    const double quota = static_cast<double>(policy_.disk_quota.count);
    if (footprint > config_.gc_high_watermark * quota) {
      SweepChunks(Bytes{static_cast<std::uint64_t>(
          config_.gc_low_watermark * quota)});
    }
  }

  if (auditor_ != nullptr) {
    // Verified at write time, before any at-rest damage below.
    auditor_->OnCheckpointVerified(checkpoint.IntegrityOk());
  }
  // Dedup conservation, property (a): the image reconstructed from the
  // manifest must be element-identical to what was just saved.
  // SeedsOf rejects a slot the sweeps above freed.
  std::uint64_t cursor = 0;
  for (const std::uint64_t slot : manifest.chunks) {
    const std::vector<std::uint64_t>& stored = chunks_.SeedsOf(slot);
    const bool identical = std::equal(stored.begin(), stored.end(),
                                      seeds.begin() + cursor);
    VEC_CHECK_MSG(identical,
                  "chunked reconstruction does not match the saved image");
    cursor += stored.size();
  }

  // At-rest damage lands in the checkpoint's overlay, which the
  // destination's scan serves; the captured image — and with it the
  // chunk payloads and BaselineSeeds() — stays as written.
  if (injector_ != nullptr) {
    const auto plan = injector_->DecideCorruption(vm, checkpoint.PageCount());
    for (const auto& [page, bad_seed] : plan.rotted) {
      checkpoint.CorruptPageForTesting(page, bad_seed);
    }
    // Truncation: the image tail never made it to disk; reads of those
    // pages return garbage, which rot of every page past the cut models.
    for (std::uint64_t page = plan.truncate_from;
         page < checkpoint.PageCount(); ++page) {
      checkpoint.CorruptPageForTesting(
          page, SplitMix64(page ^ 0x7472756e63617465ull).Next() | 1ull);
    }
  }
  checkpoints_[vm] =
      Entry{std::make_shared<const Checkpoint>(std::move(checkpoint)),
            std::move(manifest), done};
  ChargeGc(done);
  CheckRefConservation();
  return done;
}

const Checkpoint* CheckpointStore::Peek(const VmId& vm) const {
  common::NullLockGuard lock(mu_);
  const auto it = checkpoints_.find(vm);
  return it == checkpoints_.end() ? nullptr : it->second.checkpoint.get();
}

CheckpointStore::LoadResult CheckpointStore::Load(const VmId& vm,
                                                  SimTime earliest) {
  common::NullLockGuard lock(mu_);
  const auto it = checkpoints_.find(vm);
  VEC_CHECK_MSG(it != checkpoints_.end(), "no checkpoint for VM: " + vm);
  LoadResult result;
  result.checkpoint = it->second.checkpoint;
  constexpr std::uint32_t kMaxScanAttempts = 8;
  std::optional<fault::FaultWindow> error;
  SimTime at = earliest;
  if (!config_.chunking || it->second.manifest.Empty()) {
    const Bytes size = it->second.checkpoint->SizeOnDisk();
    for (std::uint32_t attempt = 1;; ++attempt) {
      result.ready_at = disk_.ReadSequential(at, size, &error);
      if (!error.has_value()) break;
      VEC_CHECK_MSG(attempt < kMaxScanAttempts,
                    "checkpoint scan for " + vm +
                        " kept failing under injected disk errors");
      ++result.read_retries;
      // Restart the whole scan once the error window has passed (and the
      // disk is free again) — the dirty-skip protocol needs a clean image.
      at = std::max(result.ready_at, error->end);
    }
  } else {
    // Split the §3.3 initialization scan by tier residency: SSD-resident
    // chunks stream from the cache, the rest from the backing disk, the
    // two overlapped. Only the backing read can hit an injected error
    // window, and only it is re-charged on retry.
    const Manifest& manifest = it->second.manifest;
    Bytes ssd_bytes;
    Bytes backing_bytes;
    for (std::uint64_t index = 0; index < manifest.chunks.size(); ++index) {
      const std::uint64_t count =
          std::min(manifest.chunk_pages,
                   manifest.page_count - index * manifest.chunk_pages);
      const std::uint64_t slot = manifest.chunks[index];
      chunks_.Touch(slot, earliest);
      if (tier_.NoteAccess(chunks_.DigestOf(slot), earliest)) {
        ssd_bytes += Pages(count);
      } else {
        backing_bytes += Pages(count);
      }
    }
    for (std::uint32_t attempt = 1;; ++attempt) {
      result.ready_at = tier_.ReadSplit(at, ssd_bytes, backing_bytes, &error);
      if (!error.has_value()) break;
      VEC_CHECK_MSG(attempt < kMaxScanAttempts,
                    "checkpoint scan for " + vm +
                        " kept failing under injected disk errors");
      ++result.read_retries;
      at = std::max(result.ready_at, error->end);
    }
  }
  it->second.last_used = std::max(it->second.last_used, result.ready_at);
  if (tracer_ != nullptr) {
    tracer_->Span(tracer_track_, tracer_->Name("load " + vm), earliest,
                  result.ready_at);
  }
  if (auditor_ != nullptr) {
    // The store hands a saved checkpoint out only as const, so whatever
    // the scan finds is the damage recorded at Save — deliberate, never
    // the simulator's own. The event still counts the scan.
    auditor_->OnCheckpointVerified(true);
  }
  return result;
}

SimTime CheckpointStore::ReadBlock(const VmId& vm, std::uint64_t page,
                                   SimTime earliest, bool* read_error) {
  common::NullLockGuard lock(mu_);
  const auto it = checkpoints_.find(vm);
  if (!config_.chunking || it == checkpoints_.end() ||
      it->second.manifest.Empty()) {
    std::optional<fault::FaultWindow> overlap;
    const SimTime done =
        disk_.ReadRandom(earliest, Bytes{kPageSize},
                         read_error != nullptr ? &overlap : nullptr);
    if (read_error != nullptr) *read_error = overlap.has_value();
    return done;
  }
  const Manifest& manifest = it->second.manifest;
  VEC_CHECK_MSG(page < manifest.page_count,
                "block read past the end of the checkpoint for " + vm);
  const std::uint64_t index = manifest.ChunkOf(page);
  const std::uint64_t count =
      std::min(manifest.chunk_pages,
               manifest.page_count - index * manifest.chunk_pages);
  const std::uint64_t slot = manifest.chunks[index];
  chunks_.Touch(slot, earliest);
  std::optional<fault::FaultWindow> overlap;
  const SimTime done = tier_.ReadChunkRandom(
      chunks_.DigestOf(slot), Pages(count), earliest,
      read_error != nullptr ? &overlap : nullptr);
  if (read_error != nullptr) *read_error = overlap.has_value();
  return done;
}

void CheckpointStore::Drop(const VmId& vm) {
  common::NullLockGuard lock(mu_);
  const auto it = checkpoints_.find(vm);
  if (it == checkpoints_.end()) return;
  RemoveEntry(it, Removal::kDrop);
  CheckRefConservation();
}

std::vector<std::uint64_t> CheckpointStore::BaselineSeeds(
    const VmId& vm) const {
  common::NullLockGuard lock(mu_);
  const auto it = checkpoints_.find(vm);
  if (it == checkpoints_.end()) return {};
  const Entry& entry = it->second;
  if (!config_.chunking || entry.manifest.Empty()) {
    return entry.checkpoint->Seeds();
  }
  // Resolve through the manifest: chunks hold the pristine content the
  // image was written with. A live manifest referencing a freed chunk
  // would be a GC conservation violation — SeedsOf fails loudly on a
  // slot that is no longer live.
  std::vector<std::uint64_t> seeds;
  seeds.reserve(entry.manifest.page_count);
  for (const std::uint64_t slot : entry.manifest.chunks) {
    const std::vector<std::uint64_t>& chunk = chunks_.SeedsOf(slot);
    seeds.insert(seeds.end(), chunk.begin(), chunk.end());
  }
  return seeds;
}

std::vector<std::uint64_t> CheckpointStore::DepartureGenerations(
    const VmId& vm) const {
  common::NullLockGuard lock(mu_);
  const auto it = checkpoints_.find(vm);
  if (it == checkpoints_.end()) return {};
  return it->second.checkpoint->Generations();
}

CheckpointStore::Overlap CheckpointStore::ContentOverlap(
    const VmId& vm, const std::vector<std::uint64_t>& current_seeds) const {
  // BaselineSeeds() takes the store capability itself; both backends
  // answer from the same pristine-image source, which is what makes the
  // flat/chunked agreement contract hold by construction.
  std::vector<std::uint64_t> baseline = BaselineSeeds(vm);
  Overlap overlap;
  overlap.checkpoint_pages = baseline.size();
  overlap.current_pages = current_seeds.size();
  if (baseline.empty() || current_seeds.empty()) return overlap;
  std::sort(baseline.begin(), baseline.end());
  baseline.erase(std::unique(baseline.begin(), baseline.end()),
                 baseline.end());
  for (const std::uint64_t seed : current_seeds) {
    if (std::binary_search(baseline.begin(), baseline.end(), seed)) {
      ++overlap.matched_pages;
    }
  }
  return overlap;
}

SimTime CheckpointStore::CollectGarbage(SimTime earliest) {
  common::NullLockGuard lock(mu_);
  if (!config_.chunking) return earliest;
  SweepChunks(Bytes{0});
  const SimTime done = ChargeGc(earliest);
  CheckRefConservation();
  return done;
}

Bytes CheckpointStore::FootprintOnDisk() const {
  common::NullLockGuard lock(mu_);
  return FootprintLocked();
}

Bytes CheckpointStore::FootprintLocked() const {
  if (config_.chunking) return chunks_.Footprint();
  Bytes total;
  // vecycle-analyze: allow(determinism-unordered-iteration) commutative sum over entries; any iteration order yields the same total
  for (const auto& [vm, entry] : checkpoints_) {
    total += entry.checkpoint->SizeOnDisk();
  }
  return total;
}

}  // namespace vecycle::storage
