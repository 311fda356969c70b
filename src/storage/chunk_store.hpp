// Content-addressed chunk store: the dedup substrate under CheckpointStore.
//
// The Fig. 4 observation — co-located desktops cloned from one golden
// image share most of their pages — means flat per-VM images store the
// same content over and over. Here a checkpoint becomes a *manifest*: an
// ordered list of chunk slots, one per fixed-size run of pages, where the
// chunk payloads live in a shared refcounted arena. A DigestMap indexes
// the arena by content digest; Pin is the one place that probes it, and
// every later operation on a chunk names it by the arena slot Pin
// returned. A chunk present in any live manifest is stored exactly once,
// whether the duplication is across VMs (golden image) or across
// successive legs of one VM's ping-pong (unchanged pages between visits).
//
// Garbage collection is deliberate, not incidental: dropping a manifest
// unpins its chunks (refcount decrement), and a sweep frees unreferenced
// chunks in strict (last_used, digest) order until the footprint target is
// met. A referenced chunk is never freed — the conservation property the
// audit layer asserts. Everything here is deterministic: the arena is a
// slot vector with a sorted free list, so chunk identity, sweep order and
// footprint are pure functions of the operation sequence.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "digest/digest.hpp"
#include "digest/digest_map.hpp"
#include "sim/tiered_disk.hpp"

namespace vecycle::storage {

/// Configuration of the content-addressed store layered under a host's
/// CheckpointStore. The default (`chunking` off) is the flat per-VM image
/// store of the paper's prototype, byte-identical in behavior.
struct StoreConfig {
  /// Master switch. Off: flat per-VM images, no manifests, no tier.
  bool chunking = false;

  /// Pages per chunk. Power of two; 1 = page-granular dedup (maximum
  /// sharing, largest index), larger chunks trade dedup ratio for index
  /// size exactly like real dedup filesystems.
  std::uint64_t chunk_pages = 1;

  /// SSD cache tier over the host's durable disk (ssd_capacity 0 = off).
  sim::TieredDiskConfig tier;

  /// GC watermarks, as fractions of RetentionPolicy::disk_quota. When a
  /// Save pushes the chunk footprint past `high`, the sweep frees
  /// unreferenced chunks until it reaches `low`.
  double gc_low_watermark = 0.60;
  double gc_high_watermark = 0.90;

  void Validate() const {
    VEC_CHECK_MSG(chunk_pages != 0 && (chunk_pages & (chunk_pages - 1)) == 0,
                  "store chunk_pages must be a nonzero power of two");
    tier.Validate();
    VEC_CHECK_MSG(tier.ssd_capacity.count == 0 ||
                      tier.ssd_capacity >= Pages(chunk_pages),
                  "store tier ssd_capacity smaller than one chunk (use 0 to "
                  "disable the tier)");
    VEC_CHECK_MSG(gc_low_watermark > 0.0,
                  "store gc_low_watermark must be positive");
    VEC_CHECK_MSG(gc_low_watermark <= gc_high_watermark,
                  "store gc watermarks must be ordered (low <= high)");
    VEC_CHECK_MSG(gc_high_watermark <= 1.0,
                  "store gc_high_watermark must not exceed 1.0");
  }
};

/// A checkpoint as the chunk store sees it: ordered chunk arena slots plus
/// the geometry needed to map page indices back to chunks. The last chunk
/// may be partial (page_count need not be a multiple of chunk_pages).
struct Manifest {
  std::vector<std::uint64_t> chunks;
  std::uint64_t page_count = 0;
  std::uint64_t chunk_pages = 0;

  [[nodiscard]] bool Empty() const { return chunks.empty(); }

  /// Index into `chunks` for a page.
  [[nodiscard]] std::uint64_t ChunkOf(std::uint64_t page) const {
    return page / chunk_pages;
  }
};

/// Content digest of a chunk (a run of page seeds). Two FNV-1a passes —
/// the second seeded by the first — fill both digest words, so ordered
/// sweeps (which compare both) see well-distributed values. FNV suffices
/// here for the same reason it does for sender-side dedup: chunks live on
/// one host and the store re-verifies reconstructed images by strong
/// digest anyway.
Digest128 ChunkDigest(std::span<const std::uint64_t> seeds);

/// Gang-dedup cache key for one page's content: the low word of the
/// single-page ChunkDigest. Lets the orchestrator's cross-VM dedup caches
/// key on the same content identity the chunk store uses.
std::uint64_t ChunkContentKey(std::uint64_t seed);

/// Refcounted chunk arena + digest index. Not itself disk-aware: the
/// CheckpointStore charges device time and drives GC policy; this class
/// owns identity, refcounts and deterministic sweep order.
class ChunkStore {
 public:
  ChunkStore() = default;

  /// Adds a reference to the chunk with `digest`, storing `seeds` if the
  /// chunk is new, and returns its arena slot — the handle every other
  /// operation takes. `fresh` (when non-null) reports whether the chunk
  /// was absent (its bytes must be written to disk) rather than
  /// deduplicated against an existing copy.
  std::uint64_t Pin(const Digest128& digest,
                    std::span<const std::uint64_t> seeds, SimTime now,
                    bool* fresh = nullptr);

  /// Drops one reference. The chunk stays resident (refcount may reach
  /// zero) until a sweep frees it — unpinning is cheap, freeing is GC.
  void Unpin(std::uint64_t slot);

  /// Refreshes recency (sweep victims are least-recently-used first).
  void Touch(std::uint64_t slot, SimTime now);

  /// Payload and content digest of a resident chunk. Each of Unpin,
  /// Touch, SeedsOf and DigestOf rejects a slot that is not live (never
  /// pinned, or freed by a sweep).
  [[nodiscard]] const std::vector<std::uint64_t>& SeedsOf(
      std::uint64_t slot) const;
  [[nodiscard]] const Digest128& DigestOf(std::uint64_t slot) const;

  /// True when a chunk with `digest` is resident.
  [[nodiscard]] bool Holds(const Digest128& digest) const {
    return index_.Contains(digest);
  }

  /// Frees unreferenced chunks, least-recently-used first (digest order
  /// breaks ties), until the footprint is at most `target`. Referenced
  /// chunks are never freed. Returns the freed digests in sweep order so
  /// the caller can drop cache residency and charge metadata writes.
  std::vector<Digest128> SweepUntil(Bytes target);

  /// On-disk bytes of all resident chunks (pages * 4 KiB, including
  /// unreferenced chunks awaiting GC — they still occupy disk).
  [[nodiscard]] Bytes Footprint() const { return footprint_; }

  /// Sum of refcounts over all resident chunks. Conservation invariant:
  /// equals the total chunk count of all live manifests.
  [[nodiscard]] std::uint64_t TotalRefcount() const { return total_refs_; }

  [[nodiscard]] std::uint64_t ResidentChunks() const { return index_.Size(); }
  [[nodiscard]] std::uint64_t ChunksWritten() const { return written_; }
  [[nodiscard]] std::uint64_t ChunksDeduped() const { return deduped_; }
  [[nodiscard]] std::uint64_t GcFreed() const { return gc_freed_; }

 private:
  struct Chunk {
    Digest128 digest;
    std::vector<std::uint64_t> seeds;
    std::uint64_t refcount = 0;
    SimTime last_used = kSimEpoch;
    bool live = false;
  };

  /// Returns `slot`, rejecting one that is not live.
  [[nodiscard]] std::uint64_t LiveSlot(std::uint64_t slot) const;

  std::vector<Chunk> arena_;
  std::set<std::uint64_t> free_slots_;  // ascending: lowest slot reused first
  DigestMap index_;                     // digest -> arena slot
  Bytes footprint_;
  std::uint64_t total_refs_ = 0;
  std::uint64_t written_ = 0;
  std::uint64_t deduped_ = 0;
  std::uint64_t gc_freed_ = 0;
};

}  // namespace vecycle::storage
