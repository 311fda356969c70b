#include "storage/chunk_store.hpp"

#include <algorithm>

#include "digest/fnv.hpp"

namespace vecycle::storage {

Digest128 ChunkDigest(std::span<const std::uint64_t> seeds) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(seeds.data());
  const std::size_t size = seeds.size() * sizeof(std::uint64_t);
  const std::uint64_t lo = Fnv1a64(bytes, size);
  // Second pass seeded by the first fills the high word, so a chunk digest
  // carries 128 bits where one FNV pass carries 64.
  const std::uint64_t hi = Fnv1a64(bytes, size, lo ^ 0x9e3779b97f4a7c15ull);
  return Digest128::FromWords(hi, lo);
}

std::uint64_t ChunkContentKey(std::uint64_t seed) {
  return ChunkDigest(std::span<const std::uint64_t>(&seed, 1)).words[1];
}

std::uint64_t ChunkStore::LiveSlot(std::uint64_t slot) const {
  VEC_CHECK_MSG(slot < arena_.size() && arena_[slot].live,
                "chunk slot is not live in the store");
  return slot;
}

std::uint64_t ChunkStore::Pin(const Digest128& digest,
                              std::span<const std::uint64_t> seeds,
                              SimTime now, bool* fresh) {
  VEC_CHECK_MSG(!seeds.empty(), "refusing to pin an empty chunk");
  if (fresh != nullptr) *fresh = false;
  if (const std::uint64_t* slot = index_.Find(digest)) {
    Chunk& chunk = arena_[*slot];
    ++chunk.refcount;
    ++total_refs_;
    chunk.last_used = std::max(chunk.last_used, now);
    ++deduped_;
    return *slot;
  }
  std::uint64_t slot;
  if (!free_slots_.empty()) {
    slot = *free_slots_.begin();
    free_slots_.erase(free_slots_.begin());
  } else {
    slot = arena_.size();
    arena_.emplace_back();
  }
  Chunk& chunk = arena_[slot];
  chunk.digest = digest;
  chunk.seeds.assign(seeds.begin(), seeds.end());
  chunk.refcount = 1;
  chunk.last_used = now;
  chunk.live = true;
  index_.Insert(digest, slot);
  footprint_ += Pages(seeds.size());
  ++total_refs_;
  ++written_;
  if (fresh != nullptr) *fresh = true;
  return slot;
}

void ChunkStore::Unpin(std::uint64_t slot) {
  Chunk& chunk = arena_[LiveSlot(slot)];
  VEC_CHECK_MSG(chunk.refcount > 0, "chunk refcount underflow");
  --chunk.refcount;
  --total_refs_;
}

void ChunkStore::Touch(std::uint64_t slot, SimTime now) {
  Chunk& chunk = arena_[LiveSlot(slot)];
  chunk.last_used = std::max(chunk.last_used, now);
}

const std::vector<std::uint64_t>& ChunkStore::SeedsOf(
    std::uint64_t slot) const {
  return arena_[LiveSlot(slot)].seeds;
}

const Digest128& ChunkStore::DigestOf(std::uint64_t slot) const {
  return arena_[LiveSlot(slot)].digest;
}

std::vector<Digest128> ChunkStore::SweepUntil(Bytes target) {
  std::vector<Digest128> freed;
  if (footprint_ <= target) return freed;
  // Candidates: unreferenced live chunks, ordered strictly by
  // (last_used, digest). The arena is scanned in slot order and the list
  // sorted by content, so the sweep sequence is a function of the store's
  // state, never of allocation history quirks.
  std::vector<std::uint64_t> victims;
  for (std::uint64_t slot = 0; slot < arena_.size(); ++slot) {
    const Chunk& chunk = arena_[slot];
    if (chunk.live && chunk.refcount == 0) victims.push_back(slot);
  }
  std::sort(victims.begin(), victims.end(),
            [this](std::uint64_t a, std::uint64_t b) {
              const Chunk& ca = arena_[a];
              const Chunk& cb = arena_[b];
              if (ca.last_used != cb.last_used) {
                return ca.last_used < cb.last_used;
              }
              return ca.digest < cb.digest;
            });
  for (const std::uint64_t slot : victims) {
    if (footprint_ <= target) break;
    Chunk& chunk = arena_[slot];
    footprint_ -= Pages(chunk.seeds.size());
    index_.Erase(chunk.digest);
    freed.push_back(chunk.digest);
    chunk = Chunk{};
    free_slots_.insert(slot);
    ++gc_freed_;
  }
  return freed;
}

}  // namespace vecycle::storage
