#include "vm/guest_memory.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/check.hpp"
#include "digest/hasher.hpp"

namespace vecycle::vm {

void MaterializePage(std::uint64_t seed, std::span<std::byte> out) {
  VEC_CHECK(out.size() == kPageSize);
  if (seed == kZeroPageSeed) {
    std::memset(out.data(), 0, out.size());
    return;
  }
  Xoshiro256 rng(seed);
  auto* p = out.data();
  for (std::size_t i = 0; i < kPageSize; i += 8) {
    const std::uint64_t word = rng.Next();
    std::memcpy(p + i, &word, 8);
  }
}

Digest128 ContentDigest(ContentMode mode, DigestAlgorithm algorithm,
                        std::uint64_t seed) {
  if (mode == ContentMode::kMaterialized) {
    std::array<std::byte, kPageSize> page{};
    MaterializePage(seed, page);
    return ComputeDigest(algorithm, page.data(), page.size());
  }
  // The salt keeps one content's digests apart across algorithms, as real
  // digests are; XOR with a constant keeps the seed -> word 0 bijection.
  const auto salt = static_cast<std::uint64_t>(algorithm);
  VEC_CHECK_MSG(salt <= static_cast<std::uint64_t>(DigestAlgorithm::kFnv1a),
                "ContentDigest: unenumerated digest algorithm");
  SplitMix64 stream(seed ^ (salt << 56));
  const std::uint64_t word0 = stream.Next();
  return Digest128::FromWords(
      word0, algorithm == DigestAlgorithm::kFnv1a ? 0 : stream.Next());
}

GuestMemory::GuestMemory(Bytes ram_size, ContentMode mode) : mode_(mode) {
  VEC_CHECK_MSG(ram_size.count % kPageSize == 0,
                "RAM size must be page-aligned");
  const std::uint64_t pages = ram_size.count / kPageSize;
  VEC_CHECK_MSG(pages > 0, "empty guest memory");
  seeds_.assign(pages, kZeroPageSeed);
  generations_.assign(pages, 0);
  if (mode_ == ContentMode::kMaterialized) {
    backing_.assign(pages * kPageSize, std::byte{0});
  }
}

void GuestMemory::CheckPage(PageId page) const {
  VEC_CHECK_MSG(page < seeds_.size(), "page id out of range");
}

std::uint64_t GuestMemory::Seed(PageId page) const {
  CheckPage(page);
  return seeds_[page];
}

void GuestMemory::Store(PageId page, std::uint64_t content_seed) {
  seeds_[page] = content_seed;
  ++generations_[page];
  if (mode_ == ContentMode::kMaterialized) {
    MaterializePage(content_seed,
                    std::span<std::byte>(backing_.data() + page * kPageSize,
                                         kPageSize));
  }
}

void GuestMemory::WritePage(PageId page, std::uint64_t content_seed) {
  CheckPage(page);
  ++total_writes_;
  Store(page, content_seed);
}

void GuestMemory::RewritePages(PageId first,
                               std::span<const std::uint64_t> seeds,
                               std::uint64_t stores) {
  VEC_CHECK_MSG(first <= seeds_.size(), "page range out of range");
  VEC_CHECK_MSG(seeds.size() <= seeds_.size() - first,
                "page range out of range");
  VEC_CHECK_MSG(stores >= seeds.size(),
                "a folded interval needs a store per rewritten page");
  for (std::size_t i = 0; i < seeds.size(); ++i) Store(first + i, seeds[i]);
  total_writes_ += stores;
}

void GuestMemory::CopyPage(PageId from, PageId to) {
  CheckPage(from);
  WritePage(to, seeds_[from]);
}

std::uint64_t GuestMemory::Generation(PageId page) const {
  CheckPage(page);
  return generations_[page];
}

void GuestMemory::SetGenerations(
    const std::vector<std::uint64_t>& generations) {
  VEC_CHECK_MSG(generations.size() == seeds_.size(),
                "generation vector does not match memory geometry");
  std::copy(generations.begin(), generations.end(), generations_.begin());
}

Digest128 GuestMemory::PageDigest(PageId page,
                                  DigestAlgorithm algorithm) const {
  CheckPage(page);
  return ContentDigest(mode_, algorithm, seeds_[page]);
}

std::uint64_t GuestMemory::ContentHash64(PageId page) const {
  CheckPage(page);
  // SplitMix64 of the seed: a perfect (bijective) 64-bit mixer, so distinct
  // seeds can never collide, and identical content always matches. The +1
  // keeps the zero page away from SplitMix64(0)'s fixed structure.
  return SplitMix64(seeds_[page] + 1).Next();
}

void GuestMemory::ReadPage(PageId page, std::span<std::byte> out) const {
  CheckPage(page);
  VEC_CHECK(out.size() == kPageSize);
  if (mode_ == ContentMode::kMaterialized) {
    std::memcpy(out.data(), backing_.data() + page * kPageSize, kPageSize);
  } else {
    MaterializePage(seeds_[page], out);
  }
}

std::span<const std::byte> GuestMemory::PageBytes(PageId page) const {
  CheckPage(page);
  VEC_CHECK_MSG(mode_ == ContentMode::kMaterialized,
                "PageBytes requires materialized memory");
  return std::span<const std::byte>(backing_.data() + page * kPageSize,
                                    kPageSize);
}

bool GuestMemory::ContentEquals(const GuestMemory& other) const {
  if (PageCount() != other.PageCount()) return false;
  // Seeds are the ground truth for content in both modes.
  return seeds_ == other.seeds_;
}

std::uint64_t GuestMemory::ContentFingerprint() const {
  // Order-sensitive mix over the seed vector. Seeds are content identity
  // in both modes, so two memories fingerprint equal iff every page's
  // content matches — the cheap whole-image digest the audit layer
  // compares after a migration.
  std::uint64_t fingerprint = 0x9e3779b97f4a7c15ull;
  for (const auto seed : seeds_) {
    fingerprint = SplitMix64(fingerprint ^ seed).Next();
  }
  return fingerprint;
}

std::uint64_t GuestMemory::CountZeroPages() const {
  std::uint64_t zeros = 0;
  for (const auto seed : seeds_) {
    if (seed == kZeroPageSeed) ++zeros;
  }
  return zeros;
}

void MemoryProfile::Apply(GuestMemory& memory, Xoshiro256& rng) const {
  VEC_CHECK_MSG(zero_fraction >= 0.0 && duplicate_fraction >= 0.0,
                "memory profile fractions must be non-negative");
  VEC_CHECK_MSG(zero_fraction + duplicate_fraction <= 1.0,
                "memory profile fractions exceed 100%");
  VEC_CHECK(duplicate_pool_size > 0);

  // Distinct contents for the duplicate pool. High bit set partitions them
  // away from the unique-content seed space below.
  std::vector<std::uint64_t> pool(duplicate_pool_size);
  for (auto& s : pool) s = rng.Next() | (1ull << 63);

  const std::uint64_t n = memory.PageCount();
  for (PageId page = 0; page < n; ++page) {
    const double coin = rng.NextDouble();
    if (coin < zero_fraction) {
      memory.WritePage(page, kZeroPageSeed);
    } else if (coin < zero_fraction + duplicate_fraction) {
      memory.WritePage(page, pool[rng.NextBelow(pool.size())]);
    } else {
      memory.WritePage(page, rng.Next() & ~(1ull << 63));
    }
  }
}

}  // namespace vecycle::vm
