#include "storage/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/check.hpp"
#include "digest/md5.hpp"

namespace vecycle::storage {

namespace {

/// First overlay entry at or after `page`.
template <typename Overlay>
auto FindDamage(Overlay& damage, vm::PageId page) {
  return std::lower_bound(
      damage.begin(), damage.end(), page,
      [](const auto& entry, vm::PageId key) { return entry.first < key; });
}

/// The file format's integrity digest: MD5 over seeds‖generations.
Digest128 ImageMd5(const std::vector<std::uint64_t>& seeds,
                   const std::vector<std::uint64_t>& generations) {
  Md5 md5;
  md5.Update(seeds.data(), seeds.size() * sizeof(std::uint64_t));
  md5.Update(generations.data(), generations.size() * sizeof(std::uint64_t));
  return md5.Finalize();
}

constexpr char kMagic[8] = {'V', 'E', 'C', 'C', 'K', 'P', 'T', '1'};

}  // namespace

Checkpoint Checkpoint::CaptureFrom(const vm::GuestMemory& memory) {
  Checkpoint cp;
  cp.seeds_.reserve(memory.PageCount());
  for (vm::PageId page = 0; page < memory.PageCount(); ++page) {
    cp.seeds_.push_back(memory.Seed(page));
  }
  cp.generations_ = memory.Generations();
  return cp;
}

void Checkpoint::CorruptPageForTesting(vm::PageId page,
                                       std::uint64_t bad_seed) {
  VEC_CHECK_MSG(page < seeds_.size(), "corruption target out of range");
  auto at = FindDamage(damage_, page);
  if (at != damage_.end() && at->first == page) at = damage_.erase(at);
  if (bad_seed != seeds_[page]) damage_.insert(at, {page, bad_seed});
}

std::uint64_t Checkpoint::SeedAt(vm::PageId page) const {
  VEC_CHECK_MSG(page < seeds_.size(), "checkpoint page out of range");
  if (damage_.empty()) return seeds_[page];
  const auto at = FindDamage(damage_, page);
  return at != damage_.end() && at->first == page ? at->second
                                                  : seeds_[page];
}

std::uint64_t Checkpoint::GenerationAt(vm::PageId page) const {
  VEC_CHECK_MSG(page < generations_.size(), "checkpoint page out of range");
  return generations_[page];
}

Digest128 Checkpoint::DigestAt(vm::PageId page, vm::ContentMode mode,
                               DigestAlgorithm algorithm) const {
  return vm::ContentDigest(mode, algorithm, SeedAt(page));
}

DigestMap Checkpoint::Index(vm::ContentMode mode,
                            DigestAlgorithm algorithm) const {
  std::vector<Digest128> digests;
  digests.reserve(PageCount());
  for (vm::PageId page = 0; page < PageCount(); ++page) {
    digests.push_back(DigestAt(page, mode, algorithm));
  }
  return DigestMap(digests);
}

void Checkpoint::RestoreInto(vm::GuestMemory& memory) const {
  VEC_CHECK_MSG(memory.PageCount() == PageCount(),
                "checkpoint does not match memory geometry");
  auto damaged = damage_.begin();
  for (vm::PageId page = 0; page < PageCount(); ++page) {
    const bool hit = damaged != damage_.end() && damaged->first == page;
    memory.WritePage(page, hit ? (damaged++)->second : seeds_[page]);
  }
}

void Checkpoint::SaveFile(const std::string& path) const {
  std::vector<std::uint64_t> stored = seeds_;
  for (const auto& [page, seed] : damage_) stored[page] = seed;
  const Digest128 digest = ImageMd5(seeds_, generations_);
  std::ofstream out(path, std::ios::binary);
  VEC_CHECK_MSG(out.is_open(), "cannot write checkpoint: " + path);
  out.write(kMagic, sizeof(kMagic));
  const std::uint64_t count = PageCount();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(stored.data()),
            static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
  out.write(reinterpret_cast<const char*>(generations_.data()),
            static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
  out.write(reinterpret_cast<const char*>(digest.words.data()),
            sizeof(digest.words));
  VEC_CHECK_MSG(out.good(), "checkpoint write failed: " + path);
}

Checkpoint Checkpoint::LoadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  VEC_CHECK_MSG(in.is_open(), "cannot read checkpoint: " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  VEC_CHECK_MSG(in.good() && std::memcmp(magic, kMagic, 8) == 0,
                "not a checkpoint file: " + path);
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  VEC_CHECK_MSG(in.good(), "truncated checkpoint: " + path);
  // A corrupt header must not size the vectors: the file holds 16 bytes
  // per page, so a larger count is rejected before anything is allocated
  // (dividing the size cannot wrap the way multiplying the count can).
  std::error_code error;
  const std::uintmax_t file_bytes = std::filesystem::file_size(path, error);
  VEC_CHECK_MSG(!error && count <= file_bytes / (2 * sizeof(std::uint64_t)),
                "truncated checkpoint: " + path);
  Checkpoint cp;
  cp.seeds_.resize(count);
  cp.generations_.resize(count);
  in.read(reinterpret_cast<char*>(cp.seeds_.data()),
          static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
  in.read(reinterpret_cast<char*>(cp.generations_.data()),
          static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
  Digest128 digest;
  in.read(reinterpret_cast<char*>(digest.words.data()), sizeof(digest.words));
  VEC_CHECK_MSG(in.good(), "truncated checkpoint: " + path);
  VEC_CHECK_MSG(ImageMd5(cp.seeds_, cp.generations_) == digest,
                "checkpoint failed integrity verification: " + path);
  return cp;
}

}  // namespace vecycle::storage
