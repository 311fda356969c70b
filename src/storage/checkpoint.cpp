#include "storage/checkpoint.hpp"

#include <cstring>
#include <fstream>

#include "common/check.hpp"
#include "digest/md5.hpp"

namespace vecycle::storage {

Checkpoint Checkpoint::CaptureFrom(const vm::GuestMemory& memory) {
  Checkpoint cp;
  cp.seeds_.reserve(memory.PageCount());
  for (vm::PageId page = 0; page < memory.PageCount(); ++page) {
    cp.seeds_.push_back(memory.Seed(page));
  }
  cp.generations_ = memory.Generations();
  cp.captured_digest_ = cp.ImageDigest();
  return cp;
}

Digest128 Checkpoint::ImageDigest() const {
  if (image_digest_cached_) return image_digest_cache_;
  Md5 md5;
  md5.Update(seeds_.data(), seeds_.size() * sizeof(std::uint64_t));
  md5.Update(generations_.data(),
             generations_.size() * sizeof(std::uint64_t));
  image_digest_cache_ = md5.Finalize();
  image_digest_cached_ = true;
  return image_digest_cache_;
}

void Checkpoint::CorruptPageForTesting(vm::PageId page,
                                       std::uint64_t bad_seed) {
  VEC_CHECK_MSG(page < seeds_.size(), "corruption target out of range");
  seeds_[page] = bad_seed;  // deliberately leaves captured_digest_ stale
  // The corrupted content must be re-hashed like a real disk error would
  // be: only captured_digest_ stays stale, not the computed digest.
  image_digest_cached_ = false;
}

std::uint64_t Checkpoint::SeedAt(vm::PageId page) const {
  VEC_CHECK_MSG(page < seeds_.size(), "checkpoint page out of range");
  return seeds_[page];
}

std::uint64_t Checkpoint::GenerationAt(vm::PageId page) const {
  VEC_CHECK_MSG(page < generations_.size(), "checkpoint page out of range");
  return generations_[page];
}

Digest128 Checkpoint::DigestAt(vm::PageId page, vm::ContentMode mode,
                               DigestAlgorithm algorithm) const {
  return vm::ContentDigest(mode, algorithm, SeedAt(page));
}

void Checkpoint::RestoreInto(vm::GuestMemory& memory) const {
  VEC_CHECK_MSG(memory.PageCount() == PageCount(),
                "checkpoint does not match memory geometry");
  for (vm::PageId page = 0; page < PageCount(); ++page) {
    memory.WritePage(page, seeds_[page]);
  }
}

namespace {
constexpr char kMagic[8] = {'V', 'E', 'C', 'C', 'K', 'P', 'T', '1'};
}  // namespace

void Checkpoint::SaveFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  VEC_CHECK_MSG(out.is_open(), "cannot write checkpoint: " + path);
  out.write(kMagic, sizeof(kMagic));
  const std::uint64_t count = PageCount();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(seeds_.data()),
            static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
  out.write(reinterpret_cast<const char*>(generations_.data()),
            static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
  out.write(reinterpret_cast<const char*>(captured_digest_.words.data()),
            sizeof(captured_digest_.words));
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
  Checkpoint cp;
  cp.seeds_.resize(count);
  cp.generations_.resize(count);
  in.read(reinterpret_cast<char*>(cp.seeds_.data()),
          static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
  in.read(reinterpret_cast<char*>(cp.generations_.data()),
          static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
  in.read(reinterpret_cast<char*>(cp.captured_digest_.words.data()),
          sizeof(cp.captured_digest_.words));
  VEC_CHECK_MSG(in.good(), "truncated checkpoint: " + path);
  VEC_CHECK_MSG(cp.IntegrityOk(),
                "checkpoint failed integrity verification: " + path);
  return cp;
}

}  // namespace vecycle::storage
