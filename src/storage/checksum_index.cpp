#include "storage/checksum_index.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace vecycle::storage {

ChecksumIndex ChecksumIndex::Build(const Checkpoint& checkpoint,
                                   vm::ContentMode mode,
                                   DigestAlgorithm algorithm) {
  ChecksumIndex index;
  index.algorithm_ = algorithm;
  index.entries_.reserve(checkpoint.PageCount());
  for (vm::PageId page = 0; page < checkpoint.PageCount(); ++page) {
    index.entries_.emplace_back(checkpoint.DigestAt(page, mode, algorithm),
                                page);
  }
  std::sort(index.entries_.begin(), index.entries_.end());
  return index;
}

std::optional<vm::PageId> ChecksumIndex::Lookup(
    const Digest128& digest) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), digest,
      [](const auto& entry, const Digest128& d) { return entry.first < d; });
  if (it == entries_.end() || it->first != digest) return std::nullopt;
  return it->second;
}

std::uint64_t ChecksumIndex::DistinctDigests() const {
  std::uint64_t distinct = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i == 0 || entries_[i].first != entries_[i - 1].first) ++distinct;
  }
  return distinct;
}

std::vector<Digest128> ChecksumIndex::DistinctDigestList() const {
  std::vector<Digest128> digests;
  digests.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i == 0 || entries_[i].first != entries_[i - 1].first) {
      digests.push_back(entries_[i].first);
    }
  }
  return digests;
}

Bytes ChecksumIndex::BulkExchangeSize() const {
  return Bytes{DistinctDigests() * WireSizeBytes(algorithm_)};
}

}  // namespace vecycle::storage
