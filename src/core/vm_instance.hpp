// A virtual machine plus the VeCycle metadata that travels with it.
//
// Beyond guest memory and its workload, the VM carries what its hypervisor
// learned at each previously visited host: the checksum set of the
// checkpoint it left behind (§3.2's incoming-page tracking, consumed on a
// return migration to skip the bulk hash exchange). Departure-time
// generation counters and delta baselines are *not* carried on the VM —
// they resolve through the destination host's CheckpointStore, the system
// of record for what the VM actually left there.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/host.hpp"
#include "digest/digest.hpp"
#include "digest/digest_set.hpp"
#include "vm/guest_memory.hpp"
#include "vm/workload.hpp"

namespace vecycle::core {

class VmInstance {
 public:
  VmInstance(std::string id, Bytes ram, vm::ContentMode mode)
      : id_(std::move(id)),
        memory_(std::make_unique<vm::GuestMemory>(ram, mode)) {}

  [[nodiscard]] const std::string& Id() const { return id_; }
  [[nodiscard]] vm::GuestMemory& Memory() { return *memory_; }
  [[nodiscard]] const vm::GuestMemory& Memory() const { return *memory_; }

  void SetWorkload(std::unique_ptr<vm::Workload> workload) {
    workload_ = std::move(workload);
  }
  [[nodiscard]] vm::Workload* Workload() { return workload_.get(); }

  [[nodiscard]] const HostId& CurrentHost() const { return current_host_; }
  void SetCurrentHost(HostId host) { current_host_ = std::move(host); }

  /// Replaces the VM's memory with the state reconstructed at a migration
  /// destination.
  void AdoptMemory(std::unique_ptr<vm::GuestMemory> memory) {
    memory_ = std::move(memory);
  }

  /// Digest set of the checkpoint left behind at `host`; null if never
  /// visited. The set is built once in RememberPagesAt, so every later
  /// migration toward `host` probes it without re-sorting or re-hashing
  /// anything.
  [[nodiscard]] std::shared_ptr<const DigestSet> KnownPageSetAt(
      const HostId& host) const {
    const auto it = known_pages_.find(host);
    return it == known_pages_.end() ? nullptr : it->second;
  }
  void RememberPagesAt(const HostId& host, std::vector<Digest128> digests) {
    known_pages_[host] =
        std::make_shared<const DigestSet>(std::move(digests));
  }

  [[nodiscard]] std::size_t VisitedHostCount() const {
    return known_pages_.size();
  }

 private:
  std::string id_;
  std::unique_ptr<vm::GuestMemory> memory_;
  std::unique_ptr<vm::Workload> workload_;
  HostId current_host_;
  /// Keyed by sorted HostId, not hashed: a VM visits a handful of hosts
  /// (the paper's whole premise), so ordered lookups cost nothing, and
  /// any future iteration (fleet placement policies walking a VM's
  /// checkpoint affinity) is deterministic by construction.
  std::map<HostId, std::shared_ptr<const DigestSet>> known_pages_;
};

}  // namespace vecycle::core
