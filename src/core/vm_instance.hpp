// A virtual machine: its id, guest memory, workload and current host.
//
// The VM carries no VeCycle metadata of its own. What it left at each
// previously visited host — the checkpoint whose checksums a return
// migration probes instead of the §3.2 bulk exchange, its departure-time
// generation counters and delta baseline — resolves through that host's
// CheckpointStore, the system of record (core::BuildMigrationRun).
#pragma once

#include <memory>
#include <string>

#include "core/host.hpp"
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

 private:
  std::string id_;
  std::unique_ptr<vm::GuestMemory> memory_;
  std::unique_ptr<vm::Workload> workload_;
  HostId current_host_;
};

}  // namespace vecycle::core
