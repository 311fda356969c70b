// Migration destination actor (§3.3, Listing 1).
//
// Before the migration the destination initializes guest RAM from the
// local checkpoint (sequential scan, with one checksum per 4 KiB block
// charged as CPU work). During the migration it consumes page batches:
// full pages are written to RAM; checksum-only records are verified
// against the locally initialized page and, on mismatch, satisfied by a
// random read from the checkpoint file at the offset the checkpoint's
// checksum index returns. The index (digest -> lowest page) is built the
// first time something asks for it, which on a warm leg where every
// record matches in place is never.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/units.hpp"
#include "digest/digest_map.hpp"
#include "migration/config.hpp"
#include "migration/stats.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "sim/checksum_engine.hpp"
#include "storage/checkpoint_store.hpp"
#include "vm/guest_memory.hpp"

namespace vecycle::migration {

class DestinationActor {
 public:
  struct Params {
    sim::Simulator* simulator = nullptr;
    net::Channel* reply = nullptr;  ///< destination -> source channel
    sim::ChecksumEngine* cpu = nullptr;
    storage::CheckpointStore* store = nullptr;  ///< nullable
    storage::VmId vm_id;
    MigrationConfig config;
    std::uint64_t page_count = 0;
    vm::ContentMode mode = vm::ContentMode::kSeedOnly;
    /// Session this actor belongs to; every delivered message must carry
    /// the same tag (cross-session routing check on shared links).
    std::uint64_t session_id = 0;
    /// Forward channels the source stripes over (multifd). Round-end and
    /// done markers arrive once per channel; the destination acts only
    /// after all of them have landed (QEMU's MULTIFD_FLUSH semantics).
    std::uint32_t forward_channels = 1;
    /// Fresh guest RAM of `page_count` pages in `mode` to reconstruct
    /// into (MigrationRun::dest_memory); null allocates it here.
    std::unique_ptr<vm::GuestMemory> memory;
  };

  explicit DestinationActor(Params params);

  /// Pre-migration setup. If the strategy uses a checkpoint and one exists
  /// locally, books the sequential image scan (and, for content-hash
  /// strategies, the per-block checksum computation) and restores the
  /// image into guest RAM. When `send_bulk_hashes`, ships the distinct
  /// digest set to the source at setup completion (§3.2's non-ping-pong
  /// path). Returns the setup completion time.
  SimTime Prepare(SimTime start, bool send_bulk_hashes);

  /// Channel receiver: dispatch on message type. Rvalue to match the
  /// channel's zero-copy delivery; batches are applied in place.
  void OnMessage(net::Message&& message, SimTime arrival);

  /// Invoked once, when the final round has been fully applied and the VM
  /// runs at the destination.
  std::function<void(SimTime)> on_complete;

  [[nodiscard]] vm::GuestMemory& Memory() { return *memory_; }

  /// The restored checkpoint's checksum index (Checkpoint::Index), built
  /// on first use: by the bulk exchange, by the per-page query oracle
  /// (HashExchangeMode::kPerPageQuery), or by a checksum-only record that
  /// misses in place. Empty when no checkpoint was restored.
  [[nodiscard]] const DigestMap& Index();
  [[nodiscard]] std::unique_ptr<vm::GuestMemory> TakeMemory() {
    return std::move(memory_);
  }
  [[nodiscard]] bool RestoredFromCheckpoint() const {
    return restored_from_checkpoint_;
  }
  [[nodiscard]] SimDuration SetupTime() const { return setup_time_; }

  // Statistics merged into MigrationStats by the engine.
  [[nodiscard]] std::uint64_t PagesMatchedInPlace() const {
    return pages_matched_in_place_;
  }
  [[nodiscard]] std::uint64_t PagesFromCheckpoint() const {
    return pages_from_checkpoint_;
  }
  /// Pages this actor could not satisfy locally and requested back in
  /// full: checksum-only records (damaged checkpoint or failed block
  /// read) plus delta records whose baseline did not match.
  [[nodiscard]] std::uint64_t PagesFallback() const {
    return fallback_requested_ + delta_fallback_requested_;
  }
  /// The checksum-only share of PagesFallback() — the term of the
  /// checksum-record conservation equation.
  [[nodiscard]] std::uint64_t PagesChecksumFallback() const {
    return fallback_requested_;
  }
  /// The delta share of PagesFallback(): delta records rejected because
  /// local content did not equal the encoded baseline (checkpoint rot).
  [[nodiscard]] std::uint64_t PagesDeltaFallback() const {
    return delta_fallback_requested_;
  }
  /// Injected disk-error windows hit by this migration's reads (setup
  /// scan retries + failed random block reads).
  [[nodiscard]] std::uint64_t DiskReadErrors() const {
    return disk_read_errors_;
  }
  [[nodiscard]] Bytes HashedBytes() const { return hashed_bytes_; }

 private:
  void ApplyBatch(const net::Message& message, SimTime arrival);
  void ApplyRecord(const net::PageRecord& record, SimTime arrival);
  /// Queues `page` for a kResendRequest (flushed at batch end);
  /// `from_delta` separates the delta-baseline rejections from the
  /// checksum-record fallbacks in the conservation accounting.
  void RequestResend(vm::PageId page, bool from_delta = false);
  /// Resumes the VM: send the done-ack and fire on_complete.
  void Complete(SimTime at);

  Params params_;
  std::unique_ptr<vm::GuestMemory> memory_;
  /// Held for the whole session: another session's Save may evict the
  /// store's entry while this destination still reads the image.
  std::shared_ptr<const storage::Checkpoint> checkpoint_;
  std::optional<DigestMap> index_;
  bool restored_from_checkpoint_ = false;
  SimDuration setup_time_ = SimDuration::zero();

  /// Completion time of the latest booked CPU/disk work; round acks and
  /// the final done-ack wait for it.
  SimTime work_done_ = kSimEpoch;

  std::uint64_t pages_matched_in_place_ = 0;
  std::uint64_t pages_from_checkpoint_ = 0;
  std::uint64_t fallback_requested_ = 0;
  std::uint64_t delta_fallback_requested_ = 0;
  std::uint64_t disk_read_errors_ = 0;
  Bytes hashed_bytes_;
  bool completed_ = false;

  /// Multifd round synchronization: markers seen for the round (or done
  /// phase) in progress, and the latest marker arrival.
  std::uint32_t round_end_seen_ = 0;
  std::uint32_t done_seen_ = 0;
  SimTime round_end_latest_ = kSimEpoch;

  /// Per-page graceful degradation: pages whose checksum-only record
  /// could not be satisfied, batched into one kResendRequest per applied
  /// batch; the migration cannot complete while any are outstanding.
  std::vector<vm::PageId> resend_pending_;
  std::uint64_t outstanding_resends_ = 0;
  bool done_pending_ = false;
  SimTime done_arrival_ = kSimEpoch;
};

}  // namespace vecycle::migration
