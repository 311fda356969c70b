// Migration source actor (§3.1/§3.2).
//
// Runs the multi-round pre-copy loop. Round 1 applies the configured
// traffic-reduction strategy; later rounds re-send pages dirtied while the
// previous round was in flight (with sender-side dedup still active for
// the *Dedup strategies); the final stop-and-copy round pauses the VM.
// The guest workload keeps running between rounds, which is what produces
// the dirty sets — exactly the dynamics of a live migration.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "digest/digest_map.hpp"
#include "migration/config.hpp"
#include "migration/stats.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "obs/trace.hpp"
#include "sim/checksum_engine.hpp"
#include "vm/dirty_tracker.hpp"
#include "vm/guest_memory.hpp"
#include "vm/workload.hpp"

namespace vecycle::migration {

class SourceActor {
 public:
  struct Params {
    sim::Simulator* simulator = nullptr;
    /// Forward (source -> destination) channels. One entry is the classic
    /// single-stream engine; several entries are multifd streams, and page
    /// records stripe across them by page index (page % channels.size()).
    std::vector<net::Channel*> channels;
    sim::ChecksumEngine* cpu = nullptr;
    vm::GuestMemory* memory = nullptr;  ///< the live VM
    vm::Workload* workload = nullptr;   ///< nullable: frozen guest
    MigrationConfig config;
    /// Digests of pages known to exist at the destination; only
    /// membership is consulted. For ping-pong migrations the caller names
    /// the pages of the checkpoint the destination's store holds for this
    /// VM (core::BuildMigrationRun); otherwise the bulk exchange replaces
    /// it on arrival. Null means nothing is known.
    std::shared_ptr<const DigestMap> dest_digests;
    /// Per-page generation counters at the moment the VM last left the
    /// destination host (Miyakodori state); empty disables dirty skips.
    std::vector<std::uint64_t> departure_generations;

    /// Per-page content seeds at the moment the VM last left the
    /// destination host — what the destination's recycled checkpoint
    /// holds, and hence the round-1 baseline for XBZRLE-style delta
    /// encoding (DeltaConfig). Empty disables round-1 deltas; later
    /// rounds still delta against content this migration already sent.
    /// The engine clears this unless the destination actually restored a
    /// geometry-matching checkpoint (rot is fine: a rotten page fails the
    /// destination's baseline check and degrades per page).
    std::vector<std::uint64_t> departure_seeds;

    /// Per-page query oracle (HashExchangeMode::kPerPageQuery): answers
    /// whether the destination's checkpoint holds `digest`, and the wire
    /// round-trip is booked by QueryTransport below. Null in bulk mode.
    std::function<bool(const Digest128&)> query_oracle;
    /// Books one query round trip on the link starting no earlier than
    /// `earliest`; returns the time the response reaches the source.
    std::function<SimTime(SimTime earliest)> query_transport;

    /// Shared sender-side dedup cache for gang migrations (VMFlock [4] /
    /// CloudNet cluster dedup): concurrent migrations from this host to
    /// the same destination share one content cache, so a page one VM
    /// already shipped travels as a reference from every other VM too.
    /// Null gives each migration a private cache.
    std::unordered_map<std::uint64_t, std::uint64_t>* shared_dedup_cache =
        nullptr;

    /// Trace recorder for per-round spans and the dirty-page counter;
    /// null when tracing is off (the engine resolves enablement).
    obs::TraceRecorder* tracer = nullptr;
    obs::TrackId trace_track = 0;

    /// Session this actor belongs to; every delivered message must carry
    /// the same tag (cross-session routing check on shared links).
    std::uint64_t session_id = 0;

    /// Lifetime token shared with the session: closures this actor
    /// schedules on the simulator fire only while the token is alive and
    /// true, so events queued for an aborted or destroyed session become
    /// no-ops instead of calls into freed state. Null leaves scheduling
    /// unguarded (standalone/test use).
    std::shared_ptr<const bool> lifetime;
  };

  explicit SourceActor(Params params);

  /// Begins round 1 at `start` (>= destination readiness).
  void Start(SimTime start);

  /// Channel receiver for the reverse direction. Rvalue to match the
  /// channel's zero-copy delivery.
  void OnMessage(net::Message&& message, SimTime arrival);

  /// Invoked when the source has received the final done-ack.
  std::function<void(SimTime)> on_finished;
  /// Invoked once when round 1 begins (pre-copy phase entered) — on the
  /// bulk-exchange path this is the arrival of the destination's hashes.
  std::function<void(SimTime)> on_started;
  /// Invoked once when the VM pauses for the stop-and-copy round.
  std::function<void(SimTime)> on_pause;

  [[nodiscard]] const MigrationStats& Stats() const { return stats_; }
  [[nodiscard]] MigrationStats& MutableStats() { return stats_; }
  [[nodiscard]] SimTime RoundOneStart() const { return round1_start_; }
  [[nodiscard]] SimTime PauseTime() const { return pause_time_; }
  [[nodiscard]] bool Started() const { return started_; }

 private:
  /// Wraps a closure with the lifetime-token guard before it goes on the
  /// simulator's event heap.
  template <typename F>
  [[nodiscard]] auto Guarded(F f) const {
    return [guard = std::weak_ptr<const bool>(params_.lifetime),
            guarded = params_.lifetime != nullptr, f = std::move(f)] {
      if (guarded) {
        const auto alive = guard.lock();
        if (alive == nullptr || !*alive) return;
      }
      f();
    };
  }

  /// Answers a kResendRequest: full-content records for every page whose
  /// checksum-only record the destination could not satisfy locally.
  void ServeResend(const std::vector<vm::PageId>& pages, SimTime arrival);

  /// Initializes a round's iteration state and schedules the first batch
  /// pump. For round 1, `pages` is empty (the cursor walks all of RAM);
  /// later rounds carry the dirty list.
  void BeginRound(SimTime start, std::vector<vm::PageId> pages,
                  bool final_round);
  /// Builds and sends one batch, then reschedules itself at the batch's
  /// wire-serialization end — which is what lets two concurrent
  /// migrations interleave fairly on a shared link instead of one
  /// monopolizing the FIFO for its whole round.
  void PumpBatches();
  void FinishRound();
  void OnRoundAck(SimTime arrival);

  /// Classifies one round-1 page into a wire record, charging checksum
  /// work into `hash_bytes` (booked per batch). Returns false when the
  /// page is skipped entirely (dirty-tracking clean page).
  bool ClassifyFirstRoundPage(vm::PageId page, net::PageRecord& record,
                              std::uint64_t& hash_bytes);

  /// Builds a full-content record for later rounds, consulting the dedup
  /// cache when the strategy dedups.
  net::PageRecord FullRecord(vm::PageId page);

  /// Applies wire compression to a full-payload record when configured:
  /// sets the payload's wire size and accrues the compression CPU cost.
  void MaybeCompress(net::PageRecord& record);

  /// Attempts to turn `record` (page + content_seed already set) into an
  /// XBZRLE-style delta against the content the destination is believed
  /// to hold. Returns false — leaving the record untouched — when delta
  /// encoding is off, the baseline is unknown (or the zero page), or the
  /// encoded size would exceed DeltaConfig::max_ratio.
  bool TryDelta(net::PageRecord& record);

  /// Records that, once everything queued so far lands, the destination
  /// holds `seed` for `page` — the source-side view delta encoding works
  /// from. No-op unless delta encoding is enabled.
  void NoteDestContent(vm::PageId page, std::uint64_t seed);

  /// Sends the accumulated records; returns the last arrival time at the
  /// destination (kSimEpoch when there was nothing to send). With several
  /// channels the records stripe by page index (page % channel count).
  SimTime FlushBatch(std::vector<net::PageRecord>& records,
                     std::uint64_t hash_bytes, std::uint32_t round);

  /// Sum of payload bytes booked across every forward channel.
  [[nodiscard]] Bytes TotalPayloadSent() const;

  [[nodiscard]] bool DestHas(const Digest128& digest) const;

  /// The dedup cache in effect: the gang-shared one when configured,
  /// else this migration's private cache.
  [[nodiscard]] std::unordered_map<std::uint64_t, std::uint64_t>&
  DedupCache() {
    return params_.shared_dedup_cache != nullptr
               ? *params_.shared_dedup_cache
               : dedup_cache_;
  }

  Params params_;
  MigrationStats stats_;
  /// Sender-side dedup cache: chunk content key (single-page chunk
  /// digest, storage::ChunkContentKey) -> cache slot of the first
  /// transmission this migration.
  std::unordered_map<std::uint64_t, std::uint64_t> dedup_cache_;

  /// Dedup probe work accumulated since the last batch flush, charged at
  /// the FNV rate.
  std::uint64_t fnv_bytes_pending_ = 0;

  /// Completion times of in-flight per-page queries (kPerPageQuery);
  /// bounded by config.query_window.
  std::deque<SimTime> query_pipeline_;
  /// Latest query answer the next data batch must wait for.
  SimTime query_ready_pending_ = kSimEpoch;

  /// Original bytes awaiting the compression CPU charge at the next flush.
  std::uint64_t compress_bytes_pending_ = 0;

  /// Original bytes awaiting the delta-encode CPU charge at the next flush.
  std::uint64_t delta_bytes_pending_ = 0;

  /// Delta-encoding view of the destination: the content seed the
  /// destination holds per page once in-flight sends land. Pre-seeded
  /// from departure_seeds (the recycled checkpoint), updated on every
  /// record that establishes content. A page with no known content reads
  /// as the zero page, which TryDelta never encodes against. Empty when
  /// delta encoding is off.
  std::vector<std::uint64_t> dest_view_;

  // Auto-converge state (AutoConvergeConfig).
  Bytes round_tx_mark_;               ///< TotalPayloadSent() at round start
  std::uint32_t diverge_streak_ = 0;  ///< consecutive diverging rounds
  double throttle_ = 0.0;             ///< current guest throttle fraction

  // Round iteration state, consumed batch-by-batch by PumpBatches().
  std::vector<vm::PageId> round_pages_;  ///< empty in round 1 (walk RAM)
  std::uint64_t cursor_ = 0;
  bool round_is_final_ = false;

  vm::DirtySnapshot round_snapshot_;
  /// Trace state: the currently open per-round span, if any.
  obs::SpanId round_span_ = 0;
  bool round_span_open_ = false;
  SimTime round_start_ = kSimEpoch;
  SimTime round1_start_ = kSimEpoch;
  SimTime last_send_ = kSimEpoch;
  SimTime pause_time_ = kSimEpoch;
  std::uint32_t round_ = 0;
  bool started_ = false;
  bool final_sent_ = false;
};

}  // namespace vecycle::migration
