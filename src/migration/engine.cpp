#include "migration/engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.hpp"
#include "migration/destination.hpp"
#include "migration/observe.hpp"
#include "migration/source.hpp"
#include "net/channel.hpp"
#include "storage/checkpoint.hpp"

namespace vecycle::migration {

const char* ToString(SessionPhase phase) {
  switch (phase) {
    case SessionPhase::kHashExchange:
      return "hash-exchange";
    case SessionPhase::kPreCopy:
      return "pre-copy";
    case SessionPhase::kStopAndCopy:
      return "stop-and-copy";
    case SessionPhase::kCheckpointWriteBack:
      return "checkpoint-write-back";
    case SessionPhase::kDone:
      return "done";
    case SessionPhase::kFailed:
      return "failed";
  }
  VEC_CHECK_MSG(false, "unknown SessionPhase");
}

void CompressionConfig::Validate() const {
  VEC_CHECK_MSG(mean_ratio > 0.0 && mean_ratio <= 1.0,
                "compression mean_ratio must be in (0, 1]");
  VEC_CHECK_MSG(ratio_jitter >= 0.0 && ratio_jitter <= 1.0,
                "compression ratio_jitter must be in [0, 1]");
  VEC_CHECK_MSG(compress_rate.bytes_per_second > 0.0,
                "compression compress_rate must be positive");
  VEC_CHECK_MSG(decompress_rate.bytes_per_second > 0.0,
                "compression decompress_rate must be positive");
}

void MultifdConfig::Validate() const {
  // enabled is a boolean toggle.
  VEC_CHECK_MSG(channels >= 1 && channels <= kMaxChannels,
                "multifd channels must be in [1, 16]");
}

void DeltaConfig::Validate() const {
  // enabled is a boolean toggle.
  VEC_CHECK_MSG(mean_ratio > 0.0 && mean_ratio <= 1.0,
                "delta mean_ratio must be in (0, 1]");
  VEC_CHECK_MSG(ratio_jitter >= 0.0 && ratio_jitter <= 1.0,
                "delta ratio_jitter must be in [0, 1]");
  VEC_CHECK_MSG(max_ratio > 0.0 && max_ratio <= 1.0,
                "delta max_ratio must be in (0, 1]");
  VEC_CHECK_MSG(encode_rate.bytes_per_second > 0.0,
                "delta encode_rate must be positive");
  VEC_CHECK_MSG(decode_rate.bytes_per_second > 0.0,
                "delta decode_rate must be positive");
}

void AutoConvergeConfig::Validate() const {
  // enabled is a boolean toggle.
  VEC_CHECK_MSG(initial_throttle >= 0.0 && initial_throttle < 1.0,
                "auto-converge initial_throttle must be in [0, 1)");
  VEC_CHECK_MSG(throttle_increment > 0.0 && throttle_increment < 1.0,
                "auto-converge throttle_increment must be in (0, 1)");
  VEC_CHECK_MSG(max_throttle > 0.0 && max_throttle < 1.0,
                "auto-converge max_throttle must be in (0, 1)");
  VEC_CHECK_MSG(max_throttle >= initial_throttle,
                "auto-converge max_throttle must be >= initial_throttle");
  VEC_CHECK_MSG(divergence_ratio > 0.0 &&
                    std::isfinite(divergence_ratio),
                "auto-converge divergence_ratio must be positive and "
                "finite");
  VEC_CHECK_MSG(trigger_rounds >= 1,
                "auto-converge trigger_rounds must be positive");
}

void MigrationConfig::Validate() const {
  // strategy, algorithm and hash_exchange are closed enums whose every
  // value is legal; audit and trace are boolean toggles.
  // stop_copy_threshold_pages accepts every value: 0 simply defers the
  // stop-and-copy decision to max_rounds.
  VEC_CHECK_MSG(batch_pages > 0, "batch_pages must be positive");
  VEC_CHECK_MSG(max_rounds >= 2, "need at least one copy + one stop round");
  VEC_CHECK_MSG(query_window > 0, "query_window must be positive");
  compression.Validate();
  multifd.Validate();
  delta.Validate();
  auto_converge.Validate();
  faults.Validate();
}

/// All the wiring of one migration: channels, the two actors, and the
/// completion latch. Kept behind a pimpl so MigrationSession's header
/// stays light.
struct MigrationSession::Impl {
  /// Audit channel-id scheme (see MigrationRun::session_id): the compact
  /// 2*id / 2*id+1 pair when multifd is inactive — unchanged from the
  /// pre-multifd engine — and a block of 2*kMaxChannels ids per session
  /// when several forward streams need distinct per-channel accounts.
  static std::uint32_t ForwardChannelBase(const MigrationRun& run) {
    if (run.config.multifd.ActiveChannels() > 1) {
      return static_cast<std::uint32_t>(run.session_id * 2 *
                                        MultifdConfig::kMaxChannels);
    }
    return static_cast<std::uint32_t>(2 * run.session_id);
  }
  static std::uint32_t BackwardChannelIdFor(const MigrationRun& run) {
    if (run.config.multifd.ActiveChannels() > 1) {
      return ForwardChannelBase(run) + 2 * MultifdConfig::kMaxChannels - 1;
    }
    return static_cast<std::uint32_t>(2 * run.session_id) + 1;
  }

  explicit Impl(MigrationRun run_in)
      : run(std::move(run_in)),
        forward_channel_id(ForwardChannelBase(run)),
        backward_channel_id(BackwardChannelIdFor(run)) {
    VEC_CHECK(run.simulator != nullptr);
    VEC_CHECK(run.link != nullptr);
    VEC_CHECK(run.source_memory != nullptr);
    VEC_CHECK(run.source.cpu != nullptr);
    VEC_CHECK(run.destination.cpu != nullptr);
    run.config.Validate();

    auto& simulator = *run.simulator;
    // Cross-shard wiring: the destination actor and the backward channel
    // live on the destination shard's simulator, so their events execute
    // on that shard's worker. Everything below that touches "the other
    // side" is either routed through a delivery executor or checked off.
    sim::Simulator& dest_sim =
        run.dest_simulator != nullptr ? *run.dest_simulator : simulator;
    const bool cross_shard = &dest_sim != &simulator;
    if (cross_shard) {
      VEC_CHECK_MSG(run.forward_delivery != nullptr &&
                        run.backward_delivery != nullptr,
                    "cross-shard session needs both delivery routes");
    }
    const SimTime t0 = std::max(simulator.Now(), run.start_at);
    start_time = t0;
    const sim::Direction reverse = run.direction == sim::Direction::kAtoB
                                       ? sim::Direction::kBtoA
                                       : sim::Direction::kAtoB;
    const std::uint32_t nchan = run.config.multifd.ActiveChannels();
    forwards.reserve(nchan);
    for (std::uint32_t k = 0; k < nchan; ++k) {
      auto channel = std::make_unique<net::Channel>(
          simulator, *run.link, run.direction, run.config.algorithm);
      channel->SetDeliveryExecutor(run.forward_delivery);
      channel->SetSessionTag(run.session_id);
      // Each multifd stream is its own TCP connection: serialization at
      // the link's line rate, injection paced by the per-stream window.
      // Single-channel sessions keep the classic Transmit path,
      // byte-identical to the pre-multifd engine.
      if (nchan > 1) channel->SetWindowPaced(true);
      forwards.push_back(std::move(channel));
    }
    backward = std::make_unique<net::Channel>(dest_sim, *run.link, reverse,
                                              run.config.algorithm);
    backward->SetDeliveryExecutor(run.backward_delivery);
    backward->SetSessionTag(run.session_id);

    // Lifetime token: every closure the session's channels and source
    // actor put on the shared event heap is guarded by it. Teardown (or
    // a fault abort) zeroes the token, so events already queued for this
    // session fire as no-ops instead of calling into freed actors — the
    // simulator may safely outlive any of its sessions.
    alive = std::make_shared<bool>(true);
    for (auto& channel : forwards) {
      channel->SetLifetime(alive);
      channel->SetFaultHandler([this](SimTime t) { OnFault(t); });
    }
    backward->SetLifetime(alive);
    backward->SetFaultHandler([this](SimTime t) { OnFault(t); });

    // Instruments: one precedence rule, resolved once (instruments.hpp).
    instruments = ResolveInstruments(run.instruments, run.config.audit,
                                     run.config.trace, &run.config.faults);
    if (instruments.auditor != nullptr) {
      dest_side_auditor = run.dest_auditor != nullptr ? run.dest_auditor
                                                      : instruments.auditor;
    }
    // A fault abort zeroes the lifetime token from whichever shard notices
    // the cut; with endpoints on two workers that write would race every
    // in-flight guard check. Faults stay supported within a shard.
    VEC_CHECK_MSG(!cross_shard || instruments.injector == nullptr,
                  "fault injection is not supported for cross-shard "
                  "sessions");
    if (cross_shard && instruments.auditor != nullptr) {
      // Each worker must report into its own shard's auditor; one sink
      // fed from two threads would race (and scramble the fingerprint).
      VEC_CHECK_MSG(run.instruments.auditor != nullptr &&
                        run.dest_auditor != nullptr &&
                        run.instruments.auditor != run.dest_auditor,
                    "cross-shard session needs distinct per-shard "
                    "auditors");
    }
    // Cross-shard sessions cannot be traced: the session's recorder would
    // be written by both endpoints' workers.
    VEC_CHECK_MSG(!cross_shard || instruments.tracer == nullptr,
                  "per-session tracing is not supported for cross-shard "
                  "sessions");

    // Shared resources are claimed only where the slot is free (first
    // session wins); the channels and the source actor are session-owned.
    claims.Injector(*run.link, instruments.injector);
    for (auto* store : {run.source.store, run.destination.store}) {
      if (store == nullptr) continue;
      claims.Injector(*store, instruments.injector);
      claims.Injector(store->Disk(), instruments.injector);
    }
    if (instruments.auditor != nullptr) {
      for (std::uint32_t k = 0; k < nchan; ++k) {
        forwards[k]->SetAuditor(instruments.auditor, forward_channel_id + k);
      }
      backward->SetAuditor(dest_side_auditor, backward_channel_id);
    }
    claims.Auditor(simulator, instruments.auditor);
    if (cross_shard) claims.Auditor(dest_sim, dest_side_auditor);
    if (run.destination.store != nullptr) {
      claims.Auditor(*run.destination.store, dest_side_auditor);
    }
    if (instruments.tracer != nullptr) {
      obs::TraceRecorder& tracer = *instruments.tracer;
      label = run.vm_id;
      label += "/";
      label += ToString(run.config.strategy);
      if (run.session_id != 0) {
        label += "#";
        label += std::to_string(run.session_id);
      }
      const auto process = tracer.NewProcess(label);
      session_track = tracer.Track(process, "session");
      trace_source_track = tracer.Track(process, "source rounds");
      if (nchan == 1) {
        forwards[0]->SetTracer(&tracer, tracer.Track(process, "link to dest"));
      } else {
        // Per-channel byte timelines: each stream gets its own track and
        // a "ch<k>" label so the counters stay separate series instead of
        // aggregating into one misleading wire_bytes line.
        for (std::uint32_t k = 0; k < nchan; ++k) {
          const std::string ch = "ch" + std::to_string(k);
          forwards[k]->SetTracer(
              &tracer, tracer.Track(process, "link to dest " + ch), ch);
        }
      }
      backward->SetTracer(&tracer, tracer.Track(process, "link to source"));
      claims.Tracer(*run.source.cpu, &tracer, process, "cpu source");
      claims.Tracer(*run.destination.cpu, &tracer, process, "cpu dest");
      if (run.destination.store != nullptr) {
        claims.Tracer(*run.destination.store, &tracer, process, "store");
      }
      claims.Tracer(simulator, &tracer, process, "event loop");
    }

    DestinationActor::Params dest_params;
    dest_params.simulator = &dest_sim;
    dest_params.reply = backward.get();
    dest_params.cpu = run.destination.cpu;
    dest_params.store = run.destination.store;
    dest_params.vm_id = run.vm_id;
    dest_params.config = run.config;
    dest_params.page_count = run.source_memory->PageCount();
    dest_params.mode = run.source_memory->Mode();
    dest_params.session_id = run.session_id;
    dest_params.forward_channels = nchan;
    dest_params.memory = std::move(run.dest_memory);
    destination = std::make_unique<DestinationActor>(std::move(dest_params));

    const bool source_has_knowledge =
        run.source_knowledge != nullptr && !run.source_knowledge->Empty();
    const bool dest_has_checkpoint =
        UsesCheckpoint(run.config.strategy) &&
        run.destination.store != nullptr &&
        run.destination.store->Has(run.vm_id) &&
        run.destination.store->Peek(run.vm_id)->PageCount() ==
            run.source_memory->PageCount();
    // A geometry-matching checkpoint that fails its integrity check is
    // still usable for content-hash strategies — damaged pages degrade
    // per page to a resend over the wire — but never for dirty-tracking
    // skips, which restore skipped pages from it verbatim and would pin
    // rotten content into the reconstructed memory.
    const bool checkpoint_pristine =
        dest_has_checkpoint &&
        run.destination.store->Peek(run.vm_id)->IntegrityOk();
    if (!checkpoint_pristine ||
        run.departure_generations.size() !=
            run.source_memory->PageCount()) {
      // Dirty-tracking skips are only sound when the destination can
      // restore the skipped pages from a matching pristine checkpoint;
      // first visits, resized VMs and rotten images degrade to full.
      run.departure_generations.clear();
    }
    if (!dest_has_checkpoint) {
      // Checksum-only records can only be satisfied from a checkpoint;
      // any knowledge the caller supplied about this destination is
      // stale (e.g. the checkpoint was evicted or the VM was resized).
      run.source_knowledge.reset();
    }
    if (!dest_has_checkpoint || !run.config.delta.enabled ||
        run.departure_seeds.size() != run.source_memory->PageCount()) {
      // Round-1 delta baselines exist only when the destination restores
      // this VM's checkpoint into guest RAM (rot is fine — the
      // destination verifies each baseline before patching); cold
      // destinations and resized VMs degrade to full sends.
      run.departure_seeds.clear();
    }

    // Hash-exchange planning (§3.2): needed only when the source lacks
    // knowledge of the destination's page set and the strategy consumes
    // it; the config then picks the bulk transfer or per-page queries.
    const bool wants_exchange = UsesContentHashes(run.config.strategy) &&
                                dest_has_checkpoint &&
                                !source_has_knowledge;
    const bool use_query =
        wants_exchange &&
        run.config.hash_exchange == HashExchangeMode::kPerPageQuery;
    // The query oracle consults the destination's index synchronously from
    // the source's event — a zero-latency cross-shard read that would
    // break both the lookahead contract and thread safety.
    VEC_CHECK_MSG(!cross_shard || !use_query,
                  "per-page hash queries are not supported for "
                  "cross-shard sessions");
    const bool need_bulk = wants_exchange && !use_query;

    SourceActor::Params src_params;
    src_params.simulator = &simulator;
    src_params.channels.reserve(forwards.size());
    for (auto& channel : forwards) {
      src_params.channels.push_back(channel.get());
    }
    src_params.cpu = run.source.cpu;
    src_params.memory = run.source_memory;
    src_params.workload = run.workload;
    src_params.config = run.config;
    src_params.dest_digests = std::move(run.source_knowledge);
    src_params.departure_generations =
        std::move(run.departure_generations);
    src_params.departure_seeds = std::move(run.departure_seeds);
    src_params.shared_dedup_cache = run.shared_dedup_cache;
    src_params.session_id = run.session_id;
    src_params.tracer = instruments.tracer;
    src_params.trace_track = trace_source_track;
    src_params.lifetime = alive;

    if (use_query) {
      // §3.2's alternative scheme: the source asks the destination about
      // each page. The oracle consults the destination's checkpoint
      // index; the transport books the question/verdict frames.
      DestinationActor* dest_ptr = destination.get();
      src_params.query_oracle = [dest_ptr](const Digest128& digest) {
        return dest_ptr->Index().Contains(digest);
      };
      const std::uint64_t question_bytes =
          net::kRecordHeaderBytes + WireSizeBytes(run.config.algorithm);
      const std::uint64_t verdict_bytes = net::kRecordHeaderBytes + 1;
      src_params.query_transport = [link = run.link, dir = run.direction,
                                    reverse, question_bytes,
                                    verdict_bytes](SimTime earliest) {
        const SimTime asked =
            link->Transmit(dir, earliest, Bytes{question_bytes});
        return link->Transmit(reverse, asked, Bytes{verdict_bytes});
      };
    }
    source = std::make_unique<SourceActor>(std::move(src_params));

    for (auto& channel : forwards) {
      channel->SetReceiver([this](net::Message&& m, SimTime t) {
        destination->OnMessage(std::move(m), t);
      });
    }
    backward->SetReceiver([this](net::Message&& m, SimTime t) {
      source->OnMessage(std::move(m), t);
    });
    // State machine hooks: the actors report the milestones, the session
    // tracks the phase and decides when the whole migration is over. The
    // session is finished only when the destination runs the VM *and* the
    // source has seen the final done-ack — the done-ack arrival is the
    // last event of the migration, so a scheduler chaining sessions off
    // on_complete starts the next one at the same sim time the synchronous
    // facade would (serial equivalence).
    source->on_started = [this](SimTime) {
      AdvanceTo(SessionPhase::kPreCopy);
    };
    source->on_pause = [this](SimTime) {
      AdvanceTo(SessionPhase::kStopAndCopy);
    };
    source->on_finished = [this](SimTime t) {
      source_finished = true;
      finished_at = t;
      MaybeFinish();
    };
    destination->on_complete = [this](SimTime t) {
      completed_at = t;
      completed = true;
      MaybeFinish();
    };

    // Destination setup (§3.3); Start() kicks off round 1.
    awaits_bulk = need_bulk;
    setup_done = destination->Prepare(t0, need_bulk);
  }

  /// The source half: round 1 begins once the destination is ready.
  void Start() {
    VEC_CHECK_MSG(!started, "migration session started twice");
    started = true;
    // Event-heap capacity hint: round 1 pumps ~page_count/batch_pages
    // batches, each scheduling a pump continuation and a delivery.
    run.simulator->Reserve(static_cast<std::size_t>(
        run.source_memory->PageCount() / run.config.batch_pages + 16));
    // With a bulk exchange, round 1 starts inside OnBulkHashes at the
    // arrival of the destination's hashes instead.
    if (!awaits_bulk) source->Start(std::max(start_time, setup_done));
  }

  ~Impl() {
    // Queued events of this session become no-ops before the actors and
    // channels they would call into are freed; `claims` then detaches
    // the instruments from the shared resources.
    if (alive != nullptr) *alive = false;
  }

  /// Phases advance strictly forward; a backwards transition means the
  /// protocol misfired (e.g. a round started after the stop-and-copy).
  /// kFailed is terminal and reachable from everywhere except kDone.
  void AdvanceTo(SessionPhase next) {
    if (next == SessionPhase::kFailed) {
      VEC_CHECK_MSG(
          phase != SessionPhase::kDone && phase != SessionPhase::kFailed,
          "cannot fail a finished or already-failed session");
      phase = next;
      return;
    }
    VEC_CHECK_MSG(phase != SessionPhase::kFailed,
                  "failed migration session cannot advance");
    VEC_CHECK_MSG(static_cast<int>(next) > static_cast<int>(phase),
                  "migration session phase may only advance");
    phase = next;
  }

  /// An injected link outage cut one of this session's messages: abort
  /// the attempt. The VM keeps running at the source; every event the
  /// session still has queued is dropped via the lifetime token (partial
  /// destination state is simply abandoned — a retry starts clean).
  void OnFault(SimTime at) {
    if (failed || phase == SessionPhase::kDone) return;
    failed = true;
    failed_at = at;
    *alive = false;
    // Undo any auto-converge throttling: the VM keeps running (at full
    // speed) at the source while the scheduler decides on a retry.
    if (run.workload != nullptr) run.workload->SetThrottle(1.0);
    AdvanceTo(SessionPhase::kFailed);
    if (obs::TraceRecorder* tracer = instruments.tracer; tracer != nullptr) {
      tracer->Instant(session_track, tracer->Name("aborted: link cut"), at);
    }
    if (run.on_failed) run.on_failed(at);
  }

  /// Called from both completion hooks; fires once, when the destination
  /// runs the VM and the source has seen the done-ack. Books the optional
  /// §4.4 source-side checkpoint write-back, then notifies the caller.
  void MaybeFinish() {
    if (failed) return;
    if (!completed || !source_finished) return;
    // Auto-converge ends with the migration: the guest runs unthrottled
    // at the destination.
    if (run.workload != nullptr) run.workload->SetThrottle(1.0);
    if (run.write_back_checkpoint && run.source.store != nullptr) {
      AdvanceTo(SessionPhase::kCheckpointWriteBack);
      run.source.store->Save(
          run.vm_id, storage::Checkpoint::CaptureFrom(*run.source_memory),
          completed_at);
    }
    AdvanceTo(SessionPhase::kDone);
    if (run.on_complete) run.on_complete(finished_at);
  }

  /// Run-level audit: conservation and end-state integrity, checked once
  /// the outcome totals exist. (Causality and checkpoint integrity were
  /// verified eagerly by the auditor as the run executed.)
  void AuditOutcome(const MigrationOutcome& outcome) const {
    const auto& stats = outcome.stats;
    const std::uint64_t page_count = run.source_memory->PageCount();
    audit::SimAuditor* const auditor = instruments.auditor;

    // Page conservation: round 1 classifies every page into exactly one
    // mechanism — full send, checksum-only record, dedup reference, or
    // dirty-tracking skip.
    VEC_CHECK_MSG(stats.Round1Pages() == page_count,
                  "audit: round-1 page conservation violated (sent + "
                  "skipped-via-checksum + dedup + clean-skips != page "
                  "count)");
    // Every checksum-only record was satisfied at the destination either
    // by the locally initialized page, by a checkpoint read, or by the
    // per-page fallback (full content re-sent over the wire). Delta
    // fallbacks are a separate account — they never start as checksum
    // records.
    VEC_CHECK_MSG(stats.pages_matched_in_place + stats.pages_from_checkpoint +
                          destination->PagesChecksumFallback() ==
                      stats.pages_sent_checksum,
                  "audit: checksum-record conservation violated (matched "
                  "in place + restored from checkpoint + fallback != "
                  "checksum records sent)");
    // Both endpoints agree on the fallback set: pages the destination
    // requested (checksum misses + rejected deltas) equal pages the
    // source re-sent.
    VEC_CHECK_MSG(stats.fallback_pages == destination->PagesFallback(),
                  "audit: fallback pages served by source != fallback "
                  "pages requested by destination");
    // Wire conservation, per channel: bytes each forward stream booked on
    // the link equal the sum of the serialized message sizes the auditor
    // observed under that stream's channel id — and the per-channel
    // accounts sum to the session total.
    Bytes forward_total;
    for (std::size_t k = 0; k < forwards.size(); ++k) {
      VEC_CHECK_MSG(
          forwards[k]->PayloadSent() ==
              auditor->ChannelBytes(forward_channel_id +
                                    static_cast<std::uint32_t>(k)),
          "audit: forward wire bytes != sum of message sizes");
      forward_total += forwards[k]->PayloadSent();
    }
    VEC_CHECK_MSG(forward_total == stats.tx_bytes,
                  "audit: per-channel byte accounts do not sum to "
                  "tx_bytes");
    VEC_CHECK_MSG(backward->PayloadSent() ==
                      dest_side_auditor->ChannelBytes(backward_channel_id),
                  "audit: backward wire bytes != sum of message sizes");
    // End-state integrity: the reconstructed memory digests equal to the
    // source at pause time.
    const std::uint64_t memory_digest =
        outcome.dest_memory->ContentFingerprint();
    VEC_CHECK_MSG(memory_digest == run.source_memory->ContentFingerprint(),
                  "audit: destination memory digest != source digest");

    // Fold the outcome into the auditor's fingerprint so the determinism
    // harness compares results, not just event shapes.
    auditor->OnScalar("session_id", run.session_id);
    auditor->OnScalar("rounds", stats.rounds);
    auditor->OnScalar("tx_bytes", stats.tx_bytes.count);
    auditor->OnScalar("total_ns",
                      static_cast<std::uint64_t>(stats.total_time.count()));
    auditor->OnScalar("downtime_ns",
                      static_cast<std::uint64_t>(stats.downtime.count()));
    auditor->OnScalar("memory_digest", memory_digest);
    auditor->OnScalar("fallback_pages", stats.fallback_pages);
    auditor->OnScalar("disk_read_errors", stats.disk_read_errors);
    auditor->OnScalar("retries", stats.retries);
    auditor->OnScalar("multifd_channels", stats.multifd_channels);
    auditor->OnScalar("delta_pages", stats.pages_sent_delta);
    auditor->OnScalar("throttle_rounds", stats.throttle_rounds);
  }

  MigrationOutcome Finalize() {
    if (failed) {
      throw MigrationFailed(
          "migration of " + run.vm_id + " (session " +
          std::to_string(run.session_id) + ", attempt " +
          std::to_string(run.attempt) +
          ") aborted by an injected link outage — no outcome to take");
    }
    VEC_CHECK_MSG(completed, "migration did not complete");
    VEC_CHECK_MSG(!finalized, "outcome already taken");
    finalized = true;

    // The reconstructed memory must match the source exactly.
    VEC_CHECK_MSG(destination->Memory().ContentEquals(*run.source_memory),
                  "destination memory diverged from source after migration");

    MigrationOutcome outcome;
    outcome.stats = source->Stats();
    outcome.stats.setup_time = destination->SetupTime();
    outcome.stats.total_time = completed_at - source->RoundOneStart();
    outcome.stats.downtime = completed_at - source->PauseTime();
    outcome.stats.tx_bytes = Bytes{};
    outcome.stats.tx_bytes_per_channel.clear();
    outcome.stats.tx_bytes_per_channel.reserve(forwards.size());
    for (const auto& channel : forwards) {
      outcome.stats.tx_bytes_per_channel.push_back(channel->PayloadSent());
      outcome.stats.tx_bytes += channel->PayloadSent();
    }
    outcome.stats.pages_matched_in_place =
        destination->PagesMatchedInPlace();
    outcome.stats.pages_from_checkpoint =
        destination->PagesFromCheckpoint();
    outcome.stats.pages_delta_fallback = destination->PagesDeltaFallback();
    outcome.stats.dest_hashed_bytes = destination->HashedBytes();
    outcome.stats.disk_read_errors = destination->DiskReadErrors();
    outcome.stats.retries = run.attempt;
    outcome.completed_at = completed_at;

    // Generation counters travel with the VM.
    outcome.dest_memory = destination->TakeMemory();
    outcome.dest_memory->SetGenerations(run.source_memory->Generations());

    if (instruments.auditor != nullptr) AuditOutcome(outcome);
    return outcome;
  }

  void RecordOutcome(const MigrationOutcome& outcome) const {
    VEC_CHECK_MSG(finalized, "an outcome is recorded after it is taken");
    if (obs::TraceRecorder* tracer = instruments.tracer; tracer != nullptr) {
      // Durations only known now: the whole migration and the setup scan,
      // recorded retroactively on the session track (they would overlap
      // the per-round spans on the source lane).
      tracer->Span(session_track, tracer->Name("setup"), start_time,
                   start_time + outcome.stats.setup_time);
      tracer->Span(session_track, tracer->Name("migration"),
                   source->RoundOneStart(), completed_at);
      tracer->Span(session_track, tracer->Name("downtime"),
                   source->PauseTime(), completed_at);
    }
    if (instruments.metrics != nullptr) {
      std::string metric_label = label;
      if (metric_label.empty()) {
        metric_label = run.vm_id;
        if (run.session_id != 0) {
          metric_label += "#";
          metric_label += std::to_string(run.session_id);
        }
      }
      RecordMigrationStats(*instruments.metrics, metric_label, outcome.stats,
                           run.session_id);
    }
  }

  MigrationRun run;
  /// Audit channel ids derive from the session id so that sessions sharing
  /// one auditor keep separate per-channel byte accounts (0/1 for the
  /// anonymous single-session default; forward stream k of a multifd
  /// session is forward_channel_id + k).
  const std::uint32_t forward_channel_id;
  const std::uint32_t backward_channel_id;
  std::vector<std::unique_ptr<net::Channel>> forwards;
  std::unique_ptr<net::Channel> backward;
  std::unique_ptr<DestinationActor> destination;
  std::unique_ptr<SourceActor> source;
  ResolvedInstruments instruments;
  /// Where the destination's worker reports: run.dest_auditor for a
  /// cross-shard session, otherwise the session auditor itself.
  audit::SimAuditor* dest_side_auditor = nullptr;
  /// Declared after `instruments`, so the claims are released before a
  /// session-private auditor or injector is freed.
  InstrumentClaims claims;
  std::shared_ptr<bool> alive;

  std::string label;
  obs::TrackId session_track = 0;
  obs::TrackId trace_source_track = 0;

  SimTime start_time = kSimEpoch;
  /// When the destination's set-up (§3.3) is done; round 1 starts then.
  SimTime setup_done = kSimEpoch;
  SimTime completed_at = kSimEpoch;
  SimTime finished_at = kSimEpoch;
  SimTime failed_at = kSimEpoch;
  SessionPhase phase = SessionPhase::kHashExchange;
  /// The destination shipped its bulk hash set; round 1 waits for it.
  bool awaits_bulk = false;
  bool started = false;
  bool completed = false;
  bool source_finished = false;
  bool finalized = false;
  bool failed = false;
};

MigrationSession::MigrationSession(MigrationRun run)
    : impl_(std::make_unique<Impl>(std::move(run))) {}

MigrationSession::~MigrationSession() = default;

void MigrationSession::Start() { impl_->Start(); }

bool MigrationSession::AwaitsHashExchange() const {
  return impl_->awaits_bulk;
}

bool MigrationSession::Completed() const { return impl_->completed; }

bool MigrationSession::Failed() const { return impl_->failed; }

SessionPhase MigrationSession::Phase() const { return impl_->phase; }

std::uint64_t MigrationSession::Id() const { return impl_->run.session_id; }

MigrationOutcome MigrationSession::TakeOutcome() {
  return impl_->Finalize();
}

void MigrationSession::RecordOutcome(const MigrationOutcome& outcome) const {
  impl_->RecordOutcome(outcome);
}

MigrationOutcome RunMigration(MigrationRun run) {
  auto* simulator = run.simulator;
  MigrationSession session(std::move(run));
  session.Start();
  simulator->Run();
  MigrationOutcome outcome = session.TakeOutcome();
  session.RecordOutcome(outcome);
  return outcome;
}

}  // namespace vecycle::migration
