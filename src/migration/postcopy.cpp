#include "migration/postcopy.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "migration/observe.hpp"
#include "net/message.hpp"

namespace vecycle::migration {

void PostCopyConfig::Validate() const {
  // algorithm: every enumerator is a valid digest choice; the digest
  // layer rejects unknown values itself.
  VEC_CHECK_MSG(guest_touch_rate_per_s >= 0.0,
                "touch rate must be non-negative");
  VEC_CHECK_MSG(prefetch_batch > 0, "prefetch batch must be positive");
  VEC_CHECK_MSG(switchover_state.count > 0,
                "switchover_state must be positive");
}

namespace {

/// Per-page residency state at the destination.
enum class Residency : std::uint8_t {
  kUnknown,   ///< not verified / not fetched yet
  kFetching,  ///< a fetch is in flight
  kResident,  ///< correct content in destination RAM
};

class PostCopyEngine {
 public:
  explicit PostCopyEngine(PostCopyRun run) : run_(std::move(run)) {
    VEC_CHECK(run_.simulator != nullptr);
    VEC_CHECK(run_.link != nullptr);
    VEC_CHECK(run_.source_memory != nullptr);
    VEC_CHECK(run_.source_cpu != nullptr);
    VEC_CHECK(run_.dest_cpu != nullptr);
    run_.config.Validate();
    VEC_CHECK_MSG(run_.instruments.injector == nullptr,
                  "post-copy has no fault seams; instruments.injector "
                  "must be null");

    // Same precedence and claim rules as the pre-copy session.
    instruments_ = ResolveInstruments(run_.instruments, run_.config.audit,
                                      run_.config.trace, /*faults=*/nullptr);
    if (obs::TraceRecorder* tracer = instruments_.tracer; tracer != nullptr) {
      const auto process = tracer->NewProcess(run_.vm_id + "/postcopy");
      phase_track_ = tracer->Track(process, "phases");
      prefetch_track_ = tracer->Track(process, "prefetch");
      fault_track_ = tracer->Track(process, "faults");
      remaining_counter_ = tracer->Name("remaining_pages");
      fault_name_ = tracer->Name("remote_fault");
      claims_.Tracer(*run_.source_cpu, tracer, process, "cpu source");
      claims_.Tracer(*run_.dest_cpu, tracer, process, "cpu dest");
      if (run_.dest_store != nullptr) {
        claims_.Tracer(*run_.dest_store, tracer, process, "store");
      }
      claims_.Tracer(*run_.simulator, tracer, process, "event loop");
    }
    claims_.Auditor(*run_.simulator, instruments_.auditor);
    if (run_.dest_store != nullptr) {
      claims_.Auditor(*run_.dest_store, instruments_.auditor);
    }

    auto& source = *run_.source_memory;
    dest_memory_ =
        std::make_unique<vm::GuestMemory>(source.RamSize(), source.Mode());
    residency_.assign(source.PageCount(), Residency::kUnknown);
    fetch_arrival_.assign(source.PageCount(), kSimEpoch);
    remaining_ = source.PageCount();
    touch_rng_ = Xoshiro256(run_.config.touch_seed);
    reverse_ = run_.direction == sim::Direction::kAtoB
                   ? sim::Direction::kBtoA
                   : sim::Direction::kAtoB;
  }

  PostCopyOutcome Run() {
    auto& simulator = *run_.simulator;
    auto& source = *run_.source_memory;
    const SimTime t0 = simulator.Now();

    // Destination setup: restore the stale checkpoint if we may use it.
    SimTime setup_done = t0;
    if (run_.config.use_checkpoint && run_.dest_store != nullptr &&
        run_.dest_store->Has(run_.vm_id) &&
        run_.dest_store->Peek(run_.vm_id)->PageCount() ==
            source.PageCount()) {
      const auto load = run_.dest_store->Load(run_.vm_id, t0);
      checkpoint_ = load.checkpoint;
      setup_done = load.ready_at;
      checkpoint_->RestoreInto(*dest_memory_);
    }

    // Switchover: pause at the source, ship device state, resume at the
    // destination. This is the entire downtime.
    const SimTime switch_start = setup_done;
    const SimTime resumed = run_.link->Transmit(
        run_.direction, switch_start, run_.config.switchover_state);
    stats_.tx_bytes += run_.config.switchover_state;
    stats_.downtime = resumed - switch_start;
    resumed_at_ = resumed;

    // VeCycle composition: ship the VM's checksum vector so the
    // destination can tell which checkpoint pages are still valid. The
    // source computes the vector *before* pausing, while the guest still
    // runs (entries for pages dirtied during the scan are invalidated and
    // simply fail verification later — a bounded imprecision the model
    // folds into the churn itself), so only the wire transfer lands after
    // switchover. Faults that arrive before the vector wait for it: it
    // is milliseconds away, while a blind remote fetch of a page the
    // checkpoint already holds wastes link time everyone else needs.
    if (checkpoint_ != nullptr) {
      const Bytes ram = source.RamSize();
      run_.source_cpu->Hash(t0, ram, run_.config.algorithm);  // pre-pause
      const Bytes vector_bytes{source.PageCount() *
                               WireSizeBytes(run_.config.algorithm)};
      const SimTime vector_arrival =
          run_.link->Transmit(run_.direction, switch_start, vector_bytes);
      stats_.tx_bytes += vector_bytes;
      stats_.checksum_vector_bytes = vector_bytes;
      vector_ready_ = vector_arrival;
    } else {
      vector_ready_ = resumed;
    }

    // Background prefetcher and guest touch process.
    simulator.ScheduleAt(std::max(resumed, vector_ready_),
                         [this] { PumpPrefetch(); });
    if (run_.config.guest_touch_rate_per_s > 0.0) {
      ScheduleNextTouch(resumed);
    }

    simulator.Run();

    VEC_CHECK_MSG(remaining_ == 0, "post-copy never reached residency");
    VEC_CHECK_MSG(dest_memory_->ContentEquals(source),
                  "post-copy reconstruction diverged");
    dest_memory_->SetGenerations(source.Generations());

    if (instruments_.auditor != nullptr) AuditOutcome(source);

    if (obs::TraceRecorder* tracer = instruments_.tracer; tracer != nullptr) {
      // Durations only known now, recorded retroactively on one lane:
      // setup scan, the switchover gap (the entire downtime), and the
      // residency window the prefetcher and faults filled.
      tracer->Span(phase_track_, tracer->Name("setup"), t0, setup_done);
      tracer->Span(phase_track_, tracer->Name("switchover"), switch_start,
                   resumed);
      tracer->Span(phase_track_, tracer->Name("residency"), resumed_at_,
                   resumed_at_ + stats_.time_to_residency);
    }
    if (instruments_.metrics != nullptr) {
      RecordPostCopyStats(*instruments_.metrics, run_.vm_id + "/postcopy",
                          stats_);
    }

    PostCopyOutcome outcome;
    outcome.stats = stats_;
    outcome.dest_memory = std::move(dest_memory_);
    return outcome;
  }

 private:
  std::uint64_t PageCount() const { return residency_.size(); }

  /// Run-level audit: every page reached residency through exactly one
  /// mechanism, and the reconstructed image digests equal to the source.
  void AuditOutcome(const vm::GuestMemory& source) const {
    VEC_CHECK_MSG(stats_.pages_from_checkpoint + stats_.pages_prefetched +
                          stats_.remote_faults ==
                      PageCount(),
                  "audit: post-copy residency conservation violated "
                  "(checkpoint + prefetch + fault != page count)");
    const std::uint64_t memory_digest = dest_memory_->ContentFingerprint();
    VEC_CHECK_MSG(memory_digest == source.ContentFingerprint(),
                  "audit: post-copy destination digest != source digest");
    audit::SimAuditor& auditor = *instruments_.auditor;
    auditor.OnScalar("pc_remote_faults", stats_.remote_faults);
    auditor.OnScalar("pc_tx_bytes", stats_.tx_bytes.count);
    auditor.OnScalar(
        "pc_residency_ns",
        static_cast<std::uint64_t>(stats_.time_to_residency.count()));
    auditor.OnScalar("pc_memory_digest", memory_digest);
  }

  void MarkResident(vm::PageId page) {
    if (residency_[page] == Residency::kResident) return;
    residency_[page] = Residency::kResident;
    --remaining_;
  }

  /// Verifies one checkpoint page against the source's checksum vector:
  /// one 4 KiB hash. The background sweep runs on the host's checksum
  /// engine; demand faults verify on the faulting vCPU (`fault_cpu_`) so
  /// they are not head-of-line blocked behind the sweep. Returns true
  /// when the checkpoint content is still correct.
  bool VerifyAgainstVector(vm::PageId page, SimTime when, bool demand_path,
                           SimTime& work_done) {
    auto& cpu = demand_path ? fault_cpu_ : *run_.dest_cpu;
    work_done = cpu.Hash(when, Bytes{kPageSize}, run_.config.algorithm);
    return checkpoint_ != nullptr &&
           checkpoint_->SeedAt(page) == run_.source_memory->Seed(page);
  }

  /// Books one page fetch on the link; returns arrival time.
  SimTime BookFetch(vm::PageId page, SimTime when) {
    // Request (header) travels backward, the page forward. Zero pages
    // compress to a bare header as everywhere else.
    const SimTime asked = run_.link->Transmit(
        reverse_, when, Bytes{net::kRecordHeaderBytes});
    const bool zero = run_.source_memory->Seed(page) == vm::kZeroPageSeed;
    const Bytes payload{net::kRecordHeaderBytes +
                        (zero ? 0 : kPageSize)};
    const SimTime arrival = run_.link->Transmit(run_.direction, asked,
                                                payload);
    stats_.tx_bytes += payload;
    return arrival;
  }

  void CompleteFetch(vm::PageId page, SimTime arrival) {
    run_.simulator->ScheduleAt(arrival, [this, page] {
      dest_memory_->WritePage(page, run_.source_memory->Seed(page));
      MarkResident(page);
      MaybeFinish(run_.simulator->Now());
    });
  }

  void PumpPrefetch() {
    const SimTime now = run_.simulator->Now();
    if (instruments_.tracer != nullptr) {
      instruments_.tracer->Counter(prefetch_track_, remaining_counter_, now,
                                   static_cast<double>(remaining_));
    }
    std::uint32_t handled = 0;
    SimTime last_arrival = now;
    while (prefetch_cursor_ < PageCount() &&
           handled < run_.config.prefetch_batch) {
      const vm::PageId page = prefetch_cursor_++;
      if (residency_[page] != Residency::kUnknown) continue;
      ++handled;
      if (checkpoint_ != nullptr) {
        SimTime verified;
        if (VerifyAgainstVector(page, now, /*demand_path=*/false,
                                verified)) {
          ++stats_.pages_from_checkpoint;
          dest_memory_->WritePage(page, checkpoint_->SeedAt(page));
          MarkResident(page);
          last_arrival = std::max(last_arrival, verified);
          continue;
        }
        last_arrival = std::max(last_arrival, verified);
      }
      residency_[page] = Residency::kFetching;
      const SimTime arrival = BookFetch(page, now);
      fetch_arrival_[page] = arrival;
      ++stats_.pages_prefetched;
      CompleteFetch(page, arrival);
      last_arrival = std::max(last_arrival, arrival);
    }

    if (prefetch_cursor_ < PageCount()) {
      // Pace off the work just issued so demand faults can interleave.
      const SimTime next =
          std::max(now, last_arrival - run_.link->Config().latency);
      run_.simulator->ScheduleAt(next, [this] { PumpPrefetch(); });
    } else {
      MaybeFinish(std::max(now, last_arrival));
    }
  }

  void ScheduleNextTouch(SimTime from) {
    const SimDuration gap =
        Seconds(1.0 / run_.config.guest_touch_rate_per_s);
    run_.simulator->ScheduleAt(from + gap, [this] { OnTouch(); });
  }

  void OnTouch() {
    if (remaining_ == 0) return;  // fully resident: touches are free now
    const SimTime now = run_.simulator->Now();
    const vm::PageId page = touch_rng_.NextBelow(PageCount());
    // The touch loop is closed: a faulting guest thread blocks until its
    // page is resident, so the next touch is scheduled from the stall's
    // resolution, never piling unbounded faults onto the link.
    SimTime resume_at = now;
    switch (residency_[page]) {
      case Residency::kResident:
        break;
      case Residency::kFetching:
        // Stall until the in-flight fetch lands.
        if (fetch_arrival_[page] > now) {
          stats_.total_stall += fetch_arrival_[page] - now;
          resume_at = fetch_arrival_[page];
        }
        break;
      case Residency::kUnknown: {
        // Verify locally first when a checkpoint candidate exists,
        // waiting for the (imminent) checksum vector if needed; only
        // genuinely diverged pages fault remotely.
        SimTime ready = now;
        if (checkpoint_ != nullptr) {
          ready = std::max(ready, vector_ready_);
          SimTime verified;
          if (VerifyAgainstVector(page, ready, /*demand_path=*/true,
                                  verified)) {
            ++stats_.pages_from_checkpoint;
            dest_memory_->WritePage(page, checkpoint_->SeedAt(page));
            MarkResident(page);
            stats_.total_stall += verified - now;  // wait + verify
            resume_at = verified;
            MaybeFinish(verified);
            break;
          }
          ready = verified;
        }
        residency_[page] = Residency::kFetching;
        const SimTime arrival = BookFetch(page, ready);
        fetch_arrival_[page] = arrival;
        ++stats_.remote_faults;
        if (obs::TraceRecorder* tracer = instruments_.tracer;
            tracer != nullptr) {
          tracer->Instant(fault_track_, fault_name_, now);
          tracer->Arg(tracer->Name("page"), page);
        }
        stats_.total_stall += arrival - now;
        resume_at = arrival;
        CompleteFetch(page, arrival);
        break;
      }
    }
    ScheduleNextTouch(resume_at);
  }

  void MaybeFinish(SimTime when) {
    if (remaining_ == 0 && !finished_) {
      finished_ = true;
      stats_.time_to_residency = when - resumed_at_;
    }
  }

  PostCopyRun run_;
  sim::Direction reverse_ = sim::Direction::kBtoA;
  std::unique_ptr<vm::GuestMemory> dest_memory_;
  /// Held for the whole session, like the pre-copy destination's: a
  /// concurrent Save may evict the store's entry meanwhile.
  std::shared_ptr<const storage::Checkpoint> checkpoint_;
  std::vector<Residency> residency_;
  std::vector<SimTime> fetch_arrival_;
  std::uint64_t remaining_ = 0;
  std::uint64_t prefetch_cursor_ = 0;
  SimTime resumed_at_ = kSimEpoch;
  SimTime vector_ready_ = kSimEpoch;
  /// The faulting vCPU's hashing capacity (demand-path verification).
  sim::ChecksumEngine fault_cpu_{sim::ChecksumEngineConfig{}};
  Xoshiro256 touch_rng_{1};
  PostCopyStats stats_;
  ResolvedInstruments instruments_;
  /// Declared after `instruments_`, so the claims are released before a
  /// run-private auditor is freed.
  InstrumentClaims claims_;
  obs::TrackId phase_track_ = 0;
  obs::TrackId prefetch_track_ = 0;
  obs::TrackId fault_track_ = 0;
  obs::NameId remaining_counter_ = 0;
  obs::NameId fault_name_ = 0;
  bool finished_ = false;
};

}  // namespace

PostCopyOutcome RunPostCopyMigration(PostCopyRun run) {
  PostCopyEngine engine(std::move(run));
  return engine.Run();
}

}  // namespace vecycle::migration
