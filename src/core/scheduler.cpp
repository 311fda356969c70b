#include "core/scheduler.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace vecycle::core {

void SchedulerConfig::Validate() const {
  // max_outgoing_per_host / max_incoming_per_host: every value is legal —
  // zero means unlimited admission per the header contract.
  // max_attempts: every value is legal — zero means retry forever, any
  // other count is a plain retry budget.
  // workers: every value is legal — zero reads VECYCLE_THREADS, and the
  // sharded run loop clamps to the shard count.
  // instruments: caller-owned observer pointers, every combination legal
  // here; the PDES constructor rejects the ones workers would share.
  VEC_CHECK_MSG(retry_backoff >= SimDuration::zero(),
                "retry_backoff must be non-negative (retry wake-ups "
                "cannot land in the simulated past)");
}

SimTime RetryNotBefore(SimTime when, SimDuration backoff,
                       std::uint64_t failures) {
  VEC_CHECK_MSG(backoff >= SimDuration::zero() && failures > 0,
                "RetryNotBefore needs a non-negative backoff and at "
                "least one failure");
  if (backoff <= SimDuration::zero()) return when;
  const std::uint64_t shift = failures - 1;
  const auto rep = static_cast<std::uint64_t>(backoff.count());
  const auto limit =
      static_cast<std::uint64_t>(SimDuration::max().count());
  // rep * 2^shift > limit  ⟺  rep > limit >> shift; past 63 doublings
  // the product exceeds any 64-bit rep regardless of the backoff.
  if (shift >= 64 || rep > (limit >> shift)) return SimTime::max();
  const SimDuration delay{static_cast<SimDuration::rep>(rep << shift)};
  if (delay > SimTime::max() - when) return SimTime::max();
  return when + delay;
}

migration::MigrationRun BuildMigrationRun(
    Cluster& cluster, VmInstance& vm, const HostId& to,
    const migration::MigrationConfig& config, migration::MigrationRun wiring) {
  const HostId& from = vm.CurrentHost();
  VEC_CHECK_MSG(!from.empty(), "VM is not deployed");
  VEC_CHECK_MSG(from != to, "VM " + vm.Id() + " is already on " + to);
  Host& source_host = cluster.GetHost(from);
  Host& dest_host = cluster.GetHost(to);
  const auto path = cluster.PathBetween(from, to);

  migration::MigrationRun run = std::move(wiring);
  if (run.simulator == nullptr) run.simulator = &cluster.Simulator();
  run.link = path.link;
  run.direction = path.direction;
  run.source_memory = &vm.Memory();
  run.workload = vm.Workload();
  run.source = {&source_host.Cpu(), &source_host.Store()};
  run.destination = {&dest_host.Cpu(), &dest_host.Store()};
  run.vm_id = vm.Id();
  run.config = config;
  // Dirty-tracking generations, the delta baseline and the source's
  // knowledge of the destination's checksums all resolve through the
  // destination's checkpoint store — the system of record for what the VM
  // left there (empty when the checkpoint was evicted or never written).
  // In PDES mode that store belongs to the destination shard, whose
  // worker runs this at a barrier. The session keeps only what its
  // strategy reads: generations for dirty tracking, seeds for deltas.
  if (migration::UsesDirtyTracking(config.strategy)) {
    run.departure_generations =
        dest_host.Store().DepartureGenerations(vm.Id());
  }
  std::vector<std::uint64_t> seeds = dest_host.Store().BaselineSeeds(vm.Id());
  const vm::GuestMemory& memory = vm.Memory();
  if (migration::UsesContentHashes(config.strategy) &&
      seeds.size() == memory.PageCount()) {
    // The checkpoint's pages named as the source names its own: the
    // ping-pong fast path probes them without the §3.2 bulk exchange.
    std::vector<Digest128> digests;
    digests.reserve(seeds.size());
    for (const std::uint64_t seed : seeds) {
      digests.push_back(
          vm::ContentDigest(memory.Mode(), config.algorithm, seed));
    }
    run.source_knowledge = std::make_shared<const DigestMap>(digests);
  }
  if (config.delta.enabled) run.departure_seeds = std::move(seeds);
  // Checkpoint write-back happens inside the session (booked at the
  // destination completion time, not counted in migration time — §4.4)
  // so a session-private fault injector can still rot the saved image.
  run.write_back_checkpoint = true;
  return run;
}

void ApplyArrival(VmInstance& vm, const HostId& to,
                  migration::MigrationOutcome& outcome) {
  vm.AdoptMemory(std::move(outcome.dest_memory));
  vm.SetCurrentHost(to);
}

MigrationScheduler::MigrationScheduler(Cluster& cluster,
                                       SchedulerConfig config)
    : cluster_(cluster), config_(config) {
  config_.Validate();
}

MigrationScheduler::MigrationScheduler(Cluster& cluster,
                                       sim::ShardedSimulator& pdes,
                                       sim::ShardPlan plan,
                                       SchedulerConfig config)
    : cluster_(cluster),
      config_(config),
      pdes_(&pdes),
      plan_(std::move(plan)) {
  config_.Validate();
  plan_.Validate();
  VEC_CHECK_MSG(plan_.ShardCount() == pdes.ShardCount(),
                "shard plan and sharded simulator disagree on the shard "
                "count");
  for (const Host* host : cluster_.Hosts()) {
    VEC_CHECK_MSG(plan_.Covers(host->Id()),
                  "shard plan does not cover host: " + host->Id());
    host_shards_.push_back(plan_.ShardOf(host->Id()));
  }
  // Observers that one object would feed from several workers at once
  // are rejected; per-shard auditors (below) replace the shared one, and
  // shard-level trace/fault wiring happens outside the scheduler.
  VEC_CHECK_MSG(config_.instruments.auditor == nullptr,
                "PDES mode owns per-shard auditors; "
                "config.instruments.auditor must be null");
  VEC_CHECK_MSG(config_.instruments.tracer == nullptr,
                "a shared tracer would race across workers; "
                "config.instruments.tracer must be null in PDES mode");
  VEC_CHECK_MSG(config_.instruments.injector == nullptr,
                "a shared fault injector would race across workers; "
                "attach per-shard injectors to intra-shard links instead");
  workers_ = config_.workers == 0 ? sim::ThreadsFromEnv() : config_.workers;
  const std::uint32_t shard_count = pdes.ShardCount();
  shard_auditors_.reserve(shard_count);
  outboxes_.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    shard_auditors_.push_back(std::make_unique<audit::SimAuditor>());
    outboxes_.push_back(std::make_unique<sched_internal::ControlOutbox>());
    VEC_CHECK_MSG(pdes.Shard(s).Auditor() == nullptr,
                  "shard simulator already has an auditor attached");
    pdes.Shard(s).SetAuditor(shard_auditors_.back().get());
  }
}

MigrationScheduler::~MigrationScheduler() {
  if (pdes_ != nullptr) {
    for (std::uint32_t s = 0; s < pdes_->ShardCount(); ++s) {
      pdes_->Shard(s).SetAuditor(nullptr);
    }
  }
}

std::uint64_t MigrationScheduler::CombinedFingerprint() const {
  VEC_CHECK_MSG(pdes_ != nullptr,
                "CombinedFingerprint is a PDES-mode API");
  // Fold in fixed shard order: the result is well-defined whatever the
  // worker count, because each shard's fingerprint is.
  std::uint64_t combined = 0x76656379636c65ull;  // "vecycle"
  for (const auto& auditor : shard_auditors_) {
    combined = SplitMix64(combined ^ auditor->Fingerprint()).Next();
  }
  return combined;
}

const audit::SimAuditor& MigrationScheduler::ShardAuditor(
    sim::ShardId shard) const {
  VEC_CHECK_MSG(pdes_ != nullptr, "ShardAuditor is a PDES-mode API");
  VEC_CHECK_MSG(shard < shard_auditors_.size(), "shard id out of range");
  return *shard_auditors_[shard];
}

SessionId MigrationScheduler::Submit(VmInstance& vm, const HostId& to,
                                     const migration::MigrationConfig& config,
                                     int priority,
                                     CompletionCallback on_complete) {
  VEC_CHECK_MSG(!vm.CurrentHost().empty(), "VM is not deployed");
  const std::size_t to_host = cluster_.IndexOf(to);  // before queueing
  config.Validate();
  // Flag- and env-armed tracing resolve to the one process-wide recorder,
  // which the shard workers would then write concurrently.
  VEC_CHECK_MSG(pdes_ == nullptr || !migration::TraceArmed(config.trace),
                "a shared tracer would race across workers; config.trace "
                "and VECYCLE_TRACE must be off in PDES mode");

  common::NullLockGuard lock(mu_);
  Request request;
  request.id = next_id_++;
  request.vm = &vm;
  request.to = to;
  request.to_host = to_host;
  request.config = config;
  request.priority = priority;
  request.on_complete = std::move(on_complete);
  const SessionId id = request.id;
  queued_.push_back(std::move(request));
  return id;
}

const MigrationScheduler::Completion* MigrationScheduler::FindCompletion(
    SessionId id) const {
  common::NullLockGuard lock(mu_);
  for (const auto& completion : completions_) {
    if (completion.id == id) return &completion;
  }
  return nullptr;
}

void MigrationScheduler::AdmitEligible() {
  // Admit in priority order (ties: lowest queue position). A request is
  // admissible when its VM is idle, it is the VM's oldest queued request
  // (per-VM FIFO — later legs of one journey cannot overtake earlier
  // ones, whatever their priority), and both endpoint hosts have
  // capacity under the configured caps.
  //
  // One collection pass suffices: admission only consumes host slots and
  // marks VMs busy, so nothing inadmissible now becomes admissible
  // during the round. (A VM's next queued request surfaces when its
  // first is admitted, but that VM is busy by then.) Greedy over the
  // sorted candidates therefore reaches the same fixpoint the old
  // rescan-after-every-admission loop did, without its
  // admissions × queue-length blowup, which dominated wall time at
  // datacenter scale.
  const SimTime now = CurrentTime();
  std::unordered_set<const VmInstance*> seen;
  seen.reserve(queued_.size());
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < queued_.size(); ++i) {
    const Request& request = queued_[i];
    const bool first_for_vm = seen.insert(request.vm).second;
    if (!first_for_vm) continue;
    // A request waiting out its retry backoff still claims its VM's
    // FIFO slot (later legs must not overtake it); it just cannot be
    // admitted until the backoff expires.
    if (request.not_before > now) continue;
    if (busy_vms_.count(request.vm) != 0) continue;
    candidates.push_back(i);
  }
  // stable_sort keeps equal priorities in ascending queue position.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [this](std::size_t a, std::size_t b) {
                     return queued_[a].priority > queued_[b].priority;
                   });

  // Hosts may join the cluster between rounds.
  outgoing_.resize(cluster_.HostCount(), 0);
  incoming_.resize(cluster_.HostCount(), 0);
  std::vector<bool> taken(queued_.size(), false);
  std::vector<Running*> admitted;
  for (const std::size_t i : candidates) {
    const Request& request = queued_[i];
    const std::size_t from_host =
        cluster_.IndexOf(request.vm->CurrentHost());
    if (config_.max_outgoing_per_host != 0 &&
        outgoing_[from_host] >= config_.max_outgoing_per_host) {
      continue;
    }
    if (config_.max_incoming_per_host != 0 &&
        incoming_[request.to_host] >= config_.max_incoming_per_host) {
      continue;
    }
    taken[i] = true;
    admitted.push_back(&Admit(std::move(queued_[i]), from_host));
  }
  if (admitted.empty()) return;

  std::size_t write = 0;
  for (std::size_t i = 0; i < queued_.size(); ++i) {
    if (taken[i]) continue;
    if (write != i) queued_[write] = std::move(queued_[i]);
    ++write;
  }
  queued_.resize(write);
  Launch(admitted);
}

SimTime MigrationScheduler::CurrentTime() const {
  return pdes_ != nullptr ? control_now_ : cluster_.Simulator().Now();
}

MigrationScheduler::Running& MigrationScheduler::Admit(
    Request request, std::size_t from_host) {
  const vm::GuestMemory& memory = request.vm->Memory();
  // Retries run under a fresh session id: channel ids (and so the
  // auditor's per-channel byte accounts) derive from the session id, and
  // the aborted attempt's wire bytes must not leak into the retry's
  // conservation checks. The caller-facing id stays `request.id`.
  const SessionId sid = request.attempts == 0 ? request.id : next_id_++;
  Running running;
  running.from = request.vm->CurrentHost();
  running.from_host = from_host;
  // Migrate()'s wiring (BuildMigrationRun, in the destination half) plus
  // the session identity, the scheduler's instruments and the retry count.
  migration::MigrationRun& run = running.run;
  run.session_id = sid;
  run.instruments = config_.instruments;
  run.attempt = request.attempts;
  // Allocated here, on the coordinator: the VM keeps this memory after
  // arrival, and memory a shard worker allocated would come from that
  // thread's malloc arena, which cannot reuse the coordinator's freed
  // images.
  run.dest_memory =
      std::make_unique<vm::GuestMemory>(memory.RamSize(), memory.Mode());

  if (config_.gang_dedup) {
    // The gang cache is sender-side state: every session of one gang has
    // the same source host, hence the same shard, so in PDES mode the
    // cache is only ever touched by that shard's worker.
    running.in_gang = true;
    Gang& gang = gangs_[{from_host, request.to_host}];
    ++gang.sessions;
    run.shared_dedup_cache = &gang.cache;
  }

  if (pdes_ != nullptr) {
    VEC_CHECK_MSG(from_host < host_shards_.size() &&
                      request.to_host < host_shards_.size(),
                  "host added after the sharded scheduler was built");
    const sim::ShardId src_shard = host_shards_[from_host];
    const sim::ShardId dst_shard = host_shards_[request.to_host];
    running.src_shard = src_shard;
    running.dst_shard = dst_shard;
    run.simulator = &pdes_->Shard(src_shard);
    run.instruments.auditor = shard_auditors_[src_shard].get();
    if (dst_shard != src_shard) {
      // Routes are created lazily, on the coordinator only.
      run.dest_simulator = &pdes_->Shard(dst_shard);
      run.forward_delivery = &pdes_->Route(src_shard, dst_shard);
      run.backward_delivery = &pdes_->Route(dst_shard, src_shard);
      run.dest_auditor = shard_auditors_[dst_shard].get();
    }
    // Admission happens at a barrier; the barrier time is ahead of every
    // shard clock and is the instant both endpoints agree the session
    // begins.
    run.start_at = control_now_;
    // Lifecycle callbacks fire on the source shard's worker mid-window;
    // they only enqueue — the control plane processes at the barrier, in
    // (when, id) order, regardless of which outbox carried what.
    sched_internal::ControlOutbox* outbox = outboxes_[src_shard].get();
    run.on_complete = [outbox, sid](SimTime when) {
      common::LockGuard lock(outbox->mu);
      outbox->events.push_back(
          sched_internal::ControlEvent{when, sid, false});
    };
    run.on_failed = [outbox, sid](SimTime when) {
      common::LockGuard lock(outbox->mu);
      outbox->events.push_back(
          sched_internal::ControlEvent{when, sid, true});
    };
  } else {
    run.on_complete = [this, sid](SimTime) {
      migration::MigrationSession* session = nullptr;
      {
        common::NullLockGuard lock(mu_);
        session = running_.at(sid).session.get();
      }
      OnSessionFinished(sid, session->TakeOutcome());
    };
    run.on_failed = [this, sid](SimTime when) {
      OnSessionFailed(sid, when);
    };
  }

  ++outgoing_[from_host];
  ++incoming_[request.to_host];
  busy_vms_.insert(request.vm);
  running.request = std::move(request);
  return running_.emplace(sid, std::move(running)).first->second;
}

void MigrationScheduler::Launch(const std::vector<Running*>& admitted) {
  if (pdes_ == nullptr) {
    for (Running* running : admitted) {
      BuildSession(*running);
      running->session->Start();
    }
    return;
  }
  // Per-shard lists in admission order. Each half touches the resources
  // of one shard only — the destination's store, disk and CPU; the
  // source's event heap and VM — and keeps its shard's serial order, so
  // every per-resource sequence, event sequence number and auditor fold
  // is what one thread running the sessions in admission order produces.
  // (No destination half schedules an event; BuildSession checks.)
  const std::uint32_t shard_count = pdes_->ShardCount();
  std::vector<std::vector<Running*>> by_dst(shard_count);
  std::vector<std::vector<Running*>> by_src(shard_count);
  for (Running* running : admitted) {
    by_dst[running->dst_shard].push_back(running);
    by_src[running->src_shard].push_back(running);
  }
  pdes_->ForEachShard([this, &by_dst](sim::ShardId shard) {
    for (Running* running : by_dst[shard]) BuildSession(*running);
  });
  pdes_->ForEachShard([&by_src](sim::ShardId shard) {
    for (Running* running : by_src[shard]) running->session->Start();
  });
}

void MigrationScheduler::BuildSession(Running& running) const {
  running.session = std::make_unique<migration::MigrationSession>(
      BuildMigrationRun(cluster_, *running.request.vm, running.request.to,
                        running.request.config, std::move(running.run)));
  // BuildMigrationRun names the pages of every geometry-matching
  // checkpoint, so no scheduled session asks for the §3.2 bulk exchange:
  // its destination half schedules no event, which is what lets the
  // halves of one admission round run shard by shard.
  VEC_CHECK_MSG(!running.session->AwaitsHashExchange(),
                "a scheduled session must not need the bulk hash exchange");
}

MigrationScheduler::Request MigrationScheduler::ReleaseSlot(SessionId id) {
  const auto it = running_.find(id);
  VEC_CHECK_MSG(it != running_.end(), "outcome for unknown session");
  Running& running = it->second;

  const auto release = [this](std::vector<std::size_t>& counts,
                              std::size_t host) {
    VEC_CHECK_MSG(counts[host] > 0, "session count underflow for host " +
                                         cluster_.Hosts()[host]->Id());
    --counts[host];
  };
  release(outgoing_, running.from_host);
  release(incoming_, running.request.to_host);
  if (running.in_gang) {
    const auto gang =
        gangs_.find({running.from_host, running.request.to_host});
    VEC_CHECK_MSG(gang != gangs_.end() && gang->second.sessions > 0,
                  "gang refcount underflow");
    // An aborted session may leave entries for content whose carrier
    // message was cut in flight. That is harmless here — dup-ref records
    // still carry the content seed, the cache only shapes wire bytes —
    // so the cache survives for the gang's remaining sessions.
    if (--gang->second.sessions == 0) gangs_.erase(gang);
  }

  Request request = std::move(running.request);
  busy_vms_.erase(request.vm);
  // Both completion and failure run inside the session's own actor
  // callbacks; the session object must outlive the call, so park it
  // instead of destroying it.
  retired_.push_back(std::move(running.session));
  running_.erase(it);
  return request;
}

void MigrationScheduler::OnSessionFinished(
    SessionId id, migration::MigrationOutcome outcome) {
  Completion completion;
  CompletionCallback on_complete;
  {
    common::NullLockGuard lock(mu_);
    const auto it = running_.find(id);
    VEC_CHECK_MSG(it != running_.end(), "completion for unknown session");
    // A shared metrics registry is fed here, in (when, id) order, never
    // from a shard worker.
    it->second.session->RecordOutcome(outcome);
    const HostId from = it->second.from;
    Request request = ReleaseSlot(id);
    VmInstance& vm = *request.vm;

    // (The checkpoint write-back already happened inside the session; the
    // source store now holds the seeds and generations a return
    // migration will resolve.)
    ApplyArrival(vm, request.to, outcome);

    completion.id = request.id;
    completion.vm = &vm;
    completion.from = from;
    completion.to = request.to;
    completion.stats = outcome.stats;
    completion.completed_at = outcome.completed_at;

    completions_.push_back(completion);
    on_complete = std::move(request.on_complete);
  }

  // The caller's callback runs outside the scheduler capability: it may
  // legitimately Submit() the VM's next leg, and that re-entry must not
  // self-deadlock once the capability is a real lock.
  if (on_complete) on_complete(completion);

  // Capacity just freed up — admit the next queued request(s) now, at
  // the completion's sim time, exactly when a real control plane would.
  // In PDES mode every completion of a barrier admits at the same
  // control_now_, so ControlStep runs one admission round for the whole
  // batch instead of one quadratic scan per completion.
  common::NullLockGuard lock(mu_);
  if (pdes_ == nullptr) AdmitEligible();
}

void MigrationScheduler::WakeAdmit() {
  common::NullLockGuard lock(mu_);
  AdmitEligible();
}

void MigrationScheduler::OnSessionFailed(SessionId id, SimTime when) {
  common::NullLockGuard lock(mu_);
  const HostId from = running_.count(id) != 0 ? running_.at(id).from
                                              : HostId{};
  Request request = ReleaseSlot(id);
  ++request.attempts;

  if (config_.max_attempts != 0 &&
      request.attempts >= config_.max_attempts) {
    if (config_.throw_on_abort) {
      throw MigrationAborted(
          "migration of " + request.vm->Id() + " (session " +
          std::to_string(request.id) + ") aborted after " +
          std::to_string(request.attempts) + " attempts");
    }
    aborts_.push_back(Abort{request.id, request.vm, from, request.to,
                            request.attempts, when});
    // Its host slots just freed up (batched at the barrier in PDES mode).
    if (pdes_ == nullptr) AdmitEligible();
    return;
  }

  // Exponential backoff: retry_backoff * 2^(failures-1), saturating —
  // a large configured backoff (or a long failure streak) clamps to the
  // end of simulated time instead of overflowing into the past.
  ++retries_;
  request.not_before =
      RetryNotBefore(when, config_.retry_backoff, request.attempts);
  const SimTime wake = request.not_before;
  // Front of the queue: this is, by construction, the VM's oldest
  // request, and per-VM FIFO must survive the round trip through
  // failure. Priority ties break by queue position, so the front slot
  // also restores its original standing among equals.
  queued_.insert(queued_.begin(), std::move(request));
  // Without a wake event the loop could go idle before the backoff
  // expires; AdmitEligible at the deadline restarts the session. In PDES
  // mode ControlStep's return value carries the deadline instead — the
  // barrier loop wakes the control plane there.
  if (pdes_ == nullptr) {
    cluster_.Simulator().ScheduleAt(wake, [this] { WakeAdmit(); });
    AdmitEligible();
  }
}

std::size_t MigrationScheduler::Drain() {
  if (pdes_ != nullptr) return DrainSharded();
  std::size_t before = 0;
  {
    common::NullLockGuard lock(mu_);
    before = completions_.size();
    AdmitEligible();
  }
  while (true) {
    {
      common::NullLockGuard lock(mu_);
      if (running_.empty() && queued_.empty()) break;
      if (running_.empty()) {
        // Nothing running and requests still queued: only legitimate when
        // some request is waiting out a retry backoff (its wake event is
        // in the simulator, so Run() below makes progress).
        const SimTime now = cluster_.Simulator().Now();
        const bool backing_off = std::any_of(
            queued_.begin(), queued_.end(),
            [&](const Request& r) { return r.not_before > now; });
        VEC_CHECK_MSG(backing_off,
                      "scheduler stuck: queued migrations can never be "
                      "admitted (check caps and VM placement)");
      }
    }
    // The event loop runs outside the scheduler capability: session
    // completion callbacks re-enter the scheduler (OnSessionFinished),
    // and under a real lock that re-entry must find it free.
    cluster_.Simulator().Run();
    common::NullLockGuard lock(mu_);
    retired_.clear();
    // The event loop only drains when every running session finished;
    // completions may have queued fresh submissions via callbacks.
    AdmitEligible();
  }
  common::NullLockGuard lock(mu_);
  retired_.clear();
  return completions_.size() - before;
}

std::size_t MigrationScheduler::DrainSharded() {
  std::size_t before = 0;
  const SimDuration lookahead = ShardLookahead();
  {
    common::NullLockGuard lock(mu_);
    before = completions_.size();
    // Shard clocks may have advanced since the last drain (AdvanceAllTo
    // between waves); admissions must not start sessions in their past.
    control_now_ = std::max(control_now_, pdes_->MaxNow());
  }
  while (true) {
    {
      common::NullLockGuard lock(mu_);
      AdmitEligible();
      if (running_.empty() && queued_.empty()) break;
      if (running_.empty()) {
        const SimTime now = control_now_;
        const bool backing_off = std::any_of(
            queued_.begin(), queued_.end(),
            [&](const Request& r) { return r.not_before > now; });
        VEC_CHECK_MSG(backing_off,
                      "scheduler stuck: queued migrations can never be "
                      "admitted (check caps and VM placement)");
        // A backoff saturated to the end of simulated time never
        // expires; spinning the window loop on it would hang.
        const bool reachable = std::any_of(
            queued_.begin(), queued_.end(), [](const Request& r) {
              return r.not_before < SimTime::max();
            });
        VEC_CHECK_MSG(reachable,
                      "scheduler stuck: every queued migration's retry "
                      "backoff saturated to the end of simulated time");
      }
    }
    // The window loop runs outside the scheduler capability: ControlStep
    // re-enters the scheduler at every barrier, and under a real lock
    // that re-entry must find it free.
    pdes_->Run(workers_, lookahead,
               [this](SimTime now) { return ControlStep(now); });
    common::NullLockGuard lock(mu_);
    retired_.clear();
    // Run() only returns when no shard has events and no retry deadline
    // pends; a session still running at that point is wedged for good.
    VEC_CHECK_MSG(running_.empty(),
                  "scheduler stuck: sessions still running after every "
                  "shard's event queue drained");
  }
  common::NullLockGuard lock(mu_);
  retired_.clear();
  return completions_.size() - before;
}

SimTime MigrationScheduler::ControlStep(SimTime now) {
  // Collect the window's lifecycle notifications from every shard and
  // process them in (when, id) order — session ids are unique, so the
  // order is total and independent of worker interleaving.
  std::vector<sched_internal::ControlEvent> events;
  for (const auto& outbox : outboxes_) {
    common::LockGuard lock(outbox->mu);
    events.insert(events.end(), outbox->events.begin(),
                  outbox->events.end());
    outbox->events.clear();
  }
  std::sort(events.begin(), events.end(),
            [](const sched_internal::ControlEvent& a,
               const sched_internal::ControlEvent& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.id < b.id;
            });
  // Each completed session's outcome — the end-state check and the audit
  // fold into its source shard's auditor — is taken on that shard's
  // worker, in (when, id) order within the shard, so every auditor folds
  // what it folded when the coordinator took them all in that order.
  std::vector<migration::MigrationOutcome> outcomes(events.size());
  std::vector<std::vector<std::pair<migration::MigrationSession*,
                                    migration::MigrationOutcome*>>>
      takes(pdes_->ShardCount());
  {
    common::NullLockGuard lock(mu_);
    control_now_ = now;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].failed) continue;
      const auto it = running_.find(events[i].id);
      VEC_CHECK_MSG(it != running_.end(), "completion for unknown session");
      takes[it->second.src_shard].emplace_back(it->second.session.get(),
                                               &outcomes[i]);
    }
  }
  pdes_->ForEachShard([&takes](sim::ShardId shard) {
    for (const auto& [session, outcome] : takes[shard]) {
      *outcome = session->TakeOutcome();
    }
  });
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].failed) {
      OnSessionFailed(events[i].id, events[i].when);
    } else {
      OnSessionFinished(events[i].id, std::move(outcomes[i]));
    }
  }
  common::NullLockGuard lock(mu_);
  // Finished sessions are destroyed at the barrier: no worker is running,
  // and all their in-flight events are already executed or token-guarded.
  retired_.clear();
  AdmitEligible();
  SimTime wake = sim::kNoPendingEvent;
  for (const auto& request : queued_) {
    if (request.not_before > now && request.not_before < wake) {
      wake = request.not_before;
    }
  }
  return wake;
}

SimDuration MigrationScheduler::ShardLookahead() const {
  SimDuration lookahead = SimDuration::max();
  for (const auto& entry : cluster_.Links()) {
    if (plan_.ShardOf(entry.a) == plan_.ShardOf(entry.b)) continue;
    lookahead = std::min(lookahead, entry.link->Config().latency);
  }
  if (lookahead == SimDuration::max()) {
    // No link crosses shards: the shards can never interact, so any
    // positive window works; a fat one keeps barrier counts low.
    return Seconds(1.0);
  }
  VEC_CHECK_MSG(lookahead > SimDuration::zero(),
                "PDES needs positive latency on every cross-shard link");
  return lookahead;
}

}  // namespace vecycle::core
