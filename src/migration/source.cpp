#include "migration/source.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"
#include "storage/chunk_store.hpp"

namespace vecycle::migration {

SourceActor::SourceActor(Params params) : params_(std::move(params)) {
  VEC_CHECK(params_.simulator != nullptr);
  VEC_CHECK_MSG(!params_.channels.empty(), "source needs a forward channel");
  for (auto* channel : params_.channels) VEC_CHECK(channel != nullptr);
  VEC_CHECK(params_.cpu != nullptr);
  VEC_CHECK(params_.memory != nullptr);
  params_.config.Validate();
  VEC_CHECK_MSG(params_.channels.size() ==
                    params_.config.multifd.ActiveChannels(),
                "channel count does not match the multifd config");
  stats_.multifd_channels =
      static_cast<std::uint32_t>(params_.channels.size());
  if (!params_.departure_generations.empty()) {
    VEC_CHECK_MSG(
        params_.departure_generations.size() == params_.memory->PageCount(),
        "departure generation vector does not match memory geometry");
  }
  if (params_.config.delta.enabled) {
    if (!params_.departure_seeds.empty()) {
      VEC_CHECK_MSG(
          params_.departure_seeds.size() == params_.memory->PageCount(),
          "departure seed vector does not match memory geometry");
      dest_view_ = params_.departure_seeds;
    } else {
      dest_view_.assign(params_.memory->PageCount(), vm::kZeroPageSeed);
    }
  }
}

bool SourceActor::DestHas(const Digest128& digest) const {
  return params_.dest_digests != nullptr &&
         params_.dest_digests->Contains(digest);
}

void SourceActor::Start(SimTime start) {
  VEC_CHECK_MSG(!started_, "source started twice");
  started_ = true;
  round1_start_ = start;
  last_send_ = start;
  if (on_started) on_started(start);
  BeginRound(start, {}, /*final_round=*/false);
}

void SourceActor::OnMessage(net::Message&& message, SimTime arrival) {
  VEC_CHECK_MSG(message.session == params_.session_id,
                "message routed to the wrong migration session (source)");
  switch (message.type) {
    case net::MessageType::kBulkHashes: {
      VEC_CHECK_MSG(!started_, "bulk hashes after round 1 started");
      stats_.bulk_exchange_bytes +=
          message.WireSize(params_.config.algorithm);
      // The hash table needs no sort: the digests go straight from the
      // wire into the probe table.
      params_.dest_digests =
          std::make_shared<const DigestMap>(message.bulk_hashes);
      Start(arrival);
      break;
    }
    case net::MessageType::kRoundAck:
      OnRoundAck(arrival);
      break;
    case net::MessageType::kDoneAck:
      if (round_span_open_) {
        params_.tracer->EndSpan(round_span_, arrival);
        round_span_open_ = false;
      }
      if (on_finished) on_finished(arrival);
      break;
    case net::MessageType::kResendRequest:
      ServeResend(message.resend_pages, arrival);
      break;
    case net::MessageType::kPageBatch:
    case net::MessageType::kRoundEnd:
    case net::MessageType::kDone:
      VEC_CHECK_MSG(false, "unexpected message at migration source");
  }
}

void SourceActor::ServeResend(const std::vector<vm::PageId>& pages,
                              SimTime arrival) {
  VEC_CHECK_MSG(!pages.empty(), "empty resend request");
  auto& memory = *params_.memory;
  const std::size_t nchan = params_.channels.size();
  // Resends ride the channel their page stripes to: per-channel FIFO
  // ordering then guarantees the full content lands after the record the
  // destination could not satisfy, just like the single-stream engine.
  std::vector<net::Message> per_channel(nchan);
  for (const vm::PageId page : pages) {
    VEC_CHECK_MSG(page < memory.PageCount(), "resend request out of range");
    net::PageRecord record;
    record.page = page;
    record.content_seed = memory.Seed(page);
    record.is_resend = true;
    record.has_digest = false;
    record.is_zero = record.content_seed == vm::kZeroPageSeed;
    record.has_payload = !record.is_zero;
    per_channel[page % nchan].records.push_back(record);
    NoteDestContent(page, record.content_seed);
    ++stats_.fallback_pages;
  }
  // Live memory is authoritative: if the page was dirtied since its
  // checksum-only classification, a later round (or the stop-and-copy)
  // re-sends it anyway, and FIFO ordering means the newest content
  // always lands last.
  last_send_ =
      std::max(last_send_, std::max(arrival, params_.simulator->Now()));
  for (std::size_t k = 0; k < nchan; ++k) {
    if (per_channel[k].records.empty()) continue;
    per_channel[k].type = net::MessageType::kPageBatch;
    per_channel[k].round = round_;
    params_.channels[k]->Send(std::move(per_channel[k]), last_send_);
  }
}

bool SourceActor::ClassifyFirstRoundPage(vm::PageId page,
                                         net::PageRecord& record,
                                         std::uint64_t& hash_bytes) {
  auto& memory = *params_.memory;
  const Strategy strategy = params_.config.strategy;

  // Miyakodori skip: generation counter unchanged since the VM left the
  // destination host — the destination's checkpoint copy is still valid
  // and nothing needs to travel. No checksum is ever computed.
  if (UsesDirtyTracking(strategy) && !params_.departure_generations.empty() &&
      memory.Generation(page) == params_.departure_generations[page]) {
    ++stats_.pages_skipped_clean;
    // The destination restores this page from its pristine checkpoint,
    // whose content the unchanged generation proves equals the live seed.
    NoteDestContent(page, memory.Seed(page));
    return false;
  }

  record = net::PageRecord{};
  record.page = page;
  record.content_seed = memory.Seed(page);

  // Zero-page elision, which every implementation performs.
  if (record.content_seed == vm::kZeroPageSeed) {
    record.is_zero = true;
    record.has_payload = false;
    record.has_digest = false;
    ++stats_.pages_sent_full;  // counted as a (trivially small) content send
    NoteDestContent(page, record.content_seed);
    return true;
  }

  // VeCycle: one strong checksum per page, compared against the set of
  // pages existing at the destination (§3.2). In bulk mode the source
  // holds the set locally; in per-page-query mode it asks the destination
  // and cannot proceed past `query_window` unanswered questions — the
  // protocol variant the paper expected to be slow.
  if (UsesContentHashes(strategy)) {
    // The migration's algorithm, in the memory's mode — exactly what the
    // destination's checkpoint index and in-place check compute.
    record.digest = memory.PageDigest(page, params_.config.algorithm);
    hash_bytes += kPageSize;
    bool dest_has;
    if (params_.query_oracle != nullptr) {
      // Window control: at most query_window questions in flight. The
      // link's FIFO serializes the query frames themselves.
      SimTime earliest = round_start_;
      if (query_pipeline_.size() >= params_.config.query_window) {
        earliest = std::max(earliest, query_pipeline_.front());
        query_pipeline_.pop_front();
      }
      const SimTime answered = params_.query_transport(earliest);
      query_pipeline_.push_back(answered);
      // Page data referencing this answer cannot leave before it arrives;
      // FlushBatch folds this into the batch send time.
      query_ready_pending_ = std::max(query_ready_pending_, answered);
      ++stats_.query_count;
      // Query: header + digest out; header + one-byte verdict back.
      stats_.query_bytes += Bytes{net::kRecordHeaderBytes +
                                  WireSizeBytes(params_.config.algorithm) +
                                  net::kRecordHeaderBytes + 1};
      dest_has = params_.query_oracle(record.digest);
    } else {
      dest_has = DestHas(record.digest);
    }
    if (dest_has) {
      record.has_payload = false;
      record.has_digest = true;
      ++stats_.pages_sent_checksum;
      NoteDestContent(page, record.content_seed);
      return true;
    }
  }

  // Sender-side dedup: identical content already transmitted during this
  // migration travels as a cache reference. The probe hash is cheap
  // (FNV-class) and candidates are verified by local byte comparison,
  // which the model gets for free because seed equality is content
  // equality; the probe cost is charged at the FNV rate per batch.
  if (UsesDedup(strategy)) {
    fnv_bytes_pending_ += kPageSize;
    auto& cache = DedupCache();
    // Keyed by the chunk store's content identity (single-page chunk
    // digest), so gang caches and the destination's dedup store agree on
    // what "same content" means. A key collision merely turns a record
    // into a dup_ref, which still carries the real content seed.
    const bool inserted =
        cache
            .try_emplace(storage::ChunkContentKey(record.content_seed),
                         cache.size())
            .second;
    if (!inserted) {
      record.is_dup_ref = true;
      record.has_payload = false;
      record.has_digest = false;
      ++stats_.pages_dup_ref;
      NoteDestContent(page, record.content_seed);
      return true;
    }
  }

  if (TryDelta(record)) {
    record.has_digest = UsesContentHashes(strategy);
    ++stats_.pages_sent_full;  // delta is still a content send
    NoteDestContent(page, record.content_seed);
    return true;
  }

  record.has_payload = true;
  record.has_digest = UsesContentHashes(strategy);
  MaybeCompress(record);
  ++stats_.pages_sent_full;
  NoteDestContent(page, record.content_seed);
  return true;
}

void SourceActor::MaybeCompress(net::PageRecord& record) {
  const auto& compression = params_.config.compression;
  // Delta payloads are already the output of a codec; compressing them
  // again would double-count (QEMU's xbzrle and compress capabilities are
  // likewise applied per page, not stacked).
  if (!compression.enabled || !record.has_payload || record.is_delta) return;
  // Per-page compressibility derived deterministically from the content
  // identity: some pages squeeze well, some barely at all.
  const double unit =
      static_cast<double>(SplitMix64(record.content_seed ^ 0xc0dec0deull)
                              .Next() >>
                          11) *
      0x1.0p-53;
  const double ratio =
      std::clamp(compression.mean_ratio +
                     (unit * 2.0 - 1.0) * compression.ratio_jitter,
                 0.05, 1.0);
  record.payload_wire_bytes =
      static_cast<std::uint32_t>(ratio * static_cast<double>(kPageSize));
  compress_bytes_pending_ += kPageSize;
  stats_.payload_bytes_original += Bytes{kPageSize};
  stats_.payload_bytes_on_wire += Bytes{record.payload_wire_bytes};
}

net::PageRecord SourceActor::FullRecord(vm::PageId page) {
  auto& memory = *params_.memory;
  net::PageRecord record;
  record.page = page;
  record.content_seed = memory.Seed(page);
  record.has_digest = false;
  if (record.content_seed == vm::kZeroPageSeed) {
    record.is_zero = true;
    NoteDestContent(page, record.content_seed);
    return record;
  }
  if (UsesDedup(params_.config.strategy)) {
    fnv_bytes_pending_ += kPageSize;
    auto& cache = DedupCache();
    // Same chunk-digest content key as the round-1 probe above.
    const bool inserted =
        cache
            .try_emplace(storage::ChunkContentKey(record.content_seed),
                         cache.size())
            .second;
    if (!inserted) {
      record.is_dup_ref = true;
      NoteDestContent(page, record.content_seed);
      return record;
    }
  }
  if (TryDelta(record)) {
    NoteDestContent(page, record.content_seed);
    return record;
  }
  record.has_payload = true;
  MaybeCompress(record);
  NoteDestContent(page, record.content_seed);
  return record;
}

bool SourceActor::TryDelta(net::PageRecord& record) {
  const auto& delta = params_.config.delta;
  if (!delta.enabled) return false;
  const std::uint64_t baseline = dest_view_[record.page];
  // Deltas against the zero page (or a page whose destination content is
  // unknown) are the page itself: nothing to reuse, and the full-page
  // path handles that case better.
  if (baseline == vm::kZeroPageSeed) return false;
  double ratio;
  if (baseline == record.content_seed) {
    // Unchanged content: the delta degenerates to a header-sized "no
    // change" token (possible under the kFull/kQemu strategies, which
    // have no checksum path to elide such pages).
    ratio = 16.0 / static_cast<double>(kPageSize);
  } else {
    // Per-page encodability derived deterministically from the two
    // contents, same idiom as MaybeCompress.
    const double unit =
        static_cast<double>(
            SplitMix64((baseline * 0x9e3779b97f4a7c15ull) ^
                       record.content_seed ^ 0xde17ac0deull)
                .Next() >>
            11) *
        0x1.0p-53;
    ratio = std::clamp(
        delta.mean_ratio + (unit * 2.0 - 1.0) * delta.ratio_jitter, 0.02,
        1.0);
  }
  // Oversized deltas fall back to the full page (QEMU's xbzrle overflow).
  if (ratio > delta.max_ratio) return false;
  record.is_delta = true;
  record.has_payload = true;
  record.baseline_seed = baseline;
  record.payload_wire_bytes = static_cast<std::uint32_t>(
      std::max(16.0, ratio * static_cast<double>(kPageSize)));
  delta_bytes_pending_ += kPageSize;
  ++stats_.pages_sent_delta;
  stats_.delta_bytes_original += Bytes{kPageSize};
  stats_.delta_bytes_on_wire += Bytes{record.payload_wire_bytes};
  return true;
}

void SourceActor::NoteDestContent(vm::PageId page, std::uint64_t seed) {
  if (!params_.config.delta.enabled) return;
  dest_view_[page] = seed;
}

Bytes SourceActor::TotalPayloadSent() const {
  Bytes total;
  for (const auto* channel : params_.channels) {
    total += channel->PayloadSent();
  }
  return total;
}

SimTime SourceActor::FlushBatch(std::vector<net::PageRecord>& records,
                                std::uint64_t hash_bytes,
                                std::uint32_t round) {
  if (records.empty()) return kSimEpoch;
  SimTime ready = last_send_;
  if (hash_bytes > 0) {
    ready = params_.cpu->Hash(last_send_, Bytes{hash_bytes},
                              params_.config.algorithm);
    stats_.source_hashed_bytes += Bytes{hash_bytes};
  }
  if (fnv_bytes_pending_ > 0) {
    ready = std::max(ready,
                     params_.cpu->Hash(last_send_, Bytes{fnv_bytes_pending_},
                                       DigestAlgorithm::kFnv1a));
    fnv_bytes_pending_ = 0;
  }
  if (compress_bytes_pending_ > 0) {
    ready = std::max(
        ready, params_.cpu->Work(last_send_, Bytes{compress_bytes_pending_},
                                 params_.config.compression.compress_rate));
    compress_bytes_pending_ = 0;
  }
  if (delta_bytes_pending_ > 0) {
    ready = std::max(ready,
                     params_.cpu->Work(last_send_, Bytes{delta_bytes_pending_},
                                       params_.config.delta.encode_rate));
    delta_bytes_pending_ = 0;
  }
  // In per-page-query mode a batch may not leave before the destination
  // has answered for every page it contains.
  ready = std::max(ready, query_ready_pending_);
  last_send_ = std::max(last_send_,
                        std::max(ready, params_.simulator->Now()));
  const std::size_t nchan = params_.channels.size();
  if (nchan == 1) {
    net::Message msg;
    msg.type = net::MessageType::kPageBatch;
    msg.round = round;
    msg.records = std::move(records);
    records.clear();
    return params_.channels[0]->Send(std::move(msg), last_send_);
  }
  // Multifd: stripe the batch across the streams by page index. Each
  // stream is its own TCP connection with its own window pacing, so the
  // aggregate can exceed the single-stream window cap.
  std::vector<std::vector<net::PageRecord>> parts(nchan);
  for (const auto& record : records) {
    parts[record.page % nchan].push_back(record);
  }
  records.clear();
  SimTime last_arrival = kSimEpoch;
  for (std::size_t k = 0; k < nchan; ++k) {
    if (parts[k].empty()) continue;
    net::Message msg;
    msg.type = net::MessageType::kPageBatch;
    msg.round = round;
    msg.records = std::move(parts[k]);
    last_arrival = std::max(
        last_arrival, params_.channels[k]->Send(std::move(msg), last_send_));
  }
  return last_arrival;
}

void SourceActor::BeginRound(SimTime start, std::vector<vm::PageId> pages,
                             bool final_round) {
  ++round_;
  round_start_ = start;
  round_tx_mark_ = TotalPayloadSent();
  last_send_ = std::max(last_send_, start);
  round_snapshot_ = vm::DirtySnapshot(*params_.memory);
  round_pages_ = std::move(pages);
  cursor_ = 0;
  round_is_final_ = final_round;
  stats_.rounds = round_;
  if (params_.tracer != nullptr) {
    auto& tracer = *params_.tracer;
    const std::string label =
        final_round ? "round " + std::to_string(round_) + " (stop-and-copy)"
                    : "round " + std::to_string(round_);
    round_span_ =
        tracer.BeginSpan(params_.trace_track, tracer.Name(label), start);
    round_span_open_ = true;
    const std::uint64_t pending =
        round_ == 1 ? params_.memory->PageCount() : round_pages_.size();
    tracer.Arg(tracer.Name("pages"), pending);
  }
  params_.simulator->ScheduleAt(std::max(start, params_.simulator->Now()),
                                Guarded([this] { PumpBatches(); }));
}

void SourceActor::PumpBatches() {
  auto& memory = *params_.memory;
  const bool first_round = round_ == 1;
  const std::uint64_t limit =
      first_round ? memory.PageCount() : round_pages_.size();

  std::vector<net::PageRecord> batch;
  batch.reserve(params_.config.batch_pages);
  std::uint64_t hash_bytes = 0;
  while (cursor_ < limit && batch.size() < params_.config.batch_pages) {
    if (first_round) {
      net::PageRecord record;
      if (ClassifyFirstRoundPage(cursor_, record, hash_bytes)) {
        batch.push_back(record);
      }
    } else {
      batch.push_back(FullRecord(round_pages_[cursor_]));
      ++stats_.pages_resent_dirty;
    }
    ++cursor_;
  }

  const SimTime arrival = FlushBatch(batch, hash_bytes, round_);

  if (cursor_ < limit) {
    SimTime next = params_.simulator->Now();
    if (arrival != kSimEpoch) {
      if (params_.channels.size() == 1) {
        // Yield the link until this batch's last byte is serialized;
        // other traffic (e.g. a concurrent migration) can slot in
        // between.
        next = std::max(next, arrival - params_.channels[0]->Latency());
      } else {
        // Multifd: the streams pace themselves (window cap); produce the
        // next batch when the least-loaded stream may inject again, so
        // the pump neither runs ahead of the wire nor starves it.
        SimTime min_slot = params_.channels[0]->NextStreamSlot();
        for (const auto* channel : params_.channels) {
          min_slot = std::min(min_slot, channel->NextStreamSlot());
        }
        next = std::max(next, min_slot);
      }
    }
    params_.simulator->ScheduleAt(next, Guarded([this] { PumpBatches(); }));
    return;
  }
  FinishRound();
}

void SourceActor::FinishRound() {
  // One marker per channel (QEMU's MULTIFD_FLUSH): per-channel FIFO
  // ordering puts each marker behind that channel's data, and the
  // destination acts only once every channel's marker has arrived.
  for (auto* channel : params_.channels) {
    net::Message end;
    end.round = round_;
    end.type = round_is_final_ ? net::MessageType::kDone
                               : net::MessageType::kRoundEnd;
    channel->Send(std::move(end), last_send_);
  }
  if (round_is_final_) final_sent_ = true;
}

void SourceActor::OnRoundAck(SimTime arrival) {
  VEC_CHECK_MSG(!final_sent_, "round ack after done");
  auto& memory = *params_.memory;

  // The guest ran while the round was in flight; apply its writes now.
  const SimDuration elapsed = arrival - round_start_;
  if (params_.workload != nullptr && elapsed > SimDuration::zero()) {
    params_.workload->Advance(memory, elapsed);
  }

  const auto dirty = round_snapshot_.DirtyPages(memory);
  const bool out_of_rounds = round_ + 1 >= params_.config.max_rounds;
  const bool small_enough =
      dirty.size() <= params_.config.stop_copy_threshold_pages;

  // Auto-converge (QEMU's capability of the same name): when the guest
  // dirties faster than the wire drains, progressively force-idle its
  // vCPUs so the dirty set shrinks and pre-copy terminates. The throttle
  // persists until the migration ends (the engine restores full speed).
  const auto& converge = params_.config.auto_converge;
  if (converge.enabled && params_.workload != nullptr && !small_enough &&
      !out_of_rounds) {
    const Bytes sent = TotalPayloadSent() - round_tx_mark_;
    const double dirtied_bytes =
        static_cast<double>(dirty.size()) * static_cast<double>(kPageSize);
    const bool diverging =
        sent.count > 0 &&
        dirtied_bytes >
            converge.divergence_ratio * static_cast<double>(sent.count);
    if (diverging) {
      ++diverge_streak_;
      if (diverge_streak_ >= converge.trigger_rounds) {
        const std::uint32_t steps = diverge_streak_ - converge.trigger_rounds;
        throttle_ = std::min(
            converge.max_throttle,
            converge.initial_throttle +
                static_cast<double>(steps) * converge.throttle_increment);
      }
    } else {
      diverge_streak_ = 0;
    }
    if (throttle_ > 0.0) {
      params_.workload->SetThrottle(1.0 - throttle_);
      ++stats_.throttle_rounds;
      stats_.max_throttle = std::max(stats_.max_throttle, throttle_);
      if (params_.tracer != nullptr) {
        params_.tracer->Counter(params_.trace_track,
                                params_.tracer->Name("cpu_throttle"), arrival,
                                throttle_);
      }
    }
  }

  if (params_.tracer != nullptr) {
    auto& tracer = *params_.tracer;
    if (round_span_open_) {
      tracer.EndSpan(round_span_, arrival);
      round_span_open_ = false;
    }
    tracer.Counter(params_.trace_track, tracer.Name("dirty_pages"), arrival,
                   static_cast<double>(dirty.size()));
  }

  if (small_enough || out_of_rounds) {
    // Stop-and-copy: pause the VM (no more dirtying) and ship the rest.
    pause_time_ = arrival;
    if (on_pause) on_pause(arrival);
    BeginRound(arrival, dirty, /*final_round=*/true);
  } else {
    BeginRound(arrival, dirty, /*final_round=*/false);
  }
}

}  // namespace vecycle::migration
