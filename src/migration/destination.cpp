#include "migration/destination.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace vecycle::migration {

DestinationActor::DestinationActor(Params params)
    : params_(std::move(params)) {
  VEC_CHECK(params_.simulator != nullptr);
  VEC_CHECK(params_.reply != nullptr);
  VEC_CHECK(params_.cpu != nullptr);
  VEC_CHECK(params_.page_count > 0);
  VEC_CHECK_MSG(params_.forward_channels >= 1,
                "destination needs at least one forward channel");
  memory_ = std::move(params_.memory);
  if (memory_ == nullptr) {
    memory_ = std::make_unique<vm::GuestMemory>(Pages(params_.page_count),
                                                params_.mode);
  }
  VEC_CHECK_MSG(memory_->PageCount() == params_.page_count &&
                    memory_->Mode() == params_.mode &&
                    memory_->TotalWrites() == 0,
                "destination memory must be fresh, in the source's "
                "geometry and mode");
}

SimTime DestinationActor::Prepare(SimTime start, bool send_bulk_hashes) {
  SimTime ready = start;

  const bool wants_checkpoint = UsesCheckpoint(params_.config.strategy);
  const bool geometry_matches =
      params_.store != nullptr && params_.store->Has(params_.vm_id) &&
      params_.store->Peek(params_.vm_id)->PageCount() == params_.page_count;
  if (wants_checkpoint && params_.store != nullptr &&
      params_.store->Has(params_.vm_id) && !geometry_matches) {
    // The VM was resized since it last left this host; its old checkpoint
    // cannot seed the new geometry. Drop it and run a cold migration.
    params_.store->Drop(params_.vm_id);
  }
  if (wants_checkpoint && geometry_matches) {
    // A checkpoint that fails the §3.3 integrity scan is still used: its
    // checksum index covers the content actually on disk, so the
    // damaged pages simply miss every lookup and degrade per page to a
    // resend over the wire, instead of the whole migration going cold.
    // Sequential scan of the image (disk) pipelined with per-block
    // checksum computation (CPU); the slower of the two gates readiness.
    const auto load = params_.store->Load(params_.vm_id, start);
    checkpoint_ = load.checkpoint;
    disk_read_errors_ += load.read_retries;
    ready = load.ready_at;
    if (UsesContentHashes(params_.config.strategy)) {
      const Bytes image = checkpoint_->SizeOnDisk();
      const SimTime hashed =
          params_.cpu->Hash(start, image, params_.config.algorithm);
      hashed_bytes_ += image;
      ready = std::max(ready, hashed);
    }
    checkpoint_->RestoreInto(*memory_);
    restored_from_checkpoint_ = true;
  }

  setup_time_ = ready - start;
  work_done_ = ready;

  if (send_bulk_hashes) {
    const DigestMap& index = Index();
    VEC_CHECK_MSG(!index.Empty(),
                  "bulk hash exchange requires a checkpoint index");
    // The distinct digests in slot order: the source only tests
    // membership, and the wire size is count x digest size.
    net::Message bulk;
    bulk.type = net::MessageType::kBulkHashes;
    bulk.bulk_hashes = index.Keys();
    params_.reply->Send(std::move(bulk), ready);
  }
  return ready;
}

const DigestMap& DestinationActor::Index() {
  if (!index_.has_value()) {
    index_ = checkpoint_ == nullptr
                 ? DigestMap{}
                 : checkpoint_->Index(params_.mode, params_.config.algorithm);
  }
  return *index_;
}

void DestinationActor::OnMessage(net::Message&& message, SimTime arrival) {
  VEC_CHECK_MSG(message.session == params_.session_id,
                "message routed to the wrong migration session (destination)");
  switch (message.type) {
    case net::MessageType::kPageBatch:
      ApplyBatch(message, arrival);
      // A resend batch that retires the last outstanding request while a
      // done message already arrived completes the migration now.
      if (done_pending_ && outstanding_resends_ == 0 &&
          resend_pending_.empty()) {
        done_pending_ = false;
        Complete(std::max(arrival, done_arrival_));
      }
      break;
    case net::MessageType::kRoundEnd: {
      // One marker per forward channel (multifd); the round is over only
      // when the last channel's marker lands — its data is then fully
      // applied, because each channel delivers in FIFO order.
      ++round_end_seen_;
      round_end_latest_ = std::max(round_end_latest_, arrival);
      if (round_end_seen_ < params_.forward_channels) break;
      round_end_seen_ = 0;
      net::Message ack;
      ack.type = net::MessageType::kRoundAck;
      ack.round = message.round;
      params_.reply->Send(std::move(ack),
                          std::max(round_end_latest_, work_done_));
      round_end_latest_ = kSimEpoch;
      break;
    }
    case net::MessageType::kDone: {
      VEC_CHECK_MSG(!completed_ && !done_pending_, "duplicate done message");
      ++done_seen_;
      done_arrival_ = std::max(done_arrival_, arrival);
      if (done_seen_ < params_.forward_channels) break;
      if (outstanding_resends_ > 0 || !resend_pending_.empty()) {
        // Fallback pages are still in flight (FIFO puts their full
        // content behind this done): resume only once they land.
        done_pending_ = true;
        break;
      }
      Complete(done_arrival_);
      break;
    }
    case net::MessageType::kBulkHashes:
    case net::MessageType::kRoundAck:
    case net::MessageType::kDoneAck:
    case net::MessageType::kResendRequest:
      VEC_CHECK_MSG(false, "unexpected message at migration destination");
  }
}

void DestinationActor::Complete(SimTime at) {
  completed_ = true;
  const SimTime resume = std::max(at, work_done_);
  net::Message ack;
  ack.type = net::MessageType::kDoneAck;
  params_.reply->Send(std::move(ack), resume);
  if (on_complete) on_complete(resume);
}

void DestinationActor::RequestResend(vm::PageId page, bool from_delta) {
  resend_pending_.push_back(page);
  if (from_delta) {
    ++delta_fallback_requested_;
  } else {
    ++fallback_requested_;
  }
}

void DestinationActor::ApplyBatch(const net::Message& message,
                                  SimTime arrival) {
  VEC_CHECK_MSG(!completed_, "page batch after done");
  std::uint64_t decompress_bytes = 0;
  std::uint64_t delta_decode_bytes = 0;
  for (const auto& record : message.records) {
    if (record.is_delta) {
      delta_decode_bytes += kPageSize;  // patch the baseline page
    } else if (record.has_payload && record.payload_wire_bytes < kPageSize) {
      decompress_bytes += kPageSize;  // inflate back to the full page
    }
    ApplyRecord(record, arrival);
  }
  if (decompress_bytes > 0) {
    const SimTime done = params_.cpu->Work(
        std::max(arrival, work_done_), Bytes{decompress_bytes},
        params_.config.compression.decompress_rate);
    work_done_ = std::max(work_done_, done);
  }
  if (delta_decode_bytes > 0) {
    const SimTime done = params_.cpu->Work(
        std::max(arrival, work_done_), Bytes{delta_decode_bytes},
        params_.config.delta.decode_rate);
    work_done_ = std::max(work_done_, done);
  }
  if (!resend_pending_.empty()) {
    // One request per applied batch: every page this batch could not
    // satisfy locally goes back to the source for full content.
    outstanding_resends_ += resend_pending_.size();
    net::Message request;
    request.type = net::MessageType::kResendRequest;
    request.resend_pages = std::move(resend_pending_);
    resend_pending_.clear();
    params_.reply->Send(std::move(request), std::max(arrival, work_done_));
  }
}

void DestinationActor::ApplyRecord(const net::PageRecord& record,
                                   SimTime arrival) {
  VEC_CHECK_MSG(record.page < memory_->PageCount(),
                "page record out of range");

  if (record.is_resend) {
    // Full content answering an earlier resend request.
    VEC_CHECK_MSG(outstanding_resends_ > 0,
                  "resend record without an outstanding request");
    --outstanding_resends_;
    memory_->WritePage(record.page, record.content_seed);
    return;
  }

  if (record.is_delta) {
    // XBZRLE-style delta: only applicable against the exact content the
    // source encoded it from. When the recycled checkpoint rotted, the
    // restored page differs from the source's departure-time view — the
    // baseline check fails and the page degrades to the resend path
    // instead of silently patching the wrong bytes.
    if (memory_->Seed(record.page) != record.baseline_seed) {
      RequestResend(record.page, /*from_delta=*/true);
      return;
    }
    memory_->WritePage(record.page, record.content_seed);
    return;
  }

  if (record.has_payload || record.is_dup_ref || record.is_zero) {
    // Full content (directly, via the dedup cache, or the implicit zero
    // page). Memory writes are free at simulation granularity.
    memory_->WritePage(record.page, record.content_seed);
    return;
  }

  // Checksum-only record — Listing 1. Verify the locally initialized page
  // first (one 4 KiB checksum), then fall back to the checkpoint.
  const SimTime hashed = params_.cpu->Hash(
      std::max(arrival, work_done_), Bytes{kPageSize},
      params_.config.algorithm);
  hashed_bytes_ += Bytes{kPageSize};
  work_done_ = std::max(work_done_, hashed);

  const Digest128 local =
      memory_->PageDigest(record.page, params_.config.algorithm);
  if (local == record.digest) {
    ++pages_matched_in_place_;
    return;
  }

  const std::uint64_t* offset = Index().Find(record.digest);
  if (offset == nullptr) {
    // Checkpoint rot/truncation: the index covers the content actually
    // on disk, so a damaged page's true digest misses. Degrade per page
    // — request the full content back — instead of aborting.
    RequestResend(record.page);
    return;
  }
  VEC_CHECK(checkpoint_ != nullptr);
  bool read_error = false;
  // Chunk-aware read: in chunked mode the block routes through the SSD
  // tier for the chunk holding this checkpoint offset (hit, or a
  // backing-disk miss that promotes the chunk); flat mode books the
  // classic random 4 KiB read.
  const SimTime read = params_.store->ReadBlock(
      params_.vm_id, *offset, std::max(arrival, work_done_), &read_error);
  work_done_ = std::max(work_done_, read);
  if (read_error) {
    // The block read hit an injected disk-error window; the disk time is
    // spent but the data cannot be trusted.
    ++disk_read_errors_;
    RequestResend(record.page);
    return;
  }
  const std::uint64_t seed = checkpoint_->SeedAt(*offset);
  // Cross-check the protocol invariant: the checkpoint block the index
  // points at really carries the content the source named.
  VEC_CHECK_MSG(checkpoint_->DigestAt(*offset, params_.mode,
                                      params_.config.algorithm) ==
                    record.digest,
                "checkpoint block does not carry the content its index "
                "entry promises");
  memory_->WritePage(record.page, seed);
  ++pages_from_checkpoint_;
}

}  // namespace vecycle::migration
