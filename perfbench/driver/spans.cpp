#include "spans.hpp"

#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> next_epoch{1};

/// The calling thread's buffer in the recorder with epoch `epoch`.
struct ThreadSlot {
  std::uint64_t epoch = 0;
  SpanBuffer* buffer = nullptr;
};
thread_local ThreadSlot this_thread_slot;

std::uint64_t SpanId(const SpanBuffer& buffer, std::size_t index) {
  return (static_cast<std::uint64_t>(buffer.thread + 1) << 40) |
         static_cast<std::uint64_t>(index + 1);
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(next_epoch.fetch_add(1)), t0_(Clock::now()) {
  if (enabled_) (void)ThisThreadBuffer();
}

SpanBuffer& SpanRecorder::ThisThreadBuffer() {
  ThreadSlot& slot = this_thread_slot;
  if (slot.epoch != epoch_) {
    std::lock_guard<std::mutex> lock(mu_);
    SpanBuffer& buffer = buffers_.emplace_back();
    buffer.thread = static_cast<std::uint32_t>(buffers_.size() - 1);
    slot = ThreadSlot{epoch_, &buffer};
  }
  return *slot.buffer;
}

std::int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

SpanRecorder::Scope SpanRecorder::Open(const char* name) {
  Scope scope;
  if (!enabled_) return scope;
  SpanBuffer& buffer = ThisThreadBuffer();
  Span span;
  span.name = name;
  span.thread = buffer.thread;
  span.id = SpanId(buffer, buffer.spans.size());
  span.group = group_.load(std::memory_order_relaxed);
  if (!buffer.open.empty()) {
    span.parent = buffer.spans[buffer.open.back()].id;
  } else if (buffer.thread != 0) {
    span.parent = driver_innermost_.load(std::memory_order_relaxed);
  }
  span.start_ns = NowNs();
  buffer.open.push_back(buffer.spans.size());
  buffer.spans.push_back(span);
  if (buffer.thread == 0) {
    driver_innermost_.store(span.id, std::memory_order_relaxed);
  }
  scope.recorder_ = this;
  scope.buffer_ = &buffer;
  scope.index_ = buffer.open.back();
  return scope;
}

SpanRecorder::Scope::Scope(Scope&& other) noexcept
    : recorder_(other.recorder_),
      buffer_(other.buffer_),
      index_(other.index_) {
  other.recorder_ = nullptr;
  other.buffer_ = nullptr;
}

SpanRecorder::Scope::~Scope() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns = recorder_->NowNs();
  buffer_->open.pop_back();
  if (buffer_->thread == 0) {
    recorder_->driver_innermost_.store(
        buffer_->open.empty() ? 0 : buffer_->spans[buffer_->open.back()].id,
        std::memory_order_relaxed);
  }
}

void SpanRecorder::Scope::SetCount(std::uint64_t count) {
  if (buffer_ != nullptr) buffer_->spans[index_].count = count;
}

void SpanRecorder::Scope::SetInPlace(bool in_place) {
  if (buffer_ != nullptr) buffer_->spans[index_].in_place = in_place;
}

const char* SpanRecorder::InnermostOnThisThread() {
  if (!enabled_) return nullptr;
  const SpanBuffer& buffer = ThisThreadBuffer();
  return buffer.open.empty() ? nullptr
                             : buffer.spans[buffer.open.back()].name;
}

bool SpanRecorder::OnDriverThread() {
  return enabled_ && ThisThreadBuffer().thread == 0;
}

std::vector<Span> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const SpanBuffer& buffer : buffers_) {
    out.insert(out.end(), buffer.spans.begin(), buffer.spans.end());
  }
  return out;
}

std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index_of;
  index_of.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    const auto it = index_of.find(span.parent);
    if (it == index_of.end()) continue;
    if (spans[it->second].thread == span.thread) {
      child_ns[it->second] += span.DurationNs();
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    t.total_ns += spans[i].DurationNs();
    t.self_ns += spans[i].DurationNs() - child_ns[i];
    ++t.calls;
  }
  return totals;
}

std::int64_t TopLevelNs(const std::vector<Span>& spans) {
  std::int64_t total = 0;
  for (const Span& span : spans) {
    if (span.thread == 0 && span.parent == 0) total += span.DurationNs();
  }
  return total;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"group\":%llu,"
                 "\"thread\":%u,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"count\":%llu,\"in_place\":%s}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.group), s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.count),
                 s.in_place ? "true" : "false");
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
