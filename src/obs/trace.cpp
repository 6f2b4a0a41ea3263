#include "obs/trace.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

#include "util/status.h"

namespace swapserve::obs {

// The ring is allocated without initialization and slots are copied whole.
static_assert(std::is_trivially_copyable_v<TraceRecord>);
static_assert(std::is_trivially_default_constructible_v<TraceRecord>);

Span::Span(TraceRecorder* recorder, std::string_view name,
           std::string_view category, std::string_view track) {
  if (recorder == nullptr || !recorder->enabled()) return;
  recorder_ = recorder;
  record_.phase = TraceEvent::Phase::kComplete;
  record_.ts_ns = recorder->Now().ns();
  record_.name = recorder->Intern(name);
  record_.category = recorder->Intern(category);
  record_.track = recorder->Intern(track);
}

void Span::Append(const TraceArg& arg) {
  recorder_->AppendArg(record_, arg);
}

void Span::End() {
  if (recorder_ == nullptr) return;
  TraceRecorder* rec = std::exchange(recorder_, nullptr);
  record_.dur_ns = rec->Now().ns() - record_.ts_ns;
  rec->Append(record_);
}

TraceRecorder::TraceRecorder(sim::Simulation& sim, std::size_t capacity)
    : sim_(sim),
      capacity_(capacity),
      ring_(std::make_unique_for_overwrite<TraceRecord[]>(capacity)) {
  SWAP_CHECK_MSG(capacity > 0, "trace ring needs a positive capacity");
}

TraceStringId TraceRecorder::Intern(std::string_view s) {
  if (s.empty()) return 0;
  const auto addr = reinterpret_cast<std::uintptr_t>(s.data());
  CacheEntry& slot =
      cache_[((addr ^ s.size()) * 0x9E3779B97F4A7C15ull) >> 56];
  static_assert(kCacheSlots == 256, "the slot index takes the top 8 bits");
  if (slot.data == s.data() && slot.size == s.size() &&
      std::memcmp(slot.interned, s.data(), s.size()) == 0) {
    return slot.id;
  }
  auto it = ids_.find(s);
  if (it == ids_.end()) {
    SWAP_CHECK_MSG(strings_.size() < std::numeric_limits<TraceStringId>::max(),
                   "trace intern table full");
    const std::string& stored = strings_.emplace_back(s);
    it = ids_.emplace(stored, static_cast<TraceStringId>(strings_.size()))
             .first;
  }
  const TraceStringId id = it->second;
  slot = CacheEntry{.data = s.data(),
                    .size = s.size(),
                    .interned = strings_[id - 1].data(),
                    .id = id};
  return id;
}

std::string_view TraceRecorder::Text(TraceStringId id) const {
  return id == 0 ? std::string_view() : std::string_view(strings_[id - 1]);
}

void TraceRecorder::AppendArg(TraceRecord& record, const TraceArg& arg) {
  SWAP_CHECK_MSG(record.arg_count < TraceRecord::kMaxArgs,
                 "trace record holds at most TraceRecord::kMaxArgs args");
  TraceRecord::Arg& out = record.args[record.arg_count++];
  out.key = Intern(arg.key_);
  out.kind = arg.kind_;
  switch (arg.kind_) {
    case TraceRecord::ArgKind::kInt: out.i = arg.i_; break;
    case TraceRecord::ArgKind::kUint: out.u = arg.u_; break;
    case TraceRecord::ArgKind::kDouble: out.d = arg.d_; break;
    case TraceRecord::ArgKind::kText: out.text = Intern(arg.text_); break;
  }
}

void TraceRecorder::Append(const TraceRecord& record) {
  const std::uint64_t slot =
      cursor_.fetch_add(1, std::memory_order_relaxed);
  ring_[static_cast<std::size_t>(slot % capacity_)] = record;
}

void TraceRecorder::Instant(std::string_view name, std::string_view category,
                            std::string_view track,
                            std::initializer_list<TraceArg> args) {
  if (!enabled_) return;
  TraceRecord record{};
  record.phase = TraceEvent::Phase::kInstant;
  record.ts_ns = sim_.Now().ns();
  record.name = Intern(name);
  record.category = Intern(category);
  record.track = Intern(track);
  for (const TraceArg& arg : args) AppendArg(record, arg);
  Append(record);
}

std::size_t TraceRecorder::size() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(total_emitted(), capacity_));
}

std::uint64_t TraceRecorder::dropped() const {
  const std::uint64_t total = total_emitted();
  return total > capacity_ ? total - capacity_ : 0;
}

std::vector<TraceEvent> TraceRecorder::Snapshot() const {
  const std::uint64_t total = total_emitted();
  const std::uint64_t cap = capacity_;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(std::min(total, cap)));
  const std::uint64_t first = total > cap ? total - cap : 0;
  for (std::uint64_t i = first; i < total; ++i) {
    const TraceRecord& r = ring_[static_cast<std::size_t>(i % cap)];
    TraceEvent& ev = out.emplace_back();
    ev.phase = r.phase;
    ev.ts_ns = r.ts_ns;
    ev.dur_ns = r.dur_ns;
    ev.name = Text(r.name);
    ev.category = Text(r.category);
    ev.track = Text(r.track);
    ev.args.reserve(r.arg_count);
    for (std::size_t a = 0; a < r.arg_count; ++a) {
      const TraceRecord::Arg& arg = r.args[a];
      std::string value;
      // The std::to_string overload of the value's type, so a numeric arg
      // reads exactly as the call site's to_string text would.
      switch (arg.kind) {
        case TraceRecord::ArgKind::kInt: value = std::to_string(arg.i); break;
        case TraceRecord::ArgKind::kUint: value = std::to_string(arg.u); break;
        case TraceRecord::ArgKind::kDouble:
          value = std::to_string(arg.d);
          break;
        case TraceRecord::ArgKind::kText: value = Text(arg.text); break;
      }
      ev.args.emplace_back(Text(arg.key), std::move(value));
    }
  }
  return out;
}

}  // namespace swapserve::obs
