// Trace recorder: a fixed-capacity ring of compact span and instant records
// keyed on sim::SimTime, with scoped RAII Span helpers.
//
// The recorder is the repo's answer to "where did the time go?": every hop
// of the request path (router -> scheduler -> checkpoint -> GPU) opens a
// span, so a slow TTFT decomposes into queue wait vs. reservation wait vs.
// D2H drain instead of one opaque number. Records live in a ring so an
// unbounded simulation keeps the most recent window at O(1) per emit; the
// write cursor is a relaxed atomic (single producer).
//
// Recording is cheap enough to leave on (DESIGN.md §7):
//   - Every string a record names (name, category, track, arg keys, text
//     values) is interned once per recorder into an append-only table, and
//     the record keeps its 32-bit id. Intern() checks a small direct-mapped
//     cache keyed on the view's (data pointer, length) before it hashes; a
//     hit counts only when the interned bytes equal the view's, so a reused
//     address can never return a stale id. String literals and owner-held
//     names therefore skip hashing, and only a string the recorder has never
//     seen allocates.
//   - A ring slot is a fixed-size POD record: timestamps, phase, three
//     string ids and up to TraceRecord::kMaxArgs typed args (signed,
//     unsigned, double or interned text). Numbers are stored as numbers, so
//     call sites pass the value itself instead of a std::to_string.
//   - Snapshot() renders records back into TraceEvent, formatting numbers
//     with the std::to_string overload of their type, so exporters and
//     goldens read the same text a string-valued trace produced.
//   - A disabled recorder returns before interning anything.
// Keep request-specific values (ids, byte counts) numeric: the intern table
// is never trimmed, so it stays bounded only by the distinct literals, model,
// node and link names, and status texts a run produces.
//
// Export formats (Chrome trace-event JSON, Prometheus text) live in
// obs/exporters.h.

#pragma once

#include <array>
#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace swapserve::obs {

// A rendered event, as Snapshot() returns it and the exporters read it.
struct TraceEvent {
  // Chrome trace-event phases we emit: complete spans carry their own
  // duration; instants mark point decisions (e.g. "preempt victim X").
  enum class Phase : char { kComplete = 'X', kInstant = 'i' };

  Phase phase = Phase::kComplete;
  std::int64_t ts_ns = 0;   // sim::SimTime at span start / instant
  std::int64_t dur_ns = 0;  // kComplete only
  std::string name;         // e.g. "h2d"
  std::string category;     // e.g. "ckpt"
  std::string track;        // rendered as a named thread ("model", "gpu0")
  std::vector<std::pair<std::string, std::string>> args;
};

// Id of an interned string; meaningful only to the recorder that issued it.
// Id 0 is the empty string.
using TraceStringId = std::uint32_t;

// One ring slot. Trivially copyable and trivially default-constructible:
// the ring is allocated without initialization, and a slot is written in
// full before Snapshot() reads it.
struct TraceRecord {
  // The largest call site (the preemption instant) carries five args.
  static constexpr std::size_t kMaxArgs = 5;

  enum class ArgKind : std::uint8_t { kInt, kUint, kDouble, kText };
  struct Arg {
    TraceStringId key;
    ArgKind kind;
    union {
      std::int64_t i;
      std::uint64_t u;
      double d;
      TraceStringId text;
    };
  };

  std::int64_t ts_ns;
  std::int64_t dur_ns;
  TraceStringId name;
  TraceStringId category;
  TraceStringId track;
  TraceEvent::Phase phase;
  std::uint8_t arg_count;
  std::array<Arg, kMaxArgs> args;
};

// One typed argument as a call site passes it: a key and a signed integer,
// unsigned integer, double or text value. Key and text are views; the
// recorder interns them inside the call, so a view of a temporary is safe.
// A bool is refused at compile time: say what it means as text.
class TraceArg {
 public:
  TraceArg(std::string_view key, std::string_view text)
      : key_(key), kind_(TraceRecord::ArgKind::kText), text_(text) {}
  // Literals bind here rather than to the deleted bool overload.
  TraceArg(std::string_view key, const char* text)
      : TraceArg(key, std::string_view(text)) {}
  TraceArg(std::string_view key, double value)
      : key_(key), kind_(TraceRecord::ArgKind::kDouble), d_(value) {}
  template <std::integral T>
  TraceArg(std::string_view key, T value)
      : key_(key),
        kind_(std::is_signed_v<T> ? TraceRecord::ArgKind::kInt
                                  : TraceRecord::ArgKind::kUint) {
    if constexpr (std::is_signed_v<T>) {
      i_ = value;
    } else {
      u_ = value;
    }
  }
  // Preferred over the template for a bool, so `{"ok", flag}` does not
  // compile.
  TraceArg(std::string_view key, bool value) = delete;

 private:
  friend class TraceRecorder;

  std::string_view key_;
  TraceRecord::ArgKind kind_;
  union {
    std::int64_t i_;
    std::uint64_t u_;
    double d_;
    std::string_view text_;
  };
};

class TraceRecorder;

// Scoped span: captures the virtual clock at construction and emits one
// kComplete record when End() runs (at latest, destruction). Default
// constructed or moved-from spans are inert, and so is a span started on a
// disabled recorder, so call sites can hold a Span unconditionally.
class [[nodiscard]] Span {
 public:
  Span() = default;
  Span(Span&& o) noexcept
      : recorder_(std::exchange(o.recorder_, nullptr)), record_(o.record_) {}
  Span& operator=(Span&& o) noexcept {
    if (this != &o) {
      End();
      recorder_ = std::exchange(o.recorder_, nullptr);
      record_ = o.record_;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  // Attach a typed key/value pair shown in the trace viewer's detail pane
  // (see TraceArg for the value types). No-op on an inert span.
  template <typename V>
  void AddArg(std::string_view key, const V& value) {
    if (recorder_ != nullptr) Append(TraceArg(key, value));
  }

  // Emit the completed span; idempotent.
  void End();
  bool active() const { return recorder_ != nullptr; }

 private:
  friend class TraceRecorder;
  Span(TraceRecorder* recorder, std::string_view name,
       std::string_view category, std::string_view track);
  void Append(const TraceArg& arg);

  TraceRecorder* recorder_ = nullptr;
  TraceRecord record_{};
};

class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit TraceRecorder(sim::Simulation& sim,
                         std::size_t capacity = kDefaultCapacity);
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  sim::SimTime Now() const { return sim_.Now(); }

  Span StartSpan(std::string_view name, std::string_view category,
                 std::string_view track) {
    return Span(this, name, category, track);
  }
  // Append one instant, overwriting the oldest record when the ring is
  // full. At most TraceRecord::kMaxArgs args.
  void Instant(std::string_view name, std::string_view category,
               std::string_view track,
               std::initializer_list<TraceArg> args = {});

  // The id of `s`, interning it on first sight. Ids are dense and stable
  // for the recorder's lifetime.
  TraceStringId Intern(std::string_view s);
  // Distinct non-empty strings interned so far.
  std::size_t interned_count() const { return strings_.size(); }

  std::size_t capacity() const { return capacity_; }
  // Records currently retained (<= capacity).
  std::size_t size() const;
  std::uint64_t total_emitted() const {
    return cursor_.load(std::memory_order_relaxed);
  }
  // Records overwritten because the ring wrapped.
  std::uint64_t dropped() const;

  // Retained events, oldest first, rendered to text.
  std::vector<TraceEvent> Snapshot() const;

 private:
  friend class Span;

  // Direct-mapped front cache of Intern(): one entry per slot, keyed on
  // the caller's (data, size). `interned` points at the table's own copy,
  // which a hit must match byte for byte.
  static constexpr std::size_t kCacheSlots = 256;
  struct CacheEntry {
    const char* data = nullptr;
    std::size_t size = 0;
    const char* interned = nullptr;
    TraceStringId id = 0;
  };

  void Append(const TraceRecord& record);
  void AppendArg(TraceRecord& record, const TraceArg& arg);
  std::string_view Text(TraceStringId id) const;

  sim::Simulation& sim_;
  std::size_t capacity_;
  std::unique_ptr<TraceRecord[]> ring_;
  // Monotonic count of records ever emitted; slot = cursor_ % capacity.
  std::atomic<std::uint64_t> cursor_{0};
  bool enabled_ = true;

  // Intern table: strings_[id - 1] is the text of id. A deque never moves
  // its elements, so the views keyed in ids_ and cached in cache_ stay
  // valid as it grows.
  std::deque<std::string> strings_;
  std::unordered_map<std::string_view, TraceStringId> ids_;
  std::array<CacheEntry, kCacheSlots> cache_{};
};

}  // namespace swapserve::obs
