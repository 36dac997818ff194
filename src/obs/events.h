#pragma once
// obs::EventLog: a fixed-size lock-free ring of structured, timestamped
// events — the discrete happenings a time-series scrape cannot show
// (an overload shed, a cache eviction, a KvStore compaction or torn-tail
// recovery, a keygen starting). Emitters are hot paths (reactor loops,
// cache eviction under a lock), so emit() is wait-free: one fetch_add to
// claim a slot plus a seqlock write; a reader that catches a slot
// mid-write skips it. The ring keeps the most recent `capacity` events;
// per-kind counters are kept separately and never wrap, so "how many
// sheds ever" survives even when the shed events themselves have been
// overwritten.
//
// Events are drained via the scrape path: obs::json_text emits the ring
// as an "events" array and obs::prometheus_text emits the per-kind
// counters as labeled cgs_events_total series.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace cgs::obs {

enum class EventKind : std::uint8_t {
  kOverloadShed = 0,   // a: reactor index, b: retry_after_ms
  kCacheEviction,      // a: entries after eviction, b: bytes after eviction
  kKvCompaction,       // a: file bytes after, b: live entries
  kTornTailRecovery,   // a: bytes truncated, b: bytes kept
  kKeygenStart,        // a: degree, b: 0
  kSeriesFold,         // a: folded value/count, b: series cap
};
inline constexpr std::size_t kNumEventKinds = 6;

inline const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kOverloadShed:
      return "overload_shed";
    case EventKind::kCacheEviction:
      return "cache_eviction";
    case EventKind::kKvCompaction:
      return "kv_compaction";
    case EventKind::kTornTailRecovery:
      return "torn_tail_recovery";
    case EventKind::kKeygenStart:
      return "keygen_start";
    case EventKind::kSeriesFold:
      return "series_fold";
  }
  return "unknown";
}

/// One structured event. `a`/`b` are kind-specific numeric arguments
/// (documented per kind above); `detail` is a short source tag ("ffldl",
/// "sign lane 2") truncated to the inline buffer — events never allocate.
struct Event {
  std::uint64_t seq = 0;  // 1-based global emit order; 0 = empty slot
  std::uint64_t ts_us = 0;
  EventKind kind = EventKind::kOverloadShed;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  char detail[48] = {};
};

class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 256)
      : capacity_(capacity == 0 ? 1 : capacity),
        ring_(std::make_unique<Slot[]>(capacity_)) {}

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Record one event. Wait-free; safe from any thread, including under
  /// subsystem locks (it takes none of its own). An emit that collides
  /// with a writer still inside the same slot (a full ring wrap during
  /// one write) drops the ring entry but still counts.
  void emit(EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
            std::string_view detail = {}) {
    counts_[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
    const std::uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed) + 1;
    Slot& slot = ring_[(seq - 1) % capacity_];
    std::uint32_t v = slot.version.load(std::memory_order_relaxed);
    if (v & 1u) return;  // writer inside after a full wrap: drop ours
    if (!slot.version.compare_exchange_strong(v, v + 1,
                                              std::memory_order_acquire))
      return;
    slot.event.seq = seq;
    slot.event.ts_us = now_us();
    slot.event.kind = kind;
    slot.event.a = a;
    slot.event.b = b;
    const std::size_t n =
        detail.size() < sizeof slot.event.detail - 1
            ? detail.size()
            : sizeof slot.event.detail - 1;
    // An empty string_view may carry a null data(); memcpy from null is
    // undefined even for n == 0.
    if (n != 0) std::memcpy(slot.event.detail, detail.data(), n);
    slot.event.detail[n] = '\0';
    slot.version.store(v + 2, std::memory_order_release);
  }

  /// Copies of the retained events, oldest first. Lock-free: a slot being
  /// overwritten concurrently is skipped.
  std::vector<Event> snapshot() const {
    std::vector<Event> out;
    out.reserve(capacity_);
    for (std::size_t i = 0; i < capacity_; ++i) {
      const Slot& slot = ring_[i];
      const std::uint32_t v1 = slot.version.load(std::memory_order_acquire);
      if (v1 & 1u) continue;
      Event e = slot.event;
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.version.load(std::memory_order_relaxed) != v1) continue;
      if (e.seq != 0) out.push_back(e);
    }
    std::sort(out.begin(), out.end(),
              [](const Event& x, const Event& y) { return x.seq < y.seq; });
    return out;
  }

  /// Lifetime count of `kind` events (unaffected by ring overwrites).
  std::uint64_t count(EventKind kind) const {
    return counts_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }

  std::uint64_t total() const {
    return head_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const { return capacity_; }

  static std::uint64_t now_us() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  // Seqlock slot, same discipline as obs::Tracer's slow ring: even
  // version = stable, odd = writer inside.
  struct alignas(64) Slot {
    std::atomic<std::uint32_t> version{0};
    Event event;
  };

  std::size_t capacity_;
  std::unique_ptr<Slot[]> ring_;
  std::atomic<std::uint64_t> head_{0};
  std::array<std::atomic<std::uint64_t>, kNumEventKinds> counts_{};
};

}  // namespace cgs::obs
