#pragma once
// Cancellable discrete-event queue: a slot-map of event records indexed by an
// implicit 4-ary min-heap.
//
// schedule() places the action in a generation-tagged slot (free-list
// recycling) and pushes a 16-byte (time, sequence << 24 | slot) key onto the
// heap; events at the same instant fire in scheduling order via the sequence
// tie-break (sequences are unique, so the slot bits never decide an order).
// cancel() is O(1): it validates the generation tag, releases the action, and
// leaves the heap key behind as a tombstone; tombstones are swept as soon as
// they reach the top, so the earliest live event is always directly readable
// (next_time() stays const and mutation-free). pop() is O(log n) — the heap
// never holds more than one key per live-or-tombstoned slot, so the total
// sweep work is paid for once per cancel.
//
// A slot is recycled only after its heap key is gone, and recycling bumps the
// slot's generation, so a stale EventId of an already-fired or
// already-cancelled event can never touch an unrelated event that happens to
// reuse its slot — important for the supervision-timer re-arm loop, which
// cancels and reschedules on every successful connection event.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/action.hpp"
#include "sim/time.hpp"

namespace mgap::sim {

/// Opaque handle identifying a scheduled event; may be used to cancel it.
/// Generation-tagged: a handle kept past its event's firing or cancellation
/// goes permanently stale and is rejected by cancel().
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return slot_ != kInvalidSlot; }
  friend constexpr bool operator==(EventId, EventId) = default;

 private:
  friend class EventQueue;
  static constexpr std::uint32_t kInvalidSlot = 0xFFFFFFFFu;
  constexpr EventId(std::uint32_t slot, std::uint32_t gen) : slot_{slot}, gen_{gen} {}
  std::uint32_t slot_{kInvalidSlot};
  std::uint32_t gen_{0};
};

/// One stretch of memory an event's action reads: `bytes` from `object`, as
/// the scheduling caller knows its own layout.
struct TouchSpan {
  const void* object{nullptr};
  std::size_t bytes{0};
};

/// The memory an event's action reads first, as up to kMaxSpans spans (the
/// object it runs on and what that object points to). A prefetch hint only;
/// it never changes what fires or when. Null and zero-byte spans are skipped.
struct Touch {
  static constexpr std::size_t kMaxSpans = 4;
  std::array<TouchSpan, kMaxSpans> spans{};
};

class EventQueue {
 public:
  using Action = sim::Action;

  /// Schedules `action` to fire at absolute time `at`. Events scheduled for
  /// the same instant fire in scheduling order (FIFO). Once the event is next
  /// in line, the cache lines of each span of `touch` (up to 255 per span)
  /// are prefetched while the event before it runs. Throws std::length_error
  /// when 2^24 slots (pending events plus unswept tombstones) are in use.
  EventId schedule(TimePoint at, Action action, const Touch& touch = {});

  /// Cancels a pending event in O(1). Cancelling an already-fired,
  /// already-cancelled, or default-constructed id is a harmless no-op;
  /// returns whether something was cancelled.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the next live event. Only valid when !empty().
  [[nodiscard]] TimePoint next_time() const;

  /// Pops and returns the next live event. Only valid when !empty().
  struct Fired {
    TimePoint at;
    Action action;
  };
  Fired pop();

  /// Total number of events ever executed through pop(); for stats.
  [[nodiscard]] std::uint64_t fired_count() const { return fired_count_; }
  /// Total number of events ever removed through cancel(); for stats.
  [[nodiscard]] std::uint64_t cancelled_count() const { return cancelled_count_; }
  /// Slots currently allocated (live events + unswept tombstones + free list).
  [[nodiscard]] std::size_t slot_capacity() const { return slots_.size(); }

 private:
  /// One cache line per pending action. Liveness, generation and the
  /// prefetch hint live apart in a SlotState array: the tombstone sweep,
  /// cancel() and the prefetch read only that, so an action's line is touched
  /// when it is stored and when it fires. The sweep has already loaded the
  /// next event's state when pop() reads its hint.
  struct alignas(64) Slot {
    Action action;
  };
  struct SlotState {
    std::uint32_t gen{0};
    bool live{false};
    std::uint8_t spans{0};  // non-empty hint spans, in the first entries below
    std::array<std::uint8_t, Touch::kMaxSpans> lines{};  // cache lines to prefetch
    std::array<const void*, Touch::kMaxSpans> object{};
  };
  static_assert(sizeof(SlotState) == 48);
  /// Four keys per cache line: the slot index rides in the low bits of the
  /// sequence word. Comparing the packed word orders by sequence alone,
  /// because sequences are unique. The 40 sequence bits last 2^40 schedules,
  /// about 90 simulated days of the 10k-node world.
  struct Key {
    TimePoint at;
    std::uint64_t seq_slot;  // sequence << kSlotBits | index into slots_

    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(seq_slot & (kMaxSlots - 1));
    }
  };
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = std::uint64_t{1} << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);

  static bool earlier(const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq_slot < b.seq_slot;
  }

  std::uint32_t alloc_slot();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void heap_remove_top();
  /// Pops dead keys off the top until the minimum is live (or the heap is
  /// empty), returning their slots to the free list. Called from the mutating
  /// side only — cancel() and pop() — which is what keeps next_time() const.
  void sweep_tombstones();

  std::vector<Key> heap_;  // implicit 4-ary min-heap over (at, seq)
  std::vector<Slot> slots_;
  std::vector<SlotState> states_;  // parallel to slots_
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_{0};
  std::size_t live_count_{0};
  std::uint64_t fired_count_{0};
  std::uint64_t cancelled_count_{0};
};

}  // namespace mgap::sim
