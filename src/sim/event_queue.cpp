#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace mgap::sim {

namespace {
// 4-ary layout: children of i are 4i+1 .. 4i+4, parent of i is (i-1)/4.
// Shallower than a binary heap (log4 vs log2 levels) and the four children
// sit in one or two cache lines, which is where a DES queue spends its time.
constexpr std::size_t kArity = 4;
constexpr std::size_t kLine = 64;

// Lines of `span` to prefetch, capped at 255; 0 for a null or empty span.
// object + i * kLine lies in the i-th line of the span, so pop() can step
// from `object` itself.
std::uint8_t lines_of(TouchSpan span) {
  if (span.object == nullptr || span.bytes == 0) return 0;
  const auto first = reinterpret_cast<std::uintptr_t>(span.object);
  const std::uintptr_t lines = (first + span.bytes - 1) / kLine - first / kLine + 1;
  return static_cast<std::uint8_t>(std::min<std::uintptr_t>(lines, 255));
}

void prefetch_lines(const void* object, unsigned lines) {
  const auto* bytes = static_cast<const char*>(object);
  for (unsigned i = 0; i < lines; ++i) __builtin_prefetch(bytes + i * kLine);
}
}  // namespace

void EventQueue::sift_up(std::size_t i) {
  Key key = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  Key key = heap_[i];
  while (true) {
    const std::size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], key)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = key;
}

void EventQueue::heap_remove_top() {
  assert(!heap_.empty());
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void EventQueue::sweep_tombstones() {
  while (!heap_.empty() && !states_[heap_.front().slot()].live) {
    free_slots_.push_back(heap_.front().slot());
    heap_remove_top();
  }
}

std::uint32_t EventQueue::alloc_slot() {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_.size() >= kMaxSlots) {
      throw std::length_error{"EventQueue: more than 2^24 slots in use"};
    }
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    states_.emplace_back();
  }
  return slot;
}

EventId EventQueue::schedule(TimePoint at, Action action, const Touch& touch) {
  assert(next_seq_ < kMaxSeq);
  const std::uint32_t slot = alloc_slot();
  SlotState& state = states_[slot];
  assert(!state.live);
  slots_[slot].action = std::move(action);
  state.live = true;
  state.spans = 0;
  for (const TouchSpan& span : touch.spans) {
    const std::uint8_t lines = lines_of(span);
    if (lines == 0) continue;
    state.object[state.spans] = span.object;
    state.lines[state.spans] = lines;
    ++state.spans;
  }
  heap_.push_back(Key{at, (next_seq_++ << kSlotBits) | slot});
  sift_up(heap_.size() - 1);
  ++live_count_;
  return EventId{slot, state.gen};
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= states_.size()) return false;
  SlotState& state = states_[id.slot_];
  if (!state.live || state.gen != id.gen_) return false;
  state.live = false;
  ++state.gen;                      // every outstanding handle to this slot is now stale
  slots_[id.slot_].action.reset();  // release captured resources immediately
  --live_count_;
  ++cancelled_count_;
  // The heap key stays behind as a tombstone (that is what makes cancel
  // O(1)); sweeping here restores the invariant that the top key is live.
  sweep_tombstones();
  return true;
}

TimePoint EventQueue::next_time() const {
  assert(live_count_ > 0);
  // cancel()/pop() sweep tombstones off the top, so the minimum key is live.
  assert(states_[heap_.front().slot()].live);
  return heap_.front().at;
}

EventQueue::Fired EventQueue::pop() {
  assert(live_count_ > 0);
  const Key top = heap_.front();
  SlotState& state = states_[top.slot()];
  assert(state.live);
  Action& action = slots_[top.slot()].action;
  Fired fired{top.at, std::move(action)};
  action.reset();
  state.live = false;
  ++state.gen;
  heap_remove_top();
  free_slots_.push_back(top.slot());  // its heap key is gone: safe to recycle
  --live_count_;
  ++fired_count_;
  sweep_tombstones();
  // The next event usually fires right after this one: start loading its
  // action and the memory it touches first while this action runs.
  if (!heap_.empty()) {
    const std::uint32_t next = heap_.front().slot();
    __builtin_prefetch(&slots_[next]);
    const SlotState& state_next = states_[next];
    for (unsigned i = 0; i < state_next.spans; ++i) {
      prefetch_lines(state_next.object[i], state_next.lines[i]);
    }
  }
  return fired;
}

}  // namespace mgap::sim
