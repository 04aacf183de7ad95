#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mgap::sim {

namespace {
// 4-ary layout: children of i are 4i+1 .. 4i+4, parent of i is (i-1)/4.
// Shallower than a binary heap (log4 vs log2 levels) and the four children
// sit in one or two cache lines, which is where a DES queue spends its time.
constexpr std::size_t kArity = 4;
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
  while (!heap_.empty() && !slots_[heap_.front().slot].live) {
    free_slots_.push_back(heap_.front().slot);
    heap_remove_top();
  }
}

std::uint32_t EventQueue::alloc_slot() {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    assert(slot != EventId::kInvalidSlot);
    slots_.emplace_back();
  }
  return slot;
}

EventId EventQueue::schedule(TimePoint at, Action action) {
  const std::uint32_t slot = alloc_slot();
  Record& rec = slots_[slot];
  assert(!rec.live);
  rec.action = std::move(action);
  rec.live = true;
  heap_.push_back(Key{at, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  ++live_count_;
  return EventId{slot, rec.gen};
}

bool EventQueue::cancel(EventId id) {
  if (!id.valid() || id.slot_ >= slots_.size()) return false;
  Record& rec = slots_[id.slot_];
  if (!rec.live || rec.gen != id.gen_) return false;
  rec.live = false;
  ++rec.gen;            // every outstanding handle to this slot is now stale
  rec.action.reset();   // release captured resources immediately
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
  assert(slots_[heap_.front().slot].live);
  return heap_.front().at;
}

EventQueue::Fired EventQueue::pop() {
  assert(live_count_ > 0);
  const Key top = heap_.front();
  Record& rec = slots_[top.slot];
  assert(rec.live);
  Fired fired{top.at, std::move(rec.action)};
  rec.action.reset();
  rec.live = false;
  ++rec.gen;
  heap_remove_top();
  free_slots_.push_back(top.slot);  // its heap key is gone: safe to recycle
  --live_count_;
  ++fired_count_;
  sweep_tombstones();
  return fired;
}

}  // namespace mgap::sim
