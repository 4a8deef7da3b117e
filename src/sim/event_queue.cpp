#include "sim/event_queue.hpp"

#include <stdexcept>

namespace p4u::sim {

std::uint32_t Simulator::allocate_slot() {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  if (next_fresh_ == kMaxSlots) {
    throw std::length_error(
        "Simulator: more than 2^20 concurrently pending events");
  }
  if ((next_fresh_ >> kSlabShift) == slabs_.size()) {
    slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
    tags_.resize(tags_.size() + kSlabSize);
  }
  return next_fresh_++;
}

void Simulator::raise_seq_overflow() {
  throw std::length_error("Simulator: event sequence counter exhausted");
}

void Simulator::reserve(std::size_t n) {
  if (n > kMaxSlots) n = kMaxSlots;
  heap_.reserve(n);
  free_.reserve(n);
  const std::size_t want_slabs = (n + kSlabSize - 1) >> kSlabShift;
  slabs_.reserve(want_slabs);
  while (slabs_.size() < want_slabs) {
    slabs_.push_back(std::make_unique<Slot[]>(kSlabSize));
    tags_.resize(tags_.size() + kSlabSize);
  }
}

void Simulator::heap_push(HeapEntry e) {
  // Hole-based sift-up: shift parents down into the hole, write `e` once.
  std::size_t i = heap_.size();
  heap_.push_back(e);
  if (heap_.size() > pending_peak_) pending_peak_ = heap_.size();
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Simulator::heap_remove_min() {
  const std::size_t n = heap_.size() - 1;
  const HeapEntry moving = heap_[n];
  heap_.pop_back();
  if (n == 0) return;
  // Hole-based sift-down from the root: pull the best child up into the
  // hole until `moving` fits, then write it once.
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = (i << 2) + 1;
    if (first_child >= n) break;
    const std::size_t end =
        first_child + 4 <= n ? first_child + 4 : n;
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], moving)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = moving;
}

Simulator::HeapEntry Simulator::strategy_select() {
  const Time t = heap_.front().at;
  // Pop every event scheduled for this instant; the heap yields them in
  // (at, seq) order, so the options vector is already sorted by EventOrder
  // and index 0 is the event the historical tie-break would run.
  co_enabled_.clear();
  options_.clear();
  while (!heap_.empty() && heap_.front().at == t) {
    const HeapEntry e = heap_.front();
    heap_remove_min();
    co_enabled_.push_back(e);
    options_.push_back(ChoiceOption{EventKey{e.at, e.seq_idx}, tags_[e.idx()]});
  }
  // The strategy sees singleton sets too: an explorer tracking an
  // independence-based sleep set must observe every executed event, not
  // just the contested ones, to keep its pruning sound.
  const std::size_t chosen = strategy_->pick(options_);
  if (chosen >= options_.size()) {
    throw std::logic_error(
        "Simulator: strategy picked an out-of-range co-enabled event");
  }
  // Re-push the losers with their keys intact: their seq words are
  // unchanged, so among themselves they keep the same relative order.
  for (std::size_t i = 0; i < co_enabled_.size(); ++i) {
    if (i != chosen) heap_push(co_enabled_[i]);
  }
  return co_enabled_[chosen];
}

bool Simulator::pop_and_run(Time until) {
  if (heap_.empty()) return false;
  HeapEntry top = heap_.front();
  if (top.at > until) return false;
  if (strategy_ == nullptr) [[likely]] {
    // Start pulling the winning handler's slab lines in now; the fetch
    // overlaps the sift-down below, which never touches the pool.
    Handler& pf = slot(top.idx());
    __builtin_prefetch(static_cast<void*>(&pf), 1);
    __builtin_prefetch(reinterpret_cast<char*>(&pf) + 64, 1);
    __builtin_prefetch(reinterpret_cast<char*>(&pf) + 128, 1);
    heap_remove_min();
  } else {
    top = strategy_select();
  }
  Handler& fn = slot(top.idx());
  now_ = top.at;
  ++executed_;
  // Run the handler in place in its slab slot. The slot is not on the free
  // list while the handler runs, so the handler may freely schedule new
  // events (they take other slots); destroy and recycle happen only after
  // it returns. Slot numbering never feeds the (at, seq) order, so this
  // cannot change the pop sequence.
  fn();
  fn.reset();
  free_.push_back(top.idx());
  return true;
}

std::size_t Simulator::run(Time until) {
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_ && pop_and_run(until)) ++n;
  return n;
}

std::size_t Simulator::run_steps(std::size_t max_events) {
  stopped_ = false;
  std::size_t n = 0;
  while (n < max_events && !stopped_ && pop_and_run(kTimeInfinity)) ++n;
  return n;
}

}  // namespace p4u::sim
