#include "event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace swapgame::chain {

void EventQueue::set_metrics(obs::MetricsRegistry* metrics) {
  scheduled_counter_ =
      metrics == nullptr ? nullptr : &metrics->counter("queue.events_scheduled");
  processed_counter_ =
      metrics == nullptr ? nullptr : &metrics->counter("queue.events_processed");
}

void EventQueue::reset() noexcept {
  heap_.clear();
  far_.clear();
  far_pending_ = 0;
  bucket_width_ = 0.0;
  cur_ = 0;
  now_ = 0.0;
  next_seq_ = 0;
  scheduled_counter_ = nullptr;
  processed_counter_ = nullptr;
}

void EventQueue::schedule_at(Hours when, Callback cb) {
  if (!std::isfinite(when)) {
    throw std::invalid_argument("EventQueue::schedule_at: non-finite time");
  }
  if (when < now_) {
    throw std::invalid_argument("EventQueue::schedule_at: time is in the past");
  }
  if (!cb) {
    throw std::invalid_argument("EventQueue::schedule_at: empty callback");
  }
  if (scheduled_counter_ != nullptr) scheduled_counter_->inc();
  const std::int64_t bucket = bucket_of(when);
  if (bucket <= cur_) {
    heap_.push_back(Event{when, next_seq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return;
  }
  Bucket& far = far_[bucket];
  far.events.push_back(Event{when, next_seq_++, std::move(cb)});
  far.earliest = std::min(far.earliest, when);
  ++far_pending_;
}

void EventQueue::set_bucket_width(Hours width) {
  if (!(width >= 0.0) || !std::isfinite(width)) {
    throw std::invalid_argument(
        "EventQueue::set_bucket_width: width must be finite and >= 0");
  }
  if (!empty()) {
    throw std::invalid_argument(
        "EventQueue::set_bucket_width: events are pending");
  }
  bucket_width_ = width;
  cur_ = bucket_of(now_);
}

std::int64_t EventQueue::bucket_of(Hours when) const noexcept {
  if (bucket_width_ == 0.0) return 0;
  constexpr double kSaturate = 4.0e18;  // below INT64_MAX, exact in double
  const double index = std::floor(when / bucket_width_);
  return index >= kSaturate ? static_cast<std::int64_t>(kSaturate)
                            : static_cast<std::int64_t>(index);
}

void EventQueue::refill() {
  // Only an empty heap is refilled: it takes over the bucket's buffer, and
  // its own (sized for an earlier bucket) leaves with the map node, so no
  // buffer outgrows the bucket it holds.
  const auto first = far_.begin();
  cur_ = first->first;
  far_pending_ -= first->second.events.size();
  heap_.swap(first->second.events);
  far_.erase(first);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_in(Hours delay, Callback cb) {
  if (!(delay >= 0.0)) {
    throw std::invalid_argument("EventQueue::schedule_in: negative delay");
  }
  schedule_at(now_ + delay, std::move(cb));
}

bool EventQueue::step() {
  if (heap_.empty()) {
    if (far_.empty()) return false;
    refill();
  }
  // pop_heap moves the earliest event to the back; take it out before
  // running the callback so the callback may schedule new events.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  now_ = ev.when;
  if (processed_counter_ != nullptr) processed_counter_->inc();
  ev.cb();
  return true;
}

std::size_t EventQueue::run(std::size_t limit) {
  std::size_t processed = 0;
  while (processed < limit && step()) ++processed;
  return processed;
}

std::size_t EventQueue::drain_before(Hours until) {
  if (!std::isfinite(until)) {
    throw std::invalid_argument("EventQueue::drain_before: non-finite time");
  }
  std::size_t processed = 0;
  while (next_time() < until) {
    step();
    ++processed;
  }
  return processed;
}

std::size_t EventQueue::run_until(Hours until) {
  if (until < now_) {
    throw std::invalid_argument("EventQueue::run_until: time is in the past");
  }
  std::size_t processed = 0;
  while (next_time() <= until) {
    step();
    ++processed;
  }
  now_ = until;
  return processed;
}

}  // namespace swapgame::chain
