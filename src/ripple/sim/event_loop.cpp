#include "ripple/sim/event_loop.hpp"

#include <algorithm>
#include <limits>

#include "ripple/common/error.hpp"

namespace ripple::sim {

EventLoop::~EventLoop() {
  // Destroy queued callbacks while the slab is intact: a capture's
  // destructor may still cancel() through a handle it owns.
  for (std::uint32_t i = 0; i < slots_used_; ++i) {
    Slot& s = slot(i);
    retire(s);
    s.callback = nullptr;
  }
}

std::uint32_t EventLoop::acquire_slot(Callback callback) {
  std::uint32_t index = free_head_;
  if (index != kNoSlot) {
    free_head_ = slot(index).next_free;
  } else {
    ensure(slots_used_ < kNoSlot, Errc::capacity,
           "event loop: too many pending events");
    if ((slots_used_ & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    }
    index = slots_used_++;
  }
  slot(index).callback = std::move(callback);
  return index;
}

void EventLoop::release_slot(std::uint32_t index) noexcept {
  Slot& s = slot(index);
  s.callback = nullptr;
  s.next_free = free_head_;
  free_head_ = index;
}

EventLoop::TimerHandle EventLoop::call_at(SimTime when, Callback callback) {
  ensure(static_cast<bool>(callback), Errc::invalid_argument,
         "call_at: empty callback");
  ensure(when >= now_, Errc::invalid_argument, "call_at: time ", when,
         " is in the past (now=", now_, ")");
  const std::uint32_t index = acquire_slot(std::move(callback));
  heap_.push(Key{when, next_sequence_++, index});
  peak_pending_ = std::max(peak_pending_, pending());
  return handle_of(index);
}

EventLoop::TimerHandle EventLoop::call_after(Duration delay,
                                             Callback callback) {
  ensure(delay >= 0.0, Errc::invalid_argument, "call_after: negative delay ",
         delay);
  return call_at(now_ + delay, std::move(callback));
}

EventLoop::TimerHandle EventLoop::post(Callback callback) {
  ensure(static_cast<bool>(callback), Errc::invalid_argument,
         "post: empty callback");
  // Same-time events always run before any strictly later event, and the
  // now-queue is FIFO by construction, so an O(1) deque push preserves
  // the exact (time, sequence) order the heap would have produced.
  const std::uint32_t index = acquire_slot(std::move(callback));
  now_queue_.push_back(Key{now_, next_sequence_++, index});
  peak_pending_ = std::max(peak_pending_, pending());
  return handle_of(index);
}

void EventLoop::post_external(Callback callback) {
  ensure(static_cast<bool>(callback), Errc::invalid_argument,
         "post_external: empty callback");
  {
    std::lock_guard lock(external_mutex_);
    external_.push_back(std::move(callback));
  }
  has_external_.store(true, std::memory_order_release);
}

void EventLoop::drain_external() {
  if (!has_external_.load(std::memory_order_acquire)) return;
  std::deque<Callback> drained;
  {
    std::lock_guard lock(external_mutex_);
    drained.swap(external_);
    has_external_.store(false, std::memory_order_relaxed);
  }
  // Slots and sequences are assigned on the loop thread, in drain order,
  // so once an external callback is in, it behaves exactly like a
  // post()ed event.
  for (Callback& callback : drained) {
    post(std::move(callback));
  }
}

bool EventLoop::cancel(TimerHandle handle) {
  if (!handle.valid()) return false;
  // The key stays queued; the flag makes the skim drop it. A handle
  // whose event fired, is firing or was skimmed carries an old
  // generation, even once the slot holds a newer event.
  const auto index = static_cast<std::uint32_t>(handle.id);
  const auto generation = static_cast<std::uint32_t>(handle.id >> 32);
  if (index >= slots_used_) return false;
  Slot& s = slot(index);
  if (s.generation != generation || s.cancelled) return false;
  s.cancelled = true;
  ++cancelled_;
  return true;
}

void EventLoop::skim_cancelled() {
  if (cancelled_ == 0) return;
  const auto skim = [this](std::uint32_t index) {
    Slot& s = slot(index);
    if (!s.cancelled) return false;
    retire(s);
    --cancelled_;
    release_slot(index);
    return true;
  };
  while (!now_queue_.empty() && skim(now_queue_.front().slot)) {
    now_queue_.pop_front();
  }
  while (!heap_.empty() && skim(heap_.top().slot)) heap_.pop();
}

void EventLoop::fire(const Key& key) {
  Slot& s = slot(key.slot);
  retire(s);  // a cancel() from inside the callback finds it gone
  now_ = key.time;
  ++processed_;
  // Chunks never move, so the callback runs in place; its slot joins the
  // free list only once it has returned (or thrown).
  struct Release {
    EventLoop& loop;
    std::uint32_t index;
    ~Release() { loop.release_slot(index); }
  } release{*this, key.slot};
  s.callback();
}

bool EventLoop::step(SimTime deadline) {
  drain_external();
  skim_cancelled();
  // The next live event is whichever of the now-queue front and the heap
  // top comes first in the global (time, sequence) order.
  const bool have_now = !now_queue_.empty();
  const bool have_heap = !heap_.empty();
  if (!have_now && !have_heap) return false;
  bool from_now = have_now;
  if (have_now && have_heap) {
    const Key& n = now_queue_.front();
    const Key& h = heap_.top();
    from_now =
        n.time < h.time || (n.time == h.time && n.sequence < h.sequence);
  }

  // Pop before firing so re-entrant posting from inside the callback
  // sees a consistent queue.
  if (from_now) {
    const Key key = now_queue_.front();
    if (key.time > deadline) return false;
    now_queue_.pop_front();
    fire(key);
    return true;
  }

  const Key key = heap_.top();
  if (key.time > deadline) return false;
  heap_.pop();
  fire(key);
  return true;
}

std::size_t EventLoop::run() {
  return run_until(std::numeric_limits<SimTime>::infinity());
}

std::size_t EventLoop::run_until(SimTime deadline) {
  std::size_t count = 0;
  while (!stopped_ && step(deadline)) ++count;
  if (deadline != std::numeric_limits<SimTime>::infinity() &&
      deadline > now_ && !stopped_) {
    now_ = deadline;
  }
  return count;
}

std::size_t EventLoop::run_for(Duration duration) {
  ensure(duration >= 0.0, Errc::invalid_argument,
         "run_for: negative duration");
  return run_until(now_ + duration);
}

}  // namespace ripple::sim
