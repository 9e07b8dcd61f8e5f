#pragma once

/// \file event_loop.hpp
/// The deterministic discrete-event engine that drives every Ripple run.
///
/// All runtime components (scheduler, executor, managers, services,
/// clients) are actors that post timestamped callbacks here. Events at
/// equal times fire in posting order (a monotonically increasing sequence
/// number breaks ties), which makes every simulation bit-reproducible.
///
/// post() — scheduling at the current time — bypasses the heap through a
/// FIFO now-queue: O(1) instead of O(log pending), which matters because
/// grant callbacks, state-driven rechecks and reply dispatches are all
/// same-time posts and dominate small-point service latency. Ordering is
/// unchanged: the global (time, sequence) order decides between the
/// now-queue front and the heap top, so traces stay bit-identical to the
/// heap-only implementation.
///
/// Callbacks live in a slab of slots reused through a free list; the heap
/// and the now-queue only move 24-byte (time, sequence, slot) keys. A
/// TimerHandle names a (slot, generation) pair: the generation advances
/// each time the slot's event fires or is skimmed, so cancel() is a
/// generation check plus a flag, and a stale handle to a reused slot is
/// simply rejected. A callback runs in place in its slot and is destroyed
/// right after it returns; a cancelled one is destroyed when its key
/// reaches the front of its queue and is skimmed.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <vector>

#include "ripple/sim/callback.hpp"

namespace ripple::sim {

/// Simulation time in seconds since the start of the run.
using SimTime = double;

/// A duration in seconds.
using Duration = double;

class EventLoop {
 public:
  /// Move-only with inline storage for typical closure sizes — no
  /// per-event heap allocation (see callback.hpp).
  using Callback = UniqueCallback;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;
  /// Destroys every callback still queued.
  ~EventLoop();

  /// Identifies a scheduled event so it can be cancelled: the slot index
  /// in the low 32 bits, the slot's generation (never 0) in the high 32.
  struct TimerHandle {
    std::uint64_t id = 0;
    [[nodiscard]] bool valid() const noexcept { return id != 0; }
  };

  /// Current simulation time. Starts at 0.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `callback` at absolute time `when` (>= now).
  TimerHandle call_at(SimTime when, Callback callback);

  /// Schedules `callback` after `delay` seconds (>= 0).
  TimerHandle call_after(Duration delay, Callback callback);

  /// Schedules `callback` to run at the current time, after already
  /// pending same-time events ("post to the back of the now-queue").
  /// O(1) fast path: skips the heap entirely.
  TimerHandle post(Callback callback);

  /// Thread-safe completion hand-off: the only EventLoop entry point
  /// that may be called from another thread. Worker threads (payload
  /// computation on the ThreadPool) park their completion callbacks
  /// here; the loop drains them into the now-queue at the next step
  /// boundary, so the callback runs on the loop thread like any other
  /// event. Cross-thread arrival order is wall-clock, not seeded —
  /// deterministic control-plane code must keep using post(); this is
  /// for real-thread payload integration only. Not cancellable.
  void post_external(Callback callback);

  /// Cancels a pending event. Returns false if it already ran, is running,
  /// or was already cancelled.
  bool cancel(TimerHandle handle);

  /// Runs until the queue is empty. Returns events processed.
  std::size_t run();

  /// Runs while events exist with time <= `deadline`; afterwards, now()
  /// is max(now, deadline). Returns events processed.
  std::size_t run_until(SimTime deadline);

  /// Convenience: run_until(now() + duration).
  std::size_t run_for(Duration duration);

  /// Makes run()/run_until() return after the current event completes.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  /// Clears the stop flag so the loop can be resumed.
  void reset_stop() noexcept { stopped_ = false; }

  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }

  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() + now_queue_.size() - cancelled_;
  }

  /// High-water mark of pending() over the run — the event-loop depth
  /// gauge sampled by metrics::Counters.
  [[nodiscard]] std::size_t peak_pending() const noexcept {
    return peak_pending_;
  }

  /// Cancelled events still occupying a queue (they drop out when they
  /// reach its front). Bounded by pending cancellations; exposed for tests.
  [[nodiscard]] std::size_t cancelled_backlog() const noexcept {
    return cancelled_;
  }

 private:
  /// What the heap and the now-queue order; the callback stays in its slot.
  struct Key {
    SimTime time;
    std::uint64_t sequence;
    std::uint32_t slot;
  };

  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  struct Slot {
    Callback callback;
    /// Advances when the slot's event fires or is skimmed; never 0.
    std::uint32_t generation = 1;
    std::uint32_t next_free = 0;
    bool cancelled = false;
  };

  /// Slots live in fixed-size chunks so a running callback keeps its
  /// address while re-entrant posts grow the slab. Chunks are small (3
  /// KB): a fresh loop's first event allocates and touches one chunk,
  /// and a 24 KB one made Session set-up measurably slower.
  static constexpr std::uint32_t kChunkBits = 5;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  [[nodiscard]] Slot& slot(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkBits][index & (kChunkSize - 1)];
  }

  /// Stores `callback` in a free slot and returns the key's slot index.
  std::uint32_t acquire_slot(Callback callback);

  /// Retires the slot's current event: its handles stop matching.
  static void retire(Slot& s) noexcept {
    if (++s.generation == 0) s.generation = 1;
    s.cancelled = false;
  }

  /// Destroys a retired slot's callback and returns it to the free list.
  void release_slot(std::uint32_t index) noexcept;

  [[nodiscard]] TimerHandle handle_of(std::uint32_t index) noexcept {
    return TimerHandle{
        (static_cast<std::uint64_t>(slot(index).generation) << 32) | index};
  }

  /// Pops and runs the next live event; returns false when exhausted or
  /// when the next event lies beyond `deadline`.
  bool step(SimTime deadline);

  /// Runs the event under `key`, already popped from its queue.
  void fire(const Key& key);

  /// Moves externally posted callbacks into the now-queue (loop thread
  /// only; called at step boundaries).
  void drain_external();

  /// Drops cancelled events sitting at the front of either queue.
  void skim_cancelled();

  std::priority_queue<Key, std::vector<Key>, Later> heap_;
  /// Same-time events from post(): FIFO, so already in (time, sequence)
  /// order — now-queue entries never precede the heap's current time.
  std::deque<Key> now_queue_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slots_used_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  /// Cancelled events whose keys are still queued.
  std::size_t cancelled_ = 0;
  /// Cross-thread hand-off inbox (post_external). The flag makes the
  /// common no-external case a single relaxed load per step.
  std::mutex external_mutex_;
  std::deque<Callback> external_;
  std::atomic<bool> has_external_{false};
  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t peak_pending_ = 0;
  bool stopped_ = false;
};

}  // namespace ripple::sim
