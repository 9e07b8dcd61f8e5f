#pragma once

/// \file retained_bytes.hpp
/// Heap a Session keeps per finished task, read from glibc's mallinfo2.
///
/// Shared by bench_micro_runtime (BM_RetainedBytesPerFinishedTask) and
/// the retained-bytes gate in test_task_lifetime. One Session runs
/// `tasks` modeled 8-core tasks on a 16-node delta pilot, one pilot
/// width (128 tasks) at a time, so the event loop and the scheduler
/// queue never hold more than one wave. The heap in use is read once
/// the pilot is active and again after the last wave, with the
/// Timeline cleared in between: what is left is what the finished
/// tasks keep.
///
/// Sanitizer runtimes serve allocations from their own heap, which
/// mallinfo2 does not see; kHeapVisible is false there and the byte
/// figure means nothing.

#include <malloc.h>

#include <cstddef>

#include "ripple/common/random.hpp"
#include "ripple/core/session.hpp"
#include "ripple/platform/profiles.hpp"

namespace ripple::bench {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kHeapVisible = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kHeapVisible = false;
#else
inline constexpr bool kHeapVisible = true;
#endif
#else
inline constexpr bool kHeapVisible = true;
#endif

struct RetainedBytes {
  double per_task = 0.0;  ///< heap growth over the run / tasks
  std::size_t done = 0;   ///< tasks that finished in DONE
};

[[nodiscard]] inline double heap_in_use() {
  const auto info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

[[nodiscard]] inline RetainedBytes retained_bytes_per_finished_task(
    int tasks) {
  constexpr int kWave = 16 * 64 / 8;  // tasks that fit the pilot at once
  core::Session session({.seed = 7});
  session.add_platform(platform::delta_profile(16));
  auto& pilot = session.submit_pilot({.platform = "delta", .nodes = 16});
  core::TaskDescription desc;
  desc.cores = 8;
  desc.duration = common::Distribution::constant(1.0);
  session.run();
  const double before = heap_in_use();
  for (int i = 0; i < tasks; ++i) {
    (void)session.tasks().submit(pilot, desc);
    if ((i + 1) % kWave == 0) session.run();
  }
  session.run();
  session.timeline().clear();
  RetainedBytes out;
  out.per_task = (heap_in_use() - before) / tasks;
  out.done = session.tasks().count_in_state(core::TaskState::done);
  return out;
}

}  // namespace ripple::bench
