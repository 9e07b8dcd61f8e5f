#!/bin/sh
# Regenerates BENCH_layers.json at the repository root: the per-layer
# micro-benchmark rows (event loop, task transitions, timeline appends,
# heap kept per finished task) that later changes are compared against.
#
# Usage, from the repository root:
#
#     bench/layers_baseline.sh [build-dir]
#
# The build directory defaults to build/ and is configured with the
# project's default build type when it has no CMake cache yet. Each row
# is the mean, median and stddev of five repetitions.
set -eu

build_dir=${1:-build}
if [ ! -f "$build_dir/CMakeCache.txt" ]; then
  cmake -B "$build_dir" -S .
fi
cmake --build "$build_dir" -j --target bench_micro_runtime
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "$build_dir/CMakeCache.txt")

"$build_dir/bench_micro_runtime" \
  --benchmark_filter='^BM_(EventLoopPostRun|EventLoopTimerCancel|TaskTransitions|TimelineRecord|RetainedBytesPerFinishedTask/[0-9]+)$' \
  --benchmark_repetitions=5 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out=BENCH_layers.json \
  --benchmark_out_format=json \
  --benchmark_context=command=bench/layers_baseline.sh,build_type="$build_type"
