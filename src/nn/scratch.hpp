#pragma once
// Thread-local scratch arena for the conv/FC kernel fast paths.
//
// Every hot kernel needs large transient buffers: the im2col/im2row
// packings, conv backward's per-sample gradient partials, and the SIMD
// backend's packed B panels. Allocating them per call dominated small-layer
// runtime and fragmented the heap under the trainer's batch loop; this
// arena hands out one grow-only aligned buffer per purpose and per thread,
// so after a warmup call at the largest shape a steady-state
// forward/backward performs zero allocations (pinned by
// tests/nn/scratch_arena_test.cpp).
//
// Threading model: buffers are thread_local. A kernel may use a slot only
// on the thread that acquired it — the usual pattern is "acquire inside the
// parallel_for body" (each worker gets its own buffer) or "acquire on the
// calling thread before fanning out" (the SIMD GEMM packs B once on the
// caller, then worker tasks read it; conv backward's tasks each write one
// sample's partial into the caller's slab). Two live buffers on one thread
// must use different slots; each kernel stage below owns a distinct slot so
// nesting (im2col -> packed GEMM) never aliases.

#include <cstddef>
#include <cstdint>

namespace ls::nn::scratch {

/// One slot per concurrently-live buffer a kernel stage needs.
enum class Slot : std::size_t {
  kIm2col = 0,   ///< conv forward im2col packing
  kIm2row,       ///< conv backward im2row packing, then its dRow
  kBwdPartial,   ///< conv backward per-sample dW/db partials (caller,
                 ///< written by workers)
  kPackB,        ///< SIMD GEMM packed B panels (caller, read by workers)
  kSlotCount,
};

/// Returns the calling thread's buffer for `slot`, grown (64-byte aligned,
/// contents unspecified) to hold at least `floats` elements. The pointer is
/// valid until the next buffer() call on the same thread with the same slot
/// and a larger size.
float* buffer(Slot slot, std::size_t floats);

/// Allocation-churn counters for the calling thread's arena.
struct Stats {
  std::uint64_t reallocs = 0;  ///< total buffer growths since thread start
  std::uint64_t bytes = 0;     ///< current total capacity across slots
};
Stats thread_stats();

}  // namespace ls::nn::scratch
