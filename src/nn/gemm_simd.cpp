#include "nn/gemm_simd.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "check/check.hpp"
#include "nn/gemm.hpp"
#include "nn/scratch.hpp"
#include "util/parallel.hpp"

// -fopenmp-simd (detected by CMake) activates `#pragma omp simd` without
// pulling in an OpenMP runtime. Without it the macro expands to nothing and
// every entry point hands its shape to the scalar kernel (kPackedBuild), so
// a build without the pragma never runs the packed grid on a plain loop.
#if defined(LS_HAS_OMP_SIMD)
#define LS_PRAGMA_SIMD _Pragma("omp simd")
#else
#define LS_PRAGMA_SIMD
#endif

namespace ls::nn::simd {

namespace {

// Register blocking: the 4 x 16 accumulator tile is 8 YMM registers on the
// AVX2 clone (8 independent FMA chains — enough to cover the 4-5 cycle FMA
// latency at 2 FMAs/cycle), plus two B vectors and the A broadcast. The
// baseline clone splits the same tile across XMM pairs; it spills a little,
// but it is only reached on pre-AVX2 hardware. The accumulators live in
// tile_body's locals, never behind a pointer the packed-B loads could
// alias — that is what lets the compiler keep them register-resident
// across the k loop.
constexpr std::size_t kMr = 4;   ///< microkernel rows (C rows per tile)
constexpr std::size_t kNr = 16;  ///< microkernel cols (vector lanes)

// Task blocking: one parallel task owns a kMc x kNg region of C. The packed
// B panel is shared: run_grid packs every strip exactly once per call (a
// strip's bits depend only on the operand, never on which task or thread
// packs it), then the task grid reads it. Task and strip boundaries are
// compile-time constants, so any thread count produces identical bits.
constexpr std::size_t kMc = 64;   ///< C rows per task block
constexpr std::size_t kNg = 128;  ///< C cols per task block

// Work below this many MACs is not worth a pool dispatch (same threshold as
// the scalar backend).
constexpr std::size_t kParallelMinWork = 1 << 14;

// Below this many C rows the kMr-row tile machinery is pure overhead: the
// tile body pads every row block to kMr with duplicate pointers and the
// packed-B panel is amortized over too few FMAs, so the scalar streaming
// loop wins (FC backward dX runs at M = batch, typically 1-8). The nn
// variants delegate to the scalar kernel there; the threshold keeps the
// grid path for anything with at least two full row tiles. Sparse and
// dense small-M shapes must take the same path so the within-backend
// sparse == dense bit-exactness contract survives the dispatch.
constexpr std::size_t kSmallMRows = 2 * kMr;

// The build half of the kernel choice: without `#pragma omp simd` every
// entry point runs the scalar kernel, whatever the shape.
#if defined(LS_HAS_OMP_SIMD)
constexpr bool kPackedBuild = true;
#else
constexpr bool kPackedBuild = false;
#endif

// ---------------------------------------------------------------------------
// Microkernel: one Mr x Nr accumulator tile over the task's live k spans.
//
// The A operand is NOT packed: its four tile rows are raw operand pointers
// pa[r] with element stride `ka` (1 when rows are contiguous in k, the
// leading dimension when the variant walks a stored-transposed operand), so
// broadcasting pa[r][k * ka] streams the operand in place. The B operand is
// an Nr-wide strip with row stride `bs`: either a packed buffer (bs = kNr,
// lane tails zeroed) or — when the source already has the lanes contiguous
// per k and the strip is full-width — the operand itself (bs = ldb, no copy).
//
// Each C element sees one flat ascending-k reduction: spans are disjoint
// ascending [begin, end) pairs, and vector lanes run along the output
// dimension, never across k. A masked-out span would only have added exact
// +/-0 products (pruned weights are zero in memory), so the sparse entry
// points calling this with a consumer's live spans produce bit-identical
// results to the dense entry points on the same pruned operand (up to the
// sign of exact zeros — outputs compare equal under ==).
//
// TransposedC flips the writeback: the nt variants compute C^T so the big
// operand (the one with k-contiguous rows) can stream unpacked; acc element
// (r, lane) then lands at cb[lane * ldc + r] instead of cb[r * ldc + lane].
// ---------------------------------------------------------------------------
template <bool TransposedC>
[[gnu::always_inline]] inline void tile_body(const float* const pa[kMr],
                                             std::size_t ka, const float* bp,
                                             std::size_t bs,
                                             const std::size_t* spans,
                                             std::size_t n_spans, float* cb,
                                             std::size_t ldc,
                                             std::size_t rows,
                                             std::size_t cols) {
  float acc0[kNr] = {}, acc1[kNr] = {}, acc2[kNr] = {}, acc3[kNr] = {};
  const float* pa0 = pa[0];
  const float* pa1 = pa[1];
  const float* pa2 = pa[2];
  const float* pa3 = pa[3];
  for (std::size_t s = 0; s < n_spans; ++s) {
    const std::size_t k1 = spans[2 * s + 1];
    for (std::size_t k = spans[2 * s]; k < k1; ++k) {
      const float* b = bp + k * bs;
      const float a0 = pa0[k * ka];
      const float a1 = pa1[k * ka];
      const float a2 = pa2[k * ka];
      const float a3 = pa3[k * ka];
      LS_PRAGMA_SIMD
      for (std::size_t j = 0; j < kNr; ++j) {
        acc0[j] += a0 * b[j];
        acc1[j] += a1 * b[j];
        acc2[j] += a2 * b[j];
        acc3[j] += a3 * b[j];
      }
    }
  }
  const float* acc[kMr] = {acc0, acc1, acc2, acc3};
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < cols; ++j) {
      if constexpr (TransposedC) {
        cb[j * ldc + r] += acc[r][j];
      } else {
        cb[r * ldc + j] += acc[r][j];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ISA dispatch. The repo compiles for the portable x86-64 baseline (SSE2),
// where the scalar backend already sits near the vector peak — the simd
// win comes from also compiling the microkernel as an AVX2+FMA clone
// (`target` attribute, no global -march change: the rest of the binary
// stays portable) and selecting it once at startup via cpuid. tile_body is
// always_inline with baseline-only options, so each wrapper's target set
// legally absorbs it. FMA contraction perturbs accumulation vs the SSE
// clone, which is fine: cross-backend parity is tolerance-based, and both
// the dense and sparse simd paths run the SAME clone, preserving their
// exact-equality contract.
// ---------------------------------------------------------------------------

using TileFn = void (*)(const float* const[kMr], std::size_t, const float*,
                        std::size_t, const std::size_t*, std::size_t, float*,
                        std::size_t, std::size_t, std::size_t);

void tile_base_n(const float* const pa[kMr], std::size_t ka, const float* bp,
                 std::size_t bs, const std::size_t* spans, std::size_t n_spans,
                 float* cb, std::size_t ldc, std::size_t rows,
                 std::size_t cols) {
  tile_body<false>(pa, ka, bp, bs, spans, n_spans, cb, ldc, rows, cols);
}

void tile_base_t(const float* const pa[kMr], std::size_t ka, const float* bp,
                 std::size_t bs, const std::size_t* spans, std::size_t n_spans,
                 float* cb, std::size_t ldc, std::size_t rows,
                 std::size_t cols) {
  tile_body<true>(pa, ka, bp, bs, spans, n_spans, cb, ldc, rows, cols);
}

#if defined(__x86_64__) && defined(__GNUC__)
#define LS_SIMD_AVX2_CLONES 1

[[gnu::target("avx2,fma")]] void tile_avx2_n(
    const float* const pa[kMr], std::size_t ka, const float* bp,
    std::size_t bs, const std::size_t* spans, std::size_t n_spans, float* cb,
    std::size_t ldc, std::size_t rows, std::size_t cols) {
  tile_body<false>(pa, ka, bp, bs, spans, n_spans, cb, ldc, rows, cols);
}

[[gnu::target("avx2,fma")]] void tile_avx2_t(
    const float* const pa[kMr], std::size_t ka, const float* bp,
    std::size_t bs, const std::size_t* spans, std::size_t n_spans, float* cb,
    std::size_t ldc, std::size_t rows, std::size_t cols) {
  tile_body<true>(pa, ka, bp, bs, spans, n_spans, cb, ldc, rows, cols);
}
#endif

template <bool TransposedC>
TileFn tile_fn() {
#if defined(LS_SIMD_AVX2_CLONES)
  static const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (avx2) return TransposedC ? tile_avx2_t : tile_avx2_n;
#endif
  return TransposedC ? tile_base_t : tile_base_n;
}

// Strip sources for the B operand. Transposition is absorbed here, never in
// the microkernel. `direct(j, w)` returns an in-place strip pointer (row
// stride ldb) when the source already holds the strip's kNr lanes
// contiguously per k — the (K x N) row-major layout with a full-width strip
// — so nothing is copied; it returns nullptr when the strip must be packed.
// The packer `operator()` zeroes the lane tail (lane >= w) and fills only k
// in [k0, k1): span gaps stay whatever the scratch buffer held — the kernel
// only reads packed spans, which is what lets gemm_nn_sparse tolerate the
// garbage rows im2col_masked leaves in fully-pruned panels. Direct strips
// read the same rows, so the garbage is equally unreachable there.

struct PackBNn {  // operand stored (K x N) row-major
  const float* B;
  std::size_t ldb;
  const float* direct(std::size_t j, std::size_t w) const {
    return w == kNr ? B + j : nullptr;
  }
  std::size_t direct_stride() const { return ldb; }
  void operator()(std::size_t j, std::size_t w, std::size_t k0,
                  std::size_t k1, float* bp) const {
    for (std::size_t k = k0; k < k1; ++k) {
      const float* b_row = B + k * ldb + j;
      float* dst = bp + k * kNr;
      for (std::size_t lane = 0; lane < kNr; ++lane) {
        dst[lane] = lane < w ? b_row[lane] : 0.0f;
      }
    }
  }
};

struct PackBNt {  // operand stored (N x K), packed as its transpose
  const float* B;
  std::size_t ldb;
  const float* direct(std::size_t, std::size_t) const { return nullptr; }
  std::size_t direct_stride() const { return 0; }
  void operator()(std::size_t j, std::size_t w, std::size_t k0,
                  std::size_t k1, float* bp) const {
    for (std::size_t lane = 0; lane < kNr; ++lane) {
      if (lane < w) {
        const float* b_row = B + (j + lane) * ldb;
        for (std::size_t k = k0; k < k1; ++k) bp[k * kNr + lane] = b_row[k];
      } else {
        for (std::size_t k = k0; k < k1; ++k) bp[k * kNr + lane] = 0.0f;
      }
    }
  }
};

// ---------------------------------------------------------------------------
// One task block: C[i0:i1, j0:j1] (or its transpose) over the live spans.
// `A` + (row_stride, k_stride) addresses the unpacked operand: tile row i
// is A + i * row_stride, element k of it at offset k * k_stride. `bp` holds
// this col block's packed strips, consecutive in strip order and skipping
// direct strips (run_grid packs each exactly once, shared read-only across
// every row block that consumes it); `pack_b.direct()` resolves the rest in
// place.
// ---------------------------------------------------------------------------
template <bool TransposedC, class PackB>
void run_block(const float* A, std::size_t row_stride, std::size_t k_stride,
               std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
               std::size_t K, const std::size_t* spans, std::size_t n_spans,
               const float* bp, const PackB& pack_b, float* C,
               std::size_t ldc, bool accumulate) {
  const std::size_t rows = i1 - i0;
  const std::size_t cols = j1 - j0;
  if (rows == 0 || cols == 0) return;
  if (!accumulate) {
    // In the transposed orientation the (i, j) block of the *logical*
    // output occupies C[j0:j1, i0:i1] of the stored matrix.
    if constexpr (TransposedC) {
      for (std::size_t j = j0; j < j1; ++j) {
        std::memset(C + j * ldc + i0, 0, rows * sizeof(float));
      }
    } else {
      for (std::size_t i = i0; i < i1; ++i) {
        std::memset(C + i * ldc + j0, 0, cols * sizeof(float));
      }
    }
  }
  if (n_spans == 0 || K == 0) return;  // fully pruned: region is zero/prior
  const TileFn tile = tile_fn<TransposedC>();
  const std::size_t n_tiles = (rows + kMr - 1) / kMr;
  const std::size_t n_strips = (cols + kNr - 1) / kNr;
  std::size_t packed = 0;
  for (std::size_t st = 0; st < n_strips; ++st) {
    const std::size_t j = j0 + st * kNr;
    const std::size_t w = std::min(kNr, j1 - j);
    const float* bpp = pack_b.direct(j, w);
    std::size_t bs = pack_b.direct_stride();
    if (bpp == nullptr) {
      bpp = bp + packed++ * K * kNr;
      bs = kNr;
    }
    for (std::size_t t = 0; t < n_tiles; ++t) {
      const std::size_t i = i0 + t * kMr;
      const std::size_t tr = std::min(kMr, i1 - i);
      // Tail tiles duplicate the last valid row pointer: the duplicate
      // lanes compute real (unread) values, and writeback stops at tr.
      const float* pa[kMr];
      for (std::size_t r = 0; r < kMr; ++r) {
        pa[r] = A + std::min(i + r, i1 - 1) * row_stride;
      }
      float* cb = TransposedC ? C + j * ldc + i : C + i * ldc + j;
      tile(pa, k_stride, bpp, bs, spans, n_spans, cb, ldc, tr, w);
    }
  }
}

// ---------------------------------------------------------------------------
// Task grids. A task is one (row block, col block) cell; the dense grids
// use fixed kMc/kNg cells, the sparse grids align cell edges to the mask's
// consumer (or producer) panel boundaries so every task has exactly one
// live-span list.
// ---------------------------------------------------------------------------

struct Block {
  std::size_t b0 = 0, b1 = 0;  ///< [begin, end) index range
  std::uint32_t panel = 0;     ///< owning mask panel (0 for dense)
};

std::vector<Block> dense_blocks(std::size_t n, std::size_t step) {
  std::vector<Block> bs;
  for (std::size_t b0 = 0; b0 < n; b0 += step) {
    bs.push_back({b0, std::min(n, b0 + step), 0});
  }
  return bs;
}

// Splits each panel of `bounds` into blocks of at most `step`. Empty panels
// contribute nothing (their index range is covered by neighbours).
std::vector<Block> panel_blocks(const std::size_t* bounds, std::size_t parts,
                                std::size_t step) {
  std::vector<Block> bs;
  for (std::size_t p = 0; p < parts; ++p) {
    for (std::size_t b0 = bounds[p]; b0 < bounds[p + 1]; b0 += step) {
      bs.push_back({b0, std::min(bounds[p + 1], b0 + step),
                    static_cast<std::uint32_t>(p)});
    }
  }
  return bs;
}

// Merged ascending [begin, end) span pairs per panel.
struct PanelSpans {
  std::vector<std::size_t> offsets;  ///< parts + 1 indices into spans
  std::vector<std::size_t> spans;    ///< begin/end pairs

  const std::size_t* data(std::size_t panel) const {
    return spans.data() + offsets[panel];
  }
  std::size_t count(std::size_t panel) const {
    return (offsets[panel + 1] - offsets[panel]) / 2;
  }
};

// Live k spans per consumer c: union over producers p with !zero[p][c] of
// the k_bounds[p] ranges (contiguous live panels merge into one span).
PanelSpans consumer_live_spans(const gemm::BlockMask& mask) {
  PanelSpans ps;
  ps.offsets.assign(mask.parts + 1, 0);
  for (std::size_t c = 0; c < mask.parts; ++c) {
    ps.offsets[c] = ps.spans.size();
    for (std::size_t p = 0; p < mask.parts; ++p) {
      if (mask.zero[p * mask.parts + c]) continue;
      const std::size_t lo = mask.k_bounds[p], hi = mask.k_bounds[p + 1];
      if (lo >= hi) continue;
      if (ps.spans.size() > ps.offsets[c] && ps.spans.back() == lo) {
        ps.spans.back() = hi;
      } else {
        ps.spans.push_back(lo);
        ps.spans.push_back(hi);
      }
    }
  }
  ps.offsets[mask.parts] = ps.spans.size();
  return ps;
}

// Live spans per *producer* p over the consumer bounds (for the tn variant,
// where the reduction dimension is the consumer partition).
PanelSpans producer_live_spans(const gemm::BlockMask& mask) {
  PanelSpans ps;
  ps.offsets.assign(mask.parts + 1, 0);
  for (std::size_t p = 0; p < mask.parts; ++p) {
    ps.offsets[p] = ps.spans.size();
    for (std::size_t c = 0; c < mask.parts; ++c) {
      if (mask.zero[p * mask.parts + c]) continue;
      const std::size_t lo = mask.out_bounds[c], hi = mask.out_bounds[c + 1];
      if (lo >= hi) continue;
      if (ps.spans.size() > ps.offsets[p] && ps.spans.back() == lo) {
        ps.spans.back() = hi;
      } else {
        ps.spans.push_back(lo);
        ps.spans.push_back(hi);
      }
    }
  }
  ps.offsets[mask.parts] = ps.spans.size();
  return ps;
}

// Union across consumers of the live producer k ranges — exactly the rows a
// masked im2col fills. The shared packed panel covers this union (a task
// then reduces over its own consumer's subset), so rows dead for *all*
// consumers are never packed and their garbage is never read.
std::vector<std::size_t> union_live_spans(const gemm::BlockMask& mask) {
  std::vector<std::size_t> spans;
  for (std::size_t p = 0; p < mask.parts; ++p) {
    bool live = false;
    for (std::size_t c = 0; c < mask.parts && !live; ++c) {
      live = !mask.zero[p * mask.parts + c];
    }
    if (!live) continue;
    const std::size_t lo = mask.k_bounds[p], hi = mask.k_bounds[p + 1];
    if (lo >= hi) continue;
    if (!spans.empty() && spans.back() == lo) {
      spans.back() = hi;
    } else {
      spans.push_back(lo);
      spans.push_back(hi);
    }
  }
  return spans;
}

// Same probe as the scalar backend's: a mismatched mask silently skips or
// double-counts k spans, so checked builds verify extents at every entry.
void check_mask_extents(const gemm::BlockMask& mask, std::size_t red_extent,
                        std::size_t out_extent) {
  LS_CHECK(mask.parts > 0);
  LS_CHECK_MSG(mask.k_bounds[mask.parts] == red_extent,
               "block mask k extent %zu != gemm reduction extent %zu",
               mask.k_bounds[mask.parts], red_extent);
  LS_CHECK_MSG(mask.out_bounds[mask.parts] == out_extent,
               "block mask out extent %zu != gemm output extent %zu",
               mask.out_bounds[mask.parts], out_extent);
  for (std::size_t p = 0; p < mask.parts; ++p) {
    LS_CHECK_MSG(mask.k_bounds[p] <= mask.k_bounds[p + 1] &&
                     mask.out_bounds[p] <= mask.out_bounds[p + 1],
                 "block mask bounds not monotonic at panel %zu", p);
  }
}

// Runs the (row block x col block) task grid, parallel when worthwhile.
// `spans_of` maps a task's blocks to its live k list; blocks never straddle
// mask panels, so the lookup is per-task. `pack_spans_of` gives the k spans
// a col block's shared strips must cover — a superset of every task's
// compute spans (the union of consumer live lists for the sparse nn/nt
// grids, the col block's own list for tn). Packing happens once per call
// into the caller's scratch slot; both phases split the same way for every
// thread count, and a strip's packed bits do not depend on who packs it,
// so determinism is preserved. parallel_for's fork/join orders the pack
// phase before every compute task.
template <bool TransposedC, class SpansOf, class PackSpansOf, class PackB>
void run_grid(const float* A, std::size_t row_stride, std::size_t k_stride,
              const std::vector<Block>& rbs, const std::vector<Block>& cbs,
              std::size_t K, float* C, std::size_t ldc, bool accumulate,
              bool parallel, std::size_t work, const SpansOf& spans_of,
              const PackSpansOf& pack_spans_of, const PackB& pack_b) {
  const std::size_t n_tasks = rbs.size() * cbs.size();
  if (n_tasks == 0) return;
  // Packed-strip table: col block ci's packed strips (the ones direct()
  // cannot serve in place) occupy [strip_base[ci], strip_base[ci + 1]).
  std::vector<std::size_t> strip_base(cbs.size() + 1, 0);
  for (std::size_t ci = 0; ci < cbs.size(); ++ci) {
    std::size_t n_packed = 0;
    for (std::size_t j = cbs[ci].b0; j < cbs[ci].b1; j += kNr) {
      const std::size_t w = std::min(kNr, cbs[ci].b1 - j);
      if (pack_b.direct(j, w) == nullptr) ++n_packed;
    }
    strip_base[ci + 1] = strip_base[ci] + n_packed;
  }
  float* bp =
      scratch::buffer(scratch::Slot::kPackB, strip_base.back() * K * kNr);
  auto pack_cb = [&](std::size_t ci) {
    const Block& cb = cbs[ci];
    std::size_t n_spans = 0;
    const std::size_t* spans = pack_spans_of(cb, &n_spans);
    std::size_t packed = 0;
    for (std::size_t j = cb.b0; j < cb.b1; j += kNr) {
      const std::size_t w = std::min(kNr, cb.b1 - j);
      if (pack_b.direct(j, w) != nullptr) continue;
      float* dst = bp + (strip_base[ci] + packed++) * K * kNr;
      for (std::size_t s = 0; s < n_spans; ++s) {
        pack_b(j, w, spans[2 * s], spans[2 * s + 1], dst);
      }
    }
  };
  auto task = [&](std::size_t t) {
    const Block& rb = rbs[t / cbs.size()];
    const std::size_t ci = t % cbs.size();
    const Block& cb = cbs[ci];
    std::size_t n_spans = 0;
    const std::size_t* spans = spans_of(rb, cb, &n_spans);
    run_block<TransposedC>(A, row_stride, k_stride, rb.b0, rb.b1, cb.b0,
                           cb.b1, K, spans, n_spans,
                           bp + strip_base[ci] * K * kNr, pack_b, C, ldc,
                           accumulate);
  };
  if (parallel && n_tasks > 1 && work >= kParallelMinWork) {
    if (strip_base.back() > 0) util::parallel_for(0, cbs.size(), pack_cb);
    util::parallel_for(0, n_tasks, task);
  } else {
    if (strip_base.back() > 0) {
      for (std::size_t ci = 0; ci < cbs.size(); ++ci) pack_cb(ci);
    }
    for (std::size_t t = 0; t < n_tasks; ++t) task(t);
  }
}

}  // namespace

bool vectorized() { return kPackedBuild; }

const char* microkernel_isa() {
#if defined(LS_SIMD_AVX2_CLONES)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return "avx2+fma";
  }
#endif
  return "portable";
}

void gemm_nn(std::size_t M, std::size_t N, std::size_t K, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate, bool parallel) {
  if (M == 0 || N == 0) return;
  if (!kPackedBuild || M < kSmallMRows) {
    gemm::gemm_nn(M, N, K, A, lda, B, ldb, C, ldc, accumulate, parallel);
    return;
  }
  const std::size_t full[2] = {0, K};
  const auto all = [&](const Block&, const Block&, std::size_t* n) {
    *n = K > 0 ? 1 : 0;
    return full;
  };
  const auto pack_all = [&](const Block&, std::size_t* n) {
    *n = K > 0 ? 1 : 0;
    return full;
  };
  run_grid<false>(A, lda, 1, dense_blocks(M, kMc), dense_blocks(N, kNg), K, C,
                  ldc, accumulate, parallel, M * N * K, all, pack_all,
                  PackBNn{B, ldb});
}

void gemm_tn(std::size_t M, std::size_t N, std::size_t K, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate, bool parallel) {
  // A is stored (K x M): logical row i is the stored column at A + i, with
  // k advancing by lda — contiguous kMr-wide reads per k, no packing.
  if (M == 0 || N == 0) return;
  if (!kPackedBuild) {
    gemm::gemm_tn(M, N, K, A, lda, B, ldb, C, ldc, accumulate, parallel);
    return;
  }
  const std::size_t full[2] = {0, K};
  const auto all = [&](const Block&, const Block&, std::size_t* n) {
    *n = K > 0 ? 1 : 0;
    return full;
  };
  const auto pack_all = [&](const Block&, std::size_t* n) {
    *n = K > 0 ? 1 : 0;
    return full;
  };
  run_grid<false>(A, 1, lda, dense_blocks(M, kMc), dense_blocks(N, kNg), K, C,
                  ldc, accumulate, parallel, M * N * K, all, pack_all,
                  PackBNn{B, ldb});
}

void gemm_nt(std::size_t M, std::size_t N, std::size_t K, const float* A,
             std::size_t lda, const float* B, std::size_t ldb, float* C,
             std::size_t ldc, bool accumulate, bool parallel) {
  // Computed as C^T(N x M) = B(N x K) * A^T: B's rows are k-contiguous and
  // stream unpacked; only A (usually the small operand — FC activations)
  // gets strip-packed. Writeback transposes back into C.
  if (M == 0 || N == 0) return;
  if (!kPackedBuild) {
    gemm::gemm_nt(M, N, K, A, lda, B, ldb, C, ldc, accumulate, parallel);
    return;
  }
  const std::size_t full[2] = {0, K};
  const auto all = [&](const Block&, const Block&, std::size_t* n) {
    *n = K > 0 ? 1 : 0;
    return full;
  };
  const auto pack_all = [&](const Block&, std::size_t* n) {
    *n = K > 0 ? 1 : 0;
    return full;
  };
  run_grid<true>(B, ldb, 1, dense_blocks(N, kMc), dense_blocks(M, kNg), K, C,
                 ldc, accumulate, parallel, M * N * K, all, pack_all,
                 PackBNt{A, lda});
}

void gemm_nn_sparse(std::size_t M, std::size_t N, std::size_t K,
                    const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* C, std::size_t ldc,
                    bool accumulate, bool parallel,
                    const gemm::BlockMask& mask) {
  if (M == 0 || N == 0) return;
  if constexpr (check::kEnabled) check_mask_extents(mask, K, M);
  if (!kPackedBuild || M < kSmallMRows) {
    gemm::gemm_nn_sparse(M, N, K, A, lda, B, ldb, C, ldc, accumulate,
                         parallel, mask);
    return;
  }
  const PanelSpans live = consumer_live_spans(mask);
  const std::vector<std::size_t> pack_spans = union_live_spans(mask);
  // Row blocks align to consumer panels: every task has one consumer, so
  // its live list covers exactly the packed B rows it reads. Strips are
  // packed over the union of all consumers' lists; dead-for-all panels are
  // outside the union — the garbage rows im2col_masked leaves there are
  // never packed, never touched.
  run_grid<false>(A, lda, 1, panel_blocks(mask.out_bounds, mask.parts, kMc),
                  dense_blocks(N, kNg), K, C, ldc, accumulate, parallel,
                  M * N * K,
                  [&](const Block& rb, const Block&, std::size_t* n) {
                    *n = live.count(rb.panel);
                    return live.data(rb.panel);
                  },
                  [&](const Block&, std::size_t* n) {
                    *n = pack_spans.size() / 2;
                    return pack_spans.data();
                  },
                  PackBNn{B, ldb});
}

void gemm_nt_sparse(std::size_t M, std::size_t N, std::size_t K,
                    const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* C, std::size_t ldc,
                    bool accumulate, bool parallel,
                    const gemm::BlockMask& mask) {
  if (M == 0 || N == 0) return;
  if constexpr (check::kEnabled) check_mask_extents(mask, K, N);
  if (!kPackedBuild) {
    gemm::gemm_nt_sparse(M, N, K, A, lda, B, ldb, C, ldc, accumulate,
                         parallel, mask);
    return;
  }
  const PanelSpans live = consumer_live_spans(mask);
  const std::vector<std::size_t> pack_spans = union_live_spans(mask);
  // Transposed orientation: the grid's row dimension is N (the weight rows
  // of B), which is exactly the consumer partition — row blocks align to
  // consumer panels and skip their dead k spans of the weight operand. The
  // packed activations cover the union of the consumers' live spans.
  run_grid<true>(B, ldb, 1, panel_blocks(mask.out_bounds, mask.parts, kMc),
                 dense_blocks(M, kNg), K, C, ldc, accumulate, parallel,
                 M * N * K,
                 [&](const Block& rb, const Block&, std::size_t* n) {
                   *n = live.count(rb.panel);
                   return live.data(rb.panel);
                 },
                 [&](const Block&, std::size_t* n) {
                   *n = pack_spans.size() / 2;
                   return pack_spans.data();
                 },
                 PackBNt{A, lda});
}

void gemm_tn_sparse(std::size_t M, std::size_t N, std::size_t K,
                    const float* A, std::size_t lda, const float* B,
                    std::size_t ldb, float* C, std::size_t ldc,
                    bool accumulate, bool parallel,
                    const gemm::BlockMask& mask) {
  if (M == 0 || N == 0) return;
  if constexpr (check::kEnabled) check_mask_extents(mask, N, K);
  if (!kPackedBuild) {
    gemm::gemm_tn_sparse(M, N, K, A, lda, B, ldb, C, ldc, accumulate,
                         parallel, mask);
    return;
  }
  const PanelSpans live = producer_live_spans(mask);
  // Col blocks align to *producer* panels over N; each column's live k
  // spans are the consumer ranges whose (producer, consumer) block is live.
  // Spans depend only on the col block here, so pack spans == compute spans.
  run_grid<false>(A, 1, lda, dense_blocks(M, kMc),
                  panel_blocks(mask.k_bounds, mask.parts, kNg), K, C, ldc,
                  accumulate, parallel, M * N * K,
                  [&](const Block&, const Block& cb, std::size_t* n) {
                    *n = live.count(cb.panel);
                    return live.data(cb.panel);
                  },
                  [&](const Block& cb, std::size_t* n) {
                    *n = live.count(cb.panel);
                    return live.data(cb.panel);
                  },
                  PackBNn{B, ldb});
}

}  // namespace ls::nn::simd
