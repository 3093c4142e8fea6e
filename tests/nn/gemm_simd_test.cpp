// Parity and contract suite for the vectorized GEMM backend (ls::nn::simd).
//
// Three contracts from gemm_simd.hpp:
//   * dense simd vs dense scalar agree to a K-scaled relative tolerance
//     (different accumulation grouping and FMA contraction, same math);
//   * sparse simd vs dense simd on the same pruned operand compare EQUAL
//     under == (span skipping removes only exact-zero contributions);
//   * outputs are byte-identical for every thread count, parallel or not.
// Plus the edge grid (K below/straddling the vector width, row/col tails)
// and the im2col garbage-row obligation: rows of the packed matrix that lie
// in panels dead for *all* consumers may hold arbitrary bits — poisoned
// with NaN here — and must never influence the sparse result.

#include "nn/gemm_simd.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "nn/block_sparsity.hpp"
#include "nn/gemm.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ls::nn {
namespace {

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform() * 2.0 - 1.0);
  return v;
}

// Accumulation-order differences compound with reduction length; the bound
// observed across the bench shapes is ~5e-8 * K relative, so 1e-5 + 3e-7*K
// leaves comfortable margin without masking real indexing bugs.
double tol_for(std::size_t K) {
  return 1e-5 + 3e-7 * static_cast<double>(K);
}

void expect_close(const std::vector<float>& ref, const std::vector<float>& got,
                  std::size_t K, const char* what) {
  ASSERT_EQ(ref.size(), got.size());
  const double tol = tol_for(K);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double den = std::max(1.0, std::fabs(static_cast<double>(ref[i])));
    const double rel = std::fabs(static_cast<double>(ref[i]) - got[i]) / den;
    ASSERT_LE(rel, tol) << what << " at " << i << ": ref=" << ref[i]
                        << " got=" << got[i];
  }
}

struct Mask {
  std::size_t parts = 0;
  std::vector<std::size_t> k_bounds, out_bounds;
  std::vector<std::uint8_t> zero;
  gemm::BlockMask view() const {
    return {parts, k_bounds.data(), out_bounds.data(), zero.data()};
  }
};

// Weight operand stored (out_extent x red_extent) row-major; marks the
// requested (producer, consumer) blocks zero and zeroes the matching weight
// spans so the bitmap is truthful (the exact-equality contract assumes it).
Mask prune_blocks(std::vector<float>& w, std::size_t out_extent,
                  std::size_t red_extent, std::size_t parts,
                  const std::vector<std::pair<std::size_t, std::size_t>>& pc) {
  Mask m;
  m.parts = parts;
  m.out_bounds = balanced_bounds(out_extent, parts);
  m.k_bounds = balanced_bounds(red_extent, parts);
  m.zero.assign(parts * parts, 0);
  for (const auto& [p, c] : pc) {
    m.zero[p * parts + c] = 1;
    for (std::size_t i = m.out_bounds[c]; i < m.out_bounds[c + 1]; ++i) {
      for (std::size_t k = m.k_bounds[p]; k < m.k_bounds[p + 1]; ++k) {
        w[i * red_extent + k] = 0.0f;
      }
    }
  }
  return m;
}

struct Dims {
  std::size_t M, N, K;
};

// Tails on every axis: rows vs the 4-wide tile, cols vs the 16-lane strip,
// K below / at / straddling the strip row count, K=1, and a shape big
// enough to cross the kMc=64 x kNg=128 task grid.
const Dims kShapes[] = {
    {1, 1, 1},    {3, 5, 7},     {4, 16, 16},   {5, 17, 16},  {8, 33, 1},
    {16, 48, 15}, {13, 100, 17}, {64, 128, 32}, {70, 150, 51}, {32, 256, 93},
};

TEST(GemmSimd, DenseNnMatchesScalar) {
  for (const Dims& d : kShapes) {
    const auto A = random_vec(d.M * d.K, 1);
    const auto B = random_vec(d.K * d.N, 2);
    std::vector<float> ref(d.M * d.N), got(d.M * d.N);
    gemm::gemm_nn(d.M, d.N, d.K, A.data(), d.K, B.data(), d.N, ref.data(),
                  d.N, false, false);
    simd::gemm_nn(d.M, d.N, d.K, A.data(), d.K, B.data(), d.N, got.data(),
                  d.N, false, false);
    expect_close(ref, got, d.K, "nn");
  }
}

TEST(GemmSimd, DenseNtMatchesScalar) {
  for (const Dims& d : kShapes) {
    const auto A = random_vec(d.M * d.K, 3);
    const auto B = random_vec(d.N * d.K, 4);  // stored (N x K)
    std::vector<float> ref(d.M * d.N), got(d.M * d.N);
    gemm::gemm_nt(d.M, d.N, d.K, A.data(), d.K, B.data(), d.K, ref.data(),
                  d.N, false, false);
    simd::gemm_nt(d.M, d.N, d.K, A.data(), d.K, B.data(), d.K, got.data(),
                  d.N, false, false);
    expect_close(ref, got, d.K, "nt");
  }
}

TEST(GemmSimd, DenseTnMatchesScalar) {
  for (const Dims& d : kShapes) {
    const auto A = random_vec(d.K * d.M, 5);  // stored (K x M)
    const auto B = random_vec(d.K * d.N, 6);
    std::vector<float> ref(d.M * d.N), got(d.M * d.N);
    gemm::gemm_tn(d.M, d.N, d.K, A.data(), d.M, B.data(), d.N, ref.data(),
                  d.N, false, false);
    simd::gemm_tn(d.M, d.N, d.K, A.data(), d.M, B.data(), d.N, got.data(),
                  d.N, false, false);
    expect_close(ref, got, d.K, "tn");
  }
}

TEST(GemmSimd, AccumulateAddsIntoPriorOutput) {
  const Dims d{13, 37, 29};
  const auto A = random_vec(d.M * d.K, 7);
  const auto B = random_vec(d.K * d.N, 8);
  const auto C0 = random_vec(d.M * d.N, 9);
  std::vector<float> once(C0), twice(C0);
  simd::gemm_nn(d.M, d.N, d.K, A.data(), d.K, B.data(), d.N, once.data(),
                d.N, /*accumulate=*/true, false);
  simd::gemm_nn(d.M, d.N, d.K, A.data(), d.K, B.data(), d.N, twice.data(),
                d.N, /*accumulate=*/true, false);
  simd::gemm_nn(d.M, d.N, d.K, A.data(), d.K, B.data(), d.N, twice.data(),
                d.N, /*accumulate=*/true, false);
  for (std::size_t i = 0; i < once.size(); ++i) {
    // twice - once == once - C0 up to one rounding step of the second add.
    const float inc = once[i] - C0[i];
    EXPECT_NEAR(twice[i], once[i] + inc, 1e-4f + 1e-3f * std::fabs(inc));
  }
  // accumulate=false must overwrite, not add.
  std::vector<float> fresh(C0), zero_based(d.M * d.N, 0.0f);
  simd::gemm_nn(d.M, d.N, d.K, A.data(), d.K, B.data(), d.N, fresh.data(),
                d.N, /*accumulate=*/false, false);
  simd::gemm_nn(d.M, d.N, d.K, A.data(), d.K, B.data(), d.N,
                zero_based.data(), d.N, /*accumulate=*/true, false);
  EXPECT_EQ(0, std::memcmp(fresh.data(), zero_based.data(),
                           fresh.size() * sizeof(float)));
}

// Sparse vs dense on the same pruned operand: exact equality, per variant.

TEST(GemmSimd, SparseNnExactlyMatchesDenseSimd) {
  const std::size_t M = 24, N = 70, K = 45, parts = 4;
  auto A = random_vec(M * K, 10);  // weights (M x K)
  const auto B = random_vec(K * N, 11);
  const Mask m = prune_blocks(A, M, K, parts, {{0, 1}, {2, 1}, {3, 0}, {1, 3}});
  std::vector<float> dense(M * N), sparse(M * N);
  simd::gemm_nn(M, N, K, A.data(), K, B.data(), N, dense.data(), N, false,
                false);
  simd::gemm_nn_sparse(M, N, K, A.data(), K, B.data(), N, sparse.data(), N,
                       false, false, m.view());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_EQ(dense[i], sparse[i]) << "at " << i;
  }
}

TEST(GemmSimd, SparseNtExactlyMatchesDenseSimd) {
  const std::size_t M = 9, N = 40, K = 33, parts = 3;
  const auto A = random_vec(M * K, 12);
  auto B = random_vec(N * K, 13);  // weights (N x K)
  const Mask m = prune_blocks(B, N, K, parts, {{0, 2}, {1, 0}, {2, 2}});
  std::vector<float> dense(M * N), sparse(M * N);
  simd::gemm_nt(M, N, K, A.data(), K, B.data(), K, dense.data(), N, false,
                false);
  simd::gemm_nt_sparse(M, N, K, A.data(), K, B.data(), K, sparse.data(), N,
                       false, false, m.view());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_EQ(dense[i], sparse[i]) << "at " << i;
  }
}

TEST(GemmSimd, SparseTnExactlyMatchesDenseSimd) {
  // tn: B = weights (K x N), out_bounds partition K, k_bounds partition N.
  const std::size_t M = 18, N = 52, K = 28, parts = 4;
  const auto A = random_vec(K * M, 14);  // stored (K x M)
  auto B = random_vec(K * N, 15);
  Mask m;
  m.parts = parts;
  m.out_bounds = balanced_bounds(K, parts);
  m.k_bounds = balanced_bounds(N, parts);
  m.zero.assign(parts * parts, 0);
  for (const auto& [p, c] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 0}, {1, 3}, {3, 3}, {2, 1}}) {
    m.zero[p * parts + c] = 1;
    for (std::size_t k = m.out_bounds[c]; k < m.out_bounds[c + 1]; ++k) {
      for (std::size_t j = m.k_bounds[p]; j < m.k_bounds[p + 1]; ++j) {
        B[k * N + j] = 0.0f;
      }
    }
  }
  std::vector<float> dense(M * N), sparse(M * N);
  simd::gemm_tn(M, N, K, A.data(), M, B.data(), N, dense.data(), N, false,
                false);
  simd::gemm_tn_sparse(M, N, K, A.data(), M, B.data(), N, sparse.data(), N,
                       false, false, m.view());
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_EQ(dense[i], sparse[i]) << "at " << i;
  }
}

TEST(GemmSimd, FullyPrunedConsumerYieldsZeroRows) {
  const std::size_t M = 16, N = 20, K = 24, parts = 2;
  auto A = random_vec(M * K, 16);
  const auto B = random_vec(K * N, 17);
  // Consumer 0 loses every producer: its C rows must be exactly zero.
  const Mask m = prune_blocks(A, M, K, parts, {{0, 0}, {1, 0}});
  std::vector<float> sparse(M * N, -1.0f);
  simd::gemm_nn_sparse(M, N, K, A.data(), K, B.data(), N, sparse.data(), N,
                       /*accumulate=*/false, false, m.view());
  for (std::size_t i = m.out_bounds[0]; i < m.out_bounds[1]; ++i) {
    for (std::size_t j = 0; j < N; ++j) {
      ASSERT_EQ(sparse[i * N + j], 0.0f) << "row " << i << " col " << j;
    }
  }
}

TEST(GemmSimd, DeadPanelGarbageRowsNeverRead) {
  // Mirrors im2col_masked's contract: rows of the packed matrix in panels
  // dead for ALL consumers hold arbitrary bits. Poison them with NaN — any
  // read (packed or direct-strip) would propagate into C and fail here.
  // A build without the packed grid runs the scalar kernel here, which
  // im2col_masked serves by zero-filling its unroll-boundary rows instead.
  if (!simd::vectorized()) GTEST_SKIP() << "no packed grid in this build";
  const std::size_t M = 20, N = 37, K = 40, parts = 4;
  auto A = random_vec(M * K, 18);
  auto B = random_vec(K * N, 19);
  const Mask m = prune_blocks(
      A, M, K, parts, {{1, 0}, {1, 1}, {1, 2}, {1, 3}, {3, 0}, {3, 2}});
  // Producer panel 1 is dead for every consumer. The scalar kernel's 4-wide
  // unroll may still read zero-filled boundary rows there, so the reference
  // runs on a clean copy; the simd kernel must tolerate NaN in EVERY dead
  // row (it never packs or streams them).
  std::vector<float> B_clean(B);
  for (std::size_t k = m.k_bounds[1]; k < m.k_bounds[2]; ++k) {
    for (std::size_t j = 0; j < N; ++j) {
      B_clean[k * N + j] = 0.0f;
      B[k * N + j] = std::nanf("");
    }
  }
  std::vector<float> ref(M * N), got(M * N);
  gemm::gemm_nn_sparse(M, N, K, A.data(), K, B_clean.data(), N, ref.data(),
                       N, false, false, m.view());
  simd::gemm_nn_sparse(M, N, K, A.data(), K, B.data(), N, got.data(), N,
                       false, false, m.view());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_FALSE(std::isnan(got[i])) << "NaN leaked into C at " << i;
  }
  expect_close(ref, got, K, "nn_sparse poisoned");
}

class GemmSimdThreads : public ::testing::Test {
 protected:
  void TearDown() override { util::ThreadPool::set_num_threads(0); }
};

TEST_F(GemmSimdThreads, BitIdenticalForAnyThreadCount) {
  const std::size_t M = 96, N = 200, K = 64, parts = 4;
  auto A = random_vec(M * K, 20);
  const auto B = random_vec(K * N, 21);
  const auto Bt = random_vec(N * K, 22);
  const Mask m = prune_blocks(A, M, K, parts, {{0, 3}, {2, 0}});
  const std::size_t threads[] = {1, 2, 5};
  std::vector<float> base_nn, base_nt, base_sp;
  for (const std::size_t t : threads) {
    util::ThreadPool::set_num_threads(t);
    std::vector<float> nn(M * N), nt(M * N), sp(M * N);
    simd::gemm_nn(M, N, K, A.data(), K, B.data(), N, nn.data(), N, false,
                  /*parallel=*/true);
    simd::gemm_nt(M, N, K, A.data(), K, Bt.data(), K, nt.data(), N, false,
                  /*parallel=*/true);
    simd::gemm_nn_sparse(M, N, K, A.data(), K, B.data(), N, sp.data(), N,
                         false, /*parallel=*/true, m.view());
    if (base_nn.empty()) {
      base_nn = nn;
      base_nt = nt;
      base_sp = sp;
      continue;
    }
    EXPECT_EQ(0,
              std::memcmp(base_nn.data(), nn.data(), nn.size() * sizeof(float)))
        << "nn with " << t << " threads";
    EXPECT_EQ(0,
              std::memcmp(base_nt.data(), nt.data(), nt.size() * sizeof(float)))
        << "nt with " << t << " threads";
    EXPECT_EQ(0,
              std::memcmp(base_sp.data(), sp.data(), sp.size() * sizeof(float)))
        << "nn_sparse with " << t << " threads";
  }
}

// Small-M dispatch: below the 4-row tile payoff (M < 8) the nn variants
// delegate to the scalar streaming kernel — FC backward dX runs at
// M = batch, where padding every row block to kMr duplicate pointers and
// amortizing a packed-B panel over a handful of FMAs loses to the plain
// loop. Delegation means literally calling the scalar kernel, so parity
// is bit-exact, and sparse/dense take the same path so the within-backend
// exactness contract survives the dispatch.
TEST(GemmSimd, SmallMDelegatesToScalarBitExact) {
  const Dims small[] = {{1, 257, 129}, {4, 300, 96}, {7, 64, 33}};
  for (const Dims& d : small) {
    const auto A = random_vec(d.M * d.K, 30);
    const auto B = random_vec(d.K * d.N, 31);
    std::vector<float> ref(d.M * d.N), got(d.M * d.N);
    gemm::gemm_nn(d.M, d.N, d.K, A.data(), d.K, B.data(), d.N, ref.data(),
                  d.N, false, false);
    simd::gemm_nn(d.M, d.N, d.K, A.data(), d.K, B.data(), d.N, got.data(),
                  d.N, false, false);
    EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                             got.size() * sizeof(float)))
        << "M=" << d.M;
  }
  // Sparse small-M: same delegation, same bit-exactness.
  const std::size_t M = 6, N = 120, K = 80, parts = 3;
  auto W = random_vec(M * K, 32);
  const auto B = random_vec(K * N, 33);
  const Mask m = prune_blocks(W, M, K, parts, {{0, 2}, {1, 1}});
  std::vector<float> ref(M * N), got(M * N);
  gemm::gemm_nn_sparse(M, N, K, W.data(), K, B.data(), N, ref.data(), N,
                       false, false, m.view());
  simd::gemm_nn_sparse(M, N, K, W.data(), K, B.data(), N, got.data(), N,
                       false, false, m.view());
  EXPECT_EQ(0,
            std::memcmp(ref.data(), got.data(), got.size() * sizeof(float)));
}

// The dispatch must not cost anything: on an FC-backward-shaped problem
// the simd entry point (which now just forwards) stays within noise of
// calling the scalar kernel directly. Generous 1.5x margin — the two
// paths run identical code, so a real regression (falling back into the
// tile grid) shows up as a multiple, not a percentage.
TEST(GemmSimd, SmallMNoSlowerThanScalar) {
  const std::size_t M = 4, N = 1024, K = 1024;
  const auto A = random_vec(M * K, 34);
  const auto B = random_vec(K * N, 35);
  std::vector<float> out(M * N);
  constexpr int kIters = 20;
  const auto run = [&](auto&& fn) {
    fn();  // warm caches outside the timed region
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) fn();
    return (std::chrono::steady_clock::now() - t0).count();
  };
  const auto scalar_ns = run([&] {
    gemm::gemm_nn(M, N, K, A.data(), K, B.data(), N, out.data(), N, false,
                  false);
  });
  const auto simd_ns = run([&] {
    simd::gemm_nn(M, N, K, A.data(), K, B.data(), N, out.data(), N, false,
                  false);
  });
  EXPECT_LE(simd_ns, scalar_ns + scalar_ns / 2)
      << "small-M dispatch regressed: simd " << simd_ns << "ns vs scalar "
      << scalar_ns << "ns over " << kIters << " iters";
}

TEST(GemmSimd, BackendReportsVectorization) {
#if defined(LS_HAS_OMP_SIMD)
  EXPECT_TRUE(simd::vectorized());
#else
  EXPECT_FALSE(simd::vectorized());
#endif
}

}  // namespace
}  // namespace ls::nn
