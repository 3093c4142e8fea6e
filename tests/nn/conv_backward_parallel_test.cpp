// Conv2D::backward fans (sample, group) tasks out over the pool and folds
// per-sample weight/bias-gradient partials in ascending sample order. On
// the packed GEMM grid (cout/groups >= 8 in a vectorized build) that must
// reproduce the serial sample loop bit for bit: every gradient is compared
// with memcmp against tests/nn/serial_conv_backward.cpp, at pool sizes 1,
// 3 and 4, from non-zero starting gradients, with N = 11 so the last
// sample block is partial.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "nn/block_sparsity.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm_simd.hpp"
#include "serial_conv_backward.hpp"
#include "tensor/tensor.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ls::nn {
namespace {

struct BwdCase {
  std::string name;
  std::size_t N, cin, H, W;
  std::size_t cout, k, stride, pad, groups;
  bool bias;
  std::size_t sparse_parts;  ///< 0 = dense; else armed and pruned
};

const std::vector<BwdCase> kCases = {
    {"groups1_padded", 11, 3, 12, 12, 16, 5, 1, 2, 1, true, 0},
    {"groups2", 11, 32, 10, 10, 32, 3, 1, 1, 2, true, 0},
    {"stride2_padded", 11, 6, 13, 13, 16, 3, 2, 1, 1, false, 0},
    {"block_sparse", 11, 16, 9, 9, 16, 3, 1, 1, 1, true, 4},
};

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// Zeroes block (producer panel 0, consumer panel 0) and every block of
// producer panel 2, so both the block skip and the channel skip engage
// (16 channels in 4 panels of 4).
void prune(Conv2D& conv) {
  const Conv2DConfig& cfg = conv.config();
  const std::size_t k2 = cfg.kernel * cfg.kernel;
  float* w = conv.weight().value.data();
  for (std::size_t oc = 0; oc < cfg.out_channels; ++oc) {
    for (std::size_t ic = 0; ic < cfg.in_channels; ++ic) {
      const bool block_00 = oc < 4 && ic < 4;
      const bool dead_panel = ic >= 8 && ic < 12;
      if (!block_00 && !dead_panel) continue;
      for (std::size_t e = 0; e < k2; ++e) {
        w[(oc * cfg.in_channels + ic) * k2 + e] = 0.0f;
      }
    }
  }
  conv.weight().bump();
}

class ConvBackwardParallel : public ::testing::Test {
 protected:
  void TearDown() override { util::ThreadPool::set_num_threads(0); }
};

TEST_F(ConvBackwardParallel, MatchesSerialLoopBitForBit) {
  if (!simd::vectorized()) {
    GTEST_SKIP() << "scalar-only build: partials may round differently";
  }
  for (const BwdCase& c : kCases) {
    Conv2DConfig cfg;
    cfg.in_channels = c.cin;
    cfg.out_channels = c.cout;
    cfg.kernel = c.k;
    cfg.stride = c.stride;
    cfg.pad = c.pad;
    cfg.groups = c.groups;
    cfg.bias = c.bias;
    ASSERT_GE(c.cout / c.groups, 8u) << c.name << ": not the packed grid";

    util::Rng rng_w(21), rng_in(22), rng_go(23), rng_g(24);
    Conv2D conv("c", cfg, rng_w);
    if (c.sparse_parts > 0) {
      conv.set_sparsity_partition(c.sparse_parts);
      prune(conv);
    }
    const Tensor in =
        Tensor::uniform(Shape{c.N, c.cin, c.H, c.W}, -1.f, 1.f, rng_in);
    const Shape out_shape = conv.output_shape(in.shape());
    const Tensor grad_out = Tensor::uniform(out_shape, -1.f, 1.f, rng_go);
    // Non-zero starting gradients: backward accumulates onto them.
    const Tensor wg0 =
        Tensor::uniform(conv.weight().grad.shape(), -1.f, 1.f, rng_g);
    const Tensor bg0 =
        Tensor::uniform(conv.bias().grad.shape(), -1.f, 1.f, rng_g);

    BlockSparsity probe(c.sparse_parts > 0 ? c.sparse_parts : 1, c.cin,
                        c.cout, c.k * c.k);
    const BlockMap* bm = nullptr;
    if (c.sparse_parts > 0) {
      bm = &probe.map(conv.weight());
      ASSERT_TRUE(bm->engaged()) << c.name;
    }
    oracle::SerialConvGrads ref{Tensor(), wg0, bg0};
    oracle::serial_conv_backward(cfg, in, conv.weight().value, grad_out, bm,
                                 &ref);

    for (const std::size_t threads : {1u, 3u, 4u}) {
      SCOPED_TRACE(c.name + " threads=" + std::to_string(threads));
      util::ThreadPool::set_num_threads(threads);
      conv.weight().grad = wg0;
      conv.bias().grad = bg0;
      conv.forward(in, /*training=*/true);
      const Tensor din = conv.backward(grad_out);
      EXPECT_TRUE(same_bytes(din, ref.grad_in)) << "input gradient";
      EXPECT_TRUE(same_bytes(conv.weight().grad, ref.grad_weight))
          << "weight gradient";
      EXPECT_TRUE(same_bytes(conv.bias().grad, ref.grad_bias))
          << "bias gradient";
    }
  }
}

}  // namespace
}  // namespace ls::nn
