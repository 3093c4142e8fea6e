// Parity suite: Conv2D (im2col + the nn::simd GEMM dispatch) must match the
// naive loop-nest oracle within 1e-4 (forward output, input gradient,
// weight/bias gradients) across strides, padding, groups, and odd spatial
// shapes.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "naive_conv.hpp"
#include "nn/conv2d.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace ls::nn {
namespace {

struct ParityCase {
  std::string name;
  std::size_t N, cin, H, W;
  std::size_t cout, k, stride, pad, groups;
};

const std::vector<ParityCase> kCases = {
    {"lenet_c1", 2, 1, 28, 28, 16, 5, 1, 0, 1},
    {"lenet_c2", 2, 16, 12, 12, 32, 5, 1, 0, 1},
    {"strided", 3, 3, 15, 15, 8, 3, 2, 1, 1},
    {"padded", 2, 4, 9, 9, 6, 3, 1, 2, 1},
    {"grouped", 2, 8, 11, 11, 12, 3, 1, 1, 4},
    {"grouped_strided", 1, 6, 13, 10, 6, 5, 2, 2, 3},
    {"one_by_one", 2, 5, 7, 7, 9, 1, 1, 0, 1},
    {"odd_everything", 1, 3, 17, 11, 7, 3, 3, 1, 1},
    {"single_pixel_out", 1, 2, 5, 5, 4, 5, 1, 0, 2},
};

Conv2DConfig make_cfg(const ParityCase& c) {
  Conv2DConfig cfg;
  cfg.in_channels = c.cin;
  cfg.out_channels = c.cout;
  cfg.kernel = c.k;
  cfg.stride = c.stride;
  cfg.pad = c.pad;
  cfg.groups = c.groups;
  return cfg;
}

float max_diff(const tensor::Tensor& a, const tensor::Tensor& b) {
  return tensor::max_abs_diff(a, b);
}

TEST(ConvGemmParity, ForwardAndBackwardMatchNaive) {
  constexpr float kTol = 1e-4f;
  for (const ParityCase& c : kCases) {
    SCOPED_TRACE(c.name);
    util::Rng rng_w(99), rng_in(7);
    const Conv2DConfig cfg = make_cfg(c);
    Conv2D conv("g", cfg, rng_w);

    const Tensor in =
        Tensor::uniform(Shape{c.N, c.cin, c.H, c.W}, -1.f, 1.f, rng_in);
    const Tensor out = conv.forward(in, /*training=*/true);
    const Tensor out_n = oracle::naive_conv_forward(
        cfg, in, conv.weight().value, conv.bias().value);
    ASSERT_EQ(out.shape(), out_n.shape());
    EXPECT_LT(max_diff(out, out_n), kTol);

    // Backward from a fixed upstream gradient.
    util::Rng rng_go(13);
    const Tensor grad_out = Tensor::uniform(out.shape(), -1.f, 1.f, rng_go);
    const Tensor din = conv.backward(grad_out);
    const oracle::NaiveConvGrads ref =
        oracle::naive_conv_backward(cfg, in, conv.weight().value, grad_out);
    EXPECT_LT(max_diff(din, ref.grad_in), kTol) << "input gradient";
    EXPECT_LT(max_diff(conv.weight().grad, ref.grad_weight), kTol)
        << "weight gradient";
    EXPECT_LT(max_diff(conv.bias().grad, ref.grad_bias), kTol)
        << "bias gradient";
  }
}

TEST(ConvGemmParity, InferenceForwardMatchesNaive) {
  util::Rng rng(3), rng_in(5);
  const Conv2DConfig cfg = make_cfg(kCases[2]);
  Conv2D conv("c", cfg, rng);
  const Tensor in = Tensor::uniform(Shape{2, 3, 15, 15}, -1.f, 1.f, rng_in);
  const Tensor out = conv.forward(in, /*training=*/false);
  const Tensor out_n = oracle::naive_conv_forward(cfg, in, conv.weight().value,
                                                  conv.bias().value);
  EXPECT_LT(max_diff(out, out_n), 1e-4f);
}

}  // namespace
}  // namespace ls::nn
