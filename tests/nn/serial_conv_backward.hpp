#pragma once
// Test oracle: Conv2D::backward as a serial (sample, group) loop. Each
// iteration packs one im2row window and runs the weight-gradient GEMM with
// accumulate=true straight into the gradient, adds the sample's bias sums,
// then runs the dRow GEMM and row2im_add. The layer fans these iterations
// out and folds per-sample partials in sample order instead; on the packed
// GEMM grid the two must agree bit for bit
// (tests/nn/conv_backward_parallel_test.cpp).

#include "nn/block_sparsity.hpp"
#include "nn/conv2d.hpp"
#include "tensor/tensor.hpp"

namespace ls::nn::oracle {

struct SerialConvGrads {
  tensor::Tensor grad_in;      ///< shape of the forward input
  tensor::Tensor grad_weight;  ///< accumulated onto its value on entry
  tensor::Tensor grad_bias;    ///< accumulated onto its value on entry
};

/// Backward of the conv `cfg` with `weight` at input `in` for `grad_out`.
/// `grads->grad_weight` / `grad_bias` hold the gradients before the call
/// and are accumulated onto; `grad_in` is overwritten. `bm` (null for
/// dense) routes the dRow GEMM through the block-sparse kernel, as the
/// layer does when armed.
void serial_conv_backward(const Conv2DConfig& cfg, const tensor::Tensor& in,
                          const tensor::Tensor& weight,
                          const tensor::Tensor& grad_out, const BlockMap* bm,
                          SerialConvGrads* grads);

}  // namespace ls::nn::oracle
