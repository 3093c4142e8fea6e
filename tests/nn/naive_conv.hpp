#pragma once
// Test oracle: the direct 7-deep loop-nest convolution. Conv2D itself only
// runs im2col + GEMM; the parity suite checks it against these loops, which
// share no packing or GEMM code with the layer.

#include "nn/conv2d.hpp"
#include "tensor/tensor.hpp"

namespace ls::nn::oracle {

/// out = conv(in, weight) + bias for the geometry in `cfg`; `weight` is
/// {Cout, Cin/groups, K, K}, `bias` is {Cout} (ignored when !cfg.bias).
tensor::Tensor naive_conv_forward(const Conv2DConfig& cfg,
                                  const tensor::Tensor& in,
                                  const tensor::Tensor& weight,
                                  const tensor::Tensor& bias);

struct NaiveConvGrads {
  tensor::Tensor grad_in;      ///< shape of the forward input
  tensor::Tensor grad_weight;  ///< shape of the weight
  tensor::Tensor grad_bias;    ///< {Cout}, zero when !cfg.bias
};

/// Gradients of naive_conv_forward(cfg, in, weight, ·) for `grad_out`.
NaiveConvGrads naive_conv_backward(const Conv2DConfig& cfg,
                                   const tensor::Tensor& in,
                                   const tensor::Tensor& weight,
                                   const tensor::Tensor& grad_out);

}  // namespace ls::nn::oracle
