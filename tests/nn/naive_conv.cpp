#include "naive_conv.hpp"

#include <cstddef>

namespace ls::nn::oracle {

using tensor::Shape;
using tensor::Tensor;

namespace {

// Input coordinate that output position `o` reads under kernel tap `k`;
// false when the tap lands in the zero padding.
bool tap(const Conv2DConfig& cfg, std::size_t o, std::size_t k,
         std::size_t extent, std::size_t* i) {
  const std::size_t padded = o * cfg.stride + k;
  if (padded < cfg.pad || padded - cfg.pad >= extent) return false;
  *i = padded - cfg.pad;
  return true;
}

std::size_t out_extent(const Conv2DConfig& cfg, std::size_t in) {
  return (in + 2 * cfg.pad - cfg.kernel) / cfg.stride + 1;
}

}  // namespace

Tensor naive_conv_forward(const Conv2DConfig& cfg, const Tensor& in,
                          const Tensor& weight, const Tensor& bias) {
  const std::size_t N = in.shape()[0];
  const std::size_t C = cfg.in_channels;
  const std::size_t H = in.shape()[2], W = in.shape()[3];
  const std::size_t OC = cfg.out_channels;
  const std::size_t OH = out_extent(cfg, H), OW = out_extent(cfg, W);
  const std::size_t K = cfg.kernel;
  const std::size_t cin_g = C / cfg.groups;
  const std::size_t cout_g = OC / cfg.groups;
  Tensor out(Shape{N, OC, OH, OW});

  for (std::size_t n = 0; n < N; ++n) {
    for (std::size_t oc = 0; oc < OC; ++oc) {
      const std::size_t g = oc / cout_g;
      const float* w_oc = weight.data() + oc * cin_g * K * K;
      for (std::size_t oh = 0; oh < OH; ++oh) {
        for (std::size_t ow = 0; ow < OW; ++ow) {
          float acc = cfg.bias ? bias[oc] : 0.0f;
          for (std::size_t icg = 0; icg < cin_g; ++icg) {
            const float* in_c = in.data() + (n * C + g * cin_g + icg) * H * W;
            const float* w_ic = w_oc + icg * K * K;
            for (std::size_t kh = 0; kh < K; ++kh) {
              std::size_t ih = 0;
              if (!tap(cfg, oh, kh, H, &ih)) continue;
              for (std::size_t kw = 0; kw < K; ++kw) {
                std::size_t iw = 0;
                if (!tap(cfg, ow, kw, W, &iw)) continue;
                acc += in_c[ih * W + iw] * w_ic[kh * K + kw];
              }
            }
          }
          out.data()[((n * OC + oc) * OH + oh) * OW + ow] = acc;
        }
      }
    }
  }
  return out;
}

NaiveConvGrads naive_conv_backward(const Conv2DConfig& cfg, const Tensor& in,
                                   const Tensor& weight,
                                   const Tensor& grad_out) {
  NaiveConvGrads g_out{Tensor(in.shape(), 0.0f), Tensor(weight.shape(), 0.0f),
                       Tensor(Shape{cfg.out_channels}, 0.0f)};
  const std::size_t N = in.shape()[0];
  const std::size_t C = cfg.in_channels;
  const std::size_t H = in.shape()[2], W = in.shape()[3];
  const std::size_t OC = cfg.out_channels;
  const std::size_t OH = grad_out.shape()[2], OW = grad_out.shape()[3];
  const std::size_t K = cfg.kernel;
  const std::size_t cin_g = C / cfg.groups;
  const std::size_t cout_g = OC / cfg.groups;

  for (std::size_t n = 0; n < N; ++n) {
    for (std::size_t oc = 0; oc < OC; ++oc) {
      const std::size_t g = oc / cout_g;
      const float* w_oc = weight.data() + oc * cin_g * K * K;
      float* wg_oc = g_out.grad_weight.data() + oc * cin_g * K * K;
      for (std::size_t oh = 0; oh < OH; ++oh) {
        for (std::size_t ow = 0; ow < OW; ++ow) {
          const float go = grad_out[((n * OC + oc) * OH + oh) * OW + ow];
          if (cfg.bias) g_out.grad_bias[oc] += go;
          for (std::size_t icg = 0; icg < cin_g; ++icg) {
            const std::size_t plane = (n * C + g * cin_g + icg) * H * W;
            const float* in_c = in.data() + plane;
            float* gi_c = g_out.grad_in.data() + plane;
            for (std::size_t kh = 0; kh < K; ++kh) {
              std::size_t ih = 0;
              if (!tap(cfg, oh, kh, H, &ih)) continue;
              for (std::size_t kw = 0; kw < K; ++kw) {
                std::size_t iw = 0;
                if (!tap(cfg, ow, kw, W, &iw)) continue;
                const std::size_t wk = (icg * K + kh) * K + kw;
                wg_oc[wk] += go * in_c[ih * W + iw];
                gi_c[ih * W + iw] += go * w_oc[wk];
              }
            }
          }
        }
      }
    }
  }
  return g_out;
}

}  // namespace ls::nn::oracle
