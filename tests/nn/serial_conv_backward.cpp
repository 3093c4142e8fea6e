#include "serial_conv_backward.hpp"

#include <cstddef>
#include <vector>

#include "nn/gemm.hpp"
#include "nn/gemm_simd.hpp"

namespace ls::nn::oracle {

void serial_conv_backward(const Conv2DConfig& cfg, const tensor::Tensor& in,
                          const tensor::Tensor& weight,
                          const tensor::Tensor& grad_out, const BlockMap* bm,
                          SerialConvGrads* grads) {
  const std::size_t N = in.shape()[0];
  const std::size_t C = cfg.in_channels;
  const std::size_t H = in.shape()[2], W = in.shape()[3];
  const std::size_t OC = cfg.out_channels;
  const std::size_t cin_g = C / cfg.groups;
  const std::size_t cout_g = OC / cfg.groups;

  gemm::PackShape ps;
  ps.channels = cin_g;
  ps.H = H;
  ps.W = W;
  ps.OH = grad_out.shape()[2];
  ps.OW = grad_out.shape()[3];
  ps.K = cfg.kernel;
  ps.stride = cfg.stride;
  ps.pad = cfg.pad;
  const std::size_t ck2 = ps.patch();
  const std::size_t ohw = ps.cols();

  grads->grad_in = tensor::Tensor(in.shape(), 0.0f);
  float* wg = grads->grad_weight.data();
  float* bg = grads->grad_bias.data();
  const float* w = weight.data();
  std::vector<float> row(ohw * ck2), drow(ohw * ck2);

  for (std::size_t n = 0; n < N; ++n) {
    for (std::size_t g = 0; g < cfg.groups; ++g) {
      gemm::im2row(ps, in.data() + (n * C + g * cin_g) * H * W, row.data());
      const float* go_g = grad_out.data() + (n * OC + g * cout_g) * ohw;

      // dW_g += dOut_g (cout_g x ohw) * row (ohw x ck2)
      simd::gemm_nn(cout_g, ck2, ohw, go_g, ohw, row.data(), ck2,
                    wg + g * cout_g * ck2, ck2, /*accumulate=*/true,
                    /*parallel=*/true);

      if (cfg.bias) {
        for (std::size_t ocg = 0; ocg < cout_g; ++ocg) {
          const float* go_c = go_g + ocg * ohw;
          float acc = 0.0f;
          for (std::size_t s = 0; s < ohw; ++s) acc += go_c[s];
          bg[g * cout_g + ocg] += acc;
        }
      }

      // dRow (ohw x ck2) = dOut_g^T * W_g (cout_g x ck2)
      if (bm != nullptr) {
        simd::gemm_tn_sparse(ohw, ck2, cout_g, go_g, ohw,
                             w + g * cout_g * ck2, ck2, drow.data(), ck2,
                             /*accumulate=*/false, /*parallel=*/true,
                             bm->mask());
      } else {
        simd::gemm_tn(ohw, ck2, cout_g, go_g, ohw, w + g * cout_g * ck2, ck2,
                      drow.data(), ck2, /*accumulate=*/false,
                      /*parallel=*/true);
      }
      gemm::row2im_add(ps, drow.data(),
                       grads->grad_in.data() + (n * C + g * cin_g) * H * W);
    }
  }
}

}  // namespace ls::nn::oracle
