#include "nn/conv2d.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "nn/block_sparsity.hpp"
#include "nn/gemm.hpp"
#include "nn/gemm_simd.hpp"
#include "nn/scratch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace ls::nn {

namespace {

// Kernel-span args: {"impl":"im2col+gemm","N":batch} — rendered only when
// tracing.
std::string conv_span_args(std::size_t batch) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"impl\":\"im2col+gemm\",\"N\":%zu}",
                batch);
  return buf;
}
Shape weight_shape(const Conv2DConfig& cfg) {
  return Shape{cfg.out_channels, cfg.in_channels / cfg.groups, cfg.kernel,
               cfg.kernel};
}

void validate(const Conv2DConfig& cfg) {
  if (cfg.in_channels == 0 || cfg.out_channels == 0 || cfg.kernel == 0 ||
      cfg.stride == 0) {
    throw std::invalid_argument("conv2d: zero-sized config field");
  }
  if (cfg.groups == 0 || cfg.in_channels % cfg.groups != 0 ||
      cfg.out_channels % cfg.groups != 0) {
    throw std::invalid_argument(
        "conv2d: groups must divide in_channels and out_channels");
  }
}

// Backward fans out over this many samples at a time. The block bounds the
// caller's partial slab; it cannot change a result, because partials are
// always folded in ascending sample order.
constexpr std::size_t kBwdBlock = 8;
// Weight-gradient elements per fold task.
constexpr std::size_t kReduceChunk = 4096;

// dst[e] += parts[b * stride + e] for b = 0, 1, ..., count - 1, in that
// order for every e in [0, len).
void add_partials(float* dst, const float* parts, std::size_t stride,
                  std::size_t count, std::size_t len) {
  for (std::size_t b = 0; b < count; ++b) {
    const float* p = parts + b * stride;
    for (std::size_t e = 0; e < len; ++e) dst[e] += p[e];
  }
}

}  // namespace

Conv2D::Conv2D(std::string name, const Conv2DConfig& cfg, util::Rng& rng)
    : name_(std::move(name)),
      cfg_(cfg),
      weight_(name_ + ".w",
              (validate(cfg),
               Tensor::he_normal(weight_shape(cfg),
                                 cfg.in_channels / cfg.groups * cfg.kernel *
                                     cfg.kernel,
                                 rng))),
      bias_(name_ + ".b", Tensor::zeros(Shape{cfg.out_channels})) {}

Conv2D::~Conv2D() = default;

void Conv2D::set_sparsity_partition(std::size_t parts) {
  if (cfg_.groups != 1) {
    throw std::invalid_argument(
        "block sparsity requires groups == 1 at " + name_);
  }
  sparsity_ = std::make_unique<BlockSparsity>(
      parts, cfg_.in_channels, cfg_.out_channels,
      cfg_.kernel * cfg_.kernel);
}

void Conv2D::clear_sparsity_partition() { sparsity_.reset(); }

const BlockMap* Conv2D::sparse_map() {
  if (!sparsity_ || cfg_.groups != 1) return nullptr;
  const BlockMap& m = sparsity_->map(weight_);
  return m.engaged() ? &m : nullptr;
}

Shape Conv2D::output_shape(const Shape& in) const {
  if (in.rank() != 4) throw std::invalid_argument("conv2d expects NCHW input");
  if (in[1] != cfg_.in_channels) {
    throw std::invalid_argument("conv2d input channel mismatch for " + name_);
  }
  const std::size_t H = in[2], W = in[3];
  if (H + 2 * cfg_.pad < cfg_.kernel || W + 2 * cfg_.pad < cfg_.kernel) {
    throw std::invalid_argument("conv2d kernel larger than padded input");
  }
  const std::size_t oh = (H + 2 * cfg_.pad - cfg_.kernel) / cfg_.stride + 1;
  const std::size_t ow = (W + 2 * cfg_.pad - cfg_.kernel) / cfg_.stride + 1;
  return Shape{in[0], cfg_.out_channels, oh, ow};
}

// ---------------------------------------------------------------------------
// im2col + GEMM, through the one shape-selected dispatch in nn::simd.
//
// Forward parallelizes over (sample, group) tasks; each task packs its
// group's input window into a thread-local im2col buffer and runs one
// row-parallel GEMM (the GEMM's internal parallel_for runs inline when the
// outer loop already fans out — see util::ThreadPool). Backward fans out
// over the same (sample, group) tasks, kBwdBlock samples at a time. Each
// task writes its own grad_in slice and its sample's weight/bias-gradient
// partial; a second parallel_for then adds the block's partials into the
// gradients in ascending sample order, so every element sees the same
// additions in the same order as a serial sample loop.
// ---------------------------------------------------------------------------

Tensor Conv2D::forward(const Tensor& in, bool training) {
  obs::Span span;
  if (obs::trace_enabled()) {
    span.begin(name_ + ".fwd", "kernel", conv_span_args(in.shape()[0]));
  }
  const Shape out_shape = output_shape(in.shape());
  Tensor out(out_shape);
  const std::size_t N = in.shape()[0];
  const std::size_t C = cfg_.in_channels;
  const std::size_t H = in.shape()[2], W = in.shape()[3];
  const std::size_t OC = cfg_.out_channels;
  const std::size_t cin_g = C / cfg_.groups;
  const std::size_t cout_g = OC / cfg_.groups;

  gemm::PackShape ps;
  ps.channels = cin_g;
  ps.H = H;
  ps.W = W;
  ps.OH = out_shape[2];
  ps.OW = out_shape[3];
  ps.K = cfg_.kernel;
  ps.stride = cfg_.stride;
  ps.pad = cfg_.pad;
  const std::size_t ck2 = ps.patch();
  const std::size_t ohw = ps.cols();

  const float* in_base = in.data();
  const float* w_base = weight_.value.data();
  float* out_base = out.data();

  // Resolve the block-zero bitmap once, outside the fan-out (the rescan is
  // not thread-safe). Null when unarmed or nothing is pruned.
  const BlockMap* bm = sparse_map();
  if (bm != nullptr) {
    static auto& blocks_skipped =
        obs::Registry::instance().counter("sparse.blocks_skipped");
    static auto& macs_skipped =
        obs::Registry::instance().counter("sparse.macs_skipped");
    blocks_skipped.inc(bm->zero_blocks * N);
    macs_skipped.inc(bm->zero_weight_elems * ohw * N);
    obs::Registry::instance()
        .gauge("sparse.layer." + name_ + ".block_density")
        .set(bm->block_density());
  }

  util::parallel_for(0, N * cfg_.groups, [&](std::size_t t) {
    const std::size_t n = t / cfg_.groups;
    const std::size_t g = t % cfg_.groups;
    float* col = scratch::buffer(scratch::Slot::kIm2col, ck2 * ohw);
    const float* in_g = in_base + (n * C + g * cin_g) * H * W;
    if (bm != nullptr) {
      gemm::im2col_masked(ps, in_g, col, bm->channel_skip.data());
    } else {
      gemm::im2col(ps, in_g, col);
    }
    float* out_g = out_base + (n * OC + g * cout_g) * ohw;
    for (std::size_t ocg = 0; ocg < cout_g; ++ocg) {
      const float b = cfg_.bias ? bias_.value[g * cout_g + ocg] : 0.0f;
      std::fill(out_g + ocg * ohw, out_g + (ocg + 1) * ohw, b);
    }
    if (bm != nullptr) {
      simd::gemm_nn_sparse(cout_g, ohw, ck2, w_base + g * cout_g * ck2, ck2,
                           col, ohw, out_g, ohw, /*accumulate=*/true,
                           /*parallel=*/true, bm->mask());
    } else {
      simd::gemm_nn(cout_g, ohw, ck2, w_base + g * cout_g * ck2, ck2, col,
                    ohw, out_g, ohw, /*accumulate=*/true, /*parallel=*/true);
    }
  });

  if (training) cached_input_ = in;
  return out;
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  obs::Span span;
  if (obs::trace_enabled()) {
    span.begin(name_ + ".bwd", "kernel", conv_span_args(grad_out.shape()[0]));
  }
  if (cached_input_.empty()) {
    throw std::logic_error("conv2d backward without training forward");
  }
  const Tensor& in = cached_input_;
  Tensor grad_in(in.shape(), 0.0f);
  const Shape out_shape = grad_out.shape();
  const std::size_t N = in.shape()[0];
  const std::size_t C = cfg_.in_channels;
  const std::size_t H = in.shape()[2], W = in.shape()[3];
  const std::size_t OC = cfg_.out_channels;
  const std::size_t cin_g = C / cfg_.groups;
  const std::size_t cout_g = OC / cfg_.groups;

  gemm::PackShape ps;
  ps.channels = cin_g;
  ps.H = H;
  ps.W = W;
  ps.OH = out_shape[2];
  ps.OW = out_shape[3];
  ps.K = cfg_.kernel;
  ps.stride = cfg_.stride;
  ps.pad = cfg_.pad;
  const std::size_t ck2 = ps.patch();
  const std::size_t ohw = ps.cols();

  const float* in_base = in.data();
  const float* go_base = grad_out.data();
  const float* w_base = weight_.value.data();
  float* wg_base = weight_.grad.data();
  float* gi_base = grad_in.data();

  // Block sparsity in backward only accelerates the data-gradient GEMM.
  // The weight-gradient GEMM must stay dense: group-Lasso training needs
  // gradients *into* currently-zero blocks so they can revive.
  const BlockMap* bm = sparse_map();

  // One partial per sample of a block: the dW partial (OC x ck2, every
  // group's rows) followed by the bias partial (OC). The slab lives on this
  // thread; the tasks below write disjoint partials into it.
  const std::size_t w_elems = OC * ck2;
  const std::size_t part_stride = w_elems + OC;
  float* slab = scratch::buffer(scratch::Slot::kBwdPartial,
                                std::min(N, kBwdBlock) * part_stride);

  for (std::size_t n0 = 0; n0 < N; n0 += kBwdBlock) {
    const std::size_t nb = std::min(kBwdBlock, N - n0);
    util::parallel_for(0, nb * cfg_.groups, [&](std::size_t t) {
      const std::size_t n = n0 + t / cfg_.groups;
      const std::size_t g = t % cfg_.groups;
      float* part = slab + (n - n0) * part_stride;
      float* row = scratch::buffer(scratch::Slot::kIm2row, ohw * ck2);
      gemm::im2row(ps, in_base + (n * C + g * cin_g) * H * W, row);
      const float* go_g = go_base + (n * OC + g * cout_g) * ohw;

      // dW partial: P_g = dOut_g (cout_g x ohw) * row (ohw x ck2)
      simd::gemm_nn(cout_g, ck2, ohw, go_g, ohw, row, ck2,
                    part + g * cout_g * ck2, ck2, /*accumulate=*/false,
                    /*parallel=*/true);

      if (cfg_.bias) {
        for (std::size_t ocg = 0; ocg < cout_g; ++ocg) {
          const float* go_c = go_g + ocg * ohw;
          float acc = 0.0f;
          for (std::size_t s = 0; s < ohw; ++s) acc += go_c[s];
          part[w_elems + g * cout_g + ocg] = acc;
        }
      }

      // dRow (ohw x ck2) = dOut_g^T * W_g (cout_g x ck2), written over the
      // im2row buffer the dW GEMM has finished reading. In the sparse
      // variant the reduction dim (cout) is the consumer partition and the
      // columns (ck2) are producer panels; pruned spans stay zero.
      if (bm != nullptr) {
        simd::gemm_tn_sparse(ohw, ck2, cout_g, go_g, ohw,
                             w_base + g * cout_g * ck2, ck2, row, ck2,
                             /*accumulate=*/false, /*parallel=*/true,
                             bm->mask());
      } else {
        simd::gemm_tn(ohw, ck2, cout_g, go_g, ohw, w_base + g * cout_g * ck2,
                      ck2, row, ck2, /*accumulate=*/false,
                      /*parallel=*/true);
      }
      gemm::row2im_add(ps, row, gi_base + (n * C + g * cin_g) * H * W);
    });

    // Fold the block's partials in ascending sample order. On the packed
    // grid a GEMM with accumulate=true adds each element's full-K sum to C
    // once, so C + P_n here is exactly what it computed.
    const std::size_t chunks = (w_elems + kReduceChunk - 1) / kReduceChunk;
    util::parallel_for(0, chunks, [&](std::size_t c) {
      const std::size_t e0 = c * kReduceChunk;
      add_partials(wg_base + e0, slab + e0, part_stride, nb,
                   std::min(kReduceChunk, w_elems - e0));
    });
    if (cfg_.bias) {
      add_partials(bias_.grad.data(), slab + w_elems, part_stride, nb, OC);
    }
  }
  return grad_in;
}

std::vector<Param*> Conv2D::params() {
  std::vector<Param*> p{&weight_};
  if (cfg_.bias) p.push_back(&bias_);
  return p;
}

}  // namespace ls::nn
