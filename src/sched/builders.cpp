#include "sched/builders.hpp"

#include <algorithm>
#include <unordered_map>

#include "check/check.hpp"
#include "core/partition.hpp"
#include "sched/verify.hpp"

namespace ls::sched {

namespace {

// ---------------------------------------------------------------------------
// Geometry of the non-kernel partition dimensions.
//
// Every compute layer's output volume is an axis-aligned (C, H, W) box
// (H = W = 1 for FC layers, with the feature axis on C). Each partition
// dimension assigns partition j an axis-aligned *owned* sub-box of the
// layer's output, and a *needed* sub-box of the layer's input; the bytes
// partition p must send partition c across a layer transition are the
// volume of the intersection of p's owned box (mapped forward through the
// interstitial pool/relu/flatten layers into the consumer's coordinate
// frame, proportionally on each axis) with c's needed box. The kernel-wise
// fast path never goes through this model: transitions whose producer and
// consumer are both kernel-split reuse the caller-provided traffic
// analysis verbatim (preserving grouped-conv connectivity and weight
// liveness bit-exactly), so the geometric model only prices transitions an
// autotuner actually moved off the default.

struct Box {
  std::size_t c0 = 0, c1 = 0, h0 = 0, h1 = 0, w0 = 0, w1 = 0;
  std::size_t volume() const {
    if (c1 <= c0 || h1 <= h0 || w1 <= w0) return 0;
    return (c1 - c0) * (h1 - h0) * (w1 - w0);
  }
};

Box intersect(const Box& a, const Box& b) {
  Box r;
  r.c0 = std::max(a.c0, b.c0);
  r.c1 = std::min(a.c1, b.c1);
  r.h0 = std::max(a.h0, b.h0);
  r.h1 = std::min(a.h1, b.h1);
  r.w0 = std::max(a.w0, b.w0);
  r.w1 = std::min(a.w1, b.w1);
  return r;
}

/// Output-volume geometry of a compute layer (FC: features on the C axis).
struct OutGeom {
  std::size_t c = 0, h = 1, w = 1;
};

OutGeom out_geom(const nn::LayerAnalysis& a) {
  if (a.spec.kind == nn::LayerKind::kConv) {
    return {a.out.c, a.out.h, a.out.w};
  }
  return {a.spec.out_features, 1, 1};
}

std::size_t out_units(const nn::LayerAnalysis& a) {
  return a.spec.kind == nn::LayerKind::kConv ? a.spec.out_channels
                                             : a.spec.out_features;
}

std::size_t in_units(const nn::LayerAnalysis& a) { return a.in.c; }

/// Proportional interval map [lo, hi) from an axis of `from` units onto an
/// axis of `to` units (floor/ceil: the image is a superset of the exact
/// pre-image, so halo bytes are never under-counted at axis boundaries).
void map_axis(std::size_t lo, std::size_t hi, std::size_t from,
              std::size_t to, std::size_t* out_lo, std::size_t* out_hi) {
  if (from == 0 || lo >= hi) {
    *out_lo = *out_hi = 0;
    return;
  }
  *out_lo = lo * to / from;
  *out_hi = std::min(to, (hi * to + from - 1) / from);
}

/// Partition j's owned box of `a`'s output volume under dim `d`. kChannel
/// owns the kernel-wise layout: its reduce-scatter (emitted onto the next
/// transition) lands the reduced slices exactly where kernel-wise
/// partitioning would put them.
Box owned_box(const nn::LayerAnalysis& a, PartitionDim d, std::size_t j,
              std::size_t P) {
  const OutGeom g = out_geom(a);
  Box box{0, g.c, 0, g.h, 0, g.w};
  switch (d) {
    case PartitionDim::kKernel:
    case PartitionDim::kChannel: {
      const auto r = core::balanced_range(out_units(a), P, j);
      // FC feature axis == channel axis (OutGeom), conv likewise.
      box.c0 = r.begin;
      box.c1 = r.end;
      break;
    }
    case PartitionDim::kBatch:
      if (j != 0) box = Box{};
      break;
    case PartitionDim::kHeight: {
      const auto r = core::balanced_range(g.h, P, j);
      box.h0 = r.begin;
      box.h1 = r.end;
      break;
    }
    case PartitionDim::kWidth: {
      const auto r = core::balanced_range(g.w, P, j);
      box.w0 = r.begin;
      box.w1 = r.end;
      break;
    }
  }
  return box;
}

/// Partition j's needed box of `a`'s *input* volume under consumer dim `d`,
/// expressed in the producer's output geometry `prev` (axes mapped
/// proportionally; conv halo rows/cols from kernel/stride/pad).
Box needed_box(const nn::LayerAnalysis& a, PartitionDim d, std::size_t j,
               std::size_t P, const OutGeom& prev) {
  const Box full{0, prev.c, 0, prev.h, 0, prev.w};
  const std::size_t Hi = a.in.h;
  const std::size_t Wi = a.in.w;
  switch (d) {
    case PartitionDim::kKernel:
      // A partition with no output units computes nothing and gathers
      // nothing (out_units < P leaves trailing partitions empty).
      return core::balanced_range(out_units(a), P, j).count() > 0 ? full
                                                                  : Box{};
    case PartitionDim::kBatch:
      return j == 0 ? full : Box{};
    case PartitionDim::kHeight: {
      const auto r = core::balanced_range(a.out.h, P, j);
      if (r.count() == 0) return Box{};
      const std::size_t s = a.spec.stride;
      const std::size_t k = a.spec.kernel;
      const std::size_t pad = a.spec.pad;
      const std::size_t lo = r.begin * s > pad ? r.begin * s - pad : 0;
      const std::size_t hi_raw = (r.end - 1) * s + k;
      const std::size_t hi = hi_raw > pad ? std::min(Hi, hi_raw - pad) : 0;
      Box box = full;
      map_axis(lo, hi, Hi, prev.h, &box.h0, &box.h1);
      return box;
    }
    case PartitionDim::kWidth: {
      const auto r = core::balanced_range(a.out.w, P, j);
      if (r.count() == 0) return Box{};
      const std::size_t s = a.spec.stride;
      const std::size_t k = a.spec.kernel;
      const std::size_t pad = a.spec.pad;
      const std::size_t lo = r.begin * s > pad ? r.begin * s - pad : 0;
      const std::size_t hi_raw = (r.end - 1) * s + k;
      const std::size_t hi = hi_raw > pad ? std::min(Wi, hi_raw - pad) : 0;
      Box box = full;
      map_axis(lo, hi, Wi, prev.w, &box.w0, &box.w1);
      return box;
    }
    case PartitionDim::kChannel: {
      const auto r = core::balanced_range(in_units(a), P, j);
      if (r.count() == 0) return Box{};
      Box box = full;
      map_axis(r.begin, r.end, in_units(a), prev.c, &box.c0, &box.c1);
      return box;
    }
  }
  return full;
}

/// Byte matrix accumulator emitting placement-mapped messages in
/// deterministic partition (p, c) order.
class TransitionAccum {
 public:
  explicit TransitionAccum(std::size_t P) : P_(P), bytes_(P * P, 0) {}

  void add(std::size_t p, std::size_t c, std::size_t bytes) {
    if (p == c || bytes == 0) return;
    bytes_[p * P_ + c] += bytes;
  }

  void emit(const std::vector<std::size_t>& place, Event* comm) const {
    for (std::size_t p = 0; p < P_; ++p) {
      for (std::size_t c = 0; c < P_; ++c) {
        const std::size_t b = bytes_[p * P_ + c];
        if (b == 0) continue;
        comm->messages.push_back({place[p], place[c], b, 0});
        comm->traffic_bytes += b;
      }
    }
  }

 private:
  std::size_t P_;
  std::vector<std::size_t> bytes_;
};

bool identity_placement(const std::vector<std::size_t>& place) {
  for (std::size_t i = 0; i < place.size(); ++i) {
    if (place[i] != i) return false;
  }
  return true;
}

std::vector<nn::LayerAnalysis> compute_layers(const nn::NetSpec& spec) {
  std::vector<nn::LayerAnalysis> computes;
  for (const nn::LayerAnalysis& a : nn::analyze(spec)) {
    if (a.is_compute()) computes.push_back(a);
  }
  return computes;
}

bool dim_fits(const std::vector<nn::LayerAnalysis>& computes,
              std::size_t layer_index, PartitionDim dim) {
  if (layer_index >= computes.size()) return false;
  const nn::LayerAnalysis& a = computes[layer_index];
  const bool conv = a.spec.kind == nn::LayerKind::kConv;
  const bool grouped = conv && a.spec.groups > 1;
  switch (dim) {
    case PartitionDim::kKernel:
      return true;
    case PartitionDim::kBatch:
      return !grouped;  // grouped connectivity is modeled kernel-wise only
    case PartitionDim::kHeight:
      return conv && !grouped && a.out.h >= 2;
    case PartitionDim::kWidth:
      return conv && !grouped && a.out.w >= 2;
    case PartitionDim::kChannel:
      // The reduce-scatter rides on the *next* layer transition, so the
      // last compute layer cannot be channel-split.
      return !grouped && in_units(a) >= 2 &&
             layer_index + 1 < computes.size();
  }
  return false;
}

}  // namespace

bool dim_compatible(const nn::NetSpec& spec, std::size_t layer_index,
                    PartitionDim dim) {
  return dim_fits(compute_layers(spec), layer_index, dim);
}

std::string knob_error(const nn::NetSpec& spec,
                       const std::vector<PartitionDim>& layer_dims,
                       const std::vector<std::size_t>& placement,
                       std::size_t cores, std::size_t chips) {
  using std::to_string;
  if (chips == 0 || cores == 0 || cores % chips != 0) {
    return to_string(chips) + " chips cannot tile " + to_string(cores) +
           " cores";
  }
  const std::vector<nn::LayerAnalysis> computes = compute_layers(spec);
  if (!layer_dims.empty() && layer_dims.size() != computes.size()) {
    return to_string(layer_dims.size()) + " layer dims for " +
           to_string(computes.size()) + " compute layers";
  }
  for (std::size_t li = 0; li < layer_dims.size(); ++li) {
    if (!dim_fits(computes, li, layer_dims[li])) {
      return "dim '" + std::string(sched::to_string(layer_dims[li])) +
             "' is incompatible with compute layer " + to_string(li) +
             " ('" + computes[li].spec.name + "')";
    }
  }
  // The placement permutes one chip's mesh (the whole machine on one chip).
  const std::size_t chip_cores = cores / chips;
  if (!placement.empty()) {
    if (placement.size() != chip_cores) {
      return "placement maps " + to_string(placement.size()) +
             " partitions on a " + to_string(chip_cores) + "-core machine";
    }
    std::vector<bool> seen(chip_cores, false);
    for (const std::size_t core : placement) {
      if (core >= chip_cores || seen[core]) {
        return "placement is not a bijective permutation (core " +
               to_string(core) + " out of range or repeated)";
      }
      seen[core] = true;
    }
  }
  if (chips == 1) return "";
  if (!identity_placement(placement)) {
    return "placement permutations are per-chip concepts; use the identity "
           "on multi-chip schedules";
  }
  if (computes.size() < chips) {
    return to_string(computes.size()) + " compute layers cannot fill " +
           to_string(chips) + " pipeline stages";
  }
  // A channel split's reduce-scatter cannot ride a gateway link, so no
  // pipeline stage may end on one.
  const std::vector<std::size_t> stages = partition_stages(spec, chips);
  for (std::size_t li = 0; li + 1 < stages.size(); ++li) {
    if (stages[li] != stages[li + 1] && !layer_dims.empty() &&
        layer_dims[li] == PartitionDim::kChannel) {
      return "compute layer " + to_string(li) +
             " is channel-split but ends pipeline stage " +
             to_string(stages[li]);
    }
  }
  return "";
}

Schedule lower(const nn::NetSpec& spec, const core::InferenceTraffic& traffic,
               const BuildOptions& opts,
               const core::SparsityProfile* sparsity, Strategy strategy) {
  const auto analysis = nn::analyze(spec);
  const std::size_t P = opts.cores;

  std::vector<const nn::LayerAnalysis*> computes;
  for (const nn::LayerAnalysis& a : analysis) {
    if (a.is_compute()) computes.push_back(&a);
  }

  // --- Tuning knobs: per-layer dims and the placement permutation ---------
  // (invariant class 8: malformed choices abort in checked builds).
  if constexpr (check::kEnabled) {
    const std::string error =
        knob_error(spec, opts.layer_dims, opts.placement, P);
    LS_CHECK_MSG(error.empty(), "lower('%s'): %s", spec.name.c_str(),
                 error.c_str());
    LS_CHECK_MSG(sparsity == nullptr ||
                     std::all_of(opts.layer_dims.begin(),
                                 opts.layer_dims.end(),
                                 [](PartitionDim d) {
                                   return d == PartitionDim::kKernel;
                                 }),
                 "lower('%s'): sparsity discounts are defined on the kernel "
                 "split; clear layer_dims or drop the profile",
                 spec.name.c_str());
  }
  std::vector<std::size_t> place = opts.placement;
  if (place.empty()) {
    place.resize(P);
    for (std::size_t i = 0; i < P; ++i) place[i] = i;
  }
  const auto dim_of = [&](std::size_t li) {
    return opts.layer_dims.empty() ? PartitionDim::kKernel
                                   : opts.layer_dims[li];
  };
  std::unordered_map<std::string, const core::TransitionTraffic*> by_layer;
  for (const auto& t : traffic.transitions) {
    by_layer.emplace(t.layer_name, &t);
  }

  Schedule schedule;
  schedule.net_name = spec.name;
  schedule.strategy = strategy;
  schedule.cores = P;
  if (!identity_placement(place)) schedule.placement = place;

  const nn::LayerAnalysis* prev_a = nullptr;
  std::size_t li = 0;
  for (const nn::LayerAnalysis* ap : computes) {
    const nn::LayerAnalysis& a = *ap;
    const PartitionDim dim = dim_of(li);
    const PartitionDim prev_dim = li > 0 ? dim_of(li - 1) : PartitionDim::kKernel;

    // The id of the previous layer's compute event (if any) — both the
    // burst and this layer's compute hang off it.
    const bool have_prev = !schedule.events.empty();
    const EventId prev_compute = have_prev ? schedule.events.size() - 1 : 0;

    // --- Comm event: the synchronization burst into this layer ------------
    Event comm;
    comm.kind = EventKind::kComm;
    comm.layer_name = a.spec.name;
    comm.overlap_with_prev_compute = opts.overlap_comm;
    if (prev_a != nullptr && dim == PartitionDim::kKernel &&
        prev_dim == PartitionDim::kKernel) {
      // Kernel-wise transition: reuse the caller's traffic analysis (it
      // carries grouped-conv connectivity and weight liveness the
      // geometric model does not), remapped through the placement.
      const auto it = by_layer.find(a.spec.name);
      if (it != by_layer.end() && !it->second->messages.empty()) {
        comm.messages.reserve(it->second->messages.size());
        for (const noc::Message& m : it->second->messages) {
          comm.messages.push_back({place[m.src], place[m.dst], m.bytes, 0});
        }
        comm.traffic_bytes = it->second->total_bytes;
      }
    } else if (prev_a != nullptr) {
      // A tuned dimension on either side: geometric ownership model. Boxes
      // intersect in the producer's output geometry; the bytes that
      // actually cross the NoC are the consumer's *input* activations
      // (post-pool/relu/flatten), so the intersected volume is rescaled by
      // the consumer-input : producer-output element ratio — which makes
      // the kernel->kernel degenerate case of this model agree with the
      // unit-based TransitionBuilder arithmetic exactly.
      const OutGeom prev_geom = out_geom(*prev_a);
      const double consumer_scale =
          static_cast<double>(a.in.numel()) /
          static_cast<double>(prev_geom.c * prev_geom.h * prev_geom.w);
      std::vector<Box> owned(P);
      for (std::size_t p = 0; p < P; ++p) {
        owned[p] = owned_box(*prev_a, prev_dim, p, P);
      }
      TransitionAccum accum(P);
      for (std::size_t c = 0; c < P; ++c) {
        const Box need = needed_box(a, dim, c, P, prev_geom);
        if (need.volume() == 0) continue;
        for (std::size_t p = 0; p < P; ++p) {
          if (p == c) continue;
          const std::size_t vol = intersect(owned[p], need).volume();
          accum.add(p, c,
                    static_cast<std::size_t>(
                        static_cast<double>(vol) * consumer_scale *
                            static_cast<double>(opts.bytes_per_value) +
                        0.5));
        }
      }
      if (prev_dim == PartitionDim::kChannel) {
        // Reduce-scatter of the producer's partial sums back to the
        // kernel-wise layout: partition p sends its partials of q's
        // output slice to q.
        const auto kernel_ranges =
            core::balanced_ranges(out_units(*prev_a), P);
        const std::size_t spatial = prev_geom.h * prev_geom.w;
        for (std::size_t p = 0; p < P; ++p) {
          for (std::size_t q = 0; q < P; ++q) {
            if (p == q) continue;
            accum.add(p, q,
                      kernel_ranges[q].count() * spatial *
                          opts.bytes_per_value);
          }
        }
      }
      accum.emit(place, &comm);
    }
    const bool have_comm = !comm.messages.empty();
    if (have_comm) {
      if (have_prev) comm.deps.push_back(prev_compute);
      schedule.events.push_back(std::move(comm));
    }

    // --- Compute event: the layer's per-core kernel partitions ------------
    Event compute;
    compute.kind = EventKind::kCompute;
    compute.layer_name = a.spec.name;
    compute.partition_dim = dim;
    if (have_comm) compute.deps.push_back(schedule.events.size() - 1);
    if (have_prev) compute.deps.push_back(prev_compute);
    compute.per_core_work.assign(P, accel::LayerPartitionWork{});

    const std::size_t units = out_units(a);
    const std::size_t weight_bytes_total =
        a.weight_count * opts.bytes_per_value;
    const std::size_t in_bytes = a.in.numel() * opts.bytes_per_value;
    const std::size_t out_bytes_total =
        a.out.numel() * opts.bytes_per_value;

    switch (dim) {
      case PartitionDim::kKernel: {
        // Work splitting reproduces the pre-IR executor loop bit-for-bit:
        // same share/live expressions, same +0.5 roundings.
        const auto out_ranges = core::balanced_ranges(units, P);
        const core::LayerSparsity* layer_sparsity = nullptr;
        if (opts.sparse_cycle_model && sparsity != nullptr) {
          layer_sparsity = sparsity->find(a.spec.name);
        }
        for (std::size_t c = 0; c < P; ++c) {
          const double share =
              units ? static_cast<double>(out_ranges[c].count()) /
                          static_cast<double>(units)
                    : 0.0;
          if (share == 0.0) continue;
          const double live = layer_sparsity != nullptr &&
                                      c < layer_sparsity->live_fraction.size()
                                  ? layer_sparsity->live_fraction[c]
                                  : 1.0;
          accel::LayerPartitionWork& work = compute.per_core_work[place[c]];
          const auto dense_macs = static_cast<std::uint64_t>(
              static_cast<double>(a.macs) * share + 0.5);
          work.macs = static_cast<std::uint64_t>(
              static_cast<double>(a.macs) * share * live + 0.5);
          compute.macs_discounted += dense_macs - work.macs;
          work.weight_bytes = static_cast<std::uint64_t>(
              static_cast<double>(weight_bytes_total) * share * live + 0.5);
          work.input_bytes = in_bytes;  // every core reads the full input
          work.output_bytes = static_cast<std::uint64_t>(
              static_cast<double>(out_bytes_total) * share + 0.5);
        }
        break;
      }
      case PartitionDim::kBatch: {
        // Batch of one: partition 0 executes the whole layer.
        accel::LayerPartitionWork& work = compute.per_core_work[place[0]];
        work.macs = a.macs;
        work.weight_bytes = weight_bytes_total;
        work.input_bytes = in_bytes;
        work.output_bytes = out_bytes_total;
        break;
      }
      case PartitionDim::kHeight:
      case PartitionDim::kWidth: {
        // Spatial split: MACs and outputs scale with the slice, every core
        // holds the full kernel set, and inputs are the halo-extended
        // slice of the input volume.
        const std::size_t axis =
            dim == PartitionDim::kHeight ? a.out.h : a.out.w;
        const std::size_t in_axis =
            dim == PartitionDim::kHeight ? a.in.h : a.in.w;
        const auto ranges = core::balanced_ranges(axis, P);
        const std::size_t s = a.spec.stride;
        const std::size_t k = a.spec.kernel;
        const std::size_t pad = a.spec.pad;
        for (std::size_t c = 0; c < P; ++c) {
          const auto r = ranges[c];
          if (r.count() == 0) continue;
          const double share = static_cast<double>(r.count()) /
                               static_cast<double>(axis);
          accel::LayerPartitionWork& work = compute.per_core_work[place[c]];
          work.macs = static_cast<std::uint64_t>(
              static_cast<double>(a.macs) * share + 0.5);
          work.weight_bytes = weight_bytes_total;
          const std::size_t lo = r.begin * s > pad ? r.begin * s - pad : 0;
          const std::size_t hi_raw = (r.end - 1) * s + k;
          const std::size_t hi =
              hi_raw > pad ? std::min(in_axis, hi_raw - pad) : 0;
          const std::size_t halo_rows = hi > lo ? hi - lo : 0;
          work.input_bytes = in_bytes / in_axis * halo_rows;
          work.output_bytes = static_cast<std::uint64_t>(
              static_cast<double>(out_bytes_total) * share + 0.5);
        }
        break;
      }
      case PartitionDim::kChannel: {
        // Input-channel split: each core computes partial sums for the
        // whole output volume over its channel slice.
        const std::size_t in_u = in_units(a);
        const auto ranges = core::balanced_ranges(in_u, P);
        for (std::size_t c = 0; c < P; ++c) {
          const auto r = ranges[c];
          if (r.count() == 0) continue;
          const double share = static_cast<double>(r.count()) /
                               static_cast<double>(in_u);
          accel::LayerPartitionWork& work = compute.per_core_work[place[c]];
          work.macs = static_cast<std::uint64_t>(
              static_cast<double>(a.macs) * share + 0.5);
          work.weight_bytes = static_cast<std::uint64_t>(
              static_cast<double>(weight_bytes_total) * share + 0.5);
          work.input_bytes = in_bytes / in_u * r.count();
          work.output_bytes = out_bytes_total;  // full partial-sum volume
        }
        break;
      }
    }
    schedule.events.push_back(std::move(compute));
    prev_a = &a;
    ++li;
  }

  validate_against(schedule, spec);
  return schedule;
}

std::vector<std::size_t> partition_stages(const nn::NetSpec& spec,
                                          std::size_t chips) {
  std::vector<std::uint64_t> macs;
  for (const nn::LayerAnalysis& a : nn::analyze(spec)) {
    if (a.is_compute()) macs.push_back(a.macs);
  }
  const std::size_t n = macs.size();
  LS_CHECK_MSG(chips >= 1, "partition_stages('%s'): zero chips",
               spec.name.c_str());
  LS_CHECK_MSG(n >= chips,
               "partition_stages('%s'): %zu compute layers cannot fill %zu "
               "pipeline stages",
               spec.name.c_str(), n, chips);
  std::uint64_t total = 0;
  for (const std::uint64_t m : macs) total += m;

  // Greedy prefix-sum cuts at total*(s+1)/chips, with a forced cut once
  // the remaining layers only just cover the remaining stages — which
  // guarantees every stage owns at least one layer.
  std::vector<std::size_t> stages(n, 0);
  std::size_t s = 0;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) {
    stages[i] = s;
    acc += macs[i];
    const std::size_t remaining_layers = n - 1 - i;
    const std::size_t remaining_stages = chips - 1 - s;
    if (s + 1 < chips && (remaining_layers == remaining_stages ||
                          acc * chips >= total * (s + 1))) {
      ++s;
    }
  }
  return stages;
}

Schedule lower_pipelined(const nn::NetSpec& spec,
                         const core::InferenceTraffic& traffic,
                         const BuildOptions& opts, std::size_t chips,
                         const core::SparsityProfile* sparsity,
                         Strategy strategy) {
  if (chips == 1) return lower(spec, traffic, opts, sparsity, strategy);
  if constexpr (check::kEnabled) {
    const std::string error = knob_error(spec, opts.layer_dims,
                                         opts.placement, opts.cores * chips,
                                         chips);
    LS_CHECK_MSG(error.empty(), "lower_pipelined('%s'): %s",
                 spec.name.c_str(), error.c_str());
  }

  const std::vector<std::size_t> stages = partition_stages(spec, chips);
  const std::size_t Pc = opts.cores;  // cores per chip

  // One per-chip lowering of the whole net, then stage-by-stage relocation
  // onto the chip-major global core ranges.
  const Schedule base = lower(spec, traffic, opts, sparsity, strategy);

  std::vector<std::size_t> in_bytes_by_layer;
  for (const nn::LayerAnalysis& a : nn::analyze(spec)) {
    if (a.is_compute()) {
      in_bytes_by_layer.push_back(a.in.numel() * opts.bytes_per_value);
    }
  }

  Schedule out;
  out.net_name = base.net_name;
  out.strategy = base.strategy;
  out.cores = Pc * chips;
  out.chips = chips;

  // Rebuild the linear event chain: every compute layer contributes an
  // optional comm event plus its compute event, with the same dependency
  // shape lower() emits (comm <- prev compute, compute <- comm + prev
  // compute).
  std::size_t li = 0;
  const Event* pending_comm = nullptr;
  for (const Event& e : base.events) {
    if (e.kind == EventKind::kComm) {
      pending_comm = &e;
      continue;
    }
    const std::size_t s = stages[li];
    const std::size_t core_base = s * Pc;
    const bool have_prev = !out.events.empty();
    const EventId prev_compute = have_prev ? out.events.size() - 1 : 0;
    const bool boundary = li > 0 && stages[li - 1] != s;

    Event comm;
    comm.kind = EventKind::kComm;
    comm.layer_name = e.layer_name;
    comm.overlap_with_prev_compute = opts.overlap_comm;
    comm.chip = s;
    if (boundary) {
      // Stage boundary: the whole consumer input crosses the package once,
      // gateway to gateway, whatever burst the per-chip lowering had here.
      comm.inter_chip = true;
      const std::size_t bytes = in_bytes_by_layer[li];
      comm.messages.push_back({(s - 1) * Pc, s * Pc, bytes, 0});
      comm.traffic_bytes = bytes;
    } else if (pending_comm != nullptr) {
      // Intra-stage transition: the per-chip mesh burst, relocated onto
      // this stage's chip.
      comm.messages.reserve(pending_comm->messages.size());
      for (const noc::Message& m : pending_comm->messages) {
        comm.messages.push_back(
            {core_base + m.src, core_base + m.dst, m.bytes, 0});
      }
      comm.traffic_bytes = pending_comm->traffic_bytes;
    }
    const bool have_comm = !comm.messages.empty();
    if (have_comm) {
      if (have_prev) comm.deps.push_back(prev_compute);
      out.events.push_back(std::move(comm));
    }

    Event compute;
    compute.kind = EventKind::kCompute;
    compute.layer_name = e.layer_name;
    compute.partition_dim = e.partition_dim;
    compute.macs_discounted = e.macs_discounted;
    compute.chip = s;
    if (have_comm) compute.deps.push_back(out.events.size() - 1);
    if (have_prev) compute.deps.push_back(prev_compute);
    compute.per_core_work.assign(out.cores, accel::LayerPartitionWork{});
    for (std::size_t c = 0; c < Pc; ++c) {
      compute.per_core_work[core_base + c] = e.per_core_work[c];
    }
    out.events.push_back(std::move(compute));

    pending_comm = nullptr;
    ++li;
  }

  validate_against(out, spec);
  return out;
}

Schedule build_traditional(const nn::NetSpec& spec,
                           const core::InferenceTraffic& dense_traffic,
                           const BuildOptions& opts) {
  return lower(spec, dense_traffic, opts, nullptr, Strategy::kTraditional);
}

Schedule build_structure_level(const nn::NetSpec& grouped_spec,
                               const core::InferenceTraffic& dense_traffic,
                               const BuildOptions& opts) {
  return lower(grouped_spec, dense_traffic, opts, nullptr,
               Strategy::kStructureLevel);
}

Schedule build_sparsified(const nn::NetSpec& spec,
                          const core::InferenceTraffic& live_traffic,
                          const BuildOptions& opts,
                          const core::SparsityProfile* sparsity) {
  return lower(spec, live_traffic, opts, sparsity, Strategy::kSparsified);
}

Schedule build_hybrid(const nn::NetSpec& grouped_spec,
                      const core::InferenceTraffic& live_traffic,
                      const BuildOptions& opts,
                      const core::SparsityProfile* sparsity) {
  return lower(grouped_spec, live_traffic, opts, sparsity, Strategy::kHybrid);
}

}  // namespace ls::sched
