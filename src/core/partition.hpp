#pragma once
// Balanced partitioning of a layer's channels/neurons across cores.
//
// The paper parallelizes a single inference by splitting each layer's
// kernels (output channels / output neurons) across the P cores (§III.B,
// Fig. 3). Core c therefore *owns* a contiguous range of each layer's
// output units; between layers, ownership of the produced feature maps
// follows the producer's split. We use balanced contiguous ranges, which
// also handle unit counts not divisible by P (some cores get one extra
// unit, trailing cores may get none).

#include <cstddef>
#include <vector>

namespace ls::core {

struct UnitRange {
  std::size_t begin = 0;
  std::size_t end = 0;  ///< half-open
  std::size_t count() const { return end - begin; }
  bool contains(std::size_t u) const { return u >= begin && u < end; }
  friend bool operator==(const UnitRange&, const UnitRange&) = default;
};

/// Part `j` of the balanced split of `units` into `parts` contiguous
/// ranges, in closed form: the first (units % parts) parts get one extra
/// unit, so part j starts at j * base + min(j, extra).
UnitRange balanced_range(std::size_t units, std::size_t parts, std::size_t j);

/// All `parts` ranges of balanced_range(units, parts, j), in part order.
std::vector<UnitRange> balanced_ranges(std::size_t units, std::size_t parts);

/// Which part owns unit `u` under balanced_range(units, parts, ·).
std::size_t owner_of(std::size_t u, std::size_t units, std::size_t parts);

}  // namespace ls::core
