#include "core/partition.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/check.hpp"

namespace ls::core {

UnitRange balanced_range(std::size_t units, std::size_t parts,
                         std::size_t j) {
  if (parts == 0) throw std::invalid_argument("zero parts");
  if (j >= parts) throw std::out_of_range("part index");
  const std::size_t base = units / parts;
  const std::size_t extra = units % parts;
  const std::size_t begin = j * base + std::min(j, extra);
  return {begin, begin + base + (j < extra ? 1 : 0)};
}

std::vector<UnitRange> balanced_ranges(std::size_t units, std::size_t parts) {
  if (parts == 0) throw std::invalid_argument("zero parts");
  std::vector<UnitRange> ranges(parts);
  std::size_t cursor = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    ranges[p] = balanced_range(units, parts, p);
    LS_CHECK_MSG(ranges[p].begin == cursor,
                 "balanced_range(%zu, %zu, %zu) starts at %zu, not %zu",
                 units, parts, p, ranges[p].begin, cursor);
    cursor = ranges[p].end;
  }
  // Coverage/disjointness post-condition: contiguity is checked above, so
  // covering exactly [0, units) reduces to the cursor landing on `units`,
  // and the closed-form owner_of must agree with the ranges it mirrors
  // (both encode the fat-parts-first split).
  LS_CHECK_MSG(cursor == units,
               "balanced_ranges(%zu, %zu) covered %zu units", units, parts,
               cursor);
  if constexpr (check::kEnabled) {
    for (std::size_t p = 0; p < parts; ++p) {
      if (ranges[p].count() == 0) continue;
      LS_CHECK_MSG(owner_of(ranges[p].begin, units, parts) == p &&
                       owner_of(ranges[p].end - 1, units, parts) == p,
                   "owner_of disagrees with balanced_ranges for part %zu "
                   "of %zu over %zu units",
                   p, parts, units);
    }
  }
  return ranges;
}

std::size_t owner_of(std::size_t u, std::size_t units, std::size_t parts) {
  if (u >= units) throw std::out_of_range("unit index");
  const std::size_t base = units / parts;
  const std::size_t extra = units % parts;
  const std::size_t fat = (base + 1) * extra;  // units covered by fat parts
  if (u < fat) return u / (base + 1);
  if (base == 0) throw std::logic_error("unit beyond all ranges");
  return extra + (u - fat) / base;
}

}  // namespace ls::core
