#include "prof/bench_compare.hpp"

#include <cmath>

namespace ls::prof {

namespace {

bool contains(std::string_view hay, std::string_view needle) {
  return hay.find(needle) != std::string_view::npos;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

const char* kind_name(util::JsonValue::Kind k) {
  switch (k) {
    case util::JsonValue::Kind::kNull: return "null";
    case util::JsonValue::Kind::kBool: return "bool";
    case util::JsonValue::Kind::kNumber: return "number";
    case util::JsonValue::Kind::kString: return "string";
    case util::JsonValue::Kind::kArray: return "array";
    case util::JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

struct Walker {
  const DiffOptions& opts;
  DiffResult& out;

  double threshold_for(const std::string& leaf) const {
    const auto it = opts.thresholds.find(leaf);
    return it != opts.thresholds.end() ? it->second
                                       : opts.default_threshold;
  }

  void number(const std::string& path, const std::string& leaf, double base,
              double cur) {
    MetricDiff d;
    d.path = path;
    d.leaf = leaf;
    d.base = base;
    d.current = cur;
    d.rel_change =
        base != 0.0 ? (cur - base) / std::abs(base) : cur - base;
    d.direction = metric_direction(leaf);
    const double bad_move = d.direction == MetricDirection::kHigherBetter
                                ? -d.rel_change
                                : d.direction == MetricDirection::kLowerBetter
                                      ? d.rel_change
                                      : 0.0;
    d.regressed = bad_move > threshold_for(leaf);
    if (d.regressed) ++out.regressions;
    out.diffs.push_back(std::move(d));
  }

  void walk(const std::string& path, const std::string& leaf,
            const util::JsonValue& base, const util::JsonValue& cur) {
    if (base.kind() != cur.kind()) {
      out.mismatches.push_back(path + ": type " + kind_name(base.kind()) +
                               " -> " + kind_name(cur.kind()));
      return;
    }
    switch (base.kind()) {
      case util::JsonValue::Kind::kNumber:
        number(path, leaf, base.as_double(), cur.as_double());
        break;
      case util::JsonValue::Kind::kBool:
        if (base.as_bool() != cur.as_bool()) {
          out.mismatches.push_back(path + ": bool value changed");
        }
        break;
      case util::JsonValue::Kind::kString:
        // Strings are labels (net/layer names, dim lists). A change is
        // worth surfacing but graded by the leaf's direction: config
        // echoes ("bench", "net") changing is structural.
        if (base.as_string() != cur.as_string()) {
          out.mismatches.push_back(path + ": \"" + base.as_string() +
                                   "\" -> \"" + cur.as_string() + "\"");
        }
        break;
      case util::JsonValue::Kind::kNull:
        break;
      case util::JsonValue::Kind::kArray: {
        const auto& ba = base.as_array();
        const auto& ca = cur.as_array();
        if (ba.size() != ca.size()) {
          out.mismatches.push_back(path + ": array size " +
                                   std::to_string(ba.size()) + " -> " +
                                   std::to_string(ca.size()));
          return;
        }
        for (std::size_t i = 0; i < ba.size(); ++i) {
          walk(path + "[" + std::to_string(i) + "]", leaf, ba[i], ca[i]);
        }
        break;
      }
      case util::JsonValue::Kind::kObject: {
        const auto& bo = base.as_object();
        const auto& co = cur.as_object();
        for (const auto& [key, bval] : bo) {
          const auto it = co.find(key);
          if (it == co.end()) {
            out.mismatches.push_back(path + "." + key +
                                     ": missing in current");
            continue;
          }
          walk(path.empty() ? key : path + "." + key, key, bval,
               it->second);
        }
        for (const auto& [key, cval] : co) {
          if (bo.find(key) == bo.end()) {
            out.mismatches.push_back(path + "." + key +
                                     ": missing in baseline");
          }
        }
        break;
      }
    }
  }
};

}  // namespace

MetricDirection metric_direction(std::string_view leaf_key) {
  // Configuration echoes and run metadata: never graded.
  for (const std::string_view info :
       {"cores", "requests", "threads", "seed", "budget", "evals",
        "validated", "sparsity_pct", "bins", "count", "bin_count",
        "epochs", "batch"}) {
    if (leaf_key == info) return MetricDirection::kInfo;
  }
  // Higher is better: rates and ratios the optimizations exist to raise.
  // Per-second rates go first so `flits_per_s` is not graded as a flit
  // count.
  if (ends_with(leaf_key, "_per_s")) return MetricDirection::kHigherBetter;
  if (contains(leaf_key, "speedup") || contains(leaf_key, "throughput") ||
      contains(leaf_key, "occupancy") || contains(leaf_key, "accuracy") ||
      contains(leaf_key, "hit") || contains(leaf_key, "gflops")) {
    return MetricDirection::kHigherBetter;
  }
  // Lower is better: times, cycle counts, errors, traffic.
  if (ends_with(leaf_key, "_s") || ends_with(leaf_key, "_ms") ||
      ends_with(leaf_key, "_us") ||
      contains(leaf_key, "cycles") || contains(leaf_key, "error") ||
      contains(leaf_key, "bytes") || contains(leaf_key, "flits") ||
      contains(leaf_key, "loss")) {
    return MetricDirection::kLowerBetter;
  }
  return MetricDirection::kInfo;
}

DiffResult diff_bench(const util::JsonValue& base,
                      const util::JsonValue& current,
                      const DiffOptions& opts) {
  DiffResult out;
  Walker w{opts, out};
  w.walk("", "", base, current);
  return out;
}

}  // namespace ls::prof
