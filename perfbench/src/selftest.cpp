// Self-test of the benchmark itself, at tiny sizes (Size::tiny()):
//   1. BENCHMARK.json names exactly the metrics the harness emits, with the
//      same units and directions, and every one comes out finite (and the
//      end-to-end ones non-zero);
//   2. model metrics and the digest are identical across two in-process
//      passes;
//   3. ... across pool sizes 1 and 4;
//   4. ... between a traced and an untraced run.

#include <cmath>
#include <cstdio>
#include <string>

#include "harness.hpp"
#include "util/json_in.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// BENCHMARK.json's list `key` matches `specs` name for name.
void check_declared(const ls::util::JsonValue& doc, const char* key,
                    const std::vector<MetricSpec>& specs) {
  const ls::util::JsonValue* list = doc.find(key);
  bool ok = list != nullptr && list->kind() == ls::util::JsonValue::Kind::kArray &&
            list->as_array().size() == specs.size();
  for (std::size_t i = 0; ok && i < specs.size(); ++i) {
    const ls::util::JsonValue& m = list->as_array()[i];
    const auto* name = m.find("name");
    const auto* unit = m.find("unit");
    const auto* better = m.find("better");
    ok = name != nullptr && unit != nullptr && better != nullptr &&
         name->as_string() == specs[i].name &&
         unit->as_string() == specs[i].unit &&
         better->as_string() == specs[i].better;
  }
  check(ok, std::string("BENCHMARK.json ") + key +
                " lists the emitted metrics with their units and directions");
}

void check_emitted(const std::string& workload, const Metrics& m,
                   const std::vector<MetricSpec>& specs, bool nonzero) {
  std::string missing;
  for (const MetricSpec& s : specs) {
    const auto it = m.find(s.name);
    if (it == m.end() || !std::isfinite(it->second) ||
        (nonzero && it->second == 0.0)) {
      missing += std::string(" ") + s.name;
    }
  }
  check(missing.empty(), workload + ": every " +
                             (nonzero ? "end-to-end" : "per-layer") +
                             " metric is emitted" +
                             (nonzero ? ", finite and non-zero" : " and finite") +
                             (missing.empty() ? "" : " (bad:" + missing + ")"));
}

Metrics model_only(const Metrics& m) {
  Metrics out;
  for (const auto& [k, v] : m) {
    if (k.rfind("model_", 0) == 0) out[k] = v;
  }
  return out;
}

}  // namespace

int self_test(const std::string& benchmark_json, const std::string& work_dir) {
  ls::util::JsonValue doc;
  std::string error;
  check(ls::util::parse_json_file(benchmark_json, &doc, &error),
        "BENCHMARK.json parses " + error);
  check_declared(doc, "end_to_end", kEndToEnd);
  check_declared(doc, "per_layer", kPerLayer);

  const std::size_t pool = ls::util::num_threads();
  for (const char* workload : {"tune", "stream", "train"}) {
    RunOptions o;
    o.workload = workload;
    o.seed = 7;
    o.size = Size::tiny();
    o.setup_reps = 1;
    o.fixed_rounds = 2;
    o.trace_path = work_dir + "/selftest-trace-" + o.workload + ".json";

    const RunResult a = run_workload(o);
    check(a.correct(), o.workload + ": ops pass their checks, both rounds "
                                    "give one digest");
    check_emitted(o.workload, a.end_to_end, kEndToEnd, true);

    const RunResult b = run_workload(o);
    check(b.digests == a.digests &&
              model_only(b.end_to_end) == model_only(a.end_to_end),
          o.workload + ": second in-process pass is identical");

    ls::util::ThreadPool::set_num_threads(pool == 1 ? 4 : 1);
    const RunResult c = run_workload(o);
    ls::util::ThreadPool::set_num_threads(pool);
    check(c.digests == a.digests &&
              model_only(c.end_to_end) == model_only(a.end_to_end),
          o.workload + ": pool sizes " + std::to_string(pool) + " and " +
              std::to_string(pool == 1 ? 4 : 1) + " are identical");

    o.trace = true;
    o.fixed_rounds = 1;
    const RunResult t = run_workload(o);
    check(t.correct() && t.digests.size() == 2 &&
              t.digests.front() == a.digests.front(),
          o.workload + ": traced and untraced rounds are identical");
    check_emitted(o.workload, t.per_layer, kPerLayer, false);
  }
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
