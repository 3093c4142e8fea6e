// perfbench command line (perfbench/README.md):
//
//   perfbench --workload tune|stream|train --seed N --seconds S --trace 0|1
//             --work-dir DIR [--git-sha SHA] [--source-digest HEX]
//   perfbench --self-test --benchmark-json PATH --work-dir DIR
//
// perfbench/run.py builds this binary and supplies the last three flags.
// The last stdout line is the JSON result; everything before it is the
// human-readable report. Exit 0 when every op passed its check, 1 when one
// failed, 2 on bad arguments, 3 on a checked or sanitized build.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>

#include "check/check.hpp"
#include "harness.hpp"
#include "nn/gemm_simd.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

extern char** environ;

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload tune|stream|train "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n"
               "                 [--git-sha SHA] [--source-digest HEX]\n"
               "       perfbench --self-test --benchmark-json PATH "
               "--work-dir DIR\n",
               why);
  return 2;
}

template <class T>
bool parse_number(std::string_view s, T* out) {
  const auto res = std::from_chars(s.data(), s.data() + s.size(), *out);
  return res.ec == std::errc() && res.ptr == s.data() + s.size();
}

std::string provenance_json(const std::string& git_sha,
                            const std::string& source_digest,
                            std::size_t pool) {
  ls::util::JsonWriter w;
  w.begin_object();
  w.key("git_sha").value(git_sha);
  w.key("source_digest").value(source_digest);
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.key("compiler").value(PERFBENCH_COMPILER);
  w.key("isa").value(ls::nn::simd::microkernel_isa());
  w.key("pool_threads").value(static_cast<std::uint64_t>(pool));
  w.key("host_cores")
      .value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("ls_env").begin_object();
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (kv.substr(0, 3) != "LS_") continue;
    const std::size_t eq = kv.find('=');
    w.key(kv.substr(0, eq)).value(eq == std::string_view::npos
                                      ? std::string_view()
                                      : kv.substr(eq + 1));
  }
  w.end_object();
  w.end_object();
  return w.str();
}

void print_metrics(const std::vector<MetricSpec>& specs, const Metrics& m) {
  for (const MetricSpec& s : specs) {
    const auto it = m.find(s.name);
    std::printf("  %-34s %18.6g %-10s %s-is-better\n", s.name,
                it == m.end() ? 0.0 : it->second, s.unit, s.better);
  }
}

std::string join_seconds(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (const double s : v) {
    std::snprintf(buf, sizeof(buf), "%s%.4f", out.empty() ? "" : " ", s);
    out += buf;
  }
  return out;
}

std::string result_json(const RunResult& r, const std::vector<MetricSpec>& specs,
                        const Metrics& values) {
  ls::util::JsonWriter w;
  w.begin_object();
  w.key("correct").value(r.correct());
  w.key("attempted").value(static_cast<std::uint64_t>(r.attempted));
  w.key("failed").value(static_cast<std::uint64_t>(r.failed));
  w.key("metrics").begin_object();
  for (const MetricSpec& s : specs) {
    const auto it = values.find(s.name);
    w.key(s.name).begin_object();
    w.key("value").value(it == values.end() ? 0.0 : it->second);
    w.key("unit").value(s.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  std::string work_dir, git_sha = "none", source_digest = "none",
                        benchmark_json;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false, self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--self-test") {
      self = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value after a flag");
    const std::string_view value = argv[++i];
    int trace = 0;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_number(value, &opts.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_number(value, &opts.seconds) || !(opts.seconds > 0.0)) {
        return usage("bad --seconds");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (!parse_number(value, &trace) || (trace != 0 && trace != 1)) {
        return usage("--trace takes 0 or 1");
      }
      opts.trace = trace == 1;
      have_trace = true;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else if (flag == "--benchmark-json") {
      benchmark_json = value;
    } else {
      return usage(("unknown flag " + std::string(flag)).c_str());
    }
  }
  if (work_dir.empty()) return usage("--work-dir is required");

  // Timings from a checked or sanitized build describe that build, not the
  // program users run.
  if constexpr (ls::check::kEnabled) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a checked build "
                 "(LS_CHECKS / LS_SAN); configure a plain Release build\n");
    return 3;
  }

  // Fixed pool: at most 4 threads, never more than the host has.
  const std::size_t pool = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  ls::util::ThreadPool::set_num_threads(pool);

  if (self) {
    if (benchmark_json.empty()) return usage("--benchmark-json is required");
    return self_test(benchmark_json, work_dir);
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (make_workload(opts.workload, opts.size) == nullptr) {
    return usage(("unknown workload " + opts.workload).c_str());
  }
  opts.trace_path = work_dir + "/trace-" + opts.workload + "-" +
                    std::to_string(opts.seed) + ".json";

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  std::printf("provenance %s\n",
              provenance_json(git_sha, source_digest, pool).c_str());
  std::fflush(stdout);

  RunResult r;
  try {
    r = run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("rounds %zu, ops %zu attempted / %zu failed "
              "(ops_failed_frac %.6g)\n",
              r.rounds, r.attempted, r.failed,
              static_cast<double>(r.failed) / static_cast<double>(r.attempted));
  for (std::size_t i = 0; i < r.round_s.size(); ++i) {
    std::printf("  round %zu: %.4f s  digest %016llx\n", i, r.round_s[i],
                static_cast<unsigned long long>(r.digests[i]));
  }
  for (std::size_t i = 0; i < r.op_s.size(); ++i) {
    std::printf("  op %zu: %s s\n", i, join_seconds(r.op_s[i]).c_str());
  }
  for (const std::string& f : r.failures) std::printf("FAILED %s\n", f.c_str());
  if (opts.trace) {
    std::printf("per-layer metrics (traced rounds, per round):\n");
    print_metrics(kPerLayer, r.per_layer);
    std::printf("client-thread wall time per module (per traced round):\n");
    for (const auto& [module, s] : r.layer_wall_s) {
      std::printf("  %-34s %18.6f s\n", module.c_str(), s);
    }
  } else {
    std::printf("end-to-end metrics:\n");
    print_metrics(kEndToEnd, r.end_to_end);
    if (r.end_to_end.count("ss_mask_accuracy")) {
      std::printf("SS_Mask training outcome (per-layer train.ss_mask_*):\n");
      print_metrics({{"ss_mask_accuracy", "%", "higher"},
                     {"ss_mask_speedup", "x", "higher"},
                     {"ss_mask_traffic_rate", "fraction", "lower"}},
                    r.end_to_end);
    }
  }
  std::printf("%s\n", result_json(r, opts.trace ? kPerLayer : kEndToEnd,
                                  opts.trace ? r.per_layer : r.end_to_end)
                          .c_str());
  return r.correct() ? 0 : 1;
}
