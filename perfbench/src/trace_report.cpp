#include "trace_report.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "util/json_in.hpp"

namespace perfbench {

namespace {

using ls::util::JsonValue;

bool starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}
bool ends_with(std::string_view s, std::string_view p) {
  return s.size() >= p.size() && s.substr(s.size() - p.size()) == p;
}
bool is_pool(std::string_view name) {
  return name == "pool.task" || name == "parallel_for";
}
std::string module_of(const std::string& bucket) {
  return bucket.substr(0, bucket.find('.'));
}

double number(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  return v != nullptr && v->kind() == JsonValue::Kind::kNumber
             ? v->as_double()
             : 0.0;
}

/// Splits the top-level "traceEvents" array into one JSON text per event,
/// so each parses on its own (a whole trace can hold 10^5 events).
bool split_events(const std::string& text, std::vector<std::string_view>* out,
                  std::string* error) {
  const std::string_view key = "\"traceEvents\":[";
  std::size_t i = text.find(key);
  if (i == std::string::npos) {
    *error = "no traceEvents array";
    return false;
  }
  i += key.size();
  while (i < text.size()) {
    const char c = text[i];
    if (c == ']') return true;
    if (c != '{') {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    int depth = 0;
    bool in_string = false;
    for (; i < text.size(); ++i) {
      const char d = text[i];
      if (in_string) {
        if (d == '\\') ++i;
        else if (d == '"') in_string = false;
      } else if (d == '"') {
        in_string = true;
      } else if (d == '{') {
        ++depth;
      } else if (d == '}' && --depth == 0) {
        break;
      }
    }
    if (i >= text.size()) break;
    out->emplace_back(text.data() + begin, i + 1 - begin);
    ++i;
  }
  *error = "unterminated traceEvents array";
  return false;
}

}  // namespace

bool TraceFile::load(const std::string& path, const ls::nn::NetSpec* net,
                     std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::vector<std::string_view> events;
  if (!split_events(text, &events, error)) return false;

  // Layer kind and MACs per sample of the trained net's compute layers.
  std::map<std::string, std::pair<bool, double>> layers;
  if (net != nullptr) {
    for (const ls::nn::LayerAnalysis& a : ls::nn::analyze(*net)) {
      if (!a.is_compute()) continue;
      layers[a.spec.name] = {a.spec.kind == ls::nn::LayerKind::kConv,
                             static_cast<double>(a.macs)};
    }
  }

  spans_.clear();
  bool have_client = false;
  for (const std::string_view ev : events) {
    JsonValue v;
    if (!ls::util::parse_json(ev, &v, error)) return false;
    const JsonValue* ph = v.find("ph");
    const JsonValue* name = v.find("name");
    if (ph == nullptr || ph->as_string() != "X" || name == nullptr ||
        number(v, "pid") != 1.0) {
      continue;
    }
    Span s;
    s.name = name->as_string();
    s.ts = static_cast<std::uint64_t>(number(v, "ts"));
    s.dur = static_cast<std::uint64_t>(number(v, "dur"));
    s.tid = static_cast<std::uint64_t>(number(v, "tid"));
    const JsonValue* args = v.find("args");
    const JsonValue* cat = v.find("cat");
    const bool bench = cat != nullptr && cat->as_string() == "bench";
    if (bench && !have_client) {
      have_client = true;
      client_tid_ = s.tid;
    }
    const std::string& n = s.name;
    if (bench) {
      s.bucket = n;
    } else if (is_pool(n)) {
      s.bucket.clear();  // resolved from the parent below
    } else if (starts_with(n, "noc.")) {
      s.bucket = "noc";
    } else if (n == "tune.search" || starts_with(n, "tune.restart")) {
      s.bucket = "tune.search";
    } else if (starts_with(n, "tune.validate")) {
      s.bucket = "tune.validate";
    } else if (starts_with(n, "sim.execute")) {
      s.bucket = "sim.execute";
    } else if (starts_with(n, "sim.run_stream")) {
      s.bucket = "sim.run_stream";
    } else if (n == "train.batch") {
      s.bucket = "train.batch";
    } else if (n.find(".epoch-") != std::string::npos) {
      s.bucket = "train.epoch";
    } else if (ends_with(n, ".fwd") || ends_with(n, ".bwd")) {
      const std::string layer = n.substr(0, n.size() - 4);
      const auto it = layers.find(layer);
      s.conv = it != layers.end()
                   ? it->second.first
                   : args != nullptr && args->find("impl") != nullptr;
      s.bucket = std::string(s.conv ? "nn.conv" : "nn.fc") +
                 (ends_with(n, ".fwd") ? ".fwd" : ".bwd");
      if (ends_with(n, ".fwd") && it != layers.end()) {
        s.macs = it->second.second;  // times the batch, once known
      }
    } else {
      s.bucket = "other";
    }
    if (args != nullptr) {
      s.flits = number(*args, "flits");  // noc.burst
      s.cycles = number(*args, "cycles");
      s.batch = number(*args, "N");      // conv
    }
    spans_.push_back(std::move(s));
  }
  if (!have_client) {
    *error = "no benchmark call spans in " + path;
    return false;
  }

  // Thread by thread in start order (outer spans first on equal starts).
  std::vector<std::size_t> order(spans_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans_[a];
    const Span& y = spans_[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts != y.ts) return x.ts < y.ts;
    return x.dur > y.dur;
  });
  std::vector<Span> sorted;
  sorted.reserve(spans_.size());
  for (const std::size_t i : order) sorted.push_back(std::move(spans_[i]));
  spans_ = std::move(sorted);

  // Same-thread nesting. An fc forward has no batch argument; it runs in the
  // same forward pass as the conv forward before it on its thread.
  std::vector<int> stack;
  double last_conv_batch = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Span& s = spans_[i];
    if (i > 0 && spans_[i - 1].tid != s.tid) {
      stack.clear();
      last_conv_batch = 0.0;
    }
    while (!stack.empty()) {
      const Span& top = spans_[stack.back()];
      if (s.ts >= top.ts && s.ts + s.dur <= top.ts + top.dur) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      s.parent = stack.back();
      spans_[stack.back()].child_dur += s.dur;
    }
    stack.push_back(static_cast<int>(i));
    if (s.macs > 0.0) {
      if (s.conv) last_conv_batch = s.batch;
      s.macs *= s.conv ? s.batch : last_conv_batch;
    }
  }

  // Innermost client-thread span by time: segments of a sweep over the
  // client thread's nested spans.
  std::vector<std::pair<std::uint64_t, int>> segments;
  stack.clear();
  const auto pop_to = [&](std::uint64_t t) {
    while (!stack.empty()) {
      const Span& top = spans_[stack.back()];
      if (top.ts + top.dur > t) break;
      stack.pop_back();
      segments.emplace_back(top.ts + top.dur,
                            stack.empty() ? -1 : stack.back());
    }
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].tid != client_tid_) continue;
    pop_to(spans_[i].ts);
    segments.emplace_back(spans_[i].ts, static_cast<int>(i));
    stack.push_back(static_cast<int>(i));
  }
  pop_to(~std::uint64_t{0});
  for (Span& s : spans_) {
    if (s.tid == client_tid_ || s.parent >= 0) continue;
    const auto it = std::upper_bound(
        segments.begin(), segments.end(), s.ts,
        [](std::uint64_t t, const auto& seg) { return t < seg.first; });
    if (it != segments.begin()) s.parent = std::prev(it)->second;
  }

  // Pool spans work for their parent: client-thread spans first, so every
  // cross-thread parent is resolved before the workers are.
  const auto resolve = [&](Span& s) {
    if (!s.bucket.empty()) return;
    s.bucket = s.parent >= 0 ? spans_[s.parent].bucket : "pool";
    if (s.bucket.empty()) s.bucket = "pool";
  };
  for (Span& s : spans_) {
    if (s.tid == client_tid_) resolve(s);
  }
  for (Span& s : spans_) resolve(s);
  return true;
}

TraceTotals TraceFile::totals(std::uint64_t from_us,
                              std::uint64_t to_us) const {
  TraceTotals t;
  for (const Span& s : spans_) {
    if (s.ts < from_us || s.ts >= to_us) continue;
    const double self =
        static_cast<double>(s.dur - std::min(s.dur, s.child_dur)) * 1e-6;
    const double dur = static_cast<double>(s.dur) * 1e-6;
    if (s.name == "parallel_for") {
      t.busy_s["pool.wait"] += self;
    } else {
      t.busy_s[s.bucket] += self;
    }
    if (!is_pool(s.name)) ++t.calls[s.bucket];
    t.inclusive_s[s.name] += dur;
    if (s.tid == client_tid_) {
      t.wall_s[module_of(s.bucket)] += self;
      if (s.parent < 0) t.client_covered_s += dur;
    }
    if (s.name == "noc.burst") {
      ++t.noc_bursts;
      t.noc_flits += static_cast<std::uint64_t>(s.flits);
      t.noc_cycles += static_cast<std::uint64_t>(s.cycles);
    }
    if (s.name == "train.batch") t.batch_s.push_back(dur);
    t.fwd_macs += s.macs;
    if (s.conv) t.conv_fwd_macs += s.macs;
  }
  return t;
}

}  // namespace perfbench
