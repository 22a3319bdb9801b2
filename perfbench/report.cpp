// Tracer, statistics helpers, the recorded exact counts, and the result
// JSON (written, re-read and compared through obs/json).
#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <malloc.h>
#include <optional>
#include <sstream>
#include <thread>

#include "obs/json.hpp"

namespace perfbench {

namespace json = ekbd::obs::json;

// ------------------------------------------------------------ JSON tools

namespace {

std::string dump(const json::Value& v) {
  switch (v.kind) {
    case json::Value::Kind::kNull: return "null";
    case json::Value::Kind::kBool: return v.boolean ? "true" : "false";
    case json::Value::Kind::kNumber: return json::format_double(v.number);
    case json::Value::Kind::kString: return json::quote(v.str);
    case json::Value::Kind::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.arr.size(); ++i) {
        if (i != 0) out += ',';
        out += dump(v.arr[i]);
      }
      return out + "]";
    }
    case json::Value::Kind::kObject: {
      std::string out = "{";
      for (std::size_t i = 0; i < v.obj.size(); ++i) {
        if (i != 0) out += ',';
        out += json::quote(v.obj[i].first) + ":" + dump(v.obj[i].second);
      }
      return out + "}";
    }
  }
  return "null";
}

std::optional<json::Value> load(const std::string& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::stringstream ss;
  ss << f.rdbuf();
  return json::parse(ss.str());
}

/// Runner-class keys: results that differ in any of these are not
/// comparable (different machine shape or build).
constexpr const char* kRunnerClass[] = {"nproc", "build_type", "compiler", "shards_threads"};

}  // namespace

// ------------------------------------------------------------- statistics

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t m = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[m] : (xs[m - 1] + xs[m]) / 2.0;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

void reset_peak_rss() {
  malloc_trim(0);  // hand freed heap back first, so each trial starts alike
  std::ofstream f("/proc/self/clear_refs");
  if (f) f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MB
    }
  }
  return 0.0;
}

// ----------------------------------------------------------------- tracer

Tracer::Scope::Scope(Tracer* t, const char* name) : t_(t) {
  if (t_ == nullptr) return;
  id_ = static_cast<int>(t_->spans_.size());
  t_->spans_.push_back(Span{.name = name,
                            .start_s = now_s(),
                            .end_s = 0.0,
                            .parent = t_->open_.empty() ? -1 : t_->open_.back(),
                            .run_id = t_->run_id_});
  t_->open_.push_back(id_);
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  t_->spans_[static_cast<std::size_t>(id_)].end_s = now_s();
  t_->open_.pop_back();
}

void Tracer::counter(const std::string& name, double value) {
  counters_.push_back(CounterRead{.span = open_.empty() ? -1 : open_.back(),
                                  .name = name,
                                  .value = value});
}

std::map<std::string, double> Tracer::self_times(int run_id) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.run_id == run_id && s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.run_id != run_id) continue;
    out[s.name.substr(0, s.name.find('.'))] += (s.end_s - s.start_s) - child[i];
  }
  return out;
}

std::string Tracer::to_jsonl(const std::string& workload) const {
  std::string out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += "{\"workload\":" + json::quote(workload) + ",\"run\":" + std::to_string(s.run_id) +
           ",\"span\":" + std::to_string(i) + ",\"parent\":" + std::to_string(s.parent) +
           ",\"name\":" + json::quote(s.name) + ",\"start_s\":" + json::format_double(s.start_s) +
           ",\"end_s\":" + json::format_double(s.end_s) + "}\n";
  }
  for (const CounterRead& c : counters_) {
    out += "{\"workload\":" + json::quote(workload) + ",\"span\":" + std::to_string(c.span) +
           ",\"counter\":" + json::quote(c.name) + ",\"value\":" + json::format_double(c.value) +
           "}\n";
  }
  return out;
}

// ---------------------------------------------------------- metric tables

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"throughput_per_cpu_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"graph.build_s", "s"},
      {"scenario.build_s", "s"},
      {"sim.events", "count"},
      {"sim.events_per_meal", "events/meal"},
      {"sim.ns_per_event", "ns"},
      {"sim.run_s", "s"},
      {"fd.msgs_per_meal", "msgs/meal"},
      {"core.msgs_per_meal", "msgs/meal"},
      {"dining.meals", "count"},
      {"dining.trace_events", "count"},
      {"dining.check_s", "s"},
      {"rt.start_s", "s"},
      {"rt.join_s", "s"},
      {"rt.dispatches_per_meal", "1/meal"},
      {"rt.dispatches_per_run", "ratio"},
      {"rt.steals", "count"},
      {"rt.helps", "count"},
      {"rt.timer_helps", "count"},
      {"rt.parks", "count"},
      {"rt.stream.merged_per_meal", "events/meal"},
      {"rt.stream.max_pending", "count"},
      {"rt.stream.dropped_records", "count"},
      {"obs.agreement_s", "s"},
      {"obs.disagreements", "count"},
      {"mc.unique_states", "count"},
      {"mc.scc_count", "count"},
      {"mc.nodes_executed", "count"},
      {"mc.replayed_events", "count"},
      {"mc.replay_per_node", "events/node"},
      {"mc.ns_per_node", "ns"},
      // Self time per layer (span duration minus child spans).
      {"bench.self_s", "s"},
      {"graph.self_s", "s"},
      {"scenario.self_s", "s"},
      {"sim.self_s", "s"},
      {"dining.self_s", "s"},
      {"obs.self_s", "s"},
      {"rt.self_s", "s"},
      {"mc.self_s", "s"},
      // Traced minus untraced end-to-end medians.
      {"trace_overhead.setup_s", "s"},
      {"trace_overhead.throughput_per_cpu_s", "1/s"},
      {"trace_overhead.peak_rss_mb", "MB"},
  };
  return defs;
}

// -------------------------------------------------------- exact counters

void check_expected(const std::string& workload, std::uint64_t seed, Trial& t) {
  if (seed != kDefaultSeed || t.exact.empty()) return;
  const auto doc = load(PERFBENCH_EXPECTED_PATH);
  const json::Value* entry = doc ? doc->find(workload) : nullptr;
  if (entry == nullptr || !entry->is_object()) {
    t.errors.push_back("expected.json has no recorded counts for " + workload);
    return;
  }
  for (const auto& [name, want] : entry->obj) {
    const auto it = t.exact.find(name);
    if (it == t.exact.end() || !want.is_number() || it->second != want.number) {
      t.errors.push_back("exact count " + name + ": got " +
                         (it == t.exact.end() ? "nothing" : json::format_double(it->second)) +
                         ", recorded " + json::format_double(want.number));
    }
  }
}

// ---------------------------------------------------------------- runner

std::string runner_json(const Workload& w, const RunArgs& args, const std::string& commit) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("g++ ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"build_type\":" + json::quote(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + json::quote(compiler) +
         ",\"shards_threads\":" + json::quote(w.shards_threads) +
         ",\"seed\":" + std::to_string(args.seed) + ",\"commit\":" + json::quote(commit) + "}";
}


int compare_results(const std::string& path_a, const std::string& path_b, bool exact_only) {
  const auto a = load(path_a);
  const auto b = load(path_b);
  if (!a || !b || !a->is_object() || !b->is_object()) {
    std::cerr << "compare: cannot parse " << (a ? path_b : path_a) << "\n";
    return 2;
  }
  const json::Value* ra = a->find("runner");
  const json::Value* rb = b->find("runner");
  if (ra == nullptr || rb == nullptr) {
    std::cerr << "compare: missing runner metadata\n";
    return 2;
  }
  for (const char* key : kRunnerClass) {
    const json::Value* va = ra->find(key);
    const json::Value* vb = rb->find(key);
    if (va == nullptr || vb == nullptr || dump(*va) != dump(*vb)) {
      std::cerr << "compare: refusing to compare across runner classes (" << key << ": "
                << (va ? dump(*va) : "-") << " vs " << (vb ? dump(*vb) : "-") << ")\n";
      return 3;
    }
  }
  const json::Value* wa = a->find("workload");
  const json::Value* wb = b->find("workload");
  if (wa == nullptr || wb == nullptr || dump(*wa) != dump(*wb)) {
    std::cerr << "compare: different workloads\n";
    return 3;
  }
  int rc = 0;
  const json::Value* ea = a->find("exact");
  const json::Value* eb = b->find("exact");
  if (ea != nullptr && eb != nullptr) {
    for (const auto& [name, v] : ea->obj) {
      const json::Value* w = eb->find(name);
      const bool same = w != nullptr && w->is_number() && w->number == v.number;
      std::cout << "exact " << name << " " << json::format_double(v.number) << " "
                << (w ? json::format_double(w->number) : "-") << (same ? " same" : " DIFFERENT")
                << "\n";
      if (!same) rc = 1;
    }
  }
  if (exact_only) return rc;
  const json::Value* ma = a->find("report");
  const json::Value* mb = b->find("report");
  if (ma == nullptr || mb == nullptr) return rc;
  for (const auto& [name, v] : ma->obj) {
    const json::Value* w = mb->find(name);
    if (w == nullptr) continue;
    const double x = v.num_or("value", 0.0);
    const double y = w->num_or("value", 0.0);
    std::cout << "metric " << name << " " << json::format_double(x) << " "
              << json::format_double(y) << " ratio "
              << (x != 0.0 ? json::format_double(y / x) : "-") << "\n";
  }
  return rc;
}

int roundtrip(std::istream& in, const std::string& schema_path, int trace) {
  std::string line;
  std::string last;
  int rc = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '{') continue;
    const auto v = json::parse(line);
    if (!v) {
      std::cerr << "roundtrip: line does not parse: " << line << "\n";
      return 1;
    }
    const std::string once = dump(*v);
    const auto again = json::parse(once);
    if (!again || dump(*again) != once) {
      std::cerr << "roundtrip: not byte-stable: " << line << "\n";
      rc = 1;
    }
    last = line;
  }
  const auto result = json::parse(last);
  if (!result || !result->is_object() || result->obj.size() != 4 ||
      result->find("correct") == nullptr || result->find("attempted") == nullptr ||
      result->find("failed") == nullptr || result->find("metrics") == nullptr) {
    std::cerr << "roundtrip: last line is not {correct, attempted, failed, metrics}\n";
    return 1;
  }
  if (result->num_or("attempted", 0.0) < 1.0) {
    std::cerr << "roundtrip: attempted < 1\n";
    rc = 1;
  }
  if (schema_path.empty()) return rc;
  const auto schema = load(schema_path);
  const json::Value* list =
      schema ? schema->find(trace == 0 ? "end_to_end" : "per_layer") : nullptr;
  if (list == nullptr || !list->is_array()) {
    std::cerr << "roundtrip: cannot read the metric list from " << schema_path << "\n";
    return 1;
  }
  const json::Value& metrics = *result->find("metrics");
  for (const json::Value& m : list->arr) {
    const json::Value* name = m.find("name");
    const json::Value* unit = m.find("unit");
    if (name == nullptr || unit == nullptr) continue;
    const json::Value* got = metrics.find(name->str);
    const json::Value* got_unit = got ? got->find("unit") : nullptr;
    const json::Value* got_value = got ? got->find("value") : nullptr;
    if (got_unit == nullptr || got_value == nullptr || !got_value->is_number() ||
        got_unit->str != unit->str) {
      std::cerr << "roundtrip: metric " << name->str << " missing or not in " << unit->str
                << "\n";
      rc = 1;
    }
  }
  if (metrics.obj.size() != list->arr.size()) {
    std::cerr << "roundtrip: " << metrics.obj.size() << " metrics printed, "
              << list->arr.size() << " listed\n";
    rc = 1;
  }
  return rc;
}

}  // namespace perfbench
