// perfbench — fixed-work benchmark of the daemon (NOTES.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit SHA] [--out DIR]
//   perfbench compare [--exact] A.json B.json
//   perfbench roundtrip [--schema BENCHMARK.json --trace 0|1] < output
//
// A run repeats one fixed-work trial of the workload (set up, run to a
// fixed amount of work, check the outputs) until S seconds have passed,
// and reports medians over the trials (throughput: total work over total
// CPU time). With --trace 0 the last stdout line carries the end-to-end
// metrics; with --trace 1 the run alternates untraced and traced trials,
// and the last line carries the per-layer metrics of the traced ones plus
// the tracing overhead (traced minus untraced values). Exit code 1 when
// any output check fails.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/json.hpp"

namespace perfbench {
namespace {

namespace json = ekbd::obs::json;

/// At least this many untraced (and, with --trace 1, traced) trials per
/// run, however long a trial takes.
constexpr std::size_t kMinTrials = 3;
/// Extra set-ups after each untraced trial: at least kMinExtraSetups, and
/// more while they add up to under kSetupBudgetS, so a short set-up gets
/// its median from many samples.
constexpr int kMinExtraSetups = 2;
constexpr double kSetupBudgetS = 0.05;

int usage() {
  std::cerr << "usage: perfbench --workload sim-crash-hb|rt-saturate|mc-k3 --seed N "
               "--seconds S --trace 0|1 [--commit SHA] [--out DIR]\n"
               "       perfbench compare [--exact] A.json B.json\n"
               "       perfbench roundtrip [--schema BENCHMARK.json --trace 0|1] < output\n";
  return 2;
}

/// Metrics in print order: name → (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

template <typename Get>
std::vector<double> collect(const std::vector<Trial>& trials, Get get) {
  std::vector<double> xs;
  xs.reserve(trials.size());
  for (const Trial& t : trials) xs.push_back(get(t));
  return xs;
}

double throughput(const Trial& t) { return t.window_s > 0 ? t.work / t.window_s : 0.0; }
/// Work per CPU second of the window.
double cpu_throughput(const Trial& t) {
  return t.window_cpu_s > 0 ? t.work / t.window_cpu_s : 0.0;
}
/// The gated throughput: total work ÷ total window CPU time of `trials`.
/// Per CPU second, because on a shared host the wall time of a run also
/// counts the time its threads waited for a core; over all trials rather
/// than their median, because the host's speed drifts within a run and
/// the total uses every trial (it moved less between runs).
double run_cpu_throughput(const std::vector<Trial>& trials) {
  double work = 0.0;
  double cpu_s = 0.0;
  for (const Trial& t : trials) {
    work += t.work;
    cpu_s += t.window_cpu_s;
  }
  return cpu_s > 0 ? work / cpu_s : 0.0;
}
double setup_of(const Trial& t) { return t.setup_s; }
double rss_of(const Trial& t) { return t.peak_rss_mb; }

/// Everything a run's trials produced.
struct Run {
  std::vector<Trial> plain;   ///< untraced trials
  std::vector<Trial> traced;  ///< traced trials (--trace 1 only)
  std::vector<int> traced_ids;
  std::vector<double> setups;  ///< every untraced set-up, probes included
  std::map<std::string, double> exact;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Tracer tracer;
};

void run_trials(const Workload& w, const RunArgs& args, Run& r) {
  const double start = now_s();
  for (int id = 0;; ++id) {
    const bool use_tracer = args.trace && id % 2 == 1;
    r.tracer.begin_run(id);
    reset_peak_rss();
    Trial t = w.trial(args, use_tracer ? &r.tracer : nullptr);
    t.peak_rss_mb = peak_rss_mb();
    if (!use_tracer) {
      r.setups.push_back(t.setup_s);
      double spent = 0.0;
      for (int k = 0; k < kMinExtraSetups || spent < kSetupBudgetS; ++k) {
        r.setups.push_back(w.setup_probe(args));
        spent += r.setups.back();
      }
    }
    // Exact counters must repeat across every trial of one seed, traced
    // or not; the first trial is also checked against expected.json.
    if (id == 0) {
      r.exact = t.exact;
      check_expected(w.name, args.seed, t);
    } else if (t.exact != r.exact) {
      t.errors.push_back("exact counters differ between trials of one seed");
    }
    for (const std::string& e : t.errors) {
      r.errors.push_back("trial " + std::to_string(id) + ": " + e);
    }
    r.attempted += t.attempted;
    r.failed += t.failed;
    if (use_tracer) {
      r.traced.push_back(std::move(t));
      r.traced_ids.push_back(id);
    } else {
      r.plain.push_back(std::move(t));
    }
    const bool enough =
        r.plain.size() >= kMinTrials && (!args.trace || r.traced.size() >= kMinTrials);
    if (enough && now_s() - start >= args.seconds) return;
  }
}

/// The BENCHMARK.json end-to-end metrics, from the untraced trials.
Metrics end_to_end(const Run& r) {
  const std::map<std::string, double> v = {
      {"setup_s", median(r.setups)},
      {"throughput_per_cpu_s", run_cpu_throughput(r.plain)},
      {"peak_rss_mb", median(collect(r.plain, rss_of))},
  };
  Metrics out;
  for (const MetricDef& m : end_to_end_metrics()) out.push_back({m.name, {v.at(m.name), m.unit}});
  return out;
}

/// Every end-to-end metric that applies to the workload, by name with
/// its unit: the gated three plus the workload's own.
Metrics report(const Run& r) {
  Metrics out = end_to_end(r);
  for (const auto& [name, vu] : r.plain.front().report) {
    const std::string& key = name;
    out.push_back({name, {median(collect(r.plain, [&](const Trial& t) {
                            return t.report.at(key).first;
                          })),
                          vu.second}});
  }
  const auto verify = [](const Trial& t) { return t.verify_s; };
  out.push_back({"verify_s", {median(collect(r.plain, verify)), "s"}});
  out.push_back({"fail_ratio",
                 {static_cast<double>(r.failed) / static_cast<double>(r.attempted), "ratio"}});
  return out;
}

/// The BENCHMARK.json per-layer metrics, from the traced trials, plus the
/// tracing overhead (traced minus untraced medians).
Metrics per_layer(const Run& r) {
  const std::map<std::string, double> overhead = {
      {"trace_overhead.setup_s",
       median(collect(r.traced, setup_of)) - median(collect(r.plain, setup_of))},
      {"trace_overhead.throughput_per_cpu_s",
       run_cpu_throughput(r.traced) - run_cpu_throughput(r.plain)},
      {"trace_overhead.peak_rss_mb",
       median(collect(r.traced, rss_of)) - median(collect(r.plain, rss_of))},
  };
  std::vector<std::map<std::string, double>> selfs;
  for (int id : r.traced_ids) selfs.push_back(r.tracer.self_times(id));
  const std::string self_suffix = ".self_s";

  Metrics out;
  for (const MetricDef& m : per_layer_metrics()) {
    const std::string name = m.name;
    double v = 0.0;
    if (overhead.count(name) != 0) {
      v = overhead.at(name);
    } else if (name.size() > self_suffix.size() &&
               name.compare(name.size() - self_suffix.size(), self_suffix.size(),
                            self_suffix) == 0) {
      const std::string layer = name.substr(0, name.size() - self_suffix.size());
      std::vector<double> xs;
      for (const auto& s : selfs) xs.push_back(s.count(layer) != 0 ? s.at(layer) : 0.0);
      v = median(xs);
    } else {
      v = median(collect(r.traced, [&](const Trial& t) {
        return t.layer.count(name) != 0 ? t.layer.at(name) : 0.0;
      }));
    }
    out.push_back({name, {v, m.unit}});
  }
  return out;
}

/// Append `item` to a comma-separated list.
void append(std::string& list, const std::string& item) {
  if (!list.empty()) list += ',';
  list += item;
}

/// `"name":{"value":v,"unit":u},...` members (no braces).
std::string metrics_json(const Metrics& ms) {
  std::string out;
  for (const auto& [name, vu] : ms) {
    append(out, json::quote(name) + ":{\"value\":" + json::format_double(vu.first) +
                    ",\"unit\":" + json::quote(vu.second) + "}");
  }
  return out;
}

std::string array_json(const std::vector<double>& xs) {
  std::string out;
  for (double x : xs) append(out, json::format_double(x));
  return "[" + out + "]";
}

int run(const Workload& w, const RunArgs& args, const std::string& commit,
        const std::string& out_dir) {
  Run r;
  run_trials(w, args, r);
  const bool correct = r.errors.empty();
  const Metrics rep = report(r);

  std::string exact_json;
  for (const auto& [name, v] : r.exact) {
    append(exact_json, json::quote(name) + ":" + json::format_double(v));
  }
  std::string errors_json;
  for (const std::string& e : r.errors) append(errors_json, json::quote(e));
  const std::string result = "{\"correct\":" + std::string(correct ? "true" : "false") +
                             ",\"attempted\":" + std::to_string(r.attempted) +
                             ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{" +
                             metrics_json(args.trace ? per_layer(r) : end_to_end(r)) + "}}";
  const std::string full =
      "{\"runner\":" + runner_json(w, args, commit) + ",\"workload\":" + json::quote(w.name) +
      ",\"trace\":" + std::to_string(args.trace ? 1 : 0) +
      ",\"trials\":" + std::to_string(r.plain.size() + r.traced.size()) +
      ",\"samples\":{\"throughput_per_s\":" + array_json(collect(r.plain, throughput)) +
      ",\"throughput_per_cpu_s\":" + array_json(collect(r.plain, cpu_throughput)) +
      ",\"peak_rss_mb\":" + array_json(collect(r.plain, rss_of)) + "},\"report\":{" +
      metrics_json(rep) + "},\"exact\":{" + exact_json + "},\"errors\":[" + errors_json +
      "],\"result\":" + result + "}";

  if (!out_dir.empty()) {
    const std::string stem = out_dir + "/" + w.name + "-seed" + std::to_string(args.seed) +
                             "-trace" + std::to_string(args.trace ? 1 : 0);
    std::ofstream(stem + ".json") << full << "\n";
    if (args.trace) std::ofstream(stem + "-spans.jsonl") << r.tracer.to_jsonl(w.name);
  }

  // Human-readable report, then the machine-readable lines.
  std::cout << "# " << w.name << " seed=" << args.seed << " trials=" << r.plain.size()
            << " traced=" << r.traced.size()
            << " work/trial=" << json::format_double(r.plain.front().work) << " "
            << w.unit_of_work << "\n";
  for (const auto& [name, vu] : rep) {
    std::cout << "# " << name << " = " << json::format_double(vu.first) << " " << vu.second
              << "\n";
  }
  for (const std::string& e : r.errors) std::cout << "# CHECK FAILED " << e << "\n";
  std::cout << full << "\n" << result << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::vector<std::string> a(argv + 1, argv + argc);
  if (!a.empty() && a[0] == "compare") {
    const bool exact = a.size() == 4 && a[1] == "--exact";
    if (a.size() != (exact ? 4u : 3u)) return usage();
    return compare_results(a[a.size() - 2], a[a.size() - 1], exact);
  }
  if (!a.empty() && a[0] == "roundtrip") {
    std::string schema;
    int trace = 0;
    for (std::size_t i = 1; i + 1 < a.size(); i += 2) {
      if (a[i] == "--schema") {
        schema = a[i + 1];
      } else if (a[i] == "--trace") {
        trace = std::atoi(a[i + 1].c_str());
      } else {
        return usage();
      }
    }
    return roundtrip(std::cin, schema, trace);
  }

  RunArgs args;
  std::string commit = "unknown";
  std::string out_dir;
  if (a.size() % 2 != 0) return usage();
  for (std::size_t i = 0; i < a.size(); i += 2) {
    const std::string& k = a[i];
    const std::string& v = a[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') return usage();
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(args.seconds >= 0)) return usage();
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return usage();
      args.trace = v == "1";
    } else if (k == "--commit") {
      commit = v;
    } else if (k == "--out") {
      out_dir = v;
    } else {
      return usage();
    }
  }

  Workload w;
  if (args.workload == "sim-crash-hb") {
    w = make_sim_workload();
  } else if (args.workload == "rt-saturate") {
    w = make_rt_workload();
  } else if (args.workload == "mc-k3") {
    w = make_mc_workload();
  } else {
    return usage();
  }
  return run(w, args, commit, out_dir);
}
