/// \file bench.hpp
/// Shared pieces of the fixed-work benchmark (NOTES.md): the span tracer,
/// one trial's measurements, the workload interface, and small helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
[[nodiscard]] inline double now_s() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// CPU seconds all threads of this process have used since it started.
[[nodiscard]] inline double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Median of `xs` (mean of the middle pair for even sizes); 0 if empty.
[[nodiscard]] double median(std::vector<double> xs);

/// Nearest-rank percentile, q in [0, 1]; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> xs, double q);

/// Return freed heap to the OS, then reset the process's resident-set
/// high-water mark to its current RSS (Linux clear_refs "5"); the reset
/// is a no-op where unsupported.
void reset_peak_rss();
/// Resident-set high-water mark in MB since the last reset.
[[nodiscard]] double peak_rss_mb();

/// One recorded span: a timed call into a layer, made by the benchmark.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "sim.run"
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;   ///< index of the enclosing span, -1 for a trial root
  int run_id = 0;    ///< trial index within the process
};

/// One module counter read at a span boundary.
struct CounterRead {
  int span = -1;
  std::string name;
  double value = 0.0;
};

/// In-memory span recorder. Spans nest by scope (`Scope`); everything is
/// kept until the process writes it out at the end of the run.
class Tracer {
 public:
  /// RAII span; a no-op when the tracer is null (untraced trials).
  class Scope {
   public:
    Scope(Tracer* t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_ = -1;
  };

  void begin_run(int run_id) { run_id_ = run_id; }
  /// Record a counter at the innermost open span.
  void counter(const std::string& name, double value);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<CounterRead>& counters() const { return counters_; }

  /// Per-layer self time of run `run_id`: span duration minus the part
  /// its child spans cover, summed by layer (the name before the first '.').
  [[nodiscard]] std::map<std::string, double> self_times(int run_id) const;

  /// Spans and counters as JSON lines.
  [[nodiscard]] std::string to_jsonl(const std::string& workload) const;

 private:
  std::vector<Span> spans_;
  std::vector<CounterRead> counters_;
  std::vector<int> open_;
  int run_id_ = 0;
};

/// What one fixed-work trial measured.
struct Trial {
  double setup_s = 0.0;   ///< config → ready to run
  double work = 0.0;      ///< meals (sim, rt) or unique states (mc)
  double window_s = 0.0;  ///< wall time of the fixed-work window
  double window_cpu_s = 0.0;  ///< process CPU time of the fixed-work window
  double verify_s = 0.0;  ///< post-run checks the user pays for
  double peak_rss_mb = 0.0;
  std::uint64_t attempted = 0;  ///< hungry sessions (sim, rt) or 1 (mc)
  std::uint64_t failed = 0;
  /// Workload-specific report metrics: name → (value, unit).
  std::map<std::string, std::pair<double, std::string>> report;
  /// Per-layer counters and timings (name → value); units live in the
  /// per-layer table in report.cpp.
  std::map<std::string, double> layer;
  /// Counters that must repeat exactly for a given seed.
  std::map<std::string, double> exact;
  std::vector<std::string> errors;  ///< breached output checks
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// A workload: a setup-only probe (build + destroy, returns seconds) and
/// one full fixed-work trial. `tracer` is null on untraced trials.
struct Workload {
  std::string name;
  std::string unit_of_work;  ///< "meals" or "states"
  std::function<double(const RunArgs&)> setup_probe;
  std::function<Trial(const RunArgs&, Tracer*)> trial;
  std::string shards_threads;  ///< runner metadata: "shards=2", "threads=2", ...
};

Workload make_sim_workload();
Workload make_rt_workload();
Workload make_mc_workload();

/// A metric name and its unit, as listed in BENCHMARK.json.
struct MetricDef {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// Runner metadata stamped into every result: nproc, build type,
/// compiler, shards/threads, seed and commit.
[[nodiscard]] std::string runner_json(const Workload& w, const RunArgs& args,
                                      const std::string& commit);

/// Compare two result files (parsed with obs/json): prints each exact
/// counter of both, then each report metric with its B/A ratio. Refuses
/// (returns 3) across runner classes or workloads; returns 1 when an
/// exact counter differs. With `exact_only`, prints only the counters.
int compare_results(const std::string& path_a, const std::string& path_b, bool exact_only);

/// Check benchmark output read from `in`: every JSON line parses with
/// obs/json and re-serializes byte-stably, the last line is the result
/// object, and (given BENCHMARK.json) every listed metric of the
/// trace-0/1 list appears with its unit. Returns 0 when all hold.
int roundtrip(std::istream& in, const std::string& schema_path, int trace);

/// The seed whose exact counters are recorded in expected.json.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Compare `t.exact` against expected.json's entry for `workload` when
/// `seed` is the default seed (breaches go to t.errors); other seeds only
/// report their counts.
void check_expected(const std::string& workload, std::uint64_t seed, Trial& t);

}  // namespace perfbench
