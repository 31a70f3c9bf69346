// Shared plumbing of the repository benchmark: options, the result record
// every workload fills, the span tracer of the traced run, and the small
// timing/statistics/memory helpers the workloads share.
//
// Every layer is measured from outside: the workloads time calls into the
// public functions of trace, gen, hazard, ml, core, policies, sim and
// server, and never reach into the program's internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/lhrt.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"

namespace lhr::ml {
struct CompiledModel;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
};

/// One workload's fixed shape. The open-loop rates and the p99 limit are the
/// contract BENCHMARK.json quotes: fixed numbers, never derived from a run.
struct WorkloadSpec {
  const char* name;
  std::size_t requests;
  bool serve;                      ///< CdnServer workload (else sim::simulate)
  bool lhr;                        ///< LHR policy, else LRU; served LHR also drifts
  std::vector<double> rates;       ///< offered req/s, ascending
  double reference_rps;            ///< rate the sojourn percentiles are quoted at
  double p99_limit_ms;             ///< slo_rps latency limit
  int setup_reps;                  ///< set-ups behind the setup_s median
};

/// The workload named `name`, or null.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// What a run reports: named metrics (in print order), correctness-check
/// tallies, and the attempted/failed request counts behind error_rate.
class Result {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit);
  /// Records one correctness check; a failure counts into failed().
  void check(bool ok, const std::string& what);
  void add_requests(std::uint64_t attempted, std::uint64_t failed_5xx);
  /// Free-form line printed before the metrics (sample counts, knobs).
  void note(const std::string& line);

  [[nodiscard]] bool correct() const noexcept { return failed_checks_ == 0; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return failed_5xx_ + failed_checks_;
  }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const std::vector<std::string>& notes() const noexcept { return notes_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_5xx_ = 0;
  std::uint64_t failed_checks_ = 0;
};

/// In-memory spans (name, start, end, parent) around each call into a layer,
/// plus per-layer log2 histograms of per-call nanoseconds. Disabled tracers
/// record nothing; the traced run writes everything out once at the end.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Span {
   public:
    Span(Tracer& tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  /// Adds per-call samples (nanoseconds) to the named layer histogram.
  void histogram(const std::string& name, std::span<const float> ns);
  void write_json(const std::string& path, const Result& result) const;

 private:
  struct Record {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  struct Histogram {
    std::string name;
    std::vector<std::uint64_t> log2_ns;  ///< bucket b: [2^b, 2^(b+1)) ns
    std::uint64_t count = 0;
    double sum_ns = 0.0;
  };

  bool enabled_;
  std::vector<Record> spans_;
  std::vector<int> open_;
  std::vector<Histogram> histograms_;
};

// ------------------------------------------------------------ time, stats

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Whether a run that started at `start` should stop after the round that
/// started at `round_start`: another round as long would end more than half
/// a round past `seconds`. Runs so end within half a round of their length.
[[nodiscard]] inline bool round_ends_past(double start, double round_start, double seconds) {
  const double now = now_s();
  return now - start + 0.5 * (now - round_start) >= seconds;
}

[[nodiscard]] double median(std::vector<double> values);

/// A run's figure for a quantity measured once per repetition. Repetitions
/// in a run do identical work (same trace, same arrival schedule, hits
/// checked identical), so what spreads them is interference from other
/// tenants of the host, which comes and goes within seconds. The quartile at
/// the fast end keeps the figure on the repetitions that met the least of it:
/// fast_time is the 25th percentile of times, fast_rate the 75th of rates.
[[nodiscard]] double fast_time(std::vector<double> values);
[[nodiscard]] double fast_rate(std::vector<double> values);

/// "a, b, c" with %.6g precision: the per-repetition values behind a figure.
[[nodiscard]] std::string join(const std::vector<double>& values);

/// q-quantile of a sample, linearly interpolated between order statistics
/// (the continuous estimator, so a percentile moves with every sample).
/// Reorders `values`.
[[nodiscard]] double quantile(std::vector<double>& values, double q);
[[nodiscard]] double quantile(std::vector<float>& values, double q);

/// q-quantile of a server::CdnServer open-loop histogram (QuantileHistogram
/// with the OpenLoopAccumulator layout: 1e-9 s floor, 128 buckets/decade),
/// interpolated log-linearly inside the bucket that holds the target rank
/// rather than snapped to the bucket's upper edge.
[[nodiscard]] double histogram_quantile(const lhr::util::QuantileHistogram& h,
                                        double q);

// ------------------------------------------------------------ memory

/// Live heap bytes (glibc mallinfo2: arena in-use plus mmapped chunks).
[[nodiscard]] std::int64_t live_heap_bytes();
/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

// ------------------------------------------------------------ inputs

/// The workload's generated trace, packed to .lhrt and mapped back: the
/// program only ever sees these generated requests.
struct Inputs {
  std::unique_ptr<lhr::trace::MappedTrace> trace;
  std::string path;
  std::uint64_t capacity_bytes = 0;
  std::vector<double> setup_runs;  ///< every set-up's seconds, in order
  std::vector<double> gen_runs;    ///< the gen::make_trace (+ drift) part of each
};

/// .bench_out/<workload>-<seed><suffix>, relative to the checkout root: the
/// packed trace (".lhrt", removed by main after the run) and the traced
/// run's dump ("-trace.json").
[[nodiscard]] std::string out_path(const WorkloadSpec& spec, const Options& opt,
                                   const char* suffix);

using BuildFn = void (*)(const WorkloadSpec&, std::uint64_t capacity);

/// One timed set-up: generate (plus drift), pack, map (replacing the previous
/// mapping; the content is the same) and build the workload's cache, which
/// `build` constructs and drops so its cost counts. Appends to setup_runs
/// and gen_runs. The untraced runs spread their spec.setup_reps set-ups
/// over the run, between measurements, so setup_s samples the machine
/// across the run rather than in one burst at its start.
void run_setup(const WorkloadSpec& spec, const Options& opt, BuildFn build, Inputs& in);

/// Runs set-ups until spec.setup_reps have been timed.
void finish_setups(const WorkloadSpec& spec, const Options& opt, BuildFn build, Inputs& in);

/// Rewrites `source` onto a deterministic Poisson arrival schedule at `rps`
/// (keys and sizes untouched, order kept).
[[nodiscard]] lhr::trace::Trace poisson_schedule(std::span<const lhr::trace::Request> source,
                                                 double rps, std::uint64_t seed);

/// Per-layer figures every workload measures on its own trace (layers.cpp):
/// gen, trace, hazard, ml and policies.lru. `live_model` is scored when
/// given, else a model fitted on the trace. `stage_sum_ns` receives the
/// per-request cost of the LHR stages measured (classify + extract + score).
void measure_common_layers(const Inputs& in, const lhr::ml::CompiledModel* live_model,
                           Tracer& tracer, Result& out, double& stage_sum_ns);

/// The serving-layer figures (server.*, cp.*) of a 64-shard CdnServer over
/// the workload's trace, LHR- or LRU-backed (serve_workload.cpp). With
/// `workload_policy` it also reports the backend's own core.*, ml.fits,
/// policies.access_ns and tracing figures; sim-lhr reuses the block with an
/// LRU backend so every server.* figure is measured on every workload.
void measure_server_layer(bool lhr, double reference_rps, const Inputs& in,
                          const Options& opt, double stage_sum_ns, bool workload_policy,
                          Tracer& tracer, Result& out);

void run_sim(const WorkloadSpec& spec, const Options& opt, Result& out);
void run_serve(const WorkloadSpec& spec, const Options& opt, Result& out);

}  // namespace perfbench
