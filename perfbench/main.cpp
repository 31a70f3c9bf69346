// perfbench: the repository benchmark.
//
//   perfbench --workload <sim-lhr|serve-lru|serve-lhr-drift> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics and writes its
// spans and histograms to .bench_out/<workload>-<seed>-trace.json. Human-
// readable lines come first; the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 0 only when a result line was printed.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/proc_replay.hpp"
#include "ml/simd_dispatch.hpp"

extern char** environ;

namespace perfbench {
namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares, in print order.
const std::vector<MetricName> kEndToEnd = {
    {"setup_s", "s"},          {"max_rps", "1/s"},        {"slo_rps", "1/s"},
    {"sojourn_p50_ms", "ms"},  {"sojourn_p99_ms", "ms"},  {"hit_ratio", "ratio"},
    {"byte_hit_ratio", "ratio"}, {"peak_rss_mb", "MB"},
};

const std::vector<MetricName> kPerLayer = {
    {"gen.trace_s", "s"},
    {"trace.scan_ns", "ns"},
    {"hazard.classify_ns", "ns"},
    {"hazard.heap_bytes", "bytes"},
    {"hazard.model_bytes", "bytes"},
    {"ml.extract_ns", "ns"},
    {"ml.features_heap_bytes", "bytes"},
    {"ml.features_model_bytes", "bytes"},
    {"ml.fit_s", "s"},
    {"ml.score_row_ns", "ns"},
    {"ml.fits", "count"},
    {"policies.lru_ns", "ns"},
    {"policies.access_ns", "ns"},
    {"core.access_ns_p50", "ns"},
    {"core.access_ns_p99", "ns"},
    {"core.access_ms_max", "ms"},
    {"core.train_fg_s", "s"},
    {"core.windows", "count"},
    {"core.unattributed_ns", "ns"},
    {"core.heap_bytes", "bytes"},
    {"core.metadata_bytes", "bytes"},
    {"server.serve_ns_p50", "ns"},
    {"server.serve_ns_p99", "ns"},
    {"server.self_ns", "ns"},
    {"server.scaling_eff", "ratio"},
    {"server.lock_contentions", "count"},
    {"server.service_avg_us", "us"},
    {"server.queue_wait_p99_ms", "ms"},
    {"server.queued_share", "ratio"},
    {"server.peak_metadata_bytes", "bytes"},
    {"server.proc_rps_ratio", "ratio"},
    {"cp.shadow_samples", "count"},
    {"cp.promotions", "count"},
    {"cp.rollbacks", "count"},
    {"cp.guard_engagements", "count"},
    {"cp.guarded_requests", "count"},
    {"tracing.overhead_share", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.traced = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return opt;
}

/// Drops every LHR_* knob so the environment cannot change what is measured.
void clear_lhr_environment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "LHR_", 4) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? static_cast<std::size_t>(eq - *e) : std::strlen(*e));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

/// Prints the metrics of `expected` in order; fails when the run produced a
/// different set (a benchmark bug, never a measurement).
bool print_metrics(const Result& result, const std::vector<MetricName>& expected) {
  const auto& got = result.metrics();
  bool ok = got.size() == expected.size();
  std::string json;
  for (const MetricName& m : expected) {
    const Result::Metric* found = nullptr;
    for (const Result::Metric& g : got) {
      if (g.name == m.name) found = &g;
    }
    if (found == nullptr || found->unit != m.unit || !std::isfinite(found->value)) {
      std::fprintf(stderr, "perfbench: metric %s missing, not finite or in the wrong unit\n",
                   m.name);
      ok = false;
      continue;
    }
    std::printf("metric %-28s %.17g %s\n", m.name, found->value, m.unit);
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", m.name, found->value, m.unit);
    json += buf;
  }
  if (!ok) return false;
  const double error_rate = static_cast<double>(result.failed()) /
                            static_cast<double>(std::max<std::uint64_t>(result.attempted(), 1));
  std::printf("error_rate %.6g (%llu failed of %llu requests attempted, 5xx plus failed "
              "checks)\n",
              error_rate, static_cast<unsigned long long>(result.failed()),
              static_cast<unsigned long long>(result.attempted()));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted()),
              static_cast<unsigned long long>(result.failed()), json.c_str());
  return true;
}

int run(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const WorkloadSpec* spec = find_workload(opt.workload);
  if (spec == nullptr) usage(("unknown workload " + opt.workload).c_str());

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  if (build_type != "Release" || asserts) {
    std::fprintf(stderr, "perfbench: refusing to time a %s build (need Release)\n",
                 build_type.c_str());
    return 3;
  }
  clear_lhr_environment();

  std::printf("env build_type=%s simd=%s nproc=%ld\n", build_type.c_str(),
              lhr::ml::simd::level_name(lhr::ml::simd::active_level()),
              sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("workload %s: %zu CDN-A requests, seed %llu, %s run, open-loop rates",
              spec->name, spec->requests, static_cast<unsigned long long>(opt.seed),
              opt.traced ? "traced" : "untraced");
  for (const double r : spec->rates) std::printf(" %.0f", r);
  std::printf(" req/s, reference %.0f req/s, p99 limit %.0f ms\n", spec->reference_rps,
              spec->p99_limit_ms);
  std::fflush(stdout);

  Result result;
  try {
    if (spec->serve) {
      run_serve(*spec, opt, result);
    } else {
      run_sim(*spec, opt, result);
    }
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(out_path(*spec, opt, ".lhrt"), ignored);
    throw;
  }
  std::filesystem::remove(out_path(*spec, opt, ".lhrt"));
  for (const std::string& line : result.notes()) std::printf("%s\n", line.c_str());
  return print_metrics(result, opt.traced ? kPerLayer : kEndToEnd) ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Worker processes of core::run_proc_replay re-enter this binary here.
  if (const int rc = lhr::core::proc_replay_worker_main(argc, argv); rc >= 0) return rc;
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
