#include "bench.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "gen/cdn_model.hpp"
#include "gen/drift.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr const char* kOutDir = ".bench_out";

/// The drift episodes of serve-lhr-drift (bench_control_plane's default).
constexpr const char* kDriftSpec = "remap:0.40-0.68@1.0;onehit:0.72-0.88@0.9";

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  // The fixed shape of each workload. Rates and limits are quoted verbatim in
  // BENCHMARK.json; changing them changes the benchmark, not the program.
  static const std::vector<WorkloadSpec> specs = {
      {"sim-lhr", 300'000, false, true, {5e3, 10e3, 20e3, 160e3}, 10e3, 500.0, 15},
      {"serve-lru", 2'000'000, true, false, {125e3, 250e3, 500e3, 1e6, 4e6}, 125e3, 20.0, 5},
      {"serve-lhr-drift", 300'000, true, true, {20e3, 40e3, 80e3, 400e3}, 20e3, 100.0, 15},
  };
  for (const WorkloadSpec& spec : specs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// ------------------------------------------------------------ Result

void Result::set(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) ++failed_checks_;
  notes_.push_back(std::string("check ") + (ok ? "ok     " : "FAILED ") + what);
}

void Result::add_requests(std::uint64_t attempted, std::uint64_t failed_5xx) {
  attempted_ += attempted;
  failed_5xx_ += failed_5xx;
}

void Result::note(const std::string& line) { notes_.push_back(line); }

// ------------------------------------------------------------ Tracer

Tracer::Span::Span(Tracer& tracer, const char* name) : tracer_(tracer), id_(-1) {
  if (!tracer_.enabled_) return;
  id_ = static_cast<int>(tracer_.spans_.size());
  const int parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  tracer_.spans_.push_back({name, parent, now_s(), 0.0});
  tracer_.open_.push_back(id_);
}

Tracer::Span::~Span() {
  if (id_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(id_)].end_s = now_s();
  tracer_.open_.pop_back();
}

void Tracer::histogram(const std::string& name, std::span<const float> ns) {
  if (!enabled_) return;
  Histogram h{name, std::vector<std::uint64_t>(48, 0), 0, 0.0};
  for (const float v : ns) {
    const double x = std::max(1.0, static_cast<double>(v));
    const auto b = static_cast<std::size_t>(std::log2(x));
    ++h.log2_ns[std::min<std::size_t>(b, h.log2_ns.size() - 1)];
    h.sum_ns += x;
  }
  h.count = ns.size();
  histograms_.push_back(std::move(h));
}

void Tracer::write_json(const std::string& path, const Result& result) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace dump " + path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_s;
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    // Self time: the span minus the part its direct children cover.
    double child = 0.0;
    for (const Record& c : spans_) {
      if (c.parent == static_cast<int>(i)) child += c.end_s - c.start_s;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                  "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f}",
                  i == 0 ? "" : ",", i, s.name.c_str(), s.parent, s.start_s - t0,
                  s.end_s - t0, s.end_s - s.start_s - child);
    out << buf;
  }
  out << "\n],\n\"histograms\": [";
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    const Histogram& h = histograms_[i];
    out << (i == 0 ? "" : ",") << "\n  {\"name\": \"" << h.name
        << "\", \"count\": " << h.count << ", \"sum_ns\": " << h.sum_ns
        << ", \"log2_ns_buckets\": [";
    for (std::size_t b = 0; b < h.log2_ns.size(); ++b) {
      out << (b == 0 ? "" : ", ") << h.log2_ns[b];
    }
    out << "]}";
  }
  out << "\n],\n\"metrics\": {";
  const auto& metrics = result.metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ",", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out << buf;
  }
  out << "\n}}\n";
  if (!out) throw std::runtime_error("short write to trace dump " + path);
}

// ------------------------------------------------------------ statistics

double median(std::vector<double> values) { return quantile(values, 0.5); }
double fast_time(std::vector<double> values) { return quantile(values, 0.25); }
double fast_rate(std::vector<double> values) { return quantile(values, 0.75); }

std::string join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", out.empty() ? "" : ", ", v);
    out += buf;
  }
  return out;
}

namespace {

template <typename T>
double interpolated_quantile(std::vector<T>& values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of an empty sample");
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(lo),
                   values.end());
  const double a = static_cast<double>(values[lo]);
  if (lo + 1 >= values.size()) return a;
  const double b = static_cast<double>(
      *std::min_element(values.begin() + static_cast<std::ptrdiff_t>(lo) + 1, values.end()));
  return a + (b - a) * (pos - static_cast<double>(lo));
}

}  // namespace

double quantile(std::vector<double>& values, double q) {
  return interpolated_quantile(values, q);
}
double quantile(std::vector<float>& values, double q) {
  return interpolated_quantile(values, q);
}

double histogram_quantile(const lhr::util::QuantileHistogram& h, double q) {
  // Layout of CdnServer::OpenLoopAccumulator's histograms: bucket b >= 1
  // holds log10(v) in [-9 + (b-1)/128, -9 + b/128); bucket 0 holds the rest.
  constexpr double kLogMin = -9.0;
  constexpr double kStep = 1.0 / 128.0;
  const auto counts = h.bucket_counts();
  if (h.count() == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(h.count());
  double acc = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const auto c = static_cast<double>(counts[b]);
    if (c > 0.0 && acc + c >= target) {
      const double frac = std::clamp((target - acc) / c, 0.0, 1.0);
      const double lo = kLogMin + (static_cast<double>(b) - 1.0) * kStep;
      return std::pow(10.0, lo + frac * kStep);
    }
    acc += c;
  }
  return std::pow(10.0, kLogMin + static_cast<double>(counts.size() - 1) * kStep);
}

// ------------------------------------------------------------ memory

std::int64_t live_heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<std::int64_t>(mi.uordblks + mi.hblkhd);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ------------------------------------------------------------ inputs

lhr::trace::Trace poisson_schedule(std::span<const lhr::trace::Request> source,
                                   double rps, std::uint64_t seed) {
  lhr::trace::Trace out;
  out.reserve(source.size());
  lhr::util::Xoshiro256 rng(seed);
  double t = 0.0;
  for (const lhr::trace::Request& r : source) {
    t += -std::log(1.0 - rng.next_double()) / rps;
    out.push_back({t, r.key, r.size});
  }
  return out;
}

std::string out_path(const WorkloadSpec& spec, const Options& opt, const char* suffix) {
  return (std::filesystem::path(kOutDir) /
          (std::string(spec.name) + "-" + std::to_string(opt.seed) + suffix))
      .string();
}

void run_setup(const WorkloadSpec& spec, const Options& opt, BuildFn build, Inputs& in) {
  if (in.path.empty()) {
    std::filesystem::create_directories(kOutDir);
    in.path = out_path(spec, opt, ".lhrt");
    in.capacity_bytes = lhr::gen::headline_cache_size(
        lhr::gen::TraceClass::kCdnA, static_cast<double>(spec.requests) / 1e6);
  }
  in.trace.reset();
  const double t0 = now_s();
  lhr::trace::Trace trace =
      lhr::gen::make_trace(lhr::gen::TraceClass::kCdnA, spec.requests, opt.seed);
  if (spec.serve && spec.lhr) {
    trace = lhr::gen::apply_drift(trace, lhr::gen::DriftSchedule::parse(kDriftSpec),
                                  opt.seed);
  }
  const double t1 = now_s();
  lhr::trace::write_lhrt_file(trace, in.path, opt.seed,
                              static_cast<std::int32_t>(lhr::gen::TraceClass::kCdnA));
  trace = lhr::trace::Trace();
  in.trace = std::make_unique<lhr::trace::MappedTrace>(in.path);
  build(spec, in.capacity_bytes);
  in.setup_runs.push_back(now_s() - t0);
  in.gen_runs.push_back(t1 - t0);
}

void finish_setups(const WorkloadSpec& spec, const Options& opt, BuildFn build, Inputs& in) {
  while (in.setup_runs.size() < static_cast<std::size_t>(spec.setup_reps)) {
    run_setup(spec, opt, build, in);
  }
}

}  // namespace perfbench
