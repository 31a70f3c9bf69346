// sim-lhr: sim::simulate drives paper-default LHR (synchronous training)
// over the mapped CDN-A trace at the headline cache size, closed loop on one
// thread. The open-loop figures treat the simulator as a one-worker server:
// each request's measured access() time is its service time in a virtual
// queue fed by a Poisson schedule at each fixed rate, the same accounting
// CdnServer::replay_open_loop applies to its workers.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "bench.hpp"
#include "core/lhr_cache.hpp"
#include "ml/flat_forest.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace lhr;

/// Keeps every request's access() wall time.
class AccessTimes final : public sim::SimObserver {
 public:
  explicit AccessTimes(std::size_t n) { seconds.reserve(n); }
  void on_request(std::size_t, const trace::Request&, bool, double access_seconds) override {
    seconds.push_back(access_seconds);
  }
  std::vector<double> seconds;
};

/// Pins the calling thread to the CPUs it may use, one at a time in turn, so
/// a core slowed by other tenants of the host weighs on a few replays of the
/// run rather than on all of them. Restores the original CPU set on exit.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Moves the calling thread to the turn-th CPU (modulo the set).
  void pin(std::size_t turn) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

std::unique_ptr<core::LhrCache> make_lhr(std::uint64_t capacity) {
  core::LhrConfig config;  // paper defaults
  config.train_synchronously = true;
  return std::make_unique<core::LhrCache>(capacity, config);
}

void build_for_setup(const WorkloadSpec&, std::uint64_t capacity) { (void)make_lhr(capacity); }

struct Replay {
  sim::SimMetrics metrics;
  std::unique_ptr<core::LhrCache> cache;
};

Replay replay(const Inputs& in, sim::SimObserver* observer, Result& out) {
  Replay r{{}, make_lhr(in.capacity_bytes)};
  sim::SimOptions options;
  options.observer = observer;
  r.metrics = sim::simulate(*r.cache, *in.trace, options);
  out.add_requests(r.metrics.requests, 0);
  return r;
}

struct QueueResult {
  double achieved_share = 0.0;  ///< achieved / offered
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Lindley recursion over the measured service times: completion =
/// max(arrival, previous completion) + service, sojourn = completion -
/// arrival. Arrivals come from the schedule, so generator lateness is 0.
QueueResult virtual_queue(const std::vector<double>& service_s, double rps,
                          std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> sojourn(service_s.size());
  double arrival = 0.0, clock = 0.0, first = 0.0;
  for (std::size_t i = 0; i < service_s.size(); ++i) {
    arrival += -std::log(1.0 - rng.next_double()) / rps;
    if (i == 0) first = arrival;
    clock = std::max(arrival, clock) + service_s[i];
    sojourn[i] = clock - arrival;
  }
  const auto n = static_cast<double>(service_s.size());
  QueueResult q;
  const double offered = n / std::max(arrival - first, 1e-12);
  q.achieved_share = n / std::max(clock - first, 1e-12) / offered;
  q.p50_ms = quantile(sojourn, 0.50) * 1e3;
  q.p99_ms = quantile(sojourn, 0.99) * 1e3;
  return q;
}

bool same_outcome(const sim::SimMetrics& a, const sim::SimMetrics& b) {
  return a.requests == b.requests && a.hits == b.hits && a.bytes_hit == b.bytes_hit;
}

void run_untraced(const WorkloadSpec& spec, const Options& opt, Inputs& in, Result& out) {
  const double start = now_s();
  const std::size_t n = in.trace->size();
  // Every replay keeps its per-request times for the virtual queues, each
  // rate on one Poisson schedule for all replays, and all of them must
  // agree on every hit.
  std::vector<double> rps;
  std::vector<std::vector<QueueResult>> queues(spec.rates.size());
  sim::SimMetrics first;
  CpuRotation rotation;
  for (;;) {
    const double round_start = now_s();
    rotation.pin(rps.size());
    AccessTimes times(n);
    const sim::SimMetrics m = replay(in, &times, out).metrics;
    if (rps.empty()) {
      first = m;
      out.check(m.requests == n, "requests equal the trace length (" + std::to_string(n) + ")");
    } else {
      out.check(same_outcome(m, first),
                "replay " + std::to_string(rps.size() + 1) + " hits identical to replay 1");
    }
    rps.push_back(m.requests_per_second());
    for (std::size_t k = 0; k < spec.rates.size(); ++k) {
      queues[k].push_back(
          virtual_queue(times.seconds, spec.rates[k], opt.seed * 0x9E3779B97F4A7C15ULL + k));
    }
    if (in.setup_runs.size() < static_cast<std::size_t>(spec.setup_reps)) {
      run_setup(spec, opt, build_for_setup, in);
    }
    if (rps.size() >= 3 && round_ends_past(start, round_start, opt.seconds)) break;
  }
  finish_setups(spec, opt, build_for_setup, in);

  double slo = 0.0, p50 = 0.0, p99 = 0.0;
  for (std::size_t k = 0; k < spec.rates.size(); ++k) {
    std::vector<double> share, q50, q99;
    for (const QueueResult& q : queues[k]) {
      share.push_back(q.achieved_share);
      q50.push_back(q.p50_ms);
      q99.push_back(q.p99_ms);
    }
    const double rate = spec.rates[k];
    if (fast_time(q99) <= spec.p99_limit_ms && fast_rate(share) >= 0.95) slo = rate;
    if (rate == spec.reference_rps) {
      p50 = fast_time(q50);
      p99 = fast_time(q99);
    }
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "virtual queue offered %.0f req/s (fast quartile of %zu replays): achieved "
                  "%.4f x offered, p50 %.4f ms, p99 %.4f ms over %zu sojourn samples each",
                  rate, q99.size(), fast_rate(share), fast_time(q50), fast_time(q99), n);
    out.note(buf);
  }

  out.set("setup_s", median(in.setup_runs), "s");
  out.set("max_rps", fast_rate(rps), "1/s");
  out.set("slo_rps", slo, "1/s");
  out.set("sojourn_p50_ms", p50, "ms");
  out.set("sojourn_p99_ms", p99, "ms");
  out.set("hit_ratio", first.object_hit_ratio(), "ratio");
  out.set("byte_hit_ratio", first.byte_hit_ratio(), "ratio");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.note("max_rps: 75th percentile of sim::simulate runs with per-request timing [" +
           join(rps) + "]");
  out.note("setup_s: median of set-ups [" + join(in.setup_runs) + "]");
}

void run_traced(const Options& opt, const Inputs& in, Tracer& tracer, Result& out) {
  const std::size_t n = in.trace->size();
  const auto per_request = [n](double total) { return total / static_cast<double>(n); };

  sim::SimMetrics bare;
  {
    Tracer::Span span(tracer, "sim.simulate");
    bare = replay(in, nullptr, out).metrics;
  }
  AccessTimes times(n);
  const std::int64_t heap0 = live_heap_bytes();
  Replay traced;
  {
    Tracer::Span span(tracer, "sim.simulate.traced");
    traced = replay(in, &times, out);
  }
  const std::int64_t heap = live_heap_bytes() - heap0;
  const core::LhrCache& lhr = *traced.cache;
  out.check(same_outcome(traced.metrics, bare), "traced replay hits identical to the bare one");
  out.set("core.heap_bytes", static_cast<double>(heap), "bytes");
  out.set("core.metadata_bytes", static_cast<double>(lhr.metadata_bytes()), "bytes");

  std::vector<float> access_ns(times.seconds.size());
  double access_sum_ns = 0.0;
  for (std::size_t i = 0; i < access_ns.size(); ++i) {
    access_ns[i] = static_cast<float>(times.seconds[i] * 1e9);
    access_sum_ns += times.seconds[i] * 1e9;
  }
  tracer.histogram("core.access", access_ns);
  out.set("core.access_ns_p50", quantile(access_ns, 0.50), "ns");
  out.set("core.access_ns_p99", quantile(access_ns, 0.99), "ns");
  out.set("core.access_ms_max", traced.metrics.max_access_seconds * 1e3, "ms");
  out.set("policies.access_ns", per_request(access_sum_ns), "ns");
  out.set("core.train_fg_s", lhr.training_seconds(), "s");
  out.set("core.windows", static_cast<double>(lhr.windows_seen()), "count");
  out.set("ml.fits", static_cast<double>(lhr.trainings()), "count");
  out.set("tracing.overhead_share",
          1.0 - traced.metrics.requests_per_second() / bare.requests_per_second(), "ratio");
  out.note("core.access_ns: " + std::to_string(n) + " access() calls timed by SimObserver");

  // The live model, round-tripped through its public save/load.
  std::unique_ptr<ml::CompiledModel> live;
  if (lhr.model_trained()) {
    std::stringstream model;
    lhr.save_model(model);
    double threshold = 0.0;
    model >> threshold;  // save_model's header line precedes the Gbdt
    ml::Gbdt gbdt;
    gbdt.load(model);
    live = std::make_unique<ml::CompiledModel>(std::move(gbdt));
  }
  out.check(live != nullptr, "LHR trained a model");
  double stage_sum_ns = 0.0;
  measure_common_layers(in, live.get(), tracer, out, stage_sum_ns);
  out.set("core.unattributed_ns",
          per_request(access_sum_ns) - stage_sum_ns - per_request(lhr.training_seconds() * 1e9),
          "ns");

  // The serving layer over this trace, LRU-backed (the server's own cost).
  const WorkloadSpec& lru = *find_workload("serve-lru");
  measure_server_layer(false, lru.reference_rps, in, opt, 0.0, false, tracer, out);
}

}  // namespace

void run_sim(const WorkloadSpec& spec, const Options& opt, Result& out) {
  Tracer tracer(opt.traced);
  Inputs in;
  run_setup(spec, opt, build_for_setup, in);
  if (opt.traced) {
    finish_setups(spec, opt, build_for_setup, in);
    {
      Tracer::Span root(tracer, spec.name);
      run_traced(opt, in, tracer, out);
    }
    tracer.write_json(out_path(spec, opt, "-trace.json"), out);
  } else {
    run_untraced(spec, opt, in, out);
  }
}

}  // namespace perfbench
