// serve-lru and serve-lhr-drift: a CdnServer over a 64-shard ShardedCache,
// replayed closed-loop (replay_concurrent, kMax) for max_rps and open-loop
// (the replay_open_loop engine, virtual-clock queues per worker) at fixed
// Poisson rates for the sojourn figures and slo_rps.
#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "core/lhr_cache.hpp"
#include "core/policy_factory.hpp"
#include "core/proc_replay.hpp"
#include "server/cdn_server.hpp"
#include "server/sharded_cache.hpp"

namespace perfbench {

namespace {

using namespace lhr;

constexpr std::size_t kShards = 64;
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kWindow = 50'000;
constexpr std::size_t kMinReplays = 5;   ///< closed-loop replays behind max_rps, at least

/// The control-plane cell of bench_control_plane: thresholds calibrated so
/// the drift episodes trigger promotions, rollbacks and the guard.
server::ControlPlaneConfig drift_cell_config() {
  server::ControlPlaneConfig cp;
  cp.enabled = true;
  cp.sample_fraction = 0.5;
  cp.window = 192;
  cp.min_agreement = 0.90;
  cp.max_divergence = 0.045;
  cp.min_hit_delta = -0.02;
  cp.robust_guard = true;
  cp.guard_window = 512;
  cp.guard_divergence = 0.04;
  cp.guard_rearm = 0.02;
  cp.autotune = true;
  cp.p99_budget_ms = 50.0;
  cp.autotune_step = 0.02;
  cp.max_threshold_bias = 0.10;
  cp.latency_window = 4096;
  cp.min_window = 48;
  return cp;
}

/// LHR with synchronous training, retraining every window (detection off, as
/// in bench_control_plane: the drift folds popularity, not the Zipf slope,
/// so alpha-detection alone would never retrain) and the control plane on.
core::LhrConfig drift_lhr_config() {
  core::LhrConfig config;
  config.train_synchronously = true;
  config.enable_detection = false;
  config.control_plane = drift_cell_config();
  return config;
}

std::unique_ptr<server::ShardedCache> make_cache(bool lhr, std::uint64_t capacity) {
  if (lhr) {
    const core::LhrConfig config = drift_lhr_config();
    return std::make_unique<server::ShardedCache>(
        kShards, capacity,
        [config](std::uint64_t cap) { return std::make_unique<core::LhrCache>(cap, config); });
  }
  return std::make_unique<server::ShardedCache>(
      kShards, capacity, [](std::uint64_t cap) { return core::make_policy("LRU", cap); });
}

struct Built {
  std::unique_ptr<server::CdnServer> server;
  server::ShardedCache* cache;  ///< owned by `server`
};

/// The serving stack core::make_job_server builds for a ProcReplayJob (same
/// RAM-tier rule, seed and measured_lookup_cpu = false), so the in-process
/// and process-parallel replays run identical servers.
Built make_server(bool lhr, std::uint64_t capacity) {
  auto cache = make_cache(lhr, capacity);
  server::ShardedCache* raw = cache.get();
  server::ServerConfig cfg;
  cfg.ram_bytes = std::max<std::uint64_t>(capacity / 100, 1ULL << 20);
  cfg.seed = core::ProcReplayJob{}.seed;
  cfg.measured_lookup_cpu = false;
  return {std::make_unique<server::CdnServer>(std::move(cache), cfg), raw};
}

void build_for_setup(const WorkloadSpec& spec, std::uint64_t capacity) {
  (void)make_server(spec.lhr, capacity);
}

/// The integer counters that must not depend on the worker count.
std::string counters(const server::ServerReport& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "requests=%llu hits=%llu bytes=%llu wan=%llu "
                "fetches=%llu stale=%llu failed=%llu ",
                static_cast<unsigned long long>(r.requests),
                static_cast<unsigned long long>(r.hits),
                static_cast<unsigned long long>(r.bytes_served),
                static_cast<unsigned long long>(r.wan_bytes),
                static_cast<unsigned long long>(r.origin_fetches),
                static_cast<unsigned long long>(r.stale_serves),
                static_cast<unsigned long long>(r.failed_requests));
  return buf + r.control_plane.canonical();
}

double rps_of(const server::ServerReport& r) {
  return static_cast<double>(r.requests) / r.replay_wall_seconds;
}

/// One closed-loop kMax replay on a fresh server. With an empty `reference`
/// it is the 1-worker reference run and checks the request count and the
/// absence of 5xx; otherwise it checks its counters against `reference`.
server::ServerReport closed_loop(bool lhr, const Inputs& in, std::size_t workers,
                                 const std::string& reference, Result& out,
                                 Built* keep = nullptr) {
  Built b = make_server(lhr, in.capacity_bytes);
  const server::ServerReport report =
      b.server->replay_concurrent(*in.trace, server::ReplayMode::kMax, workers, kWindow);
  out.add_requests(report.requests, report.failed_requests);
  if (reference.empty()) {
    out.check(report.requests == in.trace->size(),
              "requests equal the trace length (" + std::to_string(in.trace->size()) + ")");
    out.check(report.failed_requests == 0, "no 5xx with the infallible origin");
  } else {
    out.check(counters(report) == reference,
              std::to_string(workers) + "-worker counters equal the 1-worker replay's");
  }
  if (keep != nullptr) *keep = std::move(b);
  return report;
}

struct OpenLoop {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  double service_avg_us = 0.0;
  double queued_share = 0.0;
  std::uint64_t samples = 0;
};

/// One open-loop run at `rps`: the engine replay_open_loop runs
/// (replay_slice with an OpenLoopAccumulator), read through interpolated
/// quantiles of its sojourn histogram.
OpenLoop open_loop(bool lhr, const Inputs& in, double rps, std::uint64_t seed,
                   Result& out) {
  const trace::Trace schedule = poisson_schedule(in.trace->requests(), rps, seed);
  Built b = make_server(lhr, in.capacity_bytes);
  server::CdnServer::OpenLoopAccumulator ol;
  const server::CdnServer::ReplayAccumulator acc =
      b.server->replay_slice(schedule, 0, 1, kWorkers, kWindow, &ol);
  out.add_requests(acc.requests, acc.failures);
  out.check(acc.requests == in.trace->size() && acc.failures == 0,
            "open loop at " + std::to_string(static_cast<long>(rps)) +
                " req/s served every request without a 5xx");
  const auto n = static_cast<double>(acc.requests);
  OpenLoop r;
  r.offered_rps = n / std::max(schedule.duration(), 1e-9);
  r.achieved_rps = n / std::max(ol.last_completion - ol.first_arrival, 1e-9);
  r.p50_ms = histogram_quantile(ol.sojourn, 0.50) * 1e3;
  r.p99_ms = histogram_quantile(ol.sojourn, 0.99) * 1e3;
  r.queue_wait_p99_ms = histogram_quantile(ol.queue_wait, 0.99) * 1e3;
  r.service_avg_us = ol.service_s / n * 1e6;
  r.queued_share = static_cast<double>(ol.queued) / n;
  r.samples = ol.sojourn.count();
  return r;
}

std::uint64_t rate_seed(std::uint64_t seed, double rps) {
  return seed * 0x9E3779B97F4A7C15ULL ^ static_cast<std::uint64_t>(rps);
}

}  // namespace

void measure_server_layer(bool lhr, double reference_rps, const Inputs& in,
                          const Options& opt, double stage_sum_ns, bool workload_policy,
                          Tracer& tracer, Result& out) {
  const std::span<const trace::Request> requests = in.trace->requests();
  const std::size_t n = requests.size();
  const auto per_request = [n](double total) { return total / static_cast<double>(n); };

  server::ServerReport one, three;
  {
    Tracer::Span span(tracer, "server.replay_concurrent.1");
    one = closed_loop(lhr, in, 1, "", out);
  }
  {
    Tracer::Span span(tracer, "server.replay_concurrent.3");
    three = closed_loop(lhr, in, kWorkers, counters(one), out);
  }
  out.set("server.scaling_eff",
          rps_of(three) / (static_cast<double>(kWorkers) * rps_of(one)), "ratio");
  // Measured as is: worker 0's metadata sampler locks shards other workers
  // own, so this is not expected to be 0 at 3 workers.
  out.set("server.lock_contentions", static_cast<double>(three.lock_contentions), "count");
  out.set("server.peak_metadata_bytes", static_cast<double>(three.peak_metadata_bytes),
          "bytes");
  const server::ControlPlaneCounters& cp = three.control_plane.counters;
  out.set("cp.shadow_samples", static_cast<double>(cp.shadow_samples), "count");
  out.set("cp.promotions", static_cast<double>(cp.promotions), "count");
  out.set("cp.rollbacks", static_cast<double>(cp.rollbacks), "count");
  out.set("cp.guard_engagements", static_cast<double>(cp.guard_engagements), "count");
  out.set("cp.guarded_requests", static_cast<double>(cp.guarded_requests), "count");

  {
    Tracer::Span span(tracer, "server.open_loop");
    const OpenLoop ol =
        open_loop(lhr, in, reference_rps, rate_seed(opt.seed, reference_rps), out);
    out.set("server.service_avg_us", ol.service_avg_us, "us");
    out.set("server.queue_wait_p99_ms", ol.queue_wait_p99_ms, "ms");
    out.set("server.queued_share", ol.queued_share, "ratio");
  }

  // CdnServer::serve driven from this loop on one thread, once plain and
  // once with every call timed: the difference is the tracing overhead.
  double plain_rps = 0.0, timed_rps = 0.0, serve_sum_ns = 0.0;
  std::vector<float> serve_ns(n);
  for (const bool timed : {false, true}) {
    Tracer::Span span(tracer, timed ? "server.serve.timed" : "server.serve");
    Built b = make_server(lhr, in.capacity_bytes);
    server::CdnServer::ReplayAccumulator acc;
    const double t0 = now_s();
    if (timed) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto a = std::chrono::steady_clock::now();
        (void)b.server->serve(requests[i], acc);
        const auto ns = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - a)
                            .count();
        serve_ns[i] = static_cast<float>(ns);
        serve_sum_ns += ns;
      }
    } else {
      for (const trace::Request& r : requests) (void)b.server->serve(r, acc);
    }
    (timed ? timed_rps : plain_rps) = static_cast<double>(n) / (now_s() - t0);
    out.add_requests(acc.requests, acc.failures);
    out.check(acc.requests == n && acc.hits == one.hits,
              std::string("single-thread serve() loop") + (timed ? " (timed)" : "") +
                  " reproduces the replay's hits");
  }
  tracer.histogram("server.serve", serve_ns);
  out.set("server.serve_ns_p50", quantile(serve_ns, 0.50), "ns");
  out.set("server.serve_ns_p99", quantile(serve_ns, 0.99), "ns");
  out.note("server.serve_ns: " + std::to_string(n) + " timed serve() calls");

  // ShardedCache::access replayed alone, every call timed, with the live
  // heap it grows to against the metadata it reports.
  std::vector<float> access_ns(n);
  double access_sum_ns = 0.0;
  double train_fg_s = 0.0;
  std::size_t fits = 0, windows = 0;
  {
    Tracer::Span span(tracer, "policies.access");
    const std::int64_t heap0 = live_heap_bytes();
    auto cache = make_cache(lhr, in.capacity_bytes);
    for (std::size_t i = 0; i < n; ++i) {
      const auto a = std::chrono::steady_clock::now();
      (void)cache->access(requests[i]);
      const auto ns =
          std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - a)
              .count();
      access_ns[i] = static_cast<float>(ns);
      access_sum_ns += ns;
    }
    const std::int64_t heap = live_heap_bytes() - heap0;
    for (std::size_t s = 0; s < cache->shard_count(); ++s) {
      if (const auto* l = dynamic_cast<const core::LhrCache*>(&cache->shard_policy(s))) {
        train_fg_s += l->training_seconds();
        fits += l->trainings();
        windows += l->windows_seen();
      }
    }
    if (workload_policy) {
      out.set("core.heap_bytes", static_cast<double>(heap), "bytes");
      out.set("core.metadata_bytes", static_cast<double>(cache->metadata_bytes()), "bytes");
    }
  }
  out.set("server.self_ns", per_request(serve_sum_ns) - per_request(access_sum_ns), "ns");

  if (workload_policy) {
    tracer.histogram("policies.access", access_ns);
    const double access_max_ms = *std::max_element(access_ns.begin(), access_ns.end()) / 1e6;
    out.set("policies.access_ns", per_request(access_sum_ns), "ns");
    out.set("core.access_ns_p50", quantile(access_ns, 0.50), "ns");
    out.set("core.access_ns_p99", quantile(access_ns, 0.99), "ns");
    out.set("core.access_ms_max", access_max_ms, "ms");
    out.set("core.train_fg_s", train_fg_s, "s");
    out.set("core.windows", static_cast<double>(windows), "count");
    out.set("ml.fits", static_cast<double>(fits), "count");
    // LRU runs none of the LHR stages, so all of its access is unattributed.
    const double stages = lhr ? stage_sum_ns + per_request(train_fg_s * 1e9) : 0.0;
    out.set("core.unattributed_ns", per_request(access_sum_ns) - stages, "ns");
    out.set("tracing.overhead_share", 1.0 - timed_rps / plain_rps, "ratio");
    out.note("core.access_ns, policies.access_ns: " + std::to_string(n) +
             " timed ShardedCache::access calls");
  }

  double proc_ratio = 0.0;
  if (!lhr) {
    Tracer::Span span(tracer, "core.run_proc_replay");
    core::ProcReplayJob job;
    job.trace_path = in.path;
    job.policy = "LRU";
    job.capacity_bytes = in.capacity_bytes;
    job.shards = kShards;
    job.procs = kWorkers;
    job.threads = 1;
    job.mode = server::ReplayMode::kMax;
    job.window_requests = kWindow;
    const server::ServerReport procs = core::run_proc_replay(job);
    out.add_requests(procs.requests, procs.failed_requests);
    out.check(counters(procs) == counters(one),
              "3-process counters equal the 1-worker replay's");
    proc_ratio = rps_of(procs) / rps_of(three);
  } else {
    out.note("server.proc_rps_ratio: not measured with LHR shards (the control-plane "
             "LHR config has no ProcReplayJob spelling), reported as 0");
  }
  out.set("server.proc_rps_ratio", proc_ratio, "ratio");
}

void run_serve(const WorkloadSpec& spec, const Options& opt, Result& out) {
  Tracer tracer(opt.traced);
  Inputs in;
  run_setup(spec, opt, build_for_setup, in);

  if (opt.traced) {
    finish_setups(spec, opt, build_for_setup, in);
    {
      Tracer::Span root(tracer, spec.name);
      double stage_sum_ns = 0.0;
      measure_common_layers(in, nullptr, tracer, out, stage_sum_ns);
      measure_server_layer(spec.lhr, spec.reference_rps, in, opt, stage_sum_ns, true,
                           tracer, out);
    }
    tracer.write_json(out_path(spec, opt, "-trace.json"), out);
  } else {
    const double start = now_s();
    // 1-worker reference: the counters every 3-worker replay must reproduce.
    const server::ServerReport ref = closed_loop(spec.lhr, in, 1, "", out);
    const std::string reference = counters(ref);

    // Every round runs the reference rate open-loop, on the same Poisson
    // schedule each time, and one closed-loop replay, so a burst of outside
    // load lands on a few runs of each, not on all runs of one. The other
    // rates only decide slo_rps, far from their limits, so each runs once,
    // one per round from the first.
    std::vector<std::vector<OpenLoop>> runs(spec.rates.size());
    std::size_t ref_rate = 0;
    std::vector<std::size_t> others;
    for (std::size_t k = 0; k < spec.rates.size(); ++k) {
      if (spec.rates[k] == spec.reference_rps) {
        ref_rate = k;
      } else {
        others.push_back(k);
      }
    }
    std::vector<double> rps;
    for (std::size_t round = 0;; ++round) {
      const double round_start = now_s();
      std::vector<std::size_t> rates{ref_rate};
      if (round < others.size()) rates.push_back(others[round]);
      for (const std::size_t k : rates) {
        runs[k].push_back(open_loop(spec.lhr, in, spec.rates[k],
                                    rate_seed(opt.seed, spec.rates[k]), out));
      }
      rps.push_back(rps_of(closed_loop(spec.lhr, in, kWorkers, reference, out)));
      if (in.setup_runs.size() < static_cast<std::size_t>(spec.setup_reps)) {
        run_setup(spec, opt, build_for_setup, in);
      }
      if (round + 1 >= others.size() && rps.size() >= kMinReplays &&
          round_ends_past(start, round_start, opt.seconds)) {
        break;
      }
    }
    finish_setups(spec, opt, build_for_setup, in);

    double slo = 0.0, p50 = 0.0, p99 = 0.0;
    for (std::size_t k = 0; k < spec.rates.size(); ++k) {
      std::vector<double> share, q50, q99;
      for (const OpenLoop& ol : runs[k]) {
        share.push_back(ol.achieved_rps / ol.offered_rps);
        q50.push_back(ol.p50_ms);
        q99.push_back(ol.p99_ms);
      }
      const double rate = spec.rates[k];
      if (fast_time(q99) <= spec.p99_limit_ms && fast_rate(share) >= 0.95) slo = rate;
      if (k == ref_rate) {
        p50 = fast_time(q50);
        p99 = fast_time(q99);
      }
      char buf[224];
      std::snprintf(buf, sizeof(buf),
                    "open loop offered %.0f req/s (fast quartile of %zu runs): achieved %.4f x "
                    "offered, p50 %.4f ms, p99 %.4f ms over %llu sojourn samples each",
                    rate, q99.size(), fast_rate(share), fast_time(q50), fast_time(q99),
                    static_cast<unsigned long long>(runs[k].front().samples));
      out.note(buf);
      if (k == ref_rate) {
        out.note("  p50 per run [" + join(q50) + "] ms");
        out.note("  p99 per run [" + join(q99) + "] ms");
      }
    }

    out.set("setup_s", median(in.setup_runs), "s");
    out.set("max_rps", fast_rate(rps), "1/s");
    out.set("slo_rps", slo, "1/s");
    out.set("sojourn_p50_ms", p50, "ms");
    out.set("sojourn_p99_ms", p99, "ms");
    out.set("hit_ratio", ref.content_hit_pct / 100.0, "ratio");
    out.set("byte_hit_ratio", ref.byte_hit_ratio(), "ratio");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    out.note("max_rps: 75th percentile of replay_concurrent(kMax, 3) runs [" + join(rps) + "]");
    out.note("setup_s: median of set-ups [" + join(in.setup_runs) + "]");
  }
}

}  // namespace perfbench
