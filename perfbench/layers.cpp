// Per-layer figures every workload measures on its own trace: the cost of
// one call into trace, hazard, ml and policies, timed from outside, and the
// live-heap growth of each layer's state against the size it models.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "core/lhr_cache.hpp"
#include "core/policy_factory.hpp"
#include "hazard/hro.hpp"
#include "ml/features.hpp"
#include "ml/flat_forest.hpp"
#include "ml/gbdt.hpp"
#include "sim/engine.hpp"

namespace perfbench {

namespace {

using namespace lhr;

// Results land here so the timed loops cannot be optimised away.
volatile double g_sink = 0.0;

constexpr int kReps = 3;

/// ns per item of `body`, the median of kReps runs.
template <typename Body>
double ns_per_item(std::size_t items, Body&& body) {
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    const double t0 = now_s();
    body();
    ns.push_back((now_s() - t0) * 1e9 / static_cast<double>(items));
  }
  return median(ns);
}

}  // namespace

void measure_common_layers(const Inputs& in, const ml::CompiledModel* live_model,
                           Tracer& tracer, Result& out, double& stage_sum_ns) {
  const trace::MappedTrace& source = *in.trace;
  const std::span<const trace::Request> requests = source.requests();
  const std::size_t n = requests.size();
  // The training batch LHR would fit: the last max_train_samples requests.
  const core::LhrConfig lhr_defaults;
  const std::size_t batch = std::min(n, lhr_defaults.max_train_samples);
  const std::size_t batch_start = n - batch;

  out.set("gen.trace_s", median(in.gen_runs), "s");
  {
    Tracer::Span span(tracer, "trace.scan");
    const double ns = ns_per_item(n, [&] {
      std::uint64_t acc = 0;
      for (const trace::Request& r : source) acc += r.key ^ r.size;
      g_sink = static_cast<double>(acc);
    });
    out.set("trace.scan_ns", ns, "ns");
  }

  // HRO labels of the batch rows, reused as the fit targets below.
  std::vector<float> labels(batch);
  double classify_ns = 0.0;
  {
    Tracer::Span span(tracer, "hazard.classify");
    hazard::HroConfig cfg;
    cfg.capacity_bytes = in.capacity_bytes;
    cfg.window_unique_bytes_mult = lhr_defaults.window_unique_bytes_mult;
    const std::int64_t heap0 = live_heap_bytes();
    hazard::Hro hro(cfg);
    const double t0 = now_s();
    std::uint64_t hits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const hazard::HroDecision d = hro.classify(requests[i]);
      hits += d.hit;
      if (i >= batch_start) labels[i - batch_start] = d.hit ? 1.0f : 0.0f;
    }
    classify_ns = (now_s() - t0) * 1e9 / static_cast<double>(n);
    g_sink = static_cast<double>(hits);
    out.set("hazard.classify_ns", classify_ns, "ns");
    out.set("hazard.heap_bytes", static_cast<double>(live_heap_bytes() - heap0), "bytes");
    out.set("hazard.model_bytes", static_cast<double>(hro.memory_bytes()), "bytes");
  }

  ml::Dataset rows;
  double extract_ns = 0.0;
  {
    Tracer::Span span(tracer, "ml.extract");
    ml::FeatureExtractor probe(lhr_defaults.features);
    const std::size_t dim = probe.dim();
    rows.n_features = dim;
    rows.values.assign(batch * dim, 0.0f);
    std::vector<float> scratch(dim);
    const std::int64_t heap0 = live_heap_bytes();
    ml::FeatureExtractor extractor(lhr_defaults.features);
    const double t0 = now_s();
    for (std::size_t i = 0; i < n; ++i) {
      float* dst = i >= batch_start ? rows.values.data() + (i - batch_start) * dim
                                    : scratch.data();
      extractor.extract(requests[i], {dst, dim});
      extractor.record(requests[i]);
    }
    extract_ns = (now_s() - t0) * 1e9 / static_cast<double>(n);
    out.set("ml.extract_ns", extract_ns, "ns");
    out.set("ml.features_heap_bytes", static_cast<double>(live_heap_bytes() - heap0),
            "bytes");
    out.set("ml.features_model_bytes", static_cast<double>(extractor.memory_bytes()),
            "bytes");
  }

  ml::Gbdt fitted;
  {
    Tracer::Span span(tracer, "ml.fit");
    std::vector<double> fit_s;
    for (int rep = 0; rep < kReps; ++rep) {
      ml::Gbdt model;
      const double t0 = now_s();
      model.fit(rows, labels, lhr_defaults.gbdt);
      fit_s.push_back(now_s() - t0);
      if (rep == 0) fitted = std::move(model);
    }
    out.set("ml.fit_s", median(fit_s), "s");
    out.note("ml.fit_s: Gbdt::fit on the trace's last " + std::to_string(batch) +
             " requests (features + HRO labels), median of 3 fits");
  }

  double score_ns = 0.0;
  {
    Tracer::Span span(tracer, "ml.score_row");
    const ml::FlatForest own(fitted);
    const ml::FlatForest& forest = live_model != nullptr ? live_model->forest : own;
    score_ns = ns_per_item(batch, [&] {
      double acc = 0.0;
      for (std::size_t i = 0; i < batch; ++i) acc += forest.score_row(rows.row(i));
      g_sink = acc;
    });
    out.set("ml.score_row_ns", score_ns, "ns");
    out.note(std::string("ml.score_row_ns: ") +
             (live_model != nullptr ? "live model of the replay" : "model fitted above") +
             ", " + std::to_string(forest.tree_count()) + " trees, " +
             std::to_string(batch) + " rows x 3");
  }

  {
    Tracer::Span span(tracer, "policies.lru");
    const double ns = ns_per_item(n, [&] {
      const auto lru = core::make_policy("LRU", in.capacity_bytes);
      const sim::SimMetrics m = sim::simulate(*lru, source);
      g_sink = static_cast<double>(m.hits);
    });
    out.set("policies.lru_ns", ns, "ns");
  }

  stage_sum_ns = classify_ns + extract_ns + score_ns;
}

}  // namespace perfbench
