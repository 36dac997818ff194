// gauss_bulk: closed-loop, in-process arbitrary-(sigma, c) bulk sampling.
// One client thread calls GaussianService::sample with fixed-size
// requests, round-robin over four seeded targets from sigma ~1.6 to ~25
// (strides k = 1..4 over two shared base samplers). The first requests of
// each target are kept and, outside the timed regions, must pass the
// chi-square and Renyi acceptance test against D_{sigma', c}.

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/registry.h"
#include "engine/service.h"
#include "gauss/probmatrix.h"
#include "harness.h"
#include "inputs.h"
#include "probes.h"
#include "stats/acceptance.h"

namespace perfbench {

namespace {

using namespace cgs;

constexpr std::size_t kRequest = 1u << 16;  // samples per request
constexpr std::size_t kKeptPerTarget = 4;   // requests kept for acceptance
constexpr int kBasePrecision = 64;
/// False-alarm rate of one chi-square check on a correct sampler. A run
/// makes four checks and a comparison of two commits a few hundred runs,
/// so the library's default 1e-4 would fail a correct sampler now and
/// then.
constexpr double kMinChiP = 1e-6;

struct Target {
  double sigma = 0, center = 0;
  gauss::ConvolutionRecipe recipe;
};

/// Seeded targets, one per sigma band. Each band sits inside the reach of
/// one of the two shared bases (sigma_0 = 2 at stride 1, sigma_0 =
/// 6.15543 at strides 1, 2 and 3-4), so set-up compiles two kernels.
std::vector<Target> make_targets(std::uint64_t seed) {
  static constexpr double kBands[][2] = {
      {1.6, 2.7}, {7.0, 8.6}, {11.0, 13.6}, {18.0, 25.0}};
  prng::SplitMix64Source rng(derive_seed(seed, 0x7A));
  std::vector<Target> targets;
  for (const auto& band : kBands) {
    Target t;
    t.sigma = band[0] + (band[1] - band[0]) * uniform01(rng);
    t.center = (uniform01(rng) - 0.5) * 80.0;
    targets.push_back(t);
  }
  return targets;
}

struct Stack {
  // First member, so it is destroyed last: everything below points into it.
  std::unique_ptr<engine::SamplerRegistry> registry;
  std::unique_ptr<engine::GaussianService> service;
};

Stack build_stack(const Budget& budget, std::uint64_t seed,
                  const std::vector<Target>& targets) {
  Stack s;
  s.registry = std::make_unique<engine::SamplerRegistry>();
  engine::ServiceOptions so;
  so.num_threads = budget.engine_threads;
  so.root_seed = seed;
  so.base_precision = kBasePrecision;
  s.service = std::make_unique<engine::GaussianService>(*s.registry, so);
  // First request per target: recipe, base sampler, engines, kernel.
  for (const Target& t : targets) (void)s.service->sample(t.sigma, t.center, 1024);
  return s;
}

struct LoopStats {
  std::vector<double> request_ms;
  std::vector<Op> ops;  // work = samples
  std::vector<std::vector<double>> per_target_ns;  // ns/sample per request
  std::vector<std::vector<std::int32_t>> kept;      // acceptance subsample
  double busy_s = 0;
  std::uint64_t samples = 0;
};

void run_loop(Stack& stack, const std::vector<Target>& targets,
              std::size_t first, double seconds, Tracer& tracer,
              LoopStats& out) {
  out.per_target_ns.resize(targets.size());
  out.kept.resize(targets.size());
  std::vector<std::int32_t> buf(kRequest);
  const auto start = Clock::now();
  for (std::size_t r = 0; seconds_since(start) < seconds; ++r) {
    const std::size_t ti = (first + r) % targets.size();
    const Target& t = targets[ti];
    const auto t0 = Clock::now();
    {
      Scope s(tracer, "engine.service_sample", -1, r);
      stack.service->sample(t.sigma, t.center, buf);
    }
    const double ms = ms_between(t0, Clock::now());
    out.request_ms.push_back(ms);
    out.ops.push_back({ms_between(start, t0) / 1e3, static_cast<double>(kRequest), ms / 1e3});
    out.per_target_ns[ti].push_back(ms * 1e6 / kRequest);
    out.busy_s += ms / 1e3;
    out.samples += kRequest;
    auto& keep = out.kept[ti];
    if (keep.size() < kKeptPerTarget * kRequest)
      keep.insert(keep.end(), buf.begin(), buf.end());
  }
}

}  // namespace

Result run_gauss_bulk(const Options& opt) {
  Result result;
  const Budget budget;
  Tracer tracer(opt.trace);

  // Inputs and the untimed pass that fills the private netlist cache.
  std::vector<Target> targets = make_targets(opt.seed);
  {
    engine::SamplerRegistry registry;
    for (Target& t : targets) {
      t.recipe = registry.get_recipe(t.sigma, t.center,
                                     gauss::kDefaultSmoothingEps, kBasePrecision);
      const double base = t.recipe.base.sigma();
      if (std::fabs(base - 2.0) > 1e-3 && std::fabs(base - 6.15543) > 1e-3)
        throw std::runtime_error("target planned onto an unexpected base");
      (void)registry.get(t.recipe.base);
    }
  }
  const std::size_t first = derive_seed(opt.seed, 0x7B) % targets.size();

  std::vector<double> setup_s;
  std::optional<Stack> built;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    built.reset();  // ~Stack: services go before the registry they use
    const auto t0 = Clock::now();
    built.emplace(build_stack(budget, derive_seed(opt.seed, 3), targets));
    setup_s.push_back(seconds_since(t0));
  }
  Stack& stack = *built;

  LoopStats loop;
  if (!opt.trace) {
    run_loop(stack, targets, first, opt.seconds, tracer, loop);
  } else {
    Tracer off(false);
    LoopStats plain;
    run_loop(stack, targets, first, opt.seconds / 2, off, plain);
    run_loop(stack, targets, first, opt.seconds / 2, tracer, loop);
    result.metric("harness.trace_overhead",
                  (loop.busy_s / static_cast<double>(loop.samples)) /
                      (plain.busy_s / static_cast<double>(plain.samples)),
                  "ratio");
  }

  // Acceptance per target, outside the timed regions.
  stats::AcceptanceBounds bounds;
  bounds.min_chi_p = kMinChiP;
  bool accepted = true;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    result.attempted += 1;
    if (loop.kept[i].empty()) {
      result.fail("target " + std::to_string(i) + " was never sampled");
      ++result.failed;
      accepted = false;
      continue;
    }
    const gauss::ProbMatrix matrix(targets[i].recipe.base);
    const auto acc = stats::accept_convolution(loop.kept[i], matrix,
                                               targets[i].recipe, bounds);
    result.detail["target" + std::to_string(i) + "_sigma"] = targets[i].sigma;
    result.detail["target" + std::to_string(i) + "_chi_p"] = acc.chi.p_value;
    if (!acc.accepted()) {
      result.fail("target " + std::to_string(i) + " failed acceptance: " +
                  acc.describe());
      ++result.failed;
      accepted = false;
    }
  }
  // Requests count as attempted operations; a failed target fails them all.
  result.attempted += loop.request_ms.size();
  if (!accepted) result.failed += loop.request_ms.size();

  const Summary req = summarize(loop.request_ms);
  const double samples_per_s =
      accepted ? windowed_rate(loop.ops) : 0.0;
  result.metric("setup_s", median(setup_s), "s");
  result.metric("throughput_per_s", samples_per_s, "1/s");
  result.metric("p50_ms", windowed_quantile_ms(loop.ops, 0.5), "ms");
  result.metric("p90_ms", windowed_quantile_ms(loop.ops, 0.90), "ms");
  result.detail["request_p50_ms"] = req.p50;
  result.detail["request_p95_ms"] = quantile(loop.request_ms, 0.95);
  result.detail["request_tail_ms"] = req.tail;
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");

  result.detail["samples_per_s"] = samples_per_s;
  result.detail["request_samples"] = kRequest;
  result.detail["request_count"] = static_cast<double>(req.count);
  result.detail["request_tail_pct"] = req.tail_pct;
  result.detail["engine_threads"] = budget.engine_threads;
  result.detail["load_threads"] = 1;
  for (std::size_t i = 0; i < setup_s.size(); ++i)
    result.detail["setup_s_rep" + std::to_string(i)] = setup_s[i];

  if (opt.trace) {
    double service_ns = 0;
    for (const auto& v : loop.per_target_ns) service_ns += median(v);
    result.metric("engine.service_ns_per_sample",
                  service_ns / static_cast<double>(targets.size()), "ns");

    engine::SamplerRegistry registry;
    const auto load_t0 = Clock::now();
    const auto synth2 = registry.get(gauss::GaussianParams::sigma_2(kBasePrecision));
    const auto synth6 = registry.get(gauss::GaussianParams::sigma_6_15543(kBasePrecision));
    result.metric("engine.registry_load_ms", ms_between(load_t0, Clock::now()), "ms");
    const EngineProbe p2 = probe_engine(synth2, budget.engine_threads,
                                        derive_seed(opt.seed, 4), tracer);
    const EngineProbe p6 = probe_engine(synth6, budget.engine_threads,
                                        derive_seed(opt.seed, 5), tracer);
    result.metric("engine.kernel_build_ms", p2.kernel_build_ms + p6.kernel_build_ms, "ms");
    result.metric("ct.ops_sigma2", p2.ops, "count");
    result.metric("ct.cycles_per_64_sigma2", p2.cycles_per_64, "cycles");
    result.metric("ct.cycles_per_64_sigma6", p6.cycles_per_64, "cycles");
    result.metric("engine.ns_per_sample_1t", p2.ns_per_sample_1t, "ns");
    result.metric("engine.ns_per_sample", p2.ns_per_sample, "ns");
    result.metric("prng.chacha_ns_per_word",
                  probe_chacha_ns_per_word(derive_seed(opt.seed, 6), tracer), "ns");
    report_netlist_cache(stack.registry->netlist_cache_stats(), result);
    tracer.write(opt.work_dir + "/spans-gauss_bulk");
  }
  return result;
}

}  // namespace perfbench
