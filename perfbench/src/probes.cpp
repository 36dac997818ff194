#include "probes.h"

#include <stdexcept>
#include <vector>

#include "common/cycles.h"
#include "ct/compiled_sampler.h"
#include "prng/chacha20.h"
#include "prng/splitmix.h"

namespace perfbench {

namespace {

/// ns per sample of engine.sample() over ~0.3 s of 2^18-sample requests.
double engine_ns_per_sample(cgs::engine::SamplerEngine& engine,
                            Tracer& tracer) {
  std::vector<std::int32_t> buf(1u << 18);
  engine.sample(buf);  // first touch of the workers' buffers
  std::size_t samples = 0;
  const auto t0 = Clock::now();
  do {
    Scope s(tracer, "engine.sample");
    engine.sample(buf);
    samples += buf.size();
  } while (seconds_since(t0) < 0.3);
  return seconds_since(t0) * 1e9 / static_cast<double>(samples);
}

}  // namespace

EngineProbe probe_engine(std::shared_ptr<const cgs::ct::SynthesizedSampler> synth,
                         int threads, std::uint64_t seed, Tracer& tracer) {
  EngineProbe p;
  p.ops = static_cast<double>(synth->netlist.op_count());

  cgs::engine::EngineOptions one;
  one.backend = cgs::engine::Backend::kCompiled;
  one.num_threads = 1;
  one.root_seed = seed;
  {
    Scope s(tracer, "engine.kernel_build");
    const auto t0 = Clock::now();
    p.engine_1t = std::make_unique<cgs::engine::SamplerEngine>(synth, one);
    p.kernel_build_ms = ms_between(t0, Clock::now());
  }
  const auto kernel = p.engine_1t->kernel();
  if (!kernel) throw std::runtime_error("compiled backend has no kernel");

  // Table 2: cycles for one 64-lane kernel eval, input words generated
  // outside the timed region.
  {
    Scope s(tracer, "ct.eval");
    cgs::prng::SplitMix64Source rng(seed);
    std::vector<std::uint64_t> in(kernel->num_inputs() * 64);
    for (auto& w : in) w = rng.next_word();
    std::vector<std::uint64_t> out(kernel->num_outputs());
    std::vector<double> cycles;
    const std::size_t n_in = kernel->num_inputs();
    for (int rep = 0; rep < 2050; ++rep) {
      const std::span<const std::uint64_t> words(
          in.data() + static_cast<std::size_t>(rep % 64) * n_in, n_in);
      const std::uint64_t c0 = cgs::cycles_begin();
      kernel->eval(words, out);
      const std::uint64_t c1 = cgs::cycles_end();
      if (rep >= 50) cycles.push_back(static_cast<double>(c1 - c0));
    }
    p.cycles_per_64 = median(std::move(cycles));
  }

  p.ns_per_sample_1t = engine_ns_per_sample(*p.engine_1t, tracer);
  cgs::engine::EngineOptions many = one;
  many.num_threads = threads;
  many.shared_kernel = kernel;
  cgs::engine::SamplerEngine wide(synth, many);
  p.ns_per_sample = engine_ns_per_sample(wide, tracer);
  return p;
}

double probe_chacha_ns_per_word(std::uint64_t seed, Tracer& tracer) {
  cgs::prng::ChaCha20Source src(seed);
  std::vector<std::uint64_t> buf(4096);
  std::size_t words = 0;
  const auto t0 = Clock::now();
  do {
    Scope s(tracer, "prng.fill_words");
    src.fill_words(buf);
    words += buf.size();
  } while (seconds_since(t0) < 0.2);
  return seconds_since(t0) * 1e9 / static_cast<double>(words);
}

void report_netlist_cache(const cgs::obs::CacheStats& stats, Result& result) {
  result.metric("store.netlist_memory", static_cast<double>(stats.hits), "count");
  result.metric("store.netlist_disk", static_cast<double>(stats.warm_starts), "count");
  result.metric("store.netlist_synth",
                static_cast<double>(stats.misses - stats.warm_starts), "count");
}

double hit_ratio(const cgs::obs::CacheStats& stats) {
  const std::uint64_t total = stats.hits + stats.misses;
  return total ? static_cast<double>(stats.hits) / static_cast<double>(total) : 0.0;
}

}  // namespace perfbench
