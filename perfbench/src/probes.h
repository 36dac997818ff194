#pragma once
// Layer probes for traced runs: short, isolated measurements of one layer
// under the same inputs the workload uses, each wrapped in spans.

#include <cstdint>
#include <memory>

#include "ct/synthesis.h"
#include "engine/engine.h"
#include "obs/metric.h"
#include "harness.h"

namespace perfbench {

/// One base sampler's layers: compiled SamplerEngine construction (the
/// host compile of its kernel), the netlist's gate count, cycles per
/// 64-sample kernel eval with the input words pre-generated (Table 2's
/// measure), and engine ns/sample at 1 and `threads` threads.
struct EngineProbe {
  double kernel_build_ms = 0;
  double ops = 0;
  double cycles_per_64 = 0;
  double ns_per_sample_1t = 0;
  double ns_per_sample = 0;
  /// The 1-thread engine, kept for probes that pull from it.
  std::unique_ptr<cgs::engine::SamplerEngine> engine_1t;
};
EngineProbe probe_engine(std::shared_ptr<const cgs::ct::SynthesizedSampler> synth,
                         int threads, std::uint64_t seed, Tracer& tracer);

/// ChaCha20Source::fill_words cost per 64-bit word.
double probe_chacha_ns_per_word(std::uint64_t seed, Tracer& tracer);

/// Reports store.netlist_{memory,disk,synth}: the registry's netlist
/// lookups split by where the netlist came from.
void report_netlist_cache(const cgs::obs::CacheStats& stats, Result& result);

/// hits / (hits + misses) of a cache; 0 when it was never used.
double hit_ratio(const cgs::obs::CacheStats& stats);

}  // namespace perfbench
