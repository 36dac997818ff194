// perfbench: the repository's benchmark binary. Runs one workload
// for a fixed time from a seed and prints one JSON result line.
//
//   perfbench --workload sign_batch|gauss_bulk|wire_mixed --seed N
//             --seconds S --trace 0|1 [--wire-rate R] [--work-dir DIR]
//
// Normally started by perfbench/run.py, which builds it, points the
// sampler cache at a private directory and validates the output.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "harness.h"

namespace {

using namespace perfbench;

enum : unsigned { kSign = 1, kGauss = 2, kWire = 4, kAll = 7 };

/// Every per-layer metric, its unit, and the workloads whose path runs
/// through that layer. A traced run of a workload off that path reports 0
/// ("not on this workload's path"); on the path the workload must have
/// measured it.
struct LayerMetric {
  const char* name;
  const char* unit;
  unsigned on_path;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"ct.ops_sigma2", "count", kSign | kGauss},
    {"ct.cycles_per_64_sigma2", "cycles", kSign | kGauss},
    {"ct.cycles_per_64_sigma6", "cycles", kGauss},
    {"engine.ns_per_sample_1t", "ns", kSign | kGauss},
    {"engine.ns_per_sample", "ns", kSign | kGauss},
    {"engine.service_ns_per_sample", "ns", kGauss},
    {"engine.kernel_build_ms", "ms", kSign | kGauss},
    {"engine.registry_load_ms", "ms", kAll},
    {"prng.chacha_ns_per_word", "ns", kSign | kGauss},
    {"falcon.hash_to_point_us", "us", kSign},
    {"falcon.ffsampling_us", "us", kSign},
    {"falcon.fft_us", "us", kSign},
    {"falcon.compress_us", "us", kSign},
    {"falcon.samplerz_ns", "ns", kSign},
    {"falcon.samplerz_accept_ratio", "ratio", kSign},
    {"falcon.base_samples_per_sig", "count", kSign},
    {"falcon.attempts_per_sig", "count", kSign},
    {"falcon.verify_us", "us", kSign},
    {"falcon.keygen_ms", "ms", kSign | kWire},
    {"falcon.tree_build_ms", "ms", kSign},
    {"store.tree_hit_ratio", "ratio", kSign | kWire},
    {"store.ntt_key_hit_ratio", "ratio", kSign | kWire},
    {"store.netlist_memory", "count", kAll},
    {"store.netlist_disk", "count", kAll},
    {"store.netlist_synth", "count", kAll},
    {"serve.submit_us", "us", kWire},
    {"serve.sign_us", "us", kWire},
    {"serve.verify_us", "us", kWire},
    {"serve.sign_occupancy", "count", kWire},
    {"serve.verify_occupancy", "count", kWire},
    {"serve.rejects", "count", kWire},
    {"serve.expired", "count", kWire},
    {"serve.inversions", "count", kWire},
    {"router.admit_us", "us", kWire},
    {"net.rtt_us", "us", kWire},
    {"net.overhead_us", "us", kWire},
    {"net.frames_per_s", "1/s", kWire},
    {"net.req_bytes", "bytes", kWire},
    {"net.resp_bytes", "bytes", kWire},
    {"net.overloaded", "count", kWire},
    {"harness.gen_lag_ms", "ms", kWire},
    {"harness.trace_overhead", "ratio", kAll},
    {"harness.sign_reconcile", "ratio", kSign},
    {"harness.wire_reconcile", "ratio", kWire},
};

/// The end-to-end metrics every workload reports (meaning per workload in
/// perfbench/README.md).
constexpr LayerMetric kEndToEnd[] = {
    {"setup_s", "s", kAll},
    {"throughput_per_s", "1/s", kAll},
    {"p50_ms", "ms", kAll},
    {"p90_ms", "ms", kAll},
    {"peak_rss_mb", "MiB", kAll},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sign_batch|gauss_bulk|wire_mixed --seed N --seconds S "
               "--trace 0|1 [--wire-rate R] [--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) opt.workload = value;
    else if (std::strcmp(flag, "--seed") == 0) opt.seed = std::strtoull(value, nullptr, 10);
    else if (std::strcmp(flag, "--seconds") == 0) opt.seconds = std::atof(value);
    else if (std::strcmp(flag, "--trace") == 0) opt.trace = std::atoi(value) != 0;
    else if (std::strcmp(flag, "--wire-rate") == 0) opt.wire_rate = std::atof(value);
    else if (std::strcmp(flag, "--work-dir") == 0) opt.work_dir = value;
    else return usage("unknown flag");
  }
  if (!(opt.seconds > 0)) return usage("bad --seconds");

  unsigned mask = 0;
  Result result;
  try {
    if (opt.workload == "sign_batch") {
      mask = kSign;
      result = run_sign_batch(opt);
    } else if (opt.workload == "gauss_bulk") {
      mask = kGauss;
      result = run_gauss_bulk(opt);
    } else if (opt.workload == "wire_mixed") {
      if (!(opt.wire_rate > 0)) return usage("wire_mixed needs --wire-rate");
      mask = kWire;
      result = run_wire_mixed(opt);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  // Every metric of this run's kind must be present; layers off the
  // workload's path read 0.
  bool complete = true;
  auto require = [&](const LayerMetric& m) {
    if (result.metrics.count(m.name)) return;
    if (m.on_path & mask) {
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   opt.workload.c_str(), m.name);
      complete = false;
    } else {
      result.metric(m.name, 0.0, m.unit);
    }
  };
  if (opt.trace) {
    for (const LayerMetric& m : kLayerMetrics) require(m);
    for (const LayerMetric& m : kEndToEnd) result.metrics.erase(m.name);
  } else {
    for (const LayerMetric& m : kEndToEnd) require(m);
    for (const LayerMetric& m : kLayerMetrics) result.metrics.erase(m.name);
  }
  result.detail["nproc"] = static_cast<double>(std::thread::hardware_concurrency());
  if (!complete) return 1;

  std::printf("%s\n", result.to_json().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
