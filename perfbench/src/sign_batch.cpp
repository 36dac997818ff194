// sign_batch: closed-loop, in-process Falcon-512 batch signing (Table 1's
// application). Each iteration signs 64 seeded messages with
// SigningService::sign_many under the next tenant key (round-robin), then
// verifies the batch with VerificationService::verify_many, a seeded
// eighth of it with the message tampered. Every signature is checked
// again, outside the timed regions, by an independent scalar Verifier.

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/block_source.h"
#include "engine/registry.h"
#include "falcon/codec.h"
#include "falcon/fft.h"
#include "falcon/ffsampling.h"
#include "falcon/hash_to_point.h"
#include "falcon/ntt.h"
#include "falcon/samplerz.h"
#include "falcon/signing_service.h"
#include "falcon/verification_service.h"
#include "falcon/verify.h"
#include "harness.h"
#include "inputs.h"
#include "probes.h"

namespace perfbench {

namespace {

using namespace cgs;

constexpr std::size_t kDegree = 512;
constexpr std::size_t kTenants = 4;
constexpr std::size_t kBatch = 64;
constexpr std::uint64_t kTamperOneIn = 8;
/// The traced run's per-signature stage sum must land within this share
/// of the single-worker time per signature (see perfbench/README.md).
constexpr double kReconcileTolerance = 0.25;
/// Traced-run probe: rounds of kBatch single-worker signs, each followed by
/// kProbeReps repetitions of every sign stage.
constexpr int kProbeRounds = 8;
constexpr int kProbeReps = 50;

/// Everything set-up builds: the state a restarted signing process holds
/// before its first request.
struct Stack {
  // First member, so it is destroyed last: everything below points into it.
  std::unique_ptr<engine::SamplerRegistry> registry;
  std::unique_ptr<falcon::SigningService> signer;
  std::unique_ptr<falcon::VerificationService> verifier;
};

Stack build_stack(const Budget& budget, std::uint64_t seed,
                  const Keys& keys) {
  Stack s;
  s.registry = std::make_unique<engine::SamplerRegistry>();
  falcon::SigningOptions so;
  so.num_threads = budget.signing_workers;
  so.root_seed = seed;
  s.signer = std::make_unique<falcon::SigningService>(*s.registry, so);
  falcon::VerificationOptions vo;
  vo.num_threads = budget.verify_threads;
  s.verifier = std::make_unique<falcon::VerificationService>(vo);
  // First tree build and NTT-key transform per tenant.
  for (const auto& kp : keys.pairs) {
    const std::string_view warm[] = {"warm-up"};
    const auto sigs = s.signer->sign_many(kp, warm);
    const auto ok = s.verifier->verify_many(kp.h, kp.params, warm, sigs);
    if (ok.size() != 1 || ok[0] != 1)
      throw std::runtime_error("set-up signature did not verify");
  }
  return s;
}

struct LoopStats {
  std::vector<double> sign_ms, verify_ms;
  // One per iteration (sign_many + verify_many); work = messages whose
  // signature verified and whose verdict was right.
  std::vector<Op> iter_ops;
  double sign_time_s = 0, verify_time_s = 0;
  std::uint64_t signatures = 0, verdicts = 0;
  falcon::SignStats sign_stats;
};

/// The measured closed loop, for `seconds` of wall time.
void run_loop(Stack& stack, const Keys& keys,
              const std::vector<falcon::Verifier>& scalar,
              prng::SplitMix64Source& rng, double seconds, Tracer& tracer,
              Result& result, LoopStats& out) {
  std::vector<std::string> msgs(kBatch), vmsgs(kBatch);
  std::vector<std::string_view> views(kBatch), vviews(kBatch);
  std::vector<bool> tampered(kBatch);
  const auto start = Clock::now();
  for (std::size_t b = 0; seconds_since(start) < seconds; ++b) {
    const falcon::KeyPair& kp = keys.pairs[b % keys.pairs.size()];
    const falcon::Verifier& check = scalar[b % keys.pairs.size()];
    for (std::size_t i = 0; i < kBatch; ++i) {
      msgs[i] = make_message(rng);
      views[i] = msgs[i];
      tampered[i] = rng.next_word() % kTamperOneIn == 0;
      vmsgs[i] = tampered[i] ? tamper(msgs[i], rng) : msgs[i];
      vviews[i] = vmsgs[i];
    }

    const auto t0 = Clock::now();
    std::vector<falcon::Signature> sigs;
    {
      Scope s(tracer, "falcon.sign_many", -1, b);
      sigs = stack.signer->sign_many(kp, views, &out.sign_stats);
    }
    const auto t1 = Clock::now();
    std::vector<std::uint8_t> verdict;
    {
      Scope s(tracer, "falcon.verify_many", -1, b);
      verdict = stack.verifier->verify_many(kp.h, kp.params, vviews, sigs);
    }
    const auto t2 = Clock::now();
    out.sign_ms.push_back(ms_between(t0, t1));
    out.verify_ms.push_back(ms_between(t1, t2));
    out.sign_time_s += ms_between(t0, t1) / 1e3;
    out.verify_time_s += ms_between(t1, t2) / 1e3;

    // Correctness, outside the timed regions.
    result.attempted += 2 * kBatch;
    if (sigs.size() != kBatch || verdict.size() != kBatch) {
      result.fail("batch came back short");
      result.failed += 2 * kBatch;
      continue;
    }
    out.signatures += kBatch;
    out.verdicts += kBatch;
    std::size_t good_in_batch = 0;
    for (std::size_t i = 0; i < kBatch; ++i) {
      bool good = check.verify(msgs[i], sigs[i]);
      if (!good) {
        result.fail("signature rejected by the scalar verifier");
        ++result.failed;
      }
      if ((verdict[i] == 1) == tampered[i]) {
        result.fail(tampered[i] ? "tampered message accepted"
                                : "valid signature rejected by verify_many");
        ++result.failed;
        good = false;
      }
      good_in_batch += good;
    }
    out.iter_ops.push_back({ms_between(start, t0) / 1e3, static_cast<double>(good_in_batch),
                            ms_between(t0, t2) / 1e3});
  }
}

/// Per-signature stage costs under one key, for the traced run: each
/// stage of sign_with timed on its own through the public falcon API.
/// Measured in rounds interleaved with single-worker signing, so both
/// sides of harness.sign_reconcile see the same host conditions; each
/// stage reports the median over every repetition of every round.
class StageProbe {
 public:
  StageProbe(const falcon::KeyPair& kp, engine::SamplerEngine& engine_1t,
             std::uint64_t seed, Tracer& tracer)
      : rng_(derive_seed(seed, 0x5747)),
        source_(engine_1t, derive_seed(seed, 0x5A)),
        sz_(source_, 2.0),
        tracer_(tracer),
        t0v_(kDegree),
        t1v_(kDegree) {
    Scope s(tracer_, "falcon.tree_build");
    const auto t0 = Clock::now();
    tree_ = std::make_unique<falcon::FalconTree>(kp);
    tree_build_ms = ms_between(t0, Clock::now());
    scratch_.prepare(kDegree);
  }

  /// One round of `reps` repetitions of every stage; `sigs` feed the
  /// compression stage.
  void round(int reps, const std::vector<falcon::Signature>& sigs) {
    std::array<std::uint8_t, 40> nonce{};
    std::vector<std::uint32_t> c;
    for (int r = 0; r < reps; ++r) {
      for (auto& b : nonce) b = static_cast<std::uint8_t>(rng_.next_word());
      const std::string m = make_message(rng_);
      Scope s(tracer_, "falcon.hash_to_point");
      const auto t0 = Clock::now();
      c = falcon::hash_to_point(nonce, m, kDegree);
      hash_.push_back(ms_between(t0, Clock::now()) * 1e3);
    }

    // Once per signature: the targets t = (c, 0) B^-1, in the FFT domain.
    const std::vector<double> c_real(c.begin(), c.end());
    const double inv_q = 1.0 / static_cast<double>(falcon::kQ);
    for (int r = 0; r < reps; ++r) {
      Scope s(tracer_, "falcon.targets");
      const auto t0 = Clock::now();
      const falcon::CVec c_fft = falcon::fft(c_real);
      for (std::size_t k = 0; k < kDegree; ++k) {
        t0v_[k] = falcon::cmul(c_fft[k], tree_->b11()[k]) * inv_q;
        t1v_[k] = -falcon::cmul(c_fft[k], tree_->b01()[k]) * inv_q;
      }
      targets_.push_back(ms_between(t0, Clock::now()) * 1e3);
    }

    for (int r = 0; r < reps; ++r) {
      Scope s(tracer_, "falcon.ffsampling");
      const auto t0 = Clock::now();
      falcon::ff_sampling_fft(t0v_, t1v_, *tree_, sz_, scratch_);
      ff_.push_back(ms_between(t0, Clock::now()) * 1e3);
    }

    // Once per attempt: s = (t - z) B, the Parseval norm of s0, s1 back to
    // integer coefficients and its norm.
    falcon::CVec s0f(kDegree), s1f(kDegree);
    for (int r = 0; r < reps; ++r) {
      Scope s(tracer_, "falcon.combine");
      const auto t0 = Clock::now();
      double energy = 0;
      for (std::size_t k = 0; k < kDegree; ++k) {
        const falcon::cplx d0 = t0v_[k] - scratch_.z0[k];
        const falcon::cplx d1 = t1v_[k] - scratch_.z1[k];
        s0f[k] = falcon::cmul(d0, tree_->b00()[k]) + falcon::cmul(d1, tree_->b10()[k]);
        s1f[k] = falcon::cmul(d0, tree_->b01()[k]) + falcon::cmul(d1, tree_->b11()[k]);
        energy += std::norm(s0f[k]);
      }
      const std::vector<double> s1r = falcon::ifft(s1f);
      falcon::IPoly s1(kDegree);
      for (std::size_t k = 0; k < kDegree; ++k)
        s1[k] = static_cast<std::int32_t>(std::nearbyint(s1r[k]));
      energy += static_cast<double>(falcon::norm_sq(s1));
      combine_.push_back(ms_between(t0, Clock::now()) * 1e3);
      if (!(energy > 0)) throw std::runtime_error("zero-norm signature vector");
    }

    // SamplerZ alone, at leaf widths and centers like ffSampling's.
    {
      constexpr std::size_t kCalls = 1u << 16;
      std::vector<double> centers(kCalls), sigmas(kCalls);
      const double lo = tree_->min_leaf_sigma(), hi = tree_->max_leaf_sigma();
      for (std::size_t i = 0; i < kCalls; ++i) {
        centers[i] = (uniform01(rng_) - 0.5) * 200.0;
        sigmas[i] = lo + (hi - lo) * uniform01(rng_);
      }
      Scope s(tracer_, "falcon.samplerz");
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kCalls; ++i)
        (void)sz_.sample(centers[i], sigmas[i], 1.0 / (2.0 * sigmas[i] * sigmas[i]));
      samplerz_.push_back(ms_between(t0, Clock::now()) * 1e6 / kCalls);
    }

    for (int r = 0; r < reps; ++r) {
      const auto& sig = sigs[static_cast<std::size_t>(r) % sigs.size()];
      Scope s(tracer_, "falcon.compress");
      const auto t0 = Clock::now();
      const auto bytes = falcon::compress_s1(sig.s1);
      compress_.push_back(ms_between(t0, Clock::now()) * 1e3);
      if (bytes.empty()) throw std::runtime_error("empty compressed signature");
    }
  }

  double hash_us() const { return median(hash_); }
  double targets_us() const { return median(targets_); }
  /// One ffSampling pass, SamplerZ included.
  double ffsampling_total_us() const { return median(ff_); }
  double combine_us() const { return median(combine_); }
  double samplerz_ns() const { return median(samplerz_); }
  double compress_us() const { return median(compress_); }
  double tree_build_ms = 0;

 private:
  prng::SplitMix64Source rng_;
  engine::EngineBlockSource source_;
  falcon::SamplerZ sz_;
  Tracer& tracer_;
  std::unique_ptr<falcon::FalconTree> tree_;
  falcon::FfScratch scratch_;
  falcon::CVec t0v_, t1v_;
  std::vector<double> hash_, targets_, ff_, combine_, samplerz_, compress_;
};

}  // namespace

Result run_sign_batch(const Options& opt) {
  Result result;
  const Budget budget;
  Tracer tracer(opt.trace);

  // Inputs, before any timed region.
  const Keys keys = make_keys(derive_seed(opt.seed, 1), kTenants, kDegree,
                              budget.load_threads);
  std::vector<falcon::Verifier> scalar;
  for (const auto& kp : keys.pairs) scalar.emplace_back(kp.h, kp.params);
  prng::SplitMix64Source msg_rng(derive_seed(opt.seed, 2));

  // Untimed pass: fill the private netlist cache.
  { engine::SamplerRegistry().get(gauss::GaussianParams::sigma_2(128)); }

  // Set-up, repeated; the last stack serves the measured loop.
  std::vector<double> setup_s;
  std::optional<Stack> built;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    built.reset();  // ~Stack: services go before the registry they use
    const auto t0 = Clock::now();
    built.emplace(build_stack(budget, derive_seed(opt.seed, 3), keys));
    setup_s.push_back(seconds_since(t0));
  }
  Stack& stack = *built;

  LoopStats loop;
  if (!opt.trace) {
    run_loop(stack, keys, scalar, msg_rng, opt.seconds, tracer, result, loop);
  } else {
    // Half untraced, half traced: their ratio is the tracing overhead.
    Tracer off(false);
    LoopStats plain;
    run_loop(stack, keys, scalar, msg_rng, opt.seconds / 2, off, result, plain);
    run_loop(stack, keys, scalar, msg_rng, opt.seconds / 2, tracer, result, loop);
    result.metric("harness.trace_overhead",
                  (loop.sign_time_s / static_cast<double>(loop.signatures)) /
                      (plain.sign_time_s / static_cast<double>(plain.signatures)),
                  "ratio");
  }
  if (loop.signatures == 0) throw std::runtime_error("no batch completed");

  const Summary sign = summarize(loop.sign_ms);
  const Summary verify = summarize(loop.verify_ms);
  const double signs_per_s = static_cast<double>(loop.signatures) / loop.sign_time_s;
  const double verifies_per_s = static_cast<double>(loop.verdicts) / loop.verify_time_s;

  result.metric("setup_s", median(setup_s), "s");
  result.metric("throughput_per_s", windowed_rate(loop.iter_ops), "1/s");
  result.metric("p50_ms", windowed_quantile_ms(loop.iter_ops, 0.5), "ms");
  result.metric("p90_ms", windowed_quantile_ms(loop.iter_ops, 0.90), "ms");
  result.detail["sign_many_p95_ms"] = quantile(loop.sign_ms, 0.95);
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");

  result.detail["signs_per_s"] = signs_per_s;
  result.detail["verifies_per_s"] = verifies_per_s;
  result.detail["sign_many_p50_ms"] = sign.p50;
  result.detail["sign_many_tail_ms"] = sign.tail;
  result.detail["sign_many_tail_pct"] = sign.tail_pct;
  result.detail["sign_many_count"] = static_cast<double>(sign.count);
  result.detail["verify_many_p50_ms"] = verify.p50;
  result.detail["verify_many_tail_ms"] = verify.tail;
  result.detail["batch"] = kBatch;
  result.detail["tenants"] = kTenants;
  result.detail["signing_workers"] = budget.signing_workers;
  result.detail["verify_threads"] = budget.verify_threads;
  result.detail["load_threads"] = 1;
  for (std::size_t i = 0; i < setup_s.size(); ++i)
    result.detail["setup_s_rep" + std::to_string(i)] = setup_s[i];

  if (opt.trace) {
    const falcon::KeyPair& kp = keys.pairs[0];
    // Engine layers of the signing base sampler (sigma = 2, 128-bit).
    engine::SamplerRegistry registry;
    const auto load_t0 = Clock::now();
    const auto synth = registry.get(gauss::GaussianParams::sigma_2(128));
    result.metric("engine.registry_load_ms", ms_between(load_t0, Clock::now()), "ms");
    EngineProbe ep = probe_engine(synth, budget.signing_workers,
                                  derive_seed(opt.seed, 4), tracer);
    result.metric("engine.kernel_build_ms", ep.kernel_build_ms, "ms");
    result.metric("ct.ops_sigma2", ep.ops, "count");
    result.metric("ct.cycles_per_64_sigma2", ep.cycles_per_64, "cycles");
    result.metric("engine.ns_per_sample_1t", ep.ns_per_sample_1t, "ns");
    result.metric("engine.ns_per_sample", ep.ns_per_sample, "ns");
    result.metric("prng.chacha_ns_per_word",
                  probe_chacha_ns_per_word(derive_seed(opt.seed, 5), tracer), "ns");

    // Single-worker time per signature (one message per sign_many call
    // checks out exactly one worker), interleaved with the stage probes.
    StageProbe sp(kp, *ep.engine_1t, derive_seed(opt.seed, 6), tracer);
    std::vector<falcon::Signature> one_sigs;
    std::vector<double> one_us;
    for (int round = 0; round < kProbeRounds; ++round) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        const std::string m = make_message(msg_rng);
        const auto t0 = Clock::now();
        one_sigs.push_back(stack.signer->sign(kp, m));
        one_us.push_back(ms_between(t0, Clock::now()) * 1e3);
      }
      sp.round(kProbeReps, one_sigs);
    }
    const double single_worker_us = median(one_us);

    const double attempts = static_cast<double>(loop.sign_stats.attempts) /
                            static_cast<double>(loop.signatures);
    const double samplerz_per_attempt = 2.0 * kDegree;
    // SamplerZ runs inside ffSampling; the benchmark cannot put a span
    // inside the library, so its share of the ffSampling span is the
    // SamplerZ probe's per-call time times the calls per attempt.
    const double samplerz_us = samplerz_per_attempt * sp.samplerz_ns() / 1e3;
    const double ff_self_us = sp.ffsampling_total_us() - samplerz_us;
    result.metric("falcon.hash_to_point_us", sp.hash_us(), "us");
    result.metric("falcon.ffsampling_us", ff_self_us, "us");
    // FFT-domain work of sign_with outside ffSampling, per signature.
    const double fft_us = sp.targets_us() + attempts * sp.combine_us();
    result.metric("falcon.fft_us", fft_us, "us");
    result.metric("falcon.compress_us", sp.compress_us(), "us");
    result.metric("falcon.samplerz_ns", sp.samplerz_ns(), "ns");
    result.metric("falcon.samplerz_accept_ratio",
                  static_cast<double>(loop.sign_stats.samplerz_calls) /
                      static_cast<double>(loop.sign_stats.base_samples),
                  "ratio");
    result.metric("falcon.base_samples_per_sig",
                  static_cast<double>(loop.sign_stats.base_samples) /
                      static_cast<double>(loop.signatures),
                  "count");
    result.metric("falcon.attempts_per_sig", attempts, "count");
    result.metric("falcon.verify_us",
                  loop.verify_time_s * 1e6 / static_cast<double>(loop.verdicts), "us");
    result.metric("falcon.keygen_ms", median(keys.keygen_ms), "ms");
    result.metric("falcon.tree_build_ms", sp.tree_build_ms, "ms");
    result.metric("store.tree_hit_ratio",
                  hit_ratio(stack.signer->tree_cache_stats()), "ratio");
    result.metric("store.ntt_key_hit_ratio",
                  hit_ratio(stack.verifier->key_cache_stats()), "ratio");
    report_netlist_cache(stack.registry->netlist_cache_stats(), result);

    // sign_with per signature: hash-to-point, the targets, and per attempt
    // one ffSampling pass (SamplerZ included) and one combine.
    const double stages_us = sp.hash_us() + fft_us + attempts * sp.ffsampling_total_us();
    const double reconcile = stages_us / single_worker_us;
    result.metric("harness.sign_reconcile", reconcile, "ratio");
    result.detail["single_worker_us_per_sig"] = single_worker_us;
    result.detail["stage_sum_us_per_sig"] = stages_us;
    if (std::fabs(reconcile - 1.0) > kReconcileTolerance) {
      char why[128];
      std::snprintf(why, sizeof why,
                    "sign stages sum to %.2fx the single-worker time per "
                    "signature (tolerance +-%.2f)",
                    reconcile, kReconcileTolerance);
      result.fail(why);
    }
    tracer.write(opt.work_dir + "/spans-sign_batch");
  }
  return result;
}

}  // namespace perfbench
