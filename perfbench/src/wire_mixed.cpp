// wire_mixed: open loop over loopback TCP. Requests leave on a seeded
// Poisson schedule at a fixed absolute rate (--wire-rate, written in
// BENCHMARK.json) whether or not earlier ones were answered:
//   - interactive sign and verify frames for four tenant keys, over two
//     pipelined connections; verifies reuse signatures the server returned
//     earlier in the run, a seeded quarter of them over a tampered message;
//   - a small share of bulk gauss requests, submitted to the dispatcher
//     in-process (the wire protocol has no gauss frame);
//   - a background keygen frame (N = 512) every few seconds.
// Latency runs from each request's scheduled send time to when its
// response is read. Every response is matched to its request by id and
// checked; signatures again by a scalar Verifier after the run.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "falcon/signing_service.h"
#include "falcon/verify.h"
#include "gauss/probmatrix.h"
#include "harness.h"
#include "inputs.h"
#include "net/client.h"
#include "net/overload.h"
#include "probes.h"
#include "serial/serial.h"
#include "serve/wire.h"
#include "stats/acceptance.h"
#include "wire_stack.h"

namespace perfbench {

namespace {

using namespace cgs;

constexpr std::size_t kDegree = 512;
constexpr std::size_t kTenants = 4;
constexpr double kSignShare = 0.55;   // of the Poisson stream
constexpr double kVerifyShare = 0.40; // the rest is bulk gauss
constexpr double kTamperShare = 0.25; // of verifies
constexpr std::size_t kGaussSamples = 4096;
constexpr int kConnections = 2;  // pipelined, one reader thread each
/// One background keygen per this many seconds of schedule, evenly spaced
/// (three in a 10 s run): a whole number per run, so every run of one
/// length carries the same background load.
constexpr double kKeygenEvery_s = 10.0 / 3.0;
constexpr double kReuseAfter_s = 0.25;  // verifies reuse signs this old
constexpr std::size_t kPreSigned = 8;   // per tenant, for early verifies
constexpr double kHealthEvery_s = 0.02; // traced runs only
constexpr double kSloMs = 50.0;  // DispatcherOptions::slo_latency_us default
constexpr std::size_t kGaussKept = 1u << 18;
constexpr double kMinChiP = 1e-6;  // see gauss_bulk.cpp
/// The traced run's serve.sign_us + net.overhead_us must land within this
/// share of the untraced sign p50 (see perfbench/README.md).
constexpr double kReconcileTolerance = 0.35;

enum class Kind : std::uint8_t { kSign, kVerify, kGauss, kKeygen, kHealth };

struct Slot {
  double at = 0;  // scheduled offset from the run start, seconds
  Kind kind = Kind::kSign;
  std::size_t tenant = 0;
  std::string message;       // sign: the signed message
  std::int64_t reuse = -1;   // verify: sign slot whose signature it reuses
  bool tampered = false;     // verify: message changed, must be rejected
  std::uint64_t word = 0;    // per-slot randomness
  int conn = -1;             // wire slots: which connection carries it
  std::vector<std::uint8_t> frame;  // sign / keygen / health, encoded
};

enum class State : std::uint8_t { kPending, kServed, kShed, kFailed };

/// What came back for one slot. Written by exactly one thread (the
/// reader of its connection, its waiter, or the generator on an
/// admission shed) and read after every thread is joined — except a sign
/// slot's response, which the generator reads for verify reuse once
/// `ready` (release/acquire) says it is complete.
struct Outcome {
  State state = State::kPending;
  Clock::time_point done{};
  serve::SignResponseFrame sign;
  bool accepted = false;  // verify verdict
  std::string error;
  std::vector<std::int32_t> samples;  // gauss, first few requests only
};

struct PreSigned {
  std::string message;
  falcon::Signature sig;
  serve::SignResponseFrame frame;  // compressed form
};

struct Inputs {
  Keys keys;
  std::vector<std::uint64_t> key_ids;
  double gauss_sigma = 0, gauss_center = 0;
  std::vector<std::vector<PreSigned>> presigned;  // per tenant
};

/// One waiting thread: runs posted blocking waits in FIFO order.
class Waiter {
 public:
  Waiter() : thread_([this] { run(); }) {}
  ~Waiter() { join(); }
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;

  void post(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
  }
  void join() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closing_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void run() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closing_ || !tasks_.empty(); });
        if (tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;  // guards tasks_, closing_
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool closing_ = false;
  std::thread thread_;
};

/// The seeded schedule for [0, seconds): the Poisson stream plus keygens
/// (and health probes on traced runs), sorted by time.
std::vector<Slot> make_schedule(std::uint64_t seed, double rate,
                                double seconds, bool health,
                                const Inputs& in) {
  prng::SplitMix64Source rng(derive_seed(seed, 0x5C));
  std::vector<Slot> slots;
  std::vector<std::vector<std::size_t>> signs_by_tenant(kTenants);
  for (double at : poisson_arrivals(rng, rate, seconds)) {
    Slot s;
    s.at = at;
    s.word = rng.next_word();
    const double u = uniform01(rng);
    s.tenant = rng.next_word() % kTenants;
    if (u < kSignShare) {
      s.kind = Kind::kSign;
      s.message = make_message(rng);
      signs_by_tenant[s.tenant].push_back(slots.size());
    } else if (u < kSignShare + kVerifyShare) {
      s.kind = Kind::kVerify;
      s.tampered = uniform01(rng) < kTamperShare;
      // A seeded earlier sign of this tenant, old enough to be answered.
      const auto& signs = signs_by_tenant[s.tenant];
      std::size_t eligible = signs.size();
      while (eligible > 0 && slots[signs[eligible - 1]].at > at - kReuseAfter_s)
        --eligible;
      if (eligible > 0)
        s.reuse = static_cast<std::int64_t>(signs[rng.next_word() % eligible]);
    } else {
      s.kind = Kind::kGauss;
    }
    slots.push_back(std::move(s));
  }
  std::vector<Slot> extra;
  const int keygens = std::max(1, static_cast<int>(std::lround(seconds / kKeygenEvery_s)));
  const double keygen_gap = seconds / keygens;
  const double keygen_offset = keygen_gap * (0.1 + 0.3 * uniform01(rng));
  for (int k = 0; k < keygens; ++k) {
    Slot s;
    s.at = keygen_offset + k * keygen_gap;
    s.kind = Kind::kKeygen;
    s.word = rng.next_word();
    extra.push_back(std::move(s));
  }
  if (health) {
    for (double at = kHealthEvery_s; at < seconds; at += kHealthEvery_s) {
      Slot s;
      s.at = at;
      s.kind = Kind::kHealth;
      extra.push_back(std::move(s));
    }
  }
  // Merge, keeping reuse indices valid: remap after a stable sort.
  std::vector<std::pair<double, std::size_t>> order;
  for (std::size_t i = 0; i < slots.size(); ++i) order.push_back({slots[i].at, i});
  for (std::size_t i = 0; i < extra.size(); ++i)
    order.push_back({extra[i].at, slots.size() + i});
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::int64_t> new_index(order.size());
  for (std::size_t k = 0; k < order.size(); ++k)
    new_index[order[k].second] = static_cast<std::int64_t>(k);
  std::vector<Slot> merged(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t src = order[k].second;
    merged[k] = src < slots.size() ? std::move(slots[src])
                                   : std::move(extra[src - slots.size()]);
    if (merged[k].reuse >= 0)
      merged[k].reuse = new_index[static_cast<std::size_t>(merged[k].reuse)];
  }

  // Wire slots alternate connections; frames known up front are encoded.
  int next_conn = 0;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    Slot& s = merged[i];
    const std::uint64_t id = i + 1;  // request id 0 means "absent"
    if (s.kind == Kind::kGauss) continue;
    s.conn = next_conn;
    next_conn = (next_conn + 1) % kConnections;
    if (s.kind == Kind::kSign) {
      serve::SignRequestFrame f;
      f.request_id = id;
      f.key_id = in.key_ids[s.tenant];
      f.message = s.message;
      s.frame = serve::encode(f);
    } else if (s.kind == Kind::kKeygen) {
      serve::KeygenRequestFrame f;
      f.request_id = id;
      f.degree = kDegree;
      f.seed = s.word;
      s.frame = serve::encode(f);
    } else if (s.kind == Kind::kHealth) {
      serve::HealthRequestFrame f;
      f.request_id = id;
      s.frame = serve::encode(f);
    }
  }
  return merged;
}

/// The verify message and signature for a verify slot: the reused sign
/// slot's when it has been answered, else a pre-signed one.
std::pair<std::string, const serve::SignResponseFrame*> verify_source(
    const Slot& s, const std::vector<Slot>& slots,
    const std::vector<Outcome>& out,
    const std::vector<std::atomic<bool>>& ready, const Inputs& in) {
  if (s.reuse >= 0) {
    const auto r = static_cast<std::size_t>(s.reuse);
    if (ready[r].load(std::memory_order_acquire))
      return {slots[r].message, &out[r].sign};
  }
  const PreSigned& p = in.presigned[s.tenant][s.word % kPreSigned];
  return {p.message, &p.frame};
}

std::string verify_message(const Slot& s, std::string message) {
  if (!s.tampered) return message;
  prng::SplitMix64Source rng(s.word);
  return tamper(std::move(message), rng);
}

/// Everything one wire phase measured.
struct WireRun {
  std::vector<Outcome> out;
  std::vector<Clock::time_point> sent;
  Clock::time_point t0{};
  std::vector<bool> verify_tampered;  // per slot, as sent
  std::uint64_t overloaded = 0, anonymous_sheds = 0, protocol_errors = 0;
  std::uint64_t frames_sent = 0, frames_read = 0;  // by the clients
  std::uint64_t server_frames_in = 0;  // the server's count over the run
  double window_s = 0;
};

void run_wire(WireStack& stack, const std::vector<Slot>& slots,
              const Inputs& in, WireRun& run) {
  const std::size_t n = slots.size();
  run.out.assign(n, Outcome{});
  run.sent.assign(n, Clock::time_point{});
  run.verify_tampered.assign(n, false);
  std::vector<std::atomic<bool>> ready(n);

  net::ClientOptions copts;
  copts.read_timeout = std::chrono::milliseconds(20000);
  std::vector<net::Client> clients;
  for (int c = 0; c < kConnections; ++c) clients.emplace_back(stack.port(), copts);
  std::vector<std::size_t> owed(kConnections, 0);
  for (const Slot& s : slots)
    if (s.conn >= 0) ++owed[static_cast<std::size_t>(s.conn)];

  std::atomic<std::uint64_t> overloaded{0}, anonymous_sheds{0}, protocol{0},
      frames_read{0};
  auto reader = [&](int c) {
    net::Client& client = clients[static_cast<std::size_t>(c)];
    for (std::size_t due = owed[static_cast<std::size_t>(c)]; due > 0; --due) {
      std::optional<std::vector<std::uint8_t>> frame;
      try {
        frame = client.read();
      } catch (const std::exception&) {
        return;  // timeout or closed: the rest stay pending (failed)
      }
      if (!frame) return;
      const auto done = Clock::now();
      ++frames_read;
      try {
        // The slot a response settles: a pending request of that kind.
        auto settle = [&](std::uint64_t id, std::optional<Kind> kind) -> Outcome& {
          if (id == 0 || id > n || (kind && slots[id - 1].kind != *kind))
            throw std::runtime_error("response names no request of its kind");
          Outcome& o = run.out[id - 1];
          if (o.state != State::kPending) throw std::runtime_error("duplicate response");
          o.done = done;
          return o;
        };
        if (net::is_overloaded(*frame)) {
          ++overloaded;
          // A transport-level shed (owed-responses cap) names no request;
          // it settles one of this connection's still-pending slots.
          const std::uint64_t id = net::decode_overloaded(*frame).request_id;
          if (id == 0) ++anonymous_sheds;
          else settle(id, std::nullopt).state = State::kShed;
          continue;
        }
        switch (serial::peek_tag(*frame)) {
          case serial::TypeTag::kSignResponse: {
            auto r = serve::decode_sign_response(*frame);
            const std::uint64_t id = r.request_id;
            Outcome& o = settle(id, Kind::kSign);
            o.state = r.ok ? State::kServed : State::kFailed;
            o.error = r.error;
            o.sign = std::move(r);
            if (o.state == State::kServed) ready[id - 1].store(true, std::memory_order_release);
            break;
          }
          case serial::TypeTag::kVerifyResponse: {
            const auto r = serve::decode_verify_response(*frame);
            Outcome& o = settle(r.request_id, Kind::kVerify);
            o.state = r.ok ? State::kServed : State::kFailed;
            o.error = r.error;
            o.accepted = r.accepted;
            break;
          }
          case serial::TypeTag::kKeygenResponse: {
            const auto r = serve::decode_keygen_response(*frame);
            Outcome& o = settle(r.request_id, Kind::kKeygen);
            const bool well_formed = r.h.size() == kDegree && r.key_id != 0;
            o.state = r.ok && well_formed ? State::kServed : State::kFailed;
            o.error = r.ok ? (well_formed ? "" : "malformed key") : r.error;
            break;
          }
          case serial::TypeTag::kHealthResponse: {
            const auto r = serve::decode_health_response(*frame);
            Outcome& o = settle(r.request_id, Kind::kHealth);
            o.state = r.ok ? State::kServed : State::kFailed;
            o.error = r.error;
            break;
          }
          default:
            throw std::runtime_error("unexpected response tag");
        }
      } catch (const std::exception&) {
        ++protocol;
      }
    }
  };

  Waiter gauss_waiter;
  std::size_t gauss_kept = 0;
  const std::uint64_t server_in_before = stack.server_stats().frames_received;
  run.t0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> readers;
  for (int c = 0; c < kConnections; ++c) readers.emplace_back(reader, c);
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    std::this_thread::sleep_until(
        run.t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(s.at)));
    run.sent[i] = Clock::now();
    try {
      if (s.kind == Kind::kGauss) {
        serve::GaussRequest g;
        g.sigma = in.gauss_sigma;
        g.center = in.gauss_center;
        g.n = kGaussSamples;
        g.request_id = i + 1;
        auto sub = stack.dispatcher().submit(std::move(g));
        if (!sub.ok()) {
          run.out[i].state = State::kShed;
          run.out[i].done = Clock::now();
          continue;
        }
        const bool keep = gauss_kept < kGaussKept;
        if (keep) gauss_kept += kGaussSamples;
        auto fut = std::make_shared<std::future<std::vector<std::int32_t>>>(
            std::move(sub.future));
        Outcome* o = &run.out[i];
        gauss_waiter.post([o, fut, keep] {
          try {
            auto v = fut->get();
            o->done = Clock::now();
            if (v.size() == kGaussSamples) {
              o->state = State::kServed;
              if (keep) o->samples = std::move(v);
            } else {
              o->state = State::kFailed;
              o->error = "short gauss response";
            }
          } catch (const std::exception& e) {
            o->done = Clock::now();
            o->state = State::kFailed;
            o->error = e.what();
          }
        });
        continue;
      }
      if (s.kind == Kind::kVerify) {
        const auto [msg, sign] = verify_source(s, slots, run.out, ready, in);
        serve::VerifyRequestFrame f;
        f.request_id = i + 1;
        f.key_id = in.key_ids[s.tenant];
        f.message = verify_message(s, msg);
        f.degree = sign->degree;
        f.nonce = sign->nonce;
        f.s1_compressed = sign->s1_compressed;
        run.verify_tampered[i] = s.tampered;
        clients[static_cast<std::size_t>(s.conn)].send(serve::encode(f));
      } else {
        clients[static_cast<std::size_t>(s.conn)].send(s.frame);
      }
      ++run.frames_sent;
    } catch (const std::exception&) {
      // Left pending: the reader times out on it and it counts as failed.
    }
  }
  for (auto& r : readers) r.join();
  gauss_waiter.join();
  run.overloaded = overloaded.load();
  run.anonymous_sheds = anonymous_sheds.load();
  run.protocol_errors = protocol.load();
  run.frames_read = frames_read.load();
  run.server_frames_in = stack.server_stats().frames_received - server_in_before;
  // The window closes with the last interactive answer: background work
  // finishing late does not stretch it.
  Clock::time_point last = run.t0;
  for (std::size_t i = 0; i < n; ++i) {
    const Outcome& o = run.out[i];
    const bool interactive = slots[i].kind == Kind::kSign || slots[i].kind == Kind::kVerify;
    if (interactive && o.state != State::kPending && o.done > last) last = o.done;
  }
  run.window_s = std::max(ms_between(run.t0, last) / 1e3, 1e-3);
}

struct Stack {
  // First member, so it is destroyed last: everything below points into it.
  std::unique_ptr<engine::SamplerRegistry> registry;
  std::unique_ptr<WireStack> wire;
};

Stack build_stack(const Budget& budget, std::uint64_t seed, Inputs& in,
                  Tracer& tracer) {
  Stack s;
  s.registry = std::make_unique<engine::SamplerRegistry>();
  s.wire = std::make_unique<WireStack>(*s.registry, budget, seed, tracer);
  serve::Dispatcher& d = s.wire->dispatcher();
  in.key_ids.clear();
  for (const auto& kp : in.keys.pairs) in.key_ids.push_back(d.add_key(kp));
  // First tree build, NTT key and gauss engines, through the lanes.
  for (std::size_t t = 0; t < kTenants; ++t) {
    serve::SignRequest sr;
    sr.key_id = in.key_ids[t];
    sr.message = "warm-up";
    const falcon::Signature sig = d.submit(std::move(sr)).future.get();
    serve::VerifyRequest vr;
    vr.key_id = in.key_ids[t];
    vr.message = "warm-up";
    vr.sig = sig;
    if (!d.submit(std::move(vr)).future.get())
      throw std::runtime_error("set-up signature did not verify");
  }
  serve::GaussRequest g;
  g.sigma = in.gauss_sigma;
  g.center = in.gauss_center;
  g.n = kGaussSamples;
  (void)d.submit(std::move(g)).future.get();
  return s;
}

/// Ledger and correctness checks over one wire run.
struct Tally {
  std::vector<double> sign_ms, verify_ms, keygen_ms, gauss_ms, health_us,
      gen_lag_ms, sign_rtt_us;
  std::vector<Op> interactive_ops;  // sign + verify; at = scheduled time, busy = latency
  std::uint64_t offered = 0, served = 0, shed = 0, failed = 0;
  std::uint64_t shed_unmatched = 0;  // pending slots settled by id-less sheds
  std::uint64_t interactive = 0, interactive_good = 0, within_slo = 0;
};

Tally check_run(const std::vector<Slot>& slots, const WireRun& run,
                const Inputs& in, const std::vector<falcon::Verifier>& scalar,
                Result& result) {
  Tally t;
  std::vector<std::int32_t> gauss_samples;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Slot& s = slots[i];
    const Outcome& o = run.out[i];
    const auto due = run.t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(s.at));
    if (s.kind != Kind::kHealth) ++t.offered;
    t.gen_lag_ms.push_back(ms_between(due, run.sent[i]));
    const double ms = ms_between(due, o.done);
    bool good = o.state == State::kServed;
    if (good && s.kind == Kind::kSign) {
      try {
        if (!scalar[s.tenant].verify(s.message, o.sign.to_signature())) {
          result.fail("returned signature rejected by the scalar verifier");
          good = false;
        }
      } catch (const std::exception& e) {
        result.fail(std::string("undecodable signature: ") + e.what());
        good = false;
      }
    }
    if (good && s.kind == Kind::kVerify && o.accepted == run.verify_tampered[i]) {
      result.fail(run.verify_tampered[i] ? "tampered verify accepted"
                                         : "valid signature rejected");
      good = false;
    }
    if (good && s.kind == Kind::kGauss && !o.samples.empty())
      gauss_samples.insert(gauss_samples.end(), o.samples.begin(), o.samples.end());
    if (s.kind == Kind::kHealth) {
      if (good) t.health_us.push_back(ms_between(run.sent[i], o.done) * 1e3);
      continue;
    }
    if (o.state == State::kShed) ++t.shed;
    else if (good) ++t.served;
    else if (o.state == State::kPending && t.shed_unmatched < run.anonymous_sheds) ++t.shed_unmatched;
    else if (t.failed++ == 0)
      std::fprintf(stderr, "perfbench: first failed request: %s\n",
                   o.state == State::kPending ? "no response" : o.error.c_str());
    if (!good) continue;
    switch (s.kind) {
      case Kind::kSign:
        t.sign_ms.push_back(ms);
        t.sign_rtt_us.push_back(ms_between(run.sent[i], o.done) * 1e3);
        break;
      case Kind::kVerify: t.verify_ms.push_back(ms); break;
      case Kind::kKeygen: t.keygen_ms.push_back(ms); break;
      case Kind::kGauss: t.gauss_ms.push_back(ms); break;
      case Kind::kHealth: break;
    }
    if (s.kind == Kind::kSign || s.kind == Kind::kVerify) {
      t.interactive_ops.push_back({s.at, 1.0, ms / 1e3});
      ++t.interactive_good;
      if (ms <= kSloMs) ++t.within_slo;
    }
  }
  for (const Slot& s : slots)
    if (s.kind == Kind::kSign || s.kind == Kind::kVerify) ++t.interactive;
  if (run.protocol_errors)
    result.fail(std::to_string(run.protocol_errors) + " unmatched or undecodable responses");
  if (t.shed_unmatched != run.anonymous_sheds)
    result.fail("more id-less sheds than unanswered requests");
  t.shed += t.shed_unmatched;
  // Conservation on the wire: the server saw every frame the clients sent,
  // and every one was answered exactly once (duplicates and strays are
  // protocol errors above), so served + shed + failed == offered holds
  // per request, not just in total.
  if (run.server_frames_in != run.frames_sent)
    result.fail("server received " + std::to_string(run.server_frames_in) +
                " frames, clients sent " + std::to_string(run.frames_sent));
  if (run.frames_read != run.frames_sent)
    result.fail("clients read " + std::to_string(run.frames_read) +
                " responses for " + std::to_string(run.frames_sent) + " requests");
  if (!gauss_samples.empty()) {
    const auto recipe = engine::SamplerRegistry().get_recipe(in.gauss_sigma, in.gauss_center);
    const gauss::ProbMatrix matrix(recipe.base);
    stats::AcceptanceBounds bounds;
    bounds.min_chi_p = kMinChiP;
    const auto acc = stats::accept_convolution(gauss_samples, matrix, recipe, bounds);
    if (!acc.accepted()) result.fail("gauss responses failed acceptance: " + acc.describe());
  }
  result.attempted += t.offered;
  result.failed += t.shed + t.failed;
  return t;
}

/// In-process replay of the schedule straight into Dispatcher::submit,
/// for serve.submit_us and submit -> future-ready times per class.
struct Replay {
  std::vector<double> submit_us, sign_us, verify_us;
};

Replay replay_in_process(serve::Dispatcher& d, const std::vector<Slot>& slots,
                         const Inputs& in, double seconds, Tracer& tracer) {
  Replay r;
  std::mutex mu;  // guards r.sign_us, r.verify_us
  Waiter sign_waiter, verify_waiter;
  // Gauss and keygen ride along as load only; their futures are drained
  // at the end.
  std::vector<std::future<std::vector<std::int32_t>>> gauss;
  std::vector<std::future<serve::KeygenResult>> keygens;
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < slots.size() && slots[i].at < seconds; ++i) {
    const Slot& s = slots[i];
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(s.at)));
    if (s.kind == Kind::kGauss) {
      serve::GaussRequest req;
      req.sigma = in.gauss_sigma;
      req.center = in.gauss_center;
      req.n = kGaussSamples;
      auto sub = d.submit(std::move(req));
      if (sub.ok()) gauss.push_back(std::move(sub.future));
      continue;
    }
    if (s.kind == Kind::kKeygen) {
      serve::KeygenRequest req;
      req.params = falcon::FalconParams::for_degree(kDegree);
      req.seed = s.word;
      auto sub = d.submit(std::move(req));
      if (sub.ok()) keygens.push_back(std::move(sub.future));
      continue;
    }
    if (s.kind != Kind::kSign && s.kind != Kind::kVerify) continue;

    const bool is_sign = s.kind == Kind::kSign;
    const std::int64_t parent = tracer.open(is_sign ? "serve.sign" : "serve.verify", -1, i + 1);
    const std::int64_t sub_span = tracer.open("serve.submit", parent, i + 1);
    const auto start = Clock::now();
    // Submit -> future ready, waited on by this class's FIFO waiter.
    auto finish = [&, parent, start, is_sign](auto sub) {
      r.submit_us.push_back(ms_between(start, Clock::now()) * 1e3);
      tracer.close(sub_span);
      if (!sub.ok()) {
        tracer.close(parent);
        return;
      }
      auto fut = std::make_shared<decltype(sub.future)>(std::move(sub.future));
      (is_sign ? sign_waiter : verify_waiter).post([&, fut, parent, start, is_sign] {
        try {
          fut->get();
        } catch (const std::exception&) {
        }
        const double us = ms_between(start, Clock::now()) * 1e3;
        tracer.close(parent);
        std::lock_guard<std::mutex> lock(mu);
        (is_sign ? r.sign_us : r.verify_us).push_back(us);
      });
    };
    if (is_sign) {
      serve::SignRequest req;
      req.key_id = in.key_ids[s.tenant];
      req.message = s.message;
      finish(d.submit(std::move(req)));
    } else {
      const PreSigned& p = in.presigned[s.tenant][s.word % kPreSigned];
      serve::VerifyRequest req;
      req.key_id = in.key_ids[s.tenant];
      req.message = verify_message(s, p.message);
      req.sig = p.sig;
      finish(d.submit(std::move(req)));
    }
  }
  sign_waiter.join();
  verify_waiter.join();
  for (auto& f : gauss) f.wait();
  for (auto& f : keygens) f.wait();
  return r;
}

}  // namespace

Result run_wire_mixed(const Options& opt) {
  Result result;
  const Budget budget;
  // A traced run starts untraced: its first wire phase is the reference
  // for harness.trace_overhead and harness.wire_reconcile.
  Tracer tracer(false);

  // Inputs, before any timed region.
  Inputs in;
  in.keys = make_keys(derive_seed(opt.seed, 1), kTenants, kDegree, budget.load_threads);
  {
    prng::SplitMix64Source rng(derive_seed(opt.seed, 0x6A));
    in.gauss_sigma = 1.6 + 1.1 * uniform01(rng);  // base sigma_0 = 2, stride 1
    in.gauss_center = (uniform01(rng) - 0.5) * 80.0;
  }
  std::vector<falcon::Verifier> scalar;
  for (const auto& kp : in.keys.pairs) scalar.emplace_back(kp.h, kp.params);

  // Untimed pass: fill the private netlist and recipe cache.
  {
    engine::SamplerRegistry registry;
    (void)registry.get(gauss::GaussianParams::sigma_2(128));
    (void)registry.get(registry.get_recipe(in.gauss_sigma, in.gauss_center).base);
  }

  std::vector<double> setup_s;
  std::optional<Stack> built;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    built.reset();  // ~Stack: services go before the registry they use
    const auto t0 = Clock::now();
    built.emplace(build_stack(budget, derive_seed(opt.seed, 3), in, tracer));
    setup_s.push_back(seconds_since(t0));
  }
  Stack& stack = *built;
  serve::Dispatcher& d = stack.wire->dispatcher();

  // Pre-signed signatures for verifies scheduled before any sign returned.
  {
    prng::SplitMix64Source rng(derive_seed(opt.seed, 0x6B));
    in.presigned.assign(kTenants, {});
    for (std::size_t t = 0; t < kTenants; ++t) {
      std::vector<std::string> msgs;
      std::vector<std::string_view> views;
      for (std::size_t k = 0; k < kPreSigned; ++k) msgs.push_back(make_message(rng));
      for (const auto& m : msgs) views.push_back(m);
      const auto sigs = d.signing_service().sign_many(in.keys.pairs[t], views);
      for (std::size_t k = 0; k < kPreSigned; ++k)
        in.presigned[t].push_back({msgs[k], sigs[k], serve::SignResponseFrame::success(0, sigs[k])});
    }
  }

  const double phase_s = opt.trace ? opt.seconds / 3 : opt.seconds;
  const auto slots = make_schedule(opt.seed, opt.wire_rate, phase_s, false, in);
  const serve::MetricsSnapshot m0 = d.metrics();

  WireRun run;
  run_wire(*stack.wire, slots, in, run);
  const Tally tally = check_run(slots, run, in, scalar, result);
  const serve::MetricsSnapshot m1 = d.metrics();
  if (m1.priority_inversions() != m0.priority_inversions())
    result.fail("dispatcher reported priority inversions");

  const Summary sign = summarize(tally.sign_ms);
  const Summary verify = summarize(tally.verify_ms);
  const double good_per_s = static_cast<double>(tally.interactive_good) / run.window_s;
  result.metric("setup_s", median(setup_s), "s");
  result.metric("throughput_per_s", good_per_s, "1/s");
  result.metric("p50_ms", windowed_quantile_ms(tally.interactive_ops, 0.5), "ms");
  result.metric("p90_ms", windowed_quantile_ms(tally.interactive_ops, 0.90), "ms");
  result.detail["sign_p90_ms"] = quantile(tally.sign_ms, 0.90);
  result.detail["sign_p95_ms"] = quantile(tally.sign_ms, 0.95);
  result.metric("peak_rss_mb", peak_rss_mb(), "MiB");

  result.detail["sign_p50_ms"] = sign.p50;
  result.detail["sign_p99_ms"] = quantile(tally.sign_ms, 0.99);
  result.detail["sign_tail_ms"] = sign.tail;
  result.detail["sign_tail_pct"] = sign.tail_pct;
  result.detail["sign_count"] = static_cast<double>(sign.count);
  result.detail["verify_p50_ms"] = verify.p50;
  result.detail["verify_p99_ms"] = quantile(tally.verify_ms, 0.99);
  result.detail["verify_count"] = static_cast<double>(verify.count);
  result.detail["keygen_p50_ms"] = median(tally.keygen_ms);
  result.detail["keygen_count"] = static_cast<double>(tally.keygen_ms.size());
  result.detail["gauss_p50_ms"] = median(tally.gauss_ms);
  result.detail["gauss_count"] = static_cast<double>(tally.gauss_ms.size());
  result.detail["slo_share"] = tally.interactive
      ? static_cast<double>(tally.within_slo) / static_cast<double>(tally.interactive)
      : 0.0;
  result.detail["failed_share"] = static_cast<double>(tally.shed + tally.failed) /
                                  static_cast<double>(std::max<std::uint64_t>(1, tally.offered));
  result.detail["offered"] = static_cast<double>(tally.offered);
  result.detail["served"] = static_cast<double>(tally.served);
  result.detail["shed"] = static_cast<double>(tally.shed);
  result.detail["failed"] = static_cast<double>(tally.failed);
  result.detail["gen_lag_p99_ms"] = quantile(tally.gen_lag_ms, 0.99);
  result.detail["wire_rate"] = opt.wire_rate;
  result.detail["connections"] = kConnections;
  result.detail["load_threads"] = budget.load_threads;
  result.detail["signing_workers"] = budget.signing_workers;
  result.detail["sign_lanes"] = budget.sign_lanes;
  result.detail["reactors"] = budget.reactors;
  result.detail["completion_threads"] = budget.completion_threads;
  for (std::size_t i = 0; i < setup_s.size(); ++i)
    result.detail["setup_s_rep" + std::to_string(i)] = setup_s[i];

  if (opt.trace) {
    // Traced wire phase, with health probes: the router answers those
    // inline, so their round trip is the wire's own overhead.
    const auto traced_slots = make_schedule(derive_seed(opt.seed, 0x7E), opt.wire_rate,
                                            phase_s, true, in);
    const net::ServerStats sa = stack.wire->server_stats();
    tracer.set_on(true);
    const auto traced_t0 = Clock::now();
    WireRun traced;
    run_wire(*stack.wire, traced_slots, in, traced);
    const double traced_s = seconds_since(traced_t0);
    const net::ServerStats sb = stack.wire->server_stats();
    const Tally tt = check_run(traced_slots, traced, in, scalar, result);
    for (std::size_t i = 0; i < traced_slots.size(); ++i)
      if (traced.out[i].state != State::kPending && traced_slots[i].kind != Kind::kGauss)
        tracer.record("net.rtt",
                      static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          traced.sent[i].time_since_epoch()).count()),
                      static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          traced.out[i].done.time_since_epoch()).count()),
                      -1, i + 1);

    const Replay rp = replay_in_process(d, slots, in, phase_s, tracer);
    const serve::MetricsSnapshot mb = d.metrics();

    const auto layers = tracer.layer_times();
    const double overhead_us = median(tt.health_us);
    const double serve_sign_us = median(rp.sign_us);
    result.metric("serve.submit_us", median(rp.submit_us), "us");
    result.metric("serve.sign_us", serve_sign_us, "us");
    result.metric("serve.verify_us", median(rp.verify_us), "us");
    auto occupancy = [](const std::vector<serve::LaneSnapshot>& a,
                        const std::vector<serve::LaneSnapshot>& b) {
      double batches = 0, batched = 0;
      for (std::size_t i = 0; i < b.size(); ++i) {
        batches += static_cast<double>(b[i].batches - a[i].batches);
        batched += static_cast<double>(b[i].batched - a[i].batched);
      }
      return batches > 0 ? batched / batches : 0.0;
    };
    result.metric("serve.sign_occupancy", occupancy(m0.sign_lanes, mb.sign_lanes), "count");
    result.metric("serve.verify_occupancy", occupancy(m0.verify_lanes, mb.verify_lanes), "count");
    auto lane_sum = [](const serve::MetricsSnapshot& m, std::uint64_t serve::LaneSnapshot::* f) {
      std::uint64_t s = 0;
      for (const auto* lanes : {&m.sign_lanes, &m.verify_lanes, &m.keygen_lanes, &m.gauss_lanes})
        for (const auto& l : *lanes) s += l.*f;
      return static_cast<double>(s);
    };
    result.metric("serve.rejects",
                  lane_sum(mb, &serve::LaneSnapshot::rejected) - lane_sum(m0, &serve::LaneSnapshot::rejected),
                  "count");
    result.metric("serve.expired",
                  lane_sum(mb, &serve::LaneSnapshot::expired) - lane_sum(m0, &serve::LaneSnapshot::expired),
                  "count");
    result.metric("serve.inversions",
                  static_cast<double>(mb.priority_inversions() - m0.priority_inversions()), "count");
    if (mb.priority_inversions() != m0.priority_inversions())
      result.fail("dispatcher reported priority inversions");
    result.metric("router.admit_us", median_self_us(layers, "router.admit"), "us");
    result.metric("net.rtt_us", median(tt.sign_rtt_us), "us");
    result.metric("net.overhead_us", overhead_us, "us");
    const double frames = static_cast<double>(sb.frames_received - sa.frames_received);
    result.metric("net.frames_per_s", frames / traced_s, "1/s");
    result.metric("net.req_bytes", frames > 0 ? static_cast<double>(sb.bytes_read - sa.bytes_read) / frames : 0.0,
                  "bytes");
    const double sent_frames = static_cast<double>(sb.frames_sent - sa.frames_sent);
    result.metric("net.resp_bytes",
                  sent_frames > 0 ? static_cast<double>(sb.bytes_written - sa.bytes_written) / sent_frames : 0.0,
                  "bytes");
    result.metric("net.overloaded", static_cast<double>(run.overloaded + traced.overloaded), "count");
    result.metric("harness.gen_lag_ms", quantile(tt.gen_lag_ms, 0.99), "ms");
    result.metric("harness.trace_overhead", median(tt.sign_ms) / sign.p50, "ratio");
    const double reconcile = (serve_sign_us + overhead_us) / (sign.p50 * 1e3);
    result.metric("harness.wire_reconcile", reconcile, "ratio");
    if (std::fabs(reconcile - 1.0) > kReconcileTolerance) {
      char why[128];
      std::snprintf(why, sizeof why,
                    "serve.sign_us + net.overhead_us is %.2fx the untraced "
                    "sign p50 (tolerance +-%.2f)",
                    reconcile, kReconcileTolerance);
      result.fail(why);
    }
    result.metric("falcon.keygen_ms", median(in.keys.keygen_ms), "ms");
    result.metric("store.tree_hit_ratio", hit_ratio(mb.ffldl_tree_cache), "ratio");
    result.metric("store.ntt_key_hit_ratio", hit_ratio(mb.ntt_key_cache), "ratio");
    report_netlist_cache(mb.netlist_cache, result);

    engine::SamplerRegistry registry;
    const auto load_t0 = Clock::now();
    (void)registry.get(gauss::GaussianParams::sigma_2(128));
    result.metric("engine.registry_load_ms", ms_between(load_t0, Clock::now()), "ms");
    tracer.write(opt.work_dir + "/spans-wire_mixed");
  }
  stack.wire->shutdown();
  return result;
}

}  // namespace perfbench
