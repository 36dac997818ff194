#include "serve/dispatcher.h"

#ifdef __linux__
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <bit>
#include <functional>
#include <span>
#include <string_view>
#include <utility>

#include "common/check.h"
#include "ct/compiled_sampler.h"
#include "prng/chacha20.h"

namespace cgs::serve {

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

// SplitMix64 finalizer: the shard router's mixing step. Fingerprints and
// IEEE-754 bit patterns are far from uniform in their low bits; lane index
// = mix(key) % lanes must not systematically collide tenants.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t gauss_shard_key(double sigma, double center) {
  return mix64(std::bit_cast<std::uint64_t>(sigma)) ^
         mix64(~std::bit_cast<std::uint64_t>(center));
}

}  // namespace

// Absolute expiry for a job: submitted + the request's relative budget,
// or "never" when the request carries none.
template <typename Req>
static std::chrono::steady_clock::time_point job_deadline(
    const Req& req, std::chrono::steady_clock::time_point submitted) {
  if (req.deadline_us == 0)
    return std::chrono::steady_clock::time_point::max();
  return submitted + std::chrono::microseconds(req.deadline_us);
}

// The one push-or-reject admission sequence every submit() overload
// shares: wrap the envelope, attach the future, try the queue, account
// the outcome, detach the future again when the request was not admitted.
// (The enqueued stamp lands just before the push — a rejected job's trace
// simply dies with the job.)
template <typename Req>
Submission<typename Req::Result> Dispatcher::submit_impl(
    Lane<Req>& lane, Req req, obs::RequestClass cls, std::uint64_t tenant) {
  Job<Req> job;
  job.req = std::move(req);
  job.submitted = std::chrono::steady_clock::now();
  job.deadline = job_deadline(job.req, job.submitted);
  job.trace = tracer_->begin(job.req.trace_id);
  job.trace.request_id = job.req.request_id;
  job.trace.tenant = tenant;
  job.trace.req_class = cls;
  const Priority priority = job.req.priority;
  Submission<typename Req::Result> result;
  result.future = job.promise.get_future();
  job.trace.stamp(obs::Stage::kEnqueued);
  result.status = lane.queue.try_push(std::move(job), priority, tenant);
  if (result.status == SubmitStatus::kOk) {
    lane.counters.submitted.add(1);
  } else {
    lane.counters.rejected.add(1);
    result.future = {};
    if (result.status != SubmitStatus::kShutdown) {
      // Backoff hint: how long this lane needs to drain its current depth
      // at one batch per linger — never 0, a full queue always means wait.
      const std::uint64_t batches_ahead =
          lane.queue.size() / options_.max_batch + 1;
      result.retry_after_ms = static_cast<std::uint32_t>(std::max<
          std::uint64_t>(1, batches_ahead * options_.max_linger_us / 1000));
    }
  }
  return result;
}

Dispatcher::Dispatcher(engine::SamplerRegistry& registry,
                       DispatcherOptions options)
    : registry_(&registry), options_(options) {
  CGS_CHECK_MSG(options_.sign_lanes >= 1 && options_.verify_lanes >= 1 &&
                    options_.gauss_lanes >= 1,
                "dispatcher needs at least one lane of each kind");
  CGS_CHECK_MSG(options_.max_batch >= 1, "dispatcher needs max_batch >= 1");
  if (options_.obs_registry) {
    obs_ = options_.obs_registry;
  } else {
    owned_obs_ = std::make_unique<obs::Registry>();
    obs_ = owned_obs_.get();
  }
  tracer_ = std::make_unique<obs::Tracer>(*obs_, options_.trace);
  events_ = &obs_->events();
  // Key-state plumbing: one shared persistent store behind both per-tenant
  // caches, and a 60/40 byte-budget split (trees are the heavier artifact)
  // unless the caller budgeted a cache directly. When BOTH services already
  // have external stores wired, key_state.dir is moot: opening an owned
  // KvStore then would register cgs_kvstore_* series for a store no cache
  // touches, scraping as misleading zeros.
  if (!options_.key_state.dir.empty() &&
      (!options_.signing.key_state || !options_.verification.key_state)) {
    if (options_.key_state.events == nullptr)
      options_.key_state.events = events_;
    key_state_ = std::make_unique<store::KvStore>(options_.key_state);
    if (!options_.signing.key_state)
      options_.signing.key_state = key_state_.get();
    if (!options_.verification.key_state)
      options_.verification.key_state = key_state_.get();
  }
  if (options_.key_state_budget_bytes != 0) {
    if (!options_.signing.tree_cache.bounded())
      options_.signing.tree_cache.max_bytes =
          options_.key_state_budget_bytes * 3 / 5;
    if (!options_.verification.key_cache.bounded())
      options_.verification.key_cache.max_bytes =
          options_.key_state_budget_bytes * 2 / 5;
  }
  // The verify crew replaces the service's inner per-call fan-out: slices
  // already run concurrently (crew workers + thieving sign lanes), so the
  // service itself defaults to straight-line execution per slice.
  if (options_.verification.num_threads == 0)
    options_.verification.num_threads = 1;
  signing_ = std::make_unique<falcon::SigningService>(*registry_,
                                                      options_.signing);
  verifier_ =
      std::make_unique<falcon::VerificationService>(options_.verification);
  gaussian_ = std::make_unique<engine::GaussianService>(*registry_,
                                                        options_.gaussian);
  verify_crew_ =
      std::make_unique<TaskCrew>(std::max(0, options_.verify_steal_workers));
  QosQueueOptions qos;
  qos.capacity = options_.queue_capacity;
  qos.tenant_capacity = options_.tenant_capacity;
  qos.max_tenants = options_.max_tenant_slots;
  qos.age_promote_us = options_.age_promote_us;
  qos.drr_quantum = options_.drr_quantum;
  for_each_class(*this, [&]<class Policy>(LaneClass<Policy>& cls) {
    const std::string kind = Policy::kKind;
    for (int i = 0; i < Policy::lane_count(options_); ++i)
      cls.lanes.push_back(std::make_unique<Lane<typename Policy::Req>>(
          qos, *obs_, "cgs_serve_" + kind + "_lane" + std::to_string(i)));
    if (!options_.tenant_metrics) return;
    obs::FamilyOptions fam;
    fam.max_series = options_.tenant_series;
    cls.telemetry.requests = &obs_->counter_family(
        "cgs_tenant_" + kind + "_requests_total", fam);
    cls.telemetry.latency =
        &obs_->windowed_histogram("cgs_serve_" + kind + "_latency_us");
    cls.telemetry.slo_good = &obs_->counter("cgs_slo_" + kind + "_good_total");
    cls.telemetry.slo_bad = &obs_->counter("cgs_slo_" + kind + "_bad_total");
  });
  register_bridges();
  // Lanes start only after every queue exists — a lane thread never sees a
  // half-constructed dispatcher.
  for_each_class(*this, [this](auto& cls) {
    for (auto& lane : cls.lanes)
      lane->thread = std::thread(
          [this, &cls, l = lane.get()] { run_lane(cls, *l); });
  });
}

Dispatcher::~Dispatcher() { shutdown(); }

// Callback instruments that read dispatcher-owned state (queues, the
// services' cache stats). Registered once at construction, unregistered at
// shutdown so a scrape of an external registry after this dispatcher dies
// never chases dangling pointers — the owned lane counters stay behind,
// frozen at their final values.
void Dispatcher::register_bridges() {
  const auto gauge = [this](std::string name, std::function<double()> fn) {
    obs_->gauge_fn(name, std::move(fn));
    callback_metrics_.push_back(std::move(name));
  };
  const auto counter = [this](std::string name, std::function<double()> fn) {
    obs_->counter_fn(name, std::move(fn));
    callback_metrics_.push_back(std::move(name));
  };
  for_each_class(*this, [&](const auto& cls) {
    for (const auto& lane_ptr : cls.lanes) {
      const auto* lane = lane_ptr.get();
      gauge(lane->prefix + "_queue_depth",
            [lane] { return static_cast<double>(lane->queue.size()); });
      // The QosQueue policy counters, scraped alongside the depth so an
      // operator sees WHY a lane sheds, not just that it is deep.
      counter(lane->prefix + "_aged_promotions_total", [lane] {
        return static_cast<double>(lane->queue.stats().aged_promotions);
      });
      counter(lane->prefix + "_priority_inversions_total", [lane] {
        return static_cast<double>(lane->queue.stats().priority_inversions);
      });
      counter(lane->prefix + "_tenant_rejections_total", [lane] {
        return static_cast<double>(lane->queue.stats().tenant_rejections);
      });
      gauge(lane->prefix + "_tenant_slots", [lane] {
        return static_cast<double>(lane->queue.stats().tenant_slots);
      });
    }
  });

  counter("cgs_serve_verify_slices_stolen_total", [crew = verify_crew_.get()] {
    return static_cast<double>(crew->stolen());
  });

  const auto cache = [&](const std::string& name, auto stats_fn) {
    counter("cgs_cache_" + name + "_hits_total",
            [stats_fn] { return static_cast<double>(stats_fn().hits); });
    counter("cgs_cache_" + name + "_misses_total",
            [stats_fn] { return static_cast<double>(stats_fn().misses); });
    // The eviction bridge doubles as the eviction event source: the cache
    // itself has no hook, so the delta between scrapes becomes one
    // kCacheEviction event (a/b = entries/bytes after). Event granularity
    // is scrape granularity; the lifetime counter stays exact.
    counter("cgs_cache_" + name + "_evictions_total",
            [stats_fn, name, events = events_,
             last = std::make_shared<std::atomic<std::uint64_t>>(0)] {
              const auto st = stats_fn();
              const std::uint64_t prev = last->exchange(st.evictions);
              if (st.evictions > prev)
                events->emit(obs::EventKind::kCacheEviction, st.entries,
                             st.bytes, name);
              return static_cast<double>(st.evictions);
            });
    counter(
        "cgs_cache_" + name + "_warm_starts_total",
        [stats_fn] { return static_cast<double>(stats_fn().warm_starts); });
    gauge("cgs_cache_" + name + "_entries",
          [stats_fn] { return static_cast<double>(stats_fn().entries); });
    gauge("cgs_cache_" + name + "_bytes",
          [stats_fn] { return static_cast<double>(stats_fn().bytes); });
  };
  cache("ffldl_tree",
        [svc = signing_.get()] { return svc->tree_cache_stats(); });
  cache("ntt_key", [svc = verifier_.get()] { return svc->key_cache_stats(); });
  cache("recipe", [reg = registry_] { return reg->recipe_cache_stats(); });
  cache("netlist", [reg = registry_] { return reg->netlist_cache_stats(); });

  if (key_state_) {
    store::KvStore* kv = key_state_.get();
    counter("cgs_kvstore_gets_total",
            [kv] { return static_cast<double>(kv->stats().gets); });
    counter("cgs_kvstore_puts_total",
            [kv] { return static_cast<double>(kv->stats().puts); });
    counter("cgs_kvstore_compactions_total",
            [kv] { return static_cast<double>(kv->stats().compactions); });
    gauge("cgs_kvstore_file_bytes",
          [kv] { return static_cast<double>(kv->stats().file_bytes); });
    gauge("cgs_kvstore_entries",
          [kv] { return static_cast<double>(kv->stats().entries); });
  }

  counter("cgs_signing_base_calls_total", [svc = signing_.get()] {
    return static_cast<double>(svc->base_calls());
  });
  counter("cgs_signing_base_rejections_total", [svc = signing_.get()] {
    return static_cast<double>(svc->rejections());
  });
  counter("cgs_gauss_samples_served_total", [svc = gaussian_.get()] {
    return static_cast<double>(svc->samples_served());
  });
  gauge("cgs_gauss_streams", [svc = gaussian_.get()] {
    return static_cast<double>(svc->num_streams());
  });

  // Sampler-core provenance: how this process got its compiled kernels.
  counter("cgs_kernel_cache_hits_total", [] {
    return static_cast<double>(ct::kernel_cache_stats().hits);
  });
  counter("cgs_kernel_cache_compiles_total", [] {
    return static_cast<double>(ct::kernel_cache_stats().compiles);
  });
  obs_->histogram_ref("cgs_kernel_compile_ms", ct::kernel_compile_ms());
  callback_metrics_.push_back("cgs_kernel_compile_ms");
}

void Dispatcher::shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  for (const std::string& name : callback_metrics_) obs_->unregister(name);
  callback_metrics_.clear();
  for_each_class(*this, [](auto& cls) {
    for (auto& lane : cls.lanes) lane->queue.close();
  });
  for_each_class(*this, [](auto& cls) {
    for (auto& lane : cls.lanes)
      if (lane->thread.joinable()) lane->thread.join();
  });
}

std::uint64_t Dispatcher::add_key(falcon::KeyPair kp) {
  const std::uint64_t id = falcon::key_fingerprint(kp);
  std::lock_guard<std::mutex> lock(keys_mu_);
  auto it = keys_.find(id);
  if (it == keys_.end()) {
    keys_.emplace(id, std::move(kp));
  } else {
    // Same fingerprint must mean the same key material — a collision here
    // would route a tenant's messages to another tenant's tree.
    CGS_CHECK_MSG(it->second.f == kp.f && it->second.g == kp.g,
                  "key fingerprint collision between distinct tenant keys");
  }
  return id;
}

const falcon::KeyPair* Dispatcher::key(std::uint64_t key_id) const {
  std::lock_guard<std::mutex> lock(keys_mu_);
  auto it = keys_.find(key_id);
  return it == keys_.end() ? nullptr : &it->second;
}

// One completed request's class telemetry. The trace id rides along as
// the latency exemplar, so a scraped tail bucket can name a trace that
// actually landed in it.
void Dispatcher::record_class(const ClassTelemetry& t, std::uint64_t tenant,
                              std::uint64_t latency_us,
                              std::uint64_t trace_id) {
  if (t.requests == nullptr) return;
  t.requests->add(obs::LabelSet{{"tenant", obs::tenant_label(tenant)}});
  t.latency->record(latency_us, trace_id);
  (latency_us <= options_.slo_latency_us ? *t.slo_good : *t.slo_bad).add(1);
}

Submission<falcon::Signature> Dispatcher::submit(SignRequest req) {
  CGS_CHECK_MSG(key(req.key_id) != nullptr,
                "submit(SignRequest): key_id not registered (add_key first)");
  Lane<SignRequest>& lane =
      *sign_.lanes[mix64(req.key_id) % sign_.lanes.size()];
  const std::uint64_t tenant = req.key_id;
  return submit_impl(lane, std::move(req), obs::RequestClass::kSign, tenant);
}

Submission<bool> Dispatcher::submit(VerifyRequest req) {
  CGS_CHECK_MSG(
      key(req.key_id) != nullptr,
      "submit(VerifyRequest): key_id not registered (add_key first)");
  Lane<VerifyRequest>& lane =
      *verify_.lanes[mix64(req.key_id) % verify_.lanes.size()];
  const std::uint64_t tenant = req.key_id;
  return submit_impl(lane, std::move(req), obs::RequestClass::kVerify, tenant);
}

Submission<KeygenResult> Dispatcher::submit(KeygenRequest req) {
  // Tenant unknown until the solve finishes — the keygen lane fills it in
  // once the fingerprint exists.
  return submit_impl(*keygen_.lanes.front(), std::move(req),
                     obs::RequestClass::kKeygen, 0);
}

Submission<std::vector<std::int32_t>> Dispatcher::submit(GaussRequest req) {
  CGS_CHECK_MSG(req.n >= 1, "submit(GaussRequest): empty request");
  const std::uint64_t tenant = gauss_shard_key(req.sigma, req.center);
  Lane<GaussRequest>& lane = *gauss_.lanes[tenant % gauss_.lanes.size()];
  return submit_impl(lane, std::move(req), obs::RequestClass::kGauss, tenant);
}

template <class Policy>
void Dispatcher::run_lane(const LaneClass<Policy>& cls,
                          Lane<typename Policy::Req>& lane) {
  using JobT = Job<typename Policy::Req>;
  Policy policy{*this};
  MicroBatcher<JobT> batcher(lane.queue, options_.max_batch,
                             std::chrono::microseconds(options_.max_linger_us));
  policy.start(batcher);
  std::vector<JobT> batch;
  while (batcher.next_batch(batch)) {
    const std::uint64_t closed_us = obs::Trace::now_us();
    for (JobT& job : batch)
      job.trace.stamp_at(obs::Stage::kBatchClosed, closed_us);
    // Batch close is the one moment a lane inspects jobs anyway: work
    // whose budget already lapsed fails typed here instead of running late.
    const auto now = std::chrono::steady_clock::now();
    std::erase_if(batch, [&](JobT& job) {
      if (job.deadline > now) return false;
      lane.counters.expired.add(1);
      job.promise.set_exception(std::make_exception_ptr(DeadlineExpired()));
      return true;
    });
    std::map<typename Policy::Key, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < batch.size(); ++i)
      groups[policy.group_key(batch[i], i)].push_back(i);
    for (const auto& [key, group] : groups) {
      lane.counters.batches.add(1);
      lane.counters.batched.add(group.size());
      for (std::size_t i : group)
        batch[i].trace.stamp(obs::Stage::kEngineStart);
      try {
        auto results = policy.run_group(batch, group);
        for (std::size_t i : group)
          batch[i].trace.stamp(obs::Stage::kEngineEnd);
        for (std::size_t j = 0; j < group.size(); ++j) {
          JobT& job = batch[group[j]];
          const std::uint64_t latency = elapsed_us(job.submitted);
          lane.counters.latency.record(latency);
          record_class(cls.telemetry, job.trace.tenant, latency,
                       job.trace.trace_id);
          lane.counters.completed.add(1);
          job.trace.stamp(obs::Stage::kFulfilled);
          job.promise.set_value(std::move(results[j]));
          tracer_->finish(job.trace);
        }
      } catch (...) {
        const auto error = std::current_exception();
        for (std::size_t i : group) {
          lane.counters.failed.add(1);
          batch[i].promise.set_exception(error);
        }
      }
    }
  }
}

void Dispatcher::SignPolicy::start(MicroBatcher<Job<Req>>& batcher) {
  // While this lane's queue is empty, lend the thread to the verify crew:
  // a lingering verify batch's slices finish on otherwise-idle cores.
  batcher.set_idle_work(
      [crew = d.verify_crew_.get()] { return crew->try_help_one(); });
}

std::vector<falcon::Signature> Dispatcher::SignPolicy::run_group(
    std::vector<Job<Req>>& batch, Group group) {
  const falcon::KeyPair* kp = d.key(batch[group.front()].req.key_id);
  CGS_CHECK_MSG(kp != nullptr, "signing lane lost a registered key");
  std::vector<std::string_view> messages;
  messages.reserve(group.size());
  for (std::size_t i : group) messages.push_back(batch[i].req.message);
  return d.signing_->sign_many(*kp, messages);
}

// One verify pass per key runs the shared hash/NTT pipeline over the whole
// group against that key's cached NTT-domain public key.
std::vector<std::uint8_t> Dispatcher::VerifyPolicy::run_group(
    std::vector<Job<Req>>& batch, Group group) {
  const falcon::KeyPair* kp = d.key(batch[group.front()].req.key_id);
  CGS_CHECK_MSG(kp != nullptr, "verify lane lost a registered key");
  std::vector<std::string_view> messages;
  std::vector<falcon::Signature> sigs;
  messages.reserve(group.size());
  sigs.reserve(group.size());
  for (std::size_t i : group) {
    messages.push_back(batch[i].req.message);
    sigs.push_back(std::move(batch[i].req.sig));
  }
  const std::size_t slice =
      std::max<std::size_t>(1, d.options_.verify_steal_slice);
  if (group.size() <= slice)
    return d.verifier_->verify_many(kp->h, kp->params, messages, sigs);
  // Large groups split into crew slices: each task verifies a disjoint
  // subrange and writes a disjoint region of `verdicts`, so crew workers
  // (and thieving idle sign lanes) run them with no shared mutable state.
  // run() returns only when every slice is done — the lane thread itself
  // executes whatever was not stolen.
  std::vector<std::uint8_t> verdicts(group.size());
  const std::size_t tasks_n = (group.size() + slice - 1) / slice;
  std::vector<std::exception_ptr> errors(tasks_n);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(tasks_n);
  for (std::size_t t = 0; t < tasks_n; ++t) {
    const std::size_t begin = t * slice;
    const std::size_t count = std::min(slice, group.size() - begin);
    tasks.push_back([this, kp, &messages, &sigs, &verdicts, &errors, t, begin,
                     count] {
      try {
        const auto v = d.verifier_->verify_many(
            kp->h, kp->params,
            std::span<const std::string_view>(messages).subspan(begin, count),
            std::span<const falcon::Signature>(sigs).subspan(begin, count));
        std::copy(v.begin(), v.end(),
                  verdicts.begin() + static_cast<std::ptrdiff_t>(begin));
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  d.verify_crew_->run(std::move(tasks));
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  return verdicts;
}

void Dispatcher::KeygenPolicy::start(MicroBatcher<Job<Req>>&) {
#ifdef __linux__
  // Lowest scheduling priority: when keygen and a sign/verify lane compete
  // for a core, the solver always loses — the lane's isolation guarantee
  // is its own queue + thread, this makes it hold under CPU contention
  // too. (Best-effort: EPERM etc. just leaves the default priority.)
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)), 19);
#endif
}

// Keygens are independent multi-hundred-millisecond solves — there is
// nothing to batch, so every group is one job.
std::vector<KeygenResult> Dispatcher::KeygenPolicy::run_group(
    std::vector<Job<Req>>& batch, Group group) {
  Job<Req>& job = batch[group.front()];
  // A keygen start is a discrete, operationally loud happening (an NTRU
  // solve is about to eat a core for hundreds of ms) — exactly what the
  // event ring exists for.
  d.events_->emit(obs::EventKind::kKeygenStart, job.req.params.n, 0,
                  "keygen lane");
  prng::ChaCha20Source rng(job.req.seed);
  falcon::KeyPair kp = falcon::keygen(job.req.params, rng);
  std::vector<KeygenResult> out(1);
  out[0].params = kp.params;
  out[0].public_h = kp.h;
  out[0].key_id = d.add_key(std::move(kp));
  // The tenant only exists once the solve finishes — backfill the trace
  // so telemetry and the slow ring can still name it.
  job.trace.tenant = out[0].key_id;
  return out;
}

// One bulk sample() per distinct (sigma, center), split back across the
// requests afterwards.
std::vector<std::vector<std::int32_t>> Dispatcher::GaussPolicy::run_group(
    std::vector<Job<Req>>& batch, Group group) {
  const GaussRequest& head = batch[group.front()].req;
  std::size_t total = 0;
  for (std::size_t i : group) total += batch[i].req.n;
  const std::vector<std::int32_t> bulk =
      d.gaussian_->sample(head.sigma, head.center, total);
  std::vector<std::vector<std::int32_t>> out;
  out.reserve(group.size());
  auto from = bulk.begin();
  for (std::size_t i : group) {
    const auto n = static_cast<std::ptrdiff_t>(batch[i].req.n);
    out.emplace_back(from, from + n);
    from += n;
  }
  return out;
}

MetricsSnapshot Dispatcher::metrics() const {
  MetricsSnapshot snap;
  // Where each class lands in the snapshot, in for_each_class order.
  struct Slot {
    std::vector<LaneSnapshot>* lanes;
    double *p50, *p95, *p99;
  };
  const Slot slots[] = {
      {&snap.sign_lanes, &snap.p50_us, &snap.p95_us, &snap.p99_us},
      {&snap.verify_lanes, &snap.verify_p50_us, &snap.verify_p95_us,
       &snap.verify_p99_us},
      {&snap.keygen_lanes, &snap.keygen_p50_us, &snap.keygen_p95_us,
       &snap.keygen_p99_us},
      {&snap.gauss_lanes, &snap.gauss_p50_us, &snap.gauss_p95_us,
       &snap.gauss_p99_us}};
  const Slot* out = slots;
  for_each_class(*this, [&out](const auto& cls) {
    LatencyBuckets merged{};
    for (const auto& lane : cls.lanes) {
      LaneSnapshot ls;
      ls.submitted = lane->counters.submitted.value();
      ls.rejected = lane->counters.rejected.value();
      ls.completed = lane->counters.completed.value();
      ls.failed = lane->counters.failed.value();
      ls.expired = lane->counters.expired.value();
      ls.batches = lane->counters.batches.value();
      ls.batched = lane->counters.batched.value();
      ls.queue_depth = lane->queue.size();
      const QosQueueStats qos = lane->queue.stats();
      ls.aged_promotions = qos.aged_promotions;
      ls.priority_inversions = qos.priority_inversions;
      ls.tenant_rejections = qos.tenant_rejections;
      ls.tenant_slots = qos.tenant_slots;
      // One bucket snapshot per lane: all three quantiles and the merge
      // come from the same copy, so p50/p95/p99 agree about the total.
      const LatencyBuckets buckets = lane->counters.latency.snapshot();
      ls.p50_us = bucket_quantile(buckets, 0.50);
      ls.p95_us = bucket_quantile(buckets, 0.95);
      ls.p99_us = bucket_quantile(buckets, 0.99);
      for (std::size_t i = 0; i < merged.size(); ++i) merged[i] += buckets[i];
      out->lanes->push_back(ls);
    }
    *out->p50 = bucket_quantile(merged, 0.50);
    *out->p95 = bucket_quantile(merged, 0.95);
    *out->p99 = bucket_quantile(merged, 0.99);
    ++out;
  });
  snap.ffldl_tree_cache = signing_->tree_cache_stats();
  snap.ntt_key_cache = verifier_->key_cache_stats();
  snap.recipe_cache = registry_->recipe_cache_stats();
  snap.netlist_cache = registry_->netlist_cache_stats();
  snap.base_calls = signing_->base_calls();
  snap.base_rejections = signing_->rejections();
  snap.gauss_samples_served = gaussian_->samples_served();
  return snap;
}

std::vector<HealthComponent> Dispatcher::health() const {
  std::vector<HealthComponent> out;
  for_each_class(*this, [&]<class Policy>(const LaneClass<Policy>& cls) {
    double worst = 0;
    for (const auto& lane : cls.lanes)
      worst = std::max(worst,
                       static_cast<double>(lane->queue.size()) /
                           static_cast<double>(options_.queue_capacity));
    HealthComponent c;
    c.name = std::string(Policy::kKind) + "_queue";
    c.value = worst;
    c.ok = worst < 0.9;
    c.detail = "worst lane depth / capacity";
    out.push_back(std::move(c));
  });
  if (key_state_) {
    const store::KvStoreStats st = key_state_->stats();
    HealthComponent c;
    c.name = "kvstore_garbage";
    c.value = st.file_bytes == 0
                  ? 0.0
                  : 1.0 - static_cast<double>(st.live_bytes) /
                              static_cast<double>(st.file_bytes);
    // Compaction keeps the ratio near compact_garbage_ratio; a ratio
    // pinned far above it means compaction is failing (disk, rename).
    c.ok = c.value < 0.9;
    c.detail = "dead bytes / log bytes";
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace cgs::serve
