#include "wire_stack.h"

#include <utility>

namespace perfbench {

WireStack::WireStack(cgs::engine::SamplerRegistry& registry,
                     const Budget& budget, std::uint64_t root_seed,
                     Tracer& tracer)
    : tracer_(tracer) {
  cgs::serve::DispatcherOptions d;
  d.sign_lanes = budget.sign_lanes;
  d.verify_lanes = budget.verify_lanes;
  d.gauss_lanes = budget.gauss_lanes;
  d.verify_steal_workers = budget.verify_steal_workers;
  d.signing.num_threads = budget.signing_workers;
  d.signing.root_seed = root_seed;
  d.verification.num_threads = budget.verify_threads;
  d.gaussian.num_threads = budget.engine_threads;
  d.gaussian.root_seed = root_seed + 1;
  dispatcher_ = std::make_unique<cgs::serve::Dispatcher>(registry, d);

  pool_ = std::make_unique<cgs::serve::CompletionPool>(budget.completion_threads);

  cgs::net::ServerOptions s;
  s.reactors = budget.reactors;
  server_ = std::make_unique<cgs::net::Server>(
      [this](cgs::net::ResponseToken token, std::vector<std::uint8_t> frame) {
        Scope span(tracer_, "router.admit");
        cgs::serve::route_frame(*dispatcher_, *pool_, std::move(token),
                                std::move(frame));
      },
      s);
}

WireStack::~WireStack() { shutdown(); }

void WireStack::shutdown() {
  if (server_) server_->shutdown();
  if (pool_) pool_->join();
  if (dispatcher_) dispatcher_->shutdown();
}

}  // namespace perfbench
