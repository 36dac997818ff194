#pragma once
// The one place the benchmark wires the serving stack together:
// DispatcherOptions, the CompletionPool, and the net::Server whose frame
// callback hands each frame to serve::route_frame. Changes to that wiring
// (a new completion path, a different lane layout) touch this file only;
// the workload itself talks to the stack through request frames and
// Dispatcher::submit.

#include <cstdint>
#include <memory>

#include "engine/registry.h"
#include "harness.h"
#include "net/server.h"
#include "serve/dispatcher.h"
#include "serve/router.h"

namespace perfbench {

class WireStack {
 public:
  /// Builds dispatcher, completion pool and server with every thread
  /// count taken from `budget`. `tracer` (not owned) records one
  /// router.admit span per frame: callback entry to route_frame return.
  WireStack(cgs::engine::SamplerRegistry& registry, const Budget& budget,
            std::uint64_t root_seed, Tracer& tracer);
  ~WireStack();
  WireStack(const WireStack&) = delete;
  WireStack& operator=(const WireStack&) = delete;

  cgs::serve::Dispatcher& dispatcher() { return *dispatcher_; }
  std::uint16_t port() const { return server_->port(); }
  cgs::net::ServerStats server_stats() const { return server_->stats(); }

  /// Server first (stop reading, deliver owed replies), then the pool
  /// whose tasks hold response tokens, then the dispatcher. Idempotent.
  void shutdown();

 private:
  Tracer& tracer_;
  std::unique_ptr<cgs::serve::Dispatcher> dispatcher_;
  std::unique_ptr<cgs::serve::CompletionPool> pool_;
  std::unique_ptr<cgs::net::Server> server_;
};

}  // namespace perfbench
