#pragma once
// Shared plumbing for the perfbench workloads: command-line options, the
// steady clock, latency summaries, peak RSS, the in-memory span recorder
// used by traced runs, and the result record every workload fills.
//
// A workload reports two kinds of numbers:
//   - metrics: the names listed in BENCHMARK.json (end-to-end names on an
//     untraced run, per-layer names on a traced run), each with its unit;
//   - detail: workload-specific figures for a human reader (the
//     workload's own metric names, sample counts, thread budget).
// perfbench/run.py checks the metrics against BENCHMARK.json before it
// prints the final record.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// wire_mixed's fixed absolute arrival rate, requests per second.
  double wire_rate = 0;
  /// Where traced runs write their span files.
  std::string work_dir = ".";
};

/// Times every workload repeats its set-up; setup_s is the median.
constexpr int kSetupReps = 3;

/// Explicit thread and connection budget shared by every workload, so no
/// count drifts with std::thread::hardware_concurrency(). Recorded in the
/// detail beside the machine's nproc.
struct Budget {
  int signing_workers = 4;       // SigningService workers
  int verify_threads = 4;        // VerificationService fan-out
  int engine_threads = 4;        // GaussianService / engine workers
  int load_threads = 4;          // the benchmark's own load generators
  int sign_lanes = 2;            // dispatcher lanes
  int verify_lanes = 1;
  int gauss_lanes = 1;
  int verify_steal_workers = 1;
  int reactors = 1;              // net::Server event loops
  int completion_threads = 4;    // serve::CompletionPool
};

/// Median and the highest percentile with at least ten samples beyond it.
struct Summary {
  std::size_t count = 0;
  double p50 = 0;
  double tail = 0;          // the tail percentile's value
  double tail_pct = 0;      // which percentile `tail` is (99 when count >= 1000)
};
Summary summarize(std::vector<double> values);
/// The q-quantile (0..1) by nearest rank; 0 on an empty input.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// One timed operation: when it started (seconds into the loop, or its
/// scheduled send time in an open loop), how much work it did and how
/// long it took (for an open loop, its latency).
struct Op {
  double at_s = 0;
  double work = 0;
  double busy_s = 0;
};
/// Work per busy second, computed per one-second window of the loop and
/// reported as the median over windows: a disturbance that slows the box
/// for a second or two moves one window, not the figure.
double windowed_rate(const std::vector<Op>& ops);
/// The q-quantile of the operations' busy time in ms, computed per
/// one-second window (by `at_s`) and reported as the median over windows
/// (windows with fewer than 20 operations are skipped; if none is left,
/// all operations form one window).
double windowed_quantile_ms(const std::vector<Op>& ops, double q);

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();

/// The workload's result: metrics by name (value, unit), free-form
/// detail, and the operation ledger.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> detail;
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a correctness failure; the run exits nonzero.
  void fail(const std::string& why);
  /// One JSON object on one line.
  std::string to_json() const;
};

// ---------------------------------------------------------------- spans ---

/// One recorded span: a call from the benchmark into one module.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;      // index of the enclosing span, -1 = root
  std::uint64_t request = 0;     // request id; spans of one request share it
};

/// Per-name totals over a run: how many spans, their summed duration, and
/// their self time (duration minus the part covered by child spans). The
/// difference total - self is time the layer spent waiting on its
/// children.
struct LayerTime {
  std::size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
  std::vector<double> self_us;  // per-span self time, for medians
};

/// In-memory span recorder. Off by default: every call is one branch.
/// When on, spans are kept in memory and written out when the run ends.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool on() const { return on_.load(std::memory_order_relaxed); }
  /// Pauses or resumes recording (a traced run measures an untraced
  /// phase first).
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  static std::uint64_t now_ns();

  /// Opens a span and returns its index (-1 when off).
  std::int64_t open(const char* name, std::int64_t parent = -1,
                    std::uint64_t request = 0);
  void close(std::int64_t index);
  /// Records a span whose start and end were stamped by the caller.
  std::int64_t record(const char* name, std::uint64_t start_ns,
                      std::uint64_t end_ns, std::int64_t parent = -1,
                      std::uint64_t request = 0);

  std::map<std::string, LayerTime> layer_times() const;
  /// Writes `<prefix>.jsonl`, one span per line (name, start_ns, end_ns,
  /// parent, request), and `<prefix>-layers.json`, per span name: count,
  /// busy_ms (self time), wait_ms (time covered by children) and the
  /// median self time in us.
  void write(const std::string& prefix) const;

 private:
  std::atomic<bool> on_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t parent = -1,
        std::uint64_t request = 0)
      : tracer_(tracer), index_(tracer.open(name, parent, request)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t index_;
};

/// Median self time in microseconds of the spans named `name` (0 when
/// there are none).
double median_self_us(const std::map<std::string, LayerTime>& layers,
                      const std::string& name);

// ------------------------------------------------------------ workloads ---

Result run_sign_batch(const Options& opt);
Result run_gauss_bulk(const Options& opt);
Result run_wire_mixed(const Options& opt);

}  // namespace perfbench
