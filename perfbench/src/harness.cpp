#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t i = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

Summary summarize(std::vector<double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.p50 = quantile(values, 0.5);
  // The highest of these percentiles that still leaves ten samples beyond
  // it; below 20 samples the tail is the maximum.
  for (double pct : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (static_cast<double>(values.size()) * (1.0 - pct / 100.0) >= 10.0) {
      s.tail_pct = pct;
      s.tail = quantile(values, pct / 100.0);
      return s;
    }
  }
  s.tail_pct = 100.0;
  s.tail = *std::max_element(values.begin(), values.end());
  return s;
}

double windowed_rate(const std::vector<Op>& ops) {
  std::map<long, std::pair<double, double>> windows;  // second -> work, busy
  for (const Op& op : ops) {
    auto& w = windows[static_cast<long>(op.at_s)];
    w.first += op.work;
    w.second += op.busy_s;
  }
  std::vector<double> rates;
  for (const auto& [second, w] : windows)
    if (w.second > 0) rates.push_back(w.first / w.second);
  return median(std::move(rates));
}

double windowed_quantile_ms(const std::vector<Op>& ops, double q) {
  std::map<long, std::vector<double>> windows;
  std::vector<double> all;
  for (const Op& op : ops) {
    windows[static_cast<long>(op.at_s)].push_back(op.busy_s * 1e3);
    all.push_back(op.busy_s * 1e3);
  }
  std::vector<double> per_window;
  for (auto& [second, v] : windows)
    if (v.size() >= 20) per_window.push_back(quantile(std::move(v), q));
  return per_window.empty() ? quantile(std::move(all), q) : median(std::move(per_window));
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void Result::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
  std::fprintf(stderr, "perfbench: correctness failure: %s\n", why.c_str());
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "NaN";  // run.py rejects it
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

std::string Result::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(vu.first) +
           ", \"unit\": " + json_string(vu.second) + "}";
  }
  out += "}, \"detail\": {";
  first = true;
  for (const auto& [name, v] : detail) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": " + json_number(v);
  }
  out += "}, \"errors\": [";
  first = true;
  for (const auto& e : errors) {
    if (!first) out += ", ";
    first = false;
    out += json_string(e);
  }
  return out + "]}";
}

// ---------------------------------------------------------------- spans ---

std::uint64_t Tracer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

std::int64_t Tracer::open(const char* name, std::int64_t parent,
                          std::uint64_t request) {
  if (!on()) return -1;
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, t, 0, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::close(std::int64_t index) {
  if (index < 0) return;
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

std::int64_t Tracer::record(const char* name, std::uint64_t start_ns,
                            std::uint64_t end_ns, std::int64_t parent,
                            std::uint64_t request) {
  if (!on()) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, LayerTime> Tracer::layer_times() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of each span, as [start, end) intervals.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0 && s.end_ns >= s.start_ns)
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});

  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns) continue;  // never closed
    // Self time: the span minus the union of its children, clipped to it.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open_iv = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (open_iv && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open_iv) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open_iv = true;
      }
    }
    if (open_iv) covered += cur_hi - cur_lo;
    const double total_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    const double self_us = total_us - static_cast<double>(covered) / 1e3;
    LayerTime& lt = out[s.name];
    ++lt.count;
    lt.total_ms += total_us / 1e3;
    lt.self_ms += self_us / 1e3;
    lt.self_us.push_back(self_us);
  }
  return out;
}

void Tracer::write(const std::string& prefix) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream f(prefix + ".jsonl");
    for (const Span& s : spans_) {
      f << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
    }
  }
  std::ofstream f(prefix + "-layers.json");
  f << "{";
  bool first = true;
  for (const auto& [name, lt] : layer_times()) {
    f << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"count\": " << lt.count
      << ", \"busy_ms\": " << lt.self_ms << ", \"wait_ms\": " << lt.total_ms - lt.self_ms
      << ", \"median_self_us\": " << median(lt.self_us) << "}";
    first = false;
  }
  f << "\n}\n";
}

double median_self_us(const std::map<std::string, LayerTime>& layers,
                      const std::string& name) {
  const auto it = layers.find(name);
  return it == layers.end() ? 0.0 : median(it->second.self_us);
}

}  // namespace perfbench
