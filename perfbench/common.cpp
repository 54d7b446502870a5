#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "bench.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

bool ResultLog::record(std::size_t key, const std::vector<double>& values) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, fresh] = results_.emplace(key, values);
  return fresh || same_bits(it->second, values);
}

std::vector<std::pair<std::size_t, std::vector<double>>> ResultLog::sample(
    std::uint64_t seed, std::size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::size_t, std::vector<double>>> all(
      results_.begin(), results_.end());
  Rng rng(seed);
  std::vector<std::pair<std::size_t, std::vector<double>>> out;
  while (out.size() < n && !all.empty()) {
    const std::size_t k = rng.between(0, all.size() - 1);
    out.push_back(std::move(all[k]));
    all.erase(all.begin() + static_cast<std::ptrdiff_t>(k));
  }
  return out;
}

void Trace::add(const obs::Snapshot& s) {
  for (const auto& [name, v] : s.counters) counters[name] += v;
  for (const auto& [path, t] : s.timers) {
    timers[path].count += t.count;
    timers[path].total_ns += t.total_ns;
  }
  for (const auto& [name, d] : s.distributions) {
    auto& acc = values[name];
    acc.first += d.count;
    acc.second += d.mean * static_cast<double>(d.count);
  }
}

void Trace::add(const Trace& t) {
  for (const auto& [name, v] : t.counters) counters[name] += v;
  for (const auto& [path, s] : t.timers) {
    timers[path].count += s.count;
    timers[path].total_ns += s.total_ns;
  }
  for (const auto& [name, d] : t.values) {
    values[name].first += d.first;
    values[name].second += d.second;
  }
}

Trace Trace::minus(const Trace& before) const {
  Trace out = *this;
  for (const auto& [name, v] : before.counters) out.counters[name] -= v;
  for (const auto& [path, s] : before.timers) {
    out.timers[path].count -= s.count;
    out.timers[path].total_ns -= s.total_ns;
  }
  for (const auto& [name, d] : before.values) {
    out.values[name].first -= d.first;
    out.values[name].second -= d.second;
  }
  return out;
}

std::uint64_t Trace::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double Trace::span_s(const std::set<std::string>& names) const {
  std::uint64_t ns = 0;
  for (const auto& [path, stat] : timers) {
    // Walk the '/'-joined path; keep it when its last segment is in
    // `names` and no earlier segment is.
    std::size_t start = 0;
    std::size_t hits = 0;
    bool last = false;
    for (;;) {
      const std::size_t slash = path.find('/', start);
      last = names.count(path.substr(
                 start, slash == std::string::npos ? std::string::npos
                                                   : slash - start)) > 0;
      if (last) ++hits;
      if (slash == std::string::npos) break;
      start = slash + 1;
    }
    if (last && hits == 1) ns += stat.total_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

double Trace::value_mean(const std::string& name) const {
  const auto it = values.find(name);
  if (it == values.end() || it->second.first == 0) return 0.0;
  return it->second.second / static_cast<double>(it->second.first);
}

Trace trace_of(const obs::Registry& reg) {
  Trace t;
  t.add(reg.snapshot());
  return t;
}

void LegResult::merge(const LegResult& o) {
  attempted += o.attempted;
  failed += o.failed;
  latency_ms.insert(latency_ms.end(), o.latency_ms.begin(),
                    o.latency_ms.end());
  wall_s += o.wall_s;
  trace.add(o.trace);
}

LegResult closed_loop(
    std::size_t callers, const LegOptions& leg,
    const std::function<double(std::size_t, std::size_t)>& call) {
  struct PerCaller {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    double samples = 0.0;
    double elapsed_s = 0.0;
    std::vector<double> latency_ms;
  };
  std::vector<PerCaller> per(callers);
  std::atomic<std::size_t> next{leg.first_call};
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(leg.seconds));

  auto body = [&](std::size_t c) {
    PerCaller& me = per[c];
    while (Clock::now() < deadline) {
      const std::size_t idx = next.fetch_add(1);
      ++me.attempted;
      const Clock::time_point s = Clock::now();
      double done = -1.0;
      try {
        done = call(c, idx);
      } catch (const std::exception&) {
        done = -1.0;
      }
      me.latency_ms.push_back(seconds_since(s) * 1e3);
      if (done < 0.0) {
        ++me.failed;
      } else {
        me.samples += done;
      }
    }
    me.elapsed_s = seconds_since(t0);
  };
  std::vector<std::thread> threads;
  threads.reserve(callers);
  for (std::size_t c = 1; c < callers; ++c) threads.emplace_back(body, c);
  body(0);
  for (std::thread& t : threads) t.join();

  LegResult out;
  out.wall_s = seconds_since(t0);
  for (const PerCaller& p : per) {
    out.attempted += p.attempted;
    out.failed += p.failed;
    out.latency_ms.insert(out.latency_ms.end(), p.latency_ms.begin(),
                          p.latency_ms.end());
    out.calls_per_s +=
        static_cast<double>(p.latency_ms.size()) / p.elapsed_s;
    out.samples_per_s += p.samples / p.elapsed_s;
  }
  return out;
}

std::size_t hardware_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 1;
}

}  // namespace perfbench
