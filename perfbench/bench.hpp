// Shared vocabulary of the end-to-end benchmark (README.md in this
// directory): the workload interface main.cpp runs, the closed-loop leg
// every workload measures with, and the merged obs trace the per-layer
// metrics are read from.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/session.hpp"
#include "obs/registry.hpp"

namespace perfbench {

namespace obs = lcsf::obs;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// SplitMix64 finalizer: derives independent per-call / per-item seeds
/// from the workload seed, so the same --seed gives the same inputs.
inline std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Small deterministic generator for building workload inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(mix(seed)) {}
  std::uint64_t next() { return state_ = mix(state_); }
  /// Uniform integer in [lo, hi].
  std::size_t between(std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(next() % (hi - lo + 1));
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Bitwise equality of two result vectors.
inline bool same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Per-call results of a workload, keyed by call index (or deck). A key
/// that runs again, in any leg, must reproduce its result bit for bit.
/// Thread-safe: callers of a closed loop record concurrently.
class ResultLog {
 public:
  /// Keep `values` under `key`; false when a repeat differs.
  bool record(std::size_t key, const std::vector<double>& values);
  /// Up to `n` recorded entries, drawn with `seed`.
  std::vector<std::pair<std::size_t, std::vector<double>>> sample(
      std::uint64_t seed, std::size_t n) const;

 private:
  mutable std::mutex mu_;
  std::map<std::size_t, std::vector<double>> results_;
};

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Counters, span timers and value distributions merged from any number
/// of obs registries (one per caller thread, or a before/after delta of
/// a long-lived one).
struct Trace {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, obs::TimerStat> timers;  ///< by full span path
  /// name -> (observations, sum of observed values)
  std::map<std::string, std::pair<std::uint64_t, double>> values;

  void add(const obs::Snapshot& s);
  void add(const Trace& t);
  /// this - before, for registries that outlive one leg.
  Trace minus(const Trace& before) const;

  std::uint64_t counter(const std::string& name) const;
  /// Total seconds in spans named by any of `names`, outermost ones
  /// only: a span nested inside another span of the set is already part
  /// of its parent's time.
  double span_s(const std::set<std::string>& names) const;
  double value_mean(const std::string& name) const;
};

Trace trace_of(const obs::Registry& reg);

/// How one measured leg of a workload runs.
struct LegOptions {
  double seconds = 1.0;  ///< closed-loop duration
  /// false: the workload's own layout (callers() callers, each call on
  /// call_threads() Session threads); true: one caller, one thread --
  /// the layout wall shares are read from.
  bool serial = false;
  bool traced = false;   ///< record into obs registries
  /// Index of the leg's first call. Untraced legs of one run use
  /// disjoint ranges, so they draw different inputs; a traced leg repeats
  /// the range of the untraced leg before it.
  std::size_t first_call = 0;
};

/// What one leg measured.
struct LegResult {
  std::size_t attempted = 0;  ///< calls started
  std::size_t failed = 0;     ///< exceptions, error responses, bad output
  std::vector<double> latency_ms;  ///< one per completed call
  double wall_s = 0.0;             ///< until the last caller finished
  /// Completed calls and work samples (README.md) per second, summed
  /// over callers, each caller timed from the leg's start to the end of
  /// its own last call -- so the stragglers' overshoot past the deadline
  /// does not dilute the rate. Per leg: merge() leaves them alone.
  double calls_per_s = 0.0;
  double samples_per_s = 0.0;
  Trace trace;                ///< filled when traced

  void merge(const LegResult& o);
};

/// Run `call(caller, index)` from `callers` threads in a closed loop for
/// `leg.seconds`: each caller issues its next call only when the previous
/// one returned. Call indices are handed out in order from
/// `leg.first_call`, so call k gets the same inputs whichever caller runs
/// it. `call` returns the number of work samples it completed, or a
/// negative number when it failed.
LegResult closed_loop(std::size_t callers, const LegOptions& leg,
                      const std::function<double(std::size_t,
                                                 std::size_t)>& call);

/// A workload: built from the seed, set up (timed by main.cpp, several
/// times), measured in legs, then checked.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Load caller threads or connections used for the untraced leg.
  virtual std::size_t callers() const = 0;
  /// Session threads each call asks for in the untraced leg.
  virtual std::size_t call_threads() const = 0;
  /// All Session::load / deck-parse work that precedes measurement.
  /// main.cpp calls it several times and times each, after teardown().
  virtual void setup() = 0;
  /// Release what setup() built, so the next setup starts from nothing
  /// and is timed without the release.
  virtual void teardown() {}
  /// The designs the workload loads (api.load_ms times Session::load on
  /// each of them).
  virtual std::vector<lcsf::api::DesignSpec> load_specs() const = 0;
  /// One closed-loop leg.
  virtual LegResult run(const LegOptions& opt) = 0;
  /// Post-run output checks (thread/batch invariance on a seeded subset,
  /// server vs Session, cold vs warm, ...). Returns the number of calls
  /// whose check failed; each also counts as a failed call.
  virtual std::size_t verify() = 0;
  /// Accuracy guard (README.md, delay_err_pct), outside the timed loop.
  virtual double delay_err_pct() = 0;
  /// Per-layer figures only this workload can produce (serve cache).
  virtual std::map<std::string, double> extra_layers() { return {}; }
};

std::unique_ptr<Workload> make_path_mc(std::uint64_t seed);
std::unique_ptr<Workload> make_graph_mc(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed);
std::unique_ptr<Workload> make_deck_transient(std::uint64_t seed);

/// `n` seeded decks of the deck_transient generator, for the parse probe.
std::vector<std::string> probe_decks(std::uint64_t seed, std::size_t n);

/// Accuracy guard shared by the circuit workloads: mean
/// |framework - SPICE| / SPICE in percent of the path delay, over `n`
/// fixed (seed-independent) samples of the circuit's longest path.
double held_set_error_pct(const std::string& circuit, std::size_t n);

/// Probe results: per-layer metric name -> value (README.md lists them).
std::map<std::string, double> run_probes(std::uint64_t seed);

/// CPUs this process may run on (`nproc`): the cap on load threads and
/// connections, and the Session thread count of the parallel workloads.
std::size_t hardware_threads();

}  // namespace perfbench
