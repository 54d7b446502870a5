// lcsf_perfbench: one workload, one seed, one run.
//
//   lcsf_perfbench --workload <path_mc|graph_mc|serve_mix|deck_transient>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// measures the per-layer metrics from traced legs and probes. Either way
// the run checks its outputs. It prints a machine fingerprint, a table
// of every metric by name and unit, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit code 0 when every
// check passed, 1 when a call or a check failed, 2 on bad usage or a
// build type other than the pinned one. README.md documents the
// workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "stats/analysis.hpp"

// CMakeLists.txt defines PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
// PERFBENCH_COMPILER and PERFBENCH_LCSF_OBS for the fingerprint.

namespace perfbench {

namespace {

constexpr const char* kPinnedBuildType = "Release";
/// The untraced timed phase is split into this many legs; setup_s is
/// the median of the 2 setups before it and the 2 after each leg.
constexpr int kSegments = 8;
/// Call-index range of a leg. Untraced legs draw disjoint ranges; a
/// traced leg repeats the range of the untraced leg before it.
constexpr std::size_t kCallsPerLeg = 1000000;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "lcsf_perfbench: %s\n"
               "usage: lcsf_perfbench --workload <path_mc|graph_mc|"
               "serve_mix|deck_transient> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("bad --seed");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a.seconds >= 1.0) ||
          a.seconds > 60.0) {
        usage("--seconds must be a number in [1, 60]");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      a.trace = val == "1" ? 1 : 0;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "path_mc") return make_path_mc(seed);
  if (name == "graph_mc") return make_graph_mc(seed);
  if (name == "serve_mix") return make_serve_mix(seed);
  if (name == "deck_transient") return make_deck_transient(seed);
  usage(("unknown workload " + name).c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Keep every core busy for `seconds`. Idle virtual CPUs take about a
/// second to come back to full speed; without this the first setups and
/// calls of a run read several times slower than the rest.
void spin_up(double seconds) {
  const Clock::time_point t0 = Clock::now();
  auto spin = [&] {
    volatile double x = 1.0;
    while (seconds_since(t0) < seconds) {
      for (int i = 0; i < 10000; ++i) x = x * 1.0000001 + 1e-9;
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t k = 1; k < hardware_threads(); ++k) {
    threads.emplace_back(spin);
  }
  spin();
  for (std::thread& t : threads) t.join();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// `name` as a JSON string, or null when it is not set.
std::string env_json(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? "null" : "\"" + std::string(v) + "\"";
}

/// call_threads is what the workload's calls run on; batch is the
/// resolved default batch width, which calls asking for batch 0 use.
/// LCSF_THREADS and LCSF_BATCH are echoed because they change both.
void print_fingerprint(const Args& a, const Workload& w) {
  std::printf(
      "# fingerprint {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %zu, \"callers\": %zu, "
      "\"call_threads\": %zu, \"batch\": %zu, \"LCSF_THREADS\": %s, "
      "\"LCSF_BATCH\": %s, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"lcsf_obs\": %d}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace, hardware_threads(), w.callers(), w.call_threads(),
      lcsf::stats::default_batch(), env_json("LCSF_THREADS").c_str(),
      env_json("LCSF_BATCH").c_str(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, PERFBENCH_LCSF_OBS);
}

/// Per-layer metrics of a traced run (README.md has the table).
std::vector<Metric> layer_metrics(const LegResult& traced_all,
                                  const LegResult& traced_parallel,
                                  const LegResult& serial,
                                  double overhead_frac, double load_ms,
                                  std::map<std::string, double> extra,
                                  std::map<std::string, double> probes) {
  const Trace& t = traced_all.trace;
  const double calls = static_cast<double>(traced_all.latency_ms.size());
  auto per_call = [&](const char* c) {
    return ratio(static_cast<double>(t.counter(c)), calls);
  };
  auto count = [&](const char* c) {
    return static_cast<double>(t.counter(c));
  };
  auto share = [&](const char* leaf) {
    return ratio(serial.trace.span_s({leaf}), serial.wall_s);
  };
  const double busy = traced_parallel.trace.span_s(
      {"teta.stage", "teta.stage_batch", "graph_block_models",
       "spice.transient"});
  const double capacity =
      traced_parallel.wall_s * static_cast<double>(hardware_threads());
  const double hits = count("stats.graph.stage_cache_hits");

  std::vector<Metric> m = {
      {"teta.transients", per_call("teta.transients"), "1/call"},
      {"teta.chord_iterations_per_transient",
       ratio(count("teta.chord_iterations"), count("teta.transients")),
       "count"},
      {"teta.dt_halvings", per_call("teta.dt_halvings"), "1/call"},
      {"teta.failed_transients", per_call("teta.failed_transients"),
       "1/call"},
      {"teta.stage_batch_share", share("teta.stage_batch"), "frac"},
      {"teta.stage_share", share("teta.stage"), "frac"},
      {"numeric.lu_solve_ns", probes["numeric.lu_solve_ns"], "ns"},
      {"numeric.lu_solve_flops", probes["numeric.lu_solve_flops"],
       "flop/call"},
      {"numeric.lu_solve_bytes", probes["numeric.lu_solve_bytes"], "B/call"},
      {"circuit.mosfet_eval_ns", probes["circuit.mosfet_eval_ns"], "ns"},
      {"circuit.mosfet_eval_flops", probes["circuit.mosfet_eval_flops"],
       "flop/call"},
      {"circuit.mosfet_eval_bytes", probes["circuit.mosfet_eval_bytes"],
       "B/call"},
      {"teta.history_ns", probes["teta.history_ns"], "ns"},
      {"teta.history_flops", probes["teta.history_flops"], "flop/call"},
      {"teta.history_bytes", probes["teta.history_bytes"], "B/call"},
      {"core.measure_stage_us", probes["core.measure_stage_us"], "us"},
      {"core.measure_stage_batch_us_per_lane",
       probes["core.measure_stage_batch_us_per_lane"], "us"},
      {"core.graph.stage_cache_hit_frac",
       ratio(hits, hits + count("stats.graph.stages_simulated")), "frac"},
      {"core.graph.block_models_ms", probes["core.graph.block_models_ms"],
       "ms"},
      {"mor.rom_evaluations", per_call("mor.rom_evaluations"), "1/call"},
      {"mor.poleres_us", probes["mor.poleres_us"], "us"},
      {"mor.stabilize_us", probes["mor.stabilize_us"], "us"},
      {"mor.dropped_poles", per_call("mor.dropped_poles"), "1/call"},
      {"mor.beta_rescales", per_call("mor.beta_rescales"), "1/call"},
      {"mor.characterize_ms", probes["mor.characterize_ms"], "ms"},
      {"stats.mc.batch_fill_mean", t.value_mean("stats.mc.batch_fill"),
       "lanes"},
      {"stats.mc.batch_remainder_samples",
       per_call("stats.mc.batch_remainder_samples"), "1/call"},
      {"stats.ga.probes", per_call("stats.ga.probes"), "1/call"},
      {"stats.yield_is.samples", per_call("stats.yield_is.samples"),
       "1/call"},
      {"runtime.pool_spawn_us", probes["runtime.pool_spawn_us"], "us"},
      {"runtime.lane_busy_frac", ratio(busy, capacity), "frac"},
      {"api.load_ms", load_ms, "ms"},
      {"serve.decode_us", probes["serve.decode_us"], "us"},
      {"serve.encode_us", probes["serve.encode_us"], "us"},
  };
  for (const char* type : {"load_warm", "load_cold", "monte_carlo",
                           "gradients", "yield", "metrics"}) {
    const std::string name = std::string("serve.dispatch_ms.") + type;
    m.push_back({name, probes[name], "ms"});
  }
  const std::vector<Metric> tail = {
      {"serve.transport_ms", probes["serve.transport_ms"], "ms"},
      {"serve.cache.hit_frac", extra["serve.cache.hit_frac"], "frac"},
      {"serve.cache.evictions", extra["serve.cache.evictions"], "1/request"},
      {"circuit.parse_us_per_device", probes["circuit.parse_us_per_device"],
       "us"},
      {"spice.newton_per_step",
       ratio(count("spice.newton_iterations"), count("spice.steps")),
       "count"},
      {"spice.refactor_frac",
       ratio(count("spice.lu_refactors"),
             count("spice.lu_refactors") + count("spice.lu_full_factors")),
       "frac"},
      {"spice.transient_share", share("spice.transient"), "frac"},
      {"obs.trace_overhead_frac", overhead_frac, "frac"},
      {"obs.spans_dropped", count("obs.spans_dropped"), "count"},
  };
  m.insert(m.end(), tail.begin(), tail.end());
  return m;
}

int run(const Args& a) {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, kPinnedBuildType) != 0) {
    std::fprintf(stderr,
                 "lcsf_perfbench: built as %s, but the benchmark pins %s; "
                 "refusing to measure\n",
                 PERFBENCH_BUILD_TYPE, kPinnedBuildType);
    return 2;
  }
  if (!PERFBENCH_LCSF_OBS) {
    std::fprintf(stderr,
                 "lcsf_perfbench: the library was built with LCSF_OBS=OFF; "
                 "the traced legs need it ON\n");
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  print_fingerprint(a, *w);

  spin_up(1.5);

  std::vector<double> setups;
  auto timed_setup = [&] {
    w->teardown();
    const Clock::time_point t0 = Clock::now();
    w->setup();
    setups.push_back(seconds_since(t0));
  };
  timed_setup();
  timed_setup();

  // A traced leg repeats the calls of the untraced leg before it, so
  // each call it reaches must reproduce the untraced result bit for bit
  // (the workloads' ResultLog checks this as the calls run).
  std::size_t next_first = 0;
  std::size_t last_first = 0;
  auto leg = [&](double seconds, bool serial, bool traced) {
    if (!traced) {
      last_first = next_first;
      next_first += kCallsPerLeg;
    }
    return w->run(LegOptions{seconds, serial, traced, last_first});
  };
  // Let caches fill and lazy set-up finish before anything is timed. Its
  // calls count as attempted and failed, but their latencies are dropped.
  const LegResult warm = leg(std::min(1.0, 0.1 * a.seconds), false, false);

  std::vector<Metric> metrics;
  std::size_t attempted = warm.attempted;
  std::size_t failed = warm.failed;
  if (a.trace == 0) {
    // The timed phase runs in legs with two more setups after each, so
    // the setup samples are spread over the run rather than taken in one
    // burst at process start. Rates are the median over the legs, so a
    // burst of load from outside the process in one leg does not move
    // them.
    LegResult r;
    std::vector<double> calls_rate, samples_rate;
    for (int seg = 0; seg < kSegments; ++seg) {
      const LegResult s = leg(a.seconds / kSegments, false, false);
      calls_rate.push_back(s.calls_per_s);
      samples_rate.push_back(s.samples_per_s);
      r.merge(s);
      timed_setup();
      timed_setup();
    }
    const std::size_t check_failed = w->verify();
    attempted += r.attempted;
    // A failed check marks calls already counted as attempted; a call
    // that failed both ways counts once.
    failed = std::min(attempted, failed + r.failed + check_failed);
    metrics = {
        {"setup_s", median(setups), "s"},
        {"calls_per_s", median(calls_rate), "1/s"},
        {"call_ms_p50", quantile(r.latency_ms, 0.5), "ms"},
        {"call_ms_p90", quantile(r.latency_ms, 0.9), "ms"},
        {"samples_per_s", median(samples_rate), "1/s"},
        {"ok_frac", 1.0 - ratio(static_cast<double>(failed),
                                static_cast<double>(attempted)),
         "frac"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"delay_err_pct", w->delay_err_pct(), "%"},
    };
    if (r.latency_ms.size() < 100) {
      std::printf("# warning: %zu calls; call_ms_p90 wants at least 100\n",
                  r.latency_ms.size());
    }
  } else {
    // Untraced and traced legs alternate, so drift hits both alike; the
    // gap between their median call latencies is the tracing overhead.
    // Wall shares come from a serial (one caller, one thread) traced leg,
    // never from lane-summed timers. It repeats the calls of the last
    // untraced leg, now on one thread.
    LegResult untraced, traced;
    for (int round = 0; round < 2; ++round) {
      untraced.merge(leg(0.2 * a.seconds, false, false));
      traced.merge(leg(0.2 * a.seconds, false, true));
    }
    const LegResult serial = leg(0.2 * a.seconds, true, true);
    LegResult all = traced;
    all.merge(serial);
    const double overhead =
        ratio(median(traced.latency_ms), median(untraced.latency_ms)) - 1.0;

    std::vector<double> load_ms;
    for (const lcsf::api::DesignSpec& spec : w->load_specs()) {
      for (int r = 0; r < 3; ++r) {
        const Clock::time_point t0 = Clock::now();
        (void)lcsf::api::Session::load(spec);
        load_ms.push_back(seconds_since(t0) * 1e3);
      }
    }
    const std::size_t check_failed = w->verify();
    attempted += untraced.attempted + all.attempted;
    failed = std::min(attempted,
                      failed + untraced.failed + all.failed + check_failed);
    metrics = layer_metrics(all, traced, serial, overhead, median(load_ms),
                            w->extra_layers(), run_probes(a.seed));
  }

  std::printf("# %-40s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("# %-40s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("# attempted %zu, failed %zu, failed_frac %.6g\n", attempted,
              failed,
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)));

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (k > 0) json += ", ";
    json += "\"" + metrics[k].name + "\": {\"value\": " +
            json_number(metrics[k].value) + ", \"unit\": \"" +
            metrics[k].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    // The run could not finish: report it as one failed call.
    std::fprintf(stderr, "lcsf_perfbench: %s\n", e.what());
    std::printf(
        "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
        "\"metrics\": {}}\n");
    return 1;
  }
}
