// Per-layer probes: the benchmark times calls into each module's public
// functions on inputs taken from the designs the workloads use (the s832
// path's first stage for the kernels, s208 for the graph block models,
// the serve mix's request lines, seeded decks for the parser). The
// inputs do not depend on the workload; every traced run runs all probes,
// and README.md pairs each with the workload it speaks for. Operation and
// byte counts per call are computed from the kernel's loop structure,
// not measured.
#include <cmath>

#include "bench.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/parser.hpp"
#include "core/stage_model.hpp"
#include "loopback.hpp"
#include "mor/poleres.hpp"
#include "numeric/lu.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "teta/convolution.hpp"

namespace perfbench {
namespace {

using namespace lcsf;

/// Seconds per call of `fn`: run it in batches of at least `min_s`
/// seconds, five times, and take the median batch.
template <typename Fn>
double per_call_s(Fn&& fn, double min_s = 0.02) {
  std::vector<double> runs;
  for (int r = 0; r < 5; ++r) {
    std::size_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    double el = 0.0;
    do {
      fn();
      ++calls;
      el = seconds_since(t0);
    } while (el < min_s);
    runs.push_back(el / static_cast<double>(calls));
  }
  return median(runs);
}

/// Median seconds of `reps` single calls of `fn`.
template <typename Fn>
double median_call_s(Fn&& fn, int reps) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

/// Keeps probe results observable so the timed calls are not elided.
volatile double g_sink = 0.0;

/// The first stage of the s832 path, characterized as the path analyzer
/// does it (10 linear elements per stage).
struct StageInputs {
  circuit::Technology tech = circuit::technology_180nm();
  core::StageModel stage;
  bool out_rising = false;
  mor::ReducedModel rom;
  mor::PoleResidueModel z;
};

StageInputs s832_stage() {
  StageInputs in;
  api::DesignSpec spec;
  spec.circuit = "s832";
  const auto session = api::Session::load(spec);
  const core::PathSpec& ps = session->path_analyzer()->spec();
  in.tech = ps.tech;
  const auto& lib = timing::cell_library();
  in.stage.cell = &lib.at(ps.cells[0]);
  in.stage.receiver_cap = core::input_pin_cap(lib.at(ps.cells[1]), in.tech);
  const std::size_t segments = (ps.linear_elements_per_stage - 2) / 2;
  in.stage.load = core::characterize_stage_load(
      *in.stage.cell, in.tech, segments, in.stage.receiver_cap,
      ps.rom_internal_modes);
  in.out_rising = !in.stage.cell->inverting;
  numeric::Vector w(in.stage.load.num_params(), 0.0);
  for (std::size_t k = 0; k < w.size(); ++k) {
    w[k] = k % 2 == 0 ? 0.3 : -0.2;
  }
  in.rom = in.stage.load.evaluate(w);
  in.z = mor::stabilize(mor::extract_pole_residue(in.rom));
  return in;
}

void kernel_probes(const StageInputs& in, std::map<std::string, double>& m) {
  // numeric: LU solve of the stage ROM's reduced conductance matrix.
  {
    const numeric::LuFactorization lu(in.rom.g);
    const std::size_t n = lu.size();
    numeric::Vector b(n), x(n);
    double t = 0.0;
    m["numeric.lu_solve_ns"] = 1e9 * per_call_s([&] {
      for (std::size_t i = 0; i < n; ++i) {
        b[i] = 1.0 + t * static_cast<double>(i);
      }
      t += 1e-3;
      lu.solve_into(b, x);
      g_sink = g_sink + x[0];
    });
    const double nd = static_cast<double>(n);
    // Unit-lower forward plus upper back substitution.
    m["numeric.lu_solve_flops"] = 2.0 * nd * nd - nd;
    m["numeric.lu_solve_bytes"] = 8.0 * (nd * nd + 4.0 * nd);
  }
  // circuit: level-1 MOSFET evaluation over a grid of bias points.
  {
    const circuit::Mosfet nmos = in.tech.make_nmos(1, 2, 0);
    const circuit::Mosfet pmos = in.tech.make_pmos(1, 2, 3);
    const double vdd = in.tech.vdd;
    const int grid = 16;
    double flops = 0.0;
    for (int i = 0; i < grid; ++i) {
      for (int j = 0; j < grid; ++j) {
        // Region of the normalized NMOS: cutoff costs the 10-op prelude,
        // saturation 12 more, triode 18 more (mosfet.cpp).
        const double vg = vdd * i / (grid - 1);
        const double vd = vdd * j / (grid - 1);
        const double vgst = vg - nmos.model.vt0;
        flops += 10.0 + (vgst <= 0.0 ? 0.0 : vd < vgst ? 18.0 : 12.0);
      }
    }
    m["circuit.mosfet_eval_ns"] =
        1e9 * per_call_s([&] {
          double acc = 0.0;
          for (int i = 0; i < grid; ++i) {
            for (int j = 0; j < grid; ++j) {
              const double vg = vdd * i / (grid - 1);
              const double vd = vdd * j / (grid - 1);
              acc += circuit::mosfet_eval(nmos, vg, vd, 0.0).ids +
                     circuit::mosfet_eval(pmos, vg, vd, vdd).ids;
            }
          }
          g_sink = g_sink + acc;
        }) /
        (2.0 * grid * grid);
    m["circuit.mosfet_eval_flops"] = flops / (grid * grid);
    m["circuit.mosfet_eval_bytes"] =
        static_cast<double>(sizeof(circuit::Mosfet)) + 48.0;
  }
  // teta: recursive-convolution history of the stabilized stage load,
  // one history_into plus one advance per TETA step.
  {
    teta::RecursiveConvolver conv(in.z, 2e-12);
    const std::size_t np = conv.num_ports();
    numeric::Vector hist(np), i_now(np, 0.0);
    double t = 0.0;
    m["teta.history_ns"] = 1e9 * per_call_s([&] {
      for (std::size_t j = 0; j < np; ++j) {
        i_now[j] = 1e-4 * std::sin(t + static_cast<double>(j));
      }
      t += 0.01;
      conv.history_into(hist);
      conv.advance(i_now);
      g_sink = g_sink + hist[0];
    });
    const double P = static_cast<double>(conv.num_poles());
    const double n = static_cast<double>(np);
    m["teta.history_flops"] = P * (4.0 + n * (18.0 * n + 1.0)) + P * n * 16.0;
    // Residues, pole coefficients, states (read twice, written once),
    // committed and new currents, history out.
    m["teta.history_bytes"] =
        P * (16.0 * n * n + 48.0 + 48.0 * n) + 8.0 * 4.0 * n;
  }
  // mor: pole/residue extraction and stabilization of the same ROM.
  {
    mor::PoleResidueWorkspace ws;
    m["mor.poleres_us"] = 1e6 * per_call_s([&] {
      g_sink = g_sink + static_cast<double>(
                            mor::extract_pole_residue(in.rom, ws).num_poles());
    });
    const mor::PoleResidueModel raw = mor::extract_pole_residue(in.rom);
    m["mor.stabilize_us"] = 1e6 * per_call_s([&] {
      g_sink = g_sink + static_cast<double>(mor::stabilize(raw).num_poles());
    });
  }
}

void core_probes(const StageInputs& in, std::map<std::string, double>& m) {
  core::StageSimOptions opt;
  opt.stage_window = 1e-9;
  const timing::RampParams ramp{0.2e-9, 0.1e-9, true};
  const circuit::SourceWaveform input = ramp.to_source(in.tech.vdd);
  constexpr std::size_t kLanes = 8;
  std::vector<timing::DeviceVariation> devs(kLanes);
  std::vector<interconnect::WireVariation> wires(kLanes);
  for (std::size_t k = 0; k < kLanes; ++k) {
    const double u = static_cast<double>(k) / kLanes - 0.5;
    devs[k].delta_l = 0.03 * u * in.tech.lmin;
    devs[k].delta_vt = 0.02 * u;
    wires[k].width = 0.05 * u;
    wires[k].ild_thickness = -0.04 * u;
  }
  core::SampleWorkspace ws;
  std::size_t lane = 0;
  m["core.measure_stage_us"] = 1e6 * per_call_s([&] {
    const std::size_t k = lane++ % kLanes;
    g_sink = g_sink + core::measure_stage_with_retry(
                          in.stage, in.tech, opt, 0, input, 0.0, devs[k],
                          wires[k], in.out_rising, nullptr, &ws)
                          .m;
  }, 0.05);

  core::BatchWorkspace bws;
  std::vector<const circuit::SourceWaveform*> inputs(kLanes, &input);
  std::vector<double> shifts(kLanes, 0.0);
  std::vector<const timing::DeviceVariation*> dp(kLanes);
  std::vector<const interconnect::WireVariation*> wp(kLanes);
  for (std::size_t k = 0; k < kLanes; ++k) {
    dp[k] = &devs[k];
    wp[k] = &wires[k];
  }
  std::vector<core::StageMeasurement> out;
  m["core.measure_stage_batch_us_per_lane"] =
      1e6 * per_call_s([&] {
        core::measure_stage_batch(in.stage, in.tech, opt, 0, inputs, shifts,
                                  dp, wp, in.out_rising, nullptr, out, bws);
        g_sink = g_sink + out[0].params.m;
      }, 0.05) /
      kLanes;

  api::DesignSpec gspec;
  gspec.circuit = "s208";
  gspec.graph = true;
  const auto graph = api::Session::load(gspec);
  core::PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  m["core.graph.block_models_ms"] = 1e3 * median_call_s([&] {
    g_sink = g_sink + static_cast<double>(
                          graph->graph_analyzer()->block_models(model).size());
  }, 3);

  // mor: characterization share of a whole s832 path load.
  std::vector<double> ms;
  for (int r = 0; r < 5; ++r) {
    obs::Registry reg;
    {
      obs::ScopedContext ctx(&reg, 0);
      api::DesignSpec spec;
      spec.circuit = "s832";
      (void)api::Session::load(spec);
    }
    ms.push_back(1e3 * trace_of(reg).span_s({"mor.characterize"}));
  }
  m["mor.characterize_ms"] = median(ms);

  const std::size_t n = hardware_threads();
  m["runtime.pool_spawn_us"] = 1e6 * median_call_s([&] {
    runtime::ThreadPool pool(n);
    pool.parallel_for_lanes(n, [](std::size_t, std::size_t, std::size_t) {},
                            1);
  }, 51);
}

void serve_probes(std::map<std::string, double>& m) {
  serve::DesignCache cache(serve::DesignCache::Config{kCacheBytes});
  serve::ServeContext ctx;
  ctx.cache = &cache;
  // Lines of the serve mix's shapes (s27 warm design, a cold s208 load).
  const std::string load = R"({"id":1,"type":"load","circuit":"s27"})";
  const std::vector<std::pair<std::string, std::string>> lines = {
      {"monte_carlo", R"({"id":2,"type":"monte_carlo","circuit":"s27",)"
                      R"("samples":12,"seed":7})"},
      {"gradients", R"({"id":3,"type":"gradients","circuit":"s27"})"},
      {"yield", R"({"id":4,"type":"yield","circuit":"s27","samples":16,)"
                R"("seed":7,"estimator":"is-cv"})"},
      {"load_warm", load},
      {"metrics", R"({"id":5,"type":"metrics"})"},
  };
  std::vector<std::string> all_lines;
  for (const auto& [type, line] : lines) {
    const int reps = type == "load_warm" || type == "metrics" ? 51 : 5;
    (void)serve::dispatch_request(line, ctx);  // warm the cache
    std::string resp;
    m["serve.dispatch_ms." + type] = 1e3 * median_call_s([&] {
      resp = serve::dispatch_request(line, ctx).response;
    }, reps);
    all_lines.push_back(line);
    all_lines.push_back(resp);
  }
  const std::string cold =
      R"({"id":6,"type":"load","circuit":"s208","elements":12,"graph":true})";
  m["serve.dispatch_ms.load_cold"] = 1e3 * median_call_s([&] {
    serve::DesignCache fresh(serve::DesignCache::Config{kCacheBytes});
    serve::ServeContext c2;
    c2.cache = &fresh;
    (void)serve::dispatch_request(cold, c2);
  }, 9);

  std::vector<double> dec, enc;
  for (const std::string& line : all_lines) {
    const serve::Json j = serve::Json::parse(line);
    dec.push_back(per_call_s([&] {
      g_sink = g_sink + static_cast<double>(
                            serve::Json::parse(line).members().size());
    }, 0.005));
    enc.push_back(per_call_s([&] {
      g_sink = g_sink + static_cast<double>(j.dump().size());
    }, 0.005));
  }
  m["serve.decode_us"] = 1e6 * median(dec);
  m["serve.encode_us"] = 1e6 * median(enc);

  // Transport: loopback round trip of a warm load minus its in-process
  // dispatch.
  RunningServer server(nullptr, 2);
  {
    Client client(server.port());
    (void)client.request(load);
    const double rtt = median_call_s([&] { (void)client.request(load); }, 101);
    m["serve.transport_ms"] =
        1e3 * (rtt - m["serve.dispatch_ms.load_warm"] / 1e3);
  }
}

void parse_probe(std::uint64_t seed, std::map<std::string, double>& m) {
  const circuit::Technology tech = circuit::technology_180nm();
  std::vector<double> per_device;
  for (const std::string& deck : probe_decks(seed, 8)) {
    std::size_t devices = 0;
    const double s = per_call_s([&] {
      const circuit::Netlist nl = circuit::parse_netlist(deck, tech);
      devices = nl.mosfets().size() + nl.resistors().size() +
                nl.capacitors().size() + nl.vsources().size();
    }, 0.005);
    per_device.push_back(s / static_cast<double>(devices));
  }
  m["circuit.parse_us_per_device"] = 1e6 * median(per_device);
}

}  // namespace

std::map<std::string, double> run_probes(std::uint64_t seed) {
  std::map<std::string, double> m;
  const StageInputs in = s832_stage();
  kernel_probes(in, m);
  core_probes(in, m);
  serve_probes(m);
  parse_probe(seed, m);
  return m;
}

}  // namespace perfbench
