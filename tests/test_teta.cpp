// Tests for the recursive convolver and the Successive-Chords stage engine.
// The key validations compare TETA against the conventional SPICE-
// substitute on identical stages.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <random>
#include <string>

#include "api/session.hpp"
#include "circuit/netlist.hpp"
#include "circuit/technology.hpp"
#include "interconnect/coupled_lines.hpp"
#include "mor/pact.hpp"
#include "mor/poleres.hpp"
#include "mor/variational.hpp"
#include "sim/diagnostics.hpp"
#include "spice/transient.hpp"
#include "teta/convolution.hpp"
#include "teta/stage.hpp"

namespace lcsf::teta {
namespace {

using circuit::kGround;
using circuit::SourceWaveform;
using circuit::Technology;
using circuit::technology_180nm;
using numeric::Complex;
using numeric::Matrix;
using numeric::Vector;

// One-port single-pole model: Z(s) = r/(s-p), i.e. a parallel RC with
// R = -r/p and C = 1/r.
mor::PoleResidueModel single_pole(double r, double p) {
  Matrix direct(1, 1);
  numeric::ComplexMatrix res(1, 1);
  res(0, 0) = r;
  return mor::PoleResidueModel(1, direct, {Complex{p, 0.0}}, {res});
}

TEST(Convolver, StepResponseMatchesAnalytic) {
  const double r = 1e12;  // 1/C with C = 1 pF
  const double p = -1e9;  // R = 1k
  mor::PoleResidueModel z = single_pole(r, p);
  const double dt = 10e-12;
  RecursiveConvolver conv(z, dt);

  // Current step 1 mA applied from t=0 (current ramps up over first step,
  // linear inside steps thereafter -- exact recursion, so compare against
  // the analytic response to the trapezoid-shaped current).
  const double i0 = 1e-3;
  double t = 0.0;
  for (int k = 1; k <= 1200; ++k) {
    t = k * dt;
    const Vector inow{i0};  // constant after first step
    // v = H i + hist
    Vector hist = conv.history();
    const double v = conv.step_impedance()(0, 0) * inow[0] + hist[0];
    conv.advance(inow);

    // Analytic: current ramps 0->i0 over [0, dt], then constant.
    // v(t) = r * int_0^t e^{p(t-tau)} i(tau) dtau.
    auto vexact = [&](double tt) {
      const double h = dt;
      if (tt <= h) {
        const double b = i0 / h;
        return r * b * (std::exp(p * tt) - 1.0 - p * tt) / (p * p) * 1.0;
      }
      // Ramp contribution shifted + constant tail.
      const double b = i0 / h;
      const double ramp_at_h = b * (std::exp(p * h) - 1.0 - p * h) / (p * p);
      const double decay = std::exp(p * (tt - h));
      // State after ramp propagates; constant current from h to tt:
      const double steady = i0 * (std::exp(p * (tt - h)) - 1.0) / p;
      return r * (ramp_at_h * decay + steady);
    };
    EXPECT_NEAR(v, vexact(t), 2e-4 * std::abs(vexact(t)) + 1e-9)
        << "t = " << t;
  }
  // Final value after 12 time constants: v -> Z(0) * i0 = (-r/p) i0 = 1 V.
  Vector hist = conv.history();
  const double v = conv.step_impedance()(0, 0) * i0 + hist[0];
  EXPECT_NEAR(v, 1.0, 1e-4);
}

TEST(Convolver, DcInitializationHoldsSteadyState) {
  mor::PoleResidueModel z = single_pole(5e11, -2e9);
  RecursiveConvolver conv(z, 5e-12);
  const double i0 = 2e-3;
  conv.initialize_dc(Vector{i0});
  const double vdc = conv.dc_impedance()(0, 0) * i0;
  for (int k = 0; k < 50; ++k) {
    Vector hist = conv.history();
    const double v = conv.step_impedance()(0, 0) * i0 + hist[0];
    EXPECT_NEAR(v, vdc, 1e-9 * std::abs(vdc));
    conv.advance(Vector{i0});
  }
}

TEST(Convolver, RejectsUnstableModel) {
  mor::PoleResidueModel z = single_pole(1e12, +1e9);
  EXPECT_THROW(RecursiveConvolver(z, 1e-12), sim::SimulationError);
}

TEST(Convolver, ComplexPairGivesRealRingingResponse) {
  // Conjugate pole pair -> damped oscillation, strictly real output.
  Matrix direct(1, 1);
  numeric::ComplexMatrix r1(1, 1), r2(1, 1);
  r1(0, 0) = Complex{5e11, 1e11};
  r2(0, 0) = Complex{5e11, -1e11};
  mor::PoleResidueModel z(1, direct,
                          {Complex{-1e9, 5e9}, Complex{-1e9, -5e9}},
                          {r1, r2});
  RecursiveConvolver conv(z, 10e-12);
  double vmin = 1e9, vmax = -1e9;
  for (int k = 0; k < 400; ++k) {
    Vector hist = conv.history();
    const double v = conv.step_impedance()(0, 0) * 1e-3 + hist[0];
    vmin = std::min(vmin, v);
    vmax = std::max(vmax, v);
    conv.advance(Vector{1e-3});
  }
  EXPECT_GT(vmax, 0.0);
  EXPECT_LT(vmin, vmax);  // oscillatory settle
  EXPECT_TRUE(std::isfinite(vmin));
}

TEST(CompressPwl, KeepsCornersDropsCollinear) {
  std::vector<std::pair<double, double>> samples;
  for (int k = 0; k <= 100; ++k) {
    const double t = k * 1e-12;
    samples.emplace_back(t, t < 50e-12 ? 0.0 : (t - 50e-12) * 1e10);
  }
  auto compact = compress_pwl(samples, 1e-6);
  EXPECT_LT(compact.size(), 6u);
  // Interpolating the compact form reproduces every sample.
  auto wave = circuit::SourceWaveform::pwl(compact);
  for (const auto& [t, v] : samples) {
    EXPECT_NEAR(wave.value(t), v, 2e-6);
  }
}

// compress_pwl as it was before its fast accept: every candidate chord is
// checked against every sample it spans. The production version must
// return the identical breakpoint list.
std::vector<std::pair<double, double>> compress_pwl_brute_force(
    const std::vector<std::pair<double, double>>& samples, double vtol) {
  if (samples.size() <= 2) return samples;
  std::vector<std::pair<double, double>> out;
  out.push_back(samples.front());
  std::size_t anchor = 0;
  for (std::size_t k = 2; k < samples.size(); ++k) {
    const auto [t0, v0] = samples[anchor];
    const auto [t1, v1] = samples[k];
    bool within = true;
    for (std::size_t m = anchor + 1; m < k && within; ++m) {
      const auto [tm, vm] = samples[m];
      const double frac = (tm - t0) / (t1 - t0);
      const double lin = v0 + frac * (v1 - v0);
      within = std::abs(lin - vm) <= vtol;
    }
    if (!within) {
      anchor = k - 1;
      out.push_back(samples[anchor]);
    }
  }
  out.push_back(samples.back());
  return out;
}

// Seeded property test of the fast accept: flat tails, exponential
// settling, steps, and noise whose span sits just below, at and just
// above vtol, on small and large offsets; settling ramps whose span is
// many vtol (accepted by slope, not by span), alone and with noise about
// a sloped line that puts interior samples right at the sleeve's edges;
// plus a few degenerate inputs (repeated times, non-finite values) that
// must fall through to the scan.
TEST(CompressPwl, FastAcceptMatchesBruteForce) {
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  // Compares bits, so NaN samples compare equal to themselves.
  const auto same_breakpoints =
      [](const std::vector<std::pair<double, double>>& w,
         double vtol) -> ::testing::AssertionResult {
    const auto fast = compress_pwl(w, vtol);
    const auto slow = compress_pwl_brute_force(w, vtol);
    if (fast.size() != slow.size()) {
      return ::testing::AssertionFailure()
             << fast.size() << " vs " << slow.size() << " breakpoints";
    }
    for (std::size_t k = 0; k < slow.size(); ++k) {
      if (std::memcmp(&fast[k], &slow[k], sizeof(fast[k])) != 0) {
        return ::testing::AssertionFailure() << "breakpoint " << k;
      }
    }
    return ::testing::AssertionSuccess();
  };
  const double spans[] = {0.25, 0.5, 0.999, 1.0 - 2e-9, 1.0 - 1e-12, 1.0,
                          1.0 + 1e-12, 1.0 + 1e-6, 2.0};
  std::size_t cases = 0;
  std::size_t fewer = 0;  // cases whose output drops at least one sample
  for (int c = 0; c < 3000; ++c) {
    const double vtol = 1.8e-4 * (c % 3 == 0 ? 1.0 : u01(rng) * 10.0);
    const std::size_t n = 2 + static_cast<std::size_t>(u01(rng) * 400.0);
    const double dt = 1e-12 * (0.5 + u01(rng));
    const double offset = c % 7 == 0 ? 1e3 * u01(rng) : u01(rng) * 1.8;
    const double span = spans[static_cast<std::size_t>(c) % 9] * vtol;
    const int shape = c % 7;
    const double ramp = (3.0 + 60.0 * u01(rng)) * vtol;  // total ramp span
    const double tau = (5.0 + 60.0 * u01(rng)) * dt;
    const double t_step = dt * static_cast<double>(n) * u01(rng);
    std::vector<std::pair<double, double>> w;
    for (std::size_t k = 0; k < n; ++k) {
      const double t = static_cast<double>(k) * dt;
      double v = offset;
      switch (shape) {
        case 0:  // transition, then a flat tail
          v += t < t_step ? 1.8 * t / (t_step + dt) : 1.8;
          break;
        case 1:  // exponential settling
          v += 1.8 * (1.0 - std::exp(-t / tau));
          break;
        case 2:  // step
          v += t < t_step ? 0.0 : 1.8;
          break;
        case 3:  // flat with bounded noise of the chosen span
          v += span * (u01(rng) - 0.5);
          break;
        case 4:  // settling with noise on top
          v += 1.8 * std::exp(-t / tau) + span * (u01(rng) - 0.5);
          break;
        case 5:  // slow settling ramp spanning many vtol
          v += ramp * (1.0 - std::exp(-t / (20.0 * tau)));
          break;
        default:  // sloped line with noise of the chosen span
          v += ramp * t / (dt * static_cast<double>(n)) +
               2.0 * span * (u01(rng) - 0.5);
          break;
      }
      w.emplace_back(t, v);
    }
    if (c % 97 == 0 && n > 4) w[n / 2].first = w[n / 2 - 1].first;
    if (c % 89 == 0 && n > 4) w[n / 3].second = std::nan("");
    if (c % 83 == 0 && n > 4) w[n / 4].second = HUGE_VAL;
    ASSERT_TRUE(same_breakpoints(w, vtol)) << "case " << c;
    ++cases;
    if (compress_pwl(w, vtol).size() < w.size()) ++fewer;
  }
  EXPECT_EQ(cases, 3000u);
  EXPECT_GT(fewer, 1000u);

  // Sleeve edges: samples on a random sloped line, one interior sample
  // moved off it by (1 + e) vtol, with e from well inside the tolerance
  // to just outside it. Every chord from the first sample past the moved
  // one is then decided by that single deviation.
  const double edges[] = {-1e-3, -1e-6, -1e-9, -1e-12, 0.0,
                          1e-12, 1e-9,  1e-6,  1e-3};
  for (int c = 0; c < 2000; ++c) {
    const double vtol = 1.8e-4 * (0.1 + u01(rng) * 10.0);
    const std::size_t n = 3 + static_cast<std::size_t>(u01(rng) * 60.0);
    const double dt = 1e-12 * (0.5 + u01(rng));
    const double offset = c % 7 == 0 ? 1e3 * u01(rng) : u01(rng) * 1.8;
    const double slope =
        (u01(rng) - 0.5) * 200.0 * vtol / (dt * static_cast<double>(n));
    std::vector<std::pair<double, double>> w;
    for (std::size_t k = 0; k < n; ++k) {
      const double t = static_cast<double>(k) * dt;
      w.emplace_back(t, offset + slope * t);
    }
    const std::size_t m = 1 + static_cast<std::size_t>(
                                  u01(rng) * static_cast<double>(n - 2));
    const double sign = c % 2 == 0 ? 1.0 : -1.0;
    w[m].second += sign * (1.0 + edges[c % 9]) * vtol;
    ASSERT_TRUE(same_breakpoints(w, vtol)) << "edge case " << c;
  }
}

TEST(StageCircuit, ChordConductances) {
  Technology t = technology_180nm();
  StageCircuit s;
  const std::size_t out = s.add_port();
  const std::size_t in = s.add_input(SourceWaveform::dc(0.0));
  const std::size_t vdd = s.add_rail(t.vdd);
  const std::size_t gnd = s.add_rail(0.0);
  s.add_mosfet(t.make_nmos(static_cast<int>(out), static_cast<int>(in),
                           static_cast<int>(gnd), 4.0));
  s.add_mosfet(t.make_pmos(static_cast<int>(out), static_cast<int>(in),
                           static_cast<int>(vdd), 8.0));
  Vector g = s.port_chord_conductances(t.vdd);
  ASSERT_EQ(g.size(), 1u);
  const double gn =
      t.nmos.kp * 4.0 * (t.vdd - t.nmos.vt0);
  const double gp =
      t.pmos.kp * 8.0 * (t.vdd - t.pmos.vt0);
  EXPECT_NEAR(g[0], gn + gp, 1e-12);

  // Chords are variation-independent by construction.
  StageCircuit s2;
  const std::size_t out2 = s2.add_port();
  const std::size_t in2 = s2.add_input(SourceWaveform::dc(0.0));
  const std::size_t gnd2 = s2.add_rail(0.0);
  circuit::Mosfet m = t.make_nmos(static_cast<int>(out2),
                                  static_cast<int>(in2),
                                  static_cast<int>(gnd2), 4.0);
  m.delta_vt = 0.1;
  m.delta_l = 0.01e-6;
  s2.add_mosfet(m);
  EXPECT_NEAR(s2.port_chord_conductances(t.vdd)[0], gn, 1e-12);
}

// Build the same inverter + RC-pi load twice: as a SPICE netlist and as a
// TETA stage with an exact (untruncated) pole/residue load.
struct InverterVsSpice {
  Technology tech = technology_180nm();
  double rload = 500.0, cload1 = 20e-15, cload2 = 30e-15;
  double wn = 6.0, wp = 12.0;
  SourceWaveform input =
      SourceWaveform::ramp(0.0, 1.8, 50e-12, 80e-12);

  spice::TransientResult run_spice(double tstop, double dt) const {
    circuit::Netlist nl;
    const auto in = nl.add_node("in");
    const auto out = nl.add_node("out");
    const auto far = nl.add_node("far");
    const auto vdd = nl.add_node("vdd");
    nl.add_vsource(vdd, kGround, SourceWaveform::dc(tech.vdd));
    nl.add_vsource(in, kGround, input);
    nl.add_mosfet(tech.make_nmos(out, in, kGround, wn));
    nl.add_mosfet(tech.make_pmos(out, in, vdd, wp));
    nl.add_capacitor(out, kGround, cload1);
    nl.add_resistor(out, far, rload);
    nl.add_capacitor(far, kGround, cload2);
    nl.freeze_device_capacitances();
    spice::TransientSimulator sim(nl);
    spice::TransientOptions opt;
    opt.tstop = tstop;
    opt.dt = dt;
    return sim.run(opt);
  }

  TetaResult run_teta(double tstop, double dt) const {
    // Load: ports {out, far}; R/C elements only. The driver's own device
    // caps stay in the stage.
    circuit::Netlist load;
    const auto out = load.add_node("out");
    const auto far = load.add_node("far");
    load.add_capacitor(out, kGround, cload1);
    load.add_resistor(out, far, rload);
    load.add_capacitor(far, kGround, cload2);

    StageCircuit stage;
    const std::size_t p_out = stage.add_port();
    (void)stage.add_port();  // far port, observed only
    const std::size_t in = stage.add_input(input);
    const std::size_t vdd = stage.add_rail(tech.vdd);
    const std::size_t gnd = stage.add_rail(0.0);
    stage.add_mosfet(tech.make_nmos(static_cast<int>(p_out),
                                    static_cast<int>(in),
                                    static_cast<int>(gnd), wn));
    stage.add_mosfet(tech.make_pmos(static_cast<int>(p_out),
                                    static_cast<int>(in),
                                    static_cast<int>(vdd), wp));
    stage.freeze_device_capacitances();

    auto pencil = interconnect::build_ported_pencil(load, {out, far});
    pencil = mor::with_port_conductance(
        std::move(pencil), stage.port_chord_conductances(tech.vdd));
    // Exact (full-order) reduction -> pole/residue.
    mor::PactOptions popt;
    popt.internal_modes = pencil.g.rows();
    auto rom = mor::pact_reduce(pencil, popt).model;
    auto z = mor::extract_pole_residue(rom);

    TetaOptions topt;
    topt.tstop = tstop;
    topt.dt = dt;
    topt.vdd = tech.vdd;
    return simulate_stage(stage, z, topt);
  }
};

TEST(StageEngine, InverterMatchesSpice) {
  InverterVsSpice fix;
  const double tstop = 1.2e-9;
  const double dt = 1e-12;
  auto sres = fix.run_spice(tstop, dt);
  ASSERT_TRUE(sres.converged) << sres.failure();
  auto tres = fix.run_teta(tstop, dt);
  ASSERT_TRUE(tres.converged) << tres.failure();

  // Compare the driven port and the far node over the full waveform.
  auto sw_out = sres.waveform(2);  // "out" was second added node
  auto sw_far = sres.waveform(3);
  ASSERT_EQ(sw_out.size(), tres.time.size());
  double max_err_out = 0.0, max_err_far = 0.0;
  for (std::size_t k = 0; k < tres.time.size(); ++k) {
    max_err_out =
        std::max(max_err_out,
                 std::abs(sw_out[k].second - tres.port_voltages[k][0]));
    max_err_far =
        std::max(max_err_far,
                 std::abs(sw_far[k].second - tres.port_voltages[k][1]));
  }
  // Same device model, same timestep, both second-order integrators.
  EXPECT_LT(max_err_out, 0.02) << "driven port diverges from SPICE";
  EXPECT_LT(max_err_far, 0.02) << "far port diverges from SPICE";
}

TEST(StageEngine, NandStackWithInternalNodeMatchesSpice) {
  Technology t = technology_180nm();
  const SourceWaveform a_in =
      SourceWaveform::ramp(0.0, t.vdd, 50e-12, 80e-12);
  const double cload = 25e-15;
  const double tstop = 1.2e-9, dt = 1e-12;

  // SPICE reference: NAND2 with input B tied high, A switching.
  circuit::Netlist nl;
  const auto in_a = nl.add_node("a");
  const auto out = nl.add_node("out");
  const auto mid = nl.add_node("mid");
  const auto vdd = nl.add_node("vdd");
  nl.add_vsource(vdd, kGround, SourceWaveform::dc(t.vdd));
  nl.add_vsource(in_a, kGround, a_in);
  nl.add_mosfet(t.make_nmos(out, in_a, mid, 8.0));
  nl.add_mosfet(t.make_nmos(mid, vdd, kGround, 8.0));  // B = 1
  nl.add_mosfet(t.make_pmos(out, in_a, vdd, 8.0));
  nl.add_mosfet(t.make_pmos(out, vdd, vdd, 8.0));  // B = 1: off
  nl.add_capacitor(out, kGround, cload);
  nl.freeze_device_capacitances();
  spice::TransientSimulator sim(nl);
  spice::TransientOptions sopt;
  sopt.tstop = tstop;
  sopt.dt = dt;
  auto sres = sim.run(sopt);
  ASSERT_TRUE(sres.converged) << sres.failure();

  // TETA stage with the series stack's mid node as an internal node.
  StageCircuit stage;
  const std::size_t p_out = stage.add_port();
  const std::size_t s_a = stage.add_input(a_in);
  const std::size_t s_vdd = stage.add_rail(t.vdd);
  const std::size_t s_gnd = stage.add_rail(0.0);
  const std::size_t s_mid = stage.add_internal();
  stage.add_mosfet(t.make_nmos(static_cast<int>(p_out),
                               static_cast<int>(s_a),
                               static_cast<int>(s_mid), 8.0));
  stage.add_mosfet(t.make_nmos(static_cast<int>(s_mid),
                               static_cast<int>(s_vdd),
                               static_cast<int>(s_gnd), 8.0));
  stage.add_mosfet(t.make_pmos(static_cast<int>(p_out),
                               static_cast<int>(s_a),
                               static_cast<int>(s_vdd), 8.0));
  stage.add_mosfet(t.make_pmos(static_cast<int>(p_out),
                               static_cast<int>(s_vdd),
                               static_cast<int>(s_vdd), 8.0));
  stage.freeze_device_capacitances();

  circuit::Netlist load;
  const auto lout = load.add_node("out");
  load.add_capacitor(lout, kGround, cload);
  auto pencil = interconnect::build_ported_pencil(load, {lout});
  pencil = mor::with_port_conductance(
      std::move(pencil), stage.port_chord_conductances(t.vdd));
  auto rom = mor::pact_reduce(pencil, mor::PactOptions{4}).model;
  auto z = mor::extract_pole_residue(rom);

  TetaOptions topt;
  topt.tstop = tstop;
  topt.dt = dt;
  topt.vdd = t.vdd;
  auto tres = simulate_stage(stage, z, topt);
  ASSERT_TRUE(tres.converged) << tres.failure();

  auto sw = sres.waveform(out);
  double max_err = 0.0;
  for (std::size_t k = 0; k < tres.time.size(); ++k) {
    max_err = std::max(max_err,
                       std::abs(sw[k].second - tres.port_voltages[k][0]));
  }
  EXPECT_LT(max_err, 0.03);
}

TEST(StageEngine, ReportsIterationBudgetExhaustion) {
  InverterVsSpice fix;
  // Force failure with an absurdly small iteration budget.
  circuit::Netlist load;
  const auto out = load.add_node("out");
  load.add_capacitor(out, kGround, fix.cload1);
  load.add_resistor(out, kGround, 1e5);
  StageCircuit stage;
  const std::size_t p_out = stage.add_port();
  const std::size_t in = stage.add_input(fix.input);
  const std::size_t vdd = stage.add_rail(fix.tech.vdd);
  const std::size_t gnd = stage.add_rail(0.0);
  stage.add_mosfet(fix.tech.make_nmos(static_cast<int>(p_out),
                                      static_cast<int>(in),
                                      static_cast<int>(gnd), 6.0));
  stage.add_mosfet(fix.tech.make_pmos(static_cast<int>(p_out),
                                      static_cast<int>(in),
                                      static_cast<int>(vdd), 12.0));
  auto pencil = interconnect::build_ported_pencil(load, {out});
  pencil = mor::with_port_conductance(
      std::move(pencil), stage.port_chord_conductances(fix.tech.vdd));
  auto z = mor::extract_pole_residue(
      mor::pact_reduce(pencil, mor::PactOptions{2}).model);
  TetaOptions topt;
  topt.tstop = 0.2e-9;
  topt.dt = 1e-12;
  topt.vdd = fix.tech.vdd;
  topt.max_sc_iters = 1;
  auto res = simulate_stage(stage, z, topt);
  EXPECT_FALSE(res.converged);
  EXPECT_TRUE(res.diag.failed());
  // With a one-iteration budget the DC solve exhausts it first; either
  // classification is an iteration-budget failure, never kOther.
  EXPECT_TRUE(res.diag.kind == sim::FailureKind::kDcFailure ||
              res.diag.kind == sim::FailureKind::kNewtonNonConvergence)
      << res.failure();
}

// ---- golden bits -------------------------------------------------------
// Bit-exact pins of the scalar engine. The batch-vs-scalar tests compare
// the two engines with each other, so a change in code both share (setup,
// the step plan, the device kernel, the convolver) would pass them
// unnoticed. These expectations were recorded from the engine in hexfloat
// (with the predicted successive-chord start of docs/performance.md) and
// catch any change in its IEEE operation sequence.

std::string hexf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// FNV-1a over the bit patterns of `values`, for results too long to pin
/// value by value.
std::string bits_hash(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double v : values) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (u >> (8 * byte)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Outcome, iteration count, diagnostics and every port voltage at the
/// given steps of one transient, as one comparable string.
std::string golden(const TetaResult& r,
                   std::initializer_list<std::size_t> steps) {
  std::string s = "converged=" + std::to_string(r.converged) +
                  " steps=" + std::to_string(r.time.size()) +
                  " sc=" + std::to_string(r.total_sc_iterations) +
                  " kind=" + std::to_string(static_cast<int>(r.diag.kind)) +
                  " it=" + std::to_string(r.diag.iterations) +
                  " retries=" + std::to_string(r.diag.retries_used) +
                  " tfail=" + hexf(r.diag.failure_time) +
                  " vmax=" + hexf(r.diag.max_abs_v);
  for (const std::size_t k : steps) {
    s += " | " + std::to_string(k) + ":";
    if (k >= r.port_voltages.size()) {
      s += " -";
      continue;
    }
    for (const double v : r.port_voltages[k]) s += " " + hexf(v);
  }
  return s;
}

/// One-port load: a port capacitance with a 1 MOhm leak to ground.
mor::PoleResidueModel cap_load(const StageCircuit& stage, double cload,
                               double vdd) {
  circuit::Netlist load;
  const auto out = load.add_node("out");
  load.add_capacitor(out, kGround, cload);
  load.add_resistor(out, kGround, 1e6);
  auto pencil = interconnect::build_ported_pencil(load, {out});
  pencil = mor::with_port_conductance(std::move(pencil),
                                      stage.port_chord_conductances(vdd));
  return mor::extract_pole_residue(
      mor::pact_reduce(pencil, mor::PactOptions{2}).model);
}

TetaOptions golden_options(double vdd) {
  TetaOptions opt;
  opt.tstop = 0.6e-9;
  opt.dt = 1e-12;
  opt.vdd = vdd;
  return opt;
}

TEST(GoldenBits, InverterTwoPortLoad) {
  InverterVsSpice fix;
  const TetaResult r = fix.run_teta(1.2e-9, 1e-12);
  EXPECT_EQ(golden(r, {0, 60, 100, 150, 300, 1200}),
            "converged=1 steps=1201 sc=1984 kind=0 it=1984 retries=0"
            " tfail=0x0p+0 vmax=0x0p+0"
            " | 0: 0x1.cccca7846fc97p+0 0x1.cccc986af909bp+0"
            " | 60: 0x1.d042d9556ac63p+0 0x1.cde4623233fc7p+0"
            " | 100: 0x1.bbb65ffa9c215p+0 0x1.ca842224a88aep+0"
            " | 150: 0x1.3a7fd27508a26p-1 0x1.e3ee40d05f1c7p-1"
            " | 300: 0x1.355279c084c6ap-7 0x1.0ac8b93735e53p-6"
            " | 1200: 0x1.739acda976838p-35 -0x1.87b6295f12ee8p-37");
}

TEST(GoldenBits, Nand2StackWithInternalNode) {
  const Technology t = technology_180nm();
  StageCircuit stage;
  const std::size_t out = stage.add_port();
  const std::size_t a = stage.add_input(
      SourceWaveform::pulse(0.0, t.vdd, 50e-12, 80e-12, 200e-12, 60e-12));
  const std::size_t b =
      stage.add_input(SourceWaveform::ramp(0.0, t.vdd, 0.0, 40e-12));
  const std::size_t vdd = stage.add_rail(t.vdd);
  const std::size_t gnd = stage.add_rail(0.0);
  const std::size_t mid = stage.add_internal();
  const auto i = [](std::size_t n) { return static_cast<int>(n); };
  stage.add_mosfet(t.make_nmos(i(out), i(a), i(mid), 8.0));
  circuit::Mosfet lower = t.make_nmos(i(mid), i(b), i(gnd), 8.0);
  lower.delta_vt = 0.02;
  lower.delta_l = 0.01e-6;
  stage.add_mosfet(lower);
  stage.add_mosfet(t.make_pmos(i(out), i(a), i(vdd), 8.0));
  stage.add_mosfet(t.make_pmos(i(out), i(b), i(vdd), 8.0));
  stage.freeze_device_capacitances();
  const TetaResult r =
      simulate_stage(stage, cap_load(stage, 25e-15, t.vdd),
                     golden_options(t.vdd));
  EXPECT_EQ(golden(r, {0, 40, 90, 150, 330, 400, 600}),
            "converged=1 steps=601 sc=2516 kind=0 it=2516 retries=0"
            " tfail=0x0p+0 vmax=0x0p+0"
            " | 0: 0x1.cc96252271c71p+0"
            " | 40: 0x1.d4d4c0830164dp+0"
            " | 90: 0x1.d02bc7619d17ap+0"
            " | 150: 0x1.16b099cba7a18p-1"
            " | 330: 0x1.dfe41debec60bp-14"
            " | 400: 0x1.34c8e45e50d13p-1"
            " | 600: 0x1.cc164571312a4p+0");
}

TEST(GoldenBits, TransmissionGateConductsBothWays) {
  // Drain on the port, source on the input: the input edge drives the
  // NMOS in reverse conduction on the way up and the PMOS on the way down.
  const Technology t = technology_180nm();
  StageCircuit stage;
  const std::size_t out = stage.add_port();
  const std::size_t in = stage.add_input(
      SourceWaveform::pulse(0.0, t.vdd, 40e-12, 60e-12, 200e-12, 60e-12));
  const std::size_t vdd = stage.add_rail(t.vdd);
  const std::size_t gnd = stage.add_rail(0.0);
  const auto i = [](std::size_t n) { return static_cast<int>(n); };
  stage.add_mosfet(t.make_nmos(i(out), i(vdd), i(in), 4.0));
  circuit::Mosfet p = t.make_pmos(i(out), i(gnd), i(in), 8.0);
  p.delta_vt = -0.03;
  stage.add_mosfet(p);
  stage.freeze_device_capacitances();
  const TetaResult r =
      simulate_stage(stage, cap_load(stage, 15e-15, t.vdd),
                     golden_options(t.vdd));
  EXPECT_EQ(golden(r, {0, 50, 80, 120, 310, 360, 600}),
            "converged=1 steps=601 sc=980 kind=0 it=980 retries=0"
            " tfail=0x0p+0 vmax=0x0p+0"
            " | 0: 0x0p+0"
            " | 50: 0x1.6dbf45aa895b7p-4"
            " | 80: 0x1.708eba5808da5p-1"
            " | 120: 0x1.a10828b9baf88p+0"
            " | 310: 0x1.b95c29f56943ep+0"
            " | 360: 0x1.ffb4377df34fep-2"
            " | 600: 0x1.c80ab78f843a8p-28");
}

TEST(GoldenBits, DtHalvingRetryLadder) {
  // A tight SC budget fails the first attempt; the halved-dt retry
  // converges. Pins the failed attempts' iterations too (they add up).
  InverterVsSpice fix;
  circuit::Netlist load;
  const auto out = load.add_node("out");
  load.add_capacitor(out, kGround, fix.cload1);
  load.add_resistor(out, kGround, 1e5);
  StageCircuit stage;
  const std::size_t p_out = stage.add_port();
  const std::size_t in = stage.add_input(fix.input);
  const std::size_t vdd = stage.add_rail(fix.tech.vdd);
  const std::size_t gnd = stage.add_rail(0.0);
  const auto i = [](std::size_t n) { return static_cast<int>(n); };
  stage.add_mosfet(fix.tech.make_nmos(i(p_out), i(in), i(gnd), 6.0));
  stage.add_mosfet(fix.tech.make_pmos(i(p_out), i(in), i(vdd), 12.0));
  stage.freeze_device_capacitances();
  TetaOptions opt = golden_options(fix.tech.vdd);
  opt.tstop = 0.3e-9;
  opt.dt = 10e-12;
  opt.max_sc_iters = 12;
  opt.recovery.max_dt_retries = 3;
  const TetaResult r =
      simulate_stage(stage, cap_load(stage, fix.cload1, fix.tech.vdd), opt);
  EXPECT_GT(r.diag.retries_used, 0);
  EXPECT_TRUE(r.converged) << r.failure();
  EXPECT_EQ(golden(r, {0, 10, 20, 30, 60}),
            "converged=1 steps=61 sc=380 kind=0 it=380 retries=1 tfail=0x0p+0"
            " vmax=0x0p+0"
            " | 0: 0x1.cc83eeb9af9f9p+0"
            " | 10: 0x1.cc8400989ce44p+0"
            " | 20: 0x1.b38aa84a07f68p+0"
            " | 30: 0x1.0aa1b9e9c5a22p-3"
            " | 60: 0x1.a504b656c3154p-14");
}

core::PathVariationModel golden_model() {
  core::PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  return model;
}

TEST(GoldenBits, SessionRunGraphS208) {
  api::DesignSpec spec;
  spec.circuit = "s208";
  spec.graph = true;
  spec.top_k = 8;
  const auto session = api::Session::load(spec);
  stats::RunOptions opt;
  opt.samples = 4;
  opt.seed = 7;
  opt.exec.threads = 2;
  const api::GraphResult g = session->run_graph(golden_model(), opt);
  std::string mc;
  for (const double v : g.mc.values) mc += hexf(v) + " ";
  EXPECT_EQ(mc,
            "0x1.b908e774d8146p-32 0x1.c44608bea12fcp-32 0x1.b7ace81d96ad8p-32"
            " 0x1.baa3f51ac4062p-32 ");
  EXPECT_EQ(hexf(g.nominal.max_delay), "0x1.be098add654dep-32");
  std::vector<double> all = g.mc.values;
  for (const auto& e : g.nominal.endpoints) {
    all.insert(all.end(), {static_cast<double>(e.net), e.delay, e.slew});
  }
  for (const auto& a : g.analytic) {
    all.insert(all.end(), {a.arrival.mean, a.arrival.local});
    all.insert(all.end(), a.arrival.sens.begin(), a.arrival.sens.end());
  }
  EXPECT_EQ(bits_hash(all), "038f3f98ab4e7bc1");
}

TEST(GoldenBits, SessionIsCvYieldS27) {
  api::DesignSpec spec;
  spec.circuit = "s27";
  const auto session = api::Session::load(spec);
  stats::RunOptions opt;
  opt.samples = 32;
  opt.seed = 3;
  opt.exec.threads = 2;
  const api::YieldResult y =
      session->run_yield(golden_model(), 0.0, "is-cv", 0.9987, opt);
  ASSERT_TRUE(y.is.has_value());
  const stats::IsYieldEstimate& is = *y.is;
  EXPECT_EQ(hexf(y.clock_period) + " " + hexf(is.yield_loss) + " " +
                hexf(is.std_error) + " " + hexf(is.ess) + " " +
                hexf(is.control_coefficient),
            "0x1.e3ce287cdd8fbp-33 0x1.026a570271be4p-8 0x1.13dc488dea01ap-10"
            " 0x1.5a7712073cca9p+0 0x1.847ba967aa45bp-1");
  std::vector<double> all = is.values;
  all.insert(all.end(), is.weights.begin(), is.weights.end());
  EXPECT_EQ(bits_hash(all), "92fd01b6e6913bc0");
}

}  // namespace
}  // namespace lcsf::teta
