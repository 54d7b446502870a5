// Differential accuracy properties over seeded random draws.
//
//   * Path level: the stage-by-stage framework (framework_delay) against
//     the whole-path SPICE substitute (spice_delay) on random small paths
//     -- random cell mix, wire element count and dl/vt/wire-width draws --
//     inside the agreement band test_core.cpp uses at nominal (6%).
//   * Stage level: the successive-chord engine at the default vtol against
//     the same stage converged to vtol = 1e-10. The SC start of each step
//     is free (docs/performance.md), so how a step is started may change
//     the iteration count but must not move the converged waveform: the
//     50% crossing and the slew must agree within kStartBoundPs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <random>
#include <vector>

#include "circuit/technology.hpp"
#include "core/path.hpp"
#include "interconnect/coupled_lines.hpp"
#include "mor/pact.hpp"
#include "mor/poleres.hpp"
#include "mor/variational.hpp"
#include "teta/stage.hpp"
#include "timing/cells.hpp"
#include "timing/waveform.hpp"

namespace lcsf {
namespace {

using circuit::kGround;
using circuit::SourceWaveform;
using circuit::Technology;

constexpr int kDraws = 12;
constexpr double kPathBand = 0.06;      // relative, as in test_core.cpp
// Default vtol against vtol = 1e-10. Measured at most 0.0007 ps with
// each step started from the last solution and 0.0003 ps with the
// predicted start, on these draws.
constexpr double kStartBoundPs = 0.01;

TEST(Differential, RandomPathsFrameworkTracksSpice) {
  std::mt19937_64 rng(20261020);
  std::uniform_int_distribution<std::size_t> cell(
      0, timing::cell_library().size() - 1);
  std::uniform_int_distribution<std::size_t> stages(1, 3);
  std::uniform_int_distribution<std::size_t> elements(5, 60);
  std::normal_distribution<double> normal(0.0, 1.0);
  core::PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  model.std_wire_w = 0.33;
  for (int draw = 0; draw < kDraws; ++draw) {
    core::PathSpec spec;
    spec.tech = circuit::technology_180nm();
    spec.cells.resize(stages(rng));
    for (auto& c : spec.cells) c = cell(rng);
    spec.linear_elements_per_stage = elements(rng);
    spec.stage_window = 1.0e-9;
    spec.dt = 2e-12;
    const core::PathAnalyzer pa(spec);
    const auto sources = pa.sources(model);
    numeric::Vector w(sources.size());
    for (std::size_t k = 0; k < w.size(); ++k) {
      w[k] = sources[k].sigma * normal(rng);
    }
    const core::PathSample sample = pa.sample_from_sources(model, w);
    const auto fw = pa.framework_delay(sample);
    const auto sp = pa.spice_delay(sample);
    std::string cells;
    for (const std::size_t c : spec.cells) {
      cells += timing::cell_library()[c].name + " ";
    }
    SCOPED_TRACE("draw " + std::to_string(draw) + ": " + cells +
                 std::to_string(spec.linear_elements_per_stage) +
                 " elements");
    EXPECT_GT(fw.delay, 0.0);
    EXPECT_NEAR(fw.delay, sp.delay, kPathBand * sp.delay);
  }
}

/// One library cell driving a random RC wire with a receiver cap, reduced
/// like PathAnalyzer reduces a stage load (chords folded in, PACT order 6,
/// stabilized).
struct RandomStage {
  teta::StageCircuit stage;
  mor::PoleResidueModel load;
  bool out_rising = true;
};

RandomStage random_stage(std::mt19937_64& rng, const Technology& tech) {
  std::uniform_int_distribution<std::size_t> cell(
      0, timing::cell_library().size() - 1);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  std::normal_distribution<double> normal(0.0, 1.0);
  const auto& c = timing::cell_library()[cell(rng)];
  timing::DeviceVariation var;
  var.delta_l = 0.33 * normal(rng) * tech.sigma3_dl_frac * tech.lmin;
  var.delta_vt = 0.33 * normal(rng) * tech.sigma3_vt_frac * tech.nmos.vt0;

  interconnect::CoupledLineSpec wire;
  wire.num_lines = 1;
  wire.length = (10.0 + 190.0 * u01(rng)) * 1e-6;
  wire.segment_length = 1e-6;
  wire.geometry = tech.wire;
  auto bundle = interconnect::build_coupled_lines(wire);
  bundle.netlist.add_capacitor(bundle.far_ends[0], kGround,
                               (2.0 + 8.0 * u01(rng)) * 1e-15);

  RandomStage r;
  r.out_rising = !c.inverting;  // the input rises
  const std::size_t out = r.stage.add_port();
  (void)r.stage.add_port();
  const std::size_t in = r.stage.add_input(SourceWaveform::ramp(
      0.0, tech.vdd, 100e-12, (40.0 + 120.0 * u01(rng)) * 1e-12));
  const std::size_t vdd = r.stage.add_rail(tech.vdd);
  const std::size_t gnd = r.stage.add_rail(0.0);
  timing::instantiate_cell(c, tech, r.stage, out, in, vdd, gnd, var);
  r.stage.freeze_device_capacitances();
  auto pencil = interconnect::build_ported_pencil(
      bundle.netlist, {bundle.near_ends[0], bundle.far_ends[0]});
  pencil = mor::with_port_conductance(
      std::move(pencil), r.stage.port_chord_conductances(tech.vdd));
  r.load = mor::stabilize(mor::extract_pole_residue(
      mor::pact_reduce(pencil, mor::PactOptions{6}).model));
  return r;
}

TEST(Differential, SuccessiveChordsConvergeToTheSameWaveform) {
  const Technology tech = circuit::technology_180nm();
  std::mt19937_64 rng(20261021);
  for (int draw = 0; draw < kDraws; ++draw) {
    const RandomStage s = random_stage(rng, tech);
    teta::TetaOptions opt;
    opt.tstop = 1.2e-9;
    opt.dt = 2e-12;
    opt.vdd = tech.vdd;
    teta::TetaOptions tight = opt;
    tight.vtol = 1e-10;
    const auto res = teta::simulate_stage(s.stage, s.load, opt);
    const auto ref = teta::simulate_stage(s.stage, s.load, tight);
    SCOPED_TRACE("draw " + std::to_string(draw));
    ASSERT_TRUE(res.converged) << res.failure();
    ASSERT_TRUE(ref.converged) << ref.failure();
    ASSERT_EQ(res.time.size(), ref.time.size());
    for (const std::size_t port : {std::size_t{0}, std::size_t{1}}) {
      const auto a =
          timing::measure_ramp(res.waveform(port), tech.vdd, s.out_rising);
      const auto b =
          timing::measure_ramp(ref.waveform(port), tech.vdd, s.out_rising);
      EXPECT_NEAR(a.m * 1e12, b.m * 1e12, kStartBoundPs) << "port " << port;
      EXPECT_NEAR(a.s * 1e12, b.s * 1e12, kStartBoundPs) << "port " << port;
    }
  }
}

}  // namespace
}  // namespace lcsf
