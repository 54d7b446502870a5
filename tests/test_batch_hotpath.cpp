// Batched (SoA) Monte-Carlo hot path: bitwise equivalence against the
// scalar engine across batch widths and thread counts, the dispatch
// counters, fail-soft parity of the batch dispatcher, the strided-batch
// numeric kernels, and the lockstep TETA engine lane by lane against
// scalar simulate_stage. See docs/performance.md.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "circuit/technology.hpp"
#include "core/path.hpp"
#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "obs/registry.hpp"
#include "stats/runner.hpp"
#include "teta/batch.hpp"

namespace lcsf::core {
namespace {

using numeric::Matrix;
using numeric::Vector;

std::size_t cell_index(const std::string& name) {
  const auto& lib = timing::cell_library();
  for (std::size_t k = 0; k < lib.size(); ++k) {
    if (lib[k].name == name) return k;
  }
  throw std::logic_error("unknown cell");
}

PathSpec small_path_spec() {
  PathSpec spec;
  spec.tech = circuit::technology_180nm();
  spec.cells = {cell_index("INV"), cell_index("NAND2"), cell_index("NOR2")};
  spec.linear_elements_per_stage = 10;
  spec.stage_window = 1.0e-9;
  spec.dt = 2e-12;
  return spec;
}

PathVariationModel small_model() {
  PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  // Wire variation exercises the batched ROM evaluation in front of the
  // lockstep transient, not just the per-device stamps.
  model.std_wire_w = 0.33;
  return model;
}

// Every batch width must reproduce the scalar (batch = 1) run bitwise:
// same survivors, same per-sample delays, same draws. samples = 10 is
// deliberately not a multiple of any tested width, so each run also
// covers the scalar remainder loop (K = 8: one block + 2 singletons).
TEST(BatchHotpath, BatchWidthInvariantBitwise) {
  PathAnalyzer pa(small_path_spec());
  const PathVariationModel model = small_model();
  stats::RunOptions opt;
  opt.samples = 10;
  opt.seed = 17;
  opt.exec.threads = 1;
  opt.exec.batch = 1;
  const auto ref = pa.monte_carlo(model, opt);
  ASSERT_EQ(ref.values.size(), 10u);

  for (const std::size_t k : {std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    opt.exec.batch = k;
    const auto got = pa.monte_carlo(model, opt);
    ASSERT_EQ(got.values.size(), ref.values.size()) << "batch " << k;
    for (std::size_t s = 0; s < ref.values.size(); ++s) {
      EXPECT_EQ(got.values[s], ref.values[s])
          << "batch " << k << " sample " << s;
    }
    ASSERT_EQ(got.samples.size(), ref.samples.size());
    for (std::size_t s = 0; s < ref.samples.size(); ++s) {
      EXPECT_EQ(got.samples[s], ref.samples[s]);
    }
    EXPECT_EQ(got.stats.mean(), ref.stats.mean()) << "batch " << k;
  }
}

// At a fixed batch width the thread-count determinism contract of the
// scalar driver carries over: full blocks and remainder singletons go
// through one work queue, so any worker interleaving yields the same
// per-sample values.
TEST(BatchHotpath, ThreadCountInvariantAtFixedBatch) {
  PathAnalyzer pa(small_path_spec());
  const PathVariationModel model = small_model();
  stats::RunOptions opt;
  opt.samples = 10;
  opt.seed = 23;
  opt.exec.batch = 4;
  opt.exec.threads = 1;
  const auto ref = pa.monte_carlo(model, opt);

  for (const std::size_t t : {std::size_t{2}, std::size_t{8}}) {
    opt.exec.threads = t;
    const auto got = pa.monte_carlo(model, opt);
    ASSERT_EQ(got.values.size(), ref.values.size()) << "threads " << t;
    for (std::size_t s = 0; s < ref.values.size(); ++s) {
      EXPECT_EQ(got.values[s], ref.values[s])
          << "threads " << t << " sample " << s;
    }
  }
}

// 11 samples at batch 4 dispatch as 2 full blocks + 3 singletons; the
// counters and the batch_fill distribution pinned in
// tools/metrics_schema.json must say exactly that.
TEST(BatchHotpath, DispatchCountersAndFillDistribution) {
  PathAnalyzer pa(small_path_spec());
  const PathVariationModel model = small_model();
  obs::Registry reg;
  stats::RunOptions opt;
  opt.samples = 11;
  opt.seed = 5;
  opt.exec.threads = 1;
  opt.exec.batch = 4;
  opt.registry = &reg;
  const auto res = pa.monte_carlo(model, opt);
  EXPECT_EQ(res.values.size(), 11u);

  const obs::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("stats.mc.batches"), 2u);
  EXPECT_EQ(snap.counters.at("stats.mc.batch_remainder_samples"), 3u);
  const auto& fill = snap.distributions.at("stats.mc.batch_fill");
  EXPECT_EQ(fill.count, 5u);
  EXPECT_EQ(fill.min, 1.0);
  EXPECT_EQ(fill.max, 4.0);
  EXPECT_NEAR(fill.mean, (2.0 * 4.0 + 3.0 * 1.0) / 5.0, 1e-12);
}

// Synthetic evaluators isolate the Runner's batch dispatcher from the
// transient engine: the batched overload must reproduce the scalar
// fail-soft behaviour exactly -- same survivor values, same classified
// failure records -- and a failed slot must not perturb its neighbours.
TEST(BatchHotpath, FailSoftSkipParity) {
  const std::vector<stats::VariationSource> sources(2);
  auto value_of = [](const Vector& w) { return 3.0 * w[0] - 0.5 * w[1]; };
  auto fails = [](const Vector& w) { return w[0] > 0.4; };

  const stats::LanedPerformanceFn f = [&](const Vector& w, std::size_t) {
    if (fails(w)) {
      throw sim::SimulationError(sim::FailureKind::kNewtonNonConvergence,
                                 "synthetic divergence");
    }
    return value_of(w);
  };
  const stats::BatchPerformanceFn fb =
      [&](const std::vector<Vector>& w, std::size_t,
          std::vector<stats::BatchSlot>& out) {
        for (std::size_t b = 0; b < w.size(); ++b) {
          if (fails(w[b])) {
            out[b].failed = true;
            out[b].diag.kind = sim::FailureKind::kNewtonNonConvergence;
            out[b].diag.detail = "synthetic divergence";
          } else {
            out[b].value = value_of(w[b]);
          }
        }
      };

  stats::RunOptions opt;
  opt.samples = 37;
  opt.seed = 11;
  opt.exec.threads = 1;
  opt.exec.on_failure = stats::FailurePolicy::kSkip;

  opt.exec.batch = 1;
  const auto ref = stats::Runner(opt).run_monte_carlo(f, fb, sources);
  ASSERT_GT(ref.failures.failed(), 0u);
  ASSERT_GT(ref.failures.survived, 0u);

  opt.exec.batch = 8;
  const auto got = stats::Runner(opt).run_monte_carlo(f, fb, sources);
  EXPECT_EQ(got.values, ref.values);
  EXPECT_EQ(got.failures.attempted, ref.failures.attempted);
  EXPECT_EQ(got.failures.survived, ref.failures.survived);
  ASSERT_EQ(got.failures.failures.size(), ref.failures.failures.size());
  for (std::size_t i = 0; i < ref.failures.failures.size(); ++i) {
    EXPECT_EQ(got.failures.failures[i].index, ref.failures.failures[i].index);
    EXPECT_EQ(got.failures.failures[i].kind, ref.failures.failures[i].kind);
    EXPECT_EQ(got.failures.failures[i].detail,
              ref.failures.failures[i].detail);
  }

  // Under kAbort the first failed slot surfaces as the classified
  // exception, exactly like the scalar path.
  opt.exec.on_failure = stats::FailurePolicy::kAbort;
  EXPECT_THROW(stats::Runner(opt).run_monte_carlo(f, fb, sources),
               sim::SimulationError);
}

// The strided-batch numeric kernels must match their scalar counterparts
// bitwise, lane by lane, for the SoA layout soa[i * lanes + l].
TEST(BatchHotpath, NumericKernelsMatchScalarBitwise) {
  constexpr std::size_t kLanes = 8;
  constexpr std::size_t kRows = 3;
  constexpr std::size_t kCols = 4;
  std::uint64_t lcg = 0x243f6a8885a308d3ull;
  auto rnd = [&]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(lcg >> 11) / 9.007199254740992e15 - 0.5;
  };

  // axpy_batch over a flat SoA block == scalar axpy on each lane slice.
  {
    std::vector<double> x(kCols * kLanes), y(kCols * kLanes);
    for (auto& v : x) v = rnd();
    for (auto& v : y) v = rnd();
    std::vector<double> y_ref = y;
    const double a = rnd();
    numeric::axpy_batch(a, x.data(), y.data(), x.size());
    for (std::size_t i = 0; i < y_ref.size(); ++i) y_ref[i] += a * x[i];
    EXPECT_EQ(y, y_ref);
  }

  // mul_into_batch with per-lane matrices == mul_into per lane.
  {
    std::vector<Matrix> mats(kLanes, Matrix(kRows, kCols));
    std::vector<const Matrix*> mp(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      for (std::size_t i = 0; i < kRows; ++i) {
        for (std::size_t j = 0; j < kCols; ++j) mats[l](i, j) = rnd();
      }
      mp[l] = &mats[l];
    }
    std::vector<double> x(kCols * kLanes), y(kRows * kLanes, 0.0);
    for (auto& v : x) v = rnd();
    numeric::mul_into_batch(mp.data(), kRows, kCols, x.data(), y.data(),
                            kLanes);
    Vector xl(kCols), yl(kRows);
    for (std::size_t l = 0; l < kLanes; ++l) {
      for (std::size_t j = 0; j < kCols; ++j) xl[j] = x[j * kLanes + l];
      numeric::mul_into(mats[l], xl, yl);
      for (std::size_t i = 0; i < kRows; ++i) {
        EXPECT_EQ(y[i * kLanes + l], yl[i]) << "lane " << l << " row " << i;
      }
    }
  }

  // lu_solve_batch over packed per-lane factorizations == solve_into on
  // each lane. The dominant entry of column j sits in a lane-dependent
  // row, so partial pivoting picks a different row order in every lane
  // and the per-lane pivot gather is exercised.
  {
    constexpr std::size_t kN = 5;
    std::vector<numeric::LuFactorization> lus;
    for (std::size_t l = 0; l < kLanes; ++l) {
      Matrix a(kN, kN);
      for (std::size_t i = 0; i < kN; ++i) {
        for (std::size_t j = 0; j < kN; ++j) a(i, j) = rnd();
      }
      for (std::size_t j = 0; j < kN; ++j) a((j * (l + 1) + l) % kN, j) += 8.0;
      lus.emplace_back(a);
    }
    std::vector<double> lu(kN * kN * kLanes);
    std::vector<std::size_t> piv(kN * kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      lus[l].pack_lane(lu.data(), piv.data(), l, kLanes);
    }
    std::set<std::vector<std::size_t>> orders;
    for (std::size_t l = 0; l < kLanes; ++l) {
      std::vector<std::size_t> order(kN);
      for (std::size_t i = 0; i < kN; ++i) order[i] = piv[i * kLanes + l];
      orders.insert(order);
    }
    ASSERT_GE(orders.size(), 4u) << "pivot orders must differ across lanes";

    std::vector<double> b(kN * kLanes), x(kN * kLanes, 0.0);
    for (auto& v : b) v = rnd();
    numeric::lu_solve_batch(lu.data(), piv.data(), kN, b.data(), x.data(),
                            kLanes);
    Vector bl(kN), xl(kN);
    for (std::size_t l = 0; l < kLanes; ++l) {
      for (std::size_t i = 0; i < kN; ++i) bl[i] = b[i * kLanes + l];
      lus[l].solve_into(bl, xl);
      for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(x[i * kLanes + l], xl[i]) << "lane " << l << " row " << i;
      }
    }
  }
}

// A sampled channel-length reduction past the drawn length makes stage
// construction throw (non-positive effective length). The batched driver
// must classify that sample exactly as the scalar ladder does -- a kOther
// failure under kSkip -- instead of letting the throw escape the block.
TEST(BatchHotpath, NonPositiveLeffSkipParity) {
  PathAnalyzer pa(small_path_spec());
  PathVariationModel model;
  model.std_dl = 8.0;
  stats::RunOptions opt;
  opt.samples = 20;
  opt.seed = 3;
  opt.exec.threads = 1;
  opt.exec.on_failure = stats::FailurePolicy::kSkip;
  opt.exec.batch = 1;
  const auto ref = pa.monte_carlo(model, opt);
  std::size_t leff_failures = 0;
  for (const auto& f : ref.failures.failures) {
    if (f.kind == sim::FailureKind::kOther &&
        f.detail.find("non-positive effective length") != std::string::npos) {
      ++leff_failures;
    }
  }
  ASSERT_GT(leff_failures, 0u);
  ASSERT_GT(ref.failures.survived, 0u);

  for (const std::size_t k : {std::size_t{4}, std::size_t{8}}) {
    opt.exec.batch = k;
    const auto got = pa.monte_carlo(model, opt);
    EXPECT_EQ(got.values, ref.values) << "batch " << k;
    EXPECT_EQ(got.failures.attempted, ref.failures.attempted);
    EXPECT_EQ(got.failures.survived, ref.failures.survived);
    ASSERT_EQ(got.failures.failures.size(), ref.failures.failures.size());
    for (std::size_t i = 0; i < ref.failures.failures.size(); ++i) {
      EXPECT_EQ(got.failures.failures[i].index,
                ref.failures.failures[i].index);
      EXPECT_EQ(got.failures.failures[i].kind, ref.failures.failures[i].kind);
      EXPECT_EQ(got.failures.failures[i].detail,
                ref.failures.failures[i].detail);
    }
  }
}

// ---- Lockstep TETA engine against scalar simulate_stage ---------------

// One-port parallel RC load with the stage's port chord conductance
// folded in (Table 1 step 2): Z(s) = r / (s - p), C = 1/r, p = -G r.
mor::PoleResidueModel rc_load(const teta::StageCircuit& stage, double vdd) {
  const double c = 40e-15;
  const double g = 2e-4 + stage.port_chord_conductances(vdd)[0];
  numeric::ComplexMatrix res(1, 1);
  res(0, 0) = 1.0 / c;
  return mor::PoleResidueModel(1, Matrix(1, 1),
                               {numeric::Complex{-g / c, 0.0}}, {res});
}

// A transmission gate from the input to the port drives an inverter on an
// internal node. The input ramps up and back down, so each pass device
// conducts forward, then in reverse (input above the port), and cuts off
// near its rail; the inverter devices alternate in cutoff. Per-lane
// threshold and length shifts make the lanes converge at different
// iteration counts.
teta::StageCircuit tg_stage(const circuit::Technology& tech, double dvt,
                            double dl, circuit::MosType inv_n_type) {
  teta::StageCircuit s;
  const auto out = static_cast<int>(s.add_port());
  const auto mid = static_cast<int>(s.add_internal());
  const auto in = static_cast<int>(s.add_input(circuit::SourceWaveform::pwl(
      {{0.0, 0.0}, {40e-12, 0.0}, {120e-12, tech.vdd}, {300e-12, tech.vdd},
       {340e-12, 0.0}})));
  const auto vdd = static_cast<int>(s.add_rail(tech.vdd));
  const auto gnd = static_cast<int>(s.add_rail(0.0));
  circuit::Mosfet pass_n = tech.make_nmos(out, vdd, in, 6.0);
  circuit::Mosfet pass_p = tech.make_pmos(out, gnd, in, 12.0);
  circuit::Mosfet inv_n = tech.make_nmos(mid, out, gnd, 4.0);
  circuit::Mosfet inv_p = tech.make_pmos(mid, out, vdd, 8.0);
  inv_n.type = inv_n_type;
  for (circuit::Mosfet* m : {&pass_n, &pass_p, &inv_n, &inv_p}) {
    m->delta_vt = dvt;
    m->delta_l = dl;
    s.add_mosfet(*m);
  }
  s.freeze_device_capacitances();
  return s;
}

teta::TetaOptions tg_options(const circuit::Technology& tech) {
  teta::TetaOptions opt;
  opt.tstop = 500e-12;
  opt.dt = 2e-12;
  opt.vdd = tech.vdd;
  return opt;
}

// Run `stages` through simulate_stage_batch and, separately, through the
// scalar engine; every lane must agree bitwise, and exactly
// `scalar_lanes` lanes may have left the lockstep block for the scalar
// engine (a wrong lane kernel would otherwise hide behind the scalar
// rerun of a lane it made diverge). Returns the per-lane scalar results.
std::vector<teta::TetaResult> expect_batch_matches_scalar(
    const std::vector<teta::StageCircuit>& stages,
    const std::vector<mor::PoleResidueModel>& loads,
    const teta::TetaOptions& opt, std::uint64_t scalar_lanes) {
  const std::size_t nl = stages.size();
  std::vector<teta::TetaWorkspace> ws(nl);
  std::vector<teta::TetaResult> got(nl), want(nl);
  std::vector<teta::BatchLane> lanes;
  for (std::size_t l = 0; l < nl; ++l) {
    lanes.push_back({&stages[l], &loads[l], &ws[l], &got[l]});
  }
  teta::BatchTetaWorkspace bws;
  obs::Registry reg;
  {
    obs::ScopedContext ctx(&reg, 0);
    teta::simulate_stage_batch(lanes, opt, bws);
  }
  const auto timers = reg.snapshot().timers;
  const auto scalar = timers.find("teta.stage_batch/teta.stage");
  EXPECT_EQ(scalar == timers.end() ? 0u : scalar->second.count, scalar_lanes);
  for (std::size_t l = 0; l < nl; ++l) {
    teta::TetaWorkspace sws;
    teta::simulate_stage(stages[l], loads[l], opt, sws, want[l]);
    EXPECT_EQ(got[l].converged, want[l].converged) << "lane " << l;
    EXPECT_EQ(got[l].total_sc_iterations, want[l].total_sc_iterations)
        << "lane " << l;
    EXPECT_EQ(got[l].diag.kind, want[l].diag.kind) << "lane " << l;
    EXPECT_EQ(got[l].diag.iterations, want[l].diag.iterations);
    EXPECT_EQ(got[l].diag.retries_used, want[l].diag.retries_used);
    EXPECT_EQ(got[l].diag.detail, want[l].diag.detail);
    EXPECT_EQ(got[l].time, want[l].time) << "lane " << l;
    EXPECT_EQ(got[l].port_voltages, want[l].port_voltages) << "lane " << l;
  }
  return want;
}

TEST(BatchHotpath, LockstepLanesMatchScalarAcrossIterationCounts) {
  const circuit::Technology tech = circuit::technology_180nm();
  const teta::TetaOptions opt = tg_options(tech);
  std::vector<teta::StageCircuit> stages;
  std::vector<mor::PoleResidueModel> loads;
  for (std::size_t l = 0; l < 6; ++l) {
    const double x = static_cast<double>(l);
    stages.push_back(tg_stage(tech, -0.06 + 0.025 * x, 0.004e-6 * x,
                              circuit::MosType::kNmos));
    loads.push_back(rc_load(stages.back(), tech.vdd));
  }
  const auto want = expect_batch_matches_scalar(stages, loads, opt, 0);

  std::set<long> iteration_counts;
  for (const auto& r : want) {
    ASSERT_TRUE(r.converged);
    iteration_counts.insert(r.total_sc_iterations);
  }
  EXPECT_GE(iteration_counts.size(), 3u)
      << "lanes must converge at different iteration counts";

  // The nominal lane visits reverse conduction (input above the port)
  // and pass-device cutoff (both terminals near vdd).
  const circuit::SourceWaveform& in = stages[2].input_wave(2);
  bool reverse = false;
  bool cutoff = false;
  for (std::size_t k = 0; k < want[2].time.size(); ++k) {
    const double vo = want[2].port_voltages[k][0];
    const double vi = in.value(want[2].time[k]);
    reverse = reverse || vi > vo + 0.05;
    cutoff = cutoff || tech.vdd - std::min(vi, vo) < tech.nmos.vt0;
  }
  EXPECT_TRUE(reverse);
  EXPECT_TRUE(cutoff);
}

// The device kernel takes each device's NMOS/PMOS sign from the
// reference lane, so a lane that differs from it only in one device's
// polarity must not run in lockstep; it is rerouted to the scalar engine
// and still equals it.
TEST(BatchHotpath, PolarityMismatchIsReroutedToScalar) {
  const circuit::Technology tech = circuit::technology_180nm();
  const teta::TetaOptions opt = tg_options(tech);
  std::vector<teta::StageCircuit> stages;
  std::vector<mor::PoleResidueModel> loads;
  for (const circuit::MosType t :
       {circuit::MosType::kNmos, circuit::MosType::kPmos,
        circuit::MosType::kNmos}) {
    stages.push_back(tg_stage(tech, 0.0, 0.0, t));
    loads.push_back(rc_load(stages.back(), tech.vdd));
  }
  const auto want = expect_batch_matches_scalar(stages, loads, opt, 1);
  ASSERT_TRUE(want[0].converged);
  ASSERT_TRUE(want[1].converged);
  // The flipped device changes the answer, so a lane evaluated with the
  // reference lane's polarity would not have matched.
  bool differs = false;
  for (std::size_t k = 0; k < want[0].port_voltages.size(); ++k) {
    differs = differs || want[0].port_voltages[k] != want[1].port_voltages[k];
  }
  EXPECT_TRUE(differs);
}

// --batch / LCSF_BATCH plumbing: strict parsing, classified errors, and
// the override-then-env-then-default resolution order.
TEST(BatchHotpath, BatchParsingAndDefaultResolution) {
  EXPECT_EQ(stats::parse_batch("8", "--batch"), 8u);
  EXPECT_EQ(stats::parse_batch("1", "--batch"), 1u);
  for (const char* bad : {"0", "-3", "0x8", "4q", "", "+2", "3.5"}) {
    try {
      stats::parse_batch(bad, "--batch");
      FAIL() << "parse_batch accepted `" << bad << "`";
    } catch (const sim::SimulationError& e) {
      EXPECT_EQ(e.kind(), sim::FailureKind::kInvalidInput) << bad;
    }
  }

  // Resolution order: set_default_batch override > LCSF_BATCH > compiled
  // default. Restore process state on every exit path.
  stats::set_default_batch(0);
  ASSERT_EQ(setenv("LCSF_BATCH", "6", 1), 0);
  EXPECT_EQ(stats::default_batch(), 6u);
  stats::set_default_batch(3);
  EXPECT_EQ(stats::default_batch(), 3u);
  stats::set_default_batch(0);
  ASSERT_EQ(setenv("LCSF_BATCH", "nope", 1), 0);
  EXPECT_THROW(stats::default_batch(), sim::SimulationError);
  ASSERT_EQ(unsetenv("LCSF_BATCH"), 0);
  EXPECT_EQ(stats::default_batch(), stats::kDefaultBatch);
}

}  // namespace
}  // namespace lcsf::core
