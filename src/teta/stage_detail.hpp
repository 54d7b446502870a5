// Internal seam between the scalar TETA engine (stage.cpp) and the batched
// SoA engine (batch.cpp).
//
// One transient attempt splits into two phases:
//   1. setup + DC: build the unknown map and the step plan (known and
//      unknown node slots, per-device constants), stamp the constant SC
//      system, factorize it, find the DC operating point with damped
//      Newton, and initialize the convolver history and capacitor states;
//   2. the timestep loop, which reads the plan.
// Phase 1 is identical per sample whether samples run scalar or batched,
// so the batch engine calls this shared implementation per lane and only
// the timestep loop is re-expressed in lane-inner SoA form. Sharing the
// code (rather than duplicating it) -- and the device kernel below -- is
// what keeps the batched path bitwise identical to the scalar one by
// construction.
//
// This header is engine-internal: only stage.cpp and batch.cpp include it.
#pragma once

#include <cstddef>

#include "circuit/mosfet.hpp"
#include "teta/stage.hpp"

namespace lcsf::teta::detail {

/// Scalars produced by the setup phase that the timestep loop needs.
struct StageSetup {
  std::size_t n = 0;  ///< number of SC unknowns (ports + internals)
};

/// Setup + DC phase of one transient attempt (see file comment). Resets
/// `res`, fills `ws` (unknown map, step plan with the rail slots of
/// ws.vnode written, chord_known, caps, factored lu_tr, y_h/y_dc, DC
/// solution in ws.x and in the predictor history ws.x_km1/x_km2,
/// initialized convolver) and `setup`. Returns false with res.diag
/// classified when the attempt cannot proceed (singular system, DC
/// Newton failure).
bool setup_and_dc(const StageCircuit& stage,
                  const mor::PoleResidueModel& load, const TetaOptions& opt,
                  TetaWorkspace& ws, TetaResult& res, StageSetup& setup);

/// Norton current j = ids(vg, vd, vs) - G_ch (vd - vs) of one device of
/// the step plan: the successive-chord right-hand side term (current
/// leaving the drain is +ids). mosfet_eval's source/drain swap and PMOS
/// mirror are written as selects so the lockstep engine vectorizes the
/// same expression across lanes; both engines call this, so the drain
/// current exists once and agrees with mosfet_eval(...).ids bitwise.
inline double device_norton(bool pmos, double beta, double vth,
                            double lambda, double chord, double vg,
                            double vd, double vs) {
  const double sign = pmos ? -1.0 : 1.0;
  const double nvg = sign * vg;
  const double nvd0 = sign * vd;
  const double nvs0 = sign * vs;
  const bool swapped = nvd0 < nvs0;
  const double nvd = swapped ? nvs0 : nvd0;
  const double nvs = swapped ? nvd0 : nvs0;
  const double idf = circuit::level1_ids(beta, lambda, nvg - nvs - vth,
                                         nvd - nvs);
  const double idn = swapped ? -idf : idf;
  const double ids = pmos ? -idn : idn;
  return ids - chord * (vd - vs);
}

/// Predicted SC starting point of the next step, in place, for one
/// unknown: x = 3 x_k - 3 x_{k-1} + x_{k-2} (quadratic extrapolation of
/// the last three converged solutions), then shift the history. The
/// fixed point each step converges to does not depend on where the
/// iteration starts; a good start only takes fewer chords to reach it.
/// Both engines call this with the same association, so their per-lane
/// IEEE operation sequences stay identical.
inline void predict_start(double& x, double& x_km1, double& x_km2) {
  const double xk = x;
  x = 3.0 * xk - 3.0 * x_km1 + x_km2;
  x_km2 = x_km1;
  x_km1 = xk;
}

}  // namespace lcsf::teta::detail
