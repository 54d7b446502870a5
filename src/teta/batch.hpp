// Lockstep SoA execution of a block of TETA transients.
//
// A Monte-Carlo batch runs K samples of the *same stage topology* whose
// device parameters differ. Setup + DC reuse the scalar engine per lane
// (teta/stage_detail.hpp); the timestep loop then runs all lanes in
// lockstep with every per-step kernel (recursive-convolution history,
// state advance, RHS assembly, capacitor companions) expressed over
// lane-inner structure-of-arrays buffers, so the compiler vectorizes
// across samples (numeric/simd.hpp). The successive-chord iteration is
// lane-inner too: each lane's transient LU and device constants are
// packed once per transient, and every iteration evaluates the devices,
// stamps the Norton currents and runs the packed LU substitution
// (numeric::lu_solve_batch) for all lanes at once, with converged lanes
// frozen under a pending mask until the slowest lane is done.
//
// Contract: results are bitwise identical to running teta::simulate_stage
// on each lane separately. This holds because
//   * setup/DC *is* the scalar code (shared, not duplicated);
//   * the per-step kernels perform the same double operations in the same
//     order per lane -- both engines read the same per-transient step
//     plan, the device Norton current is the one inline
//     detail::device_norton both call (circuit::level1_ids with the
//     region and source/drain-swap branches as selects of identically
//     computed values), and complex arithmetic is expanded to the
//     (ac - bd, ad + bc) component form, which is GCC's fast path for
//     finite operands (the only case a converging transient produces);
//   * coefficients involving complex divisions are copied bit-for-bit
//     from the scalar-initialized convolver, never recomputed;
//   * any lane that cannot stay in lockstep (shape mismatch, setup or
//     convergence failure, blow-up) is rerun from scratch under the
//     scalar engine, whose first attempt repeats the failed lockstep
//     attempt bitwise and then continues with the usual retry ladder.
#pragma once

#include <cstddef>
#include <vector>

#include "mor/poleres.hpp"
#include "numeric/matrix.hpp"
#include "teta/stage.hpp"

namespace lcsf::teta {

/// One sample of a lockstep block: caller-owned circuit, load, scratch and
/// result. Stages may differ in device parameters but must share topology
/// (node kinds, device terminals, capacitor endpoints, pole count) to run
/// in lockstep; lanes that do not are transparently run scalar.
struct BatchLane {
  const StageCircuit* stage = nullptr;
  const mor::PoleResidueModel* load = nullptr;
  TetaWorkspace* ws = nullptr;
  TetaResult* out = nullptr;
};

/// Reusable SoA scratch for simulate_stage_batch; all buffers are
/// lane-inner (index [... * B + b] for live-lane slot b) and sized on
/// entry, so back-to-back batches allocate nothing once warm. Engine
/// internals; treat as opaque storage.
struct BatchTetaWorkspace {
  // Unknowns / RHS / per-step vectors, [i * B + b].
  std::vector<double> x, xn, rhs, rhs_const, hist, yhist, vp, il;
  // Predictor history x_{k-1}, x_{k-2} (TetaWorkspace::x_km1/x_km2),
  // packed from each lane's DC seed, [i * B + b].
  std::vector<double> x_km1, x_km2;
  std::vector<double> acc;  // history accumulator, [b]
  // Recursive-convolution coefficients, [k * B + b].
  std::vector<double> d_re, d_im, ca_re, ca_im, cb_re, cb_im, w_re, w_im;
  std::vector<double> r_re, r_im;    // residues, [((k*np + i)*np + j)*B + b]
  std::vector<double> st_re, st_im;  // conv state, [(k*np + j)*B + b]
  std::vector<double> ip;            // committed port current, [j * B + b]
  std::vector<double> ck_g;          // known-chord conductance, [c * B + b]
  std::vector<double> cap_geq, cap_u, cap_i;  // cap companions, [c * B + b]
  std::vector<double> lu;            // packed lu_tr, [(i*n + j)*B + b]
  std::vector<std::size_t> piv;      // packed lu_tr pivots, [i * B + b]
  // Node voltages, [node * B + b]: rails written once per transient,
  // inputs once per step, unknowns every iteration (the step plan).
  std::vector<double> vnode;
  std::vector<double> jn, dmax;      // device Norton current, max step, [b]
  // Step-plan device constants, [d * B + b]: kp*w/leff, vt0 + delta_vt,
  // lambda, and the chord conductance.
  std::vector<double> dev_beta, dev_vth, dev_lambda, dev_chord;
  std::vector<const numeric::Matrix*> y_h;    // per live slot
  std::vector<std::size_t> live;              // lane index per SoA slot
  std::vector<unsigned char> alive, sc_done;  // per live slot
  std::vector<unsigned char> rerun;           // per lane
};

/// Simulate every lane, in lockstep where possible (see file comment for
/// the bitwise contract). Each lane's `out` carries the same result,
/// diagnostics and iteration counts as a scalar simulate_stage call;
/// invalid inputs (port-count mismatch) throw exactly as the scalar
/// engine does.
void simulate_stage_batch(const std::vector<BatchLane>& lanes,
                          const TetaOptions& opt, BatchTetaWorkspace& bws);

}  // namespace lcsf::teta
