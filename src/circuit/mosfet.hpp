// Shichman-Hodges level-1 MOSFET model (SPICE level 1), the device model the
// paper uses for all transistor-level experiments ("the analytical level-1
// model from [10]", Sec. 5.3).
//
// The model is deliberately split linear-centric: the drain current is the
// only nonlinearity (a voltage-controlled current source), while the gate
// and junction capacitances are constant (Meyer caps frozen at their
// region-averaged values) and therefore stamped into the *linear* part of
// the stage. This split is what makes the Successive Chords engine exact
// for the capacitive part.
#pragma once

#include <string>

namespace lcsf::circuit {

enum class MosType { kNmos, kPmos };

/// Process-level model card (per technology, per device polarity).
struct MosfetModel {
  double vt0 = 0.5;        ///< zero-bias threshold [V] (positive for both
                           ///< polarities; sign handled by evaluation)
  double kp = 200e-6;      ///< transconductance mu*Cox [A/V^2]
  double lambda = 0.05;    ///< channel-length modulation [1/V]
  double cox = 8e-3;       ///< gate oxide capacitance [F/m^2]
  double cj = 1e-3;        ///< junction capacitance [F/m^2]
};

/// A device instance: geometry plus its private fluctuation terms.
struct Mosfet {
  int drain = 0;
  int gate = 0;
  int source = 0;
  MosType type = MosType::kNmos;
  double w = 1e-6;  ///< drawn width [m]
  double l = 1e-6;  ///< drawn length [m]
  MosfetModel model;

  // Manufacturing fluctuations (paper Sec. 5.3: DL = channel length
  // reduction, VT = threshold shift). Zero at nominal.
  double delta_l = 0.0;   ///< channel-length reduction [m]; Leff = l - delta_l
  double delta_vt = 0.0;  ///< threshold shift [V]

  double leff() const;
  /// Gate-source / gate-drain Meyer capacitance (constant approximation).
  double cgs() const;
  double cgd() const;
  /// Drain-bulk junction capacitance to ground.
  double cdb() const;
};

/// Drain current and its partial derivatives at a bias point.
struct MosOperatingPoint {
  double ids = 0.0;  ///< drain-to-source current (positive into drain for
                     ///< NMOS conduction)
  double gm = 0.0;   ///< d ids / d vgs
  double gds = 0.0;  ///< d ids / d vds
};

/// Level-1 drain current of an NMOS-normalized device with vds >= 0,
/// beta = kp*w/leff and vgst = vgs - vt. Written branch-free (both region
/// values computed, then selected) so the lockstep SoA engine can evaluate
/// it across lanes as vector selects; the selected value is the same IEEE
/// expression either way, so mosfet_eval and the lane kernel agree bitwise.
inline double level1_ids(double beta, double lambda, double vgst,
                         double vds) {
  const double clm = 1.0 + lambda * vds;
  const double triode = beta * (vgst * vds - 0.5 * vds * vds) * clm;
  const double sat = 0.5 * beta * vgst * vgst * clm;
  const double on = vds < vgst ? triode : sat;
  return vgst <= 0.0 ? 0.0 : on;  // cutoff
}

/// Evaluate the level-1 equations at terminal voltages (vg, vd, vs).
/// Handles source/drain swap for reverse conduction and the PMOS mirror.
MosOperatingPoint mosfet_eval(const Mosfet& m, double vg, double vd,
                              double vs);

/// Saturation current at |vgs| = vdd, the natural scale for chord selection.
double mosfet_idsat(const Mosfet& m, double vdd);

std::string to_string(MosType t);

}  // namespace lcsf::circuit
