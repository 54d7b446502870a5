#include "circuit/mosfet.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lcsf::circuit {

double Mosfet::leff() const {
  const double le = l - delta_l;
  if (le <= 0.0) {
    throw std::runtime_error("Mosfet: non-positive effective length");
  }
  return le;
}

double Mosfet::cgs() const { return 0.5 * model.cox * w * leff(); }
double Mosfet::cgd() const { return 0.5 * model.cox * w * leff(); }
double Mosfet::cdb() const { return model.cj * w * leff(); }

namespace {

// Core level-1 equations for an NMOS-normalized device with vds >= 0.
MosOperatingPoint level1_forward(double beta, double lambda, double vgst,
                                 double vds) {
  MosOperatingPoint op;
  if (vgst <= 0.0) {
    return op;  // cutoff: ids = gm = gds = 0
  }
  op.ids = level1_ids(beta, lambda, vgst, vds);
  const double clm = 1.0 + lambda * vds;
  if (vds < vgst) {
    // Triode region.
    op.gm = beta * vds * clm;
    op.gds = beta * ((vgst - vds) * clm +
                     lambda * (vgst * vds - 0.5 * vds * vds));
  } else {
    // Saturation.
    op.gm = beta * vgst * clm;
    op.gds = 0.5 * beta * vgst * vgst * lambda;
  }
  return op;
}

}  // namespace

MosOperatingPoint mosfet_eval(const Mosfet& m, double vg, double vd,
                              double vs) {
  const double sign = (m.type == MosType::kNmos) ? 1.0 : -1.0;
  // Normalize to NMOS polarity.
  double nvg = sign * vg;
  double nvd = sign * vd;
  double nvs = sign * vs;

  // The level-1 device is symmetric: if vds < 0 the roles of drain and
  // source swap. Track the swap so the returned derivatives stay with
  // respect to the *original* (vgs, vds) pair.
  bool swapped = false;
  if (nvd < nvs) {
    std::swap(nvd, nvs);
    swapped = true;
  }
  const double vgst = nvg - nvs - (m.model.vt0 + m.delta_vt);
  const double vds = nvd - nvs;
  const double beta = m.model.kp * m.w / m.leff();
  MosOperatingPoint op = level1_forward(beta, m.model.lambda, vgst, vds);

  if (swapped) {
    // Reverse conduction: by device symmetry i(vgs, vds) = -i_f(vgd, -vds)
    // with vgd = vgs - vds, and level1_forward above was evaluated exactly
    // at (vgd, -vds). Chain rule:
    //   d i / d vgs = -gm_f
    //   d i / d vds = -(gm_f * (-1) + gds_f * (-1)) = gm_f + gds_f
    const double gm_f = op.gm;
    const double gds_f = op.gds;
    op.ids = -op.ids;
    op.gm = -gm_f;
    op.gds = gm_f + gds_f;
  }

  // PMOS mirror: currents and derivative signs.
  if (m.type == MosType::kPmos) {
    op.ids = -op.ids;
    // gm, gds are second derivatives of sign flips twice -> unchanged.
  }
  return op;
}

double mosfet_idsat(const Mosfet& m, double vdd) {
  const double vgst = vdd - (m.model.vt0 + m.delta_vt);
  if (vgst <= 0.0) return 0.0;
  const double beta = m.model.kp * m.w / m.leff();
  return 0.5 * beta * vgst * vgst * (1.0 + m.model.lambda * vdd);
}

std::string to_string(MosType t) {
  return t == MosType::kNmos ? "nmos" : "pmos";
}

}  // namespace lcsf::circuit
