#include <cmath>

#include "api/session.hpp"
#include "bench.hpp"

namespace perfbench {

using namespace lcsf;

double held_set_error_pct(const std::string& circuit, std::size_t n) {
  api::DesignSpec spec;
  spec.circuit = circuit;
  const auto session = api::Session::load(spec);
  const core::PathAnalyzer& pa = *session->path_analyzer();
  core::PathVariationModel model;
  model.std_dl = 0.33;
  model.std_vt = 0.33;
  const auto sources = pa.sources(model);

  // The held set is fixed: it never depends on --seed, so the figure is
  // comparable across runs and across commits.
  Rng rng(0x4e1d5e7);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    numeric::Vector w(sources.size());
    for (std::size_t d = 0; d < sources.size(); ++d) {
      // Box-Muller standard normal, scaled to the source's sigma.
      const double u1 = rng.uniform(1e-12, 1.0);
      const double u2 = rng.uniform(0.0, 1.0);
      const double z =
          std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
      w[d] = sources[d].mean + sources[d].sigma * z;
    }
    const core::PathSample sample = pa.sample_from_sources(model, w);
    const double fw = pa.framework_delay(sample).delay;
    const double sp = pa.spice_delay(sample).delay;
    sum += std::fabs(fw - sp) / sp;
  }
  return 100.0 * sum / static_cast<double>(n);
}

}  // namespace perfbench
