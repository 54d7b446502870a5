// deck_transient: seeded inverter chains with RC wires, written as SPICE
// decks by the benchmark, loaded as deck Sessions and run through
// Session::run_transient. The only workload that reaches the deck parser
// and the spice Newton / sparse-LU engine; it runs no TETA or stats code.
#include <cmath>
#include <cstdio>

#include "api/session.hpp"
#include "bench.hpp"

namespace perfbench {
namespace {

using namespace lcsf;

constexpr double kVdd = 1.8;
constexpr double kDt = 2e-12;
constexpr std::size_t kDecks = 32;

struct Deck {
  std::string text;
  std::size_t stages = 0;
  double tstop = 0.0;
};

/// One inverter chain of `stages` inverters, each driving a series-R /
/// shunt-C wire into the next, the input rising once at 100 ps. The
/// window leaves the last stage time to settle.
Deck make_deck(Rng& rng, std::size_t stages) {
  Deck d;
  d.stages = stages;
  const double rise = rng.uniform(40e-12, 150e-12);
  d.tstop = std::max(2e-9, 1.6e-9 + static_cast<double>(stages) * 90e-12) +
            rng.uniform(0.0, 0.5e-9);
  char buf[160];
  std::string& s = d.text;
  s = "* seeded inverter chain\nVdd vdd 0 DC 1.8\n";
  std::snprintf(buf, sizeof(buf), "Vin in 0 PWL(0 0 100p 0 %.4gp 1.8)\n",
                100.0 + rise * 1e12);
  s += buf;
  std::string prev = "in";
  for (std::size_t k = 1; k <= d.stages; ++k) {
    const double wn = 0.36 * static_cast<double>(rng.between(2, 4));
    const double r = rng.uniform(50.0, 400.0);
    const double c = rng.uniform(2.0, 20.0);
    std::snprintf(buf, sizeof(buf),
                  "M%zu o%zu %s 0 NMOS W=%.3gu L=0.18u\n"
                  "M%zu o%zu %s vdd PMOS W=%.3gu L=0.18u\n"
                  "Rw%zu o%zu m%zu %.4g\nCw%zu m%zu 0 %.4gf\n",
                  2 * k - 1, k, prev.c_str(), wn, 2 * k, k, prev.c_str(),
                  2.0 * wn, k, k, k, r, k, k, c);
    s += buf;
    prev = "m" + std::to_string(k);
  }
  s += "Cl " + prev + " 0 15f\n.end\n";
  return d;
}

/// Time of the first vdd/2 crossing at or after t=0 (linear
/// interpolation); negative when the node never crosses.
double crossing(const std::vector<std::pair<double, double>>& w) {
  for (std::size_t k = 1; k < w.size(); ++k) {
    const double a = w[k - 1].second - 0.5 * kVdd;
    const double b = w[k].second - 0.5 * kVdd;
    if ((a < 0.0) != (b < 0.0)) {
      return w[k - 1].first +
             (w[k].first - w[k - 1].first) * a / (a - b);
    }
  }
  return -1.0;
}

class DeckTransient final : public Workload {
 public:
  explicit DeckTransient(std::uint64_t seed) : seed_(seed) {
    // Chain lengths form a fixed ladder over 5..60 stages, so every seed
    // carries about the same work and the call latencies spread evenly
    // (no percentile sits in a gap between a few deck sizes). The seed
    // draws the device widths, wires and input edges.
    Rng rng(seed);
    for (std::size_t k = 0; k < kDecks; ++k) {
      decks_.push_back(make_deck(rng, 5 + (k * 55 + 15) / (kDecks - 1)));
    }
  }

  std::size_t callers() const override { return hardware_threads(); }
  std::size_t call_threads() const override { return 1; }

  void setup() override {
    sessions_.clear();
    for (const api::DesignSpec& spec : load_specs()) {
      sessions_.push_back(api::Session::load(spec));
    }
  }
  std::vector<api::DesignSpec> load_specs() const override {
    std::vector<api::DesignSpec> out(decks_.size());
    for (std::size_t k = 0; k < decks_.size(); ++k) {
      out[k].deck = decks_[k].text;
    }
    return out;
  }

  /// Run deck `k`; returns the accepted time points, or -1 when the
  /// transient failed or a stage output did not settle at its level.
  double call(std::size_t k, std::vector<double>* finals) const {
    const api::Session& s = *sessions_[k];
    spice::TransientOptions opt;
    opt.tstop = decks_[k].tstop;
    opt.dt = kDt;
    const spice::TransientResult r = s.run_transient(opt);
    if (!r.converged) return -1.0;
    const circuit::Netlist& nl = s.deck_netlist();
    for (std::size_t st = 1; st <= decks_[k].stages; ++st) {
      const double v = r.final_voltage(nl.find_node("o" + std::to_string(st)));
      // The input rises, so odd stages settle low and even stages high.
      const double want = st % 2 == 1 ? 0.0 : kVdd;
      if (!(std::fabs(v - want) < 0.1 * kVdd)) return -1.0;
      finals->push_back(v);
    }
    return static_cast<double>(r.time.size());
  }

  LegResult run(const LegOptions& leg) override {
    const std::size_t callers = leg.serial ? 1 : this->callers();
    std::vector<std::unique_ptr<obs::Registry>> regs(callers);
    if (leg.traced) {
      for (auto& r : regs) r = std::make_unique<obs::Registry>();
    }
    LegResult out = closed_loop(
        callers, leg, [&](std::size_t c, std::size_t idx) {
          obs::ScopedContext ctx(regs[c].get(), 0);
          // Calls walk the ladder in order, so the callers always meet
          // the longest chains together at the end of a cycle and the
          // peak memory of the run does not depend on chance overlaps.
          const std::size_t k = idx % kDecks;
          std::vector<double> finals;
          const double steps = call(k, &finals);
          if (steps < 0.0 || !log_.record(k, finals)) return -1.0;
          return steps;
        });
    if (leg.traced) {
      for (const auto& r : regs) out.trace.add(trace_of(*r));
    }
    return out;
  }

  std::size_t verify() override {
    // Every call was checked as it ran: settled levels, and a repeated
    // deck reproduces its final voltages exactly. Rerun one seeded deck
    // here, alone, against what the loaded callers got.
    const auto picked = log_.sample(seed_ ^ 0x5e771e, 1);
    if (picked.empty()) return 1;
    std::vector<double> finals;
    return call(picked[0].first, &finals) >= 0.0 &&
                   same_bits(finals, picked[0].second)
               ? 0
               : 1;
  }

  double delay_err_pct() override {
    // Chain delay at the workload's dt against a dt/8 reference, over a
    // fixed (seed-independent) held set of short chains.
    Rng rng(0x4e1dec);
    double sum = 0.0;
    const std::size_t n = 3;
    for (std::size_t k = 0; k < n; ++k) {
      const Deck d = make_deck(rng, rng.between(6, 10));
      api::DesignSpec spec;
      spec.deck = d.text;
      const auto s = api::Session::load(spec);
      const circuit::Netlist& nl = s->deck_netlist();
      const circuit::NodeId in = nl.find_node("in");
      const circuit::NodeId out =
          nl.find_node("o" + std::to_string(d.stages));
      double delay[2] = {0.0, 0.0};
      for (int ref = 0; ref < 2; ++ref) {
        spice::TransientOptions opt;
        opt.tstop = d.tstop;
        opt.dt = ref == 0 ? kDt : kDt / 8.0;
        const spice::TransientResult r = s->run_transient(opt);
        delay[ref] = crossing(r.waveform(out)) - crossing(r.waveform(in));
      }
      sum += std::fabs(delay[0] - delay[1]) / delay[1];
    }
    return 100.0 * sum / static_cast<double>(n);
  }

 private:
  std::uint64_t seed_;
  std::vector<Deck> decks_;
  std::vector<std::shared_ptr<api::Session>> sessions_;
  ResultLog log_;
};

}  // namespace

std::unique_ptr<Workload> make_deck_transient(std::uint64_t seed) {
  return std::make_unique<DeckTransient>(seed);
}

std::vector<std::string> probe_decks(std::uint64_t seed, std::size_t n) {
  Rng rng(seed ^ 0x9a45e);
  std::vector<std::string> out;
  for (std::size_t k = 0; k < n; ++k) {
    out.push_back(make_deck(rng, rng.between(5, 60)).text);
  }
  return out;
}

}  // namespace perfbench
