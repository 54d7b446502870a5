// path_mc: Session::run_monte_carlo on the s832 single path, one caller,
// every call at the default batch width with its own seed. This is the
// lockstep-batched TETA hot path; it never touches the graph memo, the
// server, the deck parser or the spice engine.
#include <cmath>

#include "api/session.hpp"
#include "bench.hpp"

namespace perfbench {
namespace {

using namespace lcsf;

/// Samples per call: the default of `lcsf_sta --samples` and of the
/// server's monte_carlo request. It is not a multiple of the batch width
/// (8), so every call also runs a scalar remainder of 4 samples.
constexpr std::size_t kSamplesPerCall = 100;

class PathMc final : public Workload {
 public:
  explicit PathMc(std::uint64_t seed) : seed_(seed) {
    model_.std_dl = 0.33;
    model_.std_vt = 0.33;
    spec_.circuit = "s832";
  }

  std::size_t callers() const override { return 1; }
  std::size_t call_threads() const override { return hardware_threads(); }

  void setup() override { session_ = api::Session::load(spec_); }
  std::vector<api::DesignSpec> load_specs() const override {
    return {spec_};
  }

  stats::RunOptions call_options(std::size_t idx, std::size_t threads,
                                 std::size_t batch) const {
    stats::RunOptions opt;
    opt.samples = kSamplesPerCall;
    opt.seed = mix(seed_ ^ (0x100000000ULL + idx));
    opt.exec.threads = threads;
    opt.exec.batch = batch;
    return opt;
  }

  LegResult run(const LegOptions& leg) override {
    obs::Registry reg;
    const std::size_t threads = leg.serial ? 1 : call_threads();
    LegResult out = closed_loop(1, leg, [&](std::size_t, std::size_t idx) {
      stats::RunOptions opt = call_options(idx, threads, 0);
      if (leg.traced) opt.registry = &reg;
      const stats::MonteCarloResult mc =
          session_->run_monte_carlo(model_, opt);
      if (!log_.record(idx, mc.values) ||
          mc.values.size() != kSamplesPerCall ||
          !std::isfinite(mc.stats.mean())) {
        return -1.0;
      }
      return static_cast<double>(mc.values.size());
    });
    if (leg.traced) out.trace = trace_of(reg);
    return out;
  }

  std::size_t verify() override {
    // A seeded call of those made: rerun it serially, unbatched
    // and at an explicit batch of 8; every rerun must match bit for bit.
    const auto picked = log_.sample(seed_ ^ 0xc4ec, 1);
    if (picked.empty()) return 1;
    const std::size_t n = hardware_threads();
    std::size_t failed = 0;
    for (const auto& [idx, want] : picked) {
      bool ok = true;
      for (const auto& [threads, batch] :
           {std::pair<std::size_t, std::size_t>{1, 0}, {n, 1}, {n, 8}}) {
        const auto mc = session_->run_monte_carlo(
            model_, call_options(idx, threads, batch));
        ok = ok && same_bits(mc.values, want);
      }
      if (!ok) ++failed;
    }
    return failed;
  }

  double delay_err_pct() override { return held_set_error_pct("s832", 6); }

 private:
  std::uint64_t seed_;
  api::DesignSpec spec_;
  core::PathVariationModel model_;
  std::shared_ptr<api::Session> session_;
  ResultLog log_;
};

}  // namespace

std::unique_ptr<Workload> make_path_mc(std::uint64_t seed) {
  return std::make_unique<PathMc>(seed);
}

}  // namespace perfbench
