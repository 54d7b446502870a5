// graph_mc: Session::run_graph on s208 in graph mode (top-8 paths), one
// caller asking for nproc Session threads as the CLI does. The graph
// engine runs scalar TETA with the per-sample stage memo on the lanes,
// then the block models and analytic SSTA serially on the caller.
#include <cmath>

#include "api/session.hpp"
#include "bench.hpp"

namespace perfbench {
namespace {

using namespace lcsf;

/// Samples per call: what bench/bench_sta_graph.cpp runs on the same
/// s208 top-8 graph in its full mode (BENCH_sta_graph.json).
constexpr std::size_t kSamplesPerCall = 20;

class GraphMc final : public Workload {
 public:
  explicit GraphMc(std::uint64_t seed) : seed_(seed) {
    model_.std_dl = 0.33;
    model_.std_vt = 0.33;
    spec_.circuit = "s208";
    spec_.graph = true;
    spec_.top_k = 8;
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
    opt.seed = mix(seed_ ^ (0x200000000ULL + idx));
    opt.exec.threads = threads;
    opt.exec.batch = batch;
    return opt;
  }

  /// Everything a call returns, flattened for bitwise comparison.
  std::vector<double> call(std::size_t idx, std::size_t threads,
                           std::size_t batch, obs::Registry* reg) const {
    obs::ScopedContext ctx(reg, 0);
    stats::RunOptions opt = call_options(idx, threads, batch);
    opt.registry = reg;
    const api::GraphResult g = session_->run_graph(model_, opt);
    std::vector<double> out = g.mc.values;
    out.push_back(g.nominal.max_delay);
    for (const auto& e : g.analytic) out.push_back(e.arrival.mean);
    return out;
  }

  LegResult run(const LegOptions& leg) override {
    obs::Registry reg;
    obs::Registry* traced = leg.traced ? &reg : nullptr;
    const std::size_t threads = leg.serial ? 1 : call_threads();
    LegResult out = closed_loop(1, leg, [&](std::size_t, std::size_t idx) {
      const std::vector<double> r = call(idx, threads, 0, traced);
      if (!log_.record(idx, r) || r.size() < kSamplesPerCall + 1 ||
          !std::isfinite(r[0])) {
        return -1.0;
      }
      return static_cast<double>(kSamplesPerCall);
    });
    if (leg.traced) out.trace = trace_of(reg);
    return out;
  }

  std::size_t verify() override {
    // Rerun a seeded call serially and at batch widths 1 and 8; graph
    // mode must not depend on either.
    const auto picked = log_.sample(seed_ ^ 0x9a7c, 1);
    if (picked.empty()) return 1;
    const std::size_t n = hardware_threads();
    std::size_t failed = 0;
    for (const auto& [idx, want] : picked) {
      bool ok = true;
      for (const auto& [threads, batch] :
           {std::pair<std::size_t, std::size_t>{1, 0}, {n, 1}, {n, 8}}) {
        ok = ok && same_bits(call(idx, threads, batch, nullptr), want);
      }
      if (!ok) ++failed;
    }
    return failed;
  }

  double delay_err_pct() override { return held_set_error_pct("s208", 4); }

 private:
  std::uint64_t seed_;
  api::DesignSpec spec_;
  core::PathVariationModel model_;
  std::shared_ptr<api::Session> session_;
  ResultLog log_;
};

}  // namespace

std::unique_ptr<Workload> make_graph_mc(std::uint64_t seed) {
  return std::make_unique<GraphMc>(seed);
}

}  // namespace perfbench
