#include "core/graph_analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "runtime/thread_pool.hpp"
#include "teta/stage.hpp"

namespace lcsf::core {

using circuit::SourceWaveform;
using numeric::Vector;
using timing::RampParams;
using timing::Samples;
using timing::ssta::CanonicalForm;

GraphAnalyzer::GraphAnalyzer(GraphSpec spec)
    : spec_(std::move(spec)), graph_(spec_.netlist) {
  obs::ScopedSpan span("graph_characterize");
  if (spec_.top_k == 0) {
    throw std::invalid_argument("GraphAnalyzer: top_k must be positive");
  }
  segments_per_stage_ = std::max<std::size_t>(
      1, (spec_.linear_elements_per_stage > 2
              ? (spec_.linear_elements_per_stage - 2) / 2
              : 1));

  paths_ = graph_.k_most_critical_paths(spec_.top_k);
  if (paths_.empty()) {
    throw std::invalid_argument(
        "GraphAnalyzer: netlist has no latch-to-latch paths");
  }
  for (const auto& p : paths_) {
    subgraph_.insert(subgraph_.end(), p.gates.begin(), p.gates.end());
    endpoints_.push_back(p.end_net);
  }
  std::sort(subgraph_.begin(), subgraph_.end());
  subgraph_.erase(std::unique(subgraph_.begin(), subgraph_.end()),
                  subgraph_.end());
  std::sort(endpoints_.begin(), endpoints_.end());
  endpoints_.erase(std::unique(endpoints_.begin(), endpoints_.end()),
                   endpoints_.end());

  // Characterize each distinct (cell, effective load) block once; gates
  // instantiate the shared block ROM. The load of a gate is its wire plus
  // the input pin capacitance of every fanout gate (endpoint gates see a
  // latch D input, modeled as an INV pin).
  const auto& lib = timing::cell_library();
  const timing::GateNetlist& nl = spec_.netlist;
  const double latch_pin_cap =
      input_pin_cap(timing::find_cell("INV"), spec_.tech);
  std::map<std::pair<std::size_t, double>, std::size_t> block_index;
  stages_.resize(subgraph_.size());
  for (std::size_t slot = 0; slot < subgraph_.size(); ++slot) {
    const std::size_t g = subgraph_[slot];
    const timing::Gate& gate = nl.gates[g];
    double cap = 0.0;
    for (const timing::Gate& h : nl.gates) {
      for (std::size_t in : h.inputs) {
        if (in == gate.output) cap += input_pin_cap(lib.at(h.cell), spec_.tech);
      }
    }
    if (cap <= 0.0) cap = latch_pin_cap;

    GateStage& gs = stages_[slot];
    gs.model.cell = &lib.at(gate.cell);
    gs.model.receiver_cap = cap;
    const auto key = std::make_pair(gate.cell, cap);
    if (auto it = block_index.find(key); it != block_index.end()) {
      gs.block = it->second;
      gs.model.load = stages_[blocks_[gs.block].stage_slot].model.load;
      continue;
    }
    gs.model.load = characterize_stage_load(*gs.model.cell, spec_.tech,
                                            segments_per_stage_, cap,
                                            spec_.rom_internal_modes);
    gs.block = blocks_.size();
    blocks_.push_back({gate.cell, cap, slot});
    block_index.emplace(key, gs.block);
  }
}

StageSimOptions GraphAnalyzer::sim_options() const {
  StageSimOptions o;
  o.dt = spec_.dt;
  o.stage_window = spec_.stage_window;
  o.recovery = spec_.recovery;
  return o;
}

std::size_t GraphAnalyzer::memory_bytes() const {
  std::size_t total = sizeof(*this);
  total += stages_.capacity() * sizeof(GateStage);
  for (const GateStage& s : stages_) {
    total += s.model.memory_bytes() - sizeof(StageModel);
  }
  total += blocks_.capacity() * sizeof(Block);
  total += subgraph_.capacity() * sizeof(std::size_t);
  total += endpoints_.capacity() * sizeof(std::size_t);
  for (const timing::TimingPath& p : paths_) {
    total += sizeof(p) + p.gates.capacity() * sizeof(std::size_t) +
             p.switching_pin.capacity() * sizeof(std::size_t);
  }
  return total;
}

std::size_t GraphAnalyzer::slot_of(std::size_t gate) const {
  const auto it =
      std::lower_bound(subgraph_.begin(), subgraph_.end(), gate);
  return static_cast<std::size_t>(it - subgraph_.begin());
}

StageCacheKey GraphAnalyzer::cache_key(std::size_t gate,
                                       const RampParams& in) const {
  const double q = spec_.ramp_bucket_quantum > 0.0
                       ? spec_.ramp_bucket_quantum
                       : 1e-15;
  return {gate, std::llround(in.m / q), std::llround(in.s / q), in.rising};
}

StageWaveform GraphAnalyzer::simulate_slot(
    std::size_t slot, const StageWaveform& in,
    const timing::DeviceVariation& dev,
    const interconnect::WireVariation& wire, Workspace* ws) const {
  const GateStage& gs = stages_[slot];
  const double vdd = spec_.tech.vdd;
  // Localize time so the transition sits at ~1/4 of the stage window
  // (same recipe as PathAnalyzer::run_chain, bitwise included).
  const double shift =
      std::max(0.0, in.params.m - 0.25 * spec_.stage_window);
  const SourceWaveform local =
      shift > 0.0
          ? SourceWaveform::pwl(shifted_samples(in.wave.points(), -shift))
          : in.wave;
  const bool out_rising = in.params.rising != gs.model.cell->inverting;
  Samples out;
  StageWaveform res;
  res.params = measure_stage_with_retry(
      gs.model, spec_.tech, sim_options(), subgraph_[slot], local, shift,
      dev, wire, out_rising, &out, ws);
  // Propagate the fine-resolution PWL (adaptively compressed).
  res.wave = SourceWaveform::pwl(teta::compress_pwl(out, 1e-4 * vdd));
  return res;
}

GraphAnalyzer::SampleResult GraphAnalyzer::evaluate(
    const GraphSample& sample, Workspace& ws) const {
  if (sample.device.size() != subgraph_.size()) {
    throw std::invalid_argument("GraphAnalyzer: sample size mismatch");
  }
  SampleResult res;
  ws.stage_cache.clear();
  ws.net_arrival.clear();

  StageWaveform start;
  start.params = spec_.input;
  start.wave = spec_.input.to_source(spec_.tech.vdd);

  const timing::GateNetlist& nl = spec_.netlist;
  for (const timing::TimingPath& path : paths_) {
    for (std::size_t k = 0; k < path.gates.size(); ++k) {
      const std::size_t g = path.gates[k];
      const std::size_t in_net = nl.gates[g].inputs[path.switching_pin[k]];
      // The arrival front at the input net is the statistical-max winner
      // seen so far (paths run most-critical first); start nets carry the
      // shared stimulus.
      const StageWaveform* in = &start;
      if (auto it = ws.net_arrival.find(in_net);
          it != ws.net_arrival.end()) {
        in = &it->second;
      }
      const StageCacheKey key = cache_key(g, in->params);
      const StageWaveform* out = nullptr;
      if (auto it = ws.stage_cache.find(key); it != ws.stage_cache.end()) {
        out = &it->second;
        ++res.stage_cache_hits;
      } else {
        const std::size_t slot = slot_of(g);
        StageWaveform sw =
            simulate_slot(slot, *in, sample.device[slot], sample.wire, &ws);
        out = &ws.stage_cache.emplace(key, std::move(sw)).first->second;
        ++res.stages_simulated;
      }
      // Statistical max at the output net: keep the later 50% arrival
      // (its waveform propagates downstream).
      const auto [it, inserted] =
          ws.net_arrival.emplace(nl.gates[g].output, *out);
      if (!inserted) {
        ++res.merges;
        if (out->params.m > it->second.params.m) it->second = *out;
      }
    }
  }

  for (std::size_t net : endpoints_) {
    const StageWaveform& a = ws.net_arrival.at(net);
    EndpointDelay e;
    e.net = net;
    e.delay = a.params.m - spec_.input.m;
    e.slew = a.params.s;
    res.max_delay = std::max(res.max_delay, e.delay);
    res.endpoints.push_back(e);
  }

  obs::add_counter("stats.graph.paths", paths_.size());
  obs::add_counter("stats.graph.stages_simulated", res.stages_simulated);
  obs::add_counter("stats.graph.stage_cache_hits", res.stage_cache_hits);
  obs::add_counter("stats.graph.merges", res.merges);
  return res;
}

std::vector<double> GraphAnalyzer::per_path_delays(const GraphSample& sample,
                                                   Workspace& ws) const {
  if (sample.device.size() != subgraph_.size()) {
    throw std::invalid_argument("GraphAnalyzer: sample size mismatch");
  }
  StageWaveform start;
  start.params = spec_.input;
  start.wave = spec_.input.to_source(spec_.tech.vdd);

  std::vector<double> delays;
  delays.reserve(paths_.size());
  for (const timing::TimingPath& path : paths_) {
    StageWaveform cur = start;
    for (std::size_t g : path.gates) {
      const std::size_t slot = slot_of(g);
      cur = simulate_slot(slot, cur, sample.device[slot], sample.wire, &ws);
    }
    delays.push_back(cur.params.m - spec_.input.m);
  }
  return delays;
}

GraphSample GraphAnalyzer::sample_from_sources(
    const PathVariationModel& model, const Vector& w) const {
  const std::size_t per_stage = model.sources_per_stage();
  const std::size_t expected =
      per_stage * subgraph_.size() + model.global_sources();
  if (w.size() != expected) {
    throw std::invalid_argument(
        "GraphAnalyzer::sample_from_sources: wrong source count");
  }
  GraphSample s;
  s.device.resize(subgraph_.size());
  std::size_t idx = 0;
  for (std::size_t k = 0; k < subgraph_.size(); ++k) {
    if (model.std_dl > 0.0) {
      s.device[k].delta_l =
          w[idx++] * spec_.tech.sigma3_dl_frac * spec_.tech.lmin;
    }
    if (model.std_vt > 0.0) {
      s.device[k].delta_vt =
          w[idx++] * spec_.tech.sigma3_vt_frac * spec_.tech.nmos.vt0;
    }
  }
  if (model.std_wire_w > 0.0) {
    s.wire.width = w[idx++] * spec_.tech.wire_tol.width;
  }
  if (model.std_wire_h > 0.0) {
    s.wire.ild_thickness = w[idx++] * spec_.tech.wire_tol.ild_thickness;
  }
  return s;
}

std::vector<stats::VariationSource> GraphAnalyzer::sources(
    const PathVariationModel& model) const {
  std::vector<stats::VariationSource> src;
  for (std::size_t k = 0; k < subgraph_.size(); ++k) {
    if (model.std_dl > 0.0) src.push_back({.sigma = model.std_dl});
    if (model.std_vt > 0.0) src.push_back({.sigma = model.std_vt});
  }
  if (model.std_wire_w > 0.0) src.push_back({.sigma = model.std_wire_w});
  if (model.std_wire_h > 0.0) src.push_back({.sigma = model.std_wire_h});
  for (auto& s : src) s.kind = stats::VariationSource::Kind::kNormal;
  return src;
}

stats::MonteCarloResult GraphAnalyzer::monte_carlo(
    const PathVariationModel& model, const stats::RunOptions& opt) const {
  LaneWorkspaces pool(opt.exec.threads);
  stats::LanedPerformanceFn f = [this, &model, &pool](const Vector& w,
                                                      std::size_t lane) {
    return evaluate(sample_from_sources(model, w), pool.lane(lane))
        .max_delay;
  };
  return stats::Runner(opt).run_monte_carlo(f, sources(model));
}

const GraphAnalyzer::SampleResult& GraphAnalyzer::nominal() const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  if (!nominal_) {
    GraphSample s;  // every device and wire variation zero
    s.device.resize(subgraph_.size());
    Workspace ws;
    nominal_ = evaluate(s, ws);
  }
  return *nominal_;
}

std::vector<timing::ssta::BlockDelayModel> GraphAnalyzer::block_models(
    const PathVariationModel& model, std::size_t threads) const {
  obs::ScopedSpan span("graph_block_models");
  const double vdd = spec_.tech.vdd;
  const double m_local = 0.25 * spec_.stage_window;
  const double s_nom = spec_.input.s;
  // Central differences, normalized to one 3-sigma tolerance unit
  // (sample_from_sources applies the same scaling).
  const double h_w = 0.2;
  // Input-slew step (per second): the slew sensitivity is available for
  // slew-aware refinements of the analytic composition.
  const double hs = 0.1 * std::max(s_nom, 10.0 * spec_.dt);

  // The stage simulations every block needs, in assembly order: the
  // nominal, a (+, -) pair per enabled source, then the input-slew pair.
  struct Probe {
    double s_in = 0.0;
    timing::DeviceVariation dev;
    interconnect::WireVariation wire;
  };
  std::vector<Probe> probes{{s_nom, {}, {}}};
  if (model.std_dl > 0.0) {
    const double step = h_w * spec_.tech.sigma3_dl_frac * spec_.tech.lmin;
    probes.push_back({s_nom, {step, 0.0}, {}});
    probes.push_back({s_nom, {-step, 0.0}, {}});
  }
  if (model.std_vt > 0.0) {
    const double step =
        h_w * spec_.tech.sigma3_vt_frac * spec_.tech.nmos.vt0;
    probes.push_back({s_nom, {0.0, step}, {}});
    probes.push_back({s_nom, {0.0, -step}, {}});
  }
  if (model.std_wire_w > 0.0) {
    Probe plus{s_nom, {}, {}};
    Probe minus = plus;
    plus.wire.width = h_w * spec_.tech.wire_tol.width;
    minus.wire.width = -h_w * spec_.tech.wire_tol.width;
    probes.push_back(plus);
    probes.push_back(minus);
  }
  if (model.std_wire_h > 0.0) {
    Probe plus{s_nom, {}, {}};
    Probe minus = plus;
    plus.wire.ild_thickness = h_w * spec_.tech.wire_tol.ild_thickness;
    minus.wire.ild_thickness = -h_w * spec_.tech.wire_tol.ild_thickness;
    probes.push_back(plus);
    probes.push_back(minus);
  }
  probes.push_back({s_nom + hs, {}, {}});
  probes.push_back({s_nom - hs, {}, {}});

  // Every (block, probe) simulation is independent: run them on the
  // lanes into fixed slots, so the assembly below sees the same doubles
  // for every thread count. A failure is kept per slot and the first in
  // slot order is rethrown, whichever lane hit it first.
  const std::size_t np = probes.size();
  std::vector<std::pair<double, double>> delay_slew(blocks_.size() * np);
  std::vector<std::exception_ptr> failed(delay_slew.size());
  obs::Registry* reg = obs::ambient_registry();
  runtime::parallel_for_lanes(
      threads, delay_slew.size(),
      [&](std::size_t begin, std::size_t end, std::size_t lane) {
        // Worker lanes record to their own sinks; lane 0 is the calling
        // thread, whose context (and span path) stays in place.
        std::optional<obs::ScopedContext> lane_ctx;
        if (lane != 0) lane_ctx.emplace(reg, lane);
        for (std::size_t i = begin; i < end; ++i) {
          const Block& b = blocks_[i / np];
          const Probe& p = probes[i % np];
          const StageModel& st = stages_[b.stage_slot].model;
          const bool out_rising = !st.cell->inverting;  // rising input
          const RampParams in{m_local, p.s_in, true};
          try {
            const RampParams o = measure_stage_with_retry(
                st, spec_.tech, sim_options(), b.stage_slot,
                in.to_source(vdd), 0.0, p.dev, p.wire, out_rising, nullptr,
                nullptr);
            delay_slew[i] = {o.m - m_local, o.s};
          } catch (...) {
            failed[i] = std::current_exception();
          }
        }
      },
      /*grain=*/1);
  for (const std::exception_ptr& e : failed) {
    if (e) std::rethrow_exception(e);
  }

  std::vector<timing::ssta::BlockDelayModel> out;
  out.reserve(blocks_.size());
  for (std::size_t k = 0; k < blocks_.size(); ++k) {
    const auto* r = &delay_slew[k * np];
    std::size_t next = 1;
    auto central = [&](double h) {
      const double d = (r[next].first - r[next + 1].first) / (2.0 * h);
      next += 2;
      return d;
    };
    timing::ssta::BlockDelayModel m;
    m.cell = blocks_[k].cell;
    m.load_cap = blocks_[k].receiver_cap;
    m.input_slew = s_nom;
    m.nominal_delay = r[0].first;
    m.nominal_slew = r[0].second;
    if (model.std_dl > 0.0) m.d_delay_dl = central(h_w);
    if (model.std_vt > 0.0) m.d_delay_vt = central(h_w);
    if (model.std_wire_w > 0.0) m.d_delay_wire_w = central(h_w);
    if (model.std_wire_h > 0.0) m.d_delay_wire_h = central(h_w);
    m.d_delay_slew = central(hs);
    out.push_back(m);
  }
  return out;
}

const GraphAnalyzer::BlockModels& GraphAnalyzer::cached_block_models(
    const PathVariationModel& model, std::size_t threads) const {
  const unsigned mask = (model.std_dl > 0.0 ? 1u : 0u) |
                        (model.std_vt > 0.0 ? 2u : 0u) |
                        (model.std_wire_w > 0.0 ? 4u : 0u) |
                        (model.std_wire_h > 0.0 ? 8u : 0u);
  std::lock_guard<std::mutex> lock(memo_mu_);
  auto it = block_memo_.find(mask);
  if (it == block_memo_.end()) {
    it = block_memo_.emplace(mask, block_models(model, threads)).first;
  }
  return it->second;
}

std::vector<GraphAnalyzer::AnalyticEndpoint>
GraphAnalyzer::analytic_endpoints(const PathVariationModel& model,
                                  std::size_t threads) const {
  const BlockModels& blocks = cached_block_models(model, threads);
  const auto src = sources(model);
  const std::size_t nsrc = src.size();
  const std::size_t per_stage = model.sources_per_stage();

  // Subgraph fanin: the (gate -> switching input nets) edges the paths
  // actually use.
  std::map<std::size_t, std::vector<std::size_t>> fanin;
  for (const timing::TimingPath& path : paths_) {
    for (std::size_t k = 0; k < path.gates.size(); ++k) {
      const std::size_t g = path.gates[k];
      fanin[g].push_back(
          spec_.netlist.gates[g].inputs[path.switching_pin[k]]);
    }
  }
  for (auto& [g, nets] : fanin) {
    std::sort(nets.begin(), nets.end());
    nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  }

  // Canonical arrivals over the standard-normal source basis: sens[i] =
  // (delay per normalized unit) * sigma_i.
  std::map<std::size_t, CanonicalForm> arrival;
  for (std::size_t g : graph_.topo_order()) {
    const auto fit = fanin.find(g);
    if (fit == fanin.end()) continue;  // not on any enumerated path
    const std::size_t slot = slot_of(g);
    const timing::ssta::BlockDelayModel& bm = blocks[stages_[slot].block];

    CanonicalForm d = CanonicalForm::constant(bm.nominal_delay, nsrc);
    std::size_t idx = slot * per_stage;
    if (model.std_dl > 0.0) d.sens[idx++] = bm.d_delay_dl * model.std_dl;
    if (model.std_vt > 0.0) d.sens[idx++] = bm.d_delay_vt * model.std_vt;
    std::size_t gidx = per_stage * subgraph_.size();
    if (model.std_wire_w > 0.0) {
      d.sens[gidx++] = bm.d_delay_wire_w * model.std_wire_w;
    }
    if (model.std_wire_h > 0.0) {
      d.sens[gidx++] = bm.d_delay_wire_h * model.std_wire_h;
    }

    CanonicalForm merged;
    bool first = true;
    for (std::size_t in_net : fit->second) {
      const auto ait = arrival.find(in_net);
      const CanonicalForm a_in =
          ait != arrival.end()
              ? ait->second
              : CanonicalForm::constant(spec_.input.m, nsrc);
      const CanonicalForm cand = timing::ssta::sum(a_in, d);
      merged = first ? cand : timing::ssta::stat_max(merged, cand);
      first = false;
    }
    arrival[spec_.netlist.gates[g].output] = std::move(merged);
  }

  std::vector<AnalyticEndpoint> out;
  for (std::size_t net : endpoints_) {
    AnalyticEndpoint e;
    e.net = net;
    e.arrival = arrival.at(net);
    // Report the endpoint *delay* form (arrival minus the stimulus M).
    e.arrival.mean -= spec_.input.m;
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace lcsf::core
