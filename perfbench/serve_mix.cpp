// serve_mix: an in-process serve::Server driven over loopback by one
// closed-loop connection per core. Small warm requests (monte_carlo,
// gradients, is-cv yield, warm load, metrics) on s27/s208 are mixed with
// cold loads that walk a design set larger than the server's cache
// budget, so hits, misses and evictions happen side by side. The only workload
// that sees JSON decode/encode, dispatch, the design cache, per-request
// pool start-up and concurrent Session use.
//
// No recorded or documented request mix exists for the server, so the
// mix is unverified: each of the seven request shapes below gets an
// equal share.
#include <memory>
#include <mutex>
#include <utility>

#include "api/session.hpp"
#include "bench.hpp"
#include "loopback.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/json.hpp"

namespace perfbench {
namespace {

using namespace lcsf;

enum class Kind { kMonteCarlo, kGradients, kYield, kWarmLoad, kMetrics,
                  kColdLoad };

/// One distinct request of the mix; calls walk the entries of each
/// shape in turn, so each entry is sent many times and must get the same
/// answer.
struct Entry {
  Kind kind = Kind::kMetrics;
  api::DesignSpec spec;
  std::size_t samples = 0;
  std::uint64_t seed = 0;

  std::string line(std::size_t id, bool serial) const {
    std::string s = "{\"id\":" + std::to_string(id) + ",\"type\":\"";
    switch (kind) {
      case Kind::kMonteCarlo: s += "monte_carlo"; break;
      case Kind::kGradients: s += "gradients"; break;
      case Kind::kYield: s += "yield"; break;
      case Kind::kWarmLoad:
      case Kind::kColdLoad: s += "load"; break;
      case Kind::kMetrics: return s + "metrics\"}";
    }
    s += "\",\"circuit\":\"" + spec.circuit + "\"";
    if (spec.elements != 10) {
      s += ",\"elements\":" + std::to_string(spec.elements);
    }
    if (spec.graph) s += ",\"graph\":true";
    if (kind == Kind::kMonteCarlo || kind == Kind::kYield) {
      s += ",\"samples\":" + std::to_string(samples) +
           ",\"seed\":" + std::to_string(seed);
      if (kind == Kind::kYield) s += ",\"estimator\":\"is-cv\"";
      if (serial) s += ",\"threads\":1";
    }
    return s + "}";
  }
};

/// Per-entry record of what the server answered.
struct Answer {
  std::string first;      ///< first response; later ones must match it
  std::size_t count = 0;  ///< responses received
  double samples = 0.0;   ///< work samples one response stands for
};

double response_samples(Kind kind, const serve::Json& r) {
  switch (kind) {
    case Kind::kMonteCarlo:
      return r.find("monte_carlo")->find("samples")->as_double();
    case Kind::kGradients:
      return r.find("simulations")->as_double();
    case Kind::kYield:
      return r.find("samples")->as_double();
    default:
      return 0.0;
  }
}

bool num_eq(const serve::Json& r, const char* key, double want) {
  const serve::Json* v = r.find(key);
  return v != nullptr && v->is_number() && v->as_double() == want;
}

class ServeMix final : public Workload {
 public:
  explicit ServeMix(std::uint64_t seed) : seed_(seed) {
    model_.std_dl = 0.33;
    model_.std_vt = 0.33;
    Rng rng(seed ^ 0x5e7e);
    const char* warm[] = {"s27", "s208"};
    // Each call to add() puts one entry into the newest shape.
    auto add = [&](Kind kind, const char* circuit, std::size_t samples) {
      shapes_.back().push_back(entries_.size());
      Entry e;
      e.kind = kind;
      e.spec.circuit = circuit;
      e.samples = samples;
      e.seed = rng.between(1, 1000);
      entries_.push_back(e);
    };
    // One shape per request type, except monte_carlo, which has one per
    // warm design.
    for (const char* c : warm) {
      shapes_.emplace_back();
      for (std::size_t n = 8; n <= 16; n += 2) add(Kind::kMonteCarlo, c, n);
    }
    shapes_.emplace_back();
    for (const char* c : warm) add(Kind::kGradients, c, 0);
    shapes_.emplace_back();
    add(Kind::kYield, "s27", 16);
    add(Kind::kYield, "s27", 24);
    shapes_.emplace_back();
    for (const char* c : warm) add(Kind::kWarmLoad, c, 0);
    shapes_.emplace_back();
    add(Kind::kMetrics, "", 0);
    shapes_.emplace_back();
    for (const char* c : {"s27", "s208", "s444", "s832", "s1423"}) {
      for (std::size_t el : {6, 8, 12, 14, 16, 18}) {
        for (bool graph : {false, true}) {
          add(Kind::kColdLoad, c, 0);
          entries_.back().spec.elements = el;
          entries_.back().spec.graph = graph;
        }
      }
    }
  }

  std::size_t callers() const override { return hardware_threads(); }
  /// Requests send no threads field, so the server runs each on its
  /// default thread count.
  std::size_t call_threads() const override {
    return runtime::ThreadPool::default_threads();
  }

  /// Start the server the untraced legs use and warm its designs. The
  /// traced legs get a second server, recording serve.* and the merged
  /// engine counters, started by the first traced leg.
  void setup() override { plain_ = start_server(nullptr); }
  void teardown() override {
    plain_.reset();
    traced_.reset();
  }

  /// The warm designs and the first few cold ones.
  std::vector<api::DesignSpec> load_specs() const override {
    std::vector<api::DesignSpec> out;
    for (const Entry& e : entries_) {
      if (e.kind == Kind::kWarmLoad ||
          (e.kind == Kind::kColdLoad && out.size() < 8)) {
        out.push_back(e.spec);
      }
    }
    return out;
  }

  /// Which entry call `idx` sends. Calls come in cycles with one slot
  /// per shape, shuffled per cycle by the seed, and each shape walks its
  /// entries in turn. So every seed sends the same mix; the seed sets the
  /// order and the MC and yield seeds.
  std::size_t pick(std::size_t idx) const {
    const std::size_t n = shapes_.size();
    const std::size_t cycle = idx / n;
    std::vector<std::size_t> slots(n);
    for (std::size_t k = 0; k < n; ++k) slots[k] = k;
    Rng rng(seed_ ^ (0x300000000ULL + cycle));
    for (std::size_t k = n - 1; k > 0; --k) {
      std::swap(slots[k], slots[rng.between(0, k)]);
    }
    const auto& pool = shapes_[slots[idx % n]];
    return pool[(cycle + seed_) % pool.size()];
  }

  LegResult run(const LegOptions& leg) override {
    if (leg.traced && !traced_) {
      server_reg_ = std::make_unique<obs::Registry>();
      traced_ = start_server(server_reg_.get());
    }
    RunningServer& server = leg.traced ? *traced_ : *plain_;
    const std::size_t callers = leg.serial ? 1 : this->callers();
    const Trace before = leg.traced ? trace_of(*server_reg_) : Trace{};
    const serve::DesignCache::Stats c0 = server.cache().stats();
    LegResult out;
    {
      std::vector<std::unique_ptr<Client>> clients;
      for (std::size_t c = 0; c < callers; ++c) {
        clients.push_back(std::make_unique<Client>(server.port()));
      }
      out = closed_loop(callers, leg, [&](std::size_t c, std::size_t idx) {
        const std::size_t e = pick(idx);
        return check(e, clients[c]->request(entries_[e].line(e, leg.serial)));
      });
    }
    if (leg.traced) {
      out.trace = trace_of(*server_reg_).minus(before);
      const serve::DesignCache::Stats c1 = server.cache().stats();
      cache_hits_ += c1.hits - c0.hits;
      cache_misses_ += c1.misses - c0.misses;
      cache_evictions_ += c1.evictions - c0.evictions;
      cache_requests_ += out.attempted;
    }
    return out;
  }

  std::size_t verify() override {
    // Every response of an entry already matched the entry's first
    // response byte for byte (cold vs warm loads included). Now check
    // each first response against the direct Session call, computed
    // serially and unbatched -- so this also pins threads=N vs 1 and
    // batch=8 vs 1 for the served analyses.
    std::size_t failed = 0;
    std::map<std::string, std::shared_ptr<api::Session>> sessions;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      Answer a;
      {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = answers_.find(i);
        if (it == answers_.end()) continue;
        a = it->second;
      }
      const Entry& e = entries_[i];
      if (e.kind == Kind::kMetrics) continue;
      auto& session = sessions[e.spec.cache_key()];
      if (!session) session = api::Session::load(e.spec);
      if (!matches_session(e, *session, serve::Json::parse(a.first))) {
        failed += a.count;
      }
    }
    return failed;
  }

  double delay_err_pct() override { return held_set_error_pct("s27", 6); }

  std::map<std::string, double> extra_layers() override {
    const double lookups = static_cast<double>(cache_hits_ + cache_misses_);
    return {
        {"serve.cache.hit_frac",
         lookups > 0.0 ? static_cast<double>(cache_hits_) / lookups : 0.0},
        {"serve.cache.evictions",
         cache_requests_ > 0 ? static_cast<double>(cache_evictions_) /
                                   static_cast<double>(cache_requests_)
                             : 0.0},
    };
  }

 private:
  std::unique_ptr<RunningServer> start_server(obs::Registry* reg) const {
    auto server = std::make_unique<RunningServer>(reg, hardware_threads() + 2);
    Client c(server->port());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].kind != Kind::kWarmLoad) continue;
      if (c.request(entries_[i].line(i, false)).find("\"ok\":true") ==
          std::string::npos) {
        throw std::runtime_error("serve_mix: warm-up load failed");
      }
    }
    return server;
  }

  /// Per-call output check; returns the call's work samples or -1.
  double check(std::size_t e, const std::string& resp) {
    if (resp.find("\"ok\":true") == std::string::npos) return -1.0;
    const Kind kind = entries_[e].kind;
    if (kind == Kind::kMetrics) {
      return resp.find("\"cache\":{") == std::string::npos ? -1.0 : 0.0;
    }
    std::lock_guard<std::mutex> lock(mu_);
    Answer& a = answers_[e];
    ++a.count;
    if (a.first.empty()) {
      a.first = resp;
      a.samples = response_samples(kind, serve::Json::parse(resp));
    } else if (resp != a.first) {
      return -1.0;
    }
    return a.samples;
  }

  bool matches_session(const Entry& e, const api::Session& s,
                       const serve::Json& r) const {
    const serve::Json* design = r.find("design");
    if (design == nullptr || design->as_string() != s.key()) return false;
    stats::RunOptions opt;
    opt.samples = e.samples;
    opt.seed = e.seed;
    opt.exec.threads = 1;
    opt.exec.batch = 1;
    switch (e.kind) {
      case Kind::kMonteCarlo: {
        const auto mc = s.run_monte_carlo(model_, opt);
        const serve::Json& j = *r.find("monte_carlo");
        return num_eq(j, "mean", mc.stats.mean()) &&
               num_eq(j, "stddev", mc.stats.stddev()) &&
               num_eq(j, "survivors", static_cast<double>(mc.values.size()));
      }
      case Kind::kGradients: {
        const auto ga = s.run_gradients(model_);
        const auto& grad = r.find("gradient")->items();
        bool ok = num_eq(r, "nominal_delay", ga.nominal_delay) &&
                  num_eq(r, "stddev", ga.stddev) &&
                  grad.size() == ga.gradient.size();
        for (std::size_t k = 0; ok && k < grad.size(); ++k) {
          ok = grad[k].as_double() == ga.gradient[k];
        }
        return ok;
      }
      case Kind::kYield: {
        const auto y = s.run_yield(model_, 0.0, "is-cv", 0.9987, opt);
        return num_eq(r, "clock_period", y.clock_period) &&
               num_eq(r, "yield", y.yield) &&
               num_eq(r, "std_error", y.std_error) &&
               num_eq(r, "samples", static_cast<double>(y.samples));
      }
      case Kind::kWarmLoad:
      case Kind::kColdLoad:
        return num_eq(r, "gates",
                      static_cast<double>(s.netlist().gates.size())) &&
               num_eq(r, "memory_bytes",
                      static_cast<double>(s.memory_bytes()));
      case Kind::kMetrics:
        return true;
    }
    return false;
  }

  std::uint64_t seed_;
  core::PathVariationModel model_;
  std::vector<Entry> entries_;
  /// Entry indices per request shape; each shape gets an equal share.
  std::vector<std::vector<std::size_t>> shapes_;
  std::unique_ptr<obs::Registry> server_reg_;
  std::unique_ptr<RunningServer> plain_;
  std::unique_ptr<RunningServer> traced_;
  std::mutex mu_;
  std::map<std::size_t, Answer> answers_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_evictions_ = 0;
  std::uint64_t cache_requests_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed) {
  return std::make_unique<ServeMix>(seed);
}

}  // namespace perfbench
