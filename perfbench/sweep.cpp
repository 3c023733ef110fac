// Workload `sweep`: the paper's Fig. 9 / Table IV grid, run offline.
//
// Every paper baseline engine x {Mixtral 8x7B, Phi-3.5 MoE} x four
// [in,out] shapes on the A6000 + i9 platform, C4 traffic, calm device, no
// sinks, through ParallelSweepRunner(1). Host time goes to trace
// generation, calibration and engine stepping; the five engines share each
// trace set, so trace sharing or caching shows here. The simulator is
// calibrated on the paper's Table I only, so Fig. 9 and Table IV are
// held-out checks of it.
#include <cmath>
#include <cstdio>
#include <string>

#include "eval/parallel_sweep.hpp"
#include "harness.hpp"
#include "model/config.hpp"
#include "obs/attribution.hpp"
#include "sim/cost_model.hpp"

namespace perfbench {
namespace {

using daop::eval::EngineKind;

struct Shape {
  int in = 0;
  int out = 0;
};

struct ModelCase {
  daop::model::ModelConfig cfg;
  double ecr = 0.0;
  bool mixtral = false;
};

// Paper references (Fig. 9 tokens/s at [256,512]; Table IV tokens/kJ at
// [256,256]); 0 where the paper gives no number.
double paper_tok_per_s(EngineKind k, bool mixtral) {
  if (k == EngineKind::Daop) return mixtral ? 4.52 : 8.21;
  if (k == EngineKind::Fiddler && mixtral) return 3.2;
  return 0.0;
}

double paper_tok_per_kj(EngineKind k, bool mixtral) {
  switch (k) {
    case EngineKind::MoEOnDemand:
      return mixtral ? 2.63 : 6.94;
    case EngineKind::DeepSpeedMII:
      return mixtral ? 0.59 : 0.0;
    case EngineKind::MixtralOffloading:
      return mixtral ? 2.13 : 0.0;
    case EngineKind::Fiddler:
      return mixtral ? 10.06 : 17.15;
    case EngineKind::Daop:
      return mixtral ? 14.37 : 27.07;
    default:
      return 0.0;
  }
}

// Paper: DAOP over Fiddler averages +35.4%; +40.4% on Mixtral [256,512].
constexpr double kPaperGainAvg = 1.354;
constexpr double kPaperGainMixtral256x512 = 1.404;

std::string label(Shape s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "[%d,%d]", s.in, s.out);
  return buf;
}

std::string ref_note(double paper, double sim) {
  if (paper <= 0.0) return "paper: no value";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "paper %.4g, error %+.1f%%", paper,
                100.0 * (sim / paper - 1.0));
  return buf;
}

class Sweep : public Workload {
 public:
  Sweep(std::uint64_t seed, bool tiny) : seed_(seed), tiny_(tiny) {}

  void setup() override {
    platform_ = daop::sim::a6000_i9_platform();
    models_ = {{daop::model::mixtral_8x7b(), 0.469, true},
               {daop::model::phi35_moe(), 0.469, false}};
    if (tiny_) {
      shapes_ = {{32, 32}};
    } else {
      shapes_ = {{128, 128}, {128, 256}, {256, 256}, {256, 512}};
    }
    engines_ = daop::eval::paper_baseline_engines();
    workload_ = daop::data::c4();
    n_seqs_ = tiny_ ? 1 : 6;
    cells_.clear();
    for (const ModelCase& m : models_) {
      for (const Shape& sh : shapes_) {
        for (EngineKind kind : engines_) {
          daop::eval::SpeedGridCell c;
          c.kind = kind;
          c.model = m.cfg;
          c.platform = platform_;
          c.workload = workload_;
          c.options = options(m, sh);
          cells_.push_back(std::move(c));
        }
      }
    }
  }

  PassOutput pass(const PassOptions& po) override {
    PassOutput out;
    // One calibration per model: the placement does not depend on lengths.
    placements_.clear();
    for (const ModelCase& m : models_) {
      const Scope s(po.tracer, "cache.calib");
      placements_.push_back(daop::eval::calibrated_initial_placement(
          m.cfg, options(m, shapes_[0])));
    }
    traces_.clear();
    double trace_tokens = 0.0;
    for (const ModelCase& m : models_) {
      for (const Shape& sh : shapes_) {
        const Scope s(po.tracer, "data.gen");
        traces_.push_back(daop::eval::generate_eval_traces(
            m.cfg, workload_, options(m, sh)));
        out.layer["data.traces"] += static_cast<double>(traces_.back().size());
        trace_tokens += static_cast<double>(traces_.back().size()) *
                        static_cast<double>(sh.in + sh.out);
      }
    }
    out.layer["data.trace_tokens"] = trace_tokens;

    // Hand the shared calibration and traces to every cell of their model
    // and shape (cells are ordered model, shape, engine).
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const std::size_t trace_set = i / engines_.size();
      cells_[i].options.initial_placement =
          &placements_[trace_set / shapes_.size()];
      cells_[i].options.traces = &traces_[trace_set];
    }
    {
      const Scope s(po.tracer, "engines.run");
      results_ = daop::eval::ParallelSweepRunner(1).run_speed_grid(cells_);
    }

    long long hits = 0, misses = 0, preds = 0, mispreds = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const auto& c = cells_[i];
      const auto& r = results_[i];
      out.check(static_cast<int>(r.per_sequence.size()) == c.options.n_seqs,
                "sweep cell returned one result per sequence");
      for (const auto& seq : r.per_sequence) {
        out.digest.add(seq);
        out.tokens += seq.generated_tokens;
        out.check(seq.generated_tokens == c.options.gen_len &&
                      seq.prompt_tokens == c.options.prompt_len,
                  "sweep sequence completed its planned tokens");
        out.check(std::isfinite(seq.tokens_per_s) && seq.tokens_per_s > 0.0,
                  "sweep sequence has a finite positive rate");
        const auto& k = seq.counters;
        out.layer["engines.migrations"] += static_cast<double>(k.expert_migrations);
        out.layer["engines.cpu_execs"] += static_cast<double>(k.cpu_expert_execs);
        out.layer["engines.gpu_execs"] += static_cast<double>(k.gpu_expert_execs);
        out.layer["core.degradations"] += static_cast<double>(k.degradations);
        hits += k.cache_hits;
        misses += k.cache_misses;
        preds += k.predictions;
        mispreds += k.mispredictions;
      }
    }
    out.layer["cache.hit_ratio"] =
        hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
    out.layer["core.pred_hit_ratio"] =
        preds > 0 ? 1.0 - static_cast<double>(mispreds) / preds : 0.0;
    report(out);
    return out;
  }

  void probe(Tracer* /*tracer*/, const PassOutput& /*reference*/,
             PassOutput& out) override {
    // Re-run every cell's sequences on caller-owned, recording timelines:
    // the grid runner keeps its timelines private. Each result must equal
    // the pass's bit for bit.
    std::size_t i = 0;
    double ops = 0.0, gpu_busy = 0.0, pcie_exposed = 0.0, cpu_hidden = 0.0,
           stall = 0.0;
    for (std::size_t m = 0; m < models_.size(); ++m) {
      const daop::sim::CostModel cm(platform_);
      const daop::model::OpCosts costs(models_[m].cfg, cm);
      for (std::size_t s = 0; s < shapes_.size(); ++s) {
        const auto& traces = traces_[m * shapes_.size() + s];
        for (EngineKind kind : engines_) {
          auto engine = daop::eval::make_engine(kind, costs);
          const auto& expect = results_[i++].per_sequence;
          for (std::size_t q = 0; q < expect.size(); ++q) {
            daop::sim::Timeline tl;
            tl.set_record_intervals(true);
            const auto r = engine->run(traces[q], placements_[m], &tl,
                                       static_cast<long long>(q));
            Digest a, b;
            a.add(r);
            b.add(expect[q]);
            out.check(a.value() == b.value(),
                      "probe re-run matches the sweep result bit for bit");
            using daop::obs::AttrCategory;
            const auto attr = daop::obs::attribute_window(
                tl.intervals(), tl.hazard_intervals(), 0.0, tl.span());
            ops += static_cast<double>(tl.interval_count());
            gpu_busy += attr.busy(AttrCategory::GpuExpert) +
                        attr.busy(AttrCategory::GateAttn);
            pcie_exposed += attr.exposed(AttrCategory::PcieMigration);
            cpu_hidden += attr.hidden(AttrCategory::CpuExpert);
            stall += tl.hazard_stall_s();
          }
        }
      }
    }
    out.layer["sim.schedule_ops"] = ops;
    out.layer["sim.gpu_busy_s"] = gpu_busy;
    out.layer["sim.pcie_exposed_s"] = pcie_exposed;
    out.layer["sim.cpu_hidden_s"] = cpu_hidden;
    out.layer["sim.hazard_stall_s"] = stall;
  }

 private:
  daop::eval::SpeedEvalOptions options(const ModelCase& m,
                                       const Shape& sh) const {
    daop::eval::SpeedEvalOptions o;
    o.n_seqs = n_seqs_;
    o.prompt_len = sh.in;
    o.gen_len = sh.out;
    o.ecr = m.ecr;
    o.seed = seed_;
    return o;
  }

  const daop::engines::RunResult& cell(std::size_t m, std::size_t s,
                                       EngineKind kind) const {
    std::size_t e = 0;
    while (engines_[e] != kind) ++e;
    return results_[(m * shapes_.size() + s) * engines_.size() + e].aggregate;
  }

  // The shape index closest to `want` (the largest shape when absent).
  std::size_t shape_index(Shape want) const {
    for (std::size_t s = 0; s < shapes_.size(); ++s) {
      if (shapes_[s].in == want.in && shapes_[s].out == want.out) return s;
    }
    return shapes_.size() - 1;
  }

  void report(PassOutput& out) const {
    // Headline numbers: Mixtral at the paper's Fig. 9 / Table IV shapes.
    const std::size_t s_speed = shape_index({256, 512});
    const std::size_t s_energy = shape_index({256, 256});
    const auto& daop_speed = cell(0, s_speed, EngineKind::Daop);
    out.add_report("sim_tok_per_s", daop_speed.tokens_per_s, "tok/sim_s",
                   "DAOP Mixtral; " +
                       ref_note(paper_tok_per_s(EngineKind::Daop, true),
                                daop_speed.tokens_per_s));
    const auto& daop_energy = cell(0, s_energy, EngineKind::Daop);
    out.add_report("sim_tok_per_kj", daop_energy.tokens_per_kj, "tok/kJ",
                   "DAOP Mixtral; " +
                       ref_note(paper_tok_per_kj(EngineKind::Daop, true),
                                daop_energy.tokens_per_kj));
    double gain_sum = 0.0;
    for (std::size_t m = 0; m < models_.size(); ++m) {
      for (std::size_t s = 0; s < shapes_.size(); ++s) {
        gain_sum += cell(m, s, EngineKind::Daop).tokens_per_s /
                    cell(m, s, EngineKind::Fiddler).tokens_per_s;
      }
    }
    const double gain =
        gain_sum / static_cast<double>(models_.size() * shapes_.size());
    out.add_report("daop_over_fiddler", gain, "x",
                   "mean over the grid; " + ref_note(kPaperGainAvg, gain));

    // Fidelity: every paper value next to the simulator's.
    for (std::size_t m = 0; m < models_.size(); ++m) {
      const ModelCase& mc = models_[m];
      const std::string model = mc.mixtral ? "mixtral" : "phi";
      const Shape sp = shapes_[s_speed];
      const Shape se = shapes_[s_energy];
      for (EngineKind kind : engines_) {
        // "DAOP (ours)" -> "DAOP": metric names carry no spaces.
        std::string engine = daop::eval::engine_kind_name(kind);
        engine = engine.substr(0, engine.find(" ("));
        const double tps = cell(m, s_speed, kind).tokens_per_s;
        if (paper_tok_per_s(kind, mc.mixtral) > 0.0) {
          out.add_report("fidelity.fig9." + model + "." + engine, tps,
                         "tok/sim_s",
                         label(sp) + "; " +
                             ref_note(paper_tok_per_s(kind, mc.mixtral), tps));
        }
        const double tpk = cell(m, s_energy, kind).tokens_per_kj;
        if (paper_tok_per_kj(kind, mc.mixtral) > 0.0) {
          out.add_report("fidelity.table4." + model + "." + engine, tpk,
                         "tok/kJ",
                         label(se) + "; " +
                             ref_note(paper_tok_per_kj(kind, mc.mixtral), tpk));
        }
      }
    }
    const double g = cell(0, s_speed, EngineKind::Daop).tokens_per_s /
                     cell(0, s_speed, EngineKind::Fiddler).tokens_per_s;
    out.add_report("fidelity.fig9.mixtral.daop_over_fiddler", g, "x",
                   ref_note(kPaperGainMixtral256x512, g));
  }

  std::uint64_t seed_;
  bool tiny_;
  daop::sim::PlatformSpec platform_;
  std::vector<ModelCase> models_;
  std::vector<Shape> shapes_;
  std::vector<EngineKind> engines_;
  daop::data::WorkloadSpec workload_;
  int n_seqs_ = 0;
  std::vector<daop::eval::SpeedGridCell> cells_;
  // Kept from the last pass for the probe.
  std::vector<daop::cache::Placement> placements_;
  std::vector<std::vector<daop::data::SequenceTrace>> traces_;
  std::vector<daop::eval::SpeedGridCellResult> results_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(std::uint64_t seed, bool tiny) {
  return std::make_unique<Sweep>(seed, tiny);
}

}  // namespace perfbench
