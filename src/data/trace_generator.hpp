// Synthesizes routing traces matching a WorkloadSpec's statistics.
//
// Generative model, per sequence:
//   pref[0]   = skew * z0,  z0 ~ N(0, I_E)
//   pref[l]   = rho * pref[l-1] + sqrt(1-rho^2) * skew * z_l      (layer field)
//   prefill score(l, t) = pref[l] + noise * eps(l, t)
//   decode pref'[l]     = sqrt(1-shift^2) * pref[l] + shift * w_l (phase shift,
//                         normalized so decode preferences keep prefill scale)
//   decode score(l, t)  = pref'[l] + drift(l, t) + noise * eps
//   drift(l, t)         = drift(l, t-1) + drift_sigma * skew * xi (random walk)
//   pred score(l, t)    = score(l, t) + pred_noise(l) * eps'      (gate-ahead
//                         prediction fidelity; layer-dependent per Fig. 5)
//
// Everything is deterministic in (spec, model dims, seed, sequence index).
#pragma once

#include <cstdint>
#include <vector>

#include "data/routing_trace.hpp"
#include "data/workload.hpp"

namespace daop::data {

class TraceGenerator {
 public:
  TraceGenerator(WorkloadSpec spec, int n_layers, int n_experts, int top_k,
                 std::uint64_t seed);

  const WorkloadSpec& spec() const { return spec_; }
  int n_layers() const { return n_layers_; }
  int n_experts() const { return n_experts_; }

  /// Generates the routed trace for sequence `seq_index`; deterministic per
  /// index.
  SequenceTrace generate(int seq_index) const;

  /// Generates with explicit lengths (overriding the spec's defaults).
  SequenceTrace generate(int seq_index, int prompt_len, int gen_len) const;

  /// Adds to counts[layer][expert] what generate(seq_index) routes to each
  /// expert in decode (its selected(Phase::Decode, ...) ids), without
  /// building the trace. The random draws are generate()'s, in its order,
  /// but the prefill and prediction variates are discarded unevaluated and
  /// each decode cell is ranked in one fixed row. `scratch` holds the
  /// per-layer preference and drift rows; reusing it across calls keeps a
  /// calibration pass at one scratch allocation.
  void add_decode_counts(int seq_index,
                         std::vector<std::vector<double>>& counts,
                         std::vector<double>& scratch) const;

 private:
  /// The generative model above, drawn in one fixed order. `Sink` supplies
  /// the rows cells are written to and says which cells it keeps; the
  /// variates of cells it does not keep are discarded, not computed.
  template <typename Sink>
  void walk(int seq_index, int prompt_len, int gen_len,
            std::vector<double>& scratch, Sink& sink) const;

  WorkloadSpec spec_;
  int n_layers_;
  int n_experts_;
  int top_k_;
  std::uint64_t seed_;
};

}  // namespace daop::data
