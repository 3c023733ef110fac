// DAOP — functional (real-numerics) plane.
//
// Runs the same policy brain as DaopEngine (Algorithm 1 placement, gate-ahead
// prediction, pre-calculation on stale hidden states, graceful degradation)
// against a FunctionalModel, so its effect on model OUTPUTS is measurable.
// This is the executor behind the paper's accuracy results (Tables V & VI):
//  - prefill is numerically exact (placement only moves weights, §IV-B), so
//    prefill-dependent tasks match the official model;
//  - decode approximations (stale inputs for pre-calculated CPU experts,
//    degradation substitutions, mispredict fallbacks) perturb outputs more
//    as the ECR shrinks and as routing drifts within a sequence.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cache/placement.hpp"
#include "core/daop_config.hpp"
#include "model/functional_model.hpp"
#include "model/quantized_expert.hpp"

namespace daop::core {

struct FunctionalRunStats {
  long long decode_expert_uses = 0;     ///< expert slots filled during decode
  long long exact_execs = 0;            ///< true expert, exact input
  long long stale_input_execs = 0;      ///< pre-calculated (stale input)
  long long degradations = 0;           ///< planned substitutions
  long long mispredict_fallbacks = 0;   ///< fallback substitutions
  long long mispredict_recomputes = 0;  ///< exact recomputes on mispredict
  long long prefill_swaps = 0;          ///< Algorithm 1 swaps applied
  long long decode_swaps = 0;           ///< decode re-allocation swaps
                                        ///< (extension, off by default)
  long long quantized_execs = 0;        ///< CPU executions run quantized
                                        ///< (cpu_quant_bits extension)
  long long skipped_experts = 0;        ///< experts skipped by the adaptive
                                        ///< top-1 margin (extension)

  FunctionalRunStats& operator+=(const FunctionalRunStats& o);
};

/// One prefill decoded free-running and teacher-forced, with the run
/// counters of each decode.
struct DecodePair {
  std::vector<int> free_run;
  std::vector<int> forced;
  FunctionalRunStats free_stats;
  FunctionalRunStats forced_stats;
};

/// One decode pair of a lockstep batch: the exact prefill it continues, its
/// §IV-A placement and dataset conditioner, and the teacher (length >=
/// n_gen) of its teacher-forced decode. The pointees must outlive the call.
struct PairRequest {
  const model::PrefillState* prefill = nullptr;
  const cache::Placement* initial = nullptr;
  const model::GateBias* bias = nullptr;
  std::span<const int> teacher;
};

class DaopFunctionalExecutor {
 public:
  DaopFunctionalExecutor(const model::FunctionalModel& model,
                         DaopConfig config = {});

  /// Greedy decode under DAOP approximations, continuing the exact
  /// `prefill` of the prompt (taken by value: pass a copy to continue one
  /// prefill several times). `initial` is the §IV-A calibrated placement
  /// (copied; Algorithm 1 adjusts the copy from the prefill's routing
  /// counts). `bias` is the dataset conditioner (must match the prefill's
  /// and the official run's).
  ///
  /// When `teacher` is non-empty (length >= n_gen) the decoder is
  /// teacher-forced: it consumes `teacher[g]` at step g instead of its own
  /// prediction, while still RETURNING its own per-step argmax predictions.
  /// Comparing the result against the official generation then measures
  /// per-step approximation error without compounding divergence — the
  /// primary accuracy proxy for Table VI. Its tokens are known up front, so
  /// it runs layer by layer over spans of steps (cut where decode
  /// re-allocation moves the placement); the numerics equal a step-by-step
  /// run bit for bit.
  std::vector<int> generate(model::PrefillState prefill, int n_gen,
                            const cache::Placement& initial,
                            const model::GateBias& bias = nullptr,
                            FunctionalRunStats* stats = nullptr,
                            std::span<const int> teacher = {}) const;

  /// The free-running decode and the teacher-forced decode on its teacher
  /// of every request, each equal to the two generate() calls field for
  /// field. The free-running decodes of all requests step in lockstep, one
  /// span per layer with a row of each (rows of different sequences share
  /// every projection, gate and expert run; attention stays per sequence).
  /// While a request's free-running tokens equal its teacher's, both of its
  /// decodes consume the same tokens from the same state, so they share
  /// those steps; its teacher-forced decode forks at the first difference.
  std::vector<DecodePair> generate_pairs(std::span<const PairRequest> requests,
                                         int n_gen) const;

  /// generate_pairs of one request; adds the counters to the stats given.
  DecodePair generate_pair(model::PrefillState prefill, int n_gen,
                           const cache::Placement& initial,
                           const model::GateBias& bias,
                           std::span<const int> teacher,
                           FunctionalRunStats* free_stats = nullptr,
                           FunctionalRunStats* forced_stats = nullptr) const;

  /// Prefill `prompt` exactly, then decode as above.
  std::vector<int> generate(std::span<const int> prompt, int n_gen,
                            const cache::Placement& initial,
                            const model::GateBias& bias = nullptr,
                            FunctionalRunStats* stats = nullptr,
                            std::span<const int> teacher = {}) const;

 private:
  const model::FunctionalModel& model_;
  DaopConfig config_;
  std::unique_ptr<model::QuantizedExpertSet> quantized_;  ///< null when off
};

}  // namespace daop::core
