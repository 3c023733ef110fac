// DAOP engine configuration (§IV) with ablation switches.
#pragma once

namespace daop::core {

/// What to do when a decode-phase expert turns out to be CPU-resident but
/// was not pre-calculated (gate-ahead misprediction).
enum class MispredictPolicy {
  /// Substitute the next-best GPU-resident expert by true gate score
  /// (extends the paper's graceful-degradation rule to mispredictions;
  /// fastest, approximate). Default.
  GracefulFallback,
  /// Execute the true expert on the CPU with the exact input
  /// (stalls the pipeline, exact numerics). Ablation alternative.
  RecomputeExact,
};

struct DaopConfig {
  /// Algorithm 1 comparison threshold: a CPU expert must beat the GPU
  /// candidate's token count by this factor to trigger a swap.
  double swap_in_out = 1.05;

  /// Prediction applies to block i+1 computed from block i's hidden states
  /// for i >= 4 (paper §IV-C(a)); blocks below this index use the original
  /// gate with in-place execution.
  int min_predict_layer = 5;

  // ---- Ablation switches (all on = paper's DAOP) ----

  /// §IV-B sequence-specific expert allocation during prefill.
  bool enable_seq_allocation = true;
  /// §IV-C prediction-based pre-calculation during decode.
  bool enable_precalc = true;
  /// §IV-C(b) graceful degradation (both-predicted-on-CPU substitution).
  bool enable_degradation = true;

  MispredictPolicy mispredict_policy = MispredictPolicy::RecomputeExact;

  // ---- Extensions beyond the paper (defaults keep them off) ----

  /// EdgeMoE-style quantized CPU execution: when > 0, CPU-resident expert
  /// executions (pre-calculations, recomputes, early-layer in-place runs)
  /// use symmetric grouped quantization at this bit-width. Speeds up the
  /// memory-bound CPU path at a measurable fidelity cost. 0 = fp precision;
  /// otherwise 2..8, the widths QuantSpec supports.
  int cpu_quant_bits = 0;
  /// Group size for cpu_quant_bits.
  int cpu_quant_group = 64;

  /// §VI-B future work: re-run Algorithm 1 every N decode tokens over the
  /// trailing N-token activation window, letting the cache follow
  /// within-sequence drift (GSM8K). 0 = paper behaviour (placement frozen
  /// after prefill).
  int decode_realloc_interval = 0;

  /// AdapMoE-style adaptive expert skipping (related work [8]): during
  /// decode, when the top-1 expert's renormalized gate weight reaches this
  /// margin the remaining expert is skipped entirely — less work at a
  /// fidelity cost concentrated on low-confidence tokens. 0 disables;
  /// sensible values are in [0.6, 0.95].
  double skip_top1_margin = 0.0;

  // ---- Robustness / graceful-degradation policies (defaults off) ----
  // These matter under the sim::FaultModel hazard plane but are pure
  // policies: they also apply on a calm device if enabled.

  /// Migration deadline-abort: an expert swap whose weights have not
  /// arrived within this multiple of the unperturbed migration time
  /// (measured from issue, so PCIe queueing counts against the budget) is
  /// abandoned — the expert stays on the CPU and decode proceeds instead
  /// of stalling. 0 disables (always wait).
  double migration_deadline_factor = 0.0;

  /// Bounded retries per migration after a transient expert-load failure;
  /// one more failure aborts the migration (see migration_aborts).
  int max_migration_retries = 2;

  /// Stale pre-calculation discard: a CPU pre-calc whose result would land
  /// later than (GPU need time + this factor * one GPU expert execution)
  /// is dropped in favour of the best GPU-resident substitute — counted in
  /// stale_precalcs, never waited on. 0 disables (always wait).
  double stale_precalc_factor = 0.0;
};

/// CHECKs every DaopConfig field's range with an explanatory message
/// (rejects swap_in_out < 1, min_predict_layer < 1, cpu_quant_bits other
/// than 0 or 2..8, negative intervals/retries/factors, skip_top1_margin
/// outside [0,1]). Called by every consumer of a DaopConfig at construction
/// so a bad config fails loudly instead of producing silently nonsensical
/// results.
void validate_config(const DaopConfig& config);

}  // namespace daop::core
