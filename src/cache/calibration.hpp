// Calibration of dominant experts from a calibration dataset (§IV-A).
//
// The paper decodes the ShareGPT calibration set and accumulates layer-wise
// expert activation counts to seed the initial GPU expert cache. This
// helper does the same over synthesized calibration sequences, walking only
// their decode routing (TraceGenerator::add_decode_counts): no trace is
// built.
#pragma once

#include <cstdint>
#include <vector>

#include "data/trace_generator.hpp"

namespace daop::cache {

/// Accumulates decode-phase activation counts of `n_sequences` calibration
/// sequences: result[layer][expert] = tokens routed there. Equal to summing
/// gen.generate(s).selected(Phase::Decode, ...) over s in [0, n_sequences).
std::vector<std::vector<double>> calibrate_activation_counts(
    const data::TraceGenerator& gen, int n_sequences);

}  // namespace daop::cache
