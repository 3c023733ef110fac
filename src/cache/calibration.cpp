#include "cache/calibration.hpp"

#include "common/check.hpp"

namespace daop::cache {

std::vector<std::vector<double>> calibrate_activation_counts(
    const data::TraceGenerator& gen, int n_sequences) {
  DAOP_CHECK_GT(n_sequences, 0);
  std::vector<std::vector<double>> total;
  for (int s = 0; s < n_sequences; ++s) {
    const data::SequenceTrace tr = gen.generate(s);
    if (total.empty()) {
      total.assign(static_cast<std::size_t>(tr.n_layers()),
                   std::vector<double>(static_cast<std::size_t>(tr.n_experts),
                                       0.0));
    }
    // Counts are whole numbers, so adding each token straight into the
    // total is exact and equals summing per-sequence count matrices.
    for (int l = 0; l < tr.n_layers(); ++l) {
      auto& row = total[static_cast<std::size_t>(l)];
      for (int t = 0; t < tr.gen_len; ++t) {
        for (int e : tr.selected(data::Phase::Decode, l, t)) {
          row[static_cast<std::size_t>(e)] += 1.0;
        }
      }
    }
  }
  return total;
}

}  // namespace daop::cache
