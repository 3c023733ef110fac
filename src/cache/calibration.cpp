#include "cache/calibration.hpp"

#include "common/check.hpp"

namespace daop::cache {

std::vector<std::vector<double>> calibrate_activation_counts(
    const data::TraceGenerator& gen, int n_sequences) {
  DAOP_CHECK_GT(n_sequences, 0);
  std::vector<std::vector<double>> total(
      static_cast<std::size_t>(gen.n_layers()),
      std::vector<double>(static_cast<std::size_t>(gen.n_experts()), 0.0));
  std::vector<double> scratch;
  // Counts are whole numbers, so adding each token straight into the
  // total is exact and equals summing per-sequence count matrices.
  for (int s = 0; s < n_sequences; ++s) {
    gen.add_decode_counts(s, total, scratch);
  }
  return total;
}

}  // namespace daop::cache
