// Deterministic random number generation for all DAOP experiments.
//
// Every source of randomness in the library flows through daop::Rng, seeded
// explicitly, so that every experiment in the paper reproduction is
// bit-reproducible across runs and platforms. The generator is xoshiro256**
// seeded via SplitMix64 (both public-domain algorithms).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace daop {

/// 64-bit deterministic PRNG (xoshiro256**) with distribution helpers.
///
/// Rng is a value type: copying it forks the stream at its current state.
/// Use fork(stream_id) to derive statistically independent child streams,
/// e.g. one per sequence or per layer, without coupling consumption order.
class Rng {
 public:
  /// Seeds the generator. Two Rng instances with equal seeds produce
  /// identical streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int uniform_int(int lo, int hi);

  /// Standard normal via Box-Muller (cached second variate).
  double normal();

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);

  /// Advances the stream exactly as `n` calls to normal() would (the
  /// cached second variate and the u1 == 0 redraw included) without the
  /// log and sincos work of the variates that are thrown away.
  void discard_normals(std::size_t n);

  /// Gamma(alpha, 1) via Marsaglia-Tsang; alpha > 0.
  double gamma(double alpha);

  /// Dirichlet sample with symmetric concentration `alpha` over `k` bins.
  std::vector<double> dirichlet_symmetric(double alpha, int k);

  /// Dirichlet sample with per-bin concentrations.
  std::vector<double> dirichlet(std::span<const double> alpha);

  /// Samples an index proportionally to `weights` (need not be normalized,
  /// must be non-negative with positive sum).
  int categorical(std::span<const double> weights);

  /// Derives an independent child stream; deterministic in (parent seed,
  /// stream id) and unaffected by how much the parent has been consumed.
  Rng fork(std::uint64_t stream_id) const;

  /// Complete generator state, for crash-consistent checkpointing: restoring
  /// a saved State resumes the stream at exactly the draw it was suspended
  /// on (including the Box-Muller cached variate).
  struct State {
    std::array<std::uint64_t, 4> s{};
    std::uint64_t seed = 0;
    bool has_cached_normal = false;
    double cached_normal = 0.0;
  };
  State save_state() const {
    return State{state_, seed_, has_cached_normal_, cached_normal_};
  }
  void load_state(const State& st) {
    state_ = st.s;
    seed_ = st.seed;
    has_cached_normal_ = st.has_cached_normal;
    cached_normal_ = st.cached_normal;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (int i = static_cast<int>(v.size()) - 1; i > 0; --i) {
      const int j = uniform_int(0, i);
      std::swap(v[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(j)]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  std::uint64_t seed_ = 0;  // retained so fork() is consumption-independent
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace daop
