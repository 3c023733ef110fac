#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cmath>
#include <cstring>

#include "common/stats.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const char* name, long long request) {
  Span s;
  s.name = name;
  s.parent = current_;
  s.request = request;
  spans_.push_back(std::move(s));
  current_ = static_cast<int>(spans_.size()) - 1;
  // Read the clock last so the bookkeeping above is not charged to the span.
  spans_.back().start = now_s();
  return current_;
}

void Tracer::close(int index) {
  const double end = now_s();
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end = end;
  current_ = s.parent;
}

std::map<std::string, double> Tracer::self_times() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
  }
  return out;
}

double empty_span_s() {
  Tracer probe;
  std::vector<double> d;
  for (int i = 0; i < 101; ++i) {
    { const Scope s(&probe, "empty"); }
    d.push_back(probe.spans().back().end - probe.spans().back().start);
  }
  return median(d);
}

namespace {

constexpr std::uint64_t kLcgMul = 6364136223846793005ULL;
constexpr std::uint64_t kLcgAdd = 1442695040888963407ULL;

// The four reference kernels cover the program's instruction mix: normal
// draws (transcendental math, as in routing-trace generation), integer
// read-modify-writes that miss the cache, dependent pointer chasing, and
// vector allocation. Each takes about 0.05 s.

double normals_s() {
  static std::vector<float> table(std::size_t{1} << 20);
  std::uint64_t x = 88172645463325252ULL;
  float best = 0.0F;
  const double t0 = now_s();
  for (int i = 0; i < 1'500'000; ++i) {
    x = x * kLcgMul + kLcgAdd;
    const double u1 = static_cast<double>((x >> 11) + 1) * 0x1.0p-53;
    x = x * kLcgMul + kLcgAdd;
    const double u2 = static_cast<double>(x >> 11) * 0x1.0p-53;
    const auto z = static_cast<float>(std::sqrt(-2.0 * std::log(u1)) *
                                      std::cos(6.283185307179586 * u2));
    float& slot = table[(x >> 44) & (table.size() - 1)];
    slot = 0.9F * slot + z;
    best = std::max(best, slot);
  }
  const double dt = now_s() - t0;
  table[0] = best;  // keeps the loop observable
  return dt;
}

double scatter_s() {
  static std::vector<std::uint32_t> buf(std::size_t{1} << 21);
  std::uint64_t x = 1;
  const double t0 = now_s();
  for (int i = 0; i < 10'000'000; ++i) {
    x = x * kLcgMul + kLcgAdd;
    buf[(x >> 43) & (buf.size() - 1)] += static_cast<std::uint32_t>(x);
  }
  const double dt = now_s() - t0;
  buf[0] += static_cast<std::uint32_t>(x);
  return dt;
}

double chase_s() {
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(std::size_t{1} << 20);
    for (std::uint32_t i = 0; i < v.size(); ++i) v[i] = i;
    std::uint64_t z = 12345;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      z = z * kLcgMul + kLcgAdd;
      std::swap(v[i], v[(z >> 33) % (i + 1)]);
    }
    return v;
  }();
  static std::uint64_t sink = 0;
  std::uint32_t idx = 0;
  std::uint64_t acc = 0;
  const double t0 = now_s();
  for (int i = 0; i < 1'200'000; ++i) {
    idx = next[idx];
    if ((idx & 4U) != 0) {
      acc += idx;
    } else {
      acc ^= idx * 3ULL;
    }
  }
  const double dt = now_s() - t0;
  sink += acc;
  return dt;
}

double allocs_s() {
  static std::size_t sink = 0;
  std::vector<std::vector<double>> keep(64);
  std::uint64_t x = 7;
  std::size_t total = 0;
  const double t0 = now_s();
  for (int i = 0; i < 200'000; ++i) {
    x = x * kLcgMul + kLcgAdd;
    auto& v = keep[(x >> 40) & 63];
    v.assign(16 + ((x >> 20) & 1023), 1.0);
    total += v.size();
  }
  const double dt = now_s() - t0;
  sink += total;
  return dt;
}

}  // namespace

double reference_loop_s() {
  // Geometric mean: each kernel weighs the same whatever its duration.
  return std::pow(normals_s() * scatter_s() * chase_s() * allocs_s(), 0.25);
}

std::string Tracer::to_json() const {
  std::string out = "{\"schema\":\"perfbench-spans/1\",\"spans\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d,\"request\":%lld}",
                  i ? "," : "", i, s.name.c_str(), s.start, s.end, s.parent,
                  s.request);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  bytes(&bits, sizeof(bits));
}

void Digest::add(long long v) { bytes(&v, sizeof(v)); }

void Digest::add(std::string_view s) {
  add(static_cast<long long>(s.size()));
  bytes(s.data(), s.size());
}

void Digest::add(const daop::engines::RunResult& r) {
  add(r.engine);
  add(static_cast<long long>(r.prompt_tokens));
  add(static_cast<long long>(r.generated_tokens));
  for (double v : {r.prefill_s, r.decode_s, r.total_s, r.tokens_per_s,
                   r.decode_tokens_per_s, r.tokens_per_kj, r.energy.gpu_j,
                   r.energy.cpu_j, r.energy.pcie_j, r.energy.base_j,
                   r.energy.total_j, r.energy.avg_power_w}) {
    add(v);
  }
  add(r.counters);
}

void Digest::add(const daop::engines::EngineCounters& c) {
  for (long long v :
       {c.expert_migrations, c.gpu_expert_execs, c.cpu_expert_execs,
        c.cache_hits, c.cache_misses, c.prefetch_hits, c.predictions,
        c.mispredictions, c.degradations, c.prefill_swaps, c.decode_swaps,
        c.skipped_experts, c.migration_retries, c.migration_aborts,
        c.stale_precalcs, c.pin_refusals, c.preemptions, c.preempt_resumes,
        c.degraded_sessions}) {
    add(v);
  }
  add(c.hazard_stall_s);
}

std::string Tail::note() const {
  char buf[64];
  if (percentile > 0.0) {
    std::snprintf(buf, sizeof(buf), "p%g (n=%d)", percentile, n);
  } else {
    std::snprintf(buf, sizeof(buf), "max (n=%d, too few for a percentile)", n);
  }
  return buf;
}

Tail tail_of(std::vector<double> samples) {
  Tail t;
  t.n = static_cast<int>(samples.size());
  if (samples.empty()) return t;
  for (double p : {99.0, 95.0, 90.0, 80.0, 75.0, 50.0}) {
    if (static_cast<double>(t.n) * (1.0 - p / 100.0) >= 10.0) {
      t.percentile = p;
      t.value = daop::percentile(samples, p / 100.0);
      return t;
    }
  }
  t.value = *std::max_element(samples.begin(), samples.end());
  return t;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  return daop::percentile(v, 0.5);
}

void PassOutput::check(bool ok, const std::string& what) {
  ++checks;
  if (!ok) failures.push_back(what);
}

void PassOutput::add_report(std::string name, double value, std::string unit,
                            std::string note) {
  report.push_back(
      {std::move(name), value, std::move(unit), std::move(note)});
}

}  // namespace perfbench
