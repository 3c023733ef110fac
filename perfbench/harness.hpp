// Shared pieces of the perfbench program: wall-clock spans recorded around
// calls into the library, digests of deterministic results, and the
// interface every workload implements.
//
// Spans are taken from outside the library: a workload wraps each call into
// a module's public function in a Scope. With no tracer attached a Scope
// does nothing at all (no clock read), so the untraced run that yields the
// end-to-end metrics pays nothing for the instrumentation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engines/engine.hpp"

namespace perfbench {

/// Seconds on the monotonic clock.
double now_s();

/// Host seconds of a fixed reference workload: the geometric mean of four
/// small kernels (about 0.05 s each) covering the program's instruction
/// mix. Timed between passes, it measures how fast this machine is running
/// at that moment, so pass times can be compared across runs on a machine
/// whose speed drifts. It calls nothing in the library, so no change to
/// the program can move it.
double reference_loop_s();
double reference_loop2_s();

/// One timed call into a library module.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;         ///< index of the enclosing span, -1 at top level
  long long request = -1;  ///< request id shared by one request's spans
};

/// Spans kept in memory for one traced run and written out at exit.
class Tracer {
 public:
  int open(const char* name, long long request);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed self time per span name: each span's duration minus the time
  /// covered by its direct children.
  std::map<std::string, double> self_times() const;
  std::string to_json() const;

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span. A null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, long long request = -1)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(name, request) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// FNV-1a over the exact bit patterns of the values added.
class Digest {
 public:
  void add(double v);
  void add(long long v);
  void add(std::string_view s);
  /// Every field of a run result, counters included.
  void add(const daop::engines::RunResult& r);
  void add(const daop::engines::EngineCounters& c);
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// A named value with its unit, as printed in the report.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< free text: sample count, paper reference, ...
};

/// "p90 (n=128)"-style tail: the highest percentile in {99, 95, 90, 80, 75,
/// 50} that leaves at least ten samples beyond it.
struct Tail {
  double percentile = 0.0;  ///< 0 when fewer than 20 samples
  double value = 0.0;
  int n = 0;
  std::string note() const;
};
Tail tail_of(std::vector<double> samples);
double median(std::vector<double> v);

/// The cost of opening and closing one empty span (median of many),
/// reported for layers a workload never calls.
double empty_span_s();

/// Everything one pass of a workload produced.
struct PassOutput {
  Digest digest;       ///< modelled results only; observability outputs and
                       ///< host times are excluded so passive sinks and
                       ///< tracing must leave it unchanged
  double tokens = 0.0;  ///< simulated or functional tokens completed
  long long checks = 0;
  std::vector<std::string> failures;
  std::vector<Metric> report;          ///< modelled end-to-end metrics
  std::map<std::string, double> layer;  ///< per-layer counts and modelled values

  void check(bool ok, const std::string& what);
  void add_report(std::string name, double value, std::string unit,
                  std::string note = {});
};

struct PassOptions {
  Tracer* tracer = nullptr;
  bool sinks = true;        ///< observability sinks attached
  bool checkpoints = true;  ///< crash-consistent checkpointing on
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the request plan from the seed; timed as setup_s.
  virtual void setup() = 0;
  /// One full pass of the workload's program work.
  virtual PassOutput pass(const PassOptions& options) = 0;
  /// Traced run only: per-layer values that need recorded timelines or
  /// direct calls into one layer, checked against the untraced `reference`
  /// pass. Adds to `out.layer` and `out.failures`.
  virtual void probe(Tracer* tracer, const PassOutput& reference,
                     PassOutput& out) = 0;
  /// Whether the sinks-off / checkpoints-off variants change anything.
  virtual bool has_sinks() const { return false; }
  virtual bool has_checkpoints() const { return false; }
};

std::unique_ptr<Workload> make_sweep(std::uint64_t seed, bool tiny);
std::unique_ptr<Workload> make_serve(std::uint64_t seed, bool tiny);
std::unique_ptr<Workload> make_cluster_chaos(std::uint64_t seed, bool tiny);
std::unique_ptr<Workload> make_accuracy(std::uint64_t seed, bool tiny);

}  // namespace perfbench
