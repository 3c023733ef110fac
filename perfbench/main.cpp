// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload sweep|serve|cluster-chaos|accuracy|all
//             [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]
//             [--expected FILE] [--spans-out FILE] [--record]
//
// Untraced (--trace 0): times repeated passes of the workload for --seconds
// and reports the end-to-end metrics. Traced (--trace 1): interleaves
// untraced and traced passes, adds the sinks-off / checkpoints-off variants
// and the layer probes, and reports the per-layer metrics plus the tracing
// overhead. Every pass is verified: its result digest must equal the
// reference pass's and, when the seed is recorded in --expected, the
// recorded digest and exact work counts. The last line of stdout is one
// JSON object; any failed check makes the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

// The reference loop's nominal duration. Set-up times are reported as
// if the machine ran at the pace where reference_loop_s() takes this long.
constexpr double kReferencePaceS = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool record = false;
  std::string expected = "perfbench/expected.txt";
  std::string spans_out;
};

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sweep", "serve",
                                                 "cluster-chaos", "accuracy"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool tiny) {
  if (name == "sweep") return make_sweep(seed, tiny);
  if (name == "serve") return make_serve(seed, tiny);
  if (name == "cluster-chaos") return make_cluster_chaos(seed, tiny);
  if (name == "accuracy") return make_accuracy(seed, tiny);
  return nullptr;
}

// Exact work counts pinned per (workload, size, seed) next to the digest.
// An algorithmic change shows up here as a count, with no timing noise.
const std::vector<std::string>& exact_count_keys() {
  static const std::vector<std::string> keys = {
      "data.traces",       "engines.migrations", "engines.cpu_execs",
      "engines.gpu_execs", "recovery.checkpoints", "sim.schedule_ops",
      "model.gflop"};
  return keys;
}

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* span;  ///< span whose self time this host time is, if any
};

// The per-layer metrics of a traced run, in report order.
const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> m = {
      {"data.gen_s", "s", "data.gen"},
      {"data.traces", "count", nullptr},
      {"data.trace_tokens", "count", nullptr},
      {"data.ns_per_token", "ns/token", nullptr},
      {"cache.calib_s", "s", "cache.calib"},
      {"cache.hit_ratio", "ratio", nullptr},
      {"cache.fills", "count", nullptr},
      {"cache.refusals", "count", nullptr},
      {"engines.run_s", "s", "engines.run"},
      {"engines.ns_per_sim_token", "ns/token", nullptr},
      {"engines.migrations", "count", nullptr},
      {"engines.cpu_execs", "count", nullptr},
      {"engines.gpu_execs", "count", nullptr},
      {"core.pred_hit_ratio", "ratio", nullptr},
      {"core.degradations", "count", nullptr},
      {"core.daop_decode_s", "s", nullptr},
      {"core.stale_input_execs", "count", nullptr},
      {"sim.schedule_ops", "count", nullptr},
      {"sim.gpu_busy_s", "sim_s", nullptr},
      {"sim.pcie_exposed_s", "sim_s", nullptr},
      {"sim.cpu_hidden_s", "sim_s", nullptr},
      {"sim.hazard_stall_s", "sim_s", nullptr},
      {"model.ref_decode_s", "s", nullptr},
      {"model.decode_tokens", "count", nullptr},
      {"model.gflop", "GFLOP", nullptr},
      {"model.gflop_per_s", "GFLOP/s", nullptr},
      {"eval.sched_s", "s", "eval.sched"},
      {"eval.accuracy_s", "s", "eval.accuracy"},
      {"eval.queue_wait_p50_s", "sim_s", nullptr},
      {"eval.queue_wait_tail_s", "sim_s", nullptr},
      {"eval.shed", "count", nullptr},
      {"eval.preemptions", "count", nullptr},
      {"obs.sink_s", "s", nullptr},
      {"obs.windows", "count", nullptr},
      {"obs.alerts", "count", nullptr},
      {"cluster.run_s", "s", "cluster.run"},
      {"cluster.dispatches", "count", nullptr},
      {"cluster.failovers", "count", nullptr},
      {"cluster.replayed_tokens", "count", nullptr},
      {"recovery.ckpt_s", "s", nullptr},
      {"recovery.checkpoints", "count", nullptr},
      {"recovery.restored", "count", nullptr},
      {"trace.overhead_s", "s", nullptr},
  };
  return m;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// One recorded line: "<workload> <size> <seed> <digest> key=value ...".
struct ExpectedEntry {
  std::uint64_t digest = 0;
  std::map<std::string, double> counts;
};
using Expected = std::map<std::string, ExpectedEntry>;

std::string expected_key(const std::string& w, bool tiny, std::uint64_t seed) {
  return w + " " + (tiny ? "tiny" : "full") + " " + std::to_string(seed);
}

bool load_expected(const std::string& path, Expected& out) {
  std::ifstream f(path);
  if (!f) return false;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string w, size, seed, digest;
    if (!(ss >> w >> size >> seed >> digest)) return false;
    ExpectedEntry e;
    e.digest = std::strtoull(digest.c_str(), nullptr, 16);
    std::string kv;
    while (ss >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos) return false;
      e.counts[kv.substr(0, eq)] = std::strtod(kv.c_str() + eq + 1, nullptr);
    }
    out[w + " " + size + " " + seed] = e;
  }
  return true;
}

std::string record_line(const std::string& w, bool tiny, std::uint64_t seed,
                        const PassOutput& ref,
                        const std::map<std::string, double>& layer) {
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, ref.digest.value());
  std::string line = expected_key(w, tiny, seed) + " " + hex;
  for (const std::string& k : exact_count_keys()) {
    const auto it = layer.find(k);
    if (it != layer.end()) line += " " + k + "=" + fmt_g(it->second);
  }
  return line;
}

class Verifier {
 public:
  void absorb(const PassOutput& p) {
    attempted_ += p.checks;
    for (const auto& f : p.failures) fail(f);
  }
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) fail(what);
  }
  long long attempted() const { return attempted_; }
  long long failed() const { return static_cast<long long>(failures_.size()); }

 private:
  void fail(const std::string& what) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    failures_.push_back(what);
  }
  long long attempted_ = 0;
  std::vector<std::string> failures_;
};

void check_expected(Verifier& v, const Expected& expected,
                    const std::string& key, const PassOutput& ref,
                    const std::map<std::string, double>& layer) {
  const auto it = expected.find(key);
  if (it == expected.end()) {
    std::printf("expected: no recorded digest for '%s'; checking determinism "
                "and invariants only\n",
                key.c_str());
    return;
  }
  v.check(it->second.digest == ref.digest.value(),
          "result digest equals the recorded digest for " + key);
  for (const auto& [k, want] : it->second.counts) {
    const auto got = layer.find(k);
    if (got == layer.end()) continue;  // count measured in traced runs only
    v.check(got->second == want, "exact count " + k + " = " + fmt_g(got->second) +
                                     ", recorded " + fmt_g(want));
  }
}

void print_metric(const Metric& m) {
  std::printf("  %-44s %-14.6g %-10s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

// Times `fn` (one pass) and returns its host seconds.
double timed(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

int run_workload(const Args& a, const std::string& name,
                 const Expected& expected) {
  std::unique_ptr<Workload> w = make_workload(name, a.seed, a.tiny);
  const std::string key = expected_key(name, a.tiny, a.seed);
  if (!a.record) {
    std::printf("== perfbench %s (seed %" PRIu64 ", %s, %s) ==\n",
                name.c_str(), a.seed, a.tiny ? "tiny" : "full",
                a.trace ? "traced" : "untraced");
  }

  // Set-up builds the request plan. It can take well under a microsecond,
  // so it is timed in batches long enough to swamp the clock's own cost;
  // the untraced run times one batch before each pass.
  int batch = 1;
  while (timed([&] {
           for (int i = 0; i < batch; ++i) w->setup();
         }) < 0.02 &&
         batch < (1 << 20)) {
    batch *= 2;
  }
  const auto setup_batch_s = [&] {
    return timed([&] {
             for (int j = 0; j < batch; ++j) w->setup();
           }) /
           batch;
  };

  Verifier v;
  // The measured window opens with the reference pass, which is not timed:
  // it warms caches and finishes lazy set-up.
  const double deadline = now_s() + a.seconds;
  PassOutput ref = w->pass({});
  v.absorb(ref);
  const auto same_as_ref = [&](const PassOutput& p, const char* what) {
    v.absorb(p);
    v.check(p.digest.value() == ref.digest.value(),
            std::string(what) + " pass reproduces the reference pass");
  };

  if (a.record) {
    Tracer tracer;
    PassOutput probe;
    w->probe(&tracer, ref, probe);
    v.absorb(probe);
    std::map<std::string, double> layer = ref.layer;
    for (const auto& [k, val] : probe.layer) layer[k] = val;
    if (v.failed() > 0) return 1;
    std::printf("%s\n", record_line(name, a.tiny, a.seed, ref, layer).c_str());
    return 0;
  }

  std::vector<Metric> json;
  if (!a.trace) {
    check_expected(v, expected, key, ref, ref.layer);
    // The reference loop runs between passes. Each pass is scaled by the
    // mean of the runs just before and just after it, each set-up batch by
    // the run just before it.
    std::vector<double> times, refs = {reference_loop_s()};
    std::vector<double> setups, setups_host;
    while (times.size() < 3 || now_s() < deadline) {
      setups_host.push_back(setup_batch_s());
      setups.push_back(setups_host.back() * kReferencePaceS / refs.back());
      PassOutput p;
      times.push_back(timed([&] { p = w->pass({}); }));
      same_as_ref(p, "timed");
      refs.push_back(reference_loop_s());
    }
    std::vector<double> rates, ref_rates;
    for (std::size_t i = 0; i < times.size(); ++i) {
      rates.push_back(ref.tokens / times[i]);
      ref_rates.push_back(ref.tokens * 0.5 * (refs[i] + refs[i + 1]) /
                          times[i]);
    }
    json.push_back({"tokens_per_ref", median(ref_rates), "tok/ref",
                    "tokens per reference-loop time, median of " +
                        std::to_string(times.size()) + " passes"});
    json.push_back({"peak_rss_mb", peak_rss_mb(), "MB", "process peak"});
    json.push_back({"setup_s", median(setups), "s",
                    "at the reference pace; median of " +
                        std::to_string(setups.size()) + " batches of " +
                        std::to_string(batch) + " set-ups"});
    for (const Metric& m : json) print_metric(m);
    print_metric({"setup_host_s", median(setups_host), "s",
                  "wall clock, same batches"});
    print_metric({"tokens_per_host_s", median(rates), "tok/s",
                  "wall clock, median of " + std::to_string(times.size()) +
                      " passes; " + fmt_g(ref.tokens) + " tokens per pass"});
    std::printf("  pass host seconds:");
    for (double t : times) std::printf(" %.4g", t);
    std::printf("\n  reference loop seconds:");
    for (double t : refs) std::printf(" %.4g", t);
    std::printf("\n");
    print_metric({"error_rate",
                  v.attempted() > 0
                      ? static_cast<double>(v.failed()) / v.attempted()
                      : 0.0,
                  "ratio",
                  std::to_string(v.failed()) + " of " +
                      std::to_string(v.attempted()) + " checks failed"});
    for (const Metric& m : ref.report) print_metric(m);
  } else {
    Tracer tracer;
    std::vector<double> plain, traced;
    while (traced.size() < 2 || now_s() < deadline) {
      PassOutput p;
      plain.push_back(timed([&] { p = w->pass({}); }));
      same_as_ref(p, "untraced");
      traced.push_back(timed([&] {
        const Scope top(&tracer, "pass");
        PassOptions po;
        po.tracer = &tracer;
        p = w->pass(po);
      }));
      same_as_ref(p, "traced");
    }
    const auto self = tracer.self_times();
    const double floor_s = empty_span_s();
    std::map<std::string, double> layer = ref.layer;
    // On-minus-off costs, from the same number of passes as the plain runs.
    const auto variant_cost = [&](PassOptions po, bool compare,
                                  const char* what) {
      std::vector<double> t;
      PassOutput first;
      for (std::size_t i = 0; i < plain.size(); ++i) {
        PassOutput p;
        t.push_back(timed([&] { p = w->pass(po); }));
        if (compare) {
          same_as_ref(p, what);
        } else {
          v.absorb(p);
          if (i == 0) first = p;
          v.check(p.digest.value() == first.digest.value(),
                  std::string(what) + " pass is deterministic");
        }
      }
      return median(plain) - median(t);
    };
    if (w->has_sinks()) {
      PassOptions po;
      po.sinks = false;
      // Sinks are passive: switching them off must not change a result.
      layer["obs.sink_s"] = variant_cost(po, true, "sinks-off");
    }
    if (w->has_checkpoints()) {
      PassOptions po;
      po.checkpoints = false;
      layer["recovery.ckpt_s"] = variant_cost(po, false, "checkpoints-off");
    }
    PassOutput probe;
    w->probe(&tracer, ref, probe);
    v.absorb(probe);
    for (const auto& [k, val] : probe.layer) layer[k] = val;
    check_expected(v, expected, key, ref, layer);
    layer["trace.overhead_s"] = median(traced) - median(plain);

    const double n = static_cast<double>(traced.size());
    for (const LayerMetric& lm : layer_metrics()) {
      double value = 0.0;
      if (const auto it = layer.find(lm.name); it != layer.end()) {
        value = it->second;
      } else if (lm.span != nullptr && self.count(lm.span) > 0) {
        value = self.at(lm.span) / n;
      } else if (std::strcmp(lm.unit, "s") == 0) {
        value = floor_s;  // a layer this workload never calls
      }
      layer[lm.name] = value;
    }
    // Derived after the loop above filled the host times they divide.
    layer["data.ns_per_token"] =
        layer["data.gen_s"] / std::max(1.0, layer["data.trace_tokens"]) * 1e9;
    layer["engines.ns_per_sim_token"] =
        layer["engines.run_s"] / std::max(1.0, ref.tokens) * 1e9;
    for (const LayerMetric& lm : layer_metrics()) {
      json.push_back({lm.name, layer[lm.name], lm.unit, ""});
    }
    for (const Metric& m : json) print_metric(m);
    std::printf("  (host times are per traced pass, %zu traced and %zu "
                "untraced passes; layers never called read the empty-span "
                "cost %.3g s)\n",
                traced.size(), plain.size(), floor_s);
    if (!a.spans_out.empty()) {
      std::ofstream f(a.spans_out);
      f << tracer.to_json();
      if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     a.spans_out.c_str());
        return 2;
      }
    }
  }

  std::string line = "{\"correct\": ";
  line += v.failed() == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(v.attempted());
  line += ", \"failed\": " + std::to_string(v.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < json.size(); ++i) {
    line += (i ? ", \"" : "\"") + json[i].name + "\": {\"value\": " +
            fmt_g(json[i].value) + ", \"unit\": \"" + json[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return v.failed() == 0 ? 0 : 1;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sweep|serve|cluster-chaos|accuracy|all [--seed N] "
               "[--seconds S] [--trace 0|1] [--size full|tiny] "
               "[--expected FILE] [--spans-out FILE] [--record]\n",
               msg);
  return 2;
}

int main_impl(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = val;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) return usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) return usage("bad --seconds");
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      a.trace = val == "1";
    } else if (flag == "--size") {
      if (val != "full" && val != "tiny") return usage("bad --size");
      a.tiny = val == "tiny";
    } else if (flag == "--expected") {
      a.expected = val;
    } else if (flag == "--spans-out") {
      a.spans_out = val;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  std::vector<std::string> names;
  if (a.workload == "all") {
    names = workload_names();
  } else if (std::count(workload_names().begin(), workload_names().end(),
                        a.workload) > 0) {
    names = {a.workload};
  } else {
    return usage("unknown or missing --workload");
  }
  Expected expected;
  if (!a.record && !load_expected(a.expected, expected)) {
    std::fprintf(stderr, "perfbench: cannot read expected results %s\n",
                 a.expected.c_str());
    return 2;
  }
  int rc = 0;
  for (const std::string& n : names) {
    const int r = run_workload(a, n, expected);
    if (r != 0) rc = r;
  }
  return rc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
