#include "data/trace_io.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "common/check.hpp"

namespace daop::data {
namespace {

/// Largest score count per phase buffer a header may declare (1 GiB of
/// floats): far above any real model's trace, and small enough that a
/// corrupt header fails with CheckError instead of exhausting memory.
constexpr long long kMaxTraceFloats = 1LL << 28;

void write_scores(std::ostream& os, std::span<const float> scores) {
  for (float s : scores) os << ' ' << s;
}

void read_scores(std::istringstream& line, std::span<float> out,
                 const char* what) {
  for (float& v : out) {
    DAOP_CHECK_MSG(static_cast<bool>(line >> v),
                   "truncated " << what << " vector");
  }
}

}  // namespace

void save_trace(const SequenceTrace& trace, std::ostream& os) {
  DAOP_CHECK_GT(trace.n_layers(), 0);
  // Enough digits for bit-exact float round trips.
  os << std::setprecision(std::numeric_limits<float>::max_digits10);
  os << "daop-trace v1\n";
  os << "header " << trace.n_layers() << ' ' << trace.n_experts << ' '
     << trace.top_k << ' ' << trace.prompt_len << ' ' << trace.gen_len
     << '\n';
  for (int l = 0; l < trace.n_layers(); ++l) {
    for (int t = 0; t < trace.prompt_len; ++t) {
      os << "P " << l << ' ' << t;
      write_scores(os, trace.at(Phase::Prefill, l, t).scores);
      os << '\n';
    }
  }
  for (int l = 0; l < trace.n_layers(); ++l) {
    for (int t = 0; t < trace.gen_len; ++t) {
      const TokenRouting tr = trace.at(Phase::Decode, l, t);
      os << "D " << l << ' ' << t;
      write_scores(os, tr.scores);
      if (!tr.pred_scores.empty()) {
        os << " |";
        write_scores(os, tr.pred_scores);
      }
      os << '\n';
    }
  }
}

SequenceTrace load_trace(std::istream& is) {
  std::string line;
  DAOP_CHECK_MSG(static_cast<bool>(std::getline(is, line)) &&
                     line == "daop-trace v1",
                 "missing 'daop-trace v1' magic line");

  SequenceTrace trace;
  bool have_header = false;
  // [layer][token] per phase: set once a cell's record was read.
  std::vector<bool> seen_prefill;
  std::vector<bool> seen_decode;
  long long prefill_cells = 0;
  long long decode_cells = 0;

  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "header") {
      DAOP_CHECK_MSG(!have_header, "duplicate header");
      int n_layers = 0;
      int n_experts = 0;
      int top_k = 0;
      int prompt_len = 0;
      int gen_len = 0;
      DAOP_CHECK_MSG(static_cast<bool>(ls >> n_layers >> n_experts >> top_k >>
                                       prompt_len >> gen_len),
                     "malformed header");
      DAOP_CHECK_GT(n_layers, 0);
      DAOP_CHECK_GT(n_experts, 0);
      DAOP_CHECK_LE(n_experts, kMaxRoutedExperts);
      DAOP_CHECK(top_k > 0 && top_k <= n_experts);
      DAOP_CHECK_LE(top_k, kMaxTopK);
      DAOP_CHECK_GT(prompt_len, 0);
      DAOP_CHECK_GE(gen_len, 0);
      const long long per_token = static_cast<long long>(n_layers) * n_experts;
      DAOP_CHECK_MSG(std::max(prompt_len, gen_len) <=
                         kMaxTraceFloats / per_token,
                     "trace too large: " << n_layers << " layers x "
                                         << n_experts << " experts x "
                                         << std::max(prompt_len, gen_len)
                                         << " tokens");
      trace.reshape(n_layers, n_experts, top_k, prompt_len, gen_len);
      seen_prefill.assign(static_cast<std::size_t>(n_layers) * prompt_len,
                          false);
      seen_decode.assign(static_cast<std::size_t>(n_layers) * gen_len, false);
      have_header = true;
      continue;
    }
    DAOP_CHECK_MSG(have_header, "data line before header");
    DAOP_CHECK_MSG(kind == "P" || kind == "D",
                   "unknown record kind '" << kind << "'");
    const Phase phase = kind == "P" ? Phase::Prefill : Phase::Decode;
    int l = -1;
    int t = -1;
    DAOP_CHECK_MSG(static_cast<bool>(ls >> l >> t), "malformed record indices");
    DAOP_CHECK_MSG(l >= 0 && l < trace.n_layers(), "layer out of range: " << l);
    const int max_t =
        phase == Phase::Prefill ? trace.prompt_len : trace.gen_len;
    DAOP_CHECK_MSG(t >= 0 && t < max_t, "token out of range: " << t);
    auto& seen = phase == Phase::Prefill ? seen_prefill : seen_decode;
    const std::size_t cell = static_cast<std::size_t>(l) * max_t +
                             static_cast<std::size_t>(t);
    DAOP_CHECK_MSG(!seen[cell],
                   "duplicate cell " << kind << " " << l << " " << t);
    seen[cell] = true;
    read_scores(ls, trace.mutable_scores(phase, l, t), "scores");
    if (phase == Phase::Prefill) {
      ++prefill_cells;
    } else {
      ++decode_cells;
      std::string sep;
      if (ls >> sep) {
        DAOP_CHECK_MSG(sep == "|", "expected '|' before predictions");
        read_scores(ls, trace.mutable_pred_scores(l, t), "pred");
      }
    }
  }
  DAOP_CHECK_MSG(have_header, "empty trace (no header)");
  const auto n_layers = static_cast<long long>(trace.n_layers());
  DAOP_CHECK_MSG(prefill_cells == n_layers * trace.prompt_len,
                 "missing prefill cells: " << prefill_cells);
  DAOP_CHECK_MSG(decode_cells == n_layers * trace.gen_len,
                 "missing decode cells: " << decode_cells);
  trace.route();
  return trace;
}

void save_trace_file(const SequenceTrace& trace, const std::string& path) {
  std::ofstream f(path);
  DAOP_CHECK_MSG(static_cast<bool>(f), "cannot open for write: " << path);
  save_trace(trace, f);
  DAOP_CHECK_MSG(static_cast<bool>(f), "write failed: " << path);
}

SequenceTrace load_trace_file(const std::string& path) {
  std::ifstream f(path);
  DAOP_CHECK_MSG(static_cast<bool>(f), "cannot open for read: " << path);
  return load_trace(f);
}

}  // namespace daop::data
