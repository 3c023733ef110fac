// Routing-trace golden: FNV-1a hashes of every bit TraceGenerator produces
// and of every expert id the trace's top-k accessors return, for the
// paper's model shapes (Mixtral 32x8, Phi-3.5 32x16) and the tiny test shape
// (8x8), over C4 and GSM8K at two seeds, plus the save_trace text of one
// trace per shape. Any change to the generator's draw order, the trace
// storage, the top-k scan or its tie-breaking, or the text format shows up
// here as a hash mismatch naming the case.
//
// The test reads traces only through at()/selected()/predicted() and range
// loops, so it does not depend on how the trace stores its cells.
//
// Regenerate (only after an INTENTIONAL routing change) with:
//   DAOP_UPDATE_GOLDENS=1 ./routing_golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "data/trace_generator.hpp"
#include "data/trace_io.hpp"
#include "model/config.hpp"

#ifndef DAOP_GOLDEN_DIR
#error "DAOP_GOLDEN_DIR must be defined by the build"
#endif

namespace daop::data {
namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void byte(unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f32(float f) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    u32(bits);
  }
  std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

/// Hashes of one trace's score bits and top-k ids, folded into `acc`.
struct TraceHashes {
  Fnv prefill, decode, pred, selected, predicted;

  void add(const SequenceTrace& tr) {
    for (int l = 0; l < tr.n_layers(); ++l) {
      for (int t = 0; t < tr.prompt_len; ++t) {
        const auto& cell = tr.at(Phase::Prefill, l, t);
        for (float s : cell.scores) prefill.f32(s);
        for (int e : tr.selected(Phase::Prefill, l, t)) {
          selected.u32(static_cast<std::uint32_t>(e));
        }
      }
      for (int t = 0; t < tr.gen_len; ++t) {
        const auto& cell = tr.at(Phase::Decode, l, t);
        for (float s : cell.scores) decode.f32(s);
        // Presence is part of the trace: layer 0 carries no prediction.
        pred.byte(cell.pred_scores.empty() ? 0 : 1);
        for (float s : cell.pred_scores) pred.f32(s);
        for (int e : tr.selected(Phase::Decode, l, t)) {
          selected.u32(static_cast<std::uint32_t>(e));
        }
        predicted.byte(tr.predicted(l, t).empty() ? 0 : 1);
        for (int e : tr.predicted(l, t)) {
          predicted.u32(static_cast<std::uint32_t>(e));
        }
      }
    }
  }
};

struct Shape {
  const char* name;
  model::ModelConfig cfg;
};

std::string all_hashes() {
  const Shape shapes[] = {{"mixtral", model::mixtral_8x7b()},
                          {"phi", model::phi35_moe()},
                          {"tiny", model::tiny_mixtral()}};
  const WorkloadSpec workloads[] = {c4(), gsm8k()};
  const std::uint64_t seeds[] = {1, 9001};
  std::ostringstream os;
  for (const Shape& s : shapes) {
    for (const WorkloadSpec& wl : workloads) {
      for (const std::uint64_t seed : seeds) {
        const TraceGenerator gen(wl, s.cfg.n_layers, s.cfg.n_experts,
                                 s.cfg.top_k, seed);
        TraceHashes h;
        h.add(gen.generate(0, 24, 16));
        h.add(gen.generate(3, 7, 33));
        h.add(gen.generate(5, 5, 0));
        os << s.name << ' ' << s.cfg.n_layers << 'x' << s.cfg.n_experts
           << ' ' << wl.name << " seed " << seed
           << " prefill=" << h.prefill.hex() << " decode=" << h.decode.hex()
           << " pred=" << h.pred.hex() << " selected=" << h.selected.hex()
           << " predicted=" << h.predicted.hex() << '\n';
      }
    }
    const TraceGenerator gen(gsm8k(), s.cfg.n_layers, s.cfg.n_experts,
                             s.cfg.top_k, 1);
    std::ostringstream text;
    save_trace(gen.generate(2, 12, 9), text);
    Fnv h;
    for (const char c : text.str()) h.byte(static_cast<unsigned char>(c));
    os << s.name << " save_trace bytes=" << text.str().size()
       << " fnv1a=" << h.hex() << '\n';
  }
  return os.str();
}

const char* kGoldenPath = DAOP_GOLDEN_DIR "/routing_traces.golden";

TEST(RoutingGolden, MatchesCommittedGolden) {
  const std::string actual = all_hashes();
  if (std::getenv("DAOP_UPDATE_GOLDENS") != nullptr) {
    std::ofstream f(kGoldenPath);
    ASSERT_TRUE(f.good()) << "cannot write " << kGoldenPath;
    f << actual;
    GTEST_SKIP() << "goldens regenerated at " << kGoldenPath;
  }
  std::ifstream f(kGoldenPath);
  ASSERT_TRUE(f.good()) << "missing golden file " << kGoldenPath
                        << " (regenerate with DAOP_UPDATE_GOLDENS=1)";
  std::istringstream aa(actual);
  std::string eline;
  std::string aline;
  while (std::getline(f, eline)) {
    ASSERT_TRUE(static_cast<bool>(std::getline(aa, aline)))
        << "hashes truncated before: " << eline;
    EXPECT_EQ(eline, aline);
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(aa, aline)))
      << "extra hash line: " << aline;
}

}  // namespace
}  // namespace daop::data
