// Deterministic mutation test of the daop-trace loader.
//
// Saved traces of four shapes are damaged with seeded byte flips,
// truncations and line splices (and combinations of them). Every mutated
// input must either raise CheckError or load into a trace whose save_trace
// text re-loads to identical bits — never crash, hang, throw anything else
// or leave the trace half-built. The ASan+UBSan build runs the same cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/trace_generator.hpp"
#include "data/trace_io.hpp"

namespace daop::data {
namespace {

std::string saved(const SequenceTrace& tr) {
  std::ostringstream os;
  save_trace(tr, os);
  return os.str();
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

/// Shape, every score bit and every prediction flag equal.
bool identical(const SequenceTrace& a, const SequenceTrace& b) {
  if (a.n_layers() != b.n_layers() || a.n_experts != b.n_experts ||
      a.top_k != b.top_k || a.prompt_len != b.prompt_len ||
      a.gen_len != b.gen_len) {
    return false;
  }
  for (int l = 0; l < a.n_layers(); ++l) {
    for (int t = 0; t < a.prompt_len; ++t) {
      if (!same_bits(a.at(Phase::Prefill, l, t).scores,
                     b.at(Phase::Prefill, l, t).scores)) {
        return false;
      }
    }
    for (int t = 0; t < a.gen_len; ++t) {
      const TokenRouting x = a.at(Phase::Decode, l, t);
      const TokenRouting y = b.at(Phase::Decode, l, t);
      if (!same_bits(x.scores, y.scores) ||
          x.pred_scores.empty() != y.pred_scores.empty() ||
          !same_bits(x.pred_scores, y.pred_scores)) {
        return false;
      }
    }
  }
  return true;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

/// One seeded mutation of `text`; `donor` supplies spliced lines.
std::string mutate(std::string text, const std::string& donor, Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0: {  // flip one bit
      if (text.empty()) return text;
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(text.size()) - 1));
      text[i] = static_cast<char>(text[i] ^ (1 << rng.uniform_int(0, 7)));
      return text;
    }
    case 1: {  // overwrite one byte with a character the format uses
      if (text.empty()) return text;
      static const char kAlphabet[] = "0123456789 -.e+|#PDh\n\t";
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(text.size()) - 1));
      text[i] = kAlphabet[rng.uniform_int(0, sizeof(kAlphabet) - 2)];
      return text;
    }
    case 2:  // truncate
      return text.substr(0, static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<int>(text.size()))));
    case 3: {  // replace a line with a donor line
      std::vector<std::string> lines = split_lines(text);
      const std::vector<std::string> from = split_lines(donor);
      if (lines.empty() || from.empty()) return text;
      lines[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(lines.size()) - 1))] =
          from[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(from.size()) - 1))];
      return join_lines(lines);
    }
    default: {  // insert a donor line, or drop a line
      std::vector<std::string> lines = split_lines(text);
      const std::vector<std::string> from = split_lines(donor);
      const auto at = static_cast<std::ptrdiff_t>(
          rng.uniform_int(0, static_cast<int>(lines.size())));
      if (rng.uniform_int(0, 1) == 0 || lines.empty()) {
        lines.insert(lines.begin() + at,
                     from[static_cast<std::size_t>(rng.uniform_int(
                         0, static_cast<int>(from.size()) - 1))]);
      } else {
        lines.erase(lines.begin() +
                    std::min<std::ptrdiff_t>(
                        at, static_cast<std::ptrdiff_t>(lines.size()) - 1));
      }
      return join_lines(lines);
    }
  }
}

TEST(TraceIoMutation, EveryInputRoundTripsOrRaisesCheckError) {
  // Four shapes; GSM8K drifts, so decode cells carry predictions. The
  // last sits at the 256-expert limit of the routing index, so header
  // mutations probe both sides of it.
  const std::vector<std::string> corpus = {
      saved(TraceGenerator(gsm8k(), 2, 4, 2, 31).generate(0, 3, 4)),
      saved(TraceGenerator(c4(), 3, 8, 2, 32).generate(1, 2, 3)),
      saved(TraceGenerator(gsm8k(), 1, 16, 3, 33).generate(2, 2, 2)),
      saved(TraceGenerator(gsm8k(), 2, kMaxRoutedExperts, 2, 34)
                .generate(3, 1, 1))};
  for (const std::string& text : corpus) {
    std::istringstream is(text);
    ASSERT_NO_THROW(load_trace(is));
  }

  constexpr int kMutations = 12000;
  Rng rng(0x7EACE);
  int loaded = 0;
  int rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    const std::string& base =
        corpus[static_cast<std::size_t>(i) % corpus.size()];
    const std::string& donor =
        corpus[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(corpus.size()) - 1))];
    std::string text = mutate(base, donor, rng);
    for (int extra = rng.uniform_int(0, 2); extra > 0; --extra) {
      text = mutate(text, donor, rng);
    }

    SequenceTrace first;
    try {
      std::istringstream is(text);
      first = load_trace(is);
    } catch (const CheckError&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      FAIL() << "mutation " << i << " threw a non-CheckError: " << e.what()
             << "\n--- input ---\n"
             << text;
    }
    ++loaded;
    const std::string resaved = saved(first);
    std::istringstream again(resaved);
    SequenceTrace second;
    ASSERT_NO_THROW(second = load_trace(again))
        << "mutation " << i << ": re-saved trace does not load\n"
        << resaved;
    ASSERT_TRUE(identical(first, second))
        << "mutation " << i << ": round trip changed bits\n--- input ---\n"
        << text;
    ASSERT_EQ(saved(second), resaved) << "mutation " << i;
  }
  // Both outcomes must be common, or the mutations are too weak (everything
  // loads) or too destructive (nothing does) to test anything.
  EXPECT_GT(loaded, kMutations / 20) << loaded << " loaded, " << rejected
                                     << " rejected";
  EXPECT_GT(rejected, kMutations / 4) << loaded << " loaded, " << rejected
                                      << " rejected";
}

TEST(TraceIoMutation, DuplicateAndMissingCellsKeepTheirMessages) {
  const std::string text =
      saved(TraceGenerator(gsm8k(), 2, 4, 2, 31).generate(0, 3, 4));
  std::vector<std::string> lines = split_lines(text);
  const auto message = [](const std::vector<std::string>& l) {
    std::istringstream is(join_lines(l));
    try {
      load_trace(is);
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // lines[2] is "P 0 0 ...", the last line "D 1 3 ...".
  std::vector<std::string> dup = lines;
  dup.push_back(lines[2]);
  EXPECT_NE(message(dup).find("duplicate cell P 0 0"), std::string::npos)
      << message(dup);
  std::vector<std::string> missing_p = lines;
  missing_p.erase(missing_p.begin() + 2);
  EXPECT_NE(message(missing_p).find("missing prefill cells: 5"),
            std::string::npos)
      << message(missing_p);
  std::vector<std::string> missing_d = lines;
  missing_d.pop_back();
  EXPECT_NE(message(missing_d).find("missing decode cells: 7"),
            std::string::npos)
      << message(missing_d);
}

}  // namespace
}  // namespace daop::data
