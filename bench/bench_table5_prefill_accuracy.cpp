// Reproduces paper Table V: impact of DAOP on accuracy for downstream tasks
// that depend on the PREFILL stage (first generated token), ECR 25%.
//
// Paper reference: DAOP matches the official model within eval noise on all
// six tasks (e.g. Mixtral MMLU 70.60 -> 70.47). Mechanically this is
// because §IV-B allocation only RELOCATES experts during prefill — the math
// is unchanged — and the first token is produced before any decode-phase
// approximation. Our proxy therefore reports first-token agreement with the
// exact official model, which should be ~100%.
//
// The bench checks that claim — DAOP's first-token agreement is 100.00% on
// every task for both models — and exits nonzero, naming each failure on
// stderr, when it does not hold; ctest runs it.
#include <cstdio>
#include <string>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "eval/accuracy.hpp"
#include "model/config.hpp"

int main() {
  using namespace daop;

  // Six prefill-scored task stand-ins (commonsense/aggregate suites).
  const std::vector<data::WorkloadSpec> tasks = {
      data::c4(),  data::alpaca(),     data::triviaqa(),
      data::bbh(), data::truthfulqa(), data::math_ds()};

  std::printf(
      "Table V — prefill-dependent task accuracy proxy, ECR 25%%\n"
      "(first-token agreement of DAOP vs the exact official model, %%)\n\n");

  int failures = 0;
  for (const model::ModelConfig& cfg :
       {model::tiny_mixtral(), model::tiny_phi()}) {
    const model::FunctionalModel fm(cfg, 0xDA0Full);
    std::printf("== %s ==\n", cfg.name.c_str());
    TextTable t({"task", "official (%)", "DAOP @ECR 25% (%)"});
    for (const auto& task : tasks) {
      eval::AccuracyEvalOptions opt;
      opt.n_episodes = 32;
      opt.prompt_len = 24;
      opt.gen_len = 1;  // the first output token decides these tasks
      const auto m =
          eval::evaluate_daop_accuracy(fm, task, core::DaopConfig{}, 0.25, opt);
      const std::string agreement = fmt_f(m.exact_match * 100.0, 2);
      t.add_row({task.name, "100.00", agreement});
      if (m.exact_match != 1.0) {
        ++failures;
        std::fprintf(stderr,
                     "claim failed: %s %s first-token agreement %s%%, want "
                     "100.00%%\n",
                     cfg.name.c_str(), task.name.c_str(), agreement.c_str());
      }
    }
    std::printf("%s\n", t.render().c_str());
  }
  std::printf(
      "paper shape: 'ours' indistinguishable from 'official' on\n"
      "prefill-dependent tasks at ECR 25%%.\n");
  return failures == 0 ? 0 : 1;
}
