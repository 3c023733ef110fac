// Reproduces paper Table VI: impact of DAOP on accuracy for tasks that
// depend on the ENTIRE inference (full generation), across ECRs.
//
// Paper reference shape (Mixtral): TriviaQA/BBH/TruthfulQA barely move from
// ECR 100% -> 25% (71.6 -> 69.1 EM on TriviaQA), while GSM8K degrades
// steadily (58.9 -> 33.5) because its expert activations drift within a
// sequence, defeating a small frozen cache (§VI-B).
//
// Our proxy scores DAOP generations against the exact official model:
// token agreement ~ ExactMatch analogue; ROUGE-1/2 for the
// generation-scored task (TruthfulQA analogue).
//
// The bench checks the table's shape on both models — ECR 100% is exact
// (every metric of every task is 1), and every column is non-increasing
// from ECR 100% down to 25% — and exits nonzero, naming each failure on
// stderr, when it does not hold. `--quick` runs a smaller sweep (16
// episodes of 24 generated tokens per task instead of 24 of 40) with the
// same check; ctest runs it at that size. At 8 episodes of 16 tokens the
// sampling noise already lets a column rise by one step.
#include <cstdio>

#include "common/cli.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "eval/accuracy.hpp"
#include "model/config.hpp"

int main(int argc, char** argv) {
  using namespace daop;
  const FlagParser flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  if (!flags.unused().empty()) {
    std::fprintf(stderr, "unknown flag --%s (only --quick is accepted)\n",
                 flags.unused().front().c_str());
    return 2;
  }

  const std::vector<double> ecrs = {1.0, 0.625, 0.50, 0.375, 0.25};
  const std::vector<data::WorkloadSpec> tasks = {
      data::triviaqa(), data::bbh(), data::truthfulqa(), data::gsm8k()};

  std::printf(
      "Table VI — whole-inference accuracy proxy across ECRs\n"
      "(token agreement with the exact official model, %%; ROUGE-1/2 for\n"
      "the generation task)\n\n");

  int failures = 0;
  char what[160];
  const auto claim = [&failures, &what](bool ok) {
    if (ok) return;
    ++failures;
    std::fprintf(stderr, "claim failed: %s\n", what);
  };
  for (const model::ModelConfig& cfg :
       {model::tiny_mixtral(), model::tiny_phi()}) {
    const model::FunctionalModel fm(cfg, 0xDA0Full);

    // One calibration pass (ShareGPT-like), reused across the ECR sweep.
    const auto calib = eval::calibrate_functional_counts(
        fm, data::sharegpt_calibration(), 8, 24, 24, 0x5eedULL);

    // One sweep per task: the official reference is decoded once per
    // episode and scored at every ECR.
    std::vector<std::vector<eval::AccuracyMetrics>> by_task;
    for (const auto& task : tasks) {
      eval::AccuracyEvalOptions opt;
      opt.n_episodes = quick ? 16 : 24;
      opt.prompt_len = 24;
      opt.gen_len = quick ? 24 : 40;
      opt.calib_counts = &calib;
      by_task.push_back(eval::evaluate_daop_accuracy(fm, task,
                                                     core::DaopConfig{}, ecrs,
                                                     opt));
    }

    std::printf("== %s ==\n", cfg.name.c_str());
    TextTable t({"ECR", "TriviaQA agr", "BBH agr", "TruthfulQA R1", "R2",
                 "GSM8K agr"});
    std::vector<std::string> exact_frac_row = {"exact-exec% @25%"};
    for (std::size_t e = 0; e < ecrs.size(); ++e) {
      const double ecr = ecrs[e];
      std::vector<std::string> row = {fmt_pct(ecr)};
      for (std::size_t k = 0; k < tasks.size(); ++k) {
        const auto& task = tasks[k];
        const eval::AccuracyMetrics& m = by_task[k][e];
        if (ecr == 1.0) {
          std::snprintf(what, sizeof(what), "%s %s is not exact at ECR 100%%",
                        cfg.name.c_str(), task.name.c_str());
          claim(m.exact_match == 1.0 && m.token_agreement == 1.0 &&
                m.rouge1 == 1.0 && m.rouge2 == 1.0);
        } else {
          // ECRs run from 100% down, so column k may only fall.
          const eval::AccuracyMetrics& prev = by_task[k][e - 1];
          const bool rouge = task.name == "TruthfulQA";
          std::snprintf(what, sizeof(what),
                        "%s %s rises from ECR %s to %s", cfg.name.c_str(),
                        task.name.c_str(), fmt_pct(ecrs[e - 1]).c_str(),
                        fmt_pct(ecr).c_str());
          claim(rouge ? m.rouge1 <= prev.rouge1 && m.rouge2 <= prev.rouge2
                      : m.token_agreement <= prev.token_agreement);
        }
        if (task.name == "TruthfulQA") {
          row.push_back(fmt_f(m.rouge1 * 100.0, 2));
          row.push_back(fmt_f(m.rouge2 * 100.0, 2));
        } else {
          row.push_back(fmt_f(m.token_agreement * 100.0, 2));
        }
        if (ecr == 0.25) {
          const double exact_frac =
              static_cast<double>(m.stats.exact_execs) /
              static_cast<double>(m.stats.decode_expert_uses);
          exact_frac_row.push_back(fmt_f(exact_frac * 100.0, 1));
          if (task.name == "TruthfulQA") exact_frac_row.push_back("");
        }
      }
      t.add_row(row);
    }
    t.add_rule();
    t.add_row(exact_frac_row);
    std::printf("%s\n", t.render().c_str());
  }
  std::printf(
      "paper shape: ECR 100%% is exact; accuracy holds as the cache shrinks.\n"
      "The bottom row shows the fraction of decode expert executions that\n"
      "ran exactly (true expert, true input). Workloads whose decode-phase\n"
      "routing departs from the prefill pattern — GSM8K through §VI-B's\n"
      "in-sequence drift, BBH through a large prefill->decode shift — have\n"
      "the most approximated executions: the mechanism behind the paper's\n"
      "Table VI degradations. (A tiny random-weight model has no brittle\n"
      "math skill to lose, so GSM8K's task-level collapse does not\n"
      "reproduce in final-token agreement; the mechanism does.)\n");
  return failures == 0 ? 0 : 1;
}
