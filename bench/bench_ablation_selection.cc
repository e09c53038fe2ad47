// Ablation: the SLO-customized selection phase.
//
// Compares the full pipeline against throughput-only selection (SLO phase
// disabled, i.e. greedy-by-probability like Eagle-2/Sequoia): the SLO phase
// should lift Cat-1 attainment under load at little goodput cost. Also
// reports the oracle gap: expected accepted tokens of Algorithm 1 (target
// probabilities known) vs the practical draft-approximated selection, on
// identical snapshots.
#include <iostream>

#include "bench/sweep_common.h"

namespace adaserve {
namespace {

void EndToEnd(const Setup& setup, const BenchArgs& args, SweepRunner& runner, BenchJson& json) {
  TablePrinter table(
      {"Variant", "RPS", "SLO Attainment(%)", "Cat1(%)", "Goodput(tok/s)"});
  const std::vector<double> rps_grid = {3.6, 4.6};
  const std::vector<bool> phases = {true, false};
  std::vector<std::function<EngineResult()>> tasks;
  for (double rps : rps_grid) {
    for (bool slo_phase : phases) {
      tasks.push_back([&setup, &args, rps, slo_phase] {
        const Experiment exp(setup);
        AdaServeConfig config;
        config.slo_phase_enabled = slo_phase;
        AdaServeScheduler scheduler(config);
        return exp.Run(scheduler, exp.RealTraceStream(SweepDurationFor(args), rps, PeakMix()));
      });
    }
  }
  const std::vector<Timed<EngineResult>> results = runner.Map(tasks);
  size_t i = 0;
  for (double rps : rps_grid) {
    for (bool slo_phase : phases) {
      const std::string variant = slo_phase ? "full pipeline" : "throughput-only";
      const Metrics& m = results[i++].value.metrics;
      table.AddRow({variant, Fmt(rps, 1), FmtPct(m.AttainmentPct()),
                    FmtPct(m.per_category[0].AttainmentPct()), Fmt(m.GoodputTps(), 1)});
      json.Add(setup.label, variant, "attainment_pct", rps, m.AttainmentPct());
      json.Add(setup.label, variant, "goodput_tps", rps, m.GoodputTps());
    }
  }
  table.Print(std::cout);
}

void OracleGap(const Experiment& exp) {
  std::cout << "\nOracle gap: Algorithm 1 (known f) vs practical selection, batch of 8, "
               "budget sweep\n";
  // Build 8 request contexts.
  constexpr int kBatch = 8;
  std::vector<std::vector<Token>> contexts;
  Rng rng(99);
  for (int i = 0; i < kBatch; ++i) {
    std::vector<Token> ctx;
    for (int t = 0; t < 8; ++t) {
      ctx.push_back(static_cast<Token>(rng.UniformInt(32000)));
    }
    contexts.push_back(ctx);
  }
  TablePrinter table({"Budget", "Oracle E[acc]", "Practical E[acc]", "Ratio(%)"});
  for (int budget : {16, 32, 64, 128}) {
    std::vector<OracleRequest> oracle_reqs(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      oracle_reqs[static_cast<size_t>(i)] = {
          .stream = static_cast<uint64_t>(i), .committed = contexts[static_cast<size_t>(i)],
          .a_req = 1.0};
    }
    const OptimalOutput oracle = OptimalConstruct(exp.target(), oracle_reqs, budget);

    // Practical: beam candidates from the draft, then two-phase selection,
    // then score the selected nodes with *target* probabilities.
    std::vector<TokenTree> candidates;
    for (int i = 0; i < kBatch; ++i) {
      candidates.push_back(BuildCandidateTree(exp.draft(), static_cast<uint64_t>(i),
                                              contexts[static_cast<size_t>(i)],
                                              BeamConfig{.depth = 8, .width = 4}));
    }
    std::vector<SelectionRequest> sel_reqs(kBatch);
    for (int i = 0; i < kBatch; ++i) {
      sel_reqs[static_cast<size_t>(i)] = {.tree = &candidates[static_cast<size_t>(i)],
                                          .a_cap = 1.0};
    }
    const SelectionResult sel = SelectTokens(sel_reqs, budget);
    // Score with target-model path probabilities (true acceptance rates).
    double practical = kBatch;  // the n bonus tokens
    for (int i = 0; i < kBatch; ++i) {
      const TokenTree& tree = candidates[static_cast<size_t>(i)];
      for (NodeId id = 1; id < tree.size(); ++id) {
        if (!sel.selected[static_cast<size_t>(i)][static_cast<size_t>(id)]) {
          continue;
        }
        // True f(v): product of target conditionals along the path.
        std::vector<Token> ctx = contexts[static_cast<size_t>(i)];
        double f = 1.0;
        for (Token tok : tree.PathTokens(id)) {
          f *= exp.target().NextDist(static_cast<uint64_t>(i), ctx).ProbOf(tok);
          ctx.push_back(tok);
        }
        practical += f;
      }
    }
    table.AddRow({std::to_string(budget), Fmt(oracle.TotalExpected(), 2), Fmt(practical, 2),
                  Fmt(100.0 * practical / oracle.TotalExpected(), 1)});
  }
  table.Print(std::cout);
}

int Run(const BenchArgs& args) {
  BenchJson json("ablation_selection");
  SweepRunner runner(args.threads);
  std::cout << "Ablation: SLO-customized selection phase (" << runner.threads()
            << " threads)\n";
  const Setup setup = LlamaSetup();
  std::cout << setup.label << "\n\n";
  EndToEnd(setup, args, runner, json);
  // The oracle-gap analysis is a handful of snapshot constructions, not a
  // sweep — it stays serial.
  const Experiment exp(setup);
  OracleGap(exp);
  json.SetRunInfo(runner.threads(), runner.total_wall_clock_s());
  return FinishBench(args, json);
}

}  // namespace
}  // namespace adaserve

int main(int argc, char** argv) {
  return adaserve::Run(adaserve::ParseBenchArgs(argc, argv));
}
