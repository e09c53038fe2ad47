// adaserve_sim: command-line experiment driver.
//
// Runs one serving experiment with configurable system, model setup, load,
// mix and duration, and optionally dumps machine-readable CSVs for
// post-processing (per-run metrics, per-request records, per-iteration
// breakdown).
//
//   ./build/adaserve_sim --system=adaserve --model=llama --rps=4.0 --duration=40 --mix=0.6,0.2,0.2 --requests-csv=requests.csv --iterations-csv=iterations.csv
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "src/adaserve.h"

namespace {

using namespace adaserve;

struct Options {
  std::string system = "adaserve";
  std::string model = "llama";
  double rps = 4.0;
  double duration = 30.0;
  std::array<double, kNumCategories> mix = {0.6, 0.2, 0.2};
  uint64_t seed = 42;
  std::string requests_csv;
  std::string iterations_csv;
  bool greedy = false;
};

void PrintUsage() {
  std::cout <<
      "Usage: adaserve_sim [options]\n"
      "  --system=NAME       adaserve|vllm|sarathi|spec4|spec6|spec8|priority|fastserve|vtc|edf\n"
      "  --model=NAME        llama (70B, 4xA100) | qwen (32B, 2xA100)\n"
      "  --rps=R             mean request rate (default 4.0)\n"
      "  --duration=S        trace duration in seconds (default 30)\n"
      "  --mix=A,B,C         category mix, must sum to 1 (default 0.6,0.2,0.2)\n"
      "  --seed=N            trace seed (default 42)\n"
      "  --greedy            greedy decoding instead of sampling\n"
      "  --requests-csv=F    write per-request records to F\n"
      "  --iterations-csv=F  write per-iteration breakdown to F\n";
}

bool ParseArgs(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg]() { return arg.substr(arg.find('=') + 1); };
    if (arg == "--help" || arg == "-h") {
      return false;
    } else if (arg.starts_with("--system=")) {
      opts.system = value();
    } else if (arg.starts_with("--model=")) {
      opts.model = value();
    } else if (arg.starts_with("--rps=")) {
      opts.rps = std::atof(value().c_str());
    } else if (arg.starts_with("--duration=")) {
      opts.duration = std::atof(value().c_str());
    } else if (arg.starts_with("--seed=")) {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--greedy") {
      opts.greedy = true;
    } else if (arg.starts_with("--mix=")) {
      const std::string v = value();
      if (std::sscanf(v.c_str(), "%lf,%lf,%lf", &opts.mix[0], &opts.mix[1], &opts.mix[2]) != 3) {
        std::cerr << "bad --mix: " << v << "\n";
        return false;
      }
    } else if (arg.starts_with("--requests-csv=")) {
      opts.requests_csv = value();
    } else if (arg.starts_with("--iterations-csv=")) {
      opts.iterations_csv = value();
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return false;
    }
  }
  return true;
}

const std::map<std::string, SystemKind>& SystemsByName() {
  static const auto* kMap = new std::map<std::string, SystemKind>{
      {"adaserve", SystemKind::kAdaServe},   {"vllm", SystemKind::kVllm},
      {"sarathi", SystemKind::kSarathi},     {"spec4", SystemKind::kVllmSpec4},
      {"spec6", SystemKind::kVllmSpec6},     {"spec8", SystemKind::kVllmSpec8},
      {"priority", SystemKind::kVllmPriority}, {"fastserve", SystemKind::kFastServe},
      {"vtc", SystemKind::kVtc},               {"edf", SystemKind::kEdf},
  };
  return *kMap;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, opts)) {
    PrintUsage();
    return 1;
  }
  const auto it = SystemsByName().find(opts.system);
  if (it == SystemsByName().end()) {
    std::cerr << "unknown system: " << opts.system << "\n";
    PrintUsage();
    return 1;
  }
  if (opts.model != "llama" && opts.model != "qwen") {
    std::cerr << "unknown model: " << opts.model << "\n";
    return 1;
  }

  Experiment exp(opts.model == "llama" ? LlamaSetup() : QwenSetup());
  WorkloadConfig mix;
  mix.mix = opts.mix;
  const std::vector<Request> workload =
      exp.RealTraceWorkload(opts.duration, opts.rps, mix, opts.seed);

  auto scheduler = MakeScheduler(it->second);
  EngineConfig engine;
  engine.mode = opts.greedy ? DecodeMode::kGreedy : DecodeMode::kStochastic;
  // Keep the finished request records for the CSV dump: rerun through a raw
  // engine is unnecessary — Experiment::Run already computes everything we
  // print; per-request CSVs need the pool, so re-simulate through Engine.
  Engine raw(&exp.target(), &exp.draft(), &exp.target_latency(), &exp.draft_latency(), engine);
  const EngineResult result = raw.Run(*scheduler, workload);

  std::cout << "system=" << SystemName(it->second) << " model=" << exp.setup().label
            << " requests=" << workload.size() << "\n";
  TablePrinter table({"Metric", "Value"});
  table.AddRow({"SLO attainment (%)", FmtPct(result.metrics.AttainmentPct())});
  table.AddRow({"Goodput (tok/s)", Fmt(result.metrics.GoodputTps(), 1)});
  table.AddRow({"Throughput (tok/s)", Fmt(result.metrics.ThroughputTps(), 1)});
  table.AddRow({"Mean accepted/verification", Fmt(result.metrics.mean_accepted, 2)});
  table.AddRow({"Makespan (s)", Fmt(result.metrics.makespan, 1)});
  // Work the tick displaced: evictions and pauses show up here, not only
  // as lost attainment.
  table.AddRow({"Evictions", std::to_string(result.metrics.evictions)});
  table.AddRow({"Pauses", std::to_string(result.metrics.pauses)});
  for (int c = 0; c < kNumCategories; ++c) {
    const CategoryMetrics& m = result.metrics.per_category[static_cast<size_t>(c)];
    table.AddRow({"Cat" + std::to_string(c + 1) + " attainment (%)", FmtPct(m.AttainmentPct())});
    table.AddRow({"Cat" + std::to_string(c + 1) + " mean TPOT (ms)", Fmt(m.tpot_ms.Mean(), 2)});
    table.AddRow({"Cat" + std::to_string(c + 1) + " p99 TTFT (ms)",
                  Fmt(m.ttft_ms.Percentile(99), 1)});
  }
  table.Print(std::cout);

  if (!opts.iterations_csv.empty()) {
    std::ofstream os(opts.iterations_csv);
    WriteIterationCsv(os, result.iterations);
    std::cout << "wrote " << result.iterations.size() << " iterations to "
              << opts.iterations_csv << "\n";
  }
  if (!opts.requests_csv.empty()) {
    std::ofstream os(opts.requests_csv);
    WriteRequestCsv(os, result.requests);
    std::cout << "wrote " << result.requests.size() << " requests to " << opts.requests_csv
              << "\n";
  }
  return 0;
}
