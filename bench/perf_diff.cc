// CI perf gate: diffs a bench's BENCH_*.json output against a committed
// rolling baseline and fails on regressions.
//
//   perf_diff <baseline.json> <candidate.json> [--rel_tol 0.05] [--abs_tol 2.0]
//             [--time_rel_tol 1.0] [--time_abs_tol 5.0]
//
// Every baseline row (model, system, metric, x) must exist in the
// candidate, and its value must not be worse than the baseline by more
// than max(abs_tol, rel_tol * |baseline|). Simulation metrics are
// higher-is-better (goodput_tps, throughput_tps, attainment_pct, ...)
// except latencies: "recovery_s" and every "*_ms" row (e.g. a TTFT) are
// lower-is-better, under the same strict tolerances. "wall_clock_s" rows
// — the harness wall clock the parallel sweep engine reports — are
// lower-is-better and gated with their own deliberately loose tolerances
// (--time_rel_tol / --time_abs_tol), because wall clock varies across
// machines where the deterministic metrics do not. Improvements beyond
// tolerance are reported as a hint to refresh the baseline but do not
// fail the gate.
// Exit codes: 0 ok, 1 regression / missing rows, 2 usage or parse error.
//
// The parser handles exactly the flat document BenchJson emits — an
// object with a "rows" array of one-line objects — so no JSON library is
// needed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/text.h"

namespace {

struct Row {
  std::string model;
  std::string system;
  std::string metric;
  double x = 0.0;
  double value = 0.0;
};

// Extracts the string value of `"key": "..."` within `object`, or "".
std::string StringField(const std::string& object, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const size_t at = object.find(needle);
  if (at == std::string::npos) {
    return "";
  }
  const size_t start = at + needle.size();
  const size_t end = object.find('"', start);
  return end == std::string::npos ? "" : object.substr(start, end - start);
}

// Extracts the numeric value of `"key": N` within `object`: the text up to
// the next ',' or '}' must parse whole as a number.
bool NumberField(const std::string& object, const std::string& key, double* out) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = object.find(needle);
  if (at == std::string::npos) {
    return false;
  }
  const size_t start = at + needle.size();
  const size_t end = object.find_first_of(",}", start);
  if (end == std::string::npos) {
    return false;
  }
  return adaserve::ParseNumber(std::string_view(object).substr(start, end - start), out);
}

bool ParseRows(const std::string& path, std::vector<Row>* rows) {
  std::string text;
  std::string error;
  if (!adaserve::ReadTextFile(path, &text, &error)) {
    std::cerr << "perf_diff: " << error << "\n";
    return false;
  }
  const size_t rows_at = text.find("\"rows\"");
  if (rows_at == std::string::npos) {
    std::cerr << "perf_diff: no \"rows\" array in " << path << "\n";
    return false;
  }
  // Each row object is brace-delimited and contains no nested braces.
  size_t pos = text.find('{', rows_at);
  while (pos != std::string::npos) {
    const size_t end = text.find('}', pos);
    if (end == std::string::npos) {
      break;
    }
    const std::string object = text.substr(pos, end - pos + 1);
    Row row;
    row.model = StringField(object, "model");
    row.system = StringField(object, "system");
    row.metric = StringField(object, "metric");
    if (!row.metric.empty() && NumberField(object, "x", &row.x) &&
        NumberField(object, "value", &row.value)) {
      rows->push_back(row);
    }
    pos = text.find('{', end);
  }
  return true;
}

std::string RowKey(const Row& row) {
  return row.model + " / " + row.system + " / " + row.metric +
         " @ x=" + adaserve::FormatFixed(row.x, 6);
}

const Row* FindMatch(const std::vector<Row>& rows, const Row& want) {
  for (const Row& row : rows) {
    if (row.model == want.model && row.system == want.system && row.metric == want.metric &&
        std::fabs(row.x - want.x) < 1e-9) {
      return &row;
    }
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  double rel_tol = 0.05;
  double abs_tol = 2.0;
  double time_rel_tol = 1.0;
  double time_abs_tol = 5.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    double* tol = arg == "--rel_tol"        ? &rel_tol
                  : arg == "--abs_tol"      ? &abs_tol
                  : arg == "--time_rel_tol" ? &time_rel_tol
                  : arg == "--time_abs_tol" ? &time_abs_tol
                                            : nullptr;
    if (tol != nullptr && i + 1 < argc) {
      if (!adaserve::ParseNumber(std::string_view(argv[++i]), tol)) {
        std::cerr << "perf_diff: bad number for " << arg << ": '" << argv[i] << "'\n";
        return 2;
      }
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::cerr << "usage: perf_diff <baseline.json> <candidate.json>"
              << " [--rel_tol 0.05] [--abs_tol 2.0]"
              << " [--time_rel_tol 1.0] [--time_abs_tol 5.0]\n";
    return 2;
  }
  std::vector<Row> baseline;
  std::vector<Row> candidate;
  if (!ParseRows(paths[0], &baseline) || !ParseRows(paths[1], &candidate)) {
    return 2;
  }
  if (baseline.empty()) {
    std::cerr << "perf_diff: baseline " << paths[0] << " has no rows\n";
    return 2;
  }

  int regressions = 0;
  int improvements = 0;
  for (const Row& base : baseline) {
    const Row* cand = FindMatch(candidate, base);
    if (cand == nullptr) {
      std::cout << "MISSING    " << RowKey(base) << " (present in baseline only)\n";
      ++regressions;
      continue;
    }
    // Wall-clock rows are lower-is-better and noisy, so they flip the
    // sign AND use the loose time tolerances. recovery_s (flash-crowd
    // recovery time to SLO) and the *_ms latencies are lower-is-better
    // too, but deterministic — flipped sign, strict tolerances.
    const bool is_time = base.metric == "wall_clock_s";
    const bool lower_is_better = is_time || base.metric == "recovery_s" ||
                                 std::string_view(base.metric).ends_with("_ms");
    const double slack = is_time
                             ? std::max(time_abs_tol, time_rel_tol * std::fabs(base.value))
                             : std::max(abs_tol, rel_tol * std::fabs(base.value));
    const double delta = (cand->value - base.value) * (lower_is_better ? -1.0 : 1.0);
    if (delta < -slack) {
      std::printf("REGRESSION %s: %.3f -> %.3f (%.3f %s tolerance %.3f)\n",
                  RowKey(base).c_str(), base.value, cand->value, -delta,
                  is_time ? "slower than" : (lower_is_better ? "worse than" : "below"), slack);
      ++regressions;
    } else if (delta > slack) {
      ++improvements;
    }
  }
  std::printf("perf_diff: %zu rows, %d regressions, %d improvements beyond tolerance"
              " (rel_tol %.3f, abs_tol %.3f, time_rel_tol %.3f, time_abs_tol %.3f)\n",
              baseline.size(), regressions, improvements, rel_tol, abs_tol, time_rel_tol,
              time_abs_tol);
  if (improvements > 0 && regressions == 0) {
    std::cout << "note: consistent improvements — consider refreshing bench/baselines/ "
                 "(run the bench with --smoke --threads 4 --json and commit the output)\n";
  }
  return regressions > 0 ? 1 : 0;
}
