#include "calibration.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace slobench {
namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Keeps the kernel's result observable so the compiler cannot drop it.
volatile double g_sink = 0.0;

}  // namespace

double CalibrationKernelSeconds() {
  constexpr uint64_t kDists = 30000;
  constexpr int kDraws = 48;
  constexpr int kVocab = 40;
  const auto start = std::chrono::steady_clock::now();
  double acc = 0.0;
  for (uint64_t d = 0; d < kDists; ++d) {
    std::vector<std::pair<int, double>> entries;
    for (int j = 0; j < kDraws; ++j) {
      const uint64_t h = SplitMix(d * kDraws + static_cast<uint64_t>(j));
      const int token = static_cast<int>(h % kVocab);
      const double weight = std::pow(1.0 + static_cast<double>((h >> 40) % 24), -3.0);
      auto it = std::find_if(entries.begin(), entries.end(),
                             [token](const auto& e) { return e.first == token; });
      if (it != entries.end()) {
        it->second += weight;
      } else {
        entries.emplace_back(token, weight);
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    double total = 0.0;
    for (const auto& e : entries) total += e.second;
    acc += entries.front().second / total;
  }
  g_sink = acc;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace slobench
