// The reproduction's benchmark: serves one named workload with AdaServe,
// vLLM-Spec(4), vLLM and Sarathi-Serve, checks the outputs, and prints
// every metric by name and unit, then one JSON result line.
//
//   slobench --workload <steady|flash_crowd|long_prompt> --seed <n>
//            --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics: every system serves each of the
// workload's episodes untraced. --trace 1 reports the per-layer metrics:
// episode 0 is served untraced and again with a trace sink and a timed
// arrival stream, the two runs must agree byte for byte, and the model,
// speculation and selection functions are timed directly on contexts taken
// from the traced run's finished requests. See NOTES.md for the metric
// definitions and why each workload was chosen.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_math.h"
#include "calibration.h"
#include "src/core/selection.h"
#include "src/core/slo_accounting.h"
#include "src/harness/comparisons.h"
#include "src/harness/experiment.h"
#include "src/harness/golden.h"
#include "src/hw/budget.h"
#include "src/spec/beam_search.h"
#include "src/spec/verifier.h"
#include "src/workload/scenarios.h"

namespace slobench {
namespace {

using adaserve::ArrivalStream;
using adaserve::EngineConfig;
using adaserve::EngineResult;
using adaserve::Experiment;
using adaserve::Metrics;
using adaserve::Request;
using adaserve::RequestState;
using adaserve::Samples;
using adaserve::Setup;
using adaserve::SystemKind;
using adaserve::Token;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// --- workloads ---------------------------------------------------------------

// Simulated length of one episode. A run serves several independent
// episodes and pools their requests.
constexpr double kEpisodeSeconds = 600.0;

using StreamMaker = std::unique_ptr<ArrivalStream> (*)(const Experiment&, uint64_t trace_seed,
                                                       uint64_t sampling_seed);

struct Workload {
  const char* name;
  Setup (*setup)();
  // Episodes served per --trace 0 run.
  int episodes;
  StreamMaker make_stream;
};

std::unique_ptr<ArrivalStream> SteadyStream(const Experiment& exp, uint64_t trace_seed,
                                            uint64_t sampling_seed) {
  adaserve::WorkloadConfig mix;
  mix.mix = {0.6, 0.2, 0.2};
  mix.seed = sampling_seed;
  return exp.RealTraceStream(kEpisodeSeconds, 3.0, mix, trace_seed);
}

std::unique_ptr<ArrivalStream> FlashCrowdStream(const Experiment& exp, uint64_t trace_seed,
                                                uint64_t sampling_seed) {
  adaserve::FlashCrowdSpec spec = adaserve::DefaultFlashCrowd(kEpisodeSeconds, trace_seed);
  spec.sampling_seed = sampling_seed;
  return adaserve::MakeFlashCrowdStream(exp.Categories(), spec);
}

std::unique_ptr<ArrivalStream> LongPromptStream(const Experiment& exp, uint64_t trace_seed,
                                                uint64_t sampling_seed) {
  adaserve::LongPromptPoisonSpec spec =
      adaserve::DefaultLongPromptPoison(kEpisodeSeconds, trace_seed);
  // The default 0.4 rps of poison prompts drives AdaServe's urgent
  // attainment to 0-2%, too close to zero to gate; 0.1 rps keeps prompts
  // 6x the usual length in the mix without collapsing it (NOTES.md).
  spec.poison_rps = 0.1;
  spec.sampling_seed = sampling_seed;
  return adaserve::MakeLongPromptPoisonStream(exp.Categories(), spec);
}

constexpr Workload kWorkloads[] = {
    {"steady", adaserve::LlamaSetup, 3, SteadyStream},
    {"flash_crowd", adaserve::QwenSetup, 3, FlashCrowdStream},
    {"long_prompt", adaserve::QwenSetup, 4, LongPromptStream},
};

// Episode 0 draws its arrivals from --seed itself; later episodes from
// seeds derived from it. Lengths and categories come from the repo-wide
// default sampling seed 7, one further seed per episode.
uint64_t EpisodeTraceSeed(uint64_t seed, int episode) {
  return seed + 1000003ULL * static_cast<uint64_t>(episode);
}
uint64_t EpisodeSamplingSeed(int episode) { return 7 + static_cast<uint64_t>(episode); }

// --- systems -----------------------------------------------------------------

struct System {
  SystemKind kind;
  const char* key;
};

// AdaServe first; the rest are the baselines it is scored against.
constexpr System kSystems[] = {
    {SystemKind::kAdaServe, "adaserve"},
    {SystemKind::kVllmSpec4, "vllm_spec4"},
    {SystemKind::kVllm, "vllm"},
    {SystemKind::kSarathi, "sarathi"},
};
constexpr size_t kNumSystems = std::size(kSystems);
constexpr size_t kAdaServe = 0;
constexpr size_t kVllmSpec4 = 1;

// --- observers -----------------------------------------------------------------

// Arrival-stream decorator timing every call into the workload layer.
class TimedStream final : public ArrivalStream {
 public:
  explicit TimedStream(std::unique_ptr<ArrivalStream> inner) : inner_(std::move(inner)) {}

  bool Exhausted() override {
    const auto t0 = Clock::now();
    const bool done = inner_->Exhausted();
    busy_s_ += Seconds(t0, Clock::now());
    return done;
  }
  const Request* Peek() override {
    const auto t0 = Clock::now();
    const Request* next = inner_->Peek();
    busy_s_ += Seconds(t0, Clock::now());
    return next;
  }
  Request Next() override {
    const auto t0 = Clock::now();
    Request next = inner_->Next();
    busy_s_ += Seconds(t0, Clock::now());
    return next;
  }
  size_t emitted() const override { return inner_->emitted(); }

  double busy_s() const { return busy_s_; }

 private:
  std::unique_ptr<ArrivalStream> inner_;
  double busy_s_ = 0.0;
};

// Trace sink aggregating the serve layer's per-tick counters and the host
// time between successive ticks.
class TickStats final : public adaserve::TickTraceSink {
 public:
  void OnArrival(const Request&) override { ++arrivals_; }

  void OnTick(const adaserve::TickTraceEvent& event) override {
    const auto now = Clock::now();
    if (ticks_ > 0) {
      host_between_ticks_s_ += Seconds(last_tick_, now);
    }
    last_tick_ = now;
    ++ticks_;
    const adaserve::IterationRecord& r = event.record;
    queue_.OnTick(event.arrivals_pulled, r.admitted, r.evicted, r.paused, r.rejected);
    pulled_ += event.arrivals_pulled;
    admitted_ += r.admitted;
    evicted_ += r.evicted;
    decode_requests_ += r.decode_requests;
    prefill_tokens_ += r.prefill_tokens;
  }

  long arrivals() const { return arrivals_; }
  long ticks() const { return ticks_; }
  long pulled() const { return pulled_; }
  long admitted() const { return admitted_; }
  long evicted() const { return evicted_; }
  const QueueDepth& queue() const { return queue_; }
  double HostUsPerTick() const {
    return ticks_ > 1 ? 1e6 * host_between_ticks_s_ / static_cast<double>(ticks_ - 1) : 0.0;
  }
  double DecodeBatchMean() const { return PerTick(decode_requests_); }
  double PrefillTokensPerTick() const { return PerTick(prefill_tokens_); }

 private:
  double PerTick(long total) const {
    return ticks_ == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(ticks_);
  }

  long arrivals_ = 0;
  long ticks_ = 0;
  long pulled_ = 0;
  long admitted_ = 0;
  long evicted_ = 0;
  long decode_requests_ = 0;
  long prefill_tokens_ = 0;
  QueueDepth queue_;
  Clock::time_point last_tick_;
  double host_between_ticks_s_ = 0.0;
};

// --- one serving run ---------------------------------------------------------

struct Outcome {
  EngineResult result;
  SentCounts all;
  SentCounts urgent;
  // Wall-clock seconds of Experiment::Run.
  double host_s = 0.0;
  std::string golden;
};

Outcome Serve(const Experiment& exp, SystemKind kind, ArrivalStream& stream,
              adaserve::TickTraceSink* sink) {
  auto scheduler = adaserve::MakeScheduler(kind);
  EngineConfig config;
  config.trace_sink = sink;
  Outcome out;
  const auto t0 = Clock::now();
  out.result = exp.Run(*scheduler, stream, config);
  out.host_s = Seconds(t0, Clock::now());

  const Metrics& m = out.result.metrics;
  std::vector<SentCounts> per_category(adaserve::kNumCategories);
  for (const Request& req : out.result.requests) {
    SentCounts& c = per_category.at(static_cast<size_t>(req.category));
    ++c.sent;
    c.finished += req.state == RequestState::kFinished ? 1 : 0;
    c.rejected += req.state == RequestState::kRejected ? 1 : 0;
  }
  for (size_t c = 0; c < per_category.size(); ++c) {
    per_category[c].attained = m.per_category[c].attained;
    out.all += per_category[c];
  }
  // Sent is what the stream emitted, so a request the engine lost counts
  // as unfinished.
  out.all.sent = static_cast<long>(stream.emitted());
  out.urgent = per_category[adaserve::kCatCoding];
  out.golden = adaserve::GoldenMetricsText(kind, m);
  return out;
}

// --- output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void Expect(bool ok, const std::string& why) {
    if (!ok) {
      std::printf("CHECK FAILED: %s\n", why.c_str());
      correct_ = false;
    }
  }
  void CountRun(const SentCounts& c) {
    attempted_ += c.sent;
    failed_ += c.Unfinished();
  }

  // Prints every metric by name and unit, then the JSON result line.
  int Print() {
    for (const Metric& m : metrics_) {
      Expect(std::isfinite(m.value), m.name + " is not finite");
    }
    Expect(failed_ == 0, std::to_string(failed_) + " requests neither finished nor rejected");
    std::printf("requests sent %ld, neither finished nor rejected %ld (failed_pct %s)\n",
                attempted_, failed_,
                FormatNumber(attempted_ > 0 ? 100.0 * static_cast<double>(failed_) /
                                                  static_cast<double>(attempted_)
                                            : 0.0)
                    .c_str());
    for (const Metric& m : metrics_) {
      std::printf("%-40s %16s %s\n", m.name.c_str(), FormatNumber(m.value).c_str(),
                  m.unit.c_str());
    }
    std::string json = "{\"correct\": " + std::string(correct_ ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted_) +
                       ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      json += (i == 0 ? "" : ", ") + ("\"" + m.name + "\": {\"value\": ") +
              (std::isfinite(m.value) ? FormatNumber(m.value) : "0") + ", \"unit\": \"" + m.unit +
              "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct_ ? EXIT_SUCCESS : EXIT_FAILURE;
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
  long attempted_ = 0;
  long failed_ = 0;
};

std::vector<double> BaselineValues(const std::vector<double>& per_system) {
  return std::vector<double>(per_system.begin() + 1, per_system.end());
}

double GoodputTps(long attained_tokens, double makespan) {
  return makespan > 0.0 ? static_cast<double>(attained_tokens) / makespan : 0.0;
}

// --- --trace 0: end-to-end metrics ----------------------------------------------

// Seconds to build the Experiment, the schedulers and the streams of one
// run, and to tear them down again.
double SetupSeconds(const Workload& wl, uint64_t seed) {
  const auto t0 = Clock::now();
  {
    Experiment exp(wl.setup());
    for (int e = 0; e < wl.episodes; ++e) {
      for (const System& sys : kSystems) {
        auto scheduler = adaserve::MakeScheduler(sys.kind);
        auto stream = wl.make_stream(exp, EpisodeTraceSeed(seed, e), EpisodeSamplingSeed(e));
      }
    }
  }
  return Seconds(t0, Clock::now());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

int RunEndToEnd(const Workload& wl, uint64_t seed, double seconds) {
  Report report;
  const Experiment exp(wl.setup());
  const size_t episodes = static_cast<size_t>(wl.episodes);

  // host[sys][episode]: one sample per serving of the episode.
  std::vector<std::vector<std::vector<double>>> host(
      kNumSystems, std::vector<std::vector<double>>(episodes));
  std::vector<std::vector<std::string>> golden(kNumSystems, std::vector<std::string>(episodes));
  std::vector<double> episode_cost_s(episodes, 0.0);
  // Simulated metrics, pooled over the episodes.
  std::vector<SentCounts> all(kNumSystems);
  std::vector<SentCounts> urgent(kNumSystems);
  std::vector<long> attained_tokens(kNumSystems, 0);
  std::vector<double> makespan(kNumSystems, 0.0);

  // Calibration kernel samples, one before every serving and one at the
  // end, and set-up samples spread over the run the same way.
  std::vector<double> kernel_s;
  std::vector<double> setup_s;
  auto sample_machine = [&] {
    kernel_s.push_back(CalibrationKernelSeconds());
    for (int rep = 0; rep < 3; ++rep) setup_s.push_back(SetupSeconds(wl, seed));
  };

  auto serve_episode = [&](size_t e) {
    const bool first = host[kAdaServe][e].empty();
    for (size_t s = 0; s < kNumSystems; ++s) {
      sample_machine();
      const int episode = static_cast<int>(e);
      auto stream = wl.make_stream(exp, EpisodeTraceSeed(seed, episode),
                                   EpisodeSamplingSeed(episode));
      const Outcome out = Serve(exp, kSystems[s].kind, *stream, nullptr);
      host[s][e].push_back(out.host_s);
      if (!first) {
        report.Expect(out.golden == golden[s][e],
                      std::string(kSystems[s].key) + ": a repeated run changed its metrics");
        continue;
      }
      golden[s][e] = out.golden;
      episode_cost_s[e] += out.host_s;
      report.CountRun(out.all);
      all[s] += out.all;
      urgent[s] += out.urgent;
      attained_tokens[s] += out.result.metrics.attained_tokens();
      makespan[s] += out.result.metrics.makespan;
    }
  };
  const auto window_start = Clock::now();
  for (size_t e = 0; e < episodes; ++e) {
    serve_episode(e);
  }
  // Spend what is left of the window serving episodes again: more host-time
  // samples per episode, and a determinism check on every repeat.
  for (size_t e = 0; Seconds(window_start, Clock::now()) + episode_cost_s[e] <= seconds;
       e = (e + 1) % episodes) {
    serve_episode(e);
  }

  sample_machine();
  // Host times in seconds at the reference machine's speed (calibration.h).
  double kernel_mean_s = 0.0;
  for (double k : kernel_s) kernel_mean_s += k / static_cast<double>(kernel_s.size());
  const double speed = kKernelNominalSeconds / kernel_mean_s;

  std::vector<double> host_s(kNumSystems, 0.0);
  std::vector<double> attainment(kNumSystems);
  for (size_t s = 0; s < kNumSystems; ++s) {
    for (size_t e = 0; e < episodes; ++e) {
      host_s[s] += Median(host[s][e]) * speed;
    }
    attainment[s] = AttainmentOverSentPct(all[s]);
  }
  const std::vector<double> baselines = BaselineValues(attainment);

  std::printf("workload %s, seed %llu: %zu episodes of %.0f s, %zu servings in %.1f s\n",
              wl.name, static_cast<unsigned long long>(seed), episodes, kEpisodeSeconds,
              kernel_s.size() - 1, Seconds(window_start, Clock::now()));
  std::printf("calibration kernel: mean %.4f s over %zu samples, speed factor %.4f\n",
              kernel_mean_s, kernel_s.size(), speed);
  std::printf("%-12s %7s %9s %11s %11s %12s %8s\n", "system", "sent", "finished", "attain_pct",
              "urgent_pct", "goodput_tps", "host_s");
  for (size_t s = 0; s < kNumSystems; ++s) {
    std::printf("%-12s %7ld %9ld %11.2f %11.2f %12.2f %8.3f\n", kSystems[s].key, all[s].sent,
                all[s].finished, attainment[s], AttainmentOverSentPct(urgent[s]),
                GoodputTps(attained_tokens[s], makespan[s]), host_s[s]);
  }
  std::printf("margin_pct.adaserve %s points (AdaServe minus the best baseline)\n",
              FormatNumber(MarginPts(attainment[kAdaServe], baselines)).c_str());

  double baselines_host_s = 0.0;
  for (size_t s = 1; s < kNumSystems; ++s) baselines_host_s += host_s[s];
  report.Add("setup_s", Median(setup_s) * speed, "s");
  report.Add("host_s.adaserve", host_s[kAdaServe], "s");
  report.Add("host_s.baselines", baselines_host_s, "s");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("attainment_pct.adaserve", attainment[kAdaServe], "%");
  report.Add("urgent_attainment_pct.adaserve", AttainmentOverSentPct(urgent[kAdaServe]), "%");
  report.Add("goodput_tps.adaserve", GoodputTps(attained_tokens[kAdaServe], makespan[kAdaServe]),
             "tok/s");
  report.Add("attainment_vs_best_pct.adaserve", RatioToBestPct(attainment[kAdaServe], baselines),
             "%");
  return report.Print();
}

// --- --trace 1: per-layer metrics -----------------------------------------------

// Mean host microseconds of one call, median over repeated passes. `pass`
// makes `calls` calls and returns a checksum of their results.
template <typename Pass>
double MicrosPerCall(size_t calls, uint64_t* checksum, Pass&& pass) {
  constexpr int kPasses = 7;
  std::vector<double> per_call;
  for (int p = 0; p < kPasses; ++p) {
    const auto t0 = Clock::now();
    *checksum += pass();
    per_call.push_back(1e6 * Seconds(t0, Clock::now()) / static_cast<double>(calls));
  }
  return Median(per_call);
}

struct Context {
  const Request* req;
  std::span<const Token> committed;
};

// Up to `max_contexts` contexts from finished requests, spread evenly over
// the run: a request's stream seed plus a prefix of its committed output.
std::vector<Context> SampleContexts(const std::vector<Request>& requests, size_t max_contexts) {
  std::vector<const Request*> eligible;
  for (const Request& req : requests) {
    if (req.state == RequestState::kFinished && req.output.size() >= 2) {
      eligible.push_back(&req);
    }
  }
  std::vector<Context> contexts;
  const size_t step = std::max<size_t>(1, eligible.size() / max_contexts);
  for (size_t i = 0; i < eligible.size() && contexts.size() < max_contexts; i += step) {
    const Request* req = eligible[i];
    const size_t len = 1 + static_cast<size_t>(req->id) % (req->output.size() - 1);
    contexts.push_back({req, std::span<const Token>(req->output.data(), len)});
  }
  return contexts;
}

// Times the model, speculation and selection layers' public functions on
// contexts from AdaServe's traced run.
void TimeLayerFunctions(const Experiment& exp, const Outcome& adaserve, const TickStats& stats,
                        Report& report) {
  const std::vector<Context> contexts = SampleContexts(adaserve.result.requests, 256);
  report.Expect(!contexts.empty(), "no finished AdaServe request to take contexts from");
  if (contexts.empty()) return;
  const size_t n = contexts.size();
  uint64_t checksum = 0;

  report.Add("model.target_next_dist_us", MicrosPerCall(n, &checksum, [&] {
               uint64_t sum = 0;
               for (const Context& c : contexts) {
                 sum += exp.target().NextDist(c.req->stream_seed, c.committed).size();
               }
               return sum;
             }),
             "us");
  report.Add("model.draft_next_dist_us", MicrosPerCall(n, &checksum, [&] {
               uint64_t sum = 0;
               for (const Context& c : contexts) {
                 sum += exp.draft().NextDist(c.req->stream_seed, c.committed).size();
               }
               return sum;
             }),
             "us");

  // FromWeights on the union of the target and draft supports, duplicates
  // included: the shape a mixture hands it.
  std::vector<std::vector<Token>> tokens(n);
  std::vector<std::vector<double>> weights(n);
  for (size_t i = 0; i < n; ++i) {
    for (const auto& dist : {exp.target().NextDist(contexts[i].req->stream_seed,
                                                   contexts[i].committed),
                             exp.draft().NextDist(contexts[i].req->stream_seed,
                                                  contexts[i].committed)}) {
      for (const auto& entry : dist.entries()) {
        tokens[i].push_back(entry.token);
        weights[i].push_back(entry.prob);
      }
    }
  }
  report.Add("model.from_weights_us", MicrosPerCall(n, &checksum, [&] {
               uint64_t sum = 0;
               for (size_t i = 0; i < n; ++i) {
                 sum += adaserve::SparseDist::FromWeights(tokens[i], weights[i]).size();
               }
               return sum;
             }),
             "us");

  const adaserve::BeamConfig beam;
  std::vector<adaserve::TokenTree> trees;
  trees.reserve(n);
  report.Add("spec.build_tree_us", MicrosPerCall(n, &checksum, [&] {
               trees.clear();
               uint64_t sum = 0;
               for (const Context& c : contexts) {
                 trees.push_back(adaserve::BuildCandidateTree(exp.draft(), c.req->stream_seed,
                                                              c.committed, beam));
                 sum += static_cast<uint64_t>(trees.back().size());
               }
               return sum;
             }),
             "us");
  report.Add("spec.verify_tree_us", MicrosPerCall(n, &checksum, [&] {
               adaserve::Rng rng(1234);
               uint64_t sum = 0;
               for (size_t i = 0; i < n; ++i) {
                 sum += static_cast<uint64_t>(
                     adaserve::VerifyTree(exp.target(), contexts[i].req->stream_seed,
                                          contexts[i].committed, trees[i], {},
                                          adaserve::DecodeMode::kStochastic, rng)
                         .TokensCommitted());
               }
               return sum;
             }),
             "us");

  // SelectTokens over batches the size of AdaServe's mean decode batch,
  // with each request's SLO requirement at its finish.
  const size_t batch = std::clamp<size_t>(
      static_cast<size_t>(std::lround(stats.DecodeBatchMean())), 1, n);
  const Metrics& m = adaserve.result.metrics;
  const double t_spec = m.total_time / static_cast<double>(std::max<long>(1, stats.ticks()));
  std::vector<adaserve::SelectionRequest> selection(n);
  for (size_t i = 0; i < n; ++i) {
    const Request& req = *contexts[i].req;
    selection[i].tree = &trees[i];
    selection[i].a_cap = adaserve::CapRequirement(
        adaserve::MinAcceptedForSlo(req, req.finish_time, t_spec), beam.depth);
  }
  const int budget = std::max(
      1, adaserve::DeriveTokenBudget(exp.target_latency()) - static_cast<int>(batch));
  const size_t batches = n / batch;
  report.Add("core.select_tokens_us", MicrosPerCall(batches, &checksum, [&] {
               uint64_t sum = 0;
               for (size_t b = 0; b < batches; ++b) {
                 const std::span<const adaserve::SelectionRequest> reqs(
                     selection.data() + b * batch, batch);
                 sum += static_cast<uint64_t>(adaserve::SelectTokens(reqs, budget).total_taken);
               }
               return sum;
             }),
             "us");
  std::printf("layer timings: %zu contexts, selection batch %zu, budget %d, checksum %llu\n", n,
              batch, budget, static_cast<unsigned long long>(checksum));
}

Samples MergedSamples(const Metrics& m, Samples adaserve::CategoryMetrics::*field) {
  Samples merged;
  for (const auto& cat : m.per_category) merged.Append(cat.*field);
  merged.MaterializeSorted();
  return merged;
}

double Share(double part, double total) { return total > 0.0 ? 100.0 * part / total : 0.0; }

int RunPerLayer(const Workload& wl, uint64_t seed) {
  Report report;
  const Experiment exp(wl.setup());
  const uint64_t trace_seed = EpisodeTraceSeed(seed, 0);
  const uint64_t sampling_seed = EpisodeSamplingSeed(0);

  std::vector<Outcome> traced(kNumSystems);
  std::vector<TickStats> stats(kNumSystems);
  std::vector<double> overhead_s(kNumSystems);
  long stream_requests = 0;
  double stream_busy_s = 0.0;
  for (size_t s = 0; s < kNumSystems; ++s) {
    const std::string key = kSystems[s].key;
    auto plain_stream = wl.make_stream(exp, trace_seed, sampling_seed);
    const Outcome plain = Serve(exp, kSystems[s].kind, *plain_stream, nullptr);
    TimedStream timed(wl.make_stream(exp, trace_seed, sampling_seed));
    traced[s] = Serve(exp, kSystems[s].kind, timed, &stats[s]);
    overhead_s[s] = traced[s].host_s - plain.host_s;
    stream_requests += static_cast<long>(timed.emitted());
    stream_busy_s += timed.busy_s();
    report.CountRun(plain.all);
    report.CountRun(traced[s].all);

    // The observers must change nothing, and the sink's counters must
    // account for every request the stream sent.
    report.Expect(plain.golden == traced[s].golden, key + ": traced and untraced metrics differ");
    const Metrics& m = traced[s].result.metrics;
    const TickStats& st = stats[s];
    report.Expect(st.arrivals() == traced[s].all.sent && st.pulled() == traced[s].all.sent,
                  key + ": sink saw " + std::to_string(st.pulled()) + " arrivals of " +
                      std::to_string(traced[s].all.sent) + " sent");
    report.Expect(st.queue().depth() == 0,
                  key + ": derived queue depth ends at " + std::to_string(st.queue().depth()));
    report.Expect(st.admitted() == m.admissions && st.evicted() == m.evictions,
                  key + ": sink admissions/evictions disagree with Metrics");
  }

  std::vector<double> attainment(kNumSystems);
  for (size_t s = 0; s < kNumSystems; ++s) attainment[s] = AttainmentOverSentPct(traced[s].all);

  for (size_t s = 0; s < kNumSystems; ++s) {
    const std::string key = kSystems[s].key;
    const Metrics& m = traced[s].result.metrics;
    const TickStats& st = stats[s];
    const Samples ttft = MergedSamples(m, &adaserve::CategoryMetrics::ttft_ms);
    report.Add("serve.ticks." + key, static_cast<double>(st.ticks()), "count");
    report.Add("serve.host_us_per_tick." + key, st.HostUsPerTick(), "us");
    report.Add("serve.queue_depth_mean." + key, st.queue().Mean(), "requests");
    report.Add("serve.decode_batch_mean." + key, st.DecodeBatchMean(), "requests");
    report.Add("serve.prefill_tokens_per_tick." + key, st.PrefillTokensPerTick(), "tokens");
    report.Add("serve.prefill_gpu_share." + key, Share(m.prefill_time, m.total_time), "%");
    report.Add("serve.admissions." + key, static_cast<double>(m.admissions), "count");
    report.Add("serve.evictions." + key, static_cast<double>(m.evictions), "count");
    report.Add("serve.ttft_p50_ms." + key, ttft.Percentile(50.0), "ms");
    report.Add("serve.ttft_p99_ms." + key, ttft.Percentile(99.0), "ms");
    report.Add("serve.ttft_samples." + key, static_cast<double>(ttft.count()), "count");
  }

  // Per episode: the four timed streams each sent the same requests.
  report.Add("workload.requests_sent", static_cast<double>(traced[kAdaServe].all.sent), "count");
  report.Add("workload.host_us_per_request",
             stream_requests > 0 ? 1e6 * stream_busy_s / static_cast<double>(stream_requests) : 0.0,
             "us");

  const Metrics& ada = traced[kAdaServe].result.metrics;
  report.Add("core.spec_gpu_share", Share(ada.spec_time, ada.total_time), "%");
  report.Add("core.select_gpu_share", Share(ada.select_time, ada.total_time), "%");
  report.Add("core.verify_gpu_share", Share(ada.verify_time, ada.total_time), "%");
  const Samples tpot = MergedSamples(ada, &adaserve::CategoryMetrics::tpot_ms);
  report.Add("core.tpot_p50_ms", tpot.Percentile(50.0), "ms");
  report.Add("core.tpot_p99_ms", tpot.Percentile(99.0), "ms");
  report.Add("core.tpot_samples", static_cast<double>(tpot.count()), "count");

  for (size_t s : {kAdaServe, kVllmSpec4}) {
    long verifications = 0, accepted = 0, verified = 0;
    for (const Request& req : traced[s].result.requests) {
      verifications += req.verifications;
      accepted += req.accepted_tokens;
      verified += req.verified_tokens;
    }
    const std::string key = kSystems[s].key;
    report.Add("spec.accepted_per_verify." + key,
               verifications > 0 ? static_cast<double>(accepted) / verifications : 0.0,
               "tokens");
    report.Add("spec.commit_per_verified." + key,
               verified > 0 ? static_cast<double>(accepted + verifications) / verified : 0.0,
               "ratio");
  }

  TimeLayerFunctions(exp, traced[kAdaServe], stats[kAdaServe], report);

  for (size_t s = 1; s < kNumSystems; ++s) {
    const std::string key = kSystems[s].key;
    report.Add("baselines.attainment_pct." + key, attainment[s], "%");
    report.Add("baselines.goodput_tps." + key, traced[s].result.metrics.GoodputTps(), "tok/s");
  }
  report.Add("baselines.margin_pct.adaserve",
             MarginPts(attainment[kAdaServe], BaselineValues(attainment)), "points");

  double baselines_overhead_s = 0.0;
  for (size_t s = 1; s < kNumSystems; ++s) baselines_overhead_s += overhead_s[s];
  report.Add("trace.overhead_s.adaserve", overhead_s[kAdaServe], "s");
  report.Add("trace.overhead_s.baselines", baselines_overhead_s, "s");

  std::printf("workload %s, seed %llu, episode 0 traced\n", wl.name,
              static_cast<unsigned long long>(seed));
  return report.Print();
}

// --- command line ------------------------------------------------------------------

int Usage(const char* why) {
  std::fprintf(stderr,
               "slobench: %s\nusage: slobench --workload <steady|flash_crowd|long_prompt> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

bool ParseU64(const char* text, uint64_t* out) {
  const char* end = text + std::strlen(text);
  const auto res = std::from_chars(text, end, *out);
  return res.ec == std::errc() && res.ptr == end;
}

int Main(int argc, char** argv) {
  const Workload* wl = nullptr;
  uint64_t seed = 42;
  uint64_t seconds = 30;
  uint64_t trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) wl = &w;
      }
      if (wl == nullptr) return Usage("unknown workload");
    } else if (flag == "--seed") {
      if (!ParseU64(value, &seed)) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!ParseU64(value, &seconds) || seconds == 0) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (!ParseU64(value, &trace) || trace > 1) return Usage("bad --trace");
    } else {
      return Usage("unknown flag");
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (wl == nullptr) return Usage("--workload is required");
  return trace == 1 ? RunPerLayer(*wl, seed)
                    : RunEndToEnd(*wl, seed, static_cast<double>(seconds));
}

}  // namespace
}  // namespace slobench

int main(int argc, char** argv) { return slobench::Main(argc, argv); }
