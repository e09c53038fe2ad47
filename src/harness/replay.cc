#include "src/harness/replay.h"

#include <array>
#include <concepts>
#include <sstream>
#include <type_traits>
#include <utility>

#include "src/common/logging.h"
#include "src/common/text.h"

namespace adaserve {
namespace {

// An arrival line ("a ...") and a tick line ("t ...") hold one column per
// field ForEachColumn visits, in that order. The writer, the parser and
// DiffTick all walk these, so a column is named and ordered in one place.
constexpr std::array<const char*, 7> kArrivalColumns = {
    "id", "category", "tpot_slo", "arrival time", "prompt_len", "target_output_len",
    "stream_seed"};

constexpr std::array<const char*, 15> kTickColumns = {
    "index",
    "start",
    "record.duration",
    "record.spec_time",
    "record.select_time",
    "record.verify_time",
    "record.prefill_time",
    "record.prefill_tokens",
    "record.decode_requests",
    "record.verified_tokens",
    "record.committed_tokens",
    "record.admitted",
    "record.evicted",
    "record.paused",
    "arrivals_pulled"};

const auto& ColumnNames(const Request&) { return kArrivalColumns; }
const auto& ColumnNames(const TickTraceEvent&) { return kTickColumns; }

template <typename Arrival, typename Fn>
  requires std::same_as<std::remove_const_t<Arrival>, Request>
bool ForEachColumn(Arrival& a, Fn&& fn) {
  return fn(a.id) && fn(a.category) && fn(a.tpot_slo) && fn(a.arrival) && fn(a.prompt_len) &&
         fn(a.target_output_len) && fn(a.stream_seed);
}

template <typename Tick, typename Fn>
  requires std::same_as<std::remove_const_t<Tick>, TickTraceEvent>
bool ForEachColumn(Tick& t, Fn&& fn) {
  auto& r = t.record;
  return fn(t.index) && fn(t.start) && fn(r.duration) && fn(r.spec_time) && fn(r.select_time) &&
         fn(r.verify_time) && fn(r.prefill_time) && fn(r.prefill_tokens) &&
         fn(r.decode_requests) && fn(r.verified_tokens) && fn(r.committed_tokens) &&
         fn(r.admitted) && fn(r.evicted) && fn(r.paused) && fn(t.arrivals_pulled);
}

// Doubles are written exactly, so Serialize(Parse(x)) == x and equal
// column text means equal values.
std::string ColumnText(double v) { return FormatExact(v); }
template <typename Integer>
std::string ColumnText(Integer v) {
  return std::to_string(v);
}

template <typename Row>
std::vector<std::string> ColumnTexts(const Row& row) {
  std::vector<std::string> texts;
  ForEachColumn(row, [&texts](auto v) {
    texts.push_back(ColumnText(v));
    return true;
  });
  return texts;
}

template <typename Row>
std::string DataLine(char tag, const Row& row) {
  std::string line(1, tag);
  for (const std::string& text : ColumnTexts(row)) {
    line += ' ' + text;
  }
  return line + '\n';
}

// Splits a data line into whitespace-separated tokens.
std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream ss(line);
  std::string field;
  while (ss >> field) {
    fields.push_back(field);
  }
  return fields;
}

// Parses a data line written by DataLine(tag, *row) back into *row;
// false + line-numbered *error naming the first column that fails.
template <typename Row>
bool ParseDataLine(const std::string& line, size_t line_no, char tag, Row* row,
                   std::string* error) {
  const auto& names = ColumnNames(*row);
  const std::vector<std::string> f = SplitFields(line);
  if (f.size() != names.size() + 1 || f[0] != std::string(1, tag)) {
    return SetLineError(error, line_no,
                        "bad line '" + line + "' (want '" + tag + "' and " +
                            std::to_string(names.size()) + " fields)");
  }
  size_t col = 0;
  if (!ForEachColumn(*row, [&](auto& v) { return ParseNumber(f[++col], &v); })) {
    return SetLineError(error, line_no, "bad " + std::string(names[col - 1]) + " '" + f[col] + "'");
  }
  return true;
}

struct LineReader {
  std::stringstream ss;
  size_t line_no = 0;

  explicit LineReader(const std::string& text) : ss(text) {}

  bool NextLine(std::string* line) {
    if (!std::getline(ss, *line)) {
      return false;
    }
    ++line_no;
    return true;
  }
};

// Reads one "key: value" line with the exact expected key; the format is
// fixed-order within a schema version, so strict keys catch truncation
// and reordering corruption immediately.
bool ReadKeyed(LineReader& in, const std::string& key, std::string* value, std::string* error) {
  std::string line;
  if (!in.NextLine(&line)) {
    return SetLineError(error, in.line_no, "unexpected end of artifact (wanted '" + key + "')");
  }
  const std::string prefix = key + ":";
  if (line.rfind(prefix, 0) != 0) {
    return SetLineError(error, in.line_no, "expected '" + key + ": ...', got '" + line + "'");
  }
  *value = line.substr(prefix.size());
  if (!value->empty() && value->front() == ' ') {
    value->erase(0, 1);
  }
  return true;
}

// A "key: value" line whose value must parse whole as a T, in T's range.
template <typename T>
bool ReadKeyedNumber(LineReader& in, const std::string& key, T* out, std::string* error) {
  std::string value;
  if (!ReadKeyed(in, key, &value, error)) {
    return false;
  }
  if (!ParseNumber(value, out)) {
    return SetLineError(error, in.line_no, "bad number for '" + key + "': '" + value + "'");
  }
  return true;
}

bool ReadKeyedBool(LineReader& in, const std::string& key, bool* out, std::string* error) {
  int v = 0;
  if (!ReadKeyedNumber(in, key, &v, error)) {
    return false;
  }
  *out = v != 0;
  return true;
}

}  // namespace

// --- recorder ----------------------------------------------------------------

RunRecorder::RunRecorder(SystemKind kind, std::string setup_id, std::string label,
                         const EngineConfig& engine, int verify_budget, int draft_budget)
    : kind_(kind) {
  artifact_.system = std::string(SystemName(kind));
  artifact_.setup_id = std::move(setup_id);
  artifact_.label = std::move(label);
  artifact_.engine = engine;
  artifact_.engine.trace_sink = nullptr;
  artifact_.verify_budget = verify_budget;
  artifact_.draft_budget = draft_budget;
}

void RunRecorder::OnArrival(const Request& request) {
  // Immutable fields only: the mutable serving state belongs to the run,
  // not the workload.
  Request arrival;
  arrival.id = request.id;
  arrival.category = request.category;
  arrival.tpot_slo = request.tpot_slo;
  arrival.arrival = request.arrival;
  arrival.prompt_len = request.prompt_len;
  arrival.target_output_len = request.target_output_len;
  arrival.stream_seed = request.stream_seed;
  artifact_.arrivals.push_back(arrival);
}

void RunRecorder::OnTick(const TickTraceEvent& event) { artifact_.ticks.push_back(event); }

ReplayArtifact RunRecorder::Finish(const EngineResult& result) {
  artifact_.metrics_text = GoldenMetricsText(kind_, result.metrics);
  return std::move(artifact_);
}

// --- serialization -----------------------------------------------------------

std::string SerializeReplayArtifact(const ReplayArtifact& artifact) {
  std::string text;
  const auto key = [&text](const char* name, const std::string& value) {
    text += std::string(name) + ": " + value + "\n";
  };
  key("adaserve_replay_schema", std::to_string(artifact.schema));
  key("system", artifact.system);
  key("setup", artifact.setup_id);
  key("label", artifact.label);
  const EngineConfig& e = artifact.engine;
  key("engine.sampling_seed", std::to_string(e.sampling_seed));
  key("engine.mode", std::to_string(static_cast<int>(e.mode)));
  key("engine.arrival_horizon", std::to_string(e.arrival_horizon));
  key("engine.retire_finished", e.retire_finished ? "1" : "0");
  key("tick.max_active", std::to_string(e.tick.max_active));
  key("tick.continuous", e.tick.continuous ? "1" : "0");
  key("tick.prefill_burst", std::to_string(e.tick.prefill_burst));
  key("tick.max_evictions", std::to_string(e.tick.max_evictions));
  // -1: unset (scheduler default resolves it at run time).
  key("tick.priority", std::to_string(e.tick.admission_priority.has_value()
                                          ? static_cast<int>(*e.tick.admission_priority)
                                          : -1));
  key("verify_budget", std::to_string(artifact.verify_budget));
  key("draft_budget", std::to_string(artifact.draft_budget));

  key("arrivals", std::to_string(artifact.arrivals.size()));
  for (const Request& a : artifact.arrivals) {
    text += DataLine('a', a);
  }
  key("ticks", std::to_string(artifact.ticks.size()));
  for (const TickTraceEvent& t : artifact.ticks) {
    text += DataLine('t', t);
  }

  // The metrics block is recorded verbatim (line count + raw lines), so
  // the fingerprint survives any future punctuation in metric names.
  std::string metrics;
  size_t metric_lines = 0;
  std::stringstream ms(artifact.metrics_text);
  for (std::string line; std::getline(ms, line); ++metric_lines) {
    metrics += line + "\n";
  }
  key("metrics", std::to_string(metric_lines));
  return text + metrics + "end\n";
}

bool ParseReplayArtifact(const std::string& text, ReplayArtifact* artifact, std::string* error) {
  LineReader in(text);
  ReplayArtifact out;

  if (!ReadKeyedNumber(in, "adaserve_replay_schema", &out.schema, error)) return false;
  if (out.schema != kReplaySchemaVersion) {
    return SetLineError(error, in.line_no,
                        "unsupported replay schema " + std::to_string(out.schema) +
                            " (this binary speaks " + std::to_string(kReplaySchemaVersion) + ")");
  }

  if (!ReadKeyed(in, "system", &out.system, error) ||
      !ReadKeyed(in, "setup", &out.setup_id, error) ||
      !ReadKeyed(in, "label", &out.label, error)) {
    return false;
  }

  EngineConfig& e = out.engine;
  int mode = 0;
  int priority = -1;
  if (!ReadKeyedNumber(in, "engine.sampling_seed", &e.sampling_seed, error)) return false;
  if (!ReadKeyedNumber(in, "engine.mode", &mode, error)) return false;
  if (mode != static_cast<int>(DecodeMode::kGreedy) &&
      mode != static_cast<int>(DecodeMode::kStochastic)) {
    return SetLineError(error, in.line_no, "bad engine.mode " + std::to_string(mode));
  }
  e.mode = static_cast<DecodeMode>(mode);
  if (!ReadKeyedNumber(in, "engine.arrival_horizon", &e.arrival_horizon, error)) return false;
  if (!ReadKeyedBool(in, "engine.retire_finished", &e.retire_finished, error)) return false;
  if (!ReadKeyedNumber(in, "tick.max_active", &e.tick.max_active, error)) return false;
  if (!ReadKeyedBool(in, "tick.continuous", &e.tick.continuous, error)) return false;
  if (!ReadKeyedNumber(in, "tick.prefill_burst", &e.tick.prefill_burst, error)) return false;
  if (!ReadKeyedNumber(in, "tick.max_evictions", &e.tick.max_evictions, error)) return false;
  if (!ReadKeyedNumber(in, "tick.priority", &priority, error)) return false;
  if (priority < -1 || priority > static_cast<int>(PriorityPolicy::kEdf)) {
    return SetLineError(error, in.line_no, "bad tick.priority " + std::to_string(priority));
  }
  e.tick.admission_priority =
      priority < 0 ? std::nullopt : std::optional<PriorityPolicy>(static_cast<PriorityPolicy>(priority));
  if (!ReadKeyedNumber(in, "verify_budget", &out.verify_budget, error)) return false;
  if (!ReadKeyedNumber(in, "draft_budget", &out.draft_budget, error)) return false;

  // Section counts are unsigned, so a negative count does not parse. The
  // sections grow line by line rather than reserving a count the text
  // may not hold.
  size_t arrival_count = 0;
  if (!ReadKeyedNumber(in, "arrivals", &arrival_count, error)) return false;
  std::string line;
  for (size_t i = 0; i < arrival_count; ++i) {
    if (!in.NextLine(&line)) {
      return SetLineError(error, in.line_no, "truncated arrival section");
    }
    Request a;
    if (!ParseDataLine(line, in.line_no, 'a', &a, error)) return false;
    // The engine's dense-id precondition, and the rules every arrival row
    // passes, checked here so a malformed artifact is a parse error
    // instead of an abort deep inside ReplayRun.
    if (a.id != static_cast<RequestId>(i)) {
      return SetLineError(error, in.line_no,
                          "non-dense id " + std::to_string(a.id) + " (expected " +
                              std::to_string(i) + ")");
    }
    const std::string bad =
        ArrivalRowError(a, out.arrivals.empty() ? 0.0 : out.arrivals.back().arrival);
    if (!bad.empty()) {
      return SetLineError(error, in.line_no, bad);
    }
    out.arrivals.push_back(a);
  }

  size_t tick_count = 0;
  if (!ReadKeyedNumber(in, "ticks", &tick_count, error)) return false;
  for (size_t i = 0; i < tick_count; ++i) {
    if (!in.NextLine(&line)) {
      return SetLineError(error, in.line_no, "truncated tick section");
    }
    TickTraceEvent t;
    if (!ParseDataLine(line, in.line_no, 't', &t, error)) return false;
    out.ticks.push_back(t);
  }

  size_t metric_lines = 0;
  if (!ReadKeyedNumber(in, "metrics", &metric_lines, error)) return false;
  for (size_t i = 0; i < metric_lines; ++i) {
    if (!in.NextLine(&line)) {
      return SetLineError(error, in.line_no, "truncated metrics section");
    }
    out.metrics_text += line;
    out.metrics_text += "\n";
  }

  if (!in.NextLine(&line) || line != "end") {
    return SetLineError(error, in.line_no, "missing 'end' sentinel");
  }

  *artifact = std::move(out);
  if (error != nullptr) {
    error->clear();
  }
  return true;
}

bool WriteReplayArtifact(const std::string& path, const ReplayArtifact& artifact,
                         std::string* error) {
  return WriteTextFile(path, SerializeReplayArtifact(artifact), error);
}

bool ReadReplayArtifact(const std::string& path, ReplayArtifact* artifact, std::string* error) {
  std::string text;
  return ReadTextFile(path, &text, error) && ParseReplayArtifact(text, artifact, error);
}

// --- setup registry ----------------------------------------------------------

std::optional<Setup> ReplaySetupById(const std::string& setup_id) {
  if (setup_id == "golden") return GoldenSetup();
  if (setup_id == "llama") return LlamaSetup();
  if (setup_id == "qwen") return QwenSetup();
  if (setup_id == "llama_h100_tp8") return LlamaH100Tp8Setup();
  if (setup_id == "llama_tp8") return LlamaTp8Setup();
  if (setup_id == "llama_draft_offload") return LlamaDraftOffloadSetup();
  return std::nullopt;
}

// --- recording ---------------------------------------------------------------

RecordedRun RecordRun(const Experiment& exp, SystemKind kind, WorkloadSource source,
                      EngineConfig engine, const std::string& setup_id, const std::string& label,
                      int verify_budget, int draft_budget) {
  const std::optional<Setup> registered = ReplaySetupById(setup_id);
  ADASERVE_CHECK(registered.has_value()) << "setup id '" << setup_id << "' not in replay registry";
  ADASERVE_CHECK(registered->label == exp.setup().label)
      << "setup id '" << setup_id << "' names '" << registered->label
      << "' but the experiment runs '" << exp.setup().label << "'";

  RecordedRun run;
  RunRecorder recorder(kind, setup_id, label, engine, verify_budget, draft_budget);
  engine.trace_sink = &recorder;
  auto scheduler = MakeScheduler(kind);
  run.result = exp.Run(*scheduler, std::move(source), engine, verify_budget, draft_budget);
  run.artifact = recorder.Finish(run.result);
  return run;
}

RecordedRun RecordGoldenRun(const Experiment& exp, SystemKind kind, const GoldenConfig& config,
                            GoldenScenario scenario, GoldenMode mode) {
  const EngineConfig engine = GoldenEngineConfig(config, scenario, mode);
  const std::string label =
      "golden/" + GoldenModePrefix(mode) + GoldenScenarioPrefix(scenario) + GoldenFileSlug(kind);
  return RecordRun(exp, kind, MakeGoldenStream(exp, scenario, config), engine, "golden", label);
}

RecordedClusterRun RecordClusterRun(ClusterConfig config, SystemKind system,
                                    ArrivalStream& stream,
                                    const std::vector<std::string>& setup_ids,
                                    const std::string& label) {
  ADASERVE_CHECK(setup_ids.size() == config.replicas.size())
      << "need one setup id per replica, got " << setup_ids.size() << " for "
      << config.replicas.size();

  // One recorder per replica, stable addresses: each replica engine gets
  // its own sink (replicas may run on parallel SweepRunner tasks, but a
  // sink is only ever touched by its own replica's engine loop).
  std::vector<std::unique_ptr<RunRecorder>> recorders;
  recorders.reserve(config.replicas.size());
  for (size_t i = 0; i < config.replicas.size(); ++i) {
    const ReplicaSpec& spec = config.replicas[i];
    const std::optional<Setup> registered = ReplaySetupById(setup_ids[i]);
    ADASERVE_CHECK(registered.has_value())
        << "setup id '" << setup_ids[i] << "' not in replay registry";
    ADASERVE_CHECK(registered->label == spec.setup.label)
        << "replica " << i << " setup id '" << setup_ids[i] << "' names '" << registered->label
        << "' but the replica runs '" << spec.setup.label << "'";
    recorders.push_back(std::make_unique<RunRecorder>(
        system, setup_ids[i], label + "/replica" + std::to_string(i), spec.engine));
    config.replicas[i].engine.trace_sink = recorders.back().get();
  }

  Cluster cluster(std::move(config));
  RecordedClusterRun run;
  run.result = cluster.Run(system, stream);
  run.replicas.reserve(recorders.size());
  for (size_t i = 0; i < recorders.size(); ++i) {
    run.replicas.push_back(recorders[i]->Finish(run.result.replicas[i].result));
  }
  return run;
}

// --- replay ------------------------------------------------------------------

std::string ReplayDivergence::Summary() const {
  std::ostringstream os;
  if (tick >= 0) {
    os << "first divergence at tick " << tick;
  } else {
    os << "run-level divergence";
  }
  os << ": " << field << " expected " << expected << ", got " << actual;
  return os.str();
}

namespace {

ReplayDivergence Diverge(long tick, std::string field, std::string expected, std::string actual) {
  ReplayDivergence d;
  d.tick = tick;
  d.field = std::move(field);
  d.expected = std::move(expected);
  d.actual = std::move(actual);
  return d;
}

// Compares one recorded tick against its replayed counterpart as the
// artifact writes them, column by column: doubles are written exactly, so
// equal text is equal value (the simulation is deterministic).
std::optional<ReplayDivergence> DiffTick(const TickTraceEvent& want, const TickTraceEvent& got) {
  const std::vector<std::string> w = ColumnTexts(want);
  const std::vector<std::string> g = ColumnTexts(got);
  for (size_t c = 0; c < kTickColumns.size(); ++c) {
    if (w[c] != g[c]) {
      return Diverge(want.index, kTickColumns[c], w[c], g[c]);
    }
  }
  return std::nullopt;
}

// First differing line of two text blocks, for metrics-text divergence.
std::pair<std::string, std::string> FirstDifferingLine(const std::string& want,
                                                       const std::string& got) {
  std::stringstream ws(want);
  std::stringstream gs(got);
  std::string wl;
  std::string gl;
  while (true) {
    const bool have_w = static_cast<bool>(std::getline(ws, wl));
    const bool have_g = static_cast<bool>(std::getline(gs, gl));
    if (!have_w && !have_g) {
      return {"<equal>", "<equal>"};
    }
    if (!have_w) return {"<end of text>", gl};
    if (!have_g) return {wl, "<end of text>"};
    if (wl != gl) return {wl, gl};
  }
}

}  // namespace

ReplayOutcome ReplayRun(const ReplayArtifact& artifact) {
  const std::optional<SystemKind> kind = SystemKindFromName(artifact.system);
  ADASERVE_CHECK(kind.has_value()) << "artifact names unknown system '" << artifact.system << "'";
  const std::optional<Setup> setup = ReplaySetupById(artifact.setup_id);
  ADASERVE_CHECK(setup.has_value()) << "artifact names unknown setup '" << artifact.setup_id
                                    << "'";

  const Experiment exp(*setup);
  EngineConfig engine = artifact.engine;
  RunRecorder recorder(*kind, artifact.setup_id, artifact.label, engine, artifact.verify_budget,
                       artifact.draft_budget);
  engine.trace_sink = &recorder;
  auto scheduler = MakeScheduler(*kind);

  // The run re-executes from the recorded arrivals alone: the workload
  // generator (and its seeds) is not consulted.
  ReplayOutcome outcome;
  outcome.result = exp.Run(*scheduler, artifact.arrivals, engine, artifact.verify_budget,
                           artifact.draft_budget);
  const ReplayArtifact replayed = recorder.Finish(outcome.result);
  outcome.metrics_text = replayed.metrics_text;

  // Tick-by-tick diff: report the earliest mismatch.
  const size_t common = std::min(artifact.ticks.size(), replayed.ticks.size());
  for (size_t i = 0; i < common; ++i) {
    if (auto d = DiffTick(artifact.ticks[i], replayed.ticks[i])) {
      outcome.divergence = std::move(d);
      return outcome;
    }
  }
  if (artifact.ticks.size() != replayed.ticks.size()) {
    outcome.divergence =
        Diverge(static_cast<long>(common), "tick_count", std::to_string(artifact.ticks.size()),
                std::to_string(replayed.ticks.size()));
    return outcome;
  }
  if (artifact.metrics_text != replayed.metrics_text) {
    auto [want_line, got_line] = FirstDifferingLine(artifact.metrics_text, replayed.metrics_text);
    outcome.divergence = Diverge(-1, "metrics_text", want_line, got_line);
    return outcome;
  }
  outcome.ok = true;
  return outcome;
}

}  // namespace adaserve
