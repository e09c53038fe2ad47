#include "src/harness/replay.h"

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/common/logging.h"

namespace adaserve {
namespace {

// %.17g semantics via std::to_chars: text that round-trips an IEEE double
// exactly, so Serialize(Parse(x)) == x and replay diffs compare true
// values. to_chars is locale-independent by definition (snprintf's %g
// honors the global locale's decimal point and would corrupt artifacts
// written under e.g. de_DE); its output is specified to match printf
// "%.17g" in the C locale, so pre-existing artifacts compare byte-equal.
std::string FmtDouble(double v) {
  char buf[64];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  ADASERVE_CHECK(ec == std::errc()) << "double format failed";
  return std::string(buf, ptr);
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

void SetError(std::string* error, size_t line_no, const std::string& message) {
  if (error != nullptr) {
    *error = "line " + std::to_string(line_no) + ": " + message;
  }
}

// Reads one "key: value" line with the exact expected key; the format is
// fixed-order within a schema version, so strict keys catch truncation
// and reordering corruption immediately.
bool ReadKeyed(LineReader& in, const std::string& key, std::string* value, std::string* error) {
  std::string line;
  if (!in.NextLine(&line)) {
    SetError(error, in.line_no, "unexpected end of artifact (wanted '" + key + "')");
    return false;
  }
  const std::string prefix = key + ":";
  if (line.rfind(prefix, 0) != 0) {
    SetError(error, in.line_no, "expected '" + key + ": ...', got '" + line + "'");
    return false;
  }
  *value = line.substr(prefix.size());
  if (!value->empty() && value->front() == ' ') {
    value->erase(0, 1);
  }
  return true;
}

// std::from_chars throughout: locale-independent (std::stol/stod honor
// the global C locale — under de_DE "0.5" stops parsing at the period and
// the %.17g round trip breaks), non-throwing, and whole-string-strict via
// the end-pointer check.
bool ParseLong(const std::string& s, long* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseF64(const std::string& s, double* out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ReadKeyedLong(LineReader& in, const std::string& key, long* out, std::string* error) {
  std::string value;
  if (!ReadKeyed(in, key, &value, error)) {
    return false;
  }
  if (!ParseLong(value, out)) {
    SetError(error, in.line_no, "bad integer for '" + key + "': '" + value + "'");
    return false;
  }
  return true;
}

bool ReadKeyedInt(LineReader& in, const std::string& key, int* out, std::string* error) {
  long v = 0;
  if (!ReadKeyedLong(in, key, &v, error)) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ReadKeyedBool(LineReader& in, const std::string& key, bool* out, std::string* error) {
  long v = 0;
  if (!ReadKeyedLong(in, key, &v, error)) {
    return false;
  }
  *out = v != 0;
  return true;
}

// Splits a data line ("a ..."/"t ...") into whitespace-separated tokens.
std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream ss(line);
  std::string field;
  while (ss >> field) {
    fields.push_back(field);
  }
  return fields;
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
  std::ostringstream os;
  os << "adaserve_replay_schema: " << artifact.schema << "\n";
  os << "system: " << artifact.system << "\n";
  os << "setup: " << artifact.setup_id << "\n";
  os << "label: " << artifact.label << "\n";
  const EngineConfig& e = artifact.engine;
  os << "engine.max_iterations: " << e.max_iterations << "\n";
  os << "engine.sampling_seed: " << e.sampling_seed << "\n";
  os << "engine.mode: " << static_cast<int>(e.mode) << "\n";
  os << "engine.arrival_horizon: " << e.arrival_horizon << "\n";
  os << "engine.retire_finished: " << (e.retire_finished ? 1 : 0) << "\n";
  os << "tick.max_active: " << e.tick.max_active << "\n";
  os << "tick.continuous: " << (e.tick.continuous ? 1 : 0) << "\n";
  os << "tick.prefill_burst: " << e.tick.prefill_burst << "\n";
  os << "tick.max_evictions: " << e.tick.max_evictions << "\n";
  // -1: unset (scheduler default resolves it at run time).
  os << "tick.priority: "
     << (e.tick.admission_priority.has_value()
             ? static_cast<int>(*e.tick.admission_priority)
             : -1)
     << "\n";
  os << "verify_budget: " << artifact.verify_budget << "\n";
  os << "draft_budget: " << artifact.draft_budget << "\n";

  os << "arrivals: " << artifact.arrivals.size() << "\n";
  for (const Request& a : artifact.arrivals) {
    os << "a " << a.id << " " << a.category << " " << FmtDouble(a.tpot_slo) << " "
       << FmtDouble(a.arrival) << " " << a.prompt_len << " " << a.target_output_len << " "
       << a.stream_seed << "\n";
  }

  os << "ticks: " << artifact.ticks.size() << "\n";
  for (const TickTraceEvent& t : artifact.ticks) {
    const IterationRecord& r = t.record;
    os << "t " << t.index << " " << FmtDouble(t.start) << " " << FmtDouble(r.duration) << " "
       << FmtDouble(r.spec_time) << " " << FmtDouble(r.select_time) << " "
       << FmtDouble(r.verify_time) << " " << FmtDouble(r.prefill_time) << " " << r.prefill_tokens
       << " " << r.decode_requests << " " << r.verified_tokens << " " << r.committed_tokens << " "
       << r.admitted << " " << r.evicted << " " << r.paused << " " << t.arrivals_pulled << "\n";
  }

  // The metrics block is recorded verbatim (line count + raw lines), so
  // the fingerprint survives any future punctuation in metric names.
  std::vector<std::string> metric_lines;
  std::stringstream ms(artifact.metrics_text);
  std::string line;
  while (std::getline(ms, line)) {
    metric_lines.push_back(line);
  }
  os << "metrics: " << metric_lines.size() << "\n";
  for (const std::string& ml : metric_lines) {
    os << ml << "\n";
  }
  os << "end\n";
  return os.str();
}

bool ParseReplayArtifact(const std::string& text, ReplayArtifact* artifact, std::string* error) {
  LineReader in(text);
  ReplayArtifact out;

  long schema = 0;
  if (!ReadKeyedLong(in, "adaserve_replay_schema", &schema, error)) {
    return false;
  }
  if (schema != kReplaySchemaVersion) {
    SetError(error, in.line_no,
             "unsupported replay schema " + std::to_string(schema) + " (this binary speaks " +
                 std::to_string(kReplaySchemaVersion) + ")");
    return false;
  }
  out.schema = static_cast<int>(schema);

  if (!ReadKeyed(in, "system", &out.system, error) ||
      !ReadKeyed(in, "setup", &out.setup_id, error) ||
      !ReadKeyed(in, "label", &out.label, error)) {
    return false;
  }

  EngineConfig& e = out.engine;
  int mode = 0;
  int priority = -1;
  uint64_t sampling_seed = 0;
  std::string seed_text;
  if (!ReadKeyedLong(in, "engine.max_iterations", &e.max_iterations, error)) return false;
  if (!ReadKeyed(in, "engine.sampling_seed", &seed_text, error)) return false;
  if (!ParseU64(seed_text, &sampling_seed)) {
    SetError(error, in.line_no, "bad engine.sampling_seed '" + seed_text + "'");
    return false;
  }
  e.sampling_seed = sampling_seed;
  if (!ReadKeyedInt(in, "engine.mode", &mode, error)) return false;
  if (mode != static_cast<int>(DecodeMode::kGreedy) &&
      mode != static_cast<int>(DecodeMode::kStochastic)) {
    SetError(error, in.line_no, "bad engine.mode " + std::to_string(mode));
    return false;
  }
  e.mode = static_cast<DecodeMode>(mode);
  if (!ReadKeyedInt(in, "engine.arrival_horizon", &e.arrival_horizon, error)) return false;
  if (!ReadKeyedBool(in, "engine.retire_finished", &e.retire_finished, error)) return false;
  if (!ReadKeyedInt(in, "tick.max_active", &e.tick.max_active, error)) return false;
  if (!ReadKeyedBool(in, "tick.continuous", &e.tick.continuous, error)) return false;
  if (!ReadKeyedInt(in, "tick.prefill_burst", &e.tick.prefill_burst, error)) return false;
  if (!ReadKeyedInt(in, "tick.max_evictions", &e.tick.max_evictions, error)) return false;
  if (!ReadKeyedInt(in, "tick.priority", &priority, error)) return false;
  if (priority < -1 || priority > static_cast<int>(PriorityPolicy::kEdf)) {
    SetError(error, in.line_no, "bad tick.priority " + std::to_string(priority));
    return false;
  }
  e.tick.admission_priority =
      priority < 0 ? std::nullopt : std::optional<PriorityPolicy>(static_cast<PriorityPolicy>(priority));
  if (!ReadKeyedInt(in, "verify_budget", &out.verify_budget, error)) return false;
  if (!ReadKeyedInt(in, "draft_budget", &out.draft_budget, error)) return false;

  long arrival_count = 0;
  if (!ReadKeyedLong(in, "arrivals", &arrival_count, error)) return false;
  if (arrival_count < 0) {
    SetError(error, in.line_no, "negative arrival count");
    return false;
  }
  out.arrivals.reserve(static_cast<size_t>(arrival_count));
  std::string line;
  for (long i = 0; i < arrival_count; ++i) {
    if (!in.NextLine(&line)) {
      SetError(error, in.line_no, "truncated arrival section");
      return false;
    }
    const std::vector<std::string> f = SplitFields(line);
    if (f.size() != 8 || f[0] != "a") {
      SetError(error, in.line_no, "bad arrival line '" + line + "'");
      return false;
    }
    Request a;
    long id = 0;
    long prompt = 0;
    long target = 0;
    long category = 0;
    uint64_t seed = 0;
    if (!ParseLong(f[1], &id) || !ParseLong(f[2], &category) || !ParseF64(f[3], &a.tpot_slo) ||
        !ParseF64(f[4], &a.arrival) || !ParseLong(f[5], &prompt) || !ParseLong(f[6], &target) ||
        !ParseU64(f[7], &seed)) {
      SetError(error, in.line_no, "bad arrival field in '" + line + "'");
      return false;
    }
    // The engine's own preconditions (dense ids, nondecreasing arrivals)
    // and the trace CSV's row rules, checked here so a malformed artifact
    // is a parse error instead of an abort deep inside ReplayRun.
    std::string bad;
    if (id != i) {
      bad = "non-dense id " + f[1] + " (expected " + std::to_string(i) + ")";
    } else if (category < 0 || category >= kNumCategories) {
      bad = "bad category " + f[2];
    } else if (!std::isfinite(a.tpot_slo) || a.tpot_slo <= 0.0) {
      bad = "bad tpot_slo " + f[3];
    } else if (!std::isfinite(a.arrival) || a.arrival < 0.0) {
      bad = "bad arrival time " + f[4];
    } else if (!out.arrivals.empty() && a.arrival < out.arrivals.back().arrival) {
      bad = "out-of-order arrival time " + f[4] + " (arrivals must be nondecreasing)";
    } else if (prompt < 1 || prompt > INT_MAX) {
      bad = "bad prompt_len " + f[5];
    } else if (target < 1 || target > INT_MAX) {
      bad = "bad target_output_len " + f[6];
    }
    if (!bad.empty()) {
      SetError(error, in.line_no, bad);
      return false;
    }
    a.id = static_cast<RequestId>(id);
    a.category = static_cast<int>(category);
    a.prompt_len = static_cast<int>(prompt);
    a.target_output_len = static_cast<int>(target);
    a.stream_seed = seed;
    out.arrivals.push_back(a);
  }

  long tick_count = 0;
  if (!ReadKeyedLong(in, "ticks", &tick_count, error)) return false;
  if (tick_count < 0) {
    SetError(error, in.line_no, "negative tick count");
    return false;
  }
  out.ticks.reserve(static_cast<size_t>(tick_count));
  for (long i = 0; i < tick_count; ++i) {
    if (!in.NextLine(&line)) {
      SetError(error, in.line_no, "truncated tick section");
      return false;
    }
    const std::vector<std::string> f = SplitFields(line);
    if (f.size() != 16 || f[0] != "t") {
      SetError(error, in.line_no, "bad tick line '" + line + "'");
      return false;
    }
    TickTraceEvent t;
    IterationRecord& r = t.record;
    long prefill_tokens = 0, decode_requests = 0, verified = 0, committed = 0;
    long admitted = 0, evicted = 0, paused = 0, pulled = 0;
    if (!ParseLong(f[1], &t.index) || !ParseF64(f[2], &t.start) || !ParseF64(f[3], &r.duration) ||
        !ParseF64(f[4], &r.spec_time) || !ParseF64(f[5], &r.select_time) ||
        !ParseF64(f[6], &r.verify_time) || !ParseF64(f[7], &r.prefill_time) ||
        !ParseLong(f[8], &prefill_tokens) || !ParseLong(f[9], &decode_requests) ||
        !ParseLong(f[10], &verified) || !ParseLong(f[11], &committed) ||
        !ParseLong(f[12], &admitted) || !ParseLong(f[13], &evicted) ||
        !ParseLong(f[14], &paused) || !ParseLong(f[15], &pulled)) {
      SetError(error, in.line_no, "bad tick field in '" + line + "'");
      return false;
    }
    r.prefill_tokens = static_cast<int>(prefill_tokens);
    r.decode_requests = static_cast<int>(decode_requests);
    r.verified_tokens = static_cast<int>(verified);
    r.committed_tokens = static_cast<int>(committed);
    r.admitted = static_cast<int>(admitted);
    r.evicted = static_cast<int>(evicted);
    r.paused = static_cast<int>(paused);
    t.arrivals_pulled = static_cast<int>(pulled);
    out.ticks.push_back(t);
  }

  long metric_lines = 0;
  if (!ReadKeyedLong(in, "metrics", &metric_lines, error)) return false;
  if (metric_lines < 0) {
    SetError(error, in.line_no, "negative metrics line count");
    return false;
  }
  out.metrics_text.clear();
  for (long i = 0; i < metric_lines; ++i) {
    if (!in.NextLine(&line)) {
      SetError(error, in.line_no, "truncated metrics section");
      return false;
    }
    out.metrics_text += line;
    out.metrics_text += "\n";
  }

  if (!in.NextLine(&line) || line != "end") {
    SetError(error, in.line_no, "missing 'end' sentinel");
    return false;
  }

  *artifact = std::move(out);
  if (error != nullptr) {
    error->clear();
  }
  return true;
}

bool WriteReplayArtifact(const std::string& path, const ReplayArtifact& artifact,
                         std::string* error) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) {
      *error = "cannot open '" + path + "' for writing";
    }
    return false;
  }
  out << SerializeReplayArtifact(artifact);
  out.flush();
  if (!out) {
    if (error != nullptr) {
      *error = "write to '" + path + "' failed";
    }
    return false;
  }
  return true;
}

bool ReadReplayArtifact(const std::string& path, ReplayArtifact* artifact, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open '" + path + "'";
    }
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseReplayArtifact(buffer.str(), artifact, error);
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
  if (scenario == GoldenScenario::kRealTrace) {
    return RecordRun(exp, kind, GoldenWorkload(exp, config), engine, "golden", label);
  }
  auto stream = MakeGoldenStream(exp, scenario, config);
  return RecordRun(exp, kind, *stream, engine, "golden", label);
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

// Compares one recorded tick against its replayed counterpart, field by
// field; doubles compare exactly (the simulation is deterministic, and
// the artifact stores them round-trip exactly).
std::optional<ReplayDivergence> DiffTick(const TickTraceEvent& want, const TickTraceEvent& got) {
  const long i = want.index;
  auto check_long = [&](const char* field, long w, long g) -> std::optional<ReplayDivergence> {
    if (w != g) {
      return Diverge(i, field, std::to_string(w), std::to_string(g));
    }
    return std::nullopt;
  };
  auto check_f64 = [&](const char* field, double w, double g) -> std::optional<ReplayDivergence> {
    if (w != g) {
      return Diverge(i, field, FmtDouble(w), FmtDouble(g));
    }
    return std::nullopt;
  };
  if (auto d = check_long("index", want.index, got.index)) return d;
  if (auto d = check_f64("start", want.start, got.start)) return d;
  const IterationRecord& w = want.record;
  const IterationRecord& g = got.record;
  if (auto d = check_f64("record.duration", w.duration, g.duration)) return d;
  if (auto d = check_f64("record.spec_time", w.spec_time, g.spec_time)) return d;
  if (auto d = check_f64("record.select_time", w.select_time, g.select_time)) return d;
  if (auto d = check_f64("record.verify_time", w.verify_time, g.verify_time)) return d;
  if (auto d = check_f64("record.prefill_time", w.prefill_time, g.prefill_time)) return d;
  if (auto d = check_long("record.prefill_tokens", w.prefill_tokens, g.prefill_tokens)) return d;
  if (auto d = check_long("record.decode_requests", w.decode_requests, g.decode_requests)) {
    return d;
  }
  if (auto d = check_long("record.verified_tokens", w.verified_tokens, g.verified_tokens)) {
    return d;
  }
  if (auto d = check_long("record.committed_tokens", w.committed_tokens, g.committed_tokens)) {
    return d;
  }
  if (auto d = check_long("record.admitted", w.admitted, g.admitted)) return d;
  if (auto d = check_long("record.evicted", w.evicted, g.evicted)) return d;
  if (auto d = check_long("record.paused", w.paused, g.paused)) return d;
  if (auto d = check_long("arrivals_pulled", want.arrivals_pulled, got.arrivals_pulled)) return d;
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
