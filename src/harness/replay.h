// Record/replay run artifacts: dump one engine run's every decision to a
// versioned artifact, then re-execute it byte-identically from the
// artifact alone — the NodeFz record/replay idea applied to serving.
//
// Recording attaches a RunRecorder (a TickTraceSink) to EngineConfig::
// trace_sink: the engine streams every arrival it pulls (the full
// immutable request, so the workload generator is not needed at replay
// time) and every progressing tick (the scheduler's IterationRecord plus
// per-tick arrival pulls). The artifact
// additionally pins the engine configuration, system, setup id, and the
// run's canonical GoldenMetricsText fingerprint.
//
// Replaying rebuilds the experiment from the setup registry, feeds the
// recorded arrivals back through a MaterializedStream, re-runs under a
// fresh recorder, and diffs the new run against the artifact tick by
// tick: byte-identical metrics text on success, or a structured
// ReplayDivergence naming the first mismatching tick and field when the
// binary (or the artifact) has drifted.
//
// Artifact format: versioned line-oriented text ("adaserve_replay_schema:
// N" header; key: value configuration; one "a ..." line per arrival and
// one "t ..." line per tick with %.17g doubles so round trips are exact;
// the metrics block; an "end" sentinel). The schema version bumps on any
// field change — parsers reject unknown versions rather than guess.
#ifndef ADASERVE_SRC_HARNESS_REPLAY_H_
#define ADASERVE_SRC_HARNESS_REPLAY_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/harness/golden.h"

namespace adaserve {

// Bumped on any artifact field change; parsers reject other versions.
// v2: tick lines carry the rejected/degraded counters.
// v3: drops the async-planner config key and the per-tick planner verdict.
// v4: drops the tick.event_driven key (next-event skip is always on).
// v5: drops the tick lines' rejected/degraded counters.
// v6: drops the engine's per-tick-log switch (the engine keeps no log).
// v7: drops the engine.max_iterations key (the budget is a constant).
inline constexpr int kReplaySchemaVersion = 7;

// A recorded run, self-contained up to the setup registry: everything
// needed to re-execute and everything needed to check the re-execution.
struct ReplayArtifact {
  int schema = kReplaySchemaVersion;
  // SystemName of the scheduler (SystemKindFromName resolves it back).
  std::string system;
  // Key into ReplaySetupById — full model/GPU setups are registry-resolved
  // rather than serialized.
  std::string setup_id;
  // Free-form provenance label ("golden/flash_crowd", a bench cell id...).
  std::string label;
  // The run's engine configuration (trace_sink excluded, of course).
  EngineConfig engine;
  int verify_budget = 0;
  int draft_budget = 0;
  // Every request the engine pulled, in pull order, immutable fields only.
  std::vector<Request> arrivals;
  // Every progressing tick, in order.
  std::vector<TickTraceEvent> ticks;
  // GoldenMetricsText of the recorded run — the byte-identity fingerprint.
  std::string metrics_text;
};

// The TickTraceSink that builds an artifact while a run executes. Attach
// to EngineConfig::trace_sink, run, then Finish with the run's result.
class RunRecorder final : public TickTraceSink {
 public:
  RunRecorder(SystemKind kind, std::string setup_id, std::string label,
              const EngineConfig& engine, int verify_budget = 0, int draft_budget = 0);

  void OnArrival(const Request& request) override;
  void OnTick(const TickTraceEvent& event) override;

  // Stamps the run's canonical metrics text and hands the artifact out.
  ReplayArtifact Finish(const EngineResult& result);

 private:
  SystemKind kind_;
  ReplayArtifact artifact_;
};

// --- serialization -----------------------------------------------------------

std::string SerializeReplayArtifact(const ReplayArtifact& artifact);
// Strict parse; false + line-numbered *error on malformed or
// version-mismatched input. Every number must parse whole and fit its
// field. Arrival lines must carry dense ids in pull order and pass the
// same ArrivalRowError check as trace CSV rows (request.h), so a bad
// artifact fails here rather than aborting ReplayRun. Round trip is exact:
// Serialize(Parse(Serialize(a))) == Serialize(a).
bool ParseReplayArtifact(const std::string& text, ReplayArtifact* artifact, std::string* error);

bool WriteReplayArtifact(const std::string& path, const ReplayArtifact& artifact,
                         std::string* error);
bool ReadReplayArtifact(const std::string& path, ReplayArtifact* artifact, std::string* error);

// --- setup registry ----------------------------------------------------------

// Resolves a setup id recorded in an artifact: "golden", "llama", "qwen",
// "llama_h100_tp8", "llama_tp8", "llama_draft_offload". nullopt for an
// unknown id.
std::optional<Setup> ReplaySetupById(const std::string& setup_id);

// --- recording ---------------------------------------------------------------

struct RecordedRun {
  ReplayArtifact artifact;
  EngineResult result;
};

// Runs `kind` over `source` under `engine` with a recorder attached and
// returns artifact + result. `setup_id` must name `exp`'s setup in the
// registry (checked), or replay would silently run a different model.
RecordedRun RecordRun(const Experiment& exp, SystemKind kind, WorkloadSource source,
                      EngineConfig engine, const std::string& setup_id,
                      const std::string& label = "", int verify_budget = 0, int draft_budget = 0);

// Records the exact golden cell (scenario x mode) RunGoldenSystem runs:
// same workload, same engine config, same metrics — with the artifact on
// the side. Requires `exp` built from GoldenSetup() (setup id "golden").
RecordedRun RecordGoldenRun(const Experiment& exp, SystemKind kind,
                            const GoldenConfig& config = {},
                            GoldenScenario scenario = GoldenScenario::kRealTrace,
                            GoldenMode mode = GoldenMode::kTickNative);

struct RecordedClusterRun {
  // One artifact per replica, replica order; each replays standalone.
  std::vector<ReplayArtifact> replicas;
  ClusterResult result;
};

// Runs `system` over `stream` on the cluster described by `config` with a
// recorder attached to every replica engine. `setup_ids` parallels
// config.replicas and must name each replica's setup in the registry.
RecordedClusterRun RecordClusterRun(ClusterConfig config, SystemKind system,
                                    ArrivalStream& stream,
                                    const std::vector<std::string>& setup_ids,
                                    const std::string& label = "");

// --- replay ------------------------------------------------------------------

// First point where a replayed run departed from its artifact.
struct ReplayDivergence {
  // First mismatching tick index; -1 for run-level divergence (tick
  // count, metrics text, arrival mismatch).
  long tick = -1;
  // The field that differed, e.g. "record.committed_tokens".
  std::string field;
  std::string expected;
  std::string actual;

  // One-line human-readable description.
  std::string Summary() const;
};

struct ReplayOutcome {
  // True iff the replay matched the artifact byte-for-byte: every tick
  // field and the canonical metrics text.
  bool ok = false;
  // Set when !ok.
  std::optional<ReplayDivergence> divergence;
  // The replayed run's canonical metrics text.
  std::string metrics_text;
  EngineResult result;
};

// Re-executes `artifact` from its recorded arrivals alone and verifies
// the re-execution tick by tick. ADASERVE_CHECK-fails on an artifact
// naming an unknown system or setup (a parse-time concern, not a
// divergence).
ReplayOutcome ReplayRun(const ReplayArtifact& artifact);

}  // namespace adaserve

#endif  // ADASERVE_SRC_HARNESS_REPLAY_H_
