// Locale-independence regression tests for the numeric text formats.
//
// trace_file.cc and replay.cc used std::stod/std::stol, which honor the
// global C locale: on a host set to a comma-decimal locale (de_DE et
// al.), "0.5" parsed as 0 with a trailing-garbage error, so every trace
// file and replay artifact written on a period-decimal machine failed to
// load — and snprintf("%.17g") on the write side emitted commas that no
// machine could re-read. Every number now goes through the text codec
// (src/common/text.h): std::from_chars and std::to_chars, both
// locale-independent by specification. These tests flip the process into
// a comma-decimal locale and exercise the full parse/serialize round
// trips and the golden metrics text; they fail on the std::stod and
// snprintf code.
//
// The comma-decimal locale must be installed on the host; when none of
// the candidates is (minimal containers often ship only C/POSIX), the
// tests skip rather than pass vacuously.
#include <gtest/gtest.h>

#include <clocale>
#include <string>
#include <vector>

#include "src/harness/golden.h"
#include "src/harness/replay.h"
#include "src/workload/trace_file.h"
#include "tests/test_util.h"

namespace adaserve {
namespace {

// Swaps the global C locale for a comma-decimal one for the test's
// lifetime; restores the previous locale on destruction so later tests
// in the binary see the environment they started with.
class CommaDecimalLocale {
 public:
  CommaDecimalLocale() {
    const char* current = std::setlocale(LC_ALL, nullptr);
    saved_ = current != nullptr ? current : "C";
    for (const char* candidate :
         {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR.utf8", "fr_FR",
          "it_IT.UTF-8", "es_ES.UTF-8", "pt_BR.UTF-8", "ru_RU.UTF-8"}) {
      if (std::setlocale(LC_ALL, candidate) != nullptr) {
        // Paranoia: only trust locales that actually print a comma.
        char buf[8] = {};
        std::snprintf(buf, sizeof(buf), "%.1f", 0.5);
        if (buf[1] == ',') {
          active_ = true;
          return;
        }
      }
    }
    std::setlocale(LC_ALL, saved_.c_str());
  }
  ~CommaDecimalLocale() { std::setlocale(LC_ALL, saved_.c_str()); }

  // True when a comma-decimal locale is installed and active.
  bool active() const { return active_; }

 private:
  std::string saved_;
  bool active_ = false;
};

#define REQUIRE_COMMA_LOCALE(loc)                                                  \
  if (!(loc).active()) {                                                           \
    GTEST_SKIP() << "no comma-decimal locale installed; cannot exercise the bug"; \
  }

TEST(LocaleParsing, TraceCsvParsesFractionalFieldsUnderCommaDecimalLocale) {
  CommaDecimalLocale locale;
  REQUIRE_COMMA_LOCALE(locale);
  const Experiment exp(TestSetup());
  std::string error;
  // Fractional timestamp and tpot_slo: std::stod under de_DE stops at the
  // '.' and the strict full-consumption check turned that into a parse
  // error for the whole file.
  auto stream = TraceFileArrivalStream::FromString(
      exp.Categories(), "0.5,16,4,0,0.05\n1.25,32,8,1,\n", &error);
  ASSERT_NE(stream, nullptr) << error;
  const Request* first = stream->Peek();
  ASSERT_NE(first, nullptr);
  EXPECT_DOUBLE_EQ(first->arrival, 0.5);
  EXPECT_DOUBLE_EQ(first->tpot_slo, 0.05);
  const Request a = stream->Next();
  const Request b = stream->Next();
  EXPECT_DOUBLE_EQ(a.arrival, 0.5);
  EXPECT_DOUBLE_EQ(b.arrival, 1.25);
}

TEST(LocaleParsing, TraceCsvRoundTripsUnderCommaDecimalLocale) {
  CommaDecimalLocale locale;
  REQUIRE_COMMA_LOCALE(locale);
  const Experiment exp(TestSetup());
  std::vector<Request> requests = UniformWorkload(exp, 4, kCatChat, /*spread_s=*/1.5);
  requests[2].tpot_slo = 0.0375;  // Not exactly representable in few digits.
  // The writer must emit period decimals even under a comma locale (a
  // comma decimal would also corrupt the column structure), and the
  // parser must read the writer's output back exactly.
  const std::string csv = TraceCsvFromRequests(requests);
  std::string error;
  auto stream = TraceFileArrivalStream::FromString(exp.Categories(), csv, &error);
  ASSERT_NE(stream, nullptr) << error;
  for (const Request& want : requests) {
    ASSERT_FALSE(stream->Exhausted());
    const Request got = stream->Next();
    EXPECT_DOUBLE_EQ(got.arrival, want.arrival);
    EXPECT_EQ(got.prompt_len, want.prompt_len);
    EXPECT_EQ(got.target_output_len, want.target_output_len);
    EXPECT_EQ(got.category, want.category);
    EXPECT_DOUBLE_EQ(got.tpot_slo, want.tpot_slo);
  }
}

TEST(LocaleParsing, ReplayArtifactRoundTripsUnderCommaDecimalLocale) {
  CommaDecimalLocale locale;
  REQUIRE_COMMA_LOCALE(locale);
  // A hand-built artifact with fractional doubles in every numeric slot
  // the schema carries them: the serialize -> parse -> serialize loop
  // must be byte-exact regardless of the global locale.
  ReplayArtifact artifact;
  artifact.system = "EDF";
  artifact.setup_id = "golden";
  artifact.label = "locale-test";
  Request req;
  req.id = 0;
  req.category = kCatChat;
  req.tpot_slo = 0.0625;
  req.arrival = 0.5;
  req.prompt_len = 16;
  req.target_output_len = 4;
  req.stream_seed = 7;
  artifact.arrivals.push_back(req);
  TickTraceEvent tick;
  tick.index = 0;
  tick.start = 0.5;
  tick.record.duration = 0.125;
  tick.record.verify_time = 0.0875;
  tick.record.committed_tokens = 3;
  artifact.ticks.push_back(tick);
  artifact.metrics_text = "system: EDF\nfinished: 1\n";

  const std::string text = SerializeReplayArtifact(artifact);
  EXPECT_EQ(text.find("0,5"), std::string::npos)
      << "comma decimal leaked into the artifact:\n" << text;
  ReplayArtifact parsed;
  std::string error;
  ASSERT_TRUE(ParseReplayArtifact(text, &parsed, &error)) << error;
  EXPECT_DOUBLE_EQ(parsed.arrivals.at(0).arrival, 0.5);
  EXPECT_DOUBLE_EQ(parsed.arrivals.at(0).tpot_slo, 0.0625);
  EXPECT_DOUBLE_EQ(parsed.ticks.at(0).record.duration, 0.125);
  EXPECT_EQ(SerializeReplayArtifact(parsed), text);
}

// GoldenMetricsText's fixed-decimal doubles once came from
// snprintf("%.*f"), which honours LC_NUMERIC: under a comma-decimal
// locale every golden comparison failed on "0,500000".
TEST(LocaleParsing, GoldenMetricsTextIsLocaleIndependent) {
  const Experiment exp(GoldenSetup());
  const EngineResult result = RunGoldenSystem(exp, SystemKind::kVllm);
  const std::string in_c_locale = GoldenMetricsText(SystemKind::kVllm, result.metrics);
  ASSERT_NE(in_c_locale.find("."), std::string::npos) << in_c_locale;
  CommaDecimalLocale locale;
  REQUIRE_COMMA_LOCALE(locale);
  EXPECT_EQ(GoldenMetricsText(SystemKind::kVllm, result.metrics), in_c_locale);
}

}  // namespace
}  // namespace adaserve
