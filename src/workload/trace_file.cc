#include "src/workload/trace_file.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string_view>
#include <utility>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/text.h"

namespace adaserve {
namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

// Splits one CSV line on commas and trims each cell; no quoting (token
// counts and numbers never contain commas in this format).
std::vector<std::string_view> SplitCsvLine(std::string_view line) {
  std::vector<std::string_view> cells;
  while (true) {
    const size_t comma = line.find(',');
    cells.push_back(Trim(line.substr(0, comma)));
    if (comma == std::string_view::npos) {
      return cells;
    }
    line.remove_prefix(comma + 1);
  }
}

}  // namespace

std::unique_ptr<TraceFileArrivalStream> TraceFileArrivalStream::FromString(
    const std::vector<CategorySpec>& categories, const std::string& csv, std::string* error) {
  ADASERVE_CHECK(categories.size() == kNumCategories) << "expected a full category table";
  if (error != nullptr) {
    error->clear();
  }

  std::vector<TraceFileRow> rows;
  std::stringstream ss(csv);
  std::string line;
  size_t line_no = 0;
  bool saw_content = false;
  while (std::getline(ss, line)) {
    ++line_no;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') {
      continue;
    }
    const std::vector<std::string_view> cells = SplitCsvLine(trimmed);
    // An optional header ("timestamp,prompt_tokens,..."): recognized only
    // when NO cell is numeric, so a data row with one bad field still
    // reports its error instead of being skipped as a header.
    if (!saw_content) {
      saw_content = true;
      double probe = 0.0;
      if (std::none_of(cells.begin(), cells.end(),
                       [&probe](std::string_view cell) { return ParseNumber(cell, &probe); })) {
        continue;
      }
    }

    if (cells.size() < 4 || cells.size() > 5) {
      SetLineError(error, line_no,
                   "expected 4-5 columns (timestamp,prompt_tokens,output_tokens,category"
                   "[,tpot_slo]), got " +
                       std::to_string(cells.size()));
      return nullptr;
    }
    // A cell that does not parse is named by its CSV column; a parsed row
    // that breaks a rule is named by ArrivalRowError.
    const auto bad_cell = [&](const char* column, std::string_view cell) {
      SetLineError(error, line_no, std::string("bad ") + column + " '" + std::string(cell) + "'");
      return nullptr;
    };
    Request req;
    if (!ParseNumber(cells[0], &req.arrival)) return bad_cell("timestamp", cells[0]);
    if (!ParseNumber(cells[1], &req.prompt_len)) return bad_cell("prompt_tokens", cells[1]);
    if (!ParseNumber(cells[2], &req.target_output_len)) return bad_cell("output_tokens", cells[2]);
    if (!ParseNumber(cells[3], &req.category)) return bad_cell("category", cells[3]);
    const bool explicit_slo = cells.size() == 5 && !cells[4].empty();
    if (explicit_slo && !ParseNumber(cells[4], &req.tpot_slo)) {
      return bad_cell("tpot_slo", cells[4]);
    }
    // One output token becomes two, as in the generators: the TPOT
    // denominator needs a decode step.
    if (req.target_output_len == 1) {
      req.target_output_len = 2;
    }
    // An omitted tpot_slo takes the category's; the row check rejects an
    // out-of-range category before it reads tpot_slo.
    if (!explicit_slo && req.category >= 0 && req.category < kNumCategories) {
      req.tpot_slo = categories[static_cast<size_t>(req.category)].tpot_slo;
    }
    const std::string bad = ArrivalRowError(req, rows.empty() ? 0.0 : rows.back().timestamp);
    if (!bad.empty()) {
      SetLineError(error, line_no, bad);
      return nullptr;
    }
    rows.push_back({req.arrival, req.prompt_len, req.target_output_len, req.category,
                    req.tpot_slo});
  }

  if (rows.empty()) {
    if (error != nullptr) {
      *error = "trace holds no data rows";
    }
    return nullptr;
  }
  return std::unique_ptr<TraceFileArrivalStream>(new TraceFileArrivalStream(std::move(rows)));
}

std::unique_ptr<TraceFileArrivalStream> TraceFileArrivalStream::Open(
    const std::vector<CategorySpec>& categories, const std::string& path, std::string* error) {
  std::string csv;
  return ReadTextFile(path, &csv, error) ? FromString(categories, csv, error) : nullptr;
}

Request TraceFileArrivalStream::BuildRequest(size_t index) const {
  const TraceFileRow& row = rows_[index];
  Request req;
  req.id = static_cast<RequestId>(index);
  req.category = row.category;
  req.tpot_slo = row.tpot_slo;
  req.arrival = row.timestamp;
  req.prompt_len = row.prompt_tokens;
  req.target_output_len = row.output_tokens;
  // Same stream-seed convention as the generators, so trace-driven runs
  // key token streams identically to a synthetic run with the same ids.
  req.stream_seed = HashCombine(Mix64(0xadaceedeULL), static_cast<uint64_t>(index));
  return req;
}

const Request* TraceFileArrivalStream::Peek() {
  if (Exhausted()) {
    return nullptr;
  }
  peeked_ = BuildRequest(next_);
  return &peeked_;
}

Request TraceFileArrivalStream::Next() {
  ADASERVE_CHECK(!Exhausted()) << "Next() on exhausted trace stream";
  return BuildRequest(next_++);
}

std::string TraceCsvFromRequests(std::span<const Request> requests) {
  std::string csv = "timestamp,prompt_tokens,output_tokens,category,tpot_slo\n";
  for (const Request& req : requests) {
    csv += FormatExact(req.arrival) + ',' + std::to_string(req.prompt_len) + ',' +
           std::to_string(req.target_output_len) + ',' + std::to_string(req.category) + ',' +
           FormatExact(req.tpot_slo) + '\n';
  }
  return csv;
}

bool WriteTraceCsv(const std::string& path, std::span<const Request> requests,
                   std::string* error) {
  return WriteTextFile(path, TraceCsvFromRequests(requests), error);
}

}  // namespace adaserve
