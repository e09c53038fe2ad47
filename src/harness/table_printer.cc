#include "src/harness/table_printer.h"

#include <algorithm>

#include "src/common/text.h"

namespace adaserve {

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::ostream& os) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << row[c];
      for (size_t pad = row[c].size(); pad < widths[c]; ++pad) {
        os << ' ';
      }
    }
    os << '\n';
  };
  print_row(headers_);
  size_t total = 0;
  for (size_t w : widths) {
    total += w + 2;
  }
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string Fmt(double value, int precision) { return FormatFixed(value, precision); }

std::string FmtPct(double value) { return Fmt(value, 1); }

}  // namespace adaserve
