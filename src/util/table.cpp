#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace yoso {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("TextTable: empty header");
}

void TextTable::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size())
    throw std::invalid_argument("TextTable: row arity mismatch");
  rows_.push_back(std::move(row));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto print_row = [&](const std::vector<std::string>& row) {
    os << "| ";
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
      os << (c + 1 == row.size() ? " |" : " | ");
    }
    os << '\n';
  };

  print_row(header_);
  os << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    os << std::string(widths[c] + 2, '-');
    os << '|';
  }
  os << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string TextTable::fmt(double v, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << v;
  return ss.str();
}

std::string TextTable::fmt_int(long long v) {
  return std::to_string(v);
}

}  // namespace yoso
