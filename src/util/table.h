#pragma once
// Small fixed-width ASCII table emitter used by the benchmark binaries
// to print the paper's tables and figure data series in a uniform format.

#include <ostream>
#include <string>
#include <vector>

namespace yoso {

/// Column-aligned text table.  Collect rows of strings, then print.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends a row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Renders the table with column alignment and a header separator.
  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

  /// Convenience numeric formatting helpers.
  static std::string fmt(double v, int precision = 3);
  static std::string fmt_int(long long v);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace yoso
