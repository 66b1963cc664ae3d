#include "data/csv.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/error.h"
#include "common/string_util.h"

namespace apds {

void write_csv(const std::string& path, const Matrix& m,
               std::span<const std::string> header) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw IoError("write_csv: cannot open " + path);
  if (!header.empty()) {
    APDS_CHECK_MSG(header.size() == m.cols(), "write_csv: header width");
    for (std::size_t c = 0; c < header.size(); ++c)
      os << header[c] << (c + 1 < header.size() ? "," : "\n");
  }
  os.precision(12);
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c)
      os << m(r, c) << (c + 1 < m.cols() ? "," : "\n");
  if (!os) throw IoError("write_csv: write failure on " + path);
}

Matrix read_csv(const std::string& path, bool skip_header) {
  std::ifstream is(path);
  if (!is) throw IoError("read_csv: cannot open " + path);
  std::string line;
  std::size_t line_no = 0;  // 1-based physical line, header included
  if (skip_header) {
    if (!std::getline(is, line)) throw IoError("read_csv: empty file " + path);
    ++line_no;
  }

  // Every parse error names the file and the 1-based physical line.
  const auto at_line = [&] {
    return " in " + path + " at line " + std::to_string(line_no);
  };
  std::vector<double> values;
  std::size_t cols = 0;
  std::size_t rows = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (trim(line).empty()) continue;
    const auto fields = split(line, ',');
    if (cols == 0)
      cols = fields.size();
    else if (fields.size() != cols)
      throw IoError("read_csv: ragged row" + at_line() + " (" +
                    std::to_string(fields.size()) + " cells, want " +
                    std::to_string(cols) + ")");
    for (std::size_t c = 0; c < fields.size(); ++c) {
      char* end = nullptr;
      const std::string t = trim(fields[c]);
      const double v = std::strtod(t.c_str(), &end);
      const bool numeric = end != t.c_str() && *end == '\0';
      // strtod also accepts nan/inf spellings and overflows to HUGE_VAL;
      // none of those is a sensor reading.
      if (!numeric || !std::isfinite(v))
        throw IoError(std::string("read_csv: ") +
                      (numeric ? "non-finite" : "non-numeric") + " cell '" +
                      t + "'" + at_line() + ", column " +
                      std::to_string(c + 1));
      values.push_back(v);
    }
    ++rows;
  }
  return Matrix::from_data(rows, cols, std::move(values));
}

}  // namespace apds
