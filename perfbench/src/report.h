// Small statistics and JSON helpers plus the run report the benchmark
// binary writes; perfbench/run.py reads the report and prints it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `v` (copied; empty input is a logic error).
double median(std::vector<double> v);

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// The highest percentile (whole percent, at most 99) that leaves at least
/// `beyond` samples above it, for `n` samples; 50 when n is too small.
int tail_percentile(std::size_t n, std::size_t beyond = 10);

std::string json_string(const std::string& s);
/// Shortest round-trip decimal form (all digits kept); non-finite -> null.
std::string json_number(double v);

struct Entry {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

class Report {
 public:
  void header(const std::string& key, const std::string& value);
  void header(const std::string& key, double value);

  /// A metric listed in BENCHMARK.json (end_to_end untraced, per_layer
  /// traced).
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  /// A measured value printed for information only (not gated).
  void info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");
  /// A computed constant (FLOPs, bytes moved): not measured.
  void constant(const std::string& name, double value, const std::string& unit,
                const std::string& note = "");
  void check(const std::string& name, bool ok, const std::string& detail);
  void note(const std::string& text) { notes_.push_back(text); }

  void count_request(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool all_checks_ok() const;

  void write_json(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, std::string>> header_;
  std::vector<Entry> metrics_, info_, constants_;
  std::vector<Check> checks_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
