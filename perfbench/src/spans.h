// Benchmark-side tracing: spans recorded around each call the benchmark
// makes into the program's layers. The program's own tracing stays off;
// these spans live only in the benchmark and are written out when the run
// ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Microseconds since the process-wide benchmark epoch (steady clock).
double now_us();

struct Span {
  const char* name = "";  ///< static string; metric stems reuse it
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;  ///< enclosing span on this thread, 0 at root
  std::uint64_t request = 0; ///< shared by every span of one request

  double dur_us() const { return end_us - start_us; }
};

/// In-memory span store for one single-threaded run. Spans nest: a span
/// opened while another is open becomes its child.
class SpanLog {
 public:
  explicit SpanLog(std::size_t reserve = 1 << 16);

  std::uint32_t open(const char* name);
  void close(std::uint32_t id);

  /// Start a new request: spans opened until the next call share its id.
  void begin_request() { request_ = next_request_++; }
  /// Spans opened from here on belong to no request (id 0).
  void end_request() { request_ = 0; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (us) of the closed spans with this name among spans
  /// [first, last) in opening order.
  std::vector<double> durations_us(const std::string& name,
                                   std::size_t first = 0,
                                   std::size_t last = SIZE_MAX) const;
  std::size_t size() const { return spans_.size(); }

  /// Self time per span: duration minus the part its children cover.
  std::vector<double> self_times_us() const;

  /// JSON array of spans (name, start_us, end_us, id, parent, request).
  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t request_ = 0;
  std::uint64_t next_request_ = 1;
};

/// RAII span; inert when `log` is null (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log ? log->open(name) : 0) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

/// Per-name summary of spans [first, last) of a log: count, median
/// duration, median self time, and total self time (us).
struct SpanSummary {
  std::size_t count = 0;
  double median_us = 0.0;
  double median_self_us = 0.0;
  double total_self_us = 0.0;
};
std::map<std::string, SpanSummary> summarize(const SpanLog& log,
                                             std::size_t first,
                                             std::size_t last);

}  // namespace perfbench
