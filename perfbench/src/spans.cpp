#include "spans.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "report.h"

namespace perfbench {

double now_us() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double, std::micro>(clock::now() - epoch)
      .count();
}

SpanLog::SpanLog(std::size_t reserve) { spans_.reserve(reserve); }

std::uint32_t SpanLog::open(const char* name) {
  Span s;
  s.name = name;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = stack_.empty() ? 0 : stack_.back();
  s.request = request_;
  s.start_us = now_us();
  spans_.push_back(s);
  stack_.push_back(s.id);
  return s.id;
}

void SpanLog::close(std::uint32_t id) {
  const double t = now_us();
  if (stack_.empty() || stack_.back() != id)
    throw std::logic_error("perfbench: spans closed out of order");
  stack_.pop_back();
  spans_[id - 1].end_us = t;
}

std::vector<double> SpanLog::durations_us(const std::string& name,
                                         std::size_t first,
                                         std::size_t last) const {
  std::vector<double> out;
  for (std::size_t i = first; i < std::min(last, spans_.size()); ++i)
    if (spans_[i].end_us > 0.0 && name == spans_[i].name)
      out.push_back(spans_[i].dur_us());
  return out;
}

std::vector<double> SpanLog::self_times_us() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].dur_us();
  // Children close inside their parent on one thread, so the child
  // intervals never overlap each other and lie within the parent.
  for (const Span& s : spans_)
    if (s.parent != 0) self[s.parent - 1] -= s.dur_us();
  return self;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("perfbench: cannot write " + path);
  const std::vector<double> self = self_times_us();
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"name\":" << json_string(s.name)
       << ",\"start_us\":" << json_number(s.start_us)
       << ",\"end_us\":" << json_number(s.end_us) << ",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request
       << ",\"self_us\":" << json_number(self[i]) << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
  if (!os) throw std::runtime_error("perfbench: write failed: " + path);
}

std::map<std::string, SpanSummary> summarize(const SpanLog& log,
                                             std::size_t first,
                                             std::size_t last) {
  const std::vector<double> self = log.self_times_us();
  std::map<std::string, std::vector<double>> dur;
  std::map<std::string, std::vector<double>> selfs;
  for (std::size_t i = first; i < std::min(last, log.spans().size()); ++i) {
    const Span& s = log.spans()[i];
    dur[s.name].push_back(s.dur_us());
    selfs[s.name].push_back(self[i]);
  }
  std::map<std::string, SpanSummary> out;
  for (auto& [name, d] : dur) {
    SpanSummary& sum = out[name];
    sum.count = d.size();
    sum.median_us = median(d);
    sum.median_self_us = median(selfs[name]);
    for (double v : selfs[name]) sum.total_self_us += v;
  }
  return out;
}

}  // namespace perfbench
