#include "report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::logic_error("perfbench: quantile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

int tail_percentile(std::size_t n, std::size_t beyond) {
  for (int p = 99; p > 50; --p) {
    const double above = static_cast<double>(n) * (100 - p) / 100.0;
    if (above >= static_cast<double>(beyond)) return p;
  }
  return 50;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void Report::header(const std::string& key, const std::string& value) {
  header_.emplace_back(key, json_string(value));
}

void Report::header(const std::string& key, double value) {
  header_.emplace_back(key, json_number(value));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics_.push_back({name, value, unit, note});
}

void Report::info(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  info_.push_back({name, value, unit, note});
}

void Report::constant(const std::string& name, double value,
                      const std::string& unit, const std::string& note) {
  constants_.push_back({name, value, unit, note});
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

bool Report::all_checks_ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

namespace {
void write_entries(std::ostream& os, const std::vector<Entry>& entries) {
  os << "[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    os << (i ? ",\n  " : "\n  ") << "{\"name\":" << json_string(e.name)
       << ",\"value\":" << json_number(e.value)
       << ",\"unit\":" << json_string(e.unit)
       << ",\"note\":" << json_string(e.note) << "}";
  }
  os << "]";
}
}  // namespace

void Report::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("perfbench: cannot write " + path);
  os << "{\"header\":{";
  for (std::size_t i = 0; i < header_.size(); ++i)
    os << (i ? "," : "") << json_string(header_[i].first) << ":"
       << header_[i].second;
  os << "},\n\"metrics\":";
  write_entries(os, metrics_);
  os << ",\n\"info\":";
  write_entries(os, info_);
  os << ",\n\"constants\":";
  write_entries(os, constants_);
  os << ",\n\"checks\":[";
  for (std::size_t i = 0; i < checks_.size(); ++i)
    os << (i ? ",\n  " : "\n  ") << "{\"name\":" << json_string(checks_[i].name)
       << ",\"ok\":" << (checks_[i].ok ? "true" : "false")
       << ",\"detail\":" << json_string(checks_[i].detail) << "}";
  os << "],\n\"notes\":[";
  for (std::size_t i = 0; i < notes_.size(); ++i)
    os << (i ? ",\n  " : "\n  ") << json_string(notes_[i]);
  os << "],\n\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << "}\n";
  if (!os) throw std::runtime_error("perfbench: write failed: " + path);
}

}  // namespace perfbench
