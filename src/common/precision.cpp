#include "common/precision.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>

#include "common/error.h"
#include "common/logging.h"

namespace apds {

namespace {

// -1 = unresolved: consult APDS_PRECISION on the next global_precision().
std::atomic<int> g_precision{-1};

}  // namespace

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kF32:
      return "f32";
    case Precision::kF64:
      break;
  }
  return "f64";
}

Precision parse_precision(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "f32" || lower == "float") return Precision::kF32;
  if (lower == "f64" || lower == "double") return Precision::kF64;
  throw InvalidArgument("precision: unknown value '" + name +
                        "' (want f32|f64)");
}

void set_global_precision(Precision p) {
  g_precision.store(static_cast<int>(p), std::memory_order_relaxed);
}

void clear_global_precision() {
  g_precision.store(-1, std::memory_order_relaxed);
}

Precision global_precision() {
  const int v = g_precision.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<Precision>(v);
  Precision p = Precision::kF64;
  if (const char* env = std::getenv("APDS_PRECISION")) {
    try {
      p = parse_precision(env);
    } catch (const InvalidArgument&) {
      APDS_WARN("APDS_PRECISION='" << env << "' ignored (want f32|f64)");
    }
  }
  // Cache the resolution; a concurrent first call resolves identically.
  g_precision.store(static_cast<int>(p), std::memory_order_relaxed);
  return p;
}

}  // namespace apds
