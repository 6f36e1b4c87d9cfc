// Shared helpers for the table/figure reproduction benches: printed
// headers/footers plus a machine-readable JSON report (BENCH_<name>.json)
// so the perf trajectory can be tracked across PRs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace nvsoc::bench {

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void print_footer_note(const std::string& note) {
  std::printf("----------------------------------------------------------------\n");
  std::printf("%s\n", note.c_str());
}

/// Median and spread of a repeated measurement (quartiles by linear
/// interpolation between order statistics).
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline Summary summarize(std::vector<double> samples) {
  Summary out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
  };
  out.median = quantile(0.5);
  out.q1 = quantile(0.25);
  out.q3 = quantile(0.75);
  out.min = samples.front();
  out.max = samples.back();
  return out;
}

/// Collects named metrics, grouped in sections (one per model/config row),
/// and writes them as BENCH_<name>.json next to the binary:
///
///   {"bench": "table2_nvsmall",
///    "sections": {"lenet5": {"ms": 4.79, "cycles": 478912}, ...}}
///
/// Sections and keys keep insertion order.
class JsonReport {
 public:
  explicit JsonReport(std::string name) : name_(std::move(name)) {}

  void add(const std::string& section, const std::string& key, double value) {
    if (!std::isfinite(value)) {  // "nan"/"inf" are not valid JSON literals
      entry(section).emplace_back(key, "null");
      return;
    }
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    entry(section).emplace_back(key, buffer);
  }
  void add(const std::string& section, const std::string& key,
           std::uint64_t value) {
    entry(section).emplace_back(key, std::to_string(value));
  }
  void add(const std::string& section, const std::string& key, int value) {
    entry(section).emplace_back(key, std::to_string(value));
  }
  void add(const std::string& section, const std::string& key, bool value) {
    entry(section).emplace_back(key, value ? "true" : "false");
  }
  void add(const std::string& section, const std::string& key,
           const std::string& value) {
    entry(section).emplace_back(key, quote(value));
  }

  std::string to_json() const {
    std::string out = "{\n  \"bench\": " + quote(name_) + ",\n  \"sections\": {";
    bool first_section = true;
    for (const auto& [section, metrics] : sections_) {
      out += first_section ? "\n" : ",\n";
      first_section = false;
      out += "    " + quote(section) + ": {";
      bool first_metric = true;
      for (const auto& [key, literal] : metrics) {
        out += first_metric ? "" : ", ";
        first_metric = false;
        out += quote(key) + ": " + literal;
      }
      out += "}";
    }
    out += "\n  }\n}\n";
    return out;
  }

  /// Write BENCH_<name>.json into the working directory.
  void write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "JsonReport: cannot write %s\n", path.c_str());
      return;
    }
    const std::string json = to_json();
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
    std::printf("[json] wrote %s\n", path.c_str());
  }

 private:
  using Metrics = std::vector<std::pair<std::string, std::string>>;

  Metrics& entry(const std::string& section) {
    for (auto& [name, metrics] : sections_) {
      if (name == section) return metrics;
    }
    sections_.emplace_back(section, Metrics{});
    return sections_.back().second;
  }

  static std::string quote(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char escaped[8];
            std::snprintf(escaped, sizeof escaped, "\\u%04x",
                          static_cast<unsigned char>(c));
            out += escaped;
          } else {
            out += c;
          }
      }
    }
    out += "\"";
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, Metrics>> sections_;
};

}  // namespace nvsoc::bench
