// Spans of the traced benchmark run, and the self-time breakdown over them.
//
// Spans are recorded from the benchmark's own code around calls into the
// program's public functions. A span names its parent by name; parent and
// child share the leg and the request id (the wire request id where one
// exists), which is enough to rebuild each request's tree. Spans are kept in
// memory while the run measures and written out as JSON lines at the end.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  const char* leg = "";     ///< which pass of the traced run recorded it
  const char* name = "";    ///< "<layer>.<what>", e.g. "nvdla.conv"
  const char* parent = "";  ///< parent span name; "" for a root
  std::uint64_t id = 0;     ///< request id shared by one request's spans
  double start_ms = 0.0;    ///< offsets from the tracer's epoch
  double end_ms = 0.0;
};

/// The layer a span belongs to: its name up to the first dot.
inline std::string layer_of(const char* name) {
  const std::string text(name);
  return text.substr(0, text.find('.'));
}

/// Self time per layer: each span's duration minus the part of that
/// interval its children cover, summed per (leg, layer) and divided by the
/// number of distinct ids in the leg (its requests, or its stagings), then
/// summed over legs. Returns milliseconds per layer.
inline std::map<std::string, double> self_ms_by_layer(
    const std::vector<Span>& spans) {
  // Children of one parent share (leg, id, parent name).
  using Key = std::tuple<std::string, std::uint64_t, std::string>;
  std::map<Key, std::vector<std::pair<double, double>>> children;
  std::map<std::string, std::set<std::uint64_t>> ids;
  for (const Span& s : spans) {
    ids[s.leg].insert(s.id);
    if (s.parent[0] == '\0') continue;
    children[{s.leg, s.id, s.parent}].emplace_back(s.start_ms, s.end_ms);
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    double covered = 0.0;
    if (const auto it = children.find({s.leg, s.id, s.name});
        it != children.end()) {
      std::vector<std::pair<double, double>> parts = it->second;
      std::sort(parts.begin(), parts.end());
      double reach = s.start_ms;
      for (const auto& [begin, end] : parts) {
        const double from = std::max(begin, reach);
        const double to = std::min(end, s.end_ms);
        if (to > from) covered += to - from;
        reach = std::max(reach, to);
      }
    }
    const double own = std::max(0.0, (s.end_ms - s.start_ms) - covered);
    self[layer_of(s.name)] += own / static_cast<double>(ids[s.leg].size());
  }
  return self;
}

/// Write spans as JSON lines; returns false when the file cannot be opened.
inline bool write_spans(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(file,
                 "{\"leg\":\"%s\",\"name\":\"%s\",\"parent\":\"%s\","
                 "\"id\":%llu,\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                 s.leg, s.name, s.parent,
                 static_cast<unsigned long long>(s.id), s.start_ms, s.end_ms);
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
