// Half-open interval set over 64-bit addresses. Used by the toolflow's
// weight extractor to distinguish cold reads (weights / input image) from
// reads of data the accelerator itself produced earlier in the trace.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace nvsoc {

class IntervalSet {
 public:
  /// Insert [begin, end); coalesces with neighbours.
  void insert(std::uint64_t begin, std::uint64_t end);

  /// Sub-ranges of [begin, end) NOT covered by the set, in order.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> gaps(
      std::uint64_t begin, std::uint64_t end) const;

  std::size_t interval_count() const { return intervals_.size(); }
  bool empty() const { return intervals_.empty(); }

 private:
  std::map<std::uint64_t, std::uint64_t> intervals_;  ///< begin -> end
};

}  // namespace nvsoc
