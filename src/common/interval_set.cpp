#include "common/interval_set.hpp"

#include <algorithm>

namespace nvsoc {

void IntervalSet::insert(std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return;
  // Find the first interval that could overlap or touch [begin, end).
  auto it = intervals_.upper_bound(begin);
  if (it != intervals_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= begin) {  // overlaps or touches from the left
      begin = prev->first;
      end = std::max(end, prev->second);
      it = intervals_.erase(prev);
    }
  }
  while (it != intervals_.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = intervals_.erase(it);
  }
  intervals_.emplace(begin, end);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> IntervalSet::gaps(
    std::uint64_t begin, std::uint64_t end) const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  std::uint64_t cursor = begin;
  auto it = intervals_.upper_bound(begin);
  if (it != intervals_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > cursor) cursor = std::min(prev->second, end);
  }
  while (cursor < end && it != intervals_.end() && it->first < end) {
    if (it->first > cursor) out.emplace_back(cursor, it->first);
    cursor = std::max(cursor, std::min(it->second, end));
    ++it;
  }
  if (cursor < end) out.emplace_back(cursor, end);
  return out;
}

}  // namespace nvsoc
