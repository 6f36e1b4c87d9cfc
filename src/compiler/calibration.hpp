// INT8 calibration-table generation.
//
// The paper names the lack of INT8 calibration tables as the main limit on
// nv_small model coverage and lists generating them as future work §1. This
// module implements that step: activation ranges are collected by running
// the FP32 reference executor on calibration inputs; each blob gets a
// symmetric per-tensor scale (max-abs / 127). Blobs joined by element-wise
// adds or channel concatenation must share a scale (they meet in one
// arithmetic domain / one memory cube), so their groups are unified to the
// maximum.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "compiler/network.hpp"
#include "compiler/weights.hpp"

namespace nvsoc::compiler {

class CalibrationTable {
 public:
  /// Scale such that real_value ~= scale * int8_value.
  float blob_scale(const std::string& blob) const;
  void set_blob_scale(const std::string& blob, float scale);

  const std::map<std::string, float>& all() const { return scales_; }

  /// Text round-trip ("<blob> <scale>" per line), the distributable
  /// calibration-table artifact.
  std::string to_text() const;
  /// The reader half of the calibration-table artifact (round-trip tests).
  static CalibrationTable from_text(const std::string& text);

 private:
  std::map<std::string, float> scales_;
};

/// Generate a calibration table from one or more calibration inputs.
CalibrationTable calibrate(const Network& network, const NetWeights& weights,
                           std::span<const std::vector<float>> inputs);

/// Convenience overload for a single input.
CalibrationTable calibrate(const Network& network, const NetWeights& weights,
                           std::span<const float> input);

}  // namespace nvsoc::compiler
