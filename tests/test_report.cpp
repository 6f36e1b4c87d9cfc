// Per-layer profiling report tests.
#include <gtest/gtest.h>

#include "core/report.hpp"
#include "models/models.hpp"
#include "runtime/inference_session.hpp"

namespace nvsoc::core {
namespace {

const PreparedModel& prepared() {
  static runtime::InferenceSession session(models::lenet5());
  static const PreparedModel staged = session.prepared();
  return staged;
}

TEST(Report, ProfileAlignsWithLoadable) {
  const auto profile =
      build_profile(prepared().loadable(), prepared().vp().op_records);
  ASSERT_EQ(profile.layers.size(), prepared().loadable().ops.size());
  EXPECT_EQ(profile.total_cycles, prepared().vp().total_cycles -
                                      (prepared().vp().total_cycles -
                                       profile.total_cycles));
  // Launch order is monotone and names carry the fused IR layers.
  Cycle last_launch = 0;
  for (const auto& layer : profile.layers) {
    EXPECT_GE(layer.launch, last_launch);
    EXPECT_GT(layer.duration, 0u);
    EXPECT_FALSE(layer.name.empty());
    last_launch = layer.launch;
  }
  EXPECT_EQ(profile.layers[0].name, "conv1");
  EXPECT_GT(profile.total_traffic_bytes(), 400000u);  // >= weight bytes
}

TEST(Report, HotspotsAreSortedByDuration) {
  const auto profile =
      build_profile(prepared().loadable(), prepared().vp().op_records);
  const auto top = profile.hotspots(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_GE(top[0].duration, top[1].duration);
  EXPECT_GE(top[1].duration, top[2].duration);
  // LeNet's heaviest layer is the big ip1 FC (weight-traffic dominated).
  EXPECT_NE(top[0].name.find("ip1"), std::string::npos);
}

TEST(Report, FormatsAsTable) {
  const auto profile =
      build_profile(prepared().loadable(), prepared().vp().op_records);
  const std::string text = format_profile(profile, 100 * kMHz);
  EXPECT_NE(text.find("layer"), std::string::npos);
  EXPECT_NE(text.find("conv1"), std::string::npos);
  EXPECT_NE(text.find("total:"), std::string::npos);
  // Truncation with max_rows.
  const std::string brief = format_profile(profile, 100 * kMHz, 2);
  EXPECT_NE(brief.find("more layers"), std::string::npos);
}

TEST(Report, BoundednessClassification) {
  const auto profile =
      build_profile(prepared().loadable(), prepared().vp().op_records);
  const double fraction = profile.compute_bound_fraction();
  EXPECT_GE(fraction, 0.0);
  EXPECT_LE(fraction, 1.0);
}

}  // namespace
}  // namespace nvsoc::core
