// NVDLA functional-unit tests: convolution / SDP / PDP / CDP math against
// naive references, INT8 and FP16 paths, grouped convolution, a seeded
// differential sweep of every int8 conv kernel variant the host can run,
// the packed-weights fallback of a replayed conv, and cycle model
// properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "common/bitutil.hpp"
#include "common/fp16.hpp"
#include "common/rng.hpp"
#include "common/strfmt.hpp"
#include "compiler/network.hpp"
#include "models/models.hpp"
#include "nvdla/conv_kernel.hpp"
#include "nvdla/ops.hpp"
#include "nvdla/replay.hpp"

namespace nvsoc::nvdla {
namespace {

CubeBuffer make_cube_i8(CubeDims dims, Rng& rng, std::uint32_t atom = 8) {
  CubeBuffer cube(SurfaceDesc::packed(0, dims, Precision::kInt8, atom));
  for (std::uint32_t c = 0; c < dims.c; ++c) {
    for (std::uint32_t h = 0; h < dims.h; ++h) {
      for (std::uint32_t w = 0; w < dims.w; ++w) {
        cube.set_i8(c, h, w, static_cast<std::int8_t>(rng.next_range(-128, 127)));
      }
    }
  }
  return cube;
}

TEST(Surface, OffsetsArePackedAtomLayout) {
  const SurfaceDesc d =
      SurfaceDesc::packed(0x1000, {4, 3, 20}, Precision::kInt8, 8);
  EXPECT_EQ(d.channels_per_atom(), 8u);
  EXPECT_EQ(d.num_surfaces(), 3u);  // ceil(20/8)
  EXPECT_EQ(d.line_stride, 4u * 8u);
  EXPECT_EQ(d.surf_stride, 4u * 8u * 3u);
  EXPECT_EQ(d.span_bytes(), 3u * d.surf_stride);
  // element (c=9, h=1, w=2): surface 1, channel 1 within atom
  EXPECT_EQ(d.offset_of(9, 1, 2), 1u * d.surf_stride + 1u * d.line_stride +
                                     2u * 8u + 1u);
}

TEST(Surface, Fp16ElementsAreTwoBytes) {
  const SurfaceDesc d =
      SurfaceDesc::packed(0, {2, 2, 16}, Precision::kFp16, 32);
  EXPECT_EQ(d.channels_per_atom(), 16u);
  CubeBuffer cube(d);
  cube.set(5, 1, 1, 2.5f);
  EXPECT_EQ(cube.get(5, 1, 1), 2.5f);
}

TEST(Conv, MatchesNaiveReferenceInt8) {
  Rng rng(11);
  const CubeDims in_dims{7, 6, 5};
  CubeBuffer input = make_cube_i8(in_dims, rng);

  ConvOp op;
  op.precision = Precision::kInt8;
  op.input = input.desc();
  op.kernel_w = 3;
  op.kernel_h = 3;
  op.kernel_c = 5;
  op.kernel_k = 4;
  op.pad_left = op.pad_right = op.pad_top = op.pad_bottom = 1;
  op.stride_x = op.stride_y = 2;
  op.out_w = 4;
  op.out_h = 3;

  std::vector<std::uint8_t> weights(4 * 5 * 3 * 3);
  for (auto& w : weights) {
    w = static_cast<std::uint8_t>(rng.next_range(-128, 127));
  }
  op.weight_bytes = static_cast<std::uint32_t>(weights.size());

  const ConvAccumulators acc = conv_execute(op, input, weights);

  // Naive reference.
  for (std::uint32_t k = 0; k < 4; ++k) {
    for (std::uint32_t oy = 0; oy < 3; ++oy) {
      for (std::uint32_t ox = 0; ox < 4; ++ox) {
        std::int64_t expected = 0;
        for (std::uint32_t c = 0; c < 5; ++c) {
          for (std::uint32_t r = 0; r < 3; ++r) {
            for (std::uint32_t s = 0; s < 3; ++s) {
              const std::int64_t iy = oy * 2 - 1 + r;
              const std::int64_t ix = ox * 2 - 1 + s;
              if (iy < 0 || iy >= 6 || ix < 0 || ix >= 7) continue;
              const auto wv = static_cast<std::int8_t>(
                  weights[((k * 5 + c) * 3 + r) * 3 + s]);
              expected += input.get_i8(c, iy, ix) * wv;
            }
          }
        }
        EXPECT_EQ(acc.i32[acc.index(k, oy, ox)], expected)
            << k << "," << oy << "," << ox;
      }
    }
  }
}

TEST(Conv, GroupedConvolutionSlicesChannels) {
  Rng rng(13);
  const CubeDims in_dims{4, 4, 6};  // 2 groups x 3 channels
  CubeBuffer input = make_cube_i8(in_dims, rng);

  ConvOp op;
  op.input = input.desc();
  op.kernel_w = op.kernel_h = 1;
  op.kernel_c = 3;
  op.kernel_k = 4;  // 2 kernels per group
  op.groups = 2;
  op.out_w = 4;
  op.out_h = 4;

  std::vector<std::uint8_t> weights(4 * 3);
  for (auto& w : weights) {
    w = static_cast<std::uint8_t>(rng.next_range(-10, 10));
  }
  op.weight_bytes = static_cast<std::uint32_t>(weights.size());
  const ConvAccumulators acc = conv_execute(op, input, weights);

  // Kernel 3 belongs to group 1 -> reads channels 3..5 only.
  std::int64_t expected = 0;
  for (std::uint32_t c = 0; c < 3; ++c) {
    expected += input.get_i8(3 + c, 2, 2) *
                static_cast<std::int8_t>(weights[3 * 3 + c]);
  }
  EXPECT_EQ(acc.i32[acc.index(3, 2, 2)], expected);
}

TEST(Conv, DepthwiseEqualsPerChannelFilter) {
  Rng rng(17);
  const CubeDims in_dims{5, 5, 4};
  CubeBuffer input = make_cube_i8(in_dims, rng);
  ConvOp op;
  op.input = input.desc();
  op.kernel_w = op.kernel_h = 3;
  op.kernel_c = 1;
  op.kernel_k = 4;
  op.groups = 4;  // depthwise
  op.pad_left = op.pad_right = op.pad_top = op.pad_bottom = 1;
  op.out_w = op.out_h = 5;
  std::vector<std::uint8_t> weights(4 * 9, 0);
  weights[0 * 9 + 4] = 1;  // identity kernels (center tap)
  weights[1 * 9 + 4] = 2;
  weights[2 * 9 + 4] = 3;
  weights[3 * 9 + 4] = 4;
  op.weight_bytes = static_cast<std::uint32_t>(weights.size());
  const ConvAccumulators acc = conv_execute(op, input, weights);
  for (std::uint32_t c = 0; c < 4; ++c) {
    EXPECT_EQ(acc.i32[acc.index(c, 2, 2)],
              input.get_i8(c, 2, 2) * static_cast<int>(c + 1));
  }
}

TEST(Conv, Fp16PathAccumulatesInFloat) {
  const CubeDims in_dims{2, 2, 1};
  CubeBuffer input(SurfaceDesc::packed(0, in_dims, Precision::kFp16, 32));
  input.set(0, 0, 0, 1.5f);
  input.set(0, 0, 1, -2.0f);
  input.set(0, 1, 0, 0.25f);
  input.set(0, 1, 1, 4.0f);

  ConvOp op;
  op.precision = Precision::kFp16;
  op.input = input.desc();
  op.kernel_w = op.kernel_h = 2;
  op.kernel_c = 1;
  op.kernel_k = 1;
  op.out_w = op.out_h = 1;
  std::vector<std::uint8_t> weights(4 * 2);
  const float wvals[4] = {1.0f, 0.5f, -1.0f, 0.25f};
  for (int i = 0; i < 4; ++i) {
    const std::uint16_t bits = float_to_half_bits(wvals[i]);
    weights[2 * i] = static_cast<std::uint8_t>(bits);
    weights[2 * i + 1] = static_cast<std::uint8_t>(bits >> 8);
  }
  op.weight_bytes = 8;
  const ConvAccumulators acc = conv_execute(op, input, weights);
  EXPECT_FLOAT_EQ(acc.f32[0], 1.5f * 1.0f + (-2.0f) * 0.5f +
                                  0.25f * (-1.0f) + 4.0f * 0.25f);
}

// ---------------------------------------------------------------------------
// Differential sweep: the int8 conv kernel against a naive int64 reference
// ---------------------------------------------------------------------------

/// Naive reference: one int64 sum per output, taps outside the input read
/// pad_value, saturated to int32 like the accumulator.
std::vector<std::int32_t> naive_conv_i8(const ConvOp& op,
                                        const CubeBuffer& input,
                                        std::span<const std::uint8_t> weights) {
  const CubeDims& in = input.desc().dims;
  // Each input plane framed by pad_value cells, so the tap loop below
  // needs no bounds checks.
  const std::size_t pw = in.w + op.pad_left + op.pad_right + op.kernel_w;
  const std::size_t ph = in.h + op.pad_top + op.pad_bottom + op.kernel_h;
  std::vector<std::int64_t> padded(in.c * ph * pw, op.pad_value);
  for (std::uint32_t c = 0; c < in.c; ++c) {
    for (std::uint32_t y = 0; y < in.h; ++y) {
      for (std::uint32_t x = 0; x < in.w; ++x) {
        padded[(c * ph + y + op.pad_top) * pw + x + op.pad_left] =
            input.get_i8(c, y, x);
      }
    }
  }
  const std::uint32_t G = std::max(1u, op.groups);
  const std::uint32_t k_per_group = op.kernel_k / G;
  const auto* wt = reinterpret_cast<const std::int8_t*>(weights.data());
  std::vector<std::int32_t> out;
  out.reserve(static_cast<std::size_t>(op.kernel_k) * op.out_h * op.out_w);
  for (std::uint32_t k = 0; k < op.kernel_k; ++k) {
    const std::uint32_t c_base = (k / k_per_group) * op.kernel_c;
    for (std::uint32_t oy = 0; oy < op.out_h; ++oy) {
      for (std::uint32_t ox = 0; ox < op.out_w; ++ox) {
        std::int64_t sum = 0;
        const std::int8_t* w =
            wt + static_cast<std::size_t>(k) * op.kernel_c * op.kernel_h *
                     op.kernel_w;
        for (std::uint32_t c = 0; c < op.kernel_c; ++c) {
          for (std::uint32_t r = 0; r < op.kernel_h; ++r) {
            const std::int64_t* row =
                padded.data() +
                ((c_base + c) * ph + oy * op.stride_y + r) * pw +
                ox * op.stride_x;
            for (std::uint32_t s = 0; s < op.kernel_w; ++s) {
              sum += row[s] * *w++;
            }
          }
        }
        out.push_back(saturate_i32(sum));
      }
    }
  }
  return out;
}

struct SweepCase {
  std::string label;
  CubeDims in;
  ConvOp op;  ///< op.input is filled in by run_sweep_case
  std::uint32_t atom = 8;
  std::uint32_t line_gap = 0;  ///< extra bytes per line
  std::uint32_t surf_gap = 0;  ///< extra bytes per surface
};

std::string describe(const SweepCase& sc, std::uint64_t seed) {
  const ConvOp& op = sc.op;
  return strfmt(
      "seed {} {}: in {}x{}x{} (atom {}, line gap {}, surf gap {}) "
      "k {} c {} r {} s {} groups {} stride {}x{} pad l{} t{} r{} b{} "
      "pad_value {} out {}x{}",
      seed, sc.label, sc.in.w, sc.in.h, sc.in.c, sc.atom, sc.line_gap,
      sc.surf_gap, op.kernel_k, op.kernel_c, op.kernel_h, op.kernel_w,
      op.groups, op.stride_x, op.stride_y, op.pad_left, op.pad_top,
      op.pad_right, op.pad_bottom, op.pad_value, op.out_w, op.out_h);
}

/// Fill the case with seeded data (`extreme` pins every input and weight
/// to -128, the largest product), run every kernel variant the host can
/// run — on the raw weights and on their pack — against the naive
/// reference, and report the first mismatch with the variant, seed and
/// shape.
void run_sweep_case(SweepCase sc, std::uint64_t seed, bool extreme = false) {
  Rng rng(seed);
  SurfaceDesc desc = SurfaceDesc::packed(0, sc.in, Precision::kInt8, sc.atom);
  desc.line_stride += sc.line_gap;
  desc.surf_stride = desc.line_stride * sc.in.h + sc.surf_gap;
  CubeBuffer input(desc);
  for (auto& b : input.bytes()) {
    b = static_cast<std::uint8_t>(extreme ? -128 : rng.next_range(-128, 127));
  }
  ConvOp& op = sc.op;
  op.precision = Precision::kInt8;
  op.input = desc;
  std::vector<std::uint8_t> weights(static_cast<std::size_t>(op.kernel_k) *
                                    op.kernel_c * op.kernel_h * op.kernel_w);
  for (auto& w : weights) {
    w = static_cast<std::uint8_t>(extreme ? -128 : rng.next_range(-128, 127));
  }
  op.weight_bytes = static_cast<std::uint32_t>(weights.size());

  const std::vector<std::int32_t> want = naive_conv_i8(op, input, weights);
  const auto pack = pack_conv_weights(op, weights);
  ASSERT_NE(pack, nullptr) << describe(sc, seed);
  for (const internal::Int8ConvVariant& variant :
       internal::runnable_int8_conv_variants()) {
    for (const PackedConvWeights* packed :
         {static_cast<const PackedConvWeights*>(nullptr), pack.get()}) {
      const ConvAccumulators acc =
          internal::conv_execute_with(variant, op, input, weights, packed);
      ASSERT_EQ(acc.i32.size(), want.size()) << describe(sc, seed);
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (acc.i32[i] != want[i]) {
          const std::size_t plane =
              static_cast<std::size_t>(op.out_h) * op.out_w;
          ADD_FAILURE() << variant.isa << (packed ? " packed " : " ")
                        << describe(sc, seed) << ": first mismatch at k "
                        << i / plane << " y " << i % plane / op.out_w
                        << " x " << i % op.out_w << ": " << acc.i32[i]
                        << " != " << want[i];
          return;
        }
      }
    }
  }
}

/// Every conv and inner-product layer of `net`, lowered the way the
/// compiler lowers it (an inner product is a conv whose kernel covers the
/// whole input plane). `max_plane` crops the input plane (kernel, stride
/// and padding kept) so the naive reference stays cheap on large models;
/// duplicate shapes are dropped.
std::vector<SweepCase> model_conv_cases(const compiler::Network& net,
                                        std::uint32_t max_plane) {
  std::vector<SweepCase> cases;
  std::set<std::string> seen;
  for (const compiler::Layer& layer : net.layers()) {
    if (layer.kind != compiler::LayerKind::kConvolution &&
        layer.kind != compiler::LayerKind::kInnerProduct) {
      continue;
    }
    const compiler::BlobShape& in = net.blob_shape(layer.bottoms.at(0));
    SweepCase sc;
    sc.label = net.name() + "/" + layer.name;
    ConvOp& op = sc.op;
    op.kernel_k = layer.conv.num_output;
    if (layer.kind == compiler::LayerKind::kInnerProduct) {
      sc.in = {in.w, in.h, in.c};
      op.kernel_h = in.h;
      op.kernel_w = in.w;
      op.kernel_c = in.c;
      op.out_w = op.out_h = 1;
    } else {
      const compiler::ConvParams& p = layer.conv;
      sc.in = {std::min(in.w, max_plane), std::min(in.h, max_plane), in.c};
      op.kernel_h = p.kernel_h;
      op.kernel_w = p.kernel_w;
      op.kernel_c = in.c / p.groups;
      op.groups = p.groups;
      op.stride_x = p.stride_w;
      op.stride_y = p.stride_h;
      op.pad_left = op.pad_right = p.pad_w;
      op.pad_top = op.pad_bottom = p.pad_h;
      op.out_w = (sc.in.w + 2 * p.pad_w - p.kernel_w) / p.stride_w + 1;
      op.out_h = (sc.in.h + 2 * p.pad_h - p.kernel_h) / p.stride_h + 1;
    }
    SweepCase key = sc;
    key.label.clear();
    if (seen.insert(describe(key, 0)).second) cases.push_back(sc);
  }
  return cases;
}

TEST(ConvSweep, ModelShapesMatchTheNaiveReference) {
  struct Model {
    compiler::Network (*build)();
    std::uint32_t max_plane;
  };
  // LeNet-5 and ResNet-18 run at full size (ResNet-18's largest layers
  // span more than one pixel block); ResNet-50's planes are cropped to
  // 7x7 (their size in the last stage), which keeps every channel,
  // kernel, stride and padding.
  const Model models[] = {{models::lenet5, 1u << 16},
                          {models::resnet18_cifar, 1u << 16},
                          {models::resnet50, 7}};
  std::uint64_t seed = 1000;
  std::size_t cases = 0;
  for (const Model& model : models) {
    for (const SweepCase& sc : model_conv_cases(model.build(), model.max_plane)) {
      run_sweep_case(sc, seed++);
      ++cases;
    }
  }
  EXPECT_GE(cases, 20u);
}

TEST(ConvSweep, RandomShapesMatchTheNaiveReference) {
  // Every case draws stride, asymmetric padding, pad_value (the int8
  // extremes included), groups (depthwise included), kernel counts that
  // are not a multiple of 4, odd output planes and surface gaps from one
  // seed; every fourth case is a fully-connected 1x1-output shape.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    SweepCase sc;
    ConvOp& op = sc.op;
    sc.label = "random";
    sc.atom = rng.next_below(2) == 0 ? 8 : 32;
    sc.line_gap = static_cast<std::uint32_t>(rng.next_below(3)) * sc.atom;
    sc.surf_gap = static_cast<std::uint32_t>(rng.next_below(3)) * sc.atom;
    const std::uint32_t groups_pick = static_cast<std::uint32_t>(rng.next_below(4));
    const std::uint32_t c = static_cast<std::uint32_t>(rng.next_range(1, 20));
    op.groups = groups_pick == 0 ? c : groups_pick == 1 ? 2 : 1;  // 0: depthwise
    op.kernel_c = groups_pick == 0 ? 1 : c;
    op.kernel_k =
        op.groups * static_cast<std::uint32_t>(rng.next_range(1, 11));
    sc.in.c = op.kernel_c * op.groups;
    sc.in.w = static_cast<std::uint32_t>(rng.next_range(1, 19));
    sc.in.h = static_cast<std::uint32_t>(rng.next_range(1, 19));
    const std::int32_t pad_values[] = {0, 0, -128, 127,
                                       static_cast<std::int32_t>(
                                           rng.next_range(-128, 127))};
    op.pad_value = pad_values[rng.next_below(5)];
    if (seed % 4 == 0) {
      op.kernel_w = sc.in.w;
      op.kernel_h = sc.in.h;
      op.out_w = op.out_h = 1;
    } else {
      op.kernel_w = static_cast<std::uint32_t>(rng.next_range(1, 11));
      op.kernel_h = static_cast<std::uint32_t>(rng.next_range(1, 5));
      op.stride_x = static_cast<std::uint32_t>(rng.next_range(1, 3));
      op.stride_y = static_cast<std::uint32_t>(rng.next_range(1, 3));
      op.pad_left = static_cast<std::uint32_t>(rng.next_range(0, 3));
      op.pad_right = static_cast<std::uint32_t>(rng.next_range(0, 3));
      op.pad_top = static_cast<std::uint32_t>(rng.next_range(0, 3));
      op.pad_bottom = static_cast<std::uint32_t>(rng.next_range(0, 3));
      const std::uint32_t span_w = sc.in.w + op.pad_left + op.pad_right;
      const std::uint32_t span_h = sc.in.h + op.pad_top + op.pad_bottom;
      if (span_w < op.kernel_w) op.kernel_w = span_w;
      if (span_h < op.kernel_h) op.kernel_h = span_h;
      op.out_w = (span_w - op.kernel_w) / op.stride_x + 1;
      op.out_h = (span_h - op.kernel_h) / op.stride_y + 1;
    }
    run_sweep_case(sc, seed);
  }
}

TEST(ConvSweep, TapCountsAroundTheInt32LimitMatchTheNaiveReference) {
  // 2^31 / (128·128) = 131072 taps is the first count the int32 fast path
  // refuses. One tap below it, all-(-128) data drives the sum to its
  // largest magnitude; at the limit the int64 reference walk takes over
  // (and saturates), as it does for pad values outside int8.
  for (const std::uint32_t taps : {131071u, 131072u}) {
    SweepCase sc;
    sc.label = strfmt("taps {}", taps);
    sc.in = {1, 1, taps};
    sc.op.kernel_w = sc.op.kernel_h = 1;
    sc.op.kernel_c = taps;
    sc.op.kernel_k = 3;
    sc.op.out_w = sc.op.out_h = 1;
    run_sweep_case(sc, 7, /*extreme=*/true);
    run_sweep_case(sc, 8);
  }
  for (const std::int32_t pad_value : {-129, 128, 1000}) {
    SweepCase sc;
    sc.label = "pad_value outside int8";
    sc.in = {5, 4, 3};
    sc.op.kernel_w = sc.op.kernel_h = 3;
    sc.op.kernel_c = 3;
    sc.op.kernel_k = 5;
    sc.op.pad_left = sc.op.pad_top = sc.op.pad_right = sc.op.pad_bottom = 1;
    sc.op.pad_value = pad_value;
    sc.op.out_w = 5;
    sc.op.out_h = 4;
    run_sweep_case(sc, 9);
  }
}

TEST(ConvSweep, RunsEveryVariantTheHostSupports) {
  // The sweeps above run each listed variant; the list must hold the
  // portable kernel, lead with the one conv_execute dispatches to, and
  // include the AVX2 kernel wherever the build has it and the CPU runs it.
  const auto variants = internal::runnable_int8_conv_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_STREQ(variants.front().isa, int8_conv_kernel_isa());
  EXPECT_STREQ(variants.back().isa, "portable");
#if defined(__x86_64__) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx2")) {
    EXPECT_STREQ(variants.front().isa, "avx2");
    EXPECT_EQ(variants.size(), 2u);
  }
#endif
}

/// Flat byte memory for replaying single ops.
class FlatMemory final : public ReplayMemory {
 public:
  explicit FlatMemory(std::size_t bytes) : bytes_(bytes, 0) {}
  void read(Addr addr, std::span<std::uint8_t> out) const override {
    std::memcpy(out.data(), bytes_.data() + addr, out.size());
  }
  void write(Addr addr, std::span<const std::uint8_t> data) override {
    std::memcpy(bytes_.data() + addr, data.data(), data.size());
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

TEST(ConvPack, ReplayWithMismatchedWeightBytesReordersWhatItRead) {
  // A replayed conv whose weight bytes in memory differ from its pack's
  // source by one bit must ignore the pack: its output is conv_execute's
  // on the bytes actually read. Small values keep every sum inside int8,
  // so the flipped bit shows in the output instead of saturating away.
  Rng rng(21);
  const CubeDims in_dims{6, 5, 3};
  ReplayOp op;
  op.kind = ReplayOp::Kind::kConv;
  ConvOp& conv = op.conv;
  conv.input = SurfaceDesc::packed(0x100, in_dims, Precision::kInt8, 8);
  conv.kernel_w = conv.kernel_h = 3;
  conv.kernel_c = 3;
  conv.kernel_k = 5;
  conv.pad_left = conv.pad_right = conv.pad_top = conv.pad_bottom = 1;
  conv.out_w = 6;
  conv.out_h = 5;
  conv.weight_addr = 0x1000;
  std::vector<std::uint8_t> weights(5 * 3 * 3 * 3);
  for (auto& w : weights) w = static_cast<std::uint8_t>(rng.next_range(-1, 1));
  conv.weight_bytes = static_cast<std::uint32_t>(weights.size());
  SdpOp& sdp = op.sdp;
  sdp.dims = {6, 5, 5};
  sdp.dst = SurfaceDesc::packed(0x2000, sdp.dims, Precision::kInt8, 8);
  op.packed_weights = pack_conv_weights(conv, weights);
  ASSERT_NE(op.packed_weights, nullptr);

  CubeBuffer input(conv.input);
  for (auto& b : input.bytes()) {
    b = static_cast<std::uint8_t>(rng.next_range(-3, 3));
  }
  std::vector<std::uint8_t> flipped = weights;
  flipped[0] ^= 0x01;

  const auto replay_with = [&](const std::vector<std::uint8_t>& in_memory) {
    FlatMemory mem(0x3000);
    mem.write(conv.input.base, input.bytes());
    mem.write(conv.weight_addr, in_memory);
    replay_op(NvdlaConfig::small(), op, mem);
    std::vector<std::uint8_t> out(sdp.dst.span_bytes());
    mem.read(sdp.dst.base, out);
    return out;
  };
  const auto direct = [&](const std::vector<std::uint8_t>& bytes) {
    const ConvAccumulators acc = conv_execute(conv, input, bytes);
    CubeBuffer out(sdp.dst);
    sdp_execute(sdp, &acc, nullptr, {}, {}, out);
    return std::vector<std::uint8_t>(out.bytes().begin(), out.bytes().end());
  };

  EXPECT_EQ(replay_with(weights), direct(weights));
  const std::vector<std::uint8_t> want = direct(flipped);
  ASSERT_NE(want, direct(weights)) << "the flipped bit must change the output";
  EXPECT_EQ(replay_with(flipped), want);
}

TEST(Sdp, BiasCvtReluPipeline) {
  ConvAccumulators acc;
  acc.k = 2;
  acc.h = 1;
  acc.w = 2;
  acc.i32 = {100, -300, 50, 1000};

  SdpOp op;
  op.dims = {2, 1, 2};
  op.dst = SurfaceDesc::packed(0, op.dims, Precision::kInt8, 8);
  op.bias_enable = true;
  op.relu_enable = true;
  op.cvt_scale = 1024;
  op.cvt_shift = 12;  // effective multiply by 0.25

  std::vector<std::uint8_t> bias(2 * 4);
  const std::int32_t biases[2] = {20, -100};
  std::memcpy(bias.data(), biases, sizeof(biases));

  CubeBuffer out(op.dst);
  sdp_execute(op, &acc, nullptr, bias, {}, out);
  // k0: (100+20)*0.25 = 30 ; (-300+20)*0.25 = -70 -> relu -> 0
  EXPECT_EQ(out.get_i8(0, 0, 0), 30);
  EXPECT_EQ(out.get_i8(0, 0, 1), 0);
  // k1: (50-100)*0.25 -> relu 0 ; (1000-100)*0.25 = 225 -> saturate 127
  EXPECT_EQ(out.get_i8(1, 0, 0), 0);
  EXPECT_EQ(out.get_i8(1, 0, 1), 127);
}

TEST(Sdp, EltwiseAddsOperandCube) {
  ConvAccumulators acc;
  acc.k = 1;
  acc.h = 1;
  acc.w = 2;
  acc.i32 = {40, -10};

  SdpOp op;
  op.dims = {2, 1, 1};
  op.dst = SurfaceDesc::packed(0, op.dims, Precision::kInt8, 8);
  op.eltwise_enable = true;
  op.operand_line_stride = op.dst.line_stride;
  op.operand_surf_stride = op.dst.surf_stride;
  op.cvt_scale = 1;
  op.cvt_shift = 0;

  CubeBuffer operand(op.dst);
  operand.set_i8(0, 0, 0, 5);
  operand.set_i8(0, 0, 1, -20);
  CubeBuffer out(op.dst);
  sdp_execute(op, &acc, nullptr, {}, operand.bytes(), out);
  EXPECT_EQ(out.get_i8(0, 0, 0), 45);
  EXPECT_EQ(out.get_i8(0, 0, 1), -30);
}

TEST(Sdp, MemorySourceMode) {
  SdpOp op;
  op.dims = {2, 2, 1};
  op.src = SurfaceDesc::packed(0, op.dims, Precision::kInt8, 8);
  op.src.base = 0x100;  // non-zero: memory mode
  op.dst = SurfaceDesc::packed(0, op.dims, Precision::kInt8, 8);
  op.relu_enable = true;
  op.cvt_scale = 1;
  op.cvt_shift = 0;
  CubeBuffer src(op.src);
  src.set_i8(0, 0, 0, -5);
  src.set_i8(0, 1, 1, 7);
  CubeBuffer out(op.dst);
  sdp_execute(op, nullptr, &src, {}, {}, out);
  EXPECT_EQ(out.get_i8(0, 0, 0), 0);
  EXPECT_EQ(out.get_i8(0, 1, 1), 7);
}

TEST(Sdp, Int8PipelineMatchesRoundHalfAwayFromZeroReference) {
  // Seeded sweep of the int8 flying-mode pipeline against the converter's
  // definition: (acc + bias) · scale, shifted right by `shift` bits after
  // adding half an output step away from zero, then + operand, ReLU and
  // int8 saturation. Accumulator signs are random, as in real layers.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    SdpOp op;
    op.dims = {static_cast<std::uint32_t>(rng.next_range(1, 9)),
               static_cast<std::uint32_t>(rng.next_range(1, 5)),
               static_cast<std::uint32_t>(rng.next_range(1, 20))};
    op.dst = SurfaceDesc::packed(0, op.dims, Precision::kInt8, 8);
    op.bias_enable = rng.next_below(2) == 0;
    op.relu_enable = rng.next_below(2) == 0;
    op.eltwise_enable = rng.next_below(2) == 0;
    op.operand_line_stride = op.dst.line_stride;
    op.operand_surf_stride = op.dst.surf_stride;
    op.cvt_scale = static_cast<std::int32_t>(rng.next_range(-40000, 40000));
    op.cvt_shift = static_cast<std::uint32_t>(rng.next_range(0, 24));

    ConvAccumulators acc;
    acc.k = op.dims.c;
    acc.h = op.dims.h;
    acc.w = op.dims.w;
    for (std::uint64_t i = 0; i < op.dims.elements(); ++i) {
      acc.i32.push_back(
          static_cast<std::int32_t>(rng.next_range(-2000000, 2000000)));
    }
    std::vector<std::int32_t> bias(op.dims.c);
    for (auto& b : bias) {
      b = static_cast<std::int32_t>(rng.next_range(-50000, 50000));
    }
    std::vector<std::uint8_t> bias_bytes(bias.size() * 4);
    std::memcpy(bias_bytes.data(), bias.data(), bias_bytes.size());
    CubeBuffer operand = make_cube_i8(op.dims, rng);

    CubeBuffer out(op.dst);
    sdp_execute(op, &acc, nullptr, bias_bytes, operand.bytes(), out);
    for (std::uint32_t c = 0; c < op.dims.c; ++c) {
      for (std::uint32_t y = 0; y < op.dims.h; ++y) {
        for (std::uint32_t x = 0; x < op.dims.w; ++x) {
          std::int64_t v = acc.i32[acc.index(c, y, x)];
          if (op.bias_enable) v += bias[c];
          v *= op.cvt_scale;
          if (op.cvt_shift > 0) {
            const std::int64_t half = std::int64_t{1} << (op.cvt_shift - 1);
            v = (v + (v >= 0 ? half : -half)) >> op.cvt_shift;
          }
          if (op.eltwise_enable) v += operand.get_i8(c, y, x);
          if (op.relu_enable && v < 0) v = 0;
          ASSERT_EQ(out.get_i8(c, y, x), saturate_i8(v))
              << "seed " << seed << " at " << c << "," << y << "," << x;
        }
      }
    }
  }
}

TEST(Pdp, MaxAndAveragePooling) {
  Rng rng(23);
  const CubeDims in_dims{4, 4, 2};
  CubeBuffer src = make_cube_i8(in_dims, rng);
  PdpOp op;
  op.src = src.desc();
  op.dst = SurfaceDesc::packed(0, {2, 2, 2}, Precision::kInt8, 8);
  op.kernel_w = op.kernel_h = 2;
  op.stride_x = op.stride_y = 2;

  CubeBuffer out(op.dst);
  pdp_execute(op, src, out);
  for (std::uint32_t c = 0; c < 2; ++c) {
    for (std::uint32_t oy = 0; oy < 2; ++oy) {
      for (std::uint32_t ox = 0; ox < 2; ++ox) {
        std::int32_t expected = -128;
        for (unsigned r = 0; r < 2; ++r) {
          for (unsigned s = 0; s < 2; ++s) {
            expected = std::max<std::int32_t>(
                expected, src.get_i8(c, oy * 2 + r, ox * 2 + s));
          }
        }
        EXPECT_EQ(out.get_i8(c, oy, ox), expected);
      }
    }
  }

  op.average = true;
  CubeBuffer avg_out(op.dst);
  pdp_execute(op, src, avg_out);
  // Average of window (0,0) channel 0, rounded to nearest.
  const int sum = src.get_i8(0, 0, 0) + src.get_i8(0, 0, 1) +
                  src.get_i8(0, 1, 0) + src.get_i8(0, 1, 1);
  const int expected =
      sum >= 0 ? (sum + 2) / 4 : -((-sum + 2) / 4);
  EXPECT_EQ(avg_out.get_i8(0, 0, 0), expected);
}

TEST(Pdp, PaddingIsExcludedFromWindows) {
  const CubeDims in_dims{2, 2, 1};
  CubeBuffer src(SurfaceDesc::packed(0, in_dims, Precision::kInt8, 8));
  src.set_i8(0, 0, 0, -10);
  src.set_i8(0, 0, 1, -20);
  src.set_i8(0, 1, 0, -30);
  src.set_i8(0, 1, 1, -40);
  PdpOp op;
  op.src = src.desc();
  op.dst = SurfaceDesc::packed(0, {2, 2, 1}, Precision::kInt8, 8);
  op.kernel_w = op.kernel_h = 3;
  op.stride_x = op.stride_y = 1;
  op.pad_left = op.pad_top = op.pad_right = op.pad_bottom = 1;
  CubeBuffer out(op.dst);
  pdp_execute(op, src, out);
  // Max over the in-bounds part of each window (padding must not inject 0).
  EXPECT_EQ(out.get_i8(0, 0, 0), -10);
  EXPECT_EQ(out.get_i8(0, 1, 1), -10);
}

TEST(Cdp, LrnNormalisesAcrossChannels) {
  const CubeDims dims{1, 1, 8};
  CubeBuffer src(SurfaceDesc::packed(0, dims, Precision::kFp16, 32));
  for (std::uint32_t c = 0; c < 8; ++c) src.set(c, 0, 0, 1.0f);
  CdpOp op;
  op.precision = Precision::kFp16;
  op.src = src.desc();
  op.dst = src.desc();
  op.local_size = 5;
  op.alpha_q16 = static_cast<std::uint32_t>(std::lround(0.5 * 65536));
  op.beta_q16 = static_cast<std::uint32_t>(std::lround(1.0 * 65536));
  op.k_q16 = 1 << 16;
  CubeBuffer out(op.dst);
  cdp_execute(op, src, out);
  // Middle channel: sum of squares over 5 neighbours = 5;
  // out = 1 / (1 + 0.5/5*5) = 1/1.5
  EXPECT_NEAR(out.get(4, 0, 0), 1.0f / 1.5f, 1e-3f);
  // Edge channel sees only 3 neighbours: 1/(1+0.3)
  EXPECT_NEAR(out.get(0, 0, 0), 1.0f / 1.3f, 1e-3f);
}

// --------------------------------------------------------------------------
// Cycle-model properties
// --------------------------------------------------------------------------

ConvOp cost_op(std::uint32_t c, std::uint32_t k, std::uint32_t hw,
               std::uint32_t kernel, std::uint32_t groups = 1) {
  ConvOp op;
  op.input = SurfaceDesc::packed(0, {hw, hw, c}, Precision::kInt8, 8);
  op.kernel_w = op.kernel_h = kernel;
  op.kernel_c = c / groups;
  op.kernel_k = k;
  op.groups = groups;
  op.out_w = op.out_h = hw;
  return op;
}

TEST(CycleModel, MoreMacsIsFaster) {
  const ConvOp op = cost_op(64, 64, 28, 3);
  const auto small_cost = conv_cost(NvdlaConfig::small(), op, 1000);
  auto full = NvdlaConfig::full();
  full.timing = NvdlaConfig::small().timing;  // isolate the MAC-array effect
  const auto full_cost = conv_cost(full, op, 1000);
  EXPECT_GT(small_cost.compute_cycles, full_cost.compute_cycles * 4);
}

TEST(CycleModel, DepthwiseIsInefficient) {
  // Same MAC count, depthwise vs dense: depthwise pays the atomic-C padding.
  const ConvOp dense = cost_op(64, 64, 28, 3);
  ConvOp dw = cost_op(64, 64, 28, 3, /*groups=*/64);
  const auto cfg = NvdlaConfig::small();
  const auto dense_cost = conv_cost(cfg, dense, 1000);
  const auto dw_cost = conv_cost(cfg, dw, 1000);
  // Dense does 64x the MACs of depthwise yet costs the same compute time
  // (depthwise wastes the whole channel dimension, modulo packing).
  EXPECT_NEAR(static_cast<double>(dw_cost.compute_cycles),
              static_cast<double>(dense_cost.compute_cycles) /
                  cfg.timing.grouped_channel_packing,
              dense_cost.compute_cycles * 0.1);
}

TEST(CycleModel, LargeInputsPayCbufRestreaming) {
  // Input larger than half the CBUF is re-streamed per atomic-K slice.
  const ConvOp small_in = cost_op(16, 128, 16, 3);
  const ConvOp big_in = cost_op(16, 128, 112, 3);
  const auto cfg = NvdlaConfig::small();
  const auto small_cost = conv_cost(cfg, small_in, 1000);
  const auto big_cost = conv_cost(cfg, big_in, 1000);
  const std::uint64_t small_input_bytes = 16 * 16 * 16;
  const std::uint64_t big_input_bytes =
      static_cast<std::uint64_t>(112) * 112 * 16;
  EXPECT_LT(small_cost.traffic_bytes,
            small_input_bytes * 2 + 128 * 16 * 9 + 2000);
  EXPECT_GT(big_cost.traffic_bytes, big_input_bytes * 10);  // 16 k-slices
}

TEST(CycleModel, SdpTrafficScalesWithModes) {
  SdpOp op;
  op.dims = {16, 16, 32};
  op.src.base = 0x100;
  const auto cfg = NvdlaConfig::small();
  const auto base = sdp_cost(cfg, op);
  op.eltwise_enable = true;
  const auto with_elt = sdp_cost(cfg, op);
  EXPECT_GT(with_elt.traffic_bytes, base.traffic_bytes);
}

TEST(CycleModel, CdpSerialCostDominates) {
  CdpOp op;
  op.src = SurfaceDesc::packed(0, {56, 56, 64}, Precision::kFp16, 32);
  op.dst = op.src;
  const auto cfg = NvdlaConfig::full();
  const auto cost = cdp_cost(cfg, op);
  EXPECT_EQ(cost.compute_cycles,
            56ull * 56 * 64 * cfg.timing.cdp_cycles_per_element + 1);
  EXPECT_GT(cost.compute_cycles, cost.dbb_cycles);
}

}  // namespace
}  // namespace nvsoc::nvdla
