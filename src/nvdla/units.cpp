// Functional models and cycle estimators for the NVDLA execution units.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/bitutil.hpp"
#include "common/fp16.hpp"
#include "common/strfmt.hpp"
#include "nvdla/conv_kernel.hpp"
#include "nvdla/ops.hpp"

// The int8 conv kernel gets an AVX2 variant, picked at run time by CPU
// feature, where the compiler can target it per function (GCC and Clang on
// x86-64). Elsewhere the portable variant is the only one.
#if defined(__x86_64__) && defined(__GNUC__) && defined(__has_attribute)
#if __has_attribute(target)
#define NVSOC_CONV_AVX2 1
#endif
#endif

namespace nvsoc::nvdla {

namespace {

/// Unpack a staged cube into a planar [c][h][w] array so that convolution
/// inner loops are straight array walks (the packed-atom offset arithmetic
/// would otherwise dominate runtime on ResNet-scale layers).
template <typename T>
std::vector<T> unpack_planar(const CubeBuffer& cube) {
  const auto& d = cube.desc();
  std::vector<T> out(d.dims.elements());
  std::size_t i = 0;
  for (std::uint32_t c = 0; c < d.dims.c; ++c) {
    for (std::uint32_t h = 0; h < d.dims.h; ++h) {
      for (std::uint32_t w = 0; w < d.dims.w; ++w, ++i) {
        if constexpr (std::is_same_v<T, std::int8_t>) {
          out[i] = cube.get_i8(c, h, w);
        } else {
          out[i] = cube.get(c, h, w);
        }
      }
    }
  }
  return out;
}

/// Host-endian scalar load from byte storage (no type-punned pointer).
template <typename T>
T load(const std::uint8_t* bytes) {
  T value;
  std::memcpy(&value, bytes, sizeof(T));
  return value;
}

/// An int8 conv op's weights reordered from the blob's [k][c][r][s] to
/// [k][r][s][c], the tap order of the kernel's channel-last patch rows.
std::vector<std::int8_t> reorder_krsc(const ConvOp& op,
                                      std::span<const std::uint8_t> weights) {
  const std::size_t C = op.kernel_c;
  const std::size_t R = op.kernel_h;
  const std::size_t S = op.kernel_w;
  const std::size_t crs = C * R * S;
  std::vector<std::int8_t> krsc(op.kernel_k * crs);
  for (std::size_t k = 0; k < op.kernel_k; ++k) {
    const std::uint8_t* src = weights.data() + k * crs;
    std::int8_t* dst = krsc.data() + k * crs;
    for (std::size_t c = 0; c < C; ++c) {
      for (std::size_t rs = 0; rs < R * S; ++rs) {
        dst[rs * C + c] = static_cast<std::int8_t>(src[c * R * S + rs]);
      }
    }
  }
  return krsc;
}

// Shape of the int8 convolution kernel: a register tile of kTileK kernels x
// kTileP output pixels of int32 accumulators, over patch and weight rows
// widened to int16 and padded to a multiple of kTapAlign taps (with zeros).
// The patch rows of one block of output pixels share a scratch budget of
// kPatchBlockBytes, so the patch scratch is bounded whatever the layer size.
constexpr std::size_t kTileK = 4;
constexpr std::size_t kTileP = 2;
constexpr std::size_t kTapAlign = 16;
constexpr std::size_t kPatchBlockBytes = std::size_t{128} << 10;

/// sum[t][u] = Σ_i w[t·pitch + i] · p[u·pitch + i] over `pitch` taps (a
/// multiple of kTapAlign). int16·int16 products accumulate in int32, which
/// the vectorizer lowers to multiply-add pairs; the eight accumulators
/// stay in registers for the whole row. Forced inline so each kernel
/// variant vectorizes it for its own instruction set.
[[gnu::always_inline]] inline void dot_tile(
    const std::int16_t* w, const std::int16_t* p, std::size_t pitch,
    std::int32_t (&sum)[kTileK][kTileP]) {
  const std::int16_t* w0 = w;
  const std::int16_t* w1 = w0 + pitch;
  const std::int16_t* w2 = w1 + pitch;
  const std::int16_t* w3 = w2 + pitch;
  const std::int16_t* p0 = p;
  const std::int16_t* p1 = p0 + pitch;
  std::int32_t s00 = 0, s01 = 0, s10 = 0, s11 = 0;
  std::int32_t s20 = 0, s21 = 0, s30 = 0, s31 = 0;
  for (std::size_t i = 0; i < pitch; ++i) {
    s00 += w0[i] * p0[i];
    s01 += w0[i] * p1[i];
    s10 += w1[i] * p0[i];
    s11 += w1[i] * p1[i];
    s20 += w2[i] * p0[i];
    s21 += w2[i] * p1[i];
    s30 += w3[i] * p0[i];
    s31 += w3[i] * p1[i];
  }
  sum[0][0] = s00;
  sum[0][1] = s01;
  sum[1][0] = s10;
  sum[1][1] = s11;
  sum[2][0] = s20;
  sum[2][1] = s21;
  sum[3][0] = s30;
  sum[3][1] = s31;
}

/// The int8 fast path, over [k][r][s][c] weights. The input is unpacked
/// once per call into a channel-last int16 image per group, [g][y][x][c],
/// with the padding border already filled with pad_value, so a patch row —
/// taps in [r][s][c] order — is R straight runs of S·C samples with no
/// bounds checks. Per group, patch rows are built for a block of output
/// pixels, then every kernel of the group runs over the block, kTileK
/// kernels x kTileP pixels at a time; a tile that is not full computes on
/// spare rows whose results are never stored. Requires sums that fit
/// int32. Inlined into one function per instruction-set variant.
[[gnu::always_inline]] inline void conv_int8_tiled(const ConvOp& op,
                                                   const CubeBuffer& input,
                                                   const std::int8_t* krsc,
                                                   std::int32_t* acc) {
  const SurfaceDesc& d = input.desc();
  const std::size_t C = op.kernel_c;
  const std::size_t R = op.kernel_h;
  const std::size_t S = op.kernel_w;
  const std::size_t G = std::max(1u, op.groups);
  const std::size_t k_per_group = op.kernel_k / G;
  const std::size_t taps = C * R * S;
  const std::size_t pitch = (taps + kTapAlign - 1) / kTapAlign * kTapAlign;
  const std::size_t outs = static_cast<std::size_t>(op.out_h) * op.out_w;
  if (outs == 0) return;

  // Padded image: exactly the rows and columns the output windows cover.
  const std::size_t img_h = (op.out_h - 1) * std::size_t{op.stride_y} + R;
  const std::size_t img_w = (op.out_w - 1) * std::size_t{op.stride_x} + S;
  const std::size_t line_elems = img_w * C;
  const std::size_t group_elems = img_h * line_elems;
  std::vector<std::int16_t> img(G * group_elems,
                                static_cast<std::int16_t>(op.pad_value));
  const std::size_t rows = std::min<std::size_t>(
      d.dims.h, img_h > op.pad_top ? img_h - op.pad_top : 0);
  const std::size_t cols = std::min<std::size_t>(
      d.dims.w, img_w > op.pad_left ? img_w - op.pad_left : 0);
  const std::uint8_t* bytes = input.bytes().data();
  for (std::size_t ch = 0; ch < G * C; ++ch) {
    const std::uint8_t* plane =
        bytes + d.offset_of(static_cast<std::uint32_t>(ch), 0, 0);
    std::int16_t* img_c = img.data() + (ch / C) * group_elems +
                          op.pad_top * line_elems + op.pad_left * C + ch % C;
    for (std::size_t y = 0; y < rows; ++y) {
      const std::uint8_t* e = plane + y * d.line_stride;
      std::int16_t* out = img_c + y * line_elems;
      for (std::size_t x = 0; x < cols; ++x) {
        out[x * C] = static_cast<std::int8_t>(e[x * d.atom_bytes]);
      }
    }
  }

  // Split the pixels into equal blocks that fit the scratch budget, so a
  // small remainder block never re-widens the weights for a few pixels.
  const std::size_t max_block =
      std::max(kTileP, kPatchBlockBytes / (pitch * sizeof(std::int16_t)));
  const std::size_t blocks = (outs + max_block - 1) / max_block;
  const std::size_t block =
      ((outs + blocks - 1) / blocks + kTileP - 1) / kTileP * kTileP;
  // Row tails past `taps` stay zero in both scratches (only the spare
  // weight rows of a partial tile go stale, and their sums are dropped).
  std::vector<std::int16_t> patch(block * pitch, 0);
  std::vector<std::int16_t> wtile(kTileK * pitch, 0);
  const std::size_t run_bytes = S * C * sizeof(std::int16_t);

  for (std::size_t g = 0; g < G; ++g) {
    const std::int16_t* img_g = img.data() + g * group_elems;
    const std::size_t k_begin = g * k_per_group;
    const std::size_t k_end = k_begin + k_per_group;
    for (std::size_t p_begin = 0; p_begin < outs; p_begin += block) {
      const std::size_t n = std::min(block, outs - p_begin);
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t p = p_begin + j;
        const std::int16_t* window =
            img_g + (p / op.out_w) * op.stride_y * line_elems +
            (p % op.out_w) * op.stride_x * C;
        std::int16_t* row = patch.data() + j * pitch;
        for (std::size_t r = 0; r < R; ++r) {
          std::memcpy(row + r * S * C, window + r * line_elems, run_bytes);
        }
      }
      for (std::size_t k0 = k_begin; k0 < k_end; k0 += kTileK) {
        const std::size_t nk = std::min(kTileK, k_end - k0);
        for (std::size_t t = 0; t < nk; ++t) {
          std::copy_n(krsc + (k0 + t) * taps, taps, wtile.data() + t * pitch);
        }
        for (std::size_t j = 0; j < n; j += kTileP) {
          std::int32_t sum[kTileK][kTileP];
          dot_tile(wtile.data(), patch.data() + j * pitch, pitch, sum);
          const std::size_t np = std::min(kTileP, n - j);
          for (std::size_t t = 0; t < nk; ++t) {
            std::int32_t* out = acc + (k0 + t) * outs + p_begin + j;
            for (std::size_t u = 0; u < np; ++u) out[u] = sum[t][u];
          }
        }
      }
    }
  }
}

void conv_int8_portable(const ConvOp& op, const CubeBuffer& input,
                        const std::int8_t* krsc, std::int32_t* acc) {
  conv_int8_tiled(op, input, krsc, acc);
}

#ifdef NVSOC_CONV_AVX2
[[gnu::target("avx2")]] void conv_int8_avx2(const ConvOp& op,
                                            const CubeBuffer& input,
                                            const std::int8_t* krsc,
                                            std::int32_t* acc) {
  conv_int8_tiled(op, input, krsc, acc);
}
#endif

}  // namespace

namespace internal {

std::span<const Int8ConvVariant> runnable_int8_conv_variants() {
  static const std::vector<Int8ConvVariant> runnable = [] {
    std::vector<Int8ConvVariant> variants;
#ifdef NVSOC_CONV_AVX2
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2")) {
      variants.push_back({"avx2", conv_int8_avx2});
    }
#endif
    variants.push_back({"portable", conv_int8_portable});
    return variants;
  }();
  return runnable;
}

}  // namespace internal

const char* int8_conv_kernel_isa() {
  return internal::runnable_int8_conv_variants().front().isa;
}

bool PackedConvWeights::matches(const ConvOp& op,
                                std::span<const std::uint8_t> weights) const {
  return kernel_k == op.kernel_k && kernel_c == op.kernel_c &&
         kernel_h == op.kernel_h && kernel_w == op.kernel_w &&
         weights.size() == source.size() &&
         std::memcmp(weights.data(), source.data(), source.size()) == 0;
}

std::shared_ptr<const PackedConvWeights> pack_conv_weights(
    const ConvOp& op, std::span<const std::uint8_t> weights) {
  const std::size_t want = static_cast<std::size_t>(op.kernel_k) *
                           op.kernel_c * op.kernel_h * op.kernel_w;
  if (op.precision != Precision::kInt8 || weights.size() < want) {
    return nullptr;
  }
  auto pack = std::make_shared<PackedConvWeights>();
  pack->kernel_k = op.kernel_k;
  pack->kernel_c = op.kernel_c;
  pack->kernel_h = op.kernel_h;
  pack->kernel_w = op.kernel_w;
  pack->source.assign(weights.begin(), weights.end());
  pack->krsc = reorder_krsc(op, weights);
  return pack;
}

// ---------------------------------------------------------------------------
// Convolution (CDMA/CBUF/CSC/CMAC/CACC)
// ---------------------------------------------------------------------------

ConvAccumulators conv_execute(const ConvOp& op, const CubeBuffer& input,
                              std::span<const std::uint8_t> weights,
                              const PackedConvWeights* packed) {
  return internal::conv_execute_with(
      internal::runnable_int8_conv_variants().front(), op, input, weights,
      packed);
}

ConvAccumulators internal::conv_execute_with(
    const Int8ConvVariant& variant, const ConvOp& op, const CubeBuffer& input,
    std::span<const std::uint8_t> weights, const PackedConvWeights* packed) {
  const std::uint32_t C = op.kernel_c;  // channels per group
  const std::uint32_t R = op.kernel_h;
  const std::uint32_t S = op.kernel_w;
  const std::uint32_t K = op.kernel_k;
  const std::uint32_t G = std::max(1u, op.groups);
  const std::uint32_t in_h = input.desc().dims.h;
  const std::uint32_t in_w = input.desc().dims.w;
  const std::uint32_t k_per_group = K / G;

  if (input.desc().dims.c != C * G) {
    throw std::runtime_error(
        strfmt("conv: input channels {} != kernel channels {} x groups {}",
               input.desc().dims.c, C, G));
  }
  if (K % G != 0) {
    throw std::runtime_error(
        strfmt("conv: kernels {} not divisible by groups {}", K, G));
  }
  const std::size_t want =
      static_cast<std::size_t>(K) * C * R * S * elem_size_bytes(op.precision);
  if (weights.size() < want) {
    throw std::runtime_error(strfmt("conv: weight blob {} < required {}",
                                    weights.size(), want));
  }

  ConvAccumulators acc;
  acc.k = K;
  acc.h = op.out_h;
  acc.w = op.out_w;

  const auto in_index = [&](std::uint32_t c, std::uint32_t y,
                            std::uint32_t x) {
    return (static_cast<std::size_t>(c) * in_h + y) * in_w + x;
  };
  const auto w_index = [&](std::uint32_t k, std::uint32_t c, std::uint32_t r,
                           std::uint32_t s) {
    return ((static_cast<std::size_t>(k) * C + c) * R + r) * S + s;
  };

  if (op.precision == Precision::kInt8) {
    const auto* wt = reinterpret_cast<const std::int8_t*>(weights.data());
    acc.i32.assign(static_cast<std::size_t>(K) * op.out_h * op.out_w, 0);
    // Integer accumulation is freely reassociable, so the int8 path can
    // restructure its loops for throughput while staying bit-identical to
    // the reference order. int8·int8 products fit int16·int16→int32, and
    // partial sums fit int32 as long as the tap count cannot push
    // |Σ in·w| past 2^31 (taps · 128·128 < 2^31): every real layer
    // qualifies; the int64 reference walk below is the fallback. (pad_value
    // is an input-domain sample in every real configuration; anything wider
    // falls back to the reference walk too.)
    const std::uint64_t taps = static_cast<std::uint64_t>(C) * R * S;
    const bool i32_safe = taps < (1ull << 31) / (128ull * 128ull) &&
                          op.pad_value >= -128 && op.pad_value <= 127;
    if (i32_safe) {
      std::vector<std::int8_t> reordered;
      const std::int8_t* krsc = nullptr;
      if (packed != nullptr && packed->matches(op, weights)) {
        krsc = packed->krsc.data();
      } else {
        reordered = reorder_krsc(op, weights);
        krsc = reordered.data();
      }
      variant.run(op, input, krsc, acc.i32.data());
    } else {
      const std::vector<std::int8_t> in = unpack_planar<std::int8_t>(input);
      // Reference walk (the fallback for the shapes above): int64 sums,
      // output element by output element.
      for (std::uint32_t k = 0; k < K; ++k) {
        const std::uint32_t c_base = (k / k_per_group) * C;
        for (std::uint32_t oy = 0; oy < op.out_h; ++oy) {
          const std::int64_t iy0 =
              static_cast<std::int64_t>(oy) * op.stride_y - op.pad_top;
          for (std::uint32_t ox = 0; ox < op.out_w; ++ox) {
            const std::int64_t ix0 =
                static_cast<std::int64_t>(ox) * op.stride_x - op.pad_left;
            std::int64_t sum = 0;
            for (std::uint32_t c = 0; c < C; ++c) {
              for (std::uint32_t r = 0; r < R; ++r) {
                const std::int64_t iy = iy0 + r;
                if (iy < 0 || iy >= in_h) {
                  if (op.pad_value != 0) {
                    for (std::uint32_t s = 0; s < S; ++s) {
                      sum += static_cast<std::int64_t>(op.pad_value) *
                             wt[w_index(k, c, r, s)];
                    }
                  }
                  continue;
                }
                const std::int8_t* in_row =
                    in.data() +
                    in_index(c_base + c, static_cast<std::uint32_t>(iy), 0);
                const std::int8_t* w_row = wt + w_index(k, c, r, 0);
                for (std::uint32_t s = 0; s < S; ++s) {
                  const std::int64_t ix = ix0 + s;
                  if (ix < 0 || ix >= in_w) {
                    sum += static_cast<std::int64_t>(op.pad_value) * w_row[s];
                    continue;
                  }
                  sum += static_cast<std::int64_t>(in_row[ix]) * w_row[s];
                }
              }
            }
            acc.i32[acc.index(k, oy, ox)] = saturate_i32(sum);
          }
        }
      }
    }
  } else {
    const std::vector<float> in = unpack_planar<float>(input);
    // Pre-decode the fp16 weights once.
    std::vector<float> wt(static_cast<std::size_t>(K) * C * R * S);
    for (std::size_t i = 0; i < wt.size(); ++i) {
      wt[i] = half_bits_to_float(load<std::uint16_t>(weights.data() + 2 * i));
    }
    const float padf = static_cast<float>(op.pad_value);
    acc.f32.assign(static_cast<std::size_t>(K) * op.out_h * op.out_w, 0.0f);
    for (std::uint32_t k = 0; k < K; ++k) {
      const std::uint32_t c_base = (k / k_per_group) * C;
      for (std::uint32_t oy = 0; oy < op.out_h; ++oy) {
        const std::int64_t iy0 =
            static_cast<std::int64_t>(oy) * op.stride_y - op.pad_top;
        for (std::uint32_t ox = 0; ox < op.out_w; ++ox) {
          const std::int64_t ix0 =
              static_cast<std::int64_t>(ox) * op.stride_x - op.pad_left;
          float sum = 0.0f;
          for (std::uint32_t c = 0; c < C; ++c) {
            for (std::uint32_t r = 0; r < R; ++r) {
              const std::int64_t iy = iy0 + r;
              for (std::uint32_t s = 0; s < S; ++s) {
                const std::int64_t ix = ix0 + s;
                const float v =
                    (iy < 0 || iy >= in_h || ix < 0 || ix >= in_w)
                        ? padf
                        : in[in_index(c_base + c,
                                      static_cast<std::uint32_t>(iy),
                                      static_cast<std::uint32_t>(ix))];
                sum += v * wt[w_index(k, c, r, s)];
              }
            }
          }
          acc.f32[acc.index(k, oy, ox)] = sum;
        }
      }
    }
  }
  return acc;
}

// ---------------------------------------------------------------------------
// SDP
// ---------------------------------------------------------------------------

void sdp_execute(const SdpOp& op, const ConvAccumulators* acc,
                 const CubeBuffer* src,
                 std::span<const std::uint8_t> bias_table,
                 std::span<const std::uint8_t> eltwise, CubeBuffer& out) {
  const bool int8_path = op.out_precision == Precision::kInt8;
  const std::uint32_t K = op.dims.c;

  // BS channel: per-kernel bias table (int32 or float32 entries).
  const std::uint8_t* bias =
      op.bias_enable && !bias_table.empty() ? bias_table.data() : nullptr;
  // X1 channel: per-element operand cube, same layout as dst, based at 0
  // within the fetched blob.
  SurfaceDesc elt_desc = op.dst;
  elt_desc.base = 0;
  elt_desc.line_stride = op.operand_line_stride;
  elt_desc.surf_stride = op.operand_surf_stride;

  if (int8_path) {
    // Hot path (every INT8 hardware layer runs through it): iterate rows
    // with hoisted surface offsets — the packed-atom div/mod runs once per
    // channel instead of once per element — and fold a disabled bias into
    // a zero addend. Identical arithmetic to the per-element reference
    // walk in the FP16 branch below. The per-op parameters are copied into
    // locals: the output stores are byte stores, which may alias anything,
    // so fields read through `op` and the descriptors would otherwise be
    // reloaded after every element.
    const SurfaceDesc& dst = out.desc();
    std::uint8_t* out_bytes = out.bytes().data();
    const std::uint8_t* src_bytes =
        src != nullptr ? src->bytes().data() : nullptr;
    const std::uint64_t dst_atom = dst.atom_bytes;
    const std::uint64_t src_atom = src != nullptr ? src->desc().atom_bytes : 0;
    const std::uint64_t elt_atom = elt_desc.atom_bytes;
    const std::int64_t cvt_scale = op.cvt_scale;
    const std::uint32_t cvt_shift = op.cvt_shift;
    const std::int64_t rounding =
        cvt_shift > 0 ? std::int64_t{1} << (cvt_shift - 1) : 0;
    const bool eltwise_enable = op.eltwise_enable;
    const bool relu_enable = op.relu_enable;
    for (std::uint32_t k = 0; k < K; ++k) {
      const std::int64_t bias_k =
          bias != nullptr ? load<std::int32_t>(bias + 4 * std::size_t{k}) : 0;
      const std::uint64_t dst_k = dst.offset_of(k, 0, 0);
      const std::uint64_t elt_k =
          eltwise_enable ? elt_desc.offset_of(k, 0, 0) : 0;
      const std::uint64_t src_k =
          src != nullptr ? src->desc().offset_of(k, 0, 0) : 0;
      for (std::uint32_t y = 0; y < op.dims.h; ++y) {
        const std::int32_t* acc_row =
            acc != nullptr ? acc->i32.data() + acc->index(k, y, 0) : nullptr;
        std::uint8_t* dst_row =
            out_bytes + dst_k + static_cast<std::uint64_t>(y) * dst.line_stride;
        const std::uint8_t* elt_row =
            eltwise_enable
                ? eltwise.data() + elt_k +
                      static_cast<std::uint64_t>(y) * elt_desc.line_stride
                : nullptr;
        const std::uint8_t* src_row =
            src != nullptr ? src_bytes + src_k +
                                 static_cast<std::uint64_t>(y) *
                                     src->desc().line_stride
                           : nullptr;
        for (std::uint32_t x = 0; x < op.dims.w; ++x) {
          std::int64_t value =
              acc_row != nullptr
                  ? acc_row[x]
                  : static_cast<std::int8_t>(src_row[x * src_atom]);
          value += bias_k;
          // Output converter into the INT8 output scale, with rounding.
          // (Branch-free: the signs of real activations are random, so
          // data-dependent branches here would mispredict half the time.)
          const std::int64_t scaled = value * cvt_scale;
          const std::int64_t sign = scaled >> 63;  // 0 or -1
          value = (scaled + ((rounding ^ sign) - sign)) >> cvt_shift;
          if (eltwise_enable) {
            value += static_cast<std::int8_t>(elt_row[x * elt_atom]);
          }
          if (relu_enable) value = std::max<std::int64_t>(value, 0);
          dst_row[x * dst_atom] = static_cast<std::uint8_t>(saturate_i8(value));
        }
      }
    }
    return;
  }

  for (std::uint32_t k = 0; k < K; ++k) {
    for (std::uint32_t y = 0; y < op.dims.h; ++y) {
      for (std::uint32_t x = 0; x < op.dims.w; ++x) {
        {
          float value;
          if (acc != nullptr) {
            value = acc->f32[acc->index(k, y, x)];
          } else {
            value = src->get(k, y, x);
          }
          if (bias != nullptr) value += load<float>(bias + 4 * std::size_t{k});
          if (op.eltwise_enable) {
            const std::uint64_t off = elt_desc.offset_of(k, y, x);
            const std::uint16_t raw = static_cast<std::uint16_t>(
                eltwise[off] | (eltwise[off + 1] << 8));
            value += half_bits_to_float(raw);
          }
          if (op.relu_enable && value < 0.0f) value = 0.0f;
          out.set(k, y, x, value);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// PDP
// ---------------------------------------------------------------------------

void pdp_execute(const PdpOp& op, const CubeBuffer& src, CubeBuffer& out) {
  const auto& in_dims = src.desc().dims;
  const auto& out_dims = out.desc().dims;
  const bool int8_path = op.precision == Precision::kInt8;

  for (std::uint32_t c = 0; c < out_dims.c; ++c) {
    for (std::uint32_t oy = 0; oy < out_dims.h; ++oy) {
      for (std::uint32_t ox = 0; ox < out_dims.w; ++ox) {
        const std::int64_t iy0 =
            static_cast<std::int64_t>(oy) * op.stride_y - op.pad_top;
        const std::int64_t ix0 =
            static_cast<std::int64_t>(ox) * op.stride_x - op.pad_left;
        if (int8_path) {
          std::int64_t agg = op.average ? 0 : INT64_MIN;
          std::uint32_t count = 0;
          for (std::uint32_t r = 0; r < op.kernel_h; ++r) {
            for (std::uint32_t s = 0; s < op.kernel_w; ++s) {
              const std::int64_t iy = iy0 + r;
              const std::int64_t ix = ix0 + s;
              if (iy < 0 || iy >= in_dims.h || ix < 0 || ix >= in_dims.w) {
                continue;  // exclude padding from both max and average
              }
              const std::int8_t v =
                  src.get_i8(c, static_cast<std::uint32_t>(iy),
                             static_cast<std::uint32_t>(ix));
              if (op.average) {
                agg += v;
              } else {
                agg = std::max<std::int64_t>(agg, v);
              }
              ++count;
            }
          }
          std::int64_t result;
          if (op.average) {
            // Round-to-nearest division by the live window size (the NVDLA
            // PDP recip table behaviour for exclusive padding).
            result = count == 0
                         ? 0
                         : (agg >= 0 ? (agg + count / 2) / count
                                     : -((-agg + count / 2) / count));
          } else {
            result = count == 0 ? 0 : agg;
          }
          out.set_i8(c, oy, ox, saturate_i8(result));
        } else {
          float agg = op.average ? 0.0f : -std::numeric_limits<float>::max();
          std::uint32_t count = 0;
          for (std::uint32_t r = 0; r < op.kernel_h; ++r) {
            for (std::uint32_t s = 0; s < op.kernel_w; ++s) {
              const std::int64_t iy = iy0 + r;
              const std::int64_t ix = ix0 + s;
              if (iy < 0 || iy >= in_dims.h || ix < 0 || ix >= in_dims.w) {
                continue;
              }
              const float v = src.get(c, static_cast<std::uint32_t>(iy),
                                      static_cast<std::uint32_t>(ix));
              if (op.average) {
                agg += v;
              } else {
                agg = std::max(agg, v);
              }
              ++count;
            }
          }
          out.set(c, oy, ox,
                  count == 0 ? 0.0f : (op.average ? agg / count : agg));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CDP (LRN)
// ---------------------------------------------------------------------------

void cdp_execute(const CdpOp& op, const CubeBuffer& src, CubeBuffer& out) {
  const auto& dims = src.desc().dims;
  const float alpha = static_cast<float>(op.alpha_q16) / 65536.0f;
  const float beta = static_cast<float>(op.beta_q16) / 65536.0f;
  const float k = static_cast<float>(op.k_q16) / 65536.0f;
  const float in_scale = static_cast<float>(op.in_scale_q16) / 65536.0f;
  const int half = static_cast<int>(op.local_size / 2);

  for (std::uint32_t c = 0; c < dims.c; ++c) {
    for (std::uint32_t y = 0; y < dims.h; ++y) {
      for (std::uint32_t x = 0; x < dims.w; ++x) {
        float sumsq = 0.0f;
        for (int dc = -half; dc <= half; ++dc) {
          const int cc = static_cast<int>(c) + dc;
          if (cc < 0 || cc >= static_cast<int>(dims.c)) continue;
          float v = src.get(static_cast<std::uint32_t>(cc), y, x);
          if (op.precision == Precision::kInt8) v *= in_scale;
          sumsq += v * v;
        }
        float v = src.get(c, y, x);
        if (op.precision == Precision::kInt8) v *= in_scale;
        const float denom = std::pow(
            k + alpha / static_cast<float>(op.local_size) * sumsq, beta);
        float result = v / denom;
        if (op.precision == Precision::kInt8) {
          result /= in_scale;  // requantise into the same INT8 scale
          out.set_i8(c, y, x,
                     saturate_i8(static_cast<std::int64_t>(std::lround(
                         result))));
        } else {
          out.set(c, y, x, result);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cycle model
// ---------------------------------------------------------------------------

namespace {

Cycle dbb_cycles_for(const NvdlaConfig& cfg, std::uint64_t bytes) {
  const double effective =
      static_cast<double>(cfg.dbb_bytes_per_cycle()) *
      cfg.timing.dbb_efficiency;
  return static_cast<Cycle>(static_cast<double>(bytes) / effective) + 1;
}

}  // namespace

OpCost conv_cost(const NvdlaConfig& cfg, const ConvOp& op,
                 std::uint64_t output_bytes) {
  OpCost cost;
  const std::uint32_t esize = elem_size_bytes(op.precision);
  const std::uint32_t G = std::max(1u, op.groups);
  // FP16 halves the MAC array's channel dimension (two bytes per operand).
  const std::uint32_t atomic_c_eff = std::max(
      1u, op.precision == Precision::kFp16 ? cfg.atomic_c / 2 : cfg.atomic_c);
  // Padding to the MAC array shape happens per channel group — this is what
  // makes depthwise convolution (kernel_c == 1) so inefficient on NVDLA.
  const std::uint64_t c_pad = align_up(op.kernel_c, atomic_c_eff);
  const std::uint64_t k_per_group = std::max(1u, op.kernel_k / G);
  const std::uint64_t k_pad = align_up(k_per_group, cfg.atomic_k);

  double tiles = static_cast<double>(op.out_w) * op.out_h * op.kernel_w *
                 op.kernel_h * (c_pad / atomic_c_eff) *
                 (k_pad / cfg.atomic_k) * G;
  // Grouped/depthwise convolution: the CSC packs a couple of channel groups
  // side by side into one atomic-C slice, partially recovering the padding
  // waste (kernel_c << atomic-C).
  if (G > 1 && op.kernel_c * 2 <= atomic_c_eff) {
    tiles /= std::max(1u, cfg.timing.grouped_channel_packing);
  }
  cost.compute_cycles =
      static_cast<Cycle>(tiles / cfg.timing.mac_efficiency) + 1;

  // Traffic: weights once; input re-streamed once per atomic-K slice when
  // it does not fit in half the convolution buffer.
  const std::uint64_t input_bytes =
      static_cast<std::uint64_t>(op.input.dims.c) * op.input.dims.h *
      op.input.dims.w * esize;
  const std::uint64_t weight_bytes =
      k_pad * G * c_pad * op.kernel_w * op.kernel_h * esize;
  const std::uint64_t k_slices = k_pad / cfg.atomic_k;
  const std::uint64_t cbuf_half = cfg.cbuf_kib * 1024ull / 2;
  const std::uint64_t input_passes = input_bytes <= cbuf_half ? 1 : k_slices;
  cost.traffic_bytes =
      input_bytes * input_passes + weight_bytes + output_bytes;
  cost.dbb_cycles = dbb_cycles_for(cfg, cost.traffic_bytes);
  return cost;
}

OpCost sdp_cost(const NvdlaConfig& cfg, const SdpOp& op) {
  OpCost cost;
  const std::uint32_t esize = elem_size_bytes(op.out_precision);
  const std::uint64_t elems = op.dims.elements();
  std::uint64_t bytes = elems * esize;          // destination write
  if (!op.flying_mode()) bytes += elems * esize;  // memory source read
  if (op.eltwise_enable) bytes += elems * esize;  // operand cube read
  cost.traffic_bytes = bytes;
  // SDP throughput: one output atom per cycle.
  cost.compute_cycles = elems * esize / cfg.atom_bytes + 1;
  cost.dbb_cycles = dbb_cycles_for(cfg, bytes);
  return cost;
}

OpCost pdp_cost(const NvdlaConfig& cfg, const PdpOp& op) {
  OpCost cost;
  const std::uint32_t esize = elem_size_bytes(op.precision);
  const std::uint64_t in_bytes = op.src.dims.elements() * esize;
  const std::uint64_t out_bytes = op.dst.dims.elements() * esize;
  cost.traffic_bytes = in_bytes + out_bytes;
  // The pooling datapath evaluates one window element per lane per cycle
  // across atom_bytes lanes.
  cost.compute_cycles = op.dst.dims.elements() * op.kernel_w * op.kernel_h *
                            esize / cfg.atom_bytes +
                        1;
  cost.dbb_cycles = dbb_cycles_for(cfg, cost.traffic_bytes);
  return cost;
}

OpCost cdp_cost(const NvdlaConfig& cfg, const CdpOp& op) {
  OpCost cost;
  const std::uint32_t esize = elem_size_bytes(op.precision);
  const std::uint64_t elems = op.src.dims.elements();
  cost.traffic_bytes = 2 * elems * esize;
  // The CDP normalisation walks a serial LUT-interpolation path per output
  // element (square, accumulate across local_size, exponent lookup,
  // divide) — the unit is not vectorised across the atom.
  cost.compute_cycles = elems * cfg.timing.cdp_cycles_per_element + 1;
  cost.dbb_cycles = dbb_cycles_for(cfg, cost.traffic_bytes);
  return cost;
}

OpCost bdma_cost(const NvdlaConfig& cfg, const BdmaOp& op) {
  OpCost cost;
  cost.traffic_bytes = 2 * op.total_bytes();
  cost.compute_cycles = 1;
  cost.dbb_cycles = dbb_cycles_for(cfg, cost.traffic_bytes);
  return cost;
}

}  // namespace nvsoc::nvdla
