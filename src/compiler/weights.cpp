#include "compiler/weights.hpp"

#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"

namespace nvsoc::compiler {

const LayerWeights& NetWeights::at(const std::string& layer) const {
  const auto it = by_layer_.find(layer);
  if (it == by_layer_.end()) {
    throw std::runtime_error("no weights for layer " + layer);
  }
  return it->second;
}

NetWeights NetWeights::synthetic(const Network& network, std::uint64_t seed) {
  NetWeights out;
  Rng rng(seed);
  for (const auto& layer : network.layers()) {
    LayerWeights lw;
    switch (layer.kind) {
      case LayerKind::kConvolution: {
        const BlobShape& in = network.blob_shape(layer.bottoms[0]);
        const std::uint64_t fan_in =
            static_cast<std::uint64_t>(in.c / layer.conv.groups) *
            layer.conv.kernel_h * layer.conv.kernel_w;
        const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
        lw.weights.resize(static_cast<std::size_t>(layer.conv.num_output) *
                          fan_in);
        for (auto& w : lw.weights) w = rng.next_gaussian() * stddev;
        if (layer.conv.bias_term) {
          lw.bias.resize(layer.conv.num_output);
          for (auto& b : lw.bias) b = rng.next_gaussian() * 0.01f;
        }
        break;
      }
      case LayerKind::kInnerProduct: {
        const BlobShape& in = network.blob_shape(layer.bottoms[0]);
        const std::uint64_t fan_in = in.elements();
        const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
        lw.weights.resize(static_cast<std::size_t>(layer.conv.num_output) *
                          fan_in);
        for (auto& w : lw.weights) w = rng.next_gaussian() * stddev;
        if (layer.conv.bias_term) {
          lw.bias.resize(layer.conv.num_output);
          for (auto& b : lw.bias) b = rng.next_gaussian() * 0.01f;
        }
        break;
      }
      case LayerKind::kBatchNorm: {
        const std::uint32_t c = network.blob_shape(layer.bottoms[0]).c;
        lw.weights.resize(c);  // running mean
        lw.bias.resize(c);     // running variance
        for (auto& m : lw.weights) m = rng.next_gaussian() * 0.05f;
        for (auto& v : lw.bias) {
          v = 0.8f + 0.4f * rng.next_float();  // variance in [0.8, 1.2)
        }
        break;
      }
      case LayerKind::kScale: {
        const std::uint32_t c = network.blob_shape(layer.bottoms[0]).c;
        lw.weights.resize(c);  // gamma
        lw.bias.resize(c);     // beta
        for (auto& g : lw.weights) g = 0.9f + 0.2f * rng.next_float();
        for (auto& b : lw.bias) b = rng.next_gaussian() * 0.05f;
        break;
      }
      default:
        continue;  // parameter-free layer
    }
    out.set(layer.name, std::move(lw));
  }
  return out;
}

std::vector<float> synthetic_input(const BlobShape& shape,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(shape.elements());
  for (auto& v : out) v = rng.next_float() * 2.0f - 1.0f;
  return out;
}

}  // namespace nvsoc::compiler
