// Trained-parameter container plus a deterministic synthetic initialiser.
//
// Substitution note (DESIGN.md §2): the paper uses Caffe model-zoo weights;
// offline we generate deterministic He-initialised weights instead. All
// correctness claims are FP32-reference-vs-NVDLA comparisons on the same
// parameters, so the substitution does not weaken validation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compiler/network.hpp"

namespace nvsoc::compiler {

struct LayerWeights {
  /// Convolution/InnerProduct: [k][c/groups][kh][kw] row-major.
  /// BatchNorm: running mean (size C). Scale: gamma (size C).
  std::vector<float> weights;
  /// Convolution/InnerProduct: bias (size K).
  /// BatchNorm: running variance (size C). Scale: beta (size C).
  std::vector<float> bias;
};

class NetWeights {
 public:
  const LayerWeights& at(const std::string& layer) const;
  bool contains(const std::string& layer) const {
    return by_layer_.contains(layer);
  }
  void set(const std::string& layer, LayerWeights weights) {
    by_layer_[layer] = std::move(weights);
  }

  const std::map<std::string, LayerWeights>& all() const { return by_layer_; }

  /// Deterministic synthetic parameters for every parameterised layer:
  /// He-scaled Gaussians for conv/FC weights, near-identity BatchNorm/Scale.
  static NetWeights synthetic(const Network& network, std::uint64_t seed);

 private:
  std::map<std::string, LayerWeights> by_layer_;
};

/// A deterministic synthetic input image in planar [c][h][w] order with
/// values in [-1, 1] (stands in for the preprocessed test image the paper
/// loads into DRAM).
std::vector<float> synthetic_input(const BlobShape& shape,
                                   std::uint64_t seed);

}  // namespace nvsoc::compiler
