// Caffe .prototxt front-end.
//
// The paper's flow starts from "arbitrary Caffe-based neural networks";
// this module reads the deploy-prototxt text format (the protobuf
// text-format subset Caffe uses) into the network IR and writes IR back
// out, so real model descriptions can be dropped into the toolflow and the
// built-in zoo can be exported for inspection.
//
// Supported layer types: Input (or top-level input/input_dim/input_shape),
// Convolution, InnerProduct, Pooling, ReLU, BatchNorm, Scale, Eltwise
// (SUM), Concat, LRN, Softmax, and Dropout (a deploy-time no-op that is
// skipped with blob aliasing). Caffe's in-place layers (top == bottom) are
// handled by blob renaming.
#pragma once

#include <stdexcept>
#include <string>

#include "compiler/network.hpp"

namespace nvsoc::compiler {

class PrototxtError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parse prototxt text into a Network. Throws PrototxtError with a line
/// number on malformed input or unsupported layers.
Network parse_prototxt(const std::string& text);

/// Render a Network as deploy-prototxt text (round-trips through
/// parse_prototxt, modulo in-place blob naming): the writer half of the
/// tool flow's network format, which the round-trip tests check.
std::string write_prototxt(const Network& network);

}  // namespace nvsoc::compiler
