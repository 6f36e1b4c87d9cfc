#include "compiler/network.hpp"

#include <stdexcept>

#include "common/strfmt.hpp"

namespace nvsoc::compiler {

const char* layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kInput: return "Input";
    case LayerKind::kConvolution: return "Convolution";
    case LayerKind::kInnerProduct: return "InnerProduct";
    case LayerKind::kPooling: return "Pooling";
    case LayerKind::kReLU: return "ReLU";
    case LayerKind::kBatchNorm: return "BatchNorm";
    case LayerKind::kScale: return "Scale";
    case LayerKind::kEltwise: return "Eltwise";
    case LayerKind::kConcat: return "Concat";
    case LayerKind::kLrn: return "LRN";
    case LayerKind::kSoftmax: return "Softmax";
  }
  return "Unknown";
}

Network::Network(std::string name, BlobShape input_shape,
                 std::string input_blob)
    : name_(std::move(name)),
      input_shape_(input_shape),
      input_blob_(std::move(input_blob)) {
  blob_shapes_[input_blob_] = input_shape_;
}

Layer& Network::append(Layer layer) {
  for (const auto& bottom : layer.bottoms) {
    if (!blob_shapes_.contains(bottom)) {
      throw std::runtime_error(strfmt("layer '{}': unknown bottom blob '{}'",
                                      layer.name, bottom));
    }
  }
  if (blob_shapes_.contains(layer.top)) {
    throw std::runtime_error(
        strfmt("layer '{}': top blob '{}' already exists", layer.name,
               layer.top));
  }
  for (const auto& existing : layers_) {
    if (existing.name == layer.name) {
      throw std::runtime_error("duplicate layer name " + layer.name);
    }
  }
  infer_shape(layer);
  blob_producer_[layer.top] = layer.name;
  layers_.push_back(std::move(layer));
  return layers_.back();
}

void Network::infer_shape(const Layer& layer) {
  const auto bottom_shape = [&](std::size_t i) -> const BlobShape& {
    return blob_shapes_.at(layer.bottoms.at(i));
  };
  BlobShape out;
  switch (layer.kind) {
    case LayerKind::kInput:
      out = input_shape_;
      break;
    case LayerKind::kConvolution: {
      const BlobShape& in = bottom_shape(0);
      if (in.c % layer.conv.groups != 0) {
        throw std::runtime_error(strfmt(
            "layer '{}': channels {} not divisible by groups {}", layer.name,
            in.c, layer.conv.groups));
      }
      if (layer.conv.num_output % layer.conv.groups != 0) {
        throw std::runtime_error(strfmt(
            "layer '{}': num_output {} not divisible by groups {}",
            layer.name, layer.conv.num_output, layer.conv.groups));
      }
      if (in.h + 2 * layer.conv.pad_h < layer.conv.kernel_h ||
          in.w + 2 * layer.conv.pad_w < layer.conv.kernel_w) {
        throw std::runtime_error(
            strfmt("layer '{}': kernel larger than padded input",
                   layer.name));
      }
      out.c = layer.conv.num_output;
      out.h = (in.h + 2 * layer.conv.pad_h - layer.conv.kernel_h) /
                  layer.conv.stride_h + 1;
      out.w = (in.w + 2 * layer.conv.pad_w - layer.conv.kernel_w) /
                  layer.conv.stride_w + 1;
      break;
    }
    case LayerKind::kInnerProduct:
      out = BlobShape{layer.conv.num_output, 1, 1};
      break;
    case LayerKind::kPooling: {
      const BlobShape& in = bottom_shape(0);
      PoolParams p = layer.pool;
      if (p.global) {
        out = BlobShape{in.c, 1, 1};
        break;
      }
      // Caffe pooling uses ceil-mode output sizing.
      out.c = in.c;
      out.h = static_cast<std::uint32_t>(
                  (in.h + 2 * p.pad_h - p.kernel_h + p.stride_h - 1) /
                  p.stride_h) + 1;
      out.w = static_cast<std::uint32_t>(
                  (in.w + 2 * p.pad_w - p.kernel_w + p.stride_w - 1) /
                  p.stride_w) + 1;
      // Caffe clips windows that start entirely in padding.
      if ((out.h - 1) * p.stride_h >= in.h + p.pad_h) --out.h;
      if ((out.w - 1) * p.stride_w >= in.w + p.pad_w) --out.w;
      break;
    }
    case LayerKind::kReLU:
    case LayerKind::kBatchNorm:
    case LayerKind::kScale:
    case LayerKind::kLrn:
    case LayerKind::kSoftmax:
      out = bottom_shape(0);
      break;
    case LayerKind::kEltwise: {
      const BlobShape& a = bottom_shape(0);
      const BlobShape& b = bottom_shape(1);
      if (!(a == b)) {
        throw std::runtime_error(
            strfmt("layer '{}': eltwise operand shapes differ", layer.name));
      }
      out = a;
      break;
    }
    case LayerKind::kConcat: {
      out = bottom_shape(0);
      out.c = 0;
      for (std::size_t i = 0; i < layer.bottoms.size(); ++i) {
        const BlobShape& in = bottom_shape(i);
        if (in.h != bottom_shape(0).h || in.w != bottom_shape(0).w) {
          throw std::runtime_error(
              strfmt("layer '{}': concat spatial dims differ", layer.name));
        }
        out.c += in.c;
      }
      break;
    }
  }
  blob_shapes_[layer.top] = out;
}

std::string Network::add_conv(const std::string& name,
                              const std::string& bottom, ConvParams params) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kConvolution;
  layer.bottoms = {bottom};
  layer.top = name;
  layer.conv = params;
  return append(std::move(layer)).top;
}

std::string Network::add_inner_product(const std::string& name,
                                       const std::string& bottom,
                                       std::uint32_t num_output,
                                       bool bias_term) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kInnerProduct;
  layer.bottoms = {bottom};
  layer.top = name;
  layer.conv.num_output = num_output;
  layer.conv.bias_term = bias_term;
  return append(std::move(layer)).top;
}

std::string Network::add_pool(const std::string& name,
                              const std::string& bottom, PoolParams params) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kPooling;
  layer.bottoms = {bottom};
  layer.top = name;
  layer.pool = params;
  return append(std::move(layer)).top;
}

std::string Network::add_relu(const std::string& name,
                              const std::string& bottom) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kReLU;
  layer.bottoms = {bottom};
  layer.top = name;
  return append(std::move(layer)).top;
}

std::string Network::add_batch_norm(const std::string& name,
                                    const std::string& bottom) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kBatchNorm;
  layer.bottoms = {bottom};
  layer.top = name;
  return append(std::move(layer)).top;
}

std::string Network::add_scale(const std::string& name,
                               const std::string& bottom) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kScale;
  layer.bottoms = {bottom};
  layer.top = name;
  return append(std::move(layer)).top;
}

std::string Network::add_eltwise_sum(const std::string& name,
                                     const std::string& a,
                                     const std::string& b) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kEltwise;
  layer.bottoms = {a, b};
  layer.top = name;
  return append(std::move(layer)).top;
}

std::string Network::add_concat(const std::string& name,
                                const std::vector<std::string>& bottoms) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kConcat;
  layer.bottoms = bottoms;
  layer.top = name;
  return append(std::move(layer)).top;
}

std::string Network::add_lrn(const std::string& name,
                             const std::string& bottom, LrnParams params) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kLrn;
  layer.bottoms = {bottom};
  layer.top = name;
  layer.lrn = params;
  return append(std::move(layer)).top;
}

std::string Network::add_softmax(const std::string& name,
                                 const std::string& bottom) {
  Layer layer;
  layer.name = name;
  layer.kind = LayerKind::kSoftmax;
  layer.bottoms = {bottom};
  layer.top = name;
  return append(std::move(layer)).top;
}

const Layer& Network::layer(const std::string& name) const {
  for (const auto& l : layers_) {
    if (l.name == name) return l;
  }
  throw std::runtime_error("no such layer: " + name);
}

const BlobShape& Network::blob_shape(const std::string& blob) const {
  const auto it = blob_shapes_.find(blob);
  if (it == blob_shapes_.end()) {
    throw std::runtime_error("no such blob: " + blob);
  }
  return it->second;
}

std::optional<std::string> Network::producer_of(const std::string& blob) const {
  const auto it = blob_producer_.find(blob);
  if (it == blob_producer_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t Network::parameter_count() const {
  std::uint64_t count = 0;
  for (const auto& layer : layers_) {
    switch (layer.kind) {
      case LayerKind::kConvolution: {
        const BlobShape& in = blob_shape(layer.bottoms[0]);
        const std::uint64_t weights =
            static_cast<std::uint64_t>(layer.conv.num_output) *
            (in.c / layer.conv.groups) * layer.conv.kernel_h *
            layer.conv.kernel_w;
        count += weights + (layer.conv.bias_term ? layer.conv.num_output : 0);
        break;
      }
      case LayerKind::kInnerProduct: {
        const BlobShape& in = blob_shape(layer.bottoms[0]);
        count += static_cast<std::uint64_t>(layer.conv.num_output) *
                     in.elements() +
                 (layer.conv.bias_term ? layer.conv.num_output : 0);
        break;
      }
      case LayerKind::kBatchNorm: {
        count += 2ull * blob_shape(layer.bottoms[0]).c;  // mean + variance
        break;
      }
      case LayerKind::kScale: {
        count += 2ull * blob_shape(layer.bottoms[0]).c;  // gamma + beta
        break;
      }
      default:
        break;
    }
  }
  return count;
}

}  // namespace nvsoc::compiler
