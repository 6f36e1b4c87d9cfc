// Caffe-style network intermediate representation.
//
// The paper's toolflow starts from a trained Caffe model (prototxt +
// caffemodel). This IR captures the layer vocabulary those models use
// (Convolution, InnerProduct, Pooling, ReLU, BatchNorm, Scale, Eltwise,
// Concat, LRN, Softmax) with Caffe semantics, plus shape inference. Model
// builders in src/models construct LeNet-5, ResNet-18/50, MobileNet,
// GoogleNet and AlexNet directly in this IR.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace nvsoc::compiler {

enum class LayerKind : std::uint8_t {
  kInput = 0,
  kConvolution,
  kInnerProduct,
  kPooling,
  kReLU,
  kBatchNorm,
  kScale,
  kEltwise,   // element-wise sum
  kConcat,    // channel concatenation
  kLrn,
  kSoftmax,
};

const char* layer_kind_name(LayerKind kind);

/// Blob shape in Caffe NCHW order with N == 1 (single-image inference).
struct BlobShape {
  std::uint32_t c = 0;
  std::uint32_t h = 0;
  std::uint32_t w = 0;

  std::uint64_t elements() const {
    return static_cast<std::uint64_t>(c) * h * w;
  }
  friend bool operator==(const BlobShape&, const BlobShape&) = default;
};

struct ConvParams {
  std::uint32_t num_output = 0;
  std::uint32_t kernel_h = 1, kernel_w = 1;
  std::uint32_t stride_h = 1, stride_w = 1;
  std::uint32_t pad_h = 0, pad_w = 0;
  std::uint32_t groups = 1;
  bool bias_term = true;
};

struct PoolParams {
  enum class Method : std::uint8_t { kMax = 0, kAve = 1 };
  Method method = Method::kMax;
  std::uint32_t kernel_h = 2, kernel_w = 2;
  std::uint32_t stride_h = 2, stride_w = 2;
  std::uint32_t pad_h = 0, pad_w = 0;
  bool global = false;  ///< global pooling: kernel covers the full plane
};

struct LrnParams {
  std::uint32_t local_size = 5;
  float alpha = 1e-4f;
  float beta = 0.75f;
  float k = 1.0f;
};

struct Layer {
  std::string name;
  LayerKind kind = LayerKind::kInput;
  std::vector<std::string> bottoms;  ///< input blob names
  std::string top;                   ///< output blob name

  ConvParams conv;    ///< kConvolution / kInnerProduct (num_output only)
  PoolParams pool;    ///< kPooling
  LrnParams lrn;      ///< kLrn
  float bn_epsilon = 1e-5f;  ///< kBatchNorm
};

/// A network: ordered layers plus the input blob declaration. Blob names
/// are unique; layers are topologically ordered by construction.
class Network {
 public:
  Network(std::string name, BlobShape input_shape,
          std::string input_blob = "data");

  const std::string& name() const { return name_; }
  const BlobShape& input_shape() const { return input_shape_; }
  const std::string& input_blob() const { return input_blob_; }

  // --- builders (return the output blob name for chaining) ---------------
  std::string add_conv(const std::string& name, const std::string& bottom,
                       ConvParams params);
  std::string add_inner_product(const std::string& name,
                                const std::string& bottom,
                                std::uint32_t num_output,
                                bool bias_term = true);
  std::string add_pool(const std::string& name, const std::string& bottom,
                       PoolParams params);
  /// In-place ReLU (Caffe convention: top == bottom allowed; we keep a
  /// distinct top name for graph clarity).
  std::string add_relu(const std::string& name, const std::string& bottom);
  std::string add_batch_norm(const std::string& name,
                             const std::string& bottom);
  std::string add_scale(const std::string& name, const std::string& bottom);
  std::string add_eltwise_sum(const std::string& name, const std::string& a,
                              const std::string& b);
  std::string add_concat(const std::string& name,
                         const std::vector<std::string>& bottoms);
  std::string add_lrn(const std::string& name, const std::string& bottom,
                      LrnParams params);
  std::string add_softmax(const std::string& name, const std::string& bottom);

  const std::vector<Layer>& layers() const { return layers_; }
  const Layer& layer(const std::string& name) const;

  /// Number of Caffe layers including the input declaration (the counting
  /// convention behind the "Layers" column of Table II).
  std::size_t layer_count() const { return layers_.size() + 1; }

  /// Shape of any blob (input or a layer top). Computed on construction.
  const BlobShape& blob_shape(const std::string& blob) const;

  /// Producing layer of a blob (nullopt for the input blob).
  std::optional<std::string> producer_of(const std::string& blob) const;

  /// Parameter count (conv/FC weights + biases + BN/Scale params).
  std::uint64_t parameter_count() const;
  /// Caffe .caffemodel equivalent size: parameters in fp32.
  std::uint64_t model_size_bytes() const { return parameter_count() * 4; }

 private:
  Layer& append(Layer layer);
  void infer_shape(const Layer& layer);

  std::string name_;
  BlobShape input_shape_;
  std::string input_blob_;
  std::vector<Layer> layers_;
  std::map<std::string, BlobShape> blob_shapes_;
  std::map<std::string, std::string> blob_producer_;
};

}  // namespace nvsoc::compiler
