// Layer interface for DAG models.
//
// A Layer is a node in a computation graph: it may take several input tensors
// (Concat / Add combine branches) and produces exactly one output tensor.
// Layers cache whatever they need during forward() so that backward() can be
// called immediately afterwards — graphs are trained sample-batch at a time,
// never re-entered concurrently.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ncnas/nn/parameter.hpp"
#include "ncnas/tensor/rng.hpp"
#include "ncnas/tensor/tensor.hpp"

namespace ncnas::nn {

/// Per-sample shape (batch dimension excluded). Rank-1 [d] for feature
/// vectors; rank-2 [length, channels] for 1-D feature maps.
using FeatShape = tensor::Shape;

/// Trainable scalars a layer will hold for given per-sample inputs, and the
/// storage they live in. Mirrored layers report the same `slot`, so a graph
/// counts shared weights once.
struct PlannedParams {
  const void* slot = nullptr;
  std::size_t count = 0;
};

/// Mutable state threaded through forward passes.
struct ForwardCtx {
  bool training = false;          ///< enables dropout masks
  tensor::Rng* rng = nullptr;     ///< required when training with dropout
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Short kind tag, e.g. "dense", used in summaries and error messages.
  [[nodiscard]] virtual std::string kind() const = 0;

  /// Per-sample output shape given per-sample input shapes. Throws
  /// std::invalid_argument for incompatible inputs.
  [[nodiscard]] virtual FeatShape output_shape(std::span<const FeatShape> in) const = 0;

  /// Forward pass over a batch. Each input has the batch dimension first.
  [[nodiscard]] virtual tensor::Tensor forward(std::span<const tensor::Tensor* const> inputs,
                                               ForwardCtx& ctx) = 0;

  /// Backward pass; returns gradient w.r.t. each input, in input order.
  /// Parameter gradients are *accumulated* into Parameter::grad.
  [[nodiscard]] virtual std::vector<tensor::Tensor> backward(const tensor::Tensor& grad_out) = 0;

  /// Trainable parameters (possibly shared with other layers). Default: none.
  [[nodiscard]] virtual std::vector<ParamPtr> parameters() const { return {}; }

  /// What parameters() will hold once a forward pass has seen per-sample
  /// inputs `in` — from shapes alone, so lazy weights stay unallocated.
  /// Default: none.
  [[nodiscard]] virtual PlannedParams planned_params(std::span<const FeatShape> /*in*/) const {
    return {};
  }

  /// One-line human-readable description for model summaries.
  [[nodiscard]] virtual std::string describe() const { return kind(); }
};

using LayerPtr = std::unique_ptr<Layer>;

/// Helper shared by single-input layers: validates arity.
const tensor::Tensor& single_input(std::span<const tensor::Tensor* const> inputs,
                                   const char* what);
const FeatShape& single_shape(std::span<const FeatShape> in, const char* what);

}  // namespace ncnas::nn
