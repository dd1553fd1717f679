// Graph — a DAG of layers with reverse-mode differentiation.
//
// Nodes are appended in topological order (every node's inputs must already
// exist), which matches how the search-space builder lowers an architecture:
// input layers first, then cells in order, then the final output rule.
// forward() caches per-node outputs; backward() walks the list in reverse and
// accumulates gradients into shared Parameters, so mirrored layers receive
// the sum of both branches' gradients — exactly the weight-sharing semantics
// of the paper's Combo drug-descriptor submodel.
#pragma once

#include <string>
#include <vector>

#include "ncnas/nn/layer.hpp"

namespace ncnas::nn {

class Graph {
 public:
  /// Adds a named input placeholder; returns its node id. Inputs are fed to
  /// forward() in the order they were added.
  std::size_t add_input(std::string name, FeatShape shape);

  /// Adds a layer consuming the outputs of `inputs` (node ids < the new id).
  std::size_t add(LayerPtr layer, std::vector<std::size_t> inputs);

  /// Marks the node whose output is the model prediction. Defaults to the
  /// last added node.
  void set_output(std::size_t node_id);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t input_count() const noexcept { return input_ids_.size(); }
  [[nodiscard]] std::size_t output_id() const noexcept { return output_id_; }
  [[nodiscard]] const Layer& layer(std::size_t node_id) const { return *nodes_.at(node_id).layer; }

  /// Per-sample output shape of the full model. Runs shape inference; throws
  /// if any layer rejects its inputs. Cheap — no tensors are allocated.
  [[nodiscard]] FeatShape output_shape() const;

  /// Runs the model on a batch. `inputs[i]` feeds the i-th declared input and
  /// must carry the batch dimension first. Returns the output node's tensor.
  [[nodiscard]] tensor::Tensor forward(std::span<const tensor::Tensor> inputs, ForwardCtx& ctx);

  /// Backpropagates dL/d(output); must follow a forward() call. Parameter
  /// gradients are accumulated (call zero_grad() between steps).
  void backward(const tensor::Tensor& grad_output);

  /// All trainable parameters, de-duplicated (shared weights appear once).
  [[nodiscard]] std::vector<ParamPtr> parameters() const;

  /// Number of trainable scalars — the paper's "trainable parameters" metric.
  /// NOTE: lazy layers materialize weights on first forward; call after one
  /// forward pass (or train step) for a final count.
  [[nodiscard]] std::size_t param_count() const;

  /// The param_count() this graph will report after its first forward,
  /// from shape inference alone: no weights are materialized. Shared weight
  /// slots (mirrored layers) count once. Throws like output_shape().
  [[nodiscard]] std::size_t planned_param_count() const;

  void zero_grad();

  /// Multi-line human-readable summary.
  [[nodiscard]] std::string summary() const;

 private:
  struct Node {
    LayerPtr layer;
    std::vector<std::size_t> inputs;
    std::vector<std::size_t> consumers;
    tensor::Tensor output;     // cached from the last forward
    tensor::Tensor grad;       // accumulated during backward
    int pending_consumers = 0; // countdown used by backward()
  };

  /// Per-node per-sample shapes in topological order; `visit(i, in)` sees
  /// each node's input shapes first.
  template <typename Visit>
  std::vector<FeatShape> infer_shapes(Visit&& visit) const;

  std::vector<Node> nodes_;
  std::vector<std::size_t> input_ids_;
  std::size_t output_id_ = 0;
  bool has_output_ = false;
};

}  // namespace ncnas::nn
