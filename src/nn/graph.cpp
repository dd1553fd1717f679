#include "ncnas/nn/graph.hpp"

#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "ncnas/nn/layers.hpp"
#include "ncnas/obs/profiler.hpp"
#include "ncnas/tensor/ops.hpp"

namespace ncnas::nn {

using tensor::Tensor;

std::size_t Graph::add_input(std::string name, FeatShape shape) {
  const std::size_t id = nodes_.size();
  Node node;
  node.layer = std::make_unique<Input>(std::move(name), std::move(shape));
  nodes_.push_back(std::move(node));
  input_ids_.push_back(id);
  output_id_ = id;
  return id;
}

std::size_t Graph::add(LayerPtr layer, std::vector<std::size_t> inputs) {
  if (layer == nullptr) throw std::invalid_argument("Graph::add: null layer");
  const std::size_t id = nodes_.size();
  for (std::size_t in : inputs) {
    if (in >= id) {
      throw std::invalid_argument("Graph::add: input id " + std::to_string(in) +
                                  " is not an existing node (topological order required)");
    }
  }
  for (std::size_t in : inputs) nodes_[in].consumers.push_back(id);
  Node node;
  node.layer = std::move(layer);
  node.inputs = std::move(inputs);
  nodes_.push_back(std::move(node));
  output_id_ = id;
  return id;
}

void Graph::set_output(std::size_t node_id) {
  if (node_id >= nodes_.size()) throw std::invalid_argument("Graph::set_output: bad node id");
  output_id_ = node_id;
  has_output_ = true;
}

template <typename Visit>
std::vector<FeatShape> Graph::infer_shapes(Visit&& visit) const {
  std::vector<FeatShape> shapes(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    std::vector<FeatShape> in;
    in.reserve(node.inputs.size());
    for (std::size_t src : node.inputs) in.push_back(shapes[src]);
    shapes[i] = node.layer->output_shape(in);
    visit(i, std::span<const FeatShape>(in));
  }
  return shapes;
}

FeatShape Graph::output_shape() const {
  return infer_shapes([](std::size_t, std::span<const FeatShape>) {})[output_id_];
}

std::size_t Graph::planned_param_count() const {
  std::unordered_set<const void*> slots;
  std::size_t total = 0;
  (void)infer_shapes([&](std::size_t i, std::span<const FeatShape> in) {
    const PlannedParams p = nodes_[i].layer->planned_params(in);
    if (p.count != 0 && slots.insert(p.slot).second) total += p.count;
  });
  return total;
}

Tensor Graph::forward(std::span<const Tensor> inputs, ForwardCtx& ctx) {
  if (inputs.size() != input_ids_.size()) {
    throw std::invalid_argument("Graph::forward: expected " + std::to_string(input_ids_.size()) +
                                " inputs, got " + std::to_string(inputs.size()));
  }
  NCNAS_PROF_SCOPE("graph/forward");
  // Per-op names are only materialized (kind() returns by value) when a
  // profiler is installed; an empty name makes the scope a no-op.
  const bool profiled = obs::profiling_enabled();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    const std::string op_name = profiled ? "op/" + node.layer->kind() : std::string();
    obs::ProfileScope op_scope(op_name);
    std::vector<const Tensor*> in;
    if (auto* input_layer = dynamic_cast<Input*>(node.layer.get())) {
      // Feed the externally supplied tensor for this input's position.
      std::size_t pos = 0;
      while (input_ids_[pos] != i) ++pos;
      const Tensor& fed = inputs[pos];
      const FeatShape& fs = input_layer->feat_shape();
      tensor::Shape expected{fed.dim(0)};
      expected.insert(expected.end(), fs.begin(), fs.end());
      fed.require_shape(expected, "Graph::forward input");
      in.push_back(&fed);
    } else {
      in.reserve(node.inputs.size());
      for (std::size_t src : node.inputs) in.push_back(&nodes_[src].output);
    }
    node.output = node.layer->forward(in, ctx);
  }
  return nodes_[output_id_].output;
}

void Graph::backward(const Tensor& grad_output) {
  NCNAS_PROF_SCOPE("graph/backward");
  // Reset per-node gradient accumulators; count live consumers reachable from
  // the output so dead branches are skipped.
  for (Node& node : nodes_) {
    node.grad = Tensor();
    node.pending_consumers = 0;
  }
  // A node participates if it is an ancestor of the output node.
  std::vector<bool> live(nodes_.size(), false);
  live[output_id_] = true;
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    if (!live[i]) continue;
    for (std::size_t src : nodes_[i].inputs) live[src] = true;
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (!live[i]) continue;
    for (std::size_t consumer : nodes_[i].consumers) {
      if (live[consumer]) ++nodes_[i].pending_consumers;
    }
  }

  const bool profiled = obs::profiling_enabled();
  nodes_[output_id_].grad = grad_output;
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    Node& node = nodes_[i];
    if (!live[i] || node.grad.empty()) continue;
    const std::string op_name = profiled ? "op/" + node.layer->kind() : std::string();
    obs::ProfileScope op_scope(op_name);
    std::vector<Tensor> input_grads = node.layer->backward(node.grad);
    if (dynamic_cast<Input*>(node.layer.get()) != nullptr) continue;
    if (input_grads.size() != node.inputs.size()) {
      throw std::logic_error("Graph::backward: layer '" + node.layer->kind() +
                             "' returned wrong number of input grads");
    }
    for (std::size_t j = 0; j < node.inputs.size(); ++j) {
      Node& src = nodes_[node.inputs[j]];
      if (src.grad.empty()) {
        src.grad = std::move(input_grads[j]);
      } else {
        tensor::add_inplace(src.grad, input_grads[j]);
      }
    }
  }
}

std::vector<ParamPtr> Graph::parameters() const {
  std::vector<ParamPtr> all;
  for (const Node& node : nodes_) {
    const auto ps = node.layer->parameters();
    all.insert(all.end(), ps.begin(), ps.end());
  }
  return unique_params(all);
}

std::size_t Graph::param_count() const { return unique_param_count(parameters()); }

void Graph::zero_grad() {
  for (const ParamPtr& p : parameters()) p->zero_grad();
}

std::string Graph::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    os << '#' << i << ' ' << nodes_[i].layer->describe();
    if (!nodes_[i].inputs.empty()) {
      os << "  <-";
      for (std::size_t in : nodes_[i].inputs) os << ' ' << in;
    }
    if (i == output_id_) os << "  [output]";
    os << '\n';
  }
  return os.str();
}

}  // namespace ncnas::nn
