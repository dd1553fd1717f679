// Property-style sweeps over ALL canned search spaces: every random
// architecture must validate, build, forward, backward, and train a step —
// the invariant the whole search pipeline rests on.
#include <gtest/gtest.h>

#include "ncnas/exec/evaluator.hpp"
#include "ncnas/nn/trainer.hpp"
#include "ncnas/space/builder.hpp"
#include "ncnas/space/spaces.hpp"

namespace ncnas::space {
namespace {

class SpaceProperty : public ::testing::TestWithParam<std::string> {
 protected:
  static data::Dataset tiny_dataset_for(const std::string& space_name) {
    if (space_name.starts_with("combo")) {
      data::ComboDims dims;
      dims.train = 48;
      dims.valid = 24;
      dims.expression = 8;
      dims.descriptors = 10;
      return data::make_combo(3, dims);
    }
    if (space_name.starts_with("uno")) {
      data::UnoDims dims;
      dims.train = 48;
      dims.valid = 24;
      dims.rnaseq = 8;
      dims.descriptors = 10;
      dims.fingerprints = 6;
      return data::make_uno(3, dims);
    }
    data::Nt3Dims dims;
    dims.train = 48;
    dims.valid = 24;
    dims.length = 64;
    dims.motif = 6;
    return data::make_nt3(3, dims);
  }
};

TEST_P(SpaceProperty, SizeConsistentWithArities) {
  const SearchSpace sp = space_by_name(GetParam());
  double log10 = 0.0;
  for (std::size_t a : sp.arities()) log10 += std::log10(static_cast<double>(a));
  EXPECT_NEAR(sp.log10_size(), log10, 1e-9);
  EXPECT_GT(sp.size(), 1.0);
}

TEST_P(SpaceProperty, RandomArchsAreValidAndDistinct) {
  const SearchSpace sp = space_by_name(GetParam());
  tensor::Rng rng(11);
  std::set<std::string> keys;
  for (int i = 0; i < 100; ++i) {
    const ArchEncoding arch = sp.random_arch(rng);
    ASSERT_TRUE(sp.is_valid(arch));
    keys.insert(arch_key(arch));
  }
  // Spaces are astronomically large; 100 draws should essentially never
  // collide.
  EXPECT_GT(keys.size(), 95u);
}

TEST_P(SpaceProperty, EveryRandomArchBuildsForwardsAndBackwards) {
  const SearchSpace sp = space_by_name(GetParam());
  const data::Dataset ds = tiny_dataset_for(GetParam());
  std::vector<std::size_t> dims;
  for (std::size_t i = 0; i < ds.input_count(); ++i) dims.push_back(ds.input_dim(i));
  const TaskHead head = exec::head_for(ds);

  tensor::Rng arch_rng(17);
  for (int trial = 0; trial < 15; ++trial) {
    const ArchEncoding arch = sp.random_arch(arch_rng);
    tensor::Rng rng(1);
    nn::Graph g = build_model(sp, arch, dims, head, rng);
    // Shape inference agrees with the actual forward pass.
    const nn::FeatShape inferred = g.output_shape();
    nn::ForwardCtx ctx{};
    std::vector<tensor::Tensor> probe;
    for (const auto& x : ds.x_train) probe.push_back(nn::slice_rows(x, 0, 3));
    const tensor::Tensor y = g.forward(probe, ctx);
    ASSERT_EQ(y.dim(0), 3u) << sp.describe(arch);
    ASSERT_EQ(y.size() / y.dim(0), tensor::numel(inferred)) << sp.describe(arch);
    // Backward runs and produces finite parameter gradients.
    g.zero_grad();
    tensor::Tensor grad(y.shape());
    grad.fill(0.1f);
    g.backward(grad);
    for (const nn::ParamPtr& p : g.parameters()) {
      for (float v : p->grad.flat()) ASSERT_TRUE(std::isfinite(v)) << sp.describe(arch);
    }
  }
}

// The quote prices a candidate from shape inference alone; it must agree
// with the count the materialized weights report after a forward pass —
// mirrored (weight-sharing) layers included, counted once.
TEST_P(SpaceProperty, PlannedParamCountMatchesMaterializedCount) {
  const SearchSpace sp = space_by_name(GetParam());
  const data::Dataset ds = tiny_dataset_for(GetParam());
  std::vector<std::size_t> dims;
  for (std::size_t i = 0; i < ds.input_count(); ++i) dims.push_back(ds.input_dim(i));
  const TaskHead head = exec::head_for(ds);
  std::vector<tensor::Tensor> probe;
  for (const auto& x : ds.x_train) probe.push_back(nn::slice_rows(x, 0, 1));

  tensor::Rng arch_rng(31);
  std::size_t mirrored = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const ArchEncoding arch = sp.random_arch(arch_rng);
    tensor::Rng rng(5);
    nn::Graph g = build_model(sp, arch, dims, head, rng);
    ASSERT_EQ(g.param_count(), 0u) << "weights materialized before any forward";
    const std::size_t planned = g.planned_param_count();
    EXPECT_EQ(g.param_count(), 0u) << "planning allocated weights";
    nn::ForwardCtx ctx{};
    (void)g.forward(probe, ctx);
    ASSERT_EQ(planned, g.param_count()) << sp.describe(arch) << '\n' << g.summary();
    if (g.summary().find(", shared)") != std::string::npos) ++mirrored;
  }
  // Combo's drug-descriptor submodel is mirrored, so shared slots are
  // exercised; the other spaces have no MirrorNode.
  if (GetParam().starts_with("combo")) {
    EXPECT_GT(mirrored, 0u);
  } else {
    EXPECT_EQ(mirrored, 0u);
  }
}

TEST_P(SpaceProperty, EveryRandomArchTrainsOneEpoch) {
  const SearchSpace sp = space_by_name(GetParam());
  const data::Dataset ds = tiny_dataset_for(GetParam());
  const exec::TrainingEvaluator eval(sp, ds, {.epochs = 1, .subset_fraction = 1.0},
                                     exec::CostModel{.timeout_seconds = 1e12});
  tensor::Rng arch_rng(23);
  for (int trial = 0; trial < 8; ++trial) {
    const exec::EvalResult r = eval.evaluate(sp.random_arch(arch_rng), 7);
    EXPECT_TRUE(std::isfinite(r.reward));
    EXPECT_GE(r.reward, eval.reward_floor());
    EXPECT_GT(r.params, 0u);
  }
}

TEST_P(SpaceProperty, DeterministicBuildsProduceIdenticalRewards) {
  const SearchSpace sp = space_by_name(GetParam());
  const data::Dataset ds = tiny_dataset_for(GetParam());
  const exec::TrainingEvaluator eval(sp, ds, {.epochs = 1, .subset_fraction = 0.5},
                                     exec::CostModel{.timeout_seconds = 1e12});
  tensor::Rng arch_rng(29);
  const ArchEncoding arch = sp.random_arch(arch_rng);
  EXPECT_EQ(eval.evaluate(arch, 42).reward, eval.evaluate(arch, 42).reward);
}

INSTANTIATE_TEST_SUITE_P(AllSpaces, SpaceProperty,
                         ::testing::Values("combo-small", "combo-large", "uno-small",
                                           "uno-large", "nt3-small"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace ncnas::space
