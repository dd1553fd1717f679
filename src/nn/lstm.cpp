#include "ncnas/nn/lstm.hpp"

#include <cmath>
#include <stdexcept>

#include "ncnas/nn/init.hpp"
#include "ncnas/tensor/ops.hpp"

namespace ncnas::nn {

using tensor::Tensor;

namespace {

/// Applies the gate nonlinearities in place to pre-activations z [batch,
/// 4H] (gate order i, f, g, o): sigmoid on i, f and o, tanh on g, as whole
/// slices so the tensor kernels can vectorize them. Same bytes as calling
/// 1 / (1 + std::exp(-v)) and std::tanh per element.
void activate_gates(Tensor& z, std::size_t batch, std::size_t H) {
  for (std::size_t r = 0; r < batch; ++r) {
    float* zr = z.data() + r * 4 * H;
    tensor::sigmoid_inplace(zr, 2 * H);
    tensor::tanh_inplace(zr + 2 * H, H);
    tensor::sigmoid_inplace(zr + 3 * H, H);
  }
}

}  // namespace

LstmCell::LstmCell(std::size_t input_dim, std::size_t hidden_dim, tensor::Rng& rng)
    : input_dim_(input_dim), hidden_dim_(hidden_dim) {
  if (input_dim == 0 || hidden_dim == 0) {
    throw std::invalid_argument("LstmCell: dims must be positive");
  }
  Tensor wx({input_dim, 4 * hidden_dim});
  glorot_uniform(wx, input_dim, 4 * hidden_dim, rng);
  Tensor wh({hidden_dim, 4 * hidden_dim});
  scaled_normal(wh, 1.0f / std::sqrt(static_cast<float>(hidden_dim)), rng);
  Tensor b({4 * hidden_dim});
  // Forget-gate bias 1.0: the standard trick for gradient flow early on.
  for (std::size_t j = hidden_dim; j < 2 * hidden_dim; ++j) b[j] = 1.0f;
  wx_ = std::make_shared<Parameter>("lstm.wx", std::move(wx));
  wh_ = std::make_shared<Parameter>("lstm.wh", std::move(wh));
  b_ = std::make_shared<Parameter>("lstm.b", std::move(b));
}

LstmState LstmCell::initial_state(std::size_t batch) const {
  return {Tensor({batch, hidden_dim_}), Tensor({batch, hidden_dim_})};
}

void LstmCell::gates(const Tensor& x, const LstmState& prev, Tensor& z) const {
  const std::size_t batch = x.dim(0);
  // z = x Wx + h_prev Wh + b, built on scratch tensors: gemm overwrites z
  // directly (it zero-starts every accumulation chain, so this is bitwise
  // the old zeros-then-add form — gemm also never produces -0, so the
  // dropped `0 +` term can't flip a sign bit) and zh_ is the only partial.
  z.reset({batch, 4 * hidden_dim_});
  tensor::gemm(x, wx_->value, z);
  zh_.reset({batch, 4 * hidden_dim_});
  tensor::gemm(prev.h, wh_->value, zh_);
  tensor::add_inplace(z, zh_);
  tensor::add_row_bias(z, b_->value);
}

LstmState LstmCell::step(const Tensor& x, const LstmState& prev) {
  const std::size_t batch = x.dim(0);
  Tensor& z = z_;
  gates(x, prev, z);

  StepCache cache;
  cache.x = x;
  cache.h_prev = prev.h;
  cache.c_prev = prev.c;
  cache.i = Tensor({batch, hidden_dim_});
  cache.f = Tensor({batch, hidden_dim_});
  cache.g = Tensor({batch, hidden_dim_});
  cache.o = Tensor({batch, hidden_dim_});
  cache.c_new = Tensor({batch, hidden_dim_});

  LstmState next{Tensor({batch, hidden_dim_}), Tensor({batch, hidden_dim_})};
  const std::size_t H = hidden_dim_;
  activate_gates(z, batch, H);
  // Row-parallel: every (r, j) cell is written by exactly one chunk and its
  // value depends only on that cell's inputs, so bytes match the serial loop.
  tensor::parallel_rows(batch, 4 * H, [&](std::size_t rb, std::size_t re) {
    for (std::size_t r = rb; r < re; ++r) {
      const float* zr = z.data() + r * 4 * H;
      for (std::size_t j = 0; j < H; ++j) {
        const float iv = zr[j];
        const float fv = zr[H + j];
        const float gv = zr[2 * H + j];
        const float ov = zr[3 * H + j];
        const float cv = fv * prev.c(r, j) + iv * gv;
        cache.i(r, j) = iv;
        cache.f(r, j) = fv;
        cache.g(r, j) = gv;
        cache.o(r, j) = ov;
        cache.c_new(r, j) = cv;
        next.c(r, j) = cv;
      }
    }
  });
  cache.tanh_c = cache.c_new;
  tensor::tanh_inplace(cache.tanh_c);
  for (std::size_t i = 0; i < next.h.size(); ++i) next.h[i] = cache.o[i] * cache.tanh_c[i];
  cache_.push_back(std::move(cache));
  return next;
}

LstmState LstmCell::step_nograd(const Tensor& x, const LstmState& prev) const {
  const std::size_t batch = x.dim(0);
  Tensor& z = z_;
  gates(x, prev, z);
  LstmState next{Tensor({batch, hidden_dim_}), Tensor({batch, hidden_dim_})};
  const std::size_t H = hidden_dim_;
  activate_gates(z, batch, H);
  tensor::parallel_rows(batch, 4 * H, [&](std::size_t rb, std::size_t re) {
    for (std::size_t r = rb; r < re; ++r) {
      const float* zr = z.data() + r * 4 * H;
      for (std::size_t j = 0; j < H; ++j) {
        const float iv = zr[j];
        const float fv = zr[H + j];
        const float gv = zr[2 * H + j];
        const float cv = fv * prev.c(r, j) + iv * gv;
        next.c(r, j) = cv;
      }
    }
  });
  // h = o * tanh(c): tanh over the whole state, then the output gate.
  next.h = next.c;
  tensor::tanh_inplace(next.h);
  for (std::size_t r = 0; r < batch; ++r) {
    const float* o = z.data() + r * 4 * H + 3 * H;
    float* h = next.h.data() + r * H;
    for (std::size_t j = 0; j < H; ++j) h[j] = o[j] * h[j];
  }
  return next;
}

Tensor LstmCell::backward_step(const Tensor& grad_h, const Tensor& grad_c,
                               Tensor& grad_h_prev, Tensor& grad_c_prev) {
  if (cache_.empty()) throw std::logic_error("LstmCell::backward_step: cache empty");
  StepCache cache = std::move(cache_.back());
  cache_.pop_back();

  const std::size_t batch = cache.x.dim(0);
  const std::size_t H = hidden_dim_;
  // dz_/dwx_/dwh_ are member scratch and grad_*_prev reuse the caller's
  // buffers via reset(); every element is overwritten below.
  dz_.reset({batch, 4 * H});
  Tensor& dz = dz_;
  grad_c_prev.reset({batch, H});
  tensor::parallel_rows(batch, 4 * H, [&](std::size_t rb, std::size_t re) {
    for (std::size_t r = rb; r < re; ++r) {
      float* dzr = dz.data() + r * 4 * H;
      for (std::size_t j = 0; j < H; ++j) {
        const float dh = grad_h(r, j);
        const float o = cache.o(r, j);
        const float tc = cache.tanh_c(r, j);
        const float dc = grad_c(r, j) + dh * o * (1.0f - tc * tc);
        const float i = cache.i(r, j);
        const float f = cache.f(r, j);
        const float g = cache.g(r, j);
        const float do_ = dh * tc;
        const float di = dc * g;
        const float df = dc * cache.c_prev(r, j);
        const float dg = dc * i;
        dzr[j] = di * i * (1.0f - i);
        dzr[H + j] = df * f * (1.0f - f);
        dzr[2 * H + j] = dg * (1.0f - g * g);
        dzr[3 * H + j] = do_ * o * (1.0f - o);
        grad_c_prev(r, j) = dc * f;
      }
    }
  });

  // Parameter grads.
  dwx_.reset({input_dim_, 4 * H});
  tensor::gemm_tn(cache.x, dz, dwx_);
  tensor::add_inplace(wx_->grad, dwx_);
  dwh_.reset({H, 4 * H});
  tensor::gemm_tn(cache.h_prev, dz, dwh_);
  tensor::add_inplace(wh_->grad, dwh_);
  tensor::accumulate_col_sums(dz, b_->grad);

  // Input grads.
  Tensor dx({batch, input_dim_});
  tensor::gemm_nt(dz, wx_->value, dx);
  grad_h_prev.reset({batch, H});
  tensor::gemm_nt(dz, wh_->value, grad_h_prev);
  return dx;
}

void LstmCell::clear_cache() { cache_.clear(); }

}  // namespace ncnas::nn
