#include <cmath>
#include <stdexcept>

#include "nn/ops.hpp"

namespace laco::nn {
namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " + shape_str(a.shape()) +
                                " vs " + shape_str(b.shape()));
  }
}

/// Generic unary op: out = f(a), da += df(a, out, dout). The backward
/// closure must NOT capture the output impl (self-reference cycle →
/// leaked graphs); backward_fn's `self` parameter IS the output node.
template <typename Fwd, typename Bwd>
Tensor unary_op(const Tensor& a, Fwd fwd, Bwd bwd) {
  auto ai = a.impl();
  Tensor out = make_op_output(a.shape(), {&a}, [ai, bwd](TensorImpl& self) {
    if (!ai->requires_grad) return;
    ai->ensure_grad();
    for (std::size_t i = 0; i < ai->data.size(); ++i) {
      ai->grad[i] += bwd(ai->data[i], self.data[i]) * self.grad[i];
    }
  });
  const auto& x = a.data();
  auto& y = out.data();
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = fwd(x[i]);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  auto ai = a.impl();
  auto bi = b.impl();
  Tensor out = make_op_output(a.shape(), {&a, &b}, [ai, bi](TensorImpl& self) {
    if (ai->requires_grad) {
      ai->ensure_grad();
      for (std::size_t i = 0; i < ai->grad.size(); ++i) ai->grad[i] += self.grad[i];
    }
    if (bi->requires_grad) {
      bi->ensure_grad();
      for (std::size_t i = 0; i < bi->grad.size(); ++i) bi->grad[i] += self.grad[i];
    }
  });
  for (std::size_t i = 0; i < out.data().size(); ++i) out.data()[i] = a.data()[i] + b.data()[i];
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  auto ai = a.impl();
  auto bi = b.impl();
  Tensor out = make_op_output(a.shape(), {&a, &b}, [ai, bi](TensorImpl& self) {
    if (ai->requires_grad) {
      ai->ensure_grad();
      for (std::size_t i = 0; i < ai->grad.size(); ++i) ai->grad[i] += self.grad[i];
    }
    if (bi->requires_grad) {
      bi->ensure_grad();
      for (std::size_t i = 0; i < bi->grad.size(); ++i) bi->grad[i] -= self.grad[i];
    }
  });
  for (std::size_t i = 0; i < out.data().size(); ++i) out.data()[i] = a.data()[i] - b.data()[i];
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  auto ai = a.impl();
  auto bi = b.impl();
  Tensor out = make_op_output(a.shape(), {&a, &b}, [ai, bi](TensorImpl& self) {
    if (ai->requires_grad) {
      ai->ensure_grad();
      for (std::size_t i = 0; i < ai->grad.size(); ++i) ai->grad[i] += bi->data[i] * self.grad[i];
    }
    if (bi->requires_grad) {
      bi->ensure_grad();
      for (std::size_t i = 0; i < bi->grad.size(); ++i) bi->grad[i] += ai->data[i] * self.grad[i];
    }
  });
  for (std::size_t i = 0; i < out.data().size(); ++i) out.data()[i] = a.data()[i] * b.data()[i];
  return out;
}

Tensor scale(const Tensor& a, float s) {
  return unary_op(a, [s](float x) { return x * s; }, [s](float, float) { return s; });
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary_op(a, [s](float x) { return x + s; }, [](float, float) { return 1.0f; });
}

Tensor neg(const Tensor& a) { return scale(a, -1.0f); }

Tensor leaky_relu(const Tensor& a, float negative_slope) {
  return unary_op(
      a, [negative_slope](float x) { return x >= 0.0f ? x : negative_slope * x; },
      [negative_slope](float x, float) { return x >= 0.0f ? 1.0f : negative_slope; });
}

Tensor relu(const Tensor& a) { return leaky_relu(a, 0.0f); }

Tensor sigmoid(const Tensor& a) {
  return unary_op(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor tanh_op(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::tanh(x); }, [](float, float y) { return 1.0f - y * y; });
}

Tensor exp_op(const Tensor& a) {
  return unary_op(a, [](float x) { return std::exp(x); }, [](float, float y) { return y; });
}

Tensor log_op(const Tensor& a) {
  return unary_op(
      a, [](float x) { return std::log(std::max(x, 1e-12f)); },
      [](float x, float) { return 1.0f / std::max(x, 1e-12f); });
}

Tensor square(const Tensor& a) {
  return unary_op(a, [](float x) { return x * x; }, [](float x, float) { return 2.0f * x; });
}

}  // namespace laco::nn
