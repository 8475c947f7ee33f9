// Differential tests for the tiled conv/norm kernels (docs/KERNELS.md):
// the optimized nn:: ops must reproduce the naive nn::reference oracle
// *bitwise* — forwards and autograd backwards — across a shape sweep
// covering strides, paddings, groups, non-square kernels/inputs, and
// the zero-skip paths; plus finite-difference gradient checks and
// bitwise determinism across ThreadPool sizes {1, 2, 8}.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "nn/autograd.hpp"
#include "nn/kernel_pool.hpp"
#include "nn/ops.hpp"
#include "nn/reference_kernels.hpp"
#include "obs/metrics.hpp"

namespace laco::nn {
namespace {

Tensor randn(Shape shape, unsigned seed, float lo = -1.0f, float hi = 1.0f) {
  Tensor t = Tensor::zeros(std::move(shape));
  fill_uniform(t, lo, hi, seed);
  return t;
}

/// Independent tensor with identical bits (fresh autograd graph).
Tensor copy_of(const Tensor& t, bool requires_grad = false) {
  Tensor c = Tensor::zeros(t.shape());
  std::memcpy(c.data().data(), t.data().data(), t.numel() * sizeof(float));
  c.set_requires_grad(requires_grad);
  return c;
}

testing::AssertionResult bitwise_equal(const std::vector<float>& a, const std::vector<float>& b,
                                       const char* what) {
  if (a.size() != b.size()) {
    return testing::AssertionFailure() << what << ": size " << a.size() << " vs " << b.size();
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
        return testing::AssertionFailure()
               << what << ": first difference at [" << i << "]: " << a[i] << " vs " << b[i];
      }
    }
  }
  return testing::AssertionSuccess();
}

/// Kernel thread counts every dX case runs at (the reference is
/// single-threaded, so matching it at each count also pins determinism).
constexpr int kThreadCounts[] = {1, 2, 8};

// ------------------------------------------------------------- conv2d

struct ConvCase {
  int n, cin, h, w, cout, kh, kw, stride, padding, groups;
};

std::string conv_case_name(const ConvCase& c) {
  return std::to_string(c.n) + "x" + std::to_string(c.cin) + "x" + std::to_string(c.h) + "x" +
         std::to_string(c.w) + "_k" + std::to_string(c.kh) + "x" + std::to_string(c.kw) + "_s" +
         std::to_string(c.stride) + "_p" + std::to_string(c.padding) + "_g" +
         std::to_string(c.groups);
}

const ConvCase kConvCases[] = {
    {1, 3, 8, 8, 4, 3, 3, 1, 1, 1},   // vanilla 3x3 same-conv
    {2, 4, 9, 7, 6, 3, 3, 2, 1, 1},   // stride 2, non-square input, odd dims
    {1, 4, 8, 8, 4, 3, 3, 1, 1, 2},   // grouped
    {1, 4, 7, 7, 8, 3, 3, 2, 0, 4},   // groups=4, no padding
    {1, 2, 6, 6, 3, 1, 1, 1, 0, 1},   // 1x1 pointwise
    {1, 2, 6, 6, 3, 1, 1, 2, 0, 1},   // 1x1 strided
    {1, 3, 5, 9, 2, 3, 1, 1, 1, 1},   // non-square kernel 3x1
    {1, 3, 9, 5, 2, 1, 3, 2, 1, 1},   // non-square kernel 1x3, stride 2
    {2, 2, 5, 5, 2, 3, 3, 3, 2, 1},   // stride 3, padding 2
    {1, 1, 3, 3, 1, 3, 3, 1, 2, 1},   // padding wider than interior
    {1, 2, 4, 4, 2, 4, 4, 2, 1, 2},   // even kernel, grouped, strided
    {1, 3, 16, 12, 5, 3, 3, 1, 1, 1}, // bigger: interior GEMM dominates
    {1, 3, 8, 8, 4, 3, 3, 2, 1, 1},   // (h + 2p − k) mod s = 1: dX dual has output_padding 1
    {1, 2, 9, 8, 3, 3, 3, 3, 1, 1},   // remainders 2 x 1: output_padding differs per axis
};

class Conv2dDifferential : public testing::TestWithParam<ConvCase> {};

TEST_P(Conv2dDifferential, BitwiseMatchesReferenceForwardAndBackward) {
  const ConvCase c = GetParam();
  Tensor x = randn({c.n, c.cin, c.h, c.w}, 100 + c.h, -1.0f, 1.0f);
  Tensor w = randn({c.cout, c.cin / c.groups, c.kh, c.kw}, 200 + c.kh);
  Tensor b = randn({c.cout}, 300 + c.cout);
  x.set_requires_grad(true);
  w.set_requires_grad(true);
  b.set_requires_grad(true);
  Tensor xr = copy_of(x, true), wr = copy_of(w, true), br = copy_of(b, true);

  Tensor y = conv2d(x, w, b, c.stride, c.padding, c.groups);
  Tensor yr = reference::conv2d(xr, wr, br, c.stride, c.padding, c.groups);
  ASSERT_EQ(y.shape(), yr.shape()) << conv_case_name(c);
  EXPECT_TRUE(bitwise_equal(y.data(), yr.data(), "forward")) << conv_case_name(c);

  sum(square(y)).backward();
  sum(square(yr)).backward();
  EXPECT_TRUE(bitwise_equal(x.grad(), xr.grad(), "x.grad")) << conv_case_name(c);
  EXPECT_TRUE(bitwise_equal(w.grad(), wr.grad(), "w.grad")) << conv_case_name(c);
  EXPECT_TRUE(bitwise_equal(b.grad(), br.grad(), "b.grad")) << conv_case_name(c);
}

TEST_P(Conv2dDifferential, FrozenWeightInputGradBitwise) {
  // The placement penalty freezes every weight: backward computes dX only.
  const ConvCase c = GetParam();
  Tensor x0 = randn({c.n, c.cin, c.h, c.w}, 110 + c.h);
  Tensor w = randn({c.cout, c.cin / c.groups, c.kh, c.kw}, 210 + c.kh);
  Tensor b = randn({c.cout}, 310 + c.cout);
  for (int threads : kThreadCounts) {
    set_kernel_threads(threads);
    Tensor x = copy_of(x0, true), xr = copy_of(x0, true);
    sum(square(conv2d(x, w, b, c.stride, c.padding, c.groups))).backward();
    sum(square(reference::conv2d(xr, w, b, c.stride, c.padding, c.groups))).backward();
    EXPECT_TRUE(bitwise_equal(x.grad(), xr.grad(), "x.grad"))
        << conv_case_name(c) << ", " << threads << " threads";
    EXPECT_TRUE(w.grad().empty()) << conv_case_name(c);
  }
  set_kernel_threads(1);
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, Conv2dDifferential, testing::ValuesIn(kConvCases),
                         [](const testing::TestParamInfo<ConvCase>& info) {
                           return conv_case_name(info.param);
                         });

TEST(Conv2dDifferential, NoBiasBitwise) {
  Tensor x = randn({1, 3, 7, 7}, 41);
  Tensor w = randn({4, 3, 3, 3}, 42);
  Tensor y = conv2d(x, w, Tensor(), 2, 1);
  Tensor yr = reference::conv2d(copy_of(x), copy_of(w), Tensor(), 2, 1);
  EXPECT_TRUE(bitwise_equal(y.data(), yr.data(), "forward"));
}

TEST(Conv2dDifferential, SparseUpstreamGradientBitwise) {
  // relu zeroes most of the upstream gradient, exercising the
  // gout == 0 skip in both backward passes.
  Tensor x = randn({1, 2, 8, 8}, 51);
  Tensor w = randn({3, 2, 3, 3}, 52);
  Tensor b = randn({3}, 53);
  x.set_requires_grad(true);
  w.set_requires_grad(true);
  Tensor xr = copy_of(x, true), wr = copy_of(w, true), br = copy_of(b);
  sum(relu(conv2d(x, w, b, 1, 1))).backward();
  sum(relu(reference::conv2d(xr, wr, br, 1, 1))).backward();
  EXPECT_TRUE(bitwise_equal(x.grad(), xr.grad(), "x.grad"));
  EXPECT_TRUE(bitwise_equal(w.grad(), wr.grad(), "w.grad"));
}

// ---------------------------------------------------- conv_transpose2d

struct ConvTCase {
  int n, cin, h, w, cout_g, kh, kw, stride, padding, output_padding, groups;
};

std::string convt_case_name(const ConvTCase& c) {
  return std::to_string(c.n) + "x" + std::to_string(c.cin) + "x" + std::to_string(c.h) + "x" +
         std::to_string(c.w) + "_k" + std::to_string(c.kh) + "x" + std::to_string(c.kw) + "_s" +
         std::to_string(c.stride) + "_p" + std::to_string(c.padding) + "_op" +
         std::to_string(c.output_padding) + "_g" + std::to_string(c.groups);
}

const ConvTCase kConvTCases[] = {
    {1, 4, 4, 4, 3, 4, 4, 2, 1, 0, 1},  // the DREAM-Cong deconv shape family
    {2, 3, 5, 4, 2, 3, 3, 2, 1, 1, 1},  // output_padding, non-square input
    {1, 4, 4, 4, 2, 3, 3, 1, 0, 0, 2},  // grouped, stride 1
    {1, 4, 3, 5, 1, 2, 3, 3, 0, 2, 4},  // groups=4, stride 3, non-square kernel
    {1, 2, 6, 6, 2, 1, 1, 1, 0, 0, 1},  // 1x1
    {1, 2, 4, 4, 2, 3, 3, 2, 2, 1, 1},  // padding 2 (negative obase ranges)
};

class ConvT2dDifferential : public testing::TestWithParam<ConvTCase> {};

TEST_P(ConvT2dDifferential, BitwiseMatchesReferenceForwardAndBackward) {
  const ConvTCase c = GetParam();
  Tensor x = randn({c.n, c.cin, c.h, c.w}, 400 + c.h);
  Tensor w = randn({c.cin, c.cout_g, c.kh, c.kw}, 500 + c.kw);
  Tensor b = randn({c.cout_g * c.groups}, 600 + c.cout_g);
  // Exact zeros in the input exercise the x == 0 contribution skip.
  x.data()[0] = 0.0f;
  x.data()[x.numel() / 2] = 0.0f;
  x.set_requires_grad(true);
  w.set_requires_grad(true);
  b.set_requires_grad(true);
  Tensor xr = copy_of(x, true), wr = copy_of(w, true), br = copy_of(b, true);

  Tensor y = conv_transpose2d(x, w, b, c.stride, c.padding, c.output_padding, c.groups);
  Tensor yr =
      reference::conv_transpose2d(xr, wr, br, c.stride, c.padding, c.output_padding, c.groups);
  ASSERT_EQ(y.shape(), yr.shape()) << convt_case_name(c);
  EXPECT_TRUE(bitwise_equal(y.data(), yr.data(), "forward")) << convt_case_name(c);

  sum(square(y)).backward();
  sum(square(yr)).backward();
  EXPECT_TRUE(bitwise_equal(x.grad(), xr.grad(), "x.grad")) << convt_case_name(c);
  EXPECT_TRUE(bitwise_equal(w.grad(), wr.grad(), "w.grad")) << convt_case_name(c);
  EXPECT_TRUE(bitwise_equal(b.grad(), br.grad(), "b.grad")) << convt_case_name(c);
}

TEST_P(ConvT2dDifferential, FrozenWeightInputGradBitwise) {
  const ConvTCase c = GetParam();
  Tensor x0 = randn({c.n, c.cin, c.h, c.w}, 410 + c.h);
  Tensor w = randn({c.cin, c.cout_g, c.kh, c.kw}, 510 + c.kw);
  Tensor b = randn({c.cout_g * c.groups}, 610 + c.cout_g);
  for (int threads : kThreadCounts) {
    set_kernel_threads(threads);
    Tensor x = copy_of(x0, true), xr = copy_of(x0, true);
    sum(square(conv_transpose2d(x, w, b, c.stride, c.padding, c.output_padding, c.groups)))
        .backward();
    sum(square(reference::conv_transpose2d(xr, w, b, c.stride, c.padding, c.output_padding,
                                           c.groups)))
        .backward();
    EXPECT_TRUE(bitwise_equal(x.grad(), xr.grad(), "x.grad"))
        << convt_case_name(c) << ", " << threads << " threads";
    EXPECT_TRUE(w.grad().empty()) << convt_case_name(c);
  }
  set_kernel_threads(1);
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, ConvT2dDifferential, testing::ValuesIn(kConvTCases),
                         [](const testing::TestParamInfo<ConvTCase>& info) {
                           return convt_case_name(info.param);
                         });

TEST(ConvT2dDifferential, ZeroRegionInputBitwise) {
  // A half-zero input makes the skip path dominate.
  Tensor x = randn({1, 2, 6, 6}, 61);
  for (std::size_t i = 0; i < static_cast<std::size_t>(x.numel()) / 2; ++i) x.data()[i] = 0.0f;
  Tensor w = randn({2, 3, 4, 4}, 62);
  Tensor y = conv_transpose2d(x, w, Tensor(), 2, 1);
  Tensor yr = reference::conv_transpose2d(copy_of(x), copy_of(w), Tensor(), 2, 1);
  EXPECT_TRUE(bitwise_equal(y.data(), yr.data(), "forward"));
}

TEST(ConvT2dDifferential, SparseUpstreamGradientBitwise) {
  // relu zeroes most of the upstream gradient: the gout == 0 skip of
  // the reference backward against the skip-free conv2d dX dual.
  Tensor x0 = randn({1, 3, 6, 5}, 81);
  Tensor w0 = randn({3, 2, 4, 4}, 82);
  Tensor b = randn({2}, 83);
  for (int threads : kThreadCounts) {
    set_kernel_threads(threads);
    Tensor x = copy_of(x0, true), w = copy_of(w0, true);
    Tensor xr = copy_of(x0, true), wr = copy_of(w0, true);
    sum(relu(conv_transpose2d(x, w, b, 2, 1))).backward();
    sum(relu(reference::conv_transpose2d(xr, wr, b, 2, 1))).backward();
    EXPECT_TRUE(bitwise_equal(x.grad(), xr.grad(), "x.grad")) << threads << " threads";
    EXPECT_TRUE(bitwise_equal(w.grad(), wr.grad(), "w.grad")) << threads << " threads";
  }
  set_kernel_threads(1);
}

// ------------------------------------------------- shared-input dX chains

/// One input feeding several frozen-weight convs, as InceptionBlock's
/// branches share theirs: every dX pass after the first starts from a
/// nonzero x.grad. A conv_transpose2d opens the loss and a conv2d closes
/// it, so both dual paths continue a chain whatever order backward runs
/// the ops in.
std::vector<float> shared_input_grad(const Tensor& x0, bool use_reference) {
  const auto c2d = use_reference ? &reference::conv2d : &conv2d;
  const auto ct2d = use_reference ? &reference::conv_transpose2d : &conv_transpose2d;
  Tensor x = copy_of(x0, true);
  const Tensor w3 = randn({4, 4, 3, 3}, 91), w5 = randn({4, 2, 5, 5}, 92);
  const Tensor w1 = randn({2, 4, 1, 1}, 93), wt = randn({4, 3, 4, 4}, 94);
  const Tensor wt3 = randn({4, 1, 3, 3}, 96), b = randn({4}, 95);
  Tensor loss = sum(square(ct2d(x, wt, Tensor(), 2, 1, 1, 1)));
  loss = add(loss, sum(square(c2d(x, w3, b, 1, 1, 1))));
  loss = add(loss, sum(square(c2d(x, w5, b, 2, 2, 2))));
  loss = add(loss, sum(square(ct2d(x, wt3, Tensor(), 1, 1, 0, 2))));
  loss = add(loss, sum(square(c2d(x, w1, Tensor(), 1, 0, 1))));
  loss.backward();
  return x.grad();
}

TEST(SharedInputDifferential, AccumulatedInputGradBitwise) {
  const Tensor x0 = randn({2, 4, 7, 6}, 90);
  const std::vector<float> ref = shared_input_grad(x0, true);
  for (int threads : kThreadCounts) {
    set_kernel_threads(threads);
    EXPECT_TRUE(bitwise_equal(shared_input_grad(x0, false), ref, "x.grad"))
        << threads << " threads";
  }
  set_kernel_threads(1);
}

// ----------------------------------------------------------- group_norm

struct GnCase {
  int n, c, h, w, groups;
};

const GnCase kGnCases[] = {
    {1, 4, 5, 5, 1}, {2, 4, 6, 3, 2}, {1, 8, 4, 4, 4}, {3, 6, 1, 7, 3}, {1, 2, 1, 1, 2},
};

class GroupNormDifferential : public testing::TestWithParam<GnCase> {};

TEST_P(GroupNormDifferential, BitwiseMatchesReferenceForwardAndBackward) {
  const GnCase c = GetParam();
  Tensor x = randn({c.n, c.c, c.h, c.w}, 700 + c.c, -2.0f, 2.0f);
  Tensor gamma = randn({c.c}, 800 + c.c, 0.5f, 1.5f);
  Tensor beta = randn({c.c}, 900 + c.c);
  x.set_requires_grad(true);
  gamma.set_requires_grad(true);
  beta.set_requires_grad(true);
  Tensor xr = copy_of(x, true), gr = copy_of(gamma, true), br = copy_of(beta, true);

  Tensor y = group_norm(x, c.groups, gamma, beta);
  Tensor yr = reference::group_norm(xr, c.groups, gr, br);
  EXPECT_TRUE(bitwise_equal(y.data(), yr.data(), "forward"));

  sum(square(y)).backward();
  sum(square(yr)).backward();
  EXPECT_TRUE(bitwise_equal(x.grad(), xr.grad(), "x.grad"));
  EXPECT_TRUE(bitwise_equal(gamma.grad(), gr.grad(), "gamma.grad"));
  EXPECT_TRUE(bitwise_equal(beta.grad(), br.grad(), "beta.grad"));
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, GroupNormDifferential, testing::ValuesIn(kGnCases));

// ------------------------------------------- finite-difference checks

/// Linear loss with a fixed non-uniform upstream gradient: FD on a
/// quadratic loss would drown in float cancellation noise, while plain
/// sum() only ever exercises gout == 1.
Tensor weighted_sum(const Tensor& y, unsigned seed) {
  Tensor c = randn(y.shape(), seed);
  return sum(mul(y, c));
}

TEST(KernelGradCheck, Conv2dStridedGroupedNonSquare) {
  Tensor x = randn({1, 4, 6, 5}, 21);
  Tensor w = randn({4, 2, 3, 1}, 22);
  Tensor b = randn({4}, 23);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return weighted_sum(conv2d(t, w, b, 2, 1, 2), 1); }, x),
            2e-2);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return weighted_sum(conv2d(x, t, b, 2, 1, 2), 2); }, w),
            2e-2);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return weighted_sum(conv2d(x, w, t, 2, 1, 2), 3); }, b),
            2e-2);
}

TEST(KernelGradCheck, ConvTranspose2dOutputPaddedGrouped) {
  Tensor x = randn({1, 4, 4, 4}, 24);
  Tensor w = randn({4, 2, 3, 3}, 25);
  Tensor b = randn({4}, 26);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) {
                  return weighted_sum(conv_transpose2d(t, w, b, 2, 1, 1, 2), 4);
                },
                x),
            2e-2);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) {
                  return weighted_sum(conv_transpose2d(x, t, b, 2, 1, 1, 2), 5);
                },
                w),
            2e-2);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) {
                  return weighted_sum(conv_transpose2d(x, w, t, 2, 1, 1, 2), 6);
                },
                b),
            2e-2);
}

TEST(KernelGradCheck, GroupNormTiled) {
  Tensor x = randn({2, 4, 3, 3}, 27, -2.0f, 2.0f);
  Tensor gamma = randn({4}, 28, 0.5f, 1.5f);
  Tensor beta = randn({4}, 29);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return weighted_sum(group_norm(t, 2, gamma, beta), 7); },
                x),
            2e-2);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return weighted_sum(group_norm(x, 2, t, beta), 8); },
                gamma),
            2e-2);
  EXPECT_LT(gradient_check(
                [&](const Tensor& t) { return weighted_sum(group_norm(x, 2, gamma, t), 9); },
                beta),
            2e-2);
}

// -------------------------------------- cross-thread-count determinism

struct RunResult {
  std::vector<float> y, xg, w1g, w2g, gg;
};

/// conv2d → leaky_relu → group_norm → conv_transpose2d, forward +
/// backward, at a fixed thread count.
RunResult run_chain(int threads) {
  set_kernel_threads(threads);
  Tensor x = randn({2, 3, 9, 9}, 31);
  Tensor w1 = randn({8, 3, 3, 3}, 32);
  Tensor b1 = randn({8}, 33);
  Tensor gamma = randn({8}, 34, 0.5f, 1.5f);
  Tensor beta = randn({8}, 35);
  Tensor w2 = randn({8, 4, 4, 4}, 36);
  Tensor b2 = randn({4}, 37);
  x.set_requires_grad(true);
  w1.set_requires_grad(true);
  w2.set_requires_grad(true);
  gamma.set_requires_grad(true);
  Tensor h = group_norm(leaky_relu(conv2d(x, w1, b1, 2, 1), 0.1f), 4, gamma, beta);
  Tensor y = conv_transpose2d(h, w2, b2, 2, 1);
  sum(square(y)).backward();
  return RunResult{y.data(), x.grad(), w1.grad(), w2.grad(), gamma.grad()};
}

TEST(KernelDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  const RunResult base = run_chain(1);
  for (int threads : {2, 8}) {
    const RunResult r = run_chain(threads);
    EXPECT_TRUE(bitwise_equal(base.y, r.y, "forward")) << threads << " threads";
    EXPECT_TRUE(bitwise_equal(base.xg, r.xg, "x.grad")) << threads << " threads";
    EXPECT_TRUE(bitwise_equal(base.w1g, r.w1g, "w1.grad")) << threads << " threads";
    EXPECT_TRUE(bitwise_equal(base.w2g, r.w2g, "w2.grad")) << threads << " threads";
    EXPECT_TRUE(bitwise_equal(base.gg, r.gg, "gamma.grad")) << threads << " threads";
  }
  set_kernel_threads(1);
}

TEST(KernelCounters, BackwardChargedToItsOwnOp) {
  // Each dX runs on the other op's forward tiles; the calls must still
  // be charged to the op whose backward ran, never to a forward.
  const auto calls = [](const char* op) {
    return obs::MetricRegistry::global().counter(std::string("nn.op.") + op + ".calls").value();
  };
  const auto counts = [&] {
    return std::vector<std::uint64_t>{calls("conv2d"), calls("conv2d_bwd"),
                                      calls("conv_transpose2d"), calls("conv_transpose2d_bwd")};
  };
  Tensor x = randn({1, 2, 6, 6}, 96);
  x.set_requires_grad(true);
  const std::vector<std::uint64_t> c = counts();
  sum(conv2d(x, randn({3, 2, 3, 3}, 97), Tensor(), 2, 1)).backward();
  EXPECT_EQ(counts(), (std::vector<std::uint64_t>{c[0] + 1, c[1] + 1, c[2], c[3]}));
  sum(conv_transpose2d(x, randn({2, 3, 4, 4}, 98), Tensor(), 2, 1)).backward();
  EXPECT_EQ(counts(), (std::vector<std::uint64_t>{c[0] + 1, c[1] + 1, c[2] + 1, c[3] + 1}));
}

TEST(KernelDeterminism, MatchesReferenceAtEightThreads) {
  set_kernel_threads(8);
  Tensor x = randn({1, 4, 11, 7}, 71);
  Tensor w = randn({6, 2, 3, 3}, 72);
  Tensor b = randn({6}, 73);
  Tensor y = conv2d(x, w, b, 1, 1, 2);
  Tensor yr = reference::conv2d(copy_of(x), copy_of(w), copy_of(b), 1, 1, 2);
  EXPECT_TRUE(bitwise_equal(y.data(), yr.data(), "forward"));
  set_kernel_threads(1);
}

}  // namespace
}  // namespace laco::nn
