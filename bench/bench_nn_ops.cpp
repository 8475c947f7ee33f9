// nn kernel bench (docs/KERNELS.md): times the tiled conv2d /
// conv_transpose2d / group_norm kernels against the naive
// nn::reference oracle at DREAM-Cong model shapes (CongestionFcn,
// base_width 16, grid 64), checks bitwise agreement, and sweeps the
// kernel pool over thread counts. The backward cases check x.grad and
// w.grad of a full conv2d graph, and time the frozen-weight dX-only
// backwards the placement penalty runs (opt_ns_*_dx), down to a whole
// f∘g model (fg_bwd_over_fwd: backward time over forward time).
//
// Writes BENCH_nn_ops.json. Timing rows are machine-dependent; the
// strict CI drift gate pins only the scale-invariant metrics
// (exact_* bitwise flags and allocs_per_call_conv2d). Speedup, ratio
// and thread-scaling keys are warn-only — on a single-core runner the
// sweep is flat by construction (see settings.hw_threads).
//
// Knobs: LACO_NN_BENCH_GRID (default 64), LACO_NN_BENCH_ITERS
// (timed repetitions per kernel, default 5).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "models/congestion_fcn.hpp"
#include "models/lookahead_simvp.hpp"
#include "nn/autograd.hpp"
#include "nn/kernel_pool.hpp"
#include "nn/ops.hpp"
#include "nn/reference_kernels.hpp"
#include "obs/bench_report.hpp"

namespace laco::bench {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

nn::Tensor randn(nn::Shape shape, unsigned seed) {
  nn::Tensor t = nn::Tensor::zeros(std::move(shape));
  nn::fill_uniform(t, -1.0f, 1.0f, seed);
  return t;
}

/// Best-of-`iters` wall time of fn(), in nanoseconds.
double time_best_ns(int iters, const std::function<void()>& fn) {
  double best = 0.0;
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t t0 = now_ns();
    fn();
    const std::uint64_t t1 = now_ns();
    const double ns = static_cast<double>(t1 - t0);
    if (i == 0 || ns < best) best = ns;
  }
  return best;
}

/// Best-of-`iters` wall time of loss.backward() on a fresh graph from
/// make_loss() each time; building the graph is not timed.
double time_backward_best_ns(int iters, const std::function<nn::Tensor()>& make_loss) {
  double best = 0.0;
  for (int i = 0; i < iters; ++i) {
    nn::Tensor loss = make_loss();
    const std::uint64_t t0 = now_ns();
    loss.backward();
    const std::uint64_t t1 = now_ns();
    const double ns = static_cast<double>(t1 - t0);
    if (i == 0 || ns < best) best = ns;
  }
  return best;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool bitwise_equal(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() && bitwise_equal(a.data(), b.data());
}

/// Fresh leaf tensor with t's bits that requires grad.
nn::Tensor grad_leaf(const nn::Tensor& t) {
  nn::Tensor c = nn::Tensor::zeros(t.shape());
  std::memcpy(c.data().data(), t.data().data(), t.numel() * sizeof(float));
  c.set_requires_grad(true);
  return c;
}

void freeze(nn::Module& m) {
  for (nn::Tensor p : m.parameters()) p.set_requires_grad(false);
}

struct KernelCase {
  std::string name;
  std::function<nn::Tensor()> optimized;
  std::function<nn::Tensor()> reference;
};

}  // namespace
}  // namespace laco::bench

int main() {
  using namespace laco;
  using namespace laco::bench;

  const int grid = std::max(8, env_int("LACO_NN_BENCH_GRID", 64));
  const int iters = std::max(1, env_int("LACO_NN_BENCH_ITERS", 5));
  const int width = 16;  // CongestionFcn base_width

  std::cout << "==== nn kernel bench (grid " << grid << ", base_width " << width
            << ", best of " << iters << ") ====\n";

  obs::BenchReporter reporter("nn_ops");
  reporter.set_setting("grid", grid);
  reporter.set_setting("iters", iters);
  reporter.set_setting("base_width", width);
  reporter.set_setting("hw_threads",
                       static_cast<int>(std::thread::hardware_concurrency()));

  // DREAM-Cong layer shapes: stride-1 same conv at full grid, the two
  // stride-2 down convs, the 4x4 stride-2 deconv, and the group norm
  // between them.
  nn::Tensor x0 = randn({1, 3, grid, grid}, 1);
  nn::Tensor w_in = randn({width, 3, 3, 3}, 2);
  nn::Tensor b_in = randn({width}, 3);
  nn::Tensor x1 = randn({1, width, grid, grid}, 4);
  nn::Tensor w_s1 = randn({width, width, 3, 3}, 5);
  nn::Tensor w_s2 = randn({2 * width, width, 3, 3}, 6);
  nn::Tensor b_s = randn({2 * width}, 7);
  nn::Tensor x2 = randn({1, 2 * width, grid / 2, grid / 2}, 8);
  nn::Tensor w_up = randn({2 * width, width, 4, 4}, 9);
  nn::Tensor b_up = randn({width}, 10);
  nn::Tensor gamma = randn({2 * width}, 11);
  nn::Tensor beta = randn({2 * width}, 12);

  const KernelCase cases[] = {
      {"conv2d_s1",
       [&] { return nn::conv2d(x1, w_s1, b_in, 1, 1); },
       [&] { return nn::reference::conv2d(x1, w_s1, b_in, 1, 1); }},
      {"conv2d_s2",
       [&] { return nn::conv2d(x1, w_s2, b_s, 2, 1); },
       [&] { return nn::reference::conv2d(x1, w_s2, b_s, 2, 1); }},
      {"conv_transpose2d",
       [&] { return nn::conv_transpose2d(x2, w_up, b_up, 2, 1); },
       [&] { return nn::reference::conv_transpose2d(x2, w_up, b_up, 2, 1); }},
      {"group_norm",
       [&] { return nn::group_norm(x2, 8, gamma, beta); },
       [&] { return nn::reference::group_norm(x2, 8, gamma, beta); }},
  };

  bool all_exact = true;
  nn::set_kernel_threads(1);
  {
    nn::NoGradGuard guard;  // forward timing without graph bookkeeping
    for (const KernelCase& kc : cases) {
      const nn::Tensor y_opt = kc.optimized();
      const nn::Tensor y_ref = kc.reference();
      const bool exact = bitwise_equal(y_opt, y_ref);
      all_exact = all_exact && exact;
      const double opt_ns = time_best_ns(iters, [&] { kc.optimized(); });
      const double ref_ns = time_best_ns(iters, [&] { kc.reference(); });
      const double speedup = opt_ns > 0.0 ? ref_ns / opt_ns : 0.0;
      reporter.set_metric("exact_" + kc.name, exact ? 1.0 : 0.0);
      reporter.set_metric("speedup_" + kc.name, speedup);
      reporter.set_metric("opt_ns_" + kc.name, opt_ns);
      reporter.set_metric("ref_ns_" + kc.name, ref_ns);
      std::cout << kc.name << ": ref " << ref_ns / 1e6 << " ms, opt " << opt_ns / 1e6
                << " ms, speedup " << speedup << "x, bitwise " << (exact ? "OK" : "MISMATCH")
                << "\n";
    }
  }

  // Backward: full graph through the stride-1 conv (dW/db + dX passes).
  {
    auto bwd_once = [&](bool reference, std::vector<float>* xgrad, std::vector<float>* wgrad) {
      nn::Tensor x = randn({1, width, grid, grid}, 21);
      nn::Tensor w = randn({width, width, 3, 3}, 22);
      nn::Tensor b = randn({width}, 23);
      x.set_requires_grad(true);
      w.set_requires_grad(true);
      b.set_requires_grad(true);
      nn::Tensor y = reference ? nn::reference::conv2d(x, w, b, 1, 1) : nn::conv2d(x, w, b, 1, 1);
      nn::sum(y).backward();
      if (xgrad != nullptr) *xgrad = x.grad();
      if (wgrad != nullptr) *wgrad = w.grad();
    };
    std::vector<float> xg_opt, xg_ref, wg_opt, wg_ref;
    bwd_once(false, &xg_opt, &wg_opt);
    bwd_once(true, &xg_ref, &wg_ref);
    const bool bwd_exact = bitwise_equal(xg_opt, xg_ref) && bitwise_equal(wg_opt, wg_ref);
    all_exact = all_exact && bwd_exact;
    const double opt_ns = time_best_ns(iters, [&] { bwd_once(false, nullptr, nullptr); });
    const double ref_ns = time_best_ns(iters, [&] { bwd_once(true, nullptr, nullptr); });
    const double bwd_speedup = opt_ns > 0.0 ? ref_ns / opt_ns : 0.0;
    reporter.set_metric("exact_conv2d_bwd", bwd_exact ? 1.0 : 0.0);
    reporter.set_metric("speedup_conv2d_bwd", bwd_speedup);
    std::cout << "conv2d_bwd: ref " << ref_ns / 1e6 << " ms, opt " << opt_ns / 1e6
              << " ms, speedup " << bwd_speedup << "x, bitwise "
              << (bwd_exact ? "OK" : "MISMATCH") << "\n";
  }

  // Frozen-weight backwards, dX only, as the placement penalty runs
  // them: the stride-1 conv and the deconv (the deconv's dX is also
  // checked against the reference).
  {
    const auto convt_dx = [&](bool reference) {
      nn::Tensor x = grad_leaf(x2);
      nn::Tensor y = reference ? nn::reference::conv_transpose2d(x, w_up, b_up, 2, 1)
                               : nn::conv_transpose2d(x, w_up, b_up, 2, 1);
      nn::sum(nn::square(y)).backward();
      return x.grad();
    };
    const bool exact = bitwise_equal(convt_dx(false), convt_dx(true));
    all_exact = all_exact && exact;
    reporter.set_metric("exact_conv_transpose2d_bwd", exact ? 1.0 : 0.0);
    const double conv_ns = time_backward_best_ns(iters, [&] {
      return nn::sum(nn::square(nn::conv2d(grad_leaf(x1), w_s1, b_in, 1, 1)));
    });
    const double convt_ns = time_backward_best_ns(iters, [&] {
      return nn::sum(nn::square(nn::conv_transpose2d(grad_leaf(x2), w_up, b_up, 2, 1)));
    });
    reporter.set_metric("opt_ns_conv2d_dx", conv_ns);
    reporter.set_metric("opt_ns_conv_transpose2d_dx", convt_ns);
    std::cout << "frozen-weight dX backward: conv2d_s1 " << conv_ns / 1e6
              << " ms, conv_transpose2d " << convt_ns / 1e6 << " ms (bitwise "
              << (exact ? "OK" : "MISMATCH") << ")\n";
  }

  // Whole f∘g with frozen weights, as the placement penalty evaluates
  // it: g on a 4-frame x 5-channel history at grid/2, its prediction
  // upsampled and stacked with a 3-channel current frame into f at
  // grid; the loss is mean_square(f) and backward reaches the inputs.
  {
    LookAheadConfig gcfg;
    gcfg.with_vae = false;
    LookAheadModel g(gcfg);
    CongestionFcnConfig fcfg;
    fcfg.in_channels = gcfg.channels_per_frame + 3;
    CongestionFcn f(fcfg);
    freeze(g);
    freeze(f);
    const nn::Tensor hist =
        randn({1, gcfg.frames * gcfg.channels_per_frame, grid / 2, grid / 2}, 31);
    const nn::Tensor cur = randn({1, 3, grid, grid}, 32);
    const auto fg_loss = [&] {
      const nn::Tensor pred =
          nn::upsample_bilinear(g.forward(grad_leaf(hist)).prediction, grid, grid);
      return nn::mean_square(f.forward(nn::cat_channels({pred, grad_leaf(cur)})));
    };
    fg_loss().backward();  // warm-up
    const double fwd_ns = time_best_ns(iters, [&] { fg_loss(); });
    const double bwd_ns = time_backward_best_ns(iters, fg_loss);
    const double ratio = fwd_ns > 0.0 ? bwd_ns / fwd_ns : 0.0;
    reporter.set_metric("fg_bwd_over_fwd", ratio);
    std::cout << "f∘g frozen weights: forward " << fwd_ns / 1e6 << " ms, backward "
              << bwd_ns / 1e6 << " ms, backward/forward " << ratio << "\n";
  }

  // Eager forward allocates exactly one TensorImpl (the op output).
  {
    nn::NoGradGuard guard;
    nn::conv2d(x1, w_s1, b_in, 1, 1);  // warm the pool + scratch
    const std::uint64_t a0 = nn::tensor_alloc_count();
    const int reps = 8;
    for (int i = 0; i < reps; ++i) nn::conv2d(x1, w_s1, b_in, 1, 1);
    const double allocs =
        static_cast<double>(nn::tensor_alloc_count() - a0) / static_cast<double>(reps);
    reporter.set_metric("allocs_per_call_conv2d", allocs);
    std::cout << "conv2d allocs/call: " << allocs << "\n";
  }

  // Thread sweep on the stride-1 conv. Flat when hw_threads == 1 —
  // that is why scaling keys are warn-only in CI.
  {
    nn::NoGradGuard guard;
    double ns_1t = 0.0;
    for (int threads : {1, 2, 4}) {
      nn::set_kernel_threads(threads);
      nn::conv2d(x1, w_s1, b_in, 1, 1);  // rebuild the pool outside timing
      const double ns = time_best_ns(iters, [&] { nn::conv2d(x1, w_s1, b_in, 1, 1); });
      if (threads == 1) ns_1t = ns;
      const double scaling = ns > 0.0 ? ns_1t / ns : 0.0;
      obs::Json row = obs::Json::object();
      row["threads"] = threads;
      row["ns_per_call"] = ns;
      row["scaling_vs_1t"] = scaling;
      reporter.add_row("thread_sweep", std::move(row));
      if (threads > 1) reporter.set_metric("scaling_" + std::to_string(threads) + "t", scaling);
      std::cout << "threads " << threads << ": " << ns / 1e6 << " ms/call, scaling "
                << scaling << "x\n";
    }
    nn::set_kernel_threads(1);
  }

  reporter.set_metric("exact_outputs", all_exact ? 1.0 : 0.0);
  if (!reporter.write()) {
    std::cerr << "bench_nn_ops: failed to write BENCH_nn_ops.json\n";
    return 1;
  }
  std::cout << "\nwrote BENCH_nn_ops.json (exact_outputs=" << (all_exact ? 1 : 0) << ")\n";
  return all_exact ? 0 : 1;
}
