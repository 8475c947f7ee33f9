// Tiled conv2d / conv_transpose2d kernels (docs/KERNELS.md).
//
// Forwards are im2col + register-blocked GEMM over the padding-free
// interior plus a tap-checked border path, parallelized over disjoint
// output tiles via nn::parallel_tiles.
//
// Input gradients are dual forwards over the same weight tensor,
// stride, padding and groups: conv2d dX is a conv_transpose2d forward
// of gout and vice versa (each weight layout is the other's with the
// channel roles swapped). The tiles' chains are the reference dX
// chains: convT walks (ci asc, dy desc, dx desc) with its x == 0 skip,
// i.e. the conv2d dX (co, y, xo) order with its gout == 0 skip; conv2d
// walks (ci, dy, dx) ascending, the convT dX order. An internal
// compile-time `kAccumulate` mode supplies each chain's start: the
// convT tile seeds from x.grad, the conv2d tile stores y += acc. The
// conv2d tile lacks the reference's gout == 0 skip; from +0, adding a
// ±0 product is a bitwise no-op only for finite weights. Weight
// gradients are gather passes, one task per gradient owner.
//
// Bitwise contract: every kernel reproduces the naive nn::reference
// accumulation order *per output element* — bias first, then taps in
// the reference loop order, with the same zero-skip conditions — so
// outputs and gradients are bitwise-identical to nn::reference and
// across ThreadPool sizes (pinned by tests/test_nn_kernels.cpp and the
// golden e2e test). Change an accumulation order here and the golden
// file changes; don't.
#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "nn/kernel_pool.hpp"
#include "nn/ops.hpp"

namespace laco::nn {
namespace {

void check_4d(const Tensor& t, const char* what) {
  if (!t.defined() || t.shape().size() != 4) {
    throw std::invalid_argument(std::string(what) + ": expected a 4-D NCHW tensor, got " +
                                (t.defined() ? shape_str(t.shape()) : "an undefined tensor"));
  }
}

std::size_t off4(int a, int b, int c, int d, int B, int C, int D) {
  return ((static_cast<std::size_t>(a) * B + b) * C + c) * D + d;
}

int div_ceil(int a, int b) { return a >= 0 ? (a + b - 1) / b : -((-a) / b); }

// 8-lane float vector for the GEMM micro-kernel. Element-wise + and *
// on these round exactly like the matching scalar ops (no fusion, no
// reassociation), so the bitwise contract is unaffected; it only picks
// better instructions than the auto-vectorizer does.
#if defined(__GNUC__) || defined(__clang__)
#define LACO_HAVE_VEC8 1
typedef float Vec8 __attribute__((vector_size(32)));
typedef int Vec8i __attribute__((vector_size(32)));
#else
#define LACO_HAVE_VEC8 0
#endif


/// Writes acc[0, n) to dst — or, in accumulate mode, adds it to dst.
template <bool kAccumulate, class Acc>
void store_lanes(float* dst, const Acc& acc, int n) {
  for (int j = 0; j < n; ++j) dst[j] = kAccumulate ? dst[j] + acc[j] : acc[j];
}

/// Per-worker im2col scratch, grown on demand and reused across tiles.
thread_local std::vector<float> tl_col;

/// Splits `rows` into blocks: small enough that a K×ow im2col panel
/// stays cache-resident, yet numerous enough (together with the
/// batch×group grid) to feed every pool thread. Purely a performance
/// choice — outputs are bitwise-identical for any tiling.
int pick_row_block(int rows, std::size_t floats_per_row, long long base_tiles) {
  const std::size_t kColTargetFloats = 64 * 1024;  // ~256 KiB panel
  std::size_t block = kColTargetFloats / std::max<std::size_t>(1, floats_per_row);
  block = std::min<std::size_t>(std::max<std::size_t>(block, 1), static_cast<std::size_t>(rows));
  const long long want_tiles = 2LL * kernel_threads();
  if (base_tiles > 0 && base_tiles * ((rows + static_cast<long long>(block) - 1) /
                                     static_cast<long long>(block)) < want_tiles) {
    const long long per_base = div_ceil(static_cast<int>(want_tiles), static_cast<int>(base_tiles));
    block = std::max<std::size_t>(1, static_cast<std::size_t>(div_ceil(rows, static_cast<int>(per_base))));
  }
  return static_cast<int>(block);
}

// ------------------------------------------------------------- conv2d

struct Conv2dParams {
  int n, cin, h, w, cout, cin_g, kh, kw, oh, ow, cout_g, groups, stride, padding;
};

/// One tile: output rows [y0, y1) of batch image `b`, group `g`, all of
/// the group's output channels. Interior pixels (no padding taps) go
/// through an im2col panel + 4-wide-channel GEMM; border pixels use the
/// reference tap-checked gather. Both accumulate taps in (ci, ky, kx)
/// ascending order starting from the bias — the reference order. In
/// accumulate mode each finished chain is added to y instead of
/// stored (the conv_transpose2d dX dual; bd is null there). It is a
/// template parameter so the forward carries no per-store branch.
template <bool kAccumulate>
void conv2d_tile(const Conv2dParams& p, const float* xd, const float* wd, const float* bd,
                 float* y, int b, int g, int y0, int y1, int ry0, int ry1, int cx0, int cx1) {
  const int K = p.cin_g * p.kh * p.kw;
  const int iy0 = std::max(y0, ry0), iy1 = std::min(y1, ry1);
  const int icols = std::max(0, cx1 - cx0);
  // GEMM-covered columns: 8-pixel blocks of the interior (the last
  // block may be partial); the border path handles everything else
  // with the identical tap chain.
  constexpr int kJB = 8;
  const int nblk = div_ceil(icols, kJB);

  if (nblk > 0 && iy1 > iy0) {
    // Per-block im2col micro-panel: panel[k][0..8) for one output row
    // and 8 consecutive interior pixels. K×8 floats (~a few KiB) stays
    // L1-resident while every output-channel block streams over it.
    if (tl_col.size() < static_cast<std::size_t>(K) * kJB) {
      tl_col.resize(static_cast<std::size_t>(K) * kJB);
    }
    float* panel = tl_col.data();
    for (int yy = iy0; yy < iy1; ++yy) {
      for (int jb = 0; jb < nblk; ++jb) {
        const int cxb = cx0 + jb * kJB;
        const int bw = std::min(kJB, cx1 - cxb);  // last block may be partial
        // Pack k = (ci, dy, dx) in reference tap order.
        float* pp = panel;
        for (int ci = 0; ci < p.cin_g; ++ci) {
          const int cig = g * p.cin_g + ci;
          for (int dy = 0; dy < p.kh; ++dy) {
            const int iy = yy * p.stride - p.padding + dy;
            const float* xrow = xd + off4(b, cig, iy, 0, p.cin, p.h, p.w);
            const int xbase = cxb * p.stride - p.padding;
            // Lanes past bw are packed as zero: the micro-kernel
            // computes them anyway and the store drops them.
            if (p.stride == 1) {
              for (int dx = 0; dx < p.kw; ++dx, pp += kJB) {
                const float* __restrict src = xrow + xbase + dx;
                for (int j = 0; j < bw; ++j) pp[j] = src[j];
                for (int j = bw; j < kJB; ++j) pp[j] = 0.0f;
              }
            } else {
              for (int dx = 0; dx < p.kw; ++dx, pp += kJB) {
                const float* __restrict src = xrow + xbase + dx;
                for (int j = 0; j < bw; ++j) pp[j] = src[j * p.stride];
                for (int j = bw; j < kJB; ++j) pp[j] = 0.0f;
              }
            }
          }
        }
        // y[co][pix] = bias[co] + Σ_k w[co][k] · panel[k][pix], four
        // output channels per pass. Accumulators live in registers for
        // the whole k loop — each output element still sees bias first,
        // then k ascending, so blocking never reorders its addition
        // chain; lanes are independent elements, so element-wise SIMD
        // never touches any chain (and rounds exactly like scalar:
        // -ffp-contract=off in src/CMakeLists.txt forbids FMA fusion).
        for (int cb = 0; cb + 4 <= p.cout_g; cb += 4) {
          const float* __restrict w0r = wd + static_cast<std::size_t>(g * p.cout_g + cb) * K;
          const float* __restrict w1r = w0r + K;
          const float* __restrict w2r = w1r + K;
          const float* __restrict w3r = w2r + K;
          const float b0 = bd != nullptr ? bd[static_cast<std::size_t>(g * p.cout_g + cb)] : 0.0f;
          const float b1 = bd != nullptr ? bd[static_cast<std::size_t>(g * p.cout_g + cb + 1)] : 0.0f;
          const float b2 = bd != nullptr ? bd[static_cast<std::size_t>(g * p.cout_g + cb + 2)] : 0.0f;
          const float b3 = bd != nullptr ? bd[static_cast<std::size_t>(g * p.cout_g + cb + 3)] : 0.0f;
          float* yout = y + off4(b, g * p.cout_g + cb, yy, cxb, p.cout, p.oh, p.ow);
          const std::size_t yplane = static_cast<std::size_t>(p.oh) * p.ow;
#if LACO_HAVE_VEC8
          // Explicit 8-lane vectors: GCC's loop auto-vectorizer turns
          // the scalar form below into a shuffle-heavy outer-loop
          // vectorization that runs ~14x slower than this direct map
          // to one mul + one add per weight row.
          Vec8 a0, a1, a2, a3;
          for (int j = 0; j < kJB; ++j) { a0[j] = b0; a1[j] = b1; a2[j] = b2; a3[j] = b3; }
          const float* __restrict pk = panel;
          for (int k = 0; k < K; ++k, pk += kJB) {
            Vec8 c;
            __builtin_memcpy(&c, pk, sizeof c);
            a0 += w0r[k] * c;
            a1 += w1r[k] * c;
            a2 += w2r[k] * c;
            a3 += w3r[k] * c;
          }
          if (bw == kJB && !kAccumulate) {
            __builtin_memcpy(yout, &a0, sizeof a0);
            __builtin_memcpy(yout + yplane, &a1, sizeof a1);
            __builtin_memcpy(yout + 2 * yplane, &a2, sizeof a2);
            __builtin_memcpy(yout + 3 * yplane, &a3, sizeof a3);
            continue;
          }
#else
          float a0[kJB], a1[kJB], a2[kJB], a3[kJB];
          for (int j = 0; j < kJB; ++j) { a0[j] = b0; a1[j] = b1; a2[j] = b2; a3[j] = b3; }
          const float* __restrict pk = panel;
          for (int k = 0; k < K; ++k, pk += kJB) {
            const float w0 = w0r[k], w1 = w1r[k], w2 = w2r[k], w3 = w3r[k];
            for (int j = 0; j < kJB; ++j) {
              const float c = pk[j];
              a0[j] += w0 * c;
              a1[j] += w1 * c;
              a2[j] += w2 * c;
              a3[j] += w3 * c;
            }
          }
#endif
          store_lanes<kAccumulate>(yout, a0, bw);
          store_lanes<kAccumulate>(yout + yplane, a1, bw);
          store_lanes<kAccumulate>(yout + 2 * yplane, a2, bw);
          store_lanes<kAccumulate>(yout + 3 * yplane, a3, bw);
        }
        // Output-channel remainder: one register accumulator per
        // element, same bias-then-k-ascending chain over the panel.
        for (int cr = p.cout_g - p.cout_g % 4; cr < p.cout_g; ++cr) {
          const int co = g * p.cout_g + cr;
          const float* wr = wd + static_cast<std::size_t>(co) * K;
          float* yout = y + off4(b, co, yy, cxb, p.cout, p.oh, p.ow);
          for (int j = 0; j < bw; ++j) {
            float a = bd != nullptr ? bd[static_cast<std::size_t>(co)] : 0.0f;
            const float* pk = panel + j;
            for (int k = 0; k < K; ++k, pk += kJB) a += wr[k] * *pk;
            yout[j] = kAccumulate ? yout[j] + a : a;
          }
        }
      }
    }
  }

  // Border pixels: the taps passing the reference bounds checks form
  // contiguous [dy0, dy1) × [dx0, dx1) ranges, computed up front —
  // the accumulation visits exactly the reference's valid taps in the
  // reference order, just without per-tap index math.
  for (int yy = y0; yy < y1; ++yy) {
    const bool row_interior = yy >= iy0 && yy < iy1;
    const int bx0 = row_interior ? cx0 : 0;
    const int bx1 = row_interior ? cx1 : 0;  // [bx0, bx1) already done above
    const int ybase = yy * p.stride - p.padding;
    const int dy0 = std::max(0, -ybase);
    const int dy1 = std::min(p.kh, p.h - ybase);
    for (int xo = 0; xo < p.ow; ++xo) {
      if (xo >= bx0 && xo < bx1) continue;
      const int xbase = xo * p.stride - p.padding;
      const int dx0 = std::max(0, -xbase);
      const int dx1 = std::min(p.kw, p.w - xbase);
      float* yrow = y + off4(b, g * p.cout_g, yy, xo, p.cout, p.oh, p.ow);
      const std::size_t yplane = static_cast<std::size_t>(p.oh) * p.ow;
      for (int cr = 0; cr < p.cout_g; ++cr) {
        const int co = g * p.cout_g + cr;
        float acc = bd != nullptr ? bd[static_cast<std::size_t>(co)] : 0.0f;
        const float* wrow = wd + static_cast<std::size_t>(co) * K;
        for (int ci = 0; ci < p.cin_g; ++ci) {
          const float* xpl = xd + off4(b, g * p.cin_g + ci, 0, 0, p.cin, p.h, p.w);
          for (int dy = dy0; dy < dy1; ++dy) {
            const float* __restrict xrow = xpl + static_cast<std::size_t>(ybase + dy) * p.w + xbase;
            const float* __restrict wr = wrow + (ci * p.kh + dy) * p.kw;
            for (int dx = dx0; dx < dx1; ++dx) acc += xrow[dx] * wr[dx];
          }
        }
        float& dst = yrow[static_cast<std::size_t>(cr) * yplane];
        dst = kAccumulate ? dst + acc : acc;
      }
    }
  }
}

template <bool kAccumulate>
void conv2d_forward(const Conv2dParams& p, const float* xd, const float* wd, const float* bd,
                    float* y) {
  // Interior rectangle: output rows/cols whose every kernel tap is in
  // bounds (all of the output when padding == 0).
  const int ry0 = std::min(p.oh, (p.padding + p.stride - 1) / p.stride);
  const int ry1 = std::max(
      ry0, std::min(p.oh, p.h - p.kh + p.padding >= 0
                              ? (p.h - p.kh + p.padding) / p.stride + 1
                              : 0));
  const int cx0 = std::min(p.ow, (p.padding + p.stride - 1) / p.stride);
  const int cx1 = std::max(
      cx0, std::min(p.ow, p.w - p.kw + p.padding >= 0
                              ? (p.w - p.kw + p.padding) / p.stride + 1
                              : 0));
  const std::size_t K = static_cast<std::size_t>(p.cin_g) * p.kh * p.kw;
  const int row_block =
      pick_row_block(p.oh, K * static_cast<std::size_t>(p.ow),
                     static_cast<long long>(p.n) * p.groups);
  const int nrb = div_ceil(p.oh, row_block);
  const std::size_t tiles = static_cast<std::size_t>(p.n) * p.groups * nrb;
  // LACO_DETERMINISTIC: each tile owns a disjoint output slab; per-element
  // accumulation order is fixed (bias, then taps ascending) for any tiling.
  parallel_tiles(tiles, [&](std::size_t t) {
    const int rb = static_cast<int>(t % nrb);
    const int g = static_cast<int>((t / nrb) % p.groups);
    const int b = static_cast<int>(t / (static_cast<std::size_t>(nrb) * p.groups));
    const int y0 = rb * row_block;
    const int y1 = std::min(p.oh, y0 + row_block);
    conv2d_tile<kAccumulate>(p, xd, wd, bd, y, b, g, y0, y1, ry0, ry1, cx0, cx1);
  });
}

/// dW/db pass: one task per output channel (it owns w.grad[co, ·] and
/// bias.grad[co]); contributions accumulate in (b, y, xo) ascending
/// order with the reference's gout == 0 skip.
void conv2d_backward_wb(const Conv2dParams& p, const float* gout_d, const float* xd, float* wg,
                        float* bg) {
  // LACO_DETERMINISTIC: task-per-co ownership; (b, y, xo) ascending chain.
  parallel_tiles(static_cast<std::size_t>(p.cout), [&](std::size_t co_t) {
    const int co = static_cast<int>(co_t);
    const int g = co / p.cout_g;
    const std::size_t K = static_cast<std::size_t>(p.cin_g) * p.kh * p.kw;
    float* wrow = wg != nullptr ? wg + static_cast<std::size_t>(co) * K : nullptr;
    for (int b = 0; b < p.n; ++b) {
      for (int y = 0; y < p.oh; ++y) {
        // In-bounds tap ranges, hoisted: iy = y·stride − padding + dy ∈
        // [0, h), and per column ix = xo·stride − padding + dx ∈ [0, w).
        const int dy0 = std::max(0, p.padding - y * p.stride);
        const int dy1 = std::min(p.kh, p.h + p.padding - y * p.stride);
        for (int xo = 0; xo < p.ow; ++xo) {
          const float gout = gout_d[off4(b, co, y, xo, p.cout, p.oh, p.ow)];
          if (gout == 0.0f) continue;
          if (bg != nullptr) bg[static_cast<std::size_t>(co)] += gout;
          if (wrow == nullptr) continue;
          const int dx0 = std::max(0, p.padding - xo * p.stride);
          const int dx1 = std::min(p.kw, p.w + p.padding - xo * p.stride);
          const int xbase = xo * p.stride - p.padding;
          for (int ci = 0; ci < p.cin_g; ++ci) {
            const int cig = g * p.cin_g + ci;
            for (int dy = dy0; dy < dy1; ++dy) {
              const int iy = y * p.stride - p.padding + dy;
              const float* __restrict xrow =
                  xd + off4(b, cig, iy, 0, p.cin, p.h, p.w) + xbase;
              float* __restrict wtap = wrow + (ci * p.kh + dy) * p.kw;
              for (int dx = dx0; dx < dx1; ++dx) wtap[dx] += gout * xrow[dx];
            }
          }
        }
      }
    }
  });
}

// ---------------------------------------------------- conv_transpose2d

struct ConvT2dParams {
  int n, cin, h, w, cout, cin_g, cout_g, groups, kh, kw, oh, ow, stride, padding;
};

/// One tile: output rows [y0, y1) of (batch `b`, output channel `cog`).
/// Output columns partition into classes r = ox mod stride: elements of
/// one class share their kernel-tap set (dx ≡ (r + padding) mod stride)
/// and are fed by *contiguous* input columns per tap. Each 8-element
/// class block keeps its accumulators in registers across every
/// (ci, iy, dx) tap — gathering, never scattering — and iterates
/// (ci asc, dy desc, dx desc), i.e. the reference's (ci, iy, ix)
/// ascending order per element. The reference's x == 0 skip is
/// reproduced exactly with a per-lane bit-select (skipped lanes keep
/// their accumulator bits verbatim). In accumulate mode the chains
/// start from the existing y instead of the bias (the conv2d dX dual,
/// whose reference chain starts from x.grad).
template <bool kAccumulate>
void conv_transpose2d_tile(const ConvT2dParams& p, const float* xd, const float* wd,
                           const float* bd, float* y, int b, int cog, int y0, int y1) {
  const int g = cog / p.cout_g;
  const int co_rel = cog % p.cout_g;
  const float bval = bd != nullptr ? bd[static_cast<std::size_t>(cog)] : 0.0f;
  const int s = p.stride;
  const int classes = std::min(s, p.ow);
  const int q = p.ow / s, rem = p.ow % s;  // class r has q + (r < rem) columns
  const float* xg0 = xd + off4(b, g * p.cin_g, 0, 0, p.cin, p.h, p.w);
  const std::size_t xplane = static_cast<std::size_t>(p.h) * p.w;
  const std::size_t wchan = static_cast<std::size_t>(p.kh) * p.kw;
  for (int oy = y0; oy < y1; ++oy) {
    float* yrow = y + off4(b, cog, oy, 0, p.cout, p.oh, p.ow);
    for (int r = 0; r < classes; ++r) {
      const int len = q + (r < rem ? 1 : 0);
      const int dmod = (r + p.padding) % s;
      // Largest tap dx < kw in this class (taps step by -s), or -1.
      const int dx_start = dmod < p.kw ? dmod + ((p.kw - 1 - dmod) / s) * s : -1;
      // 32 class columns per pass: four independent 8-lane accumulator
      // blocks hide the add/select latency of a single chain.
      for (int m0 = 0; m0 < len; m0 += 32) {
        const int mb = std::min(32, len - m0);
        const int nsub = div_ceil(mb, 8);
#if LACO_HAVE_VEC8
        const Vec8 zero = {};
        Vec8 acc[4];
#else
        float acc[4][8];
#endif
        for (int j = 0; j < 32; ++j) {
          acc[j / 8][j % 8] =
              kAccumulate && j < mb ? yrow[r + static_cast<std::size_t>(m0 + j) * s] : bval;
        }
        for (int ci = 0; ci < p.cin_g; ++ci) {
          const float* xchan = xg0 + static_cast<std::size_t>(ci) * xplane;
          const float* wbase =
              wd + (static_cast<std::size_t>(g * p.cin_g + ci) * p.cout_g + co_rel) * wchan;
          for (int dy = p.kh - 1; dy >= 0; --dy) {
            const int ty = oy + p.padding - dy;
            if (ty < 0 || ty % s != 0) continue;
            const int iy = ty / s;
            if (iy >= p.h) continue;
            const float* xrow = xchan + static_cast<std::size_t>(iy) * p.w;
            const float* wrow = wbase + static_cast<std::size_t>(dy) * p.kw;
            for (int dx = dx_start; dx >= 0; dx -= s) {
              // Lane j reads input column ix0 + j; the numerator is a
              // multiple of s by class construction, so the division
              // is exact even when negative.
              const int ix0 = (r + p.padding - dx) / s + m0;
              const float wk = wrow[dx];
              for (int t = 0; t < nsub; ++t) {
                const int ixt = ix0 + 8 * t;
                const int lanes = std::min(8, mb - 8 * t);
#if LACO_HAVE_VEC8
                if (lanes == 8 && ixt >= 0 && ixt + 8 <= p.w) {
                  Vec8 xv;
                  __builtin_memcpy(&xv, xrow + ixt, sizeof xv);
                  const Vec8 sum = acc[t] + wk * xv;
                  const Vec8i skip = (xv == zero);
                  acc[t] = (Vec8)(((Vec8i)acc[t] & skip) | ((Vec8i)sum & ~skip));
                  continue;
                }
#endif
                const int j_lo = std::max(0, -ixt);
                const int j_hi = std::min(lanes, p.w - ixt);
                for (int j = j_lo; j < j_hi; ++j) {
                  const float xv = xrow[ixt + j];
                  if (xv != 0.0f) acc[t][j] += wk * xv;
                }
              }
            }
          }
        }
        for (int j = 0; j < mb; ++j) {
          yrow[r + static_cast<std::size_t>(m0 + j) * s] = acc[j / 8][j % 8];
        }
      }
    }
  }
}

template <bool kAccumulate>
void conv_transpose2d_forward(const ConvT2dParams& p, const float* xd, const float* wd,
                              const float* bd, float* y) {
  const int row_block = pick_row_block(p.oh, static_cast<std::size_t>(p.ow) * p.cin_g,
                                       static_cast<long long>(p.n) * p.cout);
  const int nrb = div_ceil(p.oh, row_block);
  const std::size_t tiles = static_cast<std::size_t>(p.n) * p.cout * nrb;
  // LACO_DETERMINISTIC: each tile owns whole output rows of one channel;
  // contributions accumulate in the reference (ci, iy, ix) order.
  parallel_tiles(tiles, [&](std::size_t t) {
    const int rb = static_cast<int>(t % nrb);
    const int cog = static_cast<int>((t / nrb) % p.cout);
    const int b = static_cast<int>(t / (static_cast<std::size_t>(nrb) * p.cout));
    const int y0 = rb * row_block;
    const int y1 = std::min(p.oh, y0 + row_block);
    conv_transpose2d_tile<kAccumulate>(p, xd, wd, bd, y, b, cog, y0, y1);
  });
}

void conv_transpose2d_backward_b(const ConvT2dParams& p, const float* gout_d, float* bg) {
  // LACO_DETERMINISTIC: task-per-co; per-image double sums added in b order.
  parallel_tiles(static_cast<std::size_t>(p.cout), [&](std::size_t co_t) {
    const int co = static_cast<int>(co_t);
    for (int b = 0; b < p.n; ++b) {
      double acc = 0.0;
      for (int yy = 0; yy < p.oh; ++yy) {
        for (int xo = 0; xo < p.ow; ++xo) {
          acc += gout_d[off4(b, co, yy, xo, p.cout, p.oh, p.ow)];
        }
      }
      bg[static_cast<std::size_t>(co)] += static_cast<float>(acc);
    }
  });
}

/// dW pass: one task per input channel (it owns w.grad[ci, ·]); the
/// loop body is the reference backward's dW half with the batch loop
/// moved inside the channel loop, preserving every per-tap (b, iy, ix)
/// ascending chain.
void conv_transpose2d_backward_w(const ConvT2dParams& p, const float* gout_d, const float* xd,
                                 float* wg) {
  // LACO_DETERMINISTIC: task-per-ci ownership; (b, iy, ix) ascending chains.
  parallel_tiles(static_cast<std::size_t>(p.cin), [&](std::size_t ci_t) {
    const int ci = static_cast<int>(ci_t);
    const int g = ci / p.cin_g;
    for (int b = 0; b < p.n; ++b) {
      for (int iy = 0; iy < p.h; ++iy) {
        for (int ix = 0; ix < p.w; ++ix) {
          const float xval = xd[off4(b, ci, iy, ix, p.cin, p.h, p.w)];
          for (int co = 0; co < p.cout_g; ++co) {
            const int cog = g * p.cout_g + co;
            for (int dy = 0; dy < p.kh; ++dy) {
              const int oy = iy * p.stride - p.padding + dy;
              if (oy < 0 || oy >= p.oh) continue;
              for (int dx = 0; dx < p.kw; ++dx) {
                const int ox = ix * p.stride - p.padding + dx;
                if (ox < 0 || ox >= p.ow) continue;
                const float gout = gout_d[off4(b, cog, oy, ox, p.cout, p.oh, p.ow)];
                if (gout == 0.0f) continue;
                wg[off4(ci, co, dy, dx, p.cout_g, p.kh, p.kw)] += gout * xval;
              }
            }
          }
        }
      }
    }
  });
}

}  // namespace

Tensor conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias, int stride,
              int padding, int groups) {
  check_4d(x, "conv2d input");
  check_4d(weight, "conv2d weight");
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int cout = weight.dim(0), cin_g = weight.dim(1), kh = weight.dim(2), kw = weight.dim(3);
  if (groups < 1 || cin % groups != 0 || cout % groups != 0 || cin / groups != cin_g) {
    throw std::invalid_argument("conv2d: inconsistent groups/channels (input " +
                                shape_str(x.shape()) + ", weight " + shape_str(weight.shape()) +
                                ", groups " + std::to_string(groups) + ")");
  }
  const int oh = (h + 2 * padding - kh) / stride + 1;
  const int ow = (w + 2 * padding - kw) / stride + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(
        "conv2d: non-positive output size " + std::to_string(oh) + "x" + std::to_string(ow) +
        " (input " + shape_str(x.shape()) + ", weight " + shape_str(weight.shape()) +
        ", stride " + std::to_string(stride) + ", padding " + std::to_string(padding) + ")");
  }
  const int cout_g = cout / groups;
  const Conv2dParams params{n,  cin, h,  w,      cout,   cin_g, kh,
                            kw, oh,  ow, cout_g, groups, stride, padding};
  // dX is the conv_transpose2d forward of gout over the same weights;
  // its h x w output is output_padding (h + 2p − kh) mod stride.
  const ConvT2dParams dx_params{n,  cout, oh, ow, cin, cout_g, cin_g,  groups,
                                kh, kw,   h,  w,  stride, padding};

  auto xi = x.impl();
  auto wi = weight.impl();
  auto bi = bias.defined() ? bias.impl() : nullptr;

  Tensor out = make_op_output(
      {n, cout, oh, ow}, {&x, &weight, &bias},
      [=](TensorImpl& self) {
        static const OpStats bstats = make_op_stats("conv2d_bwd");
        OpTimer timer(bstats);
        const bool need_x = xi->requires_grad;
        const bool need_w = wi->requires_grad;
        const bool need_b = bi && bi->requires_grad;
        if (need_x) xi->ensure_grad();
        if (need_w) wi->ensure_grad();
        if (need_b) bi->ensure_grad();
        if (need_w || need_b) {
          conv2d_backward_wb(params, self.grad.data(), xi->data.data(),
                             need_w ? wi->grad.data() : nullptr,
                             need_b ? bi->grad.data() : nullptr);
        }
        if (need_x) {
          conv_transpose2d_forward</*kAccumulate=*/true>(
              dx_params, self.grad.data(), wi->data.data(), nullptr, xi->grad.data());
        }
      });

  static const OpStats stats = make_op_stats("conv2d");
  OpTimer timer(stats);
  conv2d_forward</*kAccumulate=*/false>(params, x.data().data(), weight.data().data(),
                                        bias.defined() ? bias.data().data() : nullptr,
                                        out.data().data());
  return out;
}

Tensor conv_transpose2d(const Tensor& x, const Tensor& weight, const Tensor& bias, int stride,
                        int padding, int output_padding, int groups) {
  check_4d(x, "conv_transpose2d input");
  check_4d(weight, "conv_transpose2d weight");
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int w_cin = weight.dim(0), cout_g = weight.dim(1), kh = weight.dim(2), kw = weight.dim(3);
  if (w_cin != cin || groups < 1 || cin % groups != 0) {
    throw std::invalid_argument("conv_transpose2d: inconsistent channels/groups (input " +
                                shape_str(x.shape()) + ", weight " + shape_str(weight.shape()) +
                                ", groups " + std::to_string(groups) + ")");
  }
  const int cin_g = cin / groups;
  const int cout = cout_g * groups;
  const int oh = (h - 1) * stride - 2 * padding + kh + output_padding;
  const int ow = (w - 1) * stride - 2 * padding + kw + output_padding;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(
        "conv_transpose2d: non-positive output size " + std::to_string(oh) + "x" +
        std::to_string(ow) + " (input " + shape_str(x.shape()) + ", weight " +
        shape_str(weight.shape()) + ", stride " + std::to_string(stride) + ", padding " +
        std::to_string(padding) + ", output_padding " + std::to_string(output_padding) + ")");
  }
  const ConvT2dParams params{n,  cin, h,  w,  cout, cin_g,  cout_g, groups,
                             kh, kw,  oh, ow, stride, padding};
  // dX is the conv2d forward of gout over the same weights.
  const Conv2dParams dx_params{n,  cout, oh, ow, cin,   cout_g, kh,
                               kw, h,    w,  cin_g, groups, stride, padding};

  auto xi = x.impl();
  auto wi = weight.impl();
  auto bi = bias.defined() ? bias.impl() : nullptr;

  Tensor out = make_op_output(
      {n, cout, oh, ow}, {&x, &weight, &bias},
      [=](TensorImpl& self) {
        static const OpStats bstats = make_op_stats("conv_transpose2d_bwd");
        OpTimer timer(bstats);
        const bool need_x = xi->requires_grad;
        const bool need_w = wi->requires_grad;
        const bool need_b = bi && bi->requires_grad;
        if (need_x) xi->ensure_grad();
        if (need_w) wi->ensure_grad();
        if (need_b) bi->ensure_grad();
        if (need_b) conv_transpose2d_backward_b(params, self.grad.data(), bi->grad.data());
        if (need_w) {
          conv_transpose2d_backward_w(params, self.grad.data(), xi->data.data(), wi->grad.data());
        }
        if (need_x) {
          conv2d_forward</*kAccumulate=*/true>(
              dx_params, self.grad.data(), wi->data.data(), nullptr, xi->grad.data());
        }
      });

  static const OpStats stats = make_op_stats("conv_transpose2d");
  OpTimer timer(stats);
  conv_transpose2d_forward</*kAccumulate=*/false>(
      params, x.data().data(), weight.data().data(),
      bias.defined() ? bias.data().data() : nullptr, out.data().data());
  return out;
}

}  // namespace laco::nn
