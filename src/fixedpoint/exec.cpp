// Typed execution of a compiled fixed-point program.
//
// Registers live in int8_t/int16_t/int32_t/int64_t arena slots chosen by the
// memory plan (plan.cpp); every matmul instruction, fused or not, dispatches
// through detail::run_fused to the narrow-width kernel registry (kernels/)
// when the plan proves the int32 accumulator contract holds, and falls back
// to an int64-accumulator walk otherwise. Every elementwise op computes
// internally in int64 — the plan's value bounds make the narrowing store
// lossless — and shares fp::saturate / fp::rescale with the reference
// interpreter, so the typed result is bit-identical to run_reference() by
// construction (and by test).
//
// Allocation discipline: all run-time state lives in the caller's
// ExecContext, whose buffers are grow-only. After one warm-up run at a given
// (program, input shape), run_into() performs zero heap allocations; the
// zero-alloc test holds a global operator-new hook against it.
#ifdef __AVX2__
#include <immintrin.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "fixedpoint/autotune.h"
#include "fixedpoint/engine.h"
#include "fixedpoint/kernels/kernels.h"
#include "fixedpoint/plan.h"
#include "fixedpoint/rescale.h"
#include "observe/observe.h"
#include "runtime/parallel.h"

namespace tqt {

const char* to_string(FpInstr::Kind k) {
  switch (k) {
    case FpInstr::Kind::kQuantizeInput: return "quantize_input";
    case FpInstr::Kind::kConv2d: return "conv2d";
    case FpInstr::Kind::kDepthwise: return "depthwise";
    case FpInstr::Kind::kDense: return "dense";
    case FpInstr::Kind::kBiasAdd: return "bias_add";
    case FpInstr::Kind::kRequant: return "requant";
    case FpInstr::Kind::kRelu: return "relu";
    case FpInstr::Kind::kRelu6: return "relu6";
    case FpInstr::Kind::kLeakyRelu: return "leaky_relu";
    case FpInstr::Kind::kMaxPool: return "max_pool";
    case FpInstr::Kind::kEltwiseAdd: return "eltwise_add";
    case FpInstr::Kind::kConcat: return "concat";
    case FpInstr::Kind::kFlatten: return "flatten";
    case FpInstr::Kind::kConv2dFused: return "conv2d_fused";
    case FpInstr::Kind::kDepthwiseFused: return "depthwise_fused";
    case FpInstr::Kind::kDenseFused: return "dense_fused";
    case FpInstr::Kind::kLayoutPack: return "layout_pack";
    case FpInstr::Kind::kLayoutUnpack: return "layout_unpack";
  }
  return "?";
}

namespace {

using fp::rescale;
using fp::saturate;

/// Invoke `fn` with a zero-valued prototype of the C++ type behind `w`.
template <typename Fn>
void with_width(IntWidth w, Fn&& fn) {
  switch (w) {
    case IntWidth::kI8: fn(int8_t{0}); return;
    case IntWidth::kI16: fn(int16_t{0}); return;
    case IntWidth::kI32: fn(int32_t{0}); return;
    case IntWidth::kI64: fn(int64_t{0}); return;
  }
}

/// y[i] = f(x[i]) with x, y lanes at arbitrary widths; f maps int64 -> int64
/// and must produce values within y's planned bounds (narrowing is lossless).
template <typename MapFn>
void map_lanes(const void* xv, IntWidth wx, void* yv, IntWidth wy, int64_t n, MapFn&& f) {
  with_width(wx, [&](auto xt) {
    using XT = decltype(xt);
    const XT* x = static_cast<const XT*>(xv);
    with_width(wy, [&](auto yt) {
      using YT = decltype(yt);
      YT* y = static_cast<YT*>(yv);
      parallel_for(0, n, kElementGrain, [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          y[i] = static_cast<YT>(f(static_cast<int64_t>(x[i])));
        }
      });
    });
  });
}

/// y[i] = f(a[i], b[i]) (two integer inputs, e.g. EltwiseAdd).
template <typename MapFn>
void map2_lanes(const void* av, IntWidth wa, const void* bv, IntWidth wb, void* yv,
                IntWidth wy, int64_t n, MapFn&& f) {
  with_width(wa, [&](auto at) {
    using AT = decltype(at);
    const AT* a = static_cast<const AT*>(av);
    with_width(wb, [&](auto bt) {
      using BT = decltype(bt);
      const BT* b = static_cast<const BT*>(bv);
      with_width(wy, [&](auto yt) {
        using YT = decltype(yt);
        YT* y = static_cast<YT*>(yv);
        parallel_for(0, n, kElementGrain, [&](int64_t i0, int64_t i1) {
          for (int64_t i = i0; i < i1; ++i) {
            y[i] = static_cast<YT>(f(static_cast<int64_t>(a[i]), static_cast<int64_t>(b[i])));
          }
        });
      });
    });
  });
}

// ---- Generic matmul-family fallbacks -----------------------------------------
// Weights are read from FpInstr::const_data (always retained at int64) and
// accumulated in int64 — the reference semantics exactly; run_fused retires
// the accumulators through the epilogue.

template <typename XT>
void conv_generic(const FpInstr& in, const XT* x, const FpRegShape& xs, int64_t* y) {
  const Conv2dGeom& g = in.geom;
  const int64_t n = xs.dims[0], h = xs.dims[1], w = xs.dims[2], cin = xs.dims[3];
  const int64_t kh = in.const_shape[0], kw = in.const_shape[1], cout = in.const_shape[3];
  const int64_t oh = g.out_h(h), ow = g.out_w(w);
  const int64_t rows = n * oh;
  parallel_for(0, rows, grain_for(rows, ow * kh * kw * cin * cout * 2, kGemmTargetOps),
               [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t b = r / oh;
      const int64_t oy = r % oh;
      for (int64_t ox = 0; ox < ow; ++ox) {
        int64_t* out = y + (r * ow + ox) * cout;
        std::memset(out, 0, static_cast<size_t>(cout) * sizeof(int64_t));
        const int64_t iy0 = oy * g.stride_h - g.pad_top;
        const int64_t ix0 = ox * g.stride_w - g.pad_left;
        for (int64_t ky = 0; ky < kh; ++ky) {
          const int64_t iy = iy0 + ky;
          if (iy < 0 || iy >= h) continue;
          for (int64_t kx = 0; kx < kw; ++kx) {
            const int64_t ix = ix0 + kx;
            if (ix < 0 || ix >= w) continue;
            const XT* xi = x + ((b * h + iy) * w + ix) * cin;
            const int64_t* wk = in.const_data.data() + (ky * kw + kx) * cin * cout;
            for (int64_t c = 0; c < cin; ++c) {
              const int64_t xv = xi[c];
              if (xv == 0) continue;
              const int64_t* wc = wk + c * cout;
              for (int64_t o = 0; o < cout; ++o) out[o] += xv * wc[o];
            }
          }
        }
      }
    }
  });
}

template <typename XT>
void depthwise_generic(const FpInstr& in, const XT* x, const FpRegShape& xs, int64_t* y) {
  const Conv2dGeom& g = in.geom;
  const int64_t n = xs.dims[0], h = xs.dims[1], w = xs.dims[2], c = xs.dims[3];
  const int64_t oh = g.out_h(h), ow = g.out_w(w);
  const int64_t rows = n * oh;
  parallel_for(0, rows, grain_for(rows, ow * g.kh * g.kw * c * 2, kGemmTargetOps),
               [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t b = r / oh;
      const int64_t oy = r % oh;
      for (int64_t ox = 0; ox < ow; ++ox) {
        int64_t* out = y + (r * ow + ox) * c;
        std::memset(out, 0, static_cast<size_t>(c) * sizeof(int64_t));
        const int64_t iy0 = oy * g.stride_h - g.pad_top;
        const int64_t ix0 = ox * g.stride_w - g.pad_left;
        for (int64_t ky = 0; ky < g.kh; ++ky) {
          const int64_t iy = iy0 + ky;
          if (iy < 0 || iy >= h) continue;
          for (int64_t kx = 0; kx < g.kw; ++kx) {
            const int64_t ix = ix0 + kx;
            if (ix < 0 || ix >= w) continue;
            const XT* xi = x + ((b * h + iy) * w + ix) * c;
            const int64_t* wk = in.const_data.data() + (ky * g.kw + kx) * c;
            for (int64_t ch = 0; ch < c; ++ch) {
              out[ch] += static_cast<int64_t>(xi[ch]) * wk[ch];
            }
          }
        }
      }
    }
  });
}

template <typename XT>
void dense_generic(const FpInstr& in, const XT* x, const FpRegShape& xs, int64_t* y) {
  const int64_t n = xs.dims[0], k = xs.dims[1], m = in.const_shape[1];
  parallel_for(0, n, grain_for(n, 2 * k * m, kGemmTargetOps), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      int64_t* out = y + i * m;
      std::memset(out, 0, static_cast<size_t>(m) * sizeof(int64_t));
      const XT* xi = x + i * k;
      for (int64_t kk = 0; kk < k; ++kk) {
        const int64_t xv = xi[kk];
        if (xv == 0) continue;
        const int64_t* wr = in.const_data.data() + kk * m;
        for (int64_t j = 0; j < m; ++j) out[j] += xv * wr[j];
      }
    }
  });
}

template <typename XT, typename YT>
void maxpool_typed(const FpInstr& in, const XT* x, const FpRegShape& xs, YT* y) {
  const Conv2dGeom& g = in.geom;
  const int64_t n = xs.dims[0], h = xs.dims[1], w = xs.dims[2], c = xs.dims[3];
  const int64_t oh = g.out_h(h), ow = g.out_w(w);
  const int64_t rows = n * oh;
  parallel_for(0, rows, grain_for(rows, ow * g.kh * g.kw * c), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t b = r / oh;
      const int64_t oy = r % oh;
      for (int64_t ox = 0; ox < ow; ++ox) {
        YT* out = y + (r * ow + ox) * c;
        const int64_t iy0 = oy * g.stride_h - g.pad_top;
        const int64_t ix0 = ox * g.stride_w - g.pad_left;
        // Window-tap outer loop keeps the channel loop contiguous (it
        // auto-vectorizes); the first valid tap initializes the output row.
        bool seen = false;
        for (int64_t ky = 0; ky < g.kh; ++ky) {
          const int64_t iy = iy0 + ky;
          if (iy < 0 || iy >= h) continue;
          for (int64_t kx = 0; kx < g.kw; ++kx) {
            const int64_t ix = ix0 + kx;
            if (ix < 0 || ix >= w) continue;
            const XT* xi = x + ((b * h + iy) * w + ix) * c;
            if (!seen) {
              for (int64_t ch = 0; ch < c; ++ch) out[ch] = static_cast<YT>(xi[ch]);
              seen = true;
            } else {
              for (int64_t ch = 0; ch < c; ++ch) {
                const YT v = static_cast<YT>(xi[ch]);
                if (v > out[ch]) out[ch] = v;
              }
            }
          }
        }
        if (!seen) std::memset(out, 0, static_cast<size_t>(c) * sizeof(YT));
      }
    }
  });
}

/// im2col geometry of one Conv2d instruction at a given input shape.
struct GemmShape {
  int64_t m = 0, n = 0, k = 0;
};

/// Generic epilogue retire: one parallel pass mapping the int64 accumulator
/// buffer through the step list into the (narrow) output register. `channels`
/// is the innermost output dimension (bias broadcast period).
void apply_epi(const fpk::Epilogue& e, const int64_t* acc, int64_t yn, int64_t channels) {
  parallel_for(0, yn, kElementGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      fpk::epi_store(e, i, fpk::epi_apply(e, acc[i], i % channels));
    }
  });
}

GemmShape conv_gemm_shape(const FpInstr& in, const FpRegShape& xs) {
  GemmShape s;
  s.m = xs.dims[0] * in.geom.out_h(xs.dims[1]) * in.geom.out_w(xs.dims[2]);
  s.k = in.const_shape[0] * in.const_shape[1] * in.const_shape[2];
  s.n = in.const_shape[3];
  return s;
}

/// Pack the conv input into the im2col A matrix (M x K, row-major, same
/// element type as the input register) in `a`; padded taps become 0 rows,
/// which the zero-skipping kernels then jump.
template <typename XT>
void im2col_pack(const FpInstr& in, const XT* x, const FpRegShape& xs, XT* a) {
  const Conv2dGeom& g = in.geom;
  const int64_t h = xs.dims[1], w = xs.dims[2], cin = xs.dims[3];
  const int64_t kh = in.const_shape[0], kw = in.const_shape[1];
  const int64_t oh = g.out_h(h), ow = g.out_w(w);
  const int64_t m = xs.dims[0] * oh * ow;
  const int64_t k = kh * kw * cin;
  parallel_for(0, m, grain_for(m, k), [&](int64_t m0, int64_t m1) {
    for (int64_t r = m0; r < m1; ++r) {
      const int64_t b = r / (oh * ow);
      const int64_t oy = (r / ow) % oh;
      const int64_t ox = r % ow;
      XT* row = a + r * k;
      const int64_t iy0 = oy * g.stride_h - g.pad_top;
      const int64_t ix0 = ox * g.stride_w - g.pad_left;
      for (int64_t ky = 0; ky < kh; ++ky) {
        const int64_t iy = iy0 + ky;
        XT* dst = row + ky * kw * cin;
        if (iy < 0 || iy >= h) {
          std::memset(dst, 0, static_cast<size_t>(kw * cin) * sizeof(XT));
          continue;
        }
        // Consecutive kx taps are contiguous in NHWC, so the whole valid
        // [kx_lo, kx_hi) span is one copy framed by zeroed padding.
        const int64_t kx_lo = std::max<int64_t>(0, -ix0);
        const int64_t kx_hi = std::min(kw, w - ix0);
        if (kx_lo > 0) std::memset(dst, 0, static_cast<size_t>(kx_lo * cin) * sizeof(XT));
        if (kx_hi > kx_lo) {
          std::memcpy(dst + kx_lo * cin, x + ((b * h + iy) * w + ix0 + kx_lo) * cin,
                      static_cast<size_t>((kx_hi - kx_lo) * cin) * sizeof(XT));
        }
        if (kx_hi < kw) {
          std::memset(dst + std::max(kx_hi, kx_lo) * cin, 0,
                      static_cast<size_t>((kw - std::max(kx_hi, kx_lo)) * cin) * sizeof(XT));
        }
      }
    }
  });
}

/// True for a 1x1 stride-1 unpadded conv: the NHWC activations are already
/// the [M, cin] GEMM A operand, so the im2col copy can be skipped.
bool is_pointwise(const FpInstr& in) {
  const Conv2dGeom& g = in.geom;
  return in.const_shape[0] == 1 && in.const_shape[1] == 1 && g.stride_h == 1 &&
         g.stride_w == 1 && g.pad_top == 0 && g.pad_bottom == 0 && g.pad_left == 0 &&
         g.pad_right == 0;
}

/// The epilogue bundle a matmul instruction hands its kernel (no steps for an
/// unfused one).
fpk::Epilogue make_epi(const FpInstr& in, const ExecPlan::Const& pc, void* y, IntWidth wy) {
  fpk::Epilogue e;
  e.steps = pc.epi.data();
  e.n_steps = static_cast<int>(pc.epi.size());
  e.bias = in.bias_data.empty() ? nullptr : in.bias_data.data();
  e.y = y;
  e.out_bytes = width_bytes(wy);
  e.vec32 = pc.epi_vec32;
  e.bias32 = pc.bias32.empty() ? nullptr : pc.bias32.data();
  e.chan_shift = pc.chan_shifts.empty() ? nullptr : pc.chan_shifts.data();
  return e;
}

}  // namespace

// ---- Matmul instruction dispatch (shared with the autotuner) ----------------
// The tuner's timing probes call the very same run_fused the executor does,
// so a measured candidate is exactly the code that will run in production.

namespace detail {

fpk::Algo resolve_fused_algo(const FpInstr& in, const ExecPlan::Const& c,
                             IntWidth xw, fpk::Algo pref) {
  // The narrow kernels accumulate in int32 over int8 weights and int8/int16
  // activations; without the plan's proof that the accumulator bound fits,
  // the generic int64 path is the only safe one.
  const bool narrow_x = xw == IntWidth::kI8 || xw == IntWidth::kI16;
  if (!c.acc_ok32 || c.width != IntWidth::kI8 || !narrow_x) return fpk::Algo::kGeneric;
  // A blocked selection is a layout commitment, not a preference: the input
  // register holds NC8HW8 lanes that no other algo can read.
  if (pref == fpk::Algo::kBlocked && xw == IntWidth::kI8) return fpk::Algo::kBlocked;
  if (base_kind_of(in.kind) == FpInstr::Kind::kDepthwise) return fpk::Algo::kDwDirect;
  // Tuner-selected sub-byte GEMM: honored only while the plan carries the
  // nibble-packed weights. Any other preference (including the retired
  // kGemmRaw of an old sidecar) resolves to the static pick.
  if (pref == fpk::Algo::kGemmS4 && !c.b_nib4.empty()) return fpk::Algo::kGemmS4;
  if (!c.b_pair16.empty()) return fpk::Algo::kGemmPacked;
  return fpk::Algo::kGeneric;
}

void run_fused(const FpInstr& in, const ExecPlan::Const& pc, fpk::Algo algo,
               const void* x, const FpRegShape& xs, IntWidth xw, void* y,
               IntWidth wy, int64_t yn, std::vector<unsigned char>& scratch,
               std::vector<unsigned char>& acc_buf) {
  const fpk::KernelSet& ks = fpk::active_kernels();
  const fpk::Epilogue e = make_epi(in, pc, y, wy);
  const FpInstr::Kind base = base_kind_of(in.kind);

  if (algo == fpk::Algo::kBlocked) {
    if (base == FpInstr::Kind::kDepthwise) {
      fpk::DepthwiseArgs a;
      a.batch = xs.dims[0];
      a.h = xs.dims[1];
      a.w = xs.dims[2];
      a.c = xs.dims[3];
      a.oh = in.geom.out_h(a.h);
      a.ow = in.geom.out_w(a.w);
      a.geom = in.geom;
      ks.depthwise_s8blk_epi(static_cast<const int8_t*>(x), pc.w_blk8.data(), a, e);
    } else {
      fpk::ConvBlkArgs a;
      a.batch = xs.dims[0];
      a.h = xs.dims[1];
      a.w = xs.dims[2];
      a.cin = xs.dims[3];
      a.cout = in.const_shape[3];
      a.oh = in.geom.out_h(a.h);
      a.ow = in.geom.out_w(a.w);
      a.geom = in.geom;
      ks.conv_s8blk_epi(static_cast<const int8_t*>(x), pc.b_blk16.data(), a, e);
    }
    return;
  }

  if (algo == fpk::Algo::kDwDirect) {
    fpk::DepthwiseArgs a;
    a.batch = xs.dims[0];
    a.h = xs.dims[1];
    a.w = xs.dims[2];
    a.c = xs.dims[3];
    a.oh = in.geom.out_h(a.h);
    a.ow = in.geom.out_w(a.w);
    a.geom = in.geom;
    if (xw == IntWidth::kI8) {
      ks.depthwise_s8_epi(static_cast<const int8_t*>(x), pc.i8.data(), a, e);
    } else {
      ks.depthwise_s16_epi(static_cast<const int16_t*>(x), pc.i8.data(), a, e);
    }
    return;
  }

  if (algo == fpk::Algo::kGemmPacked || algo == fpk::Algo::kGemmS4) {
    GemmShape gs;
    const void* a = x;
    if (base == FpInstr::Kind::kDense) {
      gs.m = xs.dims[0];
      gs.n = in.const_shape[1];
      gs.k = xs.dims[1];
    } else {
      gs = conv_gemm_shape(in, xs);
      if (!is_pointwise(in)) {
        const size_t need = static_cast<size_t>(gs.m * gs.k) *
                                static_cast<size_t>(width_bytes(xw)) +
                            32;
        if (scratch.size() < need) scratch.resize(need);
        if (xw == IntWidth::kI8) {
          im2col_pack(in, static_cast<const int8_t*>(x), xs,
                      reinterpret_cast<int8_t*>(scratch.data()));
        } else {
          im2col_pack(in, static_cast<const int16_t*>(x), xs,
                      reinterpret_cast<int16_t*>(scratch.data()));
        }
        a = scratch.data();
      }
    }
    if (xw == IntWidth::kI8) {
      if (algo == fpk::Algo::kGemmS4) {
        ks.gemm_s8n4_epi(static_cast<const int8_t*>(a), pc.b_nib4.data(), gs.m, gs.n,
                         gs.k, e);
      } else {
        ks.gemm_s8p16_epi(static_cast<const int8_t*>(a), pc.b_pair16.data(), gs.m, gs.n,
                          gs.k, e);
      }
    } else if (algo == fpk::Algo::kGemmS4) {
      ks.gemm_s16n4_epi(static_cast<const int16_t*>(a), pc.b_nib4.data(), gs.m, gs.n,
                        gs.k, e);
    } else {
      ks.gemm_s16p16_epi(static_cast<const int16_t*>(a), pc.b_pair16.data(), gs.m, gs.n,
                         gs.k, e);
    }
    return;
  }

  // Generic fallback: accumulate in int64 (the reference semantics exactly),
  // then retire through the same epilogue.
  const size_t need = static_cast<size_t>(yn) * sizeof(int64_t);
  if (acc_buf.size() < need) acc_buf.resize(need);
  int64_t* acc = reinterpret_cast<int64_t*>(acc_buf.data());
  with_width(xw, [&](auto xt) {
    using XT = decltype(xt);
    const XT* xp = static_cast<const XT*>(x);
    if (base == FpInstr::Kind::kConv2d) {
      conv_generic(in, xp, xs, acc);
    } else if (base == FpInstr::Kind::kDepthwise) {
      depthwise_generic(in, xp, xs, acc);
    } else {
      dense_generic(in, xp, xs, acc);
    }
  });
  const int64_t channels = base == FpInstr::Kind::kConv2d      ? in.const_shape[3]
                           : base == FpInstr::Kind::kDepthwise ? xs.dims[3]
                                                               : in.const_shape[1];
  apply_epi(e, acc, yn, channels);
}

void layout_pack(const int8_t* x, const FpRegShape& xs, int8_t* y) {
  const int64_t h = xs.dims[1], w = xs.dims[2], c = xs.dims[3];
  const int64_t cb_n = fpk::blocked_c(c) / fpk::kChanBlock;
  const int64_t hw = h * w;
  const int64_t pixels = xs.dims[0] * hw;
#ifdef __AVX2__
  if (cb_n == 1 && c <= 4) {
    // Stem fast path (c=3 is every zoo model's input conv): 4 pixels per
    // vpshufb. One 16-byte load covers 4 pixels (4*c <= 16 bytes), broadcast
    // to both lanes; the shuffle scatters each pixel's c channels to its
    // 8-byte block and writes 0x80-indexed zeros into the padded lanes.
    alignas(32) int8_t mi[32];
    for (int j = 0; j < 32; ++j) {
      const int q = (j >> 4) * 2 + ((j & 15) >> 3);  // source pixel 0..3
      const int ch = j & 7;
      mi[j] = ch < c ? static_cast<int8_t>(q * c + ch) : static_cast<int8_t>(-128);
    }
    const __m256i mask = _mm256_load_si256(reinterpret_cast<const __m256i*>(mi));
    parallel_for(0, pixels, grain_for(pixels, fpk::kChanBlock),
                 [&](int64_t p0, int64_t p1) {
      int64_t p = p0;
      // The 16-byte load reaches past the 4th pixel when c < 4; stay inside
      // the source buffer and finish the trailing pixels scalar.
      for (; p + 4 <= p1 && p * c + 16 <= pixels * c; p += 4) {
        const __m256i v = _mm256_broadcastsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + p * c)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + p * fpk::kChanBlock),
                            _mm256_shuffle_epi8(v, mask));
      }
      for (; p < p1; ++p) {
        const int8_t* src = x + p * c;
        int8_t* dst = y + p * fpk::kChanBlock;
        for (int64_t l = 0; l < c; ++l) dst[l] = src[l];
        for (int64_t l = c; l < fpk::kChanBlock; ++l) dst[l] = 0;
      }
    });
    return;
  }
#endif
  parallel_for(0, pixels, grain_for(pixels, fpk::blocked_c(c)), [&](int64_t p0, int64_t p1) {
    int64_t b = p0 / hw, rem = p0 % hw;
    for (int64_t p = p0; p < p1; ++p) {
      const int8_t* src = x + p * c;
      int8_t* plane = y + (b * cb_n * hw + rem) * fpk::kChanBlock;
      for (int64_t cb = 0; cb < cb_n; ++cb) {
        int8_t* dst = plane + cb * hw * fpk::kChanBlock;
        const int64_t c0 = cb * fpk::kChanBlock;
        if (c - c0 >= fpk::kChanBlock) {
          // Full block: one 8-byte move (the overwhelmingly common case).
          std::memcpy(dst, src + c0, fpk::kChanBlock);
        } else {
          // Partial tail block: byte loops, not a variable-length memcpy —
          // the call overhead dwarfs the 1..7 bytes actually moved.
          const int64_t nv = c - c0;
          for (int64_t l = 0; l < nv; ++l) dst[l] = src[c0 + l];
          for (int64_t l = nv; l < fpk::kChanBlock; ++l) dst[l] = 0;
        }
      }
      if (++rem == hw) { rem = 0; ++b; }
    }
  });
}

void layout_unpack(const void* x, IntWidth w, const FpRegShape& ys, void* y) {
  const int64_t h = ys.dims[1], wd = ys.dims[2], c = ys.dims[3];
  const int64_t cb_n = fpk::blocked_c(c) / fpk::kChanBlock;
  const int64_t pixels = ys.dims[0] * h * wd;
  const int64_t hw = h * wd;
  with_width(w, [&](auto t) {
    using T = decltype(t);
    const T* src = static_cast<const T*>(x);
    T* dst = static_cast<T*>(y);
    parallel_for(0, pixels, grain_for(pixels, c), [&](int64_t p0, int64_t p1) {
      int64_t b = p0 / hw, rem = p0 % hw;
      for (int64_t p = p0; p < p1; ++p) {
        T* drow = dst + p * c;
        const T* plane = src + (b * cb_n * hw + rem) * fpk::kChanBlock;
        for (int64_t cb = 0; cb < cb_n; ++cb) {
          const T* s = plane + cb * hw * fpk::kChanBlock;
          const int64_t c0 = cb * fpk::kChanBlock;
          if (c - c0 >= fpk::kChanBlock) {
            std::memcpy(drow + c0, s, fpk::kChanBlock * sizeof(T));
          } else {
            for (int64_t l = 0; l < c - c0; ++l) drow[c0 + l] = s[l];
          }
        }
        if (++rem == hw) { rem = 0; ++b; }
      }
    });
  });
}

}  // namespace detail

namespace {

/// One typed execution over an ExecContext. Only borrows program state; all
/// mutation happens in ctx.
class Executor {
 public:
  Executor(const std::vector<FpInstr>& instrs, const ExecPlan& plan, const Tensor& input,
           std::vector<std::vector<unsigned char>>& slots, std::vector<unsigned char>& scratch,
           std::vector<unsigned char>& acc_scratch, const std::vector<FpRegShape>& shapes)
      : instrs_(instrs), plan_(plan), input_(input), slots_(slots), scratch_(scratch),
        acc_scratch_(acc_scratch), shapes_(shapes) {}

  void run() {
    if (observe::trace_enabled()) {
      run_traced();
      return;
    }
    for (size_t idx = 0; idx < instrs_.size(); ++idx) exec_one(idx);
  }

 private:
  /// Tracing-enabled path: one span per instruction, tagged with the
  /// originating graph node, operand widths, and — for the matmul family —
  /// the kernel set actually dispatched to. Kept out of the default loop so
  /// disabled-tracing execution pays only the one branch above.
  void run_traced() {
    for (size_t idx = 0; idx < instrs_.size(); ++idx) {
      const FpInstr& in = instrs_[idx];
      observe::TraceSpan span(to_string(in.kind), "engine");
      const char* xw = in.inputs.empty() ? "-" : to_string(reg_w(in.inputs[0]));
      const char* yw = to_string(reg_w(in.output));
      if (is_matmul_kind(in.kind)) {
        // Same table --explain-kernels prints: the resolved algo plus
        // whether it came from a tuned selection or the static default.
        const fpk::Algo a = detail::resolve_fused_algo(in, plan_.consts[idx],
                                                       reg_w(in.inputs[0]),
                                                       planned_algo(idx));
        span.argf("%s %s->%s kernels=%s algo=%s%s", in.debug_name.c_str(), xw, yw,
                  fpk::active_kernels().name, fpk::algo_name(a),
                  planned_algo(idx) == fpk::Algo::kAuto ? "" : " tuned");
      } else {
        span.argf("%s %s->%s", in.debug_name.c_str(), xw, yw);
      }
      exec_one(idx);
    }
  }

  fpk::Algo planned_algo(size_t idx) const {
    return idx < plan_.algos.size() ? plan_.algos[idx] : fpk::Algo::kAuto;
  }

  void* reg_ptr(int r) const {
    return slots_[static_cast<size_t>(plan_.regs[static_cast<size_t>(r)].slot)].data();
  }
  IntWidth reg_w(int r) const { return plan_.regs[static_cast<size_t>(r)].width; }
  int reg_exp(int r) const { return plan_.regs[static_cast<size_t>(r)].exponent; }
  const FpRegShape& reg_shape(int r) const { return shapes_[static_cast<size_t>(r)]; }

  void exec_one(size_t idx) {
    const FpInstr& in = instrs_[idx];
    void* y = reg_ptr(in.output);
    const IntWidth wy = reg_w(in.output);
    const int64_t yn = reg_shape(in.output).numel;

    switch (in.kind) {
      case FpInstr::Kind::kQuantizeInput: {
        const float s = std::exp2(static_cast<float>(in.out_exponent));
        with_width(wy, [&](auto yt) {
          using YT = decltype(yt);
          YT* out = static_cast<YT*>(y);
          parallel_for(0, yn, kElementGrain, [&](int64_t i0, int64_t i1) {
            for (int64_t i = i0; i < i1; ++i) {
              out[i] = static_cast<YT>(
                  saturate(static_cast<int64_t>(round_half_to_even(input_[i] / s)),
                           in.clamp_lo, in.clamp_hi));
            }
          });
        });
        break;
      }
      case FpInstr::Kind::kRequant: {
        const int shift = in.out_exponent - reg_exp(in.inputs[0]);
        const int64_t lo = in.clamp_lo, hi = in.clamp_hi;
        const void* xv = reg_ptr(in.inputs[0]);
        const IntWidth wx = reg_w(in.inputs[0]);
        const ExecPlan::Const& pc = plan_.consts[idx];
        if (!pc.chan_shifts.empty()) {
          // Per-channel producer: lane i's rescale distance comes from the
          // plan's resolved table (channels innermost, so channel = i % C).
          const int32_t* cs = pc.chan_shifts.data();
          const int64_t C = static_cast<int64_t>(pc.chan_shifts.size());
          with_width(wx, [&](auto xt) {
            using XT = decltype(xt);
            const XT* x = static_cast<const XT*>(xv);
            with_width(wy, [&](auto yt) {
              using YT = decltype(yt);
              YT* out = static_cast<YT*>(y);
              parallel_for(0, yn, kElementGrain, [&](int64_t i0, int64_t i1) {
                for (int64_t i = i0; i < i1; ++i) {
                  out[i] = static_cast<YT>(saturate(
                      rescale(static_cast<int64_t>(x[i]), 0, cs[i % C]), lo, hi));
                }
              });
            });
          });
          break;
        }
        if (shift > 0) {
          // Branch-free round-half-to-even right shift, equivalent to
          // fp::rescale (pinned by the Rescale unit tests): with q = v >> s,
          // adding 2^(s-1) - 1 + (q & 1) before the shift rounds up exactly
          // when the remainder exceeds half, or ties at half with q odd.
          const int64_t round = (int64_t{1} << (shift - 1)) - 1;
          map_lanes(xv, wx, y, wy, yn, [=](int64_t v) {
            return saturate((v + round + ((v >> shift) & 1)) >> shift, lo, hi);
          });
        } else if (shift == 0) {
          map_lanes(xv, wx, y, wy, yn, [=](int64_t v) { return saturate(v, lo, hi); });
        } else {
          map_lanes(xv, wx, y, wy, yn,
                    [=](int64_t v) { return saturate(v << -shift, lo, hi); });
        }
        break;
      }
      case FpInstr::Kind::kBiasAdd: {
        // The channel dimension is innermost in NHWC, so the reference's
        // bias[i % channels] indexing is row-by-row broadcast; iterate rows
        // explicitly to keep the modulo out of the per-lane loop.
        const int64_t channels = in.const_shape[0];
        const int64_t rows = yn / channels;
        const int64_t* bias = in.const_data.data();
        with_width(reg_w(in.inputs[0]), [&](auto xt) {
          using XT = decltype(xt);
          const XT* x = static_cast<const XT*>(reg_ptr(in.inputs[0]));
          with_width(wy, [&](auto yt) {
            using YT = decltype(yt);
            YT* out = static_cast<YT*>(y);
            parallel_for(0, rows, grain_for(rows, channels), [&](int64_t r0, int64_t r1) {
              for (int64_t r = r0; r < r1; ++r) {
                const XT* xr = x + r * channels;
                YT* yr = out + r * channels;
                for (int64_t c = 0; c < channels; ++c) {
                  yr[c] = static_cast<YT>(static_cast<int64_t>(xr[c]) + bias[c]);
                }
              }
            });
          });
        });
        break;
      }
      case FpInstr::Kind::kRelu:
        map_lanes(reg_ptr(in.inputs[0]), reg_w(in.inputs[0]), y, wy, yn,
                  [](int64_t v) { return v > 0 ? v : 0; });
        break;
      case FpInstr::Kind::kRelu6:
        map_lanes(reg_ptr(in.inputs[0]), reg_w(in.inputs[0]), y, wy, yn,
                  [&](int64_t v) { return saturate(v, in.clamp_lo, in.clamp_hi); });
        break;
      case FpInstr::Kind::kLeakyRelu: {
        const int lift = -in.alpha_exponent;  // alpha exponents are negative
        map_lanes(reg_ptr(in.inputs[0]), reg_w(in.inputs[0]), y, wy, yn, [&](int64_t v) {
          return std::max(v << lift, v * in.alpha_q);
        });
        break;
      }
      case FpInstr::Kind::kMaxPool: {
        const int x = in.inputs[0];
        with_width(reg_w(x), [&](auto xt) {
          with_width(wy, [&](auto yt) {
            maxpool_typed(in, static_cast<const decltype(xt)*>(reg_ptr(x)), reg_shape(x),
                          static_cast<decltype(yt)*>(y));
          });
        });
        break;
      }
      case FpInstr::Kind::kEltwiseAdd:
        map2_lanes(reg_ptr(in.inputs[0]), reg_w(in.inputs[0]), reg_ptr(in.inputs[1]),
                   reg_w(in.inputs[1]), y, wy, yn,
                   [](int64_t a, int64_t b) { return a + b; });
        break;
      case FpInstr::Kind::kConcat: {
        const int64_t total_c = reg_shape(in.output).dims[reg_shape(in.output).rank - 1];
        const int64_t rows = yn / total_c;
        int64_t offset = 0;
        for (int r : in.inputs) {
          const FpRegShape& s = reg_shape(r);
          const int64_t c = s.dims[s.rank - 1];
          with_width(reg_w(r), [&](auto xt) {
            using XT = decltype(xt);
            const XT* src = static_cast<const XT*>(reg_ptr(r));
            with_width(wy, [&](auto yt) {
              using YT = decltype(yt);
              YT* out = static_cast<YT*>(y);
              parallel_for(0, rows, grain_for(rows, c), [&](int64_t r0, int64_t r1) {
                for (int64_t row = r0; row < r1; ++row) {
                  for (int64_t j = 0; j < c; ++j) {
                    out[row * total_c + offset + j] = static_cast<YT>(src[row * c + j]);
                  }
                }
              });
            });
          });
          offset += c;
        }
        break;
      }
      case FpInstr::Kind::kFlatten: {
        // Bounds (hence width) pass through; a flatten is a pure reshape.
        // When the plan aliased the output onto the input's slot (the normal
        // case), there is nothing to execute — the lanes are already there.
        const int x = in.inputs[0];
        const int xs = plan_.regs[static_cast<size_t>(x)].slot;
        const int ys = plan_.regs[static_cast<size_t>(in.output)].slot;
        if (xs >= 0 && xs == ys && reg_w(x) == wy) break;
        if (reg_w(x) == wy) {
          std::memcpy(y, reg_ptr(x), static_cast<size_t>(yn) * width_bytes(wy));
        } else {
          map_lanes(reg_ptr(x), reg_w(x), y, wy, yn, [](int64_t v) { return v; });
        }
        break;
      }
      case FpInstr::Kind::kConv2d:
      case FpInstr::Kind::kDepthwise:
      case FpInstr::Kind::kDense:
      case FpInstr::Kind::kConv2dFused:
      case FpInstr::Kind::kDepthwiseFused:
      case FpInstr::Kind::kDenseFused: {
        const int x = in.inputs[0];
        const fpk::Algo algo =
            detail::resolve_fused_algo(in, plan_.consts[idx], reg_w(x), planned_algo(idx));
        detail::run_fused(in, plan_.consts[idx], algo, reg_ptr(x), reg_shape(x),
                          reg_w(x), y, wy, yn, scratch_, acc_scratch_);
        break;
      }
      case FpInstr::Kind::kLayoutPack:
        detail::layout_pack(static_cast<const int8_t*>(reg_ptr(in.inputs[0])),
                            reg_shape(in.inputs[0]), static_cast<int8_t*>(y));
        break;
      case FpInstr::Kind::kLayoutUnpack:
        detail::layout_unpack(reg_ptr(in.inputs[0]), wy, reg_shape(in.output), y);
        break;
    }
  }

  const std::vector<FpInstr>& instrs_;
  const ExecPlan& plan_;
  const Tensor& input_;
  std::vector<std::vector<unsigned char>>& slots_;
  std::vector<unsigned char>& scratch_;
  std::vector<unsigned char>& acc_scratch_;
  const std::vector<FpRegShape>& shapes_;
};

}  // namespace

int64_t ExecContext::arena_bytes() const {
  int64_t b = static_cast<int64_t>(scratch_.capacity()) +
              static_cast<int64_t>(acc_scratch_.capacity());
  for (const auto& s : slots_) b += static_cast<int64_t>(s.capacity());
  return b;
}

void FixedPointProgram::run_into(const Tensor& input, ExecContext& ctx, Tensor& out) const {
  // Resolved once per process (the static-local guard + relaxed increments
  // are the entire disabled-telemetry cost); the first call lands during the
  // warm-up run, so the steady-state zero-allocation window stays clean.
  static observe::Counter& runs_counter =
      observe::MetricsRegistry::global().counter("engine.runs");
  static observe::Counter& instr_counter =
      observe::MetricsRegistry::global().counter("engine.instructions");
  runs_counter.inc();
  observe::TraceSpan span("engine.run_into", "engine");

  const ExecPlan& plan = this->plan();
  // The execution stream: the canonical instructions, unless the autotuner
  // derived a stream with layout pseudo-ops (plan.consts / plan.algos /
  // plan.regs are aligned with THAT stream, including its extra registers).
  const std::vector<FpInstr>& xinstrs = plan.instrs.empty() ? instrs_ : plan.instrs;
  const int n_regs = static_cast<int>(plan.regs.size());
  instr_counter.inc(xinstrs.size());
  span.argf("instrs=%zu", xinstrs.size());

  // Per-run shape inference + arena sizing; every container is grow-only, so
  // after a warm-up run at this (program, shape) nothing below allocates.
  infer_register_shapes(xinstrs, n_regs, input_register, input.shape(), ctx.regs_);
  if (static_cast<int>(ctx.slots_.size()) < plan.n_slots) {
    ctx.slots_.resize(static_cast<size_t>(plan.n_slots));
  }
  // kBufSlack trailing bytes let the SIMD GEMM's mask loads read a whole
  // 32-byte block past the end of an A row without faulting; the padded
  // lanes multiply the zero-padded tail of the packed B operand, so their
  // contents never reach a result.
  constexpr size_t kBufSlack = 32;
  for (int r = 0; r < n_regs; ++r) {
    const ExecPlan::Reg& pr = plan.regs[static_cast<size_t>(r)];
    if (pr.slot < 0) continue;
    const size_t need = static_cast<size_t>(ctx.regs_[static_cast<size_t>(r)].numel) *
                            static_cast<size_t>(width_bytes(pr.width)) +
                        kBufSlack;
    auto& buf = ctx.slots_[static_cast<size_t>(pr.slot)];
    if (buf.size() < need) buf.resize(need);
  }
  if (plan.needs_scratch) {
    size_t need = 0;
    for (size_t idx = 0; idx < xinstrs.size(); ++idx) {
      const FpInstr& in = xinstrs[idx];
      if (base_kind_of(in.kind) != FpInstr::Kind::kConv2d) continue;
      if (plan.consts[idx].width != IntWidth::kI8) continue;
      // Blocked convs read the NC8HW8 register directly — no im2col.
      if (idx < plan.algos.size() && plan.algos[idx] == fpk::Algo::kBlocked) continue;
      const GemmShape gs = conv_gemm_shape(in, ctx.regs_[static_cast<size_t>(in.inputs[0])]);
      const int xw = width_bytes(plan.regs[static_cast<size_t>(in.inputs[0])].width);
      need = std::max(need,
                      static_cast<size_t>(gs.m * gs.k) * static_cast<size_t>(xw) + kBufSlack);
    }
    if (ctx.scratch_.size() < need) ctx.scratch_.resize(need);
  }
  // int64 accumulator buffer, sized only for matmul instructions that take
  // the generic fallback (grow-only like everything else).
  {
    size_t need = 0;
    for (size_t idx = 0; idx < xinstrs.size(); ++idx) {
      const FpInstr& in = xinstrs[idx];
      if (!is_matmul_kind(in.kind)) continue;
      if (detail::resolve_fused_algo(
              in, plan.consts[idx], plan.regs[static_cast<size_t>(in.inputs[0])].width,
              idx < plan.algos.size() ? plan.algos[idx] : fpk::Algo::kAuto) !=
          fpk::Algo::kGeneric) {
        continue;
      }
      need = std::max(need,
                      static_cast<size_t>(ctx.regs_[static_cast<size_t>(in.output)].numel) *
                          sizeof(int64_t));
    }
    if (ctx.acc_scratch_.size() < need) ctx.acc_scratch_.resize(need);
  }

  Executor ex(xinstrs, plan, input, ctx.slots_, ctx.scratch_, ctx.acc_scratch_, ctx.regs_);
  ex.run();

  // De-quantize the output register into `out`, resizing only on shape change.
  const FpRegShape& os = ctx.regs_[static_cast<size_t>(output_register)];
  bool same = out.rank() == os.rank && out.numel() == os.numel;
  for (int d = 0; same && d < os.rank; ++d) same = out.shape()[static_cast<size_t>(d)] == os.dims[d];
  if (!same) {
    Shape shape(os.dims, os.dims + os.rank);
    out = Tensor(std::move(shape));
  }
  const ExecPlan::Reg& orr = plan.regs[static_cast<size_t>(output_register)];
  const float s = std::exp2(static_cast<float>(orr.exponent));
  const void* raw = ctx.slots_[static_cast<size_t>(orr.slot)].data();
  with_width(orr.width, [&](auto yt) {
    using YT = decltype(yt);
    const YT* lanes = static_cast<const YT*>(raw);
    float* o = out.data();
    parallel_for(0, os.numel, kElementGrain, [&](int64_t i0, int64_t i1) {
      for (int64_t i = i0; i < i1; ++i) o[i] = static_cast<float>(lanes[i]) * s;
    });
  });
}

IntTensor FixedPointProgram::run_raw(const Tensor& input) const {
  thread_local ExecContext ctx;
  Tensor scratch_out;  // run_into needs a Tensor sink; cheap relative to raw copy
  run_into(input, ctx, scratch_out);

  const ExecPlan& plan = this->plan();
  const ExecPlan::Reg& orr = plan.regs[static_cast<size_t>(output_register)];
  // ctx buffers still hold the output register lanes — run_into's dequantize
  // does not disturb the arena.
  const FpRegShape& os = ctx.regs_[static_cast<size_t>(output_register)];
  IntTensor raw;
  raw.shape.assign(os.dims, os.dims + os.rank);
  raw.exponent = orr.exponent;
  raw.data.resize(static_cast<size_t>(os.numel));
  const void* src = ctx.slots_[static_cast<size_t>(orr.slot)].data();
  with_width(orr.width, [&](auto yt) {
    using YT = decltype(yt);
    const YT* lanes = static_cast<const YT*>(src);
    for (int64_t i = 0; i < os.numel; ++i) raw.data[static_cast<size_t>(i)] = lanes[i];
  });
  return raw;
}

}  // namespace tqt
