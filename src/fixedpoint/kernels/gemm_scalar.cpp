// Scalar (portable) narrow-width kernels + kernel-set selection.
//
// Integer accumulation is exact, so every kernel here is bit-identical to the
// AVX2 set for every block size, thread count and zero-skip pattern.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "fixedpoint/kernels/kernels.h"
#include "runtime/parallel.h"

namespace tqt::fpk {

const char* algo_name(Algo a) {
  switch (a) {
    case Algo::kAuto: return "auto";
    case Algo::kGemmPacked: return "gemm-packed";
    case Algo::kGemmRaw: return "gemm-raw";
    case Algo::kDwDirect: return "dw-direct";
    case Algo::kBlocked: return "blocked";
    case Algo::kGeneric: return "generic";
    case Algo::kGemmS4: return "gemm-s4";
  }
  return "?";
}

namespace {

// Every kernel accumulates a column (or channel) block of one output row into
// a stack tile, then retires it through the epilogue — the int32
// accumulators never reach memory. Blocks are independent, so chunking
// handles any N without heap buffers.
constexpr int64_t kNBlock = 256;

// B loaders for the pair walk: the (even K row, odd K row) weights of column
// j0 + j in K-row pair p, read from pack_b_pair16 or pack_b_nib4 output.
struct Pair16Load {
  const int16_t* B;
  int64_t np;  ///< packed_n(N)
  const int16_t* row(int64_t p, int64_t j0) const { return B + (p * np + j0) * 2; }
  static int32_t even(const int16_t* b, int64_t j) { return b[2 * j]; }
  static int32_t odd(const int16_t* b, int64_t j) { return b[2 * j + 1]; }
};

struct Nib4Load {
  const uint8_t* B;
  int64_t np;  ///< packed_n(N)
  const uint8_t* row(int64_t p, int64_t j0) const { return B + p * np + j0; }
  static int32_t even(const uint8_t* b, int64_t j) { return nib4_lo(b[j]); }
  static int32_t odd(const uint8_t* b, int64_t j) { return nib4_hi(b[j]); }
};

// Packed-B GEMM: walk each A row in the (even, odd) K-row pairs both packers
// use — an odd K's final pair multiplies the zero odd row — and skip
// all-zero pairs (im2col padding and post-ReLU activations are genuinely
// sparse; skipping zeros cannot change the sum).
template <typename AT, class BLoad>
void gemm_pair_epi_scalar(const AT* A, const BLoad& bl, int64_t M, int64_t N, int64_t K,
                          const Epilogue& e) {
  const int64_t pairs = (K + 1) / 2;
  parallel_for(0, M, grain_for(M, 2 * K * N, kGemmTargetOps), [&](int64_t m0, int64_t m1) {
    int32_t buf[kNBlock];
    for (int64_t i = m0; i < m1; ++i) {
      const AT* a = A + i * K;
      for (int64_t j0 = 0; j0 < N; j0 += kNBlock) {
        const int64_t jn = std::min(kNBlock, N - j0);
        std::memset(buf, 0, static_cast<size_t>(jn) * sizeof(int32_t));
        for (int64_t p = 0; p < pairs; ++p) {
          const int32_t a0 = a[2 * p];
          const int32_t a1 = (2 * p + 1 < K) ? static_cast<int32_t>(a[2 * p + 1]) : 0;
          if ((a0 | a1) == 0) continue;
          const auto* b = bl.row(p, j0);
          for (int64_t j = 0; j < jn; ++j) {
            buf[j] += a0 * BLoad::even(b, j) + a1 * BLoad::odd(b, j);
          }
        }
        for (int64_t j = 0; j < jn; ++j) {
          epi_store(e, i * N + j0 + j, epi_apply(e, buf[j], j0 + j));
        }
      }
    }
  });
}

void gemm_s8p16_epi_scalar(const int8_t* A, const int16_t* Bp, int64_t M, int64_t N,
                           int64_t K, const Epilogue& e) {
  gemm_pair_epi_scalar(A, Pair16Load{Bp, packed_n(N)}, M, N, K, e);
}

void gemm_s16p16_epi_scalar(const int16_t* A, const int16_t* Bp, int64_t M, int64_t N,
                            int64_t K, const Epilogue& e) {
  gemm_pair_epi_scalar(A, Pair16Load{Bp, packed_n(N)}, M, N, K, e);
}

void gemm_s8n4_epi_scalar(const int8_t* A, const uint8_t* Bn, int64_t M, int64_t N,
                          int64_t K, const Epilogue& e) {
  gemm_pair_epi_scalar(A, Nib4Load{Bn, packed_n(N)}, M, N, K, e);
}

void gemm_s16n4_epi_scalar(const int16_t* A, const uint8_t* Bn, int64_t M, int64_t N,
                           int64_t K, const Epilogue& e) {
  gemm_pair_epi_scalar(A, Nib4Load{Bn, packed_n(N)}, M, N, K, e);
}

template <typename XT>
void depthwise_epi_scalar(const XT* x, const int8_t* w, const DepthwiseArgs& a,
                          const Epilogue& e) {
  const Conv2dGeom& g = a.geom;
  const int64_t rows = a.batch * a.oh;
  parallel_for(0, rows, grain_for(rows, a.ow * g.kh * g.kw * a.c * 2, kGemmTargetOps),
               [&](int64_t r0, int64_t r1) {
    int32_t buf[kNBlock];
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t b = r / a.oh;
      const int64_t oy = r % a.oh;
      for (int64_t ox = 0; ox < a.ow; ++ox) {
        const int64_t out_base = (r * a.ow + ox) * a.c;
        const int64_t iy0 = oy * g.stride_h - g.pad_top;
        const int64_t ix0 = ox * g.stride_w - g.pad_left;
        for (int64_t c0 = 0; c0 < a.c; c0 += kNBlock) {
          const int64_t cn = std::min(kNBlock, a.c - c0);
          std::memset(buf, 0, static_cast<size_t>(cn) * sizeof(int32_t));
          for (int64_t ky = 0; ky < g.kh; ++ky) {
            const int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= a.h) continue;
            for (int64_t kx = 0; kx < g.kw; ++kx) {
              const int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= a.w) continue;
              const XT* xi = x + ((b * a.h + iy) * a.w + ix) * a.c + c0;
              const int8_t* wk = w + (ky * g.kw + kx) * a.c + c0;
              for (int64_t ch = 0; ch < cn; ++ch) {
                buf[ch] += static_cast<int32_t>(xi[ch]) * wk[ch];
              }
            }
          }
          for (int64_t ch = 0; ch < cn; ++ch) {
            epi_store(e, out_base + c0 + ch, epi_apply(e, buf[ch], c0 + ch));
          }
        }
      }
    }
  });
}

void depthwise_s8_epi_scalar(const int8_t* x, const int8_t* w, const DepthwiseArgs& a,
                             const Epilogue& e) {
  depthwise_epi_scalar(x, w, a, e);
}

void depthwise_s16_epi_scalar(const int16_t* x, const int8_t* w, const DepthwiseArgs& a,
                              const Epilogue& e) {
  depthwise_epi_scalar(x, w, a, e);
}

// ---- Channel-blocked (NC8HW8) direct kernels ------------------------------
// Portable reference implementations of Algo::kBlocked. Output lanes past the
// logical channel count store 0 without touching the epilogue (the bias table
// has no entry for them); the AVX2 variants store epilogue(0) instead — both
// are legal because a layout_unpack (or zero weight lanes in a consuming
// blocked kernel) discards those lanes.

void conv_s8blk_epi_scalar(const int8_t* x, const int16_t* wblk, const ConvBlkArgs& a,
                           const Epilogue& e) {
  const Conv2dGeom& g = a.geom;
  const int64_t CBi = blocked_c(a.cin) / kChanBlock;
  const int64_t PP = blocked_c(a.cin) / 2;
  const int64_t OB = blocked_c(a.cout) / kChanBlock;
  const int64_t T = g.kh * g.kw;
  const int64_t rows = a.batch * a.oh;
  parallel_for(0, rows, grain_for(rows, a.ow * T * a.cin * a.cout * 2, kGemmTargetOps),
               [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t b = r / a.oh;
      const int64_t oy = r % a.oh;
      for (int64_t ox = 0; ox < a.ow; ++ox) {
        const int64_t iy0 = oy * g.stride_h - g.pad_top;
        const int64_t ix0 = ox * g.stride_w - g.pad_left;
        for (int64_t ob = 0; ob < OB; ++ob) {
          int32_t acc[kChanBlock] = {0};
          for (int64_t ky = 0; ky < g.kh; ++ky) {
            const int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= a.h) continue;
            for (int64_t kx = 0; kx < g.kw; ++kx) {
              const int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= a.w) continue;
              const int16_t* wt = wblk + ((ob * T + ky * g.kw + kx) * PP) * 2 * kChanBlock;
              for (int64_t p = 0; p < PP; ++p) {
                // Input channels 2p and 2p+1 share a block (kChanBlock is
                // even), so both lanes come from one contiguous pixel group.
                const int8_t* xi =
                    x + (((b * CBi + (2 * p) / kChanBlock) * a.h + iy) * a.w + ix) *
                            kChanBlock +
                    (2 * p) % kChanBlock;
                const int32_t x0 = xi[0];
                const int32_t x1 = xi[1];
                if ((x0 | x1) == 0) continue;
                const int16_t* wp = wt + p * 2 * kChanBlock;
                for (int64_t j = 0; j < kChanBlock; ++j) {
                  acc[j] += x0 * wp[2 * j] + x1 * wp[2 * j + 1];
                }
              }
            }
          }
          const int64_t out_base = (((b * OB + ob) * a.oh + oy) * a.ow + ox) * kChanBlock;
          for (int64_t j = 0; j < kChanBlock; ++j) {
            const int64_t ch = ob * kChanBlock + j;
            if (ch < a.cout) {
              epi_store(e, out_base + j, epi_apply(e, acc[j], ch));
            } else {
              epi_store(e, out_base + j, 0);
            }
          }
        }
      }
    }
  });
}

void depthwise_s8blk_epi_scalar(const int8_t* x, const int8_t* wblk,
                                const DepthwiseArgs& a, const Epilogue& e) {
  const Conv2dGeom& g = a.geom;
  const int64_t CB = blocked_c(a.c) / kChanBlock;
  const int64_t T = g.kh * g.kw;
  const int64_t rows = a.batch * a.oh;
  parallel_for(0, rows, grain_for(rows, a.ow * T * a.c * 2, kGemmTargetOps),
               [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t b = r / a.oh;
      const int64_t oy = r % a.oh;
      for (int64_t ox = 0; ox < a.ow; ++ox) {
        const int64_t iy0 = oy * g.stride_h - g.pad_top;
        const int64_t ix0 = ox * g.stride_w - g.pad_left;
        for (int64_t cb = 0; cb < CB; ++cb) {
          int32_t acc[kChanBlock] = {0};
          for (int64_t ky = 0; ky < g.kh; ++ky) {
            const int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= a.h) continue;
            for (int64_t kx = 0; kx < g.kw; ++kx) {
              const int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= a.w) continue;
              const int8_t* xi =
                  x + (((b * CB + cb) * a.h + iy) * a.w + ix) * kChanBlock;
              const int8_t* wk = wblk + (cb * T + ky * g.kw + kx) * kChanBlock;
              for (int64_t l = 0; l < kChanBlock; ++l) {
                acc[l] += static_cast<int32_t>(xi[l]) * wk[l];
              }
            }
          }
          const int64_t out_base = (((b * CB + cb) * a.oh + oy) * a.ow + ox) * kChanBlock;
          for (int64_t l = 0; l < kChanBlock; ++l) {
            const int64_t ch = cb * kChanBlock + l;
            if (ch < a.c) {
              epi_store(e, out_base + l, epi_apply(e, acc[l], ch));
            } else {
              epi_store(e, out_base + l, 0);
            }
          }
        }
      }
    }
  });
}

const KernelSet* g_forced = nullptr;

}  // namespace

std::vector<int16_t> pack_b_pair16(const int8_t* B, int64_t K, int64_t N) {
  const int64_t pairs = (K + 1) / 2;
  const int64_t np = packed_n(N);
  std::vector<int16_t> packed(static_cast<size_t>(pairs * np * 2), int16_t{0});
  for (int64_t p = 0; p < pairs; ++p) {
    const int8_t* row0 = B + (2 * p) * N;
    const int8_t* row1 = (2 * p + 1 < K) ? B + (2 * p + 1) * N : nullptr;
    int16_t* dst = packed.data() + p * np * 2;
    for (int64_t n = 0; n < N; ++n) {
      dst[2 * n] = row0[n];
      dst[2 * n + 1] = row1 ? row1[n] : int16_t{0};
    }
  }
  return packed;
}

std::vector<uint8_t> pack_b_nib4(const int8_t* B, int64_t K, int64_t N) {
  const int64_t pairs = (K + 1) / 2;
  const int64_t np = packed_n(N);
  std::vector<uint8_t> packed(static_cast<size_t>(pairs * np), uint8_t{0});
  for (int64_t p = 0; p < pairs; ++p) {
    const int8_t* row0 = B + (2 * p) * N;
    const int8_t* row1 = (2 * p + 1 < K) ? B + (2 * p + 1) * N : nullptr;
    uint8_t* dst = packed.data() + p * np;
    for (int64_t n = 0; n < N; ++n) {
      const int v0 = row0[n];
      const int v1 = row1 ? row1[n] : 0;
      if (v0 < -8 || v0 > 7 || v1 < -8 || v1 > 7) {
        throw std::invalid_argument("pack_b_nib4: value outside int4 range [-8, 7]");
      }
      dst[n] = static_cast<uint8_t>((v0 & 0xF) | (v1 << 4));
    }
  }
  return packed;
}

std::vector<int16_t> pack_conv_wblk16(const int8_t* w, int64_t kh, int64_t kw,
                                      int64_t cin, int64_t cout) {
  const int64_t T = kh * kw;
  const int64_t PP = blocked_c(cin) / 2;
  const int64_t OB = blocked_c(cout) / kChanBlock;
  std::vector<int16_t> packed(static_cast<size_t>(OB * T * PP * kChanBlock * 2),
                              int16_t{0});
  for (int64_t ob = 0; ob < OB; ++ob) {
    for (int64_t t = 0; t < T; ++t) {
      for (int64_t p = 0; p < PP; ++p) {
        int16_t* dst = packed.data() + (((ob * T + t) * PP + p) * kChanBlock) * 2;
        for (int64_t j = 0; j < kChanBlock; ++j) {
          const int64_t o = ob * kChanBlock + j;
          if (o >= cout) continue;
          for (int64_t d = 0; d < 2; ++d) {
            const int64_t c = 2 * p + d;
            if (c < cin) dst[j * 2 + d] = w[(t * cin + c) * cout + o];
          }
        }
      }
    }
  }
  return packed;
}

std::vector<int8_t> pack_dw_wblk8(const int8_t* w, int64_t kh, int64_t kw, int64_t c) {
  const int64_t T = kh * kw;
  const int64_t CB = blocked_c(c) / kChanBlock;
  std::vector<int8_t> packed(static_cast<size_t>(CB * T * kChanBlock), int8_t{0});
  for (int64_t cb = 0; cb < CB; ++cb) {
    for (int64_t t = 0; t < T; ++t) {
      for (int64_t l = 0; l < kChanBlock; ++l) {
        const int64_t ch = cb * kChanBlock + l;
        if (ch < c) {
          packed[static_cast<size_t>((cb * T + t) * kChanBlock + l)] = w[t * c + ch];
        }
      }
    }
  }
  return packed;
}

const char* kernels_env_error(const char* value) {
  if (std::strcmp(value, "scalar") == 0 || std::strcmp(value, "avx2") == 0 ||
      std::strcmp(value, "auto") == 0) {
    return nullptr;
  }
  return "unrecognized TQT_KERNELS value (expected scalar|avx2|auto)";
}

namespace {

const KernelSet* pick_auto() {
  if (const KernelSet* avx2 = avx2_kernels()) return avx2;
  return &scalar_kernels();
}

const KernelSet* pick_from_env() {
  if (const char* env = std::getenv("TQT_KERNELS")) {
    if (const char* err = kernels_env_error(env)) {
      std::fprintf(stderr, "error: %s, got '%s'\n", err, env);
      std::exit(1);
    }
    if (std::strcmp(env, "scalar") == 0) return &scalar_kernels();
    if (std::strcmp(env, "avx2") == 0 && avx2_kernels()) return avx2_kernels();
  }
  return pick_auto();
}

}  // namespace

const KernelSet& scalar_kernels() {
  static const KernelSet ks{"scalar",
                            gemm_s8p16_epi_scalar,
                            gemm_s16p16_epi_scalar,
                            depthwise_s8_epi_scalar,
                            depthwise_s16_epi_scalar,
                            conv_s8blk_epi_scalar,
                            depthwise_s8blk_epi_scalar,
                            gemm_s8n4_epi_scalar,
                            gemm_s16n4_epi_scalar};
  return ks;
}

const KernelSet& active_kernels() {
  static const KernelSet* auto_pick = pick_from_env();
  return g_forced ? *g_forced : *auto_pick;
}

void set_active_kernels(const KernelSet* ks) { g_forced = ks; }

}  // namespace tqt::fpk
