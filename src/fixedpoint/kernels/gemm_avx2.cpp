// AVX2 variants of the narrow-width kernels, compile-time gated: the file
// always builds, but the vector bodies exist only when the compiler targets
// AVX2 (e.g. -march=native on an AVX2 machine), and avx2_kernels() further
// checks the running CPU. Everything here is exact integer arithmetic —
// int8 operands widened to int32 lanes, multiplied and added in int32 — so
// results are bit-identical to the scalar set (asserted in tests).
//
// A NEON set would slot in the same way behind fpk::KernelSet; this repo's
// CI targets x86, so only the AVX2 instance is provided.
#include <algorithm>

#include "fixedpoint/kernels/kernels.h"
#include "runtime/parallel.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace tqt::fpk {

#if defined(__AVX2__)

namespace {

// ---- Vectorized epilogue ---------------------------------------------------
// epi_apply in 8 int32 lanes. Legal only when the plan set Epilogue::vec32
// (every intermediate step value provably fits int32 — including the
// v + half rounding headroom below); then it is bit-identical to the int64
// scalar walk: the requant rounding uses the add-bias form of
// shift_round_half_to_even — v + (half - 1) + LSB-of-floor-quotient, one
// arithmetic shift — which equals the quotient/remainder rule lane for lane,
// and every other step is pure add/shift/min/max.
//
// The per-step broadcast constants are materialized ONCE per kernel call
// (EpiVec) rather than per tile: a depthwise pixel retires a tile every ~9
// multiply-adds, so rebuilding half a dozen set1s per tile would rival the
// convolution work itself.
//
// A per-channel requant runs the same rounding rule lane by lane with the
// variable shifts (vpsllvd / vpsravd): lane l shifts left by max(-s, 0) and
// right by max(s, 0), s = chan_shift[j0 + l]; the rounding bias and the
// floor-LSB mask derive from the right shift in registers.
struct EpiVec {
  /// EpiVec-internal op for a per-channel requant (EpiStep ops are 0..4).
  static constexpr int kChanRequant = 5;
  struct Step {
    int op = 0;
    int shift = 0;
    __m256i halfm1, lo, hi, alpha;  ///< halfm1: requant rounding bias, half - 1
    __m128i cnt;
  };
  Step steps[8];  // kMaxEpiSteps
  int n = 0;
  const int32_t* bias32 = nullptr;
  const int32_t* chan_shift = nullptr;

  explicit EpiVec(const Epilogue& e)
      : n(e.n_steps), bias32(e.bias32), chan_shift(e.chan_shift) {
    for (int s = 0; s < n; ++s) {
      const EpiStep& st = e.steps[s];
      Step& d = steps[s];
      d.op = st.op == 0 && st.per_channel ? kChanRequant : st.op;
      d.shift = st.shift;
      switch (d.op) {
        case 0:
          if (st.shift > 0) {
            d.halfm1 =
                _mm256_set1_epi32(static_cast<int32_t>((uint32_t{1} << (st.shift - 1)) - 1));
            d.cnt = _mm_cvtsi32_si128(st.shift);
          } else if (st.shift < 0) {
            d.cnt = _mm_cvtsi32_si128(-st.shift);
          }
          [[fallthrough]];
        case 3:
        case kChanRequant:
          d.lo = _mm256_set1_epi32(static_cast<int32_t>(st.lo));
          d.hi = _mm256_set1_epi32(static_cast<int32_t>(st.hi));
          break;
        case 4:
          d.cnt = _mm_cvtsi32_si128(st.lift);
          d.alpha = _mm256_set1_epi32(static_cast<int32_t>(st.alpha_q));
          break;
        default:
          break;
      }
    }
  }

  /// `j0` is the channel of lane 0; bias and per-channel shift lanes load
  /// from the plan's padded int32 tables.
  __m256i apply(__m256i v, int64_t j0) const {
    for (int s = 0; s < n; ++s) {
      const Step& st = steps[s];
      switch (st.op) {
        case 0: {  // requant: round-half-to-even shift, then saturate
          if (st.shift > 0) {
            // v + (half - 1 + LSB of the floor quotient), one arithmetic
            // shift: rounds up exactly when remainder > half, or == half
            // with an odd quotient — shift_round_half_to_even in 5 ops.
            // The plan's vec32 proof reserved the v + half headroom.
            const __m256i qbit =
                _mm256_and_si256(_mm256_sra_epi32(v, st.cnt), _mm256_set1_epi32(1));
            v = _mm256_sra_epi32(
                _mm256_add_epi32(_mm256_add_epi32(v, st.halfm1), qbit), st.cnt);
          } else if (st.shift < 0) {
            v = _mm256_sll_epi32(v, st.cnt);
          }
          v = _mm256_min_epi32(_mm256_max_epi32(v, st.lo), st.hi);
          break;
        }
        case 1:
          v = _mm256_add_epi32(
              v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bias32 + j0)));
          break;
        case 2:
          v = _mm256_max_epi32(v, _mm256_setzero_si256());
          break;
        case 3:
          v = _mm256_min_epi32(_mm256_max_epi32(v, st.lo), st.hi);
          break;
        case 4: {  // leaky: max(v << lift, v * alpha_q)
          const __m256i a = _mm256_sll_epi32(v, st.cnt);
          const __m256i m = _mm256_mullo_epi32(v, st.alpha);
          v = _mm256_max_epi32(a, m);
          break;
        }
        case kChanRequant: {  // case 0 with a shift per lane
          const __m256i zero = _mm256_setzero_si256();
          const __m256i one = _mm256_set1_epi32(1);
          const __m256i s =
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(chan_shift + j0));
          const __m256i rs = _mm256_max_epi32(s, zero);
          v = _mm256_sllv_epi32(v, _mm256_max_epi32(_mm256_sub_epi32(zero, s), zero));
          // half - 1 = INT32_MAX >> (32 - rs): vpsrlvd zeroes a count of 32,
          // so an rs = 0 lane gets 0. The floor-LSB only counts where rs > 0.
          const __m256i halfm1 = _mm256_srlv_epi32(
              _mm256_set1_epi32(0x7FFFFFFF), _mm256_sub_epi32(_mm256_set1_epi32(32), rs));
          const __m256i qbit = _mm256_and_si256(_mm256_srav_epi32(v, rs),
                                                _mm256_min_epi32(rs, one));
          v = _mm256_srav_epi32(_mm256_add_epi32(_mm256_add_epi32(v, halfm1), qbit), rs);
          v = _mm256_min_epi32(_mm256_max_epi32(v, st.lo), st.hi);
          break;
        }
      }
    }
    return v;
  }
};

/// Store 8 post-epilogue lanes at flat output index `idx`, narrowed to the
/// plan's width. The saturating packs are exact: the epilogue's final clamp
/// interval fits the output width by construction.
inline void epi_store_vec(const Epilogue& e, int64_t idx, __m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  switch (e.out_bytes) {
    case 1: {
      const __m128i w16 = _mm_packs_epi32(lo, hi);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(static_cast<int8_t*>(e.y) + idx),
                       _mm_packs_epi16(w16, w16));
      break;
    }
    case 2:
      _mm_storeu_si128(reinterpret_cast<__m128i*>(static_cast<int16_t*>(e.y) + idx),
                       _mm_packs_epi32(lo, hi));
      break;
    case 4:
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(static_cast<int32_t*>(e.y) + idx),
                          v);
      break;
    default: {
      int64_t* y = static_cast<int64_t*>(e.y) + idx;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(y), _mm256_cvtepi32_epi64(lo));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(y + 4), _mm256_cvtepi32_epi64(hi));
      break;
    }
  }
}

// Retire: run the epilogue on an 8-lane accumulator while it is still in
// registers (vec32), or spill to the stack and walk the int64 scalar epilogue
// per lane otherwise. Lanes at column >= N are packed-layout padding —
// computed against zero B columns but never written (epi_store would index
// bias and the output out of range).
struct EpiStore {
  const Epilogue* e;
  const EpiVec* v;  ///< prepared vector steps; null when !e->vec32
  int64_t N;
  void store8(int64_t i, int64_t j0, __m256i acc) const {
    const int64_t nvalid = std::min<int64_t>(8, N - j0);
    if (v) {
      const __m256i r = v->apply(acc, j0);
      if (nvalid == 8) {
        epi_store_vec(*e, i * N + j0, r);
      } else {
        alignas(32) int32_t t[8];
        _mm256_store_si256(reinterpret_cast<__m256i*>(t), r);
        for (int64_t l = 0; l < nvalid; ++l) epi_store(*e, i * N + j0 + l, t[l]);
      }
      return;
    }
    alignas(32) int32_t t[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(t), acc);
    for (int64_t l = 0; l < nvalid; ++l) {
      epi_store(*e, i * N + j0 + l, epi_apply(*e, t[l], j0 + l));
    }
  }
};

// ---- Pair-walk GEMM ----------------------------------------------------------
// B comes k-pair-interleaved (pack_b_pair16 as int16, pack_b_nib4 as nibbles),
// so one vpmaddwd computes a0*B[2p][n] + a1*B[2p+1][n] for 8 columns at once —
// 16 exact int16*int16 multiply-adds per instruction, with the pair sum and
// the running accumulation both in int32 (the plan's bounds prove no partial
// sum can overflow). K runs in a single pass from zeroed registers.
//
// The packed layouts pad columns to packed_n(N) (zoo conv layers run 8-16
// channels wide, frequently not a multiple of 8), so every column group is a
// full 8-lane vector; the last partial group computes all 8 lanes against
// zero-padded B columns and retires through EpiStore's tail path.
//
// Register tile: R rows (1 or 2) x 16 columns, then x 8 for the last group.
// One row is load-bound — every vpmaddwd consumes a fresh B vector — so the
// multiply ports sit half idle; a second row re-uses each B vector, doubling
// the multiply-accumulate work per byte loaded. The 1-row tile only retires
// an odd final row.
//
// A rows are walked in 8-pair blocks widened to int16 (one 32-bit lane per
// (a0, a1) pair). One vector compare per row finds the block's nonzero pairs,
// OR'd across the tile's rows: a pair zero in one row contributes a zero
// product there, never a wrong one. Near-dense blocks (LeakyReLU
// activations, im2col interiors) take an unrolled path whose pair broadcasts
// come from vector shuffles, while sparse blocks (post-ReLU zeros) visit only
// their nonzero pairs via a count-trailing-zeros loop. Both read A through
// the 32-byte slack the caller guarantees; any beyond-K value of the final
// pair multiplies the zero-padded tail of packed B.
//
// Bit-exactness: each row's accumulator sees the same pair products under
// every tile shape and skip pattern, and int32 adds are associative and
// commutative under the plan's no-overflow bound.

/// One 8-pair A block as 8 int16 (a0, a1) pairs in 32-bit lanes.
inline __m256i pair_block16(const int8_t* a) {
  return _mm256_cvtepi8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a)));
}
inline __m256i pair_block16(const int16_t* a) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
}

/// Bit p set when pair p of the block has any nonzero half.
inline uint32_t pair_mask8(const __m256i a16) {
  return 0xFFu ^ static_cast<uint32_t>(_mm256_movemask_ps(
      _mm256_castsi256_ps(_mm256_cmpeq_epi32(a16, _mm256_setzero_si256()))));
}

/// The eight pair-broadcasts of a widened 8-pair block (va[j] holds pair j
/// in every lane), built with shuffles only: mirror the block's 128-bit
/// halves, then splat each lane with an immediate-index shuffle — ~2 uops per
/// broadcast, vs ~6 for rebuilding (a1 << 16) | a0 through scalar registers.
inline void pair_broadcast8(const __m256i a16, __m256i* va) {
  const __m256i lo = _mm256_permute2x128_si256(a16, a16, 0x00);
  const __m256i hi = _mm256_permute2x128_si256(a16, a16, 0x11);
  va[0] = _mm256_shuffle_epi32(lo, 0x00);
  va[1] = _mm256_shuffle_epi32(lo, 0x55);
  va[2] = _mm256_shuffle_epi32(lo, 0xAA);
  va[3] = _mm256_shuffle_epi32(lo, 0xFF);
  va[4] = _mm256_shuffle_epi32(hi, 0x00);
  va[5] = _mm256_shuffle_epi32(hi, 0x55);
  va[6] = _mm256_shuffle_epi32(hi, 0xAA);
  va[7] = _mm256_shuffle_epi32(hi, 0xFF);
}

// Below this many nonzero pairs (of 8) the tzcnt-driven sparse walk beats
// processing the whole block; post-ReLU activation rows sit on both sides.
constexpr int kDensePairThreshold = 3;

/// Sign-extend 8 packed nibble bytes into the (even, odd) int16 pair vector
/// a pair16 load of the same weights would produce: widen to int16, take
/// the high nibbles with one arithmetic >> 4 (the low nibble is a
/// non-negative sub-value, so the shift is an exact floor division) and the
/// low nibbles with << 12 then >> 12, then interleave low/high. Six unpack
/// ops buy a 4x smaller B working set than the int16 pair copy.
inline __m256i nib_load8(const uint8_t* b) {
  const __m128i s =
      _mm_cvtepi8_epi16(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(b)));
  const __m128i hi = _mm_srai_epi16(s, 4);
  const __m128i lo = _mm_srai_epi16(_mm_slli_epi16(s, 12), 12);
  return _mm256_set_m128i(_mm_unpackhi_epi16(lo, hi), _mm_unpacklo_epi16(lo, hi));
}

// B loaders: the (even, odd) weight pairs of columns j..j+7 in K-row pair p.
struct Pair16Load {
  const int16_t* B;
  int64_t np;  ///< packed_n(N)
  __m256i load(int64_t p, int64_t j) const {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(B + (p * np + j) * 2));
  }
};

struct Nib4Load {
  const uint8_t* B;
  int64_t np;  ///< packed_n(N)
  __m256i load(int64_t p, int64_t j) const { return nib_load8(B + p * np + j); }
};

/// Rows i..i+R-1 (A row pointer `a`, row stride K) x columns j0..j0+8C-1:
/// accumulate over all of K, then retire through `st`.
template <int R, int C, typename AT, class BLoad>
inline void pair_tile(const AT* a, int64_t K, const BLoad& bl, int64_t pairs, int64_t i,
                      int64_t j0, const EpiStore& st) {
  __m256i acc[R][C];
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) acc[r][c] = _mm256_setzero_si256();
  }
  for (int64_t pb = 0; pb < pairs; pb += 8) {
    __m256i blk[R];
    uint32_t pm = 0;
    for (int r = 0; r < R; ++r) {
      blk[r] = pair_block16(a + r * K + 2 * pb);
      pm |= pair_mask8(blk[r]);
    }
    const int64_t rem = pairs - pb;
    if (rem < 8) pm &= (uint32_t{1} << rem) - 1;
    if (rem >= 8 && __builtin_popcount(pm) >= kDensePairThreshold) {
      __m256i va[R][8];
      for (int r = 0; r < R; ++r) pair_broadcast8(blk[r], va[r]);
      for (int j = 0; j < 8; ++j) {
        __m256i b[C];
        for (int c = 0; c < C; ++c) b[c] = bl.load(pb + j, j0 + 8 * c);
        for (int r = 0; r < R; ++r) {
          for (int c = 0; c < C; ++c) {
            acc[r][c] = _mm256_add_epi32(acc[r][c], _mm256_madd_epi16(va[r][j], b[c]));
          }
        }
      }
      continue;
    }
    while (pm) {
      const int64_t p = pb + __builtin_ctz(pm);
      pm &= pm - 1;
      __m256i b[C];
      for (int c = 0; c < C; ++c) b[c] = bl.load(p, j0 + 8 * c);
      for (int r = 0; r < R; ++r) {
        const int32_t a0 = a[r * K + 2 * p];
        const int32_t a1 = a[r * K + 2 * p + 1];  // odd-K slack multiplies zero B
        const __m256i v = _mm256_set1_epi32((a1 << 16) | (a0 & 0xFFFF));
        for (int c = 0; c < C; ++c) {
          acc[r][c] = _mm256_add_epi32(acc[r][c], _mm256_madd_epi16(v, b[c]));
        }
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int c = 0; c < C; ++c) st.store8(i + r, j0 + 8 * c, acc[r][c]);
  }
}

/// Rows [m0, m1) in R-row tiles ((m1 - m0) % R == 0), parallel over tiles.
template <int R, typename AT, class BLoad>
void gemm_pair_body(const AT* A, const BLoad& bl, int64_t m0, int64_t m1, int64_t N,
                    int64_t K, const EpiStore& st) {
  const int64_t pairs = (K + 1) / 2;
  const int64_t np = packed_n(N);
  const int64_t n16 = N - (N % 16);
  const int64_t nt = (m1 - m0) / R;
  parallel_for(0, nt, grain_for(nt, 2 * R * K * N, kGemmTargetOps),
               [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t i = m0 + R * t;
      const AT* a = A + i * K;
      for (int64_t j0 = 0; j0 < n16; j0 += 16) pair_tile<R, 2>(a, K, bl, pairs, i, j0, st);
      for (int64_t j0 = n16; j0 < np; j0 += 8) pair_tile<R, 1>(a, K, bl, pairs, i, j0, st);
    }
  });
}

/// The four GEMM entry points: prepare the vector epilogue once per call when
/// the plan proved vec32, run 2-row tiles over the even rows and a 1-row
/// tile over an odd final row.
template <typename AT, class BLoad>
void gemm_pair_epi(const AT* A, const BLoad& bl, int64_t M, int64_t N, int64_t K,
                   const Epilogue& e) {
  const auto run = [&](const EpiStore& st) {
    const int64_t m2 = M - (M % 2);
    if (m2 > 0) gemm_pair_body<2>(A, bl, 0, m2, N, K, st);
    if (m2 < M) gemm_pair_body<1>(A, bl, m2, M, N, K, st);
  };
  if (e.vec32) {
    const EpiVec ev(e);
    run(EpiStore{&e, &ev, N});
  } else {
    run(EpiStore{&e, nullptr, N});
  }
}

void gemm_s8p16_epi_avx2(const int8_t* A, const int16_t* Bp, int64_t M, int64_t N,
                         int64_t K, const Epilogue& e) {
  gemm_pair_epi(A, Pair16Load{Bp, packed_n(N)}, M, N, K, e);
}

void gemm_s16p16_epi_avx2(const int16_t* A, const int16_t* Bp, int64_t M, int64_t N,
                          int64_t K, const Epilogue& e) {
  gemm_pair_epi(A, Pair16Load{Bp, packed_n(N)}, M, N, K, e);
}

void gemm_s8n4_epi_avx2(const int8_t* A, const uint8_t* Bn, int64_t M, int64_t N,
                        int64_t K, const Epilogue& e) {
  gemm_pair_epi(A, Nib4Load{Bn, packed_n(N)}, M, N, K, e);
}

void gemm_s16n4_epi_avx2(const int16_t* A, const uint8_t* Bn, int64_t M, int64_t N,
                         int64_t K, const Epilogue& e) {
  gemm_pair_epi(A, Nib4Load{Bn, packed_n(N)}, M, N, K, e);
}

// Fused depthwise: channels in chunks of up to 32 (four int32 vectors), taps
// accumulated in registers, retired through the prepared vector epilogue
// without the int32 tile ever reaching memory. Four independent accumulators
// amortize the per-tap bounds checks and hide the vpmulld latency chain. The
// 8-byte channel loads stay inside the row (whole-vector blocks only); the
// sub-vector channel tail and the rare non-vec32 epilogue fall back to the
// scalar walk.
/// Sign-extend 8 activation lanes to int32 (int8 and int16 sources).
inline __m256i dw_load8(const int8_t* p) {
  return _mm256_cvtepi8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}
inline __m256i dw_load8(const int16_t* p) {
  return _mm256_cvtepi16_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}
inline void dw_scalar_fallback(const int8_t* x, const int8_t* w, const DepthwiseArgs& a,
                               const Epilogue& e) {
  scalar_kernels().depthwise_s8_epi(x, w, a, e);
}
inline void dw_scalar_fallback(const int16_t* x, const int8_t* w, const DepthwiseArgs& a,
                               const Epilogue& e) {
  scalar_kernels().depthwise_s16_epi(x, w, a, e);
}

template <typename XT>
void depthwise_epi_avx2(const XT* x, const int8_t* w, const DepthwiseArgs& a,
                        const Epilogue& e) {
  if (!e.vec32) {
    dw_scalar_fallback(x, w, a, e);
    return;
  }
  const EpiVec ev(e);
  const Conv2dGeom& g = a.geom;
  const int64_t rows = a.batch * a.oh;
  const int64_t c8 = a.c - (a.c % 8);
  parallel_for(0, rows, grain_for(rows, a.ow * g.kh * g.kw * a.c * 2, kGemmTargetOps),
               [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int64_t b = r / a.oh;
      const int64_t oy = r % a.oh;
      for (int64_t ox = 0; ox < a.ow; ++ox) {
        const int64_t out_base = (r * a.ow + ox) * a.c;
        const int64_t iy0 = oy * g.stride_h - g.pad_top;
        const int64_t ix0 = ox * g.stride_w - g.pad_left;
        for (int64_t c0 = 0; c0 < c8; c0 += 32) {
          const int64_t nv = std::min<int64_t>(4, (c8 - c0) / 8);
          __m256i acc[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                            _mm256_setzero_si256(), _mm256_setzero_si256()};
          for (int64_t ky = 0; ky < g.kh; ++ky) {
            const int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= a.h) continue;
            for (int64_t kx = 0; kx < g.kw; ++kx) {
              const int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= a.w) continue;
              const XT* xi = x + ((b * a.h + iy) * a.w + ix) * a.c + c0;
              const int8_t* wk = w + (ky * g.kw + kx) * a.c + c0;
              for (int64_t v = 0; v < nv; ++v) {
                const __m256i xv = dw_load8(xi + 8 * v);
                const __m256i wv = dw_load8(wk + 8 * v);
                acc[v] = _mm256_add_epi32(acc[v], _mm256_mullo_epi32(xv, wv));
              }
            }
          }
          for (int64_t v = 0; v < nv; ++v) {
            epi_store_vec(e, out_base + c0 + 8 * v, ev.apply(acc[v], c0 + 8 * v));
          }
        }
        for (int64_t ch = c8; ch < a.c; ++ch) {
          int32_t acc = 0;
          for (int64_t ky = 0; ky < g.kh; ++ky) {
            const int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= a.h) continue;
            for (int64_t kx = 0; kx < g.kw; ++kx) {
              const int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= a.w) continue;
              acc += static_cast<int32_t>(
                         x[((b * a.h + iy) * a.w + ix) * a.c + ch]) *
                     w[(ky * g.kw + kx) * a.c + ch];
            }
          }
          epi_store(e, out_base + ch, epi_apply(e, acc, ch));
        }
      }
    }
  });
}

void depthwise_s8_epi_avx2(const int8_t* x, const int8_t* w, const DepthwiseArgs& a,
                           const Epilogue& e) {
  depthwise_epi_avx2(x, w, a, e);
}

void depthwise_s16_epi_avx2(const int16_t* x, const int8_t* w, const DepthwiseArgs& a,
                            const Epilogue& e) {
  depthwise_epi_avx2(x, w, a, e);
}

// ---- Channel-blocked (NC8HW8) direct kernels -------------------------------
// The blocked conv reads one pixel's 8-channel group as a single 8-byte load
// and retires 8 output channels per 256-bit accumulator, no im2col. Tiling is
// 4 output pixels wide: each 32-byte weight vector (one input-channel pair x
// 8 output channels, pack_conv_wblk16 layout) is loaded once and vpmaddwd'd
// against all 4 pixels' broadcast activation pairs — 4 multiply-adds per
// weight load, vs. 2 for the packed GEMM. Padding pixels contribute zero
// activation vectors (never a wrong product); output lanes past a.cout store
// epilogue(0), which the following layout_unpack (or the next blocked
// kernel's zero weight lanes) discards. Bit-exact vs. the scalar blocked
// kernel: identical pair products, int32 adds reassociated under the plan's
// no-overflow bound.

/// One pixel's 8 channels widened to 8 int16 lanes (4 pairs), broadcast to
/// both 128-bit halves so _mm256_shuffle_epi32 can splat any pair to all 8
/// int32 lanes.
inline __m256i blk_pixel16(const int8_t* p) {
  return _mm256_broadcastsi128_si256(
      _mm256_castsi256_si128(_mm256_cvtepi8_epi16(_mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(p)))));
}

void conv_s8blk_epi_avx2(const int8_t* x, const int16_t* wblk, const ConvBlkArgs& a,
                         const Epilogue& e) {
  if (!e.vec32) {
    scalar_kernels().conv_s8blk_epi(x, wblk, a, e);
    return;
  }
  const EpiVec ev(e);
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
      // 8-output-pixel tiles with the tap's 4 weight-pair vectors held in
      // registers: each weight load feeds up to 8 vpmaddwd, and a zero input
      // pixel (padding or sparse post-ReLU data) skips its 4 madds outright.
      for (int64_t ox0 = 0; ox0 < a.ow; ox0 += 8) {
        const int64_t nq = std::min<int64_t>(8, a.ow - ox0);
        const int64_t iy0 = oy * g.stride_h - g.pad_top;
        for (int64_t ob = 0; ob < OB; ++ob) {
          __m256i acc[8];
          for (int64_t q = 0; q < 8; ++q) acc[q] = _mm256_setzero_si256();
          for (int64_t ky = 0; ky < g.kh; ++ky) {
            const int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= a.h) continue;
            for (int64_t kx = 0; kx < g.kw; ++kx) {
              const int64_t t = ky * g.kw + kx;
              const int16_t* wt = wblk + ((ob * T + t) * PP) * 2 * kChanBlock;
              for (int64_t cb = 0; cb < CBi; ++cb) {
                // Channel pairs beyond cin in the last input block carry
                // all-zero weights (the packer zero-fills padded lanes), so
                // their madds contribute exactly 0 — skip them. Stems with
                // cin=3 drop from 4 pair-vectors to 2.
                const int64_t np =
                    (cb == CBi - 1) ? (a.cin - cb * kChanBlock + 1) / 2 : 4;
                const int16_t* wp = wt + (cb * 4) * 2 * kChanBlock;
                const __m256i wv0 = _mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(wp + 0 * 2 * kChanBlock));
                const __m256i wv1 =
                    np > 1 ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                                 wp + 1 * 2 * kChanBlock))
                           : _mm256_setzero_si256();
                const __m256i wv2 =
                    np > 2 ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                                 wp + 2 * 2 * kChanBlock))
                           : _mm256_setzero_si256();
                const __m256i wv3 =
                    np > 3 ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                                 wp + 3 * 2 * kChanBlock))
                           : _mm256_setzero_si256();
                const int8_t* xrow =
                    x + (((b * CBi + cb) * a.h + iy) * a.w) * kChanBlock;
                for (int64_t q = 0; q < nq; ++q) {
                  const int64_t ix = (ox0 + q) * g.stride_w - g.pad_left + kx;
                  if (ix < 0 || ix >= a.w) continue;
                  const __m256i xa = blk_pixel16(xrow + ix * kChanBlock);
                  if (_mm256_testz_si256(xa, xa)) continue;
                  __m256i s = _mm256_madd_epi16(_mm256_shuffle_epi32(xa, 0x00), wv0);
                  if (np > 1)
                    s = _mm256_add_epi32(
                        s, _mm256_madd_epi16(_mm256_shuffle_epi32(xa, 0x55), wv1));
                  if (np > 2)
                    s = _mm256_add_epi32(
                        s, _mm256_madd_epi16(_mm256_shuffle_epi32(xa, 0xAA), wv2));
                  if (np > 3)
                    s = _mm256_add_epi32(
                        s, _mm256_madd_epi16(_mm256_shuffle_epi32(xa, 0xFF), wv3));
                  acc[q] = _mm256_add_epi32(acc[q], s);
                }
              }
            }
          }
          for (int64_t q = 0; q < nq; ++q) {
            const int64_t out_base =
                (((b * OB + ob) * a.oh + oy) * a.ow + (ox0 + q)) * kChanBlock;
            epi_store_vec(e, out_base, ev.apply(acc[q], ob * kChanBlock));
          }
        }
      }
    }
  });
}

void depthwise_s8blk_epi_avx2(const int8_t* x, const int8_t* wblk,
                              const DepthwiseArgs& a, const Epilogue& e) {
  if (!e.vec32) {
    scalar_kernels().depthwise_s8blk_epi(x, wblk, a, e);
    return;
  }
  const EpiVec ev(e);
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
          __m256i acc = _mm256_setzero_si256();
          for (int64_t ky = 0; ky < g.kh; ++ky) {
            const int64_t iy = iy0 + ky;
            if (iy < 0 || iy >= a.h) continue;
            for (int64_t kx = 0; kx < g.kw; ++kx) {
              const int64_t ix = ix0 + kx;
              if (ix < 0 || ix >= a.w) continue;
              const __m256i xv = dw_load8(
                  x + (((b * CB + cb) * a.h + iy) * a.w + ix) * kChanBlock);
              const __m256i wv =
                  dw_load8(wblk + (cb * T + ky * g.kw + kx) * kChanBlock);
              acc = _mm256_add_epi32(acc, _mm256_mullo_epi32(xv, wv));
            }
          }
          const int64_t out_base = (((b * CB + cb) * a.oh + oy) * a.ow + ox) * kChanBlock;
          epi_store_vec(e, out_base, ev.apply(acc, cb * kChanBlock));
        }
      }
    }
  });
}

}  // namespace

const KernelSet* avx2_kernels() {
  if (!__builtin_cpu_supports("avx2")) return nullptr;
  static const KernelSet ks{"avx2",
                            gemm_s8p16_epi_avx2,
                            gemm_s16p16_epi_avx2,
                            depthwise_s8_epi_avx2,
                            depthwise_s16_epi_avx2,
                            conv_s8blk_epi_avx2,
                            depthwise_s8blk_epi_avx2,
                            gemm_s8n4_epi_avx2,
                            gemm_s16n4_epi_avx2};
  return &ks;
}

#else  // !__AVX2__

const KernelSet* avx2_kernels() { return nullptr; }

#endif

}  // namespace tqt::fpk
