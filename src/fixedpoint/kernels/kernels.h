// Narrow-width integer kernel registry for the typed fixed-point engine.
//
// The hot instructions of a compiled program — Conv2d (as im2col + GEMM),
// Dense (GEMM directly; activations are already the [M, K] A operand) and
// DepthwiseConv2d, fused or not — dispatch through one KernelSet. Every entry
// point retires its accumulators through an epilogue step list (bias,
// requant, activation); an unfused matmul runs the same kernel with an empty
// list and an int32 output. The contract is pure integer arithmetic with no
// saturation: the memory plan (plan.h) proves the int32 accumulators cannot
// overflow, so every implementation — scalar, AVX2, a future NEON — produces
// bit-identical results and variants can slot in behind the same function
// pointers.
//
// Kernels parallelize internally over output rows via runtime/parallel.h;
// integer accumulation is exact, so chunking never changes results.
//
// Selection: active_kernels() picks the best compiled-in set for this CPU
// (AVX2 when the build and the machine support it, scalar otherwise). The
// TQT_KERNELS environment variable (scalar|avx2|auto) and
// set_active_kernels() override for tests and benches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fixedpoint/rescale.h"
#include "tensor/ops.h"

namespace tqt::fpk {

// ---- Algo selection (registry v2) ----------------------------------------
// A KernelSet does not imply one fixed code path per op: each matmul
// instruction executes under an Algo chosen per (op, widths, shape, batch) —
// statically by the resolver's heuristics, or measured by the autotuner
// (autotune.h). Every algo computes bit-identical results (integer
// accumulation is exact and the plan proves int32 safety), so selection is
// purely a performance decision.

/// Execution strategies for a matmul instruction. Order matters: the
/// autotuner breaks timing ties toward the lower enum value. Values are
/// persisted in tuning sidecars, so retired entries keep their slot.
enum class Algo : uint8_t {
  kAuto = 0,     ///< not yet resolved — use the static heuristic
  kGemmPacked,   ///< im2col + pair-packed-B GEMM (gemm_s8p16_epi / s16)
  kGemmRaw,      ///< retired (raw-int8-B GEMM); a persisted pick gets the static pick
  kDwDirect,     ///< direct depthwise (depthwise_s8_epi / s16)
  kBlocked,      ///< NC8HW8 channel-blocked direct conv / depthwise
  kGeneric,      ///< executor's int64-accumulator fallback
  // Appended after kGeneric so persisted sidecar winners keep their values.
  kGemmS4,       ///< im2col + nibble-packed int4-B GEMM (gemm_s8n4_epi / s16)
};

/// Highest valid Algo value (sidecar winner range checks).
constexpr Algo kAlgoMax = Algo::kGemmS4;

/// Display name for --explain-kernels rows and trace span args. Only
/// resolved algos reach those; "gemm-raw" names the retired value so a
/// sidecar that persisted it still prints legibly.
const char* algo_name(Algo a);

// ---- Channel-blocked int8 layout (NC8HW8) ---------------------------------
// Activations regroup NHWC into blocks of kChanBlock channels:
//   xb[(((n * CB + cb) * H + y) * W + x) * 8 + l]  with  c = cb*8 + l,
// CB = blocked_c(C)/8. Lanes past C in the last block are zero on entry to a
// blocked chain (layout_pack writes them) and are neutralized inside it by
// zero weight lanes, so arbitrary chain compositions stay exact. The payoff:
// a blocked direct conv reads 8 consecutive input channels as one 8-byte
// load and retires 8 output channels per 256-bit accumulator — no im2col.

/// Channel block width (int32 lanes of one AVX2 vector).
constexpr int64_t kChanBlock = 8;

/// Channels rounded up to a whole block.
inline int64_t blocked_c(int64_t c) { return (c + kChanBlock - 1) & ~(kChanBlock - 1); }

/// Geometry bundle for the blocked direct conv kernel (NC8HW8 x and y).
struct ConvBlkArgs {
  int64_t batch = 0, h = 0, w = 0, cin = 0, cout = 0;
  int64_t oh = 0, ow = 0;
  Conv2dGeom geom;
};

/// Pack conv weights w[(t*cin + c) * cout + o] (t = tap index over kh*kw)
/// into the blocked-pair layout consumed by ConvS8BlkEpiFn:
///   wblk[(((ob*T + t) * PP + p) * 8 + j) * 2 + d] = w[(t*cin + 2p+d) * cout + ob*8+j]
/// with T = kh*kw, PP = blocked_c(cin)/2; out-of-range input or output
/// channels are zero. For a fixed (ob, t, p) the 16 int16 lanes form one
/// 32-byte vector: lane j holds the (even, odd) input-channel pair for
/// output channel ob*8 + j — a vpmaddwd against a broadcast activation pair.
std::vector<int16_t> pack_conv_wblk16(const int8_t* w, int64_t kh, int64_t kw,
                                      int64_t cin, int64_t cout);

/// Pack depthwise weights w[t*c + ch] into per-block tap vectors:
///   wd[(cb*T + t) * 8 + l] = w[t*c + cb*8+l]   (zero when cb*8+l >= c).
std::vector<int8_t> pack_dw_wblk8(const int8_t* w, int64_t kh, int64_t kw, int64_t c);

// ---- Fused epilogue -------------------------------------------------------
// The graph compiler (fuse.cpp) folds requant / bias-add / activation chains
// into the matmul instruction; the plan lowers them to this step list (shifts
// resolved from the static exponent replay). Fused kernels run the steps on
// each accumulator lane while it is still in registers, then store once at
// the output's narrow width — bit-identical to executing the absorbed
// instructions one arena pass at a time, because each step IS that
// instruction's per-lane function (shared fp::rescale / fp::saturate).

/// One lowered epilogue step. `op` matches FpInstr::EpiOp.
struct EpiStep {
  int op = 0;
  int shift = 0;          ///< requant: target_exp - incoming_exp
  int64_t lo = 0, hi = 0; ///< requant / clamp saturation bounds
  int64_t alpha_q = 0;    ///< leaky multiplier
  int lift = 0;           ///< leaky: -alpha_exponent
  /// Requant of a per-channel-scaled matmul: the shift varies per output
  /// channel — read Epilogue::chan_shift[channel] instead of `shift`.
  bool per_channel = false;
};

/// Everything a fused kernel needs to retire one accumulator tile: the step
/// list, the absorbed per-channel bias (int64 lanes, null when none), and the
/// destination buffer + element width. `channel` in epi_apply is the output
/// column (conv/dense GEMM) or the channel index (depthwise).
struct Epilogue {
  const EpiStep* steps = nullptr;
  int n_steps = 0;
  const int64_t* bias = nullptr;
  void* y = nullptr;
  int out_bytes = 4;  ///< 1 | 2 | 4 | 8
  /// True when the plan proved every intermediate step value fits int32
  /// (and every shift — each chan_shift entry included — stays under 31):
  /// SIMD kernels may then run the steps in 32-bit lanes — bit-identical to
  /// epi_apply because the rounding adjustment never widens past the value
  /// domain. When set and a bias step exists, `bias32` points at an int32
  /// copy of the bias with 8 lanes of zero slack for unmasked vector loads.
  bool vec32 = false;
  const int32_t* bias32 = nullptr;
  /// Per-output-channel requant shifts (plan-resolved, already net of the
  /// channel's exponent delta); non-null iff some step has `per_channel`.
  /// Under `vec32` the table carries 8 lanes of zero slack past the last
  /// channel, as `bias32` does, so a vector kernel may load the shifts of
  /// a padded 8-lane column group unmasked.
  const int32_t* chan_shift = nullptr;
};

/// Run the epilogue on one int64 accumulator lane. All arithmetic is int64 —
/// the same internal width the unfused elementwise instructions use — so the
/// result is exact regardless of the accumulator's storage width.
inline int64_t epi_apply(const Epilogue& e, int64_t v, int64_t channel) {
  for (int s = 0; s < e.n_steps; ++s) {
    const EpiStep& st = e.steps[s];
    switch (st.op) {
      case 0: {
        const int shift = st.per_channel ? e.chan_shift[channel] : st.shift;
        v = fp::saturate(fp::rescale(v, 0, shift), st.lo, st.hi);
        break;
      }
      case 1: v += e.bias[channel]; break;
      case 2: v = v > 0 ? v : 0; break;
      case 3: v = fp::saturate(v, st.lo, st.hi); break;
      case 4: v = std::max(v << st.lift, v * st.alpha_q); break;
    }
  }
  return v;
}

/// Store one epilogue result at the output's planned width. The plan's value
/// bounds make the narrowing cast lossless.
inline void epi_store(const Epilogue& e, int64_t idx, int64_t v) {
  switch (e.out_bytes) {
    case 1: static_cast<int8_t*>(e.y)[idx] = static_cast<int8_t>(v); break;
    case 2: static_cast<int16_t*>(e.y)[idx] = static_cast<int16_t>(v); break;
    case 4: static_cast<int32_t*>(e.y)[idx] = static_cast<int32_t>(v); break;
    default: static_cast<int64_t*>(e.y)[idx] = v; break;
  }
}

/// Column stride of the packed layout: N rounded up to a multiple of 8.
inline int64_t packed_n(int64_t N) { return (N + 7) & ~int64_t{7}; }

/// Pack a row-major int8 [K, N] B operand into the k-pair-interleaved int16
/// layout consumed by GemmS8P16EpiFn.
std::vector<int16_t> pack_b_pair16(const int8_t* B, int64_t K, int64_t N);

/// Pack a row-major [K, N] B operand whose values all fit int4 ([-8, 7])
/// into the nibble layout consumed by GemmS8N4EpiFn — two K rows per byte,
/// mirroring pack_b_pair16's (even, odd) row pairing:
///   Bn[kp * packed_n(N) + n] = (B[2kp][n] & 0xF) | (B[2kp+1][n] << 4)
/// (low nibble = even row, high nibble = odd row; the odd row of an odd K and
/// columns >= N pack as zero). Half the bytes of the int8 copy and a quarter
/// of the pair16 copy — the sub-byte storage the INT4 path exists for.
/// Precondition (checked): every value in [-8, 7].
std::vector<uint8_t> pack_b_nib4(const int8_t* B, int64_t K, int64_t N);

/// Unpack one packed byte: low nibble (even K row), sign-extended.
inline int32_t nib4_lo(uint8_t b) {
  return static_cast<int8_t>(static_cast<uint8_t>(b << 4)) >> 4;
}
/// Unpack one packed byte: high nibble (odd K row), sign-extended.
inline int32_t nib4_hi(uint8_t b) { return static_cast<int8_t>(b) >> 4; }

/// Geometry bundle for the depthwise kernel (NHWC, one filter per channel,
/// weights in (kh, kw, c) row-major order).
struct DepthwiseArgs {
  int64_t batch = 0, h = 0, w = 0, c = 0;
  int64_t oh = 0, ow = 0;
  Conv2dGeom geom;
};

// ---- Kernel entry points ---------------------------------------------------
// Every entry point retires its int32 accumulator tile through the epilogue
// without the tile reaching memory: each lane passes through epi_apply (or its
// vec32 twin) and stores at e.out_bytes into e.y ([M, N] row-major for the
// GEMMs). An unfused matmul is the same call with an empty step list and a
// 4-byte output. The plan guarantees the accumulator bound fits int32 before
// dispatching here.

/// Packed-B GEMM: y = epilogue(A[M,K] * B[K,N]). B is pre-packed by
/// pack_b_pair16(): consecutive K rows interleaved column-wise as int16 pairs
/// over a column stride of packed_n(N) — N rounded up to a whole 8-lane
/// vector, extra columns zero — i.e. Bp[(kp*packed_n(N) + n)*2 + d] =
/// B[2*kp + d][n] (zero-padded when K is odd). The pairing feeds two
/// multiply-accumulates per 32-bit lane (e.g. AVX2 vpmaddwd), and the padded
/// stride lets every column group run vector-width; padding columns are never
/// stored. Packing happens once per program because B is a weight constant.
/// A must be followed by at least 32 readable bytes of slack (ExecContext
/// pads its arena): implementations scan A rows for nonzero pairs in whole
/// 8-pair blocks.
using GemmS8P16EpiFn = void (*)(const int8_t* A, const int16_t* Bp, int64_t M,
                                int64_t N, int64_t K, const Epilogue& e);

/// Same contract with an int16 A operand (the plan keeps many conv inputs at
/// int16 — e.g. pre-requant residual sums). Exactness holds unchanged: a
/// vpmaddwd pair sum is bounded by 2 * 2^15 * 2^7 < 2^23, and the plan only
/// certifies int32 accumulation when the full |x| * sum|w| bound — which also
/// dominates every partial sum — fits it.
using GemmS16P16EpiFn = void (*)(const int16_t* A, const int16_t* Bp, int64_t M,
                                 int64_t N, int64_t K, const Epilogue& e);

/// Fused depthwise: per-pixel channel tile through the epilogue.
using DepthwiseS8EpiFn = void (*)(const int8_t* x, const int8_t* w,
                                  const DepthwiseArgs& a, const Epilogue& e);

/// int16-activation variant of the fused depthwise. The plan keeps many
/// activation registers at int16 — e.g. unsigned [0, 255] quantizer ranges
/// that a signed int8 cannot hold — so without this entry point every fused
/// depthwise fed by such a register would fall to the generic int64 walk.
using DepthwiseS16EpiFn = void (*)(const int16_t* x, const int8_t* w,
                                   const DepthwiseArgs& a, const Epilogue& e);

/// Blocked direct conv: x is NC8HW8 int8, wblk is pack_conv_wblk16 output,
/// y (inside e) is NC8HW8 at the planned narrow width. Output lanes past
/// a.cout store epilogue(0) under vec32 (the plan's bounds admit it — zero is
/// always inside the accumulator interval) or 0 on the scalar path; a
/// following layout_unpack drops them either way.
using ConvS8BlkEpiFn = void (*)(const int8_t* x, const int16_t* wblk,
                                const ConvBlkArgs& a, const Epilogue& e);

/// Blocked fused depthwise: x NC8HW8 int8, wblk from pack_dw_wblk8, a.c is
/// the *logical* channel count (storage is blocked_c(a.c)).
using DepthwiseS8BlkEpiFn = void (*)(const int8_t* x, const int8_t* wblk,
                                     const DepthwiseArgs& a, const Epilogue& e);

/// Fused nibble-packed-B GEMM (Algo::kGemmS4): Bn is pack_b_nib4 output; the
/// kernel sign-extends each nibble pair on the fly and feeds the same
/// (even, odd) multiply-accumulate as the pair16 path, so results are
/// bit-identical to every other algo. Same 32-byte A slack contract as
/// GemmS8P16EpiFn. The int32-safety bound is the pair16 one verbatim: an
/// unpacked nibble is just an int8 whose magnitude happens to be <= 8.
using GemmS8N4EpiFn = void (*)(const int8_t* A, const uint8_t* Bn, int64_t M,
                               int64_t N, int64_t K, const Epilogue& e);

/// int16-activation variant of the fused nibble-packed GEMM.
using GemmS16N4EpiFn = void (*)(const int16_t* A, const uint8_t* Bn, int64_t M,
                                int64_t N, int64_t K, const Epilogue& e);

/// One implementation of every kernel entry point. Both compiled-in sets fill
/// all entries, so any resolved Algo has a kernel in either set and a
/// persisted selection never degrades silently.
struct KernelSet {
  const char* name = "?";
  GemmS8P16EpiFn gemm_s8p16_epi = nullptr;
  GemmS16P16EpiFn gemm_s16p16_epi = nullptr;
  DepthwiseS8EpiFn depthwise_s8_epi = nullptr;
  DepthwiseS16EpiFn depthwise_s16_epi = nullptr;
  /// Channel-blocked candidates (Algo::kBlocked).
  ConvS8BlkEpiFn conv_s8blk_epi = nullptr;
  DepthwiseS8BlkEpiFn depthwise_s8blk_epi = nullptr;
  /// Sub-byte candidates (Algo::kGemmS4).
  GemmS8N4EpiFn gemm_s8n4_epi = nullptr;
  GemmS16N4EpiFn gemm_s16n4_epi = nullptr;
};

/// Portable cache-blocked scalar kernels (always available).
const KernelSet& scalar_kernels();

/// AVX2 kernels, or nullptr when not compiled in (no -mavx2/-march support)
/// or the CPU lacks AVX2.
const KernelSet* avx2_kernels();

/// The set the engine dispatches through. Honors TQT_KERNELS on first call.
const KernelSet& active_kernels();

/// Force a specific set (tests/bench); nullptr restores automatic selection.
void set_active_kernels(const KernelSet* ks);

/// Validate a TQT_KERNELS value: returns nullptr when `value` is recognized
/// (scalar | avx2 | auto), else a static message naming the accepted values.
/// Exposed so the unrecognized-value exit path is unit-testable without a
/// death test; pick_from_env prints this message and exits 1.
const char* kernels_env_error(const char* value);

}  // namespace tqt::fpk
