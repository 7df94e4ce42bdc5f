#include "fixedpoint/plan.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "fixedpoint/autotune.h"
#include "fixedpoint/fuse.h"
#include "fixedpoint/kernels/kernels.h"
#include "fixedpoint/rescale.h"
#include "observe/observe.h"

namespace tqt {

const char* to_string(IntWidth w) {
  switch (w) {
    case IntWidth::kI8: return "i8";
    case IntWidth::kI16: return "i16";
    case IntWidth::kI32: return "i32";
    case IntWidth::kI64: return "i64";
  }
  return "?";
}

namespace {

constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();

// Saturating int64 arithmetic for the bound propagation. Bounds that blow
// past int64 simply pin the register at the (always safe) kI64 width.
int64_t sat_add(int64_t a, int64_t b) {
  __int128 r = static_cast<__int128>(a) + b;
  if (r > kI64Max) return kI64Max;
  if (r < kI64Min) return kI64Min;
  return static_cast<int64_t>(r);
}

int64_t sat_mul(int64_t a, int64_t b) {
  __int128 r = static_cast<__int128>(a) * b;
  if (r > kI64Max) return kI64Max;
  if (r < kI64Min) return kI64Min;
  return static_cast<int64_t>(r);
}

int64_t sat_shl(int64_t a, int shift) {
  if (a == 0) return 0;
  __int128 r = static_cast<__int128>(a) << shift;
  if (r > kI64Max) return kI64Max;
  if (r < kI64Min) return kI64Min;
  return static_cast<int64_t>(r);
}

IntWidth width_for_bounds(int64_t lo, int64_t hi) {
  if (lo >= std::numeric_limits<int8_t>::min() && hi <= std::numeric_limits<int8_t>::max()) {
    return IntWidth::kI8;
  }
  if (lo >= std::numeric_limits<int16_t>::min() && hi <= std::numeric_limits<int16_t>::max()) {
    return IntWidth::kI16;
  }
  if (lo >= std::numeric_limits<int32_t>::min() && hi <= std::numeric_limits<int32_t>::max()) {
    return IntWidth::kI32;
  }
  return IntWidth::kI64;
}

IntWidth widen_to(IntWidth w, IntWidth at_least) {
  return static_cast<uint8_t>(w) < static_cast<uint8_t>(at_least) ? at_least : w;
}

/// Largest per-output-channel sum of |w| for a matmul-family weight tensor:
/// the tight accumulator bound is max_o(sum_k |w[k][o]|) * max|x|. The
/// constant layouts are (kh, kw, cin, cout) for conv, (k, m) for dense —
/// both row-major with the output channel innermost — and (kh, kw, c) for
/// depthwise where each channel accumulates only its own taps.
int64_t max_abs_col_sum(const std::vector<int64_t>& w, int64_t cols) {
  if (cols <= 0 || w.empty()) return 0;
  std::vector<int64_t> sums(static_cast<size_t>(cols), 0);
  for (size_t i = 0; i < w.size(); ++i) {
    int64_t& s = sums[i % static_cast<size_t>(cols)];
    s = sat_add(s, w[i] < 0 ? -w[i] : w[i]);
  }
  return *std::max_element(sums.begin(), sums.end());
}

struct Interval {
  int64_t lo = 0, hi = 0;
  int64_t abs_max() const { return std::max(lo < 0 ? sat_mul(lo, -1) : lo, hi); }
};

/// Weight columns of a matmul-family constant (the per-output-channel count
/// max_abs_col_sum folds over): (k, m) dense, (kh, kw, cin, cout) conv,
/// (kh, kw, c) depthwise.
int64_t weight_cols(const FpInstr& in) {
  return base_kind_of(in.kind) == FpInstr::Kind::kDense ? in.const_shape[1]
                                                        : in.const_shape.back();
}

/// Replay a fused instruction's epilogue over the accumulator interval,
/// exactly mirroring what each absorbed instruction's interval rule would
/// have produced. Also yields the final exponent.
Interval replay_epi_interval(const FpInstr& in, Interval acc, int acc_exp, int* out_exp) {
  int64_t bmin = 0, bmax = 0;
  if (!in.bias_data.empty()) {
    const auto [mn, mx] = std::minmax_element(in.bias_data.begin(), in.bias_data.end());
    bmin = *mn;
    bmax = *mx;
  }
  Interval cur = acc;
  int e = acc_exp;
  for (int s = 0; s < epi_step_count(in); ++s) {
    const FpEpiStep stp = epi_step(in, s);
    switch (static_cast<FpInstr::EpiOp>(stp.op)) {
      case FpInstr::EpiOp::kRequant:
        cur = {stp.b, stp.c};
        e = static_cast<int>(stp.a);
        break;
      case FpInstr::EpiOp::kBias:
        cur = {sat_add(cur.lo, bmin), sat_add(cur.hi, bmax)};
        break;
      case FpInstr::EpiOp::kRelu:
        cur = {std::max<int64_t>(cur.lo, 0), std::max<int64_t>(cur.hi, 0)};
        break;
      case FpInstr::EpiOp::kClamp:
        cur = {fp::saturate(cur.lo, stp.b, stp.c), fp::saturate(cur.hi, stp.b, stp.c)};
        break;
      case FpInstr::EpiOp::kLeaky: {
        const int lift = static_cast<int>(-stp.a);
        auto f = [&](int64_t x) {
          return std::max(sat_shl(x, lift), sat_mul(x, stp.b));
        };
        cur = {f(cur.lo), f(cur.hi)};
        e += static_cast<int>(stp.a);
        break;
      }
    }
  }
  if (out_exp) *out_exp = e;
  return cur;
}

}  // namespace

ExecPlan build_exec_plan(const std::vector<FpInstr>& instrs, int n_registers,
                         int input_register, int output_register,
                         const std::vector<fpk::Algo>* algos) {
  ExecPlan plan;
  plan.regs.assign(static_cast<size_t>(n_registers), ExecPlan::Reg{});
  plan.consts.assign(instrs.size(), ExecPlan::Const{});
  if (algos) plan.algos = *algos;
  const auto algo_of = [&](size_t idx) {
    return algos && idx < algos->size() ? (*algos)[idx] : fpk::Algo::kAuto;
  };

  // ---- Per-channel structural validation -------------------------------
  // chan_data marks a matmul whose output lanes sit at per-channel
  // exponents (base + delta[c]). The correction must retire through a
  // requant before anything else interprets the value: fused kinds need a
  // leading kRequant epilogue step, standalone matmuls may only feed
  // kRequant instructions carrying the same channel table. Runs here (not
  // at compile) so deserialized programs get the same guarantee.
  for (size_t idx = 0; idx < instrs.size(); ++idx) {
    const FpInstr& in = instrs[idx];
    if (in.chan_data.empty() || !is_matmul_kind(in.kind)) continue;
    if (is_fused_kind(in.kind)) {
      if (epi_step_count(in) == 0 ||
          static_cast<FpInstr::EpiOp>(epi_step(in, 0).op) != FpInstr::EpiOp::kRequant) {
        throw std::runtime_error(
            "fp plan: per-channel fused matmul must open its epilogue with a requant");
      }
      continue;
    }
    for (size_t j = idx + 1; j < instrs.size(); ++j) {
      const FpInstr& rd = instrs[j];
      for (int r : rd.inputs) {
        if (r != in.output) continue;
        if (rd.kind != FpInstr::Kind::kRequant ||
            rd.chan_data.size() != in.chan_data.size()) {
          throw std::runtime_error(
              "fp plan: per-channel matmul output may only feed a per-channel requant");
        }
      }
      if (rd.output == in.output) break;  // register redefined
    }
  }

  // ---- Pass 1: value bounds -> storage widths --------------------------
  // Exponents are static: replay the same propagation the compiler and the
  // reference interpreter perform, so the typed executor never has to track
  // scales at run time.
  std::vector<Interval> iv(static_cast<size_t>(n_registers));
  std::vector<int> rex(static_cast<size_t>(n_registers), 0);
  auto in_iv = [&](const FpInstr& in, int i) -> Interval& {
    return iv[static_cast<size_t>(in.inputs[static_cast<size_t>(i)])];
  };
  auto in_exp = [&](const FpInstr& in) {
    return in.inputs.empty() ? 0 : rex[static_cast<size_t>(in.inputs[0])];
  };
  for (size_t idx = 0; idx < instrs.size(); ++idx) {
    const FpInstr& in = instrs[idx];
    Interval out;
    IntWidth min_width = IntWidth::kI8;
    // Matmul-family accumulator bound max_o(sum_k |w[k][o]|) * max|x|; stays
    // 0 for other kinds. It bounds the PRE-epilogue value and certifies int32
    // in-register accumulation (acc_ok32 below).
    int64_t acc_bound = 0;
    if (is_matmul_kind(in.kind)) {
      acc_bound =
          sat_mul(max_abs_col_sum(in.const_data, weight_cols(in)), in_iv(in, 0).abs_max());
    }
    switch (in.kind) {
      case FpInstr::Kind::kQuantizeInput:
      case FpInstr::Kind::kRequant:
        out = {in.clamp_lo, in.clamp_hi};
        break;
      case FpInstr::Kind::kConv2d:
      case FpInstr::Kind::kDense:
      case FpInstr::Kind::kDepthwise: {
        out = {sat_mul(acc_bound, -1), acc_bound};
        // Accumulate natively in the GEMM kernels' int32 (or int64).
        min_width = IntWidth::kI32;
        break;
      }
      case FpInstr::Kind::kConv2dFused:
      case FpInstr::Kind::kDepthwiseFused:
      case FpInstr::Kind::kDenseFused:
        // The register holds the POST-epilogue value (the accumulator never
        // reaches memory), so no int32 floor applies — fused conv outputs
        // typically plan at int8.
        out = replay_epi_interval(in, {sat_mul(acc_bound, -1), acc_bound},
                                  /*acc_exp=*/0, nullptr);
        break;
      case FpInstr::Kind::kBiasAdd: {
        int64_t bmin = 0, bmax = 0;
        if (!in.const_data.empty()) {
          const auto [mn, mx] = std::minmax_element(in.const_data.begin(), in.const_data.end());
          bmin = *mn;
          bmax = *mx;
        }
        out = {sat_add(in_iv(in, 0).lo, bmin), sat_add(in_iv(in, 0).hi, bmax)};
        break;
      }
      case FpInstr::Kind::kRelu:
        out = {std::max<int64_t>(in_iv(in, 0).lo, 0), std::max<int64_t>(in_iv(in, 0).hi, 0)};
        break;
      case FpInstr::Kind::kRelu6:
        out = {fp::saturate(in_iv(in, 0).lo, in.clamp_lo, in.clamp_hi),
               fp::saturate(in_iv(in, 0).hi, in.clamp_lo, in.clamp_hi)};
        break;
      case FpInstr::Kind::kLeakyRelu: {
        const int lift = -in.alpha_exponent;
        // f(x) = max(x << lift, x * alpha_q) is monotone in x (both branches
        // increase with x, alpha_q > 0), so the output interval is
        // [f(lo), f(hi)].
        auto f = [&](int64_t x) {
          return std::max(sat_shl(x, lift), sat_mul(x, in.alpha_q));
        };
        out = {f(in_iv(in, 0).lo), f(in_iv(in, 0).hi)};
        break;
      }
      case FpInstr::Kind::kMaxPool:
        // An all-padding window yields 0, so 0 joins the interval.
        out = {std::min<int64_t>(in_iv(in, 0).lo, 0), std::max<int64_t>(in_iv(in, 0).hi, 0)};
        break;
      case FpInstr::Kind::kEltwiseAdd:
        out = {sat_add(in_iv(in, 0).lo, in_iv(in, 1).lo),
               sat_add(in_iv(in, 0).hi, in_iv(in, 1).hi)};
        break;
      case FpInstr::Kind::kConcat: {
        out = in_iv(in, 0);
        for (size_t i = 1; i < in.inputs.size(); ++i) {
          out.lo = std::min(out.lo, in_iv(in, static_cast<int>(i)).lo);
          out.hi = std::max(out.hi, in_iv(in, static_cast<int>(i)).hi);
        }
        break;
      }
      case FpInstr::Kind::kFlatten:
        out = in_iv(in, 0);
        break;
      case FpInstr::Kind::kLayoutPack:
        // The padded channel lanes are written as 0, so 0 joins the interval
        // (same rule as an all-padding maxpool window).
        out = {std::min<int64_t>(in_iv(in, 0).lo, 0), std::max<int64_t>(in_iv(in, 0).hi, 0)};
        break;
      case FpInstr::Kind::kLayoutUnpack:
        // Padded lanes are dropped; the logical lanes pass through.
        out = in_iv(in, 0);
        break;
    }
    // A blocked fused matmul's padded output lanes hold epilogue(0) (vector
    // retire) or 0 (scalar retire); both lie inside the planned interval
    // joined with 0, and downstream blocked kernels multiply them by zero
    // weight lanes, so joining 0 keeps the width proof airtight.
    if (is_fused_kind(in.kind) && algo_of(idx) == fpk::Algo::kBlocked) {
      out.lo = std::min<int64_t>(out.lo, 0);
      out.hi = std::max<int64_t>(out.hi, 0);
    }
    int out_exp = in_exp(in);
    switch (in.kind) {
      case FpInstr::Kind::kQuantizeInput:
      case FpInstr::Kind::kRequant:
        out_exp = in.out_exponent;
        break;
      case FpInstr::Kind::kConv2d:
      case FpInstr::Kind::kDense:
      case FpInstr::Kind::kDepthwise:
        out_exp = in_exp(in) + in.const_exponent;
        break;
      case FpInstr::Kind::kConv2dFused:
      case FpInstr::Kind::kDepthwiseFused:
      case FpInstr::Kind::kDenseFused:
        replay_epi_interval(in, {}, in_exp(in) + in.const_exponent, &out_exp);
        break;
      case FpInstr::Kind::kLeakyRelu:
        out_exp = in_exp(in) + in.alpha_exponent;
        break;
      default:
        break;  // exponent passes through
    }
    // A per-channel standalone requant reads lane c at exponent
    // in_exp + chan_data[c]; resolve the per-lane fp::rescale distances
    // to - from_c now so the executor just indexes a table.
    if (in.kind == FpInstr::Kind::kRequant && !in.chan_data.empty()) {
      ExecPlan::Const& c = plan.consts[idx];
      c.chan_shifts.resize(in.chan_data.size());
      for (size_t ci = 0; ci < in.chan_data.size(); ++ci) {
        c.chan_shifts[ci] =
            in.out_exponent - (in_exp(in) + static_cast<int>(in.chan_data[ci]));
      }
    }
    rex[static_cast<size_t>(in.output)] = out_exp;

    iv[static_cast<size_t>(in.output)] = out;
    ExecPlan::Reg& reg = plan.regs[static_cast<size_t>(in.output)];
    reg.lo = out.lo;
    reg.hi = out.hi;
    reg.exponent = out_exp;
    reg.width = widen_to(width_for_bounds(out.lo, out.hi), min_width);

    if (base_kind_of(in.kind) == FpInstr::Kind::kConv2d) plan.needs_scratch = true;

    // ---- Typed weight constants for the matmul family ------------------
    if (is_matmul_kind(in.kind)) {
      const FpInstr::Kind base = base_kind_of(in.kind);
      int64_t wmin = 0, wmax = 0;
      if (!in.const_data.empty()) {
        const auto [mn, mx] = std::minmax_element(in.const_data.begin(), in.const_data.end());
        wmin = *mn;
        wmax = *mx;
      }
      ExecPlan::Const& c = plan.consts[idx];
      c.width = width_for_bounds(wmin, wmax);
      switch (c.width) {
        case IntWidth::kI8:
          c.i8.assign(in.const_data.begin(), in.const_data.end());
          // Conv/dense weights are the GEMM B operand; pre-pack the
          // k-pair-interleaved int16 copy the vpmaddwd kernels consume.
          if (base != FpInstr::Kind::kDepthwise) {
            const int64_t n = in.const_shape[base == FpInstr::Kind::kDense ? 1 : 3];
            if (n > 0) {
              c.b_pair16 = fpk::pack_b_pair16(
                  c.i8.data(), static_cast<int64_t>(c.i8.size()) / n, n);
              // Weights already inside int4 range: carry the nibble-packed
              // copy too, so the tuner can measure the sub-byte candidates.
              if (wmin >= -8 && wmax <= 7) {
                c.b_nib4 = fpk::pack_b_nib4(
                    c.i8.data(), static_cast<int64_t>(c.i8.size()) / n, n);
              }
            }
          }
          // Tuner-selected blocked instructions additionally carry the
          // channel-blocked weight copy their kernels consume.
          if (algo_of(idx) == fpk::Algo::kBlocked) {
            if (base == FpInstr::Kind::kDepthwise) {
              c.w_blk8 = fpk::pack_dw_wblk8(c.i8.data(), in.const_shape[0],
                                            in.const_shape[1], in.const_shape[2]);
            } else {
              c.b_blk16 = fpk::pack_conv_wblk16(c.i8.data(), in.const_shape[0],
                                                in.const_shape[1], in.const_shape[2],
                                                in.const_shape[3]);
            }
          }
          break;
        case IntWidth::kI16:
          c.i16.assign(in.const_data.begin(), in.const_data.end());
          break;
        case IntWidth::kI32:
          c.i32.assign(in.const_data.begin(), in.const_data.end());
          break;
        case IntWidth::kI64:
          break;  // read from instr.const_data directly
      }

      // ---- Lower the epilogue to executable steps -------------------------
      // Requant shifts resolve against the static exponent replay, exactly
      // as the standalone requant executor computes them at run time. An
      // unfused matmul lowers to an empty step list: the kernels then store
      // the raw accumulator into its int32-floor register.
      c.acc_ok32 = acc_bound <= std::numeric_limits<int32_t>::max();
      int e = in_exp(in) + in.const_exponent;
      bool chan_pending = !in.chan_data.empty();
      for (int s = 0; s < epi_step_count(in); ++s) {
        const FpEpiStep stp = epi_step(in, s);
        fpk::EpiStep es;
        es.op = static_cast<int>(stp.op);
        switch (static_cast<FpInstr::EpiOp>(stp.op)) {
          case FpInstr::EpiOp::kRequant:
            es.shift = static_cast<int>(stp.a) - e;
            if (chan_pending) {
              // First requant after a per-channel accumulator: lane c sits
              // delta[c] above the base exponent e, so its rescale
              // distance shrinks by delta[c].
              es.per_channel = true;
              c.chan_shifts.resize(in.chan_data.size());
              for (size_t ci = 0; ci < in.chan_data.size(); ++ci) {
                c.chan_shifts[ci] = es.shift - static_cast<int>(in.chan_data[ci]);
              }
              chan_pending = false;
            }
            es.lo = stp.b;
            es.hi = stp.c;
            e = static_cast<int>(stp.a);
            break;
          case FpInstr::EpiOp::kClamp:
            es.lo = stp.b;
            es.hi = stp.c;
            break;
          case FpInstr::EpiOp::kLeaky: {
            // Reduce (alpha_q, lift) by their common power-of-two factor
            // 2^t when a later requant absorbs it. Both branches of
            // max(x << lift, x * alpha_q) are multiples of 2^t, so the
            // reduced step yields exactly value / 2^t; a relu in between
            // commutes with the scaling, and the requant's
            // round-half-to-even shift (shrunk by t through the exponent
            // replay) sees identical quotient, remainder comparison and
            // parity — so the final stored values are bit-identical.
            // Without the reduction, lifts like 17 on an int16-range input
            // blow the int32 proof and push the whole chain to the scalar
            // epilogue.
            int lift = static_cast<int>(-stp.a);
            const int64_t aq = stp.b;
            int t = lift;
            if (aq != 0) {
              t = 0;
              while (t < lift && ((aq >> t) & 1) == 0) ++t;
            }
            if (t > 0) {
              bool absorbed = false;
              for (int s2 = s + 1; s2 < epi_step_count(in); ++s2) {
                const auto op2 = static_cast<FpInstr::EpiOp>(epi_step(in, s2).op);
                if (op2 == FpInstr::EpiOp::kRelu) continue;
                absorbed = op2 == FpInstr::EpiOp::kRequant;
                break;
              }
              if (!absorbed) t = 0;
            }
            es.lift = lift - t;
            es.alpha_q = aq >> t;
            e += static_cast<int>(stp.a) + t;
            break;
          }
          case FpInstr::EpiOp::kBias:
          case FpInstr::EpiOp::kRelu:
            break;
        }
        c.epi.push_back(es);
      }

      // ---- Compose clamp-family steps ---------------------------------
      // A relu (= clamp to [0, +inf)) or clamp directly after a requant or
      // another clamp folds into the earlier step's saturation bounds:
      // clamp(clamp(x, l1, h1), l2, h2) == clamp(x, clamp(l1, l2, h2),
      // clamp(h1, l2, h2)) for every x (both sides are nondecreasing,
      // piecewise-identity, with the same range). The retire loop then runs
      // one fewer per-lane step — the requant's existing min/max absorbs
      // the activation for free.
      {
        size_t w = 0;
        for (size_t r = 0; r < c.epi.size(); ++r) {
          const auto op = static_cast<FpInstr::EpiOp>(c.epi[r].op);
          if (w > 0 &&
              (op == FpInstr::EpiOp::kRelu || op == FpInstr::EpiOp::kClamp)) {
            fpk::EpiStep& prev = c.epi[w - 1];
            const auto pop = static_cast<FpInstr::EpiOp>(prev.op);
            if (pop == FpInstr::EpiOp::kRequant ||
                pop == FpInstr::EpiOp::kClamp) {
              const int64_t l2 = op == FpInstr::EpiOp::kRelu ? 0 : c.epi[r].lo;
              const int64_t h2 = op == FpInstr::EpiOp::kRelu
                                     ? std::numeric_limits<int64_t>::max()
                                     : c.epi[r].hi;
              prev.lo = fp::saturate(prev.lo, l2, h2);
              prev.hi = fp::saturate(prev.hi, l2, h2);
              continue;
            }
          }
          c.epi[w++] = c.epi[r];
        }
        c.epi.resize(w);
      }

      // ---- Prove the epilogue int32-safe for SIMD lanes --------------
      // Replay the value interval through the LOWERED steps: if every
      // intermediate (bias sums, pre-clamp left shifts, leaky branches)
      // provably fits int32 and every shift stays under 31 bits, the
      // vector kernels can run the whole step list in 32-bit lanes and
      // stay bit-identical to the int64 epi_apply.
      constexpr int64_t kI32Lo = std::numeric_limits<int32_t>::min();
      constexpr int64_t kI32Hi = std::numeric_limits<int32_t>::max();
      const auto fits32 = [&](int64_t lo, int64_t hi) {
        return lo >= kI32Lo && hi <= kI32Hi;
      };
      // A per-channel requant shifts each lane by its own table entry, so
      // the proof covers the whole table: every entry under 31 bits, the
      // left-shift headroom at the smallest (most negative) shift and the
      // v + half rounding headroom at the largest.
      bool vec32 = c.acc_ok32;
      Interval cur{sat_mul(acc_bound, -1), acc_bound};
      int64_t bmin = 0, bmax = 0;
      if (!in.bias_data.empty()) {
        const auto [mn, mx] =
            std::minmax_element(in.bias_data.begin(), in.bias_data.end());
        bmin = *mn;
        bmax = *mx;
      }
      for (const fpk::EpiStep& es : c.epi) {
        switch (static_cast<FpInstr::EpiOp>(es.op)) {
          case FpInstr::EpiOp::kRequant: {
            int smin = es.shift, smax = es.shift;
            if (es.per_channel) {
              const auto [mn, mx] =
                  std::minmax_element(c.chan_shifts.begin(), c.chan_shifts.end());
              smin = *mn;
              smax = *mx;
            }
            vec32 = vec32 && smin > -31 && smax < 31;
            if (smin < 0) {
              vec32 = vec32 && fits32(sat_shl(cur.lo, -smin), sat_shl(cur.hi, -smin));
            }
            if (smax > 0) {
              // The vector kernels round via v + (half - 1 + floor-LSB),
              // then one arithmetic shift — the sum needs v + half of
              // int32 headroom.
              vec32 = vec32 &&
                      fits32(cur.lo, sat_add(cur.hi, int64_t{1} << (smax - 1)));
            }
            cur = {es.lo, es.hi};
            break;
          }
          case FpInstr::EpiOp::kBias:
            vec32 = vec32 && fits32(bmin, bmax);
            cur = {sat_add(cur.lo, bmin), sat_add(cur.hi, bmax)};
            break;
          case FpInstr::EpiOp::kRelu:
            cur = {std::max<int64_t>(cur.lo, 0), std::max<int64_t>(cur.hi, 0)};
            break;
          case FpInstr::EpiOp::kClamp:
            cur = {fp::saturate(cur.lo, es.lo, es.hi),
                   fp::saturate(cur.hi, es.lo, es.hi)};
            break;
          case FpInstr::EpiOp::kLeaky: {
            vec32 = vec32 && es.lift < 31 && fits32(es.alpha_q, es.alpha_q) &&
                    fits32(sat_shl(cur.lo, es.lift), sat_shl(cur.hi, es.lift)) &&
                    fits32(std::min(sat_mul(cur.lo, es.alpha_q),
                                    sat_mul(cur.hi, es.alpha_q)),
                           std::max(sat_mul(cur.lo, es.alpha_q),
                                    sat_mul(cur.hi, es.alpha_q)));
            const auto f = [&](int64_t x) {
              return std::max(sat_shl(x, es.lift), sat_mul(x, es.alpha_q));
            };
            cur = {f(cur.lo), f(cur.hi)};
            break;
          }
        }
        vec32 = vec32 && fits32(cur.lo, cur.hi);
      }
      c.epi_vec32 = vec32;
      if (vec32 && !in.bias_data.empty()) {
        c.bias32.assign(in.bias_data.begin(), in.bias_data.end());
        c.bias32.resize(in.bias_data.size() + 8, 0);  // vector-load slack
      }
      if (vec32 && !c.chan_shifts.empty()) {
        // Vector-load slack for the padded GEMM tail group: its lanes past
        // N retire zero accumulators, which a zero shift leaves at zero.
        c.chan_shifts.resize(c.chan_shifts.size() + 8, 0);
      }
    }
  }

  // ---- Pass 2: liveness -> arena slots ---------------------------------
  // A flatten is a pure reshape — identical lanes, width, bounds and
  // exponent — so its output ALIASES the producer's storage instead of
  // getting a slot of its own, and the executor copies nothing. Liveness is
  // tracked per alias family root: the shared slot frees only once the last
  // reader of ANY alias has run.
  //
  // Slot selection is best-fit under nominal register sizes: arena cost is
  // the sum of per-slot high-water marks, so a freed big slot should absorb
  // later big registers (reuse under the mark is free) while small values
  // pack into small slots instead of inflating a large one's neighbour.
  std::vector<int> root(static_cast<size_t>(n_registers));
  std::iota(root.begin(), root.end(), 0);
  for (const FpInstr& in : instrs) {
    if (in.kind == FpInstr::Kind::kFlatten && !in.inputs.empty() &&
        in.inputs[0] != input_register) {
      root[static_cast<size_t>(in.output)] = root[static_cast<size_t>(in.inputs[0])];
    }
  }

  std::vector<int> last_use(static_cast<size_t>(n_registers), -1);
  for (size_t idx = 0; idx < instrs.size(); ++idx) {
    for (int r : instrs[idx].inputs) {
      last_use[static_cast<size_t>(root[static_cast<size_t>(r)])] = static_cast<int>(idx);
    }
  }
  if (output_register >= 0) {
    last_use[static_cast<size_t>(root[static_cast<size_t>(output_register)])] =
        static_cast<int>(instrs.size());  // live past the end
  }

  std::vector<int64_t> nominal(static_cast<size_t>(n_registers), 0);
  {
    std::vector<FpRegShape> shapes;
    infer_register_shapes(instrs, n_registers, input_register,
                          fp_nominal_input_shape(instrs), shapes);
    for (int r = 0; r < n_registers; ++r) {
      nominal[static_cast<size_t>(r)] =
          shapes[static_cast<size_t>(r)].numel *
          width_bytes(plan.regs[static_cast<size_t>(r)].width);
    }
  }

  std::vector<int> free_slots;
  std::vector<int64_t> slot_hw;  // high-water nominal bytes per slot
  for (size_t idx = 0; idx < instrs.size(); ++idx) {
    const FpInstr& in = instrs[idx];
    ExecPlan::Reg& reg = plan.regs[static_cast<size_t>(in.output)];
    const int out_root = root[static_cast<size_t>(in.output)];
    const int64_t need = nominal[static_cast<size_t>(in.output)];
    if (out_root != in.output) {
      // Aliased flatten: share the family root's slot, allocate nothing.
      reg.slot = plan.regs[static_cast<size_t>(out_root)].slot;
    } else if (free_slots.empty()) {
      // Assign the output a slot no live register holds (an instruction's
      // output must never alias an input it is still reading).
      reg.slot = plan.n_slots++;
      slot_hw.push_back(need);
    } else {
      // Best fit: the tightest free slot that already holds the value, else
      // the biggest free slot (smallest growth). Keys only on sizes and slot
      // ids, so packing is a pure function of the instruction stream.
      size_t pick = 0;
      bool pick_fits = false;
      for (size_t f = 0; f < free_slots.size(); ++f) {
        const int64_t hw = slot_hw[static_cast<size_t>(free_slots[f])];
        const bool fits = hw >= need;
        bool better;
        if (f == 0) {
          better = true;
        } else if (fits != pick_fits) {
          better = fits;
        } else {
          const int64_t ph = slot_hw[static_cast<size_t>(free_slots[pick])];
          better = fits ? (hw < ph || (hw == ph && free_slots[f] < free_slots[pick]))
                        : (hw > ph || (hw == ph && free_slots[f] < free_slots[pick]));
        }
        if (better) {
          pick = f;
          pick_fits = fits;
        }
      }
      reg.slot = free_slots[static_cast<size_t>(pick)];
      free_slots.erase(free_slots.begin() + static_cast<std::ptrdiff_t>(pick));
      int64_t& hw = slot_hw[static_cast<size_t>(reg.slot)];
      hw = std::max(hw, need);
    }
    // Inputs whose alias family dies here release their slots for the NEXT
    // instruction (each family freed once even if read through two aliases).
    for (size_t a = 0; a < in.inputs.size(); ++a) {
      const int r = in.inputs[a];
      if (r == input_register) continue;  // float input: no slot
      const int rt = root[static_cast<size_t>(r)];
      bool seen = false;
      for (size_t b = 0; b < a && !seen; ++b) {
        seen = root[static_cast<size_t>(in.inputs[b])] == rt;
      }
      if (seen) continue;
      if (last_use[static_cast<size_t>(rt)] == static_cast<int>(idx)) {
        const int s = plan.regs[static_cast<size_t>(rt)].slot;
        if (s >= 0) free_slots.push_back(s);
      }
    }
    // An output nothing ever reads (cannot happen for compiled graphs, but
    // harmless): release immediately.
    if (out_root == in.output && last_use[static_cast<size_t>(in.output)] < 0 &&
        in.output != output_register) {
      free_slots.push_back(reg.slot);
    }
  }
  return plan;
}

Shape fp_nominal_input_shape(const std::vector<FpInstr>& instrs) {
  for (const FpInstr& in : instrs) {
    switch (base_kind_of(in.kind)) {
      case FpInstr::Kind::kConv2d:
      case FpInstr::Kind::kDepthwise:
        return {1, 16, 16, in.const_shape[2]};
      case FpInstr::Kind::kDense:
        return {1, in.const_shape[0]};
      default:
        break;
    }
  }
  return {1, 16, 16, 3};
}

void infer_register_shapes(const std::vector<FpInstr>& instrs, int n_registers,
                           int input_register, const Shape& input_shape,
                           std::vector<FpRegShape>& out) {
  if (static_cast<int>(input_shape.size()) > 4) {
    throw std::invalid_argument("fp exec: input rank > 4 unsupported");
  }
  out.resize(static_cast<size_t>(n_registers));
  auto set_shape = [&](int reg, const FpRegShape& s) { out[static_cast<size_t>(reg)] = s; };

  FpRegShape in_s;
  in_s.rank = static_cast<int>(input_shape.size());
  in_s.numel = 1;
  for (int i = 0; i < in_s.rank; ++i) {
    in_s.dims[i] = input_shape[static_cast<size_t>(i)];
    in_s.numel *= in_s.dims[i];
  }
  if (input_register >= 0) set_shape(input_register, in_s);

  for (const FpInstr& in : instrs) {
    const FpRegShape& x = out[static_cast<size_t>(in.inputs.empty() ? in.output : in.inputs[0])];
    FpRegShape y = x;
    switch (in.kind) {
      case FpInstr::Kind::kQuantizeInput:
        y = in_s;
        break;
      case FpInstr::Kind::kConv2d:
      case FpInstr::Kind::kConv2dFused:
      case FpInstr::Kind::kDepthwise:
      case FpInstr::Kind::kDepthwiseFused:
      case FpInstr::Kind::kMaxPool: {
        y.rank = 4;
        y.dims[0] = x.dims[0];
        y.dims[1] = in.geom.out_h(x.dims[1]);
        y.dims[2] = in.geom.out_w(x.dims[2]);
        y.dims[3] = base_kind_of(in.kind) == FpInstr::Kind::kConv2d ? in.const_shape[3]
                                                                    : x.dims[3];
        // A blocked-layout input (NC8HW8) means the tuner selected the
        // blocked kernel here; its output stays blocked. Dims are always
        // logical, numel is the (padded) storage lane count.
        y.blocked = x.blocked;
        y.numel = y.dims[0] * y.dims[1] * y.dims[2] *
                  (y.blocked ? fpk::blocked_c(y.dims[3]) : y.dims[3]);
        break;
      }
      case FpInstr::Kind::kLayoutPack:
        y.blocked = true;
        y.numel = y.dims[0] * y.dims[1] * y.dims[2] * fpk::blocked_c(y.dims[3]);
        break;
      case FpInstr::Kind::kLayoutUnpack:
        y.blocked = false;
        y.numel = y.dims[0] * y.dims[1] * y.dims[2] * y.dims[3];
        break;
      case FpInstr::Kind::kDense:
      case FpInstr::Kind::kDenseFused:
        y.rank = 2;
        y.dims[0] = x.dims[0];
        y.dims[1] = in.const_shape[1];
        y.dims[2] = y.dims[3] = 0;
        y.numel = y.dims[0] * y.dims[1];
        break;
      case FpInstr::Kind::kConcat: {
        int64_t total_c = 0;
        for (int r : in.inputs) {
          const FpRegShape& s = out[static_cast<size_t>(r)];
          total_c += s.dims[s.rank - 1];
        }
        y.dims[y.rank - 1] = total_c;
        y.numel = 1;
        for (int i = 0; i < y.rank; ++i) y.numel *= y.dims[i];
        break;
      }
      case FpInstr::Kind::kFlatten:
        y.rank = 2;
        y.dims[1] = x.numel / x.dims[0];
        y.dims[2] = y.dims[3] = 0;
        y.numel = x.numel;
        break;
      default:  // elementwise: shape passes through
        break;
    }
    set_shape(in.output, y);
  }
}

TrafficEstimate estimate_traffic(const FixedPointProgram& prog, const Shape& input_shape) {
  const ExecPlan& plan = prog.plan();
  // Walk the EXECUTION stream (layout pseudo-ops included): plan.consts,
  // plan.algos and plan.regs are aligned with it, not with the canonical
  // instructions, whenever the autotuner derived one.
  const auto& instrs = plan.instrs.empty() ? prog.instructions() : plan.instrs;
  std::vector<FpRegShape> shapes;
  int input_reg = -1;
  for (const FpInstr& in : instrs) {
    if (in.kind == FpInstr::Kind::kQuantizeInput) input_reg = in.inputs[0];
  }
  infer_register_shapes(instrs, static_cast<int>(plan.regs.size()), input_reg, input_shape,
                        shapes);

  TrafficEstimate t;
  for (size_t idx = 0; idx < instrs.size(); ++idx) {
    const FpInstr& in = instrs[idx];
    const FpRegShape& y = shapes[static_cast<size_t>(in.output)];
    // Layout pseudo-ops exist only in the typed execution stream — the
    // reference interpreter never runs them.
    if (in.kind == FpInstr::Kind::kLayoutPack || in.kind == FpInstr::Kind::kLayoutUnpack) {
      t.typed_bytes += y.numel * width_bytes(plan.regs[static_cast<size_t>(in.output)].width);
      const FpRegShape& s = shapes[static_cast<size_t>(in.inputs[0])];
      t.typed_bytes += s.numel * width_bytes(plan.regs[static_cast<size_t>(in.inputs[0])].width);
      continue;
    }
    // A plan-aliased flatten moves no typed bytes at all (the reference
    // interpreter still copies its int64 lanes).
    if (in.kind == FpInstr::Kind::kFlatten && !in.inputs.empty() &&
        plan.regs[static_cast<size_t>(in.output)].slot >= 0 &&
        plan.regs[static_cast<size_t>(in.output)].slot ==
            plan.regs[static_cast<size_t>(in.inputs[0])].slot) {
      t.reference_bytes += y.numel * 16;
      continue;
    }
    // Writes.
    t.typed_bytes += y.numel * width_bytes(plan.regs[static_cast<size_t>(in.output)].width);
    t.reference_bytes += y.numel * 8;
    // Activation reads (the float input counts as 4 bytes/lane for both).
    for (int r : in.inputs) {
      const FpRegShape& s = shapes[static_cast<size_t>(r)];
      if (r == input_reg) {
        t.typed_bytes += s.numel * 4;
        t.reference_bytes += s.numel * 4;
      } else {
        t.typed_bytes += s.numel * width_bytes(plan.regs[static_cast<size_t>(r)].width);
        t.reference_bytes += s.numel * 8;
      }
    }
    // Constant reads.
    const int64_t cn = static_cast<int64_t>(in.const_data.size());
    t.typed_bytes += cn * width_bytes(plan.consts[idx].width);
    t.reference_bytes += cn * 8;
    if (is_fused_kind(in.kind)) {
      const int64_t bn = static_cast<int64_t>(in.bias_data.size());
      t.typed_bytes += bn * 8;
      t.reference_bytes += bn * 8;
      // The reference interpreter replays each epilogue step as a full
      // int64 read+write pass over the output.
      t.reference_bytes += y.numel * 16 * epi_step_count(in);
    }
  }
  return t;
}

const ExecPlan& FixedPointProgram::plan() const {
  if (!plan_) {
    throw std::logic_error("fixed-point program has no execution plan (not finalized)");
  }
  return *plan_;
}

void FixedPointProgram::finalize() {
  FuseStats st;
  st.instrs_before = st.instrs_after = static_cast<int>(instrs_.size());
  if (fusion_enabled()) {
    const int64_t pre_fuse_arena =
        estimate_arena_bytes(instrs_, n_registers, input_register, output_register);
    st = fuse_program(instrs_, n_registers, input_register, output_register);
    st.arena_bytes_before = pre_fuse_arena;
    // Keep the liveness-minimizing schedule only when it provably does not
    // grow the nominal arena. `<=` (not `<`) makes load-time refinalization
    // idempotent: rescheduling an already scheduled program reproduces it
    // (equal estimate), so a saved program's slot count survives round-trips.
    std::vector<FpInstr> cand =
        schedule_program(instrs_, n_registers, input_register, output_register);
    if (estimate_arena_bytes(cand, n_registers, input_register, output_register) <=
        estimate_arena_bytes(instrs_, n_registers, input_register, output_register)) {
      instrs_ = std::move(cand);
    }
    st.arena_bytes_after =
        estimate_arena_bytes(instrs_, n_registers, input_register, output_register);
  }
  // Count the stream, not this call's rewrites: a loaded program arrives
  // already fused, and running fusion over it again rewrites nothing.
  st.fused_matmuls = static_cast<int>(std::count_if(
      instrs_.begin(), instrs_.end(), [](const FpInstr& in) { return is_fused_kind(in.kind); }));
  if (fusion_enabled()) {
    auto& m = observe::MetricsRegistry::global();
    m.gauge("engine.fusion.instrs_before").set(st.instrs_before);
    m.gauge("engine.fusion.instrs_after").set(st.instrs_after);
    m.gauge("engine.fusion.fused_matmuls").set(st.fused_matmuls);
    m.gauge("engine.fusion.collapsed_requants").set(st.collapsed_requants);
    m.gauge("engine.fusion.arena_bytes_before").set(st.arena_bytes_before);
    m.gauge("engine.fusion.arena_bytes_after").set(st.arena_bytes_after);
  }
  fuse_stats_ = st;

  // Preliminary plan (static auto-pick everywhere) — also what the tuner's
  // probes read widths, typed consts and lowered epilogues from.
  ExecPlan plan = build_exec_plan(instrs_, n_registers, input_register, output_register);
  tuning_.reset();
  if (autotune::mode() != autotune::Mode::kOff) {
    auto tuning = autotune::tune_program(instrs_, n_registers, input_register,
                                         output_register, plan, tune_source_path_);
    if (tuning) {
      if (tuning->blocked_instrs > 0) {
        // Derive the execution stream: canonical instructions + layout
        // pseudo-ops around the blocked chains, then re-plan against it.
        // The canonical program stays untouched (reference interpretation
        // and serialization never see the pseudo-ops).
        std::vector<FpInstr> stream = instrs_;
        std::vector<fpk::Algo> algos = tuning->algos;
        int n_regs = n_registers;
        insert_layout_ops(stream, algos, &n_regs, output_register);
        plan = build_exec_plan(stream, n_regs, input_register, output_register, &algos);
        plan.instrs = std::move(stream);
      } else {
        plan.algos = tuning->algos;
      }
      tuning_ = std::move(tuning);
    }
  }
  plan_ = std::make_shared<const ExecPlan>(std::move(plan));
}

}  // namespace tqt
