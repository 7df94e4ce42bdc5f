// Static memory/width plan for the typed fixed-point engine.
//
// Built once per program (at compile or load time) from the instruction
// stream alone — no input required:
//
//  * Width inference: conservative interval arithmetic propagates a value
//    bound [lo, hi] through every instruction (quantizer clamps, per-output-
//    channel sums of |w| for the matmul family, bias/eltwise interval sums),
//    and each register gets the narrowest of int8/int16/int32/int64 that
//    provably holds it. Matmul-family outputs are widened to >= int32 so the
//    int8xint8->int32 kernels accumulate in their native type; the bounds
//    also prove that no int32 partial sum can overflow, which is what makes
//    narrow accumulation bit-identical to the int64 reference interpreter.
//  * Typed constants: conv/depthwise/dense weights are re-packed into
//    int8_t/int16_t arrays (already in [K, Cout] row-major order, i.e. the
//    GEMM B operand). Biases stay int64 in the instruction.
//  * Slot assignment: a linear-scan liveness pass maps registers onto a
//    small set of reusable arena slots (a register's slot is freed after its
//    last use; an instruction's output never aliases a live input). Slot
//    byte sizes are shape-dependent and therefore resolved at run time by
//    the grow-only ExecContext arena.
#pragma once

#include <cstdint>
#include <vector>

#include "fixedpoint/engine.h"
#include "fixedpoint/kernels/kernels.h"

namespace tqt {

struct ExecPlan {
  struct Reg {
    IntWidth width = IntWidth::kI64;
    int slot = -1;           ///< arena slot; -1 for the float input register
    int exponent = 0;        ///< static power-of-2 scale of the register
    int64_t lo = 0, hi = 0;  ///< inferred value bounds
  };

  /// Typed copy of one instruction's weight constant (empty for non-matmul
  /// instructions). Only the vector matching `width` is populated; int64
  /// constants are read from FpInstr::const_data directly.
  struct Const {
    IntWidth width = IntWidth::kI64;
    std::vector<int8_t> i8;
    std::vector<int16_t> i16;
    std::vector<int32_t> i32;
    /// pack_b_pair16() copy of an int8 conv/dense weight (the GEMM B
    /// operand of Algo::kGemmPacked).
    std::vector<int16_t> b_pair16;
    /// Matmul kinds: the epilogue lowered to executable steps (requant shifts
    /// resolved against the static exponent replay); empty when unfused.
    std::vector<fpk::EpiStep> epi;
    /// Matmul kinds: true when the accumulator bound provably fits int32, so
    /// the narrow kernels may retire the tile directly; false routes the
    /// instruction to the executor's generic int64 fallback.
    bool acc_ok32 = false;
    /// True when every intermediate epilogue value also fits int32 — the
    /// interval replay below proves it — so SIMD kernels may run the step
    /// list in 32-bit lanes (fpk::Epilogue::vec32).
    bool epi_vec32 = false;
    /// int32 copy of the absorbed bias, padded with 8 zero lanes for
    /// unmasked vector loads. Filled only when `epi_vec32`.
    std::vector<int32_t> bias32;
    /// pack_conv_wblk16 copy of an int8 conv weight, filled when this
    /// instruction's algo is kBlocked.
    std::vector<int16_t> b_blk16;
    /// pack_dw_wblk8 copy of an int8 depthwise weight (algo kBlocked).
    std::vector<int8_t> w_blk8;
    /// pack_b_nib4 copy of a conv/dense weight whose values all fit int4
    /// ([-8, 7]) — the sub-byte B operand of Algo::kGemmS4. Filled for any
    /// nibble-packable int8 GEMM weight so the autotuner can measure the
    /// candidate; depthwise and non-int4 weights leave it empty.
    std::vector<uint8_t> b_nib4;
    /// Per-output-channel requant shifts, resolved against the static
    /// exponent replay. On a fused matmul: the first epilogue requant's
    /// per-lane `to - from_c` (fpk::Epilogue::chan_shift), padded with 8
    /// zero lanes for unmasked vector loads when `epi_vec32`. On a
    /// standalone kRequant fed by a per-channel matmul: the same table,
    /// never padded — the executor's per-channel requant path takes its
    /// size as the channel count. Empty in the per-tensor case.
    std::vector<int32_t> chan_shifts;
  };

  std::vector<Reg> regs;      ///< indexed by register id
  std::vector<Const> consts;  ///< indexed by instruction index
  int n_slots = 0;            ///< arena value slots (<= live registers)
  bool needs_scratch = false; ///< any Conv2d instruction (im2col packing)
  /// Execution stream. Empty means "execute the canonical instructions";
  /// non-empty when the autotuner inserted layout pseudo-ops (the stream the
  /// executor, consts, algos and register ids then refer to). The canonical
  /// program is never rewritten — reference interpretation and serialization
  /// read it unchanged.
  std::vector<FpInstr> instrs;
  /// Per-exec-instruction algo selection (empty ⇒ all kAuto). Aligned with
  /// the execution stream (`instrs` when non-empty, else the canonical one).
  std::vector<fpk::Algo> algos;
};

/// Build the plan for an instruction stream. `input_register` holds the raw
/// float input and gets no slot; `output_register` stays live to the end.
/// `algos`, when given, is aligned with `instrs` and drives blocked weight
/// packing + blocked shape propagation (layout pseudo-ops must already be in
/// the stream); the plan copies it into ExecPlan::algos.
ExecPlan build_exec_plan(const std::vector<FpInstr>& instrs, int n_registers,
                         int input_register, int output_register,
                         const std::vector<fpk::Algo>* algos = nullptr);

/// Nominal input shape for compile-time size estimates, derived from the
/// first matmul's weight constant (conv nets get the zoo's 16x16 NHWC world,
/// dense-first programs a flat vector). Absolute accuracy is irrelevant —
/// activation sizes scale linearly with batch, so relative register sizes
/// (all that slot packing and scheduling compare) are batch-invariant.
Shape fp_nominal_input_shape(const std::vector<FpInstr>& instrs);

/// Per-run shape inference: fill `out[r]` for every register reachable from
/// the input, given the (runtime) input shape. Grow-only on `out`; performs
/// no allocation once `out` has n_registers entries. Shared by the executor
/// and the traffic estimator.
void infer_register_shapes(const std::vector<FpInstr>& instrs, int n_registers,
                           int input_register, const Shape& input_shape,
                           std::vector<FpRegShape>& out);

/// Estimated bytes moved by one execution (activations read + written, plus
/// constants read) under the typed plan vs the int64 reference interpreter.
/// Used by bench_engine_kernels to report GB moved.
struct TrafficEstimate {
  int64_t typed_bytes = 0;
  int64_t reference_bytes = 0;
};
TrafficEstimate estimate_traffic(const FixedPointProgram& prog, const Shape& input_shape);

}  // namespace tqt
