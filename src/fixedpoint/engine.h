// Integer-only fixed-point inference engine — the deployment target the
// paper's Graffitist inference graphs map onto ("scale factors and quantized
// weights from TQT can be ported directly onto the target of choice"; the
// paper verified its CPU inference graphs bit-accurate to an FPGA
// implementation, §4.2). This module substitutes for that FPGA: a quantized
// inference graph is *compiled* into a linear program of integer instructions
// (int8/int16 tensors, int32+ accumulators, power-of-2 rescales implemented
// as bit-shifts with round-half-to-even), and the test suite asserts bit
// exactness against the float fake-quant graph.
//
// The engine is split into three stages (see DESIGN.md §9):
//   compile  (engine.cpp)    graph -> linear FpInstr program
//   plan     (plan.cpp)      value-bound width inference (int8/16/32/64 per
//                            register), typed weight packing, liveness-based
//                            arena-slot assignment
//   execute  (exec.cpp)      narrow-width kernels (src/fixedpoint/kernels/)
//                            running in a reusable, grow-only ExecContext
//                            arena — zero heap allocations at steady state
//
// The original interpreter, which stores every lane as int64, is retained as
// run_reference()/run_raw_reference() (reference.cpp): it is the executable
// specification the typed engine is asserted bit-identical against.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/graph.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace tqt {

/// FixedPointProgram::load could not open the artifact at all (missing file,
/// permission problem). Distinct from ProgramFormatError so callers — the
/// serving registry, the gateway admin plane — can answer "not found" and
/// "corrupt" with different typed statuses.
struct ProgramIoError : std::runtime_error {
  explicit ProgramIoError(const std::string& what) : std::runtime_error(what) {}
};

/// The artifact exists but its content is not a valid fixed-point program
/// (bad magic, unsupported version, truncation, absurd lengths).
struct ProgramFormatError : std::runtime_error {
  explicit ProgramFormatError(const std::string& what) : std::runtime_error(what) {}
};

/// A tensor of integers at a power-of-2 scale: real value = data[i] * 2^e.
/// This is the *reference* representation (int64 lanes, the logical 8/16-bit
/// width enforced by saturation); the typed engine keeps registers in
/// int8_t/int16_t/int32_t/int64_t buffers chosen by the memory plan.
struct IntTensor {
  Shape shape;
  std::vector<int64_t> data;
  int exponent = 0;

  int64_t numel() const { return static_cast<int64_t>(data.size()); }
};

/// Physical storage width of a register or constant in the typed engine.
enum class IntWidth : uint8_t { kI8, kI16, kI32, kI64 };

inline int width_bytes(IntWidth w) {
  switch (w) {
    case IntWidth::kI8: return 1;
    case IntWidth::kI16: return 2;
    case IntWidth::kI32: return 4;
    case IntWidth::kI64: return 8;
  }
  return 8;
}

const char* to_string(IntWidth w);

/// One instruction of the compiled program. Register file semantics: each
/// instruction reads `inputs` registers and writes register `output`.
struct FpInstr {
  enum class Kind {
    kQuantizeInput,  ///< real input -> int8 at `out_exponent`
    kConv2d,         ///< int8 x const int8 weights -> int32 accumulator
    kDepthwise,
    kDense,
    kBiasAdd,        ///< add const integer bias (same exponent)
    kRequant,        ///< rescale by bit-shift (round-half-to-even), saturate
    kRelu,
    kRelu6,
    kLeakyRelu,      ///< alpha as integer multiplier at its own exponent
    kMaxPool,
    kEltwiseAdd,
    kConcat,
    kFlatten,
    // Fused matmul + epilogue forms produced by the graph compiler
    // (fuse.cpp). Appended after the v1 kinds so serialized kind ids stay
    // stable across format versions.
    kConv2dFused,
    kDepthwiseFused,
    kDenseFused,
    // Layout-transform pseudo-ops. These exist only in the execution stream
    // (ExecPlan::instrs) that finalize() derives when the autotuner selects a
    // channel-blocked kernel; the canonical program (instrs_) never contains
    // them, so the serialized format and the reference interpreter are
    // unaffected.
    kLayoutPack,    ///< NHWC -> NC8HW8, zero-filling padded channel lanes
    kLayoutUnpack,  ///< NC8HW8 -> NHWC, dropping padded channel lanes
  };

  /// Epilogue step opcodes for the fused matmul kinds (see `epi_data`).
  enum class EpiOp : int64_t {
    kRequant = 0,  ///< a = target exponent, b/c = clamp lo/hi
    kBias = 1,     ///< v += bias_data[channel] (exponent unchanged)
    kRelu = 2,     ///< v = max(v, 0)
    kClamp = 3,    ///< v = saturate(v, b, c)  (relu6)
    kLeaky = 4,    ///< a = alpha exponent, b = alpha_q; v = max(v << -a, v*b)
  };
  /// epi_data holds `kEpiStepInts` int64 lanes per step: {op, a, b, c}.
  static constexpr int kEpiStepInts = 4;

  Kind kind{};
  std::vector<int> inputs;
  int output = -1;

  Conv2dGeom geom{};             // conv / pool geometry
  std::vector<int64_t> const_data;  // quantized weights or bias
  Shape const_shape;
  int const_exponent = 0;

  int out_exponent = 0;          // requant / quantize target scale
  int64_t clamp_lo = 0, clamp_hi = 0;  // saturation bounds (requant, relu6)

  int64_t alpha_q = 0;           // leaky relu: slope = alpha_q * 2^alpha_exponent
  int alpha_exponent = 0;

  /// Fused kinds only: ordered epilogue applied to each int64 accumulator
  /// lane before the single narrowing store — exactly the instruction
  /// sequence the fusion pass absorbed, so bit-exactness vs. the unfused
  /// program holds by construction. Empty for every other kind.
  std::vector<int64_t> epi_data;
  /// Fused kinds only: per-output-channel bias absorbed from a kBiasAdd
  /// (applied at the scale in effect where the bias step sits).
  std::vector<int64_t> bias_data;
  /// Per-channel weight scales (matmul kinds and the requant consuming their
  /// output): chan_data[c] = e_w[c] - min_c e_w[c] >= 0, the channel's
  /// exponent delta above `const_exponent`. Output lane c of the matmul is
  /// really at exponent (x_exp + const_exponent + chan_data[c]); the first
  /// downstream requant applies the per-lane correction. Empty for the
  /// per-tensor case.
  std::vector<int64_t> chan_data;

  std::string debug_name;        // originating graph node
};

/// One decoded epilogue step of a fused instruction.
struct FpEpiStep {
  int64_t op = 0, a = 0, b = 0, c = 0;
};

inline int epi_step_count(const FpInstr& in) {
  return static_cast<int>(in.epi_data.size()) / FpInstr::kEpiStepInts;
}

inline FpEpiStep epi_step(const FpInstr& in, int i) {
  const size_t base = static_cast<size_t>(i) * FpInstr::kEpiStepInts;
  return {in.epi_data[base], in.epi_data[base + 1], in.epi_data[base + 2],
          in.epi_data[base + 3]};
}

inline bool is_fused_kind(FpInstr::Kind k) {
  return k == FpInstr::Kind::kConv2dFused || k == FpInstr::Kind::kDepthwiseFused ||
         k == FpInstr::Kind::kDenseFused;
}

/// True for any matmul-family instruction, fused or not.
inline bool is_matmul_kind(FpInstr::Kind k) {
  return k == FpInstr::Kind::kConv2d || k == FpInstr::Kind::kDepthwise ||
         k == FpInstr::Kind::kDense || is_fused_kind(k);
}

/// The fused counterpart of a bare matmul kind (precondition: base matmul).
inline FpInstr::Kind fused_kind_of(FpInstr::Kind k) {
  switch (k) {
    case FpInstr::Kind::kConv2d: return FpInstr::Kind::kConv2dFused;
    case FpInstr::Kind::kDepthwise: return FpInstr::Kind::kDepthwiseFused;
    default: return FpInstr::Kind::kDenseFused;
  }
}

/// The bare matmul a fused kind was built from (identity on unfused kinds).
inline FpInstr::Kind base_kind_of(FpInstr::Kind k) {
  switch (k) {
    case FpInstr::Kind::kConv2dFused: return FpInstr::Kind::kConv2d;
    case FpInstr::Kind::kDepthwiseFused: return FpInstr::Kind::kDepthwise;
    case FpInstr::Kind::kDenseFused: return FpInstr::Kind::kDense;
    default: return k;
  }
}

/// Instruction kind name ("conv2d", "requant", ...) — used by the trace
/// spans the executor emits and by diagnostics.
const char* to_string(FpInstr::Kind k);

struct ExecPlan;  // plan.h

namespace autotune {
struct ProgramTuning;  // autotune.h
}

/// Runtime shape of one register (rank <= 4, the engine's NHWC world).
/// `dims` always stores the logical NHWC shape; `blocked` marks registers
/// holding the NC8HW8 channel-blocked layout, whose storage numel rounds the
/// channel dim up to a whole block (numel reflects that padded figure —
/// it is what slot sizing and kernels index by).
struct FpRegShape {
  int64_t dims[4] = {0, 0, 0, 0};
  int rank = 0;
  int64_t numel = 0;
  bool blocked = false;
};

/// Reusable execution state for the typed engine: the slot arena the memory
/// plan maps registers onto, the im2col pack scratch, and per-run register
/// shapes. All buffers are grow-only — after a warm-up run at a given
/// (program, input shape), subsequent runs perform zero heap allocations.
///
/// A context is NOT thread-safe; give each worker thread its own (the serve
/// micro-batcher owns one per worker). One context may be reused freely
/// across different programs and input shapes — buffers grow to the
/// high-water mark and stay.
class ExecContext {
 public:
  ExecContext() = default;

  /// Bytes currently held by the arena (slots + scratch), for tests/bench.
  int64_t arena_bytes() const;

 private:
  friend class FixedPointProgram;
  std::vector<std::vector<unsigned char>> slots_;  // indexed by plan slot id
  std::vector<unsigned char> scratch_;             // im2col pack buffer
  std::vector<unsigned char> acc_scratch_;         // int64 accumulators for
                                                   // fused instrs off the
                                                   // fast kernel path
  std::vector<FpRegShape> regs_;                   // per-register run shapes
};

/// Fusion/scheduling statistics recorded by finalize() (all zero when fusion
/// is disabled). Arena byte figures are the planner's nominal single-image
/// estimate, also exported as engine.fusion.* gauges in tqt-observe.
struct FuseStats {
  int instrs_before = 0;
  int instrs_after = 0;
  int fused_matmuls = 0;       ///< fused-kind matmuls in the finalized stream
  int absorbed_instrs = 0;     ///< instructions folded into epilogues
  int collapsed_requants = 0;  ///< standalone requant pairs merged exactly
  int64_t arena_bytes_before = 0;
  int64_t arena_bytes_after = 0;
};

/// Compiled integer program.
class FixedPointProgram {
 public:
  /// THE execution entry point of the typed engine: run on a real-valued
  /// NHWC input batch, writing the de-quantized network output into `out`
  /// (bit-identical to the fake-quant graph and to run_reference by
  /// construction). `out` is resized only when the output shape changes;
  /// after one warm-up call per (program, input shape), this performs zero
  /// heap allocations — asserted in tests. Every other run variant is a thin
  /// wrapper over this one, so the observe hooks (engine.runs /
  /// engine.instructions counters, per-instruction TQT_TRACE spans) are
  /// wired in exactly one place.
  void run_into(const Tensor& input, ExecContext& ctx, Tensor& out) const;

  /// Convenience wrapper: run_into with a fresh result tensor. Deprecated —
  /// call run_into with a reused output tensor to keep the steady-state
  /// zero-allocation contract.
  [[deprecated("use run_into(input, ctx, out)")]]
  Tensor run(const Tensor& input, ExecContext& ctx) const {
    Tensor out;
    run_into(input, ctx, out);
    return out;
  }

  /// Convenience wrapper: run_into with a thread-local context. Deprecated —
  /// own an ExecContext (and a reused output tensor) on worker threads.
  [[deprecated("use run_into(input, ctx, out) with a caller-owned ExecContext")]]
  Tensor run(const Tensor& input) const {
    thread_local ExecContext ctx;
    Tensor out;
    run_into(input, ctx, out);
    return out;
  }

  /// Execute (typed engine) and return the raw integer output plus exponent.
  IntTensor run_raw(const Tensor& input) const;

  /// Reference interpreter: every lane an int64. Slow; retained as the
  /// executable specification for bit-exactness tests and as the baseline
  /// for bench_engine_kernels.
  Tensor run_reference(const Tensor& input) const;
  IntTensor run_raw_reference(const Tensor& input) const;

  int64_t instruction_count() const { return static_cast<int64_t>(instrs_.size()); }
  const std::vector<FpInstr>& instructions() const { return instrs_; }

  /// The memory/width plan the typed engine executes under (built once at
  /// compile/load time). Exposed for tests and the kernel bench.
  const ExecPlan& plan() const;

  int register_count() const { return n_registers; }
  int input_reg() const { return input_register; }
  int output_reg() const { return output_register; }

  /// Total number of stored quantized parameters (weights + biases).
  int64_t parameter_count() const;

  /// What the graph compiler did to this program at finalize time.
  const FuseStats& fusion_stats() const { return fuse_stats_; }

  /// Autotuner decisions for this program (null when tuning is off or no
  /// fused matmuls exist). Shared with the global shape cache.
  const std::shared_ptr<const autotune::ProgramTuning>& tuning() const { return tuning_; }

  /// Re-run the compile-time passes (fusion, scheduling, planning) under the
  /// current fusion setting — lets the bench A/B one compiled program. Note
  /// fusion is one-way: refinalizing a fused program cannot unfuse it.
  void refinalize() { finalize(); }

  /// Serialize the program (instructions + quantized weights + scales) to a
  /// binary file — the artifact that would be shipped to the fixed-point
  /// target ("scale factors and quantized weights from TQT can be ported
  /// directly", paper §4.2). Throws std::runtime_error on I/O failure.
  void save(const std::string& path) const;

  /// Load a program previously written by save(); throws on malformed input.
  static FixedPointProgram load(const std::string& path);

 private:
  friend FixedPointProgram compile_fixed_point(Graph&, NodeId, NodeId);

  /// Build the ExecPlan (width inference + typed consts + slot assignment).
  /// Called by compile_fixed_point and load; programs always carry a plan.
  void finalize();

  std::vector<FpInstr> instrs_;
  int n_registers = 0;
  int input_register = -1;
  int output_register = -1;
  std::shared_ptr<const ExecPlan> plan_;
  FuseStats fuse_stats_;
  std::shared_ptr<const autotune::ProgramTuning> tuning_;
  /// Set by load(): path of a .tqt.tune sidecar to consult before measuring
  /// (stale or corrupt sidecars silently fall back to a fresh tune).
  std::string tune_source_path_;
};

/// Compile a quantized inference graph (output of quantize_pass with
/// emulate_intermediates, quantizers enabled, eval mode) into a fixed-point
/// program. `quantized_output` is QuantizePassResult::quantized_output.
FixedPointProgram compile_fixed_point(Graph& g, NodeId input_node, NodeId quantized_output);

}  // namespace tqt
