// Kernel autotuner (registry v2): per-instruction algo selection for the
// fused matmul family, measured once and cached.
//
// The planner proves several kernels exact for the same fused instruction
// (packed-B GEMM, raw-B GEMM, direct depthwise, the channel-blocked NC8HW8
// kernels, the generic int64 fallback) — they differ only in speed. At
// finalize() time the tuner benchmarks the candidates best-of-N on synthetic
// inputs drawn from the planned register bounds, keyed by
// (op, input width, shape class, batch, kernel set), and records the winner:
//
//  * in a process-global shape cache, so the serving autocal path re-tunes a
//    recompiled program for free when its layer shapes are unchanged;
//  * in a versioned `.tqt.tune` sidecar written next to a saved model
//    artifact, validated by a hash of the canonical program and of the CPU
//    feature set. A stale, truncated or corrupt sidecar is silently ignored
//    and the program re-tunes — the sidecar is a cache, never a source of
//    truth.
//
// Determinism contract: measurements happen at most once per shape key per
// process (or are loaded from the sidecar); candidate order, rep counts and
// tie-breaks (lowest Algo value) are fixed, so a given set of measurements
// always yields the same selection. The tuner only ever changes WHICH exact
// kernel runs — every candidate is bit-identical to the int64 reference, so
// tuned and untuned programs agree lane for lane.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fixedpoint/engine.h"
#include "fixedpoint/plan.h"

namespace tqt::autotune {

/// Tuning policy. kOff leaves dispatch to the static per-process auto-pick
/// (exactly the pre-tuner behavior); kOn measures once per shape key, using
/// the shape cache and any valid sidecar; kForce re-measures everything and
/// ignores sidecars (the `tqt_cli tune` path).
enum class Mode { kOff, kOn, kForce };

/// Resolution order: set_mode() override, then the TQT_AUTOTUNE environment
/// variable ("1"/"on", "2"/"force", anything else off), then kOff.
Mode mode();

/// Override the mode: 0 = off, 1 = on, 2 = force, -1 = automatic (env).
void set_mode(int m);

/// One shape key's measurements. Times are seconds per run; t_blk < 0 means
/// the blocked candidate was not applicable to this key.
struct TuneEntry {
  int32_t winner = 0;  ///< fpk::Algo of the fastest standard candidate
  double t_std = 0;    ///< best standard-layout candidate time
  double t_blk = -1;   ///< blocked-kernel time (excluding layout transforms)
  double t_pack = 0;   ///< layout_pack time for this instruction's input
  double t_unpack = 0; ///< layout_unpack time for this instruction's output
};

/// A program's tuning result. `algos` is aligned with the CANONICAL
/// instruction stream (before any layout pseudo-ops); `entries` holds the
/// (shape key, measurements) pairs backing it, in instruction order, for
/// sidecar persistence.
struct ProgramTuning {
  std::vector<fpk::Algo> algos;
  std::vector<std::pair<std::string, TuneEntry>> entries;
  int tuned_instrs = 0;    ///< fused instructions with a measured selection
  int blocked_instrs = 0;  ///< of those, how many selected the blocked layout
  uint64_t program_hash = 0;
  bool from_sidecar = false;  ///< every entry came from the sidecar (no timing)
};

/// Tune one finalized-shape program: consult the sidecar (when `sidecar_path`
/// is non-empty and mode() != kForce) and the process shape cache, measure
/// whatever is missing, and decide per-instruction algos including the
/// blocked-chain selection. Returns null when the program has no tunable
/// instruction. `plan` is the preliminary plan built without algos (widths,
/// typed consts and lowered epilogues drive the probes).
std::shared_ptr<const ProgramTuning> tune_program(
    const std::vector<FpInstr>& instrs, int n_registers, int input_register,
    int output_register, const ExecPlan& plan, const std::string& sidecar_path);

/// FNV-1a over the canonical instruction stream (kinds, registers, geometry,
/// constants, epilogues, biases — everything that affects execution).
uint64_t hash_program(const std::vector<FpInstr>& instrs, int n_registers,
                      int input_register, int output_register);

/// FNV-1a over the active kernel set's identity (name + CPU feature bits);
/// a sidecar tuned on a different CPU class is rejected wholesale.
uint64_t cpu_feature_hash();

/// Write `tuning`'s entries as a `.tqt.tune` sidecar at `path` (overwrites).
/// Format: "TQTT" magic | u32 version | u64 program hash | u64 cpu hash |
/// u32 entry count | per entry: u32 key length, key bytes, i32 winner,
/// f64 t_std, f64 t_blk, f64 t_pack, f64 t_unpack. Returns false on I/O
/// failure (callers treat the sidecar as best-effort).
bool save_sidecar(const std::string& path, const ProgramTuning& tuning);

/// Parse a sidecar and validate it against the given hashes. Any mismatch,
/// truncation or corruption returns false with `out` untouched — the caller
/// silently re-tunes. Never throws.
bool load_sidecar(const std::string& path, uint64_t program_hash,
                  uint64_t cpu_hash,
                  std::vector<std::pair<std::string, TuneEntry>>& out);

/// One row of the `--explain-kernels` table.
struct ExplainRow {
  std::string name;   ///< instruction debug name
  std::string kind;   ///< instruction kind
  std::string shape;  ///< shape-class key (empty for non-tunable kinds)
  std::string algo;   ///< resolved algo name
  bool tuned = false; ///< true when the algo came from a measured selection
  /// Matmul kinds: how the kernel retires its accumulators under the active
  /// kernel set — "vec32" (epilogue in 32-bit vector lanes, Epilogue::vec32)
  /// or "scalar" (the int64 epi_apply walk per lane). Empty otherwise.
  std::string retire;
};

/// Per-exec-instruction kernel/algo choices for a finalized program.
std::vector<ExplainRow> explain_kernels(const FixedPointProgram& prog);

/// Test hooks. set_forced_algo_for_test(a) makes tune_program skip all
/// measurement and select algo `a` for every instruction that can run it
/// (-1 disables). reset_for_test() clears the forced algo and the process
/// shape cache so sidecar-validation tests observe real re-tunes.
void set_forced_algo_for_test(int algo);
void reset_for_test();

}  // namespace tqt::autotune

namespace tqt::detail {

/// Resolve the implementation a matmul instruction (fused or not) retires
/// through, given the planned preference (kAuto when untuned). Both kernel
/// sets fill every entry, so the answer depends only on the plan: a
/// preference the plan cannot honor (kGemmS4 without nibble-packed weights,
/// the retired kGemmRaw) falls back to the static pick, while kBlocked is
/// honored unconditionally (a blocked instruction's input register really is
/// in NC8HW8 layout, so no other algo could read it).
fpk::Algo resolve_fused_algo(const FpInstr& in, const ExecPlan::Const& c,
                             IntWidth xw, fpk::Algo pref);

/// Execute one matmul instruction under `algo`. Shared by the executor
/// and the tuner's timing probes, so a probe measures exactly the code the
/// executor will run. `scratch` (im2col) and `acc` (generic int64 fallback)
/// are grown as needed (no-ops at steady state).
void run_fused(const FpInstr& in, const ExecPlan::Const& pc, fpk::Algo algo,
               const void* x, const FpRegShape& xs, IntWidth xw, void* y,
               IntWidth wy, int64_t yn, std::vector<unsigned char>& scratch,
               std::vector<unsigned char>& acc);

/// NHWC -> NC8HW8: copy `x` (int8, logical shape `xs`) into `y`, zeroing the
/// padded channel lanes. `y` must hold n*h*w*blocked_c(c) bytes.
void layout_pack(const int8_t* x, const FpRegShape& xs, int8_t* y);

/// NC8HW8 -> NHWC at width `w` (both sides the same width): drop the padded
/// channel lanes. `ys` is the LOGICAL output shape.
void layout_unpack(const void* x, IntWidth w, const FpRegShape& ys, void* y);

}  // namespace tqt::detail
