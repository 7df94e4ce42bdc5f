// INT4 (4/8) sub-byte path tests: nibble pack/unpack round-trips at every
// length parity, bit-exactness of the forced Algo::kGemmS4 candidates against
// the int64 reference over the whole zoo (per-tensor and per-channel, 1 and 4
// threads, both kernel sets), the per-channel requant's vector epilogue
// (every AVX2 kernel vs epi_apply, the plan's whole-table vec32 proof, the
// zoo's W4A8 per-channel retire paths), serializer v3 round-trip +
// truncation rejection + v2-compat-in-a-v3-build, the QuantUse bit-width
// boundaries, and a compile-and-run pass over the deprecated pre-QuantSpec
// wrappers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "fixedpoint/autotune.h"
#include "fixedpoint/engine.h"
#include "fixedpoint/fuse.h"
#include "fixedpoint/kernels/kernels.h"
#include "fixedpoint/plan.h"
#include "graph_opt/quantize_pass.h"
#include "graph_opt/transforms.h"
#include "models/zoo.h"
#include "quant/asymmetric.h"
#include "quant/calibrate.h"
#include "quant/fake_quant.h"
#include "quant/quant_spec.h"
#include "quant/unfused.h"
#include "runtime/parallel.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace tqt {
namespace {

// ---- Nibble packing --------------------------------------------------------

// Round-trip every (K parity, N vs packed_n) combination: each packed byte
// must sign-extend back to the exact int4 pair, the odd row of an odd K and
// the columns >= N must pack as zero.
TEST(Nib4Pack, RoundTripsEveryLengthParity) {
  Rng rng(5);
  for (const int64_t K : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{4}, int64_t{5},
                          int64_t{8}, int64_t{9}, int64_t{16}, int64_t{17}}) {
    for (const int64_t N : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{5}, int64_t{7},
                            int64_t{8}, int64_t{9}, int64_t{16}, int64_t{17}}) {
      std::vector<int8_t> B(static_cast<size_t>(K * N));
      for (auto& v : B) {
        v = static_cast<int8_t>(static_cast<int64_t>(rng.uniform() * 16.0f) % 16 - 8);
        if (v < -8) v = -8;
        if (v > 7) v = 7;
      }
      const std::vector<uint8_t> Bn = fpk::pack_b_nib4(B.data(), K, N);
      const int64_t pairs = (K + 1) / 2;
      const int64_t np = fpk::packed_n(N);
      ASSERT_EQ(Bn.size(), static_cast<size_t>(pairs * np)) << K << "x" << N;
      for (int64_t p = 0; p < pairs; ++p) {
        for (int64_t n = 0; n < np; ++n) {
          const uint8_t b = Bn[static_cast<size_t>(p * np + n)];
          const int lo = n < N ? B[static_cast<size_t>(2 * p * N + n)] : 0;
          const int hi =
              (n < N && 2 * p + 1 < K) ? B[static_cast<size_t>((2 * p + 1) * N + n)] : 0;
          ASSERT_EQ(fpk::nib4_lo(b), lo) << K << "x" << N << " pair " << p << " col " << n;
          ASSERT_EQ(fpk::nib4_hi(b), hi) << K << "x" << N << " pair " << p << " col " << n;
        }
      }
    }
  }
}

TEST(Nib4Pack, RejectsValuesOutsideInt4Range) {
  const int8_t too_big[] = {0, 8};
  EXPECT_THROW(fpk::pack_b_nib4(too_big, 1, 2), std::invalid_argument);
  const int8_t too_small[] = {-9, 0, 1, 2};
  EXPECT_THROW(fpk::pack_b_nib4(too_small, 2, 2), std::invalid_argument);
  const int8_t fits[] = {-8, 7, 0, 3};
  EXPECT_NO_THROW(fpk::pack_b_nib4(fits, 2, 2));
}

// ---- Engine bit-exactness with the forced s4 candidates --------------------

struct Prepared {
  BuiltModel m;
  QuantizePassResult qres;
};

Prepared prepare(ModelKind kind, const PrecisionPolicy& precision, uint64_t seed = 11) {
  Prepared p;
  p.m = build_model(kind, 10, seed);
  Rng rng(seed);
  p.m.graph.set_training(true);
  for (int i = 0; i < 10; ++i) {
    p.m.graph.run({{p.m.input, rng.normal_tensor({8, 16, 16, 3}, 0.2f, 1.0f)}}, p.m.logits);
  }
  p.m.graph.set_training(false);
  Tensor calib = rng.normal_tensor({16, 16, 16, 3}, 0.2f, 1.0f);
  optimize_for_quantization(p.m.graph, p.m.input, calib);
  QuantizeConfig cfg;
  cfg.precision = precision;
  p.qres = quantize_pass(p.m.graph, p.m.input, p.m.logits, cfg);
  calibrate_thresholds(p.m.graph, p.qres, p.m.input, calib, WeightInit::kMax);
  return p;
}

void expect_raw_equal(const IntTensor& a, const IntTensor& b, const std::string& what) {
  ASSERT_EQ(a.shape, b.shape) << what;
  ASSERT_EQ(a.exponent, b.exponent) << what;
  ASSERT_EQ(a.data.size(), b.data.size()) << what;
  for (size_t i = 0; i < a.data.size(); ++i) {
    ASSERT_EQ(a.data[i], b.data[i]) << what << " lane " << i;
  }
}

/// RAII tuning scope (mirrors test_autotune): force an algo, restore the
/// pristine off state and empty shape cache on exit.
struct TuneScope {
  explicit TuneScope(int mode, int forced = -1) {
    autotune::reset_for_test();
    autotune::set_mode(mode);
    if (forced >= 0) autotune::set_forced_algo_for_test(forced);
  }
  ~TuneScope() {
    autotune::set_mode(-1);
    autotune::reset_for_test();
  }
};

bool any_gemm_s4_row(const FixedPointProgram& prog) {
  for (const auto& row : autotune::explain_kernels(prog)) {
    if (row.algo == fpk::algo_name(fpk::Algo::kGemmS4)) return true;
  }
  return false;
}

PrecisionPolicy w4a8(bool per_channel) {
  PrecisionPolicy pol;
  pol.wbits = 4;
  pol.abits = 8;
  pol.per_channel_weights = per_channel;
  return pol;
}

class S4Engine : public ::testing::TestWithParam<ModelKind> {};

// Forcing Algo::kGemmS4 on a 4/8 program routes every nibble-packable matmul
// through the sub-byte kernels; results must stay bit-identical to the int64
// reference at 1 and 4 threads, per-tensor and per-channel alike.
TEST_P(S4Engine, ForcedS4MatchesReferenceAtW4A8) {
  for (const bool per_channel : {false, true}) {
    TuneScope scope(1, static_cast<int>(fpk::Algo::kGemmS4));
    Prepared p = prepare(GetParam(), w4a8(per_channel));
    FixedPointProgram prog = compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
    ASSERT_TRUE(any_gemm_s4_row(prog))
        << model_name(GetParam()) << (per_channel ? " per-channel" : " per-tensor")
        << ": no instruction resolved to the s4 GEMM";
    Rng rng(77);
    const Tensor probe = rng.normal_tensor({3, 16, 16, 3}, 0.2f, 1.2f);
    const IntTensor ref = prog.run_raw_reference(probe);
    for (int threads : {1, 4}) {
      set_num_threads(threads);
      expect_raw_equal(prog.run_raw(probe), ref,
                       model_name(GetParam()) + (per_channel ? " pc" : " pt") + " s4 @" +
                           std::to_string(threads));
    }
    set_num_threads(0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, S4Engine, ::testing::ValuesIn(all_model_kinds()),
                         [](const auto& info) { return model_name(info.param); });

// Both kernel sets implement the s4 candidates (scalar reference walk, AVX2
// in-register nibble unpack); each must agree with the reference lane for
// lane on the same program.
TEST(S4Engine, BothKernelSetsAreBitExact) {
  for (const bool per_channel : {false, true}) {
    TuneScope scope(1, static_cast<int>(fpk::Algo::kGemmS4));
    Prepared p = prepare(ModelKind::kMiniVgg, w4a8(per_channel));
    FixedPointProgram prog = compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
    Rng rng(78);
    const Tensor probe = rng.normal_tensor({2, 16, 16, 3}, 0.2f, 1.2f);
    const IntTensor ref = prog.run_raw_reference(probe);
    for (const fpk::KernelSet* ks : {&fpk::scalar_kernels(), fpk::avx2_kernels()}) {
      if (!ks) continue;
      fpk::set_active_kernels(ks);
      for (int threads : {1, 4}) {
        set_num_threads(threads);
        expect_raw_equal(prog.run_raw(probe), ref,
                         std::string("mini_vgg s4 ") + (per_channel ? "pc " : "pt ") +
                             ks->name + " @" + std::to_string(threads));
      }
    }
    fpk::set_active_kernels(nullptr);  // restore the process default
    set_num_threads(0);
  }
}

// Per-channel weight scales must also be exact through the UNTUNED default
// dispatch (no forced algo) on every zoo model: the plan's per-channel
// requant tables are algo-independent, and with the AVX2 set active the
// fused matmuls retire them through the vector epilogue.
TEST(S4Engine, PerChannelDefaultDispatchMatchesReference) {
  for (ModelKind kind : all_model_kinds()) {
    Prepared p = prepare(kind, w4a8(true));
    FixedPointProgram prog =
        compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
    Rng rng(79);
    const Tensor probe = rng.normal_tensor({2, 16, 16, 3}, 0.2f, 1.2f);
    const IntTensor ref = prog.run_raw_reference(probe);
    for (int threads : {1, 4}) {
      set_num_threads(threads);
      expect_raw_equal(prog.run_raw(probe), ref,
                       model_name(kind) + " pc default @" + std::to_string(threads));
    }
  }
  set_num_threads(0);
}

bool is_fused_row(const autotune::ExplainRow& r) {
  return r.kind == "conv2d_fused" || r.kind == "depthwise_fused" || r.kind == "dense_fused";
}

// A per-channel shift table is no reason to leave the vector epilogue: every
// fused matmul that retires vec32 in a model's W8A8 program also does so in
// its W4A8 per-channel twin (rows matched by instruction name).
TEST(S4Engine, PerChannelRetiresVec32LikeW8Twin) {
  const bool simd = &fpk::active_kernels() != &fpk::scalar_kernels();
  for (ModelKind kind : all_model_kinds()) {
    Prepared p8 = prepare(kind, PrecisionPolicy{});
    Prepared p4 = prepare(kind, w4a8(true));
    const FixedPointProgram w8 =
        compile_fixed_point(p8.m.graph, p8.m.input, p8.qres.quantized_output);
    const FixedPointProgram w4 =
        compile_fixed_point(p4.m.graph, p4.m.input, p4.qres.quantized_output);
    std::map<std::string, std::string> w4_retire;
    for (const auto& r : autotune::explain_kernels(w4)) {
      if (is_fused_row(r)) w4_retire[r.name] = r.retire;
    }
    int vec32_rows = 0;
    for (const auto& r : autotune::explain_kernels(w8)) {
      if (!is_fused_row(r)) continue;
      ASSERT_TRUE(r.retire == "vec32" || r.retire == "scalar") << r.name;
      if (r.retire != "vec32") continue;
      ++vec32_rows;
      ASSERT_TRUE(w4_retire.count(r.name)) << model_name(kind) << ": " << r.name;
      EXPECT_EQ(w4_retire[r.name], "vec32") << model_name(kind) << ": " << r.name;
    }
    if (simd) EXPECT_GT(vec32_rows, 0) << model_name(kind);
  }
}

// The unfused stream of a per-channel program keeps each matmul's raw
// accumulator at per-channel exponents until its standalone requant; the
// shared kernels store it through an empty epilogue on both kernel sets.
TEST(S4Engine, UnfusedPerChannelMatchesReferenceOnBothKernelSets) {
  Prepared p = prepare(ModelKind::kMiniMobileNetV1, w4a8(true));
  set_fusion_enabled(0);
  const FixedPointProgram prog =
      compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
  set_fusion_enabled(-1);
  ASSERT_EQ(prog.fusion_stats().fused_matmuls, 0);
  Rng rng(80);
  const Tensor probe = rng.normal_tensor({3, 16, 16, 3}, 0.2f, 1.2f);
  const IntTensor ref = prog.run_raw_reference(probe);
  for (const fpk::KernelSet* ks : {&fpk::scalar_kernels(), fpk::avx2_kernels()}) {
    if (!ks) continue;
    fpk::set_active_kernels(ks);
    for (int threads : {1, 4}) {
      set_num_threads(threads);
      expect_raw_equal(prog.run_raw(probe), ref,
                       std::string("mini_mobilenet_v1 w4 pc unfused ") + ks->name + " @" +
                           std::to_string(threads));
    }
  }
  fpk::set_active_kernels(nullptr);
  set_num_threads(0);
}

// ---- Per-channel requant in vector lanes -----------------------------------
// The AVX2 epilogue runs a per-channel requant with per-lane variable shifts.
// These tests drive every AVX2 matmul entry point with a synthetic Epilogue
// whose shift table mixes left, zero and right shifts up to +-30, and assert
// each stored lane equals the int64 epi_apply walk.

/// Per-channel shifts, one per channel (channels cycle through the list).
constexpr int kShiftPattern[] = {-30, 30, 0,  1,  -1, 2,  -3, 7, -12, 13, -20,
                                 19,  29, 5, -2, 0,  11, 3,  -7, 24, 1};
constexpr int kNumShifts = static_cast<int>(sizeof(kShiftPattern) / sizeof(int));

int pattern_shift(int64_t c) { return kShiftPattern[c % kNumShifts]; }

/// Channels whose left shift exceeds the headroom of a real accumulator run
/// with all-zero weights, so only a small bias reaches their requant.
bool big_left(int64_t c) { return pattern_shift(c) <= -4; }

fpk::EpiStep step_of(int op, int64_t lo = 0, int64_t hi = 0) {
  fpk::EpiStep s;
  s.op = op;
  s.lo = lo;
  s.hi = hi;
  return s;
}
fpk::EpiStep requant_pc(int64_t lo, int64_t hi) {
  fpk::EpiStep s = step_of(0, lo, hi);
  s.per_channel = true;
  return s;
}
fpk::EpiStep leaky(int lift, int64_t alpha_q) {
  fpk::EpiStep s = step_of(4);
  s.lift = lift;
  s.alpha_q = alpha_q;
  return s;
}

/// The step lists under test: bias, relu and leaky before and after the
/// per-channel requant, at int8 and int16 outputs.
constexpr int kNumLists = 4;
std::vector<fpk::EpiStep> epi_list(int list, int& out_bytes) {
  switch (list) {
    case 0:
      out_bytes = 1;
      return {step_of(1), requant_pc(-128, 127)};
    case 1:
      out_bytes = 2;
      return {step_of(1), requant_pc(-32768, 32767), step_of(2)};
    case 2:
      out_bytes = 1;
      return {leaky(3, 1), requant_pc(-128, 127)};
    default:
      out_bytes = 2;
      return {requant_pc(-512, 511), step_of(1), leaky(2, 1), step_of(3, -600, 4000)};
  }
}

/// A synthetic epilogue over C channels, tables padded the way the plan pads
/// them for vec32.
struct ChanEpi {
  std::vector<fpk::EpiStep> steps;
  std::vector<int64_t> bias;
  std::vector<int32_t> bias32, shift;
  int out_bytes = 1;

  fpk::Epilogue make(void* y) const {
    fpk::Epilogue e;
    e.steps = steps.data();
    e.n_steps = static_cast<int>(steps.size());
    e.bias = bias.data();
    e.y = y;
    e.out_bytes = out_bytes;
    e.vec32 = true;
    e.bias32 = bias32.data();
    e.chan_shift = shift.data();
    return e;
  }
};

/// Build list `list` over C channels for the accumulators acc[r * C + c]
/// (`rows` rows). A bias that feeds the requant directly is chosen per
/// channel so that row c % rows lands exactly halfway between two quotients,
/// odd and even quotients alternating across channels.
ChanEpi make_chan_epi(int list, int64_t C, const std::vector<int64_t>& acc, int64_t rows,
                      Rng& rng) {
  ChanEpi ce;
  ce.steps = epi_list(list, ce.out_bytes);
  const bool bias_feeds_requant = list <= 1;
  ce.bias.resize(static_cast<size_t>(C));
  ce.shift.assign(static_cast<size_t>(C) + 8, 0);
  for (int64_t c = 0; c < C; ++c) {
    const int s = pattern_shift(c);
    ce.shift[static_cast<size_t>(c)] = s;
    int64_t b;
    if (!bias_feeds_requant) {
      b = rng.uniform_int(-1000, 1000);
    } else if (s > 0) {
      const int64_t r = c % rows;
      constexpr int64_t kQuotients[] = {1, 2, -1, -2, 0, 3, -3};
      int64_t q = kQuotients[c % 7];
      if (s >= 29) q = std::min<int64_t>(0, std::max<int64_t>(q, -2));
      b = q * (int64_t{1} << s) + (int64_t{1} << (s - 1)) -
          acc[static_cast<size_t>(r * C + c)];
    } else if (s >= -3) {
      b = rng.uniform_int(-(1 << 12), 1 << 12);
    } else {
      b = rng.uniform_int(-(int64_t{1} << (30 + s)), int64_t{1} << (30 + s));
    }
    ce.bias[static_cast<size_t>(c)] = b;
  }
  ce.bias32.assign(ce.bias.begin(), ce.bias.end());
  ce.bias32.resize(ce.bias.size() + 8, 0);
  return ce;
}

/// What the lanes of one test exercised.
struct LaneStats {
  int at_lo = 0, at_hi = 0;        ///< int8 results saturated at -128 / 127
  int tie_odd = 0, tie_even = 0;   ///< requant inputs exactly halfway, by quotient
};

/// The vec32 contract the plan proves, checked on the int64 walk of one lane:
/// every step value (left shifts, v + half, leaky branches) fits int32 and
/// the final value fits the output width. Also tallies requant ties.
bool vec32_lane_ok(const fpk::Epilogue& e, int64_t v, int64_t ch, LaneStats& st) {
  const auto fits = [](int64_t x, int bytes) {
    const int64_t hi = (int64_t{1} << (8 * bytes - 1)) - 1;
    return x >= -hi - 1 && x <= hi;
  };
  if (!fits(v, 4)) return false;
  for (int s = 0; s < e.n_steps; ++s) {
    const fpk::EpiStep& step = e.steps[s];
    if (step.op == 0) {
      const int sh = step.per_channel ? e.chan_shift[ch] : step.shift;
      if (sh <= -31 || sh >= 31) return false;
      if (sh < 0 && !fits(v << -sh, 4)) return false;
      if (sh > 0) {
        if (!fits(v + (int64_t{1} << (sh - 1)), 4)) return false;
        if ((v & ((int64_t{1} << sh) - 1)) == int64_t{1} << (sh - 1)) {
          ((v >> sh) & 1 ? st.tie_odd : st.tie_even) += 1;
        }
      }
    } else if (step.op == 4) {
      if (!fits(v << step.lift, 4) || !fits(v * step.alpha_q, 4)) return false;
    }
    fpk::Epilogue one = e;
    one.steps = &step;
    one.n_steps = 1;
    v = fpk::epi_apply(one, v, ch);
    if (!fits(v, 4)) return false;
  }
  return fits(v, e.out_bytes);
}

int64_t load_lane(const std::vector<unsigned char>& y, int bytes, int64_t i) {
  switch (bytes) {
    case 1: return reinterpret_cast<const int8_t*>(y.data())[i];
    case 2: return reinterpret_cast<const int16_t*>(y.data())[i];
    default: return reinterpret_cast<const int32_t*>(y.data())[i];
  }
}

/// The expected narrow outputs for acc[r * C + c] under `ce`, after checking
/// the vec32 contract on every lane.
std::vector<int64_t> expected_lanes(const ChanEpi& ce, const std::vector<int64_t>& acc,
                                    int64_t C, LaneStats& st) {
  const fpk::Epilogue e = ce.make(nullptr);
  std::vector<int64_t> want(acc.size());
  for (size_t i = 0; i < acc.size(); ++i) {
    const int64_t c = static_cast<int64_t>(i) % C;
    EXPECT_TRUE(vec32_lane_ok(e, acc[i], c, st)) << "test data breaks vec32 at lane " << i;
    want[i] = fpk::epi_apply(e, acc[i], c);
    if (ce.out_bytes == 1) {
      st.at_lo += want[i] == -128 ? 1 : 0;
      st.at_hi += want[i] == 127 ? 1 : 0;
    }
  }
  return want;
}

/// Every test must have hit both clamp bounds and both kinds of tie.
void expect_coverage(const LaneStats& st) {
  EXPECT_GT(st.at_lo, 0) << "no lane saturated at the lower bound";
  EXPECT_GT(st.at_hi, 0) << "no lane saturated at the upper bound";
  EXPECT_GT(st.tie_odd, 0) << "no exact-half tie with an odd quotient";
  EXPECT_GT(st.tie_even, 0) << "no exact-half tie with an even quotient";
}

TEST(PerChannelVec32, GemmKernelsMatchEpiApply) {
  const fpk::KernelSet* avx2 = fpk::avx2_kernels();
  if (!avx2) GTEST_SKIP() << "AVX2 kernel set not available";
  Rng rng(31);
  LaneStats stats;
  for (const int64_t M : {int64_t{1}, int64_t{3}, int64_t{6}}) {
    for (const int64_t N : {int64_t{5}, int64_t{13}, int64_t{16}, int64_t{21}}) {
      for (const int64_t K : {int64_t{1}, int64_t{7}, int64_t{20}}) {
        std::vector<int8_t> B(static_cast<size_t>(K * N));
        for (int64_t k = 0; k < K; ++k) {
          for (int64_t n = 0; n < N; ++n) {
            B[static_cast<size_t>(k * N + n)] =
                big_left(n) ? 0 : static_cast<int8_t>(rng.uniform_int(-8, 7));
          }
        }
        const std::vector<int16_t> Bp = fpk::pack_b_pair16(B.data(), K, N);
        const std::vector<uint8_t> Bn = fpk::pack_b_nib4(B.data(), K, N);
        for (const bool a16 : {false, true}) {
          // 32 bytes of read slack past the last A row (kernel contract).
          std::vector<int8_t> A8(static_cast<size_t>(M * K + 32), 0);
          std::vector<int16_t> A16(static_cast<size_t>(M * K + 16), 0);
          for (int64_t i = 0; i < M * K; ++i) {
            if (a16) {
              A16[static_cast<size_t>(i)] = static_cast<int16_t>(rng.uniform_int(-4096, 4096));
            } else {
              A8[static_cast<size_t>(i)] = static_cast<int8_t>(rng.uniform_int(-128, 127));
            }
          }
          std::vector<int64_t> acc(static_cast<size_t>(M * N), 0);
          for (int64_t i = 0; i < M; ++i) {
            for (int64_t n = 0; n < N; ++n) {
              int64_t s = 0;
              for (int64_t k = 0; k < K; ++k) {
                const int64_t a = a16 ? A16[static_cast<size_t>(i * K + k)]
                                      : A8[static_cast<size_t>(i * K + k)];
                s += a * B[static_cast<size_t>(k * N + n)];
              }
              acc[static_cast<size_t>(i * N + n)] = s;
            }
          }
          for (int list = 0; list < kNumLists; ++list) {
            const ChanEpi ce = make_chan_epi(list, N, acc, M, rng);
            const std::vector<int64_t> want = expected_lanes(ce, acc, N, stats);
            for (const fpk::KernelSet* ks : {&fpk::scalar_kernels(), avx2}) {
              for (const bool nib : {false, true}) {
                std::vector<unsigned char> y(static_cast<size_t>(M * N * ce.out_bytes), 0xAB);
                const fpk::Epilogue e = ce.make(y.data());
                if (a16) {
                  nib ? ks->gemm_s16n4_epi(A16.data(), Bn.data(), M, N, K, e)
                      : ks->gemm_s16p16_epi(A16.data(), Bp.data(), M, N, K, e);
                } else {
                  nib ? ks->gemm_s8n4_epi(A8.data(), Bn.data(), M, N, K, e)
                      : ks->gemm_s8p16_epi(A8.data(), Bp.data(), M, N, K, e);
                }
                for (int64_t i = 0; i < M * N; ++i) {
                  ASSERT_EQ(load_lane(y, ce.out_bytes, i), want[static_cast<size_t>(i)])
                      << ks->name << (a16 ? " s16" : " s8") << (nib ? "n4" : "p16") << " M"
                      << M << " N" << N << " K" << K << " list " << list << " lane " << i
                      << " shift " << pattern_shift(i % N);
                }
              }
            }
          }
        }
      }
    }
  }
  expect_coverage(stats);
}

TEST(PerChannelVec32, DepthwiseKernelsMatchEpiApply) {
  const fpk::KernelSet* avx2 = fpk::avx2_kernels();
  if (!avx2) GTEST_SKIP() << "AVX2 kernel set not available";
  Rng rng(32);
  LaneStats stats;
  for (const int64_t C : {int64_t{3}, int64_t{13}, int64_t{16}, int64_t{21}}) {
    for (const int64_t stride : {int64_t{1}, int64_t{2}}) {
      fpk::DepthwiseArgs a;
      a.batch = 2;
      a.h = 5;
      a.w = 6;
      a.c = C;
      a.geom.kh = a.geom.kw = 3;
      a.geom.stride_h = a.geom.stride_w = stride;
      a.geom.pad_top = a.geom.pad_bottom = a.geom.pad_left = a.geom.pad_right = 1;
      a.oh = a.geom.out_h(a.h);
      a.ow = a.geom.out_w(a.w);
      const int64_t npix = a.batch * a.oh * a.ow;
      std::vector<int8_t> w(static_cast<size_t>(9 * C));
      for (int64_t t = 0; t < 9; ++t) {
        for (int64_t c = 0; c < C; ++c) {
          w[static_cast<size_t>(t * C + c)] =
              big_left(c) ? 0 : static_cast<int8_t>(rng.uniform_int(-128, 127));
        }
      }
      for (const bool x16 : {false, true}) {
        const int64_t xn = a.batch * a.h * a.w * C;
        std::vector<int8_t> x8(static_cast<size_t>(xn));
        std::vector<int16_t> x16v(static_cast<size_t>(xn));
        for (int64_t i = 0; i < xn; ++i) {
          x8[static_cast<size_t>(i)] = static_cast<int8_t>(rng.uniform_int(-128, 127));
          x16v[static_cast<size_t>(i)] = static_cast<int16_t>(rng.uniform_int(-4096, 4096));
        }
        std::vector<int64_t> acc(static_cast<size_t>(npix * C), 0);
        for (int64_t b = 0; b < a.batch; ++b) {
          for (int64_t oy = 0; oy < a.oh; ++oy) {
            for (int64_t ox = 0; ox < a.ow; ++ox) {
              const int64_t p = (b * a.oh + oy) * a.ow + ox;
              for (int64_t ky = 0; ky < 3; ++ky) {
                for (int64_t kx = 0; kx < 3; ++kx) {
                  const int64_t iy = oy * stride - 1 + ky, ix = ox * stride - 1 + kx;
                  if (iy < 0 || iy >= a.h || ix < 0 || ix >= a.w) continue;
                  for (int64_t c = 0; c < C; ++c) {
                    const size_t xi = static_cast<size_t>(((b * a.h + iy) * a.w + ix) * C + c);
                    const int64_t xv = x16 ? x16v[xi] : x8[xi];
                    acc[static_cast<size_t>(p * C + c)] +=
                        xv * w[static_cast<size_t>((ky * 3 + kx) * C + c)];
                  }
                }
              }
            }
          }
        }
        for (int list = 0; list < kNumLists; ++list) {
          const ChanEpi ce = make_chan_epi(list, C, acc, npix, rng);
          const std::vector<int64_t> want = expected_lanes(ce, acc, C, stats);
          for (const fpk::KernelSet* ks : {&fpk::scalar_kernels(), avx2}) {
            std::vector<unsigned char> y(static_cast<size_t>(npix * C * ce.out_bytes), 0xAB);
            const fpk::Epilogue e = ce.make(y.data());
            x16 ? ks->depthwise_s16_epi(x16v.data(), w.data(), a, e)
                : ks->depthwise_s8_epi(x8.data(), w.data(), a, e);
            for (int64_t i = 0; i < npix * C; ++i) {
              ASSERT_EQ(load_lane(y, ce.out_bytes, i), want[static_cast<size_t>(i)])
                  << ks->name << (x16 ? " s16" : " s8") << " C" << C << " stride " << stride
                  << " list " << list << " lane " << i << " shift " << pattern_shift(i % C);
            }
          }
        }
      }
    }
  }
  expect_coverage(stats);
}

/// A two-instruction program: int8 input quantize, then a fused dense layer
/// whose per-channel requant gets the table base_shift - deltas[c].
ExecPlan::Const plan_pc_dense(int base_shift, const std::vector<int64_t>& deltas,
                              int64_t weight) {
  const int64_t K = 4, N = static_cast<int64_t>(deltas.size());
  FpInstr q;
  q.kind = FpInstr::Kind::kQuantizeInput;
  q.inputs = {0};
  q.output = 1;
  q.clamp_lo = -128;
  q.clamp_hi = 127;
  FpInstr d;
  d.kind = FpInstr::Kind::kDenseFused;
  d.inputs = {1};
  d.output = 2;
  d.const_shape = {K, N};
  d.const_data.assign(static_cast<size_t>(K * N), weight);
  d.chan_data = deltas;
  d.epi_data = {static_cast<int64_t>(FpInstr::EpiOp::kRequant), base_shift, -128, 127};
  d.debug_name = "pc_dense";
  const ExecPlan plan = build_exec_plan({q, d}, 3, 0, 2);
  return plan.consts[1];
}

// The plan proves the per-channel requant vec32-safe over the whole shift
// table: a +-31 entry keeps the scalar walk, as does a left shift whose
// accumulator headroom fails at the table's minimum; a proven table carries
// 8 zero lanes of vector-load slack.
TEST(PerChannelVec32, PlanProvesWholeShiftTable) {
  struct Case {
    int base;
    std::vector<int64_t> deltas;
    int64_t weight;
    bool vec32;
  };
  const Case cases[] = {
      {31, {0, 0, 0}, 0, false},   // +31 entry
      {30, {0, 0, 0}, 0, true},    // +30 is the largest vector shift
      {0, {0, 31, 5}, 0, false},   // -31 entry, even with a zero accumulator
      {0, {0, 30, 5}, 0, true},    // -30 on a zero accumulator
      {30, {0, 60, 3}, 0, true},   // +30 and -30 in one table
      {0, {0, 21, 3}, 1, true},    // |acc| <= 512: 512 << 21 fits int32
      {0, {0, 22, 3}, 1, false},   // 512 << 22 does not
  };
  for (const Case& tc : cases) {
    const ExecPlan::Const c = plan_pc_dense(tc.base, tc.deltas, tc.weight);
    const size_t n = tc.deltas.size();
    EXPECT_EQ(c.epi_vec32, tc.vec32) << "base " << tc.base << " delta1 " << tc.deltas[1];
    ASSERT_EQ(c.chan_shifts.size(), tc.vec32 ? n + 8 : n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(c.chan_shifts[i], tc.base - tc.deltas[i]);
    }
    for (size_t i = n; i < c.chan_shifts.size(); ++i) EXPECT_EQ(c.chan_shifts[i], 0);
  }
}

// ---- Serializer v3 ---------------------------------------------------------

std::string temp_path(const char* name) { return ::testing::TempDir() + "/" + name; }

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint32_t version_field(const std::string& bytes) {
  uint32_t v = 0;
  std::memcpy(&v, bytes.data() + 4, sizeof(v));
  return v;
}

FixedPointProgram compile_perchannel_program() {
  Prepared p = prepare(ModelKind::kMiniVgg, w4a8(true));
  return compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
}

TEST(SerializeV3, PerChannelProgramsRoundTripAtVersion3) {
  const FixedPointProgram prog = compile_perchannel_program();
  bool any_chan = false;
  for (const FpInstr& in : prog.instructions()) any_chan |= !in.chan_data.empty();
  ASSERT_TRUE(any_chan) << "per-channel compile produced no chan_data";
  const std::string path = temp_path("v3roundtrip.tqtp");
  prog.save(path);
  EXPECT_EQ(version_field(read_file(path)), 3u);
  const FixedPointProgram back = FixedPointProgram::load(path);
  ASSERT_EQ(back.instruction_count(), prog.instruction_count());
  for (size_t i = 0; i < prog.instructions().size(); ++i) {
    EXPECT_EQ(back.instructions()[i].chan_data, prog.instructions()[i].chan_data)
        << "instr " << i;
  }
  Rng rng(42);
  const Tensor probe = rng.normal_tensor({2, 16, 16, 3}, 0.2f, 1.2f);
  EXPECT_TRUE(test::run_program(prog, probe).equals(test::run_program(back, probe)));
  std::remove(path.c_str());
}

// A 4/8 per-tensor program has no chan_data, so a v3-capable build still
// emits version 2 — and can of course read it back: the v2-compat guarantee.
TEST(SerializeV3, PerTensorProgramsStayVersion2AndLoad) {
  Prepared p = prepare(ModelKind::kMiniVgg, w4a8(false));
  const FixedPointProgram prog =
      compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
  ASSERT_GT(prog.fusion_stats().fused_matmuls, 0);
  const std::string path = temp_path("v2_in_v3.tqtp");
  prog.save(path);
  EXPECT_EQ(version_field(read_file(path)), 2u);
  const FixedPointProgram back = FixedPointProgram::load(path);
  for (const FpInstr& in : back.instructions()) EXPECT_TRUE(in.chan_data.empty());
  Rng rng(43);
  const Tensor probe = rng.normal_tensor({2, 16, 16, 3}, 0.2f, 1.2f);
  EXPECT_TRUE(test::run_program(prog, probe).equals(test::run_program(back, probe)));
  std::remove(path.c_str());
}

// Truncation must be rejected at every prefix. Literally loading every one of
// the ~10^5 prefixes is quadratic in the artifact size, so the cut set is:
// every byte of the header region, a fixed stride across the body (which
// lands inside const_data, chan_data and epilogue vectors many times over),
// and every byte of the final instruction's tail.
TEST(SerializeV3, TruncatedFileIsRejectedAtEveryPrefix) {
  const FixedPointProgram prog = compile_perchannel_program();
  const std::string path = temp_path("v3full.tqtp");
  prog.save(path);
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 1024u);

  std::vector<size_t> cuts;
  for (size_t i = 0; i < 512; ++i) cuts.push_back(i);
  for (size_t i = 512; i + 256 < bytes.size(); i += 997) cuts.push_back(i);
  for (size_t i = bytes.size() - 256; i < bytes.size(); ++i) cuts.push_back(i);

  const std::string cut_path = temp_path("v3truncated.tqtp");
  for (const size_t cut : cuts) {
    write_file(cut_path, bytes.substr(0, cut));
    EXPECT_THROW(FixedPointProgram::load(cut_path), std::runtime_error) << "prefix " << cut;
  }
  write_file(cut_path, bytes);
  EXPECT_NO_THROW(FixedPointProgram::load(cut_path));
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

// ---- QuantUse bit-width boundaries ----------------------------------------

TEST(QuantUseBoundaries, TrainingAcceptsTwoToSixteen) {
  EXPECT_THROW((QuantBits{1, true}).validate(QuantUse::kTraining), std::invalid_argument);
  EXPECT_NO_THROW((QuantBits{2, true}).validate(QuantUse::kTraining));
  EXPECT_NO_THROW((QuantBits{3, true}).validate(QuantUse::kTraining));
  EXPECT_NO_THROW((QuantBits{16, true}).validate(QuantUse::kTraining));
  EXPECT_THROW((QuantBits{17, true}).validate(QuantUse::kTraining), std::invalid_argument);
}

TEST(QuantUseBoundaries, InferenceAcceptsFourToSixteen) {
  EXPECT_THROW((QuantBits{3, true}).validate(QuantUse::kInference), std::invalid_argument);
  EXPECT_NO_THROW((QuantBits{4, true}).validate(QuantUse::kInference));
  EXPECT_NO_THROW((QuantBits{16, true}).validate(QuantUse::kInference));
  EXPECT_THROW((QuantBits{17, true}).validate(QuantUse::kInference), std::invalid_argument);
}

TEST(QuantUseBoundaries, PolicyErrorsNameTheFieldAndRange) {
  PrecisionPolicy pol;
  pol.wbits = 3;
  try {
    pol.validate(QuantUse::kInference);
    FAIL() << "expected wbits rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("wbits 3"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("[4,16]"), std::string::npos) << e.what();
  }
  pol.wbits = 4;
  EXPECT_NO_THROW(pol.validate(QuantUse::kInference));
  pol.abits = 17;
  try {
    pol.validate(QuantUse::kTraining);
    FAIL() << "expected abits rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("abits 17"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("[2,16]"), std::string::npos) << e.what();
  }
  EXPECT_THROW(QuantSpec(8, true, -2).validate(), std::invalid_argument);
}

// ---- Deprecated pre-QuantSpec wrappers -------------------------------------

// The old scattered-parameter signatures must keep compiling AND computing
// exactly what their QuantSpec replacements compute. This block is the one
// sanctioned caller of the deprecated API.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
TEST(DeprecatedWrappers, CompileAndMatchQuantSpecEquivalents) {
  Rng rng(31);
  const Tensor x = rng.normal_tensor({64}, 0.0f, 1.0f);

  auto th_old = std::make_shared<Param>("t_old", Tensor::scalar(0.5f), "threshold");
  auto th_new = std::make_shared<Param>("t_new", Tensor::scalar(0.5f), "threshold");
  FakeQuantOp fq_old(QuantBits{8, true}, QuantMode::kTqt, th_old);
  FakeQuantOp fq_new(QuantSpec{8, true, -1, true}, QuantMode::kTqt, th_new);
  EXPECT_TRUE(fq_old.forward({&x}).equals(fq_new.forward({&x})));

  FakeQuantOp dq_old(QuantBits{16, true}, [] { return -8; });
  FakeQuantOp dq_new(QuantSpec{16, true}, [] { return -8; });
  EXPECT_TRUE(dq_old.forward({&x}).equals(dq_new.forward({&x})));

  auto tu_old = std::make_shared<Param>("u_old", Tensor::scalar(0.5f), "threshold");
  auto tu_new = std::make_shared<Param>("u_new", Tensor::scalar(0.5f), "threshold");
  UnfusedFakeQuantOp uq_old(QuantBits{8, true}, tu_old);
  UnfusedFakeQuantOp uq_new(QuantSpec{8, true}, tu_new);
  EXPECT_TRUE(uq_old.forward({&x}).equals(uq_new.forward({&x})));

  auto r_old = std::make_shared<Param>("r_old", Tensor({2}, {-1.0f, 1.0f}), "threshold");
  auto r_new = std::make_shared<Param>("r_new", Tensor({2}, {-1.0f, 1.0f}), "threshold");
  AsymmetricFakeQuantOp aq_old(8, r_old);
  AsymmetricFakeQuantOp aq_new(QuantSpec{8, false, -1, false}, r_new);
  EXPECT_TRUE(aq_old.forward({&x}).equals(aq_new.forward({&x})));

  std::vector<float> vals(x.data(), x.data() + x.numel());
  const float kl_old = kl_j_threshold(std::span<const float>(vals), QuantBits{8, true});
  const float kl_new = kl_j_threshold(std::span<const float>(vals), QuantSpec{8, true});
  EXPECT_FLOAT_EQ(kl_old, kl_new);
}
#pragma GCC diagnostic pop

}  // namespace
}  // namespace tqt
