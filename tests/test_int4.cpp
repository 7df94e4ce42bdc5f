// INT4 (4/8) sub-byte path tests: nibble pack/unpack round-trips at every
// length parity, bit-exactness of the forced Algo::kGemmS4 candidates against
// the int64 reference over the whole zoo (per-tensor and per-channel, 1 and 4
// threads, both kernel sets), serializer v3 round-trip + truncation
// rejection + v2-compat-in-a-v3-build, the QuantUse bit-width boundaries,
// and a compile-and-run pass over the deprecated pre-QuantSpec wrappers.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fixedpoint/autotune.h"
#include "fixedpoint/engine.h"
#include "fixedpoint/fuse.h"
#include "fixedpoint/kernels/kernels.h"
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
// dispatch (no forced algo): the plan's per-channel requant tables are
// algo-independent.
TEST(S4Engine, PerChannelDefaultDispatchMatchesReference) {
  Prepared p = prepare(ModelKind::kMiniMobileNetV2, w4a8(true));
  FixedPointProgram prog = compile_fixed_point(p.m.graph, p.m.input, p.qres.quantized_output);
  Rng rng(79);
  const Tensor probe = rng.normal_tensor({2, 16, 16, 3}, 0.2f, 1.2f);
  const IntTensor ref = prog.run_raw_reference(probe);
  for (int threads : {1, 4}) {
    set_num_threads(threads);
    expect_raw_equal(prog.run_raw(probe), ref,
                     "mini_mobilenet_v2 pc default @" + std::to_string(threads));
  }
  set_num_threads(0);
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
