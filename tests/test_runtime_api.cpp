// Runtime API tests: backend registry lookup (incl. unknown-name error),
// StatusOr error paths (program-memory overflow, loadable/trace mismatch),
// InferenceSession stage memoization, and bit-exactness of the replayed SoC
// backends and of run_batch_parallel against the parity oracle (every image
// simulated in full on the per-instruction ISS).
#include <gtest/gtest.h>

#include "core/bare_metal_flow.hpp"
#include "models/models.hpp"
#include "runtime/backends.hpp"
#include "runtime/inference_session.hpp"

namespace nvsoc {
namespace {

using runtime::BackendRegistry;
using runtime::ExecutionResult;
using runtime::InferenceSession;

/// The parity oracle's spec suffix: full cycle-accurate execution per image,
/// with the decoded-block cache off (the per-instruction ISS).
constexpr const char* kOracle = "?mode=cycle_accurate&decode_cache=off";

/// One LeNet session shared by the suite (stage work runs once).
InferenceSession& lenet_session() {
  static InferenceSession session(models::lenet5());
  return session;
}

// ---------------------------------------------------------------------------
// StatusOr
// ---------------------------------------------------------------------------

TEST(StatusOrT, ValueAndErrorPaths) {
  StatusOr<int> good(41);
  ASSERT_TRUE(good.is_ok());
  EXPECT_EQ(*good, 41);
  EXPECT_EQ(good.value_or(-1), 41);

  StatusOr<int> bad(StatusCode::kNotFound, "nope");
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW(bad.value(), std::runtime_error);
}

TEST(StatusOrT, OkStatusIsNotAValidError) {
  StatusOr<int> wrong{Status::ok()};
  ASSERT_FALSE(wrong.is_ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Backend registry
// ---------------------------------------------------------------------------

TEST(Registry, GlobalHasAllFourBackends) {
  const auto names = BackendRegistry::global().names();
  const std::vector<std::string> expected = {"linux_baseline", "soc",
                                             "system_top", "vp"};
  EXPECT_EQ(names, expected);
  for (const auto& name : names) {
    const auto backend = BackendRegistry::global().find(name);
    ASSERT_TRUE(backend.is_ok()) << name;
    EXPECT_EQ((*backend)->name(), name);
    EXPECT_FALSE((*backend)->description().empty());
  }
}

TEST(Registry, UnknownNameReportsNotFoundWithKnownList) {
  const auto missing = BackendRegistry::global().find("fpga_board");
  ASSERT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("fpga_board"), std::string::npos);
  EXPECT_NE(missing.status().message().find("system_top"), std::string::npos);
}

TEST(Registry, DuplicateRegistrationRejected) {
  BackendRegistry registry;
  const auto soc = [] {
    return std::make_unique<runtime::SocPlatformBackend>(core::Platform::kSoc);
  };
  EXPECT_TRUE(registry.add(soc()).is_ok());
  const Status dup = registry.add(soc());
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(registry.add(nullptr).code(), StatusCode::kInvalidArgument);
}

TEST(Registry, SessionSurfacesUnknownBackendError) {
  auto& session = lenet_session();
  const auto result = session.run("not_a_backend");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Bit-exactness against the parity oracle
// ---------------------------------------------------------------------------

/// The replayed platform in the shared session against the oracle spec in
/// a session of its own.
void expect_bit_exact_with_oracle(const std::string& backend) {
  const auto result = lenet_session().run(backend);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();

  InferenceSession oracle_session(models::lenet5());
  const auto oracle = oracle_session.run(backend + kOracle);
  ASSERT_TRUE(oracle.is_ok()) << oracle.status().to_string();
  EXPECT_EQ(result->cycles, oracle->cycles);
  EXPECT_EQ(result->output, oracle->output);
  EXPECT_EQ(result->predicted_class, oracle->predicted_class);
  ASSERT_TRUE(result->soc.has_value());
  ASSERT_TRUE(oracle->soc.has_value());
  EXPECT_EQ(result->soc->cpu.instructions(), oracle->soc->cpu.instructions());
}

TEST(Backends, SocBitExactWithCycleAccurateOracle) {
  expect_bit_exact_with_oracle("soc");
}

TEST(Backends, SystemTopBitExactWithCycleAccurateOracle) {
  expect_bit_exact_with_oracle("system_top");
}

TEST(Backends, VpBackendMatchesPreparedTraceRun) {
  auto& session = lenet_session();
  const auto result = session.run("vp");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->cycles, session.prepared().vp().total_cycles);
  EXPECT_EQ(result->output, session.prepared().vp().output);
}

TEST(Backends, LinuxBaselineCarriesOverheadEstimate)   {
  auto& session = lenet_session();
  const auto result = session.run("linux_baseline");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  ASSERT_TRUE(result->linux_estimate.has_value());
  EXPECT_GT(result->linux_estimate->overhead_fraction(), 0.9);
  // Same NVDLA: functional output identical to the bare-metal platforms.
  EXPECT_EQ(result->output, session.prepared().vp().output);
  // Paper shape: the 50 MHz Linux platform is dramatically slower.
  const auto bare = session.run("soc");
  ASSERT_TRUE(bare.is_ok());
  EXPECT_GT(result->ms / bare->ms, 20.0);
}

// ---------------------------------------------------------------------------
// StatusOr error paths through the backends
// ---------------------------------------------------------------------------

TEST(Backends, ProgramMemoryOverflowReported) {
  auto& session = lenet_session();
  runtime::RunOptions options;
  options.flow.program_memory_bytes = 64;  // far too small
  const auto backend = BackendRegistry::global().find("soc");
  ASSERT_TRUE(backend.is_ok());
  const auto result = (*backend)->run(session.prepared(), options);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(result.status().message().find("program-memory overflow"),
            std::string::npos);
}

TEST(Backends, HardwareConfigMismatchReported) {
  auto& session = lenet_session();
  runtime::RunOptions options;
  options.flow.nvdla = nvdla::NvdlaConfig::full();  // prepared on nv_small
  const auto backend = BackendRegistry::global().find("soc");
  ASSERT_TRUE(backend.is_ok());
  const auto result = (*backend)->run(session.prepared(), options);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("hardware configuration mismatch"),
            std::string::npos);
}

TEST(Backends, LoadableTraceMismatchReported) {
  auto& session = lenet_session();
  core::PreparedModel corrupted = session.prepared();
  // The shared trace core is immutable; corrupting it means cloning it
  // into a private mutable copy first.
  auto tampered = std::make_shared<core::TraceArtifacts>(*corrupted.tail);
  tampered->config_file.commands.pop_back();  // no longer from this trace
  corrupted.tail = std::move(tampered);
  const auto backend = BackendRegistry::global().find("soc");
  ASSERT_TRUE(backend.is_ok());
  const auto result = (*backend)->run(corrupted, runtime::RunOptions{});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("loadable/trace mismatch"),
            std::string::npos);
}

TEST(Backends, EmptyPreparedModelRejected) {
  const core::PreparedModel empty;
  for (const auto& name : BackendRegistry::global().names()) {
    const auto backend = BackendRegistry::global().find(name);
    ASSERT_TRUE(backend.is_ok());
    const auto result = (*backend)->run(empty, runtime::RunOptions{});
    ASSERT_FALSE(result.is_ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

// ---------------------------------------------------------------------------
// Session staging / memoization
// ---------------------------------------------------------------------------

TEST(Session, StagesRunExactlyOnceAcrossRepeatedRuns) {
  InferenceSession session(models::lenet5());
  ASSERT_TRUE(session.run("soc").is_ok());
  ASSERT_TRUE(session.run("soc").is_ok());
  ASSERT_TRUE(session.run("vp").is_ok());
  const auto& counters = session.counters();
  EXPECT_EQ(counters.weights, 1u);
  EXPECT_EQ(counters.calibration, 1u);
  EXPECT_EQ(counters.loadable, 1u);
  EXPECT_EQ(counters.trace, 1u);
  EXPECT_EQ(counters.config_file, 1u);
  EXPECT_EQ(counters.program, 1u);
}

TEST(Session, StageAccessorsAreLazyAndMemoized) {
  InferenceSession session(models::lenet5());
  EXPECT_EQ(session.counters().weights, 0u);
  const auto& loadable = session.loadable();
  EXPECT_FALSE(loadable.ops.empty());
  EXPECT_EQ(session.counters().weights, 1u);
  EXPECT_EQ(session.counters().loadable, 1u);
  EXPECT_EQ(session.counters().trace, 0u);  // tail not pulled yet
  (void)session.loadable();
  EXPECT_EQ(session.counters().loadable, 1u);
}

TEST(Session, RunBatchCompilesOnceAndTracesPerImage) {
  InferenceSession session(models::lenet5());
  const auto shape = session.network().input_shape();
  std::vector<std::vector<float>> images;
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    images.push_back(compiler::synthetic_input(shape, seed));
  }
  const auto results = session.run_batch_parallel("soc", images);
  ASSERT_TRUE(results.is_ok()) << results.status().to_string();
  ASSERT_EQ(results->size(), images.size());

  const auto& counters = session.counters();
  // Input-independent stages: exactly once for the whole batch.
  EXPECT_EQ(counters.weights, 1u);
  EXPECT_EQ(counters.calibration, 1u);
  EXPECT_EQ(counters.loadable, 1u);
  // The VP traces the first image only; every later image swaps its input
  // (the register stream is input-independent), so the config file +
  // program are built once and the VP never re-runs. The replay-mode SoC
  // replays every image, the traced one included.
  EXPECT_EQ(counters.trace, 1u);
  EXPECT_EQ(counters.replay, 4u);
  EXPECT_EQ(counters.config_file, 1u);
  EXPECT_EQ(counters.program, 1u);
}

TEST(Session, RunBatchMatchesCycleAccurateOracle) {
  InferenceSession session(models::lenet5());
  const auto shape = session.network().input_shape();
  std::vector<std::vector<float>> images;
  for (std::uint64_t seed = 200; seed < 203; ++seed) {
    images.push_back(compiler::synthetic_input(shape, seed));
  }
  const auto results = session.run_batch_parallel("soc", images);
  ASSERT_TRUE(results.is_ok()) << results.status().to_string();

  InferenceSession oracle_session(models::lenet5());
  for (std::size_t i = 0; i < images.size(); ++i) {
    const auto oracle =
        oracle_session.run(std::string("soc") + kOracle, images[i]);
    ASSERT_TRUE(oracle.is_ok()) << oracle.status().to_string();
    EXPECT_EQ((*results)[i].output, oracle->output) << "image " << i;
    EXPECT_EQ((*results)[i].predicted_class, oracle->predicted_class);
    EXPECT_EQ((*results)[i].cycles, oracle->cycles);
  }
}

TEST(Session, BadImageShapeReportsStatusAndDoesNotPoisonMemo) {
  InferenceSession session(models::lenet5());
  ASSERT_TRUE(session.run("soc").is_ok());
  const std::vector<float> bad(7, 0.0f);  // LeNet wants 1x28x28 = 784
  const auto first = session.run("soc", bad);
  ASSERT_FALSE(first.is_ok());
  EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument);
  // Retrying the same bad image must fail again, not memo-hit on the
  // artifacts of the previous (good) image.
  const auto retry = session.run("soc", bad);
  ASSERT_FALSE(retry.is_ok());
  EXPECT_EQ(retry.status().code(), StatusCode::kInvalidArgument);
  // And the session stays usable.
  EXPECT_TRUE(session.run("soc").is_ok());

  const auto batch = session.run_batch_parallel("soc", {bad});
  ASSERT_FALSE(batch.is_ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
}

TEST(Session, CustomRegistryRestrictsBackendSet) {
  BackendRegistry registry;
  ASSERT_TRUE(registry.add(std::make_unique<runtime::VpBackend>()).is_ok());
  InferenceSession session(models::lenet5(), {}, &registry);
  EXPECT_TRUE(session.run("vp").is_ok());
  const auto missing = session.run("soc");
  ASSERT_FALSE(missing.is_ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace nvsoc
