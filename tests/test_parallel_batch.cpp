// Parallel batched inference: ThreadPool sizing, the repack-input fast
// path (bit-exact with the full-simulation oracle, VP executed at most once
// per session), run_batch_parallel determinism against one run() per image
// on all four backends, indexed batch-failure reporting, and string-keyed
// configured backend variants.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "models/models.hpp"
#include "runtime/backends.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/thread_pool.hpp"

namespace nvsoc {
namespace {

using runtime::BackendRegistry;
using runtime::BackendSpec;
using runtime::BatchOptions;
using runtime::InferenceSession;
using runtime::ThreadPool;

std::vector<std::vector<float>> synthetic_batch(const compiler::Network& net,
                                                std::size_t count,
                                                std::uint64_t first_seed) {
  std::vector<std::vector<float>> images;
  images.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    images.push_back(
        compiler::synthetic_input(net.input_shape(), first_seed + i));
  }
  return images;
}

/// The sequential reference for a pooled batch: one run() per image, in
/// order, failing on the first failing image.
StatusOr<std::vector<runtime::ExecutionResult>> run_each(
    InferenceSession& session, const std::string& backend,
    const std::vector<std::vector<float>>& images) {
  std::vector<runtime::ExecutionResult> results;
  for (const auto& image : images) {
    auto result = session.run(backend, image);
    if (!result.is_ok()) return result.status();
    results.push_back(std::move(result).value());
  }
  return results;
}

/// Byte map of a weight file, robust to chunk structure differences.
std::map<Addr, std::uint8_t> byte_map(const vp::WeightFile& weights) {
  std::map<Addr, std::uint8_t> bytes;
  for (const auto& chunk : weights.chunks) {
    for (std::size_t i = 0; i < chunk.bytes.size(); ++i) {
      bytes[chunk.addr + i] = chunk.bytes[i];
    }
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolT, RecommendedWorkersClampsToTaskCount) {
  EXPECT_EQ(ThreadPool::recommended_workers(1), 1u);
  EXPECT_GE(ThreadPool::recommended_workers(1000), 1u);
  EXPECT_LE(ThreadPool::recommended_workers(2), 2u);
}

// ---------------------------------------------------------------------------
// Repack-input fast path
// ---------------------------------------------------------------------------

TEST(Repack, SecondImageDoesNotReplayTheVp) {
  InferenceSession session(models::lenet5());
  const auto images = synthetic_batch(session.network(), 3, 500);
  for (const auto& image : images) {
    ASSERT_TRUE(session.run("soc", image).is_ok());
  }
  // The replay-mode SoC replays every image, the traced one included.
  EXPECT_EQ(session.counters().trace, 1u);
  EXPECT_EQ(session.counters().replay, 3u);
  EXPECT_EQ(session.counters().config_file, 1u);
  EXPECT_EQ(session.counters().program, 1u);
  // Re-running the last image replays again; it never re-traces.
  ASSERT_TRUE(session.run("soc", images.back()).is_ok());
  EXPECT_EQ(session.counters().trace, 1u);
}

TEST(Repack, BitExactWithFullReplayOnEveryBackend) {
  const auto images = synthetic_batch(models::lenet5(), 3, 600);

  InferenceSession fast(models::lenet5());
  // The oracles: the SoC platforms run cycle-accurate on the
  // per-instruction ISS in a session of their own; vp/linux_baseline
  // report the virtual platform's own run of each image, from a fresh
  // session that traced it.
  InferenceSession oracle(models::lenet5());

  for (const std::string backend :
       {"soc", "system_top", "vp", "linux_baseline"}) {
    const bool soc = backend == "soc" || backend == "system_top";
    for (std::size_t i = 0; i < images.size(); ++i) {
      const auto a = fast.run(backend, images[i]);
      const auto b =
          soc ? oracle.run(backend + "?mode=cycle_accurate&decode_cache=off",
                           images[i])
              : InferenceSession(models::lenet5()).run(backend, images[i]);
      ASSERT_TRUE(a.is_ok()) << backend << ": " << a.status().to_string();
      ASSERT_TRUE(b.is_ok()) << backend << ": " << b.status().to_string();
      EXPECT_EQ(a->output, b->output) << backend << " image " << i;
      EXPECT_EQ(a->cycles, b->cycles) << backend << " image " << i;
      EXPECT_EQ(a->predicted_class, b->predicted_class)
          << backend << " image " << i;
    }
  }
  // The fast session traced once and replayed the rest; the oracle never
  // replayed.
  EXPECT_EQ(fast.counters().trace, 1u);
  EXPECT_GE(fast.counters().replay, 2u);
  EXPECT_EQ(oracle.counters().replay, 0u);
}

TEST(Repack, WeightFilePreloadImageMatchesFullReplay) {
  const auto images = synthetic_batch(models::lenet5(), 2, 700);

  InferenceSession fast(models::lenet5());
  InferenceSession traced(models::lenet5());

  (void)fast.prepare(images[0]);
  const auto& fast_prepared = fast.prepare(images[1]);
  EXPECT_FALSE(fast_prepared.vp_matches_input);
  // The shared trace still holds the *traced* image's preload bytes; the
  // patched view for the current input must match the capture of a
  // session that traced images[1] itself.
  const auto fast_bytes = byte_map(fast_prepared.preload_weight_file());
  const auto& traced_prepared = traced.prepare(images[1]);
  EXPECT_TRUE(traced_prepared.vp_matches_input);
  const auto traced_bytes = byte_map(traced_prepared.preload_weight_file());
  EXPECT_EQ(fast_bytes, traced_bytes);
}

TEST(Repack, RepeatedRunsOfARepackedImageReplayInsteadOfRetracing) {
  const auto images = synthetic_batch(models::lenet5(), 2, 750);
  InferenceSession session(models::lenet5());
  ASSERT_TRUE(session.run("vp", images[0]).is_ok());
  // images[1] is repacked; the vp backend must recompute its output…
  const auto first = session.run("vp", images[1]);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  const auto& prepared = session.prepare(images[1]);
  EXPECT_FALSE(prepared.vp_matches_input);
  // …by one functional replay, not a re-trace.
  EXPECT_EQ(session.counters().replay, 1u);
  EXPECT_EQ(session.counters().trace, 1u);
  const auto repeat = session.run("linux_baseline", images[1]);
  ASSERT_TRUE(repeat.is_ok()) << repeat.status().to_string();
  EXPECT_EQ(repeat->output, first->output);
}

// ---------------------------------------------------------------------------
// run_batch_parallel
// ---------------------------------------------------------------------------

TEST(ParallelBatch, MatchesSequentialOnAllFourBackends) {
  const auto images = synthetic_batch(models::lenet5(), 8, 800);
  BatchOptions options;
  options.workers = 4;

  for (const std::string backend :
       {"soc", "system_top", "vp", "linux_baseline"}) {
    InferenceSession sequential(models::lenet5());
    InferenceSession parallel(models::lenet5());
    const auto expected = run_each(sequential, backend, images);
    ASSERT_TRUE(expected.is_ok())
        << backend << ": " << expected.status().to_string();
    const auto actual = parallel.run_batch_parallel(backend, images, options);
    ASSERT_TRUE(actual.is_ok())
        << backend << ": " << actual.status().to_string();
    ASSERT_EQ(actual->size(), images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
      EXPECT_EQ((*actual)[i].output, (*expected)[i].output)
          << backend << " image " << i;
      EXPECT_EQ((*actual)[i].cycles, (*expected)[i].cycles)
          << backend << " image " << i;
      EXPECT_EQ((*actual)[i].predicted_class, (*expected)[i].predicted_class)
          << backend << " image " << i;
      EXPECT_EQ((*actual)[i].backend, backend);
    }
    // Both paths replay the VP exactly once, for the first image.
    EXPECT_EQ(sequential.counters().trace, 1u) << backend;
    EXPECT_EQ(parallel.counters().trace, 1u) << backend;
  }
}

TEST(ParallelBatch, SingleWorkerBatchRunsOnThePool) {
  const auto images = synthetic_batch(models::lenet5(), 3, 900);
  InferenceSession session(models::lenet5());
  BatchOptions options;
  options.workers = 1;
  const auto results = session.run_batch_parallel("vp", images, options);
  ASSERT_TRUE(results.is_ok()) << results.status().to_string();
  ASSERT_EQ(results->size(), images.size());
  EXPECT_EQ(session.pool_worker_count(), 1u);
  EXPECT_EQ(session.counters().trace, 1u);

  InferenceSession sequential(models::lenet5());
  const auto expected = run_each(sequential, "vp", images);
  ASSERT_TRUE(expected.is_ok()) << expected.status().to_string();
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ((*results)[i].output, (*expected)[i].output) << "image " << i;
    EXPECT_EQ((*results)[i].cycles, (*expected)[i].cycles) << "image " << i;
  }
}

TEST(ParallelBatch, EmptyBatchIsOk) {
  InferenceSession session(models::lenet5());
  const auto results = session.run_batch_parallel("vp", {});
  ASSERT_TRUE(results.is_ok());
  EXPECT_TRUE(results->empty());
  EXPECT_EQ(session.counters().weights, 0u);  // nothing staged
}

TEST(ParallelBatch, UnknownBackendSurfacesWithoutStaging) {
  InferenceSession session(models::lenet5());
  const auto results =
      session.run_batch_parallel("warp_drive", synthetic_batch(
          session.network(), 2, 42));
  ASSERT_FALSE(results.is_ok());
  EXPECT_EQ(results.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session.counters().weights, 0u);
}

TEST(ParallelBatch, ReportsLowestFailingImageIndex) {
  auto images = synthetic_batch(models::lenet5(), 8, 1000);
  images[2] = std::vector<float>(7, 0.0f);  // bad shape
  images[5] = std::vector<float>(9, 0.0f);  // bad shape, later
  InferenceSession session(models::lenet5());
  BatchOptions options;
  options.workers = 4;
  const auto results = session.run_batch_parallel("vp", images, options);
  ASSERT_FALSE(results.is_ok());
  EXPECT_EQ(results.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(results.status().message().find("image 2"), std::string::npos)
      << results.status().to_string();
}

// ---------------------------------------------------------------------------
// String-keyed configured backend variants
// ---------------------------------------------------------------------------

TEST(BackendSpecT, ParsesClockAndParams) {
  const auto spec = BackendSpec::parse("system_top@50mhz?validate=off");
  ASSERT_TRUE(spec.is_ok());
  EXPECT_EQ(spec->base, "system_top");
  EXPECT_EQ(spec->clock, "50mhz");
  ASSERT_EQ(spec->params.size(), 1u);
  EXPECT_EQ(spec->params[0].first, "validate");
  EXPECT_EQ(spec->params[0].second, "off");
  EXPECT_TRUE(spec->configured());

  const auto bare = BackendSpec::parse("soc");
  ASSERT_TRUE(bare.is_ok());
  EXPECT_FALSE(bare->configured());

  EXPECT_FALSE(BackendSpec::parse("@25mhz").is_ok());
  EXPECT_FALSE(BackendSpec::parse("soc@").is_ok());
  EXPECT_FALSE(BackendSpec::parse("soc?novalue").is_ok());
}

TEST(BackendSpecT, ParseClockUnits) {
  ASSERT_TRUE(runtime::parse_clock("25mhz").is_ok());
  EXPECT_EQ(*runtime::parse_clock("25mhz"), 25u * kMHz);
  EXPECT_EQ(*runtime::parse_clock("1ghz"), Hertz{1'000'000'000});
  EXPECT_EQ(*runtime::parse_clock("500khz"), Hertz{500'000});
  EXPECT_EQ(*runtime::parse_clock("50Hz"), Hertz{50});
  EXPECT_EQ(*runtime::parse_clock("2.5mhz"), Hertz{2'500'000});
  EXPECT_FALSE(runtime::parse_clock("25").is_ok());
  EXPECT_FALSE(runtime::parse_clock("fast").is_ok());
  EXPECT_FALSE(runtime::parse_clock("mhz").is_ok());
  EXPECT_FALSE(runtime::parse_clock("1.2.3mhz").is_ok());  // no truncation
}

TEST(BackendSpecT, TableDrivenEdgeCases) {
  struct Case {
    const char* spec;
    bool ok;
    const char* canonical;  ///< expected canonical form when ok
    const char* message;    ///< expected error fragment when !ok
  };
  const Case cases[] = {
      // Canonicalizing specs.
      {"soc", true, "soc", nullptr},
      {"soc?", true, "soc", nullptr},  // trailing '?' canonicalizes away
      {"soc@25MHz", true, "soc@25mhz", nullptr},  // clock lowercased
      {"soc?wait_mode=polling?validate=off", true,
       // '?' tolerated as an option separator, canonicalized to '&'.
       "soc?validate=off&wait_mode=polling", nullptr},
      {"soc?validate=off&wait_mode=polling", true,
       "soc?validate=off&wait_mode=polling", nullptr},
      {"soc?wait_mode=polling&validate=off", true,
       // Options sort by key: both orderings share one canonical form.
       "soc?validate=off&wait_mode=polling", nullptr},
      // Consistent kInvalidArgument failures.
      {"", false, nullptr, "empty backend name"},
      {"@25mhz", false, nullptr, "empty backend name"},
      {"soc@", false, nullptr, "'@' without a clock"},
      {"soc@25mhz@50mhz", false, nullptr, "more than one '@'"},
      {"soc?novalue", false, nullptr, "expected key=value"},
      {"soc?=off", false, nullptr, "expected key=value"},
      {"soc?validate=", false, nullptr, "expected key=value"},
      {"soc?a=1&&b=2", false, nullptr, "expected key=value"},
      {"soc?validate=off&validate=on", false, nullptr,
       "duplicate option 'validate'"},
  };
  for (const auto& c : cases) {
    const auto spec = BackendSpec::parse(c.spec);
    if (c.ok) {
      ASSERT_TRUE(spec.is_ok())
          << "'" << c.spec << "': " << spec.status().to_string();
      EXPECT_EQ(spec->canonical(), c.canonical) << "'" << c.spec << "'";
    } else {
      ASSERT_FALSE(spec.is_ok()) << "'" << c.spec << "' should not parse";
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument)
          << "'" << c.spec << "'";
      EXPECT_NE(spec.status().message().find(c.message), std::string::npos)
          << "'" << c.spec << "': " << spec.status().to_string();
      // Every parse failure names the offending spec the same way.
      EXPECT_EQ(spec.status().message().rfind("backend spec '", 0), 0u)
          << "'" << c.spec << "': " << spec.status().to_string();
    }
  }
}

TEST(BackendSpecT, ReorderedOptionsShareOneCachedVariant) {
  auto& registry = BackendRegistry::global();
  const auto a = registry.find("soc?wait_mode=polling&validate=off");
  const auto b = registry.find("soc?validate=off&wait_mode=polling");
  ASSERT_TRUE(a.is_ok()) << a.status().to_string();
  ASSERT_TRUE(b.is_ok()) << b.status().to_string();
  EXPECT_EQ(*a, *b);  // one instance, not duplicate backends
  // Both spellings answer to the canonical name.
  EXPECT_EQ((*a)->name(), "soc?validate=off&wait_mode=polling");
}

TEST(BackendSpecT, DegenerateSpecResolvesToBaseBackend) {
  const auto soc = BackendRegistry::global().find("soc?");
  ASSERT_TRUE(soc.is_ok()) << soc.status().to_string();
  EXPECT_EQ((*soc)->name(), "soc");
}

TEST(ConfiguredVariants, LinuxBaselineReclocked) {
  InferenceSession session(models::lenet5());
  const auto at50 = session.run("linux_baseline");
  const auto at25 = session.run("linux_baseline@25mhz");
  ASSERT_TRUE(at50.is_ok()) << at50.status().to_string();
  ASSERT_TRUE(at25.is_ok()) << at25.status().to_string();
  EXPECT_EQ(at25->clock, 25u * kMHz);
  EXPECT_EQ(at25->cycles, at50->cycles);  // same platform cycle model
  // Half the clock, same cycles: twice the latency.
  EXPECT_NEAR(at25->ms, 2.0 * at50->ms, 1e-9);
  EXPECT_EQ(at25->backend, "linux_baseline@25mhz");
}

TEST(ConfiguredVariants, SocClockOverrideRescalesLatencyOnly) {
  InferenceSession session(models::lenet5());
  const auto at100 = session.run("soc");
  const auto at25 = session.run("soc@25mhz");
  ASSERT_TRUE(at100.is_ok()) << at100.status().to_string();
  ASSERT_TRUE(at25.is_ok()) << at25.status().to_string();
  EXPECT_EQ(at25->clock, 25u * kMHz);
  EXPECT_EQ(at25->cycles, at100->cycles);
  EXPECT_NEAR(at25->ms, 4.0 * at100->ms, 1e-9);
}

TEST(ConfiguredVariants, WaitModeOptionChecksThePreparedProgram) {
  InferenceSession session(models::lenet5());
  // The session prepares polling programs by default: the matching spec
  // runs, the mismatching one is rejected before executing garbage.
  const auto polling = session.run("soc?wait_mode=polling");
  ASSERT_TRUE(polling.is_ok()) << polling.status().to_string();
  const auto wfi = session.run("soc?wait_mode=wfi");
  ASSERT_FALSE(wfi.is_ok());
  EXPECT_EQ(wfi.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wfi.status().message().find("wait-mode mismatch"),
            std::string::npos);

  // A session that really generates WFI programs satisfies the constraint.
  core::FlowConfig config;
  config.wait_mode = toolflow::WaitMode::kInterrupt;
  InferenceSession wfi_session(models::lenet5(), config);
  const auto ok = wfi_session.run("soc?wait_mode=wfi");
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok->output, polling.value().output);
}

TEST(ConfiguredVariants, RejectsUnknownOptionsAndBases) {
  auto& registry = BackendRegistry::global();
  const auto unknown_key = registry.find("soc?turbo=on");
  ASSERT_FALSE(unknown_key.is_ok());
  EXPECT_EQ(unknown_key.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(unknown_key.status().message().find("turbo"), std::string::npos);

  const auto unknown_base = registry.find("fpga_board@25mhz");
  ASSERT_FALSE(unknown_base.is_ok());
  EXPECT_EQ(unknown_base.status().code(), StatusCode::kNotFound);
  // Known-name list is sorted.
  EXPECT_NE(unknown_base.status().message().find(
                "linux_baseline, soc, system_top, vp"),
            std::string::npos)
      << unknown_base.status().to_string();

  const auto bad_clock = registry.find("soc@warp9");
  ASSERT_FALSE(bad_clock.is_ok());
  EXPECT_EQ(bad_clock.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConfiguredVariants, VariantsAreCachedAndKeepNamesStable) {
  auto& registry = BackendRegistry::global();
  const auto first = registry.find("vp@10mhz");
  const auto second = registry.find("vp@10mhz");
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(*first, *second);  // same cached instance
  EXPECT_EQ((*first)->name(), "vp@10mhz");
  // Variants do not pollute the base-name listing.
  const std::vector<std::string> expected = {"linux_baseline", "soc",
                                             "system_top", "vp"};
  EXPECT_EQ(registry.names(), expected);
}

}  // namespace
}  // namespace nvsoc
