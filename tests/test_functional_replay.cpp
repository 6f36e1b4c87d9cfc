// Functional replay engine: the arena reset between images, bit-exactness
// of replayed outputs and cycle counts against full cycle-accurate
// simulation on all four backends, the `?mode=replay` SoC variants, replay-schedule sharing across pooled
// workers, the schedule's packed conv weights, concurrent replays on one
// shared surface, StageCounters::replay accounting, and the memory-sizing
// spec vocabulary.
//
// One oracle throughout: the SoC platforms are checked against
// `?mode=cycle_accurate&decode_cache=off`, and vp/linux_baseline against
// the virtual platform's own run of each image.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "fault/fault.hpp"
#include "models/models.hpp"
#include "runtime/backends.hpp"
#include "runtime/inference_session.hpp"
#include "vp/replay_engine.hpp"
#include "vp/virtual_platform.hpp"

namespace nvsoc {
namespace {

using runtime::BackendRegistry;
using runtime::BatchOptions;
using runtime::InferenceSession;
using runtime::RunOptions;

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

/// The vp/linux_baseline oracle: a fresh session whose one VP trace is of
/// `image` itself, so the backend reports the virtual platform's own run
/// of that image (no repack, no replay).
StatusOr<runtime::ExecutionResult> traced_oracle(compiler::Network (*build)(),
                                                 const std::string& backend,
                                                 std::span<const float> image) {
  InferenceSession traced(build());
  return traced.run(backend, image);
}

// ---------------------------------------------------------------------------
// Arena reset
// ---------------------------------------------------------------------------

/// Every reset restores exactly the pages the previous replay dirtied: on
/// one arena the schedule writes the same pages for every image, so every
/// replay after the first (which starts on a fresh arena) restores the same
/// non-zero page count — while outputs stay bit-exact against full
/// simulation on both rounds.
TEST(ArenaReset, RestoresEveryDirtiedPageBitExactly) {
  const auto images = synthetic_batch(models::lenet5(), 3, 4300);
  InferenceSession session(models::lenet5());
  const std::shared_ptr<const core::ReplaySchedule> schedule =
      session.prepare(images[0]).replay;
  const vp::ReplayEngine& engine = schedule->engine(session.config().nvdla);
  std::vector<std::uint64_t> restored_per_replay;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < images.size(); ++i) {
      const std::uint64_t restored_before = engine.pages_restored();
      const std::uint64_t replayed_before = engine.images_replayed();
      const auto replayed = session.run("vp", images[i]);
      ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
      const vp::VpRunResult simulated =
          vp::VirtualPlatform(session.config().nvdla)
              .run(session.loadable(), images[i]);
      EXPECT_EQ(replayed->output, simulated.output)
          << "round " << round << " image " << i;
      if (engine.images_replayed() != replayed_before) {
        restored_per_replay.push_back(engine.pages_restored() -
                                      restored_before);
      }
    }
  }

  // Image 0 is the traced image: every request for it, in either round,
  // is served from the trace; the other four (round, image) pairs replay,
  // all on one arena.
  EXPECT_EQ(engine.images_replayed(), 4u);
  EXPECT_EQ(engine.arenas_built(), 1u);
  ASSERT_EQ(restored_per_replay.size(), 4u);
  EXPECT_EQ(restored_per_replay[0], 0u) << "a fresh arena has nothing dirty";
  EXPECT_GT(restored_per_replay[1], 0u);
  for (std::size_t r = 2; r < restored_per_replay.size(); ++r) {
    EXPECT_EQ(restored_per_replay[r], restored_per_replay[1]) << "replay " << r;
  }
}

/// The reset's real job: a replay whose weight page a fault flipped fails
/// with kDataLoss and checks its corrupted arena back in; the next replay on
/// that same arena must see the post-preload weights again — bit-exact with
/// the virtual platform's run of its image, and past the checkout integrity
/// gate of a flip-armed injector that does not fire.
TEST(ArenaReset, CleanReplayAfterAWeightFlipIsBitExact) {
  const auto images = synthetic_batch(models::lenet5(), 3, 4500);
  InferenceSession session(models::lenet5());
  const std::shared_ptr<const core::ReplaySchedule> schedule =
      session.prepare(images[0]).replay;
  const std::vector<nvdla::ReplayOp>& ops = schedule->ops;
  const compiler::Loadable& loadable = session.loadable();
  const nvdla::NvdlaConfig& config = session.config().nvdla;
  vp::ReplayEngine engine(config);

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto flip = fault::Plan::parse("flip:1+seed:" + std::to_string(seed));
    ASSERT_TRUE(flip.is_ok()) << flip.status().to_string();
    fault::Injector flipping(*flip);
    try {
      (void)engine.run(loadable, ops, images[1], &flipping);
      FAIL() << "seed " << seed << ": a flipped weight served an answer";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kDataLoss) << "seed " << seed;
    }
    EXPECT_EQ(flipping.injected(fault::Kind::kWeightFlip), 1u);

    const vp::VpRunResult simulated =
        vp::VirtualPlatform(config).run(loadable, images[2]);
    EXPECT_EQ(engine.run(loadable, ops, images[2]), simulated.output)
        << "seed " << seed;

    // Armed, but at a rate that never fires: the integrity gate compares
    // the arena's weight region against the blob before replaying.
    fault::Plan armed;
    armed.at(fault::Kind::kWeightFlip) = 1e-300;
    fault::Injector gate(armed);
    std::vector<float> gated;
    ASSERT_NO_THROW(gated = engine.run(loadable, ops, images[1], &gate))
        << "seed " << seed << ": the flipped weight page was not restored";
    EXPECT_EQ(gated,
              vp::VirtualPlatform(config).run(loadable, images[1]).output)
        << "seed " << seed;
    EXPECT_EQ(gate.injected(fault::Kind::kWeightFlip), 0u);
  }
  EXPECT_EQ(engine.arenas_built(), 1u);
}

/// Staging a schedule packs every int8 conv op's weights once, from the
/// loadable's blob, and the residency budget sees the packs.
TEST(ScheduleWeightPacks, EveryConvOpCarriesAPackCountedInScheduleBytes) {
  InferenceSession session(models::lenet5());
  const auto& schedule =
      session.prepare(session.default_input()).replay_schedule();
  std::uint64_t pack_bytes = 0;
  std::size_t convs = 0;
  for (const nvdla::ReplayOp& op : schedule.ops) {
    if (op.kind != nvdla::ReplayOp::Kind::kConv) {
      EXPECT_EQ(op.packed_weights, nullptr);
      continue;
    }
    ++convs;
    ASSERT_NE(op.packed_weights, nullptr);
    EXPECT_EQ(op.packed_weights->source.size(), op.conv.weight_bytes);
    pack_bytes += op.packed_weights->bytes();
  }
  EXPECT_GT(convs, 0u);
  EXPECT_EQ(schedule.schedule_bytes(),
            sizeof(core::ReplaySchedule) +
                schedule.ops.capacity() * sizeof(nvdla::ReplayOp) +
                pack_bytes);
}

// ---------------------------------------------------------------------------
// Bit-exactness vs full simulation
// ---------------------------------------------------------------------------

/// vp / linux_baseline take the replay path automatically on repacked
/// images. Each must agree bit for bit, on outputs and on cycles, with the
/// virtual platform's own run of the same image.
void expect_replay_matches_full(compiler::Network (*build)(),
                                const char* backend) {
  const auto images = synthetic_batch(build(), 3, 4100);
  InferenceSession fast(build());
  for (const auto& image : images) {
    const auto replayed = fast.run(backend, image);
    const auto simulated = traced_oracle(build, backend, image);
    ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
    ASSERT_TRUE(simulated.is_ok()) << simulated.status().to_string();
    EXPECT_EQ(replayed->output, simulated->output) << backend;
    EXPECT_EQ(replayed->cycles, simulated->cycles) << backend;
    EXPECT_EQ(replayed->predicted_class, simulated->predicted_class);
  }
  // Images beyond the first traced one were replays, not re-simulations.
  EXPECT_EQ(fast.counters().trace, 1u);
  EXPECT_EQ(fast.counters().replay, 2u);
}

TEST(ReplayBitExact, VpBackendLenet) {
  expect_replay_matches_full(models::lenet5, "vp");
}

TEST(ReplayBitExact, LinuxBaselineLenet) {
  expect_replay_matches_full(models::lenet5, "linux_baseline");
}

TEST(ReplayBitExact, VpBackendResnet) {
  expect_replay_matches_full(models::resnet18_cifar, "vp");
}

TEST(ReplayBitExact, LinuxBaselineResnet) {
  expect_replay_matches_full(models::resnet18_cifar, "linux_baseline");
}

/// The SoC platforms replay by default (the bare base spec); the oracle —
/// `?mode=cycle_accurate&decode_cache=off`, in a session of its own —
/// simulates every image in full on the per-instruction ISS. Outputs,
/// cycles and latency must be bit-identical — the recorded envelope is
/// input-independent.
void expect_soc_replay_matches_full(compiler::Network (*build)(),
                                    const char* base) {
  const auto images = synthetic_batch(build(), 2, 4200);
  const std::string oracle_spec =
      std::string(base) + "?mode=cycle_accurate&decode_cache=off";
  const std::string replay_spec = base;
  InferenceSession session(build());
  InferenceSession oracle(build());
  for (const auto& image : images) {
    const auto simulated = oracle.run(oracle_spec, image);
    const auto replayed = session.run(replay_spec, image);
    ASSERT_TRUE(simulated.is_ok()) << simulated.status().to_string();
    ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
    EXPECT_EQ(replayed->output, simulated->output) << replay_spec;
    EXPECT_EQ(replayed->cycles, simulated->cycles) << replay_spec;
    EXPECT_EQ(replayed->ms, simulated->ms) << replay_spec;
    ASSERT_TRUE(replayed->soc.has_value());
    // The recorded envelope carries the platform detail too.
    EXPECT_EQ(replayed->soc->census.dbb.bytes_read,
              simulated->soc->census.dbb.bytes_read);
    EXPECT_EQ(replayed->soc->engine_stats.total_ops(),
              simulated->soc->engine_stats.total_ops());
  }
}

TEST(ReplayBitExact, SocModeReplayLenet) {
  expect_soc_replay_matches_full(models::lenet5, "soc");
}

TEST(ReplayBitExact, SystemTopModeReplayLenet) {
  expect_soc_replay_matches_full(models::lenet5, "system_top");
}

TEST(ReplayBitExact, SocModeReplayResnet) {
  expect_soc_replay_matches_full(models::resnet18_cifar, "soc");
}

TEST(ReplayBitExact, SystemTopModeReplayResnet) {
  expect_soc_replay_matches_full(models::resnet18_cifar, "system_top");
}

/// system_top cycles depend on the fabric clock (the CDC rescales DDR
/// latencies by the clock ratio), so a re-clocked replay variant must
/// record its own envelope instead of reusing another clock's cycles.
TEST(ReplayBitExact, ReclockedSystemTopReplayRecordsItsOwnEnvelope) {
  const auto images = synthetic_batch(models::lenet5(), 2, 4250);
  InferenceSession session(models::lenet5());
  // Populate the default-clock record first so key collisions would show.
  ASSERT_TRUE(session.run("system_top?mode=replay", images[0]).is_ok());
  const auto fast =
      session.run("system_top@50mhz?mode=cycle_accurate", images[1]);
  const auto replayed = session.run("system_top@50mhz?mode=replay", images[1]);
  ASSERT_TRUE(fast.is_ok()) << fast.status().to_string();
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
  EXPECT_EQ(replayed->cycles, fast->cycles);
  EXPECT_EQ(replayed->ms, fast->ms);
  EXPECT_EQ(replayed->output, fast->output);
}

/// SoC cycle counts are input-independent (same program, same schedule):
/// the replay variant reports one cycle count for every image, and it is
/// the cycle-accurate one.
TEST(ReplayBitExact, SocReplayCyclesAreInputIndependent) {
  const auto images = synthetic_batch(models::lenet5(), 3, 4300);
  InferenceSession session(models::lenet5());
  const auto reference = session.run("soc?mode=cycle_accurate", images[0]);
  ASSERT_TRUE(reference.is_ok());
  for (const auto& image : images) {
    const auto replayed = session.run("soc?mode=replay", image);
    ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
    EXPECT_EQ(replayed->cycles, reference->cycles);
  }
}

// ---------------------------------------------------------------------------
// Schedule sharing + accounting
// ---------------------------------------------------------------------------

TEST(ReplaySharing, PooledWorkersShareOneScheduleAndDropItAfterTheBatch) {
  const auto images = synthetic_batch(models::lenet5(), 6, 4400);
  std::shared_ptr<const core::ReplaySchedule> schedule;
  {
    InferenceSession session(models::lenet5());
    schedule = session.prepared().replay;
    ASSERT_NE(schedule, nullptr);
    EXPECT_FALSE(schedule->ops.empty());
    EXPECT_GT(schedule->vp_total_cycles, 0u);

    BatchOptions options;
    options.workers = 3;
    const auto results = session.run_batch_parallel("vp", images, options);
    ASSERT_TRUE(results.is_ok()) << results.status().to_string();

    // Snapshots copy the pointer, never the schedule bytes.
    EXPECT_GE(schedule.use_count(), 2);
    // Every image (all repacked away from the default input) replayed once.
    EXPECT_EQ(session.counters().replay, 6u);
    EXPECT_EQ(session.counters().trace, 1u);
  }
  // Session gone, pool drained and joined: this handle is the last owner.
  EXPECT_EQ(schedule.use_count(), 1);
}

TEST(ReplaySharing, SequentialBatchCountsOneReplayPerRepackedImage) {
  const auto images = synthetic_batch(models::lenet5(), 4, 4500);
  InferenceSession session(models::lenet5());
  for (const auto& image : images) {
    const auto result = session.run("vp", image);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  }
  // images[0] staged the trace (its output is the traced one, no replay
  // needed); images[1..3] each replayed once.
  EXPECT_EQ(session.counters().trace, 1u);
  EXPECT_EQ(session.counters().replay, 3u);
}

/// Threads racing on one shared repacked surface each replay it — one
/// replay per run, as the SoC replay path does — and agree bit for bit.
/// (This test runs under the ThreadSanitizer CI job.)
TEST(ReplaySharing, ConcurrentRunsOnASharedSurfaceReplayOncePerRun) {
  const auto images = synthetic_batch(models::lenet5(), 2, 4600);
  InferenceSession session(models::lenet5());
  (void)session.prepare(images[0]);
  const core::PreparedModel& prepared = session.prepare(images[1]);
  ASSERT_FALSE(prepared.vp_matches_input);

  const auto backend = BackendRegistry::global().find("vp");
  ASSERT_TRUE(backend.is_ok());
  RunOptions options;
  options.flow = session.config();

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<float>> outputs(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto result = (*backend)->run(prepared, options);
      if (result.is_ok()) outputs[t] = result->output;
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(session.counters().replay, kThreads);
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(outputs[t], outputs[0]);
  }
  EXPECT_FALSE(outputs[0].empty());
}

// ---------------------------------------------------------------------------
// Spec vocabulary: memory sizing + mode
// ---------------------------------------------------------------------------

TEST(SpecVocabulary, ParsesMemorySizes) {
  EXPECT_EQ(*runtime::parse_mem_size("4096b"), 4096u);
  EXPECT_EQ(*runtime::parse_mem_size("512KiB"), 512u * 1024);
  EXPECT_EQ(*runtime::parse_mem_size("2mib"), 2u * 1024 * 1024);
  EXPECT_EQ(*runtime::parse_mem_size("1gib"), 1ull << 30);
  EXPECT_EQ(*runtime::parse_mem_size("1.5mib"), 3u * 512 * 1024);
  for (const char* bad :
       {"", "1", "mib", "1.2.3mib", "0b", "1kb", "99999999999gib"}) {
    EXPECT_FALSE(runtime::parse_mem_size(bad).is_ok()) << bad;
  }
}

TEST(SpecVocabulary, MemorySizingOptionsConfigureTheFlow) {
  InferenceSession session(models::lenet5());
  // A generous DRAM window executes fine…
  const auto big = session.run("soc?dram=1gib");
  ASSERT_TRUE(big.is_ok()) << big.status().to_string();
  // …while a program memory smaller than the generated machine code is
  // rejected by validation before execution.
  const auto tiny = session.run("soc?program_memory=512b");
  ASSERT_FALSE(tiny.is_ok());
  EXPECT_EQ(tiny.status().code(), StatusCode::kOutOfRange);
  // Equal results either way: memory sizing does not change the flow.
  const auto base = session.run("soc");
  ASSERT_TRUE(base.is_ok());
  EXPECT_EQ(big->output, base->output);
  EXPECT_EQ(big->cycles, base->cycles);
}

TEST(SpecVocabulary, ModeOptionIsValidatedAndSocOnly) {
  const auto& registry = BackendRegistry::global();
  EXPECT_TRUE(registry.find("soc?mode=replay").is_ok());
  EXPECT_TRUE(registry.find("system_top?mode=replay").is_ok());
  EXPECT_TRUE(registry.find("soc?mode=cycle_accurate").is_ok());
  const auto bad_value = registry.find("soc?mode=sideways");
  ASSERT_FALSE(bad_value.is_ok());
  EXPECT_EQ(bad_value.status().code(), StatusCode::kInvalidArgument);
  // vp / linux_baseline have no cycle-accurate/replay split to select.
  EXPECT_FALSE(registry.find("vp?mode=replay").is_ok());
  EXPECT_FALSE(registry.find("linux_baseline?mode=replay").is_ok());
}

TEST(SpecVocabulary, HelpTextNamesEveryOptionKey) {
  const std::string help = runtime::spec_vocabulary_help();
  for (const char* key :
       {"wait_mode", "validate", "dram", "program_memory", "mode"}) {
    EXPECT_NE(help.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace nvsoc
