// The async staging pipeline and session pool: submit() never runs a VP
// trace on the calling thread (first arrival included — the pooled task
// stages behind the model's latch), prepare_async() front-loads staging
// plus the `?mode=replay` platform-envelope recording, the session pool
// keeps the size its first pooled call gave it (a one-worker pool still
// stages and serves in FIFO order), the serving entry paths reject
// wrong-size images identically, and the per-worker replay arenas serve
// repeated replays bit-exactly. Runs under the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>

#include "models/models.hpp"
#include "runtime/backend_registry.hpp"
#include "runtime/backends.hpp"
#include "runtime/inference_session.hpp"
#include "vp/virtual_platform.hpp"

namespace nvsoc {
namespace {

using runtime::BatchOptions;
using runtime::InferenceSession;
using runtime::PendingResult;
using runtime::StagingHandle;

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

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Signals `entered`, then holds its pool worker until `open` is
/// fulfilled, and echoes the image back. One run per gate.
class GateBackend final : public runtime::ExecutionBackend {
 public:
  std::string_view name() const override { return "gate"; }
  std::string_view description() const override {
    return "signals entry, waits until the test opens it, echoes the image";
  }
  StatusOr<runtime::ExecutionResult> run(
      const core::PreparedModel& prepared,
      const runtime::RunOptions&) const override {
    entered.set_value();
    opened.wait();
    runtime::ExecutionResult result;
    result.backend = "gate";
    result.output = prepared.input;
    return result;
  }

  mutable std::promise<void> entered;
  std::promise<void> open;

 private:
  std::shared_future<void> opened = open.get_future().share();
};

// ---------------------------------------------------------------------------
// Wrong-size images on every serving entry path (hoisted shape check)
// ---------------------------------------------------------------------------

TEST(ShapeCheck, WrongSizeFirstImageRejectedOnRun) {
  InferenceSession session(models::lenet5());
  const std::vector<float> bad(7, 0.0f);
  const auto result = session.run("soc", bad);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("elements"), std::string::npos)
      << result.status().to_string();
  // The check fired before the VP saw packed garbage.
  EXPECT_EQ(session.counters().trace, 0u);
  // The session survives and serves a well-formed image afterwards.
  const auto good = session.run("soc");
  ASSERT_TRUE(good.is_ok()) << good.status().to_string();
  EXPECT_EQ(session.counters().trace, 1u);

  // A rejected image must not cost the staged tail its memo: re-running
  // the good image after another rejection is a memo hit, not a re-trace.
  const auto again = session.run("soc", bad);
  ASSERT_FALSE(again.is_ok());
  ASSERT_TRUE(session.run("soc").is_ok());
  EXPECT_EQ(session.counters().trace, 1u);
}

TEST(ShapeCheck, WrongSizeFirstImageRejectedOnSubmit) {
  InferenceSession session(models::lenet5());
  const std::vector<float> bad(7, 0.0f);
  auto pending = session.submit("soc", bad);
  EXPECT_TRUE(pending.ready());  // rejected before any staging was queued
  const auto result = pending.get();
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("elements"), std::string::npos);
  EXPECT_EQ(session.counters().trace, 0u);
  EXPECT_EQ(session.counters().async_stagings, 0u);
  const auto good = session.submit("soc").get();
  ASSERT_TRUE(good.is_ok()) << good.status().to_string();
}

TEST(ShapeCheck, WrongSizeFirstImageRejectedOnBatchPaths) {
  auto images = synthetic_batch(models::lenet5(), 3, 6100);
  images[0] = std::vector<float>(9, 0.0f);

  InferenceSession parallel(models::lenet5());
  BatchOptions options;
  options.workers = 2;
  const auto par = parallel.run_batch_parallel("soc", images, options);
  ASSERT_FALSE(par.is_ok());
  EXPECT_EQ(par.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(par.status().message().find("image 0"), std::string::npos)
      << par.status().to_string();
  EXPECT_EQ(parallel.counters().trace, 0u);

  // A bad image behind good ones is found before image 0 is traced.
  images = synthetic_batch(models::lenet5(), 3, 6150);
  images[2] = std::vector<float>(9, 0.0f);
  InferenceSession late(models::lenet5());
  const auto bad_last = late.run_batch_parallel("soc", images, options);
  ASSERT_FALSE(bad_last.is_ok());
  EXPECT_EQ(bad_last.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_last.status().message().find("image 2"), std::string::npos)
      << bad_last.status().to_string();
  EXPECT_EQ(late.counters().trace, 0u);
}

// ---------------------------------------------------------------------------
// Async staging: submit() never traces on the calling thread
// ---------------------------------------------------------------------------

TEST(AsyncStaging, SubmitEnqueuesStagingInsteadOfTracing) {
  auto owned_gate = std::make_unique<GateBackend>();
  GateBackend& gate = *owned_gate;
  runtime::BackendRegistry registry;
  ASSERT_TRUE(registry.add(std::make_unique<runtime::VpBackend>()).is_ok());
  ASSERT_TRUE(registry.add(std::move(owned_gate)).is_ok());
  InferenceSession session(models::lenet5(), {}, &registry);
  ASSERT_TRUE(session.register_model("cold", models::lenet5()).is_ok());

  // Size the pool at one worker (staging the default model: one trace),
  // then hold that worker with a gate request on the default model.
  ASSERT_TRUE(session
                  .run_batch_parallel("vp", {session.default_input()},
                                      {.workers = 1})
                  .is_ok());
  ASSERT_EQ(session.pool_worker_count(), 1u);
  auto entered = gate.entered.get_future();
  auto blocker = session.submit("gate");
  entered.wait();
  const auto before = session.counters();
  EXPECT_EQ(before.trace, 1u);
  EXPECT_EQ(before.async_stagings, 1u);

  // submit() to the cold model only enqueues: with the only worker held,
  // nothing can stage it, so the calling thread returns without a trace.
  auto pending = session.submit("vp?model=cold");
  EXPECT_EQ(session.counters().trace, before.trace);
  EXPECT_EQ(session.counters().async_stagings, before.async_stagings);
  gate.open.set_value();
  ASSERT_TRUE(blocker.get().is_ok());
  ASSERT_TRUE(pending.get().is_ok());
  EXPECT_EQ(session.counters().trace, before.trace + 1);
  EXPECT_EQ(session.counters().async_stagings, before.async_stagings + 1);

  // Later arrivals ride the staged artifacts: no further stagings, no
  // further traces.
  const auto images = synthetic_batch(session.network(), 3, 6200);
  for (const auto& image : images) {
    ASSERT_TRUE(session.submit("vp?model=cold", image).get().is_ok());
  }
  EXPECT_EQ(session.counters().async_stagings, before.async_stagings + 1);
  EXPECT_EQ(session.counters().trace, before.trace + 1);
}

TEST(AsyncStaging, SubmitBlockingTimeIsBoundedByStagingCost) {
  // Measure what synchronous staging costs on this host (one frontend
  // compile + one full VP trace on resnet18 — hundreds of milliseconds).
  const auto image =
      compiler::synthetic_input(models::resnet18_cifar().input_shape(), 6300);
  InferenceSession oracle(models::resnet18_cifar());
  const auto t0 = std::chrono::steady_clock::now();
  (void)oracle.prepare(image);
  const double staging_ms = elapsed_ms(t0);

  // submit() must return long before one staging's worth of work: it only
  // enqueues. The generous bound (half the measured staging cost, floored
  // at 50 ms for fast hosts) keeps the assertion meaningful without
  // flaking under load — synchronous staging would blow well past it.
  InferenceSession session(models::resnet18_cifar());
  const auto t1 = std::chrono::steady_clock::now();
  auto pending = session.submit("vp", image);
  const double submit_ms = elapsed_ms(t1);
  EXPECT_LT(submit_ms, std::max(50.0, staging_ms / 2))
      << "submit() blocked for " << submit_ms << " ms against a staging "
      << "cost of " << staging_ms << " ms — did staging run on the caller?";
  ASSERT_TRUE(pending.get().is_ok());
  EXPECT_EQ(session.counters().async_stagings, 1u);
}

TEST(AsyncStaging, ConcurrentSubmitsShareOneStagingTask) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 3;
  const auto images =
      synthetic_batch(models::lenet5(), kThreads * kPerThread, 6400);

  InferenceSession oracle(models::lenet5());
  std::vector<runtime::ExecutionResult> expected;
  for (const auto& image : images) {
    auto r = oracle.run("vp", image);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    expected.push_back(std::move(r).value());
  }

  InferenceSession session(models::lenet5());
  std::vector<PendingResult> pending(images.size());
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < kPerThread; ++k) {
        const std::size_t i = t * kPerThread + k;
        pending[i] = session.submit("vp", images[i]);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (std::size_t i = 0; i < pending.size(); ++i) {
    auto result = pending[i].get();
    ASSERT_TRUE(result.is_ok()) << "image " << i << ": "
                                << result.status().to_string();
    EXPECT_EQ(result->output, expected[i].output) << "image " << i;
    EXPECT_EQ(result->cycles, expected[i].cycles) << "image " << i;
  }
  // However the submits raced, exactly one staging traced the VP.
  EXPECT_EQ(session.counters().trace, 1u);
  EXPECT_EQ(session.counters().async_stagings, 1u);
}

// ---------------------------------------------------------------------------
// prepare_async: staging + platform-envelope recording off the serving path
// ---------------------------------------------------------------------------

TEST(PrepareAsync, StagesArtifactsAndReplayEnvelope) {
  const auto images = synthetic_batch(models::lenet5(), 3, 6600);
  InferenceSession session(models::lenet5());
  InferenceSession cycle_accurate(models::lenet5());
  std::size_t records = 0;
  for (const std::string base : {"soc", "system_top"}) {
    const std::string spec = base + "?mode=replay";
    auto handle = session.prepare_async(spec, images[0]);
    const Status staged = handle.wait();
    ASSERT_TRUE(staged.is_ok()) << base << ": " << staged.to_string();
    // One staging per session: the second platform reuses the first one's
    // trace and only records its own envelope.
    EXPECT_EQ(session.counters().async_stagings, 1u) << base;
    EXPECT_EQ(session.counters().trace, 1u) << base;

    // The `?mode=replay` platform envelope was recorded by the staging
    // hook, not left for the first pooled batch to stall on — one record
    // per platform.
    const auto& envelopes = session.prepare(images[0]).envelopes();
    EXPECT_EQ(envelopes.platform_record_count(), ++records) << base;

    // Serving through the staged session matches the platform's own
    // cycle-accurate run bit for bit.
    std::vector<PendingResult> pending;
    for (const auto& image : images) {
      pending.push_back(session.submit(spec, image));
    }
    for (std::size_t i = 0; i < images.size(); ++i) {
      auto replayed = pending[i].get();
      const auto simulated =
          cycle_accurate.run(base + "?mode=cycle_accurate", images[i]);
      ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
      ASSERT_TRUE(simulated.is_ok()) << simulated.status().to_string();
      EXPECT_EQ(replayed->output, simulated->output)
          << base << " image " << i;
      EXPECT_EQ(replayed->cycles, simulated->cycles)
          << base << " image " << i;
    }
    // No further traces or stagings were needed to serve the batch.
    EXPECT_EQ(session.counters().trace, 1u) << base;
    EXPECT_EQ(session.counters().async_stagings, 1u) << base;

    // Re-staging an already-staged variant is an idempotent no-op.
    auto again = session.prepare_async(spec);
    EXPECT_TRUE(again.wait().is_ok()) << base;
    EXPECT_EQ(envelopes.platform_record_count(), records) << base;
    EXPECT_EQ(session.counters().async_stagings, 1u) << base;
  }
}

TEST(PrepareAsync, HandlesAreOneShotAndFailFast) {
  InferenceSession session(models::lenet5());
  auto unknown = session.prepare_async("warp_drive");
  EXPECT_TRUE(unknown.ready());
  EXPECT_EQ(unknown.wait().code(), StatusCode::kNotFound);
  EXPECT_EQ(unknown.wait().code(), StatusCode::kInvalidArgument);  // consumed
  EXPECT_EQ(session.counters().weights, 0u);  // nothing staged

  auto bad_shape =
      session.prepare_async("vp", std::vector<float>(5, 0.0f));
  EXPECT_TRUE(bad_shape.ready());
  EXPECT_EQ(bad_shape.wait().code(), StatusCode::kInvalidArgument);

  StagingHandle empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.ready());
  EXPECT_FALSE(empty.wait().is_ok());
}

TEST(PrepareAsync, SubmitsQueueBehindTheStagingLatch) {
  const auto images = synthetic_batch(models::lenet5(), 4, 6700);
  InferenceSession oracle(models::lenet5());
  InferenceSession session(models::lenet5());
  auto handle = session.prepare_async("vp", images[0]);
  // Don't wait: arrivals queue behind the staging latch immediately.
  std::vector<PendingResult> pending;
  for (const auto& image : images) {
    pending.push_back(session.submit("vp", image));
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    auto got = pending[i].get();
    const auto want = oracle.run("vp", images[i]);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    ASSERT_TRUE(want.is_ok());
    EXPECT_EQ(got->output, want->output) << "image " << i;
    EXPECT_EQ(got->cycles, want->cycles) << "image " << i;
  }
  EXPECT_TRUE(handle.wait().is_ok());
  EXPECT_EQ(session.counters().trace, 1u);
  EXPECT_EQ(session.counters().async_stagings, 1u);
}

// ---------------------------------------------------------------------------
// Session pool sizing
// ---------------------------------------------------------------------------

TEST(SessionPool, BatchHintIsClampedToTheBatchSize) {
  InferenceSession session(models::lenet5());
  const auto images = synthetic_batch(session.network(), 2, 6800);
  BatchOptions options;
  options.workers = 8;  // used to spawn 8 threads for a 2-image batch
  const auto results = session.run_batch_parallel("vp", images, options);
  ASSERT_TRUE(results.is_ok()) << results.status().to_string();
  EXPECT_EQ(session.pool_worker_count(), 2u)
      << "the pool hint must be the clamped worker count";
}

TEST(SessionPool, DefaultBatchSpawnsHardwareThreads) {
  InferenceSession session(models::lenet5());
  const auto images = synthetic_batch(session.network(), 8, 6850);
  const std::size_t hardware =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // The first pooled call is a one-image batch with default options: the
  // default is not clamped to the batch, so the pool gets every hardware
  // thread rather than one worker for the session's whole lifetime.
  ASSERT_TRUE(session.run_batch_parallel("vp", {images[0]}).is_ok());
  EXPECT_EQ(session.pool_worker_count(), hardware);

  std::vector<PendingResult> burst;
  for (const auto& image : images) burst.push_back(session.submit("vp", image));
  for (auto& pending : burst) {
    const auto result = pending.get();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  }
  EXPECT_EQ(session.pool_worker_count(), hardware) << "the size is fixed";
}

TEST(SessionPool, OneWorkerPoolStagesAndServesInFifoOrder) {
  core::FlowConfig other;
  other.weight_seed = 4242;  // same architecture, different answers
  const auto images = synthetic_batch(models::lenet5(), 4, 6870);

  InferenceSession session(models::lenet5());
  ASSERT_TRUE(
      session.run_batch_parallel("vp", {images[0]}, {.workers = 1}).is_ok());
  ASSERT_EQ(session.pool_worker_count(), 1u);
  ASSERT_TRUE(
      session.register_model("lenet5_w", models::lenet5(), other).is_ok());

  // Stage both models and queue every request before waiting on anything:
  // on one worker no task can wait on a staging it does not run itself, so
  // this only completes if each task stages what it finds unstaged.
  const std::vector<std::string> fleet = {"vp", "vp?model=lenet5_w"};
  auto staging = session.prepare_async(fleet);
  std::vector<PendingResult> pending;
  for (const auto& backend : fleet) {
    for (const auto& image : images) {
      pending.push_back(session.submit(backend, image));
    }
  }

  // A deadlock would hang the session's draining destructor, so a missed
  // deadline aborts the binary instead of returning from the test.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(300);
  const auto all_ready = [&] {
    return std::all_of(staging.begin(), staging.end(),
                       [](const StagingHandle& h) { return h.ready(); }) &&
           std::all_of(pending.begin(), pending.end(),
                       [](const PendingResult& p) { return p.ready(); });
  };
  while (!all_ready()) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "one-worker session pool deadlocked\n");
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& handle : staging) EXPECT_TRUE(handle.wait().is_ok());

  InferenceSession oracle_default(models::lenet5());
  InferenceSession oracle_other(models::lenet5(), other);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const auto& image = images[i % images.size()];
    auto got = pending[i].get();
    const auto want = i < images.size() ? oracle_default.run("vp", image)
                                        : oracle_other.run("vp", image);
    ASSERT_TRUE(got.is_ok()) << "request " << i << ": "
                             << got.status().to_string();
    ASSERT_TRUE(want.is_ok()) << want.status().to_string();
    EXPECT_EQ(got->output, want->output) << "request " << i;
    EXPECT_EQ(got->cycles, want->cycles) << "request " << i;
  }
  EXPECT_EQ(session.pool_worker_count(), 1u);
}

// ---------------------------------------------------------------------------
// Per-worker replay arenas
// ---------------------------------------------------------------------------

TEST(ReplayArenas, RepeatedReplaysReuseOneArenaBitExactly) {
  const auto images = synthetic_batch(models::lenet5(), 4, 6900);
  InferenceSession session(models::lenet5());

  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < images.size(); ++i) {
      const auto replayed = session.run("vp", images[i]);
      ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
      // The oracle: the virtual platform's own run of this image.
      const vp::VpRunResult simulated =
          vp::VirtualPlatform(session.config().nvdla)
              .run(session.loadable(), images[i]);
      EXPECT_EQ(replayed->output, simulated.output)
          << "round " << round << " image " << i;
      EXPECT_EQ(replayed->cycles, simulated.total_cycles)
          << "round " << round << " image " << i;
    }
  }
  // Image 0 was the traced image: both rounds serve it from the trace. The
  // six other (round, image) pairs each replayed once — all on a single
  // reused arena, never a rebuilt one.
  const auto& schedule = session.prepare(images[0]).replay_schedule();
  const auto& engine = schedule.engine(session.config().nvdla);
  EXPECT_EQ(engine.images_replayed(), 6u);
  EXPECT_EQ(engine.arenas_built(), 1u);
  EXPECT_EQ(session.counters().replay, 6u);
}

TEST(ReplayArenas, ConcurrentPooledReplaysCheckOutAtMostOneArenaEach) {
  const auto images = synthetic_batch(models::lenet5(), 6, 7000);
  InferenceSession session(models::lenet5());
  BatchOptions options;
  options.workers = 2;
  const auto parallel = session.run_batch_parallel("vp", images, options);
  ASSERT_TRUE(parallel.is_ok()) << parallel.status().to_string();

  InferenceSession sequential(models::lenet5());
  const auto expected = run_each(sequential, "vp", images);
  ASSERT_TRUE(expected.is_ok());
  for (std::size_t i = 0; i < images.size(); ++i) {
    EXPECT_EQ((*parallel)[i].output, (*expected)[i].output) << "image " << i;
    EXPECT_EQ((*parallel)[i].cycles, (*expected)[i].cycles) << "image " << i;
  }

  const auto& schedule = session.prepare(images[0]).replay_schedule();
  const auto& engine = schedule.engine(session.config().nvdla);
  // Image 0 was the traced image; the other five replayed across two
  // workers, bounded by the concurrency, not the image count.
  EXPECT_EQ(engine.images_replayed(), 5u);
  EXPECT_GE(engine.arenas_built(), 1u);
  EXPECT_LE(engine.arenas_built(), 2u);
}

}  // namespace
}  // namespace nvsoc
