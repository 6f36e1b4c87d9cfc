// The persistent serving engine: ThreadPool submit() semantics, the
// session-lifetime pool (exactly one pool per session), the streaming
// InferenceSession::submit() API (out-of-order collection, per-call result
// identity, StatusOr error transport, drain-on-destruction), and the
// shared immutable artifact cores (PreparedModel copies share — never
// duplicate — the weight-file/trace/program bytes).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <type_traits>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "models/models.hpp"
#include "runtime/backend_registry.hpp"
#include "runtime/backends.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/thread_pool.hpp"

namespace nvsoc {
namespace {

using runtime::BatchOptions;
using runtime::InferenceSession;
using runtime::PendingResult;
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

#if defined(__linux__)
/// Kernel thread id of the calling thread.
long current_tid() { return syscall(SYS_gettid); }

/// True while thread `tid` of this process is asleep in a blocking wait
/// (state 'S' in /proc/self/task/<tid>/stat).
bool thread_is_asleep(long tid) {
  std::ifstream stat("/proc/self/task/" + std::to_string(tid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return false;
  // "<tid> (<comm>) <state> ...": comm may itself hold spaces or
  // parentheses, so the state is the field after the last ')'.
  const std::size_t close = line.rfind(')');
  return close != std::string::npos && close + 2 < line.size() &&
         line[close + 2] == 'S';
}
#endif

// ---------------------------------------------------------------------------
// ThreadPool::submit
// ---------------------------------------------------------------------------

TEST(PoolSubmit, RunsTasksAndDeliversValues) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(futures[i].get(), i * i);
  }
}

TEST(PoolSubmit, ExceptionsTravelThroughTheFuture) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit([]() -> int { throw std::runtime_error("kaboom"); });
  EXPECT_EQ(ok.get(), 7);
  try {
    bad.get();
    FAIL() << "expected the task exception through the future";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "kaboom");
  }
}

TEST(PoolSubmit, DestructorDrainsQueuedTasks) {
  std::vector<std::future<int>> futures;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.submit([i, &ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
        return i;
      }));
    }
  }  // ~ThreadPool: every queued task must have completed, none dropped
  EXPECT_EQ(ran.load(), 16);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(futures[i].get(), i);
}

// ---------------------------------------------------------------------------
// Shared immutable artifact cores
// ---------------------------------------------------------------------------

TEST(SharedCores, PreparedModelCopiesShareNotCopyTheArtifacts) {
  InferenceSession session(models::lenet5());
  const auto& staged = session.prepared();
  const long frontend_refs = staged.frontend.use_count();
  const long tail_refs = staged.tail.use_count();

  core::PreparedModel copy = staged;
  // The copy bumped the refcounts instead of duplicating the bytes: both
  // views resolve to the very same weight-file / program / trace objects.
  EXPECT_EQ(copy.frontend.get(), staged.frontend.get());
  EXPECT_EQ(copy.tail.get(), staged.tail.get());
  EXPECT_EQ(staged.frontend.use_count(), frontend_refs + 1);
  EXPECT_EQ(staged.tail.use_count(), tail_refs + 1);
  EXPECT_EQ(&copy.weights(), &staged.weights());
  EXPECT_EQ(&copy.vp().weights, &staged.vp().weights);
  EXPECT_EQ(&copy.program(), &staged.program());
  EXPECT_EQ(copy.vp().weights.chunks.front().bytes.data(),
            staged.vp().weights.chunks.front().bytes.data());
  // The per-input surface IS copied — it is the worker-private part.
  EXPECT_NE(copy.input.data(), staged.input.data());
}

TEST(SharedCores, BatchWorkersLeaveNoExtraCoreReferencesBehind) {
  InferenceSession session(models::lenet5());
  const auto images = synthetic_batch(session.network(), 6, 4200);
  BatchOptions options;
  options.workers = 3;
  const auto results = session.run_batch_parallel("soc", images, options);
  ASSERT_TRUE(results.is_ok()) << results.status().to_string();
  // Every worker snapshot shared the session cores and is reclaimed once
  // its task object dies: only the model's staged state and the snapshot
  // taken here hold them then. The last worker may still be tearing its
  // task down when the batch call returns, so allow the refcount a moment
  // to settle.
  const core::PreparedModel snapshot = session.prepared();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((snapshot.frontend.use_count() > 2 ||
          snapshot.tail.use_count() > 2) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(snapshot.frontend.use_count(), 2);
  EXPECT_EQ(snapshot.tail.use_count(), 2);
}

TEST(SharedCores, RepackedCopyStillPatchesThePreloadImageView) {
  InferenceSession session(models::lenet5());
  const auto images = synthetic_batch(session.network(), 2, 4300);
  (void)session.prepare(images[0]);
  const auto& repacked = session.prepare(images[1]);
  ASSERT_FALSE(repacked.vp_matches_input);
  const auto patched = repacked.preload_weight_file();
  const auto& base = repacked.vp().weights;
  // Same chunk layout, but the input-surface bytes now describe image 1.
  ASSERT_EQ(patched.chunks.size(), base.chunks.size());
  EXPECT_EQ(patched.total_bytes(), base.total_bytes());
  bool differs = false;
  for (std::size_t c = 0; c < patched.chunks.size(); ++c) {
    differs = differs || patched.chunks[c].bytes != base.chunks[c].bytes;
  }
  EXPECT_TRUE(differs) << "patched preload image should differ from the "
                          "traced image's capture";
}

// ---------------------------------------------------------------------------
// Session-lifetime pool
// ---------------------------------------------------------------------------

TEST(SessionPool, ExactlyOnePoolPerSessionLifetime) {
  InferenceSession session(models::lenet5());
  const auto images = synthetic_batch(session.network(), 4, 4400);
  const std::uint64_t before = ThreadPool::total_created();

  BatchOptions options;
  options.workers = 2;
  ASSERT_TRUE(session.run_batch_parallel("vp", images, options).is_ok());
  ASSERT_TRUE(session.run_batch_parallel("vp", images, options).is_ok());
  auto pending = session.submit("vp", images[2]);
  ASSERT_TRUE(pending.get().is_ok());
  ASSERT_TRUE(session.run_batch_parallel("soc", images, options).is_ok());

  EXPECT_EQ(ThreadPool::total_created() - before, 1u)
      << "parallel batches and submits must reuse one session pool";
}

// ---------------------------------------------------------------------------
// InferenceSession::submit
// ---------------------------------------------------------------------------

TEST(Submit, OutOfOrderCollectionKeepsPerCallIdentity) {
  const auto images = synthetic_batch(models::lenet5(), 6, 4500);

  // Ground truth from a sequential session.
  InferenceSession sequential(models::lenet5());
  std::vector<runtime::ExecutionResult> expected;
  for (const auto& image : images) {
    auto r = sequential.run("soc", image);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    expected.push_back(std::move(r).value());
  }

  InferenceSession session(models::lenet5());
  std::vector<PendingResult> pending;
  for (const auto& image : images) {
    pending.push_back(session.submit("soc", image));
  }
  // Collect back to front: completion order must not matter, each handle
  // stays bound to the image it was submitted with.
  for (std::size_t i = pending.size(); i-- > 0;) {
    auto result = pending[i].get();
    ASSERT_TRUE(result.is_ok()) << "image " << i << ": "
                                << result.status().to_string();
    EXPECT_EQ(result->output, expected[i].output) << "image " << i;
    EXPECT_EQ(result->cycles, expected[i].cycles) << "image " << i;
    EXPECT_EQ(result->predicted_class, expected[i].predicted_class);
  }
  // Streaming arrivals shared one staged trace.
  EXPECT_EQ(session.counters().trace, 1u);
}

TEST(Submit, MatchesRunOnEveryBackend) {
  const auto images = synthetic_batch(models::lenet5(), 3, 4600);
  for (const std::string backend :
       {"soc", "system_top", "vp", "linux_baseline"}) {
    InferenceSession streaming(models::lenet5());
    InferenceSession oracle(models::lenet5());
    std::vector<PendingResult> pending;
    for (const auto& image : images) {
      pending.push_back(streaming.submit(backend, image));
    }
    for (std::size_t i = 0; i < images.size(); ++i) {
      auto got = pending[i].get();
      const auto want = oracle.run(backend, images[i]);
      ASSERT_TRUE(got.is_ok()) << backend << ": " << got.status().to_string();
      ASSERT_TRUE(want.is_ok()) << backend;
      EXPECT_EQ(got->output, want->output) << backend << " image " << i;
      EXPECT_EQ(got->cycles, want->cycles) << backend << " image " << i;
    }
  }
}

TEST(Submit, TaskFailuresComeBackAsStatusNotExceptions) {
  InferenceSession session(models::lenet5());
  const auto good = synthetic_batch(session.network(), 1, 4700).front();
  ASSERT_TRUE(session.submit("soc", good).get().is_ok());

  // Staged session + bad shape: the failure happens inside the pooled task
  // (repack of a private snapshot) and must surface as a Status.
  const std::vector<float> bad(7, 0.0f);
  auto pending = session.submit("soc", bad);
  const auto result = pending.get();
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  // The session (and its staged artifacts) survived the poisoned task.
  EXPECT_TRUE(session.submit("soc", good).get().is_ok());
  EXPECT_EQ(session.counters().trace, 1u);
}

TEST(Submit, UnknownBackendIsImmediatelyReady) {
  InferenceSession session(models::lenet5());
  auto pending = session.submit("warp_drive");
  EXPECT_TRUE(pending.ready());
  const auto result = pending.get();
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session.counters().weights, 0u);  // nothing staged
}

TEST(Submit, ResultsAreOneShot) {
  InferenceSession session(models::lenet5());
  auto pending = session.submit("vp");
  ASSERT_TRUE(pending.get().is_ok());
  const auto again = pending.get();
  ASSERT_FALSE(again.is_ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);

  PendingResult empty;
  EXPECT_FALSE(empty.ready());
  EXPECT_EQ(empty.get().status().code(), StatusCode::kInvalidArgument);
}

// Handles are move-only: copies would silently share the one-shot state.
static_assert(!std::is_copy_constructible_v<PendingResult>);
static_assert(!std::is_copy_assignable_v<PendingResult>);
static_assert(std::is_move_constructible_v<PendingResult>);
static_assert(std::is_move_assignable_v<PendingResult>);

/// Blocks every run() until the shared gate opens — makes "the inference is
/// still in flight" a certainty instead of a race in the hook tests below.
class GatedBackend final : public runtime::ExecutionBackend {
 public:
  explicit GatedBackend(std::shared_future<void> gate)
      : gate_(std::move(gate)) {}
  std::string_view name() const override { return "gated"; }
  std::string_view description() const override {
    return "waits for the test's gate, then echoes the input";
  }
  StatusOr<runtime::ExecutionResult> run(
      const core::PreparedModel& prepared,
      const runtime::RunOptions&) const override {
    gate_.wait();
    runtime::ExecutionResult result;
    result.backend = "gated";
    result.output = prepared.input;
    return result;
  }

 private:
  std::shared_future<void> gate_;
};

TEST(Submit, CancelReadyRevokesTheCompletionHook) {
  std::promise<void> release;
  runtime::BackendRegistry registry;
  ASSERT_TRUE(
      registry.add(std::make_unique<GatedBackend>(release.get_future().share()))
          .is_ok());
  InferenceSession session(models::lenet5(), {}, &registry);

  std::atomic<int> fired{0};
  auto pending = session.submit("gated");
  pending.on_ready([&fired] { fired.fetch_add(1); });
  // The task is still parked on the gate, so the hook is still registered;
  // after cancel_ready returns it must never run — even though the result
  // itself still arrives.
  pending.cancel_ready();
  release.set_value();
  const auto result = pending.get();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(fired.load(), 0);

  // cancel_ready on an empty/consumed handle is a harmless no-op.
  pending.cancel_ready();
  PendingResult empty;
  empty.cancel_ready();
}

// The drain contract (README "Shutdown"): destroying the session drains
// in-flight work, so every PendingResult handed out completes — including
// requests still queued behind a model's staging when the destructor
// runs. Staging is a task on the same FIFO pool, queued ahead of the
// requests that wait for it, so the drain runs it first.
TEST(Submit, SessionDestructionDrainsInFlightWork) {
  const auto images = synthetic_batch(models::lenet5(), 5, 4800);
  std::vector<runtime::ExecutionResult> expected;
  {
    InferenceSession oracle(models::lenet5());
    for (const auto& image : images) {
      auto r = oracle.run("vp", image);
      ASSERT_TRUE(r.is_ok());
      expected.push_back(std::move(r).value());
    }
  }

  std::promise<void> gate;
  runtime::BackendRegistry registry;
  ASSERT_TRUE(registry.add(std::make_unique<runtime::VpBackend>()).is_ok());
  ASSERT_TRUE(registry
                  .add(std::make_unique<GatedBackend>(
                      gate.get_future().share()))
                  .is_ok());
  std::vector<PendingResult> parked;
  std::vector<PendingResult> pending;
  std::atomic<bool> tearing_down{false};
  // Set by the opener: whether it saw the destructor blocked in its drain
  // before opening the gate.
  bool opened_during_drain = false;
  std::thread opener;
  {
    InferenceSession session(models::lenet5(), {}, &registry);
    ASSERT_TRUE(session.register_model("lenet5_b", models::lenet5()).is_ok());
    // Stage the default model and pin the pool at exactly two workers,
    // then park both on the gate.
    ASSERT_TRUE(session
                    .run_batch_parallel("vp", {images[0], images[1]},
                                        {.workers = 2})
                    .is_ok());
    for (int i = 0; i < 2; ++i) parked.push_back(session.submit("gated", images[i]));
    // lenet5_b is not staged yet: its requests queue behind the parked
    // workers, and the first to run stages it for the others.
    for (const auto& image : images) {
      pending.push_back(session.submit("vp?model=lenet5_b", image));
    }
    // Nothing can run until the gate opens, and the gate opens only once
    // the destructor is draining. After tearing_down is set, this thread's
    // first blocking wait is inside ~InferenceSession (nothing before it
    // can block while the workers are parked), so the opener waits for
    // this thread to fall asleep. Without /proc the ordering is
    // best-effort: a timer that this thread normally outruns.
#if defined(__linux__)
    const long destroyer = current_tid();
    opener = std::thread([&, destroyer] {
      while (!tearing_down.load()) std::this_thread::yield();
      const auto limit =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!thread_is_asleep(destroyer) &&
             std::chrono::steady_clock::now() < limit) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      opened_during_drain = thread_is_asleep(destroyer);
      gate.set_value();
    });
#else
    opener = std::thread([&] {
      while (!tearing_down.load()) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      opened_during_drain = true;
      gate.set_value();
    });
#endif
    tearing_down.store(true);
  }  // ~InferenceSession drains the pool before any member dies
  opener.join();
  EXPECT_TRUE(opened_during_drain)
      << "the gate opened before the destructor was seen draining, so the "
         "queued-behind-staging case was not exercised";
  for (std::size_t i = 0; i < parked.size(); ++i) {
    auto result = parked[i].get();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->output, images[i]);
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    auto result = pending[i].get();
    ASSERT_TRUE(result.is_ok()) << "image " << i << ": "
                                << result.status().to_string();
    EXPECT_EQ(result->output, expected[i].output) << "image " << i;
    EXPECT_EQ(result->cycles, expected[i].cycles) << "image " << i;
  }
}

}  // namespace
}  // namespace nvsoc
