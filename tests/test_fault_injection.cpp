// The fault-injection subsystem and the hardened serving path: seeded
// deterministic fault plans, the typed-Status taxonomy each fault class
// surfaces on each backend, integrity canaries (replay-schedule checksum +
// golden-image probe) with quarantine and bit-exact restage, bounded
// retry, session/server deadlines, overload shedding, client timeouts,
// and a chaos run that keeps the TCP server up under a standing fault
// plan. Runs under the ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/bare_metal_flow.hpp"
#include "fault/fault.hpp"
#include "gate_backend.hpp"
#include "models/models.hpp"
#include "runtime/backend_registry.hpp"
#include "runtime/inference_session.hpp"
#include "server/client.hpp"
#include "server/inference_server.hpp"

namespace nvsoc {
namespace {

using runtime::InferenceSession;
using server::Client;
using server::InferenceServer;
using server::Request;
using server::Response;
using server::ServerOptions;

std::vector<float> synthetic_image(std::uint64_t seed) {
  return compiler::synthetic_input(models::lenet5().input_shape(), seed);
}

/// A running server over its own session + loop thread, torn down in order.
class ServerFixture {
 public:
  explicit ServerFixture(ServerOptions options = {},
                         const runtime::BackendRegistry* registry = nullptr)
      : session_(models::lenet5(), {}, registry),
        server_(session_, options) {
    const Status started = server_.start();
    if (!started.is_ok()) throw std::runtime_error(started.to_string());
    thread_ = std::thread([this] { server_.run(); });
  }

  ~ServerFixture() {
    server_.shutdown();
    thread_.join();
  }

  InferenceSession& session() { return session_; }
  InferenceServer& server() { return server_; }
  std::uint16_t port() const { return server_.port(); }

  Client connect() {
    Client client;
    const Status connected = client.connect(server_.port());
    EXPECT_TRUE(connected.is_ok()) << connected.to_string();
    return client;
  }

 private:
  InferenceSession session_;
  InferenceServer server_;
  std::thread thread_;
};

/// Sleeps image[0] milliseconds, echoes the image — a deterministic slow
/// backend for deadline/shedding tests (same shape as test_server.cpp's).
class SleepyBackend final : public runtime::ExecutionBackend {
 public:
  std::string_view name() const override { return "sleepy"; }
  std::string_view description() const override {
    return "sleeps image[0] milliseconds, echoes the image back";
  }
  StatusOr<runtime::ExecutionResult> run(
      const core::PreparedModel& prepared,
      const runtime::RunOptions&) const override {
    const double ms = prepared.input.empty() ? 0.0 : prepared.input.front();
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long>(ms * 1000)));
    runtime::ExecutionResult result;
    result.backend = "sleepy";
    result.output = prepared.input;
    return result;
  }
};

/// The replay-mode standalone SoC with an armable one-shot kDataLoss: a
/// deterministic stand-in for a corruption detection on the serving path.
class DataLossOnceBackend final : public runtime::ExecutionBackend {
 public:
  std::string_view name() const override { return "soc_dataloss"; }
  std::string_view description() const override {
    return "soc replay; an armed run reports kDataLoss instead";
  }
  StatusOr<runtime::ExecutionResult> run(
      const core::PreparedModel& prepared,
      const runtime::RunOptions& options) const override {
    if (armed.exchange(false)) {
      return Status(StatusCode::kDataLoss, "injected corruption detection");
    }
    return soc().run(prepared, options);
  }
  void stage(const core::PreparedModel& prepared,
             const runtime::RunOptions& options) const override {
    soc().stage(prepared, options);
  }

  mutable std::atomic<bool> armed{false};

 private:
  static const runtime::ExecutionBackend& soc() {
    return **runtime::BackendRegistry::global().find("soc");
  }
};

// ---------------------------------------------------------------------------
// fault::Plan / fault::Injector
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesAndRoundTripsThroughCanonicalSpelling) {
  const auto plan =
      fault::Plan::parse("csb_timeout:0.5+flip:1e-3+seed:9");
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  EXPECT_DOUBLE_EQ(plan->at(fault::Kind::kCsbTimeout), 0.5);
  EXPECT_DOUBLE_EQ(plan->at(fault::Kind::kWeightFlip), 1e-3);
  EXPECT_DOUBLE_EQ(plan->at(fault::Kind::kDbbError), 0.0);
  EXPECT_EQ(plan->seed, 9u);
  EXPECT_TRUE(plan->any());

  const auto again = fault::Plan::parse(plan->to_string());
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  EXPECT_EQ(again->rate, plan->rate);
  EXPECT_EQ(again->seed, plan->seed);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  for (const char* bad : {"warp:0.5", "flip:1.5", "flip:-0.1", "flip:zap",
                          "flip", "seed:zap", "flip:0.5+"}) {
    const auto plan = fault::Plan::parse(bad);
    ASSERT_FALSE(plan.is_ok()) << "accepted '" << bad << "'";
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(FaultInjector, SameSeedSameDecisions) {
  const auto plan = fault::Plan::parse("csb_error:0.3+dbb_error:0.7+seed:42");
  ASSERT_TRUE(plan.is_ok());
  fault::Injector a(*plan);
  fault::Injector b(*plan);
  bool any_fired = false;
  for (int i = 0; i < 256; ++i) {
    const bool fa = a.fire(fault::Kind::kCsbError);
    EXPECT_EQ(fa, b.fire(fault::Kind::kCsbError)) << "decision " << i;
    EXPECT_EQ(a.fire(fault::Kind::kDbbError),
              b.fire(fault::Kind::kDbbError))
        << "decision " << i;
    any_fired = any_fired || fa;
  }
  EXPECT_TRUE(any_fired);  // a 0.3 rate over 256 decisions must fire
  EXPECT_EQ(a.injected(fault::Kind::kCsbError),
            b.injected(fault::Kind::kCsbError));
  EXPECT_EQ(a.total_injected(), b.total_injected());

  // A different seed reshuffles the stream.
  auto reseeded = *plan;
  reseeded.seed = 43;
  fault::Injector c(reseeded);
  bool differed = false;
  fault::Injector a2(*plan);
  for (int i = 0; i < 256 && !differed; ++i) {
    differed = a2.fire(fault::Kind::kCsbError) !=
               c.fire(fault::Kind::kCsbError);
  }
  EXPECT_TRUE(differed);
}

TEST(FaultInjector, CorruptionSitesAreDeterministicAndInRange) {
  const auto plan = fault::Plan::parse("flip:0.5+seed:7");
  ASSERT_TRUE(plan.is_ok());
  constexpr std::uint64_t kRegion = 4096;
  fault::Injector a(*plan);
  fault::Injector b(*plan);
  int fired = 0;
  for (int i = 0; i < 64; ++i) {
    const auto ca = a.fire_corruption(kRegion);
    const auto cb = b.fire_corruption(kRegion);
    ASSERT_EQ(ca.has_value(), cb.has_value()) << "decision " << i;
    if (!ca) continue;
    ++fired;
    EXPECT_EQ(ca->offset, cb->offset);
    EXPECT_EQ(ca->bit, cb->bit);
    EXPECT_LT(ca->offset, kRegion);
    EXPECT_LT(ca->bit, 8);
  }
  EXPECT_GT(fired, 0);
}

// ---------------------------------------------------------------------------
// Typed Status per fault class, across the backends
// ---------------------------------------------------------------------------

TEST(FaultTaxonomy, SocCycleAccurateSurfacesTypedStatuses) {
  const auto image = synthetic_image(9100);
  struct Case {
    const char* spec;
    StatusCode expect;
  };
  // Rate 1 makes the very first serving execution fire; each spec carries
  // its own seed, so repeated test runs see the same global-registry
  // variant in the same injector state modulo the one decision consumed.
  const Case cases[] = {
      {"soc?mode=cycle_accurate&fault=flip:1+seed:101",
       StatusCode::kDataLoss},
      {"soc?mode=cycle_accurate&fault=stall:1+seed:102",
       StatusCode::kDeadlineExceeded},
      {"soc?mode=cycle_accurate&fault=csb_timeout:1+seed:103",
       StatusCode::kDeadlineExceeded},
      {"soc?mode=cycle_accurate&fault=csb_error:1+seed:104",
       StatusCode::kUnavailable},
      {"soc?mode=cycle_accurate&fault=dbb_error:1+seed:105",
       StatusCode::kUnavailable},
  };
  InferenceSession session(models::lenet5());
  ASSERT_TRUE(session.run("soc?mode=cycle_accurate", image).is_ok());
  for (const auto& c : cases) {
    const auto result = session.run(c.spec, image);
    ASSERT_FALSE(result.is_ok()) << c.spec << " did not fail";
    EXPECT_EQ(result.status().code(), c.expect)
        << c.spec << " -> " << result.status().to_string();
  }
}

TEST(FaultTaxonomy, SystemTopDetectsWeightCorruptionBeforeServing) {
  const auto image = synthetic_image(9200);
  InferenceSession session(models::lenet5());
  // The flip lands in the DDR image after the PS preload and the verify
  // pass refuses the run — kDataLoss before any wrong answer can ship.
  const auto result = session.run(
      "system_top?mode=cycle_accurate&fault=flip:1+seed:111", image);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(result.status().to_string().find("corruption"),
            std::string::npos);
}

TEST(FaultTaxonomy, VpFullRunSurfacesCsbFaults) {
  const auto image_a = synthetic_image(9300);
  const auto image_b = synthetic_image(9301);
  InferenceSession session(models::lenet5());
  // A prepared model without a recorded schedule re-simulates a repacked
  // image on the full VP — the path where the engine-level CSB faults live.
  core::PreparedModel prepared = session.prepare(image_a);
  prepared.replay.reset();
  prepared.input = image_b;
  prepared.vp_matches_input = false;
  runtime::RunOptions options;
  options.flow = session.config();
  const auto& registry = runtime::BackendRegistry::global();

  const auto timeout = (*registry.find("vp?fault=csb_timeout:1+seed:121"))
                           ->run(prepared, options);
  ASSERT_FALSE(timeout.is_ok());
  EXPECT_EQ(timeout.status().code(), StatusCode::kDeadlineExceeded);

  const auto error = (*registry.find("vp?fault=csb_error:1+seed:122"))
                         ->run(prepared, options);
  ASSERT_FALSE(error.is_ok());
  EXPECT_EQ(error.status().code(), StatusCode::kUnavailable);
}

TEST(FaultTaxonomy, LinuxBaselineReplaySurfacesInjectedFailure) {
  const auto image_a = synthetic_image(9400);
  const auto image_b = synthetic_image(9401);
  InferenceSession session(models::lenet5());
  ASSERT_TRUE(session.run("linux_baseline", image_a).is_ok());
  // The repacked image replays the recorded schedule; the injected
  // replay-engine failure is transient (a retry may succeed).
  const auto result =
      session.run("linux_baseline?fault=replay:1+seed:131", image_b);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// Integrity canaries: checksum + golden probe, quarantine, bit-exact restage
// ---------------------------------------------------------------------------

TEST(Canary, ChecksumDetectsSilentOpCorruptionAndRestagesBitExact) {
  const auto image = synthetic_image(9500);
  InferenceSession session(models::lenet5());
  const auto clean = session.run("vp", image);
  ASSERT_TRUE(clean.is_ok()) << clean.status().to_string();

  // A healthy schedule passes both canaries (and freezes the golden).
  ASSERT_TRUE(session.probe_golden("vp").is_ok());

  // Flip one bit of the recorded ops in memory, behind the session's back.
  const core::ReplaySchedule& schedule = session.prepared().replay_schedule();
  EXPECT_TRUE(schedule.ops_intact());
  auto& ops = const_cast<core::ReplaySchedule&>(schedule).ops;
  ASSERT_FALSE(ops.empty());
  reinterpret_cast<std::uint8_t*>(ops.data())[0] ^= 0x01;
  EXPECT_FALSE(schedule.ops_intact());

  // The probe detects the corruption, quarantines the schedule and reports
  // kDataLoss instead of ever serving from it.
  const Status probed = session.probe_golden("vp");
  ASSERT_FALSE(probed.is_ok());
  EXPECT_EQ(probed.code(), StatusCode::kDataLoss);
  EXPECT_NE(probed.to_string().find("checksum"), std::string::npos);
  const auto robust = session.robustness();
  EXPECT_GE(robust.quarantines, 1u);
  EXPECT_GE(robust.data_loss, 1u);

  // The next request restages transparently and stays bit-exact.
  const auto restaged = session.run("vp", image);
  ASSERT_TRUE(restaged.is_ok()) << restaged.status().to_string();
  EXPECT_EQ(restaged->output, clean->output);
  // ...and a fresh probe passes again against the frozen golden output.
  EXPECT_TRUE(session.probe_golden("vp").is_ok());
}

TEST(Canary, QuarantinesDropTheSocEnvelopeAndRestageRecordsItAgain) {
  const auto image = synthetic_image(9550);
  InferenceSession session(models::lenet5());
  const auto clean = session.run("soc", image);
  ASSERT_TRUE(clean.is_ok()) << clean.status().to_string();
  ASSERT_TRUE(session.probe_golden("soc").is_ok());  // freezes the golden
  EXPECT_EQ(session.counters().envelopes, 1u);

  // Checksum canary: the probe quarantines, restages inside its own run,
  // and records the envelope afresh instead of reusing the dropped one.
  {
    const core::ReplaySchedule& schedule =
        session.prepared().replay_schedule();
    auto& ops = const_cast<core::ReplaySchedule&>(schedule).ops;
    ASSERT_FALSE(ops.empty());
    reinterpret_cast<std::uint8_t*>(ops.data())[0] ^= 0x01;
  }
  const Status checksum = session.probe_golden("soc");
  EXPECT_EQ(checksum.code(), StatusCode::kDataLoss);
  EXPECT_NE(checksum.to_string().find("checksum"), std::string::npos);
  EXPECT_EQ(session.counters().envelopes, 2u);

  // Golden canary: corrupt a conv op's packed weights, which the ops
  // checksum does not cover, so only the probe's output comparison sees it.
  {
    const core::ReplaySchedule& schedule =
        session.prepared().replay_schedule();
    const auto conv = std::find_if(
        schedule.ops.begin(), schedule.ops.end(),
        [](const nvdla::ReplayOp& op) { return op.packed_weights != nullptr; });
    ASSERT_NE(conv, schedule.ops.end());
    auto& pack = const_cast<nvdla::PackedConvWeights&>(*conv->packed_weights);
    for (auto& weight : pack.krsc) weight = static_cast<std::int8_t>(~weight);
    EXPECT_TRUE(schedule.ops_intact());
  }
  const Status golden = session.probe_golden("soc");
  EXPECT_EQ(golden.code(), StatusCode::kDataLoss);
  EXPECT_NE(golden.to_string().find("golden"), std::string::npos);
  EXPECT_GE(session.robustness().quarantines, 2u);

  // This quarantine landed after the probe's run: the next request
  // restages, records the envelope again, and answers bit-exactly.
  const auto restaged = session.run("soc", image);
  ASSERT_TRUE(restaged.is_ok()) << restaged.status().to_string();
  EXPECT_EQ(restaged->output, clean->output);
  EXPECT_EQ(restaged->cycles, clean->cycles);
  EXPECT_EQ(session.counters().envelopes, 3u);
  EXPECT_TRUE(session.probe_golden("soc").is_ok());
}

TEST(Canary, RequestQueuedBehindAQuarantineRestagesFromTheFrontend) {
  auto owned = std::make_unique<DataLossOnceBackend>();
  DataLossOnceBackend& backend = *owned;
  auto owned_gate = std::make_unique<GateBackend>();
  GateBackend& gate = *owned_gate;
  runtime::BackendRegistry registry;
  ASSERT_TRUE(registry.add(std::move(owned)).is_ok());
  ASSERT_TRUE(registry.add(std::move(owned_gate)).is_ok());
  const auto image = synthetic_image(9560);
  InferenceSession session(models::lenet5(), {}, &registry);

  // One worker: the pool runs its tasks strictly in FIFO order.
  runtime::BatchOptions one_worker;
  one_worker.workers = 1;
  const auto clean =
      session.run_batch_parallel("soc_dataloss", {image}, one_worker);
  ASSERT_TRUE(clean.is_ok()) << clean.status().to_string();
  ASSERT_EQ(session.pool_worker_count(), 1u);
  EXPECT_EQ(session.counters().envelopes, 1u);

  // Queue, behind a task holding the worker: the armed request, then —
  // after a budget eviction, which keeps the trace core and its envelope —
  // a second request. Submitting stages nothing; each task stages what it
  // finds unstaged when it runs.
  auto entered = gate.entered.get_future();
  auto blocker = session.submit("gate", image);
  entered.wait();
  backend.armed = true;
  auto failing = session.submit("soc_dataloss", image);
  session.set_replay_budget_bytes(1);
  EXPECT_EQ(session.counters().evictions, 1u);
  session.set_replay_budget_bytes(0);
  auto queued = session.submit("soc_dataloss", image);
  EXPECT_EQ(session.counters().async_stagings, 1u);
  for (const auto& row : session.variant_stats()) EXPECT_FALSE(row.staged);
  gate.open.set_value();
  ASSERT_TRUE(blocker.get().is_ok());

  // The armed request restages from the kept trace core (its envelope
  // rides along), then fails and quarantines the model.
  const auto failed = failing.get();
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(session.robustness().quarantines, 1u);

  // The request queued behind the quarantine stages from the frontend: a
  // fresh trace core, whose envelope it records afresh instead of serving
  // the dropped one.
  const auto restaged = queued.get();
  ASSERT_TRUE(restaged.is_ok()) << restaged.status().to_string();
  EXPECT_EQ(restaged->output, clean->front().output);
  EXPECT_EQ(restaged->cycles, clean->front().cycles);
  EXPECT_EQ(session.counters().async_stagings, 3u);
  EXPECT_EQ(session.counters().trace, 3u);
  EXPECT_EQ(session.counters().weights, 1u);
  EXPECT_EQ(session.counters().envelopes, 2u);

  // It installed what it staged, so the next request replays without
  // tracing or recording again.
  const auto next = session.run("soc_dataloss", image);
  ASSERT_TRUE(next.is_ok()) << next.status().to_string();
  EXPECT_EQ(next->output, clean->front().output);
  EXPECT_EQ(next->cycles, clean->front().cycles);
  EXPECT_EQ(session.counters().async_stagings, 3u);
  EXPECT_EQ(session.counters().trace, 3u);
  EXPECT_EQ(session.counters().envelopes, 2u);
}

TEST(Retry, WeightFlipQuarantinesRestagesAndServesBitExact) {
  const auto image_a = synthetic_image(9599);
  const auto image = synthetic_image(9600);
  InferenceSession oracle(models::lenet5());
  const auto expected = oracle.run("vp", image);
  ASSERT_TRUE(expected.is_ok()) << expected.status().to_string();

  InferenceSession session(models::lenet5());
  ASSERT_TRUE(session.set_fault_plan("flip:1+seed:17").is_ok());
  session.set_retry_policy({/*max_attempts=*/2});

  // Stage with a different image first: the target image then takes the
  // repack fast path, whose functional result is a replay — the path the
  // armed flip corrupts. (The staging run itself serves straight from its
  // own trace, so it consumes no injector decisions.)
  ASSERT_TRUE(session.submit("vp", image_a).get().is_ok());

  // Attempt 1 replays a corrupted arena -> the checkout gate reports
  // kDataLoss -> quarantine; attempt 2 restages on the target image, serves
  // from that trace and must match the fault-free oracle bit for bit.
  auto pending = session.submit("vp", image);
  auto result = pending.get();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->output, expected->output);

  const auto robust = session.robustness();
  EXPECT_GE(robust.data_loss, 1u);
  EXPECT_GE(robust.quarantines, 1u);
  EXPECT_GE(robust.restages, 1u);
  EXPECT_GE(robust.retries, 1u);
  ASSERT_NE(session.fault_injector(), nullptr);
  EXPECT_GE(session.fault_injector()->total_injected(), 1u);

  // run() takes the same path and honours the same policy: image_a replays
  // the schedule the retry above installed, is flipped, and restages on
  // image_a; then the target image's flipped replay is quarantined and
  // retried once.
  ASSERT_TRUE(session.run("vp", image_a).is_ok());
  const std::uint64_t retries = session.robustness().retries;
  const auto ran = session.run("vp", image);
  ASSERT_TRUE(ran.is_ok()) << ran.status().to_string();
  EXPECT_EQ(ran->output, expected->output);
  EXPECT_EQ(session.robustness().retries, retries + 1);
}

TEST(Retry, DataLossRetryRestagesThroughTheModelLatchAndInstalls) {
  auto owned = std::make_unique<DataLossOnceBackend>();
  DataLossOnceBackend& backend = *owned;
  runtime::BackendRegistry registry;
  ASSERT_TRUE(registry.add(std::move(owned)).is_ok());
  const auto image = synthetic_image(9650);
  InferenceSession session(models::lenet5(), {}, &registry);
  session.set_retry_policy({/*max_attempts=*/2});

  runtime::BatchOptions one_worker;
  one_worker.workers = 1;
  const auto clean =
      session.run_batch_parallel("soc_dataloss", {image}, one_worker);
  ASSERT_TRUE(clean.is_ok()) << clean.status().to_string();
  ASSERT_EQ(session.pool_worker_count(), 1u);
  EXPECT_EQ(session.counters().trace, 1u);
  EXPECT_EQ(session.counters().envelopes, 1u);

  // Attempt 1 reports kDataLoss and quarantines the model. On the one
  // worker the retry stages the model itself, through its latch, and
  // installs the schedule it records.
  backend.armed = true;
  const auto retried = session.run("soc_dataloss", image);
  ASSERT_TRUE(retried.is_ok()) << retried.status().to_string();
  EXPECT_EQ(retried->output, clean->front().output);
  EXPECT_EQ(retried->cycles, clean->front().cycles);
  const auto robust = session.robustness();
  EXPECT_EQ(robust.data_loss, 1u);
  EXPECT_EQ(robust.quarantines, 1u);
  EXPECT_EQ(robust.retries, 1u);
  EXPECT_EQ(robust.restages, 1u);
  EXPECT_EQ(session.counters().trace, 2u);
  EXPECT_EQ(session.counters().envelopes, 2u);

  // The next request replays that schedule: no third trace, no third
  // envelope, and the answer matches the cycle-accurate oracle.
  const auto other = synthetic_image(9651);
  InferenceSession oracle(models::lenet5());
  const auto expected =
      oracle.run("soc?mode=cycle_accurate&decode_cache=off", other);
  ASSERT_TRUE(expected.is_ok()) << expected.status().to_string();
  const auto next = session.run("soc_dataloss", other);
  ASSERT_TRUE(next.is_ok()) << next.status().to_string();
  EXPECT_EQ(next->output, expected->output);
  EXPECT_EQ(next->cycles, expected->cycles);
  EXPECT_EQ(session.counters().trace, 2u);
  EXPECT_EQ(session.counters().envelopes, 2u);
  EXPECT_EQ(session.robustness().restages, 1u);
}

TEST(Retry, InjectedStagingFailureIsTypedOnEveryAttempt) {
  const auto image = synthetic_image(9700);
  {
    // Without retry the injected staging failure surfaces as typed
    // kUnavailable — never a hang, never an assert.
    InferenceSession session(models::lenet5());
    ASSERT_TRUE(session.set_fault_plan("staging:1+seed:23").is_ok());
    auto result = session.submit("vp", image).get();
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
    EXPECT_GE(session.robustness().staging_faults, 1u);
  }
  {
    // With retry, the retry stages through the same path, and under
    // `staging:1` every staging fails: both attempts answer typed
    // kUnavailable and nothing is traced.
    InferenceSession session(models::lenet5());
    ASSERT_TRUE(session.set_fault_plan("staging:1+seed:24").is_ok());
    session.set_retry_policy({/*max_attempts=*/2});
    auto result = session.submit("vp", image).get();
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
    const auto robust = session.robustness();
    EXPECT_EQ(robust.staging_faults, 2u);
    EXPECT_EQ(robust.retries, 1u);
    EXPECT_EQ(robust.restages, 0u);
    EXPECT_EQ(session.counters().trace, 0u);
  }
}

/// Graceful degradation, deterministically: a standing replay/flip plan
/// under bounded retry, served by one pool worker one request at a time,
/// so every per-kind decision stream is consumed in one fixed order and
/// the number of requests that end OK is a pinned fact of the plan. A
/// retry path that stops converging (a faulted request burns one attempt
/// and fails) lowers that count. Each request carries a fresh image, so
/// every one but the first (which stages, and is served from its trace)
/// takes the repack->replay path where the armed faults live.
TEST(Degraded, StandingFaultPlanConvergesToAPinnedOkCount) {
  constexpr std::size_t kRequests = 32;
  // With this seed every faulted request converges within its three
  // attempts (six faults fire, each costing one retry).
  constexpr std::size_t kPinnedOk = kRequests;
  std::vector<std::vector<float>> images;
  std::vector<std::vector<float>> expected;
  {
    InferenceSession oracle(models::lenet5());
    for (std::size_t i = 0; i < kRequests; ++i) {
      images.push_back(synthetic_image(9900 + i));
      auto result = oracle.run("vp", images.back());
      ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      expected.push_back(std::move(result)->output);
    }
  }

  InferenceSession session(models::lenet5());
  ASSERT_TRUE(session.set_fault_plan("replay:0.15+flip:0.05+seed:77").is_ok());
  session.set_retry_policy({/*max_attempts=*/3});
  runtime::BatchOptions one_worker;
  one_worker.workers = 1;

  std::size_t ok = 0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const auto result =
        session.run_batch_parallel("vp", {images[i]}, one_worker);
    if (result.is_ok()) {
      ++ok;
      EXPECT_EQ(result->front().output, expected[i]) << "request " << i;
    } else {
      EXPECT_TRUE(is_transient(result.status().code()))
          << "request " << i << ": " << result.status().to_string();
    }
  }

  EXPECT_EQ(session.pool_worker_count(), 1u);
  ASSERT_NE(session.fault_injector(), nullptr);
  EXPECT_GE(session.fault_injector()->total_injected(), 1u);
  EXPECT_GE(session.robustness().retries, 1u);
  EXPECT_EQ(ok, kPinnedOk);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST(Deadline, SessionEnforcesDeadlineAtTaskBoundaries) {
  const auto image = synthetic_image(9800);
  InferenceSession session(models::lenet5());
  // A 1 ms deadline on a cold model: staging (one full VP trace) takes far
  // longer, so the queued request expires at a task boundary and answers
  // kDeadlineExceeded without running.
  session.set_default_deadline_ms(1);
  auto result = session.submit("vp", image).get();
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(session.robustness().deadline_exceeded, 1u);

  // run() rides the same task boundaries: a request to a second, still
  // cold model expires behind its staging latch too.
  ASSERT_TRUE(session.register_model("cold", models::lenet5()).is_ok());
  const auto ran = session.run("vp?model=cold", image);
  ASSERT_FALSE(ran.is_ok());
  EXPECT_EQ(ran.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(session.robustness().deadline_exceeded, 2u);

  // The deadline shed the request, not the session: with the deadline
  // cleared the (now staged) model serves normally.
  session.set_default_deadline_ms(0);
  result = session.submit("vp", image).get();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
}

TEST(Deadline, ServerExpiresOverdueRequestsAndStaysUp) {
  runtime::BackendRegistry registry;
  ASSERT_TRUE(registry.add(std::make_unique<SleepyBackend>()).is_ok());
  ServerOptions options;
  options.deadline_ms = 100;
  ServerFixture fixture(options, &registry);

  const std::size_t elems = models::lenet5().input_shape().elements();
  // Pin the session pool at two workers (the host may expose one hardware
  // thread) so the follow-up request never queues behind the 1500 ms
  // sleep; this also pre-stages the model off the timed path.
  std::vector<float> nap(elems, 0.0f);
  nap[0] = 1.0f;
  ASSERT_TRUE(fixture.session()
                  .run_batch_parallel("sleepy", {nap, nap}, {.workers = 2})
                  .is_ok());

  Client client = fixture.connect();
  Request slow;
  slow.id = 1;
  slow.backend = "sleepy";
  slow.image.assign(elems, 0.0f);
  slow.image[0] = 1500.0f;  // ms — far past the server deadline
  ASSERT_TRUE(client.send(slow).is_ok());

  const auto t0 = std::chrono::steady_clock::now();
  const auto response = client.receive();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_FALSE(response->is_ok());
  EXPECT_EQ(response->code, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(response->id, 1u);
  EXPECT_LT(elapsed.count(), 1400);  // answered well before the sleep ends
  EXPECT_EQ(fixture.server().deadline_expirations(), 1u);

  // The connection and the server survive; a fast request still serves.
  Request fast = slow;
  fast.id = 2;
  fast.image[0] = 1.0f;
  const auto ok = client.roundtrip(fast);
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_TRUE(ok->is_ok()) << ok->error;
  EXPECT_EQ(ok->id, 2u);
}

// ---------------------------------------------------------------------------
// Overload shedding
// ---------------------------------------------------------------------------

TEST(Shedding, GlobalInflightCapAnswersUnavailableOnUsableConnection) {
  runtime::BackendRegistry registry;
  ASSERT_TRUE(registry.add(std::make_unique<SleepyBackend>()).is_ok());
  ServerOptions options;
  options.max_inflight_total = 1;
  ServerFixture fixture(options, &registry);

  Client client = fixture.connect();
  const std::size_t elems = models::lenet5().input_shape().elements();
  Request slow;
  slow.id = 1;
  slow.backend = "sleepy";
  slow.image.assign(elems, 0.0f);
  slow.image[0] = 300.0f;  // holds the only in-flight slot
  Request second = slow;
  second.id = 2;
  second.image[0] = 1.0f;
  Request third = slow;
  third.id = 3;
  third.image[0] = 1.0f;
  ASSERT_TRUE(client.send(slow).is_ok());
  ASSERT_TRUE(client.send(second).is_ok());
  ASSERT_TRUE(client.send(third).is_ok());

  int shed = 0, served = 0;
  for (int i = 0; i < 3; ++i) {
    const auto response = client.receive();
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    if (response->is_ok()) {
      ++served;
      EXPECT_EQ(response->id, 1u);
    } else {
      ++shed;
      EXPECT_EQ(response->code, StatusCode::kUnavailable);
      EXPECT_NE(response->error.find("overloaded"), std::string::npos);
    }
  }
  EXPECT_EQ(served, 1);
  EXPECT_EQ(shed, 2);
  EXPECT_EQ(fixture.server().shed_requests(), 2u);

  // Shedding never costs the connection: the same socket serves again.
  Request after = second;
  after.id = 4;
  const auto ok = client.roundtrip(after);
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_TRUE(ok->is_ok()) << ok->error;
}

TEST(Shedding, PerConnectionCapNamesItsScope) {
  runtime::BackendRegistry registry;
  ASSERT_TRUE(registry.add(std::make_unique<SleepyBackend>()).is_ok());
  ServerOptions options;
  options.max_inflight_per_connection = 1;
  ServerFixture fixture(options, &registry);

  Client client = fixture.connect();
  const std::size_t elems = models::lenet5().input_shape().elements();
  Request slow;
  slow.id = 1;
  slow.backend = "sleepy";
  slow.image.assign(elems, 0.0f);
  slow.image[0] = 200.0f;
  Request second = slow;
  second.id = 2;
  second.image[0] = 1.0f;
  ASSERT_TRUE(client.send(slow).is_ok());
  ASSERT_TRUE(client.send(second).is_ok());

  const auto first = client.receive();
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_FALSE(first->is_ok());
  EXPECT_EQ(first->id, 2u);
  EXPECT_EQ(first->code, StatusCode::kUnavailable);
  EXPECT_NE(first->error.find("per-connection"), std::string::npos);

  const auto kept = client.receive();
  ASSERT_TRUE(kept.is_ok()) << kept.status().to_string();
  EXPECT_TRUE(kept->is_ok()) << kept->error;
  EXPECT_EQ(kept->id, 1u);
}

// ---------------------------------------------------------------------------
// Client timeouts: never hang on a dead or silent server
// ---------------------------------------------------------------------------

TEST(ClientTimeout, SilentServerReceiveReportsDeadlineExceeded) {
  // A raw listener that accepts and then says nothing, ever.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);
  std::atomic<int> accepted_fd{-1};
  std::thread acceptor([&] {
    accepted_fd = ::accept(listener, nullptr, nullptr);
  });

  Client client;
  client.set_timeout_ms(100);
  ASSERT_TRUE(client.connect(port).is_ok());

  const auto t0 = std::chrono::steady_clock::now();
  const auto response = client.receive();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  ASSERT_FALSE(response.is_ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(elapsed.count(), 90);
  EXPECT_LT(elapsed.count(), 3000);

  // The timeout keeps the connection usable: a second bounded receive
  // reports the same typed status instead of an invalid-socket error.
  const auto again = client.receive();
  ASSERT_FALSE(again.is_ok());
  EXPECT_EQ(again.status().code(), StatusCode::kDeadlineExceeded);

  acceptor.join();
  if (accepted_fd >= 0) ::close(accepted_fd);
  ::close(listener);
}

TEST(ClientTimeout, UnresponsiveConnectNeverHangs) {
  // A listener whose accept queue is full and never drained: further SYNs
  // are dropped, so an unbounded connect() would park for minutes in the
  // kernel's retransmit schedule. Fill the tiny backlog first.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 0), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::uint16_t port = ntohs(addr.sin_port);

  std::vector<Client> fillers(4);
  for (auto& filler : fillers) {
    filler.set_timeout_ms(200);
    (void)filler.connect(port);  // fills the queue or times out — either way
  }

  Client client;
  client.set_timeout_ms(200);
  const auto t0 = std::chrono::steady_clock::now();
  const Status connected = client.connect(port);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  // The hard guarantee: the bounded connect returns promptly (a dead
  // server can never park the client), and when the queue drop did make
  // the SYN vanish the status is the typed deadline.
  EXPECT_LT(elapsed.count(), 3000);
  if (!connected.is_ok()) {
    EXPECT_EQ(connected.code(), StatusCode::kDeadlineExceeded)
        << connected.to_string();
  }
  ::close(listener);
}

// ---------------------------------------------------------------------------
// Chaos: a standing fault plan through the TCP server
// ---------------------------------------------------------------------------

TEST(Chaos, ServerStaysUpAndEveryResponseIsBitExactOrTyped) {
  constexpr std::size_t kClients = 2;
  constexpr std::size_t kPerClient = 8;
  std::vector<std::vector<float>> images;
  std::vector<std::vector<float>> expected;
  {
    InferenceSession oracle(models::lenet5());
    for (std::size_t i = 0; i < kClients * kPerClient; ++i) {
      images.push_back(synthetic_image(9950 + i));
      auto result = oracle.run("vp", images.back());
      ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      expected.push_back(std::move(result)->output);
    }
  }

  ServerFixture fixture;
  ASSERT_TRUE(
      fixture.session().set_fault_plan("replay:0.2+flip:0.1+seed:33").is_ok());
  fixture.session().set_retry_policy({/*max_attempts=*/3});

  std::atomic<int> wire_failures{0};
  std::atomic<int> untyped{0};
  std::atomic<int> wrong_answers{0};
  std::atomic<int> ok_responses{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      if (!client.connect(fixture.port()).is_ok()) {
        ++wire_failures;
        return;
      }
      for (std::size_t k = 0; k < kPerClient; ++k) {
        const std::size_t i = c * kPerClient + k;
        Request request;
        request.id = i;
        request.backend = "vp";
        request.image = images[i];
        if (!client.send(request).is_ok()) ++wire_failures;
      }
      for (std::size_t k = 0; k < kPerClient; ++k) {
        const auto response = client.receive();
        if (!response.is_ok()) {
          ++wire_failures;
          continue;
        }
        if (response->is_ok()) {
          ++ok_responses;
          // The no-wrong-answers invariant: an OK response under a
          // standing fault plan is bit-exact with the fault-free oracle.
          if (response->id >= expected.size() ||
              response->output != expected[response->id]) {
            ++wrong_answers;
          }
        } else if (response->code != StatusCode::kUnavailable &&
                   response->code != StatusCode::kDataLoss &&
                   response->code != StatusCode::kDeadlineExceeded) {
          ++untyped;
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();

  EXPECT_EQ(wire_failures.load(), 0);
  EXPECT_EQ(wrong_answers.load(), 0);
  EXPECT_EQ(untyped.load(), 0);
  EXPECT_GT(ok_responses.load(), 0);

  // The injected faults actually fired (seeded plan: deterministic), and
  // the server survived them: a clean follow-up request still serves.
  ASSERT_NE(fixture.session().fault_injector(), nullptr);
  EXPECT_GE(fixture.session().fault_injector()->total_injected(), 1u);
  Client client = fixture.connect();
  Request request;
  request.id = 999;
  request.backend = "vp";
  request.image = images[0];
  const auto response = client.roundtrip(request);
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  if (response->is_ok()) {
    EXPECT_EQ(response->output, expected[0]);
  } else {
    EXPECT_TRUE(response->code == StatusCode::kUnavailable ||
                response->code == StatusCode::kDataLoss)
        << response->error;
  }
}

}  // namespace
}  // namespace nvsoc
