// The multi-variant serving tier: one InferenceSession staging several
// (model, backend-spec) variants concurrently, byte-budgeted replay
// residency with transparent re-staging, and `?model=` routing through
// the TCP server against an in-process oracle. Runs under the
// ThreadSanitizer CI job.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/bare_metal_flow.hpp"
#include "models/models.hpp"
#include "runtime/inference_session.hpp"
#include "server/client.hpp"
#include "server/inference_server.hpp"

namespace nvsoc {
namespace {

using runtime::InferenceSession;
using runtime::PendingResult;
using runtime::VariantStats;

const VariantStats* find_variant(const std::vector<VariantStats>& stats,
                                 const std::string& model,
                                 const std::string& backend) {
  for (const auto& v : stats) {
    if (v.model == model && v.backend == backend) return &v;
  }
  return nullptr;
}

/// Field-for-field equality of a padding-free counter struct (the bus
/// census, the engine stats).
template <class Stats>
bool same_stats(const Stats& a, const Stats& b) {
  static_assert(std::has_unique_object_representations_v<Stats>);
  return std::memcmp(&a, &b, sizeof(Stats)) == 0;
}

// ---------------------------------------------------------------------------
// Concurrent staging of >= 4 variants on one session
// ---------------------------------------------------------------------------

TEST(MultiVariant, FourVariantsStageConcurrentlyOnOneSession) {
  InferenceSession session(models::lenet5());
  ASSERT_TRUE(
      session.register_model("resnet18", models::resnet18_cifar()).is_ok());
  EXPECT_EQ(session.model_names().size(), 2u);

  // Registering the same name twice is rejected; the fleet is unchanged.
  EXPECT_EQ(session.register_model("resnet18", models::resnet18_cifar())
                .code(),
            StatusCode::kAlreadyExists);

  const std::vector<std::string> fleet = {
      "soc",
      "soc?mode=replay",
      "soc?model=resnet18",
      "soc?mode=replay&model=resnet18",
  };
  auto handles = session.prepare_async(fleet);
  ASSERT_EQ(handles.size(), fleet.size());

  // Issued-at-enqueue counters are the deterministic concurrency
  // evidence: all four stagings were in flight before any completed,
  // whatever the worker count — the vector prepare only enqueues.
  EXPECT_GE(session.counters().staging_peak, 4u);

  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_TRUE(handles[i].wait().is_ok()) << fleet[i];
  }
  // Distinct models stage behind distinct latches (one staging each); the
  // two specs of a model dedup behind its latch.
  EXPECT_EQ(session.counters().async_stagings, 2u);

  // One session now holds all four staged variants.
  const auto stats = session.variant_stats();
  ASSERT_EQ(stats.size(), 4u);
  for (const auto& v : stats) {
    EXPECT_TRUE(v.staged) << v.model << " | " << v.backend;
    EXPECT_EQ(v.evictions, 0u);
  }
  // Each model traced once, however many of its variants staged.
  EXPECT_EQ(session.counters().trace, 2u);

  // Every variant serves, and the two spellings of a model's replay
  // configuration agree bit for bit (replay is the soc default).
  const auto lenet_image =
      compiler::synthetic_input(models::lenet5().input_shape(), 8100);
  const auto resnet_image =
      compiler::synthetic_input(models::resnet18_cifar().input_shape(), 8100);
  auto a = session.submit("soc", lenet_image);
  auto b = session.submit("soc?mode=replay", lenet_image);
  auto c = session.submit("soc?model=resnet18", resnet_image);
  auto d = session.submit("soc?mode=replay&model=resnet18", resnet_image);
  auto ra = a.get();
  auto rb = b.get();
  auto rc = c.get();
  auto rd = d.get();
  ASSERT_TRUE(ra.is_ok()) << ra.status().to_string();
  ASSERT_TRUE(rb.is_ok()) << rb.status().to_string();
  ASSERT_TRUE(rc.is_ok()) << rc.status().to_string();
  ASSERT_TRUE(rd.is_ok()) << rd.status().to_string();
  EXPECT_EQ(ra->output, rb->output);
  EXPECT_EQ(ra->cycles, rb->cycles);
  EXPECT_EQ(rc->output, rd->output);
  EXPECT_EQ(rc->cycles, rd->cycles);

  // The per-variant request accounting saw each spec exactly once.
  for (const auto& v : session.variant_stats()) {
    EXPECT_EQ(v.requests, 1u) << v.model << " | " << v.backend;
  }
}

TEST(MultiVariant, UnknownModelParamIsNotFoundAndListsTheFleet) {
  InferenceSession session(models::lenet5());
  ASSERT_TRUE(
      session.register_model("resnet18", models::resnet18_cifar()).is_ok());
  const auto result = session.run("soc?model=bert");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("resnet18"), std::string::npos)
      << result.status().to_string();
}

// ---------------------------------------------------------------------------
// Byte-budgeted residency: evict-then-restage is bit-exact
// ---------------------------------------------------------------------------

TEST(MultiVariant, BudgetEvictsColdModelAndRestagesBitExactly) {
  // Two registrations of the same architecture: bit-identical replay
  // footprints make an exact one-copy budget deterministic on any host.
  InferenceSession session(models::lenet5());
  ASSERT_TRUE(session.register_model("twin", models::lenet5()).is_ok());
  const auto image =
      compiler::synthetic_input(models::lenet5().input_shape(), 8200);

  ASSERT_TRUE(session.prepare_async("soc", image).wait().is_ok());
  const auto first = session.submit("soc", image).get();
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  const std::uint64_t budget = session.replay_resident_bytes();
  ASSERT_GT(budget, 0u);
  session.set_replay_budget_bytes(budget);

  // Stage + serve the twin: the budget holds one copy, so the cold first
  // model is walked down the LRU — arenas first, then (on the next
  // enforcement point, once the twin's own arenas are resident) its
  // schedule.
  ASSERT_TRUE(
      session.prepare_async("soc?model=twin", image).wait().is_ok());
  const auto second = session.submit("soc?model=twin", image).get();
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(second->output, first->output);  // same architecture, same input
  const auto warm = session.submit("soc?model=twin", image).get();
  ASSERT_TRUE(warm.is_ok()) << warm.status().to_string();

  EXPECT_LE(session.replay_resident_bytes(), budget);
  EXPECT_GE(session.counters().evictions, 1u);
  const auto stats = session.variant_stats();
  const auto* evicted = find_variant(stats, "lenet5", "soc");
  ASSERT_NE(evicted, nullptr);
  EXPECT_FALSE(evicted->staged);
  EXPECT_GE(evicted->evictions, 1u);

  // The evicted model re-stages transparently on its next request...
  const std::uint32_t traces_before = session.counters().trace;
  const auto restaged = session.submit("soc", image).get();
  ASSERT_TRUE(restaged.is_ok()) << restaged.status().to_string();
  EXPECT_GT(session.counters().trace, traces_before) << "restage re-traced";
  // ...bit-identically to its pre-eviction self.
  EXPECT_EQ(restaged->output, first->output);
  EXPECT_EQ(restaged->cycles, first->cycles);

  // The next request serves from the fresh schedule and the budget evicts
  // the now-cold twin in turn: residency settles back under the budget.
  const auto settled = session.submit("soc", image).get();
  ASSERT_TRUE(settled.is_ok()) << settled.status().to_string();
  EXPECT_EQ(settled->output, first->output);
  EXPECT_EQ(settled->cycles, first->cycles);
  EXPECT_LE(session.replay_resident_bytes(), budget);
  EXPECT_GE(session.counters().evictions, 2u);
}

TEST(MultiVariant, BudgetEvictionKeepsTheSocEnvelopeAcrossRestage) {
  // The SoC envelope is a function of the bare-metal program, not of the
  // schedule: a budget eviction drops the schedule, and the restage
  // re-traces the VP and rebuilds the schedule but runs no cycle-accurate
  // SoC.
  InferenceSession session(models::lenet5());
  ASSERT_TRUE(session.register_model("twin", models::lenet5()).is_ok());
  const auto image =
      compiler::synthetic_input(models::lenet5().input_shape(), 8500);

  const auto first = session.submit("soc", image).get();
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_EQ(session.counters().envelopes, 1u);
  const auto recorded = session.prepare(image).tail->envelopes;

  // A one-byte budget evicts every cold schedule at each enforcement point:
  // the first model now, the twin once the first model is hot again.
  session.set_replay_budget_bytes(1);
  EXPECT_EQ(session.counters().evictions, 1u);
  const auto twin = session.submit("soc?model=twin", image).get();
  ASSERT_TRUE(twin.is_ok()) << twin.status().to_string();
  EXPECT_EQ(session.counters().envelopes, 2u);
  const auto stats = session.variant_stats();
  const auto* evicted = find_variant(stats, "lenet5", "soc");
  ASSERT_NE(evicted, nullptr);
  EXPECT_FALSE(evicted->staged);

  const std::uint32_t traces = session.counters().trace;
  const auto restaged = session.submit("soc", image).get();
  ASSERT_TRUE(restaged.is_ok()) << restaged.status().to_string();
  EXPECT_EQ(session.counters().trace, traces + 1) << "restage re-traced";
  EXPECT_EQ(session.counters().envelopes, 2u) << "envelope kept, not rerun";
  EXPECT_EQ(session.prepare(image).tail->envelopes, recorded);
  EXPECT_GE(session.counters().evictions, 2u);

  // The kept envelope is the one recorded before the eviction, and the
  // per-instruction oracle's.
  InferenceSession oracle(models::lenet5());
  const auto simulated =
      oracle.run("soc?mode=cycle_accurate&decode_cache=off", image);
  ASSERT_TRUE(simulated.is_ok()) << simulated.status().to_string();
  for (const auto* want : {&*first, &*simulated}) {
    EXPECT_EQ(restaged->output, want->output);
    EXPECT_EQ(restaged->cycles, want->cycles);
    ASSERT_TRUE(restaged->soc.has_value() && want->soc.has_value());
    EXPECT_TRUE(same_stats(restaged->soc->census, want->soc->census));
    EXPECT_TRUE(
        same_stats(restaged->soc->engine_stats, want->soc->engine_stats));
  }
}

TEST(MultiVariant, PreparedSnapshotKeepsItsScheduleAcrossEviction) {
  // prepared() returns a snapshot: a budget eviction drops the model's
  // schedule, never the one a caller holds.
  InferenceSession session(models::lenet5());
  ASSERT_TRUE(session.register_model("twin", models::lenet5()).is_ok());
  const auto& prepared = session.prepared();
  ASSERT_NE(prepared.replay, nullptr);
  ASSERT_TRUE(session.run("soc?model=twin").is_ok());

  session.set_replay_budget_bytes(1);
  EXPECT_EQ(session.counters().evictions, 2u);
  ASSERT_NE(prepared.replay, nullptr);
  EXPECT_TRUE(prepared.replay_schedule().ops_intact());

  // The held schedule still serves, bit-exactly with the traced run.
  const auto backend = runtime::BackendRegistry::global().find("soc");
  ASSERT_TRUE(backend.is_ok());
  runtime::RunOptions options;
  options.flow = session.config();
  const auto result = (*backend)->run(prepared, options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result->output, prepared.vp().output);
}

TEST(MultiVariant, EvictedModelKeepsItsEnvelopeBytesResident) {
  InferenceSession session(models::lenet5());
  ASSERT_TRUE(session.register_model("twin", models::lenet5()).is_ok());
  const auto image =
      compiler::synthetic_input(models::lenet5().input_shape(), 8600);
  ASSERT_TRUE(session.run("soc", image).is_ok());
  ASSERT_TRUE(session.run("soc?model=twin", image).is_ok());
  const std::uint64_t envelope_bytes =
      session.prepare(image).envelopes().bytes();
  ASSERT_GT(envelope_bytes, 0u);

  // Both schedules go; the envelopes stay resident and still count. No
  // pass can evict them, so the walk ends over budget instead of looping.
  session.set_replay_budget_bytes(1);
  EXPECT_EQ(session.counters().evictions, 2u);
  const auto stats = session.variant_stats();
  for (const std::string model : {"lenet5", "twin"}) {
    const auto* row = find_variant(stats, model, "soc");
    ASSERT_NE(row, nullptr) << model;
    EXPECT_FALSE(row->staged) << model;
    EXPECT_EQ(row->resident_bytes, envelope_bytes) << model;
  }
  EXPECT_EQ(session.replay_resident_bytes(), 2 * envelope_bytes);

  // Enforcing again over the same envelope-only total changes nothing.
  session.set_replay_budget_bytes(1);
  EXPECT_EQ(session.counters().evictions, 2u);
  EXPECT_EQ(session.replay_resident_bytes(), 2 * envelope_bytes);
}

TEST(MultiVariant, BurstArenaGrowthIsReclaimedBeforeDelivery) {
  // A concurrent burst grows the replay engine's arena pool (one arena per
  // simultaneously replaying worker). Each pooled attempt enforces the
  // budget after its replay returns its arena and before its result is
  // delivered — so once the burst's last result is delivered, residency is
  // already under budget again with no further submit acting as the
  // enforcement point.
  InferenceSession session(models::lenet5());
  const auto image =
      compiler::synthetic_input(models::lenet5().input_shape(), 8400);
  ASSERT_TRUE(session.prepare_async("soc", image).wait().is_ok());
  const auto first = session.submit("soc", image).get();
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();

  // Budget = steady state (schedule + the one arena the first replay
  // built). Burst growth beyond it is exactly what the attempts reclaim.
  const std::uint64_t budget = session.replay_resident_bytes();
  ASSERT_GT(budget, 0u);
  session.set_replay_budget_bytes(budget);

  std::vector<PendingResult> burst;
  burst.reserve(8);
  for (int i = 0; i < 8; ++i) burst.push_back(session.submit("soc", image));
  for (auto& pending : burst) {
    const auto result = pending.get();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->output, first->output);
  }

  // Every attempt enforced after its replay, before its result was
  // delivered: the surplus arenas are gone without another request.
  EXPECT_LE(session.replay_resident_bytes(), budget);
  // The attempt's own model is the budget walk's hot model: its schedule is
  // shed-arenas-only, never evicted mid-burst.
  EXPECT_EQ(session.counters().evictions, 0u);
}

TEST(MultiVariant, FailedBurstArenaGrowthIsReclaimedBeforeDelivery) {
  // Failed attempts enforce too: under `replay:1` every replay checks out
  // (and so may build) an arena, then fails before producing an answer.
  InferenceSession session(models::lenet5());
  const auto image =
      compiler::synthetic_input(models::lenet5().input_shape(), 8450);
  ASSERT_TRUE(session.prepare_async("soc", image).wait().is_ok());
  ASSERT_TRUE(session.submit("soc", image).get().is_ok());
  const std::uint64_t budget = session.replay_resident_bytes();
  ASSERT_GT(budget, 0u);
  session.set_replay_budget_bytes(budget);
  ASSERT_TRUE(session.set_fault_plan("replay:1+seed:41").is_ok());

  std::vector<PendingResult> burst;
  burst.reserve(8);
  for (int i = 0; i < 8; ++i) burst.push_back(session.submit("soc", image));
  for (auto& pending : burst) {
    const auto result = pending.get();
    ASSERT_FALSE(result.is_ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  }

  EXPECT_LE(session.replay_resident_bytes(), budget);
  EXPECT_EQ(session.counters().evictions, 0u);
}

TEST(MultiVariant, SnapshotOutlivesItsBudgetedSession) {
  // A prepare() snapshot shares the session's replay schedule and engine.
  // Destroying the session under a budget leaves the snapshot a
  // self-contained model: it still replays, bit-exactly with the answer
  // the session served.
  const auto image =
      compiler::synthetic_input(models::lenet5().input_shape(), 8700);
  core::PreparedModel snapshot;
  std::vector<float> served;
  runtime::RunOptions options;
  {
    InferenceSession session(models::lenet5());
    const auto first = session.submit("soc", image).get();
    ASSERT_TRUE(first.is_ok()) << first.status().to_string();
    session.set_replay_budget_bytes(session.replay_resident_bytes());
    snapshot = session.prepare(image);
    const auto result = session.submit("soc", image).get();
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    served = result->output;
    options.flow = session.config();
  }

  const auto backend = runtime::BackendRegistry::global().find("soc");
  ASSERT_TRUE(backend.is_ok());
  for (int i = 0; i < 2; ++i) {
    const auto result = (*backend)->run(snapshot, options);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result->output, served);
  }
}

TEST(MultiVariant, ZeroBudgetMeansUnbounded) {
  InferenceSession session(models::lenet5());
  const auto image =
      compiler::synthetic_input(models::lenet5().input_shape(), 8300);
  ASSERT_TRUE(session.prepare_async("soc", image).wait().is_ok());
  ASSERT_TRUE(session.submit("soc", image).get().is_ok());
  ASSERT_TRUE(session.submit("soc", image).get().is_ok());
  EXPECT_GT(session.replay_resident_bytes(), 0u);
  EXPECT_EQ(session.counters().evictions, 0u);
}

// ---------------------------------------------------------------------------
// Variant routing through the TCP server vs an in-process oracle
// ---------------------------------------------------------------------------

TEST(MultiVariant, ServerRoutesModelParamBitExactly) {
  InferenceSession session(models::lenet5());
  ASSERT_TRUE(
      session.register_model("resnet18", models::resnet18_cifar()).is_ok());
  // Settle staging before serving so the oracle comparison below is about
  // routing, not scheduling.
  auto staged = session.prepare_async(
      std::vector<std::string>{"soc", "soc?model=resnet18"});
  for (auto& handle : staged) ASSERT_TRUE(handle.wait().is_ok());

  // The oracle: isolated cycle-accurate sessions, one per model — the
  // ground truth any replay-served variant must match bit for bit.
  InferenceSession lenet_oracle(models::lenet5());
  InferenceSession resnet_oracle(models::resnet18_cifar());

  server::InferenceServer server(session);
  ASSERT_TRUE(server.start().is_ok());
  std::thread loop([&server] { server.run(); });

  server::Client client;
  ASSERT_TRUE(client.connect(server.port()).is_ok());

  struct Case {
    const char* spec;
    InferenceSession* oracle;
    const compiler::Network* network;
  };
  const compiler::Network lenet = models::lenet5();
  const compiler::Network resnet = models::resnet18_cifar();
  const std::vector<Case> cases = {
      {"soc", &lenet_oracle, &lenet},
      {"soc?model=resnet18", &resnet_oracle, &resnet},
      {"soc?mode=replay&model=resnet18", &resnet_oracle, &resnet},
  };

  // Two rounds over every case with per-round images: round 2 repeats the
  // raw spec strings, so the connection's resolved-spec cache serves them.
  std::uint64_t next_id = 1;
  for (int round = 0; round < 2; ++round) {
    for (const auto& test_case : cases) {
      const auto image = compiler::synthetic_input(
          test_case.network->input_shape(), 8400 + round);
      server::Request request;
      request.id = next_id++;
      request.backend = test_case.spec;
      request.image = image;
      ASSERT_TRUE(client.send(request).is_ok());
      const auto response = client.receive();
      ASSERT_TRUE(response.is_ok());
      ASSERT_TRUE(response->is_ok()) << test_case.spec << ": "
                                     << response->error;
      EXPECT_EQ(response->id, request.id);

      const auto expected =
          test_case.oracle->run("soc?mode=cycle_accurate", image);
      ASSERT_TRUE(expected.is_ok()) << expected.status().to_string();
      EXPECT_EQ(response->output, expected->output)
          << "round " << round << " spec " << test_case.spec;
      EXPECT_EQ(response->cycles, expected->cycles)
          << "round " << round << " spec " << test_case.spec;
      EXPECT_EQ(response->predicted_class, expected->predicted_class);
    }
  }

  // An unknown model on a live connection answers an error response (the
  // connection survives) and never reaches a model.
  server::Request bad;
  bad.id = next_id++;
  bad.backend = "soc?model=bert";
  bad.image = compiler::synthetic_input(lenet.input_shape(), 8499);
  ASSERT_TRUE(client.send(bad).is_ok());
  const auto bad_response = client.receive();
  ASSERT_TRUE(bad_response.is_ok());
  EXPECT_FALSE(bad_response->is_ok());
  EXPECT_EQ(bad_response->code, StatusCode::kNotFound);

  client.close();
  server.shutdown();
  loop.join();

  // Round 2 repeated three known spec strings verbatim: every one was a
  // resolved-cache hit (the unknown spec never enters the cache).
  EXPECT_GE(server.spec_cache_hits(), 3u);
  EXPECT_EQ(server.error_responses(), 1u);

  // The per-variant accounting matches what was routed where.
  const auto stats = server.variant_stats();
  const auto* lenet_soc = find_variant(stats, "lenet5", "soc");
  ASSERT_NE(lenet_soc, nullptr);
  EXPECT_EQ(lenet_soc->requests, 2u);
  const auto* resnet_soc = find_variant(stats, "resnet18", "soc");
  ASSERT_NE(resnet_soc, nullptr);
  EXPECT_EQ(resnet_soc->requests, 2u);
  const auto* resnet_replay =
      find_variant(stats, "resnet18", "soc?mode=replay");
  ASSERT_NE(resnet_replay, nullptr);
  EXPECT_EQ(resnet_replay->requests, 2u);
}

}  // namespace
}  // namespace nvsoc
