// Multi-variant serving: concurrent fleet staging and byte-budgeted
// replay residency on one InferenceSession.
//
// Leg 1 (staging4) stages the same four (model, backend-spec) variants two
// ways and times the wall clock of each:
//
//   serialized:  four isolated single-model sessions, each staging its one
//                variant to completion before the next starts — the
//                pre-multi-model deployment (one process per variant),
//                where nothing is shared: 4 frontends, 4 traces, 4 replay
//                envelopes.
//   concurrent:  one session holding both models, the whole fleet staged
//                by a single vector prepare_async() — specs sharing a
//                model dedup the frontend/trace/envelope behind that
//                model's staging latch: 2 frontends, 2 traces, 2
//                envelopes.
//
// The reported ratio concurrent_staging_speedup = serialized/concurrent is
// work-dedup, not thread-count. The dedup itself is checked exactly: the
// bench exits non-zero unless the fleet staged with one staging task and
// one VP trace per model. staging_peak is the concurrency evidence: the
// vector prepare pushes four stagings in flight before any completes.
//
// Leg 2 (budget) registers the same architecture twice, budgets replay
// residency to exactly one copy's footprint, and walks the LRU eviction
// sequence: staging the second model evicts the cold first (arenas, then
// schedule), the first model's next request re-stages it transparently,
// and its output stays bit-identical across the eviction. The perf gate
// asserts the eviction stats are present and restage_bit_exact holds.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "models/models.hpp"
#include "runtime/inference_session.hpp"

using namespace nvsoc;

namespace {

using Clock = std::chrono::steady_clock;

double wall_ms(Clock::time_point start, Clock::time_point stop) {
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main() {
  bench::print_header(
      "Multi-variant serving: fleet staging + byte-budgeted residency");
  bench::JsonReport report("multi_variant");

  const compiler::Network lenet = models::lenet5();
  const compiler::Network resnet = models::resnet18_cifar();
  const std::vector<float> lenet_image =
      compiler::synthetic_input(lenet.input_shape(), 4242);
  const std::vector<float> resnet_image =
      compiler::synthetic_input(resnet.input_shape(), 4242);

  // --- leg 1: serialized vs concurrent staging of the same 4 variants -----
  // "soc" and "soc?mode=replay" are distinct canonical variants of the
  // same configuration (replay is the default), so the pair isolates pure
  // per-variant bookkeeping: everything expensive is per *model*.
  struct FleetEntry {
    const compiler::Network* network;
    const std::vector<float>* image;
    const char* spec;           // isolated single-model session spelling
    const char* routed_spec;    // multi-model session spelling
  };
  const std::vector<FleetEntry> fleet = {
      {&lenet, &lenet_image, "soc", "soc"},
      {&lenet, &lenet_image, "soc?mode=replay", "soc?mode=replay"},
      {&resnet, &resnet_image, "soc", "soc?model=resnet18"},
      {&resnet, &resnet_image, "soc?mode=replay",
       "soc?mode=replay&model=resnet18"},
  };

  const auto serialized_start = Clock::now();
  for (const auto& entry : fleet) {
    runtime::InferenceSession isolated(*entry.network);
    if (const Status staged =
            isolated.prepare_async(entry.spec, *entry.image).wait();
        !staged.is_ok()) {
      std::fprintf(stderr, "serialized staging (%s) failed: %s\n", entry.spec,
                   staged.to_string().c_str());
      return 1;
    }
  }
  const double serialized_ms = wall_ms(serialized_start, Clock::now());

  runtime::InferenceSession session(lenet);
  if (const Status registered = session.register_model("resnet18", resnet);
      !registered.is_ok()) {
    std::fprintf(stderr, "register failed: %s\n",
                 registered.to_string().c_str());
    return 1;
  }
  std::vector<std::string> specs;
  for (const auto& entry : fleet) specs.emplace_back(entry.routed_spec);

  const auto concurrent_start = Clock::now();
  auto handles = session.prepare_async(specs);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (const Status staged = handles[i].wait(); !staged.is_ok()) {
      std::fprintf(stderr, "concurrent staging (%s) failed: %s\n",
                   specs[i].c_str(), staged.to_string().c_str());
      return 1;
    }
  }
  const double concurrent_ms = wall_ms(concurrent_start, Clock::now());
  const double speedup =
      concurrent_ms > 0.0 ? serialized_ms / concurrent_ms : 0.0;

  const runtime::StageCounters counters = session.counters();
  std::size_t staged_variants = 0;
  for (const auto& v : session.variant_stats()) staged_variants += v.staged;
  if (counters.async_stagings != 2 || counters.trace != 2) {
    std::fprintf(stderr,
                 "concurrent staging ran %u staging tasks and %u VP traces "
                 "for two models, expected 2 and 2\n",
                 counters.async_stagings, counters.trace);
    return 1;
  }

  std::printf("%-12s %14s %14s %9s %13s %9s\n", "section", "serialized ms",
              "concurrent ms", "speedup", "staging peak", "variants");
  std::printf("%-12s %14.1f %14.1f %9.2f %13u %9zu\n", "staging4",
              serialized_ms, concurrent_ms, speedup, counters.staging_peak,
              staged_variants);

  report.add("staging4", "serialized_staging_ms", serialized_ms);
  report.add("staging4", "concurrent_staging_ms", concurrent_ms);
  report.add("staging4", "concurrent_staging_speedup", speedup);
  report.add("staging4", "staging_peak",
             static_cast<std::uint64_t>(counters.staging_peak));
  report.add("staging4", "variants_staged",
             static_cast<std::uint64_t>(staged_variants));

  // --- leg 2: byte-budgeted residency with a deterministic footprint ------
  // Two registrations of the same architecture have bit-identical replay
  // footprints, so a budget of exactly one copy's bytes forces the LRU
  // walk without any host-dependent margin.
  runtime::InferenceSession budgeted(lenet);
  if (const Status registered =
          budgeted.register_model("lenet5_b", models::lenet5());
      !registered.is_ok()) {
    std::fprintf(stderr, "register failed: %s\n",
                 registered.to_string().c_str());
    return 1;
  }
  if (const Status staged =
          budgeted.prepare_async("soc", lenet_image).wait();
      !staged.is_ok()) {
    std::fprintf(stderr, "budget leg staging failed: %s\n",
                 staged.to_string().c_str());
    return 1;
  }
  const auto first = budgeted.submit("soc", lenet_image).get();
  if (!first.is_ok()) {
    std::fprintf(stderr, "budget leg run failed: %s\n",
                 first.status().to_string().c_str());
    return 1;
  }
  const std::uint64_t budget_bytes = budgeted.replay_resident_bytes();
  budgeted.set_replay_budget_bytes(budget_bytes);

  if (const Status staged =
          budgeted.prepare_async("soc?model=lenet5_b", lenet_image).wait();
      !staged.is_ok()) {
    std::fprintf(stderr, "second model staging failed: %s\n",
                 staged.to_string().c_str());
    return 1;
  }
  const auto second = budgeted.submit("soc?model=lenet5_b", lenet_image).get();
  if (!second.is_ok()) {
    std::fprintf(stderr, "second model run failed: %s\n",
                 second.status().to_string().c_str());
    return 1;
  }
  // Budget enforcement runs at submit time, so a run's own arena growth is
  // reclaimed at the *next* submit. The first warm request walks the LRU:
  // the cold first model already shed its arenas, now its schedule goes
  // too — the full eviction the restage below recovers from.
  const auto warm = budgeted.submit("soc?model=lenet5_b", lenet_image).get();
  if (!warm.is_ok()) {
    std::fprintf(stderr, "warm run failed: %s\n",
                 warm.status().to_string().c_str());
    return 1;
  }
  const std::uint64_t resident_after_evict = budgeted.replay_resident_bytes();
  const std::uint64_t evictions_after_second =
      budgeted.counters().evictions;

  // The first model's next request re-stages it transparently; the one
  // after serves from the fresh schedule and the budget evicts the
  // now-cold second model in turn.
  const auto restaged = budgeted.submit("soc", lenet_image).get();
  const auto settled = budgeted.submit("soc", lenet_image).get();
  if (!restaged.is_ok() || !settled.is_ok()) {
    std::fprintf(stderr, "restage run failed\n");
    return 1;
  }
  const std::uint64_t resident_after_restage =
      budgeted.replay_resident_bytes();
  const std::uint64_t evictions_total = budgeted.counters().evictions;
  const bool bit_exact = restaged->output == first->output &&
                         settled->output == first->output;

  std::printf("\n%-12s %12s %14s %15s %10s %10s\n", "section", "budget B",
              "resident B", "post-restage B", "evictions", "bit-exact");
  std::printf("%-12s %12llu %14llu %15llu %10llu %10s\n", "budget",
              static_cast<unsigned long long>(budget_bytes),
              static_cast<unsigned long long>(resident_after_evict),
              static_cast<unsigned long long>(resident_after_restage),
              static_cast<unsigned long long>(evictions_total),
              bit_exact ? "yes" : "NO");

  report.add("budget", "budget_bytes", budget_bytes);
  report.add("budget", "resident_bytes_after_eviction", resident_after_evict);
  report.add("budget", "resident_bytes_after_restage", resident_after_restage);
  report.add("budget", "evictions", evictions_total);
  report.add("budget", "restage_bit_exact", bit_exact ? 1.0 : 0.0);
  report.write();

  bool ok = true;
  if (counters.staging_peak < 4) {
    std::fprintf(stderr, "FAIL: staging_peak %u < 4 — the vector prepare did "
                 "not overlap the fleet\n", counters.staging_peak);
    ok = false;
  }
  if (staged_variants < 4) {
    std::fprintf(stderr, "FAIL: only %zu variants staged\n", staged_variants);
    ok = false;
  }
  if (evictions_after_second < 1 ||
      resident_after_evict > budget_bytes ||
      resident_after_restage > budget_bytes) {
    std::fprintf(stderr, "FAIL: budget not enforced (evictions %llu, "
                 "resident %llu/%llu against budget %llu)\n",
                 static_cast<unsigned long long>(evictions_after_second),
                 static_cast<unsigned long long>(resident_after_evict),
                 static_cast<unsigned long long>(resident_after_restage),
                 static_cast<unsigned long long>(budget_bytes));
    ok = false;
  }
  if (!bit_exact) {
    std::fprintf(stderr, "FAIL: restaged output differs from the original\n");
    ok = false;
  }

  bench::print_footer_note(
      "staging times and concurrent_staging_speedup are wall-clock and "
      "host-dependent (not gated);\nthe per-model dedup is checked "
      "exactly (one staging task and one VP trace per model),\nplus "
      "restage_bit_exact and the eviction stats the perf gate asserts are "
      "present");
  return ok ? 0 : 1;
}
