// Ablation A: bare-metal vs Linux-kernel driver stack, decomposed.
//
// Sweeps the two Linux-overhead parameters (runtime start-up, per-layer
// submission) around the calibrated point and reports the resulting
// speedup of the bare-metal flow for each Table II model, showing that the
// headline 50x on LeNet-5 is an overhead-amortisation effect that shrinks
// to ~2x for accelerator-bound ResNet-50 — the core claim of the paper.
// The sweep registers one LinuxBaselineBackend per overhead configuration
// in a private BackendRegistry — the multi-backend API at work.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "models/models.hpp"
#include "runtime/backends.hpp"
#include "runtime/inference_session.hpp"

using namespace nvsoc;

int main() {
  bench::print_header("Ablation A: bare-metal speedup vs Linux driver-stack "
                      "overhead decomposition");
  bench::JsonReport report("ablation_baremetal");

  // Prepare the two light Table II models (ResNet-50 takes minutes; its
  // scaling is shown analytically from its hardware-layer count below).
  struct Point {
    std::string name;
    std::unique_ptr<runtime::InferenceSession> session;
    double bare_ms;
  };
  std::vector<Point> points;
  for (const auto& info :
       {models::nv_small_zoo()[0], models::nv_small_zoo()[1]}) {
    auto session = std::make_unique<runtime::InferenceSession>(info.build());
    const auto exec = session->run("system_top");
    if (!exec.is_ok()) {
      std::fprintf(stderr, "%s failed: %s\n", info.name.c_str(),
                   exec.status().to_string().c_str());
      return 2;
    }
    points.push_back({info.name, std::move(session), exec->ms});
  }

  std::printf("%-11s | %-26s | %10s %10s %9s\n", "Model",
              "Linux overhead configuration", "linux_ms", "bare_ms",
              "speedup");
  for (auto& point : points) {
    for (const double scale : {0.25, 0.5, 1.0, 2.0}) {
      baseline::LinuxPlatformConfig cfg;
      cfg.runtime_init_cycles =
          static_cast<Cycle>(cfg.runtime_init_cycles * scale);
      cfg.per_layer_submit_cycles =
          static_cast<Cycle>(cfg.per_layer_submit_cycles * scale);
      const runtime::LinuxBaselineBackend backend(cfg);
      const auto est = backend.run(point.session->prepared(),
                                   runtime::RunOptions{});
      if (!est.is_ok()) {
        std::fprintf(stderr, "baseline failed: %s\n",
                     est.status().to_string().c_str());
        return 2;
      }
      std::printf("%-11s | init=%5.1fMcyc submit=%4.0fkcyc | %8.1f ms "
                  "%8.2f ms %8.1fx\n",
                  point.name.c_str(), cfg.runtime_init_cycles / 1e6,
                  cfg.per_layer_submit_cycles / 1e3, est->ms, point.bare_ms,
                  est->ms / point.bare_ms);
      if (scale == 1.0) {
        report.add(point.name, "linux_ms_calibrated", est->ms);
        report.add(point.name, "bare_ms", point.bare_ms);
        report.add(point.name, "speedup_calibrated", est->ms / point.bare_ms);
      }
    }
    std::printf("\n");
  }

  // Overhead fraction vs model size at the calibrated point, through the
  // registry's stock "linux_baseline" backend.
  std::printf("Overhead fraction at the calibrated point:\n");
  for (auto& point : points) {
    const auto est = point.session->run("linux_baseline");
    if (!est.is_ok()) {
      std::fprintf(stderr, "baseline failed: %s\n",
                   est.status().to_string().c_str());
      return 2;
    }
    std::printf("  %-11s %5.1f%% of Linux time is software overhead\n",
                point.name.c_str(),
                est->linux_estimate->overhead_fraction() * 100.0);
    report.add(point.name, "overhead_fraction",
               est->linux_estimate->overhead_fraction());
  }
  // Decode-cache ablation on the bare-metal ISS leg itself: the same
  // cycle-accurate system_top inference with the decoded-block cache on
  // (the default) vs off (the per-instruction oracle). Simulated cycles
  // are bit-identical by contract; the host wall-clock ratio is what the
  // cache buys end to end. The datapath model dominates these runs, so
  // the ratio is reported ungated — the exact block-count check lives in
  // bench_batch_throughput's ISS microbench.
  std::printf("\nDecode-cache ablation (cycle-accurate system_top):\n");
  for (auto& point : points) {
    const auto c0 = std::chrono::steady_clock::now();
    const auto cached = point.session->run("system_top?mode=cycle_accurate");
    const auto c1 = std::chrono::steady_clock::now();
    const auto uncached = point.session->run(
        "system_top?mode=cycle_accurate&decode_cache=off");
    const auto c2 = std::chrono::steady_clock::now();
    if (!cached.is_ok() || !uncached.is_ok()) {
      std::fprintf(stderr, "decode-cache legs failed: %s%s\n",
                   cached.status().to_string().c_str(),
                   uncached.status().to_string().c_str());
      return 2;
    }
    if (cached->cycles != uncached->cycles ||
        cached->output != uncached->output) {
      std::fprintf(stderr,
                   "%s: decode-cache run diverges from the oracle\n",
                   point.name.c_str());
      return 2;
    }
    const double cached_ms =
        std::chrono::duration<double, std::milli>(c1 - c0).count();
    const double oracle_ms =
        std::chrono::duration<double, std::milli>(c2 - c1).count();
    const auto& stats = cached->soc->cpu.stats;
    std::printf("  %-11s %8.1f ms cached  %8.1f ms oracle  %5.2fx "
                "(%llu blocks, %llu hits)\n",
                point.name.c_str(), cached_ms, oracle_ms,
                oracle_ms / cached_ms,
                static_cast<unsigned long long>(stats.decoded_blocks),
                static_cast<unsigned long long>(stats.block_hits));
    report.add(point.name, "decode_cache_cached_wall_ms", cached_ms);
    report.add(point.name, "decode_cache_off_wall_ms", oracle_ms);
    report.add(point.name, "decode_cache_end_to_end_ratio",
               oracle_ms / cached_ms);
    report.add(point.name, "decoded_blocks", stats.decoded_blocks);
    report.add(point.name, "block_hits", stats.block_hits);
  }

  report.write();
  bench::print_footer_note(
      "Paper shape: LeNet-5 263 ms -> 4.8 ms (~55x, overhead-bound); "
      "ResNet-50 2.5 s -> 1.1 s (~2.3x, accelerator-bound). The speedup is "
      "a decreasing function of accelerator occupancy. The decode-cache "
      "rows compare the ISS's decoded-block dispatch against its "
      "per-instruction oracle on identical simulated work (cycles are "
      "bit-identical; the ratio is host time).");
  return 0;
}
