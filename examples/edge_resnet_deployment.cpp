// Scenario example 2: edge deployment study for a CIFAR-class workload.
//
// The paper's motivation: resource-constrained edge devices cannot afford
// a Linux kernel + driver stack. This example deploys ResNet-18 (3x32x32)
// through the runtime API and reports everything an edge integrator would
// ask for:
//   * end-to-end latency and its decomposition (config vs compute),
//   * on-chip memory footprint (program memory, DRAM arena),
//   * the Linux-stack comparator — selected from the same BackendRegistry
//     ("linux_baseline") as the bare-metal board ("system_top"),
//   * energy-proxy numbers (cycle counts per inference),
//   * multi-camera batch serving through run_batch_parallel: one staged
//     flow (a single VP trace), every frame replayed on pooled workers.
//
// Build & run:  ./build/examples/edge_resnet_deployment
#include <chrono>
#include <cstdio>

#include "core/report.hpp"
#include "models/models.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/thread_pool.hpp"

using namespace nvsoc;

int main(int argc, char** argv) {
  const std::string board =
      argc > 1 ? argv[1] : "system_top";  // accepts any backend spec
  if (board == "--help" || board == "-h") {
    std::printf("usage: %s [board-backend-spec]\n\n"
                "Deploys ResNet-18 through the runtime API and reports the "
                "edge-integration\nnumbers (latency, storage, Linux-stack "
                "comparison, batch serving). The board\ndefaults to "
                "'system_top'; pass any backend spec to re-point it, e.g.\n"
                "'system_top?mode=replay' for functional-replay serving.\n\n"
                "%s",
                argv[0], runtime::spec_vocabulary_help().c_str());
    return 0;
  }
  runtime::InferenceSession session(models::resnet18_cifar());

  std::printf("=== edge deployment: %s on nv_small @100 MHz ===\n\n",
              session.network().name().c_str());
  const auto exec = session.run(board);
  if (!exec.is_ok()) {
    std::fprintf(stderr, "run failed: %s\n", exec.status().to_string().c_str());
    return 2;
  }
  if (!exec->soc.has_value()) {
    std::fprintf(stderr,
                 "'%s' is not a SoC-style board backend (no bus census); "
                 "use soc/system_top variants\n",
                 board.c_str());
    return 2;
  }
  const core::PreparedModel& prepared = session.prepared();

  // --- latency ---------------------------------------------------------
  std::printf("latency: %.2f ms per inference (%llu cycles)\n", exec->ms,
              static_cast<unsigned long long>(exec->cycles));
  const auto& census = exec->soc->census;
  const std::uint64_t csb_transfers = census.apb2csb.transfers();
  std::printf("  CSB config path: %llu register transfers (polling "
              "included)\n",
              static_cast<unsigned long long>(csb_transfers));
  std::printf("  NVDLA data path: %.2f MB moved over the 64->32 DBB "
              "converter\n",
              (census.dbb.bytes_read + census.dbb.bytes_written) / 1e6);
  const auto& engine_stats = exec->soc->engine_stats;
  std::printf("  hardware layers: %llu (conv %llu, sdp %llu, pdp %llu)\n",
              static_cast<unsigned long long>(engine_stats.total_ops()),
              static_cast<unsigned long long>(engine_stats.conv_ops),
              static_cast<unsigned long long>(engine_stats.sdp_ops),
              static_cast<unsigned long long>(engine_stats.pdp_ops));

  // --- storage ----------------------------------------------------------
  std::printf("\nstorage budget (no kernel, no filesystem, no driver):\n");
  std::printf("  program memory : %8zu bytes of machine code\n",
              prepared.program().image.bytes.size());
  std::printf("  DRAM preload   : %8.2f MB (weights + input)\n",
              prepared.vp().weights.total_bytes() / 1e6);
  std::printf("  DRAM arena     : %8.2f MB total (activations included)\n",
              prepared.loadable().arena_end / 1e6);

  // --- vs the Linux-stack platform --------------------------------------
  const auto linux_run = session.run("linux_baseline");
  if (!linux_run.is_ok()) {
    std::fprintf(stderr, "baseline failed: %s\n",
                 linux_run.status().to_string().c_str());
    return 2;
  }
  std::printf("\nLinux-stack platform (Giri et al. [8], 50 MHz):\n");
  std::printf("  estimated latency: %.1f ms (%.0f%% software overhead)\n",
              linux_run->ms,
              linux_run->linux_estimate->overhead_fraction() * 100.0);
  std::printf("  bare-metal speedup: %.1fx\n", linux_run->ms / exec->ms);
  std::printf("  plus: no kernel image (~10s of MB), no driver modules, "
              "no boot time\n");

  // --- per-layer profile -------------------------------------------------
  const auto profile =
      core::build_profile(prepared.loadable(), prepared.vp().op_records);
  std::printf("\nper-layer hotspots (top 5 of %zu):\n%s",
              profile.layers.size(),
              core::format_profile(
                  core::ExecutionProfile{profile.hotspots(5),
                                         profile.total_cycles},
                  session.config().soc_clock)
                  .c_str());

  // --- batch serving -----------------------------------------------------
  // An edge box rarely serves one camera: run a frame per camera through
  // the thread-pooled batch path. The staged artifacts above are reused as
  // is — no further VP replay — and each worker executes on its own SoC
  // instance, so results are bit-exact with one-at-a-time serving.
  constexpr std::size_t kCameras = 6;
  std::vector<std::vector<float>> frames;
  for (std::size_t cam = 0; cam < kCameras; ++cam) {
    frames.push_back(compiler::synthetic_input(
        session.network().input_shape(), 12'000 + cam));
  }
  runtime::BatchOptions batch_options;
  batch_options.workers = runtime::ThreadPool::recommended_workers(kCameras);
  const auto batch_start = std::chrono::steady_clock::now();
  const auto batch = session.run_batch_parallel(board, frames,
                                                batch_options);
  const auto batch_stop = std::chrono::steady_clock::now();
  if (!batch.is_ok()) {
    std::fprintf(stderr, "batch failed: %s\n",
                 batch.status().to_string().c_str());
    return 2;
  }
  const double batch_wall_ms =
      std::chrono::duration<double, std::milli>(batch_stop - batch_start)
          .count();
  std::printf("\nbatch serving (%zu cameras, %zu workers):\n", kCameras,
              batch_options.workers);
  std::printf("  host wall time : %.1f ms for the batch (%.1f frames/sec)\n",
              batch_wall_ms, kCameras / (batch_wall_ms / 1e3));
  std::printf("  board latency  : %.2f ms per frame (unchanged — same SoC)\n",
              (*batch)[0].ms);
  std::printf("  VP traces      : %u for the whole session (frames replay "
              "the recorded schedule: %u replays)\n",
              session.counters().trace, session.counters().replay);

  // --- streaming serving (async staging) ---------------------------------
  // A camera feed does not arrive as a batch. A cold streaming session
  // front-loads its whole staging pipeline with prepare_async() — frontend
  // compile, one VP trace, replay-schedule recording, and the board
  // backend's own staging hook, all inside the session pool — while
  // submit() hands each arriving frame to the same pool and returns
  // immediately. The calling thread never runs a simulation.
  runtime::InferenceSession streaming(models::resnet18_cifar());
  auto staging = streaming.prepare_async(board, frames.front());
  std::vector<runtime::PendingResult> inflight;
  const auto stream_start = std::chrono::steady_clock::now();
  for (const auto& frame : frames) {
    inflight.push_back(streaming.submit(board, frame));  // non-blocking
  }
  const double submit_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - stream_start)
          .count();
  const Status staged = staging.wait();
  if (!staged.is_ok()) {
    std::fprintf(stderr, "async staging failed: %s\n",
                 staged.to_string().c_str());
    return 2;
  }
  for (std::size_t i = 0; i < inflight.size(); ++i) {
    auto result = inflight[i].get();
    if (!result.is_ok() || result->output != (*batch)[i].output) {
      std::fprintf(stderr, "streaming frame %zu diverged from the batch\n", i);
      return 2;
    }
  }
  std::printf("\nstreaming serving (async staging, %u staging task):\n",
              streaming.counters().async_stagings);
  std::printf("  submit() cost  : %.2f ms to enqueue all %zu frames "
              "(staging ran in the pool)\n",
              submit_ms, frames.size());
  std::printf("  results        : bit-exact with the batch path, "
              "%u VP trace for the session\n",
              streaming.counters().trace);

  // --- accuracy ----------------------------------------------------------
  std::printf("\nINT8 deployment accuracy (vs FP32 reference on identical "
              "weights):\n");
  std::printf("  argmax match: %s, max |logit diff| %.4f\n",
              exec->predicted_class ==
                      compiler::argmax(prepared.reference_output)
                  ? "yes"
                  : "NO",
              core::max_abs_diff(exec->output, prepared.reference_output));
  return 0;
}
