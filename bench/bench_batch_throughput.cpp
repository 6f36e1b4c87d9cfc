// Batched-inference throughput: thread-pooled run_batch_parallel vs
// streaming submit() on the same InferenceSession artifacts, plus the
// functional-replay leg checked bit-exact against them.
//
// The serving story behind the runtime API: the offline flow is staged
// once (weights, calibration, loadable, one VP trace + recorded replay
// schedule), then every further image only repacks the input surface and
// replays the schedule's functional ops — no ISS, no KMD, no trace
// capture. This bench measures what that buys end to end and reports the
// trajectory metrics (BENCH_batch_throughput.json).
//
// Wall-clock metrics (ms, images/sec, ratios) vary with the host and are
// reported, not gated; the serving wall-clock record is perfbench/. The
// gated trajectory metrics are virtual-time: platform_cycles_per_image and
// virtual_images_per_sec (both simulator-deterministic), plus one host
// rate that bench/check_regression.py floors, the int8 conv kernel's
// GMAC/s. The bench exits non-zero when any leg diverges bit-wise, when
// the replay leg re-traces or replays a different number of images, or
// when the ISS microbench's block-cache counters differ from what its
// fixed program dictates: exact checks, which no host load can blur.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bench_util.hpp"
#include "mem/dram.hpp"
#include "mem/program_memory.hpp"
#include "models/models.hpp"
#include "nvdla/replay.hpp"
#include "riscv/assembler.hpp"
#include "riscv/cpu.hpp"
#include "runtime/inference_session.hpp"
#include "runtime/thread_pool.hpp"
#include "vp/replay_engine.hpp"

using namespace nvsoc;

namespace {

double wall_ms(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// Flat byte-addressable memory for replaying a schedule op by op.
class FlatMemory final : public nvdla::ReplayMemory {
 public:
  explicit FlatMemory(std::uint64_t bytes) : bytes_(bytes, 0) {}
  void read(Addr addr, std::span<std::uint8_t> out) const override {
    check(addr, out.size());
    std::memcpy(out.data(), bytes_.data() + addr, out.size());
  }
  void write(Addr addr, std::span<const std::uint8_t> data) override {
    check(addr, data.size());
    std::memcpy(bytes_.data() + addr, data.data(), data.size());
  }

 private:
  void check(Addr addr, std::size_t count) const {
    if (addr > bytes_.size() || count > bytes_.size() - addr) {
      throw std::out_of_range("flat replay memory access out of range");
    }
  }
  std::vector<std::uint8_t> bytes_;
};

}  // namespace

int main() {
  bench::print_header(
      "Batch throughput: run_batch_parallel vs streaming submit() vs "
      "functional replay");
  bench::JsonReport report("batch_throughput");

  constexpr std::size_t kImages = 8;
  // Floor of 2 so the batch splits across more than one pool worker even
  // on single-core hosts, which keeps the pooled paths exercised there.
  const std::size_t workers =
      std::max<std::size_t>(2, runtime::ThreadPool::recommended_workers(kImages));

  struct Case {
    const char* model;
    compiler::Network (*build)();
    /// Stable report/section label — the baseline JSON is keyed on it, so
    /// it must not change when spec spellings do.
    const char* label;
    /// The cycle-accurate legs. The SoC platforms replay by default now,
    /// so full simulation is selected explicitly — keeping the measured
    /// flows identical to the pre-flip bench.
    const char* backend;
    /// The functional-replay serving leg: for the simulation-backed `vp`
    /// backend the repack path replays automatically.
    const char* replay_backend;
    /// Images the replay leg must replay after its single VP trace: the
    /// replay-mode SoC replays every image, the traced one included; the
    /// VP serves the traced image from its trace.
    std::uint64_t replays;
  };
  const Case cases[] = {
      {"lenet5", models::lenet5, "soc", "soc?mode=cycle_accurate",
       "soc?mode=replay", kImages},
      {"lenet5", models::lenet5, "vp", "vp", "vp", kImages - 1},
      {"resnet18", models::resnet18_cifar, "soc", "soc?mode=cycle_accurate",
       "soc?mode=replay", kImages},
  };

  std::printf("%-10s %-6s %3s img | %10s %10s | %9s %9s\n", "Model",
              "Backend", "", "parallel", "stream", "par im/s", "str im/s");

  for (const auto& c : cases) {
    const compiler::Network network = c.build();
    std::vector<std::vector<float>> images;
    for (std::size_t i = 0; i < kImages; ++i) {
      images.push_back(
          compiler::synthetic_input(network.input_shape(), 9000 + i));
    }

    runtime::InferenceSession parallel(c.build());
    runtime::InferenceSession streaming(c.build());
    // Stage the shared artifacts outside the timed region for every path:
    // the bench measures batch execution, not one-time compilation.
    (void)parallel.prepare(images.front());
    (void)streaming.prepare(images.front());

    runtime::BatchOptions options;
    options.workers = workers;
    const auto t1 = std::chrono::steady_clock::now();
    const auto par = parallel.run_batch_parallel(c.backend, images, options);
    const auto t2 = std::chrono::steady_clock::now();

    // Streaming arrivals: submit every image up front (no batch barrier),
    // collect in submission order. Same session-lifetime pool mechanics as
    // the parallel batch, minus the barrier. The first get() is timed
    // separately: submit-to-first-result is the latency a streaming client
    // actually feels (staging happens in the pool, so the calling thread
    // pays enqueue cost only).
    std::vector<runtime::PendingResult> pending;
    pending.reserve(kImages);
    for (const auto& image : images) {
      pending.push_back(streaming.submit(c.backend, image));
    }
    std::vector<runtime::ExecutionResult> stream_results;
    stream_results.reserve(kImages);
    Status stream_status = Status::ok();
    double first_result_ms = 0.0;
    for (auto& handle : pending) {
      auto result = handle.get();
      if (stream_results.empty() && stream_status.is_ok()) {
        first_result_ms = wall_ms(t2, std::chrono::steady_clock::now());
      }
      if (!result.is_ok()) {
        if (stream_status.is_ok()) stream_status = result.status();
        continue;
      }
      stream_results.push_back(std::move(result).value());
    }
    const auto t3 = std::chrono::steady_clock::now();

    // Functional-replay leg, checked bit-exact against the parallel batch
    // (cycle-accurate on the SoC cases). Replay silently degrading into
    // re-simulation is checked exactly below: one VP trace for the whole
    // leg, and exactly c.replays replays.
    runtime::InferenceSession replaying(c.build());
    (void)replaying.prepare(images.front());
    const auto t4 = std::chrono::steady_clock::now();
    const auto rep =
        replaying.run_batch_parallel(c.replay_backend, images, options);
    const auto t5 = std::chrono::steady_clock::now();
    const double replay_ms = wall_ms(t4, t5);

    if (!par.is_ok() || !stream_status.is_ok() || !rep.is_ok()) {
      std::fprintf(stderr, "%s/%s failed: %s%s%s\n", c.model, c.label,
                   par.status().to_string().c_str(),
                   stream_status.to_string().c_str(),
                   rep.status().to_string().c_str());
      return 2;
    }

    Cycle total_cycles = 0;
    bool bit_exact = true;
    for (std::size_t i = 0; i < kImages; ++i) {
      total_cycles += (*par)[i].cycles;
      bit_exact = bit_exact && (*par)[i].output == stream_results[i].output &&
                  (*par)[i].cycles == stream_results[i].cycles &&
                  (*par)[i].output == (*rep)[i].output &&
                  (*par)[i].cycles == (*rep)[i].cycles;
    }
    if (!bit_exact) {
      std::fprintf(stderr,
                   "%s/%s: streaming/replay results diverge from the "
                   "parallel batch\n",
                   c.model, c.label);
      return 2;
    }
    const runtime::StageCounters replay_counters = replaying.counters();
    if (replay_counters.trace != 1 || replay_counters.replay != c.replays) {
      std::fprintf(stderr,
                   "%s/%s: replay leg ran %llu VP traces and %llu replays, "
                   "expected 1 and %llu\n",
                   c.model, c.label,
                   static_cast<unsigned long long>(replay_counters.trace),
                   static_cast<unsigned long long>(replay_counters.replay),
                   static_cast<unsigned long long>(c.replays));
      return 2;
    }

    // Arena staging microbench: replay an *empty* op span so both legs do
    // exactly the per-image arena staging (preload vs reset + input pack)
    // and none of the op math, which dominates wall time and cancels out
    // of the serving comparison anyway. "fresh" builds a new engine — and
    // thus a new arena (sparse-page allocation + weight-blob copy) — per
    // image, which is what every replay paid before arena reuse; "reused"
    // checks the one warm arena out and resets only the pages the
    // previous image dirtied.
    constexpr int kArenaReps = 64;
    const auto& staged = replaying.prepared();
    const compiler::Loadable& staged_loadable = staged.loadable();
    const std::span<const nvdla::ReplayOp> no_ops;
    const auto a0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kArenaReps; ++r) {
      vp::ReplayEngine fresh(staged.nvdla());
      (void)fresh.run(staged_loadable, no_ops, images[r % kImages]);
    }
    const double arena_fresh_ms =
        wall_ms(a0, std::chrono::steady_clock::now());
    vp::ReplayEngine reused(staged.nvdla());
    (void)reused.run(staged_loadable, no_ops, images[0]);  // warm the arena
    const auto a1 = std::chrono::steady_clock::now();
    for (int r = 0; r < kArenaReps; ++r) {
      (void)reused.run(staged_loadable, no_ops, images[r % kImages]);
    }
    const double arena_reuse_ms =
        wall_ms(a1, std::chrono::steady_clock::now());
    const double arena_speedup = arena_fresh_ms / arena_reuse_ms;

    const double par_ms = wall_ms(t1, t2);
    const double str_ms = wall_ms(t2, t3);
    const double par_ips = kImages / (par_ms / 1e3);
    const double str_ips = kImages / (str_ms / 1e3);
    const std::string section = std::string(c.model) + "_" + c.label;
    // Virtual-time throughput: simulator cycles per image at the platform
    // clock — deterministic across hosts, unlike the wall-clock columns.
    const Cycle cycles_per_image = total_cycles / kImages;
    const double virtual_ips =
        static_cast<double>(par->front().clock) / cycles_per_image;
    std::printf("%-10s %-6s %3zu img | %7.1f ms %7.1f ms | %9.1f %9.1f | "
                "replay %7.1f ms, %5.2fx arena | first %5.2f ms\n",
                c.model, c.label, kImages, par_ms, str_ms, par_ips, str_ips,
                replay_ms, arena_speedup, first_result_ms);
    std::fflush(stdout);

    report.add(section, "images", static_cast<std::uint64_t>(kImages));
    report.add(section, "workers", static_cast<std::uint64_t>(workers));
    report.add(section, "parallel_wall_ms", par_ms);
    report.add(section, "parallel_images_per_sec", par_ips);
    report.add(section, "streaming_wall_ms", str_ms);
    report.add(section, "streaming_images_per_sec", str_ips);
    report.add(section, "first_result_latency_ms", first_result_ms);
    report.add(section, "platform_cycles_per_image",
               static_cast<std::uint64_t>(cycles_per_image));
    report.add(section, "virtual_images_per_sec", virtual_ips);
    report.add(section, "replay_wall_ms", replay_ms);
    report.add(section, "arena_fresh_ms", arena_fresh_ms);
    report.add(section, "arena_reuse_ms", arena_reuse_ms);
    report.add(section, "arena_replay_speedup", arena_speedup);
    report.add(section, "replays_executed",
               static_cast<std::uint64_t>(replay_counters.replay));
    report.add(section, "vp_replays_parallel",
               static_cast<std::uint64_t>(parallel.counters().trace));
    report.add(section, "vp_replays_streaming",
               static_cast<std::uint64_t>(streaming.counters().trace));

    // Decode-cache ablation (ISS-bearing legs only): the cycle-accurate
    // parallel batch above dispatched from the decoded-block cache; re-run
    // it with the same BatchOptions and `?decode_cache=off` — the
    // per-instruction fetch/decode oracle. Cycles and outputs must be
    // bit-identical (the cache is a host-side optimisation, not a model
    // change), and the cached leg's CpuStats counters are the evidence
    // that blocks were actually built and replayed.
    if (std::string(c.backend).find("cycle_accurate") != std::string::npos) {
      runtime::InferenceSession oracle(c.build());
      (void)oracle.prepare(images.front());
      const std::string off_spec =
          std::string(c.backend) + "&decode_cache=off";
      const auto u0 = std::chrono::steady_clock::now();
      const auto unc = oracle.run_batch_parallel(off_spec, images, options);
      const double dc_off_ms = wall_ms(u0, std::chrono::steady_clock::now());
      if (!unc.is_ok()) {
        std::fprintf(stderr, "%s/%s decode_cache=off leg failed: %s\n",
                     c.model, c.label, unc.status().to_string().c_str());
        return 2;
      }
      for (std::size_t i = 0; i < kImages; ++i) {
        if ((*par)[i].cycles != (*unc)[i].cycles ||
            (*par)[i].output != (*unc)[i].output) {
          std::fprintf(stderr,
                       "%s/%s: decode-cache run diverges from the "
                       "per-instruction oracle on image %zu\n",
                       c.model, c.label, i);
          return 2;
        }
      }
      const auto& cached_cpu = par->front().soc->cpu.stats;
      const auto& oracle_cpu = unc->front().soc->cpu.stats;
      if (cached_cpu.decoded_blocks == 0 || cached_cpu.block_hits == 0 ||
          oracle_cpu.decoded_blocks != 0) {
        std::fprintf(stderr,
                     "%s/%s: decode-cache evidence counters are wrong "
                     "(cached blocks=%llu hits=%llu, oracle blocks=%llu)\n",
                     c.model, c.label,
                     static_cast<unsigned long long>(
                         cached_cpu.decoded_blocks),
                     static_cast<unsigned long long>(cached_cpu.block_hits),
                     static_cast<unsigned long long>(
                         oracle_cpu.decoded_blocks));
        return 2;
      }
      std::printf("%-10s %-6s decode cache: %7.1f ms cached vs %7.1f ms "
                  "oracle (%5.2fx end to end), %llu blocks, %llu hits, "
                  "%llu invalidations, cycles bit-identical\n",
                  c.model, c.label, par_ms, dc_off_ms, dc_off_ms / par_ms,
                  static_cast<unsigned long long>(cached_cpu.decoded_blocks),
                  static_cast<unsigned long long>(cached_cpu.block_hits),
                  static_cast<unsigned long long>(
                      cached_cpu.block_invalidations));
      std::fflush(stdout);
      // End-to-end the ISS is a minority of the wall time (the NVDLA
      // datapath model dominates); the ISS-dominated microbench below
      // isolates the cache.
      report.add(section, "decode_cache_off_wall_ms", dc_off_ms);
      report.add(section, "decode_cache_end_to_end_ratio",
                 dc_off_ms / par_ms);
      report.add(section, "decoded_blocks", cached_cpu.decoded_blocks);
      report.add(section, "block_hits", cached_cpu.block_hits);
      report.add(section, "block_invalidations",
                 cached_cpu.block_invalidations);
    }
  }

  // ISS decode-cache microbench. The inference legs above spend most of
  // their wall time in the NVDLA datapath kernels, which dilutes the ISS
  // dispatch win to noise — so this leg isolates what the cache actually
  // accelerates: the fetch/decode/execute loop itself. One poll-shaped
  // program (load + count + branch, the generated programs' wait idiom)
  // runs twice on the same timing model, decoded-block dispatch vs the
  // per-instruction oracle; cycles and stats must agree bit for bit. The
  // wall-clock ratio is reported; cached dispatch degrading into
  // per-instruction execution is caught exactly by the block counters the
  // program dictates: three blocks (entry + first iteration, loop body,
  // ebreak), and the loop body decoded on its second iteration and hit on
  // every later one.
  {
    constexpr std::uint64_t kIterations = 1500000;
    constexpr std::uint64_t kBlocks = 3;
    constexpr std::uint64_t kBlockHits = kIterations - 2;
    rv::Assembler assembler;
    const auto image = assembler.assemble(R"(
      li   s0, 0x1000
      li   t0, 0
      li   t1, 1500000
    loop:
      lw   t2, 0(s0)
      addi t0, t0, 1
      bne  t0, t1, loop
      ebreak
    )");
    double leg_ms[2] = {0.0, 0.0};
    rv::RunResult leg_result[2];
    for (int leg = 0; leg < 2; ++leg) {
      ProgramMemory pmem(64 * 1024);
      pmem.load_image(0, image.bytes);
      Dram dram(1 << 20);
      rv::CpuConfig config;
      config.decode_cache = (leg == 0);
      rv::Cpu cpu(pmem, dram, config);
      const auto m0 = std::chrono::steady_clock::now();
      leg_result[leg] = cpu.run();
      leg_ms[leg] = wall_ms(m0, std::chrono::steady_clock::now());
    }
    const auto& cached = leg_result[0];
    const auto& oracle = leg_result[1];
    if (cached.cycles != oracle.cycles ||
        cached.stats.instructions != oracle.stats.instructions ||
        cached.stats.memory_stall_cycles !=
            oracle.stats.memory_stall_cycles ||
        cached.stats.taken_branches != oracle.stats.taken_branches ||
        oracle.stats.decoded_blocks != 0) {
      std::fprintf(stderr,
                   "ISS decode-cache microbench: cached dispatch diverges "
                   "from the per-instruction oracle\n");
      return 2;
    }
    if (cached.stats.decoded_blocks != kBlocks ||
        cached.stats.block_hits != kBlockHits) {
      std::fprintf(stderr,
                   "ISS decode-cache microbench: %llu blocks and %llu hits, "
                   "expected %llu and %llu\n",
                   static_cast<unsigned long long>(cached.stats.decoded_blocks),
                   static_cast<unsigned long long>(cached.stats.block_hits),
                   static_cast<unsigned long long>(kBlocks),
                   static_cast<unsigned long long>(kBlockHits));
      return 2;
    }
    const double dc_speedup = leg_ms[1] / leg_ms[0];
    const double cached_mips =
        cached.stats.instructions / (leg_ms[0] * 1e3);
    std::printf("ISS decode cache: %.1fM instructions, %6.1f ms cached "
                "(%.1f Minstr/s) vs %6.1f ms oracle (%5.2fx), cycles "
                "bit-identical\n",
                cached.stats.instructions / 1e6, leg_ms[0], cached_mips,
                leg_ms[1], dc_speedup);
    std::fflush(stdout);
    report.add("iss_decode_cache", "instructions",
               cached.stats.instructions);
    report.add("iss_decode_cache", "cached_wall_ms", leg_ms[0]);
    report.add("iss_decode_cache", "decode_cache_off_wall_ms", leg_ms[1]);
    report.add("iss_decode_cache", "decode_cache_speedup", dc_speedup);
    report.add("iss_decode_cache", "cached_minstr_per_sec", cached_mips);
    report.add("iss_decode_cache", "decoded_blocks",
               cached.stats.decoded_blocks);
    report.add("iss_decode_cache", "block_hits", cached.stats.block_hits);
    report.add("iss_decode_cache", "block_invalidations",
               cached.stats.block_invalidations);
  }

  // int8 conv kernel gate. Host time of the conv ops (conv + its flying
  // SDP, as nvdla::replay_op runs them) per image, replaying the staged
  // schedule op by op over flat memory: two warm-up images, then a median
  // with quartiles over kConvRepeats. Every repeat's output must match the
  // served answer bit for bit. ResNet-18 is the gated model:
  // check_regression.py floors its conv_gmac_per_s (from the median) above
  // the 4.3-5.1 GMAC/s that the whole-layer int8 im2col kernel this one
  // replaced reads. LeNet-5 is reported next to it, ungated, with its
  // fully-connected (1x1-output) ops split out: small planes and FC layers
  // are where a pixel-tiled kernel has the least to gain.
  {
    constexpr int kWarmup = 2;
    constexpr int kConvRepeats = 15;
    struct ConvTiming {
      std::uint64_t conv_ops = 0;
      std::uint64_t fc_ops = 0;
      std::uint64_t macs = 0;
      bench::Summary conv;
      bench::Summary fc;
      double gmac_per_s = 0.0;
    };
    const auto time_conv_ops = [&](const char* model,
                                   compiler::Network network,
                                   ConvTiming& t) -> bool {
      runtime::InferenceSession session(std::move(network));
      const std::vector<float> image = session.default_input();
      const auto served = session.run("vp", image);
      if (!served.is_ok()) {
        std::fprintf(stderr, "int8_conv: %s vp run failed: %s\n", model,
                     served.status().to_string().c_str());
        return false;
      }
      const core::ReplaySchedule& schedule =
          session.prepared().replay_schedule();
      const compiler::Loadable& loadable = session.loadable();
      const nvdla::NvdlaConfig& config = session.config().nvdla;
      FlatMemory memory(loadable.arena_end + (1u << 20));
      const auto is_fc = [](const nvdla::ReplayOp& op) {
        return op.conv.out_h == 1 && op.conv.out_w == 1;
      };
      for (const nvdla::ReplayOp& op : schedule.ops) {
        if (op.kind != nvdla::ReplayOp::Kind::kConv) continue;
        ++t.conv_ops;
        if (is_fc(op)) ++t.fc_ops;
        t.macs += op.conv.macs();
      }
      std::vector<double> conv_ms;
      std::vector<double> fc_ms;
      for (int rep = 0; rep < kWarmup + kConvRepeats; ++rep) {
        memory.write(loadable.weight_base, loadable.weight_blob);
        memory.write(loadable.input_surface.base, loadable.pack_input(image));
        double all = 0.0;
        double fc = 0.0;
        for (const nvdla::ReplayOp& op : schedule.ops) {
          const auto k0 = std::chrono::steady_clock::now();
          nvdla::replay_op(config, op, memory);
          if (op.kind != nvdla::ReplayOp::Kind::kConv) continue;
          const double ms = wall_ms(k0, std::chrono::steady_clock::now());
          all += ms;
          if (is_fc(op)) fc += ms;
        }
        std::vector<std::uint8_t> raw(loadable.output_surface.span_bytes());
        memory.read(loadable.output_surface.base, raw);
        if (loadable.unpack_output(raw) != served->output) {
          std::fprintf(stderr,
                       "int8_conv: %s replayed output diverges from the "
                       "served answer on repeat %d\n",
                       model, rep);
          return false;
        }
        if (rep >= kWarmup) {
          conv_ms.push_back(all);
          fc_ms.push_back(fc);
        }
      }
      t.conv = bench::summarize(conv_ms);
      t.fc = bench::summarize(fc_ms);
      t.gmac_per_s = static_cast<double>(t.macs) / (t.conv.median * 1e6);
      std::printf("int8 conv kernel (%s): %-8s %2llu conv ops (%llu FC), "
                  "%5.1f MMAC/image: %.3f ms median [q1 %.3f, q3 %.3f] over "
                  "%d repeats = %.2f GMAC/s (FC ops %.3f ms), outputs "
                  "bit-exact\n",
                  nvdla::int8_conv_kernel_isa(), model,
                  static_cast<unsigned long long>(t.conv_ops),
                  static_cast<unsigned long long>(t.fc_ops), t.macs / 1e6,
                  t.conv.median, t.conv.q1, t.conv.q3, kConvRepeats,
                  t.gmac_per_s, t.fc.median);
      std::fflush(stdout);
      return true;
    };
    ConvTiming resnet;
    ConvTiming lenet;
    if (!time_conv_ops("resnet18", models::resnet18_cifar(), resnet) ||
        !time_conv_ops("lenet5", models::lenet5(), lenet)) {
      return 2;
    }
    report.add("int8_conv", "model", std::string("resnet18"));
    report.add("int8_conv", "kernel_isa",
               std::string(nvdla::int8_conv_kernel_isa()));
    report.add("int8_conv", "conv_ops", resnet.conv_ops);
    report.add("int8_conv", "macs_per_image", resnet.macs);
    report.add("int8_conv", "repeats", kConvRepeats);
    report.add("int8_conv", "conv_host_ms_median", resnet.conv.median);
    report.add("int8_conv", "conv_host_ms_q1", resnet.conv.q1);
    report.add("int8_conv", "conv_host_ms_q3", resnet.conv.q3);
    report.add("int8_conv", "conv_host_ms_min", resnet.conv.min);
    report.add("int8_conv", "conv_host_ms_max", resnet.conv.max);
    report.add("int8_conv", "conv_gmac_per_s", resnet.gmac_per_s);
    report.add("int8_conv", "lenet5_conv_ops", lenet.conv_ops);
    report.add("int8_conv", "lenet5_fc_ops", lenet.fc_ops);
    report.add("int8_conv", "lenet5_macs_per_image", lenet.macs);
    report.add("int8_conv", "lenet5_conv_host_ms_median", lenet.conv.median);
    report.add("int8_conv", "lenet5_conv_host_ms_q1", lenet.conv.q1);
    report.add("int8_conv", "lenet5_conv_host_ms_q3", lenet.conv.q3);
    report.add("int8_conv", "lenet5_fc_host_ms_median", lenet.fc.median);
    report.add("int8_conv", "lenet5_gmac_per_s", lenet.gmac_per_s);
  }

  report.write();
  bench::print_footer_note(
      "Same staged artifacts, one VP trace + recorded replay schedule and "
      "one thread pool per session; streaming, replay and full-sim "
      "results are bit-exact with the parallel batch, and the replay leg "
      "ran exactly one VP trace (verified above). Replay ratios, reported "
      "ungated: 'engine' is the same-shape pooled pair differing only in "
      "the schedule, 'arena' is per-image arena staging fresh-vs-reused. "
      "'first' is the streaming submit-to-first-get latency.");
  return 0;
}
