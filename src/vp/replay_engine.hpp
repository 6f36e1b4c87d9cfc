// Functional replay engine over the VP memory model, with reusable
// per-worker arenas.
//
// Replays a recorded op schedule (nvdla/replay.hpp) for a new input image:
// an arena holds the loadable's parameters preloaded into a sparse paged
// memory — exactly the VP's preload — and the engine executes the
// functional op pipeline in recorded order through the zero-time backdoor.
// No kernel driver, no CSB programming, no trace or weight-file capture,
// no bus timing: the output cube is bit-identical to a full
// VirtualPlatform::run on the same image (the kernels and the byte
// movement are shared), at a small fraction of the cost. Cycle counts are
// the recorded schedule's — they are input-independent, so the caller
// reports them unchanged.
//
// The engine is session-lifetime and thread-safe: each concurrently
// replaying worker checks a private arena out of the engine's pool (built
// on first use, so the steady state holds one arena per worker) and checks
// it back in afterwards. The preloaded parameter pages are held once per
// engine, as an immutable baseline every arena reads through until it
// writes a page of its own.
//
// Between images an arena is *reset*, not rebuilt: every page the previous
// replay dirtied — its intermediate and output surfaces, the input it was
// given, and any weight page a fault injection flipped — is restored to the
// post-preload baseline (weight bytes back in place, everything else back
// to zero), and only then is the new packed input written. Every image
// therefore starts from exactly the state a fresh VirtualPlatform::run
// preloads, with no proof over the op descriptors, while skipping the
// per-image sparse allocation and multi-MB weight-blob copy of a
// from-scratch arena.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "compiler/loadable.hpp"
#include "fault/fault.hpp"
#include "nvdla/config.hpp"
#include "nvdla/replay.hpp"

namespace nvsoc::vp {

class ReplayEngine {
 public:
  explicit ReplayEngine(nvdla::NvdlaConfig config);
  ~ReplayEngine();

  ReplayEngine(const ReplayEngine&) = delete;
  ReplayEngine& operator=(const ReplayEngine&) = delete;

  /// Replay `ops` (launch order) for `image`; returns the decoded network
  /// output, bit-identical to a full VP run on the same image. Thread-safe;
  /// concurrent callers replay on distinct arenas. Every call against one
  /// engine must pass the same loadable (the arenas are preloaded with its
  /// weight blob) — a different arena layout throws kInvalidArgument-style
  /// std::invalid_argument.
  ///
  /// `injector` (may be nullptr) arms per-replay fault injection: an
  /// injected replay failure throws StatusError(kUnavailable); an injected
  /// weight bit flip corrupts the checked-out arena's weight region
  /// through the dirty-tracked write path (the next reset restores it) and
  /// the pre-replay integrity check detects it as StatusError(kDataLoss) —
  /// a corrupted arena never produces an answer.
  std::vector<float> run(const compiler::Loadable& loadable,
                         std::span<const nvdla::ReplayOp> ops,
                         std::span<const float> image,
                         fault::Injector* injector = nullptr);

  /// How many arenas this engine has built — at most one per worker that
  /// ever replayed concurrently, regardless of how many images ran.
  std::uint32_t arenas_built() const {
    return arenas_built_.load(std::memory_order_relaxed);
  }
  /// How many images this engine has replayed (across all arenas).
  std::uint64_t images_replayed() const {
    return images_replayed_.load(std::memory_order_relaxed);
  }
  /// Pages memcpy/memset-restored across every reset: per image, the
  /// pages the previous replay on that arena dirtied.
  std::uint64_t pages_restored() const {
    return pages_restored_.load(std::memory_order_relaxed);
  }

  /// Bytes currently held by this engine's arenas: their allocated pages
  /// plus the one post-preload baseline they share. This is the resident
  /// cost a byte-budget eviction policy reclaims — checked-out arenas are
  /// counted too (their page tallies are atomics, so an in-flight replay
  /// growing its arena never races this walk).
  std::uint64_t resident_bytes() const;

  /// Drop every checked-in arena and return the bytes freed (the shared
  /// baseline too, once no arena is left). Arenas checked out by in-flight
  /// replays survive untouched and return to the pool on release, where a
  /// later call can reclaim them; the engine itself stays valid and
  /// rebuilds an arena from the loadable on the next acquire. Thread-safe.
  std::uint64_t release_free_arenas();

 private:
  class Arena;
  struct Baseline;

  Arena* acquire(const compiler::Loadable& loadable);
  void release(Arena* arena);

  nvdla::NvdlaConfig config_;
  mutable Mutex mutex_;
  /// All arenas ever built.
  std::vector<std::unique_ptr<Arena>> arenas_ GUARDED_BY(mutex_);
  /// Checked-in arenas, ready to reset.
  std::vector<Arena*> free_ GUARDED_BY(mutex_);
  /// Post-preload page images shared by every arena (null while none is
  /// built).
  std::shared_ptr<const Baseline> baseline_ GUARDED_BY(mutex_);
  std::atomic<std::uint32_t> arenas_built_{0};
  std::atomic<std::uint64_t> images_replayed_{0};
  std::atomic<std::uint64_t> pages_restored_{0};
};

}  // namespace nvsoc::vp
