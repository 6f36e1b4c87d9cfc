#include "vp/replay_engine.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/bitutil.hpp"
#include "common/strfmt.hpp"

namespace nvsoc::vp {

namespace {
constexpr std::uint64_t kPageBytes = 4096;
}

// ---------------------------------------------------------------------------
// Baseline: the post-preload page images, shared by an engine's arenas
// ---------------------------------------------------------------------------

/// Every page the weight preload touches, as it reads right after the
/// preload (weight bytes, zeros around them). Built once per engine from
/// the loadable, immutable afterwards, and shared by all of its arenas:
/// an arena reads a preloaded page from here until it first writes it, and
/// restores dirtied pages from here.
struct ReplayEngine::Baseline {
  Addr weight_base = 0;
  std::size_t weight_bytes = 0;
  std::unordered_map<std::uint64_t, std::unique_ptr<std::uint8_t[]>> pages;

  std::uint64_t bytes() const { return pages.size() * kPageBytes; }

  bool matches(const compiler::Loadable& loadable) const {
    return weight_base == loadable.weight_base &&
           weight_bytes == loadable.weight_blob.size();
  }

  static std::shared_ptr<const Baseline> build(
      const compiler::Loadable& loadable) {
    auto baseline = std::make_shared<Baseline>();
    baseline->weight_base = loadable.weight_base;
    baseline->weight_bytes = loadable.weight_blob.size();
    const std::span<const std::uint8_t> blob = loadable.weight_blob;
    std::size_t done = 0;
    while (done < blob.size()) {
      const Addr cur = loadable.weight_base + done;
      const std::uint64_t in_page = cur % kPageBytes;
      const std::size_t chunk =
          std::min<std::size_t>(blob.size() - done, kPageBytes - in_page);
      auto& page = baseline->pages[cur / kPageBytes];
      if (page == nullptr) {
        page = std::make_unique<std::uint8_t[]>(kPageBytes);
        std::memset(page.get(), 0, kPageBytes);
      }
      std::memcpy(page.get() + in_page, blob.data() + done, chunk);
      done += chunk;
    }
    return baseline;
  }
};

// ---------------------------------------------------------------------------
// Arena: sparse paged replay memory over the shared baseline
// ---------------------------------------------------------------------------

/// Byte-addressable replay memory mirroring the VP DRAM's backdoor
/// semantics after the weight preload: a page the arena never wrote reads
/// as the shared baseline's page, or as zeros outside the preload. The
/// first write to a page gives the arena its own copy. Pages dirtied by a
/// replay are tracked so begin_image() restores exactly the post-preload
/// state without reallocating or re-copying the weight blob.
class ReplayEngine::Arena final : public nvdla::ReplayMemory {
 public:
  Arena(const compiler::Loadable& loadable,
        std::shared_ptr<const Baseline> baseline)
      : size_(align_up(loadable.arena_end + (1u << 20), 1u << 20)),
        weight_base_(loadable.weight_base),
        weight_bytes_(loadable.weight_blob.size()),
        input_base_(loadable.input_surface.base),
        baseline_(std::move(baseline)) {
    // Same preload as VirtualPlatform::run, through the baseline: the
    // parameters are in place; the input image is written per-replay by
    // begin_image.
    bounds_check(weight_base_, weight_bytes_);
  }

  /// Bytes this arena holds in its own pages (the shared baseline is the
  /// engine's to count). The page tally is an atomic because a checked-out
  /// arena keeps allocating while the engine walks its pool for accounting.
  std::uint64_t resident_bytes() const {
    return pages_allocated_.load(std::memory_order_relaxed) * kPageBytes;
  }

  /// True when `loadable` matches the layout this arena was preloaded for.
  bool matches(const compiler::Loadable& loadable) const {
    return weight_base_ == loadable.weight_base &&
           weight_bytes_ == loadable.weight_blob.size() &&
           input_base_ == loadable.input_surface.base &&
           size_ == align_up(loadable.arena_end + (1u << 20), 1u << 20);
  }

  /// Restore every page the previous replay dirtied to the post-preload
  /// baseline, then stage the packed input. Returns how many pages were
  /// restored.
  std::size_t begin_image(const compiler::Loadable& loadable,
                          std::span<const float> image) {
    for (const std::uint64_t index : dirty_) {
      auto& page = pages_.at(index);
      restore(index, page);
      page.dirty = false;
    }
    const std::size_t restored = dirty_.size();
    dirty_.clear();
    write(loadable.input_surface.base, loadable.pack_input(image));
    return restored;
  }

  std::vector<float> read_output(const compiler::Loadable& loadable) const {
    std::vector<std::uint8_t> raw(loadable.output_surface.span_bytes());
    read(loadable.output_surface.base, raw);
    return loadable.unpack_output(raw);
  }

  /// Fault path: flip one bit of the preloaded weight region through the
  /// dirty-tracked write path, so the next reset restores the baseline.
  void corrupt_weight_bit(std::uint64_t offset, std::uint8_t bit) {
    if (weight_bytes_ == 0) return;
    std::uint8_t byte = 0;
    read(weight_base_ + offset, std::span<std::uint8_t>(&byte, 1));
    byte ^= static_cast<std::uint8_t>(1u << bit);
    write(weight_base_ + offset, std::span<const std::uint8_t>(&byte, 1));
  }

  /// True when the arena's weight region matches `blob` bit for bit — the
  /// pre-replay integrity check of fault-armed runs.
  bool weights_match(std::span<const std::uint8_t> blob) const {
    std::vector<std::uint8_t> readback(blob.size());
    read(weight_base_, readback);
    return std::equal(readback.begin(), readback.end(), blob.begin(),
                      blob.end());
  }

  // --- ReplayMemory -------------------------------------------------------
  void read(Addr addr, std::span<std::uint8_t> out) const override {
    bounds_check(addr, out.size());
    std::size_t done = 0;
    while (done < out.size()) {
      const Addr cur = addr + done;
      const std::uint64_t in_page = cur % kPageBytes;
      const std::size_t chunk =
          std::min<std::size_t>(out.size() - done, kPageBytes - in_page);
      const std::uint8_t* page = page_bytes(cur / kPageBytes);
      if (page == nullptr) {
        std::memset(out.data() + done, 0, chunk);
      } else {
        std::memcpy(out.data() + done, page + in_page, chunk);
      }
      done += chunk;
    }
  }

  void write(Addr addr, std::span<const std::uint8_t> data) override {
    bounds_check(addr, data.size());
    std::size_t done = 0;
    while (done < data.size()) {
      const Addr cur = addr + done;
      const std::uint64_t in_page = cur % kPageBytes;
      const std::size_t chunk =
          std::min<std::size_t>(data.size() - done, kPageBytes - in_page);
      Page& page = pages_[cur / kPageBytes];
      if (page.data == nullptr) {
        page.data = std::make_unique<std::uint8_t[]>(kPageBytes);
        restore(cur / kPageBytes, page);
        pages_allocated_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!page.dirty) {
        page.dirty = true;
        dirty_.push_back(cur / kPageBytes);
      }
      std::memcpy(page.data.get() + in_page, data.data() + done, chunk);
      done += chunk;
    }
  }

 private:
  struct Page {
    std::unique_ptr<std::uint8_t[]> data;
    bool dirty = false;
  };

  /// The bytes page `index` reads as: the arena's own copy once written,
  /// else the baseline's page, else nullptr (all zeros).
  const std::uint8_t* page_bytes(std::uint64_t index) const {
    if (const auto it = pages_.find(index); it != pages_.end()) {
      return it->second.data.get();
    }
    const auto base = baseline_->pages.find(index);
    return base != baseline_->pages.end() ? base->second.get() : nullptr;
  }

  /// Reset `page`'s bytes to their post-preload content.
  void restore(std::uint64_t index, Page& page) const {
    if (const auto base = baseline_->pages.find(index);
        base != baseline_->pages.end()) {
      std::memcpy(page.data.get(), base->second.get(), kPageBytes);
    } else {
      std::memset(page.data.get(), 0, kPageBytes);
    }
  }

  void bounds_check(Addr addr, std::size_t count) const {
    if (addr + count > size_) {
      throw std::runtime_error(
          strfmt("replay arena access at {:#x}+{} beyond {:#x}", addr, count,
                 size_));
    }
  }

  std::uint64_t size_;
  Addr weight_base_;
  std::uint64_t weight_bytes_;
  Addr input_base_;
  std::unordered_map<std::uint64_t, Page> pages_;
  std::shared_ptr<const Baseline> baseline_;
  std::vector<std::uint64_t> dirty_;  ///< pages written since last reset
  std::atomic<std::uint64_t> pages_allocated_{0};  ///< pages_ entry count
};

// ---------------------------------------------------------------------------
// ReplayEngine
// ---------------------------------------------------------------------------

ReplayEngine::ReplayEngine(nvdla::NvdlaConfig config)
    : config_(std::move(config)) {}

ReplayEngine::~ReplayEngine() = default;

ReplayEngine::Arena* ReplayEngine::acquire(
    const compiler::Loadable& loadable) {
  const auto mismatch = [] {
    return std::invalid_argument(
        "ReplayEngine::run: loadable does not match the arena layout this "
        "engine was built for (one engine serves one compiled network)");
  };
  MutexLock lock(mutex_);
  if (!free_.empty()) {
    Arena* arena = free_.back();
    // Check before popping: a mismatching loadable must not strand the
    // checked-in arena on the error path.
    if (!arena->matches(loadable)) throw mismatch();
    free_.pop_back();
    return arena;
  }
  // The first arena (or the first after release_free_arenas dropped them
  // all) freezes the baseline every later arena shares: one copy of the
  // weight pages per engine, not one per worker. A new arena copies
  // nothing, so it is built under the lock.
  if (baseline_ == nullptr) baseline_ = Baseline::build(loadable);
  if (!baseline_->matches(loadable)) throw mismatch();
  arenas_.push_back(std::make_unique<Arena>(loadable, baseline_));
  arenas_built_.fetch_add(1, std::memory_order_relaxed);
  return arenas_.back().get();
}

void ReplayEngine::release(Arena* arena) {
  MutexLock lock(mutex_);
  free_.push_back(arena);
}

std::uint64_t ReplayEngine::resident_bytes() const {
  MutexLock lock(mutex_);
  std::uint64_t total = baseline_ != nullptr ? baseline_->bytes() : 0;
  for (const auto& arena : arenas_) total += arena->resident_bytes();
  return total;
}

std::uint64_t ReplayEngine::release_free_arenas() {
  MutexLock lock(mutex_);
  if (free_.empty()) return 0;
  const std::unordered_set<Arena*> releasing(free_.begin(), free_.end());
  std::uint64_t freed = 0;
  const auto keep_end = std::remove_if(
      arenas_.begin(), arenas_.end(),
      [&](const std::unique_ptr<Arena>& arena) {
        if (releasing.count(arena.get()) == 0) return false;  // checked out
        freed += arena->resident_bytes();
        return true;
      });
  arenas_.erase(keep_end, arenas_.end());
  free_.clear();
  // The shared baseline goes with the last arena (the next acquire
  // rebuilds it); while any arena is checked out it stays.
  if (arenas_.empty() && baseline_ != nullptr) {
    freed += baseline_->bytes();
    baseline_.reset();
  }
  return freed;
}

std::vector<float> ReplayEngine::run(const compiler::Loadable& loadable,
                                     std::span<const nvdla::ReplayOp> ops,
                                     std::span<const float> image,
                                     fault::Injector* injector) {
  Arena* arena = acquire(loadable);
  try {
    pages_restored_.fetch_add(arena->begin_image(loadable, image),
                              std::memory_order_relaxed);
    if (injector != nullptr) {
      if (injector->fire(fault::Kind::kReplayFail)) {
        throw StatusError(StatusCode::kUnavailable,
                          "injected replay-engine failure");
      }
      if (const auto corruption =
              injector->fire_corruption(loadable.weight_blob.size())) {
        arena->corrupt_weight_bit(corruption->offset, corruption->bit);
      }
      // Checkout integrity gate: only runs when flips are armed (the
      // fault-free path never pays the weight-blob compare).
      if (injector->plan().at(fault::Kind::kWeightFlip) > 0 &&
          !arena->weights_match(loadable.weight_blob)) {
        throw StatusError(StatusCode::kDataLoss,
                          "replay arena weight corruption detected at "
                          "checkout — refusing to serve from a damaged "
                          "arena");
      }
    }
    for (const auto& op : ops) {
      nvdla::replay_op(config_, op, *arena);
    }
    std::vector<float> output = arena->read_output(loadable);
    images_replayed_.fetch_add(1, std::memory_order_relaxed);
    release(arena);
    return output;
  } catch (...) {
    // The arena's dirty tracking survives the failure, so the next
    // begin_image restores whatever this replay (or a corruption) wrote.
    release(arena);
    throw;
  }
}

}  // namespace nvsoc::vp
