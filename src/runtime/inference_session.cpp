#include "runtime/inference_session.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "common/strfmt.hpp"
#include "compiler/calibration.hpp"
#include "compiler/compile.hpp"
#include "runtime/thread_pool.hpp"
#include "toolflow/asm_emitter.hpp"
#include "toolflow/config_file.hpp"
#include "vp/virtual_platform.hpp"

namespace nvsoc::runtime {

namespace {

/// Batch failures carry which image sank the batch (the contract is
/// all-or-nothing, so the index is otherwise lost with the results).
Status image_failure(std::size_t index, const Status& status) {
  return Status(status.code(),
                strfmt("image {}: {}", index, status.message()));
}

bool same_image(const core::PreparedModel& model,
                std::span<const float> image) {
  return model.input.size() == image.size() &&
         std::equal(image.begin(), image.end(), model.input.begin());
}

/// The spec key that routes a request to a registered model. It is a
/// session-level concern, stripped before the registry ever sees the spec:
/// backends know nothing about the model fleet.
constexpr const char* kModelParam = "model";

}  // namespace

// ---------------------------------------------------------------------------
// PendingResult / StagingHandle
// ---------------------------------------------------------------------------

void PendingResult::State::complete(StatusOr<ExecutionResult> value) {
  // The hook fires while the mutex is held: cancel_ready() takes the same
  // lock, so once it returns, a concurrent invocation has finished and no
  // later one can start — the contract that lets a hook's captured owner
  // destroy itself. Hooks are cheap by contract (wake an event loop) and
  // never reenter this PendingResult, so holding the lock is safe; get()
  // waiters wake right after the unlock.
  MutexLock lock(mutex);
  result.emplace(std::move(value));
  std::function<void()> hook = std::move(callback);
  callback = nullptr;
  cv.notify_all();
  if (hook) {
    try {
      hook();
    } catch (...) {
      // The hook runs on a serving worker; its failures must not take the
      // producer task (or the pool) down with it.
    }
  }
}

PendingResult::PendingResult(Status status)
    : state_(std::make_shared<State>()) {
  state_->result.emplace(StatusOr<ExecutionResult>(std::move(status)));
}

bool PendingResult::ready() const {
  if (state_ == nullptr) return false;
  MutexLock lock(state_->mutex);
  return state_->result.has_value();
}

StatusOr<ExecutionResult> PendingResult::get() {
  if (state_ == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "PendingResult::get() on an empty or already-consumed "
                  "handle (results are one-shot)");
  }
  // Consume the handle up front: after get() the handle is invalid even if
  // the result was an error, matching the one-shot future contract.
  std::shared_ptr<State> state = std::move(state_);
  MutexLock lock(state->mutex);
  while (!state->result.has_value()) state->cv.wait(state->mutex);
  StatusOr<ExecutionResult> result = std::move(*state->result);
  return result;
}

void PendingResult::on_ready(std::function<void()> callback) {
  if (state_ == nullptr || !callback) return;
  {
    MutexLock lock(state_->mutex);
    if (!state_->result.has_value()) {
      state_->callback = std::move(callback);
      return;
    }
  }
  // Already ready: fire on the caller, outside the lock.
  try {
    callback();
  } catch (...) {
  }
}

void PendingResult::cancel_ready() {
  if (state_ == nullptr) return;
  // Taking the mutex is the synchronization: complete() invokes the hook
  // with it held, so by the time the lock is ours any in-flight invocation
  // has returned, and clearing the slot stops a future one.
  MutexLock lock(state_->mutex);
  state_->callback = nullptr;
}

StagingHandle::StagingHandle(Status status) {
  std::promise<Status> promise;
  future_ = promise.get_future();
  promise.set_value(std::move(status));
}

bool StagingHandle::ready() const {
  return future_.valid() &&
         future_.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready;
}

Status StagingHandle::wait() {
  if (!future_.valid()) {
    return Status(StatusCode::kInvalidArgument,
                  "StagingHandle::wait() on an empty or already-consumed "
                  "handle (results are one-shot)");
  }
  return future_.get();
}

// ---------------------------------------------------------------------------
// InferenceSession — construction and the model fleet
// ---------------------------------------------------------------------------

InferenceSession::InferenceSession(compiler::Network network,
                                   core::FlowConfig config,
                                   const BackendRegistry* registry)
    : registry_(registry) {
  std::string name = network.name();
  auto state =
      std::make_unique<ModelState>(name, std::move(network), config);
  default_model_ = state.get();
  models_.emplace(std::move(name), std::move(state));
}

// The pool is the last member declared, so it is destroyed first: pooled
// tasks drain while everything they touch is still alive.
InferenceSession::~InferenceSession() = default;

Status InferenceSession::register_model(std::string name,
                                        compiler::Network network,
                                        core::FlowConfig config) {
  if (name.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "register_model: model name must not be empty");
  }
  MutexLock lock(submit_mutex_);
  if (models_.count(name) != 0) {
    return Status(StatusCode::kAlreadyExists,
                  strfmt("model '{}' is already registered", name));
  }
  auto state =
      std::make_unique<ModelState>(name, std::move(network), config);
  models_.emplace(std::move(name), std::move(state));
  return Status::ok();
}

Status InferenceSession::register_model(std::string name,
                                        compiler::Network network) {
  // The default model's config is immutable after construction; reading it
  // outside the lock is safe.
  return register_model(std::move(name), std::move(network),
                        default_model_->config);
}

std::vector<std::string> InferenceSession::model_names() const {
  MutexLock lock(submit_mutex_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, state] : models_) names.push_back(name);
  return names;
}

const compiler::Network& InferenceSession::network() const {
  return default_model_->network;
}

const core::FlowConfig& InferenceSession::config() const {
  return default_model_->config;
}

const BackendRegistry& InferenceSession::registry() const {
  return registry_ != nullptr ? *registry_ : BackendRegistry::global();
}

RunOptions InferenceSession::run_options(const ModelState& model) const {
  RunOptions options;
  options.flow = model.config;
  options.deadline_ms = default_deadline_ms_.load(std::memory_order_relaxed);
  if (options.flow.fault == nullptr) {
    // The session-level plan arms every model whose own flow config carries
    // no `?fault=` plan; a spec-level `?fault=` override still wins (the
    // configured variant applies it on top of these options).
    MutexLock lock(submit_mutex_);
    options.flow.fault = session_fault_;
  }
  return options;
}

void InferenceSession::set_retry_policy(RetryPolicy policy) {
  MutexLock lock(submit_mutex_);
  retry_policy_ = policy;
}

void InferenceSession::set_default_deadline_ms(std::uint32_t deadline_ms) {
  default_deadline_ms_.store(deadline_ms, std::memory_order_relaxed);
}

Status InferenceSession::set_fault_plan(const std::string& spec) {
  std::shared_ptr<fault::Injector> injector;
  if (!spec.empty()) {
    auto plan = fault::Plan::parse(spec);
    if (!plan.is_ok()) return plan.status();
    if (plan->any()) injector = std::make_shared<fault::Injector>(*plan);
  }
  MutexLock lock(submit_mutex_);
  session_fault_ = std::move(injector);
  return Status::ok();
}

std::shared_ptr<fault::Injector> InferenceSession::fault_injector() const {
  MutexLock lock(submit_mutex_);
  return session_fault_;
}

RobustnessCounters InferenceSession::robustness() const {
  RobustnessCounters snapshot;
  snapshot.retries = robust_.retries.load(std::memory_order_relaxed);
  snapshot.quarantines = robust_.quarantines.load(std::memory_order_relaxed);
  snapshot.restages = robust_.restages.load(std::memory_order_relaxed);
  snapshot.deadline_exceeded =
      robust_.deadline_exceeded.load(std::memory_order_relaxed);
  snapshot.data_loss = robust_.data_loss.load(std::memory_order_relaxed);
  snapshot.staging_faults =
      robust_.staging_faults.load(std::memory_order_relaxed);
  return snapshot;
}

ThreadPool& InferenceSession::pool_locked(std::size_t worker_hint) {
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(worker_hint);
  return *pool_;
}

std::size_t InferenceSession::pool_worker_count() const {
  MutexLock lock(submit_mutex_);
  return pool_ != nullptr ? pool_->worker_count() : 0;
}

const std::vector<float>& InferenceSession::default_input_locked(
    ModelState& model) {
  if (model.default_input.empty()) {
    model.default_input = compiler::synthetic_input(
        model.network.input_shape(), model.config.input_seed);
  }
  // The vector is filled once and never reassigned: the reference (and the
  // contents) stay stable after the lock is released.
  return model.default_input;
}

const std::vector<float>& InferenceSession::default_input_for(
    ModelState& model) {
  MutexLock lock(submit_mutex_);
  return default_input_locked(model);
}

const std::vector<float>& InferenceSession::default_input() {
  return default_input_for(*default_model_);
}

Status InferenceSession::check_image_shape(const ModelState& model,
                                           std::span<const float> image) {
  if (image.size() == model.network.input_shape().elements()) {
    return Status::ok();
  }
  return Status(StatusCode::kInvalidArgument,
                strfmt("input image has {} elements; network '{}' expects {}",
                       image.size(), model.network.name(),
                       model.network.input_shape().elements()));
}

// ---------------------------------------------------------------------------
// Spec resolution
// ---------------------------------------------------------------------------

StatusOr<InferenceSession::ResolvedSpec> InferenceSession::resolve(
    const std::string& spec) {
  auto parsed = BackendSpec::parse(spec);
  if (!parsed.is_ok()) return parsed.status();
  BackendSpec backend_spec = std::move(*parsed);

  // Strip the session-level routing key before the registry sees the spec:
  // "soc?mode=replay&model=resnet18" configures the same backend variant as
  // "soc?mode=replay", routed to the 'resnet18' model.
  std::string model_name;
  const auto model_param = std::find_if(
      backend_spec.params.begin(), backend_spec.params.end(),
      [](const auto& kv) { return kv.first == kModelParam; });
  if (model_param != backend_spec.params.end()) {
    model_name = model_param->second;
    backend_spec.params.erase(model_param);
  }

  const std::string canonical = backend_spec.canonical();
  const auto found = registry().find(canonical);
  if (!found.is_ok()) return found.status();

  ResolvedSpec resolved;
  resolved.backend_ = *found;
  resolved.canonical_ = canonical;

  MutexLock lock(submit_mutex_);
  ModelState* state = default_model_;
  if (!model_name.empty()) {
    const auto it = models_.find(model_name);
    if (it == models_.end()) {
      std::string known;
      for (const auto& [name, unused] : models_) {
        if (!known.empty()) known += ", ";
        known += name;
      }
      return Status(StatusCode::kNotFound,
                    strfmt("backend spec '{}': unknown model '{}' "
                           "(registered: {})",
                           spec, model_name, known));
    }
    state = it->second.get();
  }
  resolved.state_ = state;
  resolved.model_name_ = state->name;

  // The variant row is created on first resolution and pinned for the
  // session lifetime (map nodes are never erased), so the handle may keep a
  // raw pointer.
  auto [it, inserted] =
      variants_.try_emplace(state->name + "|" + canonical);
  if (inserted) {
    it->second.backend_spec = canonical;
    it->second.model = state->name;
  }
  resolved.variant_ = &it->second;
  return resolved;
}

// ---------------------------------------------------------------------------
// Staging (shared helpers)
// ---------------------------------------------------------------------------

std::shared_ptr<const core::FrontendArtifacts>
InferenceSession::build_frontend(
    const ModelState& model, std::span<const float> calibration_image) const {
  auto frontend = std::make_shared<core::FrontendArtifacts>();
  frontend->model_name = model.network.name();
  frontend->nvdla = model.config.nvdla;
  frontend->weights =
      compiler::NetWeights::synthetic(model.network, model.config.weight_seed);
  ++counters_.weights;

  if (model.config.precision == nvdla::Precision::kInt8) {
    // Calibrated on the default (synthetic) image, as the legacy flow did.
    frontend->calibration = compiler::calibrate(
        model.network, frontend->weights, calibration_image);
    ++counters_.calibration;
  }

  frontend->loadable = compiler::compile(
      model.network, frontend->weights,
      model.config.precision == nvdla::Precision::kInt8
          ? &frontend->calibration
          : nullptr,
      compiler::CompileOptions::for_config(model.config.nvdla,
                                           model.config.precision));
  ++counters_.loadable;
  return frontend;
}

const core::FrontendArtifacts& InferenceSession::ensure_frontend(
    ModelState& model) {
  drain_staging(model);  // a running staging may be building it right now
  {
    MutexLock lock(submit_mutex_);
    if (model.staged.has_frontend()) return *model.staged.frontend;
  }
  auto frontend = build_frontend(model, default_input_for(model));
  MutexLock lock(submit_mutex_);
  // A staging started meanwhile may have installed its own; keep the first.
  if (!model.staged.has_frontend()) model.staged.frontend = std::move(frontend);
  return *model.staged.frontend;
}

void InferenceSession::repack_into(const ModelState& model,
                                   core::PreparedModel& prepared,
                                   std::span<const float> image) const {
  if (same_image(prepared, image)) {
    return;  // already packed for exactly this image
  }
  // Shape-check here (the reference executor used to do it implicitly):
  // repack only ever substitutes same-shape images, and the serving paths
  // must report a bad image before the backend chokes on packed garbage.
  if (const Status s = check_image_shape(model, image); !s.is_ok()) {
    throw std::runtime_error(std::string(s.message()));
  }
  prepared.input.assign(image.begin(), image.end());
  // The FP32 golden output is a validation artifact, not an inference
  // dependency: the serving paths leave it empty and prepare() computes it
  // for its own snapshot.
  prepared.reference_output.clear();
  // The shared trace core — weight-file preload image included — stays
  // untouched: the new image lives only on this per-input surface. The
  // execution paths write the packed input over the preloaded weight
  // surface themselves; preload_weight_file() materializes a patched copy
  // for data-product exports.
  prepared.vp_matches_input = false;
}

void InferenceSession::stage_tail_into(const ModelState& model,
                                       core::PreparedModel& prepared,
                                       std::span<const float> image) const {
  // The full-trace path must reject a wrong-size image exactly like the
  // repack path does, instead of packing garbage into
  // Loadable::pack_input / the VP.
  if (const Status s = check_image_shape(model, image); !s.is_ok()) {
    throw std::runtime_error(std::string(s.message()));
  }
  const bool had_trace = prepared.has_tail();

  prepared.input.assign(image.begin(), image.end());
  // The FP32 reference is lazy on this path too (see repack_into).
  prepared.reference_output.clear();

  auto tail = std::make_shared<core::TraceArtifacts>();
  vp::VirtualPlatform platform(model.config.nvdla);
  tail->vp = platform.run(prepared.frontend->loadable, prepared.input);
  ++counters_.trace;

  // The full run just recorded a fresh replay schedule.
  prepared.replay = core::make_replay_schedule(
      tail->vp, prepared.frontend->loadable, model.config.nvdla);

  // When the new trace programs the engine identically (it always does —
  // the register stream is input-independent), the configuration file and
  // program are reused from the previous shared core instead of
  // regenerated, and so are the SoC envelopes measured from that program.
  // The old core itself is immutable: snapshots handed to in-flight tasks
  // keep it alive and untouched.
  if (had_trace && prepared.tail->vp.trace.csb == tail->vp.trace.csb) {
    tail->config_file = prepared.tail->config_file;
    tail->program = prepared.tail->program;
    tail->envelopes = prepared.tail->envelopes;
  } else {
    tail->envelopes =
        std::make_shared<const core::PlatformEnvelopes>(envelopes_recorded_);
    tail->config_file = toolflow::ConfigFile::from_trace(tail->vp.trace);
    ++counters_.config_file;
    toolflow::AsmOptions asm_options;
    asm_options.wait_mode = model.config.wait_mode;
    tail->program = toolflow::generate_program(tail->config_file, asm_options);
    ++counters_.program;
  }

  prepared.tail = std::move(tail);
  prepared.vp_matches_input = true;
}

// ---------------------------------------------------------------------------
// Async staging
// ---------------------------------------------------------------------------

void InferenceSession::note_staging_issued() {
  const std::uint32_t now =
      counters_.stagings_running.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint32_t peak = counters_.staging_peak.load(std::memory_order_relaxed);
  while (peak < now && !counters_.staging_peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void InferenceSession::note_staging_done() {
  counters_.stagings_running.fetch_sub(1, std::memory_order_relaxed);
}

StatusOr<core::PreparedModel> InferenceSession::staged_model(
    ModelState& model, std::span<const float> image) {
  std::shared_ptr<StagingLatch> latch;
  std::shared_future<Status> running;  // valid: another thread is staging
  core::PreparedModel base;
  std::vector<float> calibration_image;
  std::shared_ptr<fault::Injector> injector;
  {
    MutexLock lock(submit_mutex_);
    if (staged_locked(model)) return model.staged;  // refcounts + input
    if (model.staging != nullptr) {
      // Wait on a private future copy, taken under the lock: no two threads
      // ever wait through one shared_future object.
      latch = model.staging;
      running = latch->done;
    } else {
      latch = std::make_shared<StagingLatch>();
      latch->done = latch->promise.get_future().share();
      model.staging = latch;
      ++counters_.async_stagings;
      // Stage on a private copy sharing whatever immutable cores are
      // already staged (the frontend, the trace core a budget eviction
      // kept); only the model's immutable identity (network, config) and
      // the atomic counters are read until the install below.
      base = model.staged;
      if (!base.has_frontend()) {
        calibration_image = default_input_locked(model);
      }
      // The staging trace itself always runs fault-free (clean artifacts
      // are what makes injected corruption *detectable*), but the staging
      // as a control-flow unit can fail: the plan's `staging` kind fails
      // the latch with a typed, retryable kUnavailable.
      injector =
          model.config.fault != nullptr ? model.config.fault : session_fault_;
    }
  }
  if (running.valid()) {
    if (const Status& status = running.get(); !status.is_ok()) return status;
    return latch->staged;
  }

  note_staging_issued();
  const Status status = [&]() -> Status {
    if (injector != nullptr && injector->fire(fault::Kind::kStagingFail)) {
      return Status(StatusCode::kUnavailable, "injected staging failure");
    }
    try {
      if (!base.has_frontend()) {
        base.frontend = build_frontend(model, calibration_image);
      }
      stage_tail_into(model, base, image);
      latch->staged = base;
      return Status::ok();
    } catch (const StatusError& e) {
      return e.status();
    } catch (const std::exception& e) {
      return Status(StatusCode::kInvalidArgument, e.what());
    } catch (...) {
      // The latch is its waiters' only completion channel: it must be
      // fulfilled for *any* exception, or they would block forever.
      return Status(StatusCode::kInternal,
                    "staging failed with a non-standard exception");
    }
  }();
  if (!status.is_ok()) ++robust_.staging_faults;
  {
    // Install before fulfilling the latch, so every waiter wakes to a
    // staged model. A latch a quarantine detached is never installed.
    MutexLock lock(submit_mutex_);
    if (model.staging == latch) {
      if (status.is_ok()) {
        // An installed frontend is kept: weights()/loadable() handed out
        // references into it.
        auto frontend = std::move(model.staged.frontend);
        model.staged = base;
        if (frontend != nullptr) model.staged.frontend = std::move(frontend);
      }
      model.staging.reset();
    }
  }
  latch->promise.set_value(status);
  note_staging_done();
  if (!status.is_ok()) return status;
  return base;
}

void InferenceSession::drain_staging(ModelState& model) {
  MutexLock lock(submit_mutex_);
  while (model.staging != nullptr) {
    // Wait on a private future copy (taken under the lock): every other
    // accessor of the latch's shared_future does the same, so no two
    // threads ever wait through one shared_future object.
    std::shared_future<Status> done = model.staging->done;
    lock.unlock();
    done.wait();
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// Byte-budgeted replay residency
// ---------------------------------------------------------------------------

std::uint64_t InferenceSession::model_resident_bytes_locked(
    const ModelState& model) const {
  const core::PreparedModel& staged = model.staged;
  std::uint64_t bytes = staged.has_tail() ? staged.envelopes().bytes() : 0;
  if (staged.has_replay()) {
    bytes += staged.replay->schedule_bytes() +
             staged.replay->resident_arena_bytes();
  }
  return bytes;
}

void InferenceSession::note_use_locked(ModelState& model,
                                       VariantState* variant) {
  model.last_used = ++use_tick_;
  if (variant != nullptr) ++variant->requests;
}

bool InferenceSession::staged_locked(const ModelState& model) const {
  return model.staged.has_tail() && model.staged.has_replay();
}

void InferenceSession::evict_schedule_locked(ModelState& model) {
  if (!model.staged.has_replay()) return;
  model.replay_base += model.staged.replay->replay_count();
  model.staged.replay.reset();
  // The next use re-stages transparently: one re-trace that rebuilds the
  // schedule, then back to replaying. The kept trace core supplies the
  // config file, program and SoC envelopes (the CSB stream matches).
  ++counters_.evictions;
  for (auto& [key, variant] : variants_) {
    if (variant.model == model.name) ++variant.evictions;
  }
}

void InferenceSession::quarantine_locked(ModelState& model) {
  // Counted when it drops something: tasks failing on an already
  // quarantined core find nothing left to drop.
  if (model.staged.has_replay() || model.staged.has_tail() ||
      model.staging != nullptr) {
    ++robust_.quarantines;
  }
  evict_schedule_locked(model);
  model.staged.tail.reset();
  model.staging.reset();
}

void InferenceSession::enforce_budget_locked(ModelState* just_used) {
  const std::uint64_t budget =
      replay_budget_bytes_.load(std::memory_order_relaxed);
  if (budget == 0) return;
  const auto total = [&] {
    std::uint64_t bytes = 0;
    for (const auto& [name, state] : models_) {
      bytes += model_resident_bytes_locked(*state);
    }
    return bytes;
  };
  if (total() <= budget) return;

  // Cold models (never the one driving this use), least recently used
  // first.
  std::vector<ModelState*> cold;
  for (auto& [name, state] : models_) {
    if (state.get() == just_used || !state->staged.has_replay()) continue;
    cold.push_back(state.get());
  }
  std::sort(cold.begin(), cold.end(),
            [](const ModelState* a, const ModelState* b) {
              return a->last_used < b->last_used;
            });

  // Pass 1: drop cold models' arenas — a pure cache (cheap to shed, rebuilt
  // by the next replay), so it always goes before any schedule.
  for (ModelState* model : cold) {
    model->staged.replay->release_arenas();
    if (total() <= budget) return;
  }

  // Pass 2: evict cold schedules outright (LRU order). No cold model has a
  // staging in flight: a latch is only ever set on a model without a
  // schedule (see ModelState::staging).
  for (ModelState* model : cold) {
    evict_schedule_locked(*model);
    if (total() <= budget) return;
  }

  // Pass 3: the hot model sheds its own idle arenas; its schedule is never
  // evicted (it is in use right now — dropping it would thrash).
  if (just_used != nullptr && just_used->staged.has_replay()) {
    just_used->staged.replay->release_arenas();
  }
}

void InferenceSession::set_replay_budget_bytes(std::uint64_t budget_bytes) {
  MutexLock lock(submit_mutex_);
  replay_budget_bytes_.store(budget_bytes, std::memory_order_relaxed);
  // Enforce immediately so a freshly lowered budget takes effect without
  // waiting for the next request.
  enforce_budget_locked(nullptr);
}

std::uint64_t InferenceSession::replay_resident_bytes() const {
  MutexLock lock(submit_mutex_);
  std::uint64_t bytes = 0;
  for (const auto& [name, state] : models_) {
    bytes += model_resident_bytes_locked(*state);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Counters and per-variant stats
// ---------------------------------------------------------------------------

StageCounters InferenceSession::counters() const {
  StageCounters snapshot;
  snapshot.weights = counters_.weights.load(std::memory_order_relaxed);
  snapshot.calibration = counters_.calibration.load(std::memory_order_relaxed);
  snapshot.loadable = counters_.loadable.load(std::memory_order_relaxed);
  snapshot.trace = counters_.trace.load(std::memory_order_relaxed);
  snapshot.config_file = counters_.config_file.load(std::memory_order_relaxed);
  snapshot.program = counters_.program.load(std::memory_order_relaxed);
  snapshot.async_stagings =
      counters_.async_stagings.load(std::memory_order_relaxed);
  snapshot.staging_peak =
      counters_.staging_peak.load(std::memory_order_relaxed);
  snapshot.evictions = counters_.evictions.load(std::memory_order_relaxed);
  snapshot.envelopes = envelopes_recorded_->load(std::memory_order_relaxed);

  MutexLock lock(submit_mutex_);
  for (const auto& [name, state] : models_) {
    const auto& schedule = state->staged.replay;
    snapshot.replay += state->replay_base.load(std::memory_order_relaxed) +
                       (schedule != nullptr ? schedule->replay_count() : 0);
  }
  return snapshot;
}

std::vector<VariantStats> InferenceSession::variant_stats() const {
  MutexLock lock(submit_mutex_);
  std::vector<VariantStats> stats;
  stats.reserve(variants_.size());
  // The map key is "model|canonical spec": iteration order is already
  // sorted by (model, spec).
  for (const auto& [key, variant] : variants_) {
    VariantStats row;
    row.backend = variant.backend_spec;
    row.model = variant.model;
    row.requests = variant.requests;
    row.stagings = variant.stagings;
    row.evictions = variant.evictions;
    const auto it = models_.find(variant.model);
    if (it != models_.end()) {
      row.staged = it->second->staged.has_replay();
      row.resident_bytes = model_resident_bytes_locked(*it->second);
    }
    stats.push_back(std::move(row));
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Staged-artifact accessors (default model)
// ---------------------------------------------------------------------------

const compiler::NetWeights& InferenceSession::weights() {
  return ensure_frontend(*default_model_).weights;
}

const compiler::CalibrationTable& InferenceSession::calibration() {
  return ensure_frontend(*default_model_).calibration;
}

const compiler::Loadable& InferenceSession::loadable() {
  return ensure_frontend(*default_model_).loadable;
}

core::PreparedModel InferenceSession::prepared() {
  return prepare_in(*default_model_, default_input());
}

core::PreparedModel InferenceSession::prepare(std::span<const float> image) {
  return prepare_in(*default_model_, image);
}

core::PreparedModel InferenceSession::prepare_in(
    ModelState& model, std::span<const float> image) {
  if (Status s = check_image_shape(model, image); !s.is_ok()) {
    throw StatusError(std::move(s));
  }
  auto staged = staged_model(model, image);
  if (!staged.is_ok()) throw StatusError(staged.status());
  core::PreparedModel snapshot = std::move(staged).value();
  repack_into(model, snapshot, image);
  snapshot.reference_output =
      compiler::ReferenceExecutor(model.network, snapshot.weights())
          .run_to(snapshot.input);
  return snapshot;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

StatusOr<ExecutionResult> InferenceSession::run(const std::string& backend) {
  return submit(backend).get();
}

StatusOr<ExecutionResult> InferenceSession::run(const std::string& backend,
                                                std::span<const float> image) {
  return submit(backend, image).get();
}

Status InferenceSession::probe_golden(const std::string& backend) {
  auto resolved = resolve(backend);
  if (!resolved.is_ok()) return resolved.status();
  ModelState& model = *resolved->state_;
  drain_staging(model);
  bool quarantined = false;
  {
    MutexLock lock(submit_mutex_);
    // Canary 1: the staged schedule's ops checksum. A mismatch means the
    // shared in-memory schedule was silently corrupted since recording.
    if (model.staged.has_replay() && !model.staged.replay->ops_intact()) {
      ++robust_.data_loss;
      quarantine_locked(model);
      quarantined = true;
    }
  }
  // Canary 2: golden-output comparison on the default input. A
  // checksum-quarantined schedule restages transparently inside this run.
  auto result = submit(*resolved).get();
  if (!result.is_ok()) return result.status();
  MutexLock lock(submit_mutex_);
  if (model.golden_output.empty()) {
    model.golden_output = result->output;  // the first probe freezes golden
  } else if (model.golden_output != result->output) {
    ++robust_.data_loss;
    quarantine_locked(model);
    return Status(StatusCode::kDataLoss,
                  "golden-image probe mismatch: replay schedule quarantined "
                  "for restage on next use");
  }
  if (quarantined) {
    return Status(StatusCode::kDataLoss,
                  "replay-schedule checksum mismatch: schedule quarantined "
                  "and restaged (probe output verified golden)");
  }
  return Status::ok();
}

PendingResult InferenceSession::submit(const std::string& backend) {
  auto resolved = resolve(backend);
  if (!resolved.is_ok()) return PendingResult(resolved.status());
  return submit(*resolved);
}

PendingResult InferenceSession::submit(const std::string& backend,
                                       std::span<const float> image) {
  auto resolved = resolve(backend);
  if (!resolved.is_ok()) return PendingResult(resolved.status());
  return submit(*resolved, image);
}

PendingResult InferenceSession::submit(const ResolvedSpec& spec) {
  if (!spec.valid()) {
    return PendingResult(Status(StatusCode::kInvalidArgument,
                                "submit() on an empty ResolvedSpec"));
  }
  return submit(spec, default_input_for(*spec.state_));
}

PendingResult InferenceSession::submit(const ResolvedSpec& spec,
                                       std::span<const float> image) {
  if (!spec.valid()) {
    return PendingResult(Status(StatusCode::kInvalidArgument,
                                "submit() on an empty ResolvedSpec"));
  }
  try {
    return submit_with(*spec.state_, spec.variant_, *spec.backend_, image,
                       run_options(*spec.state_), 0);
  } catch (const std::exception& e) {
    // Pool construction (std::thread can throw std::system_error under
    // thread exhaustion) stays behind the StatusOr boundary too.
    return PendingResult(Status(StatusCode::kInternal, e.what()));
  }
}

PendingResult InferenceSession::submit_with(ModelState& model,
                                            VariantState* variant,
                                            const ExecutionBackend& backend,
                                            std::span<const float> image,
                                            const RunOptions& options,
                                            std::size_t worker_hint) {
  // Reject a wrong-size image — first or later — before any staging work,
  // identically to the run()/batch paths.
  if (Status s = check_image_shape(model, image); !s.is_ok()) {
    return PendingResult(std::move(s));
  }

  // Copy the image before taking the lock: concurrent submitters should
  // serialize on the bookkeeping only, not on O(input) work.
  std::vector<float> image_copy(image.begin(), image.end());

  // The deadline clock starts at enqueue: queueing delay counts against
  // the request, so an aged-out request sheds at dequeue without running.
  const auto enqueued = std::chrono::steady_clock::now();

  ThreadPool* pool = nullptr;
  RetryPolicy retry;
  {
    MutexLock lock(submit_mutex_);
    note_use_locked(model, variant);
    pool = &pool_locked(worker_hint);
    retry = retry_policy_;
    // Enforce on use: the model serving this request is evicted last.
    enforce_budget_locked(&model);
  }

  // Enqueue outside the lock. The task owns everything it touches: its own
  // copy of the image, per-run options, and the staged model it takes from
  // staged_model() (a snapshot sharing the immutable cores, staged in place
  // first if nothing is staged or staging). Repacking in the task skips the
  // FP32 reference — pooled serving replays cheap functional ops only. The
  // backend is registry-owned and the ModelState map-pinned; both outlive
  // the drain (the pool is the first session member to be destroyed).
  //
  // The result travels through the handle's shared State, not the pool
  // future (discarded): State::complete publishes the value, wakes get()
  // waiters, and fires any on_ready hook from this worker. Every exit path
  // of the task completes the state, so a PendingResult can never be left
  // pending — the ThreadPool destructor's queue drain guarantees the task
  // itself runs even during session teardown.
  auto state = std::make_shared<PendingResult::State>();
  pool->submit(
      [this, model_state = &model, &backend, options, retry, state,
       image = std::move(image_copy), enqueued] {
        state->complete(run_submitted(*model_state, backend, options, retry,
                                      image, enqueued));
      });
  return PendingResult(std::move(state));
}

StatusOr<ExecutionResult> InferenceSession::run_submitted(
    ModelState& model, const ExecutionBackend& backend,
    const RunOptions& options, RetryPolicy retry,
    std::span<const float> image,
    std::chrono::steady_clock::time_point enqueued) {
  const auto expired = [&] {
    return options.deadline_ms != 0 &&
           std::chrono::steady_clock::now() - enqueued >=
               std::chrono::milliseconds(options.deadline_ms);
  };
  const auto deadline_error = [&](const char* where) {
    ++robust_.deadline_exceeded;
    return Status(StatusCode::kDeadlineExceeded,
                  strfmt("request exceeded its {} ms deadline {}",
                         options.deadline_ms, where));
  };
  // Deadline gate 1: dequeue. A request that aged out in the pool queue is
  // shed here without paying for an execution nobody is waiting for.
  if (expired()) return deadline_error("waiting in the pool queue");

  core::PreparedModel prepared;
  bool ready = false;
  const std::uint32_t max_attempts =
      std::max<std::uint32_t>(1, retry.max_attempts);
  for (std::uint32_t attempt = 1;; ++attempt) {
    StatusOr<ExecutionResult> result = [&]() -> StatusOr<ExecutionResult> {
      try {
        if (!ready) {
          auto staged = staged_model(model, image);
          if (!staged.is_ok()) return staged.status();
          prepared = std::move(staged).value();
          ready = true;
        }
        // Deadline gate 2: the staging (this task's or the one it waited
        // on) may have taken arbitrarily long.
        if (expired()) return deadline_error("behind the staging latch");
        repack_into(model, prepared, image);
        return backend.run(prepared, options);
      } catch (const StatusError& e) {
        return e.status();
      } catch (const std::exception& e) {
        return Status(StatusCode::kInvalidArgument, e.what());
      } catch (...) {
        return Status(StatusCode::kInternal,
                      "pooled inference failed with a non-standard "
                      "exception");
      }
    }();
    const StatusCode code = result.status().code();
    if (code == StatusCode::kDataLoss) {
      // Detected corruption: quarantine the shared schedule and trace core
      // so no later request serves from them. This task's snapshot still
      // pins the quarantined cores, so a retry stages the model again
      // through staged_model() (ready = false) and installs what it
      // records for the requests after it.
      ++robust_.data_loss;
      MutexLock lock(submit_mutex_);
      quarantine_locked(model);
      ready = false;
    }
    // The attempt's replay has returned its arena, failed or not: reclaim
    // any arena growth before the result is delivered. This model is the
    // hot one, so the walk sheds at most its idle arenas, never its
    // schedule.
    if (replay_budget_bytes_.load(std::memory_order_relaxed) != 0) {
      MutexLock lock(submit_mutex_);
      enforce_budget_locked(&model);
    }
    if (result.is_ok()) return result;
    if (!is_transient(code) || attempt >= max_attempts || expired()) {
      return result;
    }
    // A retry after a failed staging stages again; one after a failed run
    // reuses its snapshot (the injector's decision stream has advanced),
    // unless the failure was kDataLoss (above).
    ++robust_.retries;
    if (code == StatusCode::kDataLoss) ++robust_.restages;
  }
}

StagingHandle InferenceSession::prepare_async(const std::string& backend) {
  auto resolved = resolve(backend);
  if (!resolved.is_ok()) return StagingHandle(resolved.status());
  return prepare_async_resolved(*resolved,
                                default_input_for(*resolved->state_));
}

StagingHandle InferenceSession::prepare_async(const std::string& backend,
                                              std::span<const float> image) {
  auto resolved = resolve(backend);
  if (!resolved.is_ok()) return StagingHandle(resolved.status());
  return prepare_async_resolved(*resolved, image);
}

std::vector<StagingHandle> InferenceSession::prepare_async(
    const std::vector<std::string>& backends) {
  // One pool pass for the whole fleet: every call below only *enqueues*
  // (the shared staging and the stage() hook both run in the task), so N
  // variants' stagings are all in flight before any handle is waited on —
  // specs sharing a model dedup the trace behind its latch.
  std::vector<StagingHandle> handles;
  handles.reserve(backends.size());
  for (const auto& backend : backends) {
    handles.push_back(prepare_async(backend));
  }
  return handles;
}

StagingHandle InferenceSession::prepare_async_resolved(
    const ResolvedSpec& spec, std::span<const float> image) {
  ModelState& model = *spec.state_;
  if (Status s = check_image_shape(model, image); !s.is_ok()) {
    return StagingHandle(std::move(s));
  }
  const ExecutionBackend* staged_backend = spec.backend_;
  VariantState* variant = spec.variant_;
  const RunOptions options = run_options(model);
  try {
    ThreadPool* pool = nullptr;
    {
      MutexLock lock(submit_mutex_);
      pool = &pool_locked(0);
    }
    // Issued-at-enqueue: a vector prepare pushes stagings_running to the
    // fleet size before any task completes — the concurrency evidence.
    note_staging_issued();
    try {
      auto future = pool->submit(
        [this, model_state = &model,
         image = std::vector<float>(image.begin(), image.end()), options,
         staged_backend, variant]() -> Status {
          Status outcome = [&]() -> Status {
            try {
              auto prepared = staged_model(*model_state, image);
              if (!prepared.is_ok()) return prepared.status();
              staged_backend->stage(*prepared, options);
              return Status::ok();
            } catch (const StatusError& e) {
              return e.status();
            } catch (const std::exception& e) {
              return Status(StatusCode::kInternal, e.what());
            } catch (...) {
              return Status(StatusCode::kInternal,
                            "staging hook failed with a non-standard "
                            "exception");
            }
          }();
          if (outcome.is_ok()) {
            MutexLock lock(submit_mutex_);
            ++variant->stagings;
          }
          note_staging_done();
          return outcome;
        });
      return StagingHandle(std::move(future));
    } catch (...) {
      // The enqueue threw after note_staging_issued(): the task will never
      // run, so balance the in-flight tally here before reporting.
      note_staging_done();
      throw;
    }
  } catch (const std::exception& e) {
    return StagingHandle(Status(StatusCode::kInternal, e.what()));
  }
}

// ---------------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------------

StatusOr<std::vector<ExecutionResult>> InferenceSession::run_batch_parallel(
    const std::string& backend,
    const std::vector<std::vector<float>>& images,
    const BatchOptions& options) {
  auto resolved = resolve(backend);
  if (!resolved.is_ok()) return resolved.status();
  if (images.empty()) return std::vector<ExecutionResult>{};
  ModelState& model = *resolved->state_;

  const RunOptions per_run = run_options(model);

  // Sizes the session pool if this batch is the first pooled call: an
  // explicit count is clamped to the batch (a 2-image batch with workers=8
  // spawns 2 threads, not 8); the default 0 picks hardware threads, so an
  // early small batch never leaves a long-lived session undersized.
  const std::size_t workers = std::min(options.workers, images.size());

  // A wrong-size image at any index fails the batch before anything is
  // staged or queued; the first submit below then stages behind the latch.
  for (std::size_t i = 0; i < images.size(); ++i) {
    if (Status s = check_image_shape(model, images[i]); !s.is_ok()) {
      return image_failure(i, s);
    }
  }

  std::vector<PendingResult> pending;
  pending.reserve(images.size());
  try {
    for (const auto& image : images) {
      pending.push_back(submit_with(model, resolved->variant_,
                                    *resolved->backend_, image, per_run,
                                    workers));
    }
  } catch (const std::exception& e) {
    // Pool construction failed mid-loop: results already queued are in
    // flight — drain them before surfacing the error, so no task outlives
    // the batch call or silently burns a worker.
    for (auto& handle : pending) (void)handle.get();
    return Status(StatusCode::kInternal, e.what());
  }

  // Collect every result before deciding the outcome: the contract is
  // all-or-nothing with the lowest failing index, not whichever task lost
  // the wall-clock race.
  std::vector<ExecutionResult> results;
  results.reserve(images.size());
  std::size_t error_index = images.size();  // lowest failing image
  Status error_status;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    auto result = pending[i].get();
    if (!result.is_ok()) {
      if (i < error_index) {
        error_index = i;
        error_status = result.status();
      }
      continue;
    }
    results.push_back(std::move(result).value());
  }
  if (error_index != images.size()) {
    return image_failure(error_index, error_status);
  }
  return results;
}

}  // namespace nvsoc::runtime
