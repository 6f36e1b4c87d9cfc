// InferenceSession — the staged, memoized serving engine over the paper
// flow.
//
// The offline flow of Fig. 1 is split into explicit stages:
//
//   input-independent (computed once per model):
//     network -> synthetic/trained weights -> INT8 calibration -> loadable
//   input-dependent (computed per distinct image):
//     -> virtual-platform trace -> configuration file -> bare-metal program
//
// Every stage is lazy and memoized: a batch of N images compiles weights,
// calibration and the loadable exactly once. Because the CSB
// register stream — hence the configuration file and bare-metal program —
// is input-independent, a model is traced once: its first image stages one
// VP trace and a replay schedule, and every later image only swaps the input
// on a private snapshot of those cores and replays the schedule. A whole
// batch therefore pays for exactly one VP trace (assertable via
// StageCounters::trace).
//
// One request path: run() is submit().get(), run_batch_parallel() submits
// and collects, and prepare()/prepared() stage through the same per-model
// staging latch. Every request honours the session deadline and retry
// policy. "Staged" is derived from the cores, never stored: a model is
// staged while it holds a trace core plus a live schedule.
//
// One staging path: the thread that needs a staged model — a pooled
// submit task, a prepare_async task, or prepare()'s caller — and finds it
// neither staged nor staging creates the model's latch and stages in place
// (frontend if missing, one VP trace, replay-schedule recording). It
// installs its cores into the model under the session lock, and only then
// fulfils the latch, so the model is staged before any waiter wakes.
// Threads that find the latch read its result from the latch itself. A
// latch exists only while the thread that created it runs the staging, so
// nothing ever waits on queued work. A quarantine detaches a running
// latch: its waiters still get its result, but it is never installed. A
// failed staging only clears the latch; the next use stages again. A
// kDataLoss retry quarantines the model and stages through the same path,
// so the schedule it records serves the requests after it.
//
// One oracle: every replay path is bit-exact with a full simulation of the
// same image, and that simulation is the check. For the SoC platforms it
// is the `?mode=cycle_accurate&decode_cache=off` variant; for `vp` and
// `linux_baseline` it is the virtual platform's own run of the image.
//
// Multi-model, multi-variant: one session serves a *fleet*. The
// constructor registers its network as the default model; register_model()
// adds more, each with its own staged-artifact state and staging latch —
// so distinct models stage concurrently on the shared pool instead of
// queueing behind one staging slot. A backend spec may carry `?model=NAME`
// to route a request to a registered model ("soc?model=resnet18"); without
// it, the default model serves. Each distinct (model, canonical backend
// spec) pair is a *variant* with its own request/staging/eviction tallies
// (variant_stats()), while variants of one model share its staged cores.
//
// Memory model: each model has one staged state, a core::PreparedModel
// whose artifacts live in three immutable shared cores
// (core::FrontendArtifacts for weights/calibration/loadable,
// core::TraceArtifacts for trace/config file/program and the SoC
// envelopes recorded from that program,
// core::ReplaySchedule for the functional replay) behind shared_ptr<const>.
// It is written only under the session lock: by the staging thread that
// built it, by a budget eviction (drops the schedule), by a quarantine
// (drops the schedule and the trace core) and by the frontend accessors
// (install the frontend core once; it is never replaced). Every reader —
// a pooled task, prepare()/prepared() — takes a copy, which bumps
// refcounts and copies the input-sized vectors only; the multi-MB
// weight-file and program bytes are never duplicated.
//
// Byte-budgeted residency: a long-lived server would otherwise hold every
// model's replay schedule and per-worker arenas forever.
// set_replay_budget_bytes() bounds the total (schedule bytes + resident
// arena bytes + recorded SoC envelope bytes across models), enforced at
// every submit (before the request's model stages) and at the end of
// every pooled attempt — the one place the session's replays grow arenas.
// When the total is over budget, least-recently-used models shed their
// arenas first (pure cache: cheap to drop, rebuilt by the next replay),
// then their schedules (re-staged transparently — one re-trace — on next
// use; the input-independent SoC envelopes stay, so the restage never
// re-runs the cycle-accurate SoC), and as a last resort the hot model
// sheds its own idle arenas. Eviction is best-effort bounded:
// snapshots held by in-flight tasks keep dropped cores alive until those
// tasks drain.
//
// Concurrency model: the session owns one lazily-created ThreadPool that
// lives for the rest of the session — every submit() call and every
// run_batch_parallel() batch reuses the same workers (exactly one pool is
// ever constructed per session, assertable via ThreadPool::total_created).
// The pool is a fixed-size FIFO queue, sized once by the first pooled call:
// an explicit BatchOptions::workers (clamped to that batch's size), else
// one worker per hardware thread.
//
//   submit(backend, image) -> PendingResult
//     streaming arrivals, fully asynchronous: submit() copies the image
//     and enqueues, so no VP trace ever runs on the calling thread. The
//     pooled task that first finds its model unstaged stages it (one VP
//     trace + replay-schedule recording) behind the model's latch; tasks
//     running meanwhile wait on that latch, and once the staged artifacts
//     exist tasks snapshot the shared pointers. Results come back through
//     PendingResult::get() as StatusOr — task exceptions never escape the
//     future. Calls overlap freely; there is no batch barrier.
//
//   resolve(spec) -> ResolvedSpec
//     parse + canonicalize + registry-configure + model-route once, and
//     reuse the handle for every later submit of the same raw spec — the
//     server caches these per connection so pipelined frames skip
//     re-canonicalization.
//
//   prepare_async(backend, image) -> StagingHandle
//     front-load the whole staging pipeline off the serving path: one
//     pool task stages the shared artifacts, then runs the backend's own
//     stage() hook (the replay-mode SoC variants record their
//     input-independent platform envelope there), so not even the first
//     pooled batch pays a one-time stall. The vector overload stages a
//     whole fleet in one pool pass: one task per variant, with per-model
//     latches deduping the shared work.
//
//   run_batch_parallel(backend, images, options)
//     a thin wrapper over submit-and-collect that keeps the batch
//     contract: results in image order, all-or-nothing, failures report
//     the lowest failing image index.
//
// Thread-safety: every public method may be called concurrently with the
// others (and with in-flight pooled work). prepare()/prepared() return
// snapshots that no later call, eviction or quarantine rewrites;
// weights()/calibration()/loadable() return references into the default
// model's frontend core, which lives as long as the session. The blocking
// calls — run(), run_batch_parallel() and probe_golden() wait on pooled
// work; prepare()/prepared() and the frontend accessors stage or wait on a
// running staging — must never be called from a pool worker or an
// on_ready hook: a saturated pool would deadlock. Destroying the session
// drains in-flight work first: every PendingResult and StagingHandle
// already handed out still completes, each pooled task staging what it
// needs on its own worker.
//
// Execution is delegated to a named ExecutionBackend from a
// BackendRegistry; all runtime error paths (unknown backend, program-memory
// overflow, loadable/trace mismatch) report through StatusOr.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "runtime/backend_registry.hpp"

namespace nvsoc::runtime {

class ThreadPool;

/// How many times each stage has actually executed (memoization evidence).
struct StageCounters {
  std::uint32_t weights = 0;
  std::uint32_t calibration = 0;
  std::uint32_t loadable = 0;
  std::uint32_t trace = 0;        ///< full VP execution + weight-file capture
  std::uint32_t config_file = 0;
  std::uint32_t program = 0;
  /// Functional replays executed against the session's recorded replay
  /// schedules (skipping KMD, trace capture and — on the replay-mode SoC
  /// backends — the µRISC-V ISS), summed across every registered model.
  /// vp/linux_baseline replay every image but the one their model traced;
  /// the replay-mode SoC backends replay every image.
  std::uint32_t replay = 0;
  /// Stagings started: bumped on the staging thread when it creates the
  /// model's latch, before it traces (the trace itself is counted by
  /// `trace`). Per-model latches mean concurrent variants of distinct
  /// models each contribute one.
  std::uint32_t async_stagings = 0;
  /// High-water mark of the staging pipeline elements in flight at once
  /// over the session lifetime: running shared-artifact stagings plus
  /// prepare_async tasks, the latter counted from enqueue to finish. A
  /// vector prepare of N variants pushes this to N (the enqueues outrun
  /// any single task), proving the stagings overlapped.
  std::uint32_t staging_peak = 0;
  /// Replay schedules dropped by the byte-budget eviction policy (each
  /// re-stages transparently — one re-trace — on its model's next use).
  std::uint32_t evictions = 0;
  /// `?mode=replay` SoC envelopes recorded: one full cycle-accurate SoC
  /// run each, counted where the record is first computed. A budget
  /// eviction keeps a model's envelopes, so its restage adds none; a
  /// quarantine drops them, so the next replay records again.
  std::uint32_t envelopes = 0;
};

/// Options for run_batch_parallel(): only the pool size. Every image runs
/// with the session's RunOptions — the default deadline
/// (set_default_deadline_ms) and the backend spec's overrides
/// (`?validate=off`) — exactly as run() and submit() do.
struct BatchOptions {
  /// Worker threads; 0 picks one per hardware thread. Every batch runs on
  /// the session's pool, which is created on first use and reused, at a
  /// fixed size, for the session lifetime: only the first pooled call's
  /// value counts, and an explicit value is clamped to that batch's size.
  std::size_t workers = 0;
};

/// Bounded automatic retry of *transient* failures (is_transient codes:
/// kUnavailable, kDataLoss) inside pooled submit tasks. Non-transient
/// failures — bad arguments, validation, deadline expiry — never retry.
/// A kDataLoss failure additionally quarantines the model's replay
/// schedule and trace core, and the retry stages the model again through
/// its latch, so it never re-serves from a corrupted artifact and the
/// schedule it records serves the requests after it.
struct RetryPolicy {
  /// Total attempts per request, first try included (1 = no retry).
  std::uint32_t max_attempts = 1;
};

/// Robustness evidence: how often the hardened serving paths fired.
/// Snapshot semantics like StageCounters; see robustness().
struct RobustnessCounters {
  std::uint64_t retries = 0;      ///< re-attempts after transient failures
  std::uint64_t quarantines = 0;  ///< schedules + trace cores dropped
                                  ///< after corruption
  std::uint64_t restages = 0;     ///< retries that restaged the model
                                  ///< after a quarantine
  std::uint64_t deadline_exceeded = 0;  ///< requests expired at a boundary
  std::uint64_t data_loss = 0;          ///< corruption detections observed
  std::uint64_t staging_faults = 0;     ///< failed stagings (injected or
                                        ///< real) surfaced through latches
};

/// Per-variant serving statistics (one row per distinct (model, canonical
/// backend spec) pair the session has resolved). Variants of one model
/// share its staged cores, so `staged`/`resident_bytes`/`evictions` move
/// together for same-model variants while `requests`/`stagings` stay
/// per-variant.
struct VariantStats {
  std::string backend;  ///< canonical backend spec (without `?model=`)
  std::string model;    ///< registered model name the variant routes to
  /// The model's replay schedule is currently live (recorded and not
  /// evicted) — requests replay functionally instead of re-tracing.
  /// Read from the schedule when variant_stats() is called.
  bool staged = false;
  std::uint64_t requests = 0;   ///< run()/submit() calls routed here
  std::uint64_t stagings = 0;   ///< completed prepare_async stage() hooks
  std::uint64_t evictions = 0;  ///< budget evictions that unstaged this
  /// Schedule + resident arena + envelope bytes of the variant's model
  /// (shared across its variants; the eviction policy's accounting input).
  std::uint64_t resident_bytes = 0;
};

/// A future-like handle to one submitted inference. get() blocks until the
/// pooled task finishes and yields its StatusOr — failures inside the task
/// (bad image shape, backend validation, execution faults) come back as
/// Status, never as exceptions. One-shot: the result is moved out by the
/// first get(). Handles stay valid after the session is destroyed (the
/// session drains in-flight work before dying).
///
/// For event-loop integration, on_ready() registers a completion callback
/// so a server thread never has to park in get(): the callback fires the
/// moment the result exists, and a subsequent get() is then non-blocking.
class PendingResult {
 public:
  PendingResult() = default;

  // Move-only, like the std::future it replaced: the state is one-shot, and
  // two handles silently sharing it would let a second get() observe a
  // moved-from result instead of a compile error.
  PendingResult(const PendingResult&) = delete;
  PendingResult& operator=(const PendingResult&) = delete;
  PendingResult(PendingResult&&) noexcept = default;
  PendingResult& operator=(PendingResult&&) noexcept = default;

  /// False once get() has consumed the result (or for a default-constructed
  /// handle).
  bool valid() const;
  /// Non-blocking: has the submitted inference finished?
  bool ready() const;
  /// Block until the inference finishes and take its result.
  StatusOr<ExecutionResult> get();
  /// Register a completion hook: `callback` runs exactly once, as soon as
  /// the result exists — immediately on the calling thread when the handle
  /// is already ready, otherwise on the pool worker that completes the
  /// inference. The callback must be cheap and non-blocking (it runs on a
  /// serving worker): typical use is waking an event loop which then calls
  /// the now-non-blocking get(). One callback per handle; registering on an
  /// empty/consumed handle is a no-op that never invokes the callback.
  /// Exceptions thrown by the callback are swallowed.
  void on_ready(std::function<void()> callback);
  /// Revoke a registered on_ready hook. On return the hook is guaranteed to
  /// never run afterwards: a hook the producer is firing concurrently has
  /// finished (cancel synchronizes with it through the state mutex), and a
  /// hook still stored is dropped. Lets an owner whose hook captures `this`
  /// destroy itself safely while the inference is still in flight; the
  /// result itself stays collectable via get(). No-op on an empty handle.
  void cancel_ready();

 private:
  friend class InferenceSession;

  /// The channel between the pooled producer task and this handle. The
  /// producer keeps its own shared_ptr, so a completed-then-dropped handle
  /// (e.g. a client that disconnected mid-request) never dangles.
  struct State {
    Mutex mutex;
    CondVar cv;
    std::optional<StatusOr<ExecutionResult>> result GUARDED_BY(mutex);
    /// Pending on_ready hook, if any.
    std::function<void()> callback GUARDED_BY(mutex);

    /// Producer side: publish the result, wake get() waiters, fire the
    /// registered callback. The callback runs *under* the state mutex so
    /// cancel_ready() can synchronize with an in-flight invocation — hooks
    /// must therefore never call back into the same PendingResult.
    void complete(StatusOr<ExecutionResult> value) EXCLUDES(mutex);
  };

  explicit PendingResult(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  /// A submission that failed before reaching the pool (unknown backend,
  /// bad image shape): the handle is born ready with the failure.
  explicit PendingResult(Status status);

  std::shared_ptr<State> state_;
};

/// A future-like handle to one prepare_async() staging run. wait() blocks
/// until the pooled staging (shared artifacts + the backend's stage()
/// hook) finishes and yields its Status. One-shot like PendingResult; stays
/// valid after the session is destroyed.
class StagingHandle {
 public:
  StagingHandle() = default;

  bool valid() const { return future_.valid(); }
  /// Non-blocking: has the staging finished?
  bool ready() const;
  /// Block until staging finishes and take its Status.
  Status wait();

 private:
  friend class InferenceSession;
  explicit StagingHandle(std::future<Status> future)
      : future_(std::move(future)) {}
  explicit StagingHandle(Status status);

  std::future<Status> future_;
};

class InferenceSession {
 private:
  // Declared up front so ResolvedSpec below can hold typed pointers; the
  // definitions live in the private section at the bottom.
  struct ModelState;
  struct VariantState;

 public:
  /// `registry` defaults to BackendRegistry::global(); pass a custom one to
  /// restrict or extend the backend set. The constructor's network becomes
  /// the *default model*, registered under its own name; register_model()
  /// adds more.
  explicit InferenceSession(compiler::Network network,
                            core::FlowConfig config = {},
                            const BackendRegistry* registry = nullptr);

  // Staged artifacts hold internal references; sessions are pinned.
  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Drains in-flight submitted work (PendingResults all complete), then
  /// tears the session down.
  ~InferenceSession();

  /// A resolved backend spec: parse + canonicalize + registry-configure +
  /// `?model=` routing done once. Copyable and cheap; pass it back to
  /// submit()/prepare_async() to skip re-resolution on hot paths (the
  /// server caches these per connection keyed by the raw spec string).
  /// Valid only for the session that resolved it, and only while that
  /// session lives.
  class ResolvedSpec {
   public:
    ResolvedSpec() = default;
    bool valid() const { return backend_ != nullptr; }
    /// Canonical backend spec, `?model=` stripped (the variant-stats key).
    const std::string& canonical() const { return canonical_; }
    /// Registered model name this spec routes to.
    const std::string& model() const { return model_name_; }

   private:
    friend class InferenceSession;
    const ExecutionBackend* backend_ = nullptr;
    ModelState* state_ = nullptr;
    VariantState* variant_ = nullptr;
    std::string canonical_;
    std::string model_name_;
  };

  // --- model fleet ---------------------------------------------------------
  /// Register another model so `?model=NAME` specs can route to it. Each
  /// model owns its full staged-artifact state (frontend, tail, replay
  /// schedule, staging latch), so distinct models stage concurrently on
  /// the shared pool. kAlreadyExists on a duplicate name. Thread-safe.
  Status register_model(std::string name, compiler::Network network,
                        core::FlowConfig config);
  /// Same, inheriting the session's (default model's) flow config.
  Status register_model(std::string name, compiler::Network network);
  /// Registered model names (default model included), sorted.
  std::vector<std::string> model_names() const;

  const compiler::Network& network() const;
  const core::FlowConfig& config() const;
  /// Stage-execution evidence, returned as a snapshot: the stage tallies
  /// are atomics (staging threads bump them from the pool) and
  /// `replay` is folded in from every model's live schedule at call time
  /// — safe to call concurrently with submit()/prepare_async() and
  /// in-flight pooled tasks.
  StageCounters counters() const;

  /// Per-variant serving statistics, one row per (model, canonical spec)
  /// pair ever resolved, sorted by (model, spec). Thread-safe.
  std::vector<VariantStats> variant_stats() const;

  // --- replay-residency byte budget ---------------------------------------
  /// Bound the bytes replay residency may hold across all models:
  /// schedule bytes + resident arena bytes + recorded envelope bytes,
  /// summed. 0 (the default) means unlimited. Enforcement is LRU and runs
  /// at every submit, at the end of every pooled attempt (which reclaims
  /// the arenas its own replay grew) and when the budget is (re)set: cold
  /// models drop arenas first, then whole schedules — which re-stage
  /// transparently (one re-trace, no cycle-accurate SoC run) on their next
  /// use — and the hot model sheds idle arenas last. A caller's own
  /// replays on a held prepare() snapshot do not enforce. The bound is
  /// best-effort: snapshots held by in-flight tasks keep dropped cores
  /// alive until those tasks finish. Thread-safe.
  void set_replay_budget_bytes(std::uint64_t budget_bytes);
  /// Current replay residency (schedule + arena + envelope bytes across
  /// all models; an evicted model still holds its envelopes). Thread-safe.
  std::uint64_t replay_resident_bytes() const;

  /// The default input: a synthetic image from config.input_seed (also the
  /// INT8 calibration image).
  const std::vector<float>& default_input();

  // --- staged artifacts (lazy, memoized; default model) --------------------
  /// The frontend stages, built without a trace on first use (after any
  /// in-flight staging, which may be building them) and kept for the
  /// session lifetime.
  const compiler::NetWeights& weights();
  const compiler::CalibrationTable& calibration();
  const compiler::Loadable& loadable();

  /// prepare() of the default input.
  core::PreparedModel prepared();
  /// A snapshot of the model's staged cores for `image`: when the model is
  /// not staged yet, it stages through the same latch submit() uses —
  /// tracing `image` on the calling thread, or waiting on a staging already
  /// running; then `image` is swapped onto the snapshot and its FP32
  /// reference computed. Throws StatusError for a wrong-size image or a
  /// failed staging.
  core::PreparedModel prepare(std::span<const float> image);

  // --- spec resolution -----------------------------------------------------
  /// Parse `spec`, strip its `?model=` key (routing to that registered
  /// model; the default model when absent), and configure the canonical
  /// backend variant in the registry. The returned handle is the fast-path
  /// currency of submit()/prepare_async(). kNotFound for an unknown model
  /// or backend, kInvalidArgument for a malformed spec. Thread-safe.
  StatusOr<ResolvedSpec> resolve(const std::string& spec);

  /// Enqueue the whole staging pipeline on the session pool without
  /// running an inference: one pool task stages the shared artifacts
  /// (frontend + one VP trace + replay schedule) through the routed
  /// model's latch — the same one submit() uses — then runs the resolved
  /// backend's stage() hook (the replay-mode SoC variants record their
  /// platform envelope there). Returns immediately; submits running
  /// meanwhile share the latch. `image` seeds the first trace when nothing
  /// is staged yet (the model's default input otherwise).
  StagingHandle prepare_async(const std::string& backend);
  StagingHandle prepare_async(const std::string& backend,
                              std::span<const float> image);
  /// Stage a whole fleet in one pool pass: every spec resolves and gets
  /// its own pool task, whose model stages once through its latch (specs
  /// sharing a model dedup the trace) — all enqueued before this returns,
  /// so N variants stage concurrently.
  /// Handles are index-aligned with `backends`; per-spec failures come
  /// back through the matching handle, never as exceptions.
  std::vector<StagingHandle> prepare_async(
      const std::vector<std::string>& backends);

  // --- execution -----------------------------------------------------------
  /// Run one inference on the named backend with the default input:
  /// submit(backend[, image]).get(), so the session deadline and retry
  /// policy apply exactly as they do to submit().
  StatusOr<ExecutionResult> run(const std::string& backend);
  StatusOr<ExecutionResult> run(const std::string& backend,
                                std::span<const float> image);

  /// Enqueue one inference on the session pool and return immediately —
  /// the calling thread never runs a VP trace (first arrival included; see
  /// the class comment). The result arrives through PendingResult::get().
  /// Results keep per-call identity regardless of completion order.
  /// Thread-safe against concurrent submit()/prepare_async()/counters().
  PendingResult submit(const std::string& backend);
  PendingResult submit(const std::string& backend,
                       std::span<const float> image);
  /// The resolved fast path: same semantics, no per-call spec parsing.
  PendingResult submit(const ResolvedSpec& spec);
  PendingResult submit(const ResolvedSpec& spec, std::span<const float> image);

  /// Run every image through the named backend across the session
  /// ThreadPool: every image is shape-checked up front (a wrong-size image
  /// at any index fails the batch before anything is staged), then all are
  /// submitted and collected. Input-independent stages execute at most
  /// once for the whole batch: the first pooled task stages the model
  /// behind its latch; each pooled task swaps its image onto its own
  /// PreparedModel snapshot and every backend run builds its own SoC/VP
  /// instance.
  /// Results are in image order and bit-exact with one run() per image.
  ///
  /// The batch is all-or-nothing: a failing image fails the whole call
  /// with its Status, annotated with the image index, and every completed
  /// result is discarded. The lowest failing index is reported (not
  /// whichever task failed first on the wall clock). Callers that need
  /// partial results submit images individually via run() or submit().
  StatusOr<std::vector<ExecutionResult>> run_batch_parallel(
      const std::string& backend,
      const std::vector<std::vector<float>>& images,
      const BatchOptions& options = {});

  /// Workers in the session pool (0 before the first pooled call); fixed
  /// by the first pooled call (see BatchOptions::workers).
  std::size_t pool_worker_count() const;

  // --- robustness ----------------------------------------------------------
  /// Bounded automatic retry for pooled submits (see RetryPolicy). The
  /// default policy never retries. Thread-safe; in-flight tasks keep the
  /// policy they were enqueued with.
  void set_retry_policy(RetryPolicy policy);

  /// Session-wide default wall-clock deadline per request (0 = none),
  /// applied when the caller's BatchOptions/RunOptions carry no deadline.
  /// Measured from enqueue; enforced at dequeue, after the staging latch,
  /// and between retry attempts — an expired request answers
  /// kDeadlineExceeded without running. Thread-safe.
  void set_default_deadline_ms(std::uint32_t deadline_ms);

  /// Arm (or clear, with an empty/zero-rate spec) a session-level fault
  /// plan (fault::Plan::parse vocabulary, e.g. "flip:1e-6+seed:7"). The
  /// injector arms every model whose own flow config carries no `?fault=`
  /// plan of its own. Staging/trace-recording runs never see it — only
  /// serving executions do, so injected corruption is always detectable
  /// against clean staged artifacts. kInvalidArgument on a bad spec.
  Status set_fault_plan(const std::string& spec);
  /// The armed session injector (null when no plan is set). Thread-safe.
  std::shared_ptr<fault::Injector> fault_injector() const;

  /// Robustness evidence snapshot (retries, quarantines, deadline
  /// expirations, ...). Thread-safe.
  RobustnessCounters robustness() const;

  /// Integrity canary sweep for one variant: verify the staged replay
  /// schedule's ops checksum, then run the model's default input and
  /// compare bit-exactly against the variant's frozen golden output (the
  /// first probe freezes it). Either canary failing quarantines the
  /// model's schedule and trace core — the next use restages from the
  /// immutable frontend and records its SoC envelopes afresh — and reports
  /// kDataLoss. Servers call this periodically; it executes one inference
  /// synchronously. Thread-safe.
  Status probe_golden(const std::string& backend);

 private:
  /// The staging latch (see the class comment): the thread that created it
  /// stages, records its result in `staged` and installs it into the model
  /// before fulfilling `promise`; threads that find the latch read `staged`
  /// only after `done` is ready, which sequences the accesses.
  struct StagingLatch {
    std::promise<Status> promise;
    std::shared_future<Status> done;
    core::PreparedModel staged;  ///< valid iff done yields OK
  };

  /// Stage tallies bumped from both the session thread and pooled staging
  /// tasks; counters() snapshots them.
  struct AtomicStageCounters {
    std::atomic<std::uint32_t> weights{0};
    std::atomic<std::uint32_t> calibration{0};
    std::atomic<std::uint32_t> loadable{0};
    std::atomic<std::uint32_t> trace{0};
    std::atomic<std::uint32_t> config_file{0};
    std::atomic<std::uint32_t> program{0};
    std::atomic<std::uint32_t> async_stagings{0};
    std::atomic<std::uint32_t> stagings_running{0};  ///< feeds staging_peak
    std::atomic<std::uint32_t> staging_peak{0};
    std::atomic<std::uint32_t> evictions{0};
  };

  /// Robustness tallies bumped from pooled tasks; robustness() snapshots
  /// them.
  struct AtomicRobustnessCounters {
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> quarantines{0};
    std::atomic<std::uint64_t> restages{0};
    std::atomic<std::uint64_t> deadline_exceeded{0};
    std::atomic<std::uint64_t> data_loss{0};
    std::atomic<std::uint64_t> staging_faults{0};
  };

  /// One registered model's full staged-artifact state. Nodes are
  /// heap-pinned (unique_ptr in a node-based map) so ResolvedSpec handles
  /// and pooled tasks may hold ModelState* across registrations; models
  /// are never unregistered.
  struct ModelState {
    ModelState(std::string name_in, compiler::Network network_in,
               core::FlowConfig config_in)
        : name(std::move(name_in)),
          network(std::move(network_in)),
          config(config_in) {}

    std::string name;  ///< registration key (may differ from network name)
    compiler::Network network;
    core::FlowConfig config;
    std::vector<float> default_input;
    /// Golden-probe reference: the default input's output, frozen by the
    /// first probe_golden() on this model. Guarded by submit_mutex_.
    std::vector<float> golden_output;
    /// The one staged state (see the class comment's memory model): the
    /// cores plus the image they were traced on. Guarded by submit_mutex_.
    core::PreparedModel staged;
    /// The running staging's latch; null otherwise. While it is set the
    /// model holds no replay schedule: staging starts only on an unstaged
    /// model, and its install clears it in the same critical section.
    /// Guarded by submit_mutex_.
    std::shared_ptr<StagingLatch> staging;
    /// Replays accumulated on schedules since replaced or evicted
    /// (counters().replay sums base + live schedule tallies).
    std::atomic<std::uint32_t> replay_base{0};
    std::uint64_t last_used = 0;  ///< LRU tick; guarded by submit_mutex_
  };

  /// Per-(model, canonical spec) serving tallies. Guarded by submit_mutex_;
  /// nodes are map-pinned and never erased, so ResolvedSpec handles stay
  /// valid for the session lifetime.
  struct VariantState {
    std::string backend_spec;  ///< canonical, `?model=` stripped
    std::string model;
    std::uint64_t requests = 0;
    std::uint64_t stagings = 0;
    std::uint64_t evictions = 0;
  };

  const BackendRegistry& registry() const;
  RunOptions run_options(const ModelState& model) const EXCLUDES(submit_mutex_);
  /// The session-lifetime pool, created on first use with `worker_hint`
  /// workers (0 = one per hardware thread) and reused, at that fixed size,
  /// by every later pooled call regardless of hint. Any size >= 1 is
  /// deadlock-free: a pooled task waits only on a staging latch, a latch
  /// exists only while the thread that created it runs the staging (which
  /// waits on nothing), and blocking calls are banned on workers.
  ThreadPool& pool_locked(std::size_t worker_hint) REQUIRES(submit_mutex_);
  /// Shape-check an image against the model's network before any staging
  /// work, so run(), submit() and the batch paths all reject a wrong-size
  /// image — first or later — with the same kInvalidArgument.
  static Status check_image_shape(const ModelState& model,
                                  std::span<const float> image);
  /// The one staging path (see the class comment), for the thread that
  /// needs `model` staged: a snapshot when it is staged, the running
  /// staging's result when one is in flight, else this thread stages
  /// `image` behind a new latch — frontend if missing, then
  /// stage_tail_into — and installs the result if its latch is still
  /// current.
  StatusOr<core::PreparedModel> staged_model(ModelState& model,
                                             std::span<const float> image)
      EXCLUDES(submit_mutex_);
  /// Enqueue: the body shared by submit() and run_batch_parallel(). Locks
  /// submit_mutex_. Throws only for pool-construction failure; staging and
  /// task failures come back inside the PendingResult. `variant`
  /// (nullable) collects per-variant tallies.
  PendingResult submit_with(ModelState& model, VariantState* variant,
                            const ExecutionBackend& backend,
                            std::span<const float> image,
                            const RunOptions& options,
                            std::size_t worker_hint);
  /// The pooled submit task body: staged_model(), the deadline gates
  /// (dequeue, post-staging, between attempts) and the bounded retry loop,
  /// whose kDataLoss retry quarantines and stages again through
  /// staged_model(). Every attempt's exit, failed or not, enforces the
  /// replay budget with `model` as the hot model, so the arenas the
  /// attempt grew are reclaimed before its result is delivered. `image` is
  /// the task's own copy; `enqueued` anchors the deadline.
  StatusOr<ExecutionResult> run_submitted(
      ModelState& model, const ExecutionBackend& backend,
      const RunOptions& options, RetryPolicy retry,
      std::span<const float> image,
      std::chrono::steady_clock::time_point enqueued);
  /// Block until `model` has no staging in flight.
  void drain_staging(ModelState& model) EXCLUDES(submit_mutex_);
  /// Record a use for LRU purposes and collect variant tallies.
  void note_use_locked(ModelState& model, VariantState* variant)
      REQUIRES(submit_mutex_);
  /// The model's staged cores can serve a request: a trace core plus its
  /// replay schedule. A budget eviction (schedule dropped) or a quarantine
  /// (trace core dropped) makes the next use restage.
  bool staged_locked(const ModelState& model) const REQUIRES(submit_mutex_);
  /// prepare_async()'s body after spec resolution.
  StagingHandle prepare_async_resolved(const ResolvedSpec& spec,
                                       std::span<const float> image);
  /// Schedule + arena bytes for one model (0 without a live schedule), plus
  /// its recorded envelopes, which stay resident while the schedule is
  /// evicted (and go with the trace core on a quarantine).
  std::uint64_t model_resident_bytes_locked(const ModelState& model) const
      REQUIRES(submit_mutex_);
  /// LRU byte-budget enforcement (see set_replay_budget_bytes).
  /// `just_used` (nullable) is the model driving the current use and is
  /// evicted last (arenas only, never its schedule). Envelope bytes count
  /// but are never evicted here: each pass is bounded, so a total that only
  /// envelopes keep over budget ends the walk over budget.
  void enforce_budget_locked(ModelState* just_used) REQUIRES(submit_mutex_);
  /// Budget eviction: drop `model`'s replay schedule — and with it the
  /// arenas and packed weights — (folding its replay tally), force a
  /// re-trace on next use, and mark its staged variants evicted. The trace
  /// core stays: the restage reuses its config file and program and finds
  /// the SoC envelopes measured from that program already recorded.
  void evict_schedule_locked(ModelState& model) REQUIRES(submit_mutex_);
  /// Quarantine after detected corruption: evict the schedule and also
  /// drop the trace core with its envelopes, so nothing measured from the
  /// suspect state is served again; the next use restages from the
  /// frontend. A staging still running may have started from the dropped
  /// core and would carry its envelopes back, so it is detached and never
  /// installed (threads already waiting on it still get its result).
  void quarantine_locked(ModelState& model) REQUIRES(submit_mutex_);
  /// Staging-concurrency accounting: bump in-flight (and the peak
  /// high-water mark) when a staging starts or a prepare_async task is
  /// issued...
  void note_staging_issued();
  /// ...and drop it when the task finishes (any exit path).
  void note_staging_done();
  /// Build the input-independent frontend core (weights -> calibration ->
  /// loadable) for `model`. Pure apart from the atomic counters, so a
  /// staging thread runs it outside the lock; `calibration_image` is the
  /// model's default input (the legacy calibration image).
  std::shared_ptr<const core::FrontendArtifacts> build_frontend(
      const ModelState& model, std::span<const float> calibration_image) const;
  /// The model's frontend core, built and installed on first use.
  const core::FrontendArtifacts& ensure_frontend(ModelState& model)
      EXCLUDES(submit_mutex_);
  /// The model's default input, synthesized on first use — the one place
  /// it is built. Returns a reference into the pinned ModelState (never
  /// reassigned once filled, so it stays valid after the lock drops).
  const std::vector<float>& default_input_locked(ModelState& model)
      REQUIRES(submit_mutex_);
  /// default_input_locked() for callers that do not hold the lock.
  const std::vector<float>& default_input_for(ModelState& model)
      EXCLUDES(submit_mutex_);
  /// The VP trace on an arbitrary prepared model whose frontend is built:
  /// input assign + VP trace + replay-schedule recording +
  /// config-file/program reuse-or-regenerate. Called only by staged_model()
  /// on the staging thread. Reads only the model's immutable identity
  /// (network, config); touches no session state beyond atomic counters.
  void stage_tail_into(const ModelState& model, core::PreparedModel& prepared,
                       std::span<const float> image) const;
  /// Substitute `image` into `prepared`'s per-input surface without
  /// re-running the VP: input tensor only — the FP32 reference is cleared.
  /// Marks the shared trace as not matching the input (backends that need
  /// the functional output replay the recorded schedule on each run). Safe
  /// to call concurrently on distinct surfaces — it only reads shared
  /// immutable state.
  void repack_into(const ModelState& model, core::PreparedModel& prepared,
                   std::span<const float> image) const;
  /// prepare()'s body for an arbitrary model.
  core::PreparedModel prepare_in(ModelState& model,
                                 std::span<const float> image)
      EXCLUDES(submit_mutex_);

  const BackendRegistry* registry_;
  mutable AtomicStageCounters counters_;
  /// StageCounters::envelopes, bumped by the envelope sets the session's
  /// trace cores own — shared, since a set may outlive the session inside
  /// a caller-held snapshot.
  const std::shared_ptr<std::atomic<std::uint32_t>> envelopes_recorded_ =
      std::make_shared<std::atomic<std::uint32_t>>(0);
  mutable AtomicRobustnessCounters robust_;

  /// Guards the submit/staging fast-path state (per-model staged states and
  /// latches, pool creation, variant/LRU bookkeeping) against concurrent
  /// submit()/resolve()/prepare_async()/counters() calls. Declared before
  /// the state it guards so the annotations below may name it.
  mutable Mutex submit_mutex_;

  /// 0 = unlimited. Atomic so a request with no budget set checks it with
  /// one relaxed load, without the lock.
  std::atomic<std::uint64_t> replay_budget_bytes_{0};
  RetryPolicy retry_policy_ GUARDED_BY(submit_mutex_);
  std::atomic<std::uint32_t> default_deadline_ms_{0};
  /// Session-level fault injector (null = no plan); tasks capture their
  /// own shared_ptr copy at enqueue.
  std::shared_ptr<fault::Injector> session_fault_ GUARDED_BY(submit_mutex_);
  /// LRU clock.
  std::uint64_t use_tick_ GUARDED_BY(submit_mutex_) = 0;
  /// Registered models, default model included. Node-based + unique_ptr:
  /// ModelState addresses are stable for the session lifetime (atomics
  /// inside make the state non-movable anyway). register_model() inserts
  /// under submit_mutex_; nothing ever erases. The map is guarded; the
  /// pinned ModelState nodes carry their own per-field disciplines
  /// (documented on ModelState — a cross-class guard the annotations
  /// cannot express).
  std::map<std::string, std::unique_ptr<ModelState>> models_
      GUARDED_BY(submit_mutex_);
  /// The constructor's network. Set once in the constructor, immutable
  /// after — unannotated.
  ModelState* default_model_ = nullptr;
  /// Per-(model, canonical spec) tallies, keyed "model|spec". Nodes never
  /// erased (ResolvedSpec pins them); the pointed-to VariantState fields
  /// are likewise touched only under submit_mutex_.
  std::map<std::string, VariantState> variants_ GUARDED_BY(submit_mutex_);
  /// Declared last on purpose: destroyed first, so in-flight pooled tasks
  /// (which read the shared cores, the model states and the staging
  /// latches) drain while every other member is still alive.
  std::unique_ptr<ThreadPool> pool_ GUARDED_BY(submit_mutex_);
};

}  // namespace nvsoc::runtime
