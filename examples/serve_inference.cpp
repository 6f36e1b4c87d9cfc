// serve_inference: the network serving front end as a runnable binary.
//
// Opens an InferenceSession over one or more model-zoo networks,
// pre-stages the whole variant fleet off the serving path (vector
// prepare_async), then serves framed inference requests over loopback TCP
// until SIGINT/SIGTERM:
//
//   ./build/examples/serve_inference                 # lenet5, port 7790
//   ./build/examples/serve_inference --port=0        # ephemeral port
//   ./build/examples/serve_inference --backend=soc --replay-budget=8mib
//       --models=lenet5,resnet18_cifar
//
// The first --models entry is the session's default model; the rest
// register alongside it and are reachable per request with a
// `?model=NAME` spec ("soc?model=resnet18_cifar"). --replay-budget bounds
// the bytes replay residency may hold across models (schedules + arenas);
// cold models shed arenas, then schedules, and re-stage transparently on
// their next request.
//
// Protocol (see src/server/frame.hpp): length-prefixed binary frames,
// request = id + backend spec + image floats, response = id + status +
// output tensor (or error text), streamed in completion order. The
// perfbench/ load generator and the Client class in src/server/client.hpp
// speak it.
#include <cctype>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "models/models.hpp"
#include "runtime/execution_backend.hpp"
#include "runtime/inference_session.hpp"
#include "server/inference_server.hpp"

namespace {

nvsoc::server::InferenceServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->shutdown();
}

const char* arg_value(const char* arg, const char* key) {
  const std::size_t len = std::strlen(key);
  return std::strncmp(arg, key, len) == 0 ? arg + len : nullptr;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at <= csv.size()) {
    const std::size_t comma = csv.find(',', at);
    const std::size_t end = comma == std::string::npos ? csv.size() : comma;
    if (end > at) out.push_back(csv.substr(at, end - at));
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return out;
}

// Zoo names are spelled "LeNet-5"; accept the relaxed CLI spellings the
// older --model flag taught people ("lenet5", "resnet18_cifar").
std::string normalized(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  return out;
}

const nvsoc::models::ModelInfo* find_model(const std::string& name) {
  const std::string want =
      normalized(name == "resnet18_cifar" ? "ResNet-18" : name);
  for (const auto& info : nvsoc::models::model_zoo()) {
    if (normalized(info.name) == want) return &info;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nvsoc;

  std::string models_csv = "lenet5";
  std::string backend = "vp";
  std::string replay_budget;
  std::string fault_plan;
  int port = 7790;
  int deadline_ms = 0;
  int max_inflight = 0;
  int retries = 0;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = arg_value(argv[i], "--models=")) {
      models_csv = v;
    } else if (const char* v = arg_value(argv[i], "--model=")) {
      models_csv = v;  // legacy singular spelling
    } else if (const char* v = arg_value(argv[i], "--backend=")) {
      backend = v;
    } else if (const char* v = arg_value(argv[i], "--replay-budget=")) {
      replay_budget = v;
    } else if (const char* v = arg_value(argv[i], "--fault=")) {
      fault_plan = v;
    } else if (const char* v = arg_value(argv[i], "--deadline-ms=")) {
      deadline_ms = std::atoi(v);
    } else if (const char* v = arg_value(argv[i], "--max-inflight=")) {
      max_inflight = std::atoi(v);
    } else if (const char* v = arg_value(argv[i], "--retries=")) {
      retries = std::atoi(v);
    } else if (const char* v = arg_value(argv[i], "--port=")) {
      port = std::atoi(v);
    } else {
      std::printf(
          "usage: %s [--models=NAME[,NAME...]] [--backend=SPEC] "
          "[--replay-budget=SIZE]\n  [--fault=PLAN] [--deadline-ms=N] "
          "[--max-inflight=N] [--retries=N] [--port=N]\n\nServes framed "
          "inference requests over loopback TCP; --port=0 binds an\n"
          "ephemeral port (printed on startup). The first --models entry is "
          "the\ndefault model; the rest are reachable with a '?model=NAME' "
          "spec in the\nrequest's backend string. --replay-budget (e.g. "
          "8mib) bounds replay\nresidency across models. The per-request "
          "backend spec in each frame wins;\n--backend only picks what to "
          "pre-stage. Zoo models (case and\npunctuation insensitive): "
          "LeNet-5, ResNet-18, ResNet-50, MobileNet,\nGoogleNet, "
          "AlexNet.\n\nRobustness knobs:\n  --fault=PLAN       arm a "
          "deterministic session fault plan, e.g.\n                     "
          "'flip:1e-6+csb_error:0.01+seed:7' (kinds: flip,\n"
          "                     csb_timeout, csb_error, dbb_error, stall, "
          "staging, replay)\n  --deadline-ms=N    per-request wall-clock "
          "deadline (server scan +\n                     session task "
          "boundaries); expired requests answer\n                     "
          "DEADLINE_EXCEEDED\n  --max-inflight=N   global in-flight cap; "
          "excess requests shed with\n                     UNAVAILABLE on a "
          "still-usable connection\n  --retries=N        bounded automatic "
          "retry of transient failures inside\n                     the "
          "session (UNAVAILABLE / DATA_LOSS after quarantine)\n",
          argv[0]);
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }

  const std::vector<std::string> model_names = split_csv(models_csv);
  if (model_names.empty()) {
    std::fprintf(stderr, "--models needs at least one zoo model name\n");
    return 2;
  }
  std::vector<const models::ModelInfo*> fleet_models;
  for (const auto& name : model_names) {
    const models::ModelInfo* info = find_model(name);
    if (info == nullptr) {
      std::fprintf(stderr, "unknown model '%s'\n", name.c_str());
      return 2;
    }
    fleet_models.push_back(info);
  }

  runtime::InferenceSession session(fleet_models.front()->build());
  for (std::size_t i = 1; i < fleet_models.size(); ++i) {
    const models::ModelInfo* info = fleet_models[i];
    if (const Status s = session.register_model(info->name, info->build());
        !s.is_ok()) {
      std::fprintf(stderr, "register %s: %s\n", info->name.c_str(),
                   s.to_string().c_str());
      return 2;
    }
  }

  if (!replay_budget.empty()) {
    const auto budget = runtime::parse_mem_size(replay_budget);
    if (!budget.is_ok()) {
      std::fprintf(stderr, "--replay-budget: %s\n",
                   budget.status().to_string().c_str());
      return 2;
    }
    session.set_replay_budget_bytes(*budget);
  }

  if (!fault_plan.empty()) {
    if (const Status s = session.set_fault_plan(fault_plan); !s.is_ok()) {
      std::fprintf(stderr, "--fault: %s\n", s.to_string().c_str());
      return 2;
    }
  }
  if (retries > 0) {
    session.set_retry_policy({static_cast<std::uint32_t>(retries) + 1});
  }
  if (deadline_ms > 0) {
    session.set_default_deadline_ms(static_cast<std::uint32_t>(deadline_ms));
  }

  // Front-load the whole fleet's staging so no model's first request pays
  // a one-time stall: one vector prepare enqueues every (model, backend)
  // variant's staging concurrently on the session pool.
  std::vector<std::string> fleet;
  fleet.push_back(backend);
  for (std::size_t i = 1; i < fleet_models.size(); ++i) {
    const char glue = backend.find('?') == std::string::npos ? '?' : '&';
    fleet.push_back(backend + glue + "model=" + fleet_models[i]->name);
  }
  auto staged = session.prepare_async(fleet);

  server::ServerOptions options;
  options.port = static_cast<std::uint16_t>(port);
  if (deadline_ms > 0) {
    options.deadline_ms = static_cast<std::uint32_t>(deadline_ms);
  }
  if (max_inflight > 0) {
    options.max_inflight_total = static_cast<std::uint32_t>(max_inflight);
  }
  server::InferenceServer server(session, options);
  if (const Status started = server.start(); !started.is_ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.to_string().c_str());
    return 2;
  }

  g_server = &server;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::printf("serving %zu model(s) on 127.0.0.1:%u (staging %zu '%s' "
              "variant(s) in the background)\n",
              model_names.size(), server.port(), fleet.size(),
              backend.c_str());
  for (const auto& name : session.model_names()) {
    std::printf("  model %s\n", name.c_str());
  }
  std::fflush(stdout);

  server.run();  // until SIGINT/SIGTERM -> graceful drain

  std::printf("shut down: %llu connections, %llu requests, %llu responses "
              "(%llu errors, %llu spec-cache hits)\n",
              static_cast<unsigned long long>(server.connections_accepted()),
              static_cast<unsigned long long>(server.requests_received()),
              static_cast<unsigned long long>(server.responses_sent()),
              static_cast<unsigned long long>(server.error_responses()),
              static_cast<unsigned long long>(server.spec_cache_hits()));
  for (const auto& v : server.variant_stats()) {
    std::printf("  variant %s model=%s staged=%d requests=%llu "
                "stagings=%llu evictions=%llu resident=%llu B\n",
                v.backend.c_str(), v.model.c_str(), v.staged ? 1 : 0,
                static_cast<unsigned long long>(v.requests),
                static_cast<unsigned long long>(v.stagings),
                static_cast<unsigned long long>(v.evictions),
                static_cast<unsigned long long>(v.resident_bytes));
  }
  const auto robust = session.robustness();
  std::uint64_t faults_injected = 0;
  if (const auto injector = session.fault_injector(); injector != nullptr) {
    faults_injected = injector->total_injected();
  }
  std::printf("robustness: %llu faults injected, %llu retries, %llu "
              "quarantines, %llu restages,\n  %llu data-loss, %llu staging "
              "faults, %llu deadline-exceeded (session),\n  %llu "
              "deadline-expired (server), %llu shed\n",
              static_cast<unsigned long long>(faults_injected),
              static_cast<unsigned long long>(robust.retries),
              static_cast<unsigned long long>(robust.quarantines),
              static_cast<unsigned long long>(robust.restages),
              static_cast<unsigned long long>(robust.data_loss),
              static_cast<unsigned long long>(robust.staging_faults),
              static_cast<unsigned long long>(robust.deadline_exceeded),
              static_cast<unsigned long long>(server.deadline_expirations()),
              static_cast<unsigned long long>(server.shed_requests()));
  return 0;
}
