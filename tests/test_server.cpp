// The network serving front end: frame codec invariants, end-to-end
// loopback serving with ≥4 concurrent clients, out-of-order completion
// streaming, the malformed-frame/disconnect robustness suite, and graceful
// shutdown draining. Runs under the ThreadSanitizer CI job: the loop
// thread, the pool workers firing on_ready hooks and the client threads
// all race here by design.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "models/models.hpp"
#include "runtime/backend_registry.hpp"
#include "runtime/inference_session.hpp"
#include "server/client.hpp"
#include "server/frame.hpp"
#include "server/inference_server.hpp"

namespace nvsoc {
namespace {

using runtime::InferenceSession;
using server::Client;
using server::InferenceServer;
using server::Request;
using server::Response;
using server::ServerOptions;

/// Encode a request the test knows is wire-representable.
std::vector<std::uint8_t> must_encode(const Request& request) {
  auto frame = server::encode_request(request);
  EXPECT_TRUE(frame.is_ok()) << frame.status().to_string();
  return std::move(frame).value();
}

std::vector<std::vector<float>> synthetic_batch(const compiler::Network& net,
                                                std::size_t count,
                                                std::uint64_t first_seed) {
  std::vector<std::vector<float>> images;
  images.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    images.push_back(
        compiler::synthetic_input(net.input_shape(), first_seed + i));
  }
  return images;
}

/// A running server over its own session + loop thread, torn down in order.
class ServerFixture {
 public:
  explicit ServerFixture(compiler::Network net,
                         const runtime::BackendRegistry* registry = nullptr)
      : session_(std::move(net), {}, registry), server_(session_) {
    const Status started = server_.start();
    if (!started.is_ok()) {
      throw std::runtime_error(started.to_string());
    }
    thread_ = std::thread([this] { server_.run(); });
  }

  ~ServerFixture() {
    server_.shutdown();
    thread_.join();
  }

  InferenceSession& session() { return session_; }
  InferenceServer& server() { return server_; }
  std::uint16_t port() const { return server_.port(); }

  Client connect() {
    Client client;
    const Status connected = client.connect(server_.port());
    EXPECT_TRUE(connected.is_ok()) << connected.to_string();
    return client;
  }

 private:
  InferenceSession session_;
  InferenceServer server_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

TEST(Frame, RequestRoundTrips) {
  Request request;
  request.id = 0x1122334455667788ull;
  request.backend = "soc?mode=replay";
  request.image = {1.5f, -2.25f, 0.0f, 3.0f};
  const auto bytes = must_encode(request);

  Request decoded;
  const auto consumed = server::decode_request(bytes, decoded);
  ASSERT_TRUE(consumed.is_ok()) << consumed.status().to_string();
  EXPECT_EQ(*consumed, bytes.size());
  EXPECT_EQ(decoded.id, request.id);
  EXPECT_EQ(decoded.backend, request.backend);
  EXPECT_EQ(decoded.image, request.image);
}

TEST(Frame, ResponseRoundTripsOkAndError) {
  Response ok;
  ok.id = 42;
  ok.cycles = 123456789;
  ok.predicted_class = 7;
  ok.output = {0.25f, -1.0f};
  const auto ok_bytes = server::encode_response(ok);
  Response decoded;
  const auto ok_consumed = server::decode_response(ok_bytes, decoded);
  ASSERT_TRUE(ok_consumed.is_ok());
  EXPECT_EQ(*ok_consumed, ok_bytes.size());
  EXPECT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.id, 42u);
  EXPECT_EQ(decoded.cycles, 123456789u);
  EXPECT_EQ(decoded.predicted_class, 7u);
  EXPECT_EQ(decoded.output, ok.output);

  Response error;
  error.id = 43;
  error.code = StatusCode::kNotFound;
  error.error = "no such backend";
  const auto err_bytes = server::encode_response(error);
  const auto err_consumed = server::decode_response(err_bytes, decoded);
  ASSERT_TRUE(err_consumed.is_ok());
  EXPECT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.code, StatusCode::kNotFound);
  EXPECT_EQ(decoded.error, "no such backend");
  EXPECT_TRUE(decoded.output.empty());
}

TEST(Frame, IncompleteFramesAskForMoreBytes) {
  Request request;
  request.id = 9;
  request.backend = "vp";
  request.image = {1.0f, 2.0f};
  const auto bytes = must_encode(request);
  // Every proper prefix — the bare length field included — is "not yet".
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Request decoded;
    const auto consumed = server::decode_request(
        std::span<const std::uint8_t>(bytes.data(), cut), decoded);
    ASSERT_TRUE(consumed.is_ok()) << "cut at " << cut;
    EXPECT_EQ(*consumed, 0u) << "cut at " << cut;
  }
}

TEST(Frame, OversizedLengthPrefixIsRejectedNotAllocated) {
  std::vector<std::uint8_t> bytes(server::kLengthPrefixBytes, 0xff);
  Request decoded;
  const auto consumed = server::decode_request(bytes, decoded);
  ASSERT_FALSE(consumed.is_ok());
  EXPECT_EQ(consumed.status().code(), StatusCode::kOutOfRange);
}

TEST(Frame, OversizedRequestFieldsAreRejectedAtEncode) {
  // A backend spec that cannot fit the u16 wire length field must fail at
  // encode time, not truncate the length and desynchronize the stream.
  Request request;
  request.id = 1;
  request.backend.assign(0x10000, 'x');
  request.image = {1.0f};
  const auto bad_backend = server::encode_request(request);
  ASSERT_FALSE(bad_backend.is_ok());
  EXPECT_EQ(bad_backend.status().code(), StatusCode::kInvalidArgument);

  // An image pushing the payload past kMaxFrameBytes is a frame every
  // decoder would reject; encode must refuse it up front.
  request.backend = "vp";
  request.image.assign(server::kMaxFrameBytes / sizeof(float), 0.0f);
  const auto bad_image = server::encode_request(request);
  ASSERT_FALSE(bad_image.is_ok());
  EXPECT_EQ(bad_image.status().code(), StatusCode::kInvalidArgument);
}

TEST(Frame, OversizedErrorTextIsClampedNotCorrupted) {
  Response error;
  error.id = 3;
  error.code = StatusCode::kInternal;
  error.error.assign(0x10000, 'e');  // one byte past the u16 ceiling
  const auto bytes = server::encode_response(error);
  Response decoded;
  const auto consumed = server::decode_response(bytes, decoded);
  ASSERT_TRUE(consumed.is_ok()) << consumed.status().to_string();
  EXPECT_EQ(*consumed, bytes.size());
  EXPECT_EQ(decoded.code, StatusCode::kInternal);
  EXPECT_EQ(decoded.error.size(), 0xffffu);
  EXPECT_EQ(decoded.error, error.error.substr(0, 0xffff));
}

TEST(Frame, ContradictoryInnerLengthsAreMalformed) {
  Request request;
  request.id = 9;
  request.backend = "vp";
  request.image = {1.0f};
  auto bytes = must_encode(request);
  // Corrupt the backend length to reach past the payload.
  bytes[server::kLengthPrefixBytes + 8] = 0xff;
  bytes[server::kLengthPrefixBytes + 9] = 0xff;
  Request decoded;
  const auto consumed = server::decode_request(bytes, decoded);
  ASSERT_FALSE(consumed.is_ok());
  EXPECT_EQ(consumed.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// End-to-end serving
// ---------------------------------------------------------------------------

TEST(Serving, ConcurrentClientsGetBitExactResults) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 3;
  const auto images =
      synthetic_batch(models::lenet5(), kClients * kPerClient, 8100);

  // In-process oracle for the expected outputs.
  InferenceSession oracle(models::lenet5());
  std::vector<runtime::ExecutionResult> expected;
  for (const auto& image : images) {
    auto result = oracle.run("vp", image);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    expected.push_back(std::move(result).value());
  }

  ServerFixture fixture(models::lenet5());
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      if (!client.connect(fixture.port()).is_ok()) {
        ++failures;
        return;
      }
      // Pipeline all requests, then collect by id: responses stream in
      // completion order, which need not match submission order.
      for (std::size_t k = 0; k < kPerClient; ++k) {
        const std::size_t i = c * kPerClient + k;
        Request request;
        request.id = i;
        request.backend = "vp";
        request.image = images[i];
        if (!client.send(request).is_ok()) ++failures;
      }
      for (std::size_t k = 0; k < kPerClient; ++k) {
        auto response = client.receive();
        if (!response.is_ok() || !response->is_ok()) {
          ++failures;
          continue;
        }
        const std::size_t i = response->id;
        if (i >= expected.size() || response->output != expected[i].output ||
            response->cycles != expected[i].cycles) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(fixture.server().connections_accepted(), kClients);
  EXPECT_EQ(fixture.server().requests_received(), kClients * kPerClient);
  EXPECT_EQ(fixture.server().responses_sent(), kClients * kPerClient);
  EXPECT_EQ(fixture.server().error_responses(), 0u);
  // The whole serving run traced the VP exactly once (staged + replayed).
  EXPECT_EQ(fixture.session().counters().trace, 1u);
}

// A deterministic out-of-order backend: each "inference" sleeps for the
// duration encoded in the image's first element, so a pipelined slow
// request provably completes after a later fast one.
class SleepyBackend final : public runtime::ExecutionBackend {
 public:
  std::string_view name() const override { return "sleepy"; }
  std::string_view description() const override {
    return "sleeps image[0] milliseconds, echoes the image back";
  }
  StatusOr<runtime::ExecutionResult> run(
      const core::PreparedModel& prepared,
      const runtime::RunOptions&) const override {
    const double ms = prepared.input.empty() ? 0.0 : prepared.input.front();
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long>(ms * 1000)));
    runtime::ExecutionResult result;
    result.backend = "sleepy";
    result.output = prepared.input;
    result.cycles = static_cast<Cycle>(ms);
    return result;
  }
};

TEST(Serving, ResponsesStreamInCompletionOrder) {
  runtime::BackendRegistry registry;
  ASSERT_TRUE(registry.add(std::make_unique<SleepyBackend>()).is_ok());
  ServerFixture fixture(models::lenet5(), &registry);
  // Two pool workers so the fast request is not queued behind the slow one
  // (explicit: the default is the host's hardware threads, which may be 1
  // on small CI runners).
  const auto warmed = fixture.session().run_batch_parallel(
      "sleepy", synthetic_batch(models::lenet5(), 2, 8200), {.workers = 2});
  ASSERT_TRUE(warmed.is_ok()) << warmed.status().to_string();

  Client client = fixture.connect();
  const std::size_t elems = models::lenet5().input_shape().elements();
  Request slow;
  slow.id = 1;
  slow.backend = "sleepy";
  slow.image.assign(elems, 0.0f);
  slow.image[0] = 300.0f;  // ms
  Request fast = slow;
  fast.id = 2;
  fast.image[0] = 1.0f;
  ASSERT_TRUE(client.send(slow).is_ok());
  ASSERT_TRUE(client.send(fast).is_ok());

  auto first = client.receive();
  auto second = client.receive();
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  ASSERT_TRUE(first->is_ok()) << first->error;
  ASSERT_TRUE(second->is_ok()) << second->error;
  // The fast request overtook the slow one on the same connection.
  EXPECT_EQ(first->id, 2u);
  EXPECT_EQ(second->id, 1u);
  EXPECT_EQ(first->output, fast.image);
  EXPECT_EQ(second->output, slow.image);
}

// ---------------------------------------------------------------------------
// Robustness: the wire path must never crash or leak
// ---------------------------------------------------------------------------

TEST(Robustness, UnknownBackendSpecGetsAnErrorResponse) {
  ServerFixture fixture(models::lenet5());
  Client client = fixture.connect();
  Request request;
  request.id = 77;
  request.backend = "warp_drive";
  request.image = synthetic_batch(models::lenet5(), 1, 8300).front();
  auto response = client.roundtrip(request);
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_FALSE(response->is_ok());
  EXPECT_EQ(response->code, StatusCode::kNotFound);
  EXPECT_EQ(response->id, 77u);
  EXPECT_NE(response->error.find("warp_drive"), std::string::npos);

  // The connection survives and serves a well-formed request afterwards.
  request.id = 78;
  request.backend = "vp";
  response = client.roundtrip(request);
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_TRUE(response->is_ok()) << response->error;
  EXPECT_EQ(response->id, 78u);
}

TEST(Robustness, WrongImageSizeGetsAnErrorResponse) {
  ServerFixture fixture(models::lenet5());
  Client client = fixture.connect();
  Request request;
  request.id = 5;
  request.backend = "vp";
  request.image = {1.0f, 2.0f, 3.0f};  // lenet5 expects 784
  auto response = client.roundtrip(request);
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_FALSE(response->is_ok());
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
  EXPECT_NE(response->error.find("elements"), std::string::npos);
}

TEST(Robustness, MalformedAndOversizedFramesCloseTheConnection) {
  ServerFixture fixture(models::lenet5());

  {
    // Oversized length prefix: 0xffffffff bytes announced.
    Client client = fixture.connect();
    const std::uint8_t oversized[4] = {0xff, 0xff, 0xff, 0xff};
    ASSERT_TRUE(client.send_bytes(oversized).is_ok());
    const auto response = client.receive();
    ASSERT_FALSE(response.is_ok());
    EXPECT_EQ(response.status().code(), StatusCode::kUnsupported);  // closed
  }
  {
    // Inner lengths contradicting the payload length.
    Client client = fixture.connect();
    Request request;
    request.id = 1;
    request.backend = "vp";
    request.image = {1.0f};
    auto bytes = must_encode(request);
    bytes[server::kLengthPrefixBytes + 8] = 0xff;
    bytes[server::kLengthPrefixBytes + 9] = 0xff;
    ASSERT_TRUE(client.send_bytes(bytes).is_ok());
    const auto response = client.receive();
    ASSERT_FALSE(response.is_ok());
    EXPECT_EQ(response.status().code(), StatusCode::kUnsupported);
  }

  // The server survives both and still serves clean clients.
  Client client = fixture.connect();
  Request request;
  request.id = 9;
  request.backend = "vp";
  request.image = synthetic_batch(models::lenet5(), 1, 8400).front();
  const auto response = client.roundtrip(request);
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_TRUE(response->is_ok()) << response->error;
}

TEST(Robustness, DisconnectMidRequestNeitherCrashesNorLeaks) {
  ServerFixture fixture(models::lenet5());
  const auto images = synthetic_batch(models::lenet5(), 2, 8500);

  {
    // Fire a request and vanish without reading the response; also leave
    // a truncated frame tail behind to exercise the partial-decode path.
    Client client = fixture.connect();
    Request request;
    request.id = 1;
    request.backend = "vp";
    request.image = images[0];
    ASSERT_TRUE(client.send(request).is_ok());
    const auto full = must_encode(request);
    ASSERT_TRUE(client
                    .send_bytes(std::span<const std::uint8_t>(full.data(),
                                                              full.size() / 2))
                    .is_ok());
    client.close();
  }

  // The orphaned completion is consumed and dropped; a fresh client gets
  // full service. (ServerFixture's graceful-shutdown drain would hang on a
  // leaked PendingResult, so the teardown asserts the no-leak half.)
  Client client = fixture.connect();
  Request request;
  request.id = 2;
  request.backend = "vp";
  request.image = images[1];
  const auto response = client.roundtrip(request);
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_TRUE(response->is_ok()) << response->error;
  EXPECT_EQ(response->id, 2u);
}

// ---------------------------------------------------------------------------
// Graceful shutdown
// ---------------------------------------------------------------------------

TEST(Shutdown, DrainsInFlightRequestsBeforeClosing) {
  runtime::BackendRegistry registry;
  ASSERT_TRUE(registry.add(std::make_unique<SleepyBackend>()).is_ok());
  ServerFixture fixture(models::lenet5(), &registry);

  Client client = fixture.connect();
  const std::size_t elems = models::lenet5().input_shape().elements();
  constexpr std::size_t kInFlight = 3;
  for (std::size_t i = 0; i < kInFlight; ++i) {
    Request request;
    request.id = i;
    request.backend = "sleepy";
    request.image.assign(elems, 0.0f);
    request.image[0] = 50.0f;  // ms — still running when shutdown lands
    ASSERT_TRUE(client.send(request).is_ok());
  }
  // Let the loop thread pick the frames up, then shut down mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fixture.server().shutdown();

  // Every in-flight request is answered before the close.
  std::vector<bool> answered(kInFlight, false);
  for (std::size_t i = 0; i < kInFlight; ++i) {
    const auto response = client.receive();
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    ASSERT_TRUE(response->is_ok()) << response->error;
    ASSERT_LT(response->id, kInFlight);
    answered[response->id] = true;
  }
  for (std::size_t i = 0; i < kInFlight; ++i) {
    EXPECT_TRUE(answered[i]) << "request " << i << " unanswered";
  }
  // ...and then the server closes the connection.
  const auto closed = client.receive();
  ASSERT_FALSE(closed.is_ok());
  EXPECT_EQ(closed.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace nvsoc
