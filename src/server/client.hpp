// Blocking loopback client for the inference server — the counterpart the
// example binary, the load generator and the robustness tests drive.
//
// Deliberately simple: one socket, blocking I/O, incremental response
// decoding. Requests may be pipelined (send several, then read responses
// as they arrive); responses carry the request id, so callers match them
// even when the server streams completions out of submission order.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/status.hpp"
#include "server/frame.hpp"

namespace nvsoc::server {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Wall-clock bound on connect() and on each receive() wait (0 — the
  /// default — blocks indefinitely). With a timeout set the client can
  /// never hang on a dead or silent server: an unanswered connect or an
  /// idle socket past the bound reports kDeadlineExceeded and the caller
  /// decides whether to retry. Applies to calls made after it is set.
  void set_timeout_ms(std::uint32_t timeout_ms) { timeout_ms_ = timeout_ms; }
  std::uint32_t timeout_ms() const { return timeout_ms_; }

  /// Connect to 127.0.0.1:port (TCP_NODELAY on). With a timeout set the
  /// connect is poll-based: a server that never answers the SYN reports
  /// kDeadlineExceeded instead of hanging.
  Status connect(std::uint16_t port);
  bool connected() const { return fd_ >= 0; }
  /// close(), send() and roundtrip() are the protocol's client half, which
  /// the server tests drive.
  void close();

  /// Encode and send one request (blocking until fully written).
  Status send(const Request& request);
  /// Send arbitrary bytes — the robustness tests use this to deliver
  /// malformed and truncated frames verbatim.
  Status send_bytes(std::span<const std::uint8_t> bytes);
  /// Block until one full response frame arrives and decode it. A closed
  /// peer reports kUnsupported ("connection closed by server") so tests
  /// can distinguish clean closes from decode failures. With a timeout
  /// set, a server that stays silent past the bound reports
  /// kDeadlineExceeded (the connection stays usable — bytes already
  /// buffered are kept for the next receive()).
  StatusOr<Response> receive();

  /// send() + receive() for the single-outstanding-request case.
  StatusOr<Response> roundtrip(const Request& request);

 private:
  int fd_ = -1;
  std::uint32_t timeout_ms_ = 0;  ///< 0 = block indefinitely
  std::vector<std::uint8_t> in_;  ///< bytes received, frames not yet decoded
};

}  // namespace nvsoc::server
