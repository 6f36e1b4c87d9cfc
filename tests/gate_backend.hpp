// A test backend that holds its pool worker until the test opens it, so a
// test can queue tasks behind a busy single-worker pool.
#pragma once

#include <future>
#include <string_view>

#include "runtime/execution_backend.hpp"

namespace nvsoc {

/// Signals `entered`, then holds its pool worker until `open` is
/// fulfilled, and echoes the image. One run per gate.
class GateBackend final : public runtime::ExecutionBackend {
 public:
  std::string_view name() const override { return "gate"; }
  std::string_view description() const override {
    return "signals entry, waits until the test opens it, echoes the image";
  }
  StatusOr<runtime::ExecutionResult> run(
      const core::PreparedModel& prepared,
      const runtime::RunOptions&) const override {
    entered.set_value();
    opened.wait();
    runtime::ExecutionResult result;
    result.backend = "gate";
    result.output = prepared.input;
    return result;
  }

  mutable std::promise<void> entered;
  std::promise<void> open;

 private:
  std::shared_future<void> opened = open.get_future().share();
};

}  // namespace nvsoc
