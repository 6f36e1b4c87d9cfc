// BackendSpec parsing and the generic configured-variant wrapper behind
// ExecutionBackend::configure().
#include "runtime/execution_backend.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <initializer_list>
#include <utility>

#include "common/strfmt.hpp"
#include "toolflow/asm_emitter.hpp"

namespace nvsoc::runtime {

namespace {

std::string lowered(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return text;
}

/// An on/off spec option: on|true|1 or off|false|0, in any case.
StatusOr<bool> parse_switch(const BackendSpec& spec, const std::string& key,
                            const std::string& value) {
  const std::string v = lowered(value);
  if (v == "on" || v == "true" || v == "1") return true;
  if (v == "off" || v == "false" || v == "0") return false;
  return Status(StatusCode::kInvalidArgument,
                strfmt("backend spec '{}': {} must be 'on' or 'off', got '{}'",
                       spec.full, key, value));
}

/// A unit suffix and the factor it scales its number by.
struct Unit {
  const char* suffix;
  double scale;
};

/// The `<number><unit>` scan shared by parse_clock and parse_mem_size:
/// the scaled value of `token`, whose unit must be one of `units` (in any
/// case). `kind` names the quantity in the error messages ("bad clock ...").
StatusOr<double> parse_quantity(const std::string& token, const char* kind,
                                std::initializer_list<Unit> units) {
  const std::string t = lowered(token);
  std::size_t digits = 0;
  std::size_t dots = 0;
  while (digits < t.size() &&
         (std::isdigit(static_cast<unsigned char>(t[digits])) != 0 ||
          t[digits] == '.')) {
    if (t[digits] == '.') ++dots;
    ++digits;
  }
  const std::string number = t.substr(0, digits);
  const std::string unit = t.substr(digits);
  if (dots > 1) {
    // strtod would silently truncate "1.2.3" to 1.2; reject instead.
    return Status(StatusCode::kInvalidArgument,
                  strfmt("bad {} '{}': malformed number", kind, token));
  }
  double scale = 0.0;
  std::string suffixes;
  for (const Unit& u : units) {
    if (unit == u.suffix) scale = u.scale;
    if (!suffixes.empty()) suffixes += '|';
    suffixes += u.suffix;
  }
  if (number.empty() || scale == 0.0) {
    return Status(StatusCode::kInvalidArgument,
                  strfmt("bad {} '{}': expected <number><{}>", kind, token,
                         suffixes));
  }
  return std::strtod(number.c_str(), nullptr) * scale;
}

/// The generic RunOptions adjustments a spec can ask for.
struct FlowOverrides {
  std::optional<Hertz> clock;
  std::optional<toolflow::WaitMode> wait_mode;
  std::optional<bool> validate;
  std::optional<std::uint64_t> dram_bytes;
  std::optional<std::uint64_t> program_memory_bytes;
  std::optional<bool> decode_cache;
  /// Built once per configured variant from `?fault=`: every run through
  /// the variant consumes one shared deterministic decision stream.
  std::shared_ptr<fault::Injector> fault;
};

StatusOr<FlowOverrides> overrides_from_spec(const BackendSpec& spec,
                                            bool apply_clock) {
  FlowOverrides overrides;
  if (apply_clock && !spec.clock.empty()) {
    const auto clock = parse_clock(spec.clock);
    if (!clock.is_ok()) return clock.status();
    overrides.clock = *clock;
  }
  for (const auto& [key, value] : spec.params) {
    if (key == "wait_mode") {
      const std::string v = lowered(value);
      if (v == "polling" || v == "poll") {
        overrides.wait_mode = toolflow::WaitMode::kPoll;
      } else if (v == "wfi" || v == "interrupt") {
        overrides.wait_mode = toolflow::WaitMode::kInterrupt;
      } else {
        return Status(StatusCode::kInvalidArgument,
                      strfmt("backend spec '{}': wait_mode must be "
                             "'polling' or 'wfi', got '{}'",
                             spec.full, value));
      }
    } else if (key == "validate" || key == "decode_cache") {
      const auto on = parse_switch(spec, key, value);
      if (!on.is_ok()) return on.status();
      (key == "validate" ? overrides.validate : overrides.decode_cache) = *on;
    } else if (key == "dram" || key == "program_memory") {
      const auto bytes = parse_mem_size(value);
      if (!bytes.is_ok()) {
        return Status(StatusCode::kInvalidArgument,
                      strfmt("backend spec '{}': {}", spec.full,
                             bytes.status().message()));
      }
      (key == "dram" ? overrides.dram_bytes : overrides.program_memory_bytes) =
          *bytes;
    } else if (key == "fault") {
      auto plan = fault::Plan::parse(value);
      if (!plan.is_ok()) {
        return Status(StatusCode::kInvalidArgument,
                      strfmt("backend spec '{}': {}", spec.full,
                             plan.status().message()));
      }
      if (plan->any()) {
        overrides.fault = std::make_shared<fault::Injector>(*plan);
      }
    } else {
      return Status(StatusCode::kInvalidArgument,
                    strfmt("backend spec '{}': unknown option '{}' "
                           "(supported: wait_mode, validate, dram, "
                           "program_memory, decode_cache, fault)",
                           spec.full, key));
    }
  }
  return overrides;
}

/// A registry-hosted configured variant: applies the spec's overrides to
/// the RunOptions and delegates to the underlying backend.
class ConfiguredBackend final : public ExecutionBackend {
 public:
  ConfiguredBackend(const ExecutionBackend* base,
                    std::unique_ptr<ExecutionBackend> owned, std::string name,
                    FlowOverrides overrides)
      : base_(base),
        owned_(std::move(owned)),
        name_(std::move(name)),
        overrides_(overrides),
        description_(std::string(base_->description()) +
                     " [configured variant]") {}

  std::string_view name() const override { return name_; }
  std::string_view description() const override { return description_; }

  StatusOr<ExecutionResult> run(const core::PreparedModel& prepared,
                                const RunOptions& options) const override {
    auto result = base_->run(prepared, adjusted(options));
    if (!result.is_ok()) return result.status();
    ExecutionResult value = std::move(result).value();
    value.backend = name_;  // results report the spec that produced them
    return value;
  }

  void stage(const core::PreparedModel& prepared,
             const RunOptions& options) const override {
    // The overrides shape the platform-record key (clock, memory sizes),
    // so the delegate must stage under the same adjusted options run()
    // would execute with.
    base_->stage(prepared, adjusted(options));
  }

 private:
  RunOptions adjusted(const RunOptions& options) const {
    RunOptions adjusted = options;
    if (overrides_.clock) adjusted.flow.soc_clock = *overrides_.clock;
    if (overrides_.wait_mode) adjusted.flow.wait_mode = *overrides_.wait_mode;
    if (overrides_.validate) adjusted.validate = *overrides_.validate;
    if (overrides_.dram_bytes) adjusted.flow.dram_bytes = *overrides_.dram_bytes;
    if (overrides_.program_memory_bytes) {
      adjusted.flow.program_memory_bytes = *overrides_.program_memory_bytes;
    }
    if (overrides_.decode_cache) {
      adjusted.flow.decode_cache = *overrides_.decode_cache;
    }
    if (overrides_.fault != nullptr) adjusted.flow.fault = overrides_.fault;
    return adjusted;
  }

  const ExecutionBackend* base_;            ///< delegate (may == owned_)
  std::unique_ptr<ExecutionBackend> owned_; ///< backend built for this spec
  std::string name_;
  FlowOverrides overrides_;
  std::string description_;
};

}  // namespace

StatusOr<BackendSpec> BackendSpec::parse(const std::string& spec) {
  BackendSpec parsed;
  parsed.full = spec;

  std::string head = spec;
  std::string query;
  if (const auto qmark = head.find('?'); qmark != std::string::npos) {
    query = head.substr(qmark + 1);
    head.resize(qmark);
  }
  if (const auto at = head.find('@'); at != std::string::npos) {
    parsed.clock = lowered(head.substr(at + 1));
    head.resize(at);
    if (parsed.clock.empty()) {
      return Status(StatusCode::kInvalidArgument,
                    strfmt("backend spec '{}': '@' without a clock", spec));
    }
    if (parsed.clock.find('@') != std::string::npos) {
      return Status(StatusCode::kInvalidArgument,
                    strfmt("backend spec '{}': more than one '@' clock",
                           spec));
    }
  }
  parsed.base = head;
  if (parsed.base.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  strfmt("backend spec '{}': empty backend name", spec));
  }

  std::size_t pos = 0;
  while (pos < query.size()) {
    // '?' is tolerated as an option separator alongside '&'
    // ("soc?a=1?b=2" == "soc?a=1&b=2"); both spellings canonicalize to '&'.
    auto amp = query.find_first_of("&?", pos);
    if (amp == std::string::npos) amp = query.size();
    const std::string pair = query.substr(pos, amp - pos);
    const auto eq = pair.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
      return Status(StatusCode::kInvalidArgument,
                    strfmt("backend spec '{}': expected key=value, got '{}'",
                           spec, pair));
    }
    std::string key = pair.substr(0, eq);
    for (const auto& [existing, value] : parsed.params) {
      (void)value;
      if (existing == key) {
        return Status(
            StatusCode::kInvalidArgument,
            strfmt("backend spec '{}': duplicate option '{}'", spec, key));
      }
    }
    parsed.params.emplace_back(std::move(key), pair.substr(eq + 1));
    pos = amp + 1;
  }
  return parsed;
}

std::string BackendSpec::canonical() const {
  std::string out = base;
  if (!clock.empty()) {
    out += '@';
    out += clock;
  }
  auto sorted = params;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    out += i == 0 ? '?' : '&';
    out += sorted[i].first;
    out += '=';
    out += sorted[i].second;
  }
  return out;
}

StatusOr<Hertz> parse_clock(const std::string& token) {
  const auto value = parse_quantity(
      token, "clock", {{"hz", 1.0}, {"khz", 1e3}, {"mhz", 1e6}, {"ghz", 1e9}});
  if (!value.is_ok()) return value.status();
  if (*value < 1.0) {
    return Status(StatusCode::kInvalidArgument,
                  strfmt("bad clock '{}': below 1 Hz", token));
  }
  return static_cast<Hertz>(*value);
}

StatusOr<std::uint64_t> parse_mem_size(const std::string& token) {
  const auto value = parse_quantity(token, "size",
                                    {{"b", 1.0},
                                     {"kib", 1024.0},
                                     {"mib", 1024.0 * 1024.0},
                                     {"gib", 1024.0 * 1024.0 * 1024.0}});
  if (!value.is_ok()) return value.status();
  if (*value < 1.0) {
    return Status(StatusCode::kInvalidArgument,
                  strfmt("bad size '{}': below 1 byte", token));
  }
  // Bound before the cast: double -> uint64 is UB past 2^64, and nothing
  // in the simulator wants an exbibyte window anyway.
  if (*value > static_cast<double>(1ull << 60)) {
    return Status(StatusCode::kInvalidArgument,
                  strfmt("bad size '{}': larger than 1 EiB", token));
  }
  return static_cast<std::uint64_t>(*value);
}

std::string spec_vocabulary_help() {
  return
      "backend specs: base[@clock][?key=value[&key=value]...]\n"
      "  @<clock>                    SoC clock override, e.g. @25mhz "
      "(hz|khz|mhz|ghz)\n"
      "  ?wait_mode=polling|wfi      how the bare-metal program waits for "
      "layer completion\n"
      "  ?validate=on|off            pre-execution artifact validation\n"
      "  ?dram=<size>                DRAM window, e.g. 1gib (b|kib|mib|gib)\n"
      "  ?program_memory=<size>      BRAM program-memory capacity, e.g. "
      "2mib\n"
      "  ?decode_cache=on|off        ISS decoded-block cache on the "
      "cycle-accurate path\n"
      "                              (bit-identical cycles; off = "
      "per-instruction oracle)\n"
      "  ?mode=replay|cycle_accurate soc/system_top only: replay the "
      "recorded schedule\n"
      "                              functionally on repeat images (skips "
      "the ISS/KMD)\n"
      "  ?fault=<plan>               deterministic fault injection: "
      "kind:rate terms joined\n"
      "                              by '+', e.g. "
      "fault=csb_timeout:0.1+flip:0.05+seed:7\n"
      "                              (kinds: flip, csb_timeout, csb_error, "
      "dbb_error,\n"
      "                              stall, staging, replay)\n"
      "examples: linux_baseline@25mhz, soc?wait_mode=polling, "
      "soc?mode=replay,\n"
      "          system_top?dram=1gib&program_memory=2mib\n";
}

StatusOr<std::unique_ptr<ExecutionBackend>> make_configured_backend(
    const ExecutionBackend* base, std::unique_ptr<ExecutionBackend> owned,
    const BackendSpec& spec, bool apply_clock) {
  const auto overrides = overrides_from_spec(spec, apply_clock);
  if (!overrides.is_ok()) return overrides.status();
  if (owned != nullptr) base = owned.get();
  return std::unique_ptr<ExecutionBackend>(std::make_unique<ConfiguredBackend>(
      base, std::move(owned), spec.full, *overrides));
}

StatusOr<std::unique_ptr<ExecutionBackend>> ExecutionBackend::configure(
    const BackendSpec& spec) const {
  return make_configured_backend(this, nullptr, spec, /*apply_clock=*/true);
}

}  // namespace nvsoc::runtime
