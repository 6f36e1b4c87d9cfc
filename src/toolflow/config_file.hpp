// Configuration-file generation (Fig. 1, step 2).
//
// The VP log is processed into a sequence of register commands:
//   * CSB writes  -> write_reg commands (target address, data value)
//   * CSB reads   -> read_reg commands storing the *expected* value
// The command list is the "configuration file" that subsequently becomes
// RISC-V assembly. Both the structured path (from VpTrace records) and the
// paper's textual path (grepping `nvdla.csb_adaptor` lines from the log,
// exactly like the released Python script) are implemented.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "vp/virtual_platform.hpp"

namespace nvsoc::toolflow {

struct ConfigCommand {
  bool is_write = false;
  Addr addr = 0;
  /// Write data, or the expected value for read_reg commands.
  std::uint32_t data = 0;
};

class ConfigFile {
 public:
  std::vector<ConfigCommand> commands;

  std::size_t write_count() const;
  std::size_t read_count() const;

  /// Build from the structured VP trace.
  static ConfigFile from_trace(const vp::VpTrace& trace);

  /// Build from a textual VP log: keeps lines containing the keyword
  /// `nvdla.csb_adaptor`, classifying each by its iswrite flag.
  static ConfigFile from_log_text(const std::string& log_text);

  /// Textual configuration-file format:
  ///   write_reg <addr> <data>
  ///   read_reg <addr> <expected>
  std::string to_text() const;
  /// The reader half of the configuration-file format (round-trip tests).
  static ConfigFile from_text(const std::string& text);
};

/// Weight extraction from a textual VP log (Fig. 1, step 3, as in the
/// paper's script): keep `nvdla.dbb_adaptor` read lines, delete duplicate
/// address entries retaining the first occurrence.
vp::WeightFile weights_from_log_text(const std::string& log_text);

}  // namespace nvsoc::toolflow
