// A trace that shares another trace's CRC-32 - the key powerlimd files
// journals and trace snapshots under - without being that trace.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "robust/journal.h"

namespace powerlim {

/// `text` with the first task's cpu_s raised by half and a trailing
/// comment whose last four bytes are chosen so that the result has the
/// CRC-32 of `text`: another trace under the same daemon hash. The
/// comment's prefix is varied until the chosen bytes hold no newline,
/// which would end the comment.
inline std::string same_crc_other_trace(const std::string& text) {
  std::string changed;
  std::istringstream lines(text);
  bool done = false;
  for (std::string line; std::getline(lines, line);) {
    if (!done && line.rfind("task ", 0) == 0) {
      std::istringstream in(line);
      std::vector<std::string> tok;
      for (std::string t; in >> t;) tok.push_back(t);
      std::ostringstream cpu;
      cpu.precision(17);
      cpu << std::stod(tok.at(5)) * 1.5;
      tok.at(5) = cpu.str();
      line.clear();
      for (const std::string& t : tok) line += (line.empty() ? "" : " ") + t;
      done = true;
    }
    changed += line + "\n";
  }
  std::uint32_t table[256];
  std::uint8_t top_to_index[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
    top_to_index[c >> 24] = static_cast<std::uint8_t>(i);
  }
  // The register after the forged bytes must equal the register after
  // `text`. Each step's table index follows from the top byte of the
  // register it produced, working backwards from the target.
  const std::uint32_t target = ~robust::crc32(text.data(), text.size());
  int index[4];
  std::uint32_t x = target;
  for (int k = 3; k >= 0; --k) {
    index[k] = top_to_index[x >> 24];
    x = (x ^ table[index[k]]) << 8;
  }
  for (int n = 0;; ++n) {
    std::string forged = changed + "# forged " + std::to_string(n) + " ";
    std::uint32_t reg = ~robust::crc32(forged.data(), forged.size());
    std::string tail;
    for (int k = 0; k < 4; ++k) {
      tail += static_cast<char>((reg ^ static_cast<std::uint32_t>(index[k])) &
                                0xFFu);
      reg = table[index[k]] ^ (reg >> 8);
    }
    if (tail.find('\n') == std::string::npos) return forged + tail;
  }
}

}  // namespace powerlim
