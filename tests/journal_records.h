// Journal record fixtures: reports the journal's trust rule stands or
// skips, and in-place edits of a journal file that re-frame each edited
// record with its length and CRC-32 recomputed - the record an older
// build, or a tampering writer, could have left behind.
#pragma once

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "robust/journal.h"
#include "robust/solve_driver.h"

namespace powerlim {

/// A certificate verdict block as RunReport::to_json writes a passed one.
inline constexpr char kPassedCertificate[] =
    "\"certificate\":{\"checked\":true,\"ok\":true}";

/// A one-line report of `schema` whose `result` object holds `result`.
inline std::string report_json(
    const std::string& result,
    int schema = robust::kRunReportSchemaVersion) {
  return "{\"schema_version\":" + std::to_string(schema) + ",\"result\":{" +
         result + "},\"telemetry\":{}}";
}

/// Passes every `R` record of the journal at `path` through `edit`
/// (its index among the `R` records, its payload) and writes the file
/// back with each frame's length and CRC-32 recomputed. Other frames
/// are copied verbatim.
inline void edit_journal_records(
    const std::string& path,
    const std::function<std::string(int, const std::string&)>& edit) {
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    data = ss.str();
  }
  std::size_t pos = data.find('\n') + 1;
  std::string out = data.substr(0, pos);
  int index = 0;
  while (pos < data.size()) {
    const std::size_t eol = data.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "torn frame header in " << path;
    const std::string header = data.substr(pos, eol - pos);
    const std::size_t len = std::strtoul(
        header.c_str() + header.rfind(' ') + 1, nullptr, 10);
    std::string payload = data.substr(eol + 1, len);
    pos = eol + 1 + len + 1;
    if (header[0] != 'R') {
      out += header + "\n" + payload + "\n";
      continue;
    }
    payload = edit(index++, payload);
    char crc[16];
    std::snprintf(crc, sizeof crc, "%08x",
                  static_cast<unsigned>(
                      robust::crc32(payload.data(), payload.size())));
    out += std::string("R ") + crc + " " + std::to_string(payload.size()) +
           "\n" + payload + "\n";
  }
  std::ofstream(path, std::ios::binary | std::ios::trunc) << out;
}

/// `payload` (an `R` record) with its report's schema set to `schema`.
inline std::string with_schema(const std::string& payload, int schema) {
  const std::string from =
      "\"schema_version\":" + std::to_string(robust::kRunReportSchemaVersion);
  const std::size_t at = payload.find(from);
  EXPECT_NE(at, std::string::npos) << payload;
  if (at == std::string::npos) return payload;
  return payload.substr(0, at) + "\"schema_version\":" +
         std::to_string(schema) + payload.substr(at + from.size());
}

}  // namespace powerlim
