// Cuts serialized RunReports into their `result` and `telemetry`
// objects, so a test compares what each cap proved with one plain
// string compare. Which field is which is decided by RunReport::to_json
// alone.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

namespace powerlim {

namespace report_parts_detail {

/// The `result` (or `telemetry`) object of every report in `text`, one
/// per line. A report is `{"schema_version":N,"result":{...},
/// "telemetry":{...}}` on one line, and report files hold one report
/// per line; lines without a report (a report array's brackets) are
/// skipped. Neither marker can occur inside a string value, because
/// JSON escapes the quotes there.
inline std::string cut(const std::string& text, bool telemetry) {
  static const std::string kResult = "\"result\":";
  static const std::string kTelemetry = ",\"telemetry\":";
  std::string out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.find("\"schema_version\":") == std::string::npos) continue;
    const std::size_t r = line.find(kResult);
    const std::size_t t = line.find(kTelemetry);
    const std::size_t close = line.rfind('}');  // closes the report
    if (r == std::string::npos || t == std::string::npos || t < r) {
      ADD_FAILURE() << "not a result/telemetry report: " << line;
      continue;
    }
    const std::size_t from = telemetry ? t + kTelemetry.size()
                                       : r + kResult.size();
    out += line.substr(from, (telemetry ? close : t) - from);
    out += '\n';
  }
  return out;
}

}  // namespace report_parts_detail

/// The `result` object of every report in `text`, one per line.
inline std::string report_results(const std::string& text) {
  return report_parts_detail::cut(text, /*telemetry=*/false);
}

/// The `telemetry` object of every report in `text`, one per line.
inline std::string report_telemetry(const std::string& text) {
  return report_parts_detail::cut(text, /*telemetry=*/true);
}

}  // namespace powerlim
