// Golden-file lock on the RunReport JSON shape. The serialized report is
// a cross-run artifact: journals replay it byte-for-byte on resume and
// external tooling parses it. Any shape change must land here *and* bump
// kRunReportSchemaVersion - this test failing without a version bump is
// the alarm it exists to raise.
#include "robust/solve_driver.h"

#include <gtest/gtest.h>

#include <string>

#include "apps/benchmarks.h"
#include "machine/power_model.h"
#include "robust/fault_injection.h"

namespace powerlim::robust {
namespace {

RunReport golden_report() {
  RunReport rep;
  rep.job_cap_watts = 120.0;
  rep.socket_cap_watts = 60.0;
  rep.verdict = StatusCode::kOk;
  rep.detail = "he said \"go\"\n";
  rep.degraded = false;
  rep.fallback = "";
  rep.bound_seconds = 12.5;
  rep.energy_joules = 345.25;
  rep.min_feasible_power_watts = 80.0;
  rep.wall_ms = 3.5;
  rep.fault_active = true;
  rep.fault_seed = 42;
  rep.ladder.cap_deadline_ms = 250.0;
  rep.ladder.cancellable = true;
  rep.worker.isolated = true;
  rep.worker.spawns = 2;
  rep.worker.retries = 1;
  rep.worker.peak_rss_kb = 4096;
  rep.transport.remote = true;
  rep.transport.endpoint = "10.0.0.7:9200";
  rep.transport.retries = 1;
  rep.transport.backoff_ms = 25.5;
  rep.transport.heartbeat_misses = 3;

  SolveAttempt a;
  a.rung = "dantzig";
  a.outcome = StatusCode::kSolverNumerical;
  a.injected = true;
  a.detail = "injected";
  a.iterations = 17;
  a.degenerate_pivots = 2;
  a.refactor_count = 1;
  a.bland_engaged = true;
  a.primal_infeasibility = 0.001;
  a.eta_nonzeros = 64;
  a.lu_fill_ratio = 1.75;
  a.failed_window = 3;
  rep.attempts.push_back(a);

  rep.replay.checked = true;
  rep.replay.check.ok = true;
  rep.replay.check.cap_watts = 120.0;
  rep.replay.check.peak_power = 130.5;
  rep.replay.check.max_windowed_power = 118.25;
  rep.replay.check.violation_watts = 0.0;
  rep.replay.check.violation_seconds = 0.0;

  rep.certificate.checked = true;
  rep.certificate.ok = true;
  rep.certificate.duality_checked = true;
  rep.certificate.max_violation = 0.0;
  rep.certificate.duality_gap = 0.0005;
  rep.certificate.detail = "";
  rep.lint.checked = true;
  rep.lint.errors = 0;
  rep.lint.warnings = 2;
  return rep;
}

// The golden string. Field order, spelling, and nesting are all
// contractual; values are chosen to be exact in decimal.
const char* const kGolden =
    "{\"schema_version\":12,"
    "\"result\":{"
    "\"job_cap_watts\":120,"
    "\"socket_cap_watts\":60,"
    "\"verdict\":\"ok\","
    "\"detail\":\"he said \\\"go\\\"\\n\","
    "\"degraded\":false,"
    "\"fallback\":\"\","
    "\"bound_seconds\":12.5,"
    "\"energy_joules\":345.25,"
    "\"min_feasible_power_watts\":80,"
    "\"fault\":{\"active\":true,\"seed\":42},"
    "\"ladder\":{\"cap_deadline_ms\":250,\"cancellable\":true},"
    "\"attempts\":[{\"rung\":\"dantzig\",\"outcome\":\"solver-numerical\","
    "\"injected\":true,\"bland_engaged\":true,\"failed_window\":3,"
    "\"detail\":\"injected\"}],"
    "\"replay\":{\"checked\":true,\"ok\":true,\"cap_watts\":120,"
    "\"peak_power_watts\":130.5,\"max_windowed_power_watts\":118.25,"
    "\"violation_seconds\":0},"
    "\"certificate\":{\"checked\":true,\"ok\":true,"
    "\"duality_checked\":true,\"max_violation\":0,\"detail\":\"\"},"
    "\"lint\":{\"checked\":true,\"errors\":0,\"warnings\":2}},"
    "\"telemetry\":{"
    "\"wall_ms\":3.5,"
    "\"worker\":{\"isolated\":true,\"spawns\":2,\"retries\":1,"
    "\"peak_rss_kb\":4096},"
    "\"transport\":{\"remote\":true,\"endpoint\":\"10.0.0.7:9200\","
    "\"retries\":1,\"backoff_ms\":25.5,\"heartbeat_misses\":3},"
    "\"attempts\":[{\"iterations\":17,\"degenerate_pivots\":2,"
    "\"refactor_count\":1,\"primal_infeasibility\":0.001,"
    "\"eta_nonzeros\":64,\"lu_fill_ratio\":1.75}],"
    "\"replay\":{\"violation_watts\":0},"
    "\"certificate\":{\"duality_gap\":0.0005}}}";

TEST(ReportSchema, GoldenShapeIsStable) {
  EXPECT_EQ(golden_report().to_json(), kGolden);
}

TEST(ReportSchema, VersionIsTwelve) {
  EXPECT_EQ(kRunReportSchemaVersion, 12);
  EXPECT_EQ(RunReport{}.schema_version, 12);
  // Every serialized report leads with the version so consumers can
  // dispatch before parsing the rest.
  EXPECT_EQ(RunReport{}.to_json().rfind("{\"schema_version\":12,", 0), 0u);
}

TEST(ReportSchema, InProcessSolveZeroesWorkerTelemetry) {
  // The serial path must keep emitting an all-zero worker block: the
  // block is telemetry, present whichever path solved the cap.
  RunReport rep;
  EXPECT_NE(rep.to_json().find("\"worker\":{\"isolated\":false,"
                               "\"spawns\":0,\"retries\":0,"
                               "\"peak_rss_kb\":0}"),
            std::string::npos);
  // Likewise the transport block: all-zero/local unless a distributed
  // sweep splices real telemetry in.
  EXPECT_NE(rep.to_json().find("\"transport\":{\"remote\":false,"
                               "\"endpoint\":\"\",\"retries\":0,"
                               "\"backoff_ms\":0,\"heartbeat_misses\":0}"),
            std::string::npos);
}

TEST(ReportSchema, PatchTransportSplicesWithoutReserialization) {
  // The distributed coordinator receives an already-serialized report
  // from the remote child and must stamp scheduler-side transport
  // telemetry into it without reparsing (reserialization could perturb
  // float formatting and break resume byte-identity).
  const std::string json = golden_report().to_json();
  TransportTelemetry t;
  t.remote = true;
  t.endpoint = "192.168.1.9:7777";
  t.retries = 2;
  t.backoff_ms = 137.25;
  t.heartbeat_misses = 1;
  const std::string patched = patch_transport_json(json, t);
  EXPECT_NE(patched.find("\"transport\":{\"remote\":true,"
                         "\"endpoint\":\"192.168.1.9:7777\",\"retries\":2,"
                         "\"backoff_ms\":137.25,\"heartbeat_misses\":1}"),
            std::string::npos);
  // Only the transport block changed: it sits between the worker block
  // and telemetry's attempts.
  EXPECT_EQ(patched.substr(patched.rfind("\"attempts\":")),
            json.substr(json.rfind("\"attempts\":")));
  EXPECT_EQ(patched.substr(0, patched.find("\"transport\":")),
            json.substr(0, json.find("\"transport\":")));
  // Pre-schema-5 records (no transport block) pass through untouched.
  EXPECT_EQ(patch_transport_json("{\"schema_version\":4}", t),
            "{\"schema_version\":4}");
}

TEST(ReportSchema, UncheckedReplaySerializesClosed) {
  RunReport rep;
  const std::string json = rep.to_json();
  EXPECT_NE(json.find("\"replay\":{\"checked\":false}"), std::string::npos);
  EXPECT_NE(json.find("\"certificate\":{\"checked\":false}"),
            std::string::npos);
  EXPECT_NE(json.find("\"lint\":{\"checked\":false,\"errors\":0,"
                      "\"warnings\":0}"),
            std::string::npos);
}

TEST(ReportSchema, RealSolveEchoesFaultAndLadderOptions) {
  // Satellite contract: a driver-produced report carries the resolved
  // ladder options and the FaultPlan seed, so the run is reproducible
  // from the artifact alone.
  const machine::PowerModel model{machine::SocketSpec{}};
  const machine::ClusterSpec cluster;
  const dag::TaskGraph g =
      apps::make_comd({.ranks = 2, .iterations = 3, .seed = 17});

  SolveDriverOptions opt;
  opt.cap_deadline_ms = 30'000.0;
  util::CancelToken token;
  opt.cancel = &token;
  FaultPlan plan;
  plan.seed = 99;
  plan.fail_attempts = 1;  // first rung injected, second succeeds
  ScopedFaultPlan scoped(plan);

  const SolveOutcome res =
      SolveDriver(g, model, cluster, opt).solve(2 * 60.0);
  EXPECT_TRUE(res.report.fault_active);
  EXPECT_EQ(res.report.fault_seed, 99u);
  EXPECT_EQ(res.report.ladder.cap_deadline_ms, 30'000.0);
  EXPECT_TRUE(res.report.ladder.cancellable);
  const std::string json = res.report.to_json();
  EXPECT_NE(json.find("\"fault\":{\"active\":true,\"seed\":99}"),
            std::string::npos);
  EXPECT_NE(json.find("\"cancellable\":true"), std::string::npos);
}

}  // namespace
}  // namespace powerlim::robust
