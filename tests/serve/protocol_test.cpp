// Unit tests for the powerlimd wire protocol (serve/protocol.h):
// payload round-trips for every frame kind, hello version-skew
// rejection, and garbage rejection on every decoder.
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "robust/journal.h"
#include "robust/solve_driver.h"
#include "robust/status.h"

namespace powerlim::serve {
namespace {

TEST(ServeProtocol, HelloRoundTrip) {
  const std::string hello = encode_hello();
  EXPECT_EQ(hello.rfind(kServeProtoMagic, 0), 0u);
  std::string error;
  EXPECT_TRUE(decode_hello(hello, &error)) << error;
  EXPECT_TRUE(error.empty());
}

TEST(ServeProtocol, HelloRejectsVersionSkew) {
  std::string error;
  // Wrong magic.
  EXPECT_FALSE(decode_hello("powerlimd v2\nschema=6 proto=1", &error));
  EXPECT_FALSE(error.empty());
  // Schema skew names both sides so the operator can see who is stale.
  error.clear();
  std::string skewed = std::string(kServeProtoMagic) + "\nschema=" +
                       std::to_string(robust::kRunReportSchemaVersion + 1) +
                       " proto=" + std::to_string(kServeProtoVersion);
  EXPECT_FALSE(decode_hello(skewed, &error));
  EXPECT_NE(error.find("version skew"), std::string::npos) << error;
  // Proto skew.
  error.clear();
  skewed = std::string(kServeProtoMagic) + "\nschema=" +
           std::to_string(robust::kRunReportSchemaVersion) + " proto=" +
           std::to_string(kServeProtoVersion + 1);
  EXPECT_FALSE(decode_hello(skewed, &error));
  EXPECT_NE(error.find("version skew"), std::string::npos) << error;
}

TEST(ServeProtocol, HelloRejectsGarbage) {
  std::string error;
  for (const char* bad :
       {"", "\n", "powerlimd", "powerlimd v1", "powerlimd v1\n",
        "powerlimd v1\nschema=x proto=y", "\x01\x02\xff garbage"}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(decode_hello(bad, &error));
  }
}

TEST(ServeProtocol, RequestRoundTrip) {
  ServeRequest req;
  req.id = "req-1";
  req.kind = "sweep";
  req.deadline_ms = 1500.5;
  req.caps = {120.0, 160.0, 200.0};
  req.trace_text = "powerlim-trace v1\nranks 2\n";
  const std::string payload = encode_request(req);
  ASSERT_FALSE(payload.empty());

  ServeRequest back;
  std::string error;
  ASSERT_TRUE(decode_request(payload, &back, &error)) << error;
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.kind, req.kind);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.caps, req.caps);
  EXPECT_EQ(back.trace_text, req.trace_text);
}

TEST(ServeProtocol, RequestHeaderIsExactJournalIntent) {
  // The 'U' header line must be byte-for-byte a journal Q payload, so
  // the daemon can journal admission intent as it arrived.
  ServeRequest req;
  req.id = "r";
  req.kind = "bound";
  req.caps = {240.0};
  req.trace_text = "trace\n";
  const std::string payload = encode_request(req);
  ASSERT_FALSE(payload.empty());
  const std::string header = payload.substr(0, payload.find('\n'));

  robust::JournalRequest jr;
  jr.id = req.id;
  jr.kind = req.kind;
  jr.deadline_ms = req.deadline_ms;
  jr.caps = req.caps;
  EXPECT_EQ(header, robust::serialize_journal_request(jr));
}

TEST(ServeProtocol, RequestRejectsMalformedShapes) {
  ServeRequest req;
  req.id = "ok";
  req.kind = "sweep";
  req.caps = {100.0};
  req.trace_text = "t\n";
  EXPECT_FALSE(encode_request(req).empty());

  ServeRequest bad = req;
  bad.kind = "replan";  // unknown kind
  EXPECT_TRUE(encode_request(bad).empty());
  bad = req;
  bad.kind = "bound";
  bad.caps = {100.0, 200.0};  // bound wants exactly one cap
  EXPECT_TRUE(encode_request(bad).empty());
  bad = req;
  bad.caps.clear();
  EXPECT_TRUE(encode_request(bad).empty());
  bad = req;
  bad.id = "two tokens";  // whitespace breaks token framing
  EXPECT_TRUE(encode_request(bad).empty());
  bad = req;
  bad.trace_text.clear();
  EXPECT_TRUE(encode_request(bad).empty());

  ServeRequest out;
  std::string error;
  for (const char* garbage :
       {"", "\n", "not a journal line\ntrace", "Q\ntrace",
        "\xde\xad\xbe\xef"}) {
    SCOPED_TRACE(garbage);
    EXPECT_FALSE(decode_request(garbage, &out, &error));
  }
}

TEST(ServeProtocol, SolveRequestRoundTripsCapAndAttempt) {
  ServeRequest req;
  req.id = "t3a2";
  req.kind = "solve";
  req.deadline_ms = 60'000.0;
  req.caps = {100.0 / 3.0};  // %.17g: the daemon solves the identical cap
  req.attempt = 2;
  req.trace_text = "powerlim-trace v1\nranks 2\n";
  const std::string payload = encode_request(req);
  ASSERT_FALSE(payload.empty());
  // The header is the journal-request line plus the attempt.
  robust::JournalRequest jr;
  jr.id = req.id;
  jr.kind = req.kind;
  jr.deadline_ms = req.deadline_ms;
  jr.caps = req.caps;
  EXPECT_EQ(payload.substr(0, payload.find('\n')),
            robust::serialize_journal_request(jr) + " attempt=2");

  ServeRequest back;
  std::string error;
  ASSERT_TRUE(decode_request(payload, &back, &error)) << error;
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.kind, "solve");
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.caps, req.caps);  // exact, not near
  EXPECT_EQ(back.attempt, 2);
  EXPECT_EQ(back.trace_text, req.trace_text);
}

TEST(ServeProtocol, SolveRequestRejectsMalformedShapes) {
  ServeRequest req;
  req.id = "s";
  req.kind = "solve";
  req.caps = {100.0};
  req.trace_text = "t\n";
  EXPECT_FALSE(encode_request(req).empty());
  ServeRequest bad = req;
  bad.caps = {100.0, 200.0};  // one cap per solve
  EXPECT_TRUE(encode_request(bad).empty());
  bad = req;
  bad.attempt = -1;
  EXPECT_TRUE(encode_request(bad).empty());

  ServeRequest out;
  std::string error;
  const std::string line = "req=s kind=solve deadline_ms=0 caps=100";
  const std::string sweep_line = "req=s kind=sweep deadline_ms=0 caps=100";
  for (const std::string& garbage :
       {line + "\nt\n",                     // solve without its attempt
        sweep_line + " attempt=0\nt\n",     // attempt on a sweep
        line + " attempt=x\nt\n", line + " attempt=-1\nt\n",
        line + " attempt=\nt\n",
        std::string("req=s kind=solve deadline_ms=0 caps=100,200 "
                    "attempt=0\nt\n")}) {
    SCOPED_TRACE(garbage);
    EXPECT_FALSE(decode_request(garbage, &out, &error));
  }
  ASSERT_TRUE(decode_request(line + " attempt=0\nt\n", &out, &error))
      << error;
  EXPECT_EQ(out.attempt, 0);
}

TEST(ServeProtocol, HeartbeatAndArtifactRoundTrip) {
  std::string id;
  ASSERT_TRUE(decode_heartbeat(encode_heartbeat("t0a0"), &id));
  EXPECT_EQ(id, "t0a0");
  EXPECT_TRUE(encode_heartbeat("two tokens").empty());
  EXPECT_FALSE(decode_heartbeat("", &id));
  EXPECT_FALSE(decode_heartbeat("id=a b", &id));

  const std::string schedule = "schedule v1\nedges 3\n";
  std::string text;
  ASSERT_TRUE(
      decode_artifact(encode_artifact("t0a0", schedule), &id, &text));
  EXPECT_EQ(id, "t0a0");
  EXPECT_EQ(text, schedule);
  EXPECT_TRUE(encode_artifact("t0a0", "").empty());  // no proof, no frame
  EXPECT_FALSE(decode_artifact("id=t0a0", &id, &text));
  EXPECT_FALSE(decode_artifact("garbage\nschedule", &id, &text));
}

TEST(ServeProtocol, RowRoundTrip) {
  ServeRow row;
  row.id = "req-2";
  row.entry.job_cap_watts = 320.0;
  row.entry.verdict = robust::StatusCode::kOk;
  row.entry.degraded = false;
  row.entry.bound_seconds = 3.25;
  row.entry.report_json = "{\"schema_version\":6}";
  const std::string payload = encode_row(row);
  ASSERT_FALSE(payload.empty());

  ServeRow back;
  ASSERT_TRUE(decode_row(payload, &back));
  EXPECT_EQ(back.id, row.id);
  EXPECT_EQ(back.entry.job_cap_watts, row.entry.job_cap_watts);
  EXPECT_EQ(back.entry.verdict, row.entry.verdict);
  EXPECT_EQ(back.entry.bound_seconds, row.entry.bound_seconds);
  EXPECT_EQ(back.entry.report_json, row.entry.report_json);

  // The body after "id=<id>\n" is exactly a journal R payload.
  const std::string body = payload.substr(payload.find('\n') + 1);
  EXPECT_EQ(body, robust::serialize_journal_entry(row.entry));

  ServeRow out;
  for (const char* garbage : {"", "id=\n", "nonsense", "id=x\nnot-a-row"}) {
    SCOPED_TRACE(garbage);
    EXPECT_FALSE(decode_row(garbage, &out));
  }
}

TEST(ServeProtocol, OverloadedRoundTrip) {
  ServeOverloaded o;
  o.id = "req-3";
  o.reason = "queue-full";
  o.detail = "queue at capacity (16/16), 1 active";
  ServeOverloaded back;
  ASSERT_TRUE(decode_overloaded(encode_overloaded(o), &back));
  EXPECT_EQ(back.id, o.id);
  EXPECT_EQ(back.reason, o.reason);
  EXPECT_EQ(back.detail, o.detail);

  ServeOverloaded out;
  for (const char* garbage : {"", "id=x", "reason=y\n"}) {
    SCOPED_TRACE(garbage);
    EXPECT_FALSE(decode_overloaded(garbage, &out));
  }
}

TEST(ServeProtocol, DoneRoundTrip) {
  ServeDone d;
  d.id = "req-4";
  d.status = "deadline-exceeded";
  d.rows = 7;
  d.resumed = 3;
  d.shed_total = 11;
  d.queue_depth = 2;
  d.queue_wait_ms = 12.125;
  d.solve_ms = 843.0625;
  d.total_ms = 855.1875;
  d.detail = "2 cap(s) unfinished";
  ServeDone back;
  ASSERT_TRUE(decode_done(encode_done(d), &back));
  EXPECT_EQ(back.id, d.id);
  EXPECT_EQ(back.status, d.status);
  EXPECT_EQ(back.rows, d.rows);
  EXPECT_EQ(back.resumed, d.resumed);
  EXPECT_EQ(back.shed_total, d.shed_total);
  EXPECT_EQ(back.queue_depth, d.queue_depth);
  EXPECT_EQ(back.queue_wait_ms, d.queue_wait_ms);
  EXPECT_EQ(back.solve_ms, d.solve_ms);
  EXPECT_EQ(back.total_ms, d.total_ms);
  EXPECT_EQ(back.detail, d.detail);

  ServeDone out;
  for (const char* garbage : {"", "id=x", "id=x status=ok rows=zero\n"}) {
    SCOPED_TRACE(garbage);
    EXPECT_FALSE(decode_done(garbage, &out));
  }
}

TEST(ServeProtocol, ErrorRoundTrip) {
  std::string id, detail;
  ASSERT_TRUE(decode_error(encode_error("req-5", "trace parse failed"),
                           &id, &detail));
  EXPECT_EQ(id, "req-5");
  EXPECT_EQ(detail, "trace parse failed");
  EXPECT_FALSE(decode_error("", &id, &detail));
  EXPECT_FALSE(decode_error("nonsense", &id, &detail));
}

}  // namespace
}  // namespace powerlim::serve
