// Model linter (check/lint.h): every seeded-bad input class must be
// flagged, clean inputs must pass, and trace-file findings must carry
// file/line provenance from the source map.
#include "check/lint.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "apps/exchange.h"
#include "core/pareto.h"
#include "dag/trace_io.h"
#include "machine/power_model.h"
#include "scratch_dir.h"

namespace powerlim::check {
namespace {

using dag::TaskGraph;
using dag::VertexKind;

machine::TaskWork work(double cpu = 0.01, double mem = 0.002) {
  machine::TaskWork w;
  w.cpu_seconds = cpu;
  w.mem_seconds = mem;
  return w;
}

const machine::PowerModel& test_model() {
  static const machine::PowerModel m{machine::SocketSpec{}};
  return m;
}

bool has_rule(const LintReport& r, const std::string& rule) {
  for (const LintFinding& f : r.findings) {
    if (f.rule == rule) return true;
  }
  return false;
}

/// Minimal well-formed 2-rank graph: Init -> task -> Send -> message ->
/// Recv -> task -> Finalize plus a direct chain on rank 0.
TaskGraph good_graph() {
  TaskGraph g(2);
  const int init = g.add_vertex(VertexKind::kInit, -1);
  const int send = g.add_vertex(VertexKind::kSend, 0);
  const int recv = g.add_vertex(VertexKind::kRecv, 1);
  const int fin = g.add_vertex(VertexKind::kFinalize, -1);
  g.add_task(init, send, 0, work());
  g.add_task(send, fin, 0, work());
  g.add_task(init, recv, 1, work());
  g.add_task(recv, fin, 1, work());
  g.add_message(send, recv, 4096.0);
  return g;
}

TEST(LintTrace, CleanGraphPasses) {
  const LintReport r = lint_trace(good_graph());
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(LintTrace, GeneratedAppPasses) {
  const TaskGraph g = apps::two_rank_exchange();
  const LintReport r = lint_trace(g);
  EXPECT_TRUE(r.ok()) << r.to_string();
  const LintReport c = lint_configs(g, test_model());
  EXPECT_TRUE(c.ok()) << c.to_string();
}

TEST(LintTrace, DetectsCycle) {
  TaskGraph g(1);
  const int init = g.add_vertex(VertexKind::kInit, -1);
  const int a = g.add_vertex(VertexKind::kGeneric, 0);
  const int b = g.add_vertex(VertexKind::kGeneric, 0);
  const int fin = g.add_vertex(VertexKind::kFinalize, -1);
  g.add_task(init, a, 0, work());
  g.add_task(a, b, 0, work());
  g.add_task(b, a, 0, work());  // back edge: cycle a <-> b
  g.add_task(b, fin, 0, work());
  const LintReport r = lint_trace(g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "dag-acyclic")) << r.to_string();
}

TEST(LintTrace, DetectsUnreachableFinalize) {
  TaskGraph g(1);
  const int init = g.add_vertex(VertexKind::kInit, -1);
  const int a = g.add_vertex(VertexKind::kGeneric, 0);
  g.add_vertex(VertexKind::kFinalize, -1);  // no edge reaches it
  g.add_task(init, a, 0, work());
  const LintReport r = lint_trace(g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "dag-finalize-reach")) << r.to_string();
}

TEST(LintTrace, DetectsUnmatchedMessageEndpoints) {
  TaskGraph g(2);
  const int init = g.add_vertex(VertexKind::kInit, -1);
  const int send = g.add_vertex(VertexKind::kSend, 0);
  const int notrecv = g.add_vertex(VertexKind::kGeneric, 1);
  const int fin = g.add_vertex(VertexKind::kFinalize, -1);
  g.add_task(init, send, 0, work());
  g.add_task(send, fin, 0, work());
  g.add_task(init, notrecv, 1, work());
  g.add_task(notrecv, fin, 1, work());
  g.add_message(send, notrecv, 128.0);  // dst is not a Recv vertex
  const LintReport r = lint_trace(g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "msg-endpoints")) << r.to_string();
}

TEST(LintTrace, DetectsZeroWorkAndBadFractions) {
  TaskGraph g(1);
  const int init = g.add_vertex(VertexKind::kInit, -1);
  const int a = g.add_vertex(VertexKind::kGeneric, 0);
  const int fin = g.add_vertex(VertexKind::kFinalize, -1);
  g.add_task(init, a, 0, work(0.0, 0.0));  // zero total work
  machine::TaskWork bad = work();
  bad.parallel_fraction = 1.5;  // outside [0, 1]
  g.add_task(a, fin, 0, bad);
  const LintReport r = lint_trace(g);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "task-work")) << r.to_string();
  EXPECT_GE(r.errors(), 2);
}

TEST(LintFrontier, FlagsDominatedAndNonConvexPoints) {
  // A genuine convex frontier passes.
  std::vector<machine::Config> f = test_model().enumerate(work(), 0);
  const std::vector<machine::Config> convex = core::convex_frontier(f);
  EXPECT_TRUE(lint_frontier(0, convex).ok());

  // Tampering with one duration breaks dominance/convexity.
  std::vector<machine::Config> bad = convex;
  ASSERT_GE(bad.size(), 3u);
  bad[1].duration = bad[0].duration + 10.0;  // slower AND hungrier
  const LintReport r = lint_frontier(0, bad);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "frontier-dominance") ||
              has_rule(r, "frontier-convex"))
      << r.to_string();

  EXPECT_FALSE(lint_frontier(0, {}).ok());  // empty frontier
}

TEST(LintMachine, FlagsBrokenDvfsGrid) {
  machine::ClusterSpec cluster;
  EXPECT_TRUE(lint_machine(cluster).ok());

  machine::ClusterSpec bad = cluster;
  bad.socket.fmin_ghz = bad.socket.fmax_ghz + 1.0;  // fmin > fmax
  const LintReport r = lint_machine(bad);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "dvfs-grid")) << r.to_string();

  machine::ClusterSpec neg = cluster;
  neg.net_bandwidth_bps = -1.0;
  EXPECT_TRUE(has_rule(lint_machine(neg), "machine-net"));
}

TEST(LintModel, CleanWindowModelPasses) {
  const TaskGraph g = good_graph();
  core::LpFormulation form(g, test_model(), machine::ClusterSpec{});
  core::LpScheduleOptions opt;
  opt.power_cap = std::max(1.0, form.min_feasible_power());
  const core::BuiltModel built = form.build_model(opt);
  const LintReport r = lint_model(built, form.events());
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(LintModel, DetectsUncoveredEventAndFreeColumn) {
  const TaskGraph g = good_graph();
  core::LpFormulation form(g, test_model(), machine::ClusterSpec{});
  core::LpScheduleOptions opt;
  opt.power_cap = std::max(1.0, form.min_feasible_power());
  core::BuiltModel built = form.build_model(opt);

  // Un-cap one active event group: its cap row becomes a free row.
  ASSERT_FALSE(built.power_row_of_group.empty());
  int capped = -1;
  for (std::size_t gi = 0; gi < built.power_row_of_group.size(); ++gi) {
    if (built.power_row_of_group[gi] >= 0) {
      capped = static_cast<int>(gi);
      break;
    }
  }
  ASSERT_GE(capped, 0);
  built.power_row_of_group[capped] = -1;  // active group, no cap row
  const LintReport r = lint_model(built, form.events());
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "lp-cap-coverage")) << r.to_string();

  // A variable no row mentions is dead weight in the model.
  core::BuiltModel extra = form.build_model(opt);
  extra.model.add_variable(0.0, 0.0, 1.0);
  const LintReport r2 = lint_model(extra, form.events());
  EXPECT_FALSE(r2.ok());
  EXPECT_TRUE(has_rule(r2, "lp-free-column")) << r2.to_string();
}

class LintFileTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(scratch_.ok()); }

  void write_file(const std::string& text) {
    path_ = scratch_.path("fixture.trace");
    std::ofstream f(path_);
    f << text;
  }

  ScratchDir scratch_{"lint"};
  std::string path_;
};

TEST_F(LintFileTest, CleanFilePasses) {
  const TaskGraph g = apps::two_rank_exchange();
  std::ostringstream os;
  dag::write_trace(os, g);
  write_file(os.str());
  const LintReport r =
      lint_trace_file(path_, test_model(), machine::ClusterSpec{});
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST_F(LintFileTest, CyclicTraceReportsFileAndLine) {
  write_file(
      "powerlim-trace 1\n"
      "ranks 1\n"
      "vertex 0 init -1\n"
      "vertex 1 generic 0\n"
      "vertex 2 generic 0\n"
      "vertex 3 finalize -1\n"
      "task 0 1 0 0 0.01 0.001 0.5 1 0 4\n"
      "task 1 2 0 0 0.01 0.001 0.5 1 0 4\n"
      "task 2 1 0 0 0.01 0.001 0.5 1 0 4\n"
      "task 2 3 0 0 0.01 0.001 0.5 1 0 4\n");
  const LintReport r =
      lint_trace_file(path_, test_model(), machine::ClusterSpec{});
  EXPECT_FALSE(r.ok());
  ASSERT_TRUE(has_rule(r, "dag-acyclic")) << r.to_string();
  bool located = false;
  for (const LintFinding& f : r.findings) {
    if (f.rule != "dag-acyclic") continue;
    EXPECT_EQ(f.file, path_);
    // The back edge is the 9th line of the file.
    if (f.line == 9) located = true;
  }
  EXPECT_TRUE(located) << r.to_string();
}

TEST_F(LintFileTest, ZeroWorkTraceReportsTaskLine) {
  write_file(
      "powerlim-trace 1\n"
      "ranks 1\n"
      "vertex 0 init -1\n"
      "vertex 1 finalize -1\n"
      "task 0 1 0 0 0 0 0.5 1 0 4\n");
  const LintReport r =
      lint_trace_file(path_, test_model(), machine::ClusterSpec{});
  EXPECT_FALSE(r.ok());
  ASSERT_TRUE(has_rule(r, "task-work")) << r.to_string();
  for (const LintFinding& f : r.findings) {
    if (f.rule == "task-work") {
      EXPECT_EQ(f.line, 5);
    }
  }
}

TEST_F(LintFileTest, ParseErrorBecomesFindingNotException) {
  write_file("powerlim-trace 1\nranks 1\nvertex 0 init -1\nbogus line\n");
  const LintReport r =
      lint_trace_file(path_, test_model(), machine::ClusterSpec{});
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_rule(r, "parse")) << r.to_string();
}

TEST(SourceMap, MapsVerticesAndEdgesToLines) {
  const std::string text =
      "powerlim-trace 1\n"
      "ranks 1\n"
      "vertex 0 init -1\n"
      "vertex 1 finalize -1\n"
      "task 0 1 0 0 0.01 0.001 0.5 1 0 4\n";
  std::istringstream is(text);
  const TraceSourceMap map = build_trace_source_map(is, "t.trace");
  EXPECT_EQ(map.line_of_vertex(0), 3);
  EXPECT_EQ(map.line_of_vertex(1), 4);
  EXPECT_EQ(map.line_of_edge(0), 5);
  EXPECT_EQ(map.line_of_vertex(99), 0);  // out of range -> unknown
}

TEST(LintReportFormat, FindingToStringCarriesProvenance) {
  LintFinding f;
  f.rule = "dag-acyclic";
  f.severity = LintSeverity::kError;
  f.message = "cycle";
  f.file = "x.trace";
  f.line = 7;
  EXPECT_EQ(f.to_string(), "x.trace:7: error: [dag-acyclic] cycle");
}

}  // namespace
}  // namespace powerlim::check
