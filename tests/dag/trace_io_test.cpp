#include "dag/trace_io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "apps/benchmarks.h"
#include "apps/exchange.h"
#include "scratch_dir.h"

namespace powerlim::dag {
namespace {

void expect_graphs_equal(const TaskGraph& a, const TaskGraph& b) {
  ASSERT_EQ(a.num_ranks(), b.num_ranks());
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.vertex(v).kind, b.vertex(v).kind);
    EXPECT_EQ(a.vertex(v).rank, b.vertex(v).rank);
    EXPECT_EQ(a.vertex(v).label, b.vertex(v).label);
  }
  for (std::size_t e = 0; e < a.num_edges(); ++e) {
    const Edge& x = a.edge(static_cast<int>(e));
    const Edge& y = b.edge(static_cast<int>(e));
    EXPECT_EQ(x.src, y.src);
    EXPECT_EQ(x.dst, y.dst);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.rank, y.rank);
    EXPECT_EQ(x.iteration, y.iteration);
    if (x.is_task()) {
      EXPECT_DOUBLE_EQ(x.work.cpu_seconds, y.work.cpu_seconds);
      EXPECT_DOUBLE_EQ(x.work.mem_seconds, y.work.mem_seconds);
      EXPECT_DOUBLE_EQ(x.work.parallel_fraction, y.work.parallel_fraction);
      EXPECT_EQ(x.work.mem_parallel_threads, y.work.mem_parallel_threads);
      EXPECT_DOUBLE_EQ(x.work.cache_contention, y.work.cache_contention);
      EXPECT_EQ(x.work.cache_knee, y.work.cache_knee);
    } else {
      EXPECT_DOUBLE_EQ(x.bytes, y.bytes);
    }
  }
}

TaskGraph round_trip(const TaskGraph& g) {
  std::stringstream buf;
  write_trace(buf, g);
  return read_trace(buf);
}

TEST(TraceIo, RoundTripExchange) {
  const TaskGraph g = apps::two_rank_exchange();
  expect_graphs_equal(g, round_trip(g));
}

TEST(TraceIo, RoundTripAllGenerators) {
  expect_graphs_equal(apps::make_comd({.ranks = 4, .iterations = 3}),
                      round_trip(apps::make_comd({.ranks = 4, .iterations = 3})));
  expect_graphs_equal(
      apps::make_lulesh({.ranks = 4, .iterations = 2}),
      round_trip(apps::make_lulesh({.ranks = 4, .iterations = 2})));
  expect_graphs_equal(apps::make_sp({.ranks = 3, .iterations = 2}),
                      round_trip(apps::make_sp({.ranks = 3, .iterations = 2})));
  expect_graphs_equal(apps::make_bt({.ranks = 3, .iterations = 2}),
                      round_trip(apps::make_bt({.ranks = 3, .iterations = 2})));
}

TEST(TraceIo, PreservesExactDoubles) {
  TaskGraph g(1);
  const int init = g.add_vertex(VertexKind::kInit, -1);
  const int fin = g.add_vertex(VertexKind::kFinalize, -1);
  machine::TaskWork w;
  w.cpu_seconds = 0.1 + 1e-15;  // needs max precision to survive
  w.parallel_fraction = 1.0 / 3.0;
  g.add_task(init, fin, 0, w, 7);
  const TaskGraph back = round_trip(g);
  EXPECT_DOUBLE_EQ(back.edge(0).work.cpu_seconds, w.cpu_seconds);
  EXPECT_DOUBLE_EQ(back.edge(0).work.parallel_fraction,
                   w.parallel_fraction);
}

TEST(TraceIo, LabelsWithSpacesSurvive) {
  TaskGraph g(1);
  const int init = g.add_vertex(VertexKind::kInit, -1, "the init call");
  const int fin = g.add_vertex(VertexKind::kFinalize, -1);
  g.add_task(init, fin, 0, machine::TaskWork{.cpu_seconds = 1.0});
  const TaskGraph back = round_trip(g);
  EXPECT_EQ(back.vertex(0).label, "the init call");
}

TEST(TraceIo, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "powerlim-trace 1\n"
      "# a comment\n"
      "ranks 1\n"
      "\n"
      "vertex 0 init -1\n"
      "vertex 1 finalize -1\n"
      "# another\n"
      "task 0 1 0 0 1.0 0.0 0.9 4 0.0 8\n");
  const TaskGraph g = read_trace(in);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(TraceIo, RejectsBadHeader) {
  std::stringstream in("not-a-trace 1\nranks 1\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsWrongVersion) {
  std::stringstream in("powerlim-trace 2\nranks 1\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownDirective) {
  std::stringstream in(
      "powerlim-trace 1\nranks 1\nvertex 0 init -1\nfrob 1 2 3\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsNonDenseVertexIds) {
  std::stringstream in(
      "powerlim-trace 1\nranks 1\nvertex 5 init -1\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsMalformedTask) {
  std::stringstream in(
      "powerlim-trace 1\nranks 1\nvertex 0 init -1\nvertex 1 finalize -1\n"
      "task 0 1 0\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, RejectsStructurallyInvalidGraph) {
  // Parses fine but fails validate(): rank 0 has no tasks.
  std::stringstream in(
      "powerlim-trace 1\nranks 1\nvertex 0 init -1\nvertex 1 finalize -1\n");
  EXPECT_THROW(read_trace(in), std::runtime_error);
}

TEST(TraceIo, ErrorsCarryLineNumbers) {
  std::stringstream in(
      "powerlim-trace 1\nranks 1\nvertex 0 init -1\nbogus\n");
  try {
    read_trace(in);
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, ParseErrorNamesFileLineAndToken) {
  const ScratchDir scratch("trace_io");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("corrupt_trace.txt");
  {
    std::ofstream f(path);
    f << "powerlim-trace 1\n"
         "ranks 1\n"
         "vertex 0 init -1\n"
         "vertex 1 finalize -1\n"
         "task 0 1 0 0 oops 0.0 0.9 4 0.0 8\n";
  }
  try {
    load_trace(path);
    FAIL() << "expected TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.source(), path);
    EXPECT_EQ(e.line(), 5);
    EXPECT_EQ(e.token(), "oops");
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("line 5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'oops'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cpu_s"), std::string::npos) << msg;
  }
}

TEST(TraceIo, ShortTaskLineReportsFieldCount) {
  std::stringstream in(
      "powerlim-trace 1\nranks 1\nvertex 0 init -1\nvertex 1 finalize -1\n"
      "task 0 1 0\n");
  try {
    read_trace(in, "short.trace");
    FAIL() << "expected TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.source(), "short.trace");
    EXPECT_EQ(e.line(), 5);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("expected 10 fields, got 3"), std::string::npos)
        << msg;
  }
}

TEST(TraceIo, TruncatedTraceIsRejectedWithLine) {
  // Serialize a real trace, then cut the final line mid-token - the
  // interrupted-copy corruption.
  std::ostringstream buf;
  write_trace(buf, apps::two_rank_exchange());
  std::string text = buf.str();
  text.resize(text.size() - text.size() / 4);
  std::stringstream in(text);
  try {
    read_trace(in, "truncated.trace");
    FAIL() << "expected TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.source(), "truncated.trace");
    EXPECT_GT(e.line(), 1);
  }
}

TEST(TraceIo, NonNumericRanksNamesToken) {
  std::stringstream in("powerlim-trace 1\nranks many\n");
  try {
    read_trace(in);
    FAIL() << "expected TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.token(), "many");
  }
}

TEST(TraceIo, ValidationFailureIsTypedToo) {
  // Parses fine, fails graph.validate(): the error must still be a
  // TraceParseError carrying the source name.
  std::stringstream in(
      "powerlim-trace 1\nranks 1\nvertex 0 init -1\nvertex 1 finalize -1\n");
  try {
    read_trace(in, "invalid.trace");
    FAIL() << "expected TraceParseError";
  } catch (const TraceParseError& e) {
    EXPECT_EQ(e.source(), "invalid.trace");
    EXPECT_NE(std::string(e.what()).find("invalid graph"),
              std::string::npos);
  }
}

TEST(TraceIo, VertexKindRoundTrip) {
  for (VertexKind k :
       {VertexKind::kInit, VertexKind::kFinalize, VertexKind::kCollective,
        VertexKind::kSend, VertexKind::kRecv, VertexKind::kWait,
        VertexKind::kPcontrol, VertexKind::kGeneric}) {
    EXPECT_EQ(vertex_kind_from_string(to_string(k)), k);
  }
  EXPECT_THROW(vertex_kind_from_string("frobnicator"), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  const TaskGraph g = apps::make_comd({.ranks = 3, .iterations = 2});
  const ScratchDir scratch("trace_io");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("trace.txt");
  save_trace(path, g);
  expect_graphs_equal(g, load_trace(path));
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/dir/trace.txt"), std::runtime_error);
}

}  // namespace
}  // namespace powerlim::dag
