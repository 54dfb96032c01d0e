#include "core/schedule_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "apps/benchmarks.h"
#include "core/windowed.h"
#include "machine/power_model.h"
#include "scratch_dir.h"
#include "sim/replay.h"

namespace powerlim::core {
namespace {

const machine::PowerModel kModel{machine::SocketSpec{}};
const machine::ClusterSpec kCluster{};

SavedSchedule make_saved(const dag::TaskGraph& g, double socket_cap) {
  const auto lp = solve_windowed_lp(g, kModel, kCluster,
                                    {.power_cap = socket_cap * g.num_ranks()});
  EXPECT_TRUE(lp.optimal());
  SavedSchedule saved;
  saved.schedule = lp.schedule;
  saved.frontiers = lp.frontiers;
  saved.vertex_time = lp.vertex_time;
  saved.job_cap_watts = socket_cap * g.num_ranks();
  saved.makespan = lp.makespan;
  return saved;
}

SavedSchedule round_trip(const SavedSchedule& saved) {
  std::stringstream buf;
  write_schedule(buf, saved);
  return read_schedule(buf);
}

TEST(ScheduleIo, RoundTripPreservesEverything) {
  const dag::TaskGraph g = apps::make_bt({.ranks = 4, .iterations = 3});
  const SavedSchedule a = make_saved(g, 40.0);
  const SavedSchedule b = round_trip(a);
  EXPECT_DOUBLE_EQ(a.job_cap_watts, b.job_cap_watts);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  ASSERT_EQ(a.schedule.num_edges(), b.schedule.num_edges());
  for (std::size_t e = 0; e < a.schedule.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(a.schedule.duration[e], b.schedule.duration[e]);
    EXPECT_DOUBLE_EQ(a.schedule.power[e], b.schedule.power[e]);
    ASSERT_EQ(a.schedule.shares[e].size(), b.schedule.shares[e].size());
    for (std::size_t k = 0; k < a.schedule.shares[e].size(); ++k) {
      EXPECT_EQ(a.schedule.shares[e][k].config_index,
                b.schedule.shares[e][k].config_index);
      EXPECT_DOUBLE_EQ(a.schedule.shares[e][k].fraction,
                       b.schedule.shares[e][k].fraction);
    }
  }
  ASSERT_EQ(a.vertex_time.size(), b.vertex_time.size());
  for (std::size_t v = 0; v < a.vertex_time.size(); ++v) {
    EXPECT_DOUBLE_EQ(a.vertex_time[v], b.vertex_time[v]);
  }
}

TEST(ScheduleIo, LoadedScheduleReplaysIdentically) {
  const dag::TaskGraph g = apps::make_comd({.ranks = 4, .iterations = 4});
  const SavedSchedule a = make_saved(g, 45.0);
  const SavedSchedule b = round_trip(a);
  sim::ReplayOptions ro;
  ro.engine.cluster = kCluster;
  ro.engine.idle_power = kModel.idle_power();
  const sim::SimResult ra =
      sim::replay_schedule(g, a.schedule, a.frontiers, ro, &a.vertex_time);
  const sim::SimResult rb =
      sim::replay_schedule(g, b.schedule, b.frontiers, ro, &b.vertex_time);
  EXPECT_DOUBLE_EQ(ra.makespan, rb.makespan);
  EXPECT_DOUBLE_EQ(ra.peak_power, rb.peak_power);
  EXPECT_DOUBLE_EQ(ra.energy_joules, rb.energy_joules);
}

TEST(ScheduleIo, RejectsBadHeader) {
  std::stringstream in("not-a-schedule 1\n");
  EXPECT_THROW(read_schedule(in), std::runtime_error);
}

TEST(ScheduleIo, RejectsEdgeOutOfRange) {
  std::stringstream in(
      "powerlim-schedule 1\nedges 1\ntask 5 1.0 30.0 1 0 1.0 2.6 8 1.0 "
      "30.0\n");
  EXPECT_THROW(read_schedule(in), std::runtime_error);
}

TEST(ScheduleIo, RejectsUnknownDirective) {
  std::stringstream in("powerlim-schedule 1\nedges 1\nwibble 1\n");
  EXPECT_THROW(read_schedule(in), std::runtime_error);
}

TEST(ScheduleIo, ErrorsCarryLineNumbers) {
  std::stringstream in("powerlim-schedule 1\nedges 1\ntask 0 1.0\n");
  try {
    read_schedule(in);
    FAIL();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(ScheduleIo, FileRoundTrip) {
  const dag::TaskGraph g = apps::make_sp({.ranks = 3, .iterations = 2});
  const SavedSchedule a = make_saved(g, 50.0);
  const ScratchDir scratch("schedule_io");
  ASSERT_TRUE(scratch.ok());
  const std::string path = scratch.path("sched.txt");
  save_schedule(path, a);
  const SavedSchedule b = load_schedule(path);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_THROW(load_schedule("/nonexistent/x.sched"), std::runtime_error);
}

}  // namespace
}  // namespace powerlim::core
