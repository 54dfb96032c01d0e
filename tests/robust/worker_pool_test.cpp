// Supervisor tests with deliberately hostile workers: children that
// abort mid-task, exit with the OOM code, allocate past a real
// RLIMIT_AS budget, sleep forever, or are SIGKILLed from outside. The
// pool must contain every one of them - classify, retry once in a fresh
// worker, and settle - without the test process ever dying.
#include "robust/worker_pool.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "robust/status.h"
#include "scratch_dir.h"
#include "util/deadline.h"

#if defined(__SANITIZE_ADDRESS__)
#define POWERLIM_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define POWERLIM_TEST_ASAN 1
#endif
#endif
#ifndef POWERLIM_TEST_ASAN
#define POWERLIM_TEST_ASAN 0
#endif
#if defined(__SANITIZE_THREAD__)
#define POWERLIM_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define POWERLIM_TEST_TSAN 1
#endif
#endif
#ifndef POWERLIM_TEST_TSAN
#define POWERLIM_TEST_TSAN 0
#endif

namespace powerlim::robust {
namespace {

JournalEntry make_entry(double cap) {
  JournalEntry e;
  e.job_cap_watts = cap;
  e.verdict = StatusCode::kOk;
  e.bound_seconds = cap / 10.0;
  e.report_json = "{\"cap\":" + std::to_string(cap) + "}";
  return e;
}

WorkerTaskSpec clean_task(double cap) {
  WorkerTaskSpec spec;
  spec.job_cap_watts = cap;
  spec.run = [cap](int) { return make_entry(cap); };
  return spec;
}

/// Sleeps in bounded chunks (a runaway worker must still end before the
/// suite timeout if supervision fails).
void sleep_bounded(double seconds) {
  const auto end =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<long>(seconds * 1000));
  while (std::chrono::steady_clock::now() < end) {
    struct timespec ts = {0, 50 * 1000 * 1000};
    ::nanosleep(&ts, nullptr);
  }
}

TEST(WorkerPool, CleanTasksSettleInTaskOrder) {
  std::vector<WorkerTaskSpec> tasks;
  for (double cap : {40.0, 80.0, 120.0, 160.0, 200.0}) {
    tasks.push_back(clean_task(cap));
  }
  std::vector<double> streamed;
  WorkerPoolOptions opt;
  opt.workers = 3;
  const WorkerPoolResult res = run_worker_pool(
      tasks, opt, {},
      [&](const WorkerTaskResult& r, std::size_t) {
        streamed.push_back(r.entry.job_cap_watts);
      });

  ASSERT_EQ(res.results.size(), 5u);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(res.results[i].outcome, WorkerOutcome::kOk);
    EXPECT_EQ(res.results[i].entry.job_cap_watts, tasks[i].job_cap_watts);
    EXPECT_EQ(res.results[i].entry.report_json,
              make_entry(tasks[i].job_cap_watts).report_json);
    EXPECT_EQ(res.results[i].spawns, 1);
    EXPECT_TRUE(res.results[i].detail.empty());
  }
  EXPECT_EQ(streamed.size(), 5u);  // on_result fired once per task
  EXPECT_FALSE(res.interrupted);
  EXPECT_EQ(res.stats.tasks, 5);
  EXPECT_EQ(res.stats.spawned, 5);
  EXPECT_EQ(res.stats.clean, 5);
  EXPECT_EQ(res.stats.crashes, 0);
  EXPECT_EQ(res.stats.retries, 0);
  EXPECT_GT(res.stats.max_peak_rss_kb, 0);
}

TEST(WorkerPool, CrashOnFirstAttemptIsRetriedAndSucceeds) {
  WorkerTaskSpec spec;
  spec.job_cap_watts = 90.0;
  spec.run = [](int attempt) {
    if (attempt == 0) std::abort();
    return make_entry(90.0);
  };
  const WorkerPoolResult res = run_worker_pool({spec}, {});

  ASSERT_EQ(res.results.size(), 1u);
  const WorkerTaskResult& r = res.results[0];
  EXPECT_EQ(r.outcome, WorkerOutcome::kOk);
  EXPECT_EQ(r.spawns, 2);
  EXPECT_EQ(r.entry.job_cap_watts, 90.0);
  EXPECT_EQ(res.stats.crashes, 1);
  EXPECT_EQ(res.stats.retries, 1);
  EXPECT_EQ(res.stats.clean, 1);
  EXPECT_EQ(res.stats.spawned, 2);
}

TEST(WorkerPool, CrashOnEveryAttemptSettlesWorkerCrashed) {
  WorkerTaskSpec spec;
  spec.job_cap_watts = 90.0;
  spec.run = [](int) -> JournalEntry { std::abort(); };
  const WorkerPoolResult res = run_worker_pool({spec}, {});

  const WorkerTaskResult& r = res.results[0];
  EXPECT_EQ(r.outcome, WorkerOutcome::kCrashed);
  EXPECT_EQ(status_code_for(r.outcome), StatusCode::kWorkerCrashed);
  EXPECT_EQ(r.spawns, 2);  // first try + the one retry, both dead
  EXPECT_NE(r.detail.find("signal 6"), std::string::npos) << r.detail;
  EXPECT_EQ(res.stats.crashes, 2);
  EXPECT_EQ(res.stats.retries, 1);
  EXPECT_EQ(res.stats.clean, 0);
  EXPECT_FALSE(res.interrupted);
}

TEST(WorkerPool, OomExitCodeClassifiesResourceExhausted) {
  WorkerTaskSpec spec;
  spec.job_cap_watts = 50.0;
  spec.run = [](int) -> JournalEntry { _exit(kWorkerExitOom); };
  const WorkerPoolResult res = run_worker_pool({spec}, {});

  const WorkerTaskResult& r = res.results[0];
  EXPECT_EQ(r.outcome, WorkerOutcome::kResourceExhausted);
  EXPECT_EQ(status_code_for(r.outcome), StatusCode::kResourceExhausted);
  EXPECT_EQ(res.stats.resource_exhausted, 2);
  EXPECT_EQ(res.stats.retries, 1);
}

TEST(WorkerPool, ThrownExceptionBecomesCrashExitCode) {
  WorkerTaskSpec spec;
  spec.job_cap_watts = 50.0;
  spec.run = [](int) -> JournalEntry {
    throw std::runtime_error("boom");
  };
  const WorkerPoolResult res = run_worker_pool({spec}, {});
  EXPECT_EQ(res.results[0].outcome, WorkerOutcome::kCrashed);
  EXPECT_NE(res.results[0].detail.find(std::to_string(kWorkerExitFailure)),
            std::string::npos)
      << res.results[0].detail;
}

TEST(WorkerPool, RealMemoryBudgetTriggersResourceExhaustion) {
  if (POWERLIM_TEST_ASAN) {
    GTEST_SKIP() << "RLIMIT_AS is compiled out under AddressSanitizer";
  }
  if (POWERLIM_TEST_TSAN) {
    // The worker then dies inside TSan's own allocator (kCrashed) before
    // it can reach the bad_alloc path this test is about.
    GTEST_SKIP() << "ThreadSanitizer's allocator cannot run under a 64 MiB "
                    "RLIMIT_AS";
  }
  // The worker genuinely allocates past a real RLIMIT_AS budget; the
  // bad_alloc -> kWorkerExitOom path must classify, not crash the pool.
  WorkerTaskSpec spec;
  spec.job_cap_watts = 50.0;
  spec.run = [](int) -> JournalEntry {
    std::vector<std::string> hog;
    for (int i = 0; i < 128; ++i) {
      hog.emplace_back(8u << 20, 'x');  // 8 MiB, touched pages
    }
    return make_entry(50.0);  // unreachable under the 64 MiB budget
  };
  WorkerPoolOptions opt;
  opt.limits.mem_mb = 64;
  const WorkerPoolResult res = run_worker_pool({spec}, opt);
  EXPECT_EQ(res.results[0].outcome, WorkerOutcome::kResourceExhausted);
}

TEST(WorkerPool, HungWorkerIsKilledOnWallBudget) {
  WorkerTaskSpec spec;
  spec.job_cap_watts = 70.0;
  spec.run = [](int) -> JournalEntry {
    sleep_bounded(30.0);
    return make_entry(70.0);
  };
  WorkerPoolOptions opt;
  opt.limits.wall_seconds = 0.3;
  const auto start = std::chrono::steady_clock::now();
  const WorkerPoolResult res = run_worker_pool({spec}, opt);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_EQ(res.results[0].outcome, WorkerOutcome::kTimedOut);
  EXPECT_EQ(status_code_for(res.results[0].outcome),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(res.stats.timeouts, 2);  // both spawns overran the budget
  EXPECT_LT(elapsed, 10.0) << "pool wedged behind a hung worker";
}

TEST(WorkerPool, ExpiredDeadlineSkipsEverything) {
  std::vector<WorkerTaskSpec> tasks = {clean_task(40.0), clean_task(80.0)};
  const WorkerPoolResult res =
      run_worker_pool(tasks, {}, util::Deadline::after(0.0));

  EXPECT_TRUE(res.interrupted);
  EXPECT_EQ(res.stop, util::StopReason::kDeadline);
  EXPECT_EQ(res.stats.spawned, 0);
  for (const WorkerTaskResult& r : res.results) {
    EXPECT_EQ(r.outcome, WorkerOutcome::kSkipped);
  }
}

TEST(WorkerPool, CancelMidRunKillsInFlightWorkers) {
  // The second task trips the cancel token from the parent's on_result
  // hook while the slow first task is still in flight: the pool must
  // SIGKILL it and return promptly instead of waiting 30 s.
  util::CancelToken token;
  WorkerTaskSpec slow;
  slow.job_cap_watts = 40.0;
  slow.run = [](int) -> JournalEntry {
    sleep_bounded(30.0);
    return make_entry(40.0);
  };
  WorkerTaskSpec quick = clean_task(80.0);
  WorkerPoolOptions opt;
  opt.workers = 2;
  const auto start = std::chrono::steady_clock::now();
  const WorkerPoolResult res = run_worker_pool(
      {slow, quick}, opt, util::Deadline::cancel_only(&token),
      [&](const WorkerTaskResult&, std::size_t) { token.cancel(); });
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_TRUE(res.interrupted);
  EXPECT_EQ(res.stop, util::StopReason::kCancelled);
  EXPECT_EQ(res.results[0].outcome, WorkerOutcome::kSkipped);
  EXPECT_EQ(res.results[1].outcome, WorkerOutcome::kOk);
  EXPECT_LT(elapsed, 10.0) << "cancel did not kill the in-flight worker";
}

TEST(WorkerPool, ExternalSigkillMidSolveIsRetriedAndSweepContinues) {
  // Satellite contract: SIGKILLing a worker mid-solve (a real external
  // kill, not an injected fault) leaves the sweep running - the cap is
  // retried in a fresh worker and every other task still settles.
  const ScratchDir scratch("worker_pool");
  ASSERT_TRUE(scratch.ok());
  const std::string pidfile = scratch.path("victim.pid");

  WorkerTaskSpec victim;
  victim.job_cap_watts = 60.0;
  victim.run = [pidfile](int attempt) {
    if (attempt == 0) {
      {
        std::ofstream f(pidfile);
        f << ::getpid() << "\n";
      }
      sleep_bounded(30.0);  // wait for the kill; bounded as a backstop
    }
    return make_entry(60.0);
  };

  // The killer is a forked process, not a thread: the pool forks the
  // retry right after the kill, and a killer thread that has returned but
  // is not yet joined would be inherited by that child (under TSan the
  // child then fails its exit-time thread-leak check).
  const pid_t killer = ::fork();
  ASSERT_GE(killer, 0);
  if (killer == 0) {
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start <
           std::chrono::seconds(25)) {
      std::ifstream f(pidfile);
      pid_t pid = 0;
      if (f >> pid && pid > 0) {
        ::kill(pid, SIGKILL);
        ::_exit(0);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::_exit(1);
  }

  const WorkerPoolResult res =
      run_worker_pool({victim, clean_task(100.0)}, {});
  ::waitpid(killer, nullptr, 0);

  ASSERT_EQ(res.results.size(), 2u);
  EXPECT_EQ(res.results[0].outcome, WorkerOutcome::kOk);
  EXPECT_EQ(res.results[0].spawns, 2);
  EXPECT_EQ(res.results[1].outcome, WorkerOutcome::kOk);
  EXPECT_EQ(res.stats.crashes, 1);  // the SIGKILLed first spawn
  EXPECT_EQ(res.stats.retries, 1);
  EXPECT_FALSE(res.interrupted);
}

TEST(WorkerPool, OutcomeNamesAreStable) {
  EXPECT_STREQ(to_string(WorkerOutcome::kOk), "ok");
  EXPECT_STREQ(to_string(WorkerOutcome::kCrashed), "worker-crashed");
  EXPECT_STREQ(to_string(WorkerOutcome::kResourceExhausted),
               "resource-exhausted");
  EXPECT_STREQ(to_string(WorkerOutcome::kTimedOut), "timed-out");
  EXPECT_STREQ(to_string(WorkerOutcome::kSkipped), "skipped");
}

}  // namespace
}  // namespace powerlim::robust
