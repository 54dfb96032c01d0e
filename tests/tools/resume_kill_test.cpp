// The crash-safety proof for journaled sweeps: a child process running
// `powerlim sweep --journal` is SIGKILLed mid-run (no atexit, no flush,
// no mercy - exactly a node failure), then the sweep is resumed with
// --resume. The resumed run must produce byte-identical sweep-table
// rows to an uninterrupted run.
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "scratch_dir.h"
#include "tools/cli.h"

namespace powerlim::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run_cli(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

int count_records(const std::string& journal_path) {
  std::ifstream f(journal_path);
  int n = 0;
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("R ", 0) == 0) ++n;
  }
  return n;
}

/// First `lines` lines of `text` (the sweep table: header, rule, rows).
std::string head_lines(const std::string& text, int lines) {
  std::size_t pos = 0;
  for (int i = 0; i < lines && pos != std::string::npos; ++i) {
    pos = text.find('\n', pos);
    if (pos != std::string::npos) ++pos;
  }
  return text.substr(0, pos == std::string::npos ? text.size() : pos);
}

TEST(ResumeKill, SigkilledSweepResumesByteIdentical) {
  const ScratchDir scratch("resume_kill");
  ASSERT_TRUE(scratch.ok());
  const std::string trace = scratch.path("kill_trace");
  const std::string journal = scratch.path("kill_journal");
  // Big enough that the sweep takes real wall time: the SIGKILL below
  // must land while caps are still being solved, not after the fact.
  ASSERT_EQ(run_cli({"trace", "comd", "-o", trace, "--ranks", "4",
                     "--iterations", "24"})
                .code,
            0);

  const std::vector<std::string> sweep_args = {
      "sweep", trace, "--from", "30", "--to", "65", "--step", "5"};

  // Uninterrupted reference (no journal).
  const CliResult fresh = run_cli(sweep_args);
  ASSERT_EQ(fresh.code, 0) << fresh.err;
  const int n_caps = 8;

  // Child: the same sweep, journaled. SIGKILLed once the journal holds
  // at least one completed cap.
  std::vector<std::string> journaled = sweep_args;
  journaled.insert(journaled.end(), {"--journal", journal});
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // In the child: no gtest machinery, no shared streams - run the
    // sweep and leave. _exit skips atexit/buffers, like a real crash.
    std::ostringstream out, err;
    const int code = run(journaled, out, err);
    _exit(code);
  }

  const auto start = std::chrono::steady_clock::now();
  bool killed = false;
  while (std::chrono::steady_clock::now() - start <
         std::chrono::seconds(60)) {
    if (count_records(journal) >= 1) {
      kill(pid, SIGKILL);
      killed = true;
      break;
    }
    // Bail early if the child already finished (fast machine): the
    // test still proves resume-merge correctness, just not mid-flight.
    int probe = 0;
    if (waitpid(pid, &probe, WNOHANG) == pid) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (killed) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
  }
  const int survived = count_records(journal);
  ASSERT_GE(survived, 1) << "journal never saw a completed cap";

  // Resume. Every journaled cap is skipped, the rest solved fresh, and
  // the table rows must be byte-identical to the uninterrupted run.
  std::vector<std::string> resume_args = journaled;
  resume_args.push_back("--resume");
  const CliResult resumed = run_cli(resume_args);
  ASSERT_EQ(resumed.code, 0) << resumed.err;

  const std::string table = head_lines(fresh.out, 2 + n_caps);
  EXPECT_EQ(head_lines(resumed.out, 2 + n_caps), table);
  if (survived < n_caps) {
    EXPECT_NE(resumed.out.find("resumed " + std::to_string(survived)),
              std::string::npos)
        << resumed.out;
  }

  // Second resume: everything comes from the journal, rows unchanged.
  const CliResult again = run_cli(resume_args);
  ASSERT_EQ(again.code, 0);
  EXPECT_EQ(head_lines(again.out, 2 + n_caps), table);
  EXPECT_NE(again.out.find("resumed " + std::to_string(n_caps) + " cap(s)"),
            std::string::npos);
}

TEST(ResumeKill, InterruptedExitCodeIsResumable) {
  const ScratchDir scratch("resume_kill");
  ASSERT_TRUE(scratch.ok());
  const std::string trace = scratch.path("kill_trace2");
  const std::string journal = scratch.path("kill_journal2");
  ASSERT_EQ(run_cli({"trace", "comd", "-o", trace, "--ranks", "2",
                     "--iterations", "3"})
                .code,
            0);
  // A dead sweep budget completes no caps: exit must be the resumable
  // code, not success and not hard failure.
  const CliResult r = run_cli({"sweep", trace, "--from", "40", "--to",
                               "60", "--step", "10", "--journal", journal,
                               "--deadline-ms", "0"});
  EXPECT_EQ(r.code, kExitResumable);
  EXPECT_NE(r.err.find("--resume"), std::string::npos);

  // And resuming after the interruption completes the sweep cleanly.
  const CliResult done =
      run_cli({"sweep", trace, "--from", "40", "--to", "60", "--step",
               "10", "--journal", journal, "--resume"});
  EXPECT_EQ(done.code, 0) << done.err;
}

TEST(ResumeKill, ResumeRequiresJournal) {
  const CliResult r = run_cli({"sweep", "nofile", "--from", "40", "--to",
                               "60", "--resume"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--journal"), std::string::npos);
}

}  // namespace
}  // namespace powerlim::cli
