// A powerlimd (`powerlim serve`) run through the real CLI in a forked
// child of the test, for tests that drive a live daemon over its socket.
#pragma once

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tools/cli.h"
#include "util/socket_io.h"

namespace powerlim {

/// A forked `powerlim serve` child on an ephemeral loopback port. The
/// destructor SIGKILLs a daemon a failed assertion left behind -
/// otherwise the orphan inherits the test's stdio and wedges any
/// pipeline reading it.
struct DaemonProcess {
  pid_t pid = -1;
  /// Port 0 when the daemon never published one.
  util::Endpoint endpoint;
  std::string state_dir;
  /// Where the child's stdout and stderr land when it exits; empty
  /// discards them.
  std::string log;

  DaemonProcess() = default;
  DaemonProcess(DaemonProcess&& o) noexcept
      : pid(o.pid),
        endpoint(o.endpoint),
        state_dir(std::move(o.state_dir)),
        log(std::move(o.log)) {
    o.pid = -1;
  }
  DaemonProcess& operator=(DaemonProcess&& o) noexcept {
    std::swap(pid, o.pid);
    endpoint = o.endpoint;
    state_dir = o.state_dir;
    log = o.log;
    return *this;
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;
  ~DaemonProcess() { sigkill(); }

  /// SIGKILLs and reaps the daemon.
  void sigkill() {
    if (pid <= 0) return;
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
    pid = -1;
  }

  /// Waits for exit (no signal sent); returns exit code or -signal.
  int wait_exit() {
    if (pid <= 0) return -1;
    int status = 0;
    const pid_t waited = waitpid(pid, &status, 0);
    const pid_t was = pid;
    pid = -1;
    if (waited != was) return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
  }

  /// Graceful SIGTERM drain; returns the exit code (or -signal).
  int stop() {
    if (pid <= 0) return -1;
    kill(pid, SIGTERM);
    return wait_exit();
  }
};

/// "127.0.0.1:<port>", the form `--server`, `--remote` and `--endpoints`
/// take.
inline std::string endpoint_str(const DaemonProcess& d) {
  return "127.0.0.1:" + std::to_string(d.endpoint.port);
}

/// Starts `powerlim serve --listen 127.0.0.1:0 --port-file PORT_FILE
/// --state-dir STATE_DIR EXTRA_ARGS...` and waits up to 5 s for the
/// daemon to publish its port; the port file is removed once read.
inline DaemonProcess launch_daemon(const std::string& port_file,
                                   const std::string& state_dir,
                                   const std::vector<std::string>& extra_args,
                                   const std::string& log = {}) {
  DaemonProcess d;
  d.state_dir = state_dir;
  d.log = log;
  std::vector<std::string> args = {"serve",       "--listen",
                                   "127.0.0.1:0", "--port-file",
                                   port_file,     "--state-dir",
                                   state_dir};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  const pid_t pid = fork();
  if (pid == 0) {
    cli::install_signal_handlers();
    std::ostringstream out, err;
    const int rc = cli::run(args, out, err);
    if (!log.empty()) std::ofstream(log) << out.str() << err.str();
    _exit(rc);
  }
  d.pid = pid;
  for (int i = 0; i < 500; ++i) {
    std::ifstream f(port_file);
    int port = 0;
    if (f >> port && port > 0) {
      d.endpoint.host = "127.0.0.1";
      d.endpoint.port = port;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::remove(port_file.c_str());
  return d;
}

}  // namespace powerlim
