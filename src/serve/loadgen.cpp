#include "serve/loadgen.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <vector>

#include "robust/wire.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "util/posix_io.h"
#include "util/stats.h"

namespace powerlim::serve {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// The requests one honest client will run, in order. Synthesized
/// from clients*requests, or this client's round-robin share of the
/// replay file.
std::vector<ReplayItem> client_work(const LoadgenOptions& opt,
                                    int client_idx) {
  std::vector<ReplayItem> work;
  if (opt.replay.empty()) {
    ReplayItem item;
    item.kind = opt.caps.size() == 1 ? "bound" : "sweep";
    item.deadline_ms = opt.deadline_ms;
    item.caps = opt.caps;
    work.assign(static_cast<std::size_t>(opt.requests), item);
    return work;
  }
  for (std::size_t i = static_cast<std::size_t>(client_idx);
       i < opt.replay.size();
       i += static_cast<std::size_t>(opt.clients)) {
    work.push_back(opt.replay[i]);
  }
  return work;
}

/// One honest client: its share of the work, sequential submits, one
/// result line per request up the pipe:
/// "<ok|overloaded|error> <latency-ms>\n".
int run_client(const LoadgenOptions& opt, int client_idx, int write_fd) {
  const std::vector<ReplayItem> work = client_work(opt, client_idx);
  const bool failover = opt.endpoints.size() > 1;
  FailoverClient failover_client(opt.endpoints);
  ServeClient client;
  std::string lines;
  if (!failover && !client.connect(opt.server, /*timeout_s=*/10.0).ok()) {
    for (std::size_t r = 0; r < work.size(); ++r) lines += "error 0\n";
    (void)util::write_full(write_fd, lines.data(), lines.size());
    return 1;
  }
  for (std::size_t r = 0; r < work.size(); ++r) {
    ServeRequest req;
    {
      std::ostringstream id;
      id << "c" << client_idx << "-r" << r;
      req.id = id.str();
    }
    req.kind = work[r].kind;
    req.deadline_ms = work[r].deadline_ms;
    req.caps = work[r].caps;
    req.trace_text = opt.trace_text;

    const Clock::time_point start = Clock::now();
    const char* verdict = "error";
    if (failover) {
      const FailoverResult got = failover_client.request(
          req, /*connect_timeout_s=*/10.0, opt.wall_timeout_s);
      if (got.result.status == CollectStatus::kDone &&
          got.result.done.rows == static_cast<int>(req.caps.size()))
        verdict = "ok";
      else if (got.result.status == CollectStatus::kOverloaded)
        verdict = "overloaded";
    } else if (client.submit(req).ok()) {
      const CollectResult got = client.collect(req.id, opt.wall_timeout_s);
      if (got.status == CollectStatus::kDone &&
          got.done.rows == static_cast<int>(req.caps.size())) {
        verdict = "ok";
      } else if (got.status == CollectStatus::kOverloaded) {
        verdict = "overloaded";
      } else if (got.status == CollectStatus::kDisconnected) {
        // One reconnect: the daemon may have reaped us while we sat
        // between requests.
        if (!client.connect(opt.server, /*timeout_s=*/10.0).ok()) {
          verdict = "error";
        } else if (client.submit(req).ok()) {
          const CollectResult again =
              client.collect(req.id, opt.wall_timeout_s);
          if (again.status == CollectStatus::kDone &&
              again.done.rows == static_cast<int>(req.caps.size()))
            verdict = "ok";
          else if (again.status == CollectStatus::kOverloaded)
            verdict = "overloaded";
        }
      }
    }
    char line[64];
    std::snprintf(line, sizeof(line), "%s %.3f\n", verdict, ms_since(start));
    lines += line;
  }
  (void)util::write_full(write_fd, lines.data(), lines.size());
  return 0;
}

void send_raw(int fd, const std::string& bytes) {
  (void)util::send_all(fd, bytes.data(), bytes.size(), /*timeout_s=*/5.0);
}

/// How long a stall, oversize or slow-read saboteur holds its
/// connection before closing it, us.
constexpr useconds_t kSaboteurHoldUs = 2'000'000;

/// The saboteur: one misbehaving peer per mode. It never reports
/// results - its entire job is to NOT take the daemon down with it.
int run_saboteur(const LoadgenOptions& opt) {
  std::string error;
  const int fd = util::connect_timeout(opt.server, 5.0, &error);
  if (fd < 0) return 1;

  if (opt.inject == "net-drop") {
    // Half a hello frame, then a hard close: the daemon's stream sees a
    // torn frame and must just drop the connection.
    const std::string hello =
        robust::encode_wire_frame(kTagHello, encode_hello());
    send_raw(fd, hello.substr(0, hello.size() / 2));
    ::close(fd);
    return 0;
  }
  if (opt.inject == "net-stall") {
    // Hold a partial frame open past the handshake timeout; the daemon
    // must reap us without stalling anyone else.
    send_raw(fd, "W ");
    ::usleep(kSaboteurHoldUs);
    ::close(fd);
    return 0;
  }
  if (opt.inject == "oversize") {
    // A hostile length prefix (way past kMaxWirePayload). The daemon
    // must reject it before allocating and drop us.
    send_raw(fd, "W U deadbeef 999999999999999\nx");
    ::usleep(kSaboteurHoldUs);
    ::close(fd);
    return 0;
  }
  if (opt.inject == "slow-read") {
    // Handshake + a real request, then never read a byte: the daemon's
    // replies back up in our socket until its progress timeout drops
    // us. Submit via the real client, then sit on the fd.
    ::close(fd);
    ServeClient client;
    if (!client.connect(opt.server, 5.0).ok()) return 1;
    ServeRequest req;
    req.id = "saboteur";
    req.kind = opt.caps.size() == 1 ? "bound" : "sweep";
    req.caps = opt.caps;
    req.trace_text = opt.trace_text;
    (void)client.submit(req);
    ::usleep(kSaboteurHoldUs);
    return 0;
  }
  ::close(fd);
  return 1;
}

}  // namespace

bool parse_replay_file(const std::string& path, std::vector<ReplayItem>* out,
                       std::string* error) {
  std::ifstream in(path);
  if (!in.is_open()) {
    if (error != nullptr) *error = path + ": cannot open";
    return false;
  }
  std::vector<ReplayItem> items;
  std::string line;
  long lineno = 0;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      std::ostringstream os;
      os << path << ":" << lineno << ": " << why;
      *error = os.str();
    }
    return false;
  };
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    ReplayItem item;
    std::string caps_csv;
    if (!(fields >> item.kind >> item.deadline_ms >> caps_csv))
      return fail("want '<kind> <deadline-ms> <cap[,cap...]>'");
    if (item.kind != "bound" && item.kind != "sweep")
      return fail("unknown kind '" + item.kind + "'");
    if (item.deadline_ms < 0.0) return fail("negative deadline");
    std::istringstream caps(caps_csv);
    std::string tok;
    while (std::getline(caps, tok, ',')) {
      char* tail = nullptr;
      const double cap = std::strtod(tok.c_str(), &tail);
      if (tok.empty() || tail == nullptr || *tail != '\0' || !(cap > 0.0))
        return fail("bad cap '" + tok + "'");
      item.caps.push_back(cap);
    }
    if (item.caps.empty()) return fail("no caps");
    items.push_back(std::move(item));
  }
  if (items.empty()) {
    lineno = 0;
    return fail("no requests in replay file");
  }
  *out = std::move(items);
  return true;
}

std::string LoadgenReport::to_json() const {
  std::ostringstream os;
  os << "{\"requests\":" << requests << ",\"ok\":" << ok
     << ",\"overloaded\":" << overloaded << ",\"errors\":" << errors
     << ",\"p50_ms\":" << p50_ms << ",\"p99_ms\":" << p99_ms
     << ",\"mean_ms\":" << mean_ms << ",\"wall_s\":" << wall_s
     << ",\"throughput_rps\":" << throughput_rps
     << ",\"saboteur\":" << (saboteur_ran ? "true" : "false") << "}";
  return os.str();
}

LoadgenReport run_loadgen(const LoadgenOptions& opt, std::ostream& err) {
  LoadgenReport report;
  const Clock::time_point start = Clock::now();

  struct Child {
    pid_t pid = -1;
    int pipe_fd = -1;
    bool saboteur = false;
  };
  std::vector<Child> children;

  auto spawn = [&](bool saboteur, int idx) {
    int pfd[2] = {-1, -1};
    if (!saboteur && ::pipe(pfd) != 0) return;
    const pid_t pid = ::fork();
    if (pid < 0) {
      if (pfd[0] >= 0) ::close(pfd[0]);
      if (pfd[1] >= 0) ::close(pfd[1]);
      return;
    }
    if (pid == 0) {
      for (const Child& c : children) {
        if (c.pipe_fd >= 0) ::close(c.pipe_fd);
      }
      if (saboteur) {
        ::_exit(run_saboteur(opt));
      }
      ::close(pfd[0]);
      ::_exit(run_client(opt, idx, pfd[1]));
    }
    if (pfd[1] >= 0) ::close(pfd[1]);
    children.push_back({pid, saboteur ? -1 : pfd[0], saboteur});
  };

  // The saboteur connects first so the honest fleet overlaps its whole
  // misbehaving lifetime.
  if (!opt.inject.empty()) spawn(/*saboteur=*/true, -1);
  for (int c = 0; c < opt.clients; ++c) spawn(/*saboteur=*/false, c);

  std::vector<double> ok_latencies;
  for (const Child& child : children) {
    if (child.pipe_fd >= 0) {
      std::string text;
      if (!robust::drain_fd(child.pipe_fd, &text)) text.clear();
      ::close(child.pipe_fd);
      std::istringstream lines(text);
      std::string verdict;
      double ms = 0.0;
      while (lines >> verdict >> ms) {
        ++report.requests;
        if (verdict == "ok") {
          ++report.ok;
          ok_latencies.push_back(ms);
        } else if (verdict == "overloaded") {
          ++report.overloaded;
        } else {
          ++report.errors;
        }
      }
    }
    int status = 0;
    (void)::waitpid(child.pid, &status, 0);
    if (child.saboteur) report.saboteur_ran = true;
  }

  // Clients that died without reporting every request still count.
  const long expected =
      opt.replay.empty()
          ? static_cast<long>(opt.clients) * static_cast<long>(opt.requests)
          : static_cast<long>(opt.replay.size());
  if (report.requests < expected) {
    report.errors += expected - report.requests;
    report.requests = expected;
  }

  report.wall_s = ms_since(start) / 1000.0;
  if (!ok_latencies.empty()) {
    std::sort(ok_latencies.begin(), ok_latencies.end());
    report.p50_ms = util::percentile(ok_latencies, 50.0);
    report.p99_ms = util::percentile(ok_latencies, 99.0);
    report.mean_ms = util::mean(ok_latencies);
  }
  if (report.wall_s > 0.0)
    report.throughput_rps = static_cast<double>(report.ok) / report.wall_s;

  err << "loadgen: " << report.ok << "/" << report.requests << " ok, "
      << report.overloaded << " overloaded, " << report.errors
      << " errors in " << report.wall_s << "s\n";
  return report;
}

}  // namespace powerlim::serve
