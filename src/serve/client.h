// Client side of the powerlimd protocol.
//
// ServeClient owns one connection: connect + version handshake, then
// any number of sequential requests, each collected as streamed 'R'
// rows plus one terminal frame ('D' done / 'O' overloaded / 'E'
// error). Every receive is deadline-bounded - a dead or stalled daemon
// costs the caller at most the timeout, never a hung process - and the
// response stream runs through the same poisoning FrameStream the
// daemon uses, so a corrupt byte ends the connection instead of
// yielding a half-trusted row.
//
// Used by `powerlim query` (one request, table to stdout), the load
// generator (serve/loadgen.h), and the serve tests.
#pragma once

#include <string>
#include <vector>

#include "robust/status.h"
#include "robust/wire.h"
#include "serve/protocol.h"
#include "util/socket_io.h"

namespace powerlim::serve {

/// How one collected request ended.
enum class CollectStatus {
  /// 'D' received; rows hold every streamed row, done the summary.
  kDone,
  /// 'O' received; the daemon shed the request (see overloaded.reason).
  kOverloaded,
  /// 'E' received; error_detail explains.
  kRequestError,
  /// The wall timeout passed with no terminal frame.
  kTimeout,
  /// The connection died or the stream was poisoned mid-collect.
  kDisconnected,
};

const char* to_string(CollectStatus s);

struct CollectResult {
  CollectStatus status = CollectStatus::kDisconnected;
  std::vector<ServeRow> rows;
  ServeDone done;
  ServeOverloaded overloaded;
  std::string error_detail;
  /// The failover epoch and role the answering daemon declared in its
  /// hello ack.
  std::uint64_t epoch = 0;
  std::string role;
};

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Connects and completes the hello handshake. A version-skewed
  /// server's "error ..." ack comes back as kWireMalformed with the
  /// server's skew description in the message. On success epoch()/role()
  /// report what the server declared in its ack.
  [[nodiscard]] robust::Status connect(const util::Endpoint& server,
                         double timeout_s = 5.0);

  /// The failover epoch and role ("primary"/"standby") the server
  /// declared at handshake. Valid after a successful connect().
  std::uint64_t epoch() const { return epoch_; }
  const std::string& role() const { return role_; }

  /// Asks the server to become (or confirm it is) the primary: sends
  /// 'P', waits for the 'p' ack. On Ok *epoch_out (if non-null) holds
  /// the server's post-promotion epoch.
  [[nodiscard]] robust::Status promote(std::uint64_t* epoch_out,
                         double timeout_s = 10.0);

  /// Sends one request frame ('U'). The reply is gathered separately
  /// with collect(), so a caller may render rows as they stream.
  [[nodiscard]] robust::Status submit(const ServeRequest& request);

  /// Gathers the reply for `request_id` until its terminal frame or
  /// `wall_timeout_s`. Frames for other request ids are dropped (the
  /// daemon serves one connection's requests in submit order).
  CollectResult collect(const std::string& request_id,
                        double wall_timeout_s = 60.0);

  bool connected() const { return fd_ >= 0; }
  void close();

  /// The raw socket, for tests that sabotage the connection.
  int fd() const { return fd_; }

 private:
  [[nodiscard]] robust::Status read_frame(robust::WireFrame* out, double timeout_s);

  int fd_ = -1;
  robust::FrameStream stream_;
  std::uint64_t epoch_ = 0;
  std::string role_;
};

/// How one failover-aware request ended (FailoverClient::request).
struct FailoverResult {
  CollectResult result;
  /// The endpoint that produced `result` (meaningful when attempted).
  util::Endpoint served_by;
  /// Endpoints tried, including the one that answered.
  int attempts = 0;
  /// Human-readable trail of per-endpoint failures, for diagnostics.
  std::string detail;
};

/// Client-side failover over an ordered endpoint list (--endpoints).
///
/// Requests are idempotent by construction - the daemon serves proven
/// caps from its journal and only solves the remainder - so the retry
/// policy is simple: walk the endpoints, submit to the first one that
/// handshakes, and move on when a server is unreachable, sheds
/// (overloaded: a standby answering "standby", a primary answering
/// "queue-full"/"draining"), or dies mid-collect. Split-brain safety:
/// the highest epoch seen in any handshake is remembered and a server
/// acking a *lower* epoch is refused outright - a deposed primary
/// cannot serve this client stale history, even if it answers first.
class FailoverClient {
 public:
  explicit FailoverClient(std::vector<util::Endpoint> endpoints)
      : endpoints_(std::move(endpoints)) {}

  /// One request, tried across endpoints (each at most `rounds` times,
  /// in order, with `retry_backoff_s` between full passes). Terminal
  /// replies (done / request-error) return immediately; unreachable,
  /// shedding, or mid-stream-dying endpoints advance to the next.
  FailoverResult request(const ServeRequest& request,
                         double connect_timeout_s = 5.0,
                         double wall_timeout_s = 120.0, int rounds = 3,
                         double retry_backoff_s = 0.25);

  /// Highest epoch any endpoint has declared to this client.
  std::uint64_t max_epoch() const { return max_epoch_; }

 private:
  std::vector<util::Endpoint> endpoints_;
  std::uint64_t max_epoch_ = 0;
};

}  // namespace powerlim::serve
