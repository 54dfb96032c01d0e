// Socket-semantics siblings of the posix_io EINTR helpers.
//
// Distributed sweeps and powerlimd talk TCP to remote peers, and a
// network peer fails in ways a pipe never does: partial send()s once the
// socket buffer fills, EPIPE/ECONNRESET when the peer vanishes, SIGPIPE
// delivered mid-write, connect() hanging on a dead host. These wrappers
// normalize all of that into a small IoStatus taxonomy so the scheduler
// can classify "peer died" distinctly from "real IO error" and never
// takes a fatal signal from a dead connection (ignore_sigpipe +
// MSG_NOSIGNAL belt-and-braces).
//
// Everything retries EINTR via util::retry_eintr - the coordinator is as
// signal-heavy as the worker pool (SIGCHLD, SIGINT/SIGTERM, deadlines).
#pragma once

#include <string>

namespace powerlim::util {

/// Suppresses SIGPIPE process-wide (idempotent). Called by every socket
/// entry point; a dead peer must surface as EPIPE from send(), never as
/// a process-killing signal.
void ignore_sigpipe();

/// "host:port" address of a remote worker. Numeric IPv4 or a resolvable
/// hostname; the port is the last ':'-separated token.
struct Endpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Parses "host:port". Returns false (and leaves *out alone) on a
/// missing ':', empty host, or a port outside [0, 65535].
bool parse_endpoint(const std::string& text, Endpoint* out);

std::string to_string(const Endpoint& ep);

/// How one socket operation ended.
enum class IoStatus {
  kOk,
  /// The deadline passed before the operation completed (retryable).
  kTimeout,
  /// The peer closed or reset the connection (EOF, EPIPE, ECONNRESET):
  /// retryable against a *different* peer, fatal for this one.
  kDisconnected,
  /// A real local error (errno preserved by the caller's message).
  kError,
};

const char* to_string(IoStatus s);

/// Why listen_tcp_status failed, typed so callers can branch. The one
/// case that deserves different handling is kAddrInUse: a daemon
/// restarting over a dying predecessor races the kernel releasing the
/// port (SO_REUSEADDR covers TIME_WAIT, not a socket still held by the
/// exiting process), and the correct response is a brief bounded retry,
/// not a fatal error.
enum class ListenStatus {
  kOk,
  /// bind() failed with EADDRINUSE on every resolved address: retryable.
  kAddrInUse,
  /// The host did not resolve.
  kResolveError,
  /// Any other socket/bind/listen failure (message carries errno).
  kError,
};

const char* to_string(ListenStatus s);

/// Creates a listening TCP socket bound to host:port (port 0 picks an
/// ephemeral port; recover it with bound_port). SO_REUSEADDR is set
/// before bind. On success *fd_out holds the listening fd; otherwise the
/// typed status says why, with a message in *error.
ListenStatus listen_tcp_status(const std::string& host, int port,
                               int* fd_out, std::string* error);

/// Untyped convenience wrapper over listen_tcp_status. Returns the fd,
/// or -1 with a message in *error.
int listen_tcp(const std::string& host, int port, std::string* error);

/// The locally bound port of a listening socket (-1 on error).
int bound_port(int listen_fd);

/// accept() with a wall timeout so the accept loop stays responsive to
/// cancellation. Returns the connected fd, or -1 with *status set to
/// kTimeout / kError.
int accept_timeout(int listen_fd, double timeout_s, IoStatus* status);

/// Nonblocking connect with a wall timeout. Resolves `ep.host`, tries
/// each address, and returns a connected blocking-mode fd, or -1 with a
/// message in *error. A dead or unreachable peer costs at most
/// `timeout_s`, never a kernel-default SYN retry eternity.
int connect_timeout(const Endpoint& ep, double timeout_s,
                    std::string* error);

/// Starts a *nonblocking* connect toward `ep`. Returns a nonblocking fd
/// whose three-way handshake is complete or in progress, or -1 with a
/// message in *error (resolve/socket failure). Poll the fd for POLLOUT
/// and then settle it with connect_finish - this is the primitive for a
/// poll-loop daemon that must court a dead peer (a standby redialing
/// its primary) without ever blocking its own clients.
int connect_start(const Endpoint& ep, std::string* error);

/// Settles a connect_start fd after poll reported POLLOUT (or
/// POLLERR/POLLHUP): kOk = connected (the fd stays nonblocking),
/// kDisconnected = refused/unreachable/timed out (retryable later),
/// kError = a real local failure. The caller closes the fd on anything
/// but kOk.
IoStatus connect_finish(int fd, std::string* error);

/// Sends all `len` bytes, retrying EINTR and partial sends, polling for
/// writability up to `timeout_s` total (0 = wait forever). EPIPE /
/// ECONNRESET map to kDisconnected.
IoStatus send_all(int fd, const void* data, std::size_t len,
                  double timeout_s = 0.0);

/// One nonblocking drain for poll-loop writers flushing an outbuf:
/// sends as much as the socket buffer takes right now and reports
/// progress in *sent. kOk = all len bytes went out, kTimeout = buffer
/// filled first (*sent < len; re-arm POLLOUT and come back),
/// kDisconnected / kError as send_all. Never polls and never blocks.
IoStatus send_nonblock(int fd, const void* data, std::size_t len,
                       std::size_t* sent);

/// One recv() appended to *out (after the caller's poll said readable).
/// kOk = got bytes, kTimeout = spuriously unready (EAGAIN), and EOF /
/// ECONNRESET / EPIPE = kDisconnected.
IoStatus recv_some(int fd, std::string* out);

}  // namespace powerlim::util
