// Warm-standby replication for powerlimd: the standby half of
// "powerlimd-repl v1" plus the state-dir plumbing both roles share.
//
// A standby (`powerlim serve --standby-of HOST:PORT`) keeps a live
// second copy of the primary's --state-dir. The primary streams its
// journals *as bytes* ('J' frames of verbatim CRC-framed records from
// an exact byte offset), so the standby's journal files are
// byte-identical prefixes of the primary's - the same property offline
// `powerlim sweep --journal` files have - and every apply goes through
// SweepJournal::append_raw with the primary's own write+fsync
// discipline. The standby acks its durable high-water mark after each
// apply; a promoted standby therefore serves exactly the proven rows
// the primary had made durable, never a speculative reconstruction.
//
// Failover is *epoch-fenced*: a monotonically increasing epoch lives in
// three places that must agree - the `epoch` file in the state dir, `E`
// stamps inside every journal, and every replication frame. Promotion
// bumps the epoch; a deposed primary that comes back finds the higher
// epoch on its journals (kStaleEpoch), on the replication link (hello /
// ack exchange), and from clients that have seen the promoted standby -
// split-brain writes are refused at every layer, not just detected.
//
// The StandbyLink here is poll-loop shaped on purpose: the serve daemon
// owns the event loop, polls the link's fd alongside client
// connections, and calls tick()/on_pollable(). Reconnects use
// nonblocking connect_start/connect_finish so a dead primary never
// blocks the standby's read-only query service.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "robust/journal.h"
#include "robust/wire.h"
#include "serve/protocol.h"
#include "util/socket_io.h"

namespace powerlim::serve {

/// Journal / trace-snapshot paths for one trace hash under a state dir
/// (the layout contract shared by the daemon, the standby, and
/// `journal compact`).
std::string journal_path(const std::string& state_dir,
                         const std::string& hash);
std::string trace_path(const std::string& state_dir,
                       const std::string& hash);

/// True for a well-formed trace hash (1-16 lowercase hex chars). Every
/// hash that arrives over the replication link is validated with this
/// before it is spliced into a filesystem path - a hostile primary must
/// not name "../../etc/cron.d" as a journal.
bool valid_trace_hash(const std::string& hash);

/// Hashes of every sweep-<hash>.journal under `state_dir`, sorted.
/// Missing directory = empty list.
std::vector<std::string> journal_hashes(const std::string& state_dir);

/// Writes `bytes` to `path` via `<path>.tmp` + fsync + rename +
/// dir-fsync, so a crash leaves either the old file (or none) or the
/// whole new one, never a torn one. On failure `*error` (when non-null)
/// names the step that failed.
bool store_file(const std::string& path, const std::string& bytes,
                std::string* error);

/// Failover-epoch persistence: `<state_dir>/epoch` holds "epoch=<n>\n",
/// rewritten via store_file so a crash leaves either the old or the new
/// value. load returns 0 when the file is absent or unparseable (a state
/// dir the failover layer never touched).
std::uint64_t load_epoch_file(const std::string& state_dir);
bool store_epoch_file(const std::string& state_dir, std::uint64_t epoch,
                      std::string* error);

/// CRC-32 of the first `offset` bytes of `path`. False on IO error or a
/// file shorter than `offset`. This is the divergence detector behind
/// ReplMark: equal offsets with different CRCs mean different history.
bool file_prefix_crc(const std::string& path, std::uint64_t offset,
                     std::uint32_t* crc_out);

/// Reads [offset, offset + max_bytes) of `path` into *out (short at
/// EOF, so *out may come back smaller or empty). False on IO error or a
/// vanished file.
bool read_file_range(const std::string& path, std::uint64_t offset,
                     std::size_t max_bytes, std::string* out);

/// The standby side of the replication link. Owned by the serve daemon
/// when --standby-of is set; drives (re)connection, applies streamed
/// journal bytes and trace snapshots into the local state dir, acks
/// durable high-water marks, and tracks how long the primary has been
/// silent so the daemon can decide to auto-promote.
class StandbyLink {
 public:
  struct Options {
    util::Endpoint primary;
    std::string state_dir;
    /// Reconnect backoff after a failed dial or a dropped link, ms.
    double backoff_ms = 250.0;
    /// The epoch this standby believes in at start (from the epoch
    /// file / journal stamps). A primary acking a *lower* epoch is
    /// deposed and is refused.
    std::uint64_t epoch = 1;
  };

  StandbyLink(const Options& options, std::ostream& log);
  ~StandbyLink();
  StandbyLink(const StandbyLink&) = delete;
  StandbyLink& operator=(const StandbyLink&) = delete;

  /// The socket to poll, or -1 while between reconnect attempts.
  int fd() const { return fd_; }
  /// POLLOUT while a nonblocking connect is in flight, else POLLIN.
  short poll_events() const;
  /// Hello'd and streaming.
  bool connected() const { return fd_ >= 0 && helloed_; }

  /// Highest epoch adopted from the primary (>= options.epoch). The
  /// epoch file is persisted whenever this grows.
  std::uint64_t epoch() const { return epoch_; }

  /// Milliseconds since the primary was last heard from (any frame, or
  /// link construction when it never connected). The daemon's
  /// --promote-after-ms auto-promotion triggers on this.
  double silence_ms() const;

  /// Drives dial / backoff / hello; call every poll-loop tick.
  void tick();
  /// Handles a readable (or connect-completed) fd; call when poll fires.
  void on_pollable();
  /// Severs the link (promotion / shutdown) and closes every cached
  /// journal handle so the promoted daemon reopens them fresh.
  void close_link();

  /// Cumulative counters, for logs and tests.
  long frames_applied() const { return frames_applied_; }
  long bytes_applied() const { return bytes_applied_; }
  long resyncs() const { return resyncs_; }
  long rejected() const { return rejected_; }
  long reconnects() const { return reconnects_; }

 private:
  struct JournalSlot;

  void drop_link(const std::string& why);
  void start_dial();
  void send_hello();
  bool send_frame(char tag, const std::string& payload);
  void handle_frame(const robust::WireFrame& frame);
  void handle_trace(const std::string& payload);
  void handle_journal(const std::string& payload);
  void handle_resync(const std::string& payload);
  void adopt_epoch(std::uint64_t epoch);
  bool check_epoch(std::uint64_t frame_epoch, const char* what);
  JournalSlot* slot_for(const std::string& hash);
  void ack(const std::string& hash, std::uint64_t offset);
  void touch();

  Options opt_;
  std::ostream& log_;
  int fd_ = -1;
  bool connecting_ = false;
  bool helloed_ = false;
  std::uint64_t epoch_ = 0;
  robust::FrameStream stream_;
  double last_heard_ms_ = 0.0;   // monotonic, set by touch()
  double next_dial_ms_ = 0.0;    // monotonic, backoff gate
  long frames_applied_ = 0;
  long bytes_applied_ = 0;
  long resyncs_ = 0;
  long rejected_ = 0;
  long reconnects_ = 0;
  std::map<std::string, std::unique_ptr<JournalSlot>> journals_;
};

}  // namespace powerlim::serve
