// Hostile-primary tests for the StandbyLink: the standby half of
// "powerlimd-repl v1" is a trust boundary (a compromised or deposed
// primary speaks it), so every class of bad frame must be refused
// without applying anything - corrupt journal bytes, stale epochs,
// hostile length prefixes, path-escape hashes - and the standby must
// recover by resyncing from its own durable ack mark, never by
// trusting the peer's claims about what it holds.
//
// The "primary" here is an in-test listening socket the test scripts
// byte-by-byte; the StandbyLink under test is driven exactly the way
// the serve daemon drives it (tick / poll / on_pollable).
#include <poll.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "journal_records.h"
#include "robust/journal.h"
#include "robust/wire.h"
#include "scratch_dir.h"
#include "serve/protocol.h"
#include "serve/repl.h"
#include "util/socket_io.h"

namespace powerlim::serve {
namespace {

/// A new state directory inside the test's own scratch directory.
std::string fresh_dir(const ScratchDir& scratch, const std::string& name) {
  const std::string dir = scratch.path(name);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// One poll-loop iteration, exactly as the daemon drives the link.
void pump(StandbyLink& link, int wait_ms) {
  link.tick();
  if (link.fd() < 0) {
    if (wait_ms > 0) ::usleep(static_cast<unsigned>(wait_ms) * 1000u);
    return;
  }
  struct pollfd p = {link.fd(), link.poll_events(), 0};
  if (::poll(&p, 1, wait_ms) > 0 && p.revents != 0) link.on_pollable();
}

template <typename Pred>
bool pump_until(StandbyLink& link, Pred pred, int timeout_ms) {
  for (int waited = 0; waited <= timeout_ms; waited += 5) {
    if (pred()) return true;
    pump(link, 5);
  }
  return pred();
}

/// The scripted "primary": a listener the test speaks raw frames on.
struct FakePrimary {
  int listen_fd = -1;
  int conn = -1;
  int port = 0;
  robust::FrameStream stream;

  FakePrimary() {
    std::string error;
    listen_fd = util::listen_tcp("127.0.0.1", 0, &error);
    EXPECT_GE(listen_fd, 0) << error;
    port = util::bound_port(listen_fd);
  }
  ~FakePrimary() {
    if (conn >= 0) ::close(conn);
    if (listen_fd >= 0) ::close(listen_fd);
  }

  util::Endpoint endpoint() const { return {"127.0.0.1", port}; }

  bool accept_conn(double timeout_s) {
    if (conn >= 0) ::close(conn);
    stream = robust::FrameStream();
    util::IoStatus status;
    conn = util::accept_timeout(listen_fd, timeout_s, &status);
    return conn >= 0;
  }

  void send(char tag, const std::string& payload) {
    const std::string bytes = robust::encode_wire_frame(tag, payload);
    ASSERT_FALSE(bytes.empty());
    ASSERT_EQ(util::send_all(conn, bytes.data(), bytes.size(), 5.0),
              util::IoStatus::kOk);
  }

  void send_raw(const std::string& bytes) {
    ASSERT_EQ(util::send_all(conn, bytes.data(), bytes.size(), 5.0),
              util::IoStatus::kOk);
  }

  /// Next intact frame from the standby, pumping the link while waiting
  /// (its sends must be able to proceed).
  bool read_frame(StandbyLink& link, robust::WireFrame* out,
                  int timeout_ms) {
    for (int waited = 0; waited < timeout_ms; waited += 10) {
      const robust::WireDecode d = stream.next(out);
      if (d == robust::WireDecode::kOk) return true;
      if (d == robust::WireDecode::kCorrupt) return false;
      pump(link, 0);
      struct pollfd p = {conn, POLLIN, 0};
      if (::poll(&p, 1, 10) > 0 && (p.revents & (POLLIN | POLLHUP))) {
        std::string bytes;
        const util::IoStatus st = util::recv_some(conn, &bytes);
        if (st == util::IoStatus::kDisconnected) return false;
        if (st == util::IoStatus::kOk) stream.feed(bytes);
      }
    }
    return false;
  }
};

/// Full dial + hello exchange; the fake primary acks with `epoch`.
bool handshake(FakePrimary& fp, StandbyLink& link, std::uint64_t epoch,
               ReplHello* hello_out = nullptr) {
  if (!pump_until(link, [&] { return link.fd() >= 0; }, 5000)) return false;
  if (!fp.accept_conn(5.0)) return false;
  robust::WireFrame hello;
  if (!fp.read_frame(link, &hello, 5000)) return false;
  if (hello.tag != kTagReplHello) return false;
  if (hello_out != nullptr) {
    std::string error;
    if (!decode_repl_hello(hello.payload, hello_out, &error)) return false;
  }
  fp.send(kTagReplHelloAck, encode_repl_hello_ack({true, epoch, ""}));
  return pump_until(link, [&] { return link.connected(); }, 5000);
}

/// Byte-exact replication material: one proven record appended to a
/// real journal, returned as the bytes after the header (exactly what a
/// primary streams in a 'J' frame).
std::string record_frame_bytes(const ScratchDir& scratch) {
  const std::string path = scratch.path("repl_host_src.journal");
  std::remove(path.c_str());
  auto j = robust::SweepJournal::open(path);
  EXPECT_TRUE(j.ok());
  robust::JournalEntry e;
  e.job_cap_watts = 50;
  e.verdict = robust::StatusCode::kOk;
  e.bound_seconds = 1.25;
  e.report_json = report_json(kPassedCertificate);
  EXPECT_TRUE(j.value().append(e).ok());
  return slurp(path).substr(robust::journal_header_bytes());
}

StandbyLink::Options link_options(const FakePrimary& fp,
                                  const std::string& dir,
                                  std::uint64_t epoch = 1) {
  StandbyLink::Options opt;
  opt.primary = fp.endpoint();
  opt.state_dir = dir;
  opt.backoff_ms = 20;
  opt.epoch = epoch;
  return opt;
}

TEST(ReplHostility, CorruptJournalBytesRejectedThenResyncFromAckMark) {
  const ScratchDir scratch("repl_host");
  ASSERT_TRUE(scratch.ok());
  const std::string dir = fresh_dir(scratch, "repl_host_corrupt");
  const std::uint64_t hdr = robust::journal_header_bytes();
  const std::string good = record_frame_bytes(scratch);
  std::string bad = good;
  bad[bad.size() / 2] ^= 0x20;  // CRC-damaged record inside the frame

  FakePrimary fp;
  std::ostringstream log;
  StandbyLink link(link_options(fp, dir), log);
  ASSERT_TRUE(handshake(fp, link, 1));

  fp.send(kTagReplJournal, encode_repl_journal({"ab", hdr, 1, bad}));
  EXPECT_TRUE(pump_until(link, [&] { return link.rejected() >= 1; }, 5000))
      << log.str();
  EXPECT_FALSE(link.connected());
  EXPECT_EQ(link.frames_applied(), 0);
  // Nothing of the corrupt frame landed: the file is header-only.
  EXPECT_EQ(slurp(journal_path(dir, "ab")).size(), hdr);

  // The standby redials on its own and re-marks from the durable ack
  // mark; streaming the good bytes from exactly there succeeds.
  ReplHello hello;
  ASSERT_TRUE(handshake(fp, link, 1, &hello));
  ASSERT_EQ(hello.marks.size(), 1u);
  EXPECT_EQ(hello.marks[0].hash, "ab");
  EXPECT_EQ(hello.marks[0].offset, hdr);

  fp.send(kTagReplJournal, encode_repl_journal({"ab", hdr, 1, good}));
  robust::WireFrame frame;
  ASSERT_TRUE(fp.read_frame(link, &frame, 5000));
  ASSERT_EQ(frame.tag, kTagReplAck);
  ReplAck ack;
  ASSERT_TRUE(decode_repl_ack(frame.payload, &ack));
  EXPECT_EQ(ack.hash, "ab");
  EXPECT_EQ(ack.offset, hdr + good.size());
  EXPECT_EQ(slurp(journal_path(dir, "ab")).substr(hdr), good);
  EXPECT_EQ(link.frames_applied(), 1);
}

TEST(ReplHostility, WrongOffsetReAcksDurableMarkInsteadOfApplying) {
  const ScratchDir scratch("repl_host");
  ASSERT_TRUE(scratch.ok());
  const std::string dir = fresh_dir(scratch, "repl_host_offset");
  const std::uint64_t hdr = robust::journal_header_bytes();
  const std::string good = record_frame_bytes(scratch);

  FakePrimary fp;
  std::ostringstream log;
  StandbyLink link(link_options(fp, dir), log);
  ASSERT_TRUE(handshake(fp, link, 1));

  // A frame claiming bytes from far past the standby's durable size
  // must not apply; the standby answers with its real high-water mark
  // (the primary's cue to rewind) and the link survives.
  fp.send(kTagReplJournal, encode_repl_journal({"ab", hdr + 999, 1, good}));
  robust::WireFrame frame;
  ASSERT_TRUE(fp.read_frame(link, &frame, 5000));
  ASSERT_EQ(frame.tag, kTagReplAck);
  ReplAck ack;
  ASSERT_TRUE(decode_repl_ack(frame.payload, &ack));
  EXPECT_EQ(ack.offset, hdr) << "re-ack must report the durable mark";
  EXPECT_EQ(link.frames_applied(), 0);
  EXPECT_TRUE(link.connected());

  // Rewinding to the acked mark applies cleanly.
  fp.send(kTagReplJournal, encode_repl_journal({"ab", hdr, 1, good}));
  ASSERT_TRUE(fp.read_frame(link, &frame, 5000));
  ASSERT_TRUE(decode_repl_ack(frame.payload, &ack));
  EXPECT_EQ(ack.offset, hdr + good.size());
  EXPECT_EQ(link.frames_applied(), 1);
}

TEST(ReplHostility, StaleEpochFramesRefusedAfterAdoptingNewer) {
  const ScratchDir scratch("repl_host");
  ASSERT_TRUE(scratch.ok());
  const std::string dir = fresh_dir(scratch, "repl_host_epoch");
  const std::uint64_t hdr = robust::journal_header_bytes();
  FakePrimary fp;
  std::ostringstream log;
  StandbyLink link(link_options(fp, dir), log);

  // Adopt epoch 5 from the hello ack; it is persisted immediately.
  ASSERT_TRUE(handshake(fp, link, 5));
  EXPECT_EQ(link.epoch(), 5u);
  EXPECT_EQ(load_epoch_file(dir), 5u);

  // A deposed primary heartbeating under epoch 3 is refused and severed.
  fp.send(kTagReplHeartbeat, encode_repl_heartbeat(3));
  EXPECT_TRUE(pump_until(link, [&] { return link.rejected() >= 1; }, 5000))
      << log.str();
  EXPECT_FALSE(link.connected());
  EXPECT_EQ(link.epoch(), 5u) << "a stale frame must never lower the epoch";
  EXPECT_EQ(load_epoch_file(dir), 5u);

  // Same fence on journal bytes: stale-epoch 'J' applies nothing (not
  // even the journal file is created).
  ASSERT_TRUE(handshake(fp, link, 5));
  fp.send(kTagReplJournal,
          encode_repl_journal({"ab", hdr, 3, record_frame_bytes(scratch)}));
  EXPECT_TRUE(pump_until(link, [&] { return link.rejected() >= 2; }, 5000))
      << log.str();
  EXPECT_FALSE(link.connected());
  EXPECT_EQ(link.frames_applied(), 0);
  EXPECT_TRUE(journal_hashes(dir).empty());

  // And a "primary" whose hello ack itself is behind is never followed.
  ASSERT_FALSE(handshake(fp, link, 4));
  EXPECT_GE(link.rejected(), 3);
  EXPECT_EQ(link.epoch(), 5u);
}

TEST(ReplHostility, HostileLengthPrefixPoisonsBeforeAllocation) {
  const ScratchDir scratch("repl_host");
  ASSERT_TRUE(scratch.ok());
  const std::string dir = fresh_dir(scratch, "repl_host_length");
  FakePrimary fp;
  std::ostringstream log;
  StandbyLink link(link_options(fp, dir), log);
  ASSERT_TRUE(handshake(fp, link, 1));

  // A well-formed header claiming a petabyte payload: the FrameStream
  // refuses before buffering toward the claimed length, the link drops,
  // and nothing is applied.
  fp.send_raw("W J deadbeef 999999999999999\nx");
  EXPECT_TRUE(pump_until(link, [&] { return link.rejected() >= 1; }, 5000))
      << log.str();
  EXPECT_FALSE(link.connected());
  EXPECT_EQ(link.frames_applied(), 0);
  EXPECT_NE(log.str().find("stream poisoned"), std::string::npos)
      << log.str();
  EXPECT_TRUE(journal_hashes(dir).empty());
}

TEST(ReplHostility, PathEscapeHashesRejectedOnEveryFrameKind) {
  const ScratchDir scratch("repl_host");
  ASSERT_TRUE(scratch.ok());
  const std::string dir = fresh_dir(scratch, "repl_host_hash");
  const std::uint64_t hdr = robust::journal_header_bytes();
  FakePrimary fp;
  std::ostringstream log;
  StandbyLink link(link_options(fp, dir), log);

  // decode_* accept the hash as an opaque token; the standby's own
  // valid_trace_hash gate must reject it before any path is formed.
  ASSERT_TRUE(handshake(fp, link, 1));
  fp.send(kTagReplTrace, encode_repl_trace({"../../etc/cron.d", "owned\n"}));
  EXPECT_TRUE(pump_until(link, [&] { return link.rejected() >= 1; }, 5000));
  EXPECT_FALSE(link.connected());

  ASSERT_TRUE(handshake(fp, link, 1));
  fp.send(kTagReplJournal,
          encode_repl_journal({"../../etc/cron.d", hdr, 1, "x"}));
  EXPECT_TRUE(pump_until(link, [&] { return link.rejected() >= 2; }, 5000));
  EXPECT_FALSE(link.connected());

  ASSERT_TRUE(handshake(fp, link, 1));
  fp.send(kTagReplResync, encode_repl_resync({"../../etc/cron.d", "why"}));
  EXPECT_TRUE(pump_until(link, [&] { return link.rejected() >= 3; }, 5000));
  EXPECT_FALSE(link.connected());

  // Nothing escaped the state dir and nothing landed inside it either.
  EXPECT_TRUE(journal_hashes(dir).empty());
  EXPECT_FALSE(std::filesystem::exists(
      std::filesystem::path(dir).parent_path() / "etc"));
}

TEST(ReplHostility, ResyncQuarantinesAndReAcksFromFreshHeader) {
  const ScratchDir scratch("repl_host");
  ASSERT_TRUE(scratch.ok());
  const std::string dir = fresh_dir(scratch, "repl_host_resync");
  const std::uint64_t hdr = robust::journal_header_bytes();
  const std::string good = record_frame_bytes(scratch);

  FakePrimary fp;
  std::ostringstream log;
  StandbyLink link(link_options(fp, dir), log);
  ASSERT_TRUE(handshake(fp, link, 1));

  // Build up replicated state first.
  fp.send(kTagReplJournal, encode_repl_journal({"ab", hdr, 1, good}));
  robust::WireFrame frame;
  ASSERT_TRUE(fp.read_frame(link, &frame, 5000));

  // The primary declares our history divergent: the copy is quarantined
  // (never deleted - it may be the only copy of a lost epoch) and the
  // standby re-acks from a fresh header-only file.
  fp.send(kTagReplResync,
          encode_repl_resync({"ab", "journal history diverged"}));
  ASSERT_TRUE(fp.read_frame(link, &frame, 5000));
  ASSERT_EQ(frame.tag, kTagReplAck);
  ReplAck ack;
  ASSERT_TRUE(decode_repl_ack(frame.payload, &ack));
  EXPECT_EQ(ack.hash, "ab");
  EXPECT_EQ(ack.offset, hdr);
  EXPECT_EQ(link.resyncs(), 1);
  EXPECT_TRUE(link.connected());
  EXPECT_EQ(slurp(journal_path(dir, "ab") + ".divergent").substr(hdr), good)
      << "the divergent copy must be quarantined, not destroyed";
  EXPECT_EQ(slurp(journal_path(dir, "ab")).size(), hdr);
}

TEST(ReplHostility, UnexpectedClientTagSeversTheLink) {
  const ScratchDir scratch("repl_host");
  ASSERT_TRUE(scratch.ok());
  const std::string dir = fresh_dir(scratch, "repl_host_tag");
  FakePrimary fp;
  std::ostringstream log;
  StandbyLink link(link_options(fp, dir), log);
  ASSERT_TRUE(handshake(fp, link, 1));

  // A client-protocol frame has no business on a repl link.
  fp.send(kTagRow, "id=x\nwhatever");
  EXPECT_TRUE(pump_until(link, [&] { return !link.connected(); }, 5000))
      << log.str();
  EXPECT_NE(log.str().find("unexpected frame"), std::string::npos)
      << log.str();
  EXPECT_EQ(link.frames_applied(), 0);
}

}  // namespace
}  // namespace powerlim::serve
