// Codec round-trips and hostile-input rejection for the powerlimd v2
// additions: epoch/role hello acks, promote acks, and every
// "powerlimd-repl v1" frame. Decoders must round-trip exactly, refuse
// malformed payloads outright, and never crash on mutated bytes - the
// replication link is a trust boundary (a compromised peer speaks it),
// so payload parsing gets the same fuzz treatment as the wire framing.
#include <sys/stat.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "scratch_dir.h"
#include "serve/repl.h"
#include "util/rng.h"

namespace powerlim::serve {
namespace {

TEST(ReplProtocol, HelloAckRoundTripsEpochAndRole) {
  HelloAck ack;
  ack.ok = true;
  ack.epoch = 7;
  ack.role = "standby";
  HelloAck back;
  ASSERT_TRUE(decode_hello_ack(encode_hello_ack(ack), &back));
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.epoch, 7u);
  EXPECT_EQ(back.role, "standby");

  HelloAck refused;
  refused.ok = false;
  refused.error = "schema skew: daemon=7 client=6";
  ASSERT_TRUE(decode_hello_ack(encode_hello_ack(refused), &back));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, "schema skew: daemon=7 client=6");
}

TEST(ReplProtocol, PromoteAckRoundTrips) {
  PromoteAck ack;
  ack.ok = true;
  ack.epoch = 3;
  PromoteAck back;
  ASSERT_TRUE(decode_promote_ack(encode_promote_ack(ack), &back));
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.epoch, 3u);

  PromoteAck refused;
  refused.ok = false;
  refused.error = "not a standby";
  ASSERT_TRUE(decode_promote_ack(encode_promote_ack(refused), &back));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, "not a standby");
}

TEST(ReplProtocol, ReplHelloRoundTripsMarks) {
  ReplHello hello;
  hello.epoch = 12;
  hello.marks.push_back({"deadbeef", 4096, 0xa1b2c3d4u});
  hello.marks.push_back({"01", 20, 0u});
  ReplHello back;
  std::string error;
  ASSERT_TRUE(decode_repl_hello(encode_repl_hello(hello), &back, &error))
      << error;
  EXPECT_EQ(back.epoch, 12u);
  ASSERT_EQ(back.marks.size(), 2u);
  EXPECT_EQ(back.marks[0].hash, "deadbeef");
  EXPECT_EQ(back.marks[0].offset, 4096u);
  EXPECT_EQ(back.marks[0].crc, 0xa1b2c3d4u);
  EXPECT_EQ(back.marks[1].hash, "01");
  EXPECT_EQ(back.marks[1].offset, 20u);
}

TEST(ReplProtocol, ReplHelloRefusesSkewAndGarbage) {
  ReplHello out;
  std::string error;
  // Client hello magic on the repl tag: not a repl peer.
  EXPECT_FALSE(decode_repl_hello(encode_hello(), &out, &error));
  EXPECT_FALSE(error.empty());
  // Tampered proto line.
  std::string skewed = encode_repl_hello({5, {}});
  const std::size_t at = skewed.find("proto=");
  ASSERT_NE(at, std::string::npos);
  skewed[at + 6] = '9';
  EXPECT_FALSE(decode_repl_hello(skewed, &out, &error));
  EXPECT_NE(error.find("proto"), std::string::npos) << error;
  EXPECT_FALSE(decode_repl_hello("", &out, &error));
  EXPECT_FALSE(decode_repl_hello("powerlimd-repl v1", &out, &error));
}

TEST(ReplProtocol, JournalFrameRoundTripsBinaryBytes) {
  ReplJournal j;
  j.hash = "cafe01";
  j.offset = 1234;
  j.epoch = 2;
  j.bytes = std::string("R 00ff \0 binary\nbytes\n", 22);
  ReplJournal back;
  ASSERT_TRUE(decode_repl_journal(encode_repl_journal(j), &back));
  EXPECT_EQ(back.hash, "cafe01");
  EXPECT_EQ(back.offset, 1234u);
  EXPECT_EQ(back.epoch, 2u);
  EXPECT_EQ(back.bytes, j.bytes);

  // Empty bytes are legal (a pure offset probe).
  j.bytes.clear();
  ASSERT_TRUE(decode_repl_journal(encode_repl_journal(j), &back));
  EXPECT_TRUE(back.bytes.empty());

  ReplJournal out;
  EXPECT_FALSE(decode_repl_journal("", &out));
  EXPECT_FALSE(decode_repl_journal("hash=ab off=x epoch=1\n", &out));
  EXPECT_FALSE(decode_repl_journal("hash=ab epoch=1\n", &out));
}

TEST(ReplProtocol, AckHeartbeatResyncTraceRoundTrip) {
  ReplAck ack{"beef", 777, 4};
  ReplAck ack_back;
  ASSERT_TRUE(decode_repl_ack(encode_repl_ack(ack), &ack_back));
  EXPECT_EQ(ack_back.hash, "beef");
  EXPECT_EQ(ack_back.offset, 777u);
  EXPECT_EQ(ack_back.epoch, 4u);

  std::uint64_t epoch = 0;
  ASSERT_TRUE(decode_repl_heartbeat(encode_repl_heartbeat(9), &epoch));
  EXPECT_EQ(epoch, 9u);
  EXPECT_FALSE(decode_repl_heartbeat("epoch=", &epoch));
  EXPECT_FALSE(decode_repl_heartbeat("bogus", &epoch));

  ReplResync rs{"beef", "journal history diverged"};
  ReplResync rs_back;
  ASSERT_TRUE(decode_repl_resync(encode_repl_resync(rs), &rs_back));
  EXPECT_EQ(rs_back.hash, "beef");
  EXPECT_EQ(rs_back.detail, "journal history diverged");

  ReplTrace tr{"beef", "powerlim-trace v1\nranks 2\n"};
  ReplTrace tr_back;
  ASSERT_TRUE(decode_repl_trace(encode_repl_trace(tr), &tr_back));
  EXPECT_EQ(tr_back.hash, "beef");
  EXPECT_EQ(tr_back.trace_text, tr.trace_text);
}

TEST(ReplProtocol, DecodersSurviveMutationFuzz) {
  // Every decoder must return false or a value on any single-byte
  // mutation - never crash, never read out of bounds. (ASan builds of
  // this test are the real assertion.)
  const std::string corpus[] = {
      encode_hello_ack({true, 3, "primary", ""}),
      encode_promote_ack({true, 3, ""}),
      encode_repl_hello({2, {{"ab", 10, 7}}}),
      encode_repl_hello_ack({true, 2, ""}),
      encode_repl_journal({"ab", 20, 2, "payload"}),
      encode_repl_ack({"ab", 20, 2}),
      encode_repl_heartbeat(2),
      encode_repl_resync({"ab", "why"}),
      encode_repl_trace({"ab", "text\n"}),
  };
  util::Rng rng(77);
  for (const std::string& good : corpus) {
    for (std::size_t i = 0; i < good.size(); ++i) {
      std::string bad = good;
      char flip = static_cast<char>(rng.uniform(0.0, 255.0));
      if (flip == bad[i]) flip ^= 0x1;
      bad[i] = flip;
      HelloAck ha;
      PromoteAck pa;
      ReplHello rh;
      ReplHelloAck rha;
      ReplJournal rj;
      ReplAck ra;
      ReplResync rr;
      ReplTrace rt;
      std::uint64_t e = 0;
      std::string err;
      (void)decode_hello_ack(bad, &ha);
      (void)decode_promote_ack(bad, &pa);
      (void)decode_repl_hello(bad, &rh, &err);
      (void)decode_repl_hello_ack(bad, &rha);
      (void)decode_repl_journal(bad, &rj);
      (void)decode_repl_ack(bad, &ra);
      (void)decode_repl_heartbeat(bad, &e);
      (void)decode_repl_resync(bad, &rr);
      (void)decode_repl_trace(bad, &rt);
    }
  }
}

TEST(ReplProtocol, TraceHashValidationBlocksPathEscape) {
  EXPECT_TRUE(valid_trace_hash("deadbeef01234567"));
  EXPECT_TRUE(valid_trace_hash("0"));
  EXPECT_FALSE(valid_trace_hash(""));
  EXPECT_FALSE(valid_trace_hash("deadbeef012345678"));  // 17 chars
  EXPECT_FALSE(valid_trace_hash("DEADBEEF"));
  EXPECT_FALSE(valid_trace_hash("../../etc/cron.d"));
  EXPECT_FALSE(valid_trace_hash("a/b"));
  EXPECT_FALSE(valid_trace_hash("a.b"));
  EXPECT_FALSE(valid_trace_hash("ab\n"));
}

TEST(ReplProtocol, EpochFileRoundTripsAndToleratesCorruption) {
  const ScratchDir scratch("repl_epoch");
  ASSERT_TRUE(scratch.ok());
  const std::string dir = scratch.path("repl_epoch_dir");
  (void)::mkdir(dir.c_str(), 0755);
  EXPECT_EQ(load_epoch_file(dir), 0u) << "absent file reads as 0";
  std::string error;
  ASSERT_TRUE(store_epoch_file(dir, 42, &error)) << error;
  EXPECT_EQ(load_epoch_file(dir), 42u);
  ASSERT_TRUE(store_epoch_file(dir, 43, &error)) << error;
  EXPECT_EQ(load_epoch_file(dir), 43u);
  // Corrupt contents read as 0, not a crash or a bogus epoch.
  {
    std::ofstream f(dir + "/epoch", std::ios::trunc);
    f << "epoch=not-a-number\n";
  }
  EXPECT_EQ(load_epoch_file(dir), 0u);
}

}  // namespace
}  // namespace powerlim::serve
