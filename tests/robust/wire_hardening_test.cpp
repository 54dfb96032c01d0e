// Hostile-input hardening for the wire protocol (the distributed
// sweep's attack surface): a malicious or corrupted peer must cost at
// most its own connection. Length prefixes are bounded *before* any
// allocation, headers are bounded in size, torn frames poison the
// stream permanently, and every malformed shape maps to a clean
// wire-malformed classification - never a crash, never an OOM, never a
// partially-trusted frame.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "robust/journal.h"
#include "robust/status.h"
#include "robust/wire.h"
#include "util/rng.h"

namespace powerlim::robust {
namespace {

std::string frame_bytes(char tag, const std::string& payload) {
  const std::string f = encode_wire_frame(tag, payload);
  EXPECT_FALSE(f.empty());
  return f;
}

TEST(WireHardening, HostileLengthPrefixRejectedBeforeAllocation) {
  // A 2^60-byte claimed payload must poison the stream immediately -
  // not wait for (or try to buffer) an exabyte that will never arrive.
  FrameStream stream;
  stream.feed("W R 00000000 1152921504606846976\n");
  WireFrame f;
  EXPECT_EQ(stream.next(&f), WireDecode::kCorrupt);
  EXPECT_TRUE(stream.poisoned());
  EXPECT_NE(stream.last_error().find("hostile length prefix"),
            std::string::npos);
  // Nothing payload-sized was buffered.
  EXPECT_EQ(stream.buffered(), 0u);
}

TEST(WireHardening, LengthJustOverCeilingPoisons) {
  FrameStream stream;
  stream.feed("W R 00000000 " + std::to_string(kMaxWirePayload + 1) + "\n");
  WireFrame f;
  EXPECT_EQ(stream.next(&f), WireDecode::kCorrupt);
  EXPECT_TRUE(stream.poisoned());
}

TEST(WireHardening, OversizeWriteRefusedWithWireMalformed) {
  // The sender-side twin of the ceiling: powerlim never *emits* a frame
  // the peer would reject. encode returns empty, write returns the
  // typed status without touching the fd (-1 would EBADF otherwise).
  std::string huge(kMaxWirePayload + 1, 'x');
  EXPECT_TRUE(encode_wire_frame('R', huge).empty());
  const Status st = write_wire_frame(-1, 'R', huge);
  EXPECT_EQ(st.code(), StatusCode::kWireMalformed);
  EXPECT_NE(st.message().find("payload ceiling"), std::string::npos);
}

TEST(WireHardening, HeaderWithoutNewlinePoisonsPastCeiling) {
  // A peer that streams garbage with no newline cannot make the decoder
  // buffer forever waiting for a header terminator.
  FrameStream stream;
  std::string garbage(kMaxWireHeader + 1, 'A');
  stream.feed(garbage);
  WireFrame f;
  EXPECT_EQ(stream.next(&f), WireDecode::kCorrupt);
  EXPECT_TRUE(stream.poisoned());
  // Under the ceiling with no newline yet: still waiting, not corrupt.
  FrameStream patient;
  patient.feed("W R 0000");
  EXPECT_EQ(patient.next(&f), WireDecode::kEmpty);
  EXPECT_FALSE(patient.poisoned());
}

TEST(WireHardening, PoisonIsPermanent) {
  // After a torn frame there is no trustworthy boundary: even a pristine
  // frame fed afterwards must be refused.
  FrameStream stream;
  stream.feed("not a header\n");
  WireFrame f;
  EXPECT_EQ(stream.next(&f), WireDecode::kCorrupt);
  stream.feed(frame_bytes('R', "good payload"));
  EXPECT_EQ(stream.next(&f), WireDecode::kCorrupt);
  EXPECT_EQ(stream.buffered(), 0u);
}

TEST(WireHardening, CorruptPrefixFuzz) {
  // Fuzz-ish sweep: a valid frame with any single prefix byte flipped
  // must decode as kCorrupt or (for payload-only damage detected by
  // CRC) kCorrupt - never as a different intact frame.
  const std::string payload = "cap=55 attempt=0 result body text";
  const std::string good = frame_bytes('R', payload);
  util::Rng rng(2026);
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    // Flip to a random different byte (not just one bit) for variety.
    char flip = static_cast<char>(rng.uniform(1.0, 255.0));
    if (flip == bad[i]) flip ^= 0x1;
    bad[i] = flip;
    WireFrame f;
    const WireDecode d = decode_wire_frame(bad, &f);
    if (d == WireDecode::kOk || d == WireDecode::kTrailing) {
      // The only survivable mutation is the tag byte itself (CRC covers
      // the payload, not the tag) - and then the payload must be intact.
      EXPECT_EQ(i, 2u) << "byte " << i << " flip silently accepted";
      EXPECT_EQ(f.payload, payload);
    }
  }
}

TEST(WireHardening, TruncationAtEveryBoundaryIsNeverOk) {
  // Every strict prefix of a valid frame is kEmpty (still waiting) or
  // kCorrupt in the one-shot decoder - never a successful decode.
  const std::string good = frame_bytes('R', "payload bytes here");
  for (std::size_t n = 0; n < good.size(); ++n) {
    WireFrame f;
    const WireDecode d = decode_wire_frame(good.substr(0, n), &f);
    EXPECT_NE(d, WireDecode::kOk) << "prefix " << n;
    EXPECT_NE(d, WireDecode::kTrailing) << "prefix " << n;
  }
}

TEST(WireHardening, DribbledStreamReassemblesMultipleFrames) {
  // TCP delivers arbitrary chunk boundaries; feeding one byte at a time
  // must produce exactly the frames that were sent, in order.
  const std::string wire = frame_bytes('R', "first result") +
                           frame_bytes('S', "schedule artifact\nline 2\n") +
                           frame_bytes('H', "");
  FrameStream stream;
  std::vector<WireFrame> got;
  for (char c : wire) {
    stream.feed(std::string(1, c));
    WireFrame f;
    while (stream.next(&f) == WireDecode::kOk) got.push_back(f);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].tag, 'R');
  EXPECT_EQ(got[0].payload, "first result");
  EXPECT_EQ(got[1].tag, 'S');
  EXPECT_EQ(got[1].payload, "schedule artifact\nline 2\n");
  EXPECT_EQ(got[2].tag, 'H');
  EXPECT_TRUE(got[2].payload.empty());
  EXPECT_EQ(stream.buffered(), 0u);
}

TEST(WireHardening, DecodeFramesHandlesResultPlusSolution) {
  // The worker pipe ships 'R' then 'S' in one drain; the batch decoder
  // must return both, and flag a torn third frame as kTrailing.
  const std::string two =
      frame_bytes('R', "entry") + frame_bytes('S', "schedule");
  std::vector<WireFrame> frames;
  EXPECT_EQ(decode_wire_frames(two, &frames), WireDecode::kOk);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].tag, 'R');
  EXPECT_EQ(frames[1].tag, 'S');

  const std::string torn = two + "W H 00";
  EXPECT_EQ(decode_wire_frames(torn, &frames), WireDecode::kTrailing);
  EXPECT_EQ(frames.size(), 2u);

  const std::string poisoned_tail = two + "garbage\n";
  EXPECT_EQ(decode_wire_frames(poisoned_tail, &frames), WireDecode::kCorrupt);
}

TEST(WireHardening, CustomCeilingIsHonored) {
  // The stream's ceiling is configurable (tests use tiny ones); frames
  // under it pass, frames over it poison.
  FrameStream small(16);
  small.feed(frame_bytes('R', "tiny"));
  WireFrame f;
  EXPECT_EQ(small.next(&f), WireDecode::kOk);
  small.feed(frame_bytes('R', std::string(17, 'x')));
  EXPECT_EQ(small.next(&f), WireDecode::kCorrupt);
  EXPECT_TRUE(small.poisoned());
}

TEST(WireHardening, MaxFrameBytesBoundsEveryEncodableFrame) {
  // kMaxFrameBytes is the shared client/server buffer ceiling: any frame
  // encode_wire_frame will produce must fit under it, and it must be
  // derived from (not merely near) the header + payload ceilings so the
  // three constants cannot drift apart.
  EXPECT_EQ(kMaxFrameBytes, kMaxWireHeader + 1 + kMaxWirePayload);
  // A worst-case real frame (maximal payload) stays under the ceiling.
  const std::string biggest = encode_wire_frame('R', std::string(1024, 'x'));
  ASSERT_FALSE(biggest.empty());
  const std::size_t header_overhead = biggest.size() - 1024;
  EXPECT_LE(header_overhead + kMaxWirePayload, kMaxFrameBytes);
}

TEST(WireHardening, ReplFrameTagMutationFuzzMatrix) {
  // The replication link ("powerlimd-repl v1") rides this same framing,
  // so the mutation matrix must cover its tags and payload shapes too: a
  // deposed or compromised primary flipping bytes in hello/journal/ack/
  // heartbeat frames must never produce a *different* intact frame. The
  // payloads here mirror the repl codecs (serve/protocol.h) without
  // linking them - at this layer only the framing contract matters.
  const struct {
    char tag;
    std::string payload;
  } repl_corpus[] = {
      {'H', "powerlimd-repl v1\nschema=7 proto=2 epoch=3\n"
            "mark deadbeef 4096 a1b2c3d4\n"},
      {'h', "ok epoch=3"},
      {'G', "hash=deadbeef\npowerlim-trace v1\nranks 2\n"},
      {'J', std::string("hash=deadbeef off=20 epoch=3\nR 00ff 4\n\0\1\2\3\n",
                        43)},
      {'k', "hash=deadbeef off=4096 epoch=3"},
      {'K', "epoch=3"},
      {'Y', "hash=deadbeef\njournal history diverged"},
  };
  util::Rng rng(2027);
  for (const auto& c : repl_corpus) {
    const std::string good = frame_bytes(c.tag, c.payload);
    for (std::size_t i = 0; i < good.size(); ++i) {
      std::string bad = good;
      char flip = static_cast<char>(rng.uniform(1.0, 255.0));
      if (flip == bad[i]) flip ^= 0x1;
      bad[i] = flip;
      WireFrame f;
      const WireDecode d = decode_wire_frame(bad, &f);
      if (d == WireDecode::kOk || d == WireDecode::kTrailing) {
        // Two mutations may survive: the tag byte itself (the CRC
        // covers the payload, not the tag - the repl dispatcher's
        // per-tag decoder refuses the payload cleanly), and a header
        // separator flipped to *different whitespace* (scanf-identical,
        // so the frame decodes to exactly the same message). Either
        // way the payload must be byte-intact.
        const bool tag_flip = (i == 2);
        const bool whitespace_flip =
            bad[i] == '\t' || bad[i] == '\v' || bad[i] == '\f' ||
            bad[i] == '\r' || bad[i] == '\n' || bad[i] == ' ';
        EXPECT_TRUE(tag_flip || whitespace_flip)
            << "tag '" << c.tag << "' byte " << i
            << " flip silently accepted";
        if (!tag_flip) {
          EXPECT_EQ(f.tag, c.tag);
        }
        EXPECT_EQ(f.payload, c.payload);
      }
    }
    // Streamed truncation: every strict prefix of the frame is still
    // waiting, never an intact decode (a half-received journal frame
    // must not apply).
    for (std::size_t n : {std::size_t{0}, good.size() / 2, good.size() - 1}) {
      FrameStream stream;
      stream.feed(good.substr(0, n));
      WireFrame f;
      EXPECT_EQ(stream.next(&f), WireDecode::kEmpty)
          << "tag '" << c.tag << "' prefix " << n;
    }
  }
}

TEST(WireHardening, CrcZeroLengthAndBinaryPayloads) {
  // Edge payloads: empty, all-zero bytes, and bytes that look like
  // embedded frame headers must all round-trip exactly.
  for (const std::string& payload :
       {std::string(), std::string(64, '\0'),
        std::string("W R deadbeef 5\nfake embedded frame")}) {
    WireFrame f;
    ASSERT_EQ(decode_wire_frame(frame_bytes('R', payload), &f),
              WireDecode::kOk);
    EXPECT_EQ(f.payload, payload);
  }
}

}  // namespace
}  // namespace powerlim::robust
