// CRC-framed, length-prefixed pipe protocol between the sweep
// supervisor and its forked workers.
//
// A worker ships exactly one result frame up its pipe before _exit():
//
//   W <tag> <crc32-hex> <payload-bytes>\n<payload>
//
// mirroring the sweep journal's framing (same CRC-32, same hex/length
// header) so a frame is self-checking: the parent accepts a result only
// when the header parses, the length matches, and the CRC verifies.
// Anything else - a worker SIGSEGVing mid-write, an OOM kill truncating
// the payload, stray bytes from a corrupted child - is classified as a
// protocol error and handled like a crash (retry, then degrade), never
// trusted as data.
//
// All IO retries EINTR (util::posix_io): the supervisor takes SIGCHLD
// and deadline signals constantly, and a short read must not masquerade
// as corruption.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "robust/status.h"

namespace powerlim::robust {

/// One framed message. On a worker pipe: 'R' = per-cap result (payload
/// is a serialized JournalEntry, see robust/journal.h), optionally
/// followed by 'S' = solution artifact. powerlimd's socket protocol
/// (serve/protocol.h) uses the same framing with its own tags.
struct WireFrame {
  char tag = 0;
  std::string payload;
};

/// Hard ceiling on one frame's payload. A length prefix above it is
/// hostile or corrupt by definition (the largest real payload - a
/// serialized 100k-task trace - is a few MiB) and is rejected *before*
/// any allocation, so a malicious peer cannot OOM the scheduler with a
/// 16-exabyte header.
inline constexpr std::size_t kMaxWirePayload = 64u << 20;  // 64 MiB

/// Ceiling on the frame header line ("W <tag> <crc8> <len>\n"): bytes
/// without a newline past this cannot be a valid header.
inline constexpr std::size_t kMaxWireHeader = 64;

/// Whole-frame ceiling: the most bytes one intact frame can occupy
/// (header line + newline + maximal payload). Both sides of every
/// socket protocol share this bound - a reader may buffer at most this
/// much per incomplete frame, and a connection whose undecoded backlog
/// exceeds it is hostile or corrupt and must be dropped. Keeping the
/// constant here (not per-daemon) is what makes the client and server
/// ceilings provably identical.
inline constexpr std::size_t kMaxFrameBytes =
    kMaxWireHeader + 1 + kMaxWirePayload;

/// Writes one frame to `fd` as a single EINTR-retried write. Pipes are
/// unidirectional with one reader, so no interleaving is possible.
/// Payloads over kMaxWirePayload are refused with kWireMalformed (the
/// peer would reject them anyway).
[[nodiscard]] Status write_wire_frame(int fd, char tag, const std::string& payload);

/// The frame as bytes (header + payload), for callers that own the
/// transport - e.g. socket sends with timeouts. Oversized payloads
/// return an empty string.
std::string encode_wire_frame(char tag, const std::string& payload);

/// Result of decoding a worker's buffered output.
enum class WireDecode {
  kOk,        // one intact frame decoded
  kEmpty,     // no bytes at all (worker died before writing)
  kCorrupt,   // bytes present but torn/CRC-mismatched/malformed
  kTrailing,  // intact frame followed by unexpected extra bytes
};

const char* to_string(WireDecode d);

/// Decodes the single frame a worker's pipe delivered (the parent reads
/// to EOF first; workers write exactly one frame). Never throws.
WireDecode decode_wire_frame(const std::string& bytes, WireFrame* out);

/// Decodes a *sequence* of frames (the remote worker ships 'R' then an
/// optional 'S' artifact on one pipe). kOk requires at least one frame
/// and every byte consumed; kTrailing means an intact prefix of frames
/// followed by a torn partial one.
WireDecode decode_wire_frames(const std::string& bytes,
                              std::vector<WireFrame>* out);

/// Drains `fd` to EOF into `*out`, retrying EINTR. Returns false on a
/// real read error.
bool drain_fd(int fd, std::string* out);

/// Incremental frame decoder over a byte stream (TCP). feed() appends
/// received bytes; next() pops the earliest complete frame. The stream
/// is *unresynchronizable* by design: any malformed header, hostile
/// length prefix (> max_payload, rejected before allocation), or CRC
/// mismatch poisons the stream permanently - after a torn frame there is
/// no trustworthy boundary to resume from, so the connection must be
/// dropped and the job retried elsewhere.
class FrameStream {
 public:
  explicit FrameStream(std::size_t max_payload = kMaxWirePayload)
      : max_payload_(max_payload) {}

  void feed(const std::string& bytes);

  /// kOk: *out holds the next frame. kEmpty: no complete frame buffered
  /// yet (wait for more bytes). kCorrupt: the stream is poisoned (see
  /// last_error()).
  WireDecode next(WireFrame* out);

  bool poisoned() const { return poisoned_; }
  const std::string& last_error() const { return error_; }
  /// Bytes buffered but not yet decoded.
  std::size_t buffered() const { return buffer_.size(); }

 private:
  void poison(const std::string& why);

  std::size_t max_payload_;
  std::string buffer_;
  bool poisoned_ = false;
  std::string error_;
};

}  // namespace powerlim::robust
