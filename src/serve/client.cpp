#include "serve/client.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <sstream>

#include "util/posix_io.h"

namespace powerlim::serve {

namespace {

using Clock = std::chrono::steady_clock;

double remaining_s(Clock::time_point end) {
  return std::chrono::duration<double>(end - Clock::now()).count();
}

}  // namespace

const char* to_string(CollectStatus s) {
  switch (s) {
    case CollectStatus::kDone:
      return "done";
    case CollectStatus::kOverloaded:
      return "overloaded";
    case CollectStatus::kRequestError:
      return "request-error";
    case CollectStatus::kTimeout:
      return "timeout";
    case CollectStatus::kDisconnected:
      return "disconnected";
  }
  return "?";
}

ServeClient::~ServeClient() { close(); }

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  stream_ = robust::FrameStream();
}

robust::Status ServeClient::connect(const util::Endpoint& server,
                                    double timeout_s) {
  close();
  std::string error;
  fd_ = util::connect_timeout(server, timeout_s, &error);
  if (fd_ < 0) {
    return {robust::StatusCode::kNetError,
            "connect " + util::to_string(server) + ": " + error};
  }
  const std::string hello = robust::encode_wire_frame(kTagHello,
                                                      encode_hello());
  if (util::send_all(fd_, hello.data(), hello.size(), timeout_s) !=
      util::IoStatus::kOk) {
    close();
    return {robust::StatusCode::kNetError, "hello send failed"};
  }
  robust::WireFrame ack;
  const robust::Status st = read_frame(&ack, timeout_s);
  if (!st.ok()) {
    close();
    return st;
  }
  HelloAck parsed;
  if (ack.tag != kTagHelloAck || !decode_hello_ack(ack.payload, &parsed)) {
    close();
    return {robust::StatusCode::kWireMalformed,
            "handshake rejected: unexpected handshake reply"};
  }
  if (!parsed.ok) {
    close();
    return {robust::StatusCode::kWireMalformed,
            "handshake rejected: " + parsed.error};
  }
  epoch_ = parsed.epoch;
  role_ = parsed.role;
  return robust::Status::Ok();
}

robust::Status ServeClient::promote(std::uint64_t* epoch_out,
                                    double timeout_s) {
  if (fd_ < 0)
    return {robust::StatusCode::kNetError, "not connected"};
  const std::string bytes = robust::encode_wire_frame(kTagPromote, "");
  if (util::send_all(fd_, bytes.data(), bytes.size(), timeout_s) !=
      util::IoStatus::kOk) {
    close();
    return {robust::StatusCode::kNetError, "promote send failed"};
  }
  robust::WireFrame frame;
  const robust::Status st = read_frame(&frame, timeout_s);
  if (!st.ok()) {
    close();
    return st;
  }
  PromoteAck ack;
  if (frame.tag != kTagPromoteAck ||
      !decode_promote_ack(frame.payload, &ack)) {
    close();
    return {robust::StatusCode::kWireMalformed,
            "unexpected promote reply"};
  }
  if (!ack.ok)
    return {robust::StatusCode::kNetError, "promote refused: " + ack.error};
  epoch_ = ack.epoch;
  role_ = "primary";
  if (epoch_out != nullptr) *epoch_out = ack.epoch;
  return robust::Status::Ok();
}

robust::Status ServeClient::submit(const ServeRequest& request) {
  if (fd_ < 0)
    return {robust::StatusCode::kNetError, "not connected"};
  const std::string payload = encode_request(request);
  if (payload.empty())
    return {robust::StatusCode::kBadInput, "malformed request"};
  const std::string bytes = robust::encode_wire_frame(kTagRequest, payload);
  if (bytes.empty())
    return {robust::StatusCode::kBadInput, "request exceeds frame ceiling"};
  if (util::send_all(fd_, bytes.data(), bytes.size(), /*timeout_s=*/30.0) !=
      util::IoStatus::kOk) {
    close();
    return {robust::StatusCode::kNetError, "request send failed"};
  }
  return robust::Status::Ok();
}

robust::Status ServeClient::read_frame(robust::WireFrame* out,
                                       double timeout_s) {
  const auto end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    switch (stream_.next(out)) {
      case robust::WireDecode::kOk:
        return robust::Status::Ok();
      case robust::WireDecode::kEmpty:
        break;
      default:
        return {robust::StatusCode::kWireMalformed, stream_.last_error()};
    }
    const double left = remaining_s(end);
    if (left <= 0.0)
      return {robust::StatusCode::kDeadlineExceeded, "reply timed out"};
    pollfd pfd{fd_, POLLIN, 0};
    const int n = util::retry_eintr([&] {
      return ::poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
    });
    if (n < 0)
      return {robust::StatusCode::kNetError, "poll failed"};
    if (n == 0) continue;
    std::string bytes;
    const util::IoStatus st = util::recv_some(fd_, &bytes);
    if (st == util::IoStatus::kDisconnected)
      return {robust::StatusCode::kNetError, "server closed the connection"};
    if (st == util::IoStatus::kError)
      return {robust::StatusCode::kNetError, "recv failed"};
    stream_.feed(bytes);
  }
}

CollectResult ServeClient::collect(const std::string& request_id,
                                   double wall_timeout_s) {
  CollectResult result;
  result.epoch = epoch_;
  result.role = role_;
  const auto end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(wall_timeout_s));
  for (;;) {
    robust::WireFrame frame;
    const robust::Status st = read_frame(&frame, remaining_s(end));
    if (!st.ok()) {
      result.status = st.code() == robust::StatusCode::kDeadlineExceeded
                          ? CollectStatus::kTimeout
                          : CollectStatus::kDisconnected;
      result.error_detail = st.message();
      return result;
    }
    switch (frame.tag) {
      case kTagRow: {
        ServeRow row;
        if (decode_row(frame.payload, &row) && row.id == request_id)
          result.rows.push_back(std::move(row));
        break;
      }
      case kTagDone: {
        ServeDone done;
        if (decode_done(frame.payload, &done) && done.id == request_id) {
          result.status = CollectStatus::kDone;
          result.done = std::move(done);
          return result;
        }
        break;
      }
      case kTagOverloaded: {
        ServeOverloaded o;
        if (decode_overloaded(frame.payload, &o) && o.id == request_id) {
          result.status = CollectStatus::kOverloaded;
          result.overloaded = std::move(o);
          return result;
        }
        break;
      }
      case kTagError: {
        std::string id, detail;
        if (decode_error(frame.payload, &id, &detail) &&
            (id == request_id || id == "-")) {
          result.status = CollectStatus::kRequestError;
          result.error_detail = detail;
          return result;
        }
        break;
      }
      default:
        result.status = CollectStatus::kDisconnected;
        result.error_detail = "unexpected frame tag";
        return result;
    }
  }
}

FailoverResult FailoverClient::request(const ServeRequest& request,
                                       double connect_timeout_s,
                                       double wall_timeout_s, int rounds,
                                       double retry_backoff_s) {
  FailoverResult out;
  std::ostringstream trail;
  const auto end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(wall_timeout_s));
  for (int round = 0; round < rounds; ++round) {
    for (const util::Endpoint& ep : endpoints_) {
      double left = remaining_s(end);
      if (left <= 0.0) {
        out.result.status = CollectStatus::kTimeout;
        out.result.error_detail = "failover wall timeout";
        out.detail = trail.str();
        return out;
      }
      ++out.attempts;
      ServeClient client;
      robust::Status st = client.connect(
          ep, std::max(0.1, std::min(connect_timeout_s, left)));
      if (!st.ok()) {
        trail << util::to_string(ep) << ": " << st.message() << "; ";
        continue;
      }
      if (client.epoch() < max_epoch_) {
        // A server behind the highest epoch this client has witnessed
        // is a deposed primary (or a stale standby): taking its answer
        // could resurrect pre-failover history. Refuse it.
        trail << util::to_string(ep) << ": stale epoch "
              << client.epoch() << " < " << max_epoch_ << "; ";
        continue;
      }
      max_epoch_ = std::max(max_epoch_, client.epoch());
      st = client.submit(request);
      if (!st.ok()) {
        trail << util::to_string(ep) << ": " << st.message() << "; ";
        continue;
      }
      CollectResult res = client.collect(request.id, remaining_s(end));
      switch (res.status) {
        case CollectStatus::kDone:
        case CollectStatus::kRequestError:
          out.result = std::move(res);
          out.served_by = ep;
          out.detail = trail.str();
          return out;
        case CollectStatus::kTimeout:
          out.result = std::move(res);
          out.served_by = ep;
          out.detail = trail.str();
          return out;
        case CollectStatus::kOverloaded:
          // Typed shed (a standby's "standby", a primary's
          // "queue-full"/"draining"): remember it as the provisional
          // outcome and try the next endpoint. Requests are idempotent,
          // so resubmitting elsewhere cannot double-solve a cap.
          trail << util::to_string(ep) << ": overloaded ("
                << res.overloaded.reason << "); ";
          out.result = std::move(res);
          out.served_by = ep;
          break;
        case CollectStatus::kDisconnected:
          // Mid-collect death (SIGKILLed primary): drop the partial
          // rows - the journal-backed retry serves them again - and
          // fail over.
          trail << util::to_string(ep) << ": " << res.error_detail << "; ";
          break;
      }
    }
    if (round + 1 < rounds && retry_backoff_s > 0.0 &&
        remaining_s(end) > retry_backoff_s) {
      ::usleep(static_cast<useconds_t>(retry_backoff_s * 1e6));
    }
  }
  out.detail = trail.str();
  if (out.result.status == CollectStatus::kDisconnected &&
      out.result.error_detail.empty()) {
    out.result.error_detail = "every endpoint failed: " + out.detail;
  }
  return out;
}

}  // namespace powerlim::serve
