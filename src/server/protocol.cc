#include "server/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/serde.h"

namespace tklus::server {
namespace {

Status Errno(const char* op) {
  return Status::IoError(std::string(op) + ": " + std::strerror(errno));
}

// Sends every byte of `iov[0..count)` with as few sendmsg calls as the
// kernel allows, advancing past partial writes.
Status SendAll(int fd, iovec* iov, size_t count) {
  while (count > 0) {
    msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    ssize_t sent = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return Errno("sendmsg");
    }
    while (count > 0 && static_cast<size_t>(sent) >= iov->iov_len) {
      sent -= static_cast<ssize_t>(iov->iov_len);
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + sent;
      iov->iov_len -= static_cast<size_t>(sent);
    }
  }
  return Status::Ok();
}

// Reads exactly n bytes. *clean_eof is set only when EOF arrives before
// the first byte — EOF mid-buffer is a truncated frame, an error.
Status RecvAll(int fd, char* data, size_t n, bool* clean_eof) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, data + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (r == 0) {
      if (got == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::Ok();
      }
      return Status::IoError("connection closed mid-frame");
    }
    got += static_cast<size_t>(r);
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeRequest(const WireRequest& request) {
  std::ostringstream out;
  serde::WriteU32(out, static_cast<uint32_t>(request.kind));
  const TkLusQuery& q = request.query;
  serde::WriteDouble(out, q.location.lat);
  serde::WriteDouble(out, q.location.lon);
  serde::WriteDouble(out, q.radius_km);
  serde::WriteU32(out, static_cast<uint32_t>(q.k));
  serde::WriteU32(out, static_cast<uint32_t>(q.semantics));
  serde::WriteU32(out, static_cast<uint32_t>(q.ranking));
  serde::WriteU32(out, static_cast<uint32_t>(q.keywords.size()));
  for (const std::string& kw : q.keywords) serde::WriteString(out, kw);
  return out.str();
}

Status DecodeRequest(const std::string& payload, WireRequest* request) {
  std::istringstream in(payload);
  uint32_t kind = 0, k = 0, semantics = 0, ranking = 0, num_keywords = 0;
  TkLusQuery q;
  if (!serde::ReadU32(in, &kind) || !serde::ReadDouble(in, &q.location.lat) ||
      !serde::ReadDouble(in, &q.location.lon) ||
      !serde::ReadDouble(in, &q.radius_km) || !serde::ReadU32(in, &k) ||
      !serde::ReadU32(in, &semantics) || !serde::ReadU32(in, &ranking) ||
      !serde::ReadU32(in, &num_keywords)) {
    return Status::InvalidArgument("truncated request payload");
  }
  if (kind != static_cast<uint32_t>(RequestKind::kUserQuery) &&
      kind != static_cast<uint32_t>(RequestKind::kTweetQuery)) {
    return Status::InvalidArgument("unknown request kind " +
                                   std::to_string(kind));
  }
  if (semantics > static_cast<uint32_t>(Semantics::kOr) ||
      ranking > static_cast<uint32_t>(Ranking::kMax)) {
    return Status::InvalidArgument("request enum out of range");
  }
  if (num_keywords > payload.size()) {  // each keyword costs >= 8 bytes
    return Status::InvalidArgument("keyword count exceeds payload");
  }
  q.k = static_cast<int>(k);
  q.semantics = static_cast<Semantics>(semantics);
  q.ranking = static_cast<Ranking>(ranking);
  q.keywords.reserve(num_keywords);
  for (uint32_t i = 0; i < num_keywords; ++i) {
    std::string kw;
    if (!serde::ReadString(in, &kw)) {
      return Status::InvalidArgument("truncated request keyword");
    }
    q.keywords.push_back(std::move(kw));
  }
  request->kind = static_cast<RequestKind>(kind);
  request->query = std::move(q);
  return Status::Ok();
}

std::string EncodeResponse(const WireResponse& response) {
  std::ostringstream out;
  serde::WriteU32(out, static_cast<uint32_t>(response.code));
  serde::WriteString(out, response.message);
  serde::WriteU32(out, response.degraded ? 1 : 0);
  serde::WriteU32(out, static_cast<uint32_t>(response.users.size()));
  for (const WireUser& u : response.users) {
    serde::WriteI64(out, u.uid);
    serde::WriteDouble(out, u.score);
  }
  serde::WriteU32(out, static_cast<uint32_t>(response.tweets.size()));
  for (const WireTweet& t : response.tweets) {
    serde::WriteI64(out, t.sid);
    serde::WriteI64(out, t.uid);
    serde::WriteDouble(out, t.score);
    serde::WriteDouble(out, t.distance_km);
  }
  serde::WriteDouble(out, response.server_ms);
  return out.str();
}

Status DecodeResponse(const std::string& payload, WireResponse* response) {
  std::istringstream in(payload);
  WireResponse r;
  uint32_t code = 0, degraded = 0, num_users = 0, num_tweets = 0;
  if (!serde::ReadU32(in, &code) || !serde::ReadString(in, &r.message) ||
      !serde::ReadU32(in, &degraded) || !serde::ReadU32(in, &num_users)) {
    return Status::Corruption("truncated response payload");
  }
  if (num_users > payload.size()) {
    return Status::Corruption("user count exceeds payload");
  }
  r.code = static_cast<int32_t>(code);
  r.degraded = degraded != 0;
  r.users.reserve(num_users);
  for (uint32_t i = 0; i < num_users; ++i) {
    WireUser u;
    if (!serde::ReadI64(in, &u.uid) || !serde::ReadDouble(in, &u.score)) {
      return Status::Corruption("truncated response user");
    }
    r.users.push_back(u);
  }
  if (!serde::ReadU32(in, &num_tweets) || num_tweets > payload.size()) {
    return Status::Corruption("truncated response payload");
  }
  r.tweets.reserve(num_tweets);
  for (uint32_t i = 0; i < num_tweets; ++i) {
    WireTweet t;
    if (!serde::ReadI64(in, &t.sid) || !serde::ReadI64(in, &t.uid) ||
        !serde::ReadDouble(in, &t.score) ||
        !serde::ReadDouble(in, &t.distance_km)) {
      return Status::Corruption("truncated response tweet");
    }
    r.tweets.push_back(t);
  }
  if (!serde::ReadDouble(in, &r.server_ms)) {
    return Status::Corruption("truncated response payload");
  }
  *response = std::move(r);
  return Status::Ok();
}

Status WriteFrame(int fd, const std::string& payload) {
  char prefix[4];
  const uint32_t len = static_cast<uint32_t>(payload.size());
  std::memcpy(prefix, &len, 4);
  // Prefix and payload leave in one call: two sends would put a small
  // segment on the wire first, and Nagle would then hold the payload until
  // the peer's delayed ACK (~40 ms per frame on Linux loopback).
  iovec iov[2] = {{prefix, 4},
                  {const_cast<char*>(payload.data()), payload.size()}};
  return SendAll(fd, iov, 2);
}

Status ReadFrame(int fd, uint64_t max_frame_bytes, std::string* payload,
                 bool* eof) {
  payload->clear();
  *eof = false;
  char prefix[4];
  TKLUS_RETURN_IF_ERROR(RecvAll(fd, prefix, 4, eof));
  if (*eof) return Status::Ok();
  uint32_t len = 0;
  std::memcpy(&len, prefix, 4);
  if (len > max_frame_bytes) {
    return Status::InvalidArgument("frame of " + std::to_string(len) +
                                   " bytes exceeds limit of " +
                                   std::to_string(max_frame_bytes));
  }
  payload->resize(len);
  return RecvAll(fd, payload->data(), len, nullptr);
}

Result<int> Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Errno("connect");
    ::close(fd);
    return status;
  }
  return fd;
}

Result<WireResponse> Call(int fd, const WireRequest& request) {
  TKLUS_RETURN_IF_ERROR(WriteFrame(fd, EncodeRequest(request)));
  std::string payload;
  bool eof = false;
  TKLUS_RETURN_IF_ERROR(ReadFrame(fd, UINT32_MAX, &payload, &eof));
  if (eof) return Status::IoError("server closed before responding");
  WireResponse response;
  TKLUS_RETURN_IF_ERROR(DecodeResponse(payload, &response));
  return response;
}

}  // namespace tklus::server
