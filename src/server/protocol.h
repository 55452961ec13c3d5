#ifndef TKLUS_SERVER_PROTOCOL_H_
#define TKLUS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query.h"

namespace tklus::server {

// Wire protocol of the request server (DESIGN.md §16): length-prefixed
// binary frames over a connected stream socket. Each frame is a 4-byte
// little-endian payload length followed by the payload; payloads are the
// little-endian fixed-width encodings below (common/serde.h primitives).
// The protocol is strictly request/response — one response frame per
// request frame, in order, so a connection can pipeline requests without
// any correlation ids.
//
// Only the query surface crosses the wire (location, radius, keywords,
// k, semantics, ranking). Tracing/explain stay server-side concerns;
// ingestion rides the engine's own durable AppendBatch path, not this
// protocol.

enum class RequestKind : uint8_t {
  kUserQuery = 1,   // top-k local users (the paper's query)
  kTweetQuery = 2,  // top-k individual tweets (extension)
};

struct WireRequest {
  RequestKind kind = RequestKind::kUserQuery;
  TkLusQuery query;
};

struct WireUser {
  int64_t uid = 0;
  double score = 0.0;
};

struct WireTweet {
  int64_t sid = 0;
  int64_t uid = 0;
  double score = 0.0;
  double distance_km = 0.0;
};

struct WireResponse {
  // StatusCode of the server-side query, as its integer value; 0 is OK.
  int32_t code = 0;
  std::string message;
  // Mirror of ShardedQueryResult::degraded: some shard was skipped.
  bool degraded = false;
  std::vector<WireUser> users;    // kUserQuery responses
  std::vector<WireTweet> tweets;  // kTweetQuery responses
  // Server-side wall time of the query alone (no socket time).
  double server_ms = 0.0;
};

std::string EncodeRequest(const WireRequest& request);
Status DecodeRequest(const std::string& payload, WireRequest* request);
std::string EncodeResponse(const WireResponse& response);
Status DecodeResponse(const std::string& payload, WireResponse* response);

// Writes one `length || payload` frame with a single sendmsg (prefix and
// payload as two iovecs), so a frame never waits on Nagle behind its own
// prefix. Retries short sends; fails on any socket error (the connection
// is then unusable).
Status WriteFrame(int fd, const std::string& payload);

// Reads one frame. A clean EOF before any byte of the length prefix sets
// *eof and returns OK with an empty payload; anything else that falls
// short — truncation mid-frame, a frame above `max_frame_bytes`, socket
// errors — is an error.
Status ReadFrame(int fd, uint64_t max_frame_bytes, std::string* payload,
                 bool* eof);

// Client-side helpers (tests and the load generator; the server never
// dials). Connect to 127.0.0.1:port; returns the connected fd.
Result<int> Connect(int port);
// One blocking request/response round trip on a connected fd.
Result<WireResponse> Call(int fd, const WireRequest& request);

}  // namespace tklus::server

#endif  // TKLUS_SERVER_PROTOCOL_H_
