// Request server + wire protocol: encode/decode round trips, end-to-end
// queries over a real loopback socket against the sharded engine (the
// responses must match the engine's own results exactly), pipelining,
// malformed-input handling and clean shutdown.
#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "core/sharded_engine.h"
#include "datagen/tweet_generator.h"
#include "obs/stopwatch.h"
#include "server/protocol.h"
#include "server/server.h"

namespace tklus {
namespace {

using datagen::GeneratedCorpus;
using datagen::TweetGenerator;
using server::Call;
using server::Connect;
using server::RequestKind;
using server::RequestServer;
using server::WireRequest;
using server::WireResponse;

GeneratedCorpus MakeCorpus() {
  TweetGenerator::Options opts;
  opts.num_users = 120;
  opts.num_tweets = 2000;
  opts.num_cities = 2;
  return TweetGenerator::Generate(opts);
}

TkLusQuery MakeQuery(const GeoPoint& center) {
  TkLusQuery q;
  q.location = center;
  q.radius_km = 25.0;
  q.keywords = {"hotel", "restaurant"};
  q.k = 10;
  return q;
}

TEST(ProtocolTest, RequestRoundTrips) {
  WireRequest request;
  request.kind = RequestKind::kTweetQuery;
  request.query.location = {40.75, -73.99};
  request.query.radius_km = 7.5;
  request.query.keywords = {"pizza", "", "café"};
  request.query.k = 3;
  request.query.semantics = Semantics::kAnd;
  request.query.ranking = Ranking::kMax;

  WireRequest decoded;
  ASSERT_TRUE(server::DecodeRequest(server::EncodeRequest(request), &decoded)
                  .ok());
  EXPECT_EQ(decoded.kind, request.kind);
  EXPECT_EQ(decoded.query.location, request.query.location);
  EXPECT_EQ(decoded.query.radius_km, request.query.radius_km);
  EXPECT_EQ(decoded.query.keywords, request.query.keywords);
  EXPECT_EQ(decoded.query.k, request.query.k);
  EXPECT_EQ(decoded.query.semantics, request.query.semantics);
  EXPECT_EQ(decoded.query.ranking, request.query.ranking);
}

TEST(ProtocolTest, ResponseRoundTrips) {
  WireResponse response;
  response.code = 14;
  response.message = "shard 2 down";
  response.degraded = true;
  response.users = {{7, 3.25}, {9, 1.5}};
  response.tweets = {{101, 7, 0.5, 2.25}};
  response.server_ms = 12.5;

  WireResponse decoded;
  ASSERT_TRUE(
      server::DecodeResponse(server::EncodeResponse(response), &decoded).ok());
  EXPECT_EQ(decoded.code, response.code);
  EXPECT_EQ(decoded.message, response.message);
  EXPECT_EQ(decoded.degraded, response.degraded);
  ASSERT_EQ(decoded.users.size(), 2u);
  EXPECT_EQ(decoded.users[0].uid, 7);
  EXPECT_EQ(decoded.users[0].score, 3.25);
  ASSERT_EQ(decoded.tweets.size(), 1u);
  EXPECT_EQ(decoded.tweets[0].sid, 101);
  EXPECT_EQ(decoded.tweets[0].distance_km, 2.25);
  EXPECT_EQ(decoded.server_ms, 12.5);
}

TEST(ProtocolTest, TruncatedAndGarbagePayloadsAreErrorsNotCrashes) {
  WireRequest request;
  request.query.keywords = {"hotel"};
  const std::string good = server::EncodeRequest(request);
  WireRequest decoded;
  for (size_t cut = 0; cut < good.size(); cut += 7) {
    EXPECT_FALSE(
        server::DecodeRequest(good.substr(0, cut), &decoded).ok())
        << "cut at " << cut;
  }
  EXPECT_FALSE(server::DecodeRequest("garbage-not-a-frame", &decoded).ok());
  WireResponse response;
  EXPECT_FALSE(server::DecodeResponse("junk", &response).ok());
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = MakeCorpus();
    ShardedEngine::Options options;
    options.num_shards = 2;
    auto engine = ShardedEngine::Build(corpus_.dataset, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);
    RequestServer::Options server_options;
    server_options.num_workers = 3;
    auto srv = RequestServer::Start(engine_.get(), server_options);
    ASSERT_TRUE(srv.ok()) << srv.status().ToString();
    server_ = std::move(*srv);
    ASSERT_GT(server_->port(), 0);
  }

  GeneratedCorpus corpus_;
  std::unique_ptr<ShardedEngine> engine_;
  std::unique_ptr<RequestServer> server_;
};

TEST_F(ServerTest, UserQueryMatchesEngineExactly) {
  WireRequest request;
  request.query = MakeQuery(corpus_.city_centers[0]);
  const auto want = engine_->Query(request.query);
  ASSERT_TRUE(want.ok());

  auto fd = Connect(server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const auto got = Call(*fd, request);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->code, 0);
  EXPECT_FALSE(got->degraded);
  EXPECT_GE(got->server_ms, 0.0);
  ASSERT_EQ(got->users.size(), want->users.size());
  for (size_t i = 0; i < want->users.size(); ++i) {
    EXPECT_EQ(got->users[i].uid, want->users[i].uid) << "rank " << i;
    EXPECT_EQ(got->users[i].score, want->users[i].score) << "rank " << i;
  }
  ::close(*fd);
}

TEST_F(ServerTest, TweetQueryMatchesEngineExactly) {
  WireRequest request;
  request.kind = RequestKind::kTweetQuery;
  request.query = MakeQuery(corpus_.city_centers[1]);
  const auto want = engine_->QueryTweets(request.query);
  ASSERT_TRUE(want.ok());

  auto fd = Connect(server_->port());
  ASSERT_TRUE(fd.ok());
  const auto got = Call(*fd, request);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->code, 0);
  ASSERT_EQ(got->tweets.size(), want->tweets.size());
  for (size_t i = 0; i < want->tweets.size(); ++i) {
    EXPECT_EQ(got->tweets[i].sid, want->tweets[i].sid) << "rank " << i;
    EXPECT_EQ(got->tweets[i].uid, want->tweets[i].uid) << "rank " << i;
    EXPECT_EQ(got->tweets[i].score, want->tweets[i].score) << "rank " << i;
  }
  ::close(*fd);
}

TEST_F(ServerTest, PipelinedRequestsComeBackInOrder) {
  auto fd = Connect(server_->port());
  ASSERT_TRUE(fd.ok());
  // Distinct k per request: the k-th response must carry at most k users,
  // which pins response ordering to request ordering.
  constexpr int kRequests = 5;
  for (int i = 0; i < kRequests; ++i) {
    WireRequest request;
    request.query = MakeQuery(corpus_.city_centers[0]);
    request.query.k = i + 1;
    ASSERT_TRUE(
        server::WriteFrame(*fd, server::EncodeRequest(request)).ok());
  }
  for (int i = 0; i < kRequests; ++i) {
    std::string payload;
    bool eof = false;
    ASSERT_TRUE(server::ReadFrame(*fd, 1 << 20, &payload, &eof).ok());
    ASSERT_FALSE(eof);
    WireResponse response;
    ASSERT_TRUE(server::DecodeResponse(payload, &response).ok());
    EXPECT_EQ(response.code, 0);
    EXPECT_LE(response.users.size(), static_cast<size_t>(i + 1));
  }
  ::close(*fd);
}

// WriteFrame sends prefix and payload in one call. Sent apart, the
// payload waits behind the 4-byte prefix for the peer's delayed ACK
// (Nagle), about 40 ms per frame on Linux loopback: 100 round trips would
// take at least 4 s. Cheap queries keep the engine's share small, so the
// bound holds under sanitizers too.
TEST_F(ServerTest, SequentialCallsDoNotStallOnFrameWrites) {
  WireRequest request;
  request.query = MakeQuery(corpus_.city_centers[0]);
  request.query.radius_km = 1.0;
  request.query.k = 1;
  auto fd = Connect(server_->port());
  ASSERT_TRUE(fd.ok());
  constexpr int kCalls = 100;
  const Stopwatch timer;
  for (int i = 0; i < kCalls; ++i) {
    const auto got = Call(*fd, request);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->code, 0);
  }
  EXPECT_LT(timer.ElapsedSeconds(), 1.0) << kCalls << " sequential calls";
  ::close(*fd);
}

// A client keeping 8 requests in flight over 300 queries gets every
// answer back in request order, exact, and without per-frame stalls
// (with prefix and payload sent apart, this loop took over 3 s on Linux
// loopback).
TEST_F(ServerTest, PipelinedWindowComesBackInOrderWithoutStalls) {
  constexpr int kQueries = 300;
  constexpr int kWindow = 8;
  // Twenty distinct queries (two cities x k = 1..10), cycled.
  std::vector<WireRequest> requests;
  std::vector<std::vector<RankedUser>> want;
  for (int v = 0; v < 20; ++v) {
    WireRequest request;
    request.query = MakeQuery(corpus_.city_centers[v % 2]);
    request.query.k = 1 + v / 2;
    const auto answer = engine_->Query(request.query);
    ASSERT_TRUE(answer.ok());
    requests.push_back(request);
    want.push_back(answer->users);
  }
  auto fd = Connect(server_->port());
  ASSERT_TRUE(fd.ok());
  const Stopwatch timer;
  int sent = 0;
  for (; sent < kWindow; ++sent) {
    ASSERT_TRUE(server::WriteFrame(
                    *fd, server::EncodeRequest(requests[sent % 20])).ok());
  }
  for (int received = 0; received < kQueries; ++received) {
    std::string payload;
    bool eof = false;
    ASSERT_TRUE(server::ReadFrame(*fd, 1 << 20, &payload, &eof).ok());
    ASSERT_FALSE(eof);
    WireResponse response;
    ASSERT_TRUE(server::DecodeResponse(payload, &response).ok());
    ASSERT_EQ(response.code, 0);
    const std::vector<RankedUser>& expected = want[received % 20];
    ASSERT_EQ(response.users.size(), expected.size())
        << "response " << received;
    for (size_t r = 0; r < expected.size(); ++r) {
      ASSERT_EQ(response.users[r].uid, expected[r].uid)
          << "response " << received;
      ASSERT_EQ(response.users[r].score, expected[r].score)
          << "response " << received;
    }
    if (sent < kQueries) {
      ASSERT_TRUE(server::WriteFrame(
                      *fd, server::EncodeRequest(requests[sent % 20])).ok());
      ++sent;
    }
  }
  EXPECT_LT(timer.ElapsedSeconds(), 2.0)
      << kQueries << " queries, " << kWindow << " in flight";
  ::close(*fd);
}

TEST_F(ServerTest, ConcurrentClientsAllGetExactAnswers) {
  WireRequest request;
  request.query = MakeQuery(corpus_.city_centers[0]);
  const auto want = engine_->Query(request.query);
  ASSERT_TRUE(want.ok());
  const uint64_t served_before = server_->requests_served();

  constexpr int kClients = 4;
  constexpr int kCallsEach = 8;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto fd = Connect(server_->port());
      ASSERT_TRUE(fd.ok());
      for (int i = 0; i < kCallsEach; ++i) {
        const auto got = Call(*fd, request);
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(got->code, 0);
        ASSERT_EQ(got->users.size(), want->users.size());
        for (size_t r = 0; r < want->users.size(); ++r) {
          ASSERT_EQ(got->users[r].uid, want->users[r].uid);
        }
      }
      ::close(*fd);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_GE(server_->requests_served() - served_before,
            static_cast<uint64_t>(kClients * kCallsEach));
}

TEST_F(ServerTest, InvalidQueryComesBackAsErrorResponse) {
  WireRequest request;
  request.query = MakeQuery(corpus_.city_centers[0]);
  request.query.k = 0;  // rejected by ValidateQuery server-side
  auto fd = Connect(server_->port());
  ASSERT_TRUE(fd.ok());
  const auto got = Call(*fd, request);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_NE(got->code, 0);
  EXPECT_FALSE(got->message.empty());
  // The connection survives an application-level error.
  request.query.k = 5;
  const auto again = Call(*fd, request);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->code, 0);
  ::close(*fd);
}

TEST_F(ServerTest, MalformedFrameGetsErrorResponse) {
  auto fd = Connect(server_->port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(server::WriteFrame(*fd, "this is not a query").ok());
  std::string payload;
  bool eof = false;
  ASSERT_TRUE(server::ReadFrame(*fd, 1 << 20, &payload, &eof).ok());
  ASSERT_FALSE(eof);
  WireResponse response;
  ASSERT_TRUE(server::DecodeResponse(payload, &response).ok());
  EXPECT_NE(response.code, 0);
  ::close(*fd);
}

TEST_F(ServerTest, OversizedFrameClosesTheConnection) {
  RequestServer::Options tiny;
  tiny.num_workers = 1;
  tiny.max_frame_bytes = 64;
  auto srv = RequestServer::Start(engine_.get(), tiny);
  ASSERT_TRUE(srv.ok());
  auto fd = Connect((*srv)->port());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(server::WriteFrame(*fd, std::string(1024, 'x')).ok());
  std::string payload;
  bool eof = false;
  const Status read = server::ReadFrame(*fd, 1 << 20, &payload, &eof);
  // The server drops the connection without a response frame.
  EXPECT_TRUE(eof || !read.ok());
  ::close(*fd);
}

TEST_F(ServerTest, StopUnblocksWorkersParkedOnIdleConnections) {
  // Regression: a connected-but-idle client parks its worker in recv();
  // Stop() must shutdown() that socket or the worker join hangs forever.
  auto fd = Connect(server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  WireRequest request;
  request.query = MakeQuery(corpus_.city_centers[0]);
  auto first = Call(*fd, request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  server_->Stop();  // must return with the connection still open

  // The server hung up our connection; the next round trip fails.
  EXPECT_FALSE(Call(*fd, request).ok());
  ::close(*fd);
}

TEST_F(ServerTest, StopIsIdempotentAndStopsServing) {
  server_->Stop();
  server_->Stop();
  auto fd = Connect(server_->port());
  if (fd.ok()) {
    // The listener is closed; at best the kernel accepted the SYN before
    // close, in which case the first round trip fails.
    EXPECT_FALSE(Call(*fd, WireRequest{}).ok());
    ::close(*fd);
  }
}

}  // namespace
}  // namespace tklus
