#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "obs/stopwatch.h"
#include "server/protocol.h"

namespace tklus::server {
namespace {

// All-workers-busy backpressure cap: accepted connections wait in the
// queue, and beyond this the acceptor simply stops pulling from the
// kernel backlog (clients keep queueing there, then get RST at the
// kernel's limit — open-loop overload sheds at the edge, it does not
// balloon server memory).
constexpr size_t kMaxPendingConnections = 256;

}  // namespace

Result<std::unique_ptr<RequestServer>> RequestServer::Start(
    ShardedEngine* engine, Options options) {
  if (engine == nullptr) {
    return Status::InvalidArgument("RequestServer needs an engine");
  }
  if (options.num_workers < 1) {
    return Status::InvalidArgument("num_workers must be >= 1");
  }
  auto server = std::unique_ptr<RequestServer>(new RequestServer());
  server->engine_ = engine;
  server->options_ = options;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) {
    const Status status =
        Status::IoError(std::string("setsockopt: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options.port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status =
        Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 128) < 0) {
    const Status status =
        Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound = {};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    const Status status =
        Status::IoError(std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  server->listen_fd_ = fd;
  server->port_ = ntohs(bound.sin_port);
  server->requests_total_ = MetricsRegistry::Global().GetCounter(
      "tklus_server_requests_total",
      "Requests served by the query server (all kinds, all outcomes).");

  server->workers_.reserve(static_cast<size_t>(options.num_workers));
  for (int w = 0; w < options.num_workers; ++w) {
    server->workers_.emplace_back([s = server.get()] { s->WorkerLoop(); });
  }
  server->acceptor_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

RequestServer::~RequestServer() { Stop(); }

void RequestServer::Stop() {
  {
    MutexLock lock(&queue_mu_);
    if (stopping_) return;
    stopping_ = true;
    // Unblock workers parked in recv() on idle connections: every fd in
    // active_fds_ is still open (workers deregister before closing), so
    // shutdown makes the blocked read return EOF and the worker exit.
    for (const int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  // Unblock accept(): shutdown makes a blocked accept return on Linux,
  // and close covers the race where the acceptor was between calls.
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  queue_cv_.SignalAll();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Connections accepted but never picked up: close without serving.
  MutexLock lock(&queue_mu_);
  for (const int fd : pending_fds_) ::close(fd);
  pending_fds_.clear();
}

void RequestServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // Closed/shut down listener: normal termination path.
      return;
    }
    MutexLock lock(&queue_mu_);
    if (stopping_ || pending_fds_.size() >= kMaxPendingConnections) {
      ::close(fd);
      if (stopping_) return;
      continue;
    }
    pending_fds_.push_back(fd);
    queue_cv_.Signal();
  }
}

void RequestServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      MutexLock lock(&queue_mu_);
      while (pending_fds_.empty() && !stopping_) queue_cv_.Wait(&queue_mu_);
      // Once stopping, never pick up new work — a fresh connection could
      // block this worker in recv() after Stop()'s shutdown sweep ran.
      // Stop() closes whatever is left queued after the joins.
      if (stopping_) return;
      fd = pending_fds_.front();
      pending_fds_.pop_front();
    }
    ServeConnection(fd);
  }
}

void RequestServer::ServeConnection(int fd) {
  {
    MutexLock lock(&queue_mu_);
    active_fds_.push_back(fd);
    // Stop() may have swept active_fds_ between this worker popping the
    // fd and registering it; mirror the sweep so the reads below see EOF.
    if (stopping_) ::shutdown(fd, SHUT_RDWR);
  }
  std::string payload;
  for (;;) {
    bool eof = false;
    const Status read =
        ReadFrame(fd, options_.max_frame_bytes, &payload, &eof);
    if (!read.ok() || eof) break;
    const std::string response = HandleRequest(payload);
    // Counted before the write, so a client holding its response also
    // sees it counted.
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    requests_total_->Increment();
    if (!WriteFrame(fd, response).ok()) break;
    // Between requests, check for shutdown so a chatty client cannot pin
    // its worker past Stop().
    MutexLock lock(&queue_mu_);
    if (stopping_) break;
  }
  {
    MutexLock lock(&queue_mu_);
    active_fds_.erase(std::find(active_fds_.begin(), active_fds_.end(), fd));
  }
  ::close(fd);
}

std::string RequestServer::HandleRequest(const std::string& payload) {
  WireResponse response;
  WireRequest request;
  const Status decoded = DecodeRequest(payload, &request);
  if (!decoded.ok()) {
    response.code = static_cast<int32_t>(decoded.code());
    response.message = decoded.message();
    return EncodeResponse(response);
  }
  Stopwatch timer;
  if (request.kind == RequestKind::kUserQuery) {
    auto result = engine_->Query(request.query);
    if (!result.ok()) {
      response.code = static_cast<int32_t>(result.status().code());
      response.message = result.status().message();
    } else {
      response.degraded = result->degraded;
      response.users.reserve(result->users.size());
      for (const RankedUser& u : result->users) {
        response.users.push_back(WireUser{u.uid, u.score});
      }
    }
  } else {
    auto result = engine_->QueryTweets(request.query);
    if (!result.ok()) {
      response.code = static_cast<int32_t>(result.status().code());
      response.message = result.status().message();
    } else {
      response.degraded = result->degraded;
      response.tweets.reserve(result->tweets.size());
      for (const RankedTweet& t : result->tweets) {
        response.tweets.push_back(
            WireTweet{t.sid, t.uid, t.score, t.distance_km});
      }
    }
  }
  response.server_ms = timer.ElapsedMillis();
  return EncodeResponse(response);
}

}  // namespace tklus::server
