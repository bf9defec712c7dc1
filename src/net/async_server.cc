#include "net/async_server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "net/wire.h"

namespace reed::net {

namespace {

// epoll_event.data.u64 sentinels; connection ids start above them.
constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kEventId = 1;
constexpr std::uint64_t kFirstConnId = 2;

[[noreturn]] void ThrowErrno(const char* what) {
  throw NetError(std::string(what) + ": " + std::strerror(errno));
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    ThrowErrno("AsyncServer: fcntl(O_NONBLOCK)");
  }
}

obs::Gauge& ActiveConnsGauge() {
  static obs::Gauge* g =
      &obs::Registry::Global().GetGauge("server.net.active_conns");
  return *g;
}

obs::Gauge& OutboxBytesGauge() {
  static obs::Gauge* g =
      &obs::Registry::Global().GetGauge("server.net.outbox_bytes");
  return *g;
}

obs::Counter& NamedCounter(const char* name) {
  return obs::Registry::Global().GetCounter(name);
}

}  // namespace

Bytes AsyncServer::WrapTenant(std::uint32_t tenant_id, ByteSpan frame) {
  Bytes out;
  out.reserve(5 + frame.size());
  out.push_back(kTenantTag);
  AppendU32(out, tenant_id);
  Append(out, frame);
  return out;
}

AsyncServer::AsyncServer(std::uint16_t port, LocalChannel::Handler handler)
    : AsyncServer(port, std::move(handler), Options()) {}

AsyncServer::AsyncServer(std::uint16_t port, LocalChannel::Handler handler,
                         Options options)
    : handler_(std::move(handler)),
      options_(options),
      listener_(std::make_unique<TcpListener>(port, options.listen_backlog)),
      port_(listener_->port()),
      pool_(std::make_unique<ThreadPool>(options.workers)),
      next_conn_id_(kFirstConnId),
      start_time_(std::chrono::steady_clock::now()) {
  if (options_.loops == 0) options_.loops = 1;
  SetNonBlocking(listener_->fd());
  for (std::size_t i = 0; i < options_.loops; ++i) {
    // The Loop owns its fds from the moment they exist, so a throw below
    // closes them along with those of every loop built before it.
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (loop->epoll_fd < 0) ThrowErrno("AsyncServer: epoll_create1");
    loop->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->event_fd < 0) ThrowErrno("AsyncServer: eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kEventId;
    if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->event_fd, &ev) != 0) {
      ThrowErrno("AsyncServer: epoll_ctl(eventfd)");
    }
    if (i == 0) {
      // Only loop 0 watches the listener; it shards accepted fds out.
      epoll_event lev{};
      lev.events = EPOLLIN | EPOLLET;
      lev.data.u64 = kListenerId;
      if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listener_->fd(), &lev) !=
          0) {
        ThrowErrno("AsyncServer: epoll_ctl(listener)");
      }
    }
    loop->last_idle_sweep = start_time_;
    loops_.push_back(std::move(loop));
  }
  // Loops destroyed above on a constructor throw have no threads yet; from
  // here the destructor owns teardown.
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->thread = std::thread([this, i] { RunLoop(i); });
  }
}

AsyncServer::Loop::~Loop() {
  if (event_fd >= 0) ::close(event_fd);
  if (epoll_fd >= 0) ::close(epoll_fd);
}

AsyncServer::~AsyncServer() {
  stopping_.store(true);
  for (auto& loop : loops_) WakeLoop(*loop);
  Wait();
  // Workers may still be finishing dispatched handlers; they push
  // completions (dropped — the loops are gone) and write the eventfds, so
  // the pool must drain before loops_ is destroyed and closes those fds.
  pool_.reset();
}

void AsyncServer::Wait() {
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
}

void AsyncServer::Adopt(int fd) {
  AdoptIntoLoop(next_loop_.fetch_add(1) % loops_.size(), fd);
}

void AsyncServer::AdoptIntoLoop(std::size_t index, int fd) {
  Loop& loop = *loops_[index];
  {
    MutexLock lock(loop.mu);
    loop.incoming_fds.push_back(fd);
  }
  WakeLoop(loop);
}

void AsyncServer::WakeLoop(Loop& loop) {
  std::uint64_t one = 1;
  ssize_t r;
  do {
    r = ::write(loop.event_fd, &one, sizeof(one));
  } while (r < 0 && errno == EINTR);
  // EAGAIN means the counter is saturated — the loop is already waking.
}

double AsyncServer::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_time_)
      .count();
}

void AsyncServer::RunLoop(std::size_t index) {
  Loop& loop = *loops_[index];
  std::array<epoll_event, 64> events;
  // Audited swallow (tools/lint/failpath_allowlist.txt): a connection-level
  // Error (read/write/dispatch failure, oversized frame, outbox overflow, or
  // an armed net.async.* fault) has no caller to rethrow to on an event
  // loop — closing the connection IS the handling, and the drop stays
  // observable through errors.swallowed.net_async_conn.
  static obs::Counter* conn_swallowed =
      &NamedCounter("errors.swallowed.net_async_conn");
  while (!stopping_.load()) {
    int timeout_ms = -1;
    if (options_.idle_timeout.count() > 0) {
      timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
          options_.idle_timeout.count() / 2, 1, 50));
    }
    int n = ::epoll_wait(loop.epoll_fd, events.data(),
                         static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      NamedCounter("errors.swallowed.net_async_loop").Increment();
      break;
    }
    ProcessIncoming(loop);
    for (int i = 0; i < n; ++i) {
      std::uint64_t id = events[i].data.u64;
      if (id == kEventId) {
        std::uint64_t drained;
        while (::read(loop.event_fd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (id == kListenerId) {
        HandleAccept(loop);
        continue;
      }
      auto it = loop.conns.find(id);
      if (it == loop.conns.end()) continue;
      Conn& conn = *it->second;
      try {
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          CloseConn(loop, conn);
          continue;
        }
        if ((events[i].events & EPOLLIN) != 0) DrainReadable(loop, conn);
        if ((events[i].events & EPOLLOUT) != 0) FlushOutbox(loop, conn);
      } catch (const Error&) {
        conn_swallowed->Increment();
        CloseConn(loop, conn);
      }
    }
    ProcessCompletions(loop);
    if (options_.idle_timeout.count() > 0) SweepIdle(loop);
    for (std::uint64_t id : loop.dead) loop.conns.erase(id);
    loop.dead.clear();
  }
  // Teardown: close every connection so active_conns / outbox_bytes drain
  // even when clients are still attached.
  for (auto& [id, conn] : loop.conns) CloseConn(loop, *conn);
  loop.conns.clear();
  loop.dead.clear();
}

void AsyncServer::HandleAccept(Loop& loop) {
  static obs::Counter* accepted = &NamedCounter("server.net.conns_accepted");
  // Accept failures other than EAGAIN are counted, not thrown: the loop has
  // no caller to rethrow to.
  static obs::Counter* accept_errors =
      &NamedCounter("errors.swallowed.net_async_accept");
  for (;;) {
    int fd = ::accept4(listener_->fd(), nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (!stopping_.load()) accept_errors->Increment();
      return;
    }
    accepted->Increment();
    std::size_t target = next_loop_.fetch_add(1) % loops_.size();
    if (loops_[target].get() == &loop) {
      try {
        RegisterConn(loop, fd);
      } catch (const Error&) {
        accept_errors->Increment();
        ::close(fd);
      }
    } else {
      AdoptIntoLoop(target, fd);
    }
  }
}

void AsyncServer::ProcessIncoming(Loop& loop) {
  static obs::Counter* accept_errors =
      &NamedCounter("errors.swallowed.net_async_accept");
  std::vector<int> fds;
  {
    MutexLock lock(loop.mu);
    fds.swap(loop.incoming_fds);
  }
  for (int fd : fds) {
    try {
      RegisterConn(loop, fd);
    } catch (const Error&) {
      accept_errors->Increment();
      ::close(fd);
    }
  }
}

void AsyncServer::RegisterConn(Loop& loop, int fd) {
  REED_FAULT_POINT("net.async.accept");
  SetNonBlocking(fd);
  int one = 1;
  // Best effort: fails harmlessly for non-TCP fds (socketpair tests).
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::uint64_t id = next_conn_id_.fetch_add(1);
  auto conn = std::make_unique<Conn>(fd, id, ActiveConnsGauge());
  conn->last_activity = std::chrono::steady_clock::now();
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = id;
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    ThrowErrno("AsyncServer: epoll_ctl(conn)");
  }
  loop.conns.emplace(id, std::move(conn));
}

void AsyncServer::DrainReadable(Loop& loop, Conn& conn) {
  if (conn.closed) return;
  REED_FAULT_POINT("net.async.read");
  std::uint8_t buf[65536];
  for (;;) {
    ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.inbox.insert(conn.inbox.end(), buf, buf + n);
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n == 0) {
      conn.read_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    ThrowErrno("AsyncServer: read");
  }
  ParseFrames(loop, conn);
  MaybeClose(loop, conn);
}

void AsyncServer::ParseFrames(Loop& loop, Conn& conn) {
  std::size_t off = 0;
  while (!conn.closed && conn.inbox.size() - off >= 4) {
    std::uint32_t len = GetU32(ByteSpan(conn.inbox).subspan(off));
    if (len > options_.max_frame_len) {
      NamedCounter("server.net.frame_oversize").Increment();
      throw NetError("AsyncServer: frame too large");
    }
    if (conn.inbox.size() - off - 4 < len) break;
    conn.pending.emplace_back(conn.inbox.begin() + off + 4,
                              conn.inbox.begin() + off + 4 + len);
    off += 4 + len;
  }
  if (off > 0) {
    conn.inbox.erase(conn.inbox.begin(), conn.inbox.begin() + off);
  }
  MaybeDispatch(loop, conn);
}

void AsyncServer::MaybeDispatch(Loop& loop, Conn& conn) {
  static obs::Counter* dispatched = &NamedCounter("server.net.frames_dispatched");
  static obs::Counter* throttled = &NamedCounter("server.net.throttled");
  while (!conn.closed && !conn.dispatch_inflight && !conn.pending.empty()) {
    Bytes frame = std::move(conn.pending.front());
    conn.pending.pop_front();
    std::uint32_t tenant = 0;
    std::size_t inner_off = 0;
    if (frame.size() >= 5 && frame[0] == kTenantTag) {
      tenant = GetU32(ByteSpan(frame).subspan(1));
      inner_off = 5;
    }
    if (!AdmitTenant(tenant)) {
      // Answer in the inner protocol's own error shape so any client that
      // understands status-byte responses sees a typed failure.
      throttled->Increment();
      Writer err;
      err.U8(1);
      err.Str("throttled: tenant " + std::to_string(tenant) +
              " over admission rate");
      EnqueueResponse(loop, conn, err.bytes());
      continue;
    }
    REED_FAULT_POINT("net.async.dispatch");
    dispatched->Increment();
    conn.dispatch_inflight = true;
    Loop* owner = &loop;
    std::uint64_t conn_id = conn.id;
    conn.inflight = pool_->Submit(
        [this, owner, conn_id, frame = std::move(frame), inner_off] {
          Bytes response;
          try {
            response = handler_(ByteSpan(frame).subspan(inner_off));
          } catch (const Error& e) {
            Writer err;
            err.U8(1);
            err.Str(e.what());
            response = err.Take();
          }
          {
            MutexLock lock(owner->mu);
            owner->completions.push_back({conn_id, std::move(response)});
          }
          WakeLoop(*owner);
        });
  }
}

bool AsyncServer::AdmitTenant(std::uint32_t tenant_id) {
  if (options_.tenant_rate_per_sec <= 0) return true;
  TokenBucket* bucket = nullptr;
  {
    MutexLock lock(tenant_mu_);
    auto it = tenants_.find(tenant_id);
    if (it == tenants_.end()) {
      double burst = options_.tenant_burst > 0 ? options_.tenant_burst
                                               : options_.tenant_rate_per_sec;
      it = tenants_
               .emplace(tenant_id, std::make_unique<TokenBucket>(
                                       options_.tenant_rate_per_sec, burst))
               .first;
    }
    bucket = it->second.get();
  }
  // The bucket's own lock ranks below kNetTenantMap, so tenant_mu_ must be
  // released before TryAcquire; the node-based map keeps `bucket` stable.
  return bucket->TryAcquire(NowSeconds());
}

void AsyncServer::ProcessCompletions(Loop& loop) {
  static obs::Counter* conn_swallowed =
      &NamedCounter("errors.swallowed.net_async_conn");
  std::vector<Completion> batch;
  {
    MutexLock lock(loop.mu);
    batch.swap(loop.completions);
  }
  for (Completion& c : batch) {
    auto it = loop.conns.find(c.conn_id);
    if (it == loop.conns.end()) continue;
    Conn& conn = *it->second;
    if (conn.closed) continue;
    conn.dispatch_inflight = false;
    // The worker pushed this completion as its final statement; get() only
    // waits for the packaged_task wrapper to mark the future ready (and
    // would rethrow a non-Error escape instead of dropping it).
    if (conn.inflight.valid()) conn.inflight.get();
    conn.last_activity = std::chrono::steady_clock::now();
    try {
      EnqueueResponse(loop, conn, ByteSpan(c.response));
      MaybeDispatch(loop, conn);
      MaybeClose(loop, conn);
    } catch (const Error&) {
      conn_swallowed->Increment();
      CloseConn(loop, conn);
    }
  }
}

void AsyncServer::EnqueueResponse(Loop& loop, Conn& conn, ByteSpan frame) {
  if (conn.closed) return;
  std::size_t queued = conn.outbox.size() - conn.outbox_off;
  if (queued + 4 + frame.size() > options_.max_outbox_bytes) {
    NamedCounter("server.net.outbox_overflow").Increment();
    throw NetError("AsyncServer: outbox overflow (peer not reading)");
  }
  std::uint8_t len[4];
  Writer::CheckBlobSize(frame.size());
  PutU32(len, static_cast<std::uint32_t>(frame.size()));
  conn.outbox.insert(conn.outbox.end(), len, len + 4);
  conn.outbox.insert(conn.outbox.end(), frame.begin(), frame.end());
  OutboxBytesGauge().Add(static_cast<std::int64_t>(4 + frame.size()));
  FlushOutbox(loop, conn);
}

void AsyncServer::FlushOutbox(Loop& loop, Conn& conn) {
  if (conn.closed) return;
  if (conn.outbox_off >= conn.outbox.size()) return;
  REED_FAULT_POINT("net.async.write");
  while (conn.outbox_off < conn.outbox.size()) {
    // MSG_NOSIGNAL: a client that vanished mid-response must come back as
    // EPIPE (-> conn close below), not a process-wide SIGPIPE.
    ssize_t n = ::send(conn.fd, conn.outbox.data() + conn.outbox_off,
                       conn.outbox.size() - conn.outbox_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbox_off += static_cast<std::size_t>(n);
      OutboxBytesGauge().Add(-n);
      conn.last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.want_write) {
        conn.want_write = true;
        epoll_event ev{};
        ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
        ev.data.u64 = conn.id;
        if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) != 0) {
          ThrowErrno("AsyncServer: epoll_ctl(arm EPOLLOUT)");
        }
      }
      return;
    }
    ThrowErrno("AsyncServer: write");
  }
  conn.outbox.clear();
  conn.outbox_off = 0;
  if (conn.want_write) {
    conn.want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.u64 = conn.id;
    if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) != 0) {
      ThrowErrno("AsyncServer: epoll_ctl(disarm EPOLLOUT)");
    }
  }
  MaybeClose(loop, conn);
}

void AsyncServer::MaybeClose(Loop& loop, Conn& conn) {
  if (conn.closed || !conn.read_eof) return;
  // Close-after-drain: the peer half-closed, so finish any queued work and
  // flush the remaining responses before tearing down.
  if (conn.dispatch_inflight || !conn.pending.empty()) return;
  if (conn.outbox_off < conn.outbox.size()) return;
  CloseConn(loop, conn);
}

void AsyncServer::CloseConn(Loop& loop, Conn& conn) {
  if (conn.closed) return;
  conn.closed = true;
  std::size_t unflushed = conn.outbox.size() - conn.outbox_off;
  if (unflushed > 0) {
    OutboxBytesGauge().Add(-static_cast<std::int64_t>(unflushed));
  }
  ::close(conn.fd);  // also deregisters from epoll
  conn.fd = -1;
  conn.active_guard.Release();
  loop.dead.push_back(conn.id);
}

void AsyncServer::SweepIdle(Loop& loop) {
  auto now = std::chrono::steady_clock::now();
  if (now - loop.last_idle_sweep < options_.idle_timeout / 2) return;
  loop.last_idle_sweep = now;
  static obs::Counter* idle_closed = &NamedCounter("server.net.idle_closed");
  for (auto& [id, conn] : loop.conns) {
    if (conn->closed || conn->dispatch_inflight) continue;
    if (now - conn->last_activity >= options_.idle_timeout) {
      idle_closed->Increment();
      CloseConn(loop, *conn);
    }
  }
}

}  // namespace reed::net
