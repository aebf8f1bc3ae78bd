#include "rpc/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/logging.h"
#include "common/serde.h"
#include "common/string_util.h"

namespace blobseer::rpc {

namespace {

/// Request body prefix: [u64 corr_id][u32 method].
constexpr uint32_t kReqHeaderBytes = 12;
/// Response body prefix: [u64 corr_id][u8 code][u32 msg_len].
constexpr uint32_t kRspHeaderBytes = 13;
/// Least free space the reactor offers one recv on a connection.
constexpr size_t kMinRecvRoom = 4096;
/// Most iovecs gathered into one sendmsg of queued response frames.
constexpr size_t kMaxIov = 64;

Status ReadFull(int fd, void* buf, size_t n) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    ssize_t r = ::recv(fd, p, n, 0);
    if (r == 0) return Status::Unavailable("connection closed");
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("recv: %s", strerror(errno)));
    }
    p += r;
    n -= static_cast<size_t>(r);
  }
  return Status::OK();
}

/// Sends every byte of `iov[0, n)`, in one sendmsg unless the socket takes
/// less. Adjusts the iovecs as it goes.
Status SendAll(int fd, iovec* iov, size_t n) {
  while (n > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = n;
    ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(StrFormat("sendmsg: %s", strerror(errno)));
    }
    size_t sent = static_cast<size_t>(r);
    while (n > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      iov++;
      n--;
    }
    if (n > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

Status ParseHostPort(const std::string& address, std::string* host,
                     uint16_t* port) {
  size_t colon = address.rfind(':');
  if (colon == std::string::npos)
    return Status::InvalidArgument("address must be host:port: " + address);
  *host = address.substr(0, colon);
  if (host->empty()) *host = "127.0.0.1";
  char* end = nullptr;
  long p = strtol(address.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || p < 0 || p > 65535)
    return Status::InvalidArgument("bad port in address: " + address);
  *port = static_cast<uint16_t>(p);
  return Status::OK();
}

Status FillSockaddr(const std::string& host, uint16_t port,
                    sockaddr_in* addr) {
  std::memset(addr, 0, sizeof(*addr));
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  const char* h = host == "localhost" ? "127.0.0.1" : host.c_str();
  if (host == "0.0.0.0" || host.empty()) {
    addr->sin_addr.s_addr = INADDR_ANY;
  } else if (inet_pton(AF_INET, h, &addr->sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse IPv4 host: " + host);
  }
  return Status::OK();
}

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// One response frame (see rpc/wire.h frame format v2), kept in two parts
/// so the payload goes to the socket without being copied into the frame.
struct OutFrame {
  std::string head;  ///< length prefix, response header, status message
  std::string body;  ///< response payload (empty on error)
  size_t size() const { return head.size() + body.size(); }
};

OutFrame EncodeResponseFrame(uint64_t corr, const Status& st,
                             std::string payload) {
  if (!st.ok()) payload.clear();
  uint32_t msg_len = static_cast<uint32_t>(st.message().size());
  uint64_t body = kRspHeaderBytes + msg_len + payload.size();
  if (body > kMaxFrame) {
    // Oversized response: fail the call instead of corrupting the stream.
    Status err = Status::InvalidArgument("response too large");
    return EncodeResponseFrame(corr, err, std::string());
  }
  OutFrame frame;
  frame.head.reserve(4 + kRspHeaderBytes + msg_len);
  uint32_t len = static_cast<uint32_t>(body);
  frame.head.append(reinterpret_cast<const char*>(&len), 4);
  frame.head.append(reinterpret_cast<const char*>(&corr), 8);
  frame.head.push_back(static_cast<char>(static_cast<uint8_t>(st.code())));
  frame.head.append(reinterpret_cast<const char*>(&msg_len), 4);
  frame.head.append(st.message());
  frame.body = std::move(payload);
  return frame;
}

}  // namespace

/// One listening endpoint, served by an epoll reactor thread.
///
/// The reactor owns every socket: it accepts connections, reads request
/// frames straight into each connection's input buffer, parses them, and
/// writes response frames. A request whose method the handler says never
/// waits (ServiceHandler::Blocks) runs inline on the reactor, borrowing its
/// payload from the input buffer; every other request is copied out and
/// dispatched to the transport's worker executor. Either way the completion
/// callback queues the encoded response on the shared Core: from another
/// thread it wakes the reactor through the eventfd, from the reactor itself
/// it needs no wake-up, because the reactor drains the queue after every
/// epoll batch. Draining the whole queue, not just the connection just
/// parsed, matters: an inline NotifySuccess completes AwaitPublished
/// subscriptions parked by other connections. A non-waiting RPC thus wakes
/// two threads (this reactor and the client's reader) instead of four.
///
/// Responses leave in *completion* order — a held call (e.g. a parked
/// AwaitPublished subscription) does not block the requests pipelined behind
/// it on the same connection, and an idle hold costs no thread anywhere. The
/// price of running handlers inline: a slow inline request delays every
/// connection of this endpoint for its duration (e.g. a provider read that
/// arrives while a segment rotation syncs under the page store's lock).
///
/// Completion callbacks may outlive both their connection and this server
/// (a subscription can fire after StopServing); they reach the reactor only
/// through a shared Core with an `alive` flag, so late completions are
/// dropped instead of touching freed state.
class TcpServer {
 public:
  TcpServer(int listen_fd, std::shared_ptr<ServiceHandler> handler,
            Executor* dispatch)
      : listen_fd_(listen_fd),
        handler_(std::move(handler)),
        dispatch_(dispatch),
        core_(std::make_shared<Core>()) {
    SetNonBlocking(listen_fd_);
    epoll_fd_ = ::epoll_create1(0);
    BS_CHECK(epoll_fd_ >= 0) << "epoll_create1: " << strerror(errno);
    core_->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    BS_CHECK(core_->wake_fd >= 0) << "eventfd: " << strerror(errno);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &listen_tag_;
    BS_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0);
    ev.data.ptr = &wake_tag_;
    BS_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, core_->wake_fd, &ev) == 0);
    reactor_ = std::thread([this] { ReactorLoop(); });
  }

  ~TcpServer() {
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      core_->stop = true;
      core_->WakeLocked();
    }
    reactor_.join();
    // In-flight handler invocations drain on the transport's dispatch
    // executor; their completions see core_->alive == false and drop.
  }

 private:
  struct Conn {
    int fd = -1;
    /// Set (under Core::mu) by the reactor when the connection dies; late
    /// completions for it are discarded.
    bool closed = false;
    // Reactor-thread-only state below.
    std::string inbuf;  ///< receive buffer; bytes [inpos, inlen) unparsed
    size_t inpos = 0;
    size_t inlen = 0;
    std::deque<OutFrame> outq;  ///< encoded frames awaiting the socket
    size_t outpos = 0;          ///< bytes of outq.front() already sent
    bool want_write = false;    ///< EPOLLOUT interest registered
  };

  /// State shared with handler-completion callbacks.
  struct Core {
    std::mutex mu;
    bool alive = true;
    bool stop = false;
    int wake_fd = -1;
    std::deque<std::pair<std::shared_ptr<Conn>, OutFrame>> completions;

    void WakeLocked() {
      if (wake_fd < 0) return;
      uint64_t one = 1;
      ssize_t r = ::write(wake_fd, &one, sizeof(one));
      (void)r;  // EAGAIN (counter saturated) still leaves the fd readable
    }

    void EnqueueResponse(std::shared_ptr<Conn> conn, OutFrame frame) {
      std::lock_guard<std::mutex> lock(mu);
      if (!alive || conn->closed) return;
      completions.emplace_back(std::move(conn), std::move(frame));
      // The reactor drains the queue after every epoll batch, so a frame
      // queued on its own thread needs no wake-up.
      if (reactor_core_ != this) WakeLocked();
    }
  };

  /// The Core of the reactor running on this thread, if any.
  static inline thread_local const Core* reactor_core_ = nullptr;

  void ReactorLoop() {
    reactor_core_ = core_.get();
    epoll_event events[64];
    for (;;) {
      int n = ::epoll_wait(epoll_fd_, events, 64, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        BS_LOG(Warn) << "epoll_wait: " << strerror(errno);
        break;
      }
      bool stop = false;
      for (int i = 0; i < n; i++) {
        void* tag = events[i].data.ptr;
        if (tag == &listen_tag_) {
          AcceptReady();
        } else if (tag == &wake_tag_) {
          uint64_t drain;
          while (::read(core_->wake_fd, &drain, sizeof(drain)) > 0) {
          }
          std::lock_guard<std::mutex> lock(core_->mu);
          stop = core_->stop;
        } else {
          Conn* c = static_cast<Conn*>(tag);
          // The conn may have been closed by an earlier event in this
          // batch; its epoll registration is gone then, but the kernel can
          // still deliver events armed before the EPOLL_CTL_DEL.
          auto it = conns_.find(c->fd);
          if (it == conns_.end() || it->second.get() != c) continue;
          if (events[i].events & (EPOLLERR | EPOLLHUP)) {
            CloseConn(it->second);
            continue;
          }
          if (events[i].events & EPOLLIN) {
            if (!ReadReady(it->second)) continue;  // closed
          }
          if (events[i].events & EPOLLOUT) FlushWrites(it->second);
        }
      }
      DrainCompletions();
      if (stop) break;
    }
    // Teardown on the reactor thread: close every socket, then mark the
    // core dead so late completions become no-ops.
    std::vector<std::shared_ptr<Conn>> victims;
    for (auto& [fd, conn] : conns_) victims.push_back(conn);
    for (auto& conn : victims) CloseConn(conn);
    ::close(listen_fd_);
    ::close(epoll_fd_);
    std::lock_guard<std::mutex> lock(core_->mu);
    core_->alive = false;
    ::close(core_->wake_fd);
    core_->wake_fd = -1;
    core_->completions.clear();
  }

  void AcceptReady() {
    for (;;) {
      int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno != ECONNABORTED) {
          BS_LOG(Warn) << "accept failed: " << strerror(errno);
        }
        return;
      }
      int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto conn = std::make_shared<Conn>();
      conn->fd = fd;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = conn.get();
      if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      conns_.emplace(fd, std::move(conn));
    }
  }

  /// Receives into the tail of the connection's input buffer and handles
  /// every complete frame; returns false when the connection was closed.
  bool ReadReady(const std::shared_ptr<Conn>& conn) {
    Conn* c = conn.get();
    for (;;) {
      // The buffer doubles when nearly full and never shrinks, so a
      // connection that carries large requests soon takes each in one recv.
      if (c->inbuf.size() - c->inlen < kMinRecvRoom)
        c->inbuf.resize(std::max(kMinRecvRoom, 2 * c->inbuf.size()));
      size_t room = c->inbuf.size() - c->inlen;
      ssize_t r = ::recv(c->fd, c->inbuf.data() + c->inlen, room, 0);
      if (r > 0) {
        c->inlen += static_cast<size_t>(r);
        if (!ParseFrames(conn)) return false;
        if (static_cast<size_t>(r) < room) return true;
        continue;
      }
      if (r == 0) {
        CloseConn(conn);
        return false;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      CloseConn(conn);
      return false;
    }
  }

  /// Splits the connection's input buffer into request frames and
  /// dispatches each; returns false if a malformed frame closed the
  /// connection.
  bool ParseFrames(const std::shared_ptr<Conn>& conn) {
    Conn* c = conn.get();
    for (;;) {
      size_t avail = c->inlen - c->inpos;
      if (avail < 4) break;
      uint32_t len;
      std::memcpy(&len, c->inbuf.data() + c->inpos, 4);
      if (len < kReqHeaderBytes || len > kMaxFrame) {
        CloseConn(conn);
        return false;
      }
      if (avail < 4 + static_cast<uint64_t>(len)) break;
      const char* body = c->inbuf.data() + c->inpos + 4;
      uint64_t corr;
      uint32_t method;
      std::memcpy(&corr, body, 8);
      std::memcpy(&method, body + 8, 4);
      c->inpos += 4 + len;
      Dispatch(conn, corr, static_cast<Method>(method),
               Slice(body + kReqHeaderBytes, len - kReqHeaderBytes));
    }
    // Move the unparsed tail to the front; the buffer keeps its size.
    if (c->inpos > 0) {
      std::memmove(c->inbuf.data(), c->inbuf.data() + c->inpos,
                   c->inlen - c->inpos);
      c->inlen -= c->inpos;
      c->inpos = 0;
    }
    return true;
  }

  /// Runs a non-waiting request inline and hands any other to the dispatch
  /// pool. `payload` points into the connection's input buffer, which stays
  /// untouched until this returns.
  void Dispatch(const std::shared_ptr<Conn>& conn, uint64_t corr,
                Method method, Slice payload) {
    HandlerDone done = [core = core_, conn, corr](Status st, std::string rsp) {
      core->EnqueueResponse(conn,
                            EncodeResponseFrame(corr, st, std::move(rsp)));
    };
    if (!handler_->Blocks(method)) {
      handler_->HandleAsync(method, payload, std::move(done));
      return;
    }
    // The dispatch task owns the handler (keeps the service alive past
    // StopServing while it runs) and a copy of the payload (HandleAsync only
    // borrows it).
    dispatch_->Schedule([handler = handler_, method,
                         payload = payload.ToString(),
                         done = std::move(done)]() mutable {
      handler->HandleAsync(method, Slice(payload), std::move(done));
    });
  }

  void DrainCompletions() {
    std::deque<std::pair<std::shared_ptr<Conn>, OutFrame>> batch;
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      batch.swap(core_->completions);
    }
    for (auto& [conn, frame] : batch) {
      if (!conn->closed) conn->outq.push_back(std::move(frame));
    }
    // One gathered send per connection, not per frame.
    for (auto& [conn, frame] : batch) FlushWrites(conn);
  }

  void FlushWrites(const std::shared_ptr<Conn>& conn) {
    Conn* c = conn.get();
    if (c->closed) return;
    while (!c->outq.empty()) {
      iovec iov[kMaxIov];
      size_t n = 0;
      size_t skip = c->outpos;
      for (auto f = c->outq.begin(); f != c->outq.end() && n + 2 <= kMaxIov;
           ++f) {
        for (const std::string* part : {&f->head, &f->body}) {
          if (skip >= part->size()) {
            skip -= part->size();
            continue;
          }
          iov[n].iov_base = const_cast<char*>(part->data() + skip);
          iov[n].iov_len = part->size() - skip;
          n++;
          skip = 0;
        }
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = n;
      ssize_t r = ::sendmsg(c->fd, &msg, MSG_NOSIGNAL);
      if (r >= 0) {
        c->outpos += static_cast<size_t>(r);
        while (!c->outq.empty() && c->outpos >= c->outq.front().size()) {
          c->outpos -= c->outq.front().size();
          c->outq.pop_front();
        }
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        SetWriteInterest(c, true);
        return;
      }
      CloseConn(conn);
      return;
    }
    SetWriteInterest(c, false);
  }

  void SetWriteInterest(Conn* c, bool want) {
    if (c->want_write == want) return;
    c->want_write = want;
    epoll_event ev{};
    ev.events = EPOLLIN | (want ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    ev.data.ptr = c;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev);
  }

  void CloseConn(const std::shared_ptr<Conn>& conn) {
    Conn* c = conn.get();
    if (c->closed) return;
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      c->closed = true;
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
    ::close(c->fd);
    conns_.erase(c->fd);
  }

  int listen_fd_;
  int epoll_fd_ = -1;
  int listen_tag_ = 0;  ///< epoll data.ptr sentinel for the listen socket
  int wake_tag_ = 0;    ///< epoll data.ptr sentinel for the wake eventfd
  std::shared_ptr<ServiceHandler> handler_;
  Executor* dispatch_;
  std::shared_ptr<Core> core_;
  std::map<int, std::shared_ptr<Conn>> conns_;  // reactor-thread only
  std::thread reactor_;
};

namespace {

/// Reads one response frame: its header, then its status message, then its
/// payload straight into `*payload`. The returned status is transport-level;
/// on OK, `*corr` identifies the request, `*app_status` carries the
/// application outcome and `*payload` the body.
Status ReadResponseFrame(int fd, uint64_t* corr, Status* app_status,
                         std::string* payload) {
  char head[4 + kRspHeaderBytes];
  BS_RETURN_NOT_OK(ReadFull(fd, head, sizeof(head)));
  uint32_t rlen;
  std::memcpy(&rlen, head, 4);
  if (rlen < kRspHeaderBytes || rlen > kMaxFrame)
    return Status::Corruption("bad response frame length");
  std::memcpy(corr, head + 4, 8);
  uint8_t code = static_cast<uint8_t>(head[12]);
  uint32_t msg_len;
  std::memcpy(&msg_len, head + 13, 4);
  if (kRspHeaderBytes + static_cast<uint64_t>(msg_len) > rlen)
    return Status::Corruption("bad response message length");
  std::string msg(msg_len, '\0');
  BS_RETURN_NOT_OK(ReadFull(fd, msg.data(), msg_len));
  payload->resize(rlen - kRspHeaderBytes - msg_len);
  BS_RETURN_NOT_OK(ReadFull(fd, payload->data(), payload->size()));
  if (code != 0) {
    *app_status = Status::FromCode(static_cast<StatusCode>(code),
                                   std::move(msg));
    payload->clear();
  } else {
    *app_status = Status::OK();
  }
  return Status::OK();
}

/// Pipelined channel: requests are framed onto the connection as they
/// arrive (writers serialized under mu_) carrying a per-channel correlation
/// id, and a per-connection reader thread matches each response to its
/// callback by that id — responses complete in whatever order the server
/// finishes them. Call is a thin park-on-event wrapper over CallAsync, and
/// a caller thread is never blocked on the network on the async path.
///
/// On connection failure every in-flight request is transparently re-issued
/// once over a fresh connection (handles servers restarted between calls;
/// safe for BlobSeer's idempotent request set), then failed.
class TcpChannel : public Channel {
 public:
  explicit TcpChannel(std::string address) : address_(std::move(address)) {}

  ~TcpChannel() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
      // Wake the reader; it owns the fd and closes it on exit, failing any
      // still-pending callbacks (closed_ suppresses their retry).
      if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
    }
    for (auto& t : readers_) t.join();
  }

  Status Call(Method method, Slice request, std::string* response) override {
    auto event = std::make_shared<CondVarWaitEvent>();
    Status result;
    CallAsync(method, request, [&, event](Status st, std::string payload) {
      result = std::move(st);
      *response = std::move(payload);
      event->Signal();
    });
    event->Await();
    return result;
  }

  void CallAsync(Method method, Slice request, CallCallback done) override {
    // Local validation failures never touch the wire, so they must not
    // disturb the healthy pipeline (Submit treats write failures as
    // connection failures and re-issues every in-flight request).
    if (kReqHeaderBytes + static_cast<uint64_t>(request.size()) > kMaxFrame) {
      done(Status::InvalidArgument("request too large"), std::string());
      return;
    }
    Pending p;
    p.method = static_cast<uint32_t>(method);
    p.request = request.ToString();  // retained for the transparent retry
    p.done = std::move(done);
    p.retried = false;
    Submit(std::move(p));
  }

 private:
  struct Pending {
    uint32_t method = 0;
    std::string request;
    CallCallback done;
    bool retried = false;
  };

  void Submit(Pending p) {
    Status failure;
    std::deque<Pending> orphans;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        failure = Status::Unavailable("channel closed: " + address_);
        orphans.push_back(std::move(p));
      } else {
        if (fd_ < 0) failure = ConnectLocked();
        if (failure.ok()) {
          uint64_t corr = next_corr_++;
          failure = WriteRequestLocked(corr, p);
          if (failure.ok()) {
            pending_.emplace(corr, std::move(p));
            return;
          }
        }
        // A mid-pipeline write failure strands every in-flight request:
        // tear the connection down and take them all for retry/failure.
        if (fd_ >= 0) {
          ::shutdown(fd_, SHUT_RDWR);
          fd_ = -1;
          gen_++;
        }
        orphans = TakeAllPendingLocked();
        orphans.push_back(std::move(p));
      }
    }
    FailOrRetry(std::move(orphans), failure);
  }

  std::deque<Pending> TakeAllPendingLocked() {
    std::deque<Pending> out;
    for (auto& [corr, p] : pending_) out.push_back(std::move(p));
    pending_.clear();
    return out;
  }

  /// Re-issues each orphaned request once; requests already retried (or
  /// arriving after close) complete with `cause`. Runs without mu_ held.
  void FailOrRetry(std::deque<Pending> orphans, const Status& cause) {
    for (auto& p : orphans) {
      if (p.retried) {
        p.done(cause, std::string());
      } else {
        p.retried = true;
        Submit(std::move(p));
      }
    }
  }

  Status ConnectLocked() {
    std::string host;
    uint16_t port;
    BS_RETURN_NOT_OK(ParseHostPort(address_, &host, &port));
    sockaddr_in addr;
    BS_RETURN_NOT_OK(FillSockaddr(host, port, &addr));
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::IOError("socket");
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return Status::Unavailable(
          StrFormat("connect %s: %s", address_.c_str(), strerror(errno)));
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fd_ = fd;
    uint64_t gen = ++gen_;
    readers_.emplace_back([this, fd, gen] { ReaderLoop(fd, gen); });
    return Status::OK();
  }

  Status WriteRequestLocked(uint64_t corr, const Pending& p) {
    uint64_t body = kReqHeaderBytes + p.request.size();
    if (body > kMaxFrame) return Status::InvalidArgument("request too large");
    uint32_t len = static_cast<uint32_t>(body);
    char head[4 + kReqHeaderBytes];
    std::memcpy(head, &len, 4);
    std::memcpy(head + 4, &corr, 8);
    std::memcpy(head + 12, &p.method, 4);
    // One sendmsg: under TCP_NODELAY two sends make two segments, and the
    // server could wake for the header alone.
    iovec iov[2] = {{head, sizeof(head)},
                    {const_cast<char*>(p.request.data()), p.request.size()}};
    return SendAll(fd_, iov, 2);
  }

  void ReaderLoop(int fd, uint64_t gen) {
    for (;;) {
      uint64_t corr = 0;
      Status app_status;
      std::string payload;
      Status rs = ReadResponseFrame(fd, &corr, &app_status, &payload);
      if (!rs.ok()) {
        std::deque<Pending> orphans;
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (gen_ == gen) {
            // This connection is still current: this thread owns teardown.
            fd_ = -1;
            gen_++;
            orphans = TakeAllPendingLocked();
          }
        }
        ::close(fd);
        FailOrRetry(std::move(orphans), rs);
        return;
      }
      CallCallback done;
      bool protocol_violation = false;
      std::deque<Pending> orphans;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (gen_ != gen) {
          // This connection was already torn down by a writer; it owns no
          // channel state anymore.
          ::close(fd);
          return;
        }
        auto it = pending_.find(corr);
        if (it == pending_.end()) {
          // Unknown correlation id: protocol violation. Tear the
          // connection down like a read failure (remaining in-flight
          // requests retry over a fresh connection) so later Submits
          // never write into a stream we no longer trust.
          fd_ = -1;
          gen_++;
          orphans = TakeAllPendingLocked();
          protocol_violation = true;
        } else {
          done = std::move(it->second.done);
          pending_.erase(it);
        }
      }
      if (protocol_violation) {
        ::close(fd);
        FailOrRetry(std::move(orphans),
                    Status::Corruption("unknown correlation id"));
        return;
      }
      done(std::move(app_status), std::move(payload));
    }
  }

  std::string address_;
  std::mutex mu_;
  int fd_ = -1;
  uint64_t gen_ = 0;
  uint64_t next_corr_ = 1;
  bool closed_ = false;
  std::map<uint64_t, Pending> pending_;  ///< corr id -> in-flight request
  std::vector<std::thread> readers_;     // joined in the destructor
};

}  // namespace

TcpTransport::TcpTransport() = default;
TcpTransport::~TcpTransport() = default;

Result<std::string> TcpTransport::Serve(
    const std::string& address, std::shared_ptr<ServiceHandler> handler) {
  std::string host;
  uint16_t port;
  BS_RETURN_NOT_OK(ParseHostPort(address, &host, &port));
  sockaddr_in addr;
  BS_RETURN_NOT_OK(FillSockaddr(host, port, &addr));

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IOError("socket");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError(
        StrFormat("bind %s: %s", address.c_str(), strerror(errno)));
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    return Status::IOError("listen");
  }
  sockaddr_in bound;
  socklen_t blen = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) != 0) {
    ::close(fd);
    return Status::IOError("getsockname");
  }
  char ip[INET_ADDRSTRLEN];
  inet_ntop(AF_INET, &bound.sin_addr, ip, sizeof(ip));
  std::string bound_addr =
      StrFormat("%s:%u", host == "0.0.0.0" ? "127.0.0.1" : ip,
                static_cast<unsigned>(ntohs(bound.sin_port)));

  std::lock_guard<std::mutex> lock(mu_);
  if (servers_.count(bound_addr)) {
    ::close(fd);
    return Status::AlreadyExists("already serving: " + bound_addr);
  }
  // The dispatch workers are shared by every server on this transport and
  // created lazily so client-only transports never spawn them.
  if (!dispatch_)
    dispatch_ = std::make_unique<ThreadPoolExecutor>(kDispatchThreads);
  servers_[bound_addr] =
      std::make_unique<TcpServer>(fd, std::move(handler), dispatch_.get());
  return bound_addr;
}

Status TcpTransport::StopServing(const std::string& address) {
  std::unique_ptr<TcpServer> victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = servers_.find(address);
    if (it == servers_.end()) return Status::NotFound("server: " + address);
    victim = std::move(it->second);
    servers_.erase(it);
  }
  return Status::OK();  // destructor joins the reactor thread
}

Result<std::shared_ptr<Channel>> TcpTransport::Connect(
    const std::string& address) {
  return std::shared_ptr<Channel>(std::make_shared<TcpChannel>(address));
}

}  // namespace blobseer::rpc
