// Real-socket transport backend: an epoll event loop speaking the CRC-framed
// wire format over TCP or Unix-domain sockets, behind runtime::Transport.
//
// One class, two roles:
//
//   * hub (SocketTransport::listen) — the server side. Owns the listener
//     and every accepted connection. Sessions register with
//     register_session(sid, num_users, hooks) and get back a Transport&
//     whose frames come from the shared BufferPool, are sealed ONCE and
//     are enqueued as BufferRefs on the receiver connections (broadcast =
//     one buffer, refcount per queue — the one-buffer-many-queues rule the
//     in-process router already follows). Inbound frames addressed to
//     receiver == num_users are parsed/validated and delivered to the
//     session's on_frame hook; frames addressed to another user are
//     RELAYED zero-copy (the same pooled buffer moves from the decoder to
//     the target's write queue — the paper's system model routes all
//     user-to-user traffic through the server).
//
//   * client (SocketTransport::connect) — one connection to a hub, bound to
//     (session, user) by a kSessionHello / kSessionWelcome handshake. The
//     handshake is pipelined: data frames may be enqueued immediately after
//     connect() returns, FIFO order guarantees the hub binds first.
//     Inbound frames go to the sink callback.
//
// Connection lifecycle maps onto the crash/revive fencing the in-process
// transports established (ROADMAP Decisions, PR 5):
//
//   * a dropped connection is a crash: the user leaves the live set (and
//     an in-flight recovery wait). Its INBOUND side still drains first —
//     frames the peer flushed before closing are valid protocol input
//     ("delayed, not dropped"), which is how a post-upload dropper's
//     masked model stays in the aggregate;
//   * a reconnect with a session handshake revives: the new connection is
//     re-admitted and the hub hands it whatever was PARKED for the user.
//
// Parking is the piece real processes need that in-process crash() does
// not: clients join and reconnect at their own pace, so frames ADDRESSED
// to a user with no bound connection (not yet joined, or between dial and
// re-handshake) land in a bounded per-user store-and-forward bin and are
// flushed, in order, right after the welcome when the user (re)binds.
// A dead link's undelivered write queue re-parks the same way — down
// users are store-and-forward targets, not black holes. What IS lost is
// anything the dead peer's kernel buffer swallowed, which is why the
// session layer never waits on a user whose link broke mid-round. Bins
// are bounded by the same queue cap; overflow drops-and-counts like a
// full mailbox.
//
// Backpressure: per-connection write queues and parked bins hold the sync
// fan-in bound plus headroom (runtime::sync_fanin_bound +
// runtime::kCapacityHeadroom, the rule the in-process router is sized by),
// resolved from N at handshake. A sender hitting a full queue blocks
// (flush + POLLOUT waits) like a sender on a full mailbox, bounded by
// kWriteStallTimeoutMs — a peer that stalls past the timeout is declared
// crashed and torn down.
//
// Threading: a SocketTransport is single-threaded — exactly one thread may
// call poll()/send paths. Cross-endpoint concurrency comes from each
// endpoint (hub, every client) owning its own instance, usually on its own
// thread; the global transport counters are atomics and stay coherent.
#pragma once

#include <poll.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.h"
#include "runtime/transport.h"
#include "runtime/wire.h"
#include "transport/buffer_pool.h"
#include "transport/frame.h"
#include "transport/socket/connection.h"
#include "transport/socket/epoll_loop.h"
#include "transport/socket/socket_addr.h"
#include "transport/stats.h"

namespace lsa::transport::socket {

/// Handshake framing constants (payload words of kSessionHello/kWelcome:
/// [magic, version, user, num_users], all canonical field reps).
inline constexpr std::uint32_t kHelloMagic = 0x15a0c0deu;
inline constexpr std::uint32_t kProtoVersion = 1;

/// Freed frame blocks an endpoint's BufferPool keeps for reuse.
inline constexpr std::size_t kPoolRetain = 256;
/// A sender blocked on a full queue past this is talking to a crashed
/// peer: tear down, drain, count.
inline constexpr int kWriteStallTimeoutMs = 10'000;
/// Client connect() retries dial failures (daemon startup races) up to
/// this long before throwing.
inline constexpr int kConnectRetryMs = 5'000;

struct SocketStats {
  std::uint64_t frames_sent = 0;      ///< enqueued outbound (per receiver)
  std::uint64_t frames_delivered = 0; ///< inbound handed to hooks/sink
  std::uint64_t frames_relayed = 0;   ///< hub user->user forwards
  std::uint64_t frames_dropped = 0;   ///< late/unroutable/drained frames
  std::uint64_t frames_parked = 0;    ///< held for a user with no live conn
  std::uint64_t protocol_errors = 0;  ///< corrupt/spoofed/oversized frames
  std::uint64_t accepts = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t revives = 0;          ///< re-handshakes of a seen user
};

/// A validated inbound frame: the view aliases the pooled buffer.
using Inbound = lsa::transport::Inbound;

/// Per-session delivery hooks (hub role). All hooks run on the hub's
/// polling thread; exceptions they throw resurface from poll().
struct SessionHooks {
  std::function<void(const Inbound&)> on_frame;
  std::function<void(std::uint32_t user, bool revived)> on_bind;
  std::function<void(std::uint32_t user)> on_disconnect;
};

class SocketTransport final : public lsa::runtime::Transport {
 public:
  /// Hub: bind + listen. For tcp://host:0 the kernel picks the port —
  /// read it back with tcp_port().
  [[nodiscard]] static std::unique_ptr<SocketTransport> listen(
      const SocketAddr& addr) {
    return std::unique_ptr<SocketTransport>(
        new SocketTransport(Role::kHub, addr, 0, 0, 0));
  }

  /// Client: dial the hub and send the session-binding hello. Returns as
  /// soon as the hello is queued; the welcome is consumed by poll() (or
  /// wait_handshake() when the caller wants confirmation).
  [[nodiscard]] static std::unique_ptr<SocketTransport> connect(
      const SocketAddr& addr, std::uint64_t session, std::uint32_t user,
      std::uint32_t num_users) {
    return std::unique_ptr<SocketTransport>(
        new SocketTransport(Role::kClient, addr, session, user, num_users));
  }

  ~SocketTransport() override {
    conns_.clear();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      if (addr_.kind == SocketAddr::Kind::kUds) {
        ::unlink(addr_.path.c_str());
      }
    }
  }

  // ------------------------------------------------------------- hub API

  /// Registers a session and returns the Transport the session's server
  /// machine sends through. Hub role only.
  lsa::runtime::Transport& register_session(std::uint64_t sid,
                                            std::uint32_t num_users,
                                            SessionHooks hooks) {
    lsa::require(role_ == Role::kHub,
                 "socket: register_session is hub-only");
    auto [it, fresh] = sessions_.try_emplace(sid);
    lsa::require(fresh, "socket: session already registered");
    SessionState& ss = it->second;
    ss.num_users = num_users;
    ss.hooks = std::move(hooks);
    ss.conn_of.assign(num_users, nullptr);
    ss.ever_bound.assign(num_users, 0);
    ss.parked.resize(num_users);
    ss.park_cap = queue_cap(num_users);
    ss.adapter = std::make_unique<HubTransport>(this, sid);
    return *ss.adapter;
  }

  [[nodiscard]] std::uint16_t tcp_port() const {
    return local_tcp_port(listen_fd_);
  }

  [[nodiscard]] bool is_up(std::uint64_t sid, std::uint32_t user) const {
    const auto it = sessions_.find(sid);
    if (it == sessions_.end() || user >= it->second.num_users) return false;
    const Connection* c = it->second.conn_of[user];
    return c != nullptr && !c->failed && !c->tx_dead;
  }

  // --------------------------------------------------------- event pump

  /// Processes ready I/O: accepts, reads (frames to hooks/sink), writes.
  /// Returns the number of epoll events handled. Exceptions thrown by
  /// session hooks / the client sink resurface here after I/O settles.
  std::size_t poll(int timeout_ms = 0) {
    epoll_event evs[64];
    const int n = loop_.wait(std::span<epoll_event>(evs, 64), timeout_ms);
    for (int i = 0; i < n; ++i) {
      const int fd = static_cast<int>(evs[i].data.u64);
      if (role_ == Role::kHub && fd == listen_fd_) {
        accept_ready();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Connection* c = it->second.get();
      if (c->failed) continue;
      if ((evs[i].events & EPOLLOUT) != 0 && !c->tx_dead) {
        if (!c->flush()) {
          tx_fail(c);
        } else {
          update_interest(c);
        }
      }
      if (!c->failed && (evs[i].events & EPOLLIN) != 0) {
        // A peer that closed reports EPOLLIN|EPOLLHUP with its final bytes
        // still readable — pump drains them to the sink first and reports
        // the EOF afterwards, so a result frame racing a close still
        // lands. Frames keep flowing even after the write side dies
        // (tx_dead) or the connection hard-fails mid-pump; only a protocol
        // violation (poisoned) stops delivery.
        bool alive = true;
        ++pump_depth_;  // defer reap(): hooks may tear down THIS conn
        try {
          alive = c->pump_reads([&](BufferRef&& f) {
            if (!c->poisoned) on_frame(c, std::move(f));
          });
        } catch (const lsa::Error&) {
          // Transport-level corruption (oversized length): loud teardown.
          ++stats_.protocol_errors;
          alive = false;
        }
        --pump_depth_;
        if (!alive) fail_conn(c);
      } else if (!c->failed &&
                 (evs[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
        fail_conn(c);
      }
      reap();
    }
    reap();
    rethrow_pending();
    return static_cast<std::size_t>(n);
  }

  /// Client inbound delivery (validated protocol frames; the handshake
  /// welcome is consumed internally).
  void set_sink(std::function<void(const Inbound&)> sink) {
    sink_ = std::move(sink);
  }

  // --------------------------------------------- Transport (client role)

  [[nodiscard]] BufferRef acquire(std::size_t elems) override {
    return acquire_frame(pool_, elems);
  }
  [[nodiscard]] std::vector<BufferRef> acquire_batch(
      std::size_t count, std::size_t elems) override {
    return acquire_frame_batch(pool_, count, elems);
  }

  void send(BufferRef frame, lsa::runtime::MsgType type, std::uint32_t sender,
            std::uint32_t receiver, std::uint64_t round) override {
    lsa::require(role_ == Role::kClient,
                 "socket: hub sends go through register_session's transport");
    if (conn_ == nullptr) {
      // Crashed-sender parity: a disconnected endpoint's sends vanish.
      ++stats_.frames_dropped;
      return;
    }
    seal_frame(frame, type, sender, receiver, round);
    enqueue_out(conn_, std::move(frame));
    reap();
    rethrow_pending();
  }

  /// A client talks to the hub alone; fan-outs are the hub session's.
  void broadcast(BufferRef /*frame*/, lsa::runtime::MsgType /*type*/,
                 std::uint32_t /*sender*/, std::uint64_t /*round*/,
                 std::uint32_t /*num_receivers*/) override {
    throw lsa::Error(
        "socket: broadcasts go through register_session's transport");
  }

  // ------------------------------------------------- client lifecycle

  [[nodiscard]] bool connected() const { return conn_ != nullptr; }
  [[nodiscard]] bool handshaken() const { return handshaken_; }

  /// Pumps until the hub's welcome lands (handshake confirmed) or the
  /// deadline passes / the connection dies — both throw.
  void wait_handshake(int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!handshaken_) {
      lsa::require(conn_ != nullptr,
                   "socket: connection closed during handshake");
      lsa::require(std::chrono::steady_clock::now() < deadline,
                   "socket: handshake timed out");
      poll(10);
    }
  }

  /// Drains the write queue (blocking, bounded). Used before an orderly
  /// disconnect so uploaded frames actually reach the hub.
  void flush_pending(int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (conn_ != nullptr && conn_->wants_write()) {
      if (!conn_->flush()) {
        tx_fail(conn_);  // hub gone; keep the read side for a last result
        break;
      }
      if (conn_ == nullptr || !conn_->wants_write()) break;
      if (std::chrono::steady_clock::now() >= deadline) break;
      pollfd p{conn_->fd(), POLLOUT, 0};
      ::poll(&p, 1, 10);
    }
    reap();
  }

  /// Orderly close. The hub observes EOF and maps it to crash().
  void disconnect() {
    lsa::require(role_ == Role::kClient, "socket: disconnect is client-only");
    if (conn_ == nullptr) return;
    flush_pending(kWriteStallTimeoutMs);
    if (conn_ != nullptr) fail_conn(conn_);
    reap();
  }

  /// Fresh dial + session hello. The hub maps the re-handshake to
  /// revive(): future traffic flows, frames lost while down stay lost.
  void reconnect() {
    lsa::require(role_ == Role::kClient && conn_ == nullptr,
                 "socket: reconnect needs a disconnected client");
    dial_and_hello();
  }

  // ------------------------------------------------------ introspection

  [[nodiscard]] const SocketStats& stats() const { return stats_; }
  [[nodiscard]] BufferPool& pool() { return pool_; }

  /// Total queued outbound frames across a session's connections.
  [[nodiscard]] std::size_t queued_frames(std::uint64_t sid) const {
    std::size_t total = 0;
    const auto it = sessions_.find(sid);
    if (it == sessions_.end()) return 0;
    for (const Connection* c : it->second.conn_of) {
      if (c != nullptr) total += c->queue_depth();
    }
    return total;
  }

  /// Refcount of the frame at the head of one user's write queue (tests
  /// pin the one-buffer-many-queues broadcast ownership through this).
  [[nodiscard]] std::uint32_t queued_front_ref_count(std::uint64_t sid,
                                                     std::uint32_t user)
      const {
    const Connection* c = sessions_.at(sid).conn_of.at(user);
    lsa::require(c != nullptr && c->queue_depth() > 0,
                 "socket: no queued frame");
    return c->queued_front().ref_count();
  }

  /// Test hook: suspend the opportunistic flush after enqueue so queued
  /// frames stay observable (poll() still flushes on EPOLLOUT).
  void pause_writes(bool on) { pause_writes_ = on; }

 private:
  enum class Role { kHub, kClient };

  class HubTransport final : public lsa::runtime::Transport {
   public:
    HubTransport(SocketTransport* t, std::uint64_t sid) : t_(t), sid_(sid) {}
    [[nodiscard]] BufferRef acquire(std::size_t elems) override {
      return acquire_frame(t_->pool_, elems);
    }
    [[nodiscard]] std::vector<BufferRef> acquire_batch(
        std::size_t count, std::size_t elems) override {
      return acquire_frame_batch(t_->pool_, count, elems);
    }
    void send(BufferRef frame, lsa::runtime::MsgType type,
              std::uint32_t sender, std::uint32_t receiver,
              std::uint64_t round) override {
      t_->hub_send(sid_, std::move(frame), type, sender, receiver, round);
    }
    void broadcast(BufferRef frame, lsa::runtime::MsgType type,
                   std::uint32_t sender, std::uint64_t round,
                   std::uint32_t num_receivers) override {
      t_->hub_broadcast(sid_, std::move(frame), type, sender, round,
                        num_receivers);
    }

   private:
    SocketTransport* t_;
    std::uint64_t sid_;
  };

  struct SessionState {
    std::uint32_t num_users = 0;
    SessionHooks hooks;
    std::vector<Connection*> conn_of;
    std::vector<std::uint8_t> ever_bound;
    /// Store-and-forward bins for users with no bound connection, flushed
    /// at (re)bind; bounded by park_cap, overflow drops-and-counts.
    std::vector<std::vector<BufferRef>> parked;
    std::size_t park_cap = 0;
    std::unique_ptr<HubTransport> adapter;
  };

  SocketTransport(Role role, const SocketAddr& addr, std::uint64_t session,
                  std::uint32_t user, std::uint32_t num_users)
      : role_(role),
        addr_(addr),
        pool_(kPoolRetain),
        session_(session),
        user_(user),
        num_users_(num_users) {
    if (role_ == Role::kHub) {
      listen_fd_ = bind_listen(addr_);
      loop_.add(listen_fd_, EPOLLIN, static_cast<std::uint64_t>(listen_fd_));
    } else {
      dial_and_hello();
    }
  }

  /// Write-queue and parked-bin bound for an N-user session: the sync
  /// fan-in rule the in-process router is sized by.
  [[nodiscard]] static std::size_t queue_cap(std::uint32_t num_users) {
    return lsa::runtime::sync_fanin_bound(num_users) +
           lsa::runtime::kCapacityHeadroom;
  }

  // -------------------------------------------------------- client dial

  void dial_and_hello() {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kConnectRetryMs);
    int fd = -1;
    while ((fd = dial_once(addr_)) < 0) {
      lsa::require(std::chrono::steady_clock::now() < deadline,
                   "socket: connect timed out: " + addr_.to_string());
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    set_nonblocking(fd);
    set_nodelay(fd, addr_);
    auto conn = std::make_unique<Connection>(fd, pool_, queue_cap(num_users_));
    conn->session = session_;
    conn->user = user_;
    conn_ = conn.get();
    handshaken_ = false;
    loop_.add(fd, EPOLLIN, static_cast<std::uint64_t>(fd));
    conns_.emplace(fd, std::move(conn));
    const lsa::field::Fp32::rep hello[4] = {kHelloMagic, kProtoVersion,
                                            user_, num_users_};
    enqueue_out(conn_, build_frame(pool_, lsa::runtime::MsgType::kSessionHello,
                                   user_, num_users_, session_,
                                   std::span<const lsa::field::Fp32::rep>(
                                       hello, 4)));
    reap();
  }

  // ------------------------------------------------------------- accept

  void accept_ready() {
    while (true) {
      const int cfd = ::accept4(listen_fd_, nullptr, nullptr,
                                SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (cfd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or transient accept error: nothing more to take
      }
      set_nodelay(cfd, addr_);
      // Queue cap before binding only needs to hold the welcome; the real
      // cap is resolved at handshake when num_users is known.
      auto conn = std::make_unique<Connection>(cfd, pool_, queue_cap(8));
      loop_.add(cfd, EPOLLIN, static_cast<std::uint64_t>(cfd));
      conns_.emplace(cfd, std::move(conn));
      ++stats_.accepts;
    }
  }

  // ---------------------------------------------------- inbound routing

  void on_frame(Connection* c, BufferRef f) {
    if (role_ == Role::kClient) {
      on_client_frame(c, std::move(f));
      return;
    }
    if (!c->bound()) {
      handle_hello(c, std::move(f));
      return;
    }
    const lsa::runtime::WireHeader h = lsa::runtime::decode_header(
        f.bytes().first<lsa::runtime::kHeaderBytes>());
    SessionState& ss = sessions_.at(c->session);
    if (h.sender != c->user) {
      proto_fail(c);  // spoofed sender
      return;
    }
    if (h.receiver == ss.num_users) {
      // For the server machine: validate end-to-end, deliver the view.
      Inbound in;
      in.buf = std::move(f);
      try {
        in.view = parse_frame(in.buf);
      } catch (const lsa::Error&) {
        proto_fail(c);
        return;
      }
      ++stats_.frames_delivered;
      invoke_hook([&] { ss.hooks.on_frame(in); });
      return;
    }
    if (h.receiver < ss.num_users) {
      // Relay: the pooled buffer moves straight from this connection's
      // decoder to the target's write queue (or parked bin) — zero-copy
      // forwarding. CRC stays end-to-end (the destination validates).
      ++stats_.frames_relayed;
      deliver_or_park(ss, h.receiver, std::move(f));
      return;
    }
    proto_fail(c);  // nonsense receiver
  }

  void handle_hello(Connection* c, BufferRef f) {
    FrameView v;
    try {
      v = parse_frame(f);
    } catch (const lsa::Error&) {
      proto_fail(c);
      return;
    }
    if (v.type != lsa::runtime::MsgType::kSessionHello ||
        v.payload.size() != 4 || v.payload[0] != kHelloMagic ||
        v.payload[1] != kProtoVersion) {
      proto_fail(c);
      return;
    }
    const std::uint64_t sid = v.round;
    const std::uint32_t user = v.sender;
    const auto sit = sessions_.find(sid);
    if (sit == sessions_.end()) {
      proto_fail(c);
      return;
    }
    SessionState& ss = sit->second;
    if (user >= ss.num_users || v.payload[2] != user ||
        v.payload[3] != ss.num_users) {
      proto_fail(c);
      return;
    }
    if (Connection* old = ss.conn_of[user]; old != nullptr && old != c) {
      // Latest-wins rebind: the stale connection's write queue drains like
      // a crash (tx_fail) and the link break surfaces as a real
      // disconnect+bind pair — the session must see the discontinuity
      // (frames flushed to the old link may be lost) even though the EOF
      // has not drained yet. The old conn stays bound so its read side
      // keeps draining: frames it flushed before closing are this same
      // user's valid earlier traffic. reap() compares conn_of by pointer,
      // so it will not fire a second on_disconnect.
      tx_fail(old);
      ss.conn_of[user] = nullptr;
      invoke_hook([&] { ss.hooks.on_disconnect(user); });
    }
    const bool revived = ss.ever_bound[user] != 0;
    ss.ever_bound[user] = 1;
    ss.conn_of[user] = c;
    c->session = sid;
    c->user = user;
    c->set_queue_cap(queue_cap(ss.num_users));
    if (revived) ++stats_.revives;
    const lsa::field::Fp32::rep ack[4] = {kHelloMagic, kProtoVersion, user,
                                          ss.num_users};
    enqueue_out(c, build_frame(pool_, lsa::runtime::MsgType::kSessionWelcome,
                               ss.num_users, user, sid,
                               std::span<const lsa::field::Fp32::rep>(ack,
                                                                      4)));
    // Hand over everything parked while the user was down, in arrival
    // order, right behind the welcome (FIFO: the client handshakes first).
    std::vector<BufferRef> backlog = std::move(ss.parked[user]);
    ss.parked[user].clear();
    for (std::size_t i = 0; i < backlog.size(); ++i) {
      if (c->failed || c->tx_dead) {
        // The rebind died before the handover completed (the peer can
        // close again immediately): re-park the remainder for the next
        // rebind instead of dropping valid store-and-forward traffic.
        for (std::size_t j = i; j < backlog.size(); ++j) {
          ss.parked[user].push_back(std::move(backlog[j]));
        }
        break;
      }
      enqueue_out(c, std::move(backlog[i]));
    }
    invoke_hook([&] { ss.hooks.on_bind(user, revived); });
  }

  void on_client_frame(Connection* c, BufferRef f) {
    Inbound in;
    in.buf = std::move(f);
    try {
      in.view = parse_frame(in.buf);
    } catch (const lsa::Error&) {
      proto_fail(c);
      return;
    }
    if (in.view.type == lsa::runtime::MsgType::kSessionWelcome) {
      if (in.view.payload.size() != 4 || in.view.payload[0] != kHelloMagic ||
          in.view.payload[2] != user_ || in.view.payload[3] != num_users_) {
        proto_fail(c);
        return;
      }
      handshaken_ = true;
      return;
    }
    ++stats_.frames_delivered;
    if (sink_) {
      invoke_hook([&] { sink_(in); });
    }
  }

  // --------------------------------------------------------- hub sends

  void hub_send(std::uint64_t sid, BufferRef frame,
                lsa::runtime::MsgType type, std::uint32_t sender,
                std::uint32_t receiver, std::uint64_t round) {
    SessionState& ss = sessions_.at(sid);
    lsa::require(receiver < ss.num_users,
                 "socket: hub send to unknown receiver");
    seal_frame(frame, type, sender, receiver, round);
    deliver_or_park(ss, receiver, std::move(frame));
    reap();
  }

  void hub_broadcast(std::uint64_t sid, BufferRef frame,
                     lsa::runtime::MsgType type, std::uint32_t sender,
                     std::uint64_t round, std::uint32_t num_receivers) {
    SessionState& ss = sessions_.at(sid);
    lsa::require(num_receivers <= ss.num_users,
                 "socket: broadcast fan-out out of range");
    // Seal ONCE; every live connection queues the same ref-counted
    // buffer (receiver field = broadcast marker, matching the in-process
    // router's shared-frame convention).
    seal_frame(frame, type, sender, kBroadcastReceiver, round);
    for (std::uint32_t j = 0; j < num_receivers; ++j) {
      deliver_or_park(ss, j, frame);  // refcount bump, same block
    }
    reap();
  }

  /// Queues a frame on the user's live connection, or parks it (bounded)
  /// until the user (re)binds. Down users are store-and-forward targets,
  /// not black holes — see the lifecycle notes at the top of this file.
  void deliver_or_park(SessionState& ss, std::uint32_t user, BufferRef f) {
    Connection* c = ss.conn_of[user];
    if (c != nullptr && !c->failed && !c->tx_dead) {
      enqueue_out(c, std::move(f));
      return;
    }
    auto& bin = ss.parked[user];
    if (bin.size() >= ss.park_cap) {
      ++stats_.frames_dropped;  // parked bin full: same as a full mailbox
      return;
    }
    bin.push_back(std::move(f));
    ++stats_.frames_parked;
  }

  // ------------------------------------------------------ queue plumbing

  void enqueue_out(Connection* c, BufferRef frame) {
    if (c == nullptr || c->failed || c->tx_dead) {
      ++stats_.frames_dropped;
      return;
    }
    if (!c->try_enqueue(frame)) {
      // Bounded-queue backpressure: block like a sender on a full mailbox,
      // up to the stall timeout; a peer that cannot drain is crashed.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(kWriteStallTimeoutMs);
      while (true) {
        if (!c->flush()) {
          tx_fail(c);
          ++stats_.frames_dropped;
          return;
        }
        if (c->try_enqueue(frame)) break;
        if (std::chrono::steady_clock::now() >= deadline) {
          fail_conn(c);
          ++stats_.frames_dropped;
          return;
        }
        pollfd p{c->fd(), POLLOUT, 0};
        ::poll(&p, 1, 10);
      }
    }
    ++stats_.frames_sent;
    if (!pause_writes_) {
      if (!c->flush()) {
        tx_fail(c);  // the frame just queued is counted by the drop
        return;
      }
    }
    update_interest(c);
  }

  void update_interest(Connection* c) {
    const bool want = c->wants_write();
    if (want == c->epollout_armed) return;
    c->epollout_armed = want;
    loop_.mod(c->fd(), EPOLLIN | (want ? EPOLLOUT : 0u),
              static_cast<std::uint64_t>(c->fd()));
  }

  // ----------------------------------------------------------- teardown

  void proto_fail(Connection* c) {
    ++stats_.protocol_errors;
    c->poisoned = true;  // stop delivering its frames
    fail_conn(c);
  }

  /// Write side died (peer closed first, or the kernel buffer stalled
  /// mid-flush). The queue drains like crash() — counted — but the read
  /// side keeps pumping: the peer's final flushed frames are valid
  /// protocol input ("delayed, not dropped"). The connection hard-fails
  /// when its EOF is drained.
  void tx_fail(Connection* c) {
    if (c->tx_dead || c->failed) return;
    c->tx_dead = true;
    retire_queue(c);
    update_interest(c);  // queue is empty now: disarm EPOLLOUT
  }

  /// A dead link's undelivered outbound frames re-park for the user's
  /// rebind (down users are store-and-forward targets, not black holes);
  /// frames the peer's kernel already swallowed are gone — that loss is
  /// what the session's unsafe-until-next-round wait rule absorbs.
  /// Unbound/client-side queues just drop-and-count, and a stale welcome
  /// is dropped too (the rebind mints a fresh one).
  void retire_queue(Connection* c) {
    std::deque<BufferRef> q = c->take_queue();
    if (role_ == Role::kHub && c->bound()) {
      if (const auto sit = sessions_.find(c->session);
          sit != sessions_.end() && c->user < sit->second.num_users) {
        SessionState& ss = sit->second;
        auto& bin = ss.parked[c->user];
        for (BufferRef& f : q) {
          if (lsa::runtime::decode_header(
                  f.bytes().first<lsa::runtime::kHeaderBytes>())
                      .type == lsa::runtime::MsgType::kSessionWelcome ||
              bin.size() >= ss.park_cap) {
            ++stats_.frames_dropped;
            continue;
          }
          bin.push_back(std::move(f));
          ++stats_.frames_parked;
        }
        return;
      }
    }
    stats_.frames_dropped += q.size();
  }

  /// Marks a connection dead. Destruction is deferred to reap() so a
  /// teardown triggered mid-pump (or mid-broadcast) never frees an object
  /// still on the stack.
  void fail_conn(Connection* c) {
    if (c->failed) return;
    c->failed = true;
    reap_.push_back(c->fd());
  }

  void reap() {
    if (pump_depth_ > 0) return;  // a hook may have failed the pumped conn
    while (!reap_.empty()) {
      const int fd = reap_.back();
      reap_.pop_back();
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Connection* c = it->second.get();
      retire_queue(c);  // undelivered frames re-park for the rebind
      ++stats_.disconnects;
      std::uint32_t user = Connection::kUnbound;
      std::uint64_t sid = 0;
      if (role_ == Role::kHub && c->bound()) {
        const auto sit = sessions_.find(c->session);
        if (sit != sessions_.end() &&
            sit->second.conn_of[c->user] == c) {
          sit->second.conn_of[c->user] = nullptr;
          user = c->user;
          sid = c->session;
        }
      }
      if (role_ == Role::kClient && c == conn_) {
        conn_ = nullptr;
        handshaken_ = false;
      }
      loop_.del(fd);
      conns_.erase(it);  // closes the fd
      if (user != Connection::kUnbound) {
        SessionState& ss = sessions_.at(sid);
        invoke_hook([&] { ss.hooks.on_disconnect(user); });
      }
    }
  }

  // -------------------------------------------------------- error defer

  /// Hook/sink exceptions must not unwind through the I/O machinery (a
  /// half-processed pump would corrupt connection state); they are parked
  /// and rethrown once the event settles.
  template <class F>
  void invoke_hook(F&& f) {
    try {
      f();
    } catch (...) {
      if (!pending_error_) pending_error_ = std::current_exception();
    }
  }

  void rethrow_pending() {
    if (pending_error_) {
      std::exception_ptr e = std::exchange(pending_error_, nullptr);
      std::rethrow_exception(e);
    }
  }

  Role role_;
  SocketAddr addr_;
  BufferPool pool_;
  EpollLoop loop_;
  int listen_fd_ = -1;
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::vector<int> reap_;
  int pump_depth_ = 0;  ///< >0 while inside pump_reads: reap() defers
  std::map<std::uint64_t, SessionState> sessions_;  // hub role
  SocketStats stats_;
  bool pause_writes_ = false;
  std::exception_ptr pending_error_;

  // Client role.
  std::uint64_t session_ = 0;
  std::uint32_t user_ = 0;
  std::uint32_t num_users_ = 0;
  Connection* conn_ = nullptr;
  bool handshaken_ = false;
  std::function<void(const Inbound&)> sink_;
};

}  // namespace lsa::transport::socket
