// TCP socket transport: the wire codec's length-prefixed frames over a
// full mesh of point-to-point connections.
//
// Mesh establishment: every endpoint listens on cluster[self]; the
// higher-numbered endpoint of each pair dials the lower one and introduces
// itself with a kHello frame, so each pair has exactly one connection and
// a restarted dialer re-establishes it (counted as net.reconnects). The
// accept side reads the hello on a per-connection thread under a receive
// timeout (a silent client cannot wedge the acceptor), and any message
// bytes that arrived coalesced with the hello are carried into the reader
// loop, which decodes frames into the endpoint's lock-free mailbox.
// send_batch() concatenates a batch's frames per peer and writes each
// peer's bytes in one pass under a per-connection mutex with a send
// timeout, so a stalled peer is hung up on instead of blocking every
// sender; send() is a batch of one.
//
// Failure model: a peer that is down gets its sends dropped (counted as
// net.send_drops) -- exactly the crash-fault behavior the protocols
// tolerate for up to f peers. A connection that delivers undecodable bytes
// (bad magic, unknown version, oversized frame) is dropped, never trusted.
//
// Causal tracing (docs/OBSERVABILITY.md): every framed send ticks the
// process Lamport clock and appends the stamp to Message::meta
// (obs/events.h, [lo30, hi30, kLamportMetaTag] at the tail); the reader
// strips it and merges into the local clock before the message is
// delivered, so per-node flight-recorder logs order causally across the
// cluster (tools/rbvc-trace). Loopback sends skip the stamp (same clock),
// and an unstamped peer simply does not merge -- wire format unchanged.
//
// Observability (docs/OBSERVABILITY.md): net.frames_sent/_received,
// net.bytes_sent/_received, net.socket_writes, net.connects,
// net.reconnects, net.send_drops, net.handshake_timeouts,
// net.send_timeout_hangups, net.wire_errors, net.queue_depth, plus
// flight-recorder events (connect/hangup/frame_tx/frame_rx/queue_pop/...).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/mailbox.h"
#include "net/transport.h"

namespace rbvc::net {

struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "host:port[,host:port...]" (the rbvc-node --cluster flag).
std::vector<HostPort> parse_cluster(const std::string& csv);

struct TcpOptions {
  int dial_retry_ms = 50;    // sleep between dial sweeps over missing peers
  int io_buffer_bytes = 64 * 1024;
  /// SO_RCVTIMEO for the accept-side hello read: a client that connects and
  /// never speaks is dropped after this long instead of holding the slot.
  int handshake_timeout_ms = 2000;
  /// SO_SNDTIMEO per connection: a live-but-stalled peer (full socket
  /// buffer) is treated as crashed after this long rather than blocking
  /// every thread that sends to it.
  int send_timeout_ms = 5000;
};

class TcpTransport final : public Transport {
 public:
  /// Binds and listens on cluster[self], then starts dialing every peer
  /// with a lower id. Throws on bind failure. Peers with higher ids are
  /// expected to dial us; use wait_connected() to gate protocol start on
  /// mesh completion.
  TcpTransport(ProcessId self, std::vector<HostPort> cluster,
               TcpOptions opts = {});

  /// Same, but adopts an already-bound-and-listening socket (used by
  /// make_local_cluster to get kernel-assigned ports race-free).
  TcpTransport(ProcessId self, std::vector<HostPort> cluster, int listen_fd,
               TcpOptions opts);

  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// send_batch() of the one message.
  void send(ProcessId to, Message m) override;
  /// Stamps and frames each message in call order, then writes each
  /// peer's frames with one locked write (loopback skips the socket).
  void send_batch(Batch batch) override;
  std::optional<Message> receive(int timeout_ms) override;
  ProcessId self() const override { return self_; }
  std::size_t size() const override { return cluster_.size(); }
  bool closed() const override { return !open_.load(std::memory_order_acquire); }

  /// Blocks until at least `min_peers` connections are live (or timeout /
  /// close). Returns the live count.
  std::size_t wait_connected(std::size_t min_peers, int timeout_ms);
  std::size_t connected() const;

  /// Stops all threads and closes every socket; receive() drains what was
  /// already delivered, then reports closed.
  void close();

  /// Builds an n-endpoint loopback cluster on 127.0.0.1 with
  /// kernel-assigned ports: binds all n listeners first, reads the ports
  /// back, then starts the transports so no endpoint can miss another.
  static std::vector<std::unique_ptr<TcpTransport>> make_local_cluster(
      std::size_t n, TcpOptions opts = {});

 private:
  struct Conn {
    /// Serializes writes and the reader's teardown; NOT needed to observe
    /// fd, which is atomic so close() can shut a stuck connection down
    /// without waiting behind a blocked writer.
    std::mutex mu;
    std::atomic<int> fd{-1};
    std::uint64_t generation = 0;  // bumped per (re)connect, guarded by mu
  };

  void start();
  void accept_loop();
  void dial_loop();
  /// Accept-side hello read, run on the connection's own thread under
  /// handshake_timeout_ms; on success continues as that connection's
  /// reader_loop, seeded with any bytes that arrived after the hello.
  void server_handshake(int fd);
  void reader_loop(int fd, ProcessId peer, std::string buf);
  /// Registers `fd` as the live connection to `peer`; returns false (caller
  /// must close fd) on duplicate or shutdown. `dialed` distinguishes
  /// connects from accepts for the net.connects/net.reconnects counters.
  bool register_connection(ProcessId peer, int fd, bool dialed);
  /// register_connection + a spawned reader thread (the dialer path).
  void adopt_connection(ProcessId peer, int fd, bool dialed);
  void drop_connection(ProcessId peer, int fd);
  void unregister_handshake(int fd);
  /// Why a write did not complete; send_batch() maps kTimeout to the
  /// net.send_timeout_hangups counter (the peer was live but stalled).
  enum class WriteStatus { kOk, kDown, kTimeout, kError };
  /// Writes all of `bytes` (one or more whole frames) under c.mu.
  WriteStatus write_all(Conn& c, const std::string& bytes);

  ProcessId self_;
  std::vector<HostPort> cluster_;
  TcpOptions opts_;
  int listen_fd_ = -1;
  std::atomic<bool> open_{true};
  Mailbox mailbox_;
  std::vector<std::unique_ptr<Conn>> conns_;  // index = peer id
  std::vector<bool> ever_connected_;          // guarded by threads_mu_
  std::thread acceptor_;
  std::thread dialer_;
  std::mutex threads_mu_;  // guards readers_, handshaking_, ever_connected_
  std::vector<std::thread> readers_;
  std::vector<int> handshaking_;  // accepted fds awaiting their hello
};

}  // namespace rbvc::net
