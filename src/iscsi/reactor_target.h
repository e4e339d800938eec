// ReactorIscsiServer: thread-free iSCSI serving on the reactor.
//
// serve_in_background() spends one blocking thread per initiator.  This
// server instead registers each accepted connection's PDU stream via
// ReactorTcp::set_message_handler and runs the target's frame state
// machine (IscsiTarget::handle_frame — one PDU in, replies out, never
// recv()s) to completion inside that handler: N initiators share
// O(reactor_threads + worker_threads) threads, and a PDU costs no
// cross-thread handoff between the thread that reads it and the thread
// that handles it.
//
// The listener accepts on the caller's pool but places every connection
// on one of the server's own `worker_threads` session loops.  Handlers
// block there (device I/O, an engine write waiting for outbox room, a
// ReadRouter read awaiting a mirror's reply), which is safe only because
// those loops are private to the server: the engine's reactor senders and
// the router's read links live on the caller's pool, so the loop that must
// deliver a blocked session's reply is never the loop that session holds.
// PDU handling stays serialized per connection (the transport reads
// nothing more while a handler runs), and the transport's outbox limit
// pauses reads from an initiator that stops reading replies.
//
// The price is pooling: sessions sharing a session loop wait behind one
// another's device calls, where a shared worker pool let any idle worker
// take the next PDU.
#pragma once

#include <cstdint>
#include <memory>

#include "iscsi/target.h"
#include "net/reactor_tcp.h"

namespace prins::iscsi {

struct ReactorIscsiServerOptions {
  /// Port to bind (0 picks a free port; see port()).
  std::uint16_t port = 0;
  /// Per-connection transport options.
  ReactorTcpOptions transport;
  /// Session loops: reactor threads private to this server that own the
  /// accepted connections (round-robin) and run each PDU, device I/O
  /// included, to completion.  0 is treated as 1.
  std::size_t worker_threads = 2;
};

class ReactorIscsiServer {
 public:
  /// Bind a ReactorListener on `pool` and serve `target` to every
  /// connection, handler-driven on the server's own session loops.
  static Result<std::unique_ptr<ReactorIscsiServer>> start(
      std::shared_ptr<IscsiTarget> target, std::shared_ptr<ReactorPool> pool,
      const ReactorIscsiServerOptions& options = {});

  ~ReactorIscsiServer();

  ReactorIscsiServer(const ReactorIscsiServer&) = delete;
  ReactorIscsiServer& operator=(const ReactorIscsiServer&) = delete;

  /// Close the listener and every live connection, wait until no PDU
  /// handler is running, and release the target.  No handler runs after
  /// stop() returns.  Idempotent; the destructor calls it.  Must not be
  /// called from a session handler.
  void stop();

  /// The bound port (for initiators to connect to).
  std::uint16_t port() const;

  /// Live connections right now (tests).
  std::size_t sessions() const;

 private:
  struct Impl;
  explicit ReactorIscsiServer(std::shared_ptr<Impl> impl);

  std::shared_ptr<Impl> impl_;
};

}  // namespace prins::iscsi
