#include "iscsi/reactor_target.h"

#include <algorithm>
#include <future>
#include <vector>

#include "common/logging.h"

namespace prins::iscsi {

struct ReactorIscsiServer::Impl : std::enable_shared_from_this<Impl> {
  struct Conn {
    std::shared_ptr<Transport> transport;
    ReactorTcpTransport* rt = nullptr;
    // Session-loop only: the handler is the sole reader and writer.
    IscsiTarget::Session session;
    bool ended = false;  // logout or a fatal error closed the connection
  };

  Impl(std::shared_ptr<IscsiTarget> t, std::shared_ptr<ReactorPool> p,
       const ReactorIscsiServerOptions& opts)
      : target(std::move(t)), pool(std::move(p)), options(opts) {}

  std::shared_ptr<IscsiTarget> target;  // released by stop()
  std::shared_ptr<ReactorPool> pool;    // the caller's: accepts here
  std::shared_ptr<ReactorPool> session_loops;  // ours: connections live here
  ReactorIscsiServerOptions options;
  std::unique_ptr<ReactorListener> listener;

  mutable std::mutex mutex;
  std::vector<std::shared_ptr<Conn>> conns;
  bool stopped = false;

  // ---- accept path (listener loop thread) -----------------------------------

  void on_connect(std::unique_ptr<Transport> transport) {
    auto* rt = dynamic_cast<ReactorTcpTransport*>(transport.get());
    if (rt == nullptr) {
      PRINS_LOG(kError) << "iSCSI reactor server: non-reactor transport";
      return;
    }
    auto conn = std::make_shared<Conn>();
    conn->transport = std::shared_ptr<Transport>(std::move(transport));
    conn->rt = rt;
    auto self = shared_from_this();
    // Install under `mutex` so a racing stop() either sees this connection
    // (and clears its handlers) or turns it away here.
    std::lock_guard lock(mutex);
    if (stopped) {
      conn->transport->close();
      return;
    }
    conns.push_back(conn);
    rt->set_close_handler([self, conn](const Status& why) {
      self->on_disconnect(conn, why);
    });
    rt->set_message_handler([self, conn](Bytes&& message) {
      self->on_message(*conn, message);
    });
  }

  // ---- session loop thread ----------------------------------------------------

  void on_disconnect(const std::shared_ptr<Conn>& conn, const Status& why) {
    if (!why.is_ok() && why.code() != ErrorCode::kUnavailable) {
      PRINS_LOG(kWarn) << "iSCSI session ended: " << why.to_string();
    }
    // Break the connection->handler->conn reference cycle.
    conn->rt->set_message_handler(nullptr);
    std::lock_guard lock(mutex);
    conns.erase(std::remove(conns.begin(), conns.end(), conn), conns.end());
  }

  /// One PDU, run to completion on the connection's session loop.
  void on_message(Conn& conn, ByteSpan message) {
    if (conn.ended) return;  // frames queued behind a logout or an error
    bool done = false;
    const Status s =
        target->handle_frame(*conn.transport, conn.session, message, &done);
    if (s.is_ok() && !done) return;
    if (!s.is_ok() && s.code() != ErrorCode::kUnavailable) {
      PRINS_LOG(kWarn) << "iSCSI session ended with error: " << s.to_string();
    }
    // Logout or a fatal protocol/send error: close the connection (the
    // close handler reaps the session from the server's list).
    conn.ended = true;
    conn.transport->close();
  }

  // ---- lifecycle ------------------------------------------------------------

  void stop() {
    std::vector<std::shared_ptr<Conn>> snapshot;
    {
      std::lock_guard lock(mutex);
      if (stopped) return;
      stopped = true;
      snapshot.swap(conns);
    }
    if (listener) listener->close();
    for (auto& conn : snapshot) {
      conn->rt->set_close_handler(nullptr);
      conn->rt->set_message_handler(nullptr);
      conn->transport->close();
    }
    // A handler cleared above may still be mid-PDU (say, blocked in the
    // device).  Loops run posted closures in order after the callback in
    // hand, so once a barrier has run on every session loop, no handler is
    // running and none will start.
    for (std::size_t i = 0; i < session_loops->size(); ++i) {
      std::promise<void> passed;
      session_loops->at(i).post([&passed] { passed.set_value(); });
      passed.get_future().wait();
    }
    // The target co-owns the device (often an engine): let the caller's
    // teardown destroy it while this server object still exists.
    target.reset();
  }
};

ReactorIscsiServer::ReactorIscsiServer(std::shared_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

ReactorIscsiServer::~ReactorIscsiServer() { stop(); }

Result<std::unique_ptr<ReactorIscsiServer>> ReactorIscsiServer::start(
    std::shared_ptr<IscsiTarget> target, std::shared_ptr<ReactorPool> pool,
    const ReactorIscsiServerOptions& options) {
  auto impl =
      std::make_shared<Impl>(std::move(target), std::move(pool), options);
  PRINS_ASSIGN_OR_RETURN(
      impl->session_loops,
      ReactorPool::create(std::max<std::size_t>(options.worker_threads, 1)));
  PRINS_ASSIGN_OR_RETURN(
      impl->listener, ReactorListener::listen(impl->pool, options.port,
                                              options.transport,
                                              impl->session_loops));
  impl->listener->set_accept_handler(
      [weak = std::weak_ptr<Impl>(impl)](std::unique_ptr<Transport> t) {
        if (auto self = weak.lock()) self->on_connect(std::move(t));
      });
  return std::unique_ptr<ReactorIscsiServer>(
      new ReactorIscsiServer(std::move(impl)));
}

void ReactorIscsiServer::stop() { impl_->stop(); }

std::uint16_t ReactorIscsiServer::port() const {
  return impl_->listener->port();
}

std::size_t ReactorIscsiServer::sessions() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->conns.size();
}

}  // namespace prins::iscsi
