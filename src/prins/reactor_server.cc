#include "prins/reactor_server.h"

#include <vector>

#include "common/logging.h"
#include "prins/replica_pipeline.h"

namespace prins {

struct ReactorReplicaServer::Impl : std::enable_shared_from_this<Impl> {
  struct Connection {
    std::shared_ptr<ReplicaPipeline::Session> session;
    ReactorTcpTransport* rt = nullptr;
  };

  Impl(std::shared_ptr<ReplicaEngine> r, std::shared_ptr<ReactorPool> p,
       const ReactorReplicaServerOptions& opts)
      : replica(std::move(r)), pool(std::move(p)), options(opts),
        pipeline(*replica) {}

  std::shared_ptr<ReplicaEngine> replica;
  std::shared_ptr<ReactorPool> pool;
  ReactorReplicaServerOptions options;
  ReplicaPipeline pipeline;
  std::unique_ptr<ReactorListener> listener;

  mutable std::mutex sessions_mutex;
  std::vector<Connection> sessions;
  bool stopping = false;

  // Listener loop thread.
  void on_connect(std::unique_ptr<Transport> transport) {
    if (options.wrap_transport) {
      transport = options.wrap_transport(std::move(transport));
      if (transport == nullptr) return;  // decorator rejected the connection
    }
    // The frame fan-in handlers live on the reactor connection inside any
    // decorator stack; replies go out through the decorated transport.
    auto* rt = dynamic_cast<ReactorTcpTransport*>(transport->underlying());
    if (rt == nullptr) {
      PRINS_LOG(kError) << "reactor server: non-reactor transport accepted";
      return;
    }
    auto session = pipeline.open(
        std::shared_ptr<Transport>(std::move(transport)),
        [rt](bool paused) { rt->set_read_paused(paused); });
    {
      std::lock_guard lock(sessions_mutex);
      if (stopping) {
        pipeline.close(*session);
        return;
      }
      sessions.push_back(Connection{session, rt});
    }
    auto self = shared_from_this();
    rt->set_close_handler([self, session, rt](const Status& why) {
      self->on_disconnect(session, rt, why);
    });
    rt->set_message_handler([self, session](Bytes&& message) {
      self->pipeline.feed(session, std::move(message));
    });
  }

  void on_disconnect(const std::shared_ptr<ReplicaPipeline::Session>& session,
                     ReactorTcpTransport* rt, const Status& why) {
    if (!why.is_ok() && why.code() != ErrorCode::kUnavailable) {
      PRINS_LOG(kWarn) << "replica session ended: " << why.to_string();
    }
    pipeline.close(*session);
    // Drop the handler so the connection's state machine stops referencing
    // the session (breaks the session->transport->handler->session cycle).
    rt->set_message_handler(nullptr);
    std::lock_guard lock(sessions_mutex);
    std::erase_if(sessions,
                  [&](const Connection& c) { return c.session == session; });
  }

  void stop() {
    std::vector<Connection> snapshot;
    {
      std::lock_guard lock(sessions_mutex);
      stopping = true;
      snapshot.swap(sessions);
    }
    if (listener) listener->close();
    for (Connection& c : snapshot) {
      c.rt->set_close_handler(nullptr);
      c.rt->set_message_handler(nullptr);
      pipeline.close(*c.session);
    }
    pipeline.stop();
  }
};

ReactorReplicaServer::ReactorReplicaServer(std::shared_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

ReactorReplicaServer::~ReactorReplicaServer() { stop(); }

Result<std::unique_ptr<ReactorReplicaServer>> ReactorReplicaServer::start(
    std::shared_ptr<ReplicaEngine> replica,
    std::shared_ptr<ReactorPool> pool,
    const ReactorReplicaServerOptions& options) {
  auto impl =
      std::make_shared<Impl>(std::move(replica), std::move(pool), options);
  PRINS_ASSIGN_OR_RETURN(
      impl->listener,
      ReactorListener::listen(impl->pool, options.port, options.transport));
  impl->listener->set_accept_handler(
      [weak = std::weak_ptr<Impl>(impl)](std::unique_ptr<Transport> t) {
        if (auto self = weak.lock()) self->on_connect(std::move(t));
      });
  return std::unique_ptr<ReactorReplicaServer>(
      new ReactorReplicaServer(std::move(impl)));
}

void ReactorReplicaServer::stop() { impl_->stop(); }

std::uint16_t ReactorReplicaServer::port() const {
  return impl_->listener->port();
}

std::size_t ReactorReplicaServer::sessions() const {
  std::lock_guard lock(impl_->sessions_mutex);
  return impl_->sessions.size();
}

}  // namespace prins
