#include "prins/replica_pipeline.h"

#include <algorithm>
#include <condition_variable>
#include <deque>

#include "common/logging.h"

namespace prins {

/// One decoded frame bound for an apply worker.  The view's payload
/// aliases `wire` (moving Bytes relocates only the vector header).
struct ReplicaPipeline::WorkItem {
  enum class Kind : std::uint8_t { kWrite, kClientRead, kControl };
  std::shared_ptr<Session> session;
  Bytes wire;
  MessageView view{};
  Kind kind = Kind::kWrite;
};

struct ReplicaPipeline::ShardQueue {
  std::mutex m;
  std::condition_variable cv;
  std::deque<WorkItem> q;
  bool closed = false;
};

struct ReplicaPipeline::Completion {
  std::uint64_t sequence = 0;
  Lba lba = 0;
  ReplicaEngine::ApplyOutcome outcome = ReplicaEngine::ApplyOutcome::kApplied;
};

class ReplicaPipeline::Session {
 public:
  Session(std::shared_ptr<Transport> t, std::function<void(bool)> pause)
      : transport(std::move(t)), pause_reads(std::move(pause)) {}

  std::shared_ptr<Transport> transport;
  std::function<void(bool)> pause_reads;
  std::mutex send_mutex;  // one reply frame on the wire at a time

  std::mutex m;  // guards everything below
  std::condition_variable idle_cv;
  std::size_t in_flight = 0;  // writes + client reads dispatched, not done
  bool paused = false;        // reads gated (in-flight cap or control)
  bool blocked = false;       // a control frame is quiescing the session
  bool closed = false;        // front end saw the connection end
  WorkItem pending_control;   // stashed while in_flight drains
  std::vector<Completion> completions;
  bool flushing = false;      // one worker at a time drains completions
  Status error;               // first fatal error

  void set_paused_locked(bool pause) {
    paused = pause;
    pause_reads(pause);
  }
};

ReplicaPipeline::ReplicaPipeline(ReplicaEngine& replica) : replica_(replica) {
  const std::size_t shards = replica_.apply_shards();
  queues_.reserve(shards);
  workers_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    queues_.push_back(std::make_unique<ShardQueue>());
  }
  for (std::size_t i = 0; i < shards; ++i) {
    workers_.emplace_back([this, i] { worker_loop(*queues_[i]); });
  }
}

ReplicaPipeline::~ReplicaPipeline() { stop(); }

std::shared_ptr<ReplicaPipeline::Session> ReplicaPipeline::open(
    std::shared_ptr<Transport> transport,
    std::function<void(bool)> pause_reads) {
  return std::make_shared<Session>(std::move(transport),
                                   std::move(pause_reads));
}

// ---- frame fan-in (front-end thread; never blocks) ------------------------

void ReplicaPipeline::feed(const std::shared_ptr<Session>& session,
                           Bytes&& wire) {
  {
    std::lock_guard lock(replica_.mutex_);
    replica_.metrics_.bytes_received += wire.size();
  }
  auto msg = ReplicationMessage::decode_view(wire);
  if (!msg.is_ok()) {
    // A torn frame is the link's fault, not the session's: NAK so the
    // primary retransmits.  Sequence 0 = "couldn't even read the header";
    // the primary resends everything un-acked and dedup absorbs overlap.
    {
      std::lock_guard lock(replica_.mutex_);
      replica_.metrics_.naks_sent += 1;
    }
    ReplicationMessage nak;
    nak.kind = MessageKind::kNak;
    nak.cluster_epoch = replica_.cluster_epoch();
    (void)send(*session, nak, {});
    return;
  }
  using Kind = WorkItem::Kind;
  Kind kind = Kind::kControl;
  switch (msg->kind) {
    case MessageKind::kWrite:
    case MessageKind::kSyncBlock:
    case MessageKind::kRepairBlock:
      kind = Kind::kWrite;
      break;
    case MessageKind::kClientReadRequest:
      // Client reads pipeline like writes: no quiesce, just FIFO order
      // behind same-stripe applies (freshness is checked under the
      // stripe's shard lock).
      kind = Kind::kClientRead;
      break;
    default:
      break;
  }
  {
    std::lock_guard lock(session->m);
    if (session->closed) return;
    if (kind != Kind::kControl) {
      ++session->in_flight;
      if (!session->paused && session->in_flight >= kMaxInFlight) {
        session->set_paused_locked(true);
      }
    } else {
      // Barriers, verifies, hashes, hellos, read-blocks, leases: rare
      // frames whose answers must observe every prior frame of this
      // session.  Pause reads and let the in-flight frames drain first.
      session->blocked = true;
      if (!session->paused) session->set_paused_locked(true);
      if (session->in_flight != 0) {
        session->pending_control =
            WorkItem{session, std::move(wire), *msg, kind};
        return;
      }
    }
  }
  dispatch(WorkItem{session, std::move(wire), *msg, kind});
}

void ReplicaPipeline::dispatch(WorkItem&& item) {
  // Control frames all ride stripe 0: they are rare, and any worker may
  // serve one (the session is already quiesced).
  const bool control = item.kind == WorkItem::Kind::kControl;
  const std::size_t index =
      control ? 0 : (item.view.lba & (queues_.size() - 1));
  ShardQueue& queue = *queues_[index];
  std::uint64_t depth = 0;
  {
    std::lock_guard lock(queue.m);
    if (!queue.closed) {
      queue.q.push_back(std::move(item));
      depth = queue.q.size();
    }
  }
  if (depth == 0) {
    // Stopping: the frame is dropped; settle what feed() counted for it.
    complete(item.session, control, nullptr);
    return;
  }
  queue.cv.notify_one();
  std::uint64_t peak =
      replica_.apply_queue_peak_.load(std::memory_order_relaxed);
  while (depth > peak && !replica_.apply_queue_peak_.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
}

// ---- apply workers ---------------------------------------------------------

void ReplicaPipeline::worker_loop(ShardQueue& queue) {
  for (;;) {
    WorkItem item;
    {
      std::unique_lock lock(queue.m);
      queue.cv.wait(lock, [&] { return !queue.q.empty() || queue.closed; });
      if (queue.q.empty()) break;  // closed and drained
      item = std::move(queue.q.front());
      queue.q.pop_front();
    }
    run(item);
  }
}

void ReplicaPipeline::run(WorkItem& item) {
  Session& session = *item.session;
  if (item.kind == WorkItem::Kind::kWrite) {
    auto outcome = replica_.apply_write_message(item.view);
    if (!outcome.is_ok()) {
      fail(session, outcome.status());
      complete(item.session, /*control=*/false, nullptr);
      return;
    }
    const Completion done{item.view.sequence, item.view.lba, *outcome};
    complete(item.session, /*control=*/false, &done);
    return;
  }
  // Client reads and control frames reply directly: their answer is a
  // block or a report, not an ack, and must not be coalesced.
  const bool control = item.kind == WorkItem::Kind::kControl;
  auto reply = control ? replica_.apply_view(item.view)
                       : replica_.serve_client_read(item.view);
  if (reply.is_ok()) {
    (void)send(session, *reply, reply->payload);
  } else {
    fail(session, reply.status());
  }
  complete(item.session, control, nullptr);
}

void ReplicaPipeline::complete(const std::shared_ptr<Session>& session,
                               bool control, const Completion* completion) {
  bool flush = false;
  WorkItem released;
  {
    std::lock_guard lock(session->m);
    if (control) {
      session->blocked = false;
    } else {
      --session->in_flight;
    }
    if (completion != nullptr) {
      session->completions.push_back(*completion);
      if (!session->flushing) session->flushing = flush = true;
    }
    if (session->blocked && session->in_flight == 0 &&
        session->pending_control.session != nullptr) {
      released = std::move(session->pending_control);
      session->pending_control = WorkItem{};
    }
    if (session->paused && !session->blocked && !session->closed &&
        session->in_flight <= kMaxInFlight / 2) {
      session->set_paused_locked(false);
    }
  }
  session->idle_cv.notify_all();
  if (flush) flush_acks(*session);
  if (released.session != nullptr) dispatch(std::move(released));
}

// ---- ack path (combining lock: completions coalesce under load) ------------

void ReplicaPipeline::flush_acks(Session& session) {
  const std::size_t chunk = replica_.config_.ack_coalesce_max;
  std::vector<Completion> batch;
  for (;;) {
    {
      std::lock_guard lock(session.m);
      if (session.completions.empty()) {
        session.flushing = false;
        break;
      }
      batch.swap(session.completions);
    }
    for (std::size_t off = 0; off < batch.size(); off += chunk) {
      const std::size_t n = std::min(chunk, batch.size() - off);
      if (!send_acks(session, batch.data() + off, n).is_ok()) break;
    }
    batch.clear();
  }
  session.idle_cv.notify_all();
}

Status ReplicaPipeline::send_acks(Session& session,
                                  const Completion* completions,
                                  std::size_t count) {
  std::vector<std::uint64_t> acked;
  acked.reserve(count);
  Lba last_lba = 0;
  std::uint64_t newest = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const Completion& c = completions[i];
    if (c.outcome == ReplicaEngine::ApplyOutcome::kApplied) {
      acked.push_back(c.sequence);
      if (c.sequence >= newest) {
        newest = c.sequence;
        last_lba = c.lba;
      }
      continue;
    }
    // NAKs are the holes: they stay individual frames so the primary can
    // match each to its entry (and read the reason byte).
    ReplicationMessage nak =
        ReplicaEngine::write_nak(c.outcome, c.sequence, c.lba);
    nak.cluster_epoch = replica_.cluster_epoch();
    PRINS_RETURN_IF_ERROR(send(session, nak, nak.payload));
  }
  if (acked.empty()) return Status::ok();
  ReplicationMessage ack;
  ack.cluster_epoch = replica_.cluster_epoch();
  ack.lba = last_lba;
  if (acked.size() == 1) {
    // A lone completion acks plainly — byte-compatible with the
    // one-frame-at-a-time resync and heal exchanges.
    ack.kind = MessageKind::kAck;
    ack.sequence = acked[0];
    return send(session, ack, {});
  }
  ack.kind = MessageKind::kAckBatch;
  ack.sequence = newest;
  ack.payload = pack_ack_ranges(coalesce_ack_ranges(acked));
  PRINS_RETURN_IF_ERROR(send(session, ack, ack.payload));
  std::lock_guard lock(replica_.mutex_);
  replica_.metrics_.ack_batches += 1;
  replica_.metrics_.acks_batched += acked.size();
  return Status::ok();
}

Status ReplicaPipeline::send(Session& session, const ReplicationMessage& meta,
                             ByteSpan payload) {
  Status sent;
  {
    std::lock_guard lock(session.send_mutex);
    sent = send_framed(*session.transport, meta, {&payload, 1});
  }
  // The peer hanging up is a clean end of session (the front end sees the
  // same close); anything else is fatal.
  if (!sent.is_ok() && sent.code() != ErrorCode::kUnavailable) {
    fail(session, sent);
  }
  return sent;
}

void ReplicaPipeline::fail(Session& session, const Status& why) {
  PRINS_LOG(kWarn) << "replica session failed: " << why.to_string();
  {
    std::lock_guard lock(session.m);
    if (session.error.is_ok()) session.error = why;
  }
  session.transport->close();  // ends the front end's read loop
}

// ---- lifecycle -------------------------------------------------------------

void ReplicaPipeline::close(Session& session) {
  WorkItem dropped;  // holds the session: release it outside the lock
  {
    std::lock_guard lock(session.m);
    session.closed = true;
    if (session.pending_control.session != nullptr) {
      dropped = std::move(session.pending_control);
      session.pending_control = WorkItem{};
      session.blocked = false;
    }
  }
  session.idle_cv.notify_all();
  session.transport->close();
}

Status ReplicaPipeline::wait_idle(Session& session) {
  std::unique_lock lock(session.m);
  session.idle_cv.wait(lock, [&] {
    return session.in_flight == 0 && !session.blocked && !session.flushing;
  });
  return session.error;
}

void ReplicaPipeline::stop() {
  std::lock_guard stop_lock(stop_mutex_);
  for (auto& queue : queues_) {
    std::lock_guard lock(queue->m);
    queue->closed = true;
    queue->cv.notify_all();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

}  // namespace prins
