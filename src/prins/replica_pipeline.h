// ReplicaPipeline: the replica's apply pipeline, transport-agnostic.
//
// One core serves both ways a replica listens.  A front end opens a session
// per primary connection and feeds it every received frame; the pipeline
// does the rest:
//
//   feed           decode_view once; write-kind frames and client reads go
//                  to the apply worker of their LBA stripe (lba mod shards,
//                  so same-block XOR deltas keep their order); torn frames
//                  NAK inline; control frames (barrier, verify, hash,
//                  hello, read-block, lease) wait for the session's
//                  in-flight frames to drain, then run on a worker
//   apply workers  one per ReplicaEngine apply shard; a write's completion
//                  lands in its session's ack buffer, a client read
//                  replies with its block directly
//   ack path       whichever worker finds the buffer un-flushed drains it
//                  (a combining lock): under load completions pile up and
//                  coalesce into cumulative kAckBatch frames of at most
//                  ReplicaConfig::ack_coalesce_max completions; when idle
//                  each ack goes out at once.  NAKs travel individually.
//
// feed() never blocks.  Backpressure is the session's pause hook: reads
// pause at kMaxInFlight dispatched-but-uncompleted frames (and while a
// control frame quiesces the session) and resume at half.
//
// Front ends: ReplicaEngine::serve() pumps a blocking Transport into a
// pipeline of its own; ReactorReplicaServer feeds one shared pipeline from
// every connection's reactor message handler.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/transport.h"
#include "prins/replica.h"

namespace prins {

class ReplicaPipeline {
 public:
  /// Frames a session may have dispatched but not completed before its
  /// reads pause; they resume at half.  Bounds queued work per primary.
  static constexpr std::size_t kMaxInFlight = 128;

  class Session;

  /// Start replica.apply_shards() apply workers.  `replica` must outlive
  /// the pipeline.
  explicit ReplicaPipeline(ReplicaEngine& replica);
  ~ReplicaPipeline();

  ReplicaPipeline(const ReplicaPipeline&) = delete;
  ReplicaPipeline& operator=(const ReplicaPipeline&) = delete;

  /// Open a session whose replies go out on `transport`.  The pipeline
  /// calls `pause_reads(true)` when the front end must stop feeding frames
  /// and `pause_reads(false)` when it may go on, from any thread, with the
  /// session's lock held: the hook must not call back into the pipeline.
  std::shared_ptr<Session> open(std::shared_ptr<Transport> transport,
                                std::function<void(bool)> pause_reads);

  /// Hand one received frame to the pipeline.  Never blocks.
  void feed(const std::shared_ptr<Session>& session, Bytes&& wire);

  /// The connection ended: close the transport, ignore later frames and
  /// drop a control frame still waiting for the session to quiesce.
  void close(Session& session);

  /// Block until nothing the session was fed is queued, applying or
  /// unacked; returns its first fatal error (OK if none).  A fatal error
  /// (device failure, a reply that cannot be sent) also closes the
  /// session's transport, which ends the front end's read loop.
  Status wait_idle(Session& session);

  /// Close the worker queues, let the workers finish what is queued, and
  /// join them.  Idempotent.
  void stop();

 private:
  struct WorkItem;
  struct ShardQueue;
  struct Completion;

  void dispatch(WorkItem&& item);
  void worker_loop(ShardQueue& queue);
  void run(WorkItem& item);
  /// Retire one dispatched frame: settle the session's counters, resume
  /// its reads when allowed, flush acks and release a waiting control
  /// frame once the session is quiet.
  void complete(const std::shared_ptr<Session>& session, bool control,
                const Completion* completion);
  void flush_acks(Session& session);
  /// The one ack/NAK reply path: NAKs individually, then one plain kAck or
  /// one cumulative kAckBatch for the applied completions.
  Status send_acks(Session& session, const Completion* completions,
                   std::size_t count);
  Status send(Session& session, const ReplicationMessage& meta,
              ByteSpan payload);
  void fail(Session& session, const Status& why);

  ReplicaEngine& replica_;
  std::vector<std::unique_ptr<ShardQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex stop_mutex_;  // one stop() joins
};

}  // namespace prins
