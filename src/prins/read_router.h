// ReadRouter: load-aware read offload across replica mirrors.
//
// A BlockDevice decorator over the primary PrinsEngine.  Writes and
// flushes pass straight through; each block read is first classified by
// the engine's recent-writes conflict window (classify_read):
//
//   kLocal        a write to that LBA may still be in flight somewhere —
//                 the primary serves the read itself, exactly as before;
//   kOffloadable  every write to that LBA is acked by all replicas — ANY
//                 replica serves it correctly, so the router fans the read
//                 out across its read links (round-robin or
//                 least-outstanding) with a kClientReadRequest demanding
//                 at-least-min_sequence freshness.
//
// Each link is pipelined: any number of reader threads may have exchanges
// in flight on it at once.  A reader parks in the link's table of waiting
// exchanges, puts its request on the wire under a short send lock, and
// waits for the reply that echoes its exchange id.  Exactly one waiter at
// a time receives (leader/follower): it hands each decoded reply to the
// exchange it belongs to, and passes the receiving role on once its own
// reply is in.  Replies are keyed by (kind, sequence): a kClientReadReply
// or kNak answers the exchange whose id it echoes, a kAck answers the one
// kReadLease the link may have on the wire; a frame nobody waits for is
// dropped.  This is one path over the plain Transport API, so every
// transport and decorator works unchanged.
//
// The replica proves freshness from its per-LBA applied table or the
// primary's published read lease and answers with the raw block; if it
// cannot (kStaleRead NAK, a damaged block, a timeout, a dead link), the
// router falls back to the primary's local device, so offload can degrade
// availability by exactly nothing.  A link that draws kStaleEpoch (the
// replica was promoted past this primary) degrades sticky — data from a
// fenced pairing must never be trusted again.
//
// Attach read links only to replicas that are caught up with the primary
// (freshly attached mirrors need full_sync() + drain() first): the
// conflict window tracks writes issued by THIS engine, so history a mirror
// never received is invisible to the freshness check.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "block/block_device.h"
#include "net/transport.h"
#include "prins/engine.h"

namespace prins {

/// How the router spreads offloadable reads across healthy links.
enum class ReadPolicy : std::uint8_t {
  kRoundRobin = 0,        // rotate; even spread under uniform service times
  kLeastOutstanding = 1,  // pick the link with the fewest reads in flight;
                          //   adapts to a slow or distant mirror
};

struct ReadRouterConfig {
  ReadPolicy policy = ReadPolicy::kRoundRobin;
  /// Per-reply receive deadline on a read link; an expired read falls back
  /// to the primary and counts toward the link's failure streak.
  std::chrono::milliseconds op_timeout{1000};
  /// Consecutive failed exchanges (timeout / transport error) before a
  /// link is degraded sticky.  A successful exchange resets the streak.
  std::size_t degrade_after = 3;
  /// Renew the read lease on each link whenever the engine's read floor
  /// has advanced this far past the last value published there.  The lease
  /// lets a replica serve any demand at or below the floor without a
  /// per-LBA lookup (e.g. for blocks it never saw a delta for).
  /// 0 disables lease renewal.
  std::uint64_t lease_renew_every = 256;
};

class ReadRouter final : public BlockDevice {
 public:
  ReadRouter(std::shared_ptr<PrinsEngine> engine, ReadRouterConfig config = {});
  ~ReadRouter() override;

  ReadRouter(const ReadRouter&) = delete;
  ReadRouter& operator=(const ReadRouter&) = delete;

  /// Attach a read link (a client connection to a replica's listener; both
  /// ReplicaEngine::serve() and ReactorReplicaServer speak the client-read
  /// protocol).  The router owns the transport.  Add links before the
  /// first read.
  void add_read_replica(std::unique_ptr<Transport> link);

  std::size_t read_replica_count() const { return links_.size(); }
  /// Links not yet degraded (a degraded link never serves again).
  std::size_t healthy_links() const;

  std::uint32_t block_size() const override { return engine_->block_size(); }
  std::uint64_t num_blocks() const override { return engine_->num_blocks(); }
  Status read(Lba lba, MutByteSpan out) override;
  Status write(Lba lba, ByteSpan data) override { return engine_->write(lba, data); }
  Status flush() override { return engine_->flush(); }
  std::string describe() const override;

  /// Read one block demanding at-least-`min_sequence` freshness from
  /// whichever node serves it (the replica proves the demand or NAKs; the
  /// primary trivially satisfies any demand).  read() is this with the
  /// conflict window's own minimum.
  Status read_fresh(Lba lba, MutByteSpan out, std::uint64_t min_sequence);

 private:
  /// One client-read exchange parked on its link until the reply that
  /// echoes `id` arrives, the deadline passes or the link fails.
  struct Exchange {
    std::uint64_t id = 0;
    std::condition_variable cv;  // signalled under the link's mutex
    bool done = false;
    Status status;               // with done: OK = `reply` is the answer
    ReplicationMessage reply;
  };

  struct ReadLink {
    std::unique_ptr<Transport> transport;
    std::mutex send_mutex;  // one frame onto the wire at a time
    std::mutex mutex;       // guards everything below but the atomics
    std::vector<Exchange*> waiting;  // parked, no reply yet
    bool receiving = false;          // a waiter holds the recv_for role
    std::size_t failure_streak = 0;
    std::uint64_t lease_published = 0;
    std::uint64_t lease_in_flight = 0;  // floor of the unanswered kReadLease
    std::chrono::steady_clock::time_point lease_deadline;
    std::atomic<std::size_t> outstanding{0};  // reads queued or in flight
    std::atomic<bool> degraded{false};
  };

  /// Serve one offloadable block from a replica.  OK = `out` holds fresh
  /// data; any error means the caller must fall back to the primary (the
  /// link's health bookkeeping has already been updated).
  Status read_from_replica(ReadLink& link, Lba lba, MutByteSpan out,
                           std::uint64_t min_sequence);
  /// If the engine's read floor has advanced far enough and no renewal is
  /// on the wire, claim one: returns the floor to publish as a kReadLease
  /// (0 = none due).  Lease failures are soft: the replica just keeps
  /// proving freshness per LBA.
  std::uint64_t claim_lease_locked(ReadLink& link);
  /// Wait for `exchange`'s reply, taking the receiving role whenever no
  /// other waiter holds it.
  Result<ReplicationMessage> await_reply(ReadLink& link, Exchange& exchange);
  /// An exchange is leaving the link: if nobody is receiving, wake the
  /// oldest waiting exchange to take the role over.
  void pass_receiving_locked(ReadLink& link);
  /// Hand one received reply to whoever it answers; drop it otherwise.
  void route_reply_locked(ReadLink& link, ReplicationMessage reply);
  /// The link's transport failed: every waiting exchange fails with it.
  void fail_waiting_locked(ReadLink& link, const Status& status);
  ReadLink* pick_link();
  void note_success(ReadLink& link);
  void note_failure(ReadLink& link);
  void note_failure_locked(ReadLink& link);

  std::shared_ptr<PrinsEngine> engine_;
  ReadRouterConfig config_;
  std::vector<std::unique_ptr<ReadLink>> links_;  // stable after first read
  std::atomic<std::uint64_t> rr_cursor_{0};
  std::atomic<std::uint64_t> next_exchange_{1};
};

}  // namespace prins
