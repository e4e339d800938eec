// Read offload: freshness-checked client reads from replicas and the
// load-aware read router.
//
// Covers the full offload contract end to end: the replica-side serve path
// (per-LBA applied table, lease floor, stale NAKs), the primary's conflict
// window classification, router fan-out with local fallback, a stale-read
// soak over a faulty link proving zero freshness violations at 100%
// availability, and epoch safety — a replica adopted by a promoted
// primary refuses the old primary's reads with kStaleEpoch.  Runs under
// the `read_scaling` ctest label so the CI sanitizer matrix sweeps it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "block/mem_disk.h"
#include "common/endian.h"
#include "common/rng.h"
#include "net/faulty.h"
#include "net/inproc.h"
#include "prins/engine.h"
#include "prins/message.h"
#include "prins/read_router.h"
#include "prins/replica.h"

namespace prins {
namespace {

constexpr std::uint32_t kBs = 1024;
constexpr std::uint64_t kBlocks = 64;

// Sanitizers slow the in-proc reply path ~10x; stretch the router's reply
// deadlines so the scripted link, not the scheduler, decides what times out.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr int kTimingScale = 10;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr int kTimingScale = 10;
#else
constexpr int kTimingScale = 1;
#endif
#else
constexpr int kTimingScale = 1;
#endif

std::chrono::milliseconds scaled_ms(int ms) {
  return std::chrono::milliseconds(ms * kTimingScale);
}

Bytes pattern_block(std::uint64_t seed, std::size_t size = kBs) {
  Bytes block(size);
  Rng rng(seed + 1);
  rng.fill(block);
  return block;
}

ReplicationMessage client_read_request(Lba lba, std::uint64_t min_sequence,
                                       std::uint64_t exchange_id = 1,
                                       std::uint64_t epoch = 0) {
  ReplicationMessage req;
  req.kind = MessageKind::kClientReadRequest;
  req.cluster_epoch = epoch;
  req.block_size = kBs;
  req.lba = lba;
  req.sequence = exchange_id;
  append_le64(req.payload, min_sequence);
  return req;
}

/// Wraps the router's end of a read link (a fault injector or one of the
/// scripted decorators below); null leaves the link bare.
using LinkWrap =
    std::function<std::unique_ptr<Transport>(std::unique_ptr<Transport>)>;

/// Primary + one replica over in-proc links: a delta link the engine
/// replicates over, and a (possibly wrapped) read link for a ReadRouter.
struct OffloadRig {
  std::shared_ptr<MemDisk> primary_disk;
  std::shared_ptr<MemDisk> replica_disk;
  std::shared_ptr<ReplicaEngine> replica;
  std::shared_ptr<PrinsEngine> engine;
  std::shared_ptr<ReadRouter> router;
  std::vector<std::thread> serve_threads;

  explicit OffloadRig(ReadRouterConfig router_config = {},
                      const LinkWrap& wrap_read_link = nullptr) {
    primary_disk = std::make_shared<MemDisk>(kBlocks, kBs);
    replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
    ReplicaConfig rconfig;
    rconfig.apply_shards = 2;
    replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);

    EngineConfig config;
    config.policy = ReplicationPolicy::kPrins;
    config.read_from_replicas = true;
    engine = std::make_shared<PrinsEngine>(primary_disk, config);
    auto [delta_client, delta_server] = make_inproc_pair();
    serve(std::move(delta_server));
    engine->add_replica(std::move(delta_client));

    router = std::make_shared<ReadRouter>(engine, router_config);
    auto [read_client, read_server] = make_inproc_pair();
    serve(std::move(read_server));
    std::unique_ptr<Transport> read_end = std::move(read_client);
    if (wrap_read_link) read_end = wrap_read_link(std::move(read_end));
    router->add_read_replica(std::move(read_end));
  }

  void serve(std::unique_ptr<Transport> transport) {
    serve_threads.emplace_back(
        [r = replica, t = std::shared_ptr<Transport>(std::move(transport))] {
          (void)r->serve(*t);
        });
  }

  ~OffloadRig() {
    router.reset();  // closes the read link
    engine.reset();  // closes the delta link
    for (auto& t : serve_threads) t.join();
  }
};

// ---------------------------------------------------------------------------
// Replica-side serving: freshness proofs, stale NAKs, the lease floor.

TEST(ClientReadServe, FreshDemandReturnsTheBlock) {
  OffloadRig rig;
  const Bytes data = pattern_block(3);
  ASSERT_TRUE(rig.engine->write(5, data).is_ok());
  ASSERT_TRUE(rig.engine->drain().is_ok());

  const std::uint64_t seq = rig.engine->last_sequence();
  auto reply = rig.replica->apply(client_read_request(5, seq, /*id=*/77));
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  EXPECT_EQ(reply->kind, MessageKind::kClientReadReply);
  EXPECT_EQ(reply->sequence, 77u);  // echoes the exchange id
  EXPECT_EQ(reply->lba, 5u);
  EXPECT_EQ(reply->payload, data);
  EXPECT_EQ(rig.replica->metrics().client_reads_served, 1u);
}

TEST(ClientReadServe, StaleDemandDrawsStaleReadNak) {
  OffloadRig rig;
  ASSERT_TRUE(rig.engine->write(2, pattern_block(4)).is_ok());
  ASSERT_TRUE(rig.engine->drain().is_ok());

  const std::uint64_t future = rig.engine->last_sequence() + 100;
  auto reply = rig.replica->apply(client_read_request(2, future, /*id=*/9));
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply->kind, MessageKind::kNak);
  EXPECT_EQ(reply->sequence, 9u);
  ASSERT_FALSE(reply->payload.empty());
  EXPECT_EQ(reply->payload[0], static_cast<Byte>(NakReason::kStaleRead));
  EXPECT_GE(rig.replica->metrics().stale_read_naks, 1u);
  EXPECT_EQ(rig.replica->metrics().client_reads_served, 0u);
}

TEST(ClientReadServe, LeaseFloorProvesFreshnessWithoutPerLbaHistory) {
  // A lease at sequence 7 proves ANY demand <= 7, even for an LBA this
  // replica never saw a delta for (e.g. blocks only full-synced).
  auto disk = std::make_shared<MemDisk>(kBlocks, kBs);
  ReplicaEngine replica(disk);

  ReplicationMessage lease;
  lease.kind = MessageKind::kReadLease;
  lease.sequence = 7;
  auto ack = replica.apply(lease);
  ASSERT_TRUE(ack.is_ok());
  EXPECT_EQ(ack->kind, MessageKind::kAck);
  EXPECT_EQ(ack->sequence, 7u);
  EXPECT_EQ(replica.read_lease_floor(), 7u);

  auto covered = replica.apply(client_read_request(3, 7));
  ASSERT_TRUE(covered.is_ok());
  EXPECT_EQ(covered->kind, MessageKind::kClientReadReply);

  auto beyond = replica.apply(client_read_request(3, 8));
  ASSERT_TRUE(beyond.is_ok());
  EXPECT_EQ(beyond->kind, MessageKind::kNak);
  ASSERT_FALSE(beyond->payload.empty());
  EXPECT_EQ(beyond->payload[0], static_cast<Byte>(NakReason::kStaleRead));

  // A lower lease never regresses the floor.
  lease.sequence = 4;
  ASSERT_TRUE(replica.apply(lease).is_ok());
  EXPECT_EQ(replica.read_lease_floor(), 7u);
}

TEST(ClientReadServe, MinSequenceZeroAlwaysServes) {
  auto disk = std::make_shared<MemDisk>(kBlocks, kBs);
  ReplicaEngine replica(disk);
  auto reply = replica.apply(client_read_request(0, 0));
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply->kind, MessageKind::kClientReadReply);
  EXPECT_EQ(reply->payload, Bytes(kBs, Byte{0}));
}

// ---------------------------------------------------------------------------
// Primary-side conflict window.

TEST(ConflictWindow, AckedWritesClassifyOffloadableWithTheirSequence) {
  // With no replicas attached, every write settles synchronously, so its
  // sequence is at or below the read floor by the time write() returns.
  EngineConfig config;
  config.read_from_replicas = true;
  auto engine = std::make_shared<PrinsEngine>(
      std::make_shared<MemDisk>(kBlocks, kBs), config);
  ASSERT_TRUE(engine->write(5, pattern_block(1)).is_ok());
  const std::uint64_t seq = engine->last_sequence();

  std::uint64_t min_sequence = 123;
  EXPECT_EQ(engine->classify_read(5, &min_sequence),
            PrinsEngine::ReadClass::kOffloadable);
  EXPECT_EQ(min_sequence, seq);

  // A never-written LBA has no history to demand.
  EXPECT_EQ(engine->classify_read(9, &min_sequence),
            PrinsEngine::ReadClass::kOffloadable);
  EXPECT_EQ(min_sequence, 0u);
}

TEST(ConflictWindow, UnackedWritesStayLocal) {
  // A replica link whose far end is never served: deltas ship but no ack
  // ever returns, so the write stays in the conflict window forever.
  EngineConfig config;
  config.read_from_replicas = true;
  auto engine = std::make_shared<PrinsEngine>(
      std::make_shared<MemDisk>(kBlocks, kBs), config);
  auto [primary_end, replica_end] = make_inproc_pair();
  engine->add_replica(std::move(primary_end));

  ASSERT_TRUE(engine->write(7, pattern_block(2)).is_ok());
  std::uint64_t min_sequence = 0;
  EXPECT_EQ(engine->classify_read(7, &min_sequence),
            PrinsEngine::ReadClass::kLocal);
  replica_end->close();
}

TEST(ConflictWindow, DisabledConfigKeepsEveryReadLocal) {
  auto engine = std::make_shared<PrinsEngine>(
      std::make_shared<MemDisk>(kBlocks, kBs), EngineConfig{});
  ASSERT_TRUE(engine->write(1, pattern_block(6)).is_ok());
  std::uint64_t min_sequence = 0;
  EXPECT_EQ(engine->classify_read(1, &min_sequence),
            PrinsEngine::ReadClass::kLocal);
}

// ---------------------------------------------------------------------------
// The router: offload, fallback, health.

TEST(ReadRouter, OffloadsConflictFreeReadsToTheReplica) {
  OffloadRig rig;
  std::vector<Bytes> expect;
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    expect.push_back(pattern_block(100 + lba));
    ASSERT_TRUE(rig.engine->write(lba, expect.back()).is_ok());
  }
  ASSERT_TRUE(rig.engine->drain().is_ok());

  Bytes got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(rig.router->read(lba, got).is_ok());
    EXPECT_EQ(got, expect[lba]) << "lba " << lba;
  }
  const EngineMetrics m = rig.engine->metrics();
  EXPECT_GT(m.replica_reads, 0u);
  EXPECT_EQ(m.replica_reads, kBlocks);  // every read was conflict-free
  EXPECT_EQ(rig.replica->metrics().client_reads_served, kBlocks);
  EXPECT_EQ(rig.router->healthy_links(), 1u);
}

TEST(ReadRouter, FallsBackLocalWhenTheLinkDies) {
  ReadRouterConfig config;
  config.op_timeout = std::chrono::milliseconds(200);
  config.degrade_after = 1;
  OffloadRig rig(config);
  const Bytes data = pattern_block(8);
  ASSERT_TRUE(rig.engine->write(3, data).is_ok());
  ASSERT_TRUE(rig.engine->drain().is_ok());

  // Kill the replica's end of everything: the read exchange now fails, and
  // the router must still serve every read from the primary.
  rig.router.reset();
  auto router = std::make_shared<ReadRouter>(rig.engine, config);
  auto [client, server] = make_inproc_pair();
  server->close();  // dead on arrival
  router->add_read_replica(std::move(client));

  Bytes got(kBs);
  ASSERT_TRUE(router->read(3, got).is_ok());
  EXPECT_EQ(got, data);
  EXPECT_EQ(router->healthy_links(), 0u);  // degraded after the failure
  ASSERT_TRUE(router->read(3, got).is_ok());  // and still serving
  EXPECT_EQ(got, data);
}

TEST(ReadRouter, WritesPassThroughToTheEngine) {
  OffloadRig rig;
  const Bytes data = pattern_block(12);
  ASSERT_TRUE(rig.router->write(4, data).is_ok());
  ASSERT_TRUE(rig.router->flush().is_ok());
  ASSERT_TRUE(rig.engine->drain().is_ok());
  Bytes got(kBs);
  ASSERT_TRUE(rig.replica_disk->read(4, got).is_ok());
  EXPECT_EQ(got, data);
}

// ---------------------------------------------------------------------------
// Pipelined read links: many exchanges in flight on one link, each reply
// matched to its exchange by (kind, sequence).  The decorators below sit on
// the router's end of the read link and script what its receiver sees.

/// Forwards everything; subclasses override the side they script.
class LinkDecorator : public Transport {
 public:
  explicit LinkDecorator(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}
  Status send(ByteSpan message) override { return inner_->send(message); }
  Result<Bytes> recv() override { return inner_->recv(); }
  Result<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    return inner_->recv_for(timeout);
  }
  void close() override { inner_->close(); }
  std::string describe() const override {
    return "scripted(" + inner_->describe() + ")";
  }

 protected:
  static std::chrono::milliseconds left(
      std::chrono::steady_clock::time_point deadline) {
    return std::max(std::chrono::milliseconds(0),
                    std::chrono::ceil<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now()));
  }

  std::unique_ptr<Transport> inner_;
};

/// Withholds every reply until `open_at` frames have been sent; cut()
/// fails the link under whoever is receiving.
class ReplyGate final : public LinkDecorator {
 public:
  ReplyGate(std::unique_ptr<Transport> inner, std::size_t open_at)
      : LinkDecorator(std::move(inner)), open_at_(open_at) {}

  Status send(ByteSpan message) override {
    Status sent = inner_->send(message);
    {
      std::lock_guard lock(mutex_);
      ++sent_;
    }
    cv_.notify_all();
    return sent;
  }
  Result<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    {
      std::unique_lock lock(mutex_);
      if (!cv_.wait_until(lock, deadline,
                          [&] { return sent_ >= open_at_ || cut_; })) {
        return timeout_error("gate still closed");
      }
      if (cut_) return unavailable("read link cut");
    }
    return inner_->recv_for(left(deadline));
  }

  bool wait_for_sent(std::size_t n, std::chrono::milliseconds timeout) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, timeout, [&] { return sent_ >= n; });
  }
  void cut() {
    {
      std::lock_guard lock(mutex_);
      cut_ = true;
    }
    cv_.notify_all();
    inner_->close();
  }

 private:
  const std::size_t open_at_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t sent_ = 0;
  bool cut_ = false;
};

/// Holds back the first client-read reply for `lba` until release(); the
/// held frame then comes out ahead of the next one.
class HoldOneReply final : public LinkDecorator {
 public:
  HoldOneReply(std::unique_ptr<Transport> inner, Lba lba)
      : LinkDecorator(std::move(inner)), lba_(lba) {}

  Result<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    {
      std::lock_guard lock(mutex_);
      if (released_ && !held_.empty()) {
        delivered_late_ = true;
        return std::exchange(held_, Bytes{});
      }
    }
    for (;;) {
      PRINS_ASSIGN_OR_RETURN(Bytes wire, inner_->recv_for(left(deadline)));
      auto reply = ReplicationMessage::decode(wire);
      std::lock_guard lock(mutex_);
      if (holding_ || !reply.is_ok() ||
          reply->kind != MessageKind::kClientReadReply || reply->lba != lba_) {
        return wire;
      }
      holding_ = true;
      held_ = std::move(wire);
      cv_.notify_all();
    }
  }

  void wait_until_held() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return holding_; });
  }
  void release() {
    std::lock_guard lock(mutex_);
    released_ = true;
  }
  bool delivered_late() {
    std::lock_guard lock(mutex_);
    return delivered_late_;
  }

 private:
  const Lba lba_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool holding_ = false;
  bool released_ = false;
  bool delivered_late_ = false;
  Bytes held_;
};

/// Swallows the next `n` frames sent after drop_next(n): those exchanges
/// get no reply and time out.
class DropRequests final : public LinkDecorator {
 public:
  using LinkDecorator::LinkDecorator;
  Status send(ByteSpan message) override {
    if (to_drop_.load() > 0) {
      to_drop_.fetch_sub(1);
      return Status::ok();
    }
    return inner_->send(message);
  }
  void drop_next(int n) { to_drop_.store(n); }

 private:
  std::atomic<int> to_drop_{0};
};

/// Holds the first kAck (a lease ack) and lets it out just ahead of the
/// client-read reply whose exchange id equals the acked lease floor.
class LateLeaseAck final : public LinkDecorator {
 public:
  using LinkDecorator::LinkDecorator;
  Result<Bytes> recv_for(std::chrono::milliseconds timeout) override {
    if (!queued_.empty()) {
      Bytes next = std::move(queued_.front());
      queued_.pop_front();
      return next;
    }
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      PRINS_ASSIGN_OR_RETURN(Bytes wire, inner_->recv_for(left(deadline)));
      auto msg = ReplicationMessage::decode(wire);
      if (!msg.is_ok()) return wire;
      if (msg->kind == MessageKind::kAck && held_ack_.empty()) {
        held_floor_ = msg->sequence;
        held_ack_ = std::move(wire);
        continue;
      }
      if (!held_ack_.empty() && msg->kind == MessageKind::kClientReadReply &&
          msg->sequence == held_floor_) {
        collided_ = true;
        queued_.push_back(std::move(wire));
        return std::exchange(held_ack_, Bytes{});
      }
      return wire;
    }
  }
  bool collided() const { return collided_; }

 private:
  // One reader drives this link, so no lock.
  std::deque<Bytes> queued_;
  Bytes held_ack_;
  std::uint64_t held_floor_ = 0;
  bool collided_ = false;
};

/// Writes `n` patterned blocks at LBAs 0..n-1 and waits for every replica
/// to ack them, so each of those LBAs reads offloadable.
std::vector<Bytes> write_settled(OffloadRig& rig, std::uint64_t n) {
  std::vector<Bytes> blocks;
  for (Lba lba = 0; lba < n; ++lba) {
    blocks.push_back(pattern_block(500 + lba));
    EXPECT_TRUE(rig.engine->write(lba, blocks.back()).is_ok());
  }
  EXPECT_TRUE(rig.engine->drain().is_ok());
  return blocks;
}

TEST(ReadRouterPipelining, ConcurrentReadersShareOneLink) {
  // The mirror answers nothing until four requests are on the wire, so
  // the readers are served only if all four exchanges fly at once.
  constexpr std::size_t kReaders = 4;
  ReadRouterConfig config;
  config.op_timeout = scaled_ms(3000);
  config.lease_renew_every = 0;  // only client reads on the wire
  OffloadRig rig(config, [&](std::unique_ptr<Transport> link) {
    return std::make_unique<ReplyGate>(std::move(link), kReaders);
  });
  const std::vector<Bytes> blocks = write_settled(rig, kReaders);

  std::vector<Bytes> got(kReaders, Bytes(kBs));
  std::vector<Status> served(kReaders);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back(
        [&, r] { served[r] = rig.router->read(Lba(r), got[r]); });
  }
  for (auto& t : readers) t.join();
  for (std::size_t r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(served[r].is_ok()) << served[r].to_string();
    EXPECT_EQ(got[r], blocks[r]) << "reader " << r;
  }
  EXPECT_EQ(rig.engine->metrics().replica_reads, kReaders);  // no fallback
  EXPECT_EQ(rig.replica->metrics().client_reads_served, kReaders);
  EXPECT_EQ(rig.router->healthy_links(), 1u);
}

TEST(ReadRouterPipelining, DroppedReplyTimesOutOnlyItsOwnExchange) {
  constexpr Lba kSlow = 1;
  constexpr Lba kFast = 2;
  ReadRouterConfig config;
  config.op_timeout = scaled_ms(1000);
  config.lease_renew_every = 0;
  HoldOneReply* link = nullptr;
  OffloadRig rig(config, [&](std::unique_ptr<Transport> inner) {
    auto wrapped = std::make_unique<HoldOneReply>(std::move(inner), kSlow);
    link = wrapped.get();
    return wrapped;
  });
  const std::vector<Bytes> blocks = write_settled(rig, 4);

  // The slow exchange's reply is held back; it waits out its deadline
  // and falls back to the primary with correct data.
  std::atomic<bool> slow_done{false};
  Bytes slow_got(kBs);
  Status slow_status;
  std::thread slow([&] {
    slow_status = rig.router->read(kSlow, slow_got);
    slow_done.store(true);
  });
  link->wait_until_held();

  // Meanwhile other exchanges on the same link are answered at once.
  constexpr std::uint64_t kFastReads = 5;
  Bytes got(kBs);
  for (std::uint64_t i = 0; i < kFastReads; ++i) {
    ASSERT_TRUE(rig.router->read(kFast, got).is_ok());
    EXPECT_EQ(got, blocks[kFast]);
  }
  EXPECT_FALSE(slow_done.load()) << "fast reads waited for the slow one";
  EXPECT_EQ(rig.engine->metrics().replica_reads, kFastReads);
  slow.join();
  ASSERT_TRUE(slow_status.is_ok());
  EXPECT_EQ(slow_got, blocks[kSlow]);
  EXPECT_EQ(rig.engine->metrics().replica_reads, kFastReads);  // fell back

  // The late reply now arrives ahead of the next exchange's own: it finds
  // no waiting slot and is dropped, never handed to the later read.
  link->release();
  ASSERT_TRUE(rig.router->read(kFast, got).is_ok());
  EXPECT_TRUE(link->delivered_late());
  EXPECT_EQ(got, blocks[kFast]);
  EXPECT_EQ(rig.engine->metrics().replica_reads, kFastReads + 1);
  EXPECT_EQ(rig.router->healthy_links(), 1u);
}

TEST(ReadRouterPipelining, LinkClosedMidFlightWakesEveryWaiter) {
  constexpr std::size_t kReaders = 4;
  ReadRouterConfig config;
  // Far longer than the test may take: only the cut may end the waits.
  config.op_timeout = std::chrono::milliseconds(60000);
  config.lease_renew_every = 0;
  ReplyGate* gate = nullptr;
  OffloadRig rig(config, [&](std::unique_ptr<Transport> link) {
    auto wrapped = std::make_unique<ReplyGate>(std::move(link),
                                               /*open_at=*/kReaders + 1);
    gate = wrapped.get();
    return wrapped;
  });
  const std::vector<Bytes> blocks = write_settled(rig, kReaders);

  std::vector<Bytes> got(kReaders, Bytes(kBs));
  std::vector<Status> served(kReaders);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back(
        [&, r] { served[r] = rig.router->read(Lba(r), got[r]); });
  }
  EXPECT_TRUE(gate->wait_for_sent(kReaders, scaled_ms(5000)))
      << "the readers' exchanges were not all in flight at once";
  const auto cut_at = std::chrono::steady_clock::now();
  gate->cut();
  for (auto& t : readers) t.join();
  EXPECT_LT(std::chrono::steady_clock::now() - cut_at,
            std::chrono::seconds(30));
  for (std::size_t r = 0; r < kReaders; ++r) {
    EXPECT_TRUE(served[r].is_ok()) << served[r].to_string();
    EXPECT_EQ(got[r], blocks[r]) << "reader " << r;
  }
  EXPECT_EQ(rig.engine->metrics().replica_reads, 0u);  // all fell back
}

TEST(ReadRouterPipelining, DegradeCountsConsecutiveFailedExchanges) {
  ReadRouterConfig config;
  config.op_timeout = scaled_ms(50);
  config.degrade_after = 3;
  config.lease_renew_every = 0;
  DropRequests* link = nullptr;
  OffloadRig rig(config, [&](std::unique_ptr<Transport> inner) {
    auto wrapped = std::make_unique<DropRequests>(std::move(inner));
    link = wrapped.get();
    return wrapped;
  });
  const std::vector<Bytes> blocks = write_settled(rig, 1);
  Bytes got(kBs);
  auto read_ok = [&] {
    ASSERT_TRUE(rig.router->read(0, got).is_ok());
    EXPECT_EQ(got, blocks[0]);
  };

  link->drop_next(2);
  read_ok();
  read_ok();
  EXPECT_EQ(rig.router->healthy_links(), 1u);  // streak 2 of 3
  read_ok();                                   // a success resets it
  EXPECT_EQ(rig.engine->metrics().replica_reads, 1u);

  link->drop_next(2);
  read_ok();
  read_ok();
  EXPECT_EQ(rig.router->healthy_links(), 1u);  // 2 again, not 4
  link->drop_next(1);
  read_ok();
  EXPECT_EQ(rig.router->healthy_links(), 0u);  // three in a row

  read_ok();  // the primary serves on
  EXPECT_EQ(rig.engine->metrics().replica_reads, 1u);
}

TEST(ReadRouterPipelining, LeaseAckNeverAnswersAClientRead) {
  // Lease floors and exchange ids are independent counters.  Force a
  // collision: the first read publishes the lease at floor F, its kAck(F)
  // is held back and arrives just ahead of exchange F's reply.  Taken as
  // that read's reply it would count as a failed exchange and degrade the
  // link (degrade_after = 1).
  ReadRouterConfig config;
  config.op_timeout = scaled_ms(5000);  // the lease stays pending
  config.degrade_after = 1;
  LateLeaseAck* link = nullptr;
  OffloadRig rig(config, [&](std::unique_ptr<Transport> inner) {
    auto wrapped = std::make_unique<LateLeaseAck>(std::move(inner));
    link = wrapped.get();
    return wrapped;
  });
  const std::vector<Bytes> blocks = write_settled(rig, 8);
  const std::uint64_t floor = rig.engine->read_floor();
  ASSERT_GE(floor, 1u);
  ASSERT_LE(floor, kBlocks);

  // Exchange ids start at 1, so read number F carries id F.
  Bytes got(kBs);
  for (std::uint64_t i = 0; i < floor; ++i) {
    const Lba lba = i % blocks.size();
    ASSERT_TRUE(rig.router->read(lba, got).is_ok());
    EXPECT_EQ(got, blocks[lba]) << "read " << i;
  }
  EXPECT_TRUE(link->collided());
  EXPECT_EQ(rig.router->healthy_links(), 1u);
  EXPECT_EQ(rig.engine->metrics().replica_reads, floor);
}

// ---------------------------------------------------------------------------
// Stale-read soak: a writer hammers hot LBAs while readers demand
// freshness across a faulty read link.  The oracle packs (version,
// sequence) per LBA; a reader that demanded sequence S must never observe
// a version older than the one written at S.  Every read must return OK —
// fallback keeps availability at 100% whatever the link drops.

TEST(StaleReadSoak, NoFreshnessViolationsAndFullAvailability) {
  FaultConfig faults;
  faults.drop_p = 0.01;
  faults.stall_p = 0.02;
  faults.stall = std::chrono::milliseconds(2);
  faults.seed = 42;
  ReadRouterConfig config;
  config.op_timeout = std::chrono::milliseconds(100);
  config.degrade_after = 1u << 20;  // the soak wants the link to keep trying
  OffloadRig rig(config, [&](std::unique_ptr<Transport> link) {
    return std::make_unique<FaultyTransport>(std::move(link), faults);
  });

  constexpr std::size_t kHot = 8;
  constexpr std::uint64_t kWrites = 400;
  constexpr std::size_t kReaders = 3;
  constexpr std::uint64_t kReadsEach = 300;

  // packed = version << 32 | sequence-of-that-version's-write.
  std::array<std::atomic<std::uint64_t>, kHot> oracle{};

  std::thread writer([&] {
    Bytes block(kBs, Byte{0x5a});
    for (std::uint64_t v = 1; v <= kWrites; ++v) {
      const Lba lba = v % kHot;
      std::uint64_t stamp[2] = {v, lba};
      std::memcpy(block.data(), stamp, sizeof(stamp));
      ASSERT_TRUE(rig.engine->write(lba, block).is_ok());
      // Single writer: last_sequence() is this write's sequence.
      const std::uint64_t seq = rig.engine->last_sequence();
      oracle[lba].store((v << 32) | seq, std::memory_order_release);
    }
  });

  std::atomic<std::uint64_t> violations{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + r);
      Bytes got(kBs);
      for (std::uint64_t i = 0; i < kReadsEach; ++i) {
        const Lba lba = rng.next_below(kHot);
        const std::uint64_t packed =
            oracle[lba].load(std::memory_order_acquire);
        if (packed == 0) continue;
        const std::uint64_t want_version = packed >> 32;
        const std::uint64_t want_sequence = packed & 0xffffffffu;
        // Availability: every read must come back OK, faults or not.
        ASSERT_TRUE(rig.router->read_fresh(lba, got, want_sequence).is_ok());
        std::uint64_t stamp[2];
        std::memcpy(stamp, got.data(), sizeof(stamp));
        if (stamp[0] < want_version || stamp[1] != lba) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0u);

  // Quiesced phase: with every write acked the conflict window opens, so
  // demand reads must now offload across the same faulty link — and still
  // come back fresh despite the drops and stalls.
  ASSERT_TRUE(rig.engine->drain().is_ok());
  Bytes got(kBs);
  for (int round = 0; round < 4; ++round) {
    for (Lba lba = 0; lba < kHot; ++lba) {
      const std::uint64_t packed = oracle[lba].load(std::memory_order_acquire);
      const std::uint64_t want_version = packed >> 32;
      const std::uint64_t want_sequence = packed & 0xffffffffu;
      ASSERT_TRUE(rig.router->read_fresh(lba, got, want_sequence).is_ok());
      std::uint64_t stamp[2];
      std::memcpy(stamp, got.data(), sizeof(stamp));
      EXPECT_EQ(stamp[0], want_version);
      EXPECT_EQ(stamp[1], lba);
    }
  }
  const EngineMetrics m = rig.engine->metrics();
  EXPECT_GT(m.replica_reads, 0u);  // offload actually happened
}

// ---------------------------------------------------------------------------
// Epoch safety: a replica that has adopted a promoted primary's epoch
// refuses the zombie's client reads with kStaleEpoch; the zombie's router
// degrades the link sticky and keeps serving from its own device.

TEST(ReadOffloadFailover, FencedReplicaRefusesZombieReads) {
  // Shared replica S serves three links: deltas from old primary A, A's
  // read link, and deltas from the soon-to-be-promoted spare.
  auto s_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto s_replica = std::make_shared<ReplicaEngine>(s_disk);
  std::vector<std::thread> serve_threads;
  auto serve = [&](std::unique_ptr<Transport> t) {
    serve_threads.emplace_back(
        [r = s_replica, t = std::shared_ptr<Transport>(std::move(t))] {
          (void)r->serve(*t);
        });
  };

  EngineConfig a_config;
  a_config.read_from_replicas = true;
  auto a_engine = std::make_shared<PrinsEngine>(
      std::make_shared<MemDisk>(kBlocks, kBs), a_config);
  auto [a_delta_client, a_delta_server] = make_inproc_pair();
  serve(std::move(a_delta_server));
  a_engine->add_replica(std::move(a_delta_client));

  auto router = std::make_shared<ReadRouter>(a_engine);
  auto [a_read_client, a_read_server] = make_inproc_pair();
  serve(std::move(a_read_server));
  router->add_read_replica(std::move(a_read_client));

  const Bytes data = pattern_block(21);
  ASSERT_TRUE(a_engine->write(6, data).is_ok());
  ASSERT_TRUE(a_engine->drain().is_ok());

  // Offload works while everyone agrees on the epoch.
  Bytes got(kBs);
  ASSERT_TRUE(router->read(6, got).is_ok());
  EXPECT_EQ(got, data);
  EXPECT_EQ(a_engine->metrics().replica_reads, 1u);
  EXPECT_EQ(router->healthy_links(), 1u);

  // Failover: promote a spare (the PR-9 mechanism), which mints epoch 1;
  // its first delta teaches S the new epoch.
  ReplicaConfig spare_config;
  spare_config.keep_trap_log = true;
  ReplicaEngine spare(std::make_shared<MemDisk>(kBlocks, kBs), spare_config);
  auto promoted = spare.promote(EngineConfig{});
  ASSERT_TRUE(promoted.is_ok()) << promoted.status().to_string();
  std::shared_ptr<PrinsEngine> p_engine = std::move(*promoted);
  EXPECT_GE(p_engine->cluster_epoch(), 1u);
  auto [p_delta_client, p_delta_server] = make_inproc_pair();
  serve(std::move(p_delta_server));
  p_engine->add_replica(std::move(p_delta_client));
  ASSERT_TRUE(p_engine->write(0, pattern_block(30)).is_ok());
  ASSERT_TRUE(p_engine->drain().is_ok());
  EXPECT_GE(s_replica->cluster_epoch(), 1u);

  // The zombie's read link is now fenced: the read still succeeds (local
  // fallback), the link degrades sticky, and S records the fencing NAK.
  ASSERT_TRUE(router->read(6, got).is_ok());
  EXPECT_EQ(got, data);
  EXPECT_EQ(router->healthy_links(), 0u);
  EXPECT_EQ(a_engine->metrics().replica_reads, 1u);  // no new offloads
  EXPECT_GE(s_replica->metrics().stale_epoch_naks, 1u);

  // Still fully available afterwards, entirely from the zombie's device.
  ASSERT_TRUE(router->read(6, got).is_ok());
  EXPECT_EQ(got, data);

  router.reset();
  p_engine.reset();
  a_engine.reset();
  for (auto& t : serve_threads) t.join();
}

}  // namespace
}  // namespace prins
