// Tests for the thread-free node: ReactorReplicaServer (many initiators,
// one shared apply pipeline), ReactorIscsiServer (PDUs run to completion
// on private session loops), the reactor-driven engine senders (EngineConfig::
// reactor_senders) and the sender-driver sweeps (duplicate ACKs, drops,
// parity, stop and reattach), the concurrent replica_serve_in_background
// accept loop, and the validated PRINS_* env knob parser.  Everything here runs
// under the `reactor` ctest label, so the CI sanitizer matrix (ASan/TSan)
// sweeps it.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "block/faulty_disk.h"
#include "block/integrity_disk.h"
#include "block/mem_disk.h"
#include "codec/codec.h"
#include "common/crc32c.h"
#include "common/endian.h"
#include "common/env.h"
#include "common/rng.h"
#include "iscsi/initiator.h"
#include "iscsi/reactor_target.h"
#include "iscsi/target.h"
#include "net/faulty.h"
#include "net/inproc.h"
#include "net/reactor.h"
#include "net/reactor_tcp.h"
#include "net/shaped_transport.h"
#include "net/tcp.h"
#include "net/traffic_meter.h"
#include "prins/engine.h"
#include "prins/intent_log.h"
#include "prins/reactor_server.h"
#include "prins/replica.h"
#include "prins/verify.h"

namespace prins {
namespace {

using namespace std::chrono_literals;

bool await(const std::function<bool()>& done,
           std::chrono::milliseconds limit = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// Drain replies until `expect` completions are covered, counting a kAck as
// one completion and a kAckBatch as the sum of its range lengths.
Status collect_acks(Transport& transport, std::size_t expect) {
  std::size_t covered = 0;
  while (covered < expect) {
    auto wire = transport.recv_for(10s);
    if (!wire.is_ok()) return wire.status();
    auto reply = ReplicationMessage::decode(*wire);
    if (!reply.is_ok()) return reply.status();
    if (reply->kind == MessageKind::kAckBatch) {
      auto ranges = unpack_ack_ranges(reply->payload);
      if (!ranges.is_ok()) return ranges.status();
      for (const AckRange& range : *ranges) covered += range.count;
    } else if (reply->kind == MessageKind::kAck) {
      ++covered;
    } else {
      return failed_precondition("unexpected reply kind");
    }
  }
  return Status::ok();
}

ReplicationMessage sync_block_message(Lba lba, std::uint64_t sequence,
                                      std::uint32_t bs, ByteSpan block) {
  ReplicationMessage msg;
  msg.kind = MessageKind::kSyncBlock;
  msg.policy = ReplicationPolicy::kPrinsRle;
  msg.block_size = bs;
  msg.lba = lba;
  msg.sequence = sequence;
  msg.timestamp_us = sequence;
  msg.payload = encode_frame(codec_for(CodecId::kLz), block);
  return msg;
}

// ---- ReactorReplicaServer --------------------------------------------------

TEST(ReactorReplicaServerTest, TwoInitiatorsDisjointRangesConverge) {
  // Two initiators stream parity deltas into ONE reactor-hosted replica
  // process: disjoint LBA halves, interleaved in time, one shared set of
  // LBA-striped apply workers.  Each initiator tracks the XOR-telescoped
  // contents it expects; sequence ranges are distinct per connection
  // because the replica's dedup window is global across sessions.
  constexpr std::uint32_t kBs = 1024;
  constexpr std::uint64_t kBlocks = 128;
  ReplicaConfig rconfig;
  rconfig.apply_shards = 4;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto pool = ReactorPool::create(2);
  ASSERT_TRUE(pool.is_ok()) << pool.status().to_string();
  auto server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  std::vector<Bytes> expect(kBlocks, Bytes(kBs, Byte{0}));
  auto run_initiator = [&](Lba base, std::uint64_t sequence,
                           std::uint64_t seed) {
    auto link = TcpTransport::connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(link.is_ok()) << link.status().to_string();
    Rng rng(seed);
    Bytes delta(kBs);
    std::size_t sent = 0;
    for (int i = 0; i < 300; ++i) {
      const Lba lba = base + rng.next_below(kBlocks / 2);
      rng.fill(delta);
      // A parity delta XORs onto whatever the block holds (telescoping).
      for (std::size_t b = 0; b < kBs; ++b) expect[lba][b] ^= delta[b];
      ReplicationMessage msg;
      msg.kind = MessageKind::kWrite;
      msg.policy = ReplicationPolicy::kPrinsRle;
      msg.block_size = kBs;
      msg.lba = lba;
      msg.sequence = sequence + sent;
      msg.timestamp_us = sequence + sent;
      msg.payload = encode_frame(codec_for(CodecId::kZeroRle), delta);
      ASSERT_TRUE((*link)->send(msg.encode()).is_ok());
      ++sent;
    }
    ASSERT_TRUE(collect_acks(**link, sent).is_ok());
    (*link)->close();
  };

  std::thread a([&] { run_initiator(0, 10000, 11); });
  std::thread b([&] { run_initiator(kBlocks / 2, 20000, 22); });
  a.join();
  b.join();

  Bytes got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(expect[lba], got) << "diverged at lba " << lba;
  }
  EXPECT_EQ(replica->metrics().parity_applies, 600u);
  (*server)->stop();
}

TEST(ReactorReplicaServerTest, OverlappingInitiatorsApplyWholeBlocks) {
  // Two raw initiators hammer the SAME LBA range with full-block syncs.
  // The striped apply pipeline may interleave them per block, but every
  // final block must be exactly one initiator's pattern — never a torn
  // mix — and every sequence must be acked.
  constexpr std::uint32_t kBs = 512;
  constexpr std::uint64_t kBlocks = 32;
  ReplicaConfig rconfig;
  rconfig.apply_shards = 4;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto pool = ReactorPool::create(2);
  ASSERT_TRUE(pool.is_ok());
  auto server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(server.is_ok());

  // Sequence ranges must be distinct per connection: the replica's dedup
  // window is global across sessions, not per connection.
  auto run_initiator = [&](Byte fill, std::uint64_t first_sequence) {
    auto link = TcpTransport::connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(link.is_ok());
    const Bytes block(kBs, fill);
    std::size_t sent = 0;
    for (int round = 0; round < 4; ++round) {
      for (Lba lba = 0; lba < kBlocks; ++lba) {
        const auto msg =
            sync_block_message(lba, first_sequence + sent, kBs, block);
        ASSERT_TRUE((*link)->send(msg.encode()).is_ok());
        ++sent;
      }
    }
    ASSERT_TRUE(collect_acks(**link, sent).is_ok());
    (*link)->close();
  };

  std::thread a([&] { run_initiator(Byte{0xAA}, 1000); });
  std::thread b([&] { run_initiator(Byte{0xBB}, 2000); });
  a.join();
  b.join();

  Bytes got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    const bool all_a = got == Bytes(kBs, Byte{0xAA});
    const bool all_b = got == Bytes(kBs, Byte{0xBB});
    ASSERT_TRUE(all_a || all_b) << "torn block at lba " << lba;
  }
  EXPECT_EQ(replica->metrics().sync_blocks, 2u * 4u * kBlocks);
  (*server)->stop();
}

TEST(ReactorReplicaServerTest, DuplicateAcrossReconnectAppliesOnce) {
  // A primary that lost the ack replays its un-acked writes on a fresh
  // connection.  Parity deltas XOR: applying one twice would undo the
  // write, so the dedup window must span connections.
  constexpr std::uint32_t kBs = 512;
  auto replica_disk = std::make_shared<MemDisk>(8, kBs);
  ReplicaConfig rconfig;
  rconfig.apply_shards = 2;
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(server.is_ok());

  Bytes delta(kBs);
  Rng(77).fill(delta);
  ReplicationMessage msg;
  msg.kind = MessageKind::kWrite;
  msg.policy = ReplicationPolicy::kPrinsRle;
  msg.block_size = kBs;
  msg.lba = 3;
  msg.sequence = 42;
  msg.timestamp_us = 1;
  msg.payload = encode_frame(codec_for(CodecId::kZeroRle), delta);
  const Bytes wire = msg.encode();

  for (int attempt = 0; attempt < 2; ++attempt) {
    auto link = TcpTransport::connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(link.is_ok());
    ASSERT_TRUE((*link)->send(wire).is_ok());
    ASSERT_TRUE(collect_acks(**link, 1).is_ok());  // duplicate is acked too
    (*link)->close();
  }

  // Device holds delta ⊕ zeros exactly once: a double apply would be zeros.
  Bytes got(kBs);
  ASSERT_TRUE(replica_disk->read(3, got).is_ok());
  EXPECT_EQ(got, delta);
  EXPECT_EQ(replica->metrics().duplicates_dropped, 1u);
  (*server)->stop();
}

TEST(ReactorReplicaServerTest, DuplicateRepairAndSyncBlocksAreReAcked) {
  // An operator exchange that resends after a lost ACK delivers its sync
  // block or repair twice under one sequence.  The copy must be ACKed
  // again (the primary is waiting for that ACK), not dropped in silence,
  // and must not be applied twice.  Both front ends share this apply path.
  constexpr std::uint32_t kBs = 512;
  auto replica_disk = std::make_shared<MemDisk>(8, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(server.is_ok());
  auto link = TcpTransport::connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(link.is_ok());

  Bytes block(kBs);
  Rng(91).fill(block);
  ReplicationMessage sync = sync_block_message(2, 50, kBs, block);
  ReplicationMessage repair = sync_block_message(5, 51, kBs, block);
  repair.kind = MessageKind::kRepairBlock;
  for (const ReplicationMessage* msg : {&sync, &repair}) {
    const Bytes wire = msg->encode();
    for (int copy = 0; copy < 2; ++copy) {
      ASSERT_TRUE((*link)->send(wire).is_ok());
      ASSERT_TRUE(collect_acks(**link, 1).is_ok()) << "copy " << copy;
    }
  }
  // The threaded front end answers through ReplicaEngine::apply.
  auto again = replica->apply(repair);
  ASSERT_TRUE(again.is_ok()) << again.status().to_string();
  EXPECT_EQ(again->kind, MessageKind::kAck);
  EXPECT_EQ(again->sequence, repair.sequence);

  const ReplicaMetrics metrics = replica->metrics();
  EXPECT_EQ(metrics.sync_blocks, 1u);
  EXPECT_EQ(metrics.repairs, 1u);
  EXPECT_EQ(metrics.duplicates_dropped, 3u);
  Bytes got(kBs);
  for (Lba lba : {Lba{2}, Lba{5}}) {
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    EXPECT_EQ(got, block) << "lba " << lba;
  }
  (*link)->close();
  (*server)->stop();
}

TEST(ReactorReplicaServerTest, FaultStormThroughWrappedTransportHeals) {
  // ReactorReplicaServerOptions::wrap_transport composes the fault
  // injector with the reactor path: the FIRST accepted connection's reply
  // stream is corrupted and then hard-cut mid-stream, later connections
  // (the primary's reconnects) are clean.  The primary's heal machinery —
  // reconnect factory plus trap-log fold — must converge the replica
  // anyway, proving faults on a decorated reactor transport behave like
  // faults on a blocking one.
  constexpr std::uint32_t kBs = 1024;
  constexpr std::uint64_t kBlocks = 64;
  ReplicaConfig rconfig;
  rconfig.apply_shards = 4;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto pool = ReactorPool::create(2);
  ASSERT_TRUE(pool.is_ok());

  std::atomic<std::size_t> accepted{0};
  ReactorReplicaServerOptions options;
  options.wrap_transport =
      [&](std::unique_ptr<Transport> conn) -> std::unique_ptr<Transport> {
    if (accepted.fetch_add(1) != 0) return conn;  // reconnects are clean
    FaultConfig storm;
    storm.corrupt_p = 0.02;      // garbled acks: the primary must re-link
    storm.disconnect_after = 90;  // then the reply path hard-cuts
    storm.seed = 99;
    return std::make_unique<FaultyTransport>(std::move(conn), storm);
  };
  auto server = ReactorReplicaServer::start(replica, *pool, options);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  const std::uint16_t port = (*server)->port();

  EngineConfig config;
  config.keep_trap_log = true;
  config.retry.base_backoff = 1ms;
  config.retry.max_backoff = 10ms;
  config.retry.op_timeout = 2s;
  config.reconnect = [&](std::size_t) -> Result<std::unique_ptr<Transport>> {
    auto fresh = TcpTransport::connect("127.0.0.1", port);
    if (!fresh.is_ok()) return fresh.status();
    return std::unique_ptr<Transport>(std::move(*fresh));
  };
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  {
    auto link = TcpTransport::connect("127.0.0.1", port);
    ASSERT_TRUE(link.is_ok());
    engine->add_replica(std::move(*link));
  }

  Rng rng(53);
  Bytes block(kBs);
  for (int i = 0; i < 400; ++i) {
    rng.fill(block);
    ASSERT_TRUE(engine->write(rng.next_below(kBlocks), block).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_GE(engine->metrics().reconnects, 1u);
  EXPECT_GE(accepted.load(), 2u);

  Bytes want(kBs), got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, want).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(want, got) << "diverged at lba " << lba;
  }
  engine.reset();
  (*server)->stop();
}

TEST(ReactorReplicaServerTest, RestartUnderLoadAppliesExactlyOnce) {
  // Kill the reactor-hosted replica mid-stream with writes in flight, then
  // restart it over the same volume and intent log.  recover_intents()
  // must rebuild the dedup windows for every apply that completed before
  // the kill, so when the primary-side initiator replays its whole
  // un-acked window (it cannot know which applies landed) each XOR delta
  // lands exactly once — a double apply would undo it.
  constexpr std::uint32_t kBs = 512;
  constexpr std::uint64_t kBlocks = 32;
  const std::string intent_path =
      ::testing::TempDir() + "/reactor_restart_intents.log";
  std::remove(intent_path.c_str());
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto pool = ReactorPool::create(2);
  ASSERT_TRUE(pool.is_ok());

  std::vector<Bytes> expect(kBlocks, Bytes(kBs, Byte{0}));
  Rng rng(67);
  std::uint64_t sequence = 0;
  // Encode the next delta, folding it into the test-side expected state
  // exactly once no matter how often the wire copy is (re)sent.
  auto next_write = [&](Lba* out_lba) {
    const Lba lba = rng.next_below(kBlocks);
    Bytes delta(kBs);
    rng.fill(delta);
    for (std::size_t b = 0; b < kBs; ++b) expect[lba][b] ^= delta[b];
    ReplicationMessage msg;
    msg.kind = MessageKind::kWrite;
    msg.policy = ReplicationPolicy::kPrinsRle;
    msg.block_size = kBs;
    msg.lba = lba;
    msg.sequence = ++sequence;
    msg.timestamp_us = sequence;
    msg.payload = encode_frame(codec_for(CodecId::kZeroRle), delta);
    if (out_lba != nullptr) *out_lba = lba;
    return msg.encode();
  };

  std::vector<Bytes> unacked;  // the window the initiator will replay
  std::uint64_t applied_before_kill = 0;
  {
    auto intents = WriteIntentLog::open(intent_path);
    ASSERT_TRUE(intents.is_ok());
    ReplicaConfig rconfig;
    rconfig.apply_shards = 4;
    rconfig.intent_log = std::move(*intents);
    rconfig.intent_checkpoint_every = 0;  // keep every intent for recovery
    auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
    auto server = ReactorReplicaServer::start(replica, *pool);
    ASSERT_TRUE(server.is_ok());
    auto link = TcpTransport::connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(link.is_ok());
    // A fully acked prefix...
    for (int i = 0; i < 120; ++i) {
      ASSERT_TRUE((*link)->send(next_write(nullptr)).is_ok());
    }
    ASSERT_TRUE(collect_acks(**link, 120).is_ok());
    // ...then a burst the kill races: sent, maybe applied, never acked.
    for (int i = 0; i < 40; ++i) {
      Bytes wire = next_write(nullptr);
      if (!(*link)->send(wire).is_ok()) break;  // server may die under us
      unacked.push_back(std::move(wire));
    }
    (*server)->stop();  // hard stop: close sessions, drain apply workers
    (*link)->close();
    applied_before_kill = replica->metrics().parity_applies;
  }  // replica engine + intent log fd die here; disk and file survive

  // Restart: same volume, same intent log.
  auto intents = WriteIntentLog::open(intent_path);
  ASSERT_TRUE(intents.is_ok());
  ReplicaConfig rconfig;
  rconfig.apply_shards = 4;
  rconfig.intent_log = std::move(*intents);
  rconfig.intent_checkpoint_every = 0;
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto damaged = replica->recover_intents();
  ASSERT_TRUE(damaged.is_ok()) << damaged.status().to_string();
  EXPECT_TRUE(damaged->empty());  // stop() drains workers: no torn applies
  auto server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(server.is_ok());

  auto link = TcpTransport::connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(link.is_ok());
  for (const Bytes& wire : unacked) {  // replay the whole un-acked window
    ASSERT_TRUE((*link)->send(wire).is_ok());
  }
  for (int i = 0; i < 20; ++i) {  // and keep fresh load flowing
    ASSERT_TRUE((*link)->send(next_write(nullptr)).is_ok());
  }
  ASSERT_TRUE(collect_acks(**link, unacked.size() + 20).is_ok());
  (*link)->close();

  Bytes got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(expect[lba], got) << "double or missing apply at lba " << lba;
  }
  // Exactly-once across the restart: every sequence applied once, and the
  // replayed writes that had already landed were dropped by the rebuilt
  // dedup window, not re-XORed.
  const ReplicaMetrics after = replica->metrics();
  EXPECT_EQ(applied_before_kill + after.parity_applies, sequence);
  EXPECT_EQ(after.parity_applies + after.duplicates_dropped,
            unacked.size() + 20);
  (*server)->stop();
  std::remove(intent_path.c_str());
}

TEST(ReactorReplicaServerTest, MeteredConnectionsAreServed) {
  // TrafficMeter forwards Transport::underlying(), so a metered accepted
  // connection still reaches its reactor connection: the session is served
  // (not dropped as "non-reactor"), and the meter counts the replies the
  // replica sends.  Received frames reach the pipeline through the reactor
  // handler, bypassing the decorator, so received() stays zero.
  constexpr std::uint32_t kBs = 1024;
  constexpr std::uint64_t kBlocks = 32;
  ReplicaConfig rconfig;
  rconfig.apply_shards = 2;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());

  std::mutex meters_mutex;
  std::vector<TrafficMeter*> meters;
  ReactorReplicaServerOptions options;
  options.wrap_transport =
      [&](std::unique_ptr<Transport> conn) -> std::unique_ptr<Transport> {
    auto meter = std::make_unique<TrafficMeter>(std::move(conn));
    std::lock_guard lock(meters_mutex);
    meters.push_back(meter.get());
    return meter;
  };
  auto server = ReactorReplicaServer::start(replica, *pool, options);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  EngineConfig config;
  config.retry.op_timeout = 2s;
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  {
    auto link = TcpTransport::connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(link.is_ok());
    engine->add_replica(std::move(*link));
  }
  Rng rng(83);
  Bytes block(kBs);
  for (int i = 0; i < 100; ++i) {
    rng.fill(block);
    ASSERT_TRUE(engine->write(rng.next_below(kBlocks), block).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());
  {
    std::lock_guard lock(meters_mutex);
    ASSERT_EQ(meters.size(), 1u);
    EXPECT_GT(meters[0]->sent().messages, 0u);
    EXPECT_EQ(meters[0]->received().messages, 0u);
  }
  Bytes want(kBs), got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, want).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(want, got) << "diverged at lba " << lba;
  }
  // Stop the server first: its handler teardown orders the meter reads
  // above before the connection (and its meter) dies on a loop thread.
  (*server)->stop();
  engine.reset();
}

TEST(ReactorReplicaServerTest, HonoursReplicaAckCoalesceMax) {
  // ReplicaConfig::ack_coalesce_max governs the reactor front end too: at 1,
  // a pipelined burst is still acked one plain kAck per apply, never as a
  // kAckBatch — even with replies slowed to ~0.5 ms each, so completions
  // from four apply workers pile up behind every ack send.
  constexpr std::uint32_t kBs = 512;
  constexpr std::uint64_t kBlocks = 64;
  ReplicaConfig rconfig;
  rconfig.apply_shards = 4;
  rconfig.ack_coalesce_max = 1;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  ReactorReplicaServerOptions options;
  options.wrap_transport = [](std::unique_ptr<Transport> conn) {
    ShapingConfig slow;
    slow.hops = 0;
    slow.bandwidth_scale = 2.0;  // a T1 at twice its rate: ~0.5 ms per ack
    return std::make_unique<ShapedTransport>(std::move(conn), slow);
  };
  auto server = ReactorReplicaServer::start(replica, *pool, options);
  ASSERT_TRUE(server.is_ok());

  auto link = TcpTransport::connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(link.is_ok());
  Rng rng(89);
  Bytes block(kBs);
  constexpr int kBurst = 400;
  for (int i = 0; i < kBurst; ++i) {
    rng.fill(block);
    ASSERT_TRUE((*link)
                    ->send(sync_block_message(i % kBlocks, i + 1, kBs, block)
                               .encode())
                    .is_ok());
  }
  ASSERT_TRUE(collect_acks(**link, kBurst).is_ok());
  (*link)->close();
  EXPECT_EQ(replica->metrics().sync_blocks, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(replica->metrics().ack_batches, 0u);
  (*server)->stop();
}

// ---- front-end parity: serve() and ReactorReplicaServer -------------------

// What a replica answered to the parity script, reduced to what does not
// depend on timing: which sequences acks covered (however they were
// batched), which NAKs came back, and the verify and client-read replies.
struct ScriptReplies {
  std::set<std::uint64_t> acked;
  std::multiset<std::pair<std::uint64_t, int>> naks;  // (sequence, reason)
  Bytes verify_reply;
  Bytes read_reply;
  bool done(std::size_t acks, std::size_t naks_expected) const {
    return acked.size() >= acks && naks.size() >= naks_expected &&
           !verify_reply.empty() && !read_reply.empty();
  }
};

constexpr std::uint32_t kParityBs = 512;
constexpr std::uint64_t kParityBlocks = 16;
constexpr std::uint64_t kParityEpoch = 2;
constexpr std::uint64_t kParityWrites = 24;

// Drive one scripted frame stream through `link` and collect the replies:
// parity deltas across every stripe, a redelivered sequence, a torn frame,
// a stale-epoch write, a barrier and a verify mid-stream, and a client
// read.  `model` ends as the contents the replica must hold.
Result<ScriptReplies> run_parity_script(Transport& link,
                                        std::vector<Bytes>& model) {
  model.assign(kParityBlocks, Bytes(kParityBs, Byte{0}));
  auto frame = [](MessageKind kind, std::uint64_t sequence, Lba lba,
                  Bytes payload) {
    ReplicationMessage msg;
    msg.kind = kind;
    msg.policy = ReplicationPolicy::kPrinsRle;
    msg.cluster_epoch = kParityEpoch;
    msg.block_size = kParityBs;
    msg.lba = lba;
    msg.sequence = sequence;
    msg.timestamp_us = sequence;
    msg.payload = std::move(payload);
    return msg;
  };
  Rng rng(97);
  std::map<std::uint64_t, Bytes> sent;  // sequence -> wire, for redelivery
  for (std::uint64_t seq = 1; seq <= kParityWrites; ++seq) {
    const Lba lba = (seq * 5) % kParityBlocks;
    Bytes delta(kParityBs);
    rng.fill(delta);
    for (std::size_t b = 0; b < kParityBs; ++b) model[lba][b] ^= delta[b];
    Bytes wire = frame(MessageKind::kWrite, seq, lba,
                       encode_frame(codec_for(CodecId::kZeroRle), delta))
                     .encode();
    if (seq == 11) {  // torn copy first; the intact frame follows
      Bytes torn = wire;
      torn[torn.size() / 2] ^= 0x5A;
      PRINS_RETURN_IF_ERROR(link.send(torn));
    }
    PRINS_RETURN_IF_ERROR(link.send(wire));
    sent[seq] = std::move(wire);
    if (seq == 8) PRINS_RETURN_IF_ERROR(link.send(sent[3]));  // duplicate
    if (seq == 12) {  // a zombie primary one epoch behind
      ReplicationMessage stale =
          frame(MessageKind::kWrite, 100, 2,
                encode_frame(codec_for(CodecId::kZeroRle), Bytes(kParityBs)));
      stale.cluster_epoch = kParityEpoch - 1;
      PRINS_RETURN_IF_ERROR(link.send(stale.encode()));
    }
    if (seq == 14) {
      PRINS_RETURN_IF_ERROR(
          link.send(frame(MessageKind::kBarrier, 101, 0, {}).encode()));
    }
    if (seq == 16) {  // every block checks out except a planted bad CRC
      std::vector<BlockChecksum> sums;
      for (Lba l = 0; l < kParityBlocks; ++l) {
        sums.push_back(BlockChecksum{l, crc32c(model[l]) ^ (l == 0 ? 1u : 0u)});
      }
      PRINS_RETURN_IF_ERROR(link.send(
          frame(MessageKind::kVerifyRequest, 102, 0, pack_checksums(sums))
              .encode()));
    }
    if (seq == 20) {  // fresh only once write 20 (same LBA) has applied
      Bytes min_sequence(8);
      store_le64(min_sequence, 20);
      PRINS_RETURN_IF_ERROR(link.send(
          frame(MessageKind::kClientReadRequest, 103, lba, min_sequence)
              .encode()));
    }
  }

  ScriptReplies replies;
  while (!replies.done(kParityWrites + 1, 2)) {
    PRINS_ASSIGN_OR_RETURN(Bytes wire, link.recv_for(10s));
    PRINS_ASSIGN_OR_RETURN(ReplicationMessage reply,
                           ReplicationMessage::decode(wire));
    switch (reply.kind) {
      case MessageKind::kAck:
        replies.acked.insert(reply.sequence);
        break;
      case MessageKind::kAckBatch: {
        PRINS_ASSIGN_OR_RETURN(std::vector<AckRange> ranges,
                               unpack_ack_ranges(reply.payload));
        for (const AckRange& range : ranges) {
          for (std::uint32_t i = 0; i < range.count; ++i) {
            replies.acked.insert(range.first_sequence + i);
          }
        }
        break;
      }
      case MessageKind::kNak:
        replies.naks.insert(
            {reply.sequence, reply.payload.empty() ? -1 : reply.payload[0]});
        break;
      case MessageKind::kVerifyReply:
        replies.verify_reply = reply.payload;
        break;
      case MessageKind::kClientReadReply:
        replies.read_reply = reply.payload;
        break;
      default:
        return failed_precondition("unexpected reply kind");
    }
  }
  return replies;
}

std::shared_ptr<ReplicaEngine> parity_replica(
    std::shared_ptr<MemDisk> disk) {
  ReplicaConfig rconfig;
  rconfig.apply_shards = 4;
  rconfig.cluster_epoch = kParityEpoch;
  return std::make_shared<ReplicaEngine>(std::move(disk), rconfig);
}

TEST(ReplicaFrontEndParityTest, ServeAndReactorServerAnswerAlike) {
  // The two front ends of the replica pipeline — serve() pumping an in-proc
  // transport, ReactorReplicaServer feeding from reactor handlers — must
  // answer one frame stream identically: same covered sequences and NAKs,
  // same replies, same device bytes, same counters.
  auto serve_disk = std::make_shared<MemDisk>(kParityBlocks, kParityBs);
  auto serve_replica = parity_replica(serve_disk);
  std::vector<Bytes> model;
  Result<ScriptReplies> by_serve = ScriptReplies{};
  {
    auto [client, server_end] = make_inproc_pair();
    std::thread server([&, end = std::move(server_end)] {
      EXPECT_TRUE(serve_replica->serve(*end).is_ok());
    });
    by_serve = run_parity_script(*client, model);
    client->close();
    server.join();
  }
  ASSERT_TRUE(by_serve.is_ok()) << by_serve.status().to_string();

  auto reactor_disk = std::make_shared<MemDisk>(kParityBlocks, kParityBs);
  auto reactor_replica = parity_replica(reactor_disk);
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto server = ReactorReplicaServer::start(reactor_replica, *pool);
  ASSERT_TRUE(server.is_ok());
  auto link = TcpTransport::connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(link.is_ok());
  auto by_reactor = run_parity_script(**link, model);
  ASSERT_TRUE(by_reactor.is_ok()) << by_reactor.status().to_string();
  (*link)->close();

  std::set<std::uint64_t> want_acked = {101};  // the barrier
  for (std::uint64_t seq = 1; seq <= kParityWrites; ++seq) {
    want_acked.insert(seq);
  }
  const std::multiset<std::pair<std::uint64_t, int>> want_naks = {
      {0, -1},  // torn frame: header unreadable, plain resend
      {100, static_cast<int>(NakReason::kStaleEpoch)}};
  for (const ScriptReplies* r : {&*by_serve, &*by_reactor}) {
    EXPECT_EQ(r->acked, want_acked);
    EXPECT_EQ(r->naks, want_naks);
  }
  EXPECT_EQ(by_serve->verify_reply, pack_lbas({0}));
  EXPECT_EQ(by_reactor->verify_reply, by_serve->verify_reply);
  EXPECT_EQ(by_reactor->read_reply, by_serve->read_reply);
  EXPECT_EQ(by_serve->read_reply, model[(20 * 5) % kParityBlocks]);

  Bytes a(kParityBs), b(kParityBs);
  for (Lba lba = 0; lba < kParityBlocks; ++lba) {
    ASSERT_TRUE(serve_disk->read(lba, a).is_ok());
    ASSERT_TRUE(reactor_disk->read(lba, b).is_ok());
    ASSERT_EQ(a, b) << "front ends diverged at lba " << lba;
    ASSERT_EQ(a, model[lba]) << "wrong contents at lba " << lba;
  }
  const ReplicaMetrics m1 = serve_replica->metrics();
  const ReplicaMetrics m2 = reactor_replica->metrics();
  EXPECT_EQ(m1.writes_applied, kParityWrites);
  EXPECT_EQ(m1.duplicates_dropped, 1u);
  EXPECT_EQ(m1.naks_sent, 2u);
  EXPECT_EQ(m1.stale_epoch_naks, 1u);
  EXPECT_EQ(m1.client_reads_served, 1u);
  EXPECT_EQ(m2.writes_applied, m1.writes_applied);
  EXPECT_EQ(m2.duplicates_dropped, m1.duplicates_dropped);
  EXPECT_EQ(m2.naks_sent, m1.naks_sent);
  EXPECT_EQ(m2.stale_epoch_naks, m1.stale_epoch_naks);
  EXPECT_EQ(m2.client_reads_served, m1.client_reads_served);
  (*server)->stop();
}

// ---- replica_serve_in_background (threaded path bugfixes) ------------------

TEST(ReplicaServeTest, BackgroundLoopServesConcurrentSessions) {
  // The historical loop served sessions one at a time, so a second
  // initiator hung behind the first's open connection.  Hold session A
  // open mid-exchange while session B does a full round trip.
  constexpr std::uint32_t kBs = 512;
  auto replica_disk = std::make_shared<MemDisk>(16, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto listener = TcpListener::listen(0);
  ASSERT_TRUE(listener.is_ok());
  const std::uint16_t port = (*listener)->port();
  auto shared_listener = std::shared_ptr<Listener>(std::move(*listener));
  std::thread server = replica_serve_in_background(replica, shared_listener);

  // Session A: connected and idle (a slow primary holding its link).
  auto idle = TcpTransport::connect("127.0.0.1", port);
  ASSERT_TRUE(idle.is_ok());
  const Bytes block(kBs, Byte{0x5c});
  ASSERT_TRUE(
      (*idle)->send(sync_block_message(0, 1, kBs, block).encode()).is_ok());
  ASSERT_TRUE(collect_acks(**idle, 1).is_ok());

  // Session B must complete while A stays open.
  auto busy = TcpTransport::connect("127.0.0.1", port);
  ASSERT_TRUE(busy.is_ok());
  ASSERT_TRUE(
      (*busy)->send(sync_block_message(1, 2, kBs, block).encode()).is_ok());
  ASSERT_TRUE(collect_acks(**busy, 1).is_ok());
  (*busy)->close();

  // A is still alive afterwards.
  ASSERT_TRUE(
      (*idle)->send(sync_block_message(2, 3, kBs, block).encode()).is_ok());
  ASSERT_TRUE(collect_acks(**idle, 1).is_ok());
  (*idle)->close();

  shared_listener->close();
  server.join();
  EXPECT_EQ(replica->metrics().sync_blocks, 3u);
}

TEST(ReplicaServeTest, AcceptLoopRetriesTransientFailures) {
  // A listener that bounces a few accepts (ECONNABORTED-style) must not
  // kill the serve loop; only kUnavailable (closed) ends it.
  class FlakyListener final : public Listener {
   public:
    FlakyListener(std::unique_ptr<Listener> inner, int failures)
        : inner_(std::move(inner)), failures_(failures) {}
    Result<std::unique_ptr<Transport>> accept() override {
      if (failures_-- > 0) return io_error("injected accept failure");
      return inner_->accept();
    }
    void close() override { inner_->close(); }

   private:
    std::unique_ptr<Listener> inner_;
    std::atomic<int> failures_;
  };

  constexpr std::uint32_t kBs = 512;
  auto replica_disk = std::make_shared<MemDisk>(8, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto inner = TcpListener::listen(0);
  ASSERT_TRUE(inner.is_ok());
  const std::uint16_t port = (*inner)->port();
  auto listener = std::make_shared<FlakyListener>(std::move(*inner), 5);
  std::thread server = replica_serve_in_background(replica, listener);

  auto link = TcpTransport::connect("127.0.0.1", port);
  ASSERT_TRUE(link.is_ok());
  const Bytes block(kBs, Byte{0x3d});
  ASSERT_TRUE(
      (*link)->send(sync_block_message(4, 9, kBs, block).encode()).is_ok());
  ASSERT_TRUE(collect_acks(**link, 1).is_ok());
  (*link)->close();

  listener->close();
  server.join();
  EXPECT_EQ(replica->metrics().sync_blocks, 1u);
}

// ---- ReactorIscsiServer ----------------------------------------------------

TEST(ReactorIscsiServerTest, TwoInitiatorsShareTheWorkerPool) {
  constexpr std::uint32_t kBs = 512;
  constexpr std::uint64_t kBlocks = 64;
  auto disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto target = std::make_shared<iscsi::IscsiTarget>(disk);
  auto pool = ReactorPool::create(2);
  ASSERT_TRUE(pool.is_ok());
  iscsi::ReactorIscsiServerOptions options;
  options.worker_threads = 2;
  auto server = iscsi::ReactorIscsiServer::start(target, *pool, options);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  auto run_initiator = [&](Lba base, std::uint64_t seed) {
    auto link = TcpTransport::connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(link.is_ok());
    auto initiator = iscsi::IscsiInitiator::login(std::move(*link));
    ASSERT_TRUE(initiator.is_ok()) << initiator.status().to_string();
    EXPECT_EQ((*initiator)->block_size(), kBs);
    Rng rng(seed);
    Bytes data(kBs), back(kBs);
    for (int i = 0; i < 40; ++i) {
      const Lba lba = base + rng.next_below(kBlocks / 2);
      rng.fill(data);
      ASSERT_TRUE((*initiator)->write(lba, data).is_ok());
      ASSERT_TRUE((*initiator)->read(lba, back).is_ok());
      ASSERT_EQ(data, back);
    }
    ASSERT_TRUE((*initiator)->ping().is_ok());
    ASSERT_TRUE((*initiator)->logout().is_ok());
  };

  std::thread a([&] { run_initiator(0, 5); });
  std::thread b([&] { run_initiator(kBlocks / 2, 6); });
  a.join();
  b.join();

  EXPECT_TRUE(await([&] { return (*server)->sessions() == 0; }, 5s));
  (*server)->stop();
}

// A MemDisk whose writes to one LBA park until open(): a device call held
// mid-PDU.
class GatedDisk final : public BlockDevice {
 public:
  GatedDisk(std::uint64_t blocks, std::uint32_t bs, Lba gated)
      : disk_(blocks, bs), gated_(gated) {}

  std::uint32_t block_size() const override { return disk_.block_size(); }
  std::uint64_t num_blocks() const override { return disk_.num_blocks(); }
  Status read(Lba lba, MutByteSpan out) override {
    return disk_.read(lba, out);
  }
  Status write(Lba lba, ByteSpan data) override {
    if (lba == gated_) {
      std::unique_lock lock(mutex_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    const Status s = disk_.write(lba, data);
    writes_.fetch_add(1);
    return s;
  }
  std::string describe() const override { return "gated"; }

  bool await_entered() {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, 10s, [this] { return entered_; });
  }
  void open() {
    std::lock_guard lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  std::size_t writes() const { return writes_.load(); }

 private:
  MemDisk disk_;
  const Lba gated_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool open_ = false;
  std::atomic<std::size_t> writes_{0};
};

Result<std::unique_ptr<iscsi::IscsiInitiator>> iscsi_login(
    std::uint16_t port) {
  PRINS_ASSIGN_OR_RETURN(auto link, TcpTransport::connect("127.0.0.1", port));
  return iscsi::IscsiInitiator::login(std::move(link));
}

TEST(ReactorIscsiServerTest, BlockedSessionDoesNotStallTheOtherLoop) {
  // Two session loops, two initiators placed round-robin: one per loop.
  // The first parks in the device mid-WRITE; the second keeps being served.
  constexpr std::uint32_t kBs = 512;
  constexpr Lba kGated = 7;
  auto disk = std::make_shared<GatedDisk>(64, kBs, kGated);
  auto target = std::make_shared<iscsi::IscsiTarget>(disk);
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  iscsi::ReactorIscsiServerOptions options;
  options.worker_threads = 2;
  auto server = iscsi::ReactorIscsiServer::start(target, *pool, options);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();

  auto held = iscsi_login((*server)->port());
  ASSERT_TRUE(held.is_ok()) << held.status().to_string();
  auto second = iscsi_login((*server)->port());
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();

  const Bytes block(kBs, Byte{0x6b});
  std::thread blocked([&] { EXPECT_TRUE((*held)->write(kGated, block).is_ok()); });
  ASSERT_TRUE(disk->await_entered());
  std::atomic<int> served{0};
  std::thread other([&] {
    Bytes back(kBs);
    for (Lba lba = 16; lba < 32; ++lba) {
      if (!(*second)->write(lba, block).is_ok() ||
          !(*second)->read(lba, back).is_ok() || back != block) {
        return;
      }
      served.fetch_add(1);
    }
  });
  EXPECT_TRUE(await([&] { return served.load() == 16; }));
  EXPECT_EQ(disk->writes(), 16u);  // the gated write is still parked
  disk->open();  // also frees `other` if it was stuck behind the gate
  blocked.join();
  other.join();
  EXPECT_EQ(disk->writes(), 17u);
  EXPECT_TRUE((*held)->logout().is_ok());
  EXPECT_TRUE((*second)->logout().is_ok());
  (*server)->stop();
}

TEST(ReactorIscsiServerTest, StopWaitsForTheHandlerInTheDevice) {
  constexpr std::uint32_t kBs = 512;
  constexpr Lba kGated = 3;
  auto disk = std::make_shared<GatedDisk>(16, kBs, kGated);
  auto target = std::make_shared<iscsi::IscsiTarget>(disk);
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto server = iscsi::ReactorIscsiServer::start(target, *pool);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  auto initiator = iscsi_login((*server)->port());
  ASSERT_TRUE(initiator.is_ok()) << initiator.status().to_string();

  // The reply may or may not make it out before stop() closes the
  // connection; only the server side is under test.
  const Bytes block(kBs, Byte{0x21});
  std::thread writer([&] { (void)(*initiator)->write(kGated, block); });
  ASSERT_TRUE(disk->await_entered());

  std::atomic<bool> stopped{false};
  std::size_t writes_at_stop = 0;
  std::uint64_t commands_at_stop = 0;
  std::thread stopper([&] {
    (*server)->stop();
    writes_at_stop = disk->writes();
    commands_at_stop = target->commands_served();
    stopped = true;
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(stopped.load());  // the handler is still in the device
  disk->open();
  stopper.join();
  writer.join();
  EXPECT_EQ(writes_at_stop, 1u);  // the handler finished before stop returned
  EXPECT_EQ((*server)->sessions(), 0u);
  EXPECT_FALSE((*initiator)->ping().is_ok());  // the session is gone
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(disk->writes(), writes_at_stop);
  EXPECT_EQ(target->commands_served(), commands_at_stop);
}

TEST(ReactorIscsiServerTest, PipelinedBurstIsAnsweredInOrderUnderBackpressure) {
  // The initiator sends a burst of pings far larger than every buffer on
  // the path before it reads a single reply.  The server handles PDUs in
  // order and, once its outbox is over the limit, stops reading: the rest
  // of the burst waits in the initiator's send() until replies are read.
  constexpr std::size_t kBurst = 2048;
  constexpr std::size_t kPayload = 4096;
  ReactorTcpOptions small;
  small.outbox_limit_bytes = 64 * 1024;
  small.inbox_capacity = 4;
  // Socket buffers well above the loopback MSS (64 KiB): smaller ones
  // stall on zero-window probes.
  small.sndbuf_bytes = 256 * 1024;
  small.rcvbuf_bytes = 256 * 1024;
  auto target = std::make_shared<iscsi::IscsiTarget>(
      std::make_shared<MemDisk>(16, 512));
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  iscsi::ReactorIscsiServerOptions options;
  options.transport = small;
  auto server = iscsi::ReactorIscsiServer::start(target, *pool, options);
  ASSERT_TRUE(server.is_ok()) << server.status().to_string();
  auto client_loop = Reactor::create();
  ASSERT_TRUE(client_loop.is_ok());
  auto link = ReactorTcpTransport::connect(*client_loop, "127.0.0.1",
                                           (*server)->port(), small);
  ASSERT_TRUE(link.is_ok()) << link.status().to_string();
  Transport& t = **link;

  iscsi::Pdu login;
  login.opcode = iscsi::Opcode::kLoginRequest;
  login.immediate = true;
  login.flags = static_cast<std::uint8_t>(iscsi::kLoginTransit |
                                          (iscsi::kStageOperational << 2) |
                                          iscsi::kStageFullFeature);
  login.itt = 1;
  login.data = iscsi::encode_login_kv({{"InitiatorName", "iqn.test:burst"}});
  ASSERT_TRUE(t.send(login.encode()).is_ok());
  auto login_reply = t.recv_for(10s);
  ASSERT_TRUE(login_reply.is_ok()) << login_reply.status().to_string();

  auto payload_of = [](std::size_t i) {
    Bytes payload(kPayload);
    Rng(i).fill(payload);
    return payload;
  };
  std::atomic<std::size_t> sent{0};
  std::thread burst([&] {
    for (std::size_t i = 0; i < kBurst; ++i) {
      iscsi::Pdu ping;
      ping.opcode = iscsi::Opcode::kNopOut;
      ping.immediate = true;
      ping.flags = iscsi::kFlagFinal;
      ping.itt = static_cast<std::uint32_t>(100 + i);
      ping.word5 = 0xFFFFFFFFu;
      ping.data = payload_of(i);
      if (!t.send(ping.encode()).is_ok()) return;
      sent.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(200ms);
  EXPECT_LT(sent.load(), kBurst);  // held back: nobody reads the replies
  for (std::size_t i = 0; i < kBurst; ++i) {
    auto wire = t.recv_for(10s);
    ASSERT_TRUE(wire.is_ok()) << i << ": " << wire.status().to_string();
    auto reply = iscsi::Pdu::decode(*wire);
    ASSERT_TRUE(reply.is_ok()) << i;
    ASSERT_EQ(reply->opcode, iscsi::Opcode::kNopIn) << i;
    ASSERT_EQ(reply->itt, 100 + i);
    ASSERT_EQ(reply->data, payload_of(i)) << i;
  }
  burst.join();
  EXPECT_EQ(sent.load(), kBurst);
  t.close();
  (*server)->stop();
}

TEST(ReactorIscsiServerTest, StopReleasesTheTargetSoTeardownStaysQuiet) {
  // remote_mirroring's teardown order with the thread-free node: stop the
  // iSCSI server, drop the engine, stop the replica server.  A server that
  // kept its target (and so the engine) past stop() let the replica's
  // close reach a live engine, which logged a replication failure.
  constexpr std::uint32_t kBs = 512;
  constexpr std::uint64_t kBlocks = 32;
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto replica_server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(replica_server.is_ok());
  EngineConfig config;
  config.reactor = (*pool)->at(0).shared_from_this();
  config.reactor_senders = true;
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_shared<PrinsEngine>(primary, config);
  auto link = ReactorTcpTransport::connect(config.reactor, "127.0.0.1",
                                           (*replica_server)->port());
  ASSERT_TRUE(link.is_ok());
  engine->add_replica(std::move(*link));
  auto target = std::make_shared<iscsi::IscsiTarget>(engine);
  auto server = iscsi::ReactorIscsiServer::start(target, *pool);
  ASSERT_TRUE(server.is_ok());

  auto initiator = iscsi_login((*server)->port());
  ASSERT_TRUE(initiator.is_ok()) << initiator.status().to_string();
  const Bytes block(kBs, Byte{0x5c});
  for (Lba lba = 0; lba < 8; ++lba) {
    ASSERT_TRUE((*initiator)->write(lba, block).is_ok());
  }
  ASSERT_TRUE((*initiator)->flush().is_ok());
  ASSERT_TRUE((*initiator)->logout().is_ok());

  std::weak_ptr<PrinsEngine> engine_alive = engine;
  testing::internal::CaptureStderr();
  (*server)->stop();
  target.reset();
  engine.reset();
  const bool engine_gone = engine_alive.expired();
  (*replica_server)->stop();
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(engine_gone);  // the server object still exists
  EXPECT_EQ(log.find("replication failed"), std::string::npos) << log;
  Bytes want(kBs), got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, want).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(want, got) << "lba " << lba;
  }
}

// ---- reactor-driven engine senders -----------------------------------------

TEST(ReactorSenderTest, WritesConvergeWithoutSenderThreads) {
  // Primary and replica both thread-free: ReactorTcpTransport links driven
  // by outbox state machines into a ReactorReplicaServer.
  constexpr std::uint32_t kBs = 1024;
  constexpr std::uint64_t kBlocks = 64;
  ReplicaConfig rconfig;
  rconfig.apply_shards = 4;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto pool = ReactorPool::create(2);
  ASSERT_TRUE(pool.is_ok());
  auto server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(server.is_ok());

  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  EngineConfig config;
  config.reactor = *reactor;
  config.reactor_senders = true;
  config.retry.op_timeout = 2s;
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  {
    auto link = ReactorTcpTransport::connect(
        *reactor, "127.0.0.1", (*server)->port());
    ASSERT_TRUE(link.is_ok()) << link.status().to_string();
    engine->add_replica(std::move(*link));
  }

  Rng rng(41);
  Bytes block(kBs);
  for (int i = 0; i < 500; ++i) {
    rng.fill(block);
    ASSERT_TRUE(engine->write(rng.next_below(kBlocks), block).is_ok());
    if (i == 250) ASSERT_TRUE(engine->drain().is_ok());  // mid-stream drain
  }
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_GT(engine->metrics().acks, 0u);

  Bytes want(kBs), got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, want).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(want, got) << "diverged at lba " << lba;
  }
  engine.reset();  // must cancel its wheel timers and pumps cleanly
  EXPECT_TRUE(await([&] { return (*reactor)->pending_timers() == 0; }, 2s));
  (*server)->stop();
}

TEST(ReactorSenderTest, HealsAfterHardConnectionCut) {
  // The reactor senders never reconnect in-round: a cut degrades the link
  // and the self-heal path (trap-log fold over a fresh transport from the
  // reconnect factory) catches the replica up.
  constexpr std::uint32_t kBs = 1024;
  constexpr std::uint64_t kBlocks = 64;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk);
  auto inner = TcpListener::listen(0);
  ASSERT_TRUE(inner.is_ok());
  const std::uint16_t port = (*inner)->port();
  // The server end of the FIRST link hard-cuts after 60 sends; later
  // accepted links (the heal's reconnects) inherit higher seeds but the
  // same schedule, so keep the cut one-shot per link and the write count
  // past it.
  FaultConfig cut;
  cut.disconnect_after = 60;
  auto listener = std::shared_ptr<Listener>(
      std::make_unique<FaultyListener>(std::move(*inner), cut));
  std::thread server = replica_serve_in_background(replica, listener);

  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  EngineConfig config;
  config.keep_trap_log = true;
  config.retry.base_backoff = 1ms;
  config.retry.max_backoff = 10ms;
  config.retry.op_timeout = 2s;
  config.reactor = *reactor;
  config.reactor_senders = true;
  config.reconnect = [&](std::size_t) -> Result<std::unique_ptr<Transport>> {
    auto fresh = ReactorTcpTransport::connect(
        *reactor, "127.0.0.1", port);
    if (!fresh.is_ok()) return fresh.status();
    return std::unique_ptr<Transport>(std::move(*fresh));
  };
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  {
    auto link = ReactorTcpTransport::connect(
        *reactor, "127.0.0.1", port);
    ASSERT_TRUE(link.is_ok());
    engine->add_replica(std::move(*link));
  }

  Rng rng(43);
  Bytes block(kBs);
  for (int i = 0; i < 400; ++i) {
    rng.fill(block);
    ASSERT_TRUE(engine->write(rng.next_below(kBlocks), block).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());
  EXPECT_GE(engine->metrics().reconnects, 1u);
  EXPECT_GE(engine->metrics().auto_resyncs, 1u);

  Bytes want(kBs), got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, want).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(want, got) << "diverged at lba " << lba;
  }
  engine.reset();
  listener->close();
  server.join();
}

TEST(ReactorSenderTest, VerifyAndRepairParksTheSenderExclusively) {
  // Operator paths (verify/repair) do blocking send/recv exchanges on the
  // link: with reactor senders they must park the state machine, own the
  // transport, and hand it back — after which normal replication resumes.
  constexpr std::uint32_t kBs = 1024;
  constexpr std::uint64_t kBlocks = 32;
  ReplicaConfig rconfig;
  rconfig.apply_shards = 2;
  auto replica_disk = std::make_shared<MemDisk>(kBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(replica_disk, rconfig);
  auto pool = ReactorPool::create(1);
  ASSERT_TRUE(pool.is_ok());
  auto server = ReactorReplicaServer::start(replica, *pool);
  ASSERT_TRUE(server.is_ok());

  auto reactor = Reactor::create();
  ASSERT_TRUE(reactor.is_ok());
  EngineConfig config;
  config.reactor = *reactor;
  config.reactor_senders = true;
  config.retry.op_timeout = 2s;
  auto primary = std::make_shared<MemDisk>(kBlocks, kBs);
  auto engine = std::make_unique<PrinsEngine>(primary, config);
  {
    auto link = ReactorTcpTransport::connect(
        *reactor, "127.0.0.1", (*server)->port());
    ASSERT_TRUE(link.is_ok());
    engine->add_replica(std::move(*link));
  }

  Rng rng(47);
  Bytes block(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    rng.fill(block);
    ASSERT_TRUE(engine->write(lba, block).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());

  // Silently corrupt two replica blocks behind the engine's back.
  const Bytes junk(kBs, Byte{0xEE});
  ASSERT_TRUE(replica_disk->write(5, junk).is_ok());
  ASSERT_TRUE(replica_disk->write(17, junk).is_ok());
  auto repaired = engine->verify_and_repair(0, kBlocks);
  ASSERT_TRUE(repaired.is_ok()) << repaired.status().to_string();
  EXPECT_EQ(*repaired, 2u);

  // The sender machine is re-armed: replication still works.
  for (int i = 0; i < 50; ++i) {
    rng.fill(block);
    ASSERT_TRUE(engine->write(rng.next_below(kBlocks), block).is_ok());
  }
  ASSERT_TRUE(engine->drain().is_ok());
  Bytes want(kBs), got(kBs);
  for (Lba lba = 0; lba < kBlocks; ++lba) {
    ASSERT_TRUE(primary->read(lba, want).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(want, got) << "diverged at lba " << lba;
  }
  engine.reset();
  (*server)->stop();
}

// ---- one round machine, two drivers ----------------------------------------

// Sanitizer instrumentation slows the reply path ~10x; stretch the reply
// deadline so only the injected faults, never the scheduler, are in play.
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

enum class SenderDriver { kThreaded, kReactor };

const char* driver_name(SenderDriver driver) {
  return driver == SenderDriver::kThreaded ? "Threaded" : "Reactor";
}

// One primary engine and one replica, linked through either sender driver:
// threaded over an in-proc link served by replica_serve_in_background, or
// reactor-driven over a ReactorTcpTransport into a ReactorReplicaServer.
// `faults` wraps the primary's end of the link.
struct DriverRig {
  static constexpr std::uint32_t kBs = 1024;
  static constexpr std::uint64_t kBlocks = 64;

  std::shared_ptr<MemDisk> primary = std::make_shared<MemDisk>(kBlocks, kBs);
  std::shared_ptr<ReplicaEngine> replica;
  InprocNetwork network;
  std::shared_ptr<Listener> listener;
  std::thread server;
  std::shared_ptr<ReactorPool> pool;
  std::unique_ptr<ReactorReplicaServer> reactor_server;
  std::shared_ptr<Reactor> reactor;
  std::unique_ptr<PrinsEngine> engine;

  DriverRig(SenderDriver driver, std::shared_ptr<BlockDevice> replica_disk,
            EngineConfig config, FaultConfig faults) {
    replica = std::make_shared<ReplicaEngine>(std::move(replica_disk));
    if (config.retry.op_timeout.count() == 0) {
      config.retry.op_timeout = std::chrono::milliseconds(2000 * kTimingScale);
    }
    std::unique_ptr<Transport> link;
    if (driver == SenderDriver::kThreaded) {
      auto listening = network.listen("replica");
      EXPECT_TRUE(listening.is_ok());
      listener = std::shared_ptr<Listener>(std::move(*listening));
      server = replica_serve_in_background(replica, listener);
      auto raw = network.connect("replica");
      EXPECT_TRUE(raw.is_ok());
      link = std::move(*raw);
    } else {
      auto created = ReactorPool::create(1);
      EXPECT_TRUE(created.is_ok());
      pool = *created;
      auto started = ReactorReplicaServer::start(replica, pool);
      EXPECT_TRUE(started.is_ok());
      reactor_server = std::move(*started);
      auto loop = Reactor::create();
      EXPECT_TRUE(loop.is_ok());
      reactor = *loop;
      config.reactor = reactor;
      config.reactor_senders = true;
      auto raw = ReactorTcpTransport::connect(reactor, "127.0.0.1",
                                              reactor_server->port());
      EXPECT_TRUE(raw.is_ok());
      link = std::move(*raw);
    }
    engine = std::make_unique<PrinsEngine>(primary, config);
    engine->add_replica(
        std::make_unique<FaultyTransport>(std::move(link), faults));
  }

  DriverRig(const DriverRig&) = delete;
  DriverRig& operator=(const DriverRig&) = delete;

  ~DriverRig() {
    engine.reset();
    if (listener != nullptr) listener->close();
    if (server.joinable()) server.join();
    if (reactor_server != nullptr) reactor_server->stop();
  }
};

struct DuplicateCase {
  SenderDriver driver;
  double duplicate_p;
  std::size_t depth;
  std::uint64_t seed;
};

void PrintTo(const DuplicateCase& c, std::ostream* os) {
  *os << driver_name(c.driver) << " duplicate_p=" << c.duplicate_p
      << " depth=" << c.depth << " seed=" << c.seed;
}

class SenderDriverTest : public ::testing::TestWithParam<DuplicateCase> {};

TEST_P(SenderDriverTest, DuplicatedAcksNeitherRetryNorConfuseOperators) {
  // Duplicated deliveries leave stale ACKs behind: the second answer to an
  // entry of this round, or answers to an earlier round.  Neither may count
  // toward a round's coverage (that retransmits early, and on the threaded
  // driver snowballs into a sticky "replies incomplete" failure),
  // and neither may be read as the answer to an operator exchange.
  const DuplicateCase& p = GetParam();
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.pipeline_depth = p.depth;
  FaultConfig faults;
  faults.duplicate_p = p.duplicate_p;
  faults.seed = p.seed;
  auto replica_disk =
      std::make_shared<MemDisk>(DriverRig::kBlocks, DriverRig::kBs);
  DriverRig rig(p.driver, replica_disk, config, faults);

  Rng rng(p.seed);
  Bytes block(DriverRig::kBs);
  for (int i = 0; i < 200; ++i) {
    rng.fill(block);
    ASSERT_TRUE(
        rig.engine->write(rng.next_below(DriverRig::kBlocks), block).is_ok());
  }
  const Status drained = rig.engine->drain();
  ASSERT_TRUE(drained.is_ok()) << drained.to_string();
  auto repaired = rig.engine->verify_and_repair(0, DriverRig::kBlocks);
  ASSERT_TRUE(repaired.is_ok()) << repaired.status().to_string();
  EXPECT_EQ(*repaired, 0u);
  Bytes want(DriverRig::kBs), got(DriverRig::kBs);
  for (Lba lba = 0; lba < DriverRig::kBlocks; ++lba) {
    ASSERT_TRUE(rig.primary->read(lba, want).is_ok());
    ASSERT_TRUE(replica_disk->read(lba, got).is_ok());
    ASSERT_EQ(want, got) << "diverged at lba " << lba;
  }
  EXPECT_EQ(rig.engine->metrics().retries, 0u);
}

std::vector<DuplicateCase> duplicate_cases() {
  std::vector<DuplicateCase> cases;
  for (SenderDriver driver :
       {SenderDriver::kThreaded, SenderDriver::kReactor}) {
    for (double duplicate_p : {0.01, 0.05}) {
      for (std::size_t depth : {1, 8}) {
        for (std::uint64_t s = 0; s < 10; ++s) {
          cases.push_back(DuplicateCase{driver, duplicate_p, depth, 1000 + s});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, SenderDriverTest, ::testing::ValuesIn(duplicate_cases()),
    [](const ::testing::TestParamInfo<DuplicateCase>& info) {
      return std::string(driver_name(info.param.driver)) + "Dup" +
             std::to_string(static_cast<int>(info.param.duplicate_p * 100)) +
             "Depth" + std::to_string(info.param.depth) + "Seed" +
             std::to_string(info.param.seed);
    });

// What one scripted stream did to the engine and its replica.
struct DriverOutcome {
  ErrorCode rotted_drain = ErrorCode::kOk;
  ErrorCode fenced_drain = ErrorCode::kOk;
  ErrorCode write_after_fence = ErrorCode::kOk;
  std::uint64_t nak_full_repairs = 0;
  std::uint64_t stale_epoch_naks = 0;
  std::uint64_t retries = 0;
  std::uint64_t acks = 0;
  std::vector<Bytes> replica_blocks;
};

DriverOutcome run_driver_stream(SenderDriver driver) {
  DriverOutcome out;
  auto replica_mem =
      std::make_shared<MemDisk>(DriverRig::kBlocks, DriverRig::kBs);
  auto replica_faulty =
      std::make_shared<FaultyDisk>(replica_mem, FaultyDisk::Config{});
  auto opened = IntegrityDisk::open(replica_faulty);
  EXPECT_TRUE(opened.is_ok());
  std::shared_ptr<IntegrityDisk> replica_disk = std::move(*opened);
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.keep_trap_log = true;  // lets a kNeedFullBlock NAK become a repair
  config.pipeline_depth = 4;
  DriverRig rig(driver, replica_disk, config, FaultConfig{});

  Rng rng(77);
  Bytes block(DriverRig::kBs);
  for (Lba lba = 0; lba < DriverRig::kBlocks; ++lba) {
    rng.fill(block);
    EXPECT_TRUE(rig.engine->write(lba, block).is_ok());
  }
  EXPECT_TRUE(rig.engine->drain().is_ok());

  // Rot the replica's stored copy of block 7: the next parity delta cannot
  // apply there (kNeedFullBlock NAK) and is resent as a full-block repair.
  EXPECT_TRUE(replica_faulty->corrupt_block(7, 42).is_ok());
  rng.fill(block);
  EXPECT_TRUE(rig.engine->write(7, block).is_ok());
  out.rotted_drain = rig.engine->drain().code();

  // The replica is promoted: this engine is now a zombie, fenced on its
  // next frame, and the failure sticks.
  auto successor = rig.replica->promote(EngineConfig{});
  EXPECT_TRUE(successor.is_ok()) << successor.status().to_string();
  rng.fill(block);
  EXPECT_TRUE(rig.engine->write(3, block).is_ok());
  out.fenced_drain = rig.engine->drain().code();
  out.write_after_fence = rig.engine->write(4, block).code();

  const EngineMetrics m = rig.engine->metrics();
  out.nak_full_repairs = m.nak_full_repairs;
  out.stale_epoch_naks = m.stale_epoch_naks;
  out.retries = m.retries;
  out.acks = m.acks;
  for (Lba lba = 0; lba < DriverRig::kBlocks; ++lba) {
    Bytes stored(DriverRig::kBs);
    EXPECT_TRUE(replica_mem->read(lba, stored).is_ok());
    out.replica_blocks.push_back(std::move(stored));
  }
  return out;
}

TEST(SenderDriverParityTest, BothDriversSettleOneStreamAlike) {
  // The same frames through both drivers — clean writes, a NAK'd delta
  // turned full-block repair, then a stale-epoch fence — must end alike:
  // same statuses, same counters, same replica bytes.
  const DriverOutcome threaded = run_driver_stream(SenderDriver::kThreaded);
  const DriverOutcome reactor = run_driver_stream(SenderDriver::kReactor);
  for (const DriverOutcome* o : {&threaded, &reactor}) {
    EXPECT_EQ(o->rotted_drain, ErrorCode::kOk);
    EXPECT_EQ(o->fenced_drain, ErrorCode::kFailedPrecondition);
    EXPECT_EQ(o->write_after_fence, ErrorCode::kFailedPrecondition);
    EXPECT_EQ(o->nak_full_repairs, 1u);
    EXPECT_EQ(o->stale_epoch_naks, 1u);
    // The NAK'd round retransmits at least once (again if the writer still
    // held the block's stripe when the NAK arrived and the swap waited).
    EXPECT_GE(o->retries, 1u);
    EXPECT_EQ(o->acks, DriverRig::kBlocks + 1);
  }
  EXPECT_EQ(reactor.replica_blocks, threaded.replica_blocks);
}

bool devices_equal(BlockDevice& a, BlockDevice& b) {
  Bytes x(a.block_size()), y(b.block_size());
  for (Lba lba = 0; lba < a.num_blocks(); ++lba) {
    if (!a.read(lba, x).is_ok() || !b.read(lba, y).is_ok() || x != y) {
      return false;
    }
  }
  return true;
}

class SenderDriverLossTest
    : public ::testing::TestWithParam<std::tuple<SenderDriver, std::uint64_t>> {
};

TEST_P(SenderDriverLossTest, DropsAndDuplicatesConvergeAndOperatorsSkipStale) {
  // Drops force timeouts and retransmits; duplicates leave second answers
  // behind.  Every resend of a round entry can come back twice, so the
  // link can carry many stale frames when verify_and_repair starts: its
  // exchanges must skip them all (until op_timeout) and find their own.
  const auto [driver, seed] = GetParam();
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.pipeline_depth = 8;
  config.retry.max_attempts = 8;
  config.retry.base_backoff = 1ms;
  config.retry.max_backoff = 20ms;
  config.retry.op_timeout = std::chrono::milliseconds(50 * kTimingScale);
  FaultConfig faults;
  faults.drop_p = 0.05;
  faults.duplicate_p = 0.05;
  faults.seed = seed;
  auto replica_disk =
      std::make_shared<MemDisk>(DriverRig::kBlocks, DriverRig::kBs);
  DriverRig rig(driver, replica_disk, config, faults);

  Rng rng(seed);
  Bytes block(DriverRig::kBs);
  for (int i = 0; i < 200; ++i) {
    rng.fill(block);
    ASSERT_TRUE(
        rig.engine->write(rng.next_below(DriverRig::kBlocks), block).is_ok());
  }
  const Status drained = rig.engine->drain();
  ASSERT_TRUE(drained.is_ok()) << drained.to_string();
  EXPECT_GT(rig.engine->metrics().retries, 0u);  // the drops were felt
  // One pass, no retry by the caller: the operator exchange resends on
  // timeout by itself and finds nothing to repair.
  auto repaired = rig.engine->verify_and_repair(0, DriverRig::kBlocks);
  ASSERT_TRUE(repaired.is_ok()) << repaired.status().to_string();
  EXPECT_EQ(*repaired, 0u);
  EXPECT_TRUE(devices_equal(*rig.primary, *replica_disk));
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, SenderDriverLossTest,
    ::testing::Combine(::testing::Values(SenderDriver::kThreaded,
                                         SenderDriver::kReactor),
                       ::testing::Values(2000u, 2001u, 2002u)),
    [](const auto& info) {
      return std::string(driver_name(std::get<0>(info.param))) + "Seed" +
             std::to_string(std::get<1>(info.param));
    });

class SenderDriverOperatorLossTest
    : public ::testing::TestWithParam<std::tuple<SenderDriver, std::uint64_t>> {
};

TEST_P(SenderDriverOperatorLossTest, VerifyAndRepairResendsOnItsOwn) {
  // One verify_and_repair call with no retry by the caller: the checksum
  // request and every repair it sends resend on timeout by themselves, and
  // a repair whose ACK was dropped is re-ACKed, not re-applied.
  const auto [driver, seed] = GetParam();
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.pipeline_depth = 8;
  config.retry.max_attempts = 8;
  config.retry.base_backoff = 1ms;
  config.retry.max_backoff = 20ms;
  config.retry.op_timeout = std::chrono::milliseconds(50 * kTimingScale);
  FaultConfig faults;
  faults.drop_p = 0.05;
  faults.seed = seed;
  auto replica_disk =
      std::make_shared<MemDisk>(DriverRig::kBlocks, DriverRig::kBs);
  DriverRig rig(driver, replica_disk, config, faults);

  Rng rng(seed);
  Bytes block(DriverRig::kBs);
  for (int i = 0; i < 100; ++i) {
    rng.fill(block);
    ASSERT_TRUE(
        rig.engine->write(rng.next_below(DriverRig::kBlocks), block).is_ok());
  }
  const Status drained = rig.engine->drain();
  ASSERT_TRUE(drained.is_ok()) << drained.to_string();
  // Rot every third mirror block behind the engine's back: one checksum
  // exchange plus one repair exchange per rotten block.
  std::uint64_t rotten = 0;
  for (Lba lba = 0; lba < DriverRig::kBlocks; lba += 3) {
    rng.fill(block);
    ASSERT_TRUE(replica_disk->write(lba, block).is_ok());
    ++rotten;
  }
  auto repaired = rig.engine->verify_and_repair(0, DriverRig::kBlocks);
  ASSERT_TRUE(repaired.is_ok()) << repaired.status().to_string();
  EXPECT_EQ(*repaired, rotten);
  EXPECT_TRUE(devices_equal(*rig.primary, *replica_disk));
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, SenderDriverOperatorLossTest,
    ::testing::Combine(::testing::Values(SenderDriver::kThreaded,
                                         SenderDriver::kReactor),
                       ::testing::Values(2000u, 2001u, 2002u)),
    [](const auto& info) {
      return std::string(driver_name(std::get<0>(info.param))) + "Seed" +
             std::to_string(std::get<1>(info.param));
    });

// A threaded link whose every frame is dropped, with retry and heal
// backoffs far longer than any test bound: only a stop or a reattach can
// end its waits early.  The reply deadline also governs the healthy link a
// reattach brings in, so it leaves room for a loaded scheduler: at 20 ms a
// late reply on that link degraded it again and parked drain() in the
// 60 s heal backoff.
EngineConfig dead_link_config() {
  EngineConfig config;
  config.policy = ReplicationPolicy::kPrins;
  config.retry.op_timeout = std::chrono::milliseconds(250 * kTimingScale);
  config.retry.base_backoff = 60s;
  config.retry.max_backoff = 60s;
  return config;
}

FaultConfig drop_everything() {
  FaultConfig faults;
  faults.drop_p = 1.0;
  return faults;
}

// Degrade a threaded link: its one round fails at once (max_attempts 0),
// and the heal's reconnect fails, so the sender parks in heal_when_due
// for the 60 s heal backoff.  Returns once the heal has failed.
void park_in_heal_wait(DriverRig& rig, const std::atomic<int>& reconnects) {
  Bytes block(DriverRig::kBs, 0x5a);
  ASSERT_TRUE(rig.engine->write(1, block).is_ok());
  ASSERT_TRUE(await([&] { return reconnects.load() >= 1; }));
  // heal_failed() sets the heal deadline just after the factory returns.
  std::this_thread::sleep_for(50ms);
}

EngineConfig healing_dead_link_config(std::atomic<int>& reconnects) {
  EngineConfig config = dead_link_config();
  config.keep_trap_log = true;
  config.retry.max_attempts = 0;
  config.reconnect =
      [&reconnects](std::size_t) -> Result<std::unique_ptr<Transport>> {
    reconnects.fetch_add(1);
    return unavailable("replica unreachable");
  };
  return config;
}

TEST(SenderDriverStopTest, DestructorCutsAThreadedRetryBackoffShort) {
  auto replica_disk =
      std::make_shared<MemDisk>(DriverRig::kBlocks, DriverRig::kBs);
  DriverRig rig(SenderDriver::kThreaded, replica_disk, dead_link_config(),
                drop_everything());
  Bytes block(DriverRig::kBs, 0x11);
  ASSERT_TRUE(rig.engine->write(0, block).is_ok());
  // The first attempt timed out: the round now sleeps a 60 s backoff.
  ASSERT_TRUE(await([&] { return rig.engine->metrics().retries >= 1; }));
  const auto start = std::chrono::steady_clock::now();
  rig.engine.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
}

TEST(SenderDriverStopTest, DestructorDoesNotReportTheRoundItCuts) {
  // Teardown fails the open round itself (and closes the engine's own
  // links): that must not surface as a replication failure.
  for (SenderDriver driver : {SenderDriver::kThreaded, SenderDriver::kReactor}) {
    auto replica_disk =
        std::make_shared<MemDisk>(DriverRig::kBlocks, DriverRig::kBs);
    DriverRig rig(driver, replica_disk, dead_link_config(), drop_everything());
    Bytes block(DriverRig::kBs, 0x13);
    ASSERT_TRUE(rig.engine->write(0, block).is_ok());
    ASSERT_TRUE(await([&] { return rig.engine->metrics().retries >= 1; }))
        << driver_name(driver);
    testing::internal::CaptureStderr();
    rig.engine.reset();
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_EQ(log.find("replication failed"), std::string::npos)
        << driver_name(driver) << ": " << log;
  }
}

TEST(SenderDriverStopTest, DestructorCutsAThreadedHealWaitShort) {
  std::atomic<int> reconnects{0};
  auto replica_disk =
      std::make_shared<MemDisk>(DriverRig::kBlocks, DriverRig::kBs);
  DriverRig rig(SenderDriver::kThreaded, replica_disk,
                healing_dead_link_config(reconnects), drop_everything());
  park_in_heal_wait(rig, reconnects);
  const auto start = std::chrono::steady_clock::now();
  rig.engine.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
}

TEST(SenderDriverStopTest, ReattachCutsAThreadedHealWaitShort) {
  std::atomic<int> reconnects{0};
  auto replica_disk =
      std::make_shared<MemDisk>(DriverRig::kBlocks, DriverRig::kBs);
  DriverRig rig(SenderDriver::kThreaded, replica_disk,
                healing_dead_link_config(reconnects), drop_everything());
  park_in_heal_wait(rig, reconnects);
  // A write while degraded is held for the heal.
  Bytes block(DriverRig::kBs, 0x22);
  ASSERT_TRUE(rig.engine->write(2, block).is_ok());

  const auto start = std::chrono::steady_clock::now();
  auto fresh = rig.network.connect("replica");
  ASSERT_TRUE(fresh.is_ok());
  ASSERT_TRUE(rig.engine->reattach_replica(0, std::move(*fresh)).is_ok());
  const Status drained = rig.engine->drain();
  ASSERT_TRUE(drained.is_ok()) << drained.to_string();
  EXPECT_LT(std::chrono::steady_clock::now() - start, 10s);
  // The held write went out on the fresh link; the one the failed round
  // dropped comes back through the operator repair reattach asks for.
  auto repaired = rig.engine->verify_and_repair(0, DriverRig::kBlocks);
  ASSERT_TRUE(repaired.is_ok()) << repaired.status().to_string();
  EXPECT_EQ(*repaired, 1u);
  EXPECT_TRUE(devices_equal(*rig.primary, *replica_disk));
}

TEST(SenderDriverStopTest, ReattachDuringAThreadedRetryBackoffTakesOver) {
  // The threaded driver holds the link mutex for the whole round, so a
  // reattach waits for the round to run out its attempts, then swaps the
  // transport; the link must come back, not hang or stay failed.
  EngineConfig config = dead_link_config();
  config.retry.base_backoff = std::chrono::milliseconds(50 * kTimingScale);
  config.retry.max_backoff = config.retry.base_backoff;
  config.retry.max_attempts = 2;
  auto replica_disk =
      std::make_shared<MemDisk>(DriverRig::kBlocks, DriverRig::kBs);
  DriverRig rig(SenderDriver::kThreaded, replica_disk, config,
                drop_everything());
  Bytes block(DriverRig::kBs, 0x33);
  ASSERT_TRUE(rig.engine->write(3, block).is_ok());
  ASSERT_TRUE(await([&] { return rig.engine->metrics().retries >= 1; }));

  auto fresh = rig.network.connect("replica");
  ASSERT_TRUE(fresh.is_ok());
  ASSERT_TRUE(rig.engine->reattach_replica(0, std::move(*fresh)).is_ok());
  ASSERT_TRUE(rig.engine->drain().is_ok());
  ASSERT_TRUE(rig.engine->write(4, block).is_ok());
  ASSERT_TRUE(rig.engine->drain().is_ok());
  auto repaired = rig.engine->verify_and_repair(0, DriverRig::kBlocks);
  ASSERT_TRUE(repaired.is_ok()) << repaired.status().to_string();
  EXPECT_EQ(*repaired, 1u);  // the write the failed round dropped
  EXPECT_TRUE(devices_equal(*rig.primary, *replica_disk));
}

// ---- PRINS_* env knob validation -------------------------------------------

TEST(EnvParseTest, ParseEnvSizeContract) {
  constexpr const char* kKnob = "PRINS_TEST_KNOB_XYZZY";  // never a real knob
  const auto with = [&](const char* value) {
    ::setenv(kKnob, value, 1);
    return parse_env_size(kKnob, 1, 64);
  };
  ::unsetenv(kKnob);
  EXPECT_EQ(parse_env_size(kKnob, 1, 64), std::nullopt);  // unset -> default
  EXPECT_EQ(with("8"), std::optional<std::size_t>(8));
  EXPECT_EQ(with("1"), std::optional<std::size_t>(1));
  EXPECT_EQ(with("64"), std::optional<std::size_t>(64));
  EXPECT_EQ(with("100"), std::optional<std::size_t>(64));  // explicit clamp
  EXPECT_EQ(with("0"), std::nullopt);      // below min: fall back, warn
  EXPECT_EQ(with("-4"), std::nullopt);     // must NOT wrap to 2^64-4
  EXPECT_EQ(with("3x"), std::nullopt);     // trailing garbage
  EXPECT_EQ(with(""), std::nullopt);
  EXPECT_EQ(with("nonsense"), std::nullopt);
  EXPECT_EQ(with("99999999999999999999999999"), std::nullopt);  // overflow
  ::unsetenv(kKnob);
}

}  // namespace
}  // namespace prins
