// Replica-side apply throughput across the pipelined serve() path.
//
// A feeder streams pre-encoded kWrite frames (PRINS-rle parity deltas over
// a hot LBA set) into ReplicaEngine::serve() over an in-process transport
// and counts covered acks (kAck = 1, kAckBatch = sum of its ranges) until
// every write is retired.  Cells sweep ReplicaConfig::apply_shards over
// 1 / 4 / hardware threads with the intent log on a real file, so the
// numbers capture the three effects the pipeline stacks:
//
//   - LBA-striped workers: independent blocks decode/XOR/write in parallel
//   - intent-log group commit: N workers share one fdatasync per batch
//     (fsyncs-per-apply < 1 is the amortization the bench asserts)
//   - old-block apply cache: the read-modify-write A_old read of a hot LBA
//     is a memcpy after the first touch (hit rate reported)
//
// Results land in BENCH_replica_apply.json; --quick shrinks the write
// count so the binary doubles as a ctest smoke test.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "block/mem_disk.h"
#include "codec/codec.h"
#include "common/rng.h"
#include "net/inproc.h"
#include "prins/intent_log.h"
#include "prins/message.h"
#include "prins/replica.h"

namespace {

using namespace prins;

constexpr std::uint32_t kBs = 4096;
constexpr std::uint64_t kDeviceBlocks = 4096;
constexpr std::uint64_t kHotBlocks = 512;   // working set the writes revisit
constexpr std::size_t kDeltaTemplates = 64;

struct Cell {
  std::size_t shards = 0;
  double applies_per_sec = 0;
  double fsyncs_per_apply = 0;
  double ack_batch_avg = 0;
  double cache_hit_rate = 0;
  std::uint64_t queue_peak = 0;
};

/// Stream `writes` parity deltas through serve() and retire every ack.
Cell run_cell(std::size_t shards, std::uint64_t writes, int index) {
  const std::string intent_path =
      "replica_apply_intents_" + std::to_string(index) + ".tmp";
  std::remove(intent_path.c_str());
  auto intent_log = WriteIntentLog::open(intent_path);
  if (!intent_log.is_ok()) {
    std::fprintf(stderr, "open intent log: %s\n",
                 intent_log.status().to_string().c_str());
    std::exit(1);
  }

  ReplicaConfig config;
  config.apply_shards = shards;
  config.intent_log = std::shared_ptr<WriteIntentLog>(std::move(*intent_log));
  config.intent_checkpoint_every = 4096;
  config.old_block_cache_blocks = kHotBlocks;  // hot set fits: misses only cold
  auto disk = std::make_shared<MemDisk>(kDeviceBlocks, kBs);
  auto replica = std::make_shared<ReplicaEngine>(disk, config);

  auto [primary_end, replica_end] = make_inproc_pair(/*capacity=*/256);
  std::thread server(
      [replica, t = std::shared_ptr<Transport>(std::move(replica_end))] {
        (void)replica->serve(*t);
      });

  // Sparse parity deltas (one 256-byte run per block), pre-encoded once:
  // the feeder frames them scatter-gather so feeding stays cheap and the
  // replica's decode/XOR/intent/write path dominates the measurement.
  Rng rng(7);
  std::vector<Bytes> payloads;
  payloads.reserve(kDeltaTemplates);
  for (std::size_t i = 0; i < kDeltaTemplates; ++i) {
    Bytes delta(kBs, 0);
    const std::size_t off = rng.next_below(kBs / 256) * 256;
    for (std::size_t j = 0; j < 256; ++j) {
      delta[off + j] = static_cast<Byte>(rng.next_u64());
    }
    payloads.push_back(encode_frame(codec_for(CodecId::kZeroRle), delta));
  }

  Transport& wire = *primary_end;
  const auto start = std::chrono::steady_clock::now();
  std::thread feeder([&] {
    for (std::uint64_t i = 0; i < writes; ++i) {
      ReplicationMessage msg;
      msg.kind = MessageKind::kWrite;
      msg.policy = ReplicationPolicy::kPrinsRle;
      msg.block_size = kBs;
      msg.lba = (i * 2654435761ULL) % kHotBlocks;  // spread across shards
      msg.sequence = i + 1;
      msg.timestamp_us = i + 1;
      const ByteSpan payload = payloads[i % kDeltaTemplates];
      if (Status s = send_framed(wire, msg, {&payload, 1}); !s.is_ok()) {
        std::fprintf(stderr, "feeder send: %s\n", s.to_string().c_str());
        std::exit(1);
      }
    }
  });

  // Retire acks until every write is covered.
  std::uint64_t covered = 0;
  while (covered < writes) {
    auto reply = wire.recv();
    if (!reply.is_ok()) {
      std::fprintf(stderr, "ack recv: %s\n",
                   reply.status().to_string().c_str());
      std::exit(1);
    }
    auto ack = ReplicationMessage::decode(*reply);
    if (!ack.is_ok()) {
      std::fprintf(stderr, "ack decode: %s\n",
                   ack.status().to_string().c_str());
      std::exit(1);
    }
    if (ack->kind == MessageKind::kAck) {
      covered += 1;
    } else if (ack->kind == MessageKind::kAckBatch) {
      auto ranges = unpack_ack_ranges(ack->payload);
      if (!ranges.is_ok()) {
        std::fprintf(stderr, "bad ack batch: %s\n",
                     ranges.status().to_string().c_str());
        std::exit(1);
      }
      for (const AckRange& range : *ranges) covered += range.count;
    } else {
      std::fprintf(stderr, "unexpected reply kind\n");
      std::exit(1);
    }
  }
  const double sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  feeder.join();
  primary_end->close();  // serve() sees a clean disconnect
  server.join();

  const ReplicaMetrics m = replica->metrics();
  Cell cell;
  cell.shards = replica->apply_shards();
  cell.applies_per_sec = static_cast<double>(writes) / sec;
  cell.fsyncs_per_apply =
      m.intent_records > 0 ? static_cast<double>(m.intent_fsyncs) /
                                 static_cast<double>(m.intent_records)
                           : 0.0;
  cell.ack_batch_avg =
      m.ack_batches > 0 ? static_cast<double>(m.acks_batched) /
                              static_cast<double>(m.ack_batches)
                        : 0.0;
  cell.cache_hit_rate =
      m.cache_hits + m.cache_misses > 0
          ? static_cast<double>(m.cache_hits) /
                static_cast<double>(m.cache_hits + m.cache_misses)
          : 0.0;
  cell.queue_peak = m.apply_queue_peak;

  if (m.writes_applied != writes) {
    std::fprintf(stderr, "applied %llu of %llu writes\n",
                 static_cast<unsigned long long>(m.writes_applied),
                 static_cast<unsigned long long>(writes));
    std::exit(1);
  }
  std::remove(intent_path.c_str());
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const std::uint64_t writes = quick ? 2048 : 16384;
  const std::size_t hw = std::thread::hardware_concurrency() > 0
                             ? std::thread::hardware_concurrency()
                             : 1;

  std::printf("=== PRINS replica apply: pipelined serve() throughput "
              "(policy PRINS-rle, %u B blocks, %llu writes/cell) ===\n\n",
              kBs, static_cast<unsigned long long>(writes));
  std::printf("%8s %14s %16s %14s %15s %11s\n", "shards", "applies/s",
              "fsyncs/apply", "ack batch", "cache hitrate", "queue peak");

  std::vector<std::size_t> shard_counts{1, 4};
  if (hw > 4) shard_counts.push_back(hw);

  std::vector<Cell> cells;
  for (std::size_t i = 0; i < shard_counts.size(); ++i) {
    cells.push_back(run_cell(shard_counts[i], writes, static_cast<int>(i)));
    const Cell& c = cells.back();
    std::printf("%8zu %14.0f %16.3f %14.1f %15.3f %11llu\n", c.shards,
                c.applies_per_sec, c.fsyncs_per_apply, c.ack_batch_avg,
                c.cache_hit_rate,
                static_cast<unsigned long long>(c.queue_peak));
  }

  double base = 0, sharded = 0, sharded_fsyncs = 0;
  for (const Cell& c : cells) {
    if (c.shards == 1) base = c.applies_per_sec;
    if (c.shards == 4) {
      sharded = c.applies_per_sec;
      sharded_fsyncs = c.fsyncs_per_apply;
    }
  }
  const double speedup = base > 0 ? sharded / base : 0.0;
  std::printf("\nspeedup_4_shards: %.2fx (sharded %.0f vs serial %.0f "
              "applies/s)\n",
              speedup, sharded, base);
  std::printf("fsyncs_per_apply_4_shards: %.3f\n", sharded_fsyncs);
  std::printf("hardware_threads: %zu\n", hw);

  FILE* json = std::fopen("BENCH_replica_apply.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "{\n  \"block_size\": %u,\n", kBs);
    std::fprintf(json, "  \"writes_per_cell\": %llu,\n",
                 static_cast<unsigned long long>(writes));
    std::fprintf(json, "  \"hardware_threads\": %zu,\n", hw);
    std::fprintf(json, "  \"speedup_4_shards\": %.3f,\n", speedup);
    std::fprintf(json, "  \"fsyncs_per_apply_4_shards\": %.3f,\n",
                 sharded_fsyncs);
    std::fprintf(json, "  \"rows\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(json,
                   "    {\"apply_shards\": %zu, \"applies_per_sec\": %.1f, "
                   "\"fsyncs_per_apply\": %.3f, \"ack_batch_avg\": %.2f, "
                   "\"cache_hit_rate\": %.3f, \"queue_peak\": %llu}%s\n",
                   c.shards, c.applies_per_sec, c.fsyncs_per_apply,
                   c.ack_batch_avg, c.cache_hit_rate,
                   static_cast<unsigned long long>(c.queue_peak),
                   i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("wrote BENCH_replica_apply.json\n");
  }
  return 0;
}
