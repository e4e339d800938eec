#include "prins/replica.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <thread>

#include "block/cached_disk.h"
#include "codec/codec.h"
#include "common/crc32c.h"
#include "common/endian.h"
#include "common/env.h"
#include "common/logging.h"
#include "parity/xor.h"
#include "prins/engine.h"
#include "prins/replica_pipeline.h"
#include "prins/verify.h"

namespace prins {
namespace {

std::size_t resolve_apply_shards(std::size_t requested) {
  std::size_t n = requested;
  if (n == 0) {
    n = parse_env_size("PRINS_APPLY_SHARDS", 1, 32).value_or(0);
    if (n == 0) n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  n = std::min<std::size_t>(n, 32);
  std::size_t pow2 = 1;
  while (pow2 < n) pow2 <<= 1;
  return pow2;
}

}  // namespace

ReplicaEngine::ReplicaEngine(std::shared_ptr<BlockDevice> local,
                             ReplicaConfig config)
    : local_(std::move(local)), config_(config),
      cluster_epoch_(config.cluster_epoch) {
  config_.apply_shards = resolve_apply_shards(config_.apply_shards);
  if (config_.ack_coalesce_max == 0) config_.ack_coalesce_max = 1;
  shards_.reserve(config_.apply_shards);
  for (std::size_t i = 0; i < config_.apply_shards; ++i) {
    shards_.push_back(std::make_unique<ApplyShard>());
  }
  if (config_.old_block_cache_blocks > 0) {
    cache_ = std::make_shared<CachedDisk>(
        local_, CacheConfig{config_.old_block_cache_blocks,
                            /*write_back=*/false});
    apply_dev_ = cache_;
  } else {
    apply_dev_ = local_;
  }
}

ReplicaEngine::~ReplicaEngine() = default;

Status ReplicaEngine::serve(Transport& transport) {
  // The blocking front end: a pipeline of this call's own, fed by a recv()
  // pump that waits while the pipeline holds reads paused.
  std::mutex pause_mutex;
  std::condition_variable pause_cv;
  bool paused = false;
  ReplicaPipeline pipeline(*this);
  // Non-owning: the caller's transport outlives this call, and every
  // worker is joined before it returns.
  auto session = pipeline.open(
      std::shared_ptr<Transport>(std::shared_ptr<void>(), &transport),
      [&](bool pause) {
        {
          std::lock_guard lock(pause_mutex);
          paused = pause;
        }
        pause_cv.notify_all();
      });
  Status result = Status::ok();
  for (;;) {
    {
      std::unique_lock lock(pause_mutex);
      pause_cv.wait(lock, [&] { return !paused; });
    }
    auto wire = transport.recv();
    if (!wire.is_ok()) {
      if (wire.status().code() != ErrorCode::kUnavailable) {
        result = wire.status();
      }
      break;
    }
    pipeline.feed(session, std::move(*wire));
  }
  const Status session_error = pipeline.wait_idle(*session);
  pipeline.stop();
  return session_error.is_ok() ? result : session_error;
}

Result<ReplicationMessage> ReplicaEngine::apply(
    const ReplicationMessage& message) {
  return apply_view(message.view());
}

Result<ReplicationMessage> ReplicaEngine::apply_view(
    const MessageView& message) {
  // Fence before anything touches the device: a frame from an epoch older
  // than ours comes from a primary that missed a promotion, and applying
  // it would diverge us from the cluster's new history.
  if (!epoch_current(message.cluster_epoch)) {
    return stale_epoch_nak(message.sequence, message.lba);
  }
  PRINS_ASSIGN_OR_RETURN(ReplicationMessage reply, dispatch_view(message));
  reply.cluster_epoch = cluster_epoch();
  return reply;
}

Result<ReplicationMessage> ReplicaEngine::dispatch_view(
    const MessageView& message) {
  switch (message.kind) {
    case MessageKind::kVerifyRequest:
      return apply_verify(message);
    case MessageKind::kHashRequest: {
      PRINS_ASSIGN_OR_RETURN(std::vector<BlockRange> ranges,
                             unpack_ranges(message.payload));
      std::vector<std::uint64_t> hashes;
      hashes.reserve(ranges.size());
      for (const BlockRange& range : ranges) {
        PRINS_ASSIGN_OR_RETURN(std::uint64_t h,
                               hash_block_range(*local_, range));
        hashes.push_back(h);
      }
      ReplicationMessage reply;
      reply.kind = MessageKind::kHashReply;
      reply.sequence = message.sequence;
      reply.payload = pack_hashes(hashes);
      return reply;
    }
    case MessageKind::kWrite:
    case MessageKind::kSyncBlock:
    case MessageKind::kRepairBlock: {
      PRINS_ASSIGN_OR_RETURN(ApplyOutcome outcome,
                             apply_write_message(message));
      if (outcome != ApplyOutcome::kApplied) {
        return write_nak(outcome, message.sequence, message.lba);
      }
      break;
    }
    case MessageKind::kReadBlockRequest: {
      // A peer's scrubber wants our copy of the block (repair pull).
      Bytes block(local_->block_size());
      Status read = message.lba < local_->num_blocks()
                        ? local_->read(message.lba, block)
                        : out_of_range("no such block");
      if (read.is_ok()) {
        ApplyShard& shard = shard_for(message.lba);
        std::lock_guard lock(shard.mutex);
        if (shard.damaged.count(message.lba) != 0) {
          read = corruption_error("block awaits repair here too");
        }
      }
      ReplicationMessage reply;
      reply.sequence = message.sequence;
      reply.lba = message.lba;
      if (!read.is_ok()) {
        std::lock_guard lock(mutex_);
        metrics_.naks_sent += 1;
        reply.kind = MessageKind::kNak;
        return reply;
      }
      reply.kind = MessageKind::kReadBlockReply;
      reply.block_size = local_->block_size();
      reply.payload = encode_frame(codec_for(CodecId::kLz), block);
      std::lock_guard lock(mutex_);
      metrics_.repair_reads_served += 1;
      return reply;
    }
    case MessageKind::kClientReadRequest:
      return serve_client_read(message);
    case MessageKind::kReadLease: {
      // The primary published its all-replicas-acked floor; CAS-max it so
      // out-of-order renewals can only ever widen the lease.
      std::uint64_t floor = message.sequence;
      std::uint64_t prev = read_lease_floor_.load(std::memory_order_relaxed);
      while (floor > prev && !read_lease_floor_.compare_exchange_weak(
                                 prev, floor, std::memory_order_acq_rel)) {
      }
      break;  // generic kAck below confirms the renewal
    }
    case MessageKind::kBarrier:
      // The pipeline quiesces before a barrier reaches here, making it the
      // durability point: settle the device before dropping the intents
      // that guard it.
      if (config_.intent_log) {
        PRINS_RETURN_IF_ERROR(checkpoint_intents());
      }
      break;
    case MessageKind::kHello: {
      // Position report: the ACK's timestamp tells the primary how far
      // this replica's device has advanced.
      ReplicationMessage ack;
      ack.kind = MessageKind::kAck;
      ack.sequence = message.sequence;
      ack.timestamp_us = applied_timestamp_us_.load(std::memory_order_acquire);
      return ack;
    }
    case MessageKind::kAck:
    case MessageKind::kAckBatch:
    case MessageKind::kVerifyReply:
    case MessageKind::kHashReply:
    case MessageKind::kNak:
    case MessageKind::kReadBlockReply:
    case MessageKind::kClientReadReply:
      return failed_precondition("replica received a reply-kind message");
  }
  ReplicationMessage ack;
  ack.kind = MessageKind::kAck;
  ack.sequence = message.sequence;
  ack.lba = message.lba;
  return ack;
}

bool ReplicaEngine::already_applied(const ApplyShard& shard,
                                    std::uint64_t sequence) {
  return sequence != 0 && shard.applied_set.count(sequence) != 0;
}

void ReplicaEngine::record_applied(ApplyShard& shard, std::uint64_t sequence) {
  if (sequence == 0) return;
  constexpr std::size_t kDedupWindow = 65536;
  if (!shard.applied_set.insert(sequence).second) return;
  shard.applied_fifo.push_back(sequence);
  if (shard.applied_fifo.size() > kDedupWindow) {
    shard.applied_set.erase(shard.applied_fifo.front());
    shard.applied_fifo.pop_front();
  }
}

void ReplicaEngine::bump_timestamp(std::uint64_t timestamp_us) {
  std::uint64_t prev = applied_timestamp_us_.load(std::memory_order_relaxed);
  while (timestamp_us > prev &&
         !applied_timestamp_us_.compare_exchange_weak(
             prev, timestamp_us, std::memory_order_acq_rel)) {
  }
}

bool ReplicaEngine::epoch_current(std::uint64_t frame_epoch) {
  std::uint64_t current = cluster_epoch_.load(std::memory_order_acquire);
  while (frame_epoch > current) {
    // A newer primary is talking to us: adopt its epoch, which fences the
    // old one from here on.
    if (cluster_epoch_.compare_exchange_weak(current, frame_epoch,
                                             std::memory_order_acq_rel)) {
      return true;
    }
  }
  return frame_epoch == current;
}

ReplicationMessage ReplicaEngine::write_nak(ApplyOutcome outcome,
                                            std::uint64_t sequence, Lba lba) {
  ReplicationMessage nak;
  nak.kind = MessageKind::kNak;
  nak.sequence = sequence;
  nak.lba = lba;
  if (outcome == ApplyOutcome::kNakFullBlock) {
    nak.payload.push_back(static_cast<Byte>(NakReason::kNeedFullBlock));
  } else if (outcome == ApplyOutcome::kNakStaleEpoch) {
    nak.payload.push_back(static_cast<Byte>(NakReason::kStaleEpoch));
  }
  return nak;
}

ReplicationMessage ReplicaEngine::stale_epoch_nak(std::uint64_t sequence,
                                                  Lba lba) {
  {
    std::lock_guard lock(mutex_);
    metrics_.naks_sent += 1;
    metrics_.stale_epoch_naks += 1;
  }
  ReplicationMessage nak =
      write_nak(ApplyOutcome::kNakStaleEpoch, sequence, lba);
  nak.cluster_epoch = cluster_epoch();  // tell the zombie where the world is
  return nak;
}

Result<ReplicaEngine::ApplyOutcome> ReplicaEngine::apply_write_message(
    const MessageView& message) {
  if (!epoch_current(message.cluster_epoch)) {
    std::lock_guard lock(mutex_);
    metrics_.naks_sent += 1;
    metrics_.stale_epoch_naks += 1;
    return ApplyOutcome::kNakStaleEpoch;
  }
  ApplyShard& shard = shard_for(message.lba);
  bool checkpoint_due = false;
  {
    std::lock_guard lock(shard.mutex);
    if (already_applied(shard, message.sequence)) {
      std::lock_guard metrics_lock(mutex_);
      metrics_.duplicates_dropped += 1;
      return ApplyOutcome::kApplied;  // ACK again; re-XOR would undo it
    }
    Status applied = apply_write_locked(shard, message, &checkpoint_due);
    if (applied.code() == ErrorCode::kCorruption ||
        applied.code() == ErrorCode::kDataCorruption) {
      // kCorruption: the payload survived the header CRC but its codec
      // frame is bad — bounce it back for a resend.  kDataCorruption:
      // our stored A_old is torn or rotten, so resending the same parity
      // delta can never succeed — ask for the full block instead.
      std::lock_guard metrics_lock(mutex_);
      metrics_.naks_sent += 1;
      if (applied.code() == ErrorCode::kDataCorruption) {
        metrics_.full_repairs_requested += 1;
        return ApplyOutcome::kNakFullBlock;
      }
      return ApplyOutcome::kNakResend;
    }
    PRINS_RETURN_IF_ERROR(applied);
    record_applied(shard, message.sequence);
    if (message.sequence != 0) {
      std::uint64_t& newest = shard.newest_applied[message.lba];
      if (message.sequence > newest) newest = message.sequence;
    }
    if (message.kind == MessageKind::kWrite ||
        message.kind == MessageKind::kRepairBlock) {
      bump_timestamp(message.timestamp_us);
    }
  }
  // Checkpoint outside the shard lock: it locks *all* shards to quiesce.
  if (checkpoint_due) PRINS_RETURN_IF_ERROR(checkpoint_intents());
  return ApplyOutcome::kApplied;
}

Result<ReplicationMessage> ReplicaEngine::serve_client_read(
    const MessageView& message) {
  // Fence first: after a promotion this replica answers only the new
  // epoch's readers — a router still wired to the deposed primary gets
  // kStaleEpoch and must not trust any data from here.
  if (!epoch_current(message.cluster_epoch)) {
    return stale_epoch_nak(message.sequence, message.lba);
  }
  const std::uint64_t min_sequence =
      message.payload.size() >= 8 ? load_le64(message.payload) : 0;
  ReplicationMessage reply;
  reply.sequence = message.sequence;  // exchange id, echoed for matching
  reply.lba = message.lba;
  reply.cluster_epoch = cluster_epoch();
  auto plain_nak = [&]() -> ReplicationMessage {
    std::lock_guard lock(mutex_);
    metrics_.naks_sent += 1;
    reply.kind = MessageKind::kNak;
    return reply;
  };
  if (message.lba >= local_->num_blocks()) return plain_nak();
  Bytes block(local_->block_size());
  ApplyShard& shard = shard_for(message.lba);
  {
    std::lock_guard lock(shard.mutex);
    if (shard.damaged.count(message.lba) != 0) return plain_nak();
    // Fresh iff the demanded sequence is covered by the lease floor (every
    // write at or below it is applied on every replica) or by this LBA's
    // own applied high-water mark.  Same-LBA applies are serialized by
    // this shard, so newest >= min_sequence proves every same-LBA write at
    // or below min_sequence has landed.
    bool fresh =
        min_sequence == 0 ||
        read_lease_floor_.load(std::memory_order_acquire) >= min_sequence;
    if (!fresh) {
      auto it = shard.newest_applied.find(message.lba);
      fresh = it != shard.newest_applied.end() && it->second >= min_sequence;
    }
    if (!fresh) {
      {
        std::lock_guard mlock(mutex_);
        metrics_.naks_sent += 1;
        metrics_.stale_read_naks += 1;
      }
      reply.kind = MessageKind::kNak;
      reply.payload.push_back(static_cast<Byte>(NakReason::kStaleRead));
      return reply;
    }
    // Read under the shard lock: atomic with respect to in-flight applies
    // on this stripe, so a reader never observes a half-XORed block.
    Status read = apply_dev_->read(message.lba, block);
    if (read.code() == ErrorCode::kDataCorruption) {
      shard.damaged.insert(message.lba);  // NAK deltas until repair lands
      return plain_nak();
    }
    PRINS_RETURN_IF_ERROR(read);
  }
  reply.kind = MessageKind::kClientReadReply;
  reply.block_size = local_->block_size();
  // Raw block bytes, no codec frame: the read path trades wire compression
  // for zero decode cost on the hot path.
  reply.payload = std::move(block);
  std::lock_guard lock(mutex_);
  metrics_.client_reads_served += 1;
  return reply;
}

Status ReplicaEngine::apply_write_locked(ApplyShard& shard,
                                         const MessageView& message,
                                         bool* checkpoint_due) {
  if (message.block_size != local_->block_size()) {
    return invalid_argument("message block size " +
                            std::to_string(message.block_size) +
                            " != replica block size " +
                            std::to_string(local_->block_size()));
  }
  PRINS_ASSIGN_OR_RETURN(Bytes raw, decode_frame(message.payload));
  if (raw.size() != message.block_size) {
    return corruption("decoded payload is " + std::to_string(raw.size()) +
                      " bytes, expected one block");
  }

  const bool parity = message.kind == MessageKind::kWrite &&
                      ships_parity(message.policy);
  if (parity && shard.damaged.count(message.lba) != 0) {
    return corruption_error("block " + std::to_string(message.lba) +
                            " is damaged; parity cannot apply");
  }

  Bytes new_block;
  Bytes delta;
  if (parity) {
    // Backward parity computation: A_new = P' ⊕ A_old.  The old-block
    // cache (apply_dev_) turns a hot LBA's read into a memcpy.
    Bytes old_block(message.block_size);
    Status old_read = apply_dev_->read(message.lba, old_block);
    if (old_read.code() == ErrorCode::kDataCorruption) {
      // A_old failed its checksum: remember the damage so every delta to
      // this LBA bounces until a full-contents write repairs it.
      shard.damaged.insert(message.lba);
    }
    PRINS_RETURN_IF_ERROR(old_read);
    delta = std::move(raw);
    new_block = Bytes(message.block_size);
    xor_to(new_block, delta, old_block);
  } else {
    new_block = std::move(raw);
    if (config_.keep_trap_log && message.kind == MessageKind::kWrite) {
      Bytes old_block(message.block_size);
      Status old_read = apply_dev_->read(message.lba, old_block);
      if (old_read.is_ok()) {
        delta = parity_delta(new_block, old_block);
      } else if (old_read.code() != ErrorCode::kDataCorruption) {
        return old_read;
      }
      // Corrupt old contents: the full write repairs the block, but there
      // is no usable delta to log for CDP.
    }
  }

  // Durable intent before the in-place write: after a crash, the CRC tells
  // a completed apply (dedup its redelivery) from a torn one (NAK for a
  // full-block repair).  record() group-commits, so concurrent shard
  // workers share one fdatasync.
  if (config_.intent_log) {
    PRINS_RETURN_IF_ERROR(config_.intent_log->record(
        message.sequence, message.lba, crc32c(new_block)));
  }

  PRINS_RETURN_IF_ERROR(apply_dev_->write(message.lba, new_block));

  if (config_.keep_trap_log && message.kind == MessageKind::kWrite &&
      !delta.empty()) {
    std::lock_guard trap_lock(trap_mutex_);
    PRINS_RETURN_IF_ERROR(
        trap_log_.append(message.lba, message.timestamp_us, delta));
  }

  shard.damaged.erase(message.lba);  // full contents (or a clean apply) landed
  {
    std::lock_guard lock(mutex_);
    metrics_.writes_applied += (message.kind == MessageKind::kWrite);
    metrics_.parity_applies += parity;
    metrics_.sync_blocks += (message.kind == MessageKind::kSyncBlock);
    metrics_.repairs += (message.kind == MessageKind::kRepairBlock);
  }
  if (config_.intent_log && config_.intent_checkpoint_every > 0) {
    const std::uint64_t applies =
        applies_since_checkpoint_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (applies >= config_.intent_checkpoint_every) {
      applies_since_checkpoint_.store(0, std::memory_order_relaxed);
      *checkpoint_due = true;
    }
  }
  return Status::ok();
}

Status ReplicaEngine::checkpoint_intents() {
  if (!config_.intent_log) return Status::ok();
  std::lock_guard checkpoint_lock(checkpoint_mutex_);
  // Quiesce by locking every shard (index order; applies take exactly one):
  // no apply can sit between its intent record and its device write while
  // the log truncates.
  std::vector<std::unique_lock<std::mutex>> held;
  held.reserve(shards_.size());
  for (auto& shard : shards_) held.emplace_back(shard->mutex);
  // Settle the data writes first; only then is it safe to forget the
  // intents that would re-detect them.
  PRINS_RETURN_IF_ERROR(apply_dev_->flush());
  PRINS_RETURN_IF_ERROR(config_.intent_log->checkpoint());
  applies_since_checkpoint_.store(0, std::memory_order_relaxed);
  return Status::ok();
}

Result<std::vector<Lba>> ReplicaEngine::recover_intents() {
  if (!config_.intent_log) return std::vector<Lba>{};
  std::map<Lba, std::vector<WriteIntentLog::Intent>> by_lba;
  for (const WriteIntentLog::Intent& intent : config_.intent_log->pending()) {
    by_lba[intent.lba].push_back(intent);
  }
  std::vector<Lba> damaged;
  Bytes block(local_->block_size());
  for (const auto& [lba, intents] : by_lba) {
    if (lba >= local_->num_blocks()) continue;
    const Status read = local_->read(lba, block);
    const std::uint32_t crc = read.is_ok() ? crc32c(block) : 0;
    // Same-LBA applies are serialized (their shard orders them), so the
    // *newest* intent the contents match tells how far that block's stream
    // got: everything up to it completed (dedup those sequences — re-XOR
    // would undo them), everything after it never ran and will be
    // redelivered.  Matching nothing means the block is torn — or an apply
    // stopped between intent and write, which is indistinguishable and
    // equally unsafe to patch with a delta.
    ApplyShard& shard = shard_for(lba);
    bool matched = false;
    if (read.is_ok()) {
      for (std::size_t i = intents.size(); i-- > 0;) {
        if (intents[i].crc == crc) {
          std::lock_guard lock(shard.mutex);
          for (std::size_t j = 0; j <= i; ++j) {
            record_applied(shard, intents[j].sequence);
          }
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      {
        std::lock_guard lock(shard.mutex);
        shard.damaged.insert(lba);
      }
      std::lock_guard lock(mutex_);
      metrics_.torn_blocks_detected += 1;
      damaged.push_back(lba);
    }
  }
  return damaged;
}

std::vector<Lba> ReplicaEngine::damaged_blocks() const {
  std::vector<Lba> out;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    out.insert(out.end(), shard->damaged.begin(), shard->damaged.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::unique_ptr<PrinsEngine>> ReplicaEngine::promote(
    EngineConfig config) {
  // Finish crash recovery first: the intent log is what separates applied
  // writes from torn ones after a hard kill (idempotent if already run).
  PRINS_ASSIGN_OR_RETURN(std::vector<Lba> damaged, recover_intents());
  if (!damaged.empty()) {
    return failed_precondition(
        "cannot promote: " + std::to_string(damaged.size()) +
        " torn block(s) await full-block repair");
  }
  // Highest applied sequence across the striped dedup windows: the new
  // primary's writes must sequence above anything a survivor may already
  // have seen, or its dedup window would swallow them.
  std::uint64_t max_sequence = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    for (std::uint64_t sequence : shard->applied_fifo) {
      max_sequence = std::max(max_sequence, sequence);
    }
  }
  // Fence the old primary: everything from here on happens one epoch up,
  // and this replica keeps NAKing the old epoch if the zombie reappears.
  std::uint64_t epoch =
      cluster_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (config.cluster_epoch > epoch) {
    epoch_current(config.cluster_epoch);  // adopt an operator-forced epoch
    epoch = config.cluster_epoch;
  }
  config.cluster_epoch = epoch;
  config.keep_trap_log = true;  // survivors catch up with delta resyncs
  auto engine = std::make_unique<PrinsEngine>(local_, config);
  PRINS_RETURN_IF_ERROR(engine->adopt_recovered_state(
      max_sequence + 1, applied_timestamp(), trap_log_));
  return engine;
}

Result<ReplicationMessage> ReplicaEngine::apply_verify(
    const MessageView& message) {
  PRINS_ASSIGN_OR_RETURN(std::vector<BlockChecksum> sums,
                         unpack_checksums(message.payload));
  std::vector<std::uint64_t> mismatched;
  Bytes block(local_->block_size());
  for (const auto& sum : sums) {
    if (sum.lba >= local_->num_blocks()) {
      mismatched.push_back(sum.lba);
      continue;
    }
    const Status read = local_->read(sum.lba, block);
    if (read.code() == ErrorCode::kDataCorruption) {
      mismatched.push_back(sum.lba);  // unreadable == mismatched: repair it
      continue;
    }
    PRINS_RETURN_IF_ERROR(read);
    if (crc32c(block) != sum.crc) mismatched.push_back(sum.lba);
  }
  {
    std::lock_guard lock(mutex_);
    metrics_.verify_requests += 1;
  }
  ReplicationMessage reply;
  reply.kind = MessageKind::kVerifyReply;
  reply.sequence = message.sequence;
  reply.payload = pack_lbas(mismatched);
  return reply;
}

ReplicaMetrics ReplicaEngine::metrics() const {
  ReplicaMetrics m;
  {
    std::lock_guard lock(mutex_);
    m = metrics_;
  }
  m.apply_queue_peak = apply_queue_peak_.load(std::memory_order_relaxed);
  if (cache_) {
    const CacheStats stats = cache_->stats();
    m.cache_hits = stats.hits;
    m.cache_misses = stats.misses;
  }
  if (config_.intent_log) {
    const WriteIntentLog::Stats stats = config_.intent_log->stats();
    m.intent_records = stats.records;
    m.intent_fsyncs = stats.fsyncs;
  }
  return m;
}

std::uint64_t ReplicaEngine::applied_timestamp() const {
  return applied_timestamp_us_.load(std::memory_order_acquire);
}

std::thread replica_serve_in_background(std::shared_ptr<ReplicaEngine> replica,
                                        std::shared_ptr<Listener> listener) {
  return std::thread([replica = std::move(replica),
                      listener = std::move(listener)] {
    std::vector<std::thread> sessions;
    int consecutive_failures = 0;
    for (;;) {
      auto conn = listener->accept();
      if (!conn.is_ok()) {
        // A closed listener is the shutdown signal; anything else is a
        // transient accept failure (ECONNABORTED, an injected listener
        // fault) — retry, but don't spin forever if accept() only fails.
        if (conn.status().code() == ErrorCode::kUnavailable) break;
        PRINS_LOG(kWarn) << "replica accept: " << conn.status().to_string();
        if (++consecutive_failures >= 64) {
          PRINS_LOG(kError)
              << "replica accept failing persistently; stopping the loop";
          break;
        }
        continue;
      }
      consecutive_failures = 0;
      sessions.emplace_back(
          [replica, conn = std::shared_ptr<Transport>(std::move(*conn))] {
            Status s = replica->serve(*conn);
            if (!s.is_ok()) {
              PRINS_LOG(kWarn) << "replica session error: " << s.to_string();
            }
          });
    }
    for (std::thread& session : sessions) session.join();
  });
}

}  // namespace prins
