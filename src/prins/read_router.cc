#include "prins/read_router.h"

#include <algorithm>
#include <optional>

#include "common/endian.h"
#include "common/logging.h"

namespace prins {

ReadRouter::ReadRouter(std::shared_ptr<PrinsEngine> engine,
                       ReadRouterConfig config)
    : engine_(std::move(engine)), config_(config) {
  if (config_.degrade_after == 0) config_.degrade_after = 1;
  if (config_.op_timeout <= std::chrono::milliseconds::zero()) {
    config_.op_timeout = std::chrono::milliseconds(1000);
  }
}

ReadRouter::~ReadRouter() {
  for (auto& link : links_) link->transport->close();
}

void ReadRouter::add_read_replica(std::unique_ptr<Transport> link) {
  auto entry = std::make_unique<ReadLink>();
  entry->transport = std::move(link);
  links_.push_back(std::move(entry));
}

std::size_t ReadRouter::healthy_links() const {
  std::size_t n = 0;
  for (const auto& link : links_) {
    n += !link->degraded.load(std::memory_order_acquire);
  }
  return n;
}

std::string ReadRouter::describe() const {
  return "read-router[" + std::to_string(links_.size()) + " mirrors](" +
         engine_->describe() + ")";
}

Status ReadRouter::read(Lba lba, MutByteSpan out) {
  PRINS_RETURN_IF_ERROR(check_io(lba, out.size()));
  const std::uint32_t bs = block_size();
  const std::uint64_t blocks = out.size() / bs;
  for (std::uint64_t i = 0; i < blocks; ++i) {
    PRINS_RETURN_IF_ERROR(
        read_fresh(lba + i, out.subspan(i * bs, bs), /*min_sequence=*/0));
  }
  return Status::ok();
}

Status ReadRouter::read_fresh(Lba lba, MutByteSpan out,
                              std::uint64_t min_sequence) {
  std::uint64_t window_min = 0;
  const PrinsEngine::ReadClass cls = engine_->classify_read(lba, &window_min);
  if (cls == PrinsEngine::ReadClass::kLocal) {
    // In-flight conflict (or offload disabled): the primary is the only
    // node guaranteed to hold the write already.
    if (!links_.empty()) engine_->note_read_conflict_local();
    return engine_->read(lba, out);
  }
  // The replica must cover both the caller's explicit demand and the
  // conflict window's bound on this LBA's history.
  const std::uint64_t demand = std::max(min_sequence, window_min);
  ReadLink* link = pick_link();
  if (link != nullptr) {
    link->outstanding.fetch_add(1, std::memory_order_relaxed);
    const Status served = read_from_replica(*link, lba, out, demand);
    link->outstanding.fetch_sub(1, std::memory_order_relaxed);
    if (served.is_ok()) {
      engine_->note_replica_read();
      return Status::ok();
    }
  }
  // Fallback: the primary satisfies any demand.  This is what keeps
  // availability at 100% no matter what the mirrors or links do.
  return engine_->read(lba, out);
}

ReadRouter::ReadLink* ReadRouter::pick_link() {
  const std::size_t n = links_.size();
  if (n == 0) return nullptr;
  if (config_.policy == ReadPolicy::kLeastOutstanding) {
    ReadLink* best = nullptr;
    std::size_t best_depth = 0;
    for (const auto& link : links_) {
      if (link->degraded.load(std::memory_order_acquire)) continue;
      const std::size_t depth =
          link->outstanding.load(std::memory_order_relaxed);
      if (best == nullptr || depth < best_depth) {
        best = link.get();
        best_depth = depth;
      }
    }
    return best;
  }
  // Round-robin: rotate, skipping degraded links.
  for (std::size_t attempt = 0; attempt < n; ++attempt) {
    const std::size_t index =
        rr_cursor_.fetch_add(1, std::memory_order_relaxed) % n;
    if (!links_[index]->degraded.load(std::memory_order_acquire)) {
      return links_[index].get();
    }
  }
  return nullptr;
}

Status ReadRouter::read_from_replica(ReadLink& link, Lba lba, MutByteSpan out,
                                     std::uint64_t min_sequence) {
  Exchange exchange;
  exchange.id = next_exchange_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t lease_floor = 0;
  {
    std::lock_guard lock(link.mutex);
    if (link.degraded.load(std::memory_order_acquire)) {
      return unavailable("read link degraded");
    }
    lease_floor = claim_lease_locked(link);
    // Parked before the request leaves, so a fast reply finds its slot.
    link.waiting.push_back(&exchange);
  }

  ReplicationMessage req;
  req.kind = MessageKind::kClientReadRequest;
  req.cluster_epoch = engine_->cluster_epoch();
  req.block_size = block_size();
  req.lba = lba;
  req.sequence = exchange.id;
  append_le64(req.payload, min_sequence);
  const Bytes request = req.encode();
  Bytes lease;
  if (lease_floor != 0) {
    ReplicationMessage renewal;
    renewal.kind = MessageKind::kReadLease;
    renewal.cluster_epoch = req.cluster_epoch;
    renewal.sequence = lease_floor;  // the lease travels in the sequence
    lease = renewal.encode();
  }
  Status sent;
  {
    std::lock_guard lock(link.send_mutex);
    // The lease goes first so the replica can already use it to prove
    // this read fresh.  A lost renewal is simply given up at its deadline.
    if (lease_floor != 0) (void)link.transport->send(lease);
    sent = link.transport->send(request);
  }
  if (!sent.is_ok()) {
    std::lock_guard lock(link.mutex);
    std::erase(link.waiting, &exchange);
    pass_receiving_locked(link);  // this exchange may have been handed it
    note_failure_locked(link);
    return sent;
  }

  auto reply = await_reply(link, exchange);
  if (!reply.is_ok()) {
    note_failure(link);
    return reply.status();
  }
  if (reply->kind == MessageKind::kNak) {
    if (!reply->payload.empty() &&
        reply->payload[0] == static_cast<Byte>(NakReason::kStaleEpoch)) {
      // A successor primary owns this mirror now; nothing it serves can be
      // trusted by this epoch again.
      PRINS_LOG(kWarn) << "read link fenced at epoch "
                       << reply->cluster_epoch << "; degrading";
      link.degraded.store(true, std::memory_order_release);
      return failed_precondition("read link fenced by promoted replica");
    }
    note_success(link);  // the link is healthy; the data just isn't there yet
    if (!reply->payload.empty() &&
        reply->payload[0] == static_cast<Byte>(NakReason::kStaleRead)) {
      engine_->note_stale_read_retry();
      return unavailable("replica behind demanded sequence");
    }
    return unavailable("replica cannot serve the block");
  }
  if (reply->lba != lba || reply->payload.size() != out.size()) {
    note_failure(link);
    return failed_precondition("unexpected reply to client read");
  }
  note_success(link);
  std::copy(reply->payload.begin(), reply->payload.end(), out.begin());
  return Status::ok();
}

std::uint64_t ReadRouter::claim_lease_locked(ReadLink& link) {
  if (config_.lease_renew_every == 0) return 0;
  const std::uint64_t floor = engine_->read_floor();
  if (floor <= link.lease_published) return 0;
  if (link.lease_published != 0 &&
      floor - link.lease_published < config_.lease_renew_every) {
    return 0;
  }
  const auto now = std::chrono::steady_clock::now();
  if (link.lease_in_flight != 0 && now < link.lease_deadline) {
    return 0;  // one renewal on the wire at a time
  }
  // A renewal past its deadline is given up; its late ack is dropped.
  link.lease_in_flight = floor;
  link.lease_deadline = now + config_.op_timeout;
  return floor;
}

Result<ReplicationMessage> ReadRouter::await_reply(ReadLink& link,
                                                   Exchange& exchange) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + config_.op_timeout;
  std::unique_lock lock(link.mutex);
  while (!exchange.done) {
    const Clock::time_point now = Clock::now();
    if (now >= deadline) {
      // Only this exchange times out; its late reply will find no slot.
      std::erase(link.waiting, &exchange);
      exchange.done = true;
      exchange.status = timeout_error("no reply to client read exchange");
      break;
    }
    if (link.receiving) {
      exchange.cv.wait_until(lock, deadline);
      continue;
    }
    // Leader: receive for everyone until this exchange is answered.
    link.receiving = true;
    lock.unlock();
    Result<Bytes> wire = link.transport->recv_for(
        std::chrono::ceil<std::chrono::milliseconds>(deadline - now));
    std::optional<ReplicationMessage> reply;
    if (wire.is_ok()) {
      auto decoded = ReplicationMessage::decode(*wire);
      if (decoded.is_ok()) reply = std::move(*decoded);  // else: torn frame
    }
    lock.lock();
    link.receiving = false;
    if (reply.has_value()) {
      route_reply_locked(link, std::move(*reply));
    } else if (!wire.is_ok() && wire.status().code() != ErrorCode::kTimeout) {
      fail_waiting_locked(link, wire.status());
    }
  }
  pass_receiving_locked(link);
  if (!exchange.status.is_ok()) return exchange.status;
  return std::move(exchange.reply);
}

void ReadRouter::pass_receiving_locked(ReadLink& link) {
  if (!link.receiving && !link.waiting.empty()) {
    link.waiting.front()->cv.notify_one();
  }
}

void ReadRouter::route_reply_locked(ReadLink& link,
                                    ReplicationMessage reply) {
  // Exchange ids and lease floors are independent counters, so the reply
  // kind says which of the two a sequence names.
  if (reply.kind == MessageKind::kAck) {
    if (link.lease_in_flight != 0 && reply.sequence == link.lease_in_flight) {
      link.lease_published = link.lease_in_flight;
      link.lease_in_flight = 0;
    }
    return;
  }
  if (reply.kind != MessageKind::kClientReadReply &&
      reply.kind != MessageKind::kNak) {
    return;
  }
  const auto it = std::find_if(
      link.waiting.begin(), link.waiting.end(),
      [&](const Exchange* e) { return e->id == reply.sequence; });
  if (it == link.waiting.end()) return;  // late reply to a timed-out read
  Exchange& exchange = **it;
  link.waiting.erase(it);
  exchange.reply = std::move(reply);
  exchange.done = true;
  exchange.cv.notify_one();
}

void ReadRouter::fail_waiting_locked(ReadLink& link, const Status& status) {
  for (Exchange* exchange : link.waiting) {
    exchange->status = status;
    exchange->done = true;
    exchange->cv.notify_one();
  }
  link.waiting.clear();
  link.lease_in_flight = 0;
}

void ReadRouter::note_success(ReadLink& link) {
  std::lock_guard lock(link.mutex);
  link.failure_streak = 0;
}

void ReadRouter::note_failure(ReadLink& link) {
  std::lock_guard lock(link.mutex);
  note_failure_locked(link);
}

void ReadRouter::note_failure_locked(ReadLink& link) {
  if (++link.failure_streak >= config_.degrade_after) {
    PRINS_LOG(kWarn) << "read link failed " << link.failure_streak
                     << " exchanges in a row; degrading";
    link.degraded.store(true, std::memory_order_release);
  }
}

}  // namespace prins
