#include "cluster/cluster_router.h"

#include <algorithm>
#include <thread>

#include "common/endian.h"
#include "prins/message.h"

namespace prins::cluster {
namespace {

/// Translate a kNak reply into the router's retry vocabulary.
Status status_of_nak(const ReplicationMessage& nak) {
  const NakReason reason = nak.payload.empty()
                               ? NakReason::kResend
                               : static_cast<NakReason>(nak.payload[0]);
  switch (reason) {
    case NakReason::kWrongPg: {
      std::uint64_t server_epoch = 0;
      if (nak.payload.size() >= 9) {
        server_epoch = load_le64(ByteSpan(nak.payload).subspan(1, 8));
      }
      return failed_precondition("wrong pg (server map epoch " +
                                 std::to_string(server_epoch) + ")");
    }
    case NakReason::kStaleEpoch:
      return failed_precondition("fenced: stale cluster epoch");
    default:
      return unavailable("node NAK'd client frame (reason " +
                         std::to_string(static_cast<int>(reason)) + ")");
  }
}

bool connection_error(const Status& s) {
  return s.code() == ErrorCode::kUnavailable || s.code() == ErrorCode::kTimeout;
}

}  // namespace

// ---- WireBackend ---------------------------------------------------------

WireBackend::WireBackend(std::string node_id, Connector connect,
                         std::size_t pool_size,
                         std::chrono::milliseconds op_timeout)
    : node_id_(std::move(node_id)),
      connect_(std::move(connect)),
      op_timeout_(op_timeout) {
  pool_.reserve(std::max<std::size_t>(pool_size, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(pool_size, 1); ++i) {
    pool_.push_back(std::make_unique<Conn>());
  }
}

WireBackend::~WireBackend() {
  for (auto& conn : pool_) {
    std::lock_guard lock(conn->mutex);
    if (conn->transport) conn->transport->close();
  }
}

WireBackend::Conn& WireBackend::pick() {
  const std::size_t start =
      rr_cursor_.fetch_add(1, std::memory_order_relaxed) % pool_.size();
  std::size_t best = start;
  std::size_t best_load = pool_[start]->outstanding.load(std::memory_order_relaxed);
  for (std::size_t i = 1; i < pool_.size() && best_load > 0; ++i) {
    const std::size_t idx = (start + i) % pool_.size();
    const std::size_t load =
        pool_[idx]->outstanding.load(std::memory_order_relaxed);
    if (load < best_load) {
      best = idx;
      best_load = load;
    }
  }
  return *pool_[best];
}

Status WireBackend::exchange_once(Conn& conn, const ReplicationMessage& request,
                                  ByteSpan data, MessageKind expect,
                                  ReplicationMessage* reply) {
  if (!conn.transport) {
    PRINS_ASSIGN_OR_RETURN(conn.transport, connect_());
  }
  // Scatter-gather: the map-epoch-bearing payload prefix, then the block
  // data (writes only).
  const ByteSpan parts[] = {request.payload, data};
  PRINS_RETURN_IF_ERROR(send_framed(*conn.transport, request, parts));
  for (;;) {
    Result<Bytes> wire = op_timeout_.count() > 0
                             ? conn.transport->recv_for(op_timeout_)
                             : conn.transport->recv();
    PRINS_RETURN_IF_ERROR(wire.status());
    PRINS_ASSIGN_OR_RETURN(ReplicationMessage msg,
                           ReplicationMessage::decode(*wire));
    if (msg.sequence != request.sequence) continue;  // stale frame: skim
    if (msg.kind == MessageKind::kNak) return status_of_nak(msg);
    if (msg.kind != expect) {
      return failed_precondition("unexpected client reply kind " +
                                 std::to_string(static_cast<int>(msg.kind)));
    }
    *reply = std::move(msg);
    return Status::ok();
  }
}

Status WireBackend::exchange(const ReplicationMessage& request, ByteSpan data,
                             MessageKind expect, ReplicationMessage* reply) {
  Conn& conn = pick();
  conn.outstanding.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(conn.mutex);
  Status s = exchange_once(conn, request, data, expect, reply);
  if (!s.is_ok() && connection_error(s)) {
    // The connection (or its node) died mid-exchange.  Rebuild the slot
    // and retry once — duplicated client writes are idempotent (full
    // blocks, not deltas).  A dead node fails the reconnect and the
    // router's map-refresh loop takes over.
    if (conn.transport) conn.transport->close();
    conn.transport.reset();
    s = exchange_once(conn, request, data, expect, reply);
    if (!s.is_ok() && connection_error(s) && conn.transport) {
      conn.transport->close();
      conn.transport.reset();
    }
  }
  conn.outstanding.fetch_sub(1, std::memory_order_relaxed);
  return s;
}

Status WireBackend::write(std::uint64_t lba, ByteSpan data,
                          std::uint64_t map_epoch) {
  ReplicationMessage request;
  request.kind = MessageKind::kClientWriteRequest;
  request.block_size = 0;  // serving side validates against its device
  request.lba = lba;
  request.sequence = next_exchange_.fetch_add(1, std::memory_order_relaxed);
  request.payload.resize(8);
  store_le64(request.payload, map_epoch);
  ReplicationMessage reply;
  return exchange(request, data, MessageKind::kClientWriteReply, &reply);
}

Status WireBackend::read(std::uint64_t lba, MutByteSpan out,
                         std::uint64_t map_epoch) {
  ReplicationMessage request;
  request.kind = MessageKind::kClientReadRequest;
  request.lba = lba;
  request.sequence = next_exchange_.fetch_add(1, std::memory_order_relaxed);
  // min_sequence 0 (the serving node reads through its own engine, which
  // is trivially fresh), map epoch, then the run's block count.
  request.payload.resize(20);
  store_le64(MutByteSpan(request.payload).subspan(0, 8), 0);
  store_le64(MutByteSpan(request.payload).subspan(8, 8), map_epoch);
  store_le32(MutByteSpan(request.payload).subspan(16, 4),
             static_cast<std::uint32_t>(out.size()));
  ReplicationMessage reply;
  PRINS_RETURN_IF_ERROR(
      exchange(request, {}, MessageKind::kClientReadReply, &reply));
  if (reply.payload.size() != out.size()) {
    return corruption("client read reply carried " +
                      std::to_string(reply.payload.size()) + " bytes, want " +
                      std::to_string(out.size()));
  }
  std::copy(reply.payload.begin(), reply.payload.end(), out.begin());
  return Status::ok();
}

std::string WireBackend::describe() const {
  return "wire-backend(" + node_id_ + ", pool=" + std::to_string(pool_.size()) +
         ")";
}

// ---- ClusterRouter -------------------------------------------------------

ClusterRouter::ClusterRouter(std::uint32_t block_size, std::uint64_t num_blocks,
                             std::shared_ptr<const PgMap> map,
                             MapSource refresh, ClusterRouterConfig config)
    : block_size_(block_size),
      num_blocks_(num_blocks),
      config_(config),
      refresh_(std::move(refresh)),
      map_(std::move(map)) {
  pg_count_ = map_->pg_count();
  pg_ops_ = std::make_unique<std::atomic<std::uint64_t>[]>(pg_count_);
  for (std::uint32_t i = 0; i < pg_count_; ++i) pg_ops_[i].store(0);
}

void ClusterRouter::add_node(const std::string& node_id,
                             std::shared_ptr<PgBackend> backend) {
  std::lock_guard lock(map_mutex_);
  backends_[node_id] = std::move(backend);
}

void ClusterRouter::set_backend_source(BackendSource source) {
  std::lock_guard lock(map_mutex_);
  backend_source_ = std::move(source);
}

std::shared_ptr<PgBackend> ClusterRouter::backend_for(
    const std::string& node_id) {
  {
    std::lock_guard lock(map_mutex_);
    const auto it = backends_.find(node_id);
    if (it != backends_.end()) return it->second;
    if (!backend_source_) return nullptr;
  }
  // Build outside the lock (a wire backend source may open connections);
  // a racing resolve of the same node keeps the first cached entry.
  std::shared_ptr<PgBackend> fresh = backend_source_(node_id);
  if (!fresh) return nullptr;
  std::lock_guard lock(map_mutex_);
  auto [it, inserted] = backends_.emplace(node_id, std::move(fresh));
  return it->second;
}

std::shared_ptr<const PgMap> ClusterRouter::current_map() const {
  std::lock_guard lock(map_mutex_);
  return map_;
}

std::shared_ptr<const PgMap> ClusterRouter::map() const { return current_map(); }

std::uint64_t ClusterRouter::map_epoch() const { return current_map()->epoch(); }

bool ClusterRouter::refresh_map() {
  if (!refresh_) return false;
  std::shared_ptr<const PgMap> fresh = refresh_();
  if (!fresh) return false;
  std::lock_guard lock(map_mutex_);
  if (fresh->epoch() <= map_->epoch()) return false;
  // The PG count is fixed at genesis (maps evolve by deltas); a mismatch
  // would silently re-stripe the volume, so refuse it.
  if (fresh->pg_count() != map_->pg_count()) return false;
  map_ = std::move(fresh);
  map_refreshes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Status ClusterRouter::route_run(bool is_write, Lba lba, MutByteSpan read_out,
                                ByteSpan write_data) {
  std::chrono::milliseconds backoff = config_.retry_backoff;
  Status last = unavailable("cluster route: no attempt made");
  for (std::size_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
    const std::shared_ptr<const PgMap> map = current_map();
    const PgId pg = map->pg_of(lba);
    const PgAssignment& where = map->assignment(pg);
    Status s;
    if (where.primary.empty()) {
      s = unavailable("pg " + std::to_string(pg) + " has no live primary");
    } else {
      const std::shared_ptr<PgBackend> backend = backend_for(where.primary);
      if (!backend) {
        s = unavailable("no backend for node " + where.primary);
      } else if (is_write) {
        s = backend->write(lba, write_data, map->epoch());
      } else {
        s = backend->read(lba, read_out, map->epoch());
      }
    }
    if (s.is_ok()) {
      pg_ops_[pg].fetch_add(1, std::memory_order_relaxed);
      return s;
    }
    if (s.code() == ErrorCode::kFailedPrecondition) {
      wrong_pg_retries_.fetch_add(1, std::memory_order_relaxed);
    } else if (connection_error(s)) {
      unavailable_retries_.fetch_add(1, std::memory_order_relaxed);
    } else {
      return s;  // a real I/O error, not a routing artifact
    }
    last = s;
    if (refresh_map()) continue;  // new ownership: retry immediately
    // The control plane is still converging (promotion / migration in
    // progress): back off before asking again.
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, config_.max_backoff);
  }
  return last;
}

Status ClusterRouter::run_spans(bool is_write, Lba lba, std::size_t blocks,
                                MutByteSpan read_out, ByteSpan write_data) {
  const std::shared_ptr<const PgMap> map = current_map();
  std::size_t runs = 0;
  std::size_t i = 0;
  while (i < blocks) {
    const PgId pg = map->pg_of(lba + i);
    std::size_t j = i + 1;
    while (j < blocks && map->pg_of(lba + j) == pg) ++j;
    const std::size_t off = i * block_size_;
    const std::size_t len = (j - i) * block_size_;
    PRINS_RETURN_IF_ERROR(route_run(
        is_write, lba + i,
        is_write ? MutByteSpan{} : read_out.subspan(off, len),
        is_write ? write_data.subspan(off, len) : ByteSpan{}));
    ++runs;
    i = j;
  }
  if (runs > 1) {
    span_splits_.fetch_add(runs - 1, std::memory_order_relaxed);
  }
  if (is_write) {
    writes_.fetch_add(blocks, std::memory_order_relaxed);
  } else {
    reads_.fetch_add(blocks, std::memory_order_relaxed);
  }
  return Status::ok();
}

Status ClusterRouter::read(Lba lba, MutByteSpan out) {
  PRINS_RETURN_IF_ERROR(check_io(lba, out.size()));
  return run_spans(/*is_write=*/false, lba, out.size() / block_size_, out, {});
}

Status ClusterRouter::write(Lba lba, ByteSpan data) {
  PRINS_RETURN_IF_ERROR(check_io(lba, data.size()));
  return run_spans(/*is_write=*/true, lba, data.size() / block_size_, {}, data);
}

Status ClusterRouter::flush() {
  std::vector<std::shared_ptr<PgBackend>> backends;
  {
    std::lock_guard lock(map_mutex_);
    backends.reserve(backends_.size());
    for (auto& [id, backend] : backends_) backends.push_back(backend);
  }
  for (auto& backend : backends) {
    PRINS_RETURN_IF_ERROR(backend->flush());
  }
  return Status::ok();
}

std::string ClusterRouter::describe() const {
  const auto map = current_map();
  return "cluster-router(pgs=" + std::to_string(map->pg_count()) + ", epoch=" +
         std::to_string(map->epoch()) + ", nodes=" +
         std::to_string(map->nodes().size()) + ")";
}

RouterMetrics ClusterRouter::metrics() const {
  RouterMetrics m;
  m.reads = reads_.load(std::memory_order_relaxed);
  m.writes = writes_.load(std::memory_order_relaxed);
  m.span_splits = span_splits_.load(std::memory_order_relaxed);
  m.wrong_pg_retries = wrong_pg_retries_.load(std::memory_order_relaxed);
  m.unavailable_retries = unavailable_retries_.load(std::memory_order_relaxed);
  m.map_refreshes = map_refreshes_.load(std::memory_order_relaxed);
  m.map_epoch = current_map()->epoch();
  return m;
}

std::vector<std::uint64_t> ClusterRouter::pg_op_counts() const {
  std::vector<std::uint64_t> out(pg_count_);
  for (std::uint32_t i = 0; i < pg_count_; ++i) {
    out[i] = pg_ops_[i].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace prins::cluster
