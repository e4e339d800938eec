#include "stack.h"

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "block/file_disk.h"
#include "block/mem_disk.h"
#include "iscsi/reactor_target.h"
#include "iscsi/target.h"
#include "net/reactor.h"
#include "net/reactor_tcp.h"
#include "net/tcp.h"
#include "prins/journal.h"
#include "prins/reactor_server.h"
#include "prins/read_router.h"

namespace e2e {

using namespace prins;

namespace {

constexpr Lba kCopyChunkBlocks = 256;

Status copy_device(BlockDevice& from, BlockDevice& to) {
  const std::uint32_t bs = from.block_size();
  Bytes chunk;
  for (Lba lba = 0; lba < from.num_blocks(); lba += kCopyChunkBlocks) {
    const Lba n = std::min<Lba>(kCopyChunkBlocks, from.num_blocks() - lba);
    chunk.resize(n * bs);
    PRINS_RETURN_IF_ERROR(from.read(lba, chunk));
    PRINS_RETURN_IF_ERROR(to.write(lba, chunk));
  }
  return Status::ok();
}

}  // namespace

Result<std::unique_ptr<MemFile>> MemFile::create(const std::string& name) {
  const int fd = ::memfd_create(name.c_str(), MFD_CLOEXEC);
  if (fd < 0) {
    return io_error("memfd_create(" + name + "): " + std::strerror(errno));
  }
  return std::unique_ptr<MemFile>(new MemFile(fd));
}

MemFile::MemFile(int fd)
    : fd_(fd), path_("/proc/self/fd/" + std::to_string(fd)) {}

MemFile::~MemFile() { ::close(fd_); }

std::uint64_t MemFile::size() const {
  struct stat st {};
  return ::fstat(fd_, &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

struct Stack::Nodes {
  std::shared_ptr<ReactorPool> storage_pool;
  std::shared_ptr<ReactorPool> replica_pool;
  std::unique_ptr<ReactorReplicaServer> replica_server;
  std::shared_ptr<ReadRouter> router;
  std::shared_ptr<iscsi::IscsiTarget> target;
  std::unique_ptr<iscsi::ReactorIscsiServer> target_server;
};

Result<std::unique_ptr<Stack>> Stack::start(
    const StackConfig& config,
    const std::function<Status(BlockDevice&)>& populate) {
  std::unique_ptr<Stack> stack(new Stack());
  stack->config_ = config;
  stack->nodes_ = std::make_unique<Nodes>();
  Nodes& nodes = *stack->nodes_;

  // --- devices, populated and mirror-seeded before any node starts -------
  auto open_file = [&](const char* name) -> Result<MemFile*> {
    PRINS_ASSIGN_OR_RETURN(auto file, MemFile::create(name));
    stack->files_.push_back(std::move(file));
    return stack->files_.back().get();
  };
  if (config.durable) {
    PRINS_ASSIGN_OR_RETURN(MemFile * primary_file, open_file("primary.img"));
    PRINS_ASSIGN_OR_RETURN(MemFile * mirror_file, open_file("mirror.img"));
    PRINS_ASSIGN_OR_RETURN(stack->journal_file_, open_file("primary.journal"));
    PRINS_ASSIGN_OR_RETURN(MemFile * intent_file, open_file("mirror.intents"));
    PRINS_ASSIGN_OR_RETURN(
        stack->primary_raw_,
        FileDisk::open(primary_file->path(), config.blocks, config.block_size));
    PRINS_ASSIGN_OR_RETURN(
        stack->mirror_raw_,
        FileDisk::open(mirror_file->path(), config.blocks, config.block_size));
    PRINS_ASSIGN_OR_RETURN(stack->journal_, ReplicationJournal::open(
                                                stack->journal_file_->path()));
    PRINS_ASSIGN_OR_RETURN(stack->intent_log_,
                           WriteIntentLog::open(intent_file->path()));
  } else {
    stack->primary_raw_ =
        std::make_shared<MemDisk>(config.blocks, config.block_size);
    stack->mirror_raw_ =
        std::make_shared<MemDisk>(config.blocks, config.block_size);
  }
  PRINS_RETURN_IF_ERROR(populate(*stack->primary_raw_));
  PRINS_RETURN_IF_ERROR(copy_device(*stack->primary_raw_, *stack->mirror_raw_));
  stack->primary_probe_ = std::make_shared<TimedDisk>(
      stack->primary_raw_, Layer::kPrimaryRead, Layer::kPrimaryWrite);
  stack->mirror_probe_ = std::make_shared<TimedDisk>(
      stack->mirror_raw_, Layer::kReplicaRead, Layer::kReplicaWrite);

  // --- replica node --------------------------------------------------------
  PRINS_ASSIGN_OR_RETURN(nodes.replica_pool,
                         ReactorPool::create(kPinned.replica_reactor_loops));
  ReplicaConfig replica_config;
  replica_config.intent_log = stack->intent_log_;
  replica_config.apply_shards = kPinned.apply_shards;
  stack->replica_ =
      std::make_shared<ReplicaEngine>(stack->mirror_probe_, replica_config);
  PRINS_ASSIGN_OR_RETURN(
      nodes.replica_server,
      ReactorReplicaServer::start(stack->replica_, nodes.replica_pool));
  const std::uint16_t replica_port = nodes.replica_server->port();

  // --- storage node: engine, optional read router, iSCSI target ----------
  PRINS_ASSIGN_OR_RETURN(nodes.storage_pool,
                         ReactorPool::create(kPinned.storage_reactor_loops));
  auto connect_replica = [&]() -> Result<std::unique_ptr<Transport>> {
    return ReactorTcpTransport::connect(
        nodes.storage_pool->next().shared_from_this(), "127.0.0.1",
        replica_port);
  };
  EngineConfig engine_config;
  engine_config.policy = ReplicationPolicy::kPrins;
  engine_config.queue_capacity = kPinned.queue_capacity;
  engine_config.pipeline_depth = kPinned.pipeline_depth;
  engine_config.write_shards = kPinned.write_shards;
  engine_config.journal = stack->journal_;
  engine_config.reactor = nodes.storage_pool->at(0).shared_from_this();
  engine_config.reactor_senders = true;
  engine_config.read_from_replicas = config.read_offload;
  stack->engine_ =
      std::make_shared<PrinsEngine>(stack->primary_probe_, engine_config);
  PRINS_ASSIGN_OR_RETURN(auto replica_link, connect_replica());
  auto timed_link = std::make_unique<TimedLink>(std::move(replica_link),
                                                TimedLink::Kind::kReplica);
  stack->replica_link_ = timed_link.get();
  stack->engine_->add_replica(std::move(timed_link));

  std::shared_ptr<BlockDevice> served = stack->engine_;
  if (config.read_offload) {
    nodes.router = std::make_shared<ReadRouter>(stack->engine_);
    PRINS_ASSIGN_OR_RETURN(auto read_link, connect_replica());
    nodes.router->add_read_replica(std::make_unique<TimedLink>(
        std::move(read_link), TimedLink::Kind::kRead));
    served = nodes.router;
  }
  stack->target_probe_ = std::make_shared<TimedDisk>(
      served, Layer::kTargetRead, Layer::kTargetWrite);
  nodes.target = std::make_shared<iscsi::IscsiTarget>(stack->target_probe_);
  iscsi::ReactorIscsiServerOptions target_options;
  target_options.worker_threads = kPinned.iscsi_workers;
  PRINS_ASSIGN_OR_RETURN(nodes.target_server,
                         iscsi::ReactorIscsiServer::start(
                             nodes.target, nodes.storage_pool, target_options));

  // --- application host: one initiator per session -----------------------
  for (std::size_t i = 0; i < config.sessions; ++i) {
    PRINS_ASSIGN_OR_RETURN(
        auto link,
        TcpTransport::connect("127.0.0.1", nodes.target_server->port()));
    PRINS_ASSIGN_OR_RETURN(auto initiator,
                           iscsi::IscsiInitiator::login(std::move(link)));
    stack->initiators_.push_back(std::move(initiator));
  }
  return stack;
}

Status Stack::stop() {
  if (nodes_ == nullptr) return Status::ok();
  Status result = Status::ok();
  for (auto& initiator : initiators_) {
    const Status s = initiator->logout();
    if (result.is_ok() && !s.is_ok()) result = s;
  }
  initiators_.clear();
  // The target co-owns the engine (through the probe and the router), so it
  // goes first; dropping the last engine reference closes the replica link.
  if (nodes_->target_server != nullptr) nodes_->target_server->stop();
  nodes_->target_server.reset();
  nodes_->target.reset();
  target_probe_.reset();
  nodes_->router.reset();
  replica_link_ = nullptr;
  engine_.reset();
  if (nodes_->replica_server != nullptr) nodes_->replica_server->stop();
  nodes_->replica_server.reset();
  replica_.reset();
  nodes_.reset();
  return result;
}

Stack::~Stack() { (void)stop(); }

Result<std::uint64_t> Stack::count_divergent_blocks() {
  const std::uint32_t bs = config_.block_size;
  Bytes a, b;
  std::uint64_t divergent = 0;
  for (Lba lba = 0; lba < config_.blocks; lba += kCopyChunkBlocks) {
    const Lba n = std::min<Lba>(kCopyChunkBlocks, config_.blocks - lba);
    a.resize(n * bs);
    b.resize(n * bs);
    PRINS_RETURN_IF_ERROR(primary_raw_->read(lba, a));
    PRINS_RETURN_IF_ERROR(mirror_raw_->read(lba, b));
    for (Lba i = 0; i < n; ++i) {
      divergent += std::memcmp(a.data() + i * bs, b.data() + i * bs, bs) != 0;
    }
  }
  return divergent;
}

std::uint64_t Stack::journal_file_bytes() const {
  return journal_file_ == nullptr ? 0 : journal_file_->size();
}

}  // namespace e2e
