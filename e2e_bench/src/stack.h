// The PRINS stack under test, stood up in one process over loopback TCP:
//
//   IscsiInitiator (TcpTransport, one per session)
//     -> ReactorIscsiServer / IscsiTarget            [storage node pool]
//        -> TimedDisk (target's device call)
//           -> ReadRouter (mixed-read only) -> read link to the mirror
//           -> PrinsEngine (kPrins, reactor senders)
//              -> TimedDisk -> primary MemDisk | FileDisk + journal
//              -> TimedLink -> ReactorTcpTransport replica link
//                 -> ReactorReplicaServer / ReplicaEngine [replica pool]
//                    -> TimedDisk -> mirror MemDisk | FileDisk + intent log
//
// Every environment-sensitive setting is pinned here (see kPinned) so the
// result does not depend on PRINS_* variables or the host's thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "block/block_device.h"
#include "common/status.h"
#include "iscsi/initiator.h"
#include "prins/engine.h"
#include "prins/replica.h"
#include "probes.h"

namespace e2e {

/// Values the library would otherwise take from the environment or the
/// hardware thread count.
struct Pinned {
  std::size_t write_shards = 4;
  std::size_t apply_shards = 2;
  std::size_t storage_reactor_loops = 2;
  std::size_t replica_reactor_loops = 1;
  std::size_t iscsi_workers = 2;
  /// Not the shipped default of 1: at 1 the outbox stays full and
  /// rand-write measures only the replica link's round trip.  32 is the
  /// smallest depth tried at which replication keeps up (see README).
  std::size_t pipeline_depth = 32;
  std::size_t queue_capacity = 1024;
};
inline constexpr Pinned kPinned{};

struct StackConfig {
  std::uint64_t blocks = 0;
  std::uint32_t block_size = 4096;
  std::size_t sessions = 1;
  /// FileDisks on anonymous tmpfs files, a ReplicationJournal on the
  /// primary and a WriteIntentLog on the mirror.  Otherwise MemDisks.
  bool durable = false;
  /// ReadRouter with one read link to the mirror, and read_from_replicas.
  bool read_offload = false;
};

/// A file on anonymous tmpfs (memfd), opened by path through /proc/self/fd.
/// Nothing is created in any directory, and the memory is returned when
/// the last descriptor closes.
class MemFile {
 public:
  static prins::Result<std::unique_ptr<MemFile>> create(
      const std::string& name);
  ~MemFile();
  MemFile(const MemFile&) = delete;
  MemFile& operator=(const MemFile&) = delete;

  const std::string& path() const { return path_; }
  std::uint64_t size() const;

 private:
  explicit MemFile(int fd);
  int fd_;
  std::string path_;
};

class Stack {
 public:
  /// Creates the devices, calls `populate` on the raw primary, seeds the
  /// mirror with an identical copy, starts both nodes and logs every
  /// session in.  Everything it does counts as set-up.
  static prins::Result<std::unique_ptr<Stack>> start(
      const StackConfig& config,
      const std::function<prins::Status(prins::BlockDevice&)>& populate);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const StackConfig& config() const { return config_; }
  prins::iscsi::IscsiInitiator& initiator(std::size_t session) {
    return *initiators_[session];
  }

  /// Waits until the mirror has acknowledged every write.
  prins::Status drain() { return engine_->drain(); }
  /// Logs out and stops both nodes.
  prins::Status stop();

  /// Number of blocks that differ between the raw primary and the mirror.
  prins::Result<std::uint64_t> count_divergent_blocks();
  prins::BlockDevice& primary_device() { return *primary_raw_; }

  prins::PrinsEngine& engine() { return *engine_; }
  prins::ReplicaEngine& replica() { return *replica_; }
  const TimedDisk& target_probe() const { return *target_probe_; }
  const TimedDisk& primary_probe() const { return *primary_probe_; }
  const TimedDisk& mirror_probe() const { return *mirror_probe_; }
  const TimedLink& replica_link() const { return *replica_link_; }
  prins::ReplicationJournal* journal() { return journal_.get(); }
  /// Bytes the journal file holds now.
  std::uint64_t journal_file_bytes() const;

 private:
  struct Nodes;  // servers, pools and the ReadRouter, torn down in order
  Stack() = default;

  StackConfig config_;
  std::vector<std::unique_ptr<MemFile>> files_;  // primary, mirror, logs
  std::shared_ptr<prins::BlockDevice> primary_raw_;
  std::shared_ptr<prins::BlockDevice> mirror_raw_;
  std::shared_ptr<TimedDisk> primary_probe_;
  std::shared_ptr<TimedDisk> mirror_probe_;
  std::shared_ptr<TimedDisk> target_probe_;
  std::shared_ptr<prins::ReplicationJournal> journal_;
  std::shared_ptr<prins::WriteIntentLog> intent_log_;
  MemFile* journal_file_ = nullptr;
  std::shared_ptr<prins::ReplicaEngine> replica_;
  std::shared_ptr<prins::PrinsEngine> engine_;
  TimedLink* replica_link_ = nullptr;  // owned by engine_
  std::unique_ptr<Nodes> nodes_;
  std::vector<std::unique_ptr<prins::iscsi::IscsiInitiator>> initiators_;
};

}  // namespace e2e
