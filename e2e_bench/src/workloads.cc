#include "workloads.h"

#include <cstring>
#include <thread>

#include "common/hash.h"
#include "common/rng.h"
#include "workload/byte_volume.h"
#include "workload/tpcc.h"

namespace e2e {

using namespace prins;

namespace {

constexpr std::uint32_t kBlockSize = 4096;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return mix64(seed * 0x9e3779b97f4a7c15ULL + stream + 1);
}

// ---------------------------------------------------------------------------
// tpcc-durable: the repo's TPC-C generator (default TpccConfig, 8 KiB pages
// on 4 KiB blocks) through a ByteVolume over one iSCSI session, against the
// durable node: FileDisk + ReplicationJournal on the primary, FileDisk +
// WriteIntentLog on the mirror.  An op is one transaction; the generator's
// own CPU is inside it and is reported apart as bench.generator_us.
class TpccDurable final : public Workload {
 public:
  explicit TpccDurable(std::uint64_t seed) {
    config_.seed = derive_seed(seed, 0);
    const Tpcc sizing(config_);
    blocks_ = (sizing.required_bytes() + kBlockSize - 1) / kBlockSize;
  }

  StackConfig stack_config() const override {
    StackConfig c;
    c.blocks = blocks_;
    c.block_size = kBlockSize;
    c.sessions = 1;
    c.durable = true;
    return c;
  }
  const char* op_unit() const override { return "transaction"; }

  Status populate(BlockDevice& primary) override {
    tpcc_ = std::make_unique<Tpcc>(config_);
    ByteVolume volume(primary);
    return tpcc_->setup(volume);
  }
  Status prepare(Stack&) override { return Status::ok(); }

  void run_session(SessionContext& ctx) override {
    ByteVolume volume(ctx.disk());
    while (ctx.keep_going()) {
      const std::int64_t t0 = ctx.begin_op();
      const auto r = tpcc_->run_transaction(volume);
      ctx.end_op(t0, r.is_ok());
      if (!r.is_ok()) {
        ctx.error = r.status().to_string();
        return;
      }
    }
  }

  Result<std::uint64_t> verify(
      Stack&, std::vector<std::unique_ptr<SessionContext>>&) override {
    return std::uint64_t{0};  // primary vs mirror is checked by the runner
  }

 private:
  TpccConfig config_;
  std::uint64_t blocks_ = 0;
  std::unique_ptr<Tpcc> tpcc_;
};

// ---------------------------------------------------------------------------
// rand-write and mixed-read: 4 sessions over an in-memory node (MemDisk, no
// journal), 64 MiB volume filled with seeded random bytes and mirror-seeded
// identically.  Session s owns the contiguous stripe s and keeps a shadow
// copy of it; a write rewrites one random 256-byte region of a block, a
// read must return the shadow's bytes.
class BlockMix final : public Workload {
 public:
  struct Shape {
    unsigned read_percent = 0;   // 0: writes only
    std::uint64_t hot_blocks = 0;  // per stripe; 0: uniform access
    unsigned hot_percent = 0;    // share of ops on the hot blocks
    bool read_offload = false;
  };

  BlockMix(std::uint64_t seed, Shape shape) : seed_(seed), shape_(shape) {}

  StackConfig stack_config() const override {
    StackConfig c;
    c.blocks = kBlocks;
    c.block_size = kBlockSize;
    c.sessions = kSessions;
    c.read_offload = shape_.read_offload;
    return c;
  }
  const char* op_unit() const override { return "block command"; }

  Status populate(BlockDevice& primary) override {
    Rng rng(derive_seed(seed_, 100));
    Bytes chunk(256 * kBlockSize);
    for (Lba lba = 0; lba < kBlocks; lba += 256) {
      rng.fill(chunk);
      PRINS_RETURN_IF_ERROR(primary.write(lba, chunk));
    }
    return Status::ok();
  }

  Status prepare(Stack& stack) override {
    shadows_.assign(kSessions, Bytes(kStripeBlocks * kBlockSize));
    for (std::size_t s = 0; s < kSessions; ++s) {
      PRINS_RETURN_IF_ERROR(
          stack.primary_device().read(s * kStripeBlocks, shadows_[s]));
    }
    return Status::ok();
  }

  void run_session(SessionContext& ctx) override {
    const std::size_t s = ctx.session();
    Rng rng(derive_seed(seed_, 200 + s));
    Bytes& shadow = shadows_[s];
    Bytes block(kBlockSize);
    Bytes patch(kPatchBytes);
    while (ctx.keep_going()) {
      // Input generation, before the op timer.
      const std::int64_t g0 = now_ns();
      const bool hot = shape_.hot_blocks != 0 &&
                       rng.next_below(100) < shape_.hot_percent;
      const Lba offset =
          rng.next_below(hot ? shape_.hot_blocks : kStripeBlocks);
      const bool is_read = rng.next_below(100) < shape_.read_percent;
      std::size_t at = 0;
      if (!is_read) {
        at = rng.next_below(kBlockSize - kPatchBytes + 1);
        rng.fill(patch);
      }
      ctx.generated(g0);

      Byte* expected = shadow.data() + offset * kBlockSize;
      const Lba lba = s * kStripeBlocks + offset;
      const std::int64_t t0 = ctx.begin_op();
      Status st = Status::ok();
      if (is_read) {
        st = ctx.disk().read(lba, block);
        if (st.is_ok() &&
            std::memcmp(block.data(), expected, kBlockSize) != 0) {
          st = corruption_error("read of block " + std::to_string(lba) +
                               " does not match the session's shadow");
        }
      } else {
        std::memcpy(block.data(), expected, kBlockSize);
        std::memcpy(block.data() + at, patch.data(), kPatchBytes);
        st = ctx.disk().write(lba, block);
        if (st.is_ok()) std::memcpy(expected, block.data(), kBlockSize);
      }
      ctx.end_op(t0, st.is_ok());
      if (!st.is_ok()) {
        ctx.error = st.to_string();
        return;  // the shadow is no longer trustworthy
      }
    }
  }

  Result<std::uint64_t> verify(
      Stack& stack,
      std::vector<std::unique_ptr<SessionContext>>& readers) override {
    // The primary must hold every session's shadow.
    std::uint64_t lost = 0;
    Bytes stripe(kStripeBlocks * kBlockSize);
    for (std::size_t s = 0; s < kSessions; ++s) {
      PRINS_RETURN_IF_ERROR(
          stack.primary_device().read(s * kStripeBlocks, stripe));
      for (Lba i = 0; i < kStripeBlocks; ++i) {
        lost += std::memcmp(stripe.data() + i * kBlockSize,
                            shadows_[s].data() + i * kBlockSize,
                            kBlockSize) != 0;
      }
    }
    if (shape_.read_percent != 0) return lost;
    // A writes-only run reads its stripes back through iSCSI, all sessions
    // at once; these commands are the workload's read samples.  Several
    // passes keep one host hiccup from moving their median.
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        SessionContext& ctx = *readers[s];
        Bytes block(kBlockSize);
        for (Lba n = 0; n < kReadbackPasses * kStripeBlocks; ++n) {
          const Lba i = n % kStripeBlocks;
          const std::int64_t t0 = ctx.begin_op();
          Status st = ctx.disk().read(s * kStripeBlocks + i, block);
          if (st.is_ok() &&
              std::memcmp(block.data(), shadows_[s].data() + i * kBlockSize,
                          kBlockSize) != 0) {
            st = corruption_error("read-back mismatch");
          }
          ctx.end_op(t0, st.is_ok());
          if (!st.is_ok() && ctx.error.empty()) ctx.error = st.to_string();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const auto& reader : readers) lost += reader->failed();
    return lost;
  }

 private:
  static constexpr std::size_t kSessions = 4;
  static constexpr std::uint64_t kBlocks = (64u << 20) / kBlockSize;
  static constexpr std::uint64_t kStripeBlocks = kBlocks / kSessions;
  static constexpr std::size_t kPatchBytes = 256;
  static constexpr Lba kReadbackPasses = 4;

  std::uint64_t seed_;
  Shape shape_;
  std::vector<Bytes> shadows_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "tpcc-durable") return std::make_unique<TpccDurable>(seed);
  if (name == "rand-write") {
    return std::make_unique<BlockMix>(seed, BlockMix::Shape{});
  }
  if (name == "mixed-read") {
    // 80% reads; 90% of ops on 64 hot blocks (256 KiB) of each stripe.
    return std::make_unique<BlockMix>(
        seed, BlockMix::Shape{.read_percent = 80,
                              .hot_blocks = 64,
                              .hot_percent = 90,
                              .read_offload = true});
  }
  return nullptr;
}

}  // namespace e2e
