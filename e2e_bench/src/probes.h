// Bench-local decorators that measure each layer from outside, through the
// public BlockDevice and Transport interfaces.  They forward every call
// unchanged; counters are always kept (one relaxed atomic add), spans only
// while the tracer is on.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "block/block_device.h"
#include "net/traffic_meter.h"
#include "net/transport.h"
#include "trace.h"

namespace e2e {

/// Times a block device.  Used under the iSCSI target (the device call it
/// makes), under the engine (the primary's local device) and under the
/// replica (the mirror's local device).
class TimedDisk final : public prins::BlockDevice {
 public:
  TimedDisk(std::shared_ptr<prins::BlockDevice> inner, Layer read_layer,
            Layer write_layer)
      : inner_(std::move(inner)),
        read_layer_(read_layer),
        write_layer_(write_layer) {}

  std::uint32_t block_size() const override { return inner_->block_size(); }
  std::uint64_t num_blocks() const override { return inner_->num_blocks(); }
  prins::Status read(prins::Lba lba, prins::MutByteSpan out) override {
    reads_.fetch_add(1, std::memory_order_relaxed);
    ScopedSpan span(read_layer_, lba);
    return inner_->read(lba, out);
  }
  prins::Status write(prins::Lba lba, prins::ByteSpan data) override {
    writes_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(data.size(), std::memory_order_relaxed);
    ScopedSpan span(write_layer_, lba);
    return inner_->write(lba, data);
  }
  prins::Status flush() override { return inner_->flush(); }
  std::string describe() const override {
    return "timed(" + inner_->describe() + ")";
  }

  std::uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  std::uint64_t writes() const {
    return writes_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<prins::BlockDevice> inner_;
  Layer read_layer_;
  Layer write_layer_;
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
};

/// Meters a link with TrafficMeter's packet model.  On the engine's replica
/// link it times each send; on the ReadRouter's read link it also times
/// each exchange from request send to reply.  Unlike TrafficMeter it
/// forwards underlying(), so a reactor link wrapped in it keeps its
/// reactor-driven sender.
class TimedLink final : public prins::Transport {
 public:
  enum class Kind { kReplica, kRead };

  TimedLink(std::unique_ptr<prins::Transport> inner, Kind kind)
      : inner_(std::move(inner)), kind_(kind) {}

  prins::Status send(prins::ByteSpan message) override {
    const std::int64_t t0 = now_ns();
    prins::Status s = inner_->send(message);
    finish_send(t0, s, message.size());
    return s;
  }
  prins::Status send_vec(std::span<const prins::ByteSpan> parts) override {
    std::size_t total = 0;
    for (const prins::ByteSpan& part : parts) total += part.size();
    const std::int64_t t0 = now_ns();
    prins::Status s = inner_->send_vec(parts);
    finish_send(t0, s, total);
    return s;
  }
  prins::Result<prins::Bytes> recv() override {
    auto r = inner_->recv();
    finish_recv(r.is_ok());
    return r;
  }
  prins::Result<prins::Bytes> recv_for(
      std::chrono::milliseconds timeout) override {
    auto r = inner_->recv_for(timeout);
    finish_recv(r.is_ok());
    return r;
  }
  void close() override { inner_->close(); }
  std::string describe() const override {
    return "timed(" + inner_->describe() + ")";
  }
  prins::Transport* underlying() override { return inner_->underlying(); }

  prins::TrafficStats sent() const {
    std::lock_guard lock(mutex_);
    return sent_;
  }

 private:
  void finish_send(std::int64_t t0, const prins::Status& s, std::size_t size) {
    if (!s.is_ok()) return;
    {
      std::lock_guard lock(mutex_);
      sent_.add_message(size);
      last_send_ns_ = t0;
    }
    if (kind_ == Kind::kReplica && Tracer::get().on()) {
      Tracer::get().record(Layer::kLinkSend, t0, now_ns(), 0, 0);
    }
  }
  void finish_recv(bool ok) {
    if (!ok || kind_ != Kind::kRead || !Tracer::get().on()) return;
    std::int64_t t0 = 0;
    {
      std::lock_guard lock(mutex_);
      t0 = last_send_ns_;
    }
    // The router keeps one exchange per link on the wire (its link mutex),
    // so the last send is this reply's request.  lba 0 is never used for
    // attribution: exchanges nest inside the target span on this thread.
    Tracer::get().record(Layer::kReadLink, t0, now_ns(), 0, 0);
  }

  std::unique_ptr<prins::Transport> inner_;
  Kind kind_;
  mutable std::mutex mutex_;  // guards sent_ and last_send_ns_
  prins::TrafficStats sent_;
  std::int64_t last_send_ns_ = 0;
};

/// The application host's view of one iSCSI session: times every block
/// command at the initiator and keeps the latency samples of the measured
/// window.  Owned and used by one session thread.
class ClientDisk final : public prins::BlockDevice {
 public:
  explicit ClientDisk(prins::BlockDevice& initiator) : initiator_(initiator) {}

  std::uint32_t block_size() const override {
    return initiator_.block_size();
  }
  std::uint64_t num_blocks() const override {
    return initiator_.num_blocks();
  }
  prins::Status read(prins::Lba lba, prins::MutByteSpan out) override {
    const std::int64_t t0 = now_ns();
    prins::Status s = initiator_.read(lba, out);
    finish(Layer::kIscsiRead, t0, lba, read_ns_);
    return s;
  }
  prins::Status write(prins::Lba lba, prins::ByteSpan data) override {
    const std::int64_t t0 = now_ns();
    prins::Status s = initiator_.write(lba, data);
    finish(Layer::kIscsiWrite, t0, lba, write_ns_);
    return s;
  }
  prins::Status flush() override { return initiator_.flush(); }
  std::string describe() const override { return initiator_.describe(); }

  /// Op id stamped on the command spans that follow; `record` says whether
  /// their latencies belong to the measured window.
  void begin_op(std::uint64_t op, bool record) {
    op_ = op;
    record_ = record;
  }

  std::vector<std::int64_t>& read_ns() { return read_ns_; }
  std::vector<std::int64_t>& write_ns() { return write_ns_; }

 private:
  // A command that ends while spans are recorded is not sampled: span
  // recording would inflate its latency.
  void finish(Layer layer, std::int64_t t0, prins::Lba lba,
              std::vector<std::int64_t>& samples) {
    const std::int64_t t1 = now_ns();
    if (Tracer::get().on()) {
      Tracer::get().record(layer, t0, t1, lba, op_);
    } else if (record_) {
      samples.push_back(t1 - t0);
    }
  }

  prins::BlockDevice& initiator_;
  std::uint64_t op_ = 0;
  bool record_ = false;
  std::vector<std::int64_t> read_ns_;
  std::vector<std::int64_t> write_ns_;
};

}  // namespace e2e
