// Span recording for the traced run, and the summariser that turns spans
// into per-layer self times.
//
// Spans are recorded only from the benchmark's own decorators, around calls
// into each layer's public interface; nothing inside src/ is instrumented.
// Recording is off unless the process-wide tracer is switched on, so the
// untraced run pays one relaxed atomic load per decorated call.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One layer boundary.  Client layers run on the session threads; server
/// layers run on the target's worker threads; async layers run off the
/// client's blocking path (reactor loops, replica apply workers).
enum class Layer : std::uint8_t {
  kOp = 0,        // client: one workload op (block op or transaction)
  kGenerate,      // client: generating one op's input, before its timer
  kIscsiRead,     // client: IscsiInitiator::read
  kIscsiWrite,    // client: IscsiInitiator::write
  kTargetRead,    // server: the device call IscsiTarget makes for a read
  kTargetWrite,   // server: ... for a write (PrinsEngine::write below it)
  kPrimaryRead,   // server: the engine's local device, read
  kPrimaryWrite,  // server: the engine's local device, write
  kReadLink,      // server: ReadRouter read-link exchange, send to reply
  kLinkSend,      // async: send on the engine's replica link
  kReplicaRead,   // async: the replica's local device, read
  kReplicaWrite,  // async: the replica's local device, write
  kCount
};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t lba = 0;  // first LBA of the I/O; 0 for kOp/kGenerate
  std::uint64_t op = 0;   // client op id; 0 where the recorder cannot know it
  std::uint32_t thread = 0;
  Layer layer = Layer::kOp;
};

/// Process-wide span sink.  Each recording thread appends to a buffer of
/// its own; buffers are owned here, so a thread may exit at any time.
class Tracer {
 public:
  static Tracer& get();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  void record(Layer layer, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t lba, std::uint64_t op);

  /// Moves every recorded span out.  Call only once recording threads are
  /// quiet (tracer off and the stack drained).
  std::vector<Span> take();
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> dropped_{0};
  std::mutex mutex_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Times one call when the tracer is on; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, std::uint64_t lba, std::uint64_t op = 0)
      : layer_(layer),
        lba_(lba),
        op_(op),
        start_(Tracer::get().on() ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (start_ != 0) Tracer::get().record(layer_, start_, now_ns(), lba_, op_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Layer layer_;
  std::uint64_t lba_;
  std::uint64_t op_;
  std::int64_t start_;
};

/// Result of summarising one traced run.
struct TraceSummary {
  std::uint64_t ops = 0;            // traced client ops
  std::uint64_t unattributed = 0;   // server spans matched to no client op
  /// Self time per layer row, summed over traced ops, in microseconds.
  std::vector<std::pair<std::string, double>> self_us;
  /// Durations (µs) of every span, per layer.
  std::vector<double> durations_us[static_cast<int>(Layer::kCount)];
  std::vector<double> iscsi_self_us;       // client command minus device call
  std::vector<double> op_self_us;          // op minus its block commands
  std::vector<double> router_self_us;      // target read minus link + primary
  std::vector<double> read_old_us;         // primary reads inside a write
  /// Parent span index per span (-1: none), in the order of `spans`.
  std::vector<std::int64_t> parents;
};

/// Attributes server spans to client commands and computes self times.
/// A server span belongs to the command of the session owning its LBA
/// (session = lba / stripe_blocks) whose interval contains it: sound
/// because each session has one command outstanding and owns its stripe.
/// Within one server thread, spans nest by time.  `has_router` names the
/// layer under the target: the ReadRouter when present, else the engine.
TraceSummary summarise(const std::vector<Span>& spans,
                       std::uint64_t stripe_blocks, bool has_router);

/// Writes spans as CSV (id, parent, op, layer, thread, start_ns, end_ns,
/// lba) with the parents summarise() assigned.
bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::int64_t>& parents);

}  // namespace e2e
