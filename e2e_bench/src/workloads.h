// The three workloads.  Each is a closed loop: a session sends its next op
// only after the previous one completed, one iSCSI session per client
// thread, as in the paper's closed queueing model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probes.h"
#include "stack.h"

namespace e2e {

/// When a run measures, shared by every session thread.
struct Phase {
  std::int64_t window_start_ns = 0;  // ops starting earlier are warm-up
  std::int64_t deadline_ns = 0;      // no op starts at or after this
  std::uint64_t ops_per_session = 0; // fixed-count mode when non-zero
};

/// One session's state and samples.  Owned by its thread during the run.
class SessionContext {
 public:
  SessionContext(std::size_t session, const Phase& phase,
                 prins::BlockDevice& initiator)
      : session_(session), phase_(phase), disk_(initiator) {}

  std::size_t session() const { return session_; }
  ClientDisk& disk() { return disk_; }

  /// True while the session should start another op.
  bool keep_going() const {
    if (phase_.ops_per_session != 0) {
      return attempted_ < phase_.ops_per_session;
    }
    return now_ns() < phase_.deadline_ns;
  }
  /// Starts the op timer; the op's input must already be generated.
  std::int64_t begin_op() {
    const std::int64_t t0 = now_ns();
    op_id_ = (static_cast<std::uint64_t>(session_) << 48) | ++attempted_;
    in_window_ = t0 >= phase_.window_start_ns;
    disk_.begin_op(op_id_, in_window_);
    return t0;
  }
  /// Every op in the window counts towards ops per second; only one that
  /// ends while no spans are recorded gives a latency sample.
  void end_op(std::int64_t t0, bool ok) {
    const std::int64_t t1 = now_ns();
    const bool traced = Tracer::get().on();
    if (!ok) failed_ += 1;
    if (in_window_) {
      if (!traced) op_ns_.push_back(t1 - t0);
      op_end_ns_.push_back(t1);
    }
    if (traced) Tracer::get().record(Layer::kOp, t0, t1, 0, op_id_);
  }
  /// Records the time spent generating the next op's input.
  void generated(std::int64_t t0) {
    const std::int64_t t1 = now_ns();
    if (t0 >= phase_.window_start_ns) gen_ns_.push_back(t1 - t0);
    if (Tracer::get().on()) {
      // Stamped with the id the next begin_op() will assign.
      const std::uint64_t next =
          (static_cast<std::uint64_t>(session_) << 48) | (attempted_ + 1);
      Tracer::get().record(Layer::kGenerate, t0, t1, 0, next);
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::int64_t>& op_ns() const { return op_ns_; }
  const std::vector<std::int64_t>& op_end_ns() const { return op_end_ns_; }
  const std::vector<std::int64_t>& gen_ns() const { return gen_ns_; }

  std::string error;  // first failure, for the report

 private:
  std::size_t session_;
  const Phase& phase_;
  ClientDisk disk_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t op_id_ = 0;
  bool in_window_ = false;
  std::vector<std::int64_t> op_ns_;
  std::vector<std::int64_t> op_end_ns_;
  std::vector<std::int64_t> gen_ns_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual StackConfig stack_config() const = 0;
  /// What one op is, for the report.
  virtual const char* op_unit() const = 0;
  /// Writes the initial volume onto the raw primary.  Called once per
  /// set-up; the same seed gives the same volume every time.
  virtual prins::Status populate(prins::BlockDevice& primary) = 0;
  /// Called once the stack is up, before any op.
  virtual prins::Status prepare(Stack& stack) = 0;
  /// One session's closed loop.
  virtual void run_session(SessionContext& ctx) = 0;
  /// After drain: checks the client's view; returns the ops (or blocks)
  /// lost to a failed check.  Block commands it issues land in `readers`.
  virtual prins::Result<std::uint64_t> verify(
      Stack& stack, std::vector<std::unique_ptr<SessionContext>>& readers) = 0;
};

/// The names in BENCHMARK.json: tpcc-durable, rand-write, mixed-read.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace e2e
