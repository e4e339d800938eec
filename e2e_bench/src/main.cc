// e2e_bench: one end-to-end benchmark of the PRINS stack.
//
//   e2e_bench --workload <tpcc-durable|rand-write|mixed-read> --seed <n>
//             --seconds <s> --trace <0|1> [--ops <n>] [--trace-out <file.csv>]
//
// Sets the stack up kSetups times (the last one is measured), warms up,
// then runs closed-loop sessions for --seconds (or exactly --ops ops per
// session).  After the run it drains replication and checks the outputs:
// primary and mirror must be byte-identical, and the block workloads'
// shadow copies must match the primary.  The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones.
#include <sys/utsname.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "parity/kernels.h"
#include "prins/journal.h"
#include "stack.h"
#include "trace.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace prins;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint64_t ops = 0;  // per session; 0 = timed
  std::string trace_out;
};

bool parse_u64(const char* s, std::uint64_t* out) {
  const char* end = s + std::strlen(s);
  auto [p, ec] = std::from_chars(s, end, *out);
  return ec == std::errc() && p == end;
}

bool parse_args(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      o->workload = v;
    } else if (flag == "--seed" && parse_u64(v, &n)) {
      o->seed = n;
    } else if (flag == "--seconds" && parse_u64(v, &n) && n >= 1 && n <= 120) {
      o->seconds = static_cast<double>(n);
    } else if (flag == "--trace" && parse_u64(v, &n) && n <= 1) {
      o->trace = n == 1;
    } else if (flag == "--ops" && parse_u64(v, &n)) {
      o->ops = n;
    } else if (flag == "--trace-out") {
      o->trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o->workload.empty();
}

// --- statistics ------------------------------------------------------------

/// The repository's order-statistic quantile, on a copy of `v`.
double quantile(std::vector<double> v, double q) {
  return bench::quantile(v, q);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The highest of p99/p90/p50 that leaves at least ten samples beyond it.
double tail_q(std::size_t n) {
  for (double q : {0.99, 0.90}) {
    if (n > static_cast<std::size_t>(q * static_cast<double>(n)) + 10) {
      return q;
    }
  }
  return 0.50;
}

struct Timing {
  double p50 = 0;
  double tail = 0;
  double q = 0.5;
  std::size_t n = 0;
  double max = 0;
};

Timing timing_us(std::vector<double> v) {
  Timing t;
  t.n = v.size();
  t.q = tail_q(t.n);
  // Increasing q, as bench::quantile's partial reordering requires.
  t.p50 = bench::quantile(v, 0.5);
  t.tail = bench::quantile(v, t.q);
  t.max = bench::quantile(v, 1.0);
  return t;
}

std::vector<double> ns_to_us(const std::vector<std::int64_t>& ns) {
  std::vector<double> out;
  out.reserve(ns.size());
  for (std::int64_t x : ns) out.push_back(static_cast<double>(x) / 1000.0);
  return out;
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// --- report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, p) : "0";
}

void print_timing(const std::string& label, const Timing& t) {
  std::printf(
      "  %-34s p50 %10.2f us   p%-2.0f %10.2f us   n=%zu   max %.0f us\n",
      label.c_str(), t.p50, t.q * 100, t.tail, t.n, t.max);
}

/// Prints each metric for people and keeps it for the JSON result.
class Report {
 public:
  void value(const std::string& name, double v, const std::string& unit) {
    std::printf("  %-34s %14.4f %s\n", name.c_str(), v, unit.c_str());
    add(name, v, unit);
  }
  /// A timing reported by its median; the tail and sample count are printed.
  void median_of(const std::string& name, const std::vector<double>& v) {
    const Timing t = timing_us(v);
    print_timing(name, t);
    add(name, t.p50, "us");
  }
  void add(const std::string& name, double v, const std::string& unit) {
    metrics_.push_back(Metric{name, std::isfinite(v) ? v : 0, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// --- counters snapshotted around the run ------------------------------------

struct Counters {
  EngineMetrics engine;
  ReplicaMetrics replica;
  TrafficStats link;
  std::uint64_t target_reads = 0, user_bytes = 0;
  std::uint64_t primary_reads = 0, primary_writes = 0, primary_bytes = 0;
  std::uint64_t mirror_reads = 0, mirror_bytes = 0;
  std::uint64_t journal_bytes = 0;
};

Counters snapshot(Stack& stack) {
  Counters c;
  c.engine = stack.engine().metrics();
  c.replica = stack.replica().metrics();
  c.link = stack.replica_link().sent();
  c.target_reads = stack.target_probe().reads();
  c.user_bytes = stack.target_probe().bytes_written();
  c.primary_reads = stack.primary_probe().reads();
  c.primary_writes = stack.primary_probe().writes();
  c.primary_bytes = stack.primary_probe().bytes_written();
  c.mirror_reads = stack.mirror_probe().reads();
  c.mirror_bytes = stack.mirror_probe().bytes_written();
  c.journal_bytes = stack.journal_file_bytes();
  return c;
}

std::string config_stamp(const Options& o, Stack& stack) {
  struct utsname u {};
  ::uname(&u);
  const StackConfig& c = stack.config();
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"config\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"ops_per_session\": %llu, \"sessions\": %zu, \"blocks\": %llu, "
      "\"block_size\": %u, \"policy\": \"kPrins\", \"replicas\": 1, "
      "\"write_shard_count\": %zu, \"apply_shards\": %zu, "
      "\"storage_reactor_loops\": %zu, \"replica_reactor_loops\": %zu, "
      "\"iscsi_workers\": %zu, \"pipeline_depth\": %zu, "
      "\"queue_capacity\": %zu, \"reactor_senders\": true, "
      "\"read_offload\": %s, \"kernel_tier\": \"%s\", \"nproc\": %u, "
      "\"kernel\": \"%s %s\", \"compiler\": \"%s\", "
      "\"files\": \"%s\", \"flush_policy\": \"%s\"}}",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      static_cast<unsigned long long>(o.ops), c.sessions,
      static_cast<unsigned long long>(c.blocks), c.block_size,
      stack.engine().write_shard_count(), stack.replica().apply_shards(),
      kPinned.storage_reactor_loops, kPinned.replica_reactor_loops,
      kPinned.iscsi_workers, kPinned.pipeline_depth, kPinned.queue_capacity,
      c.read_offload ? "true" : "false", kernels::active_ops().name,
      std::thread::hardware_concurrency(), u.sysname, u.release, __VERSION__,
      c.durable ? "memfd (anonymous tmpfs); fsync latency is the host's "
                  "page-cache path, not a device's"
                : "none (MemDisk)",
      c.durable ? "journal: fdatasync (group commit) per appended write "
                  "before it is queued; intent log: fdatasync per apply "
                  "group; FileDisks: never fsynced during the run"
                : "none");
  return buf;
}

// --- the run ----------------------------------------------------------------

/// Sets the stack up kSetups times, timing each; returns the last one.
Result<std::unique_ptr<Stack>> set_up(Workload& workload,
                                      std::vector<double>* setup_s) {
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    if (stack != nullptr) {
      PRINS_RETURN_IF_ERROR(stack->stop());
      stack.reset();
    }
    const std::int64_t t0 = now_ns();
    PRINS_ASSIGN_OR_RETURN(
        stack, Stack::start(workload.stack_config(), [&](BlockDevice& primary) {
          return workload.populate(primary);
        }));
    PRINS_RETURN_IF_ERROR(workload.prepare(*stack));
    setup_s->push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return stack;
}

/// What the sampler thread sees every ms.
struct Sample {
  std::int64_t at_ns;
  /// last_sequence() - read_floor(): writes queued or in flight.
  double lag;
  /// CPU time the whole process has used so far.
  std::int64_t cpu_ns;
};

std::int64_t process_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Everything one measured run leaves behind for the report.
struct Run {
  Phase phase;
  std::int64_t start_ns = 0, end_ns = 0, drained_ns = 0;
  Counters before, after;
  std::vector<std::unique_ptr<SessionContext>> sessions, readers;
  std::vector<Sample> samples;
  std::vector<double> journal_pending_samples;
  std::vector<std::pair<std::int64_t, bool>> toggles;  // (time, traced after)
  std::uint64_t attempted = 0, failed = 0;
  std::string error;
};

/// Runs the sessions' closed loops for the measured window, sampling
/// replication lag, process CPU time and journal depth every ms.  A traced run alternates
/// traced and untraced slices so tracing overhead is measured on the same
/// stack at the same time.
void measure(const Options& o, Workload& workload, Stack& stack, Run& run) {
  constexpr std::int64_t kSliceNs = 200'000'000;
  run.start_ns = now_ns();
  if (o.ops != 0) {
    run.phase.window_start_ns = run.start_ns;
    run.phase.deadline_ns = std::numeric_limits<std::int64_t>::max();
    run.phase.ops_per_session = o.ops;
  } else {
    const double warmup_s = std::min(1.0, 0.1 * o.seconds);
    run.phase.window_start_ns =
        run.start_ns + static_cast<std::int64_t>(warmup_s * 1e9);
    run.phase.deadline_ns =
        run.phase.window_start_ns + static_cast<std::int64_t>(o.seconds * 1e9);
  }

  std::atomic<bool> sampling{true};
  std::thread sampler([&] {
    while (sampling.load(std::memory_order_relaxed)) {
      const std::uint64_t last = stack.engine().last_sequence();
      const std::uint64_t floor = stack.engine().read_floor();
      run.samples.push_back(
          Sample{now_ns(), last > floor ? static_cast<double>(last - floor) : 0,
                 process_cpu_ns()});
      if (stack.journal() != nullptr) {
        run.journal_pending_samples.push_back(
            static_cast<double>(stack.journal()->stats().pending_records));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const std::size_t sessions = stack.config().sessions;
  for (std::size_t s = 0; s < sessions; ++s) {
    run.sessions.push_back(
        std::make_unique<SessionContext>(s, run.phase, stack.initiator(s)));
  }
  std::vector<std::thread> threads;
  for (auto& ctx : run.sessions) {
    threads.emplace_back(
        [&workload, c = ctx.get()] { workload.run_session(*c); });
  }
  if (o.trace && o.ops != 0) {
    Tracer::get().set_on(true);
  } else if (o.trace) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(run.phase.window_start_ns - now_ns()));
    bool on = false;
    run.toggles.emplace_back(now_ns(), on);
    for (std::int64_t t = run.phase.window_start_ns + kSliceNs;
         t < run.phase.deadline_ns; t += kSliceNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(t - now_ns()));
      on = !on;
      Tracer::get().set_on(on);
      run.toggles.emplace_back(now_ns(), on);
    }
  }
  for (std::thread& t : threads) t.join();
  Tracer::get().set_on(false);
  run.end_ns = now_ns();
  sampling.store(false);
  sampler.join();
  for (auto& ctx : run.sessions) {
    run.attempted += ctx->attempted();
    run.failed += ctx->failed();
    if (run.error.empty() && !ctx->error.empty()) run.error = ctx->error;
  }
}

/// The correctness gate: drain, then primary == mirror byte for byte, then
/// the workload's own checks against its shadows.  Every failure counts.
void check(Workload& workload, Stack& stack, Run& run) {
  const auto fail = [&](std::uint64_t n, const std::string& why) {
    run.failed += n;
    if (run.error.empty()) run.error = why;
  };
  const Status drained = stack.drain();
  run.drained_ns = now_ns();
  if (!drained.is_ok()) fail(1, "drain: " + drained.to_string());
  run.after = snapshot(stack);
  auto divergent = stack.count_divergent_blocks();
  if (!divergent.is_ok()) {
    fail(1, "compare: " + divergent.status().to_string());
  } else if (divergent.value() != 0) {
    fail(divergent.value(), std::to_string(divergent.value()) +
                                " blocks differ between primary and mirror");
  }
  static const Phase readback{0, std::numeric_limits<std::int64_t>::max(), 0};
  for (std::size_t s = 0; s < stack.config().sessions; ++s) {
    run.readers.push_back(
        std::make_unique<SessionContext>(s, readback, stack.initiator(s)));
  }
  auto verified = workload.verify(stack, run.readers);
  if (!verified.is_ok()) {
    fail(1, "verify: " + verified.status().to_string());
  } else if (verified.value() != 0) {
    std::string why = "shadow check failed";
    for (auto& r : run.readers) {
      if (!r->error.empty()) why += ": " + r->error;
    }
    fail(verified.value(), why);
  }
}

template <typename F>
std::vector<double> gather(
    const std::vector<std::unique_ptr<SessionContext>>& all, F samples_of) {
  std::vector<double> out;
  for (const auto& ctx : all) {
    for (double v : ns_to_us(samples_of(*ctx))) out.push_back(v);
  }
  return out;
}

std::vector<std::int64_t> op_ends(const Run& run) {
  std::vector<std::int64_t> out;
  for (const auto& ctx : run.sessions) {
    out.insert(out.end(), ctx->op_end_ns().begin(), ctx->op_end_ns().end());
  }
  return out;
}

double writes_in(const Run& run) {
  return static_cast<double>(run.after.engine.writes -
                             run.before.engine.writes);
}

std::vector<double> read_samples(const Run& run) {
  std::vector<double> out = gather(
      run.sessions, [](SessionContext& c) { return c.disk().read_ns(); });
  for (double v : gather(run.readers, [](SessionContext& c) {
         return c.disk().read_ns();
       })) {
    out.push_back(v);
  }
  return out;
}

/// Completed ops per second over the measured window (the whole run in
/// fixed-count mode), and the counts per second of the window.
double ops_per_s(const Options& o, const Run& run,
                 std::vector<double>* per_second) {
  const std::vector<std::int64_t> ends = op_ends(run);
  if (o.ops != 0) {
    return ratio(static_cast<double>(ends.size()),
                 static_cast<double>(run.end_ns - run.start_ns) / 1e9);
  }
  const Phase& p = run.phase;
  per_second->assign(static_cast<std::size_t>(o.seconds), 0);
  double n = 0;
  for (std::int64_t t : ends) {
    if (t > p.deadline_ns) continue;
    n += 1;
    const auto b =
        static_cast<std::size_t>((t - p.window_start_ns) / 1'000'000'000);
    (*per_second)[std::min(b, per_second->size() - 1)] += 1;
  }
  return n / o.seconds;
}

/// Prints, per second of the measured window and beside the ops per
/// second, the highest sampled replication lag, the share of samples with a
/// full outbox and the CPU seconds the process got.  A slow second with a
/// full outbox is replication backpressure; one with little CPU is a
/// second in which the process did not run.
void print_by_second(const Options& o, const Run& run) {
  const std::size_t seconds = static_cast<std::size_t>(o.seconds);
  const double full_at = static_cast<double>(kPinned.queue_capacity);
  std::vector<double> max_lag(seconds, 0), full(seconds, 0), n(seconds, 0);
  std::vector<std::int64_t> cpu_first(seconds, -1), cpu_last(seconds, 0);
  for (const Sample& x : run.samples) {
    if (x.at_ns < run.phase.window_start_ns ||
        x.at_ns >= run.phase.deadline_ns) {
      continue;
    }
    const auto b = static_cast<std::size_t>(
        (x.at_ns - run.phase.window_start_ns) / 1'000'000'000);
    if (b >= seconds) continue;
    max_lag[b] = std::max(max_lag[b], x.lag);
    full[b] += x.lag >= full_at;
    n[b] += 1;
    if (cpu_first[b] < 0) cpu_first[b] = x.cpu_ns;
    cpu_last[b] = x.cpu_ns;
  }
  std::printf("  %-34s", "max replication lag, by second");
  for (double v : max_lag) std::printf(" %.0f", v);
  std::printf("\n  %-34s", "% of samples outbox full, by second");
  for (std::size_t b = 0; b < seconds; ++b) {
    std::printf(" %.0f", 100 * ratio(full[b], n[b]));
  }
  std::printf("\n  %-34s", "process CPU s/s, by second");
  for (std::size_t b = 0; b < seconds; ++b) {
    std::printf(" %.2f",
                cpu_first[b] < 0 ? 0 : (cpu_last[b] - cpu_first[b]) / 1e9);
  }
  std::printf("\n");
}

/// --trace 0: what a user of the system sees.  Only the metrics that
/// repeat from run to run go into the result; the rest are printed.
std::vector<Metric> report_end_to_end(const Options& o,
                                      const Workload& workload, const Run& run,
                                      const std::vector<double>& setup_s) {
  std::printf(
      "\n== %s: end-to-end (op = one %s; closed loop, %zu session(s)) ==\n",
      o.workload.c_str(), workload.op_unit(), run.sessions.size());
  std::vector<double> per_second;
  std::printf("  %-34s %14.4f 1/s\n", "ops_per_s",
              ops_per_s(o, run, &per_second));
  if (!per_second.empty()) {
    std::printf("  %-34s", "ops completed, by second");
    for (double n : per_second) std::printf(" %.0f", n);
    std::printf("\n");
    print_by_second(o, run);
  }
  Report r;
  r.median_of("op_p50_us", gather(run.sessions, [](SessionContext& c) {
                return c.op_ns();
              }));
  r.median_of("write_p50_us", gather(run.sessions, [](SessionContext& c) {
                return c.disk().write_ns();
              }));
  print_timing("read_p50_us", timing_us(read_samples(run)));
  r.value("wire_bytes_per_write",
          ratio(static_cast<double>(run.after.link.wire_bytes -
                                    run.before.link.wire_bytes),
                writes_in(run)),
          "B");
  std::printf("  %-34s median %8.4f s of %zu set-ups\n", "setup_s",
              median(setup_s), setup_s.size());
  r.add("setup_s", median(setup_s), "s");
  std::printf("  %-34s %14.6f (%llu failed of %llu attempted)\n",
              "failed_op_ratio",
              ratio(static_cast<double>(run.failed),
                    static_cast<double>(run.attempted)),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));
  return r.metrics();
}

/// --trace 1: counters and span-derived numbers of each layer, then the
/// self-time table.
std::vector<Metric> report_per_layer(const Options& o,
                                     const StackConfig& config,
                                     const Run& run) {
  std::vector<Span> spans = Tracer::get().take();
  const TraceSummary t =
      summarise(spans, config.blocks / config.sessions, config.read_offload);
  const auto dur = [&](Layer l) -> const std::vector<double>& {
    return t.durations_us[static_cast<int>(l)];
  };
  const Counters& b = run.before;
  const Counters& a = run.after;
  const auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double writes = writes_in(run);
  const double applied =
      delta(a.replica.writes_applied, b.replica.writes_applied);
  const double batches = delta(a.replica.ack_batches, b.replica.ack_batches);
  const double batched = delta(a.replica.acks_batched, b.replica.acks_batched);
  const double run_s = static_cast<double>(run.drained_ns - run.start_ns) / 1e9;

  // Ops per second in traced and in untraced slices.
  const std::vector<std::int64_t> ends = op_ends(run);
  double traced_s = 0, untraced_s = 0, traced_ops = 0, untraced_ops = 0;
  for (std::size_t i = 0; i < run.toggles.size(); ++i) {
    const std::int64_t from = run.toggles[i].first;
    const std::int64_t to = i + 1 < run.toggles.size()
                                ? run.toggles[i + 1].first
                                : run.phase.deadline_ns;
    double n = 0;
    for (std::int64_t e : ends) n += e >= from && e < to;
    const bool traced = run.toggles[i].second;
    (traced ? traced_s : untraced_s) += static_cast<double>(to - from) / 1e9;
    (traced ? traced_ops : untraced_ops) += n;
  }
  std::vector<double> device_call = dur(Layer::kTargetRead);
  device_call.insert(device_call.end(), dur(Layer::kTargetWrite).begin(),
                     dur(Layer::kTargetWrite).end());
  double busy_s = 0;
  for (double v : dur(Layer::kTargetWrite)) busy_s += v / 1e6;

  std::printf("\n== %s: per layer (traced slices: %.1f s, %llu traced ops, "
              "%zu spans, %llu unattributed, %llu dropped) ==\n",
              o.workload.c_str(), traced_s,
              static_cast<unsigned long long>(t.ops), spans.size(),
              static_cast<unsigned long long>(t.unattributed),
              static_cast<unsigned long long>(Tracer::get().dropped()));
  Report r;
  // Throughput, read latency and tails did not repeat from run to run on a
  // shared host (see README), so they are reported here and not gated.
  // All of them come from the untraced slices only.
  std::vector<double> per_second;
  r.value("ops_per_s",
          run.toggles.empty() ? ops_per_s(o, run, &per_second)
                              : ratio(untraced_ops, untraced_s),
          "1/s");
  const std::vector<double> reads = read_samples(run);
  r.median_of("read_p50_us", reads);
  r.value("op_p99_us",
          timing_us(gather(run.sessions, [](SessionContext& c) {
            return c.op_ns();
          })).tail,
          "us");
  r.value("write_p99_us", timing_us(gather(run.sessions, [](SessionContext& c) {
                            return c.disk().write_ns();
                          })).tail,
          "us");
  r.value("read_p99_us", timing_us(reads).tail, "us");
  r.median_of("iscsi.self_us", t.iscsi_self_us);
  r.median_of("iscsi.device_call_us", device_call);
  r.median_of("engine.write_us", dur(Layer::kTargetWrite));
  r.value("engine.write_busy_s", ratio(busy_s, traced_s), "s/s");
  r.median_of("engine.read_old_us", t.read_old_us);
  std::vector<double> lag;
  for (const Sample& x : run.samples) lag.push_back(x.lag);
  r.value("engine.replication_lag_writes", quantile(lag, 0.99),
          "writes");
  r.value("engine.retries", delta(a.engine.retries, b.engine.retries), "count");
  r.value("engine.nak_full_repairs",
          delta(a.engine.nak_full_repairs, b.engine.nak_full_repairs), "count");
  r.value("engine.dirty_bytes_per_write", a.engine.dirty_bytes.mean(), "B");
  r.value("engine.payload_bytes_per_write",
          ratio(delta(a.engine.payload_bytes, b.engine.payload_bytes), writes),
          "B");
  r.value("engine.raw_bytes_per_write",
          ratio(delta(a.engine.raw_bytes, b.engine.raw_bytes), writes), "B");
  r.median_of("block.primary_write_us", dur(Layer::kPrimaryWrite));
  r.value("block.primary_ops_per_write",
          ratio(delta(a.primary_reads, b.primary_reads) +
                    delta(a.primary_writes, b.primary_writes),
                writes),
          "count");
  r.median_of("block.replica_write_us", dur(Layer::kReplicaWrite));
  // The mirror's device also serves offloaded client reads and repair
  // reads; only the rest are reads the apply path made.
  const double served =
      delta(a.replica.client_reads_served, b.replica.client_reads_served) +
      delta(a.replica.repair_reads_served, b.replica.repair_reads_served);
  r.value("block.replica_reads_per_apply",
          ratio(std::max(0.0, delta(a.mirror_reads, b.mirror_reads) - served),
                applied),
          "count");
  r.value("net.link_msgs_per_write",
          ratio(delta(a.link.messages, b.link.messages), writes), "count");
  r.median_of("net.link_send_us", dur(Layer::kLinkSend));
  // Lone acks are not counted as batches: frames = batches + lone acks.
  r.value("net.ack_frames_per_write",
          ratio(batches + std::max(0.0, applied - batched), writes), "count");
  r.median_of("net.read_link_rtt_us", dur(Layer::kReadLink));
  r.value("replica.applies_per_s", ratio(applied, run_s), "1/s");
  r.value("replica.acks_per_batch", ratio(batched, batches), "count");
  r.value("replica.apply_queue_peak",
          static_cast<double>(a.replica.apply_queue_peak), "count");
  r.value("replica.duplicates_dropped",
          delta(a.replica.duplicates_dropped, b.replica.duplicates_dropped),
          "count");
  r.value("replica.naks_sent", delta(a.replica.naks_sent, b.replica.naks_sent),
          "count");
  r.value("journal.bytes_per_write",
          ratio(delta(a.journal_bytes, b.journal_bytes), writes), "B");
  r.value("journal.pending_records_p99",
          quantile(run.journal_pending_samples, 0.99), "records");
  r.value("storage.bytes_per_user_byte",
          ratio(delta(a.primary_bytes, b.primary_bytes) +
                    delta(a.mirror_bytes, b.mirror_bytes) +
                    delta(a.journal_bytes, b.journal_bytes),
                delta(a.user_bytes, b.user_bytes)),
          "B/B");
  r.value("intent_log.fsyncs_per_apply",
          ratio(delta(a.replica.intent_fsyncs, b.replica.intent_fsyncs),
                applied),
          "count");
  r.value("read_router.offload_ratio",
          ratio(delta(a.engine.replica_reads, b.engine.replica_reads),
                delta(a.target_reads, b.target_reads)),
          "ratio");
  r.median_of("read_router.self_us", t.router_self_us);
  r.value("read_router.conflicts_local",
          delta(a.engine.read_conflicts_local, b.engine.read_conflicts_local),
          "count");
  r.value("read_router.stale_retries",
          delta(a.engine.stale_read_retries, b.engine.stale_read_retries),
          "count");
  const std::vector<double> gen_us =
      gather(run.sessions, [](SessionContext& c) { return c.gen_ns(); });
  r.median_of("bench.generator_us", gen_us.empty() ? t.op_self_us : gen_us);
  r.value("trace.overhead_ratio",
          ratio(ratio(traced_ops, traced_s), ratio(untraced_ops, untraced_s)),
          "ratio");

  // Self-time table: where one op's time goes, layer by layer.
  const auto is_async_row = [](const std::string& row) {
    return row.rfind("async.", 0) == 0;
  };
  double op_total = 0;
  for (const auto& [row, us] : t.self_us) {
    if (!is_async_row(row)) op_total += us;
  }
  std::printf("\n  self time per op (mean over %llu traced ops):\n",
              static_cast<unsigned long long>(t.ops));
  std::string largest;
  double largest_us = -1;
  for (const auto& [row, us] : t.self_us) {
    const double per_op = ratio(us, static_cast<double>(t.ops));
    if (is_async_row(row)) {
      std::printf("    %-26s %10.2f us/op  (off the blocking path)\n",
                  row.c_str(), per_op);
    } else {
      std::printf("    %-26s %10.2f us/op  %5.1f%%\n", row.c_str(), per_op,
                  100 * ratio(us, op_total));
      if (per_op > largest_us) {
        largest_us = per_op;
        largest = row;
      }
    }
    r.add("self." + row + "_us_per_op", per_op, "us");
  }
  std::printf("  largest self time on the blocking path: %s (%.2f us/op)\n",
              largest.c_str(), largest_us);
  if (!o.trace_out.empty()) {
    if (write_spans(o.trace_out, spans, t.parents)) {
      std::printf("  spans written to %s\n", o.trace_out.c_str());
    } else {
      std::fprintf(stderr, "could not write %s\n", o.trace_out.c_str());
    }
  }
  return r.metrics();
}

int run(const Options& o) {
  std::unique_ptr<Workload> workload = make_workload(o.workload, o.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  std::vector<double> setup_s;
  auto started = set_up(*workload, &setup_s);
  if (!started.is_ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 started.status().to_string().c_str());
    return 1;
  }
  std::unique_ptr<Stack> stack = std::move(started).value();
  std::printf("%s\n", config_stamp(o, *stack).c_str());

  Run run;
  run.before = snapshot(*stack);
  measure(o, *workload, *stack, run);
  check(*workload, *stack, run);
  const std::vector<Metric> metrics =
      o.trace ? report_per_layer(o, stack->config(), run)
              : report_end_to_end(o, *workload, run, setup_s);
  const Status stopped = stack->stop();
  if (!stopped.is_ok()) {
    run.failed += 1;
    if (run.error.empty()) run.error = "stop: " + stopped.to_string();
  }
  const bool correct = run.failed == 0;
  if (!run.error.empty()) std::printf("\nFAILED: %s\n", run.error.c_str());

  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(run.attempted) +
                     ", \"failed\": " + std::to_string(run.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options options;
  if (!e2e::parse_args(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload <tpcc-durable|rand-write|"
                 "mixed-read> --seed <n> --seconds <s> --trace <0|1> "
                 "[--ops <n>] [--trace-out <file>]\n");
    return 2;
  }
  return e2e::run(options);
}
