#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace e2e {
namespace {

// Bounds the traced run's memory: 40 B a span, so at most ~40 MB a thread.
constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 20;

double us(std::int64_t ns) { return static_cast<double>(ns) / 1000.0; }

bool is_client(Layer layer) {
  return layer == Layer::kOp || layer == Layer::kGenerate ||
         layer == Layer::kIscsiRead || layer == Layer::kIscsiWrite;
}

bool is_command(Layer layer) {
  return layer == Layer::kIscsiRead || layer == Layer::kIscsiWrite;
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kGenerate: return "generate";
    case Layer::kIscsiRead: return "iscsi.read";
    case Layer::kIscsiWrite: return "iscsi.write";
    case Layer::kTargetRead: return "target.read";
    case Layer::kTargetWrite: return "target.write";
    case Layer::kPrimaryRead: return "primary.read";
    case Layer::kPrimaryWrite: return "primary.write";
    case Layer::kReadLink: return "read_link.exchange";
    case Layer::kLinkSend: return "replica_link.send";
    case Layer::kReplicaRead: return "replica.read";
    case Layer::kReplicaWrite: return "replica.write";
    case Layer::kCount: break;
  }
  return "?";
}

bool is_async(Layer layer) {
  return layer == Layer::kLinkSend || layer == Layer::kReplicaRead ||
         layer == Layer::kReplicaWrite;
}

}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    std::lock_guard lock(mutex_);
    owned->thread = static_cast<std::uint32_t>(buffers_.size());
    buffer = owned.get();
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

void Tracer::record(Layer layer, std::int64_t start_ns, std::int64_t end_ns,
                    std::uint64_t lba, std::uint64_t op) {
  Buffer& buffer = local();
  if (buffer.spans.size() >= kMaxSpansPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.spans.push_back(Span{start_ns, end_ns, lba, op, buffer.thread, layer});
}

std::vector<Span> Tracer::take() {
  std::lock_guard lock(mutex_);
  std::vector<Span> all;
  for (auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
    buffer->spans.shrink_to_fit();
  }
  return all;
}

TraceSummary summarise(const std::vector<Span>& spans,
                       std::uint64_t stripe_blocks, bool has_router) {
  TraceSummary out;
  const std::size_t n = spans.size();
  out.parents.assign(n, -1);
  std::vector<std::uint64_t> op_of(n, 0);

  // Client side: commands and generation name their op directly.
  std::unordered_map<std::uint64_t, std::size_t> op_span;
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].layer == Layer::kOp) op_span[spans[i].op] = i;
  }
  std::map<std::uint64_t, std::vector<std::size_t>> commands;  // by session
  std::map<std::uint32_t, std::vector<std::size_t>> server;    // by thread
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    if (is_client(s.layer)) {
      op_of[i] = s.op;
      if (s.layer != Layer::kOp) {
        auto it = op_span.find(s.op);
        if (it != op_span.end()) out.parents[i] = it->second;
      }
      if (is_command(s.layer)) commands[s.lba / stripe_blocks].push_back(i);
    } else if (!is_async(s.layer)) {
      server[s.thread].push_back(i);
    }
  }
  const auto by_start = [&](std::size_t a, std::size_t b) {
    if (spans[a].start_ns != spans[b].start_ns) {
      return spans[a].start_ns < spans[b].start_ns;
    }
    return spans[a].end_ns > spans[b].end_ns;  // enclosing span first
  };
  for (auto& [session, list] : commands) {
    std::sort(list.begin(), list.end(), by_start);
  }

  // Server side: nest by time within a thread; a top-level server span
  // belongs to the enclosing command of the session owning its LBA.
  for (auto& [thread, list] : server) {
    std::sort(list.begin(), list.end(), by_start);
    std::vector<std::size_t> stack;
    for (std::size_t i : list) {
      const Span& s = spans[i];
      while (!stack.empty() && spans[stack.back()].end_ns < s.end_ns) {
        stack.pop_back();
      }
      std::int64_t parent = -1;
      if (!stack.empty()) {
        parent = static_cast<std::int64_t>(stack.back());
      } else {
        auto it = commands.find(s.lba / stripe_blocks);
        if (it != commands.end()) {
          const auto& cmds = it->second;
          auto pos = std::upper_bound(
              cmds.begin(), cmds.end(), s.start_ns,
              [&](std::int64_t t, std::size_t c) {
                return t < spans[c].start_ns;
              });
          if (pos != cmds.begin() && spans[*(pos - 1)].end_ns >= s.end_ns) {
            parent = static_cast<std::int64_t>(*(pos - 1));
          }
        }
      }
      if (parent < 0) {
        out.unattributed += 1;
      } else {
        out.parents[i] = parent;
        op_of[i] = op_of[parent];
      }
      stack.push_back(i);
    }
  }

  // Self time: a span's duration minus its synchronous children's.
  std::vector<std::int64_t> self(n);
  for (std::size_t i = 0; i < n; ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t p = out.parents[i];
    if (p >= 0 && spans[i].layer != Layer::kGenerate) {
      self[p] -= spans[i].end_ns - spans[i].start_ns;
    }
  }

  // Rows of the self-time table, in blocking-path order.
  const auto row_of = [&](Layer layer) -> int {
    switch (layer) {
      case Layer::kGenerate: return 0;
      case Layer::kOp: return 1;
      case Layer::kIscsiRead:
      case Layer::kIscsiWrite: return 2;
      case Layer::kTargetWrite: return 3;
      case Layer::kTargetRead: return has_router ? 4 : 3;
      case Layer::kReadLink: return 5;
      case Layer::kPrimaryRead:
      case Layer::kPrimaryWrite: return 6;
      case Layer::kLinkSend: return 7;
      case Layer::kReplicaRead:
      case Layer::kReplicaWrite: return 8;
      default: return -1;
    }
  };
  const char* rows[] = {"bench.generator", "bench",         "iscsi",
                        "engine",          "read_router",   "net.read_link",
                        "block.primary",   "async.net.link_send",
                        "async.block.replica"};
  double totals[std::size(rows)] = {};
  out.ops = op_span.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    out.durations_us[static_cast<int>(s.layer)].push_back(
        us(s.end_ns - s.start_ns));
    const int row = row_of(s.layer);
    const bool traced_op = op_span.count(op_of[i]) != 0;
    if (row >= 0 && (is_async(s.layer) || traced_op)) {
      totals[row] += us(self[i]);
    }
    if (!traced_op) continue;
    const std::int64_t p = out.parents[i];
    switch (s.layer) {
      case Layer::kOp: out.op_self_us.push_back(us(self[i])); break;
      case Layer::kIscsiRead:
      case Layer::kIscsiWrite: out.iscsi_self_us.push_back(us(self[i])); break;
      case Layer::kTargetRead:
        if (has_router) out.router_self_us.push_back(us(self[i]));
        break;
      case Layer::kPrimaryRead:
        if (p >= 0 && spans[p].layer == Layer::kTargetWrite) {
          out.read_old_us.push_back(us(s.end_ns - s.start_ns));
        }
        break;
      default: break;
    }
  }
  for (std::size_t r = 0; r < std::size(rows); ++r) {
    out.self_us.emplace_back(rows[r], totals[r]);
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::int64_t>& parents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,op,layer,thread,start_ns,end_ns,lba\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu,%lld,%llu,%s,%u,%lld,%lld,%llu\n", i,
                 static_cast<long long>(i < parents.size() ? parents[i] : -1),
                 static_cast<unsigned long long>(s.op), layer_name(s.layer),
                 s.thread, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.lba));
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e
