// In-memory span log for the traced run. The benchmark wraps its own calls
// into the library (Client calls, registry snapshots, replays) in spans;
// each span has a name, start, end, parent and op id. Spans stay in memory
// while the run measures and are written out as CSV when it ends.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace volapbench {

struct Span {
  const char* name = "";  // static string
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // session op sequence number, 0 if none
};

/// One log per thread; ids embed the log's number so they stay unique
/// across logs without any shared counter.
class SpanLog {
 public:
  static constexpr std::size_t kCap = 1u << 21;

  explicit SpanLog(std::uint64_t logId) : logId_(logId) {}

  /// Record a finished span; returns its id (0 if the log is full).
  std::uint64_t add(const char* name, std::uint64_t start, std::uint64_t end,
                    std::uint64_t parent = 0, std::uint64_t op = 0) {
    if (spans_.size() >= kCap) {
      ++dropped_;
      return 0;
    }
    const std::uint64_t id = (logId_ << 40) | (spans_.size() + 1);
    spans_.push_back({name, start, end, id, parent, op});
    return id;
  }

  /// Open a span whose children are recorded before it ends.
  std::uint64_t open(const char* name, std::uint64_t start,
                     std::uint64_t parent = 0) {
    return add(name, start, start, parent);
  }
  void close(std::uint64_t id, std::uint64_t end) {
    if (id == 0) return;
    spans_[(id & ((std::uint64_t{1} << 40) - 1)) - 1].end = end;
  }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint64_t logId_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// Write every log as one CSV; returns false if the file cannot be written.
inline bool writeSpans(const std::string& path,
                       const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span_id,parent_id,op_id,name,start_ns,end_ns\n");
  for (const SpanLog* log : logs)
    for (const Span& s : log->spans())
      std::fprintf(f, "%llu,%llu,%llu,%s,%llu,%llu\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op), s.name,
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end));
  return std::fclose(f) == 0;
}

}  // namespace volapbench
