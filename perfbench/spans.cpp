#include "spans.hpp"

#include <stdexcept>

namespace perfbench {

int SpanLog::open(std::string name, int op) {
  const int id = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({id, parent, op, std::move(name), now_ns(), 0});
  open_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench: spans must close innermost-first");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

int SpanLog::add(std::string name, int op, std::int64_t start_ns,
                 std::int64_t end_ns) {
  const int id = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({id, parent, op, std::move(name), start_ns, end_ns});
  return id;
}

void SpanLog::write_jsonl(std::ostream& os) const {
  for (const Span& s : spans_) {
    os << "{\"id\": " << s.id << ", \"parent\": " << s.parent
       << ", \"op\": " << s.op << ", \"name\": \"" << s.name
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << "}\n";
  }
}

}  // namespace perfbench
