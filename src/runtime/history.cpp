#include "subc/runtime/history.hpp"

#include <algorithm>
#include <sstream>

#include "subc/runtime/observer.hpp"

namespace subc {

namespace {
// Thread-local recycling pool for entry op/response buffers. Bounded so a
// one-off giant history cannot pin memory; beyond the cap buffers just free.
constexpr std::size_t kMaxPooledValueBufs = 256;

struct ValueBufPool {
  std::vector<std::vector<Value>> free;
};
thread_local ValueBufPool tl_value_buf_pool;

/// A buffer holding `init`: one of `spare` if it has any, else one from the
/// thread-local pool, else a fresh one.
std::vector<Value> acquire_buf(std::vector<std::vector<Value>>& spare,
                               std::span<const Value> init) {
  std::vector<std::vector<Value>>& from =
      spare.empty() ? tl_value_buf_pool.free : spare;
  std::vector<Value> buf;
  if (!from.empty()) {
    buf = std::move(from.back());
    from.pop_back();
  }
  buf.assign(init.begin(), init.end());
  return buf;
}

void release_buf(std::vector<Value>&& buf) {
  if (buf.capacity() == 0) {
    return;
  }
  ValueBufPool& pool = tl_value_buf_pool;
  if (pool.free.size() < kMaxPooledValueBufs) {
    buf.clear();
    pool.free.push_back(std::move(buf));
  }
}
}  // namespace

History::~History() {
  for (HistoryEntry& e : entries_) {
    release_buf(std::move(e.op));
    release_buf(std::move(e.response));
  }
  for (std::vector<Value>& buf : spare_) {
    release_buf(std::move(buf));
  }
}

void History::clear() {
  for (HistoryEntry& e : entries_) {
    for (std::vector<Value>* buf : {&e.op, &e.response}) {
      if (buf->capacity() != 0) {
        buf->clear();
        spare_.push_back(std::move(*buf));
      }
    }
  }
  entries_.clear();
  clock_ = 0;
}

std::size_t History::invoke(int pid, std::span<const Value> op) {
  HistoryEntry e;
  e.pid = pid;
  e.op = acquire_buf(spare_, op);
  e.invoked_at = clock_++;
  entries_.push_back(std::move(e));
  const std::size_t handle = entries_.size() - 1;
  if (sink_ != nullptr) {
    const HistoryEntry& recorded = entries_[handle];
    sink_->on_invoke(recorded.pid, handle, recorded.invoked_at, recorded.op);
  }
  return handle;
}

void History::respond(std::size_t handle, std::span<const Value> response) {
  if (handle >= entries_.size()) {
    throw SimError("respond: bad history handle");
  }
  HistoryEntry& e = entries_[handle];
  if (!e.pending()) {
    throw SimError("respond: operation already completed");
  }
  e.response = acquire_buf(spare_, response);
  e.responded_at = clock_++;
  if (sink_ != nullptr) {
    sink_->on_respond(e.pid, handle, e.responded_at, e.response);
  }
}

std::size_t History::restore(HistoryEntry entry) {
  clock_ = std::max({clock_, entry.invoked_at + 1, entry.responded_at + 1});
  entries_.push_back(std::move(entry));
  return entries_.size() - 1;
}

void History::amend(std::size_t handle, HistoryEntry entry) {
  if (handle >= entries_.size()) {
    throw SimError("amend: bad history handle");
  }
  clock_ = std::max({clock_, entry.invoked_at + 1, entry.responded_at + 1});
  entries_[handle] = std::move(entry);
}

std::size_t History::completed() const noexcept {
  std::size_t n = 0;
  for (const auto& e : entries_) {
    if (!e.pending()) {
      ++n;
    }
  }
  return n;
}

std::string History::dump() const {
  std::ostringstream os;
  for (const auto& e : entries_) {
    os << "p" << e.pid << " op(";
    for (std::size_t i = 0; i < e.op.size(); ++i) {
      os << (i ? "," : "") << to_string(e.op[i]);
    }
    os << ") @" << e.invoked_at;
    if (e.pending()) {
      os << " -> pending";
    } else {
      os << " -> (";
      for (std::size_t i = 0; i < e.response.size(); ++i) {
        os << (i ? "," : "") << to_string(e.response[i]);
      }
      os << ") @" << e.responded_at;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace subc
