#include "subc/runtime/history.hpp"

#include <algorithm>
#include <sstream>

#include "subc/runtime/observer.hpp"

namespace subc {

namespace {
constexpr std::size_t kInitialEntries = 8;
}  // namespace

void History::clear() {
  entries_.clear();
  clock_ = 0;
}

std::size_t History::invoke(int pid, std::span<const Value> op) {
  HistoryEntry e;
  e.pid = pid;
  e.op.assign(op);  // throws on an oversized tuple before anything changes
  e.invoked_at = clock_++;
  if (entries_.capacity() == 0) {
    // Recorded histories are short: one allocation instead of a doubling
    // per op for each history a world builds.
    entries_.reserve(kInitialEntries);
  }
  entries_.push_back(e);
  const std::size_t handle = entries_.size() - 1;
  if (sink_ != nullptr) {
    sink_->on_invoke(e.pid, handle, e.invoked_at, e.op);
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
  e.response.assign(response);
  e.responded_at = clock_++;
  if (sink_ != nullptr) {
    sink_->on_respond(e.pid, handle, e.responded_at, e.response);
  }
}

std::size_t History::restore(HistoryEntry entry) {
  clock_ = std::max({clock_, entry.invoked_at + 1, entry.responded_at + 1});
  entries_.push_back(entry);
  return entries_.size() - 1;
}

void History::amend(std::size_t handle, HistoryEntry entry) {
  if (handle >= entries_.size()) {
    throw SimError("amend: bad history handle");
  }
  clock_ = std::max({clock_, entry.invoked_at + 1, entry.responded_at + 1});
  entries_[handle] = entry;
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
