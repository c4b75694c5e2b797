#include "source_sets.hpp"

#include <algorithm>
#include <bit>

namespace subc::detail {
namespace {

using Decision = ReplayDriver::Decision;
using Step = ReplayDriver::Step;

std::uint64_t bit(int pid) { return std::uint64_t{1} << pid; }

bool same_step(const Step& a, const Step& b) {
  return a.pid == b.pid && a.decision == b.decision &&
         a.access.object == b.access.object && a.access.kind == b.access.kind;
}

// The pids listed or asleep at a listed decision.
std::uint64_t held_pids(const Decision& d) {
  std::uint64_t pids = d.sleep;
  for (std::uint8_t i = 0; i < d.listed; ++i) {
    pids |= option_bit(d, d.list[i]);
  }
  return pids;
}

}  // namespace

std::uint64_t option_bit(const Decision& d, std::uint32_t c) {
  std::uint64_t rest = d.enabled;
  for (std::uint32_t i = 0; i < c; ++i) {
    rest &= rest - 1;  // clear the lowest set bit
  }
  return rest & ~(rest - 1);  // the lowest remaining one
}

void apply(Decision& d, const Backtrack& b) {
  if (d.listed == 0) {
    return;
  }
  std::uint64_t held = held_pids(d);
  if (b.initials != 0) {
    if ((b.initials & held) != 0) {
      return;  // the list (or the sleep set) can already start the reversal
    }
    if (b.preferred >= 0 && b.preferred < 64 &&
        (d.enabled & bit(b.preferred)) != 0) {
      d.list[d.listed++] = static_cast<std::uint8_t>(
          std::popcount(d.enabled & (bit(b.preferred) - 1)));
      return;
    }
    // An initial that is not an option here cannot happen on a
    // deterministic world; full branching below stays sound regardless.
  }
  for (std::uint32_t c = 0; c < d.arity; ++c) {
    const std::uint64_t b_c = option_bit(d, c);
    if ((held & b_c) == 0) {
      d.list[d.listed++] = static_cast<std::uint8_t>(c);
      held |= b_c;
    }
  }
}

void RaceAnalysis::run(std::size_t fresh_from, bool faulted,
                       std::vector<Decision>& trace, std::size_t floor,
                       std::vector<Backtrack>& above) {
  // The steps before `fresh_from` replay the previous run's (the world is
  // deterministic, and the driver asserts the replayed decisions match), so
  // its state up to there is reused when both ran a single Runtime.
  const std::size_t size = steps_.size();
  const bool reuse = done_single_ && fresh_from > 0 &&
                     fresh_from <= std::min(size, done_.size()) &&
                     same_step(steps_[fresh_from - 1], done_[fresh_from - 1]);
  const std::size_t scan_from = reuse ? fresh_from : 0;
  std::size_t n = reuse ? n_ : 1;
  bool single = true;  // one Runtime: only the first step is a marker
  bool judged = !faulted;
  for (std::size_t k = scan_from; k < size; ++k) {
    const std::int32_t pid = steps_[k].pid;
    single = single && (pid >= 0 || k == 0);
    judged = judged && pid < 64;
    n = std::max(n, static_cast<std::size_t>(pid + 1));
  }
  if (!judged) {
    for (std::size_t k = 0; k < trace.size(); ++k) {
      if (trace[k].listed > 0) {
        const Backtrack full{static_cast<std::uint32_t>(k), 0, -1};
        if (k >= floor) {
          apply(trace[k], full);
        } else {
          above.push_back(full);
        }
      }
    }
    done_.clear();
    steps_.clear();
    return;
  }
  std::size_t base = 0;
  if (reuse && single && n == n_) {
    base = fresh_from;
    for (std::size_t k = done_.size(); k > base; --k) {
      const Step& s = done_[k - 1];
      events_[static_cast<std::size_t>(s.pid)].pop_back();
      obj_last_[s.access.object] = prev_touch_[k - 1];
    }
  } else {
    n_ = n;
    reset();
  }
  if (maxpred_.size() < size) {
    const std::size_t grown = std::max(size, maxpred_.size() * 2);
    sclock_.resize(grown * n_);
    agg_.resize(grown * 4 * n_);
    maxpred_.resize(grown);
    prev_touch_.resize(grown);
  }
  for (std::size_t k = base; k < size; ++k) {
    if (steps_[k].pid < 0) {
      // A later Runtime: all its steps happen after every earlier one, so
      // races never cross into it.
      reset();
    } else {
      step(k, k >= fresh_from, trace, floor, above);
    }
  }
  done_.swap(steps_);
  done_single_ = single;
  steps_.clear();
}

void RaceAnalysis::reset() {
  if (sclock_.size() < maxpred_.size() * n_) {
    sclock_.resize(maxpred_.size() * n_);
    agg_.resize(maxpred_.size() * 4 * n_);
  }
  events_.resize(std::max(events_.size(), n_));
  for (std::vector<std::uint32_t>& ev : events_) {
    ev.clear();
  }
  std::fill(obj_last_.begin(), obj_last_.end(), -1);
  zeros_.assign(4 * n_, 0);
  s_.resize(n_);
  l_.resize(n_);
}

void RaceAnalysis::step(std::size_t k, bool fresh, std::vector<Decision>& trace,
                        std::size_t floor, std::vector<Backtrack>& above) {
  const std::size_t n = n_;
  const Step& s = steps_[k];
  const auto p = static_cast<std::size_t>(s.pid);
  const std::uint32_t object = s.access.object;
  const bool unknown = object == 0;
  const bool write = unknown || s.access.kind != AccessKind::kRead;
  if (object >= obj_last_.size()) {
    obj_last_.resize(object + 1, -1);
  }
  std::vector<std::uint32_t>& mine = events_[p];
  const std::uint32_t* prev =
      mine.empty() ? zeros_.data() : &sclock_[std::size_t{mine.back()} * n];
  const std::int32_t touched = obj_last_[object];
  const std::uint32_t* agg =
      touched < 0 ? zeros_.data() : &agg_[std::size_t(touched) * 4 * n];
  // The footprint-less steps so far, which every step depends on.
  const std::int32_t anon = unknown ? -1 : obj_last_[0];
  const std::uint32_t* any =
      anon < 0 ? nullptr : &agg_[std::size_t(anon) * 4 * n];
  const std::uint32_t* dep_s = write ? agg : agg + 2 * n;
  const std::uint32_t* dep_l = write ? agg + n : agg + 3 * n;

  // s: the join of the strict clocks of k's direct predecessors; a
  // dependent step outside it is in a race with k. l: each process's latest
  // direct predecessor of k. k's own strict clock is their entrywise max.
  std::uint32_t* sj = s_.data();
  std::uint32_t* lj = l_.data();
  for (std::size_t r = 0; r < n; ++r) {
    std::uint32_t sv = std::max(prev[r], dep_s[r]);
    std::uint32_t lv = dep_l[r];
    if (any != nullptr) {
      sv = std::max(sv, any[r]);
      lv = std::max(lv, any[n + r]);
    }
    sj[r] = sv;
    lj[r] = lv;
  }
  if (unknown) {
    // A footprint-less step depends on every step before it.
    for (std::size_t r = 0; r < n; ++r) {
      const std::vector<std::uint32_t>& ev = events_[r];
      if (!ev.empty()) {
        const std::uint32_t* rs = &sclock_[std::size_t{ev.back()} * n];
        for (std::size_t t = 0; t < n; ++t) {
          sj[t] = std::max(sj[t], rs[t]);
        }
        lj[r] = ev.back() + 1;
      }
    }
  }
  lj[p] = mine.empty() ? 0 : mine.back() + 1;
  std::int32_t top1 = -1;  // latest direct predecessor
  std::int32_t top2 = -1;  // the one before it
  for (std::size_t r = 0; r < n; ++r) {
    const auto g = static_cast<std::int32_t>(lj[r]) - 1;
    if (g > top1) {
      top2 = top1;
      top1 = g;
    } else if (g > top2) {
      top2 = g;
    }
  }
  if (fresh) {
    for (std::size_t r = 0; r < n; ++r) {
      if (r != p && lj[r] > sj[r]) {
        const auto gi = static_cast<std::int32_t>(lj[r]) - 1;
        race(k, r, gi, top1 == gi ? top2 : top1, trace, floor, above);
      }
    }
  }

  // Record k.
  const auto self = static_cast<std::uint32_t>(k + 1);
  std::uint32_t* clock = &sclock_[k * n];
  for (std::size_t r = 0; r < n; ++r) {
    clock[r] = std::max(sj[r], lj[r]);
  }
  maxpred_[k] = top1;
  prev_touch_[k] = touched;
  std::uint32_t* out = &agg_[k * 4 * n];
  std::copy_n(agg, 4 * n, out);
  for (std::size_t r = 0; r < n; ++r) {
    out[r] = std::max(out[r], clock[r]);
  }
  out[n + p] = self;
  if (write) {
    for (std::size_t r = 0; r < n; ++r) {
      out[2 * n + r] = std::max(out[2 * n + r], clock[r]);
    }
    out[3 * n + p] = self;
  }
  obj_last_[object] = static_cast<std::int32_t>(k);
  mine.push_back(static_cast<std::uint32_t>(k));
}

void RaceAnalysis::race(std::size_t k, std::size_t qi, std::int32_t gi,
                        std::int32_t other, std::vector<Decision>& trace,
                        std::size_t floor, std::vector<Backtrack>& above) {
  const std::int32_t dec = steps_[static_cast<std::size_t>(gi)].decision;
  if (dec < 0 || trace[static_cast<std::size_t>(dec)].listed == 0) {
    return;  // a forced step, or a decision that branches fully
  }
  // The reversal v: the steps after gi that do not happen after it, then k.
  // A process is an initial of v when its first step in v has no
  // predecessor in v: none after gi (for k itself: none but gi).
  const auto after = static_cast<std::uint32_t>(gi) + 1;
  const auto p = static_cast<std::size_t>(steps_[k].pid);
  const auto initial = [&](std::size_t q) {
    const std::vector<std::uint32_t>& ev = events_[q];
    const auto it = std::upper_bound(ev.begin(), ev.end(),
                                     static_cast<std::uint32_t>(gi));
    if (it != ev.end()) {
      return sclock_[std::size_t{*it} * n_ + qi] < after && maxpred_[*it] < gi;
    }
    return q == p && other < gi;
  };
  // Common case first: k's own process is listed or asleep there and can
  // start the reversal, so no list changes (lists only grow, so this holds
  // for a demand on a decision above `floor` too).
  const Decision& d = trace[static_cast<std::size_t>(dec)];
  if (((held_pids(d) >> p) & 1) != 0 && initial(p)) {
    return;
  }
  std::uint64_t initials = 0;
  for (std::size_t q = 0; q < n_; ++q) {
    if (q != qi && initial(q)) {  // qi's later steps all happen after gi
      initials |= bit(static_cast<int>(q));
    }
  }
  std::int32_t preferred = static_cast<std::int32_t>(p);
  if ((initials & bit(static_cast<int>(p))) == 0) {
    // The first step of v is always an initial.
    for (std::size_t f = after; f < k; ++f) {
      if (static_cast<std::size_t>(steps_[f].pid) != qi &&
          sclock_[f * n_ + qi] < after) {
        preferred = steps_[f].pid;
        break;
      }
    }
  }
  const Backtrack b{static_cast<std::uint32_t>(dec), initials, preferred};
  if (b.depth >= floor) {
    apply(trace[b.depth], b);
  } else {
    above.push_back(b);
  }
}

}  // namespace subc::detail
