// Wing–Gong linearizability checking with memoization.
//
// Base objects in the simulator are atomic by construction; this checker
// validates *implemented* objects (notably the 1sWRN_k built by Algorithm 5)
// against a sequential specification. The history comes from
// subc/runtime/history.hpp; timestamps reflect real-time order.
//
// Spec concept (see OneShotWrnSpec for a model):
//   struct Spec {
//     struct State;                       // copyable
//     State initial() const;
//     bool apply(State&, std::span<const Value> op,
//                std::vector<Value>& response) const;  // false = illegal
//     std::string key(const State&) const;            // memoization key
//     std::uint64_t hash(const State&) const;         // OPTIONAL (see below)
//   };
//
// Memoization: the DFS memoizes failed (linearized-set, spec-state) pairs.
// The default memo is an open-addressing set of 64-bit fingerprints
// (`MemoKind::kHashed`): the state is hashed via the spec's `hash(State)`
// hook when it has one, falling back to hashing the `key()` string, and
// mixed with the linearized-set bitmask. This avoids materializing a
// `std::string` per DFS node and the per-node unordered_set overhead that
// dominated checker time. Fingerprints are lossy in principle (a 64-bit
// collision could suppress exploration of a state that would have
// succeeded); at the checker's ≤64-op scale the collision probability is
// ~N²/2⁶⁵ and the string-keyed reference memo (`MemoKind::kStringReference`)
// is kept behind a flag purely so tests can differentially validate the
// hashed path (tests/linearizability_memo_test.cpp).
//
// `apply` gets an empty `response` and fills it; the checker reuses the
// vector (and the `State` it passes) across calls, so a spec that assigns
// in place allocates nothing per DFS node.
//
// Scratch: the DFS's per-depth states, its response buffer, the failed-set
// memo and the order under construction live in per-thread scratch that a
// warm check reuses, one scratch per nesting level (a spec whose `apply`
// runs a check of its own gets the next level's). The memo starts at 64
// slots and clears only the slots the previous check filled.
//
// Semantics follow the papers' §2 definition of linearizability: a legal
// sequential ordering of all *completed* operations plus a (possibly empty)
// subset of the uncompleted ones, respecting real-time order, with every
// response consistent with the spec. Pending operations may be linearized
// (their effect visible, any legal response) or dropped.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "subc/runtime/hashing.hpp"
#include "subc/runtime/history.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

struct LinearizationResult {
  bool linearizable = false;
  /// Indices into the history, in linearization order (completed ops plus
  /// any linearized pending ops). Valid when `linearizable`.
  std::vector<std::size_t> order;
  /// Diagnostic on failure.
  std::string message;
};

/// Which memo the checker's DFS uses for failed (done-set, state) pairs.
enum class MemoKind {
  /// Open-addressing uint64 fingerprint set (the default, and the fast
  /// path): hash(done, state) probed linearly in a power-of-two table.
  kHashed,
  /// Exact string-keyed memo (`to_string(done) + "#" + key(state)`); the
  /// pre-fingerprint implementation, kept only as a differential-testing
  /// reference. Test-only — not intended for production checking.
  kStringReference,
};

namespace detail {

/// Real-time precedence: a must linearize before b.
inline bool precedes(const HistoryEntry& a, const HistoryEntry& b) {
  return !a.pending() && a.responded_at < b.invoked_at;
}

/// State fingerprint: the spec's own `hash(State)` when it provides one,
/// otherwise FNV-1a of its `key()` string (correct for any spec, but pays
/// for the string materialization the hook exists to avoid).
template <class Spec>
std::uint64_t state_fingerprint(const Spec& spec,
                                const typename Spec::State& state) {
  if constexpr (requires {
                  {
                    spec.hash(state)
                  } -> std::convertible_to<std::uint64_t>;
                }) {
    return static_cast<std::uint64_t>(spec.hash(state));
  } else {
    return fnv1a64(spec.key(state));
  }
}

/// Open-addressing set of 64-bit fingerprints. Linear probing over a
/// power-of-two table; 0 is the empty-slot sentinel (fingerprint 0 is
/// remapped to 1 — the mixer makes that indistinguishable from any other
/// collision). Grows at ~70% load. Insert-only between `clear()`s, which is
/// all the memo needs; `clear()` empties only the slots filled since the
/// last one, so a reused set costs what it holds, not its capacity.
class FingerprintSet {
 public:
  FingerprintSet() : slots_(kInitialSlots, 0) {}

  [[nodiscard]] bool contains(std::uint64_t fp) const noexcept {
    fp += (fp == 0);
    const std::uint64_t mask = slots_.size() - 1;
    for (std::uint64_t i = fp & mask;; i = (i + 1) & mask) {
      if (slots_[i] == fp) {
        return true;
      }
      if (slots_[i] == 0) {
        return false;
      }
    }
  }

  void insert(std::uint64_t fp) {
    fp += (fp == 0);
    if ((filled_.size() + 1) * 10 >= slots_.size() * 7) {
      grow();
    }
    insert_raw(fp);
  }

  void clear() noexcept {
    for (const std::size_t i : filled_) {
      slots_[i] = 0;
    }
    filled_.clear();
  }

 private:
  static constexpr std::size_t kInitialSlots = 64;

  void insert_raw(std::uint64_t fp) {
    const std::uint64_t mask = slots_.size() - 1;
    for (std::uint64_t i = fp & mask;; i = (i + 1) & mask) {
      if (slots_[i] == fp) {
        return;
      }
      if (slots_[i] == 0) {
        slots_[i] = fp;
        filled_.push_back(i);
        return;
      }
    }
  }

  void grow() {
    const std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, 0);
    filled_.clear();
    for (const std::uint64_t fp : old) {
      if (fp != 0) {
        insert_raw(fp);
      }
    }
  }

  std::vector<std::uint64_t> slots_;
  std::vector<std::size_t> filled_;  ///< indices of the occupied slots
};

/// What one check works in: `states[d]` is the spec state after `d`
/// linearized ops, assigned in place; `response` takes each candidate's
/// response, which is compared before the DFS descends, so one serves every
/// depth; `failed` is the hashed memo.
template <class Spec>
struct CheckScratch {
  std::vector<typename Spec::State> states;
  std::vector<Value> response;
  FingerprintSet failed;
  std::vector<std::size_t> order;
};

/// Leases this thread's scratch for the current nesting level of
/// `check_linearizable<Spec>`: a check run from inside a spec's `apply`
/// takes the next level, so it never shares the outer check's buffers.
template <class Spec>
class ScratchLease {
 public:
  ScratchLease() {
    Levels& levels = levels_();
    if (levels.depth == levels.scratch.size()) {
      levels.scratch.push_back(std::make_unique<CheckScratch<Spec>>());
    }
    scratch_ = levels.scratch[levels.depth++].get();
  }
  ~ScratchLease() { --levels_().depth; }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  [[nodiscard]] CheckScratch<Spec>& operator*() const noexcept {
    return *scratch_;
  }

 private:
  struct Levels {
    std::vector<std::unique_ptr<CheckScratch<Spec>>> scratch;
    std::size_t depth = 0;
  };
  static Levels& levels_() {
    thread_local Levels levels;
    return levels;
  }

  CheckScratch<Spec>* scratch_ = nullptr;
};

/// The DFS, templated on the memo so the hashed hot path compiles with no
/// string machinery in it. Both variants explore nodes in identical order —
/// the memo only ever suppresses *failed* subtrees — so verdict and
/// linearization order match between them (up to fingerprint collisions,
/// which the differential test hunts for).
template <class Spec, bool kHashedMemo>
struct LinearizeFrame {
  const Spec& spec;
  const std::vector<HistoryEntry>& h;
  std::uint64_t completed_mask;
  const std::uint64_t* pred;
  CheckScratch<Spec>& scratch;
  std::unordered_set<std::string>* str_failed;  ///< reference memo only

  bool dfs(std::uint64_t done, std::size_t depth) {
    if ((done & completed_mask) == completed_mask) {
      return true;  // all completed ops linearized; rest may be dropped
    }
    const typename Spec::State& state = scratch.states[depth];
    std::uint64_t fp = 0;
    std::string memo_key;
    if constexpr (kHashedMemo) {
      fp = mix64(state_fingerprint(spec, state) ^ mix64(done));
      if (scratch.failed.contains(fp)) {
        return false;
      }
    } else {
      memo_key = std::to_string(done) + "#" + spec.key(state);
      if (str_failed->contains(memo_key)) {
        return false;
      }
    }
    typename Spec::State& next = scratch.states[depth + 1];
    std::vector<Value>& response = scratch.response;
    for (std::size_t i = 0; i < h.size(); ++i) {
      const std::uint64_t bit = 1ULL << i;
      if (done & bit) {
        continue;
      }
      // i must not be preceded (in real time) by any not-yet-linearized
      // op: every real-time predecessor must already be in `done`.
      if ((pred[i] & ~done) != 0) {
        continue;
      }
      next = state;
      response.clear();
      if (!spec.apply(next, h[i].op, response)) {
        continue;  // op illegal here; try other linearization points
      }
      if (!h[i].pending() && !(h[i].response == response)) {
        continue;  // completed op must return exactly what it returned
      }
      scratch.order.push_back(i);
      if (dfs(done | bit, depth + 1)) {
        return true;
      }
      scratch.order.pop_back();
    }
    if constexpr (kHashedMemo) {
      scratch.failed.insert(fp);
    } else {
      str_failed->insert(memo_key);
    }
    return false;
  }
};

}  // namespace detail

/// Checks `history` against `spec`. Exponential in the number of overlapping
/// operations; intended for the short histories the simulator produces
/// (tens of operations). The bitmask representation caps histories at 64
/// operations — longer ones throw `SimError` (a checker limitation, never a
/// verdict: silently misreporting "not linearizable" would corrupt ∀-run
/// claims built on top).
template <class Spec>
LinearizationResult check_linearizable(const Spec& spec,
                                       const std::vector<HistoryEntry>& h,
                                       MemoKind memo = MemoKind::kHashed) {
  LinearizationResult result;
  const std::size_t n = h.size();
  if (n > 64) {
    throw SimError("check_linearizable: history has " + std::to_string(n) +
                   " operations; the bitmask checker supports at most 64");
  }
  std::uint64_t completed_mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!h[i].pending()) {
      completed_mask |= (1ULL << i);
    }
  }
  // Real-time predecessor masks, computed once: bit j of pred[i] says h[j]
  // must linearize before h[i]. The DFS minimality test then collapses to a
  // single mask check instead of an O(n) scan per candidate.
  std::uint64_t pred[64] = {};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i && detail::precedes(h[j], h[i])) {
        pred[i] |= (1ULL << j);
      }
    }
  }

  const detail::ScratchLease<Spec> lease;
  detail::CheckScratch<Spec>& scratch = *lease;
  scratch.failed.clear();
  scratch.order.clear();
  typename Spec::State initial = spec.initial();
  if (scratch.states.size() < n + 1) {
    scratch.states.resize(n + 1, initial);
  }
  scratch.states[0] = std::move(initial);

  bool ok = false;
  if (memo == MemoKind::kHashed) {
    detail::LinearizeFrame<Spec, true> frame{
        spec, h, completed_mask, pred, scratch, nullptr};
    ok = frame.dfs(0, 0);
  } else {
    std::unordered_set<std::string> str_failed;
    detail::LinearizeFrame<Spec, false> frame{
        spec, h, completed_mask, pred, scratch, &str_failed};
    ok = frame.dfs(0, 0);
  }
  if (ok) {
    result.linearizable = true;
    result.order.assign(scratch.order.begin(), scratch.order.end());
  } else {
    result.message = "no legal linearization exists";
  }
  return result;
}

/// Convenience: checks and throws `SpecViolation` (with the history dump)
/// when not linearizable.
template <class Spec>
void require_linearizable(const Spec& spec, const History& history) {
  const LinearizationResult r = check_linearizable(spec, history.entries());
  if (!r.linearizable) {
    throw SpecViolation("history not linearizable: " + r.message + "\n" +
                        history.dump());
  }
}

}  // namespace subc
