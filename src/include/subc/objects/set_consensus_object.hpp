// The nondeterministic (n,k)-set-consensus object, exactly as defined in the
// papers' model section: its value is a set of at most k proposals plus a
// propose count (to a maximum of n). The first propose adds its input to the
// set; any later propose may nondeterministically add its input while the
// set is smaller than k; each of the first n proposes nondeterministically
// returns an element of the set; all subsequent proposes hang the system
// undetectably. Nondeterminism is resolved adversarially through
// `Context::choose`, so the exhaustive explorer enumerates every behaviour.
//
// State/core split (multi-instance runtime, runtime/instance.hpp): the
// object state is a plain `SetConsensusState` block and the propose body is
// the free `set_consensus_propose` core taking an explicit state pointer,
// so one arena can serve thousands of concurrent set-consensus instances
// outside any simulated world. The core makes no fingerprint reports —
// set-consensus worlds stay unported for stateful exploration, which
// soundly poisons their fingerprints (docs/explorer.md).
#pragma once

#include <vector>

#include "subc/runtime/runtime.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

/// Detached state of an (n,k)-set-consensus object.
struct SetConsensusState {
  int n = 0;
  int k = 0;
  int proposals = 0;
  std::vector<Value> set;

  void reset(int n_arg, int k_arg) {
    if (k_arg < 1 || n_arg <= k_arg) {
      throw SimError("SetConsensusObject requires 1 <= k < n");
    }
    n = n_arg;
    k = k_arg;
    proposals = 0;
    set.clear();
  }

  [[nodiscard]] bool contains(Value v) const {
    for (const Value x : set) {
      if (x == v) {
        return true;
      }
    }
    return false;
  }
};

/// Argument validation shared by every set-consensus entry point (throws
/// SimError on ⊥).
inline void set_consensus_check_proposal(Value v) {
  if (v == kBottom) {
    throw SimError("propose(⊥) is illegal");
  }
}

/// The atomic set-consensus propose core: runs inside a granted step (or a
/// service context) against the explicit state block. The (n+1)-th propose
/// hangs the process (`ctx.hang()`) and returns ⊥ — stepped/service callers
/// must cut short (the fiber `Context::hang` never returns). Nondeterminism
/// is resolved through `ctx.choose`, so the adversary shape is identical on
/// every path.
template <class Ctx>
Value set_consensus_propose(Ctx& ctx, SetConsensusState* st, Value v) {
  set_consensus_check_proposal(v);
  if (st->proposals == st->n) {
    ctx.hang();      // never returns on the fiber engine
    return kBottom;  // stepped/service caller must cut short
  }
  ++st->proposals;
  if (st->set.empty()) {
    st->set.push_back(v);
  } else if (static_cast<int>(st->set.size()) < st->k && !st->contains(v)) {
    // Adversary decides whether this proposal joins the value set.
    if (ctx.choose(2) == 1) {
      st->set.push_back(v);
    }
  }
  // Adversary picks which element of the set this propose returns.
  const auto idx = ctx.choose(static_cast<std::uint32_t>(st->set.size()));
  return st->set[idx];
}

/// Nondeterministic (n,k)-set-consensus object, bound to one world.
class SetConsensusObject {
 public:
  SetConsensusObject(int n, int k) { state_.reset(n, k); }

  /// Proposes `v`; returns an adversarially chosen element of the value set.
  Value propose(Context& ctx, Value v) {
    set_consensus_check_proposal(v);
    ctx.sched_point(id_, AccessKind::kChoose);
    return step_propose(ctx, v);
  }

  /// Stepped-engine form: announce `{oid(), kChoose}`, run inside the
  /// grant through `SUBC_STEP_CALL` so the hang path cuts the body short.
  /// Routes through the same `set_consensus_propose` core as the fiber form
  /// and the instance layer.
  [[nodiscard]] const ObjectId& oid() const noexcept { return id_; }

  template <class Ctx>
  Value step_propose(Ctx& ctx, Value v) {
    return set_consensus_propose(ctx, &state_, v);
  }

  [[nodiscard]] int capacity() const noexcept { return state_.n; }
  [[nodiscard]] int agreement() const noexcept { return state_.k; }

 private:
  ObjectId id_;
  SetConsensusState state_;
};

}  // namespace subc
