// Write-and-Read-Next objects — the paper's central contribution (§3).
//
// WRN_k has a single operation WRN(i, v), i ∈ {0..k-1}, v ≠ ⊥: atomically
// write v into slot i and return the current content of slot (i+1) mod k
// (⊥ if never written). Algorithm 1 of the paper is its sequential spec.
//
// 1sWRN_k (OneShotWrn) is identical except every index may be used at most
// once; a second invocation with the same index hangs the system
// undetectably.
//
// For k = 2, WRN_2 is a SWAP object (consensus number 2). For k ≥ 3 the
// paper proves consensus number 1 but strictly more power than registers —
// the witness objects for the sub-consensus hierarchy.
//
// State/core split (multi-instance runtime, docs/explorer.md): the object
// state lives in a plain struct (`WrnState`, `OneShotWrnState`) and the
// atomic commit body is a free function core taking an explicit state-block
// pointer (`wrn_commit`, `one_shot_wrn_commit`). The member classes below
// bind one state block to one world; the `InstanceTable`
// (runtime/instance.hpp) carves thousands of such blocks from one arena and
// drives the same cores outside any simulated world. Both execution engines
// and the service path therefore share one commit body per object.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "subc/runtime/hashing.hpp"
#include "subc/runtime/runtime.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

/// Detached state of a WRN_k object: pure data, no world binding.
struct WrnState {
  int k = 0;
  std::vector<Value> slots;

  /// (Re)initialises for a fresh WRN_k; reuses the slot buffer's capacity,
  /// so recycled instance blocks stop allocating in steady state.
  void reset(int k_arg) {
    k = k_arg;
    slots.assign(static_cast<std::size_t>(k_arg), kBottom);
  }
};

/// Argument validation shared by every WRN entry point (throws SimError).
void wrn_check_params(int k, int index, Value v);

/// The sequential WRN body (Algorithm 1), engine- and fingerprint-free:
/// slot[i] = v; return slot[(i+1) mod k].
Value wrn_apply(WrnState* st, int index, Value v);

/// The atomic WRN commit core: runs inside a granted step (or a service
/// context), applies Algorithm 1 to the explicit state block, and makes the
/// fingerprint reports (observe the returned neighbour slot, commit the
/// post-write slot vector) both engines and the instance layer share.
template <class Ctx>
Value wrn_commit(Ctx& ctx, const ObjectId& id, WrnState* st, int index,
                 Value v) {
  const Value out = wrn_apply(st, index, v);
  if (ctx.fingerprinting()) {
    ctx.observe_fp(detail::fp_of(out));
    ctx.commit_fp(id, detail::fp_of(st->slots));
  }
  return out;
}

/// The deterministic WRN_k object (Algorithm 1), bound to one world.
class WrnObject {
 public:
  explicit WrnObject(int k, Durability durability = Durability::kDurable);

  /// Atomically: slot[i] = v; return slot[(i+1) mod k].
  Value wrn(Context& ctx, int index, Value v);

  [[nodiscard]] int k() const noexcept { return state_.k; }

  /// Post-run peek at a slot (never call from process code).
  [[nodiscard]] Value peek(int index) const;

  /// Stepped-engine access (runtime/stepper.hpp): announce
  /// `{oid(), kRmw}` at the step point, run the atomic body via `step_wrn`
  /// inside the granted step. Routes through the same `wrn_commit` core as
  /// the fiber form and the instance layer.
  [[nodiscard]] const ObjectId& oid() const noexcept { return id_; }

  template <class Ctx>
  Value step_wrn(Ctx& ctx, int index, Value v) {
    arm_volatile(ctx);
    return wrn_commit(ctx, id_, &state_, index, v);
  }

 private:
  /// Volatile variant (crash-recovery, `Durability`): arm the crash-event
  /// reset hook on first mutation; `WrnState::reset` is the natural wipe.
  /// Captures `this` — a volatile WRN must not relocate after first use.
  template <class Ctx>
  void arm_volatile(Ctx& ctx) {
    if (durability_ == Durability::kDurable || armed_) {
      return;
    }
    armed_ = true;
    ctx.runtime().add_volatile_reset([this](Runtime& rt) {
      state_.reset(state_.k);
      rt.refresh_commit_fp(id_, detail::fp_of(state_.slots));
    });
  }

  ObjectId id_;
  WrnState state_;
  Durability durability_ = Durability::kDurable;
  bool armed_ = false;
};

/// Detached state of a 1sWRN_k object.
struct OneShotWrnState {
  int k = 0;
  std::vector<Value> slots;
  std::vector<bool> used;

  void reset(int k_arg) {
    k = k_arg;
    slots.assign(static_cast<std::size_t>(k_arg), kBottom);
    used.assign(static_cast<std::size_t>(k_arg), false);
  }
};

/// Slots + used bits, mixed exactly like OneShotWrnSpec::hash — the
/// per-object commit term of the world fingerprint.
[[nodiscard]] std::uint64_t one_shot_wrn_state_hash(const OneShotWrnState& st);

/// The atomic 1sWRN commit core. On index reuse it hangs the process
/// (`ctx.hang()`) and returns ⊥ — stepped/service callers must cut short
/// (the fiber `Context::hang` never returns). Fingerprint reports: observe
/// the returned slot, commit slots + used bits.
template <class Ctx>
Value one_shot_wrn_commit(Ctx& ctx, const ObjectId& id, OneShotWrnState* st,
                          int index, Value v) {
  wrn_check_params(st->k, index, v);
  const auto i = static_cast<std::size_t>(index);
  if (st->used[i]) {
    // "Any attempt to invoke 1sWRN with the same index twice is illegal,
    // and hangs the system in a manner that cannot be detected."
    ctx.hang();      // never returns on the fiber engine
    return kBottom;  // stepped/service caller must cut short
  }
  st->used[i] = true;
  st->slots[i] = v;
  const Value out = st->slots[(i + 1) % static_cast<std::size_t>(st->k)];
  if (ctx.fingerprinting()) {
    ctx.observe_fp(detail::fp_of(out));
    ctx.commit_fp(id, one_shot_wrn_state_hash(*st));
  }
  return out;
}

/// The one-shot variant 1sWRN_k: reusing an index hangs undetectably.
class OneShotWrnObject {
 public:
  explicit OneShotWrnObject(int k,
                            Durability durability = Durability::kDurable);

  /// As WrnObject::wrn, but each index is usable at most once.
  Value wrn(Context& ctx, int index, Value v);

  [[nodiscard]] int k() const noexcept { return state_.k; }

  /// Stepped-engine form: announce `{oid(), kRmw}`, run inside the grant.
  /// On index reuse it hangs the process (`StepContext::hang`) and returns
  /// ⊥ — call through `SUBC_STEP_CALL` so the body cuts short, mirroring
  /// the fiber form where `Context::hang` never returns. Routes through the
  /// same `one_shot_wrn_commit` core as the fiber form and the instance
  /// layer.
  [[nodiscard]] const ObjectId& oid() const noexcept { return id_; }

  template <class Ctx>
  Value step_wrn(Ctx& ctx, int index, Value v) {
    arm_volatile(ctx);
    return one_shot_wrn_commit(ctx, id_, &state_, index, v);
  }

 private:
  /// As WrnObject::arm_volatile: crash events wipe slots *and* used bits
  /// (`OneShotWrnState::reset`) for the volatile variant — a recovered
  /// incarnation may legally reuse its index against a wiped object.
  template <class Ctx>
  void arm_volatile(Ctx& ctx) {
    if (durability_ == Durability::kDurable || armed_) {
      return;
    }
    armed_ = true;
    ctx.runtime().add_volatile_reset([this](Runtime& rt) {
      state_.reset(state_.k);
      rt.refresh_commit_fp(id_, one_shot_wrn_state_hash(state_));
    });
  }

  ObjectId id_;
  OneShotWrnState state_;
  Durability durability_ = Durability::kDurable;
  bool armed_ = false;
};

/// Sequential specification of 1sWRN_k for the linearizability checker
/// (subc/checking/linearizability.hpp). Operations are encoded as
/// {index, value}; responses as {returned value}. Applying a repeated index
/// is illegal (the checker treats it as "this linearization is impossible").
struct OneShotWrnSpec {
  int k;

  struct State {
    std::vector<Value> slots;
    std::vector<bool> used;
  };

  [[nodiscard]] State initial() const {
    return State{std::vector<Value>(static_cast<std::size_t>(k), kBottom),
                 std::vector<bool>(static_cast<std::size_t>(k), false)};
  }

  /// Applies op = {index, v}. Returns false when the op is illegal in this
  /// state; otherwise fills `response` and mutates `state`.
  bool apply(State& state, std::span<const Value> op,
             std::vector<Value>& response) const {
    SUBC_ASSERT(op.size() == 2);
    const auto i = static_cast<std::size_t>(op[0]);
    SUBC_ASSERT(op[0] >= 0 && op[0] < k);
    if (state.used[i]) {
      return false;
    }
    state.used[i] = true;
    state.slots[i] = op[1];
    response = {state.slots[(i + 1) % static_cast<std::size_t>(k)]};
    return true;
  }
  /// The same, for an op written in place: `apply(state, {index, v}, r)`.
  bool apply(State& state, std::initializer_list<Value> op,
             std::vector<Value>& response) const {
    return apply(state, std::span<const Value>(op.begin(), op.size()),
                 response);
  }

  /// Memoization key for the checker.
  [[nodiscard]] std::string key(const State& state) const {
    std::string s;
    for (int i = 0; i < k; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      s += state.used[idx] ? 'U' : '.';
      s += to_string(state.slots[idx]);
      s += '|';
    }
    return s;
  }

  /// Memoization fingerprint for the checker's hashed memo: mixes each slot
  /// (value + used bit) without building the `key()` string.
  [[nodiscard]] std::uint64_t hash(const State& state) const {
    std::uint64_t h = 0x6a09e667f3bcc909ULL;
    for (int i = 0; i < k; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const auto v = static_cast<std::uint64_t>(state.slots[idx]);
      h = detail::mix64(h ^ v ^ (state.used[idx] ? 0x8000000000000000ULL : 0));
    }
    return h;
  }
};

}  // namespace subc
