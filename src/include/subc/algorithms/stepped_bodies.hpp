// Stepped-engine (runtime/stepper.hpp) forms of the hot algorithm bodies:
// the bench-grid worlds (bench_f5), the equivalence-pin worlds
// (tests/equivalence_pin_test.cpp) and the classic swap-consensus routine.
//
// Each struct is a resumable state machine registered with
// `Runtime::add_stepped`; everything that must survive a suspension is a
// member (trailing underscore = resumable scratch, not configuration). The
// bodies announce exactly the footprints their fiber twins announce, in the
// same order, so a world hosted on either engine explores bit-identically.
#pragma once

#include "subc/algorithms/classic_consensus.hpp"
#include "subc/objects/onk.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/set_consensus_object.hpp"
#include "subc/objects/sticky_register.hpp"
#include "subc/objects/swap.hpp"
#include "subc/objects/wrn.hpp"
#include "subc/runtime/stepper.hpp"

namespace subc {

/// `steps` atomic reads of one shared register — the bench-grid "reads"
/// world (bench_f5 headline).
struct SteppedRegisterReader {
  Register<>* reg;
  int steps;

  int s_ = 0;

  void step(StepContext& ctx) {
    SUBC_STEP_BEGIN(ctx);
    for (s_ = 0; s_ < steps; ++s_) {
      SUBC_STEP_POINT(ctx, reg->oid(), AccessKind::kRead);
      static_cast<void>(reg->step_read(ctx));
    }
    SUBC_STEP_END(ctx);
  }
};

/// Alternates a write to this process's own register with a write to one
/// shared register — the bench-grid "mixed" (partial-conflict) world.
struct SteppedMixedWriter {
  Register<>* own;
  Register<>* shared;
  int pid;
  int steps;

  int s_ = 0;

  void step(StepContext& ctx) {
    SUBC_STEP_BEGIN(ctx);
    for (s_ = 0; s_ < steps; ++s_) {
      if (s_ % 2 == 0) {
        SUBC_STEP_POINT(ctx, own->oid(), AccessKind::kWrite);
        own->step_write(ctx, s_);
      } else {
        SUBC_STEP_POINT(ctx, shared->oid(), AccessKind::kWrite);
        shared->step_write(ctx, pid);
      }
    }
    SUBC_STEP_END(ctx);
  }
};

/// Writes `value` to `mine`, then reads `next` into `*seen` — the
/// equivalence-pin register world's per-process body.
struct SteppedWriteThenRead {
  Register<>* mine;
  Register<>* next;
  Value value;
  Value* seen;

  void step(StepContext& ctx) {
    SUBC_STEP_BEGIN(ctx);
    SUBC_STEP_POINT(ctx, mine->oid(), AccessKind::kWrite);
    mine->step_write(ctx, value);
    SUBC_STEP_POINT(ctx, next->oid(), AccessKind::kRead);
    *seen = next->step_read(ctx);
    SUBC_STEP_END(ctx);
  }
};

/// Proposes `value` on a GAC object and decides the result (hangs past
/// capacity, exactly like the fiber form).
struct SteppedGacProposer {
  GacObject* gac;
  Value value;

  Value got_ = kBottom;

  void step(StepContext& ctx) {
    SUBC_STEP_BEGIN(ctx);
    SUBC_STEP_POINT(ctx, gac->oid(), AccessKind::kRmw);
    SUBC_STEP_CALL(ctx, got_, gac->step_propose(ctx, value));
    ctx.decide(got_);
    SUBC_STEP_END(ctx);
  }
};

/// Proposes `value` on an (n,k)-set-consensus object and decides the result
/// (hangs past capacity, exactly like the fiber form). Routes through the
/// same `set_consensus_propose` core as the fiber form and the instance
/// layer (runtime/instance.hpp).
struct SteppedSetConsensusProposer {
  SetConsensusObject* object;
  Value value;

  Value got_ = kBottom;

  void step(StepContext& ctx) {
    SUBC_STEP_BEGIN(ctx);
    SUBC_STEP_POINT(ctx, object->oid(), AccessKind::kChoose);
    SUBC_STEP_CALL(ctx, got_, object->step_propose(ctx, value));
    ctx.decide(got_);
    SUBC_STEP_END(ctx);
  }
};

/// One 1sWRN(index, value) invocation, result stored into `*out` (left
/// untouched when the invocation hangs on index reuse).
struct SteppedOneShotWrn {
  OneShotWrnObject* wrn;
  int index;
  Value value;
  Value* out;

  Value got_ = kBottom;

  void step(StepContext& ctx) {
    SUBC_STEP_BEGIN(ctx);
    SUBC_STEP_POINT(ctx, wrn->oid(), AccessKind::kRmw);
    SUBC_STEP_CALL(ctx, got_, wrn->step_wrn(ctx, index, value));
    *out = got_;
    SUBC_STEP_END(ctx);
  }
};

/// `consensus_from_sticky` as a state machine: stick own value, decide what
/// stuck. The canonical recoverable-consensus proposer of the crash-
/// recovery model (docs/adversaries.md): a recovered incarnation re-enters
/// here from the top with `got_` reset by the engine's pristine-state
/// restore, re-sticks against the surviving (durable) register, and is
/// handed the original winner — which the decide-twice relaxation accepts
/// as an idempotent re-decision. Against a *volatile* sticky register the
/// wiped state lets a later incarnation stick a different value, which the
/// machine-check convicts.
struct SteppedStickyConsensus {
  StickyRegister* sticky;
  Value value;

  Value got_ = kBottom;

  void step(StepContext& ctx) {
    SUBC_STEP_BEGIN(ctx);
    SUBC_STEP_POINT(ctx, sticky->oid(), AccessKind::kRmw);
    got_ = sticky->step_stick(ctx, value);
    ctx.decide(got_);
    SUBC_STEP_END(ctx);
  }
};

/// `consensus2_from_swap` as a state machine: announce, swap own role in;
/// ⊥ back = won (decide own value), else decide the winner's announcement.
struct SteppedSwapConsensus {
  TwoConsensusShared* shared;
  SwapRegister* swap;
  int role;
  Value value;

  Value previous_ = kBottom;

  void step(StepContext& ctx) {
    SUBC_STEP_BEGIN(ctx);
    if (role != 0 && role != 1) {
      throw SimError("2-consensus role must be 0 or 1");
    }
    SUBC_STEP_POINT(ctx, shared->announce[role].oid(), AccessKind::kWrite);
    shared->announce[role].step_write(ctx, value);
    SUBC_STEP_POINT(ctx, swap->oid(), AccessKind::kRmw);
    previous_ = swap->step_swap(ctx, role);
    if (previous_ == kBottom) {
      ctx.decide(value);  // first to swap: winner
      SUBC_STEP_RETURN(ctx);
    }
    SUBC_STEP_POINT(ctx, shared->announce[static_cast<int>(previous_)].oid(),
                    AccessKind::kRead);
    ctx.decide(shared->announce[static_cast<int>(previous_)].step_read(ctx));
    SUBC_STEP_END(ctx);
  }
};

}  // namespace subc
