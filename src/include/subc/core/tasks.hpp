// Task specifications and output validators (§2 of the paper).
//
// A task constrains the combinations of outputs processes may produce given
// their inputs and the participating set. After a simulated run, validators
// check the recorded decisions and throw `SpecViolation` (carrying enough
// context to replay) on any breach. They are the assertion vocabulary used
// by tests, the exhaustive explorer and the benches.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "subc/runtime/runtime.hpp"
#include "subc/runtime/value.hpp"

namespace subc {

/// Number of distinct non-⊥ decisions.
int distinct_decisions(std::span<const Value> decisions);

/// Validity: every non-⊥ decision equals some process's input.
void check_validity(std::span<const Value> inputs,
                    std::span<const Value> decisions);

/// k-agreement: at most k distinct non-⊥ decisions.
void check_k_agreement(std::span<const Value> decisions, int k);

/// Agreement: all non-⊥ decisions equal (1-agreement).
void check_agreement(std::span<const Value> decisions);

/// Every process that finished (`done`) must have decided.
void check_decided_if_done(const Runtime::RunResult& result);

/// Every process is done and decided — the wait-free happy path where all
/// participate. Checks nothing on a cut run (`RunResult::cut`): its world
/// is partial by design and is discarded whatever this would report.
void check_all_done_and_decided(const Runtime::RunResult& result);

/// Election validity: every decision is the id (pid) of a process that
/// participated, i.e. appears among `participants`.
void check_election_validity(std::span<const Value> decisions,
                             std::span<const int> participants);

/// Self-election (strong set election): if any process decides id j, then
/// process j decided j. Decisions are ids == pids.
void check_self_election(std::span<const Value> decisions);

/// Renaming: names are pairwise distinct and lie in [0, limit).
void check_renaming(std::span<const Value> names, int limit);

/// Full (n,k)-set-consensus post-run check: done⇒decided, validity and
/// k-agreement in one call.
void check_set_consensus(const Runtime::RunResult& result,
                         std::span<const Value> inputs, int k);

/// Renders the decision vector for diagnostics.
std::string format_decisions(std::span<const Value> decisions);

}  // namespace subc
