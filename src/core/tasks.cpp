#include "subc/core/tasks.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace subc {

std::string format_decisions(std::span<const Value> decisions) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    os << (i ? "," : "") << to_string(decisions[i]);
  }
  os << ']';
  return os.str();
}

int distinct_decisions(std::span<const Value> decisions) {
  std::set<Value> seen;
  for (const Value d : decisions) {
    if (d != kBottom) {
      seen.insert(d);
    }
  }
  return static_cast<int>(seen.size());
}

void check_validity(std::span<const Value> inputs,
                    std::span<const Value> decisions) {
  for (std::size_t pid = 0; pid < decisions.size(); ++pid) {
    const Value d = decisions[pid];
    if (d == kBottom) {
      continue;
    }
    if (std::find(inputs.begin(), inputs.end(), d) == inputs.end()) {
      throw SpecViolation("validity violated: process " + std::to_string(pid) +
                          " decided " + to_string(d) +
                          " which nobody proposed; decisions=" +
                          format_decisions(decisions));
    }
  }
}

void check_k_agreement(std::span<const Value> decisions, int k) {
  const int distinct = distinct_decisions(decisions);
  if (distinct > k) {
    throw SpecViolation("k-agreement violated: " + std::to_string(distinct) +
                        " distinct decisions, bound " + std::to_string(k) +
                        "; decisions=" + format_decisions(decisions));
  }
}

void check_agreement(std::span<const Value> decisions) {
  check_k_agreement(decisions, 1);
}

void check_decided_if_done(const Runtime::RunResult& result) {
  for (std::size_t pid = 0; pid < result.states.size(); ++pid) {
    if (result.states[pid] == ProcState::kDone &&
        result.decisions[pid] == kBottom) {
      throw SpecViolation("process " + std::to_string(pid) +
                          " finished without deciding");
    }
  }
}

void check_all_done_and_decided(const Runtime::RunResult& result) {
  if (result.cut) {
    return;  // unfinished by design; spares the message formatting
  }
  for (std::size_t pid = 0; pid < result.states.size(); ++pid) {
    if (result.states[pid] != ProcState::kDone) {
      throw SpecViolation("process " + std::to_string(pid) +
                          " did not finish: state=" +
                          to_string(result.states[pid]));
    }
  }
  check_decided_if_done(result);
  for (std::size_t pid = 0; pid < result.decisions.size(); ++pid) {
    if (result.decisions[pid] == kBottom) {
      throw SpecViolation("process " + std::to_string(pid) + " never decided");
    }
  }
}

void check_election_validity(std::span<const Value> decisions,
                             std::span<const int> participants) {
  for (std::size_t pid = 0; pid < decisions.size(); ++pid) {
    const Value d = decisions[pid];
    if (d == kBottom) {
      continue;
    }
    const bool known = std::any_of(
        participants.begin(), participants.end(),
        [d](int p) { return static_cast<Value>(p) == d; });
    if (!known) {
      throw SpecViolation("election validity violated: process " +
                          std::to_string(pid) + " elected non-participant " +
                          to_string(d));
    }
  }
}

void check_self_election(std::span<const Value> decisions) {
  for (std::size_t pid = 0; pid < decisions.size(); ++pid) {
    const Value d = decisions[pid];
    if (d == kBottom) {
      continue;
    }
    if (d < 0 || static_cast<std::size_t>(d) >= decisions.size() ||
        decisions[static_cast<std::size_t>(d)] != d) {
      throw SpecViolation("self-election violated: process " +
                          std::to_string(pid) + " elected " + to_string(d) +
                          " but " + to_string(d) + " did not elect itself; " +
                          format_decisions(decisions));
    }
  }
}

void check_renaming(std::span<const Value> names, int limit) {
  std::set<Value> seen;
  for (std::size_t pid = 0; pid < names.size(); ++pid) {
    const Value name = names[pid];
    if (name == kBottom) {
      continue;
    }
    if (name < 0 || name >= limit) {
      throw SpecViolation("renaming: name " + to_string(name) +
                          " out of range [0," + std::to_string(limit) + ")");
    }
    if (!seen.insert(name).second) {
      throw SpecViolation("renaming: duplicate name " + to_string(name) +
                          "; names=" + format_decisions(names));
    }
  }
}

void check_set_consensus(const Runtime::RunResult& result,
                         std::span<const Value> inputs, int k) {
  check_decided_if_done(result);
  check_validity(inputs, result.decisions);
  check_k_agreement(result.decisions, k);
}

}  // namespace subc
