#include "subc/core/consensus_number.hpp"

#include <sstream>

#include "subc/core/tasks.hpp"
#include "subc/objects/onk.hpp"
#include "subc/objects/register.hpp"
#include "subc/objects/wrn.hpp"

namespace subc {

// ---------------------------------------------------------------------------
// WrnModel
// ---------------------------------------------------------------------------

std::vector<WrnModel::State> WrnModel::states() const {
  // All assignments of {⊥} ∪ domain to the k slots. This superset of the
  // reachable states makes the coverage check conservative.
  std::vector<Value> alphabet;
  alphabet.push_back(kBottom);
  alphabet.insert(alphabet.end(), domain.begin(), domain.end());
  std::vector<State> out;
  State current(static_cast<std::size_t>(k), kBottom);
  const std::size_t base = alphabet.size();
  std::size_t total = 1;
  for (int s = 0; s < k; ++s) {
    total *= base;
  }
  out.reserve(total);
  for (std::size_t code = 0; code < total; ++code) {
    std::size_t rest = code;
    for (int s = 0; s < k; ++s) {
      current[static_cast<std::size_t>(s)] = alphabet[rest % base];
      rest /= base;
    }
    out.push_back(current);
  }
  return out;
}

std::vector<WrnModel::Op> WrnModel::ops() const {
  std::vector<Op> out;
  for (int index = 0; index < k; ++index) {
    for (const Value v : domain) {
      out.push_back(Op{index, v});
    }
  }
  return out;
}

std::optional<Value> WrnModel::apply(State& s, const Op& op) const {
  s[static_cast<std::size_t>(op.index)] = op.v;
  return s[static_cast<std::size_t>((op.index + 1) % k)];
}

std::string WrnModel::key(const State& s) const {
  std::string out;
  for (const Value v : s) {
    out += to_string(v);
    out += '|';
  }
  return out;
}

std::string WrnModel::describe(const Op& op) {
  return "WRN(" + std::to_string(op.index) + "," + to_string(op.v) + ")";
}

// ---------------------------------------------------------------------------
// GacModel
// ---------------------------------------------------------------------------

std::vector<GacModel::State> GacModel::states() const {
  // Arrival prefixes of length 0..capacity. Only "readable" positions
  // (block firsts; position 0) influence any future response, so other
  // positions carry a fixed placeholder — this collapses the state space
  // without losing distinguishing power.
  const int capacity = n * (i + 1) + i;
  constexpr Value kPlaceholder = 77;  // never read back
  std::vector<State> out;
  for (int len = 0; len <= capacity; ++len) {
    // Readable positions within the prefix.
    std::vector<int> readable;
    for (int t = 1; t <= len; ++t) {
      const bool block_first = (t <= n * (i + 1)) && ((t - 1) % n == 0);
      if (block_first) {
        readable.push_back(t - 1);
      }
    }
    std::size_t combos = 1;
    for (std::size_t r = 0; r < readable.size(); ++r) {
      combos *= domain.size();
    }
    for (std::size_t code = 0; code < combos; ++code) {
      State s;
      s.arrivals.assign(static_cast<std::size_t>(len), kPlaceholder);
      std::size_t rest = code;
      for (const int pos : readable) {
        s.arrivals[static_cast<std::size_t>(pos)] =
            domain[rest % domain.size()];
        rest /= domain.size();
      }
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<GacModel::Op> GacModel::ops() const {
  std::vector<Op> out;
  out.reserve(domain.size());
  for (const Value v : domain) {
    out.push_back(Op{v});
  }
  return out;
}

std::optional<Value> GacModel::apply(State& s, const Op& op) const {
  const int capacity = n * (i + 1) + i;
  const int t = static_cast<int>(s.arrivals.size()) + 1;
  if (t > capacity) {
    return std::nullopt;  // hangs; no mutation
  }
  s.arrivals.push_back(op.v);
  if (t <= n * (i + 1)) {
    const int block = (t - 1) / n;
    return s.arrivals[static_cast<std::size_t>(block * n)];
  }
  return s.arrivals[0];
}

std::string GacModel::key(const State& s) const {
  // Canonical (bisimulation) key: two states with equal keys produce equal
  // responses for every future operation sequence. Future responses depend
  // only on the arrival count, on arrivals[0] (read by block-0 members and
  // by the wrap-around arrivals), and on the current block's first value
  // while that block is still incomplete. Dead positions (completed blocks
  // other than 0, non-first members) never influence anything again.
  const int len = static_cast<int>(s.arrivals.size());
  std::string out = std::to_string(len) + ":";
  if (len >= 1) {
    out += to_string(s.arrivals[0]);
  }
  out += '|';
  if (len < n * (i + 1) && len % n != 0) {
    out += to_string(s.arrivals[static_cast<std::size_t>((len / n) * n)]);
  }
  return out;
}

std::string GacModel::describe(const Op& op) {
  return "propose(" + to_string(op.v) + ")";
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

ValenceReport check_wrn_valence(int k) {
  if (k < 2) {
    throw SimError("check_wrn_valence requires k >= 2");
  }
  return check_valence_cases(WrnModel{k, {1, 2}});
}

ValenceReport check_gac_valence(int n, int i) {
  if (n < 1 || i < 0) {
    throw SimError("check_gac_valence requires n >= 1, i >= 0");
  }
  return check_valence_cases(GacModel{n, i, {1, 2}});
}

ConsensusCheck check_consensus_algorithm(
    const ConsensusWorldBody& body,
    const std::vector<std::vector<Value>>& input_vectors,
    std::int64_t max_executions_per_input, int threads) {
  ConsensusCheck check;
  check.exhaustive = true;
  for (const auto& inputs : input_vectors) {
    Explorer::Options opts;
    opts.max_executions = max_executions_per_input;
    opts.threads = threads;
    const Explorer::Result r = Explorer::explore(
        [&](ScheduleDriver& driver) { body(driver, inputs); }, opts);
    check += r;
    if (!r.complete) {
      check.exhaustive = false;
    }
    if (!r.ok()) {
      std::ostringstream os;
      os << "inputs=" << format_decisions(inputs) << ": " << *r.violation
         << " [trace " << format_trace(r.violating_trace) << "]";
      check.violation = os.str();
      return check;
    }
  }
  return check;
}

ProtocolSearchResult search_wrn_two_consensus_protocols(int k) {
  if (k < 2) {
    throw SimError("protocol search requires k >= 2");
  }
  ProtocolSearchResult result;
  const std::vector<std::vector<Value>> input_vectors{{0, 1}, {1, 0}, {4, 4}};
  WrnProtocol protocol;
  for (protocol.index[0] = 0; protocol.index[0] < k; ++protocol.index[0]) {
    for (protocol.index[1] = 0; protocol.index[1] < k; ++protocol.index[1]) {
      for (protocol.rule[0] = 0; protocol.rule[0] < 5; ++protocol.rule[0]) {
        for (protocol.rule[1] = 0; protocol.rule[1] < 5; ++protocol.rule[1]) {
          ++result.protocols_checked;
          const auto body = [k, protocol](ScheduleDriver& driver,
                                          const std::vector<Value>& inputs) {
            Runtime rt;
            WrnObject wrn(k);
            RegisterArray<Value> announce(2, kBottom);
            for (int b = 0; b < 2; ++b) {
              rt.add_process([&, b](Context& ctx) {
                const Value own = inputs[static_cast<std::size_t>(b)];
                announce[b].write(ctx, own);
                const Value t = wrn.wrn(ctx, protocol.index[b], own);
                const auto other = [&]() {
                  const Value o = announce[1 - b].read(ctx);
                  return o != kBottom ? o : own;
                };
                Value decision = own;
                switch (protocol.rule[b]) {
                  case 0:
                    decision = own;
                    break;
                  case 1:
                    decision = t != kBottom ? t : own;
                    break;
                  case 2:
                    decision = t != kBottom ? other() : own;
                    break;
                  case 3:
                    decision = t != kBottom ? own : other();
                    break;
                  case 4:
                    decision = t != kBottom ? t : other();
                    break;
                  default:
                    break;
                }
                ctx.decide(decision);
              });
            }
            const auto run = rt.run(driver);
            check_all_done_and_decided(run);
            check_validity(inputs, run.decisions);
            check_agreement(run.decisions);
          };
          const ConsensusCheck check =
              check_consensus_algorithm(body, input_vectors, 10'000);
          if (check.ok() && check.exhaustive) {
            ++result.correct;
            result.winners.push_back(protocol);
          }
        }
      }
    }
  }
  return result;
}

ProtocolSearchResult search_gac_consensus_protocols(int n, int i, int procs) {
  if (n < 1 || i < 0 || procs < 1 || procs > 8) {
    throw SimError("GAC protocol search requires n >= 1, i >= 0, procs <= 8");
  }
  ProtocolSearchResult result;
  constexpr int kRules = 4;
  long combos = 1;
  for (int p = 0; p < procs; ++p) {
    combos *= kRules;
  }
  // Distinct inputs; the value encodes the proposer (base + pid) so rule 3
  // can look up the announcement of the returned value's owner.
  constexpr Value kBase = 100;
  std::vector<Value> inputs;
  for (int p = 0; p < procs; ++p) {
    inputs.push_back(kBase + p);
  }
  for (long code = 0; code < combos; ++code) {
    ++result.protocols_checked;
    GacProtocol protocol;
    long rest = code;
    for (int p = 0; p < procs; ++p) {
      protocol.rule[p] = static_cast<int>(rest % kRules);
      rest /= kRules;
    }
    const auto body = [&, protocol](ScheduleDriver& driver,
                                    const std::vector<Value>& in) {
      Runtime rt;
      GacObject gac(n, i);
      RegisterArray<Value> announce(procs, kBottom);
      for (int p = 0; p < procs; ++p) {
        rt.add_process([&, p](Context& ctx) {
          const Value own = in[static_cast<std::size_t>(p)];
          announce[p].write(ctx, own);
          const Value t = gac.propose(ctx, own);
          Value decision = own;
          switch (protocol.rule[p]) {
            case 0:
              decision = own;
              break;
            case 1:
            case 2:
              decision = t;
              break;
            case 3:
              if (t == own) {
                decision = own;
              } else {
                const Value a =
                    announce[static_cast<int>(t - kBase)].read(ctx);
                decision = a != kBottom ? a : own;
              }
              break;
            default:
              break;
          }
          ctx.decide(decision);
        });
      }
      const auto run = rt.run(driver);
      check_all_done_and_decided(run);
      check_validity(in, run.decisions);
      check_agreement(run.decisions);
    };
    const ConsensusCheck check =
        check_consensus_algorithm(body, {inputs}, 200'000);
    if (check.ok() && check.exhaustive) {
      ++result.correct;
    }
  }
  return result;
}

std::optional<std::string> find_consensus_violation(
    const ConsensusWorldBody& body, const std::vector<Value>& inputs,
    std::int64_t max_executions, int threads) {
  Explorer::Options opts;
  opts.max_executions = max_executions;
  opts.threads = threads;
  const Explorer::Result r = Explorer::explore(
      [&](ScheduleDriver& driver) { body(driver, inputs); }, opts);
  if (!r.ok()) {
    return *r.violation + " [trace " + format_trace(r.violating_trace) + "]";
  }
  return std::nullopt;
}

}  // namespace subc
