#include "subc/core/hierarchy.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <sstream>

#include "subc/runtime/value.hpp"

namespace subc {

namespace {
void check_sc_params(int m, int j) {
  if (j < 1 || m <= j) {
    throw SimError("set-consensus parameters require 1 <= j < m");
  }
}
}  // namespace

int sc_partition_agreement(int n, int m, int j) {
  check_sc_params(m, j);
  if (n < 1) {
    throw SimError("n must be positive");
  }
  return j * (n / m) + std::min(j, n % m);
}

int sc_partition_agreement_dp(int n, int m, int j) {
  check_sc_params(m, j);
  if (n < 1) {
    throw SimError("n must be positive");
  }
  // f[x] = minimal distinct outputs to cover x processes; a group of size
  // g <= m contributes min(j, g).
  constexpr int kInf = std::numeric_limits<int>::max() / 2;
  std::vector<int> f(static_cast<std::size_t>(n) + 1, kInf);
  f[0] = 0;
  for (int x = 1; x <= n; ++x) {
    for (int g = 1; g <= std::min(x, m); ++g) {
      f[static_cast<std::size_t>(x)] =
          std::min(f[static_cast<std::size_t>(x)],
                   std::min(j, g) + f[static_cast<std::size_t>(x - g)]);
    }
  }
  return f[static_cast<std::size_t>(n)];
}

bool sc_implementable(int n, int k, int m, int j) {
  if (k >= n) {
    return true;  // (n,k) with k >= n is trivial (everyone decides itself)
  }
  return k >= sc_partition_agreement(n, m, j);
}

int sc_consensus_number(int m, int j) {
  check_sc_params(m, j);
  return m / j;
}

bool wrn_implementable_from(int k_target, int k_source) {
  if (k_target < 3 || k_source < 3) {
    throw SimError("1sWRN_k hierarchy defined for k >= 3");
  }
  // Theorem 2: 1sWRN_k ≡ (k, k−1)-set consensus. Implementing 1sWRN_{k'}
  // means solving (k', k'−1)-set consensus for its k' users.
  return sc_implementable(k_target, k_target - 1, k_source, k_source - 1);
}

void check_wrn_hierarchy_pair(int k, int k_prime) {
  if (!(k < k_prime)) {
    throw SimError("check_wrn_hierarchy_pair requires k < k'");
  }
  if (!wrn_implementable_from(k_prime, k)) {
    throw SpecViolation("hierarchy broken: 1sWRN_" + std::to_string(k_prime) +
                        " should be implementable from 1sWRN_" +
                        std::to_string(k));
  }
  if (wrn_implementable_from(k, k_prime)) {
    throw SpecViolation("hierarchy broken: 1sWRN_" + std::to_string(k) +
                        " should NOT be implementable from 1sWRN_" +
                        std::to_string(k_prime));
  }
}

int onk_component_capacity(int n, int i) {
  if (n < 1 || i < 0) {
    throw SimError("GAC(n,i) requires n >= 1, i >= 0");
  }
  return n * (i + 1) + i;
}

int onk_component_agreement(int i) {
  if (i < 0) {
    throw SimError("GAC component index must be >= 0");
  }
  return i + 1;
}

int onk_best_agreement(int n, int k, int procs) {
  if (n < 1 || k < 1 || procs < 1) {
    throw SimError("onk_best_agreement requires positive n, k, procs");
  }
  constexpr int kInf = std::numeric_limits<int>::max() / 2;
  std::vector<int> f(static_cast<std::size_t>(procs) + 1, kInf);
  f[0] = 0;
  for (int x = 1; x <= procs; ++x) {
    for (int i = 0; i < k; ++i) {
      const int cover = std::min(x, onk_component_capacity(n, i));
      const int cost = onk_component_agreement(i);
      f[static_cast<std::size_t>(x)] =
          std::min(f[static_cast<std::size_t>(x)],
                   cost + f[static_cast<std::size_t>(x - cover)]);
    }
  }
  return f[static_cast<std::size_t>(procs)];
}

int onk_best_agreement_bruteforce(int n, int k, int procs) {
  // Enumerate group choices recursively: each step picks a component i and a
  // group size g in [1, m_i], covering g processes at cost min(j_i, g).
  constexpr int kInf = std::numeric_limits<int>::max() / 2;
  struct Rec {
    int n, k;
    int best = kInf;
    void go(int remaining, int cost) {
      if (cost >= best) {
        return;
      }
      if (remaining == 0) {
        best = cost;
        return;
      }
      for (int i = 0; i < k; ++i) {
        const int cap = onk_component_capacity(n, i);
        for (int g = 1; g <= std::min(remaining, cap); ++g) {
          go(remaining - g,
             cost + std::min(onk_component_agreement(i), g));
        }
      }
    }
  };
  Rec rec{n, k};
  rec.go(procs, 0);
  return rec.best;
}

std::vector<std::pair<int, int>> onk_best_partition(int n, int k, int procs) {
  // Re-run the DP keeping back-pointers.
  constexpr int kInf = std::numeric_limits<int>::max() / 2;
  std::vector<int> f(static_cast<std::size_t>(procs) + 1, kInf);
  std::vector<std::pair<int, int>> choice(static_cast<std::size_t>(procs) + 1,
                                          {-1, -1});
  f[0] = 0;
  for (int x = 1; x <= procs; ++x) {
    for (int i = 0; i < k; ++i) {
      const int cover = std::min(x, onk_component_capacity(n, i));
      const int cost = onk_component_agreement(i);
      const int total = cost + f[static_cast<std::size_t>(x - cover)];
      if (total < f[static_cast<std::size_t>(x)]) {
        f[static_cast<std::size_t>(x)] = total;
        choice[static_cast<std::size_t>(x)] = {i, cover};
      }
    }
  }
  std::vector<std::pair<int, int>> groups;
  for (int x = procs; x > 0;) {
    const auto [i, cover] = choice[static_cast<std::size_t>(x)];
    SUBC_ASSERT(i >= 0);
    groups.emplace_back(i, cover);
    x -= cover;
  }
  return groups;
}

OnkSeparation onk_separation(int n, int k) {
  if (n < 1 || k < 1) {
    throw SimError("onk_separation requires n >= 1, k >= 1");
  }
  OnkSeparation sep;
  sep.n = n;
  sep.k = k;
  sep.system_size = n * k + n + k;  // == onk_component_capacity(n, k)
  sep.agreement_with_k = onk_best_agreement(n, k, sep.system_size);
  sep.agreement_with_k1 = onk_best_agreement(n, k + 1, sep.system_size);
  return sep;
}

namespace {
ObjectClassProfile make_profile(std::string name, int max_procs,
                                const std::function<int(int)>& best) {
  ObjectClassProfile profile;
  profile.name = std::move(name);
  profile.best_agreement.reserve(static_cast<std::size_t>(max_procs));
  for (int procs = 1; procs <= max_procs; ++procs) {
    profile.best_agreement.push_back(best(procs));
  }
  return profile;
}
}  // namespace

ObjectClassProfile profile_registers(int max_procs) {
  return make_profile("registers", max_procs, [](int procs) { return procs; });
}

ObjectClassProfile profile_wrn(int k, int max_procs) {
  if (k < 3) {
    throw SimError("profile_wrn requires k >= 3");
  }
  return make_profile("1sWRN_" + std::to_string(k), max_procs,
                      [k](int procs) {
                        return std::min(procs,
                                        sc_partition_agreement(procs, k,
                                                               k - 1));
                      });
}

ObjectClassProfile profile_consensus(int n, int max_procs) {
  if (n < 1) {
    throw SimError("profile_consensus requires n >= 1");
  }
  return make_profile(std::to_string(n) + "-consensus", max_procs,
                      [n](int procs) { return (procs + n - 1) / n; });
}

ObjectClassProfile profile_onk(int n, int k, int max_procs) {
  return make_profile(
      "O_{" + std::to_string(n) + "," + std::to_string(k) + "}", max_procs,
      [n, k](int procs) {
        return std::min(procs, onk_best_agreement(n, k, procs));
      });
}

ObjectClassProfile profile_cas(int max_procs) {
  return make_profile("compare&swap", max_procs, [](int) { return 1; });
}

ObjectClassProfile profile_set_consensus(int m, int j, int max_procs) {
  check_sc_params(m, j);
  return make_profile(
      std::string("(")
          .append(std::to_string(m))
          .append(",")
          .append(std::to_string(j))
          .append(")-SC"),
      max_procs,
      [m, j](int procs) {
        return std::min(procs, sc_partition_agreement(procs, m, j));
      });
}

std::string format_wrn_matrix(int k_min, int k_max) {
  std::ostringstream os;
  os << "1sWRN implementability: row = target, column = source\n      ";
  for (int src = k_min; src <= k_max; ++src) {
    os << "k=" << src << (src < 10 ? "  " : " ");
  }
  os << '\n';
  for (int tgt = k_min; tgt <= k_max; ++tgt) {
    os << "k=" << tgt << (tgt < 10 ? "   " : "  ");
    for (int src = k_min; src <= k_max; ++src) {
      os << (wrn_implementable_from(tgt, src) ? "  ✓  " : "  ·  ");
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace subc
