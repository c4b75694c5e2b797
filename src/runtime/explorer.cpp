#include "subc/runtime/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "subc/checking/checkpoint.hpp"
#include "subc/checking/violation_log.hpp"
#include "subc/runtime/bounded_queue.hpp"
#include "subc/runtime/hashing.hpp"
#include "subc/runtime/observer.hpp"
#include "subc/runtime/value.hpp"
#include "source_sets.hpp"

namespace subc {
namespace {

using Decision = ReplayDriver::Decision;

// Executions claimed from the shared budget per batch. Participants grab a
// block, consume from it locally (no shared traffic per execution), and
// return what they did not use — the shared state is touched
// O(executions / kBudgetBatch) times instead of once per execution.
constexpr std::int64_t kBudgetBatch = 64;

// State shared by every participant of one exploration (the frontier
// enumerator and all subtree workers).
//
// Budget protocol (see BudgetScope): `granted` counts budget handed out in
// batches and not yet returned; completed executions consume from a
// participant's local batch, probes cut short (frontier cut, prune, sleep
// skip) consume nothing. A participant that is denied budget *parks* (waits
// on `cv`) instead of abandoning its subtree: as long as some other
// participant still holds an unconsumed grant, a refund may arrive and the
// parked work continues. Only when the pool is empty AND nobody holds a
// grant is the search finally exhausted (`exhausted_final`) — this is what
// makes a completed exploration report exactly `min(tree size,
// max_executions)` executions: no unit ever gives up while budget it could
// have used sits (or will be refunded) elsewhere.
struct SearchState {
  std::int64_t max_executions = 0;
  /// Stateful exploration's visited set (null unless `Options::stateful`),
  /// shared by every participant: a cut taken because *any* worker already
  /// explored the (state, sleep-set) pair is sound — by induction on total
  /// step count (each recorded decision strictly extends the per-process
  /// step spine, so state reachability is a DAG), the continuations below
  /// an equal pair are behaviour-identical.
  std::unique_ptr<detail::VisitedSet> visited;
  ViolationLog log;
  // Stuck-execution diagnostics, aggregated like violations (least canonical
  // index wins) but on a separate log: a stuck execution never cancels work
  // — the search continues past it.
  ViolationLog stuck_log;

  std::mutex mu;
  std::condition_variable cv;
  std::int64_t granted = 0;  // claimed minus refunded (never > max)
  int holders = 0;           // participants holding an unreturned grant
  bool exhausted_final = false;
};

// One participant's view of the shared budget: a locally held block of
// executions, claimed batch-wise and consumed without synchronization.
class BudgetScope {
 public:
  explicit BudgetScope(SearchState& s) : s_(s) {}
  ~BudgetScope() { release(); }

  BudgetScope(const BudgetScope&) = delete;
  BudgetScope& operator=(const BudgetScope&) = delete;

  /// Ensures at least one execution's worth of budget is held, parking
  /// until budget is granted or the search is finally exhausted (returns
  /// false — the caller abandons with its unit marked unfinished).
  bool ensure() {
    if (held_ > 0) {
      return true;
    }
    std::unique_lock<std::mutex> lk(s_.mu);
    drop_locked();
    for (;;) {
      const std::int64_t avail = s_.max_executions - s_.granted;
      if (avail > 0) {
        held_ = std::min(kBudgetBatch, avail);
        s_.granted += held_;
        ++s_.holders;
        holder_ = true;
        return true;
      }
      if (s_.exhausted_final) {
        return false;
      }
      if (s_.holders == 0) {
        // Pool empty and nobody left to refund: the denier is also the
        // last drainer, so exhaustion is final. Wake every parked peer.
        s_.exhausted_final = true;
        s_.cv.notify_all();
        return false;
      }
      s_.cv.wait(lk);
    }
  }

  /// Consumes one held execution (call after each completed run).
  void consume() noexcept { --held_; }

  /// Returns the unconsumed remainder to the pool.
  void release() {
    if (!holder_) {
      return;
    }
    const std::lock_guard<std::mutex> lk(s_.mu);
    drop_locked();
  }

 private:
  // Refund `held_` and drop holder status; wake peers that can now claim,
  // or finalize exhaustion when this was the last holder of an empty pool.
  void drop_locked() {
    if (!holder_) {
      return;
    }
    s_.granted -= held_;
    held_ = 0;
    --s_.holders;
    holder_ = false;
    if (s_.granted < s_.max_executions) {
      s_.cv.notify_all();
    } else if (s_.holders == 0 && !s_.exhausted_final) {
      s_.exhausted_final = true;
      s_.cv.notify_all();
    }
  }

  SearchState& s_;
  std::int64_t held_ = 0;
  bool holder_ = false;
};

// One entry of the canonical (serial-DFS-order) emission sequence, and what
// one attempt to run the body amounted to: a completed execution (clean,
// violating or stuck), or a subtree the driver cut — pruned, reduction-
// skipped, stateful-cut, or a frontier work unit (a depth-d prefix whose
// subtree a worker explores). Every event additionally carries the
// reduction skips that occurred at (and, in the frontier enumeration, while
// advancing past) it, so that tallies truncated at a winning violation stay
// exact.
struct UnitRecord;

struct EventMeta {
  enum class Kind { kExecution, kPruned, kSkip, kStateful, kUnit };
  Kind kind = Kind::kExecution;
  std::int64_t reduced = 0;
  bool crashed = false;    ///< kExecution: >= 1 crash landed in the execution
  bool recovered = false;  ///< kExecution: >= 1 recovery landed
  bool stuck = false;      ///< kExecution: cut by the step-quota watchdog
  UnitRecord* unit = nullptr;  ///< kUnit in the parallel search: its record
};

// The tallies every search reports, summed the same way wherever they meet:
// per event, per work unit, per snapshot and per Result.
struct Tally {
  std::int64_t executions = 0;
  std::int64_t pruned = 0;
  std::int64_t reduced = 0;
  std::int64_t crashed = 0;    ///< executions in which >= 1 crash landed
  std::int64_t recovered = 0;  ///< executions in which >= 1 recovery landed
  std::int64_t stuck = 0;      ///< executions cut by the step-quota watchdog
  std::int64_t stateful = 0;   ///< subtrees cut by stateful exploration

  Tally& operator+=(const Tally& o) {
    executions += o.executions;
    pruned += o.pruned;
    reduced += o.reduced;
    crashed += o.crashed;
    recovered += o.recovered;
    stuck += o.stuck;
    stateful += o.stateful;
    return *this;
  }
  friend Tally operator+(Tally a, const Tally& b) { return a += b; }

  // Counts one event. A unit's own subtree is carried by its worker's
  // SubtreeStats and added separately.
  void add(const EventMeta& ev) {
    reduced += ev.reduced;
    switch (ev.kind) {
      case EventMeta::Kind::kExecution:
        ++executions;
        crashed += ev.crashed ? 1 : 0;
        recovered += ev.recovered ? 1 : 0;
        stuck += ev.stuck ? 1 : 0;
        break;
      case EventMeta::Kind::kPruned:
        ++pruned;
        break;
      case EventMeta::Kind::kStateful:
        ++stateful;
        break;
      case EventMeta::Kind::kSkip:  // carried entirely in `reduced`
      case EventMeta::Kind::kUnit:
        break;
    }
  }
};

// The tallies of the public snapshot and Result types, read and written in
// one place each.
Tally tally_of(const ExplorerSnapshot& s) {
  return {s.executions, s.pruned, s.reduced, s.crashed,
          s.recovered, s.stuck, s.stateful_cuts};
}

Tally tally_of(const Explorer::Result& r) {
  return {r.executions, r.pruned_subtrees, r.reduced_subtrees,
          r.crashed_executions, r.recovered_executions, r.stuck_executions,
          r.stateful_cuts};
}

void store(const Tally& t, ExplorerSnapshot& s) {
  s.executions = t.executions;
  s.pruned = t.pruned;
  s.reduced = t.reduced;
  s.crashed = t.crashed;
  s.recovered = t.recovered;
  s.stuck = t.stuck;
  s.stateful_cuts = t.stateful;
}

void store(const Tally& t, Explorer::Result& r) {
  r.executions = t.executions;
  r.pruned_subtrees = t.pruned;
  r.reduced_subtrees = t.reduced;
  r.crashed_executions = t.crashed;
  r.recovered_executions = t.recovered;
  r.stuck_executions = t.stuck;
  r.stateful_cuts = t.stateful;
}

// Tallies of one subtree work unit, merged in canonical order afterwards.
struct SubtreeStats {
  Tally tally;
  std::optional<std::string> violation;
  std::vector<Decision> trace;
  /// First (in DFS order, i.e. canonically least within the unit) stuck
  /// execution; DFS order also means it precedes the unit's own violation,
  /// if any.
  std::optional<std::string> stuck_message;
  std::vector<Decision> stuck_trace;
  /// Backtrack demands on decisions above the subtree's root, in DFS order.
  std::vector<detail::Backtrack> above;
  /// True when the subtree was fully explored or stopped at its own (first)
  /// violation — false only on cancellation or budget exhaustion.
  bool finished = false;
};

// Source sets replace full branching at scheduling decisions in sleep-set
// searches that keep no visited set, consult no prune hook and branch on no
// crash or restart: those all decide which subtrees exist or count beyond
// the races of the runs themselves.
bool source_sets(const Explorer::Options& opts) {
  return opts.reduction == Reduction::kSleepSets && !opts.stateful &&
         !opts.prune && opts.max_crashes == 0 && opts.max_recoveries == 0;
}

std::string stuck_message_for(std::int64_t quota) {
  return "stuck execution: step quota (" + std::to_string(quota) +
         ") exceeded";
}

// The snapshot every checkpoint of one search starts from: the option echo
// plus the watermark a resumed search inherited (zero tallies on a fresh
// explore). Periodic snapshots add the current progress on top.
ExplorerSnapshot snapshot_proto(const Explorer::Options& opts,
                                const ExplorerSnapshot* base) {
  ExplorerSnapshot s;
  s.max_executions = opts.max_executions;
  s.max_crashes = opts.max_crashes;
  s.max_recoveries = opts.max_recoveries;
  s.step_quota = opts.step_quota;
  s.reduction = opts.reduction == Reduction::kSleepSets;
  s.stateful = opts.stateful;
  if (base != nullptr) {
    store(tally_of(*base), s);
    s.stuck_message = base->stuck_message;
    s.stuck_trace = base->stuck_trace;
  }
  return s;
}

// Periodic-checkpoint plumbing for the serial search: the restart-DFS state
// is just (tallies, next prefix), so a snapshot is written straight from the
// loop in explore_subtree.
struct SerialCheckpoint {
  const std::string* path = nullptr;
  std::int64_t every = 0;
  const ExplorerSnapshot* proto = nullptr;
  std::int64_t last = 0;  ///< executions at the previous snapshot
};

// True when sleep-set metadata recorded at `d` says option `chosen` is
// redundant: its process was asleep when the decision point was first
// reached (`Decision::sleep` stores the inherited sleep set; earlier sibling
// options all have distinct pids, so membership there never changes the
// verdict). `d.enabled == 0` means no metadata — never skip. Crash decisions
// record no metadata (skipping a crash option would be unsound: the victim's
// crash is dependent with the victim's own pending step), so they are never
// skipped here.
bool option_asleep(const Decision& d, std::uint32_t chosen) {
  return (d.sleep & detail::option_bit(d, chosen)) != 0;
}

// The decision `d` moved to the option at list position `at`: DFS order at
// a listed decision is insertion order, so the options listed before it
// were entered before it and join the sleep set below it.
Decision listed_option(Decision d, std::uint8_t at) {
  d.explored = 0;
  for (std::uint8_t k = 0; k < at; ++k) {
    d.explored |= detail::option_bit(d, d.list[k]);
  }
  d.chosen = d.list[at];
  return d;
}

// Moves a listed decision to its next listed option; false when none is
// left.
bool next_listed(Decision& d) {
  std::uint8_t at = 0;
  while (d.list[at] != d.chosen) {
    ++at;
  }
  if (at + 1 >= d.listed) {
    return false;
  }
  d = listed_option(d, static_cast<std::uint8_t>(at + 1));
  return true;
}

// Advances `trace` to the next DFS prefix inside the subtree whose first
// `floor` decisions are fixed: bump the deepest decision that still has
// unexplored options, dropping everything after it. A listed decision
// offers the next option of its backtrack list, taking back the `reduced`
// count its driver made for it. At a full-branching decision, options
// asleep under the recorded reduction metadata are skipped (counted in
// `reduced`), and `prune` is consulted on every surviving candidate prefix
// (its subtree is skipped and counted when rejected). Returns false when
// the subtree is exhausted.
bool advance(std::vector<Decision>& trace, std::size_t floor,
             const Explorer::PruneFn& prune, std::int64_t& pruned,
             std::int64_t& reduced) {
  std::size_t i = trace.size();
  while (i > floor) {
    Decision& d = trace[i - 1];
    if (d.listed > 0) {
      if (next_listed(d)) {
        --reduced;  // counted as never entered when the decision was made
        trace.resize(i);
        return true;
      }
    } else if (d.chosen + 1 < d.arity) {
      ++d.chosen;
      if (option_asleep(d, d.chosen)) {
        ++reduced;
        continue;  // same position, next option
      }
      if (prune && prune(std::span<const Decision>(trace.data(), i))) {
        ++pruned;
        continue;  // same position, next option
      }
      trace.resize(i);
      return true;
    }
    --i;
  }
  return false;
}

// run_one, told which ReplayDriver decides the run (nullptr: none). A body
// that throws after that driver cut its run was checking a partial world:
// no violation, and no on_violation event.
std::optional<std::string> run_driven(const ExecutionBody& body,
                                      SchedulePolicy& policy,
                                      TraceObserver* observer,
                                      const ReplayDriver* driver) {
  // Thread-default installation is what lets the observer see runtimes the
  // body constructs internally; nullptr deliberately masks any outer scope
  // so unobserved searches stay unobserved.
  const ScopedObserver scope(observer);
  try {
    body(policy);
  } catch (const std::exception& e) {
    if (driver != nullptr && driver->cut() != ReplayDriver::Cut::kNone) {
      return std::nullopt;
    }
    if (observer != nullptr) {
      observer->on_violation(e.what());
    }
    return std::string(e.what());
  }
  return std::nullopt;
}

// The driver of one explorer execution, configured from the search options
// (the frontier enumeration adds its decision limit).
ReplayDriver make_driver(std::vector<Decision> prefix,
                         const Explorer::Options& opts,
                         const SearchState& state,
                         detail::RaceAnalysis* races) {
  ReplayDriver driver(std::move(prefix));
  driver.set_prune(opts.prune ? &opts.prune : nullptr);
  driver.set_reduction(opts.reduction == Reduction::kSleepSets);
  if (races != nullptr) {
    driver.set_source_sets(true);
    driver.set_step_log(&races->log());
  }
  driver.set_max_crashes(opts.max_crashes);
  driver.set_max_recoveries(opts.max_recoveries);
  driver.set_step_quota(opts.step_quota);
  driver.set_stateful(state.visited.get());
  return driver;
}

// What one run of the body under the explorer's driver amounted to.
struct Attempt {
  EventMeta event;
  std::optional<std::string> violation;
};

// Runs the body once and classifies the run by the driver's cut, the
// violation and the watchdog. Cuts are probes, not executions: only
// kExecution events consume budget. A stuck run did real work, so it counts
// as a (stuck) execution; its unexplored continuations are truncated.
Attempt attempt(const ExecutionBody& body, ReplayDriver& driver,
                const Explorer::Options& opts) {
  Attempt out;
  EventMeta& ev = out.event;
  try {
    out.violation = run_driven(body, driver, opts.observer, &driver);
  } catch (const StuckCut&) {
    ev.stuck = true;
    if (opts.observer != nullptr) {
      opts.observer->on_stuck(stuck_message_for(opts.step_quota));
    }
  }
  ev.reduced = driver.reduced();
  switch (driver.cut()) {
    case ReplayDriver::Cut::kNone:
      ev.crashed = driver.crashes() > 0;
      ev.recovered = driver.recoveries() > 0;
      break;
    case ReplayDriver::Cut::kSleep:
      ev.kind = EventMeta::Kind::kSkip;  // a redundant subtree
      break;
    case ReplayDriver::Cut::kStateful:
      // The (state, sleep-set) pair at this decision point was already
      // explored: the subtree below is behaviour-identical to one already
      // searched (above the frontier: the whole subtree, units included).
      ev.kind = EventMeta::Kind::kStateful;
      if (opts.observer != nullptr) {
        opts.observer->on_stateful_cut(1);
      }
      break;
    case ReplayDriver::Cut::kPrune:
      ev.kind = EventMeta::Kind::kPruned;
      break;
    case ReplayDriver::Cut::kFrontier:
      ev.kind = EventMeta::Kind::kUnit;  // its worker re-runs it and pays
      break;
  }
  return out;
}

// Restart-DFS over the subtree rooted at `prefix` (decisions below `floor`
// are fixed). Stops at the subtree's first violation in DFS order — options
// in index order at a full-branching decision, in insertion order at a
// listed one — on budget exhaustion, or when a canonically earlier work
// unit has already reported a violation (nothing in this subtree can win
// then). Under source sets each run's races extend the backtrack lists;
// those on decisions above `floor` go back to the caller in `above`. When
// `cp` is non-null (serial top-level search only) the loop periodically
// snapshots (tallies, next prefix) to the checkpoint file.
SubtreeStats explore_subtree(const ExecutionBody& body,
                             std::vector<Decision> prefix, std::size_t floor,
                             const Explorer::Options& opts, SearchState& state,
                             std::uint64_t my_index,
                             SerialCheckpoint* cp = nullptr) {
  SubtreeStats stats;
  Tally& tally = stats.tally;
  BudgetScope budget(state);
  detail::RaceAnalysis analysis;
  detail::RaceAnalysis* races = source_sets(opts) ? &analysis : nullptr;
  for (;;) {
    if (state.log.best_index() < my_index) {
      return stats;  // cancelled; these tallies will be discarded
    }
    if (!budget.ensure()) {
      return stats;  // budget finally exhausted (`finished` stays false)
    }
    const std::int64_t reduced_before = tally.reduced;
    ReplayDriver driver = make_driver(std::move(prefix), opts, state, races);
    Attempt run = attempt(body, driver, opts);
    tally.add(run.event);
    if (run.event.kind == EventMeta::Kind::kExecution) {
      budget.consume();
    }
    const std::size_t fresh_from = driver.fresh_from();
    const bool faulted = driver.faulted();
    std::vector<Decision> trace = driver.take_trace();
    if (races != nullptr) {
      races->run(fresh_from, faulted, trace, floor, stats.above);
    }
    if (run.violation) {
      stats.violation = std::move(run.violation);
      stats.trace = std::move(trace);
      stats.finished = true;
      return stats;
    }
    if (run.event.stuck && !stats.stuck_message) {
      stats.stuck_message = stuck_message_for(opts.step_quota);
      stats.stuck_trace = trace;  // copy: advance() mutates `trace` next
    }
    const bool more =
        advance(trace, floor, opts.prune, tally.pruned, tally.reduced);
    if (opts.observer != nullptr && tally.reduced != reduced_before) {
      opts.observer->on_reduced(tally.reduced - reduced_before);
    }
    if (!more) {
      stats.finished = true;
      return stats;
    }
    prefix = std::move(trace);
    if (cp != nullptr && tally.executions - cp->last >= cp->every) {
      cp->last = tally.executions;
      ExplorerSnapshot s = *cp->proto;
      store(tally_of(s) + tally, s);
      if (!s.stuck_message && stats.stuck_message) {
        s.stuck_message = stats.stuck_message;
        s.stuck_trace = stats.stuck_trace;
      }
      s.prefix = prefix;
      try {
        save_snapshot(*cp->path, s);
      } catch (const SimError&) {
        // A periodic snapshot that still fails after save_snapshot's own
        // retries must not kill the campaign: the search continues and the
        // next period (or the final snapshot) tries again. The previous
        // snapshot stays intact (atomic rename), so resume keeps working —
        // it just redoes more of the tree.
      }
    }
  }
}

// One frontier work unit: stats filled by whichever thread explores it, the
// prefix retained by the producer so checkpoints can name the watermark
// unit's restart point, and a done flag publishing the stats (store-release
// after the stats are written, load-acquire by the checkpoint scan).
struct UnitRecord {
  SubtreeStats stats;
  std::vector<Decision> prefix;
  std::atomic<bool> done{false};
};

// One frontier work unit streamed from the enumerator to a worker. The
// record is a stable pointer into the producer-owned deque; the event
// index orders the unit canonically for cancellation and aggregation.
struct WorkItem {
  std::uint64_t event_index = 0;
  UnitRecord* record = nullptr;
  std::vector<Decision> prefix;
};

// Picks a frontier depth giving roughly 16+ work items per worker (assuming
// the minimum branching factor of 2), so the pool load-balances even when
// subtree sizes are badly skewed.
std::size_t auto_frontier_depth(int threads) {
  std::size_t depth = 1;
  while ((std::size_t{1} << depth) < static_cast<std::size_t>(threads) * 16 &&
         depth < 10) {
    ++depth;
  }
  return depth;
}

Explorer::Result finish_serial(SubtreeStats stats) {
  Explorer::Result result;
  store(stats.tally, result);
  if (stats.stuck_message) {
    result.first_stuck = StuckExecution{std::move(*stats.stuck_message),
                                        std::move(stats.stuck_trace)};
  }
  if (stats.violation) {
    result.violation = std::move(stats.violation);
    result.violating_trace = std::move(stats.trace);
  } else {
    // Budget exhaustion leaves `finished` false, so no separate flag needed.
    result.complete = stats.finished;
  }
  return result;
}

// Streaming parallel exploration: the calling thread enumerates the decision
// tree down to the frontier depth in serial DFS order, pushing each work
// unit through a bounded ring to `threads - 1` workers as it is discovered
// (and draining units itself when the ring backs up, or after enumeration
// completes). Canonical aggregation afterwards walks the emission sequence
// in order, truncating at the winning violation, so every reported tally is
// bit-identical to the serial explorer's regardless of thread timing.
//
// Under source sets the enumerator is a walker that never runs ahead of the
// backtrack lists: it runs each of its own frontier units inline, and
// applies a unit's demands on the decisions above its root (its `above`
// list) before advancing, so those lists grow in serial DFS order. An option
// such a demand adds is pushed as a unit at once — its subtree and sleep
// set depend only on the options listed before it — and the walker, on
// reaching it in DFS order, waits for it (running queued units meanwhile)
// and applies its demands in turn.
Explorer::Result explore_parallel(const ExecutionBody& body,
                                  const Explorer::Options& opts, int threads,
                                  std::vector<Decision> initial_prefix,
                                  const ExplorerSnapshot& proto,
                                  std::int64_t budget_total) {
  SearchState state;
  state.max_executions = budget_total;
  if (opts.stateful) {
    state.visited =
        std::make_unique<detail::VisitedSet>(
            static_cast<std::size_t>(opts.stateful_capacity));
  }
  const std::size_t depth = opts.frontier_depth > 0
                                ? static_cast<std::size_t>(opts.frontier_depth)
                                : auto_frontier_depth(threads);
  const bool checkpointing = !opts.checkpoint_path.empty();
  const bool sources = source_sets(opts);

  std::vector<EventMeta> events;        // producer-only until workers join
  std::deque<UnitRecord> unit_records;  // deque: grows with stable addresses
  BoundedQueue<WorkItem> queue(opts.frontier_queue_capacity);
  std::mutex qmu;
  std::condition_variable qcv;
  bool producer_done = false;  // guarded by qmu
  bool producer_finished_tree = false;
  std::mutex done_mu;  // with done_cv: the walker waits for a pushed unit
  std::condition_variable done_cv;

  const auto process_item = [&](WorkItem item) {
    UnitRecord& rec = *item.record;
    // Units arrive in canonical order; once a violation beats this unit it
    // beats every later one too, so skip without exploring (the zeroed
    // stats slot sits beyond the winner during aggregation anyway). Units
    // pushed for source-set options carry no index yet: the walker files
    // their verdicts when it reaches them, and any verdict filed before
    // then precedes them.
    if (state.log.best_index() >= item.event_index) {
      const std::size_t floor = item.prefix.size();
      rec.stats = explore_subtree(body, std::move(item.prefix), floor, opts,
                                  state, item.event_index);
      if (rec.stats.violation && !sources) {
        state.log.report(item.event_index, *rec.stats.violation,
                         rec.stats.trace);
      }
      if (rec.stats.stuck_message && !sources) {
        state.stuck_log.report(item.event_index, *rec.stats.stuck_message,
                               rec.stats.stuck_trace);
      }
    }
    {
      const std::lock_guard<std::mutex> lk(done_mu);
      rec.done.store(true, std::memory_order_release);
    }
    done_cv.notify_all();
  };

  const auto worker_loop = [&]() {
    WorkItem item;
    for (;;) {
      if (!queue.try_pop(item)) {
        std::unique_lock<std::mutex> lk(qmu);
        // Re-check under the lock: a push that raced our failed pop is
        // visible here, and the producer notifies only after taking qmu,
        // so a wakeup between the re-check and wait() cannot be missed.
        if (queue.try_pop(item)) {
          lk.unlock();
        } else if (producer_done) {
          return;
        } else {
          qcv.wait(lk);
          continue;
        }
      }
      process_item(std::move(item));
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads - 1));
  for (int w = 0; w < threads - 1; ++w) {
    pool.emplace_back(worker_loop);
  }

  // Periodic checkpoint: the watermark is the tally over the longest
  // contiguous prefix of canonical events whose work has completed (non-unit
  // events complete at production; a unit when its done flag is set), and
  // the restart prefix is the first incomplete unit's — or the producer's
  // next prefix when everything produced so far is done. Work completed
  // beyond the watermark is deliberately not saved: a resume redoes it, and
  // the canonical aggregation makes the redone tallies land on the same
  // final Result.
  const auto write_parallel_snapshot =
      [&](const std::vector<Decision>& producer_next) {
        ExplorerSnapshot s = proto;
        Tally progress = tally_of(s);
        const std::vector<Decision>* next = nullptr;
        std::size_t watermark = events.size();
        for (std::size_t i = 0; i < events.size(); ++i) {
          const EventMeta& ev = events[i];
          if (ev.unit != nullptr) {
            if (!ev.unit->done.load(std::memory_order_acquire)) {
              next = &ev.unit->prefix;
              watermark = i;
              break;
            }
            progress += ev.unit->stats.tally;
          }
          progress.add(ev);
        }
        store(progress, s);
        if (!s.stuck_message) {
          if (const std::optional<ViolationLog::Entry> sw =
                  state.stuck_log.winner();
              sw && sw->index < watermark) {
            s.stuck_message = sw->message;
            s.stuck_trace = sw->trace;
          }
        }
        s.prefix = next != nullptr ? *next : producer_next;
        try {
          save_snapshot(opts.checkpoint_path, s);
        } catch (const SimError&) {
          // Periodic snapshot still failing after save_snapshot's retries:
          // keep exploring (the previous snapshot is intact; the next
          // period or the final snapshot tries again).
        }
      };

  // Producer: serial-DFS frontier enumeration, streaming units out.
  {
    BudgetScope budget(state);
    std::vector<Decision> prefix = std::move(initial_prefix);
    std::vector<WorkItem> spilled;  // overflow units, re-injected at the end
    std::ofstream spill_out;        // journal of spilled prefixes
    std::size_t last_snapshot_events = 0;
    detail::RaceAnalysis analysis;
    std::vector<detail::Backtrack> unused;  // the walker owns every decision
    // Source sets: per trace depth, the list entries already run or pushed
    // (those past it are new), and the pushed units the walker has not
    // reached yet, by list position.
    std::vector<std::uint8_t> handled;
    std::vector<std::deque<std::pair<std::uint8_t, UnitRecord*>>> pushed;
    for (const Decision& d : prefix) {
      handled.push_back(d.listed);  // a resumed list is the walker's to run
    }
    pushed.resize(prefix.size());
    UnitRecord* reached = nullptr;  // the pushed unit `prefix` ends at

    const auto push_unit = [&](WorkItem item) {
      if (queue.try_push(std::move(item))) {
        // fall through to the notify below
      } else if (checkpointing && !sources) {
        // Graceful degradation under ring pressure: spill the *oldest*
        // queued prefix to `<checkpoint_path>.spill` (journaled, then
        // re-injected once enumeration finishes) so the newest unit
        // takes its slot and enumeration keeps streaming instead of
        // stalling behind a slow subtree. (The source-set walker waits for
        // its units in order, so it drains instead.)
        while (!queue.try_push(std::move(item))) {
          WorkItem oldest;
          if (queue.try_pop(oldest)) {
            if (!spill_out.is_open()) {
              spill_out.open(opts.checkpoint_path + ".spill",
                             std::ios::trunc);
            }
            spill_out << "{\"kind\":\"spill\",\"event\":"
                      << oldest.event_index << ",\"prefix\":\""
                      << encode_decisions(oldest.prefix) << "\"}\n";
            spill_out.flush();
            spilled.push_back(std::move(oldest));
          }
        }
      } else {
        // No spill target: drain one unit here (natural backpressure).
        // Drop our budget hold first — the drained subtree claims its
        // own, and a grant held across a blocking drain could starve
        // parked peers into deadlock.
        while (!queue.try_push(std::move(item))) {
          budget.release();
          WorkItem mine;
          if (queue.try_pop(mine)) {
            process_item(std::move(mine));
          }
        }
      }
      {
        const std::lock_guard<std::mutex> lk(qmu);
      }
      qcv.notify_one();
    };

    // Waits for a pushed unit, running queued units meanwhile (only the
    // walker pushes, so an empty ring stays empty while it waits).
    const auto await = [&](UnitRecord& rec) {
      budget.release();
      while (!rec.done.load(std::memory_order_acquire)) {
        WorkItem mine;
        if (queue.try_pop(mine)) {
          process_item(std::move(mine));
          continue;
        }
        std::unique_lock<std::mutex> lk(done_mu);
        done_cv.wait(lk, [&rec] {
          return rec.done.load(std::memory_order_acquire);
        });
      }
    };

    // Pushes every list entry past `handled` as a unit of its own.
    const auto push_new_options = [&](const std::vector<Decision>& trace) {
      for (std::size_t k = 0; k < trace.size(); ++k) {
        for (; handled[k] < trace[k].listed; ++handled[k]) {
          unit_records.emplace_back();
          UnitRecord& rec = unit_records.back();
          rec.prefix.assign(trace.begin(),
                            trace.begin() + static_cast<std::ptrdiff_t>(k));
          rec.prefix.push_back(listed_option(trace[k], handled[k]));
          pushed[k].emplace_back(handled[k], &rec);
          push_unit(WorkItem{ViolationLog::kNone, &rec, rec.prefix});
        }
      }
    };

    for (;;) {
      if (state.log.best_index() < events.size()) {
        break;  // a reported violation canonically precedes the next event
      }
      if (!budget.ensure()) {
        break;  // budget finally exhausted mid-frontier
      }
      EventMeta ev;
      std::vector<Decision> trace;
      std::optional<std::string> violation;
      if (reached != nullptr) {
        ev.kind = EventMeta::Kind::kUnit;
        ev.unit = reached;
        reached = nullptr;
        trace = std::move(prefix);
        await(*ev.unit);
      } else {
        const std::size_t fixed = prefix.size();
        ReplayDriver driver = make_driver(std::move(prefix), opts, state,
                                          sources ? &analysis : nullptr);
        driver.set_decision_limit(depth);
        Attempt run = attempt(body, driver, opts);
        ev = run.event;
        violation = std::move(run.violation);
        if (ev.kind == EventMeta::Kind::kExecution) {
          budget.consume();
        }
        const std::size_t fresh_from = driver.fresh_from();
        const bool faulted = driver.faulted();
        trace = driver.take_trace();
        if (sources) {
          analysis.run(fresh_from, faulted, trace, 0, unused);
          handled.resize(trace.size());
          pushed.resize(trace.size());
          for (std::size_t k = fixed; k < trace.size(); ++k) {
            handled[k] = trace[k].listed > 0 ? 1 : 0;
          }
        }
        if (ev.kind == EventMeta::Kind::kUnit) {
          unit_records.emplace_back();
          ev.unit = &unit_records.back();
          ev.unit->prefix = trace;
          WorkItem item{events.size(), ev.unit, trace};
          if (sources) {
            budget.release();
            process_item(std::move(item));  // the walker needs its demands
          } else {
            push_unit(std::move(item));
          }
        }
      }
      events.push_back(ev);
      if (violation) {
        // A violating shallow execution beats everything that would have
        // followed; report it and stop enumerating.
        state.log.report(events.size() - 1, *violation, std::move(trace));
        break;
      }
      if (ev.stuck) {
        // A shallow execution can trip the quota too (quota < frontier
        // depth's worth of picks).
        state.stuck_log.report(events.size() - 1,
                               stuck_message_for(opts.step_quota), trace);
      }
      if (sources && ev.unit != nullptr) {
        const SubtreeStats& st = ev.unit->stats;
        for (const detail::Backtrack& b : st.above) {
          detail::apply(trace[b.depth], b);
        }
        if (st.stuck_message) {
          state.stuck_log.report(events.size() - 1, *st.stuck_message,
                                 st.stuck_trace);
        }
        if (st.violation) {
          state.log.report(events.size() - 1, *st.violation, st.trace);
          break;
        }
      }
      if (sources) {
        push_new_options(trace);
      }
      std::int64_t advance_prunes = 0;
      std::int64_t advance_reduced = 0;
      const bool more =
          advance(trace, 0, opts.prune, advance_prunes, advance_reduced);
      // Subtrees pruned or reduction-skipped while advancing sit between
      // this event and the next in canonical order (in particular *after* a
      // unit's whole subtree); record them separately so truncated tallies
      // stay exact.
      for (std::int64_t i = 0; i < advance_prunes; ++i) {
        events.push_back(EventMeta{EventMeta::Kind::kPruned, 0});
      }
      if (advance_reduced != 0) {
        events.push_back(
            EventMeta{EventMeta::Kind::kSkip, advance_reduced});
      }
      if (opts.observer != nullptr && ev.reduced + advance_reduced != 0) {
        opts.observer->on_reduced(ev.reduced + advance_reduced);
      }
      if (!more) {
        producer_finished_tree = true;
        break;
      }
      if (sources) {
        handled.resize(trace.size());
        pushed.resize(trace.size());
        const Decision& d = trace.back();
        std::deque<std::pair<std::uint8_t, UnitRecord*>>& q = pushed.back();
        if (d.listed > 0 && !q.empty() &&
            d.list[q.front().first] == d.chosen) {
          reached = q.front().second;
          q.pop_front();
        }
      }
      if (checkpointing &&
          events.size() - last_snapshot_events >=
              static_cast<std::size_t>(opts.checkpoint_every)) {
        last_snapshot_events = events.size();
        write_parallel_snapshot(trace);
      }
      prefix = std::move(trace);
    }

    // Re-inject spilled units, oldest first: the ring only drains from here
    // on, so this terminates; inline drains keep the producer useful while
    // it waits for slots.
    for (WorkItem& it : spilled) {
      while (!queue.try_push(std::move(it))) {
        budget.release();
        WorkItem mine;
        if (queue.try_pop(mine)) {
          process_item(std::move(mine));
        }
      }
      {
        const std::lock_guard<std::mutex> lk(qmu);
      }
      qcv.notify_one();
    }
  }  // producer's budget hold refunded here

  {
    const std::lock_guard<std::mutex> lk(qmu);
    producer_done = true;
  }
  qcv.notify_all();
  worker_loop();  // help drain whatever is still queued
  for (std::thread& t : pool) {
    t.join();
  }

  // Canonical aggregation: walk the emission sequence in order, stopping at
  // the winning violation. Units after the winner are excluded even if they
  // ran (the serial DFS would never have entered them), so `executions` and
  // `pruned_subtrees` are bit-identical to the serial explorer's regardless
  // of thread timing.
  Explorer::Result result;
  const std::optional<ViolationLog::Entry> win = state.log.winner();
  const std::uint64_t winner_index = win ? win->index : ViolationLog::kNone;
  bool all_finished = producer_finished_tree;
  Tally total;
  for (std::size_t i = 0; i < events.size() && i <= winner_index; ++i) {
    if (const UnitRecord* unit = events[i].unit; unit != nullptr) {
      total += unit->stats.tally;
      all_finished = all_finished && unit->stats.finished;
    }
    total.add(events[i]);
  }
  store(total, result);
  if (state.visited != nullptr) {
    result.stateful_states =
        static_cast<std::int64_t>(state.visited->size());
  }
  if (win) {
    result.violation = win->message;
    result.violating_trace = win->trace;
  } else {
    // Exhaustion manifests as an unfinished unit or an unfinished frontier,
    // so `complete` needs no separate exhaustion flag (and cannot be
    // spuriously false when the budget exactly equals the tree size).
    result.complete = all_finished;
  }
  // The canonically first stuck execution — reported only when the serial
  // DFS would have reached it before stopping (its index at or before the
  // winner's; within one unit, DFS order puts the unit's stuck before its
  // violation).
  if (const std::optional<ViolationLog::Entry> sw = state.stuck_log.winner();
      sw && sw->index <= winner_index) {
    result.first_stuck = StuckExecution{sw->message, sw->trace};
  }
  return result;
}

Explorer::Result result_from_snapshot(const ExplorerSnapshot& s) {
  Explorer::Result r;
  store(tally_of(s), r);
  r.complete = s.complete;
  if (s.violation) {
    r.violation = s.violation;
    r.violating_trace = s.violating_trace;
  }
  if (s.stuck_message) {
    r.first_stuck = StuckExecution{*s.stuck_message, s.stuck_trace};
  }
  return r;
}

ExplorerSnapshot snapshot_of_result(const Explorer::Options& opts,
                                    const Explorer::Result& r) {
  ExplorerSnapshot s = snapshot_proto(opts, nullptr);
  store(tally_of(r), s);
  s.done = true;
  s.complete = r.complete;
  if (r.violation) {
    s.violation = r.violation;
    s.violating_trace = r.violating_trace;
  }
  if (r.first_stuck) {
    s.stuck_message = r.first_stuck->message;
    s.stuck_trace = r.first_stuck->trace;
  }
  return s;
}

void validate_options(const Explorer::Options& opts) {
  if (opts.max_executions <= 0) {
    throw SimError("Explorer::Options::max_executions must be positive, got " +
                   std::to_string(opts.max_executions));
  }
  if (opts.frontier_depth < 0) {
    throw SimError(
        "Explorer::Options::frontier_depth must be non-negative, got " +
        std::to_string(opts.frontier_depth));
  }
  if (opts.max_crashes < 0) {
    throw SimError(
        "Explorer::Options::max_crashes must be non-negative, got " +
        std::to_string(opts.max_crashes));
  }
  if (opts.max_recoveries < 0) {
    throw SimError(
        "Explorer::Options::max_recoveries must be non-negative, got " +
        std::to_string(opts.max_recoveries));
  }
  if (opts.step_quota < 0) {
    throw SimError("Explorer::Options::step_quota must be non-negative, got " +
                   std::to_string(opts.step_quota));
  }
  if (opts.stateful_capacity <= 0) {
    throw SimError(
        "Explorer::Options::stateful_capacity must be positive, got " +
        std::to_string(opts.stateful_capacity));
  }
  detail::checked_table_keys(static_cast<std::size_t>(opts.stateful_capacity),
                             "Explorer::Options::stateful_capacity");
  if (opts.stateful && opts.prune) {
    // A pruned subtree is marked visited without having been explored, so a
    // later stateful cut on its fingerprint would skip unexplored behaviour.
    throw SimError(
        "Explorer::Options::stateful cannot be combined with a prune hook");
  }
  if (opts.checkpoint_every <= 0) {
    throw SimError("Explorer::Options::checkpoint_every must be positive, "
                   "got " +
                   std::to_string(opts.checkpoint_every));
  }
  if (opts.frontier_queue_capacity == 0) {
    throw SimError(
        "Explorer::Options::frontier_queue_capacity must be non-zero");
  }
}

// The shared implementation behind explore() and resume(): runs the search
// over the part of the tree at and after `initial_prefix`, with `base`
// carrying a resumed snapshot's watermark (tallies folded into the final
// Result, stuck winner taking canonical precedence).
Explorer::Result explore_impl(const ExecutionBody& body,
                              const Explorer::Options& opts,
                              std::vector<Decision> initial_prefix,
                              const ExplorerSnapshot* base) {
  const int threads = Explorer::resolve_threads(opts.threads);
  const ExplorerSnapshot proto = snapshot_proto(opts, base);
  const std::int64_t budget = opts.max_executions - proto.executions;
  Explorer::Result result;
  if (threads <= 1) {
    SearchState state;
    state.max_executions = budget;
    if (opts.stateful) {
      state.visited =
          std::make_unique<detail::VisitedSet>(
            static_cast<std::size_t>(opts.stateful_capacity));
    }
    SerialCheckpoint cp{&opts.checkpoint_path, opts.checkpoint_every, &proto,
                        0};
    SerialCheckpoint* sink = opts.checkpoint_path.empty() ? nullptr : &cp;
    SubtreeStats stats = explore_subtree(body, std::move(initial_prefix),
                                         /*floor=*/0, opts, state,
                                         /*my_index=*/0, sink);
    result = finish_serial(std::move(stats));
    if (state.visited != nullptr) {
      result.stateful_states =
          static_cast<std::int64_t>(state.visited->size());
    }
  } else {
    result = explore_parallel(body, opts, threads, std::move(initial_prefix),
                              proto, budget);
  }
  // Fold the resumed-from watermark back in. The base's stuck winner, when
  // present, canonically precedes anything found after the watermark.
  store(tally_of(result) + tally_of(proto), result);
  if (proto.stuck_message) {
    result.first_stuck =
        StuckExecution{*proto.stuck_message, proto.stuck_trace};
  }
  if (opts.shrink_violations && result.violation) {
    result.violating_trace =
        Explorer::shrink(body, std::move(result.violating_trace));
  }
  if (!opts.checkpoint_path.empty()) {
    save_snapshot(opts.checkpoint_path, snapshot_of_result(opts, result));
  }
  return result;
}

// Lexicographic order on decision strings (chosen values; a proper prefix
// precedes its extensions). The shrinker's notion of "smaller reproducer".
bool lex_less(const std::vector<Decision>& a, const std::vector<Decision>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i].chosen != b[i].chosen) {
      return a[i].chosen < b[i].chosen;
    }
  }
  return a.size() < b.size();
}

// One shrink probe: replays `prefix` (reduction off, so recorded sleep-set
// metadata is ignored and every skip the original search made is re-opened)
// and lets the ReplayDriver zero-extend it to a complete execution. Returns
// the violation, if any, plus the canonical full decision string. Crash and
// recovery flags are preserved: recorded crash/recovery decisions replay
// their faults and restarts, and the zero-extension injects no fresh ones
// (a shrunk reproducer's fault pattern is exactly the prefix's).
struct ShrinkProbe {
  std::optional<std::string> violation;
  std::vector<Decision> trace;
};

ShrinkProbe probe(const ExecutionBody& body, std::vector<Decision> prefix) {
  for (Decision& d : prefix) {
    d.enabled = 0;  // stale reduction metadata from the recording search
    d.sleep = 0;
  }
  ReplayDriver driver(std::move(prefix));
  ShrinkProbe out;
  try {
    body(driver);
  } catch (const std::exception& e) {
    out.violation = e.what();
  }
  out.trace = driver.take_trace();
  return out;
}

}  // namespace

std::optional<std::string> run_one(const ExecutionBody& body,
                                   SchedulePolicy& policy,
                                   TraceObserver* observer) {
  return run_driven(body, policy, observer, nullptr);
}

std::vector<ReplayDriver::Decision> Explorer::shrink(
    const ExecutionBody& body, std::vector<ReplayDriver::Decision> trace) {
  ShrinkProbe current = probe(body, std::move(trace));
  if (!current.violation) {
    return current.trace;  // not a reproducer; hand back the canonical form
  }
  // Greedy descent: adopt any strictly lex-smaller failing candidate and
  // restart. Strictness is what terminates the loop — a truncation whose
  // zero-extension reproduces the identical string is not an improvement.
  // Termination: candidate strings for a fixed world have bounded length
  // (the run's decision count) and bounded values (arities), and every
  // adoption strictly decreases in a total order on that finite set.
  bool improved = true;
  while (improved) {
    improved = false;
    // Pass 1 — prefix truncations, shortest first: the biggest wins come
    // from chopping the whole tail.
    for (std::size_t len = 0; len < current.trace.size() && !improved;
         ++len) {
      ShrinkProbe cand = probe(
          body, std::vector<Decision>(current.trace.begin(),
                                      current.trace.begin() +
                                          static_cast<std::ptrdiff_t>(len)));
      if (cand.violation && lex_less(cand.trace, current.trace)) {
        current = std::move(cand);
        improved = true;
      }
    }
    if (improved) {
      continue;
    }
    // Pass 2 — lower one decision and drop the suffix. Lowering position p
    // keeps the prefix intact, so the candidate is lex-smaller by
    // construction whenever it still fails.
    for (std::size_t pos = 0; pos < current.trace.size() && !improved;
         ++pos) {
      for (std::uint32_t v = 0; v < current.trace[pos].chosen && !improved;
           ++v) {
        std::vector<Decision> prefix(
            current.trace.begin(),
            current.trace.begin() + static_cast<std::ptrdiff_t>(pos) + 1);
        prefix[pos].chosen = v;
        ShrinkProbe cand = probe(body, std::move(prefix));
        if (cand.violation && lex_less(cand.trace, current.trace)) {
          current = std::move(cand);
          improved = true;
        }
      }
    }
  }
  return current.trace;
}

int Explorer::resolve_threads(int threads) noexcept {
  if (threads > 0) {
    return threads;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

Explorer::Result Explorer::explore(const ExecutionBody& body, Options opts) {
  validate_options(opts);
  return explore_impl(body, opts, {}, nullptr);
}

Explorer::Result Explorer::resume(const ExecutionBody& body,
                                  const std::string& snapshot_path,
                                  Options opts) {
  validate_options(opts);
  ExplorerSnapshot snap = load_snapshot(snapshot_path);
  if (snap.max_executions != opts.max_executions ||
      snap.max_crashes != opts.max_crashes ||
      snap.max_recoveries != opts.max_recoveries ||
      snap.step_quota != opts.step_quota ||
      snap.reduction != (opts.reduction == Reduction::kSleepSets) ||
      snap.stateful != opts.stateful) {
    throw SimError("Explorer::resume: snapshot " + snapshot_path +
                   " was taken under different options (max_executions, "
                   "max_crashes, max_recoveries, step_quota, reduction and "
                   "stateful must match)");
  }
  if (snap.done || opts.max_executions - snap.executions <= 0) {
    // Finished searches (and watermarks that already spent the whole
    // budget) resume to their saved Result without re-running anything.
    return result_from_snapshot(snap);
  }
  std::vector<Decision> prefix = snap.prefix;
  return explore_impl(body, opts, std::move(prefix), &snap);
}

void Explorer::replay(const ExecutionBody& body,
                      std::vector<ReplayDriver::Decision> trace) {
  ReplayDriver driver(std::move(trace));
  body(driver);
}

RandomSweep::Result RandomSweep::run(const ExecutionBody& body,
                                     std::int64_t runs,
                                     std::uint64_t first_seed, int threads,
                                     TraceObserver* observer) {
  Result result;
  if (runs <= 0) {
    return result;
  }
  const int workers = std::min<std::int64_t>(
      Explorer::resolve_threads(threads), runs);
  if (workers <= 1) {
    for (std::int64_t i = 0; i < runs; ++i) {
      const std::uint64_t seed = first_seed + static_cast<std::uint64_t>(i);
      RandomDriver driver(seed);
      ++result.runs;
      if (std::optional<std::string> violation =
              run_one(body, driver, observer)) {
        result.failing_seed = seed;
        result.violation = std::move(violation);
        return result;
      }
    }
    return result;
  }

  // Parallel sweep: workers claim fixed-size blocks of the seed range in
  // ascending order; failures are aggregated by seed index, so the reported
  // failure is the least failing seed — exactly what the serial sweep
  // returns — and blocks past the current best are never started.
  constexpr std::int64_t kBlock = 64;
  ViolationLog log;
  std::atomic<std::int64_t> next_block{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&]() {
      for (;;) {
        const std::int64_t start =
            next_block.fetch_add(1, std::memory_order_relaxed) * kBlock;
        if (start >= runs ||
            log.best_index() < static_cast<std::uint64_t>(start)) {
          return;
        }
        const std::int64_t end = std::min(start + kBlock, runs);
        for (std::int64_t i = start; i < end; ++i) {
          if (log.best_index() < static_cast<std::uint64_t>(i)) {
            break;
          }
          RandomDriver driver(first_seed + static_cast<std::uint64_t>(i));
          if (std::optional<std::string> violation =
                  run_one(body, driver, observer)) {
            log.report(static_cast<std::uint64_t>(i), *violation, {});
            break;  // later seeds in this block cannot beat index i
          }
        }
      }
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }

  if (const std::optional<ViolationLog::Entry> win = log.winner()) {
    result.runs = static_cast<std::int64_t>(win->index) + 1;
    result.failing_seed = first_seed + win->index;
    result.violation = win->message;
  } else {
    result.runs = runs;
  }
  return result;
}

}  // namespace subc
