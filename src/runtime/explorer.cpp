#include "subc/runtime/explorer.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
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

// Slots of the ring that streams frontier units to the workers; a full ring
// makes the walker run a unit itself.
constexpr std::size_t kRingCapacity = 256;

// State shared by every participant of one exploration (the walker and all
// subtree workers).
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
  /// Violations by canonical index: units behind the least one cannot win
  /// and stop.
  ViolationLog log;

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

using Tally = Explorer::Tally;

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

// The snapshot every checkpoint of one search starts from: the echo of the
// options that shape the search. Snapshots add the progress on top.
ExplorerSnapshot snapshot_proto(const Explorer::Options& opts) {
  ExplorerSnapshot s;
  s.max_executions = opts.max_executions;
  s.max_crashes = opts.max_crashes;
  s.max_recoveries = opts.max_recoveries;
  s.step_quota = opts.step_quota;
  s.reduction = opts.reduction == Reduction::kSleepSets;
  s.stateful = opts.stateful;
  return s;
}

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
// (a walker with workers adds its decision limit).
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

// Runs the body once and counts what the run amounted to into `t`, by the
// driver's cut, the violation and the watchdog: one execution (clean,
// violating or stuck) or one cut subtree — pruned, reduction-skipped,
// stateful-cut, or a frontier work unit (a prefix whose subtree its worker
// counts). Cuts are probes, not executions: only executions consume
// budget. A stuck run did real work, so it counts as a (stuck) execution;
// its unexplored continuations are truncated. Returns the violation.
std::optional<std::string> attempt(const ExecutionBody& body,
                                   ReplayDriver& driver,
                                   const Explorer::Options& opts, Tally& t) {
  std::optional<std::string> violation;
  try {
    violation = run_driven(body, driver, opts.observer, &driver);
  } catch (const StuckCut&) {
    ++t.stuck_executions;
    if (opts.observer != nullptr) {
      opts.observer->on_stuck(stuck_message_for(opts.step_quota));
    }
  }
  t.reduced_subtrees += driver.reduced();
  switch (driver.cut()) {
    case ReplayDriver::Cut::kNone:
      ++t.executions;
      t.crashed_executions += driver.crashes() > 0 ? 1 : 0;
      t.recovered_executions += driver.recoveries() > 0 ? 1 : 0;
      break;
    case ReplayDriver::Cut::kSleep:  // redundant, in `reduced_subtrees`
      break;
    case ReplayDriver::Cut::kStateful:
      // The (state, sleep-set) pair at this decision point was already
      // explored: the subtree below is behaviour-identical to one already
      // searched (above the frontier: the whole subtree, units included).
      ++t.stateful_cuts;
      if (opts.observer != nullptr) {
        opts.observer->on_stateful_cut(1);
      }
      break;
    case ReplayDriver::Cut::kPrune:
      ++t.pruned_subtrees;
      break;
    case ReplayDriver::Cut::kFrontier:  // its worker re-runs it and pays
      break;
  }
  return violation;
}

// Restart-DFS over the subtree rooted at `prefix` (decisions below `floor`
// are fixed). Stops at the subtree's first violation in DFS order — options
// in index order at a full-branching decision, in insertion order at a
// listed one — on budget exhaustion, or when a canonically earlier work
// unit has already reported a violation (nothing in this subtree can win
// then). Under source sets each run's races extend the backtrack lists;
// those on decisions above `floor` go back to the caller in `above`.
SubtreeStats explore_subtree(const ExecutionBody& body,
                             std::vector<Decision> prefix, std::size_t floor,
                             const Explorer::Options& opts, SearchState& state,
                             std::uint64_t my_index) {
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
    const std::int64_t reduced_before = tally.reduced_subtrees;
    ReplayDriver driver = make_driver(std::move(prefix), opts, state, races);
    std::optional<std::string> violation =
        attempt(body, driver, opts, tally);
    if (driver.cut() == ReplayDriver::Cut::kNone) {
      budget.consume();
    }
    const std::size_t fresh_from = driver.fresh_from();
    const bool faulted = driver.faulted();
    std::vector<Decision> trace = driver.take_trace();
    if (races != nullptr) {
      races->run(fresh_from, faulted, trace, floor, stats.above);
    }
    if (violation) {
      stats.violation = std::move(violation);
      stats.trace = std::move(trace);
      stats.finished = true;
      return stats;
    }
    if (tally.stuck_executions > 0 && !stats.stuck_message) {  // first stuck
      stats.stuck_message = stuck_message_for(opts.step_quota);
      stats.stuck_trace = trace;  // copy: advance() mutates `trace` next
    }
    const bool more = advance(trace, floor, opts.prune, tally.pruned_subtrees,
                              tally.reduced_subtrees);
    if (opts.observer != nullptr && tally.reduced_subtrees != reduced_before) {
      opts.observer->on_reduced(tally.reduced_subtrees - reduced_before);
    }
    if (!more) {
      stats.finished = true;
      return stats;
    }
    prefix = std::move(trace);
  }
}

// One frontier work unit: stats filled by whichever thread explores it, the
// prefix retained by the walker so checkpoints can name the watermark unit's
// restart point, and a done flag publishing the stats (store-release after
// the stats are written, load-acquire by the fold).
struct UnitRecord {
  SubtreeStats stats;
  std::vector<Decision> prefix;
  std::atomic<bool> done{false};
};

// One frontier work unit streamed from the walker to a worker. The record
// is a stable pointer into the walker-owned deque; the event index orders
// the unit canonically for cancellation.
struct WorkItem {
  std::uint64_t event_index = 0;
  UnitRecord* record = nullptr;
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

// The canonical fold: the walker's events in serial-DFS order, each added to
// one running Result once it and every event before it have settled, up to
// and including the first violating one — the canonical winner. An event is
// one attempt (its unit's whole subtree included) or the subtrees `advance`
// pruned or skipped after it. A unit settles when whoever explores it is
// done; everything else settles at once, so only events behind an unsettled
// unit wait, and a walk without workers keeps none. A resumed search starts
// the fold from its snapshot's watermark. Checkpoints and the final Result
// read the fold.
struct Fold {
  struct Event {
    Tally tally;
    UnitRecord* unit = nullptr;
    std::optional<std::string> violation;
    std::vector<Decision> trace;  ///< kept when it violates or is stuck
  };

  std::int64_t step_quota = 0;
  Explorer::Result result;  ///< tallies, violation and first stuck run
  bool unfinished = false;  ///< a unit stopped short (cancel or budget)
  std::uint64_t folded = 0;
  std::uint64_t winner = ViolationLog::kNone;
  std::vector<Event> waiting;  ///< from `head` on: behind an unsettled unit
  std::size_t head = 0;

  /// The canonical index the next event takes.
  std::uint64_t next_index() const noexcept {
    return folded + (waiting.size() - head);
  }

  /// Adds the next event; `trace` is its run's decision string.
  void add(const Tally& t, UnitRecord* unit,
           std::optional<std::string> v, const std::vector<Decision>& trace) {
    if (head == waiting.size() && settled(unit)) {
      fold(t, unit, std::move(v), trace);
      return;
    }
    Event& ev = waiting.emplace_back(Event{t, unit, std::move(v), {}});
    if (ev.violation || t.stuck_executions > 0) {
      ev.trace = trace;
    }
    settle();
  }

  /// Folds the waiting events whose units have settled, in order.
  void settle() {
    for (; head < waiting.size() && settled(waiting[head].unit); ++head) {
      Event& ev = waiting[head];
      fold(ev.tally, ev.unit, std::move(ev.violation), ev.trace);
    }
    if (head == waiting.size()) {
      waiting.clear();
      head = 0;
    }
  }

  static bool settled(const UnitRecord* unit) noexcept {
    return unit == nullptr || unit->done.load(std::memory_order_acquire);
  }

  void fold(const Tally& t, const UnitRecord* unit,
            std::optional<std::string> v, const std::vector<Decision>& trace) {
    const std::uint64_t index = folded++;
    if (result.violation) {
      return;  // nothing after the winner counts
    }
    result += t;
    if (t.stuck_executions > 0 && !result.first_stuck) {
      result.first_stuck =
          StuckExecution{stuck_message_for(step_quota), trace};
    }
    if (unit != nullptr) {
      // DFS order puts a unit's first stuck run before its violation.
      const SubtreeStats& st = unit->stats;
      result += st.tally;
      unfinished = unfinished || !st.finished;
      if (st.stuck_message && !result.first_stuck) {
        result.first_stuck = StuckExecution{*st.stuck_message, st.stuck_trace};
      }
      v = st.violation;
    }
    if (v) {
      winner = index;
      result.violation = std::move(v);
      result.violating_trace = unit != nullptr ? unit->stats.trace : trace;
    }
  }
};

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
}

// The one search behind explore() and resume(): a walker enumerates the tree
// in serial DFS order on the calling thread, from `prefix` on (a resumed
// snapshot's restart point, with `base` its watermark), and folds
// its events. With `threads - 1` workers it cuts its runs at the frontier
// depth and streams each cut prefix as a work unit through a bounded ring to
// them, running the oldest queued unit itself when the ring is full. With
// no workers (`threads = 1`) it sets no decision limit: every run is a
// whole execution, and the walk is a plain restart-DFS. Either way the fold
// gives every tally the serial value, whatever the thread timing.
//
// Under source sets with workers the walker never runs ahead of the
// backtrack lists: it runs each of its own frontier units inline, and
// applies a unit's demands on the decisions above its root (its `above`
// list) before advancing, so those lists grow in serial DFS order. An option
// such a demand adds is pushed as a unit at once — its subtree and sleep
// set depend only on the options listed before it — and the walker, on
// reaching it in DFS order, waits for it (running queued units meanwhile)
// and applies its demands in turn. Without workers it enters every listed
// option through `advance` instead.
Explorer::Result explore_impl(const ExecutionBody& body,
                              const Explorer::Options& opts,
                              std::vector<Decision> prefix,
                              Explorer::Result base) {
  const int threads = Explorer::resolve_threads(opts.threads);
  const ExplorerSnapshot proto = snapshot_proto(opts);
  Fold fold{opts.step_quota, std::move(base)};
  SearchState state;
  state.max_executions = opts.max_executions - fold.result.executions;
  if (opts.stateful) {
    state.visited = std::make_unique<detail::VisitedSet>(
        static_cast<std::size_t>(opts.stateful_capacity));
  }
  // No workers, no frontier: every run of a lone walker is an execution.
  std::size_t depth = SIZE_MAX;
  if (threads > 1) {
    depth = opts.frontier_depth > 0
                ? static_cast<std::size_t>(opts.frontier_depth)
                : auto_frontier_depth(threads);
  }
  const bool checkpointing = !opts.checkpoint_path.empty();
  const bool sources = source_sets(opts);
  const bool share = sources && threads > 1;  // push listed options as units

  std::deque<UnitRecord> unit_records;  // deque: grows with stable addresses
  std::optional<BoundedQueue<WorkItem>> ring;
  if (threads > 1) {
    ring.emplace(kRingCapacity);
  }
  std::mutex qmu;
  std::condition_variable qcv;
  bool walker_done = false;  // guarded by qmu
  std::mutex done_mu;  // with done_cv: the walker waits for a pushed unit
  std::condition_variable done_cv;

  const auto process_item = [&](const WorkItem& item) {
    UnitRecord& rec = *item.record;
    // Units arrive in canonical order; once a violation beats this unit it
    // beats every later one too, so skip without exploring (the fold stops
    // before it anyway). Units pushed for source-set options carry no index
    // yet: the walker folds their verdicts when it reaches them, and any
    // verdict reported before then precedes them.
    if (state.log.best_index() >= item.event_index) {
      rec.stats = explore_subtree(body, rec.prefix, rec.prefix.size(), opts,
                                  state, item.event_index);
      if (rec.stats.violation && !sources) {
        state.log.report(item.event_index, *rec.stats.violation,
                         rec.stats.trace);
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
      if (!ring->try_pop(item)) {
        std::unique_lock<std::mutex> lk(qmu);
        // Re-check under the lock: a push that raced our failed pop is
        // visible here, and the walker notifies only after taking qmu, so
        // a wakeup between the re-check and wait() cannot be missed.
        if (ring->try_pop(item)) {
          lk.unlock();
        } else if (walker_done) {
          return;
        } else {
          qcv.wait(lk);
          continue;
        }
      }
      process_item(item);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads - 1));
  for (int w = 0; w < threads - 1; ++w) {
    pool.emplace_back(worker_loop);
  }

  // Periodic checkpoint: the watermark is the fold, and the restart prefix
  // the first unsettled unit's — or the walker's next prefix when nothing
  // waits. A resume replays that unit's prefix without counting its
  // decisions again, so what the attempt that cut the unit counted (the
  // options it skipped on the way down) lies below the watermark too. Work
  // completed beyond the watermark is deliberately not saved: a resume
  // redoes it, and the fold makes the redone tallies land on the same final
  // Result.
  const auto checkpoint = [&](const std::vector<Decision>& next) {
    ExplorerSnapshot s = proto;
    s.result = fold.result;
    const std::vector<Decision>* restart = &next;
    if (fold.head < fold.waiting.size()) {
      s.result += fold.waiting[fold.head].tally;
      restart = &fold.waiting[fold.head].unit->prefix;
    }
    s.prefix = *restart;
    try {
      save_snapshot(opts.checkpoint_path, s);
    } catch (const SimError&) {
      // A periodic snapshot that still fails after save_snapshot's own
      // retries must not kill the campaign: the search continues and the
      // next period (or the final snapshot) tries again. The previous
      // snapshot stays intact (atomic rename), so resume keeps working —
      // it just redoes more of the tree.
    }
  };

  bool finished = false;  // the walker exhausted the tree
  {
    BudgetScope budget(state);
    std::uint64_t last_snapshot = 0;
    detail::RaceAnalysis analysis;
    std::vector<detail::Backtrack> unused;  // the walker owns every decision
    // Source sets with workers: per trace depth, the list entries already
    // run or pushed (those past it are new), and the pushed units the
    // walker has not reached yet, by list position.
    std::vector<std::uint8_t> handled;
    std::vector<std::deque<std::pair<std::uint8_t, UnitRecord*>>> pushed;
    if (share) {
      for (const Decision& d : prefix) {
        handled.push_back(d.listed);  // a resumed list is the walker's to run
      }
      pushed.resize(prefix.size());
    }
    UnitRecord* reached = nullptr;  // the pushed unit `prefix` ends at

    // Streams a unit to the workers. A full ring makes the walker run the
    // oldest queued unit itself (backpressure); it drops its budget hold
    // first — the drained subtree claims its own, and a grant held across
    // a blocking drain could starve parked peers into deadlock.
    const auto push_unit = [&](const WorkItem& item) {
      while (!ring->try_push(WorkItem{item})) {
        budget.release();
        WorkItem mine;
        if (ring->try_pop(mine)) {
          process_item(mine);
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
        if (ring->try_pop(mine)) {
          process_item(mine);
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
          UnitRecord& rec = unit_records.emplace_back();
          rec.prefix.assign(trace.begin(),
                            trace.begin() + static_cast<std::ptrdiff_t>(k));
          rec.prefix.push_back(listed_option(trace[k], handled[k]));
          pushed[k].emplace_back(handled[k], &rec);
          push_unit(WorkItem{ViolationLog::kNone, &rec});
        }
      }
    };

    // Branches marked [[unlikely]] run only with workers: the marks keep
    // them out of the lone walker's path, which every serial search runs.
    for (;;) {
      if (fold.result.violation ||
          state.log.best_index() < fold.next_index()) {
        break;  // a violation canonically precedes the next event
      }
      if (!budget.ensure()) {
        break;  // budget finally exhausted
      }
      Tally own;  // this event's count: a unit's subtree comes with the unit
      std::optional<std::string> violation;
      std::vector<Decision> trace;
      UnitRecord* unit = std::exchange(reached, nullptr);
      if (unit != nullptr) [[unlikely]] {
        trace = std::move(prefix);
        await(*unit);
      } else {
        const std::size_t fixed = prefix.size();
        ReplayDriver driver = make_driver(std::move(prefix), opts, state,
                                          sources ? &analysis : nullptr);
        driver.set_decision_limit(depth);
        violation = attempt(body, driver, opts, own);
        if (driver.cut() == ReplayDriver::Cut::kNone) {
          budget.consume();
        }
        const std::size_t fresh_from = driver.fresh_from();
        const bool faulted = driver.faulted();
        trace = driver.take_trace();
        if (sources) {
          analysis.run(fresh_from, faulted, trace, 0, unused);
        }
        if (share) [[unlikely]] {
          handled.resize(trace.size());
          pushed.resize(trace.size());
          for (std::size_t k = fixed; k < trace.size(); ++k) {
            handled[k] = trace[k].listed > 0 ? 1 : 0;
          }
        }
        if (driver.cut() == ReplayDriver::Cut::kFrontier) [[unlikely]] {
          unit = &unit_records.emplace_back();
          unit->prefix = trace;
          const WorkItem item{fold.next_index(), unit};
          if (sources) {
            budget.release();
            process_item(item);  // the walker needs its demands
          } else {
            push_unit(item);
          }
        }
      }
      // A violating run ends the walk even when its event still waits
      // behind an unsettled unit: nothing after it can win.
      const bool violated = violation.has_value();
      fold.add(own, unit, std::move(violation), trace);
      if (violated || fold.result.violation) {
        break;
      }
      if (sources && unit != nullptr) [[unlikely]] {
        for (const detail::Backtrack& b : unit->stats.above) {
          detail::apply(trace[b.depth], b);
        }
      }
      if (share) [[unlikely]] {
        push_new_options(trace);
      }
      // Subtrees pruned or reduction-skipped while advancing sit between
      // this event and the next in canonical order (in particular after a
      // unit's whole subtree): they are an event of their own, so truncated
      // tallies stay exact.
      Tally skipped;
      const bool more = advance(trace, 0, opts.prune, skipped.pruned_subtrees,
                                skipped.reduced_subtrees);
      if (skipped.pruned_subtrees != 0 || skipped.reduced_subtrees != 0) {
        fold.add(skipped, nullptr, std::nullopt, trace);
      }
      const std::int64_t reduced =
          own.reduced_subtrees + skipped.reduced_subtrees;
      if (opts.observer != nullptr && reduced != 0) {
        opts.observer->on_reduced(reduced);
      }
      if (!more) {
        finished = true;
        break;
      }
      if (share) [[unlikely]] {
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
      if (checkpointing && !fold.result.violation &&
          fold.next_index() - last_snapshot >=
              static_cast<std::uint64_t>(opts.checkpoint_every)) {
        last_snapshot = fold.next_index();
        checkpoint(trace);
      }
      prefix = std::move(trace);
    }
  }  // the walker's budget hold refunded here

  if (fold.result.violation) {
    // Units pushed ahead of the walker cannot win: cancel them.
    state.log.report(fold.winner, *fold.result.violation,
                     fold.result.violating_trace);
  }
  {
    const std::lock_guard<std::mutex> lk(qmu);
    walker_done = true;
  }
  qcv.notify_all();
  if (ring) {
    worker_loop();  // help drain whatever is still queued
  }
  for (std::thread& t : pool) {
    t.join();
  }
  fold.settle();

  Explorer::Result result = std::move(fold.result);
  if (state.visited != nullptr) {
    result.stateful_states = static_cast<std::int64_t>(state.visited->size());
  }
  // Exhaustion shows as an unfinished unit or an unfinished walk, so
  // `complete` needs no separate exhaustion flag (and cannot be spuriously
  // false when the budget exactly equals the tree size).
  result.complete = !result.violation && finished && !fold.unfinished;
  if (opts.shrink_violations && result.violation) {
    result.violating_trace =
        Explorer::shrink(body, std::move(result.violating_trace));
  }
  if (checkpointing) {
    ExplorerSnapshot final_snapshot = proto;
    final_snapshot.done = true;
    final_snapshot.result = result;
    save_snapshot(opts.checkpoint_path, final_snapshot);
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
  return explore_impl(body, opts, {}, {});
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
  if (snap.done || opts.max_executions - snap.result.executions <= 0) {
    // Finished searches (and watermarks that already spent the whole
    // budget) resume to their saved Result without re-running anything.
    return std::move(snap.result);
  }
  return explore_impl(body, opts, std::move(snap.prefix),
                      std::move(snap.result));
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

  // Workers claim fixed-size blocks of the seed range in ascending order;
  // failures are aggregated by seed index, so the reported failure is the
  // least failing seed — what a serial sweep hits first — and blocks past
  // the current best are never started. The calling thread is one of the
  // workers; a lone worker sweeps on it alone.
  constexpr std::int64_t kBlock = 64;
  ViolationLog log;
  std::atomic<std::int64_t> next_block{0};
  const auto sweep = [&]() {
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
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int w = 1; w < workers; ++w) {
    pool.emplace_back(sweep);
  }
  sweep();
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
