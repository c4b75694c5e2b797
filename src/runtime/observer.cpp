#include "subc/runtime/observer.hpp"

#include <iostream>
#include <ostream>

#include "subc/runtime/history.hpp"

namespace subc {

void ObserverChain::on_run_begin(int num_processes) {
  for (TraceObserver* s : sinks_) {
    s->on_run_begin(num_processes);
  }
}

void ObserverChain::on_step(const StepEvent& event) {
  for (TraceObserver* s : sinks_) {
    s->on_step(event);
  }
}

void ObserverChain::on_choose(int pid, std::uint32_t arity,
                              std::uint32_t chosen) {
  for (TraceObserver* s : sinks_) {
    s->on_choose(pid, arity, chosen);
  }
}

void ObserverChain::on_crash(int pid, std::int64_t step) {
  for (TraceObserver* s : sinks_) {
    s->on_crash(pid, step);
  }
}

void ObserverChain::on_recover(int pid, std::int64_t step) {
  for (TraceObserver* s : sinks_) {
    s->on_recover(pid, step);
  }
}

void ObserverChain::on_invoke(int pid, std::size_t handle, std::int64_t time,
                              std::span<const Value> op) {
  for (TraceObserver* s : sinks_) {
    s->on_invoke(pid, handle, time, op);
  }
}

void ObserverChain::on_respond(int pid, std::size_t handle, std::int64_t time,
                               std::span<const Value> response) {
  for (TraceObserver* s : sinks_) {
    s->on_respond(pid, handle, time, response);
  }
}

void ObserverChain::on_reduced(std::int64_t subtrees) {
  for (TraceObserver* s : sinks_) {
    s->on_reduced(subtrees);
  }
}

void ObserverChain::on_stateful_cut(std::int64_t cuts) {
  for (TraceObserver* s : sinks_) {
    s->on_stateful_cut(cuts);
  }
}

void ObserverChain::on_violation(std::string_view message) {
  for (TraceObserver* s : sinks_) {
    s->on_violation(message);
  }
}

void ObserverChain::on_stuck(std::string_view message) {
  for (TraceObserver* s : sinks_) {
    s->on_stuck(message);
  }
}

void ObserverChain::on_run_end(std::int64_t total_steps, bool quiescent) {
  for (TraceObserver* s : sinks_) {
    s->on_run_end(total_steps, quiescent);
  }
}

void AccessCounters::on_run_begin(int /*num_processes*/) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++runs_;
}

void AccessCounters::on_step(const StepEvent& event) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++steps_;
  ++by_kind_[static_cast<std::size_t>(event.access.kind)];
  const std::uint32_t obj = event.access.object;
  if (obj != 0) {
    if (per_object_.size() <= obj) {
      per_object_.resize(obj + 1, 0);
    }
    ++per_object_[obj];
  }
}

void AccessCounters::on_choose(int /*pid*/, std::uint32_t /*arity*/,
                               std::uint32_t /*chosen*/) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++chooses_;
}

void AccessCounters::on_crash(int /*pid*/, std::int64_t /*step*/) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++crashes_;
}

void AccessCounters::on_recover(int /*pid*/, std::int64_t /*step*/) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++recoveries_;
}

void AccessCounters::on_invoke(int /*pid*/, std::size_t /*handle*/,
                               std::int64_t /*time*/,
                               std::span<const Value> /*op*/) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++invocations_;
}

void AccessCounters::on_respond(int /*pid*/, std::size_t /*handle*/,
                                std::int64_t /*time*/,
                                std::span<const Value> /*response*/) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++responses_;
}

void AccessCounters::on_violation(std::string_view /*message*/) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++violations_;
}

void AccessCounters::on_stuck(std::string_view /*message*/) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++stuck_;
}

std::int64_t AccessCounters::runs() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return runs_;
}

std::int64_t AccessCounters::steps() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return steps_;
}

std::int64_t AccessCounters::steps_of_kind(AccessKind kind) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return by_kind_[static_cast<std::size_t>(kind)];
}

std::int64_t AccessCounters::chooses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return chooses_;
}

std::int64_t AccessCounters::crashes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return crashes_;
}

std::int64_t AccessCounters::recoveries() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recoveries_;
}

std::int64_t AccessCounters::invocations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return invocations_;
}

std::int64_t AccessCounters::responses() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return responses_;
}

std::int64_t AccessCounters::violations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

std::int64_t AccessCounters::stuck() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stuck_;
}

std::int64_t AccessCounters::objects_touched() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::int64_t n = 0;
  for (const std::int64_t c : per_object_) {
    if (c > 0) {
      ++n;
    }
  }
  return n;
}

std::int64_t AccessCounters::steps_on_object(std::uint32_t object) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (object >= per_object_.size()) {
    return 0;
  }
  return per_object_[object];
}

HistoryRecorder::HistoryRecorder() : history_(std::make_unique<History>()) {}
HistoryRecorder::~HistoryRecorder() = default;

void HistoryRecorder::on_invoke(int pid, std::size_t handle,
                                std::int64_t /*time*/,
                                std::span<const Value> op) {
  const std::size_t mirror = history_->invoke(pid, op);
  if (handle_map_.size() <= handle) {
    handle_map_.resize(handle + 1, static_cast<std::size_t>(-1));
  }
  handle_map_[handle] = mirror;
}

void HistoryRecorder::on_respond(int /*pid*/, std::size_t handle,
                                 std::int64_t /*time*/,
                                 std::span<const Value> response) {
  if (handle >= handle_map_.size() ||
      handle_map_[handle] == static_cast<std::size_t>(-1)) {
    // Response for an operation invoked before this recorder attached;
    // nothing to mirror it onto.
    return;
  }
  history_->respond(handle_map_[handle], response);
}

void HistoryRecorder::reset() {
  // Reuse the same History (and its entry capacity) instead of reallocating
  // one per run; handle_map_ keeps its capacity too.
  history_->clear();
  handle_map_.clear();
}

ProgressTicker::ProgressTicker(double period_seconds, std::ostream* out)
    : period_seconds_(period_seconds),
      out_(out != nullptr ? out : &std::cerr),
      start_(std::chrono::steady_clock::now()),
      last_tick_(start_) {}

namespace {

// The ticker that counted a run end on this thread since the execution's
// observer scope was installed (ScopedObserver resets it). A violation
// thrown by the body's post-run check belongs to that counted execution.
thread_local const ProgressTicker* g_run_counted = nullptr;

}  // namespace

void ProgressTicker::on_run_begin(int /*num_processes*/) {
  if (g_run_counted == this) {
    g_run_counted = nullptr;  // a later runtime of the same execution
  }
  const std::lock_guard<std::mutex> lock(mu_);
  ++runs_;
}

void ProgressTicker::on_run_end(std::int64_t /*total_steps*/,
                                bool /*quiescent*/) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++executions_;
  g_run_counted = this;
  maybe_tick_locked();
}

void ProgressTicker::on_violation(std::string_view /*message*/) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++violations_;
  // The search counts a violating run as a completed execution — the
  // counterexample run. A body that threw inside its runtime never reached
  // on_run_end; one whose post-run check threw already counted it there.
  if (g_run_counted != this) {
    ++executions_;
  }
  g_run_counted = nullptr;
  maybe_tick_locked();
}

void ProgressTicker::on_reduced(std::int64_t subtrees) {
  const std::lock_guard<std::mutex> lock(mu_);
  reduced_ += subtrees;
}

void ProgressTicker::on_stateful_cut(std::int64_t cuts) {
  const std::lock_guard<std::mutex> lock(mu_);
  stateful_cuts_ += cuts;
}

void ProgressTicker::maybe_tick_locked() {
  const auto now = std::chrono::steady_clock::now();
  const std::chrono::duration<double> since_tick = now - last_tick_;
  if (since_tick.count() < period_seconds_) {
    return;
  }
  last_tick_ = now;
  const std::chrono::duration<double> elapsed = now - start_;
  const double rate =
      elapsed.count() > 0.0 ? static_cast<double>(executions_) / elapsed.count()
                            : 0.0;
  const double factor =
      executions_ > 0 ? static_cast<double>(executions_ + reduced_) /
                            static_cast<double>(executions_)
                      : 1.0;
  *out_ << "[progress] execs=" << executions_ << " exec/s=" << rate
        << " worlds=" << runs_ << " reduced=" << reduced_ << " (x" << factor
        << ") stateful=" << stateful_cuts_ << " violations=" << violations_
        << '\n';
}

ProgressTicker::Snapshot ProgressTicker::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  s.executions = executions_;
  s.runs = runs_;
  s.reduced = reduced_;
  s.violations = violations_;
  s.stateful_cuts = stateful_cuts_;
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start_;
  s.elapsed_seconds = elapsed.count();
  s.executions_per_sec =
      s.elapsed_seconds > 0.0
          ? static_cast<double>(s.executions) / s.elapsed_seconds
          : 0.0;
  s.reduction_factor =
      s.executions > 0 ? static_cast<double>(s.executions + s.reduced) /
                             static_cast<double>(s.executions)
                       : 1.0;
  return s;
}

void ViolationCollector::on_violation(std::string_view message) {
  const std::lock_guard<std::mutex> lock(mu_);
  messages_.emplace_back(message);
}

std::vector<std::string> ViolationCollector::messages() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return messages_;
}

std::int64_t ViolationCollector::count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(messages_.size());
}

namespace {
thread_local TraceObserver* g_thread_observer = nullptr;
}  // namespace

TraceObserver* thread_default_observer() noexcept { return g_thread_observer; }

ScopedObserver::ScopedObserver(TraceObserver* obs)
    : previous_(g_thread_observer) {
  g_thread_observer = obs;
  g_run_counted = nullptr;  // a new execution: no run of it has ended yet
}

ScopedObserver::~ScopedObserver() { g_thread_observer = previous_; }

}  // namespace subc
