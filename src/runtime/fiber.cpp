#include "subc/runtime/fiber.hpp"

#include <cstdint>
#include <exception>
#include <utility>
#include <vector>

#include "subc/runtime/arena.hpp"
#include "subc/runtime/value.hpp"

// On x86-64 Linux fibers switch stacks with a ~20-instruction userspace
// context switch (see the asm below); everywhere else they fall back to
// ucontext. swapcontext is semantically perfect but POSIX requires it to
// save and restore the signal mask, which costs an rt_sigprocmask syscall
// per switch — measured at ~70% of total explorer CPU on the exhaustive
// benchmarks. The simulator never touches signal masks from simulated code,
// so the fast path saves only the SysV callee-saved registers and the FP
// control words, exactly like boost.context's fcontext.
#if defined(__x86_64__) && defined(__linux__) && !defined(SUBC_FIBER_UCONTEXT)
#define SUBC_FIBER_FAST 1
#else
#include <ucontext.h>
#endif

// ThreadSanitizer cannot follow stack switches on its own: it would keep
// attributing execution to the old stack, producing false races (and
// shadow-stack corruption) as soon as several simulator threads run
// fibers — exactly what the parallel explorer does. The fiber API below
// tells TSan about every switch.
#if defined(__SANITIZE_THREAD__)
#define SUBC_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SUBC_TSAN_FIBERS 1
#endif
#endif

#ifdef SUBC_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

// AddressSanitizer has the analogous problem: its fake-stack bookkeeping is
// tied to the stack the thread entered on, so an unannounced stack switch
// leaves ASan poisoning and unpoisoning the wrong region — spurious
// stack-buffer-overflow / stack-use-after-return reports the moment a fiber
// runs. The __sanitizer_{start,finish}_switch_fiber pair brackets every
// switch below (mirroring the TSan calls).
#if defined(__SANITIZE_ADDRESS__)
#define SUBC_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SUBC_ASAN_FIBERS 1
#endif
#endif

#ifdef SUBC_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#ifdef SUBC_FIBER_FAST
// subc_ctx_switch(save_sp, target_sp): push the SysV callee-saved registers
// and FP control words onto the current stack, store the resulting stack
// pointer through save_sp, then adopt target_sp and pop the same layout.
// Returning "ret"s to whatever address the target frame carries: either the
// point that previously called subc_ctx_switch on that stack, or — for a
// freshly built bootstrap frame — subc_ctx_entry_thunk, which forwards the
// Fiber* planted in r12 to subc_fiber_asm_entry.
//
// The frame layout (top of stack downward) is:
//   [return address][rbp][rbx][r12][r13][r14][r15][fcw:32|mxcsr:32]
// and must match make_bootstrap_frame() below.
asm(R"(
.text
.globl subc_ctx_switch
.hidden subc_ctx_switch
.type subc_ctx_switch,@function
.align 16
subc_ctx_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
.size subc_ctx_switch,.-subc_ctx_switch

.globl subc_ctx_entry_thunk
.hidden subc_ctx_entry_thunk
.type subc_ctx_entry_thunk,@function
.align 16
subc_ctx_entry_thunk:
  movq %r12, %rdi
  call subc_fiber_asm_entry
  ud2
.size subc_ctx_entry_thunk,.-subc_ctx_entry_thunk
)");

extern "C" {
void subc_ctx_switch(void** save_sp, void* target_sp) noexcept;
void subc_ctx_entry_thunk() noexcept;
}
#endif  // SUBC_FIBER_FAST

namespace subc {

namespace {
// The fiber currently executing on this thread (nullptr when the kernel —
// i.e. the main context — is running). The simulation is single-threaded,
// but thread_local keeps the library safe to use from several independent
// simulator threads (e.g. parallel test shards).
thread_local Fiber* tl_current = nullptr;

// Stacks are allocated and freed once per simulated process per execution —
// millions of times in an exploration. Going straight to malloc for them is
// pathological: the default stack size sits exactly at glibc's dynamic mmap
// threshold, so every allocation degenerates into an mmap/munmap pair plus
// first-touch page faults, costing ~10x the simulated execution itself. A
// small per-thread pool of default-sized stacks removes the churn
// (custom-sized stacks stay on the regular allocator).
constexpr std::size_t kMaxPooledStacks = 16;
thread_local std::vector<std::unique_ptr<char[]>> tl_stack_pool;

std::unique_ptr<char[]> acquire_stack(std::size_t stack_bytes) {
  if (stack_bytes == Fiber::kDefaultStackBytes && !tl_stack_pool.empty()) {
    std::unique_ptr<char[]> stack = std::move(tl_stack_pool.back());
    tl_stack_pool.pop_back();
    detail::bump(detail::thread_alloc_counters().fiber_stack_reuses);
    return stack;
  }
  detail::bump(detail::thread_alloc_counters().fiber_stack_allocs);
  return std::make_unique<char[]>(stack_bytes);
}

void release_stack(std::unique_ptr<char[]> stack, std::size_t stack_bytes) {
  if (stack_bytes == Fiber::kDefaultStackBytes &&
      tl_stack_pool.size() < kMaxPooledStacks) {
    tl_stack_pool.push_back(std::move(stack));
  }
}

// Fixed-size freelist for Fiber::Impl blocks: one Impl is allocated per
// simulated process per execution, so this is a per-world-construction
// malloc/free pair the explorer pays millions of times. All blocks have the
// same size (one type), so reuse is a plain pop.
struct ImplBlockPool {
  std::vector<void*> free;
  ~ImplBlockPool() {
    for (void* p : free) {
      ::operator delete(p);
    }
  }
};
thread_local ImplBlockPool tl_impl_pool;
constexpr std::size_t kMaxPooledImpls = 64;

#ifdef SUBC_FIBER_FAST
// Builds the initial frame subc_ctx_switch pops on the first resume. The
// first switch onto the stack "returns" into subc_ctx_entry_thunk with the
// Fiber* in r12 and rsp 16-aligned, which is exactly the SysV alignment a
// call instruction would have produced at the thunk's call site.
void* make_bootstrap_frame(char* stack_base, std::size_t stack_bytes,
                           void* fiber) {
  const auto top =
      reinterpret_cast<std::uintptr_t>(stack_base + stack_bytes) &
      ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<std::uint64_t*>(top);
  *--frame = reinterpret_cast<std::uint64_t>(&subc_ctx_entry_thunk);
  *--frame = 0;                                        // rbp
  *--frame = 0;                                        // rbx
  *--frame = reinterpret_cast<std::uint64_t>(fiber);   // r12 -> Fiber*
  *--frame = 0;                                        // r13
  *--frame = 0;                                        // r14
  *--frame = 0;                                        // r15
  *--frame = (std::uint64_t{0x037f} << 32) | 0x1f80;   // x87 cw | mxcsr
  return frame;
}
#endif
}  // namespace

struct Fiber::Impl {
  static void* operator new(std::size_t size) {
    if (!tl_impl_pool.free.empty()) {
      void* p = tl_impl_pool.free.back();
      tl_impl_pool.free.pop_back();
      return p;
    }
    return ::operator new(size);
  }
  static void operator delete(void* p) {
    if (tl_impl_pool.free.size() < kMaxPooledImpls) {
      tl_impl_pool.free.push_back(p);
    } else {
      ::operator delete(p);
    }
  }

#ifdef SUBC_FIBER_FAST
  void* fiber_sp = nullptr;   // fiber-side suspended stack pointer
  void* caller_sp = nullptr;  // kernel-side stack pointer during a resume
#else
  ucontext_t ctx{};
  ucontext_t caller{};
#endif
  std::unique_ptr<char[]> stack;
  std::size_t stack_bytes = 0;
  /// Entry, in one of two forms: a raw function pointer + argument (hot
  /// path, no allocation) or a std::function (general path).
  void (*entry_fn)(void*) = nullptr;
  void* entry_arg = nullptr;
  std::function<void()> entry;
  std::exception_ptr error;
  bool started = false;
  bool finished = false;
  bool killing = false;
#ifdef SUBC_TSAN_FIBERS
  void* tsan_fiber = nullptr;   // this fiber's TSan context
  void* tsan_caller = nullptr;  // where to switch back to on yield/finish
#endif
#ifdef SUBC_ASAN_FIBERS
  void* asan_caller_fake = nullptr;  // caller's fake stack, saved in resume()
  void* asan_fiber_fake = nullptr;   // fiber's fake stack, saved in yield()
  const void* asan_caller_bottom = nullptr;  // caller stack, learned on entry
  std::size_t asan_caller_size = 0;
#endif

  static void init_context(Fiber* self, std::size_t stack_bytes);
};

Fiber::Fiber(std::function<void()> entry, std::size_t stack_bytes)
    : impl_(std::make_unique<Impl>()) {
  if (!entry) {
    throw SimError("Fiber requires a non-empty entry function");
  }
  impl_->entry = std::move(entry);
  Impl::init_context(this, stack_bytes);
}

Fiber::Fiber(void (*entry)(void*), void* arg, std::size_t stack_bytes)
    : impl_(std::make_unique<Impl>()) {
  if (entry == nullptr) {
    throw SimError("Fiber requires a non-empty entry function");
  }
  impl_->entry_fn = entry;
  impl_->entry_arg = arg;
  Impl::init_context(this, stack_bytes);
}

// Shared tail of both constructors: stack acquisition and the initial
// switch frame / ucontext setup.
void Fiber::Impl::init_context(Fiber* self, std::size_t stack_bytes) {
  Impl* const impl = self->impl_.get();
  impl->stack = acquire_stack(stack_bytes);
  impl->stack_bytes = stack_bytes;
#ifdef SUBC_ASAN_FIBERS
  // A pooled stack still carries the shadow poison of the frames its
  // previous fiber never unwound (the last function switches away instead
  // of returning, so its redzones are never cleared). Wipe it before
  // building a fresh frame there.
  __asan_unpoison_memory_region(impl->stack.get(), stack_bytes);
#endif
#ifdef SUBC_FIBER_FAST
  impl->fiber_sp =
      make_bootstrap_frame(impl->stack.get(), stack_bytes, self);
#else
  if (getcontext(&impl->ctx) != 0) {
    throw SimError("getcontext failed");
  }
  impl->ctx.uc_stack.ss_sp = impl->stack.get();
  impl->ctx.uc_stack.ss_size = stack_bytes;
  // Safety net only: the trampoline parks in an explicit switch loop when
  // the entry finishes (see trampoline()), so uc_link is never taken.
  impl->ctx.uc_link = &impl->caller;
  // makecontext only passes ints portably; split the pointer into two words.
  const auto bits = reinterpret_cast<std::uintptr_t>(self);
  makecontext(&impl->ctx, reinterpret_cast<void (*)()>(&Fiber::trampoline),
              2, static_cast<unsigned>(bits >> 32),
              static_cast<unsigned>(bits & 0xffffffffu));
#endif
#ifdef SUBC_TSAN_FIBERS
  impl->tsan_fiber = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  kill();
#ifdef SUBC_TSAN_FIBERS
  __tsan_destroy_fiber(impl_->tsan_fiber);
#endif
  release_stack(std::move(impl_->stack), impl_->stack_bytes);
}

#ifndef SUBC_FIBER_FAST
void Fiber::trampoline(unsigned hi, unsigned lo) {
  const auto bits =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  subc_fiber_asm_entry(reinterpret_cast<Fiber*>(bits));
}
#endif

void Fiber::resume() {
  if (impl_->finished) {
    throw SimError("resume() on a finished fiber");
  }
  Fiber* const prev = tl_current;
  tl_current = this;
  impl_->started = true;
#ifdef SUBC_TSAN_FIBERS
  impl_->tsan_caller = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(impl_->tsan_fiber, 0);
#endif
#ifdef SUBC_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&impl_->asan_caller_fake, impl_->stack.get(),
                                 impl_->stack_bytes);
#endif
#ifdef SUBC_FIBER_FAST
  subc_ctx_switch(&impl_->caller_sp, impl_->fiber_sp);
#else
  swapcontext(&impl_->caller, &impl_->ctx);
#endif
#ifdef SUBC_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(impl_->asan_caller_fake, nullptr, nullptr);
#endif
  tl_current = prev;
  if (impl_->error) {
    std::exception_ptr error = std::exchange(impl_->error, nullptr);
    std::rethrow_exception(error);
  }
}

bool Fiber::finished() const noexcept { return impl_->finished; }

void Fiber::kill() noexcept {
  if (impl_->finished) {
    return;
  }
  if (!impl_->started) {
    // Never ran: there is no stack state to unwind.
    impl_->finished = true;
    return;
  }
  impl_->killing = true;
  try {
    resume();
  } catch (...) {
    // Destructors must not throw (Core Guidelines C.36); if one does while
    // unwinding an abandoned fiber, dropping it here is the least bad option.
  }
}

void Fiber::yield() {
  Fiber* const self = tl_current;
  if (self == nullptr) {
    throw SimError("Fiber::yield() called outside any fiber");
  }
#ifdef SUBC_TSAN_FIBERS
  __tsan_switch_to_fiber(self->impl_->tsan_caller, 0);
#endif
#ifdef SUBC_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&self->impl_->asan_fiber_fake,
                                 self->impl_->asan_caller_bottom,
                                 self->impl_->asan_caller_size);
#endif
#ifdef SUBC_FIBER_FAST
  subc_ctx_switch(&self->impl_->fiber_sp, self->impl_->caller_sp);
#else
  swapcontext(&self->impl_->ctx, &self->impl_->caller);
#endif
#ifdef SUBC_ASAN_FIBERS
  // Re-learn the caller's bounds: the next resume() may come from another
  // kernel stack (the parallel explorer moves work between threads).
  __sanitizer_finish_switch_fiber(self->impl_->asan_fiber_fake,
                                  &self->impl_->asan_caller_bottom,
                                  &self->impl_->asan_caller_size);
#endif
  if (self->impl_->killing) {
    throw FiberKilled{};
  }
}

}  // namespace subc

// The body of every fiber, on both switch mechanisms. Runs the entry on the
// fiber's own stack, records any escaped exception, then parks in an
// explicit switch loop. Falling off the trampoline instead (ucontext's
// uc_link, or simply returning from the asm thunk) would tear the context
// down with an unbalanced sanitizer shadow stack, which under TSan leaks one
// caller-side shadow frame per finished fiber until the shadow stack
// overflows (observed as libtsan SEGVs after a few tens of thousands of
// fibers). A finished fiber is never resumed (resume() throws), so the park
// loop is effectively unreachable after the first switch back.
extern "C" void subc_fiber_asm_entry(void* fiber) {
  auto* self = static_cast<subc::Fiber*>(fiber);
#ifdef SUBC_ASAN_FIBERS
  // First entry onto this stack: no fake stack to restore yet; record the
  // caller's stack bounds for the switch back.
  __sanitizer_finish_switch_fiber(nullptr, &self->impl_->asan_caller_bottom,
                                  &self->impl_->asan_caller_size);
#endif
  try {
    if (self->impl_->entry_fn != nullptr) {
      self->impl_->entry_fn(self->impl_->entry_arg);
    } else {
      self->impl_->entry();
    }
  } catch (const subc::FiberKilled&) {
    // Expected during kill-unwinding: nothing to record.
  } catch (...) {
    self->impl_->error = std::current_exception();
  }
  self->impl_->finished = true;
  for (;;) {
#ifdef SUBC_TSAN_FIBERS
    __tsan_switch_to_fiber(self->impl_->tsan_caller, 0);
#endif
#ifdef SUBC_ASAN_FIBERS
    // nullptr fake-stack save: the fiber is done for good, so ASan may
    // release its fake frames instead of keeping them restorable.
    __sanitizer_start_switch_fiber(nullptr, self->impl_->asan_caller_bottom,
                                   self->impl_->asan_caller_size);
#endif
#ifdef SUBC_FIBER_FAST
    subc_ctx_switch(&self->impl_->fiber_sp, self->impl_->caller_sp);
#else
    swapcontext(&self->impl_->ctx, &self->impl_->caller);
#endif
  }
}
