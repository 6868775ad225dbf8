#include "support/fiber.hpp"

#include <stdexcept>

#if defined(__x86_64__)

#include <cxxabi.h>
#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <system_error>

#if defined(__SANITIZE_ADDRESS__)
#define HYADES_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define HYADES_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HYADES_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define HYADES_FIBER_TSAN 1
#endif
#endif
#ifdef HYADES_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef HYADES_FIBER_TSAN
#include <sanitizer/tsan_interface.h>
#endif

// hyades_fiber_switch(save, load) stores the running context's stack
// pointer in *save and resumes the context whose stack pointer is load.
// A context is saved on its own stack: rbp, rbx and r12-r15 (the
// System V callee-saved registers), then one word holding MXCSR (low 4
// bytes) and the x87 control word (next 2); its return address sits
// above them.  Every other register is caller-saved, so the C++ caller
// has already spilled what it needs.
//
// A new fiber's stack holds the same frame with r12 = argument, r13 =
// entry function and hyades_fiber_start as the return address, which
// calls entry(argument) with the stack 16-byte aligned, as a call
// expects.  rbp = 0 ends frame-pointer walks there.
extern "C" {
__attribute__((visibility("hidden"))) void hyades_fiber_switch(void** save,
                                                               void* load);
__attribute__((visibility("hidden"))) void hyades_fiber_start();
}

asm(R"(
    .text
    .p2align 4
    .globl hyades_fiber_switch
    .hidden hyades_fiber_switch
    .type hyades_fiber_switch, @function
hyades_fiber_switch:
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
    .size hyades_fiber_switch, .-hyades_fiber_switch

    .p2align 4
    .globl hyades_fiber_start
    .hidden hyades_fiber_start
    .type hyades_fiber_start, @function
hyades_fiber_start:
    movq %r12, %rdi
    callq *%r13
    ud2
    .size hyades_fiber_start, .-hyades_fiber_start
)");

namespace hyades::support {

namespace {

// The thread's C++ exception state, the Itanium C++ ABI's
// __cxa_eh_globals (opaque in <cxxabi.h>): the stack of caught
// exceptions that std::current_exception() reads and `throw;` rethrows,
// and the count of exceptions in flight.  It is per thread, so a fiber
// that parks inside a catch handler must take its own with it.
struct EhState {
  void* caught = nullptr;
  unsigned int uncaught = 0;
};

// A context the thread can run: a fiber, or the caller of run_fibers.
struct Fiber {
  Fiber() = default;
  ~Fiber() {
#ifdef HYADES_FIBER_TSAN
    if (map != nullptr && tsan != nullptr) __tsan_destroy_fiber(tsan);
#endif
    if (map != nullptr) ::munmap(map, map_size);
  }
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  void* sp = nullptr;  // its stack pointer while switched out
  EhState eh;          // its exception state while switched out
  // A fiber's stack mapping, guard page first; null for the caller.
  char* map = nullptr;
  std::size_t map_size = 0;
  std::size_t prev = 0, next = 0;  // the ring of live fibers
  bool deadlocked = false;
#ifdef HYADES_FIBER_ASAN
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* fake_stack = nullptr;
#endif
#ifdef HYADES_FIBER_TSAN
  void* tsan = nullptr;
#endif
};

struct Scheduler {
  const std::function<void(std::size_t)>* body = nullptr;
  std::unique_ptr<Fiber[]> fibers;
  Fiber home;                // the caller of run_fibers
  std::size_t current = 0;   // the running fiber
  std::size_t live = 0;      // fibers whose body has not returned
  // Parks in a row since a fiber started, returned, or found its wait's
  // predicate true.
  std::size_t idle = 0;
  Scheduler* outer = nullptr;  // the run this one nests in, if any
};

thread_local Scheduler* t_sched = nullptr;

// Switches from the running context `from` to `to`.  `from_done`: `from`
// never runs again.
void jump(Fiber& from, Fiber& to, [[maybe_unused]] bool from_done) {
  void* const eh = abi::__cxa_get_globals();
  std::memcpy(&from.eh, eh, sizeof(EhState));
  std::memcpy(eh, &to.eh, sizeof(EhState));
#ifdef HYADES_FIBER_TSAN
  __tsan_switch_to_fiber(to.tsan, 0);
#endif
#ifdef HYADES_FIBER_ASAN
  __sanitizer_start_switch_fiber(from_done ? nullptr : &from.fake_stack,
                                 to.stack_bottom, to.stack_size);
#endif
  hyades_fiber_switch(&from.sp, to.sp);
#ifdef HYADES_FIBER_ASAN
  __sanitizer_finish_switch_fiber(from.fake_stack, nullptr, nullptr);
#endif
}

// The body of fiber `self` has returned: unlink it from the ring and run
// the next live fiber, or return to the caller when none is left.
[[noreturn]] void retire(Scheduler& s, std::size_t self) {
  Fiber& me = s.fibers[self];
  s.idle = 0;
  Fiber* to = &s.home;
  if (--s.live > 0) {
    s.fibers[me.prev].next = me.next;
    s.fibers[me.next].prev = me.prev;
    s.current = me.next;
    to = &s.fibers[me.next];
  }
  jump(me, *to, true);
  std::abort();  // a retired fiber is never resumed
}

void fiber_main(Scheduler* s) noexcept {
#ifdef HYADES_FIBER_ASAN
  const void* bottom = nullptr;
  std::size_t size = 0;
  __sanitizer_finish_switch_fiber(nullptr, &bottom, &size);
  // Fiber 0 is entered from the caller first.
  if (s->home.stack_bottom == nullptr) {
    s->home.stack_bottom = bottom;
    s->home.stack_size = size;
  }
#endif
  const std::size_t self = s->current;
  s->idle = 0;
  (*s->body)(self);
  retire(*s, self);
}

// glibc's default for a new thread's stack (RLIMIT_STACK, as a rule).
std::size_t default_stack_size() {
  std::size_t size = 0;
  pthread_attr_t attr;
  if (pthread_getattr_default_np(&attr) == 0) {
    (void)pthread_attr_getstacksize(&attr, &size);
    (void)pthread_attr_destroy(&attr);
  }
  return size > 0 ? size : std::size_t{8} << 20;
}

// Maps fiber `f`'s stack and lays its first frame: entry(s).
void prepare(Fiber& f, Scheduler* s, std::size_t size, std::size_t page,
             std::uint64_t csr) {
  const std::size_t total = page + size;
  void* map = ::mmap(nullptr, total, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
  if (map == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(),
                            "run_fibers: cannot map a fiber stack");
  }
  f.map = static_cast<char*>(map);
  f.map_size = total;
  if (::mprotect(f.map, page, PROT_NONE) != 0) {
    throw std::system_error(errno, std::generic_category(),
                            "run_fibers: cannot protect a guard page");
  }
  const std::uint64_t frame[8] = {
      csr,
      0,                                                  // r15
      0,                                                  // r14
      reinterpret_cast<std::uintptr_t>(&fiber_main),      // r13
      reinterpret_cast<std::uintptr_t>(s),                // r12
      0,                                                  // rbx
      0,                                                  // rbp
      reinterpret_cast<std::uintptr_t>(&hyades_fiber_start)};  // return
  char* const sp = f.map + total - 16 - sizeof frame;
  std::memcpy(sp, frame, sizeof frame);
  f.sp = sp;
#ifdef HYADES_FIBER_ASAN
  f.stack_bottom = f.map + page;
  f.stack_size = size;
#endif
#ifdef HYADES_FIBER_TSAN
  f.tsan = __tsan_create_fiber(0);
#endif
}

}  // namespace

void run_fibers(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  Scheduler s;
  s.body = &body;
  s.fibers = std::make_unique<Fiber[]>(n);
  s.live = n;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t size = (default_stack_size() + page - 1) / page * page;
  // Fibers start with the caller's floating-point modes.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpucw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpucw));
  const std::uint64_t csr = mxcsr | std::uint64_t{fpucw} << 32;
  for (std::size_t i = 0; i < n; ++i) {
    prepare(s.fibers[i], &s, size, page, csr);
    s.fibers[i].prev = (i + n - 1) % n;
    s.fibers[i].next = (i + 1) % n;
  }
#ifdef HYADES_FIBER_TSAN
  s.home.tsan = __tsan_get_current_fiber();
#endif
  s.outer = t_sched;
  t_sched = &s;
  s.current = 0;
  jump(s.home, s.fibers[0], false);
  t_sched = s.outer;
}

std::size_t fiber_index() { return t_sched->current; }

namespace detail {

bool park_fiber() {
  Scheduler& s = *t_sched;
  const std::size_t self = s.current;
  Fiber& me = s.fibers[self];
  if (++s.idle >= s.live) {
    // Every live fiber has parked in turn, this one last, and none has
    // found its predicate true: all of them wait for good.
    for (std::size_t f = me.next; f != self; f = s.fibers[f].next) {
      s.fibers[f].deadlocked = true;
    }
    s.idle = 0;
    return false;
  }
  s.current = me.next;
  jump(me, s.fibers[me.next], false);
  if (me.deadlocked) {
    me.deadlocked = false;
    return false;
  }
  return true;
}

void fiber_progressed() { t_sched->idle = 0; }

}  // namespace detail

}  // namespace hyades::support

#else  // fibers need the x86-64 switch above; callers keep threads

namespace hyades::support {

void run_fibers(std::size_t, const std::function<void(std::size_t)>&) {
  throw std::logic_error("run_fibers: fibers need x86-64");
}

std::size_t fiber_index() { return 0; }

namespace detail {
bool park_fiber() { return false; }
void fiber_progressed() {}
}  // namespace detail

}  // namespace hyades::support

#endif
