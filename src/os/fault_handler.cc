#include "src/os/fault_handler.h"

#include <errno.h>
#include <fcntl.h>
#include <linux/userfaultfd.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <ucontext.h>
#include <unistd.h>

#include <mutex>

#include "src/os/page.h"

namespace millipage {

namespace {

// Decodes whether the faulting access was a write. On x86-64 the page-fault
// error code is in REG_ERR; bit 1 is the W bit.
bool FaultWasWrite(void* ucontext_raw) {
#if defined(__x86_64__)
  const auto* uc = static_cast<ucontext_t*>(ucontext_raw);
  return (uc->uc_mcontext.gregs[REG_ERR] & 0x2) != 0;
#else
  (void)ucontext_raw;
  // Conservative fallback: treat every fault as a write (requests an
  // exclusive copy; correct but may over-invalidate).
  return true;
#endif
}

uintptr_t FaultPc(void* ucontext_raw) {
#if defined(__x86_64__)
  const auto* uc = static_cast<ucontext_t*>(ucontext_raw);
  return static_cast<uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#else
  (void)ucontext_raw;
  return 0;
#endif
}

// The userfaultfd features the DSM backend needs: missing and minor faults on
// shmem (our "NoAccess" is an absent pte over a page-cache page or hole),
// write-protect faults on shmem-backed VMAs, and delivery of every fault as
// SIGBUS on the faulting thread instead of as a queued message.
constexpr uint64_t kRequiredUffdFeatures =
    UFFD_FEATURE_MISSING_SHMEM | UFFD_FEATURE_MINOR_SHMEM | UFFD_FEATURE_PAGEFAULT_FLAG_WP |
    UFFD_FEATURE_WP_HUGETLBFS_SHMEM | UFFD_FEATURE_SIGBUS;

// Installs the pte write-protected in the same ioctl (Linux 6.3+); older
// headers lack the constant, and older kernels reject the mode (probed at
// bring-up).
#ifndef UFFDIO_CONTINUE_MODE_WP
#define UFFDIO_CONTINUE_MODE_WP ((__u64)1 << 1)
#endif

}  // namespace

const char* FaultBackendName(FaultBackend backend) {
  return backend == FaultBackend::kUserfaultfd ? "userfaultfd" : "sigsegv";
}

FaultBackend FaultBackendFromEnv() {
  const char* env = getenv("MILLIPAGE_FAULT_BACKEND");
  if (env != nullptr && strcmp(env, "sigsegv") == 0) {
    return FaultBackend::kSigsegv;
  }
  return FaultBackend::kUserfaultfd;
}

FaultHandler& FaultHandler::Instance() {
  static FaultHandler* instance = new FaultHandler();
  return *instance;
}

Status FaultHandler::InstallSigaction() {
  static std::once_flag once;
  Status result = Status::Ok();
  std::call_once(once, [&result, this] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    dispatched_metric_ = reg.GetCounter("fault.dispatched");
    decode_ns_ = reg.GetHistogram("fault.decode_ns");
    service_ns_ = reg.GetHistogram("fault.service_ns");
    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = reinterpret_cast<void (*)(int, siginfo_t*, void*)>(&SignalEntry);
    // SA_NODEFER: a fault raised while the handler runs is delivered to the
    // handler again (instead of the kernel force-killing the process with
    // the signal blocked), which lets the depth guard in SignalEntry report
    // nested faults before dying.
    sa.sa_flags = SA_SIGINFO | SA_RESTART | SA_NODEFER;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGSEGV, &sa, nullptr) != 0 || sigaction(SIGBUS, &sa, nullptr) != 0) {
      result = Status::Errno("sigaction");
      return;
    }
    installed_.store(true, std::memory_order_release);
  });
  if (!result.ok()) {
    return result;
  }
  if (!installed_.load(std::memory_order_acquire)) {
    return Status::Internal("fault handler failed to install earlier");
  }
  return Status::Ok();
}

Status FaultHandler::Install(FaultBackend requested) {
  // The SIGSEGV/SIGBUS handler is installed in both modes: it receives the
  // userfaultfd backend's SIGBUS faults, and covers mprotect'd anonymous
  // mappings, wild accesses, and every view created while the sigsegv
  // backend was (or becomes) active.
  MP_RETURN_IF_ERROR(InstallSigaction());
  if (requested == FaultBackend::kUserfaultfd && EnsureUffd().ok()) {
    active_backend_.store(FaultBackend::kUserfaultfd, std::memory_order_release);
  } else {
    // Runtime fallback: the caller asked for uffd but this kernel lacks a
    // required feature (or the caller asked for sigsegv). Either way the
    // sigsegv backend serves every subsequent view registration.
    active_backend_.store(FaultBackend::kSigsegv, std::memory_order_release);
  }
  return Status::Ok();
}

bool FaultHandler::UffdSupported() { return EnsureUffd().ok(); }

bool FaultHandler::ContinueWpSupported(int uffd, void* page) {
  struct uffdio_continue cont;
  memset(&cont, 0, sizeof(cont));
  cont.range.start = reinterpret_cast<unsigned long>(page);
  cont.range.len = PageSize();
  cont.mode = UFFDIO_CONTINUE_MODE_WP;
  return ioctl(uffd, UFFDIO_CONTINUE, &cont) != 0 && errno == ENOENT;
}

Status FaultHandler::EnsureUffd() {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  const int state = uffd_state_.load(std::memory_order_acquire);
  const pid_t pid = getpid();
  if (state > 0 && uffd_pid_ == pid) {
    return Status::Ok();
  }
  if (state < 0) {
    return Status::Unavailable("userfaultfd backend unavailable on this kernel");
  }
  if (state > 0) {
    // Inherited across fork: the descriptor still operates on the parent's
    // address space. Drop this process's reference and open its own.
    close(uffd_fd_);
    uffd_fd_ = -1;
  }
  // UFFD_USER_MODE_ONLY first (works unprivileged when
  // vm.unprivileged_userfaultfd=0); kernel-fault delivery is not needed.
  int fd = static_cast<int>(syscall(SYS_userfaultfd, O_CLOEXEC | UFFD_USER_MODE_ONLY));
  if (fd < 0) {
    fd = static_cast<int>(syscall(SYS_userfaultfd, O_CLOEXEC));
  }
  Status failed = Status::Ok();
  if (fd < 0) {
    failed = Status::Errno("userfaultfd");
  } else {
    struct uffdio_api api;
    memset(&api, 0, sizeof(api));
    api.api = UFFD_API;
    api.features = kRequiredUffdFeatures;
    if (ioctl(fd, UFFDIO_API, &api) != 0) {
      failed = Status::Errno("UFFDIO_API");
    } else if ((api.features & kRequiredUffdFeatures) != kRequiredUffdFeatures) {
      failed = Status::Unavailable("kernel lacks UFFD missing/minor/WP shmem or SIGBUS");
    } else {
      // Probe on a page of our own: it lies above vm.mmap_min_addr (below
      // it every kernel answers EINVAL, mode or not), and no other thread
      // can map over it while the probe runs.
      void* page = mmap(nullptr, PageSize(), PROT_NONE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
      if (page == MAP_FAILED) {
        failed = Status::Errno("mmap(uffd probe page)");
      } else {
        if (!ContinueWpSupported(fd, page)) {
          failed = Status::Unavailable("kernel lacks UFFDIO_CONTINUE_MODE_WP");
        }
        munmap(page, PageSize());
      }
    }
  }
  if (!failed.ok()) {
    if (fd >= 0) {
      close(fd);
    }
    uffd_state_.store(-1, std::memory_order_release);
    return failed;
  }
  uffd_fd_ = fd;
  uffd_pid_ = pid;
  uffd_state_.store(1, std::memory_order_release);
  return Status::Ok();
}

int FaultHandler::Register(FaultCallback cb, void* ctx) {
  for (int i = 0; i < kMaxSlots; ++i) {
    FaultCallback expected = nullptr;
    if (slots_[i].cb.compare_exchange_strong(expected, cb, std::memory_order_acq_rel)) {
      slots_[i].ctx.store(ctx, std::memory_order_release);
      return i;
    }
  }
  return -1;
}

void FaultHandler::Unregister(int slot) {
  if (slot >= 0 && slot < kMaxSlots) {
    slots_[slot].cb.store(nullptr, std::memory_order_release);
    slots_[slot].ctx.store(nullptr, std::memory_order_release);
  }
}

// ---- userfaultfd range operations ------------------------------------------

Status FaultHandler::UffdRegisterRange(void* base, size_t len) {
  // Re-checks the owning process: a view registered through a descriptor
  // inherited across fork would land in the parent's address space.
  if (!EnsureUffd().ok()) {
    return Status::Internal("uffd backend not installed");
  }
  struct uffdio_register reg;
  memset(&reg, 0, sizeof(reg));
  reg.range.start = reinterpret_cast<unsigned long>(base);
  reg.range.len = len;
  reg.mode = UFFDIO_REGISTER_MODE_MISSING | UFFDIO_REGISTER_MODE_MINOR |
             UFFDIO_REGISTER_MODE_WP;
  if (ioctl(uffd_fd_, UFFDIO_REGISTER, &reg) != 0) {
    return Status::Errno("UFFDIO_REGISTER");
  }
  return Status::Ok();
}

Status FaultHandler::UffdZapRange(void* base, size_t len) {
  if (uffd_state_.load(std::memory_order_acquire) <= 0) {
    return Status::Internal("uffd backend not installed");
  }
  // MADV_DONTNEED on a MAP_SHARED view drops only this mapping's ptes; the
  // shmem pages (and the privileged view) are untouched.
  if (madvise(base, len, MADV_DONTNEED) != 0) {
    return Status::Errno("madvise(MADV_DONTNEED)");
  }
  return Status::Ok();
}

Status FaultHandler::UffdContinue(void* base, size_t len, bool write_protect, size_t* mapped) {
  *mapped = 0;
  if (uffd_state_.load(std::memory_order_acquire) <= 0) {
    return Status::Internal("uffd backend not installed");
  }
  const uintptr_t start = reinterpret_cast<uintptr_t>(base);
  for (;;) {
    struct uffdio_continue cont;
    memset(&cont, 0, sizeof(cont));
    cont.range.start = start + *mapped;
    cont.range.len = len - *mapped;
    // MODE_WP installs the pte read-only in the same step, so a thread
    // spinning on the page never sees a writable window.
    cont.mode = write_protect ? UFFDIO_CONTINUE_MODE_WP : 0;
    if (ioctl(uffd_fd_, UFFDIO_CONTINUE, &cont) == 0) {
      *mapped = len;
      return Status::Ok();
    }
    const int err = errno;
    if (cont.mapped > 0) {
      *mapped += static_cast<size_t>(cont.mapped);
    }
    switch (err) {
      case EAGAIN:  // raced an mmap change; the rest of the range retries
        continue;
      case EFAULT:
        return Status::NotFound("UFFDIO_CONTINUE: page-cache hole");
      case EEXIST:
        return Status(StatusCode::kAlreadyExists, "UFFDIO_CONTINUE: pte present");
      default:
        errno = err;
        return Status::Errno("UFFDIO_CONTINUE");
    }
  }
}

Status FaultHandler::UffdWriteProtect(void* base, size_t len, bool write_protect) {
  if (uffd_state_.load(std::memory_order_acquire) <= 0) {
    return Status::Internal("uffd backend not installed");
  }
  struct uffdio_writeprotect wp;
  memset(&wp, 0, sizeof(wp));
  wp.range.start = reinterpret_cast<unsigned long>(base);
  wp.range.len = len;
  wp.mode = write_protect ? UFFDIO_WRITEPROTECT_MODE_WP : 0;
  if (ioctl(uffd_fd_, UFFDIO_WRITEPROTECT, &wp) != 0) {
    return Status::Errno("UFFDIO_WRITEPROTECT");
  }
  return Status::Ok();
}

namespace {

// Recursion depth of fault service on this thread. The whole protocol
// legitimately runs at depth 1 (inside the SIGSEGV/SIGBUS handler); a fault
// raised at depth >= 1 means the handler itself faulted and must not be
// dispatched again.
thread_local int tls_fault_depth = 0;
// The faulting pc while this thread's callbacks run (FaultingPc()).
thread_local uintptr_t tls_fault_pc = 0;

// Async-signal-safe report before the process dies. `msg` names the class
// of failure ("unhandled fault" / "nested fault").
void ReportFatalFault(const char* msg, void* addr, bool is_write) {
  char buf[96];
  char* p = buf;
  const char* prefix = "[millipage] ";
  while (*prefix != '\0') {
    *p++ = *prefix++;
  }
  while (*msg != '\0') {
    *p++ = *msg++;
  }
  *p++ = is_write ? 'W' : 'R';
  const char* at = ") at 0x";
  while (*at != '\0') {
    *p++ = *at++;
  }
  const auto a = reinterpret_cast<uintptr_t>(addr);
  for (int shift = 60; shift >= 0; shift -= 4) {
    *p++ = "0123456789abcdef"[(a >> shift) & 0xf];
  }
  *p++ = '\n';
  (void)!write(2, buf, static_cast<size_t>(p - buf));
}

}  // namespace

void FaultHandler::SignalEntry(int signo, void* info_raw, void* ucontext) {
  FaultHandler& fh = Instance();
  // clock_gettime is on the vDSO fast path and the histogram updates are
  // relaxed atomics, so timing at signal depth is safe; when metrics are off
  // the handler pays one load and a branch.
  const bool timed = MetricsEnabled() && fh.service_ns_ != nullptr;
  const uint64_t t0 = timed ? MonotonicNowNs() : 0;
  auto* info = static_cast<siginfo_t*>(info_raw);
  void* addr = info->si_addr;
  const bool is_write = FaultWasWrite(ucontext);
  if (timed) {
    fh.decode_ns_->RecordAlways(MonotonicNowNs() - t0);
  }
  if (tls_fault_depth >= 1) {
    // The handler (or protocol code it called) faulted while already
    // servicing a fault on this thread. Dispatching again could recurse
    // forever; reject it and die with a diagnostic instead.
    ReportFatalFault("nested fault in handler (", addr, is_write);
    signal(signo, SIG_DFL);
    raise(signo);
    return;
  }
  tls_fault_depth++;
  tls_fault_pc = FaultPc(ucontext);
  const bool handled = fh.Dispatch(addr, is_write);
  tls_fault_pc = 0;
  tls_fault_depth--;
  if (handled) {
    if (timed) {
      fh.service_ns_->RecordAlways(MonotonicNowNs() - t0);
    }
    return;  // protection was upgraded; the faulting instruction retries
  }
  // Not ours: restore the default disposition and re-raise so the process
  // dies with the usual SIGSEGV semantics (core dump, correct si_addr).
  ReportFatalFault("unhandled fault (", addr, is_write);
  signal(signo, SIG_DFL);
  raise(signo);
}

uintptr_t FaultHandler::FaultingPc() { return tls_fault_pc; }

bool FaultHandler::Dispatch(void* fault_addr, bool is_write) {
  faults_dispatched_.fetch_add(1, std::memory_order_relaxed);
  if (dispatched_metric_ != nullptr) {
    dispatched_metric_->Inc();
  }
  for (Slot& slot : slots_) {
    FaultCallback cb = slot.cb.load(std::memory_order_acquire);
    if (cb == nullptr) {
      continue;
    }
    void* ctx = slot.ctx.load(std::memory_order_acquire);
    if (cb(ctx, fault_addr, is_write)) {
      return true;
    }
  }
  return false;
}

}  // namespace millipage
