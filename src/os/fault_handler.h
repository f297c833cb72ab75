// Process-wide fault dispatcher — the POSIX analog of the structured
// exception handler millipage installs on Windows NT.
//
// The DSM runtime registers a callback; when an application thread touches a
// protected vpage, the callback runs the full request/reply protocol,
// upgrades the protection, and returns true so the faulting access is
// retried. Unhandled faults fall through to the default disposition (crash
// with a core), so genuine wild accesses still fail fast.
//
// Two backends share the callback registry, and both run the protocol on the
// faulting thread, inside the signal frame:
//
//   kUserfaultfd  the default. userfaultfd(2) in MISSING+MINOR+WP mode on the
//                 shared memory object, with UFFD_FEATURE_SIGBUS: the kernel
//                 raises SIGBUS on the faulting thread instead of queueing a
//                 message, carrying the byte-exact address and the x86 W bit
//                 just as SIGSEGV does. Views stay PROT_READ|PROT_WRITE;
//                 "NoAccess" is an absent pte, "ReadOnly" a write-protected
//                 one. These pte operations take the mmap lock shared and
//                 never split a VMA, so hosts of one process change
//                 protections concurrently instead of queueing on the lock.
//   kSigsegv      the runtime fallback for kernels without the features:
//                 views are mprotect'd and faults arrive as SIGSEGV.
//
// The backend is a process-wide *mode* for new view registrations, not an
// either/or: the SIGSEGV/SIGBUS handler is always installed (it also covers
// mprotect'd anonymous mappings and use-after-unmap). Install() falls back to
// kSigsegv at runtime when the kernel lacks any required feature.

#ifndef SRC_OS_FAULT_HANDLER_H_
#define SRC_OS_FAULT_HANDLER_H_

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/common/metrics.h"
#include "src/common/status.h"

namespace millipage {

// Returns true if the fault was resolved and the access should be retried.
using FaultCallback = bool (*)(void* ctx, void* fault_addr, bool is_write);

// Fault-delivery backend for application views (DsmConfig::fault_backend).
enum class FaultBackend : uint8_t {
  kSigsegv = 0,      // mprotect + SIGSEGV (always available)
  kUserfaultfd = 1,  // userfaultfd pte ops + SIGBUS (needs kernel support; else falls back)
};

const char* FaultBackendName(FaultBackend backend);

// Backend requested by the MILLIPAGE_FAULT_BACKEND environment variable
// ("sigsegv" selects the mprotect fallback; anything else, including unset,
// is the kUserfaultfd default). The CI backend matrix re-runs whole test
// suites with it set, mirroring MILLIPAGE_MANAGER_POLICY.
FaultBackend FaultBackendFromEnv();

class FaultHandler {
 public:
  static constexpr int kMaxSlots = 8;

  static FaultHandler& Instance();

  // Installs the SIGSEGV/SIGBUS sigaction (always) and, when `requested` is
  // kUserfaultfd, opens this process's userfaultfd on first use. Idempotent
  // and thread-safe; sets the active backend for view sets created
  // afterwards. Falls back to kSigsegv (and still returns Ok) when the kernel
  // lacks a required userfaultfd feature — check active_backend() to see
  // what actually took effect.
  Status Install(FaultBackend requested);

  // The backend new view registrations will use.
  FaultBackend active_backend() const {
    return active_backend_.load(std::memory_order_acquire);
  }

  // True if this kernel supports the userfaultfd backend (attempts the
  // one-time uffd bring-up if it hasn't happened yet).
  bool UffdSupported();

  // True if the userfaultfd `uffd` (past its UFFDIO_API handshake) accepts
  // UFFDIO_CONTINUE_MODE_WP (Linux 6.3+). `page` must be page-aligned, at or
  // above vm.mmap_min_addr, and covered by no VMA registered on `uffd`: a
  // kernel that knows the mode gets as far as the VMA lookup (ENOENT), an
  // older one rejects the mode first (EINVAL).
  static bool ContinueWpSupported(int uffd, void* page);

  // The faulting instruction's address (x86-64 REG_RIP) while a fault
  // callback runs on the calling thread; 0 outside one, and on platforms
  // where it is not decoded. The DSM keys its write-intent prediction on it.
  static uintptr_t FaultingPc();

  // Registers a callback; returns a slot id (>= 0), or -1 if full.
  int Register(FaultCallback cb, void* ctx);
  void Unregister(int slot);

  // ---- userfaultfd range operations (used by ViewSet in uffd mode) --------
  // All require a successful Install(kUserfaultfd); they return Internal
  // status otherwise. `base`/`len` must be page-aligned.

  // Registers [base, base+len) for MISSING+MINOR+WP faults, delivered as
  // SIGBUS. MISSING matters: without it a touch on a page-cache hole maps a
  // fresh zero page silently instead of faulting. munmap unregisters.
  Status UffdRegisterRange(void* base, size_t len);

  // "NoAccess": zaps the range's ptes so the next touch faults. The backing
  // page-cache pages (and hence the data) survive.
  Status UffdZapRange(void* base, size_t len);

  // NoAccess -> ReadOnly/ReadWrite: installs ptes for the absent range from
  // the page cache (UFFDIO_CONTINUE), write-protected in the same step when
  // `write_protect`. *mapped is set to the bytes installed before a failure.
  // Returns kNotFound at a page-cache hole (the caller populates it and
  // retries) and kAlreadyExists at an already-present pte.
  Status UffdContinue(void* base, size_t len, bool write_protect, size_t* mapped);

  // ReadOnly <-> ReadWrite: sets or clears the write-protect bit of the
  // range's present ptes.
  Status UffdWriteProtect(void* base, size_t len, bool write_protect);

  uint64_t faults_dispatched() const {
    return faults_dispatched_.load(std::memory_order_relaxed);
  }

  FaultHandler(const FaultHandler&) = delete;
  FaultHandler& operator=(const FaultHandler&) = delete;

 private:
  FaultHandler() = default;

  static void SignalEntry(int signo, void* info, void* ucontext);
  bool Dispatch(void* fault_addr, bool is_write);

  Status InstallSigaction();
  // One-time userfaultfd bring-up per process (fd + API handshake + the
  // CONTINUE_MODE_WP probe). Returns Ok if the uffd backend is usable.
  Status EnsureUffd();

  struct Slot {
    std::atomic<FaultCallback> cb{nullptr};
    std::atomic<void*> ctx{nullptr};
  };

  Slot slots_[kMaxSlots];
  std::atomic<bool> installed_{false};
  std::atomic<uint64_t> faults_dispatched_{0};
  std::atomic<FaultBackend> active_backend_{FaultBackend::kSigsegv};

  // uffd state: fixed after the bring-up attempt. A descriptor is bound to
  // the address space that opened it, so a forked child (getpid() !=
  // uffd_pid_) closes the inherited one and opens its own.
  std::atomic<int> uffd_state_{0};  // 0 = untried, 1 = available, -1 = unavailable
  int uffd_fd_ = -1;
  pid_t uffd_pid_ = 0;

  // Registered in Install() (before the sigaction goes live) so SignalEntry
  // only ever touches stable pointers — no registry locking in the handler.
  // Histogram updates are relaxed atomics, safe at signal depth.
  Counter* dispatched_metric_ = nullptr;   // fault.dispatched
  Histogram* decode_ns_ = nullptr;         // fault entry -> addr/W decode
  Histogram* service_ns_ = nullptr;        // fault entry -> fault resolved
};

}  // namespace millipage

#endif  // SRC_OS_FAULT_HANDLER_H_
