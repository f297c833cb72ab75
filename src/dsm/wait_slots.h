// Wait slots: the per-thread events faulting threads block on while their
// request is serviced (the paper's pmsg->event). POSIX semaphores are used
// because sem_wait/sem_post are async-signal-safe, and the faulting thread
// waits from inside the SIGSEGV handler.
//
// Poll before park: a wait that is a few hops from its reply (a fault's data
// reply, a lock grant, an allocation) passes WaitFor a poll window
// (kPollWindowUs, src/common/poll_window.h) and checks for a posted token with
// sem_trywait, yielding between checks, before it parks on the semaphore — so
// a reply that lands within the window is taken without a futex wake. The
// loop calls only sem_trywait, clock_gettime and sched_yield. Barrier waits,
// and every wait on a simulator-pumped node, park at once (DESIGN.md §13).
// Post stamps each reply when metrics are on, and the waiter records the
// Post-to-return time in the handoff histogram (dsm.reply_handoff_ns).
//
// Liveness layer: WaitFor bounds every wait with a deadline (sem_clockwait
// on CLOCK_MONOTONIC: the same futex wait as sem_timedwait, so still
// async-signal-safe, and immune to wall-clock steps), and AbortAll wakes
// every current and future waiter with a sticky error — the peer-down path
// that turns "hang at the next barrier" into a prompt Status::Unavailable.
//
// The wire `seq` field carries more than the slot: the low byte is the slot
// index and the high 24 bits a per-operation generation. A requester that
// times out and retries (or abandons) an operation bumps the generation, so
// a late reply to the old attempt is recognizably stale instead of being
// mistaken for the new attempt's reply.

#ifndef SRC_DSM_WAIT_SLOTS_H_
#define SRC_DSM_WAIT_SLOTS_H_

#include <semaphore.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>

#include "src/common/logging.h"
#include "src/common/metrics.h"
#include "src/common/poll_window.h"
#include "src/common/status.h"
#include "src/common/time_util.h"
#include "src/net/message.h"

namespace millipage {

// One entry of a thread's wait-slot cache: the calling thread's slot on the
// node whose WaitSlots has id `uid`. `syncs` is the owner's per-thread count
// (DsmNode counts Barrier/Lock/Unlock calls there, for the write-intent
// prediction); it shares a cache line with the uid every lookup reads, so
// counting touches nothing else (DESIGN.md §14).
struct ThreadSlotEntry {
  uint64_t uid = 0;
  uint32_t slot = 0;
  uint32_t syncs = 0;
};

// Per-thread (node -> wait slot) cache. A thread may talk to several nodes
// in one process (the in-process cluster), so the cache is a tiny map.
// Entries are keyed by a process-unique id, not the pointer: a node at a
// recycled address must not inherit a dead node's slot. A long-lived thread
// (a test's main thread running RunOnManager on every cluster it creates)
// can touch more nodes than fit, so a full cache recycles entries
// round-robin instead of failing; returning to an evicted node just acquires
// a fresh slot there.
struct ThreadSlotCache {
  static constexpr int kMax = 16;
  ThreadSlotEntry e[kMax] = {};
  int n = 0;
  int next_evict = 0;
};
inline constinit thread_local ThreadSlotCache tls_thread_slots;

class WaitSlots {
 public:
  static constexpr uint32_t kMaxSlots = 64;

  // seq wire encoding: low byte slot, high 24 bits generation (mod 2^24).
  static uint32_t MakeSeq(uint32_t slot, uint32_t gen) {
    return ((gen & 0xffffffu) << 8) | (slot & 0xffu);
  }
  static uint32_t SeqSlot(uint32_t seq) { return seq & 0xffu; }
  static uint32_t SeqGen(uint32_t seq) { return seq >> 8; }

  WaitSlots() {
    for (auto& s : slots_) {
      MP_CHECK(sem_init(&s.sem, 0, 0) == 0);
    }
  }
  ~WaitSlots() {
    for (auto& s : slots_) {
      sem_destroy(&s.sem);
    }
  }

  WaitSlots(const WaitSlots&) = delete;
  WaitSlots& operator=(const WaitSlots&) = delete;

  // Reserves a slot for a thread's lifetime.
  uint32_t Acquire() {
    const uint32_t id = next_.fetch_add(1, std::memory_order_relaxed);
    MP_CHECK(id < kMaxSlots) << "too many threads per host";
    return id;
  }

  // The calling thread's cache entry for these slots, acquiring its slot on
  // first use.
  ThreadSlotEntry& ThreadEntry() {
    ThreadSlotCache& c = tls_thread_slots;
    for (int i = 0; i < c.n; ++i) {
      if (c.e[i].uid == uid_) {
        return c.e[i];
      }
    }
    int i;
    if (c.n < ThreadSlotCache::kMax) {
      i = c.n++;
    } else {
      i = c.next_evict;
      c.next_evict = (c.next_evict + 1) % ThreadSlotCache::kMax;
    }
    c.e[i] = ThreadSlotEntry{uid_, Acquire(), 0};
    return c.e[i];
  }

  // Blocks until a reply for `slot` arrives; returns the oldest undelivered
  // reply. Replies queue per slot, so split transactions (several requests
  // outstanding on one slot, e.g. a composed-view group fetch) deliver every
  // reply exactly once, in arrival order. Unbounded wait; fatal if the slots
  // are aborted while waiting — deadline-aware callers use WaitFor.
  MsgHeader Wait(uint32_t slot) {
    Result<MsgHeader> r = WaitFor(slot, 0);
    MP_CHECK(r.ok()) << "WaitSlots::Wait: " << r.status().ToString();
    return *r;
  }

  // Returns the oldest undelivered reply for `slot`, waiting at most
  // `timeout_ms` (0 = wait forever). Queued replies are always delivered
  // before an abort is reported. With `poll_us` > 0 the wait first polls for
  // a posted token for up to that long (never past the deadline) and parks
  // only once the window has expired; replies, kicks and abort tokens all end
  // the poll. Errors:
  //   kDeadlineExceeded — no reply within the budget;
  //   the AbortAll status (default kUnavailable) — slots are aborted.
  Result<MsgHeader> WaitFor(uint32_t slot, uint64_t timeout_ms, uint64_t poll_us = 0) {
    MP_CHECK(slot < kMaxSlots);
    Slot& s = slots_[slot];
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.in_wait = true;
    }
    const uint64_t start_ns = MonotonicNowNs();
    const uint64_t deadline_ns = timeout_ms > 0 ? start_ns + timeout_ms * 1000000 : 0;
    struct timespec abs_deadline;
    abs_deadline.tv_sec = static_cast<time_t>(deadline_ns / 1000000000);
    abs_deadline.tv_nsec = static_cast<long>(deadline_ns % 1000000000);
    // 0 once the poll window is spent (or there is none): park from then on.
    uint64_t poll_until_ns = poll_us > 0 ? start_ns + poll_us * 1000 : 0;
    if (timeout_ms > 0) {
      poll_until_ns = std::min(poll_until_ns, deadline_ns);
    }
    const auto take_token = [&s] { return sem_trywait(&s.sem) == 0; };
    for (;;) {
      // Take one token: already posted, posted within the poll window, or
      // posted while parked.
      if (!take_token()) {
        if (aborted_.load(std::memory_order_acquire)) {
          return LeaveWait(s, abort_status());
        }
        const bool polled = poll_until_ns != 0 && PollUntil(poll_until_ns, take_token);
        poll_until_ns = 0;
        if (!polled) {
          const int rc = timeout_ms > 0 ? sem_clockwait(&s.sem, CLOCK_MONOTONIC, &abs_deadline)
                                        : sem_wait(&s.sem);
          if (rc != 0) {
            if (errno == EINTR) {
              continue;
            }
            if (errno == ETIMEDOUT) {
              if (aborted_.load(std::memory_order_acquire)) {
                return LeaveWait(s, abort_status());
              }
              return LeaveWait(
                  s, Status::DeadlineExceeded("no reply on wait slot " + std::to_string(slot) +
                                              " within " + std::to_string(timeout_ms) + " ms"));
            }
            return LeaveWait(s, Status::Errno("sem_wait"));
          }
        }
      }
      {
        std::lock_guard<std::mutex> lock(s.mu);
        if (!s.replies.empty()) {
          const Posted p = s.replies.front();
          s.replies.pop_front();
          // Cleared in the same critical section as the pop, so an observer
          // never sees "in wait, no reply queued" for a thread that in fact
          // holds its reply and is running. A real reply supersedes a
          // pending kick: the thread is making progress.
          s.in_wait = false;
          s.has_kick = false;
          if (p.posted_ns != 0) {
            handoff_->RecordAlways(MonotonicNowNs() - p.posted_ns);
          }
          return p.reply;
        }
        if (s.has_kick) {
          s.has_kick = false;
          s.in_wait = false;
          return s.kicked;
        }
      }
      // Token without a reply: an abort wake-up — the loop re-checks aborted_.
    }
  }

  // Deposits a reply and wakes the waiter. With a handoff histogram set and
  // metrics on, the waiter records how long after this call it took the
  // reply.
  void Post(uint32_t slot, const MsgHeader& reply) {
    MP_CHECK(slot < kMaxSlots);
    Slot& s = slots_[slot];
    const uint64_t posted_ns = handoff_ != nullptr && MetricsEnabled() ? MonotonicNowNs() : 0;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      s.replies.push_back(Posted{reply, posted_ns});
    }
    sem_post(&s.sem);
  }

  // Where WaitFor records the Post-to-return time of each reply (see Post).
  // Set before any Post; null (the default) records nothing.
  void set_handoff_histogram(Histogram* h) { handoff_ = h; }

  // Wakes every current waiter and fails every future wait with `status`
  // (sticky). Queued replies are still drained first. Used by the peer-down
  // path; also async-signal-unsafe-free apart from the small mutex.
  void AbortAll(Status status) {
    {
      std::lock_guard<std::mutex> lock(abort_mu_);
      if (aborted_.load(std::memory_order_acquire)) {
        return;  // first reason wins
      }
      abort_status_ = std::move(status);
    }
    aborted_.store(true, std::memory_order_release);
    for (auto& s : slots_) {
      sem_post(&s.sem);  // reply-less token: wakes a waiter into the abort path
    }
  }

  bool aborted() const { return aborted_.load(std::memory_order_acquire); }

  // Wakes every *currently parked* waiter once with `status` (one-shot, not
  // sticky): that waiter's WaitFor returns `status`; threads not parked and
  // all future waits are unaffected. The recovery path fires this after a
  // membership epoch bump so threads waiting on a reply that will never come
  // (the peer died, or the owning shard moved) re-send against the new
  // membership immediately instead of waiting out their full timeout.
  void KickAll(Status status) {
    for (auto& s : slots_) {
      bool parked;
      {
        std::lock_guard<std::mutex> lock(s.mu);
        parked = s.in_wait && s.replies.empty();
        if (parked) {
          s.kicked = status;
          s.has_kick = true;
        }
      }
      if (parked) {
        sem_post(&s.sem);
      }
    }
  }

  // True while the thread owning `slot` is parked inside WaitFor with no
  // reply queued, no kick pending, and no abort pending — i.e. it cannot
  // make progress until the next Post. The deterministic simulator's
  // quiescence predicate; sound because in_wait is cleared in the same
  // critical section that pops a reply, so a running thread is never
  // reported blocked. A pending kick counts as progress: the wake token is
  // already posted, the thread just hasn't been scheduled yet — reporting it
  // blocked would let the simulator declare a deadlock in the window between
  // KickAll and the woken thread's re-send.
  bool WaiterBlocked(uint32_t slot) const {
    MP_CHECK(slot < kMaxSlots);
    const Slot& s = slots_[slot];
    std::lock_guard<std::mutex> lock(s.mu);
    return s.in_wait && s.replies.empty() && !s.has_kick &&
           !aborted_.load(std::memory_order_acquire);
  }

  Status abort_status() const {
    std::lock_guard<std::mutex> lock(abort_mu_);
    return abort_status_;
  }

 private:
  struct Posted {
    MsgHeader reply;
    uint64_t posted_ns;  // MonotonicNowNs at Post; 0 when not timed
  };
  struct Slot {
    sem_t sem;
    mutable std::mutex mu;
    std::deque<Posted> replies;
    bool in_wait = false;   // guarded by mu
    bool has_kick = false;  // guarded by mu; one-shot KickAll wake pending
    Status kicked;          // guarded by mu; status that wake reports
  };

  // Clears in_wait on a non-reply exit from WaitFor.
  static Status LeaveWait(Slot& s, Status status) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.in_wait = false;
    return status;
  }

  // Process-unique id keying the per-thread caches (never reused, so slots
  // at a dead node's address are never mistaken for its).
  static inline std::atomic<uint64_t> next_uid_{1};
  const uint64_t uid_ = next_uid_.fetch_add(1, std::memory_order_relaxed);
  Slot slots_[kMaxSlots];
  Histogram* handoff_ = nullptr;
  std::atomic<uint32_t> next_{0};
  std::atomic<bool> aborted_{false};
  mutable std::mutex abort_mu_;
  Status abort_status_;
};

}  // namespace millipage

#endif  // SRC_DSM_WAIT_SLOTS_H_
