// Poll before park: the one window every short wait in the runtime shares.
//
// A wait that is a protocol hop or two from its wakeup checks for it on-CPU
// for up to kPollWindowUs, yielding between checks, and parks only once the
// window has expired. The wakeup then finds its thread still running instead
// of behind a futex wake and a halted vCPU (the paper's poller busy-loops,
// Section 3.5.1). Two waits use it: the in-process transport's receive wait
// (InProcTransport::Poll) and the requester's reply wait (WaitSlots::WaitFor).
// DESIGN.md §13 has the measurements behind 100 µs.

#ifndef SRC_COMMON_POLL_WINDOW_H_
#define SRC_COMMON_POLL_WINDOW_H_

#include <sched.h>

#include <cstdint>

#include "src/common/time_util.h"

namespace millipage {

// How long a waiter polls before it parks. It must cover the longest gap
// between two deliveries inside one operation (an invalidation round, a
// barrier's arrivals), which host steal stretches; a window that closes just
// before the wakeup costs both the spin and the wake.
inline constexpr uint64_t kPollWindowUs = 100;

// Calls ready() until it returns true or MonotonicNowNs() reaches until_ns,
// with sched_yield() between calls so a thread on the same vCPU with work
// still runs. Returns ready()'s last result. Calls only clock_gettime and
// sched_yield besides ready(), so it is usable from a signal handler when
// ready() is.
template <typename Ready>
bool PollUntil(uint64_t until_ns, Ready ready) {
  for (;;) {
    if (ready()) {
      return true;
    }
    if (MonotonicNowNs() >= until_ns) {
      return false;
    }
    sched_yield();
  }
}

}  // namespace millipage

#endif  // SRC_COMMON_POLL_WINDOW_H_
