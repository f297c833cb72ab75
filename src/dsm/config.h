// Millipage runtime configuration.

#ifndef SRC_DSM_CONFIG_H_
#define SRC_DSM_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/common/host_set.h"
#include "src/common/status.h"
#include "src/multiview/allocator.h"
#include "src/net/message.h"
#include "src/net/transport_factory.h"
#include "src/os/fault_handler.h"

namespace millipage {

class TraceSink;

// Placement of per-id manager state (directory entries, lock queues, the
// barrier). Translation (MPT + allocator) always lives on kManagerHost: a
// faulting host cannot know a minipage id before translation, so requests
// take one extra header hop to the owning shard when the two differ.
enum class ManagerPolicy : uint8_t {
  kCentralized,  // everything on kManagerHost — bit-compatible with the
                 // original single-manager protocol
  kSharded,      // directory/lock/barrier state hashed across all hosts;
                 // a non-zero host's death is answered with recovery
                 // (membership epoch bump, shard failover, copyset repair)
                 // instead of the sticky whole-cluster abort
};

// Reserved id that places the (single, global) barrier under the same
// hash as minipages and locks, so it leaves host 0 in sharded mode.
inline constexpr uint32_t kBarrierShardId = 0xfffffffeu;

// How a host's DSM server thread waits for messages (Section 3.5.1). The
// paper's poller busy-loops at low priority and its sweeper wakes on a 1 ms
// multimedia timer; on a general-purpose kernel the in-process transport's
// receive wait is both: poll 100 µs, then park (kPollWindowUs in
// src/common/poll_window.h; the socket and io_uring meshes only park).
// kPeriodic reproduces the NT-timer ablation: the server only looks at the
// network every `period_us`.
enum class ServiceMode {
  kBlocking,  // poll briefly, then block on the transport with a short timeout (default)
  kPeriodic,  // poll, then sleep period_us (models coarse timers)
};

struct DsmConfig {
  uint16_t num_hosts = 2;
  size_t object_size = 16 << 20;  // shared memory object bytes
  uint32_t num_views = 8;         // application views (max minipages/page)

  uint32_t chunking_level = 1;    // Section 4.4 aggregation switch
  bool page_based = false;        // Ivy-style full-page baseline

  ManagerPolicy manager_policy = ManagerPolicy::kCentralized;

  // Owning manager shard for a minipage/lock id. Centralized: always host 0.
  // Sharded: static hash, the same placement rule the LRC variant uses for
  // minipage homes (id mod hosts).
  HostId ManagerOf(uint32_t id) const {
    return manager_policy == ManagerPolicy::kCentralized
               ? kManagerHost
               : static_cast<HostId>(id % num_hosts);
  }
  HostId BarrierManager() const { return ManagerOf(kBarrierShardId); }

  // Owning shard under a degraded membership: if the id's home hash lands on
  // a dead host, probe linearly to the next live one. Linear probing keeps
  // the reassignment minimal (only ids homed on dead hosts move) and every
  // host with the same live mask agrees on the answer — the property shard
  // failover relies on. Centralized deployments never rehash: losing host 0
  // loses the only directory (and the MPT), which is unrecoverable.
  HostId ManagerOfLive(uint32_t id, const HostSet& live) const {
    if (manager_policy == ManagerPolicy::kCentralized) {
      return kManagerHost;
    }
    HostId h = static_cast<HostId>(id % num_hosts);
    for (uint32_t probe = 0; probe < num_hosts; ++probe) {
      const HostId c = static_cast<HostId>((h + probe) % num_hosts);
      if (live.Contains(c)) {
        return c;
      }
    }
    return h;  // unreachable while at least one host lives
  }

  ServiceMode service_mode = ServiceMode::kBlocking;
  uint64_t service_period_us = 1000;  // used by kPeriodic

  // Coalesce coherence traffic (invalidations, invalidate replies, post-
  // service ACKs, group-fetch requests) into batched frames: one datagram
  // carries up to kMaxBatchRecords per-minipage records for the same
  // destination (see BatchRecord in src/net/message.h). Off reproduces the
  // one-datagram-per-minipage paper protocol exactly; single-record batches
  // are emitted unbatched either way, so the wire format only changes when
  // a frame actually carries more than one record. A batch is sent as soon
  // as the server's mailbox drains (the sim flushes on a self-addressed
  // kFlushHint instead), so it only ever folds records that were already
  // queued together and never holds one back waiting for more.
  bool batch_coherence = true;

  // Mesh transport backend for the multi-process mode
  // (src/net/transport_factory.h). kUring drives the same SEQPACKET mesh
  // through io_uring — multishot receive plus batched send submission — and
  // silently falls back to kSocket when the kernel lacks support. The
  // in-process and sim modes ignore it.
  TransportBackend transport_backend = TransportBackend::kSocket;

  // Fault-delivery backend for the application views (src/os/fault_handler.h).
  // kUserfaultfd replaces every mprotect with one pte operation that takes
  // the mmap lock shared and splits no VMA, so the hosts of one process stop
  // queueing behind each other's protection changes; faults still arrive as
  // a signal (SIGBUS) on the faulting thread. It silently falls back to
  // kSigsegv when the kernel lacks the userfaultfd features.
  FaultBackend fault_backend = FaultBackend::kUserfaultfd;

  // The paper's post-service ACK (Section 3.3) serializes every request per
  // minipage at the manager, which is what keeps the non-manager protocol
  // buffer- and state-free. Setting this to false elides the ACK for *read*
  // transactions (writes stay serialized): reads then race with writes, and
  // the runtime needs exactly the machinery the paper avoids — bounced
  // requests re-routed by the manager and in-flight fetches poisoned by
  // crossing invalidations and retried. Ablation knob; default on.
  bool enable_ack = true;

  // ---- Liveness / failure-detection policy -------------------------------
  // The paper assumes FastMessages never loses a message and no host dies;
  // these knobs bound every wait so a lost reply or dead peer turns into a
  // prompt error instead of an indefinite hang.
  //
  // Reply deadline for the first attempt of an idempotent fetch (fault
  // service, composed-view group fetch); later attempts back off from it
  // exponentially with seeded jitter (DsmNode::RetryTimeoutMs). 0 = no
  // deadline (paper-faithful optimism).
  uint64_t request_timeout_ms = 2000;
  // Resends of an idempotent fetch after a timeout before the operation
  // fails. Retries are safe for fetches: the manager re-routes them against
  // current directory state and stale replies are discarded by generation.
  uint32_t max_request_retries = 3;
  // Reply deadline for non-retryable operations (alloc, barrier enter, lock
  // acquire — none is idempotent, so they fail rather than resend). 0 = no
  // deadline. The default matches the process-cluster watchdog sweep.
  uint64_t sync_timeout_ms = 120000;

  // History recorder (src/common/trace.h). When non-null, the node and its
  // ViewSet append protocol events to this sink for the offline checker.
  // nullptr (default) disables recording entirely.
  TraceSink* trace = nullptr;

  AllocatorOptions MakeAllocatorOptions() const {
    AllocatorOptions o;
    o.chunking_level = chunking_level;
    o.page_based = page_based;
    return o;
  }

  // OK when num_hosts fits the wire's host ids and `me` is one of them: the
  // check every node type's Create runs first.
  Status CheckHost(HostId me) const {
    if (num_hosts == 0 || num_hosts > kMaxHosts) {
      return Status::Invalid("num_hosts must be in [1, " + std::to_string(kMaxHosts) +
                             "] (wire host ids are 10 bits)");
    }
    if (me >= num_hosts) {
      return Status::Invalid("host id out of range");
    }
    return Status::Ok();
  }
};

// The minipage a translated request or reply names. Non-manager hosts never
// consult an MPT (the "thin layer" property): everything needed to adjust
// protection travels in the header.
inline Minipage MinipageFromHeader(const MsgHeader& h) {
  Minipage mp;
  mp.id = h.minipage;
  mp.view = h.global_addr().view;
  mp.offset = h.privbase;
  mp.length = h.pgsize;
  return mp;
}

}  // namespace millipage

#endif  // SRC_DSM_CONFIG_H_
