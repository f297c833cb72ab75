// In-process transport: one mailbox (mutex + condvar + deque) per host.
// Payload bytes are staged once on send and copied to the sink's destination
// on receive, modeling the NIC DMA in/out of the paper's Myrinet path while
// keeping the DSM layer itself copy-free.
//
// Receive wait: poll before park (src/common/poll_window.h). A blocking Poll
// on an empty mailbox that delivered a message within the last kPollWindowUs
// keeps polling — a lock-free read of the queued count with sched_yield()
// between checks — and parks on the condvar only once the window has
// expired. The next hop of a fault, barrier or lock then finds its server
// still on-CPU; a host idle for longer than the window parks at once
// (DESIGN.md §13).

#ifndef SRC_NET_INPROC_TRANSPORT_H_
#define SRC_NET_INPROC_TRANSPORT_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/net/transport.h"

namespace millipage {

class Histogram;

class InProcTransport : public Transport {
 public:
  explicit InProcTransport(uint16_t num_hosts);

  Status Send(HostId to, MsgHeader h, const void* payload, size_t len) override;
  Result<bool> Poll(HostId me, MsgHeader* h, const PayloadSink& sink,
                    uint64_t timeout_us) override;
  uint16_t num_hosts() const override { return static_cast<uint16_t>(boxes_.size()); }

 private:
  struct Item {
    MsgHeader h;
    std::vector<std::byte> payload;
  };
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Item> q;
    // q.size(), written under mu and read without it by the poll window, so
    // a polling receiver never contends with senders for mu. A hint only:
    // the receiver re-checks q under mu before popping.
    std::atomic<size_t> queued{0};
    uint64_t last_delivery_ns = 0;  // guarded by mu; MonotonicNowNs of the last pop
  };

  std::vector<std::unique_ptr<Mailbox>> boxes_;
  // Datagram-size distribution ("net.send_bytes", global registry): header +
  // payload per Send, the figure batching compresses.
  Histogram* send_bytes_ = nullptr;
};

}  // namespace millipage

#endif  // SRC_NET_INPROC_TRANSPORT_H_
