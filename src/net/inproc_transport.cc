#include "src/net/inproc_transport.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "src/common/metrics.h"
#include "src/common/poll_window.h"
#include "src/common/time_util.h"

namespace millipage {

InProcTransport::InProcTransport(uint16_t num_hosts) {
  boxes_.reserve(num_hosts);
  for (uint16_t i = 0; i < num_hosts; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
  }
  send_bytes_ = MetricsRegistry::Global().GetHistogram("net.send_bytes");
}

Status InProcTransport::Send(HostId to, MsgHeader h, const void* payload, size_t len) {
  if (to >= boxes_.size()) {
    return Status::Invalid("InProcTransport::Send: bad destination host");
  }
  // One Send = one datagram, whatever it carries — a batched frame's N
  // records land in a single sample, which is the point of batching.
  send_bytes_->Record(sizeof(MsgHeader) + len);
  Item item;
  if (payload != nullptr && len > 0) {
    h.flags |= kFlagHasPayload;
    h.pgsize = static_cast<uint32_t>(len);
    item.payload.resize(len);
    std::memcpy(item.payload.data(), payload, len);
  }
  item.h = h;
  Mailbox& box = *boxes_[to];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.q.push_back(std::move(item));
    box.queued.store(box.q.size(), std::memory_order_relaxed);
  }
  box.cv.notify_one();
  return Status::Ok();
}

Result<bool> InProcTransport::Poll(HostId me, MsgHeader* h, const PayloadSink& sink,
                                   uint64_t timeout_us) {
  if (me >= boxes_.size()) {
    return Status::Invalid("InProcTransport::Poll: bad host");
  }
  Mailbox& box = *boxes_[me];
  Item item;
  {
    std::unique_lock<std::mutex> lock(box.mu);
    if (box.q.empty()) {
      if (timeout_us == 0) {
        return false;
      }
      const uint64_t start_ns = MonotonicNowNs();
      const uint64_t deadline_ns = start_ns + timeout_us * 1000;
      // Poll before park: a mailbox that delivered recently is mid-exchange,
      // and its next message is a protocol hop away. Watch the queued count
      // without mu (senders never wait on a poller) and yield the CPU between
      // checks, so a thread on the same vCPU with work still runs.
      const uint64_t poll_until_ns =
          std::min(box.last_delivery_ns + kPollWindowUs * 1000, deadline_ns);
      if (start_ns < poll_until_ns) {
        lock.unlock();
        PollUntil(poll_until_ns,
                  [&box] { return box.queued.load(std::memory_order_relaxed) != 0; });
        lock.lock();
      }
      if (box.q.empty()) {
        const uint64_t now_ns = MonotonicNowNs();
        if (now_ns >= deadline_ns ||
            !box.cv.wait_for(lock, std::chrono::nanoseconds(deadline_ns - now_ns),
                             [&box] { return !box.q.empty(); })) {
          return false;
        }
      }
    }
    item = std::move(box.q.front());
    box.q.pop_front();
    box.queued.store(box.q.size(), std::memory_order_relaxed);
    box.last_delivery_ns = MonotonicNowNs();
  }
  *h = item.h;
  if (item.h.has_payload()) {
    std::byte* dst = sink(item.h);
    if (dst != nullptr) {
      std::memcpy(dst, item.payload.data(), item.payload.size());
    }
  }
  return true;
}

}  // namespace millipage
