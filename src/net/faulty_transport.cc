#include "src/net/faulty_transport.h"

#include <unistd.h>

#include <cstddef>

#include "src/common/failpoint.h"
#include "src/common/logging.h"

namespace millipage {

FaultyTransport::FaultyTransport(Transport* inner) : inner_(inner) {}

void FaultyTransport::SetPeerDownHandler(PeerDownHandler handler) {
  Transport::SetPeerDownHandler(std::move(handler));
  // Chain: deaths the real transport detects surface on our handler too.
  inner_->SetPeerDownHandler([this](HostId peer) { NotifyPeerDown(peer); });
}

void FaultyTransport::KillPeer(HostId peer) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_.Contains(peer)) {
      return;
    }
    dead_.Add(peer);
  }
  MP_LOG(Info) << "FaultyTransport: peer " << peer << " declared dead";
  NotifyPeerDown(peer);
}

bool FaultyTransport::peer_dead(HostId peer) const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_.Contains(peer);
}

void FaultyTransport::DropSends(HostId to, MsgType type, uint32_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  send_drops_.push_back({to, static_cast<uint8_t>(type), count, 0});
}

void FaultyTransport::DropReceives(HostId from, MsgType type, uint32_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  recv_drops_.push_back({from, static_cast<uint8_t>(type), count, 0});
}

void FaultyTransport::DelaySends(HostId to, MsgType type, uint64_t us, uint32_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = send_delays_.begin(); it != send_delays_.end();) {
    if (it->host == to && it->type == static_cast<uint8_t>(type)) {
      it = send_delays_.erase(it);
    } else {
      ++it;
    }
  }
  if (us > 0) {
    // remaining == 0 encodes "until cleared" (matching drop filters, where 0
    // would be a no-op rule anyway).
    send_delays_.push_back({to, static_cast<uint8_t>(type), count, us});
  }
}

void FaultyTransport::DuplicateReceives(HostId from, MsgType type, uint32_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  recv_dups_.push_back({from, static_cast<uint8_t>(type), count, 0});
}

uint64_t FaultyTransport::receives_duplicated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return receives_duplicated_;
}

uint64_t FaultyTransport::sends_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sends_dropped_;
}

uint64_t FaultyTransport::receives_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return receives_dropped_;
}

Status FaultyTransport::Send(HostId to, MsgHeader h, const void* payload, size_t len) {
  FailpointRegistry& fp = FailpointRegistry::Instance();
  if (const auto dead = fp.Fire("net.peer.die"); dead.has_value()) {
    KillPeer(static_cast<HostId>(*dead));
  }
  if (fp.Fire("net.send.err").has_value()) {
    return Status::Unavailable("injected send error to host " + std::to_string(to));
  }
  uint64_t delay_us = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_.Contains(to)) {
      return Status::Unavailable("host " + std::to_string(to) + " is down (injected)");
    }
    for (Filter& f : send_drops_) {
      if (f.remaining > 0 && Matches(f, to, h.type)) {
        f.remaining--;
        sends_dropped_++;
        return Status::Ok();  // the message is "on the wire" — and lost
      }
    }
    for (auto it = send_delays_.begin(); it != send_delays_.end(); ++it) {
      if (Matches(*it, to, h.type)) {
        delay_us = it->delay_us;
        if (it->remaining > 0 && --it->remaining == 0) {
          send_delays_.erase(it);  // one-shot (counted) rule exhausted
        }
        break;
      }
    }
  }
  if (fp.Fire("net.send.drop").has_value()) {
    std::lock_guard<std::mutex> lock(mu_);
    sends_dropped_++;
    return Status::Ok();
  }
  fp.Fire("net.send.delay");  // delay(us) applied in place by the registry
  if (delay_us > 0) {
    ::usleep(static_cast<useconds_t>(delay_us));
  }
  return inner_->Send(to, h, payload, len);
}

bool FaultyTransport::ConsumeReceiveDrop(const MsgHeader& h) {
  // The header is raw off the wire: `from` still carries the sender's
  // membership-epoch tag in its high bits, so decode the host id once and
  // match both the dead set and the drop rules on it (a tagged id fed to
  // HostSet directly would alias — or fatal past kMaxHosts).
  const HostId from = WireCodec::Host(h.from);
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_.Contains(from)) {
    receives_dropped_++;
    return true;  // a dead peer's in-flight traffic never arrives
  }
  for (Filter& f : recv_drops_) {
    if (f.remaining > 0 && Matches(f, from, h.type)) {
      f.remaining--;
      receives_dropped_++;
      return true;
    }
  }
  return false;
}

Result<bool> FaultyTransport::Poll(HostId me, MsgHeader* h, const PayloadSink& sink,
                                   uint64_t timeout_us) {
  if (FailpointRegistry::Instance().Fire("net.poll.eintr").has_value()) {
    return false;  // spurious wakeup: the caller's poll loop retries
  }
  // Re-deliver a stashed duplicate ahead of fresh traffic: the original was
  // already handed to the node, so this Poll replays a retransmit.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!dup_queue_.empty()) {
      *h = dup_queue_.front();
      dup_queue_.erase(dup_queue_.begin());
      receives_duplicated_++;
      return true;
    }
  }
  // Drop decisions must be made where the payload destination is chosen: a
  // discarded data message is received into scratch so (a) the inner stream
  // stays framed and (b) the real sink's memory is never touched.
  bool dropped = false;
  std::vector<std::byte> scratch;
  const PayloadSink wrapped = [&](const MsgHeader& hdr) -> std::byte* {
    if (ConsumeReceiveDrop(hdr)) {
      dropped = true;
      scratch.resize(hdr.pgsize);
      return scratch.data();
    }
    return sink(hdr);
  };
  Result<bool> got = inner_->Poll(me, h, wrapped, timeout_us);
  if (!got.ok() || !*got) {
    return got;
  }
  // Header-only messages never reach the sink; apply the filter here. The
  // two call sites are exclusive, so each message is charged exactly once.
  if (!dropped && !h->has_payload() && ConsumeReceiveDrop(*h)) {
    dropped = true;
  }
  if (dropped) {
    return false;  // as if nothing arrived; the caller polls again
  }
  if (!h->has_payload()) {
    // Stash a copy for re-delivery if a duplication rule matches. Match on
    // the decoded host id: the raw header still carries the epoch tag.
    const HostId from = WireCodec::Host(h->from);
    std::lock_guard<std::mutex> lock(mu_);
    for (Filter& f : recv_dups_) {
      if (f.remaining > 0 && Matches(f, from, h->type)) {
        f.remaining--;
        dup_queue_.push_back(*h);
        break;
      }
    }
  }
  return true;
}

}  // namespace millipage
