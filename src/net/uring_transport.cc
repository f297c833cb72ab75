#include "src/net/uring_transport.h"

#include <linux/time_types.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/common/time_util.h"

namespace millipage {

namespace {

// No liburing in the build image; the three syscalls below plus the mmap'd
// ring layout are the whole ABI we need.
int SysUringSetup(unsigned entries, struct io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int SysUringEnter(int fd, unsigned to_submit, unsigned min_complete, unsigned flags,
                  const void* arg, size_t argsz) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags, arg, argsz));
}

int SysUringRegister(int fd, unsigned opcode, void* arg, unsigned nr_args) {
  return static_cast<int>(::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

constexpr int kSocketBufBytes = 1 << 20;
constexpr uint16_t kBufGroup = 7;
constexpr unsigned kRecvBufCount = 64;  // must be a power of two
// io_uring_recvmsg_out (16 B) + the largest datagram we accept.
constexpr unsigned kRecvBufLen =
    sizeof(struct io_uring_recvmsg_out) + UringTransport::kMaxDatagramBytes;
constexpr unsigned kSendSqEntries = 256;
constexpr unsigned kSendCqEntries = 1024;
// Longest linked chain submitted per peer per pump; bounds CQ pressure.
constexpr unsigned kMaxChainSqes = 64;

Status SetBufferSizes(int fd) {
  const int sz = kSocketBufBytes;
  if (setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sz, sizeof(sz)) != 0 ||
      setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &sz, sizeof(sz)) != 0) {
    return Status::Errno("setsockopt(SO_SNDBUF/SO_RCVBUF)");
  }
  return Status::Ok();
}

unsigned NextPow2(unsigned v) {
  unsigned p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

Status UringTransport::Ring::Init(unsigned entries, unsigned cq_size) {
  struct io_uring_params p;
  std::memset(&p, 0, sizeof(p));
  p.flags = IORING_SETUP_CLAMP;
  if (cq_size > 0) {
    p.flags |= IORING_SETUP_CQSIZE;
    p.cq_entries = cq_size;
  }
  fd = SysUringSetup(entries, &p);
  if (fd < 0) {
    return Status::Errno("io_uring_setup");
  }
  features = p.features;
  if ((features & IORING_FEAT_SINGLE_MMAP) == 0) {
    // Pre-5.4 split-mmap layout; such kernels lack everything else we need
    // anyway, so don't bother supporting it.
    Close();
    return Status::Unavailable("io_uring: kernel lacks IORING_FEAT_SINGLE_MMAP");
  }
  ring_mem_len = std::max<size_t>(p.sq_off.array + p.sq_entries * sizeof(unsigned),
                                  p.cq_off.cqes + p.cq_entries * sizeof(struct io_uring_cqe));
  ring_mem = ::mmap(nullptr, ring_mem_len, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE,
                    fd, IORING_OFF_SQ_RING);
  if (ring_mem == MAP_FAILED) {
    ring_mem = nullptr;
    Status st = Status::Errno("mmap(sq/cq ring)");
    Close();
    return st;
  }
  sqe_mem_len = p.sq_entries * sizeof(struct io_uring_sqe);
  sqe_mem = ::mmap(nullptr, sqe_mem_len, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE, fd,
                   IORING_OFF_SQES);
  if (sqe_mem == MAP_FAILED) {
    sqe_mem = nullptr;
    Status st = Status::Errno("mmap(sqes)");
    Close();
    return st;
  }
  auto* base = static_cast<char*>(ring_mem);
  sq_head = reinterpret_cast<unsigned*>(base + p.sq_off.head);
  sq_tail = reinterpret_cast<unsigned*>(base + p.sq_off.tail);
  sq_array = reinterpret_cast<unsigned*>(base + p.sq_off.array);
  sq_mask = *reinterpret_cast<unsigned*>(base + p.sq_off.ring_mask);
  sq_entries = p.sq_entries;
  cq_head = reinterpret_cast<unsigned*>(base + p.cq_off.head);
  cq_tail = reinterpret_cast<unsigned*>(base + p.cq_off.tail);
  cq_mask = *reinterpret_cast<unsigned*>(base + p.cq_off.ring_mask);
  cq_entries = p.cq_entries;
  cqes = reinterpret_cast<struct io_uring_cqe*>(base + p.cq_off.cqes);
  sqes = static_cast<struct io_uring_sqe*>(sqe_mem);
  sq_local_tail = *sq_tail;
  // Identity SQ index array: slot (tail & mask) always holds SQE (tail & mask).
  for (unsigned i = 0; i <= sq_mask; ++i) {
    sq_array[i] = i;
  }
  return Status::Ok();
}

void UringTransport::Ring::Close() {
  if (sqe_mem != nullptr) {
    ::munmap(sqe_mem, sqe_mem_len);
    sqe_mem = nullptr;
  }
  if (ring_mem != nullptr) {
    ::munmap(ring_mem, ring_mem_len);
    ring_mem = nullptr;
  }
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

struct io_uring_sqe* UringTransport::Ring::GetSqe() {
  const unsigned head = __atomic_load_n(sq_head, __ATOMIC_ACQUIRE);
  if (sq_local_tail - head >= sq_entries) {
    return nullptr;
  }
  struct io_uring_sqe* sqe = &sqes[sq_local_tail & sq_mask];
  std::memset(sqe, 0, sizeof(*sqe));
  sq_local_tail++;
  return sqe;
}

Status UringTransport::Ring::Submit(Counter* syscalls, Counter* submits, Histogram* batch) {
  // Publish everything prepped since the last submit; to_submit is derived
  // from the kernel's head so a previous partial consume is retried too.
  __atomic_store_n(sq_tail, sq_local_tail, __ATOMIC_RELEASE);
  const unsigned to_submit = sq_local_tail - __atomic_load_n(sq_head, __ATOMIC_ACQUIRE);
  if (to_submit == 0) {
    return Status::Ok();
  }
  if (submits != nullptr) {
    submits->Inc();
  }
  if (batch != nullptr) {
    batch->Record(to_submit);
  }
  for (;;) {
    if (syscalls != nullptr) {
      syscalls->Inc();
    }
    const int ret = SysUringEnter(fd, to_submit, 0, 0, nullptr, 0);
    if (ret >= 0) {
      // A short consume leaves the rest in the SQ; the next Submit retries.
      return Status::Ok();
    }
    if (errno == EINTR || errno == EAGAIN || errno == EBUSY) {
      continue;
    }
    return Status::Errno("io_uring_enter(submit)");
  }
}

Result<bool> UringTransport::Ring::WaitCqe(uint64_t timeout_ns, Counter* syscalls) {
  struct __kernel_timespec ts;
  ts.tv_sec = static_cast<int64_t>(timeout_ns / 1000000000ULL);
  ts.tv_nsec = static_cast<int64_t>(timeout_ns % 1000000000ULL);
  struct io_uring_getevents_arg arg;
  std::memset(&arg, 0, sizeof(arg));
  arg.ts = reinterpret_cast<uint64_t>(&ts);
  if (syscalls != nullptr) {
    syscalls->Inc();
  }
  const int ret = SysUringEnter(fd, 0, 1, IORING_ENTER_GETEVENTS | IORING_ENTER_EXT_ARG, &arg,
                                sizeof(arg));
  if (ret >= 0) {
    return true;
  }
  if (errno == ETIME) {
    return false;
  }
  if (errno == EINTR) {
    // The caller's loop recomputes the remaining budget and re-waits.
    return true;
  }
  return Status::Errno("io_uring_enter(getevents)");
}

struct io_uring_cqe* UringTransport::Ring::PeekCqe() {
  // Single consumer per ring: send CQ under send_mu_, recv CQ on the poller.
  const unsigned head = *cq_head;
  const unsigned tail = __atomic_load_n(cq_tail, __ATOMIC_ACQUIRE);
  if (head == tail) {
    return nullptr;
  }
  return &cqes[head & cq_mask];
}

void UringTransport::Ring::AdvanceCqe() {
  __atomic_store_n(cq_head, *cq_head + 1, __ATOMIC_RELEASE);
}

// ---------------------------------------------------------------------------
// BufRing
// ---------------------------------------------------------------------------

Status UringTransport::BufRing::Init(Ring& r, unsigned n, unsigned blen) {
  entries = n;
  buf_len = blen;
  ring_len = static_cast<size_t>(n) * sizeof(struct io_uring_buf);
  ring = static_cast<struct io_uring_buf_ring*>(
      ::mmap(nullptr, ring_len, PROT_READ | PROT_WRITE, MAP_ANONYMOUS | MAP_PRIVATE, -1, 0));
  if (ring == MAP_FAILED) {
    ring = nullptr;
    return Status::Errno("mmap(buf ring)");
  }
  pool_len = static_cast<size_t>(n) * blen;
  pool = static_cast<std::byte*>(
      ::mmap(nullptr, pool_len, PROT_READ | PROT_WRITE, MAP_ANONYMOUS | MAP_PRIVATE, -1, 0));
  if (pool == MAP_FAILED) {
    pool = nullptr;
    ::munmap(ring, ring_len);
    ring = nullptr;
    return Status::Errno("mmap(buf pool)");
  }
  struct io_uring_buf_reg reg;
  std::memset(&reg, 0, sizeof(reg));
  reg.ring_addr = reinterpret_cast<uint64_t>(ring);
  reg.ring_entries = n;
  reg.bgid = kBufGroup;
  if (SysUringRegister(r.fd, IORING_REGISTER_PBUF_RING, &reg, 1) < 0) {
    Status st = Status::Errno("io_uring_register(PBUF_RING)");
    Destroy(r);
    return st;
  }
  tail = 0;
  free_bufs = 0;
  for (unsigned bid = 0; bid < n; ++bid) {
    Recycle(static_cast<unsigned short>(bid));
  }
  return Status::Ok();
}

void UringTransport::BufRing::Recycle(unsigned short bid) {
  // The ring header's tail field aliases bufs[0].resv, so write only
  // addr/len/bid — never memset a slot. Slot addresses are computed by byte
  // offset rather than through ring->bufs[]: the uapi header wraps the flex
  // array in __DECLARE_FLEX_ARRAY's empty struct, which is 0 bytes in C but
  // 1 byte (padded to 8) in C++, so the member indexes 8 bytes past where
  // the kernel reads.
  struct io_uring_buf* slot = reinterpret_cast<struct io_uring_buf*>(
      reinterpret_cast<char*>(ring) +
      static_cast<size_t>(tail & (entries - 1)) * sizeof(struct io_uring_buf));
  slot->addr = reinterpret_cast<uint64_t>(Buf(bid));
  slot->len = buf_len;
  slot->bid = bid;
  tail++;
  __atomic_store_n(&ring->tail, tail, __ATOMIC_RELEASE);
  free_bufs++;
}

void UringTransport::BufRing::Destroy(Ring& r) {
  if (ring != nullptr && r.fd >= 0) {
    struct io_uring_buf_reg reg;
    std::memset(&reg, 0, sizeof(reg));
    reg.bgid = kBufGroup;
    (void)SysUringRegister(r.fd, IORING_UNREGISTER_PBUF_RING, &reg, 1);
  }
  if (pool != nullptr) {
    ::munmap(pool, pool_len);
    pool = nullptr;
  }
  if (ring != nullptr) {
    ::munmap(ring, ring_len);
    ring = nullptr;
  }
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

bool UringTransport::ProbeSupport() {
  // A usable kernel needs: buffer rings (5.19+), multishot RECVMSG (6.0+,
  // inferred from the opcode horizon reaching IORING_OP_SEND_ZC), and
  // EXT_ARG timed waits. Probe with a scratch ring so no fds are risked.
  Ring ring;
  if (!ring.Init(4, 8).ok()) {
    return false;
  }
  bool ok = (ring.features & IORING_FEAT_EXT_ARG) != 0 &&
            (ring.features & IORING_FEAT_NODROP) != 0 &&
            (ring.features & IORING_FEAT_SUBMIT_STABLE) != 0;
  if (ok) {
    constexpr unsigned kProbeOps = 64;
    const size_t len = sizeof(struct io_uring_probe) + kProbeOps * sizeof(struct io_uring_probe_op);
    auto* probe = static_cast<struct io_uring_probe*>(std::calloc(1, len));
    ok = probe != nullptr && SysUringRegister(ring.fd, IORING_REGISTER_PROBE, probe, kProbeOps) >= 0 &&
         probe->last_op >= IORING_OP_SEND_ZC && IORING_OP_RECVMSG < probe->ops_len &&
         (probe->ops[IORING_OP_RECVMSG].flags & IO_URING_OP_SUPPORTED) != 0 &&
         IORING_OP_SENDMSG < probe->ops_len &&
         (probe->ops[IORING_OP_SENDMSG].flags & IO_URING_OP_SUPPORTED) != 0;
    std::free(probe);
  }
  if (ok) {
    // The buffer-ring address must be page-aligned (the kernel pins it).
    void* mem = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
    ok = mem != MAP_FAILED;
    if (ok) {
      struct io_uring_buf_reg reg;
      std::memset(&reg, 0, sizeof(reg));
      reg.ring_addr = reinterpret_cast<uint64_t>(mem);
      reg.ring_entries = 2;
      reg.bgid = kBufGroup;
      ok = SysUringRegister(ring.fd, IORING_REGISTER_PBUF_RING, &reg, 1) >= 0;
      ::munmap(mem, 4096);
    }
  }
  ring.Close();
  return ok;
}

bool UringTransportSupported() {
  static const bool supported = UringTransport::ProbeSupport();
  return supported;
}

// ---------------------------------------------------------------------------
// UringTransport
// ---------------------------------------------------------------------------

UringTransport::UringTransport(HostId me, std::vector<int> fds_by_peer)
    : me_(me), fds_(std::move(fds_by_peer)) {
  if (me_ >= fds_.size()) {
    fds_.resize(me_ + 1, -1);
  }
  // Self-loop so a host's application threads can message their own server.
  int sv[2];
  MP_CHECK(::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, sv) == 0);
  MP_CHECK_OK(SetBufferSizes(sv[0]));
  MP_CHECK_OK(SetBufferSizes(sv[1]));
  fds_[me_] = sv[0];
  self_recv_fd_ = sv[1];
  send_peers_.resize(fds_.size());
  recv_conns_.resize(fds_.size());
  for (size_t j = 0; j < fds_.size(); ++j) {
    RecvConn& c = recv_conns_[j];
    c.fd = j == me_ ? self_recv_fd_ : fds_[j];
    c.open = c.fd >= 0;
    std::memset(&c.mh, 0, sizeof(c.mh));  // no iov/name/control: ring buffers
  }
  MetricsRegistry& reg = MetricsRegistry::Global();
  msgs_sent_ = reg.GetCounter("net.msgs_sent");
  msgs_recv_ = reg.GetCounter("net.msgs_recv");
  send_ns_ = reg.GetHistogram("net.send_ns");
  send_bytes_ = reg.GetHistogram("net.send_bytes");
  recv_bytes_ = reg.GetHistogram("net.recv_bytes");
  syscalls_ = reg.GetCounter("net.syscalls");
  submits_ = reg.GetCounter("net.uring.submits");
  sqe_batch_ = reg.GetHistogram("net.uring.sqe_batch");
  recv_cqes_ = reg.GetCounter("net.uring.recv_cqes");
}

Status UringTransport::InitRings() {
  MP_RETURN_IF_ERROR(send_ring_.Init(kSendSqEntries, kSendCqEntries));
  const unsigned n = static_cast<unsigned>(fds_.size());
  const unsigned recv_sq = std::clamp(NextPow2(n + 2), 64U, 4096U);
  MP_RETURN_IF_ERROR(recv_ring_.Init(recv_sq, std::max(2 * kRecvBufCount + recv_sq, 512U)));
  if ((recv_ring_.features & IORING_FEAT_EXT_ARG) == 0 ||
      (recv_ring_.features & IORING_FEAT_NODROP) == 0) {
    return Status::Unavailable("io_uring: kernel lacks EXT_ARG/NODROP");
  }
  MP_RETURN_IF_ERROR(buf_ring_.Init(recv_ring_, kRecvBufCount, kRecvBufLen));
  for (uint16_t j = 0; j < recv_conns_.size(); ++j) {
    MP_RETURN_IF_ERROR(ArmRecv(j));
  }
  return recv_ring_.Submit(syscalls_, nullptr, nullptr);
}

Result<std::unique_ptr<UringTransport>> UringTransport::Create(HostId me,
                                                               std::vector<int> fds_by_peer) {
  if (!UringTransportSupported()) {
    for (int fd : fds_by_peer) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
    return Status::Unavailable(
        "io_uring transport unsupported: kernel lacks multishot RECVMSG or buffer rings");
  }
  std::unique_ptr<UringTransport> t(new UringTransport(me, std::move(fds_by_peer)));
  MP_RETURN_IF_ERROR(t->InitRings());
  return t;
}

UringTransport::~UringTransport() {
  // Unblock everything: shutdown makes parked sends fail with EPIPE and
  // armed multishot recvs complete with EOF, so both rings drain.
  for (int fd : fds_) {
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);
    }
  }
  if (self_recv_fd_ >= 0) {
    ::shutdown(self_recv_fd_, SHUT_RDWR);
  }
  const uint64_t deadline_ns = MonotonicNowNs() + 1000000000ULL;
  {
    std::lock_guard<std::mutex> lock(send_mu_);
    (void)send_ring_.Submit(nullptr, nullptr, nullptr);  // release anything prepped
    std::vector<HostId> dead;
    while (inflight_ops_ > 0 && MonotonicNowNs() < deadline_ns) {
      ReapSendCqesLocked(&dead);
      if (inflight_ops_ > 0) {
        (void)send_ring_.WaitCqe(50 * 1000 * 1000, nullptr);
      }
    }
  }
  unsigned armed = 0;
  for (const RecvConn& c : recv_conns_) {
    armed += c.armed ? 1 : 0;
  }
  while (armed > 0 && MonotonicNowNs() < deadline_ns) {
    struct io_uring_cqe* cqe = recv_ring_.PeekCqe();
    if (cqe == nullptr) {
      Result<bool> r = recv_ring_.WaitCqe(50 * 1000 * 1000, nullptr);
      if (!r.ok() || !*r) {
        break;
      }
      continue;
    }
    const uint64_t idx = cqe->user_data;
    if ((cqe->flags & IORING_CQE_F_BUFFER) != 0) {
      buf_ring_.Recycle(static_cast<unsigned short>(cqe->flags >> IORING_CQE_BUFFER_SHIFT));
      buf_ring_.free_bufs--;  // Recycle bumped it; this CQE had consumed one
    }
    if ((cqe->flags & IORING_CQE_F_MORE) == 0 && idx < recv_conns_.size() &&
        recv_conns_[idx].armed) {
      recv_conns_[idx].armed = false;
      armed--;
    }
    recv_ring_.AdvanceCqe();
  }
  if (inflight_ops_ > 0 || armed > 0) {
    // The kernel may still reference our buffers; leak them rather than
    // risk a use-after-free. Should not happen after the shutdowns above.
    MP_LOG(Warning) << "uring transport teardown incomplete (" << inflight_ops_
                 << " sends, " << armed << " recvs); leaking ring memory";
    for (int fd : fds_) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
    if (self_recv_fd_ >= 0) {
      ::close(self_recv_fd_);
    }
    return;
  }
  buf_ring_.Destroy(recv_ring_);
  recv_ring_.Close();
  send_ring_.Close();
  for (int fd : fds_) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  if (self_recv_fd_ >= 0) {
    ::close(self_recv_fd_);
  }
}

// ---------------------------------------------------------------------------
// Send side
// ---------------------------------------------------------------------------

Status UringTransport::EnqueueSend(uint16_t to, const MsgHeader& h, const void* payload,
                                   size_t len) {
  auto make_op = [to](const void* src, size_t n) {
    auto op = std::make_unique<SendOp>();
    op->peer = to;
    op->data.resize(n);
    std::memcpy(op->data.data(), src, n);
    op->iov.iov_base = op->data.data();
    op->iov.iov_len = n;
    op->mh.msg_iov = &op->iov;
    op->mh.msg_iovlen = 1;
    return op;
  };
  SendPeer& p = send_peers_[to];
  p.queue.push_back(make_op(&h, sizeof(h)));
  if (h.has_payload()) {
    if (FailpointRegistry::Instance().Fire("socket.send.payload_err").has_value()) {
      // Mirror SocketTransport: the header is committed without its payload,
      // so the stream is desynchronized — shut the connection down so the
      // peer sees a clean EOF, and mark it gone now so further sends fail
      // synchronously (the async path would only learn from the EPIPE CQE).
      p.gone = true;
      p.queue.clear();
      if (fds_[to] >= 0) {
        ::shutdown(fds_[to], SHUT_RDWR);
      }
      return Status::Unavailable("injected payload send failure");
    }
    p.queue.push_back(make_op(payload, len));
  }
  return Status::Ok();
}

Status UringTransport::PumpSendsLocked(bool allow_defer) {
  for (size_t peer = 0; peer < send_peers_.size(); ++peer) {
    SendPeer& p = send_peers_[peer];
    if (p.queue.empty() || p.inflight > 0) {
      continue;
    }
    if (p.gone || fds_[peer] < 0) {
      p.queue.clear();
      continue;
    }
    // Submit the whole backlog for this peer as ONE linked chain: io_uring
    // promises nothing about ordering between unlinked SQEs, so the chain —
    // plus the one-chain-in-flight rule — is what preserves per-pair FIFO.
    const int fd = fds_[peer];
    struct io_uring_sqe* prev = nullptr;
    unsigned chained = 0;
    while (!p.queue.empty() && chained < kMaxChainSqes) {
      struct io_uring_sqe* sqe = send_ring_.GetSqe();
      if (sqe == nullptr) {
        // SQ full: release it (one enter) and grow the chain afterwards.
        MP_RETURN_IF_ERROR(send_ring_.Submit(syscalls_, submits_, sqe_batch_));
        sqe = send_ring_.GetSqe();
        if (sqe == nullptr) {
          break;  // SQ still full of unconsumed entries; next pump retries
        }
      }
      SendOp* op = p.queue.front().release();
      p.queue.pop_front();
      sqe->opcode = IORING_OP_SENDMSG;
      sqe->fd = fd;
      sqe->addr = reinterpret_cast<uint64_t>(&op->mh);
      sqe->msg_flags = MSG_NOSIGNAL;
      sqe->user_data = reinterpret_cast<uint64_t>(op);
      if (prev != nullptr) {
        prev->flags |= IOSQE_IO_LINK;  // safe pre-submit (SUBMIT_STABLE)
      }
      prev = sqe;
      p.inflight++;
      inflight_ops_++;
      chained++;
    }
  }
  if (allow_defer) {
    return Status::Ok();  // EndBurst releases everything in one enter
  }
  return send_ring_.Submit(syscalls_, submits_, sqe_batch_);
}

void UringTransport::ReapSendCqesLocked(std::vector<HostId>* newly_dead) {
  for (;;) {
    struct io_uring_cqe* cqe = send_ring_.PeekCqe();
    if (cqe == nullptr) {
      return;
    }
    auto* op = reinterpret_cast<SendOp*>(static_cast<uintptr_t>(cqe->user_data));
    const int res = cqe->res;
    send_ring_.AdvanceCqe();
    SendPeer& p = send_peers_[op->peer];
    p.inflight--;
    inflight_ops_--;
    if (res < 0 && res != -ECANCELED && !p.gone) {
      // EPIPE/ECONNRESET and friends: the peer is unreachable. Shut our end
      // down so the recv multishot sees EOF, retires the connection, and
      // raises the peer-down event (same path as SocketTransport). Link
      // cancellation already dropped the rest of the in-flight chain.
      p.gone = true;
      p.queue.clear();
      if (fds_[op->peer] >= 0) {
        ::shutdown(fds_[op->peer], SHUT_RDWR);
      }
      if (newly_dead != nullptr && op->peer != me_) {
        newly_dead->push_back(static_cast<HostId>(op->peer));
      }
    }
    delete op;
  }
}

void UringTransport::DrainSendsFromPoller() {
  std::vector<HostId> dead;
  {
    std::unique_lock<std::mutex> lock(send_mu_, std::try_to_lock);
    if (!lock.owns_lock()) {
      return;  // a sender is active; it will pump on its own
    }
    if (burst_depth_ > 0) {
      return;  // mid-burst; EndBurst releases
    }
    ReapSendCqesLocked(&dead);
    (void)PumpSendsLocked(/*allow_defer=*/false);
  }
  (void)dead;  // the recv path reports peer death when EOF arrives
}

Status UringTransport::Send(HostId to, MsgHeader h, const void* payload, size_t len) {
  if (to >= fds_.size()) {
    return Status::Invalid("UringTransport::Send: bad destination host");
  }
  if (payload != nullptr && len > 0) {
    h.flags |= kFlagHasPayload;
    h.pgsize = static_cast<uint32_t>(len);
  }
  if (len > kMaxDatagramBytes || sizeof(h) > kMaxDatagramBytes) {
    return Status::Invalid("UringTransport::Send: datagram exceeds ring buffer capacity");
  }
  ScopedTimer timer(send_ns_);
  Status st;
  {
    std::lock_guard<std::mutex> lock(send_mu_);
    ReapSendCqesLocked(nullptr);
    SendPeer& p = send_peers_[to];
    if (p.gone || fds_[to] < 0) {
      return Status::Unavailable("UringTransport::Send: connection to host " +
                                 std::to_string(to) + " is gone");
    }
    st = EnqueueSend(to, h, payload, len);
    // Inside a burst window, only enqueue: pumping here would start a
    // one-message chain per peer and the in-flight guard would then block
    // the rest of the burst's backlog behind it. EndBurst pumps the whole
    // backlog as one chain per peer and releases it with a single enter.
    if (st.ok() && burst_depth_ == 0) {
      st = PumpSendsLocked(/*allow_defer=*/false);
    }
  }
  if (st.ok()) {
    msgs_sent_->Inc();
    send_bytes_->Record(sizeof(h) + (h.has_payload() ? len : 0));
  }
  return st;
}

void UringTransport::BeginBurst() {
  std::lock_guard<std::mutex> lock(send_mu_);
  burst_depth_++;
}

void UringTransport::EndBurst() {
  std::lock_guard<std::mutex> lock(send_mu_);
  if (burst_depth_ == 0) {
    return;
  }
  if (--burst_depth_ > 0) {
    return;
  }
  ReapSendCqesLocked(nullptr);
  (void)PumpSendsLocked(/*allow_defer=*/false);
}

// ---------------------------------------------------------------------------
// Recv side
// ---------------------------------------------------------------------------

Status UringTransport::ArmRecv(uint16_t conn_idx) {
  RecvConn& c = recv_conns_[conn_idx];
  if (!c.open || c.armed) {
    return Status::Ok();
  }
  if (buf_ring_.free_bufs <= 0) {
    return Status::Ok();  // re-armed once buffers are recycled
  }
  struct io_uring_sqe* sqe = recv_ring_.GetSqe();
  if (sqe == nullptr) {
    MP_RETURN_IF_ERROR(recv_ring_.Submit(syscalls_, nullptr, nullptr));
    sqe = recv_ring_.GetSqe();
    if (sqe == nullptr) {
      return Status::Internal("uring: recv SQ full");
    }
  }
  sqe->opcode = IORING_OP_RECVMSG;
  sqe->fd = c.fd;
  sqe->addr = reinterpret_cast<uint64_t>(&c.mh);
  sqe->ioprio = IORING_RECV_MULTISHOT;
  sqe->flags = IOSQE_BUFFER_SELECT;
  sqe->buf_group = kBufGroup;
  // MSG_TRUNC so payloadlen reports the datagram's *real* size — without it
  // an oversized sender is silently truncated to the buffer and undetected.
  sqe->msg_flags = MSG_TRUNC;
  sqe->user_data = conn_idx;
  c.armed = true;
  // Deliberately leave c.have_header alone: a buffer-pool ENOBUFS can kill
  // the multishot between a header and its payload, and the re-armed recv
  // must resume the half-assembled message, not misparse the payload as a
  // fresh header.
  return Status::Ok();
}

void UringTransport::ArmAllIdleRecvs() {
  bool prepped = false;
  for (uint16_t j = 0; j < recv_conns_.size(); ++j) {
    RecvConn& c = recv_conns_[j];
    if (c.open && !c.armed && buf_ring_.free_bufs > 0) {
      if (ArmRecv(j).ok()) {
        prepped = true;
      }
    }
  }
  if (prepped) {
    (void)recv_ring_.Submit(syscalls_, nullptr, nullptr);
  }
}

void UringTransport::RetireConn(uint16_t conn_idx, std::vector<HostId>* newly_dead) {
  RecvConn& c = recv_conns_[conn_idx];
  if (!c.open) {
    return;
  }
  c.open = false;
  c.have_header = false;
  {
    // Same discipline as SocketTransport::ClosePeer: take the send lock so a
    // sender mid-prep never writes into a recycled descriptor.
    std::lock_guard<std::mutex> lock(send_mu_);
    if (conn_idx != me_) {
      send_peers_[conn_idx].gone = true;
      send_peers_[conn_idx].queue.clear();
      // Close only when no send op still references the fd; otherwise the
      // reaper's shutdown already ensured those complete, and the fd is
      // closed at destruction.
      if (send_peers_[conn_idx].inflight == 0 && fds_[conn_idx] >= 0) {
        ::close(fds_[conn_idx]);
        fds_[conn_idx] = -1;
      }
    } else if (self_recv_fd_ >= 0) {
      ::close(self_recv_fd_);
      self_recv_fd_ = -1;
    }
  }
  if (conn_idx != me_ && newly_dead != nullptr) {
    newly_dead->push_back(static_cast<HostId>(conn_idx));
  }
}

Status UringTransport::ConsumeRecvCqe(struct io_uring_cqe* cqe, MsgHeader* h,
                                      const PayloadSink& sink, bool* delivered,
                                      std::vector<HostId>* newly_dead) {
  *delivered = false;
  const uint64_t idx64 = cqe->user_data;
  if (idx64 >= recv_conns_.size()) {
    return Status::Internal("uring: recv cqe for unknown connection");
  }
  const auto idx = static_cast<uint16_t>(idx64);
  RecvConn& c = recv_conns_[idx];
  const int res = cqe->res;
  const unsigned flags = cqe->flags;
  if ((flags & IORING_CQE_F_MORE) == 0) {
    c.armed = false;  // multishot terminated; re-armed (or retired) below
  }
  // Recycle the selected buffer on every exit path once consumed.
  const bool has_buf = (flags & IORING_CQE_F_BUFFER) != 0;
  const auto bid = static_cast<unsigned short>(flags >> IORING_CQE_BUFFER_SHIFT);
  if (has_buf) {
    buf_ring_.free_bufs--;
  }
  struct BufGuard {
    BufRing* ring;
    unsigned short bid;
    bool active;
    ~BufGuard() {
      if (active) {
        ring->Recycle(bid);
      }
    }
  } guard{&buf_ring_, bid, has_buf};
  if (res < 0) {
    if (res == -ENOBUFS) {
      return Status::Ok();  // pool exhausted momentarily; re-armed by caller
    }
    if (res == -ECANCELED) {
      return Status::Ok();
    }
    if (res == -ECONNRESET || res == -EPIPE || res == -ENOTCONN || res == -EBADF) {
      RetireConn(idx, newly_dead);
      return Status::Ok();
    }
    return Status::Internal(std::string("uring recvmsg: ") + std::strerror(-res));
  }
  if (!has_buf || static_cast<size_t>(res) < sizeof(struct io_uring_recvmsg_out)) {
    // EOF surfaces as a zero-byte completion (no buffer consumed).
    RetireConn(idx, newly_dead);
    return Status::Ok();
  }
  std::byte* buf = buf_ring_.Buf(bid);
  struct io_uring_recvmsg_out out;
  std::memcpy(&out, buf, sizeof(out));
  const std::byte* data = buf + sizeof(out);  // namelen == controllen == 0
  const size_t n = out.payloadlen;
  if (n == 0) {
    // SEQPACKET EOF: the peer process died or closed its end.
    RetireConn(idx, newly_dead);
    return Status::Ok();
  }
  const size_t expected = c.have_header ? c.header.pgsize : sizeof(MsgHeader);
  if ((out.flags & MSG_TRUNC) != 0 || n > expected) {
    return Status::Internal("recv: oversized datagram truncated (" + std::to_string(n) +
                            " vs expected " + std::to_string(expected) + ")");
  }
  if (n != expected) {
    return Status::Internal("recv: short datagram (" + std::to_string(n) + " vs expected " +
                            std::to_string(expected) + ")");
  }
  if (!c.have_header) {
    MsgHeader header;
    std::memcpy(&header, data, sizeof(header));
    if (header.has_payload()) {
      // Two-datagram message; per-connection CQE ordering guarantees the
      // payload is this connection's next completion.
      c.have_header = true;
      c.header = header;
      return Status::Ok();
    }
    *h = header;
    *delivered = true;
  } else {
    c.have_header = false;
    *h = c.header;
    std::byte* dst = sink(*h);
    if (dst != nullptr) {
      std::memcpy(dst, data, n);
    }
    *delivered = true;
  }
  msgs_recv_->Inc();
  recv_bytes_->Record(sizeof(MsgHeader) + (h->has_payload() ? h->pgsize : 0));
  recv_cqes_->Inc();
  return Status::Ok();
}

Result<bool> UringTransport::Poll(HostId me, MsgHeader* h, const PayloadSink& sink,
                                  uint64_t timeout_us) {
  if (me != me_) {
    return Status::Invalid("UringTransport::Poll: not this host's transport");
  }
  const uint64_t deadline_ns = timeout_us == 0 ? 0 : MonotonicNowNs() + timeout_us * 1000;
  std::vector<HostId> dead;
  for (;;) {
    // Keep queued send chains moving even when no new Send arrives.
    DrainSendsFromPoller();
    ArmAllIdleRecvs();
    bool retired = false;
    for (;;) {
      struct io_uring_cqe* cqe = recv_ring_.PeekCqe();
      if (cqe == nullptr) {
        break;
      }
      bool delivered = false;
      const size_t dead_before = dead.size();
      const Status st = ConsumeRecvCqe(cqe, h, sink, &delivered, &dead);
      recv_ring_.AdvanceCqe();
      retired = retired || dead.size() > dead_before;
      for (HostId peer : dead) {
        NotifyPeerDown(peer);
      }
      dead.clear();
      MP_RETURN_IF_ERROR(st);
      if (delivered) {
        return true;
      }
      if (retired) {
        // Mirror SocketTransport: surface a retirement as an empty poll so
        // the server loop can react to the peer-down event promptly.
        return false;
      }
    }
    if (timeout_us == 0) {
      return false;
    }
    const uint64_t now = MonotonicNowNs();
    if (now >= deadline_ns) {
      return false;
    }
    // Interrupted waits resume with the *remaining* budget (see the
    // SocketTransport rationale); the failpoint simulates a signal storm.
    if (FailpointRegistry::Instance().Fire("socket.poll.eintr").has_value()) {
      continue;
    }
    // A burst can exhaust the buffer pool, terminating a multishot recv with
    // ENOBUFS; the buffers were recycled while draining the CQ above, so
    // re-arm *before* blocking — the fresh recv picks up any data already
    // queued in the socket and posts the CQE the wait needs.
    ArmAllIdleRecvs();
    MP_ASSIGN_OR_RETURN(const bool ready, recv_ring_.WaitCqe(deadline_ns - now, syscalls_));
    if (!ready) {
      return false;
    }
  }
}

}  // namespace millipage
