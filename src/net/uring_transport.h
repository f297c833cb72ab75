// io_uring transport: the same AF_UNIX SOCK_SEQPACKET mesh as
// SocketTransport, but driven through two io_uring rings so the hot paths
// shed their per-datagram syscall tax (ROADMAP item 2(c)):
//
//   * Receive — one multishot IORING_OP_RECVMSG per connection, armed once,
//     delivering every incoming datagram into a registered buffer ring
//     (IORING_REGISTER_PBUF_RING). Draining a burst of N datagrams costs
//     zero syscalls when completions are already posted, and one
//     io_uring_enter(GETEVENTS) when the poller has to block.
//   * Send — SQEs are prepped under the send lock and released with a single
//     io_uring_enter. Inside a BeginBurst/EndBurst window (the coalescer's
//     flush path) the enter is deferred so N frames submit as one syscall.
//
// FIFO per (sender, receiver) is preserved by construction: each message is
// one SQE (header) or two IOSQE_IO_LINK-chained SQEs (header then payload),
// and at most one chain per destination is in flight at a time; everything
// else waits in a per-destination user-space queue. io_uring makes no
// cross-SQE ordering promise otherwise — two unlinked sends to the same
// socket can complete in either order — so the queue, not the ring, is the
// ordering authority.
//
// Not every kernel has multishot RECVMSG + buffer rings (6.0+). Create()
// probes at runtime; callers go through MakeMeshTransport (transport
// factory) which falls back to SocketTransport, mirroring the
// userfaultfd-to-SIGSEGV fault-backend fallback.

#ifndef SRC_NET_URING_TRANSPORT_H_
#define SRC_NET_URING_TRANSPORT_H_

#include <linux/io_uring.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/metrics.h"
#include "src/net/transport.h"

namespace millipage {

class UringTransport : public Transport {
 public:
  // `fds_by_peer[j]` is the SEQPACKET socket to host j (-1 at index `me`);
  // takes ownership of the fds (also on probe failure). Fails with
  // kUnavailable when the kernel lacks multishot RECVMSG or buffer rings.
  static Result<std::unique_ptr<UringTransport>> Create(HostId me,
                                                        std::vector<int> fds_by_peer);
  ~UringTransport() override;

  Status Send(HostId to, MsgHeader h, const void* payload, size_t len) override;
  Result<bool> Poll(HostId me, MsgHeader* h, const PayloadSink& sink,
                    uint64_t timeout_us) override;
  uint16_t num_hosts() const override { return static_cast<uint16_t>(fds_.size()); }

  void BeginBurst() override;
  void EndBurst() override;

  // One datagram must fit one ring buffer; larger sends are rejected rather
  // than silently truncated on the receive side. Far above the protocol's
  // ≤4 KiB minipage payloads.
  static constexpr size_t kMaxDatagramBytes = 64 * 1024;

  // Runtime capability probe against a scratch ring (no fds at risk); used
  // by UringTransportSupported(), which caches the answer.
  static bool ProbeSupport();

 private:
  // A raw-syscall io_uring instance (the container has no liburing; the ring
  // ABI is stable and small enough to drive directly).
  struct Ring {
    int fd = -1;
    uint32_t features = 0;
    // SQ (mmap'd).
    unsigned* sq_head = nullptr;
    unsigned* sq_tail = nullptr;
    unsigned* sq_array = nullptr;
    unsigned sq_mask = 0;
    unsigned sq_entries = 0;
    struct io_uring_sqe* sqes = nullptr;
    unsigned sq_local_tail = 0;  // our tail shadow; published to *sq_tail on submit
    // CQ (mmap'd).
    unsigned* cq_head = nullptr;
    unsigned* cq_tail = nullptr;
    unsigned cq_mask = 0;
    unsigned cq_entries = 0;
    struct io_uring_cqe* cqes = nullptr;
    // Mmap bookkeeping.
    void* ring_mem = nullptr;
    size_t ring_mem_len = 0;
    void* sqe_mem = nullptr;
    size_t sqe_mem_len = 0;

    Status Init(unsigned entries, unsigned cq_size);
    void Close();
    // Next free SQE, or nullptr when the SQ is full (submit first).
    struct io_uring_sqe* GetSqe();
    // Publishes prepped SQEs and enters the kernel.
    Status Submit(Counter* syscalls, Counter* submits, Histogram* batch);
    // Blocks for ≥1 completion (GETEVENTS), with an EXT_ARG timeout when
    // timeout_ns > 0. Returns false on timeout, true when CQEs may be ready.
    Result<bool> WaitCqe(uint64_t timeout_ns, Counter* syscalls);
    struct io_uring_cqe* PeekCqe();
    void AdvanceCqe();
  };

  // Shared pool of receive buffers, registered as one provided-buffer group
  // that every connection's multishot recv selects from.
  struct BufRing {
    struct io_uring_buf_ring* ring = nullptr;
    size_t ring_len = 0;
    std::byte* pool = nullptr;
    size_t pool_len = 0;
    unsigned entries = 0;
    unsigned buf_len = 0;
    unsigned short tail = 0;
    int free_bufs = 0;

    Status Init(Ring& r, unsigned entries, unsigned buf_len);
    void Recycle(unsigned short bid);
    std::byte* Buf(unsigned short bid) { return pool + static_cast<size_t>(bid) * buf_len; }
    void Destroy(Ring& r);
  };

  // One datagram owned by the transport until its CQE is reaped; user_data
  // on the send ring is a pointer to this.
  struct SendOp {
    uint16_t peer = 0;
    struct msghdr mh {};
    struct iovec iov {};
    std::vector<std::byte> data;
  };

  // Per-destination send state: the FIFO queue plus the in-flight chain.
  // Move-only so vector relocation never tries to copy the op queue.
  struct SendPeer {
    SendPeer() = default;
    SendPeer(SendPeer&&) = default;
    SendPeer& operator=(SendPeer&&) = default;
    std::deque<std::unique_ptr<SendOp>> queue;
    unsigned inflight = 0;  // CQEs outstanding for the submitted chain
    bool gone = false;
  };

  // Per-connection receive state for the two-datagram reassembly.
  struct RecvConn {
    int fd = -1;
    struct msghdr mh {};  // multishot recvmsg template (no iov; ring buffers)
    bool armed = false;
    bool open = false;
    bool have_header = false;
    MsgHeader header{};
  };

  UringTransport(HostId me, std::vector<int> fds_by_peer);
  Status InitRings();

  // --- send side (any thread, under send_mu_) ---
  Status EnqueueSend(uint16_t to, const MsgHeader& h, const void* payload, size_t len);
  // Submits the next chain for every peer with queued work and no chain in
  // flight. Returns the submit status (queue state is always consistent).
  Status PumpSendsLocked(bool allow_defer);
  void ReapSendCqesLocked(std::vector<HostId>* newly_dead);
  // Non-blocking progress from the poller so queued chains drain even when
  // no new Send arrives.
  void DrainSendsFromPoller();

  // --- recv side (poller thread only) ---
  Status ArmRecv(uint16_t conn_idx);
  void ArmAllIdleRecvs();
  // Handles one recv CQE; sets *delivered when a full message reached `h`.
  Status ConsumeRecvCqe(struct io_uring_cqe* cqe, MsgHeader* h, const PayloadSink& sink,
                        bool* delivered, std::vector<HostId>* newly_dead);
  void RetireConn(uint16_t conn_idx, std::vector<HostId>* newly_dead);

  HostId me_;
  std::vector<int> fds_;   // fds_[me_] is the send end of the self-loop
  int self_recv_fd_ = -1;  // receive end of the self-loop

  // Send ring + all send state, shared by app and server threads.
  std::mutex send_mu_;
  Ring send_ring_;
  std::vector<SendPeer> send_peers_;
  unsigned burst_depth_ = 0;  // BeginBurst nesting (under send_mu_)
  size_t inflight_ops_ = 0;   // total outstanding send CQEs

  // Recv ring + buffer ring, owned exclusively by the poller thread.
  Ring recv_ring_;
  BufRing buf_ring_;
  // recv_conns_[j] is the connection to host j; recv_conns_[me_] is the
  // self-loop's receive end. CQE user_data on the recv ring is the index.
  std::vector<RecvConn> recv_conns_;
  uint32_t rotation_ = 0;  // fairness cursor (poller thread only)

  // Process-global wire metrics (same names as SocketTransport) plus the
  // uring-specific submission counters the bench reads.
  Counter* msgs_sent_ = nullptr;
  Counter* msgs_recv_ = nullptr;
  Histogram* send_ns_ = nullptr;
  Histogram* send_bytes_ = nullptr;
  Histogram* recv_bytes_ = nullptr;
  Counter* syscalls_ = nullptr;        // net.syscalls — every kernel entry
  Counter* submits_ = nullptr;         // net.uring.submits
  Histogram* sqe_batch_ = nullptr;     // net.uring.sqe_batch — SQEs/enter
  Counter* recv_cqes_ = nullptr;       // net.uring.recv_cqes
};

}  // namespace millipage

#endif  // SRC_NET_URING_TRANSPORT_H_
