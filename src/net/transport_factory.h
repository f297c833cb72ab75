// Transport backend selection for the multi-process (SEQPACKET mesh) mode,
// mirroring the fault-backend pattern in src/os/fault_handler.h: an enum in
// the config, an env override for test matrices, and a runtime
// probe-and-fallback so a binary built with io_uring support still runs on a
// kernel without it.

#ifndef SRC_NET_TRANSPORT_FACTORY_H_
#define SRC_NET_TRANSPORT_FACTORY_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/net/transport.h"

namespace millipage {

enum class TransportBackend : uint8_t {
  kSocket = 0,  // poll(2) + per-datagram sendmsg/recvmsg (works everywhere)
  kUring = 1,   // io_uring multishot receive + batched submission (6.0+)
};

const char* TransportBackendName(TransportBackend backend);

// MILLIPAGE_TRANSPORT=uring|socket; anything else (or unset) is kSocket.
TransportBackend TransportBackendFromEnv();

// True when the running kernel supports everything UringTransport needs
// (multishot RECVMSG, provided-buffer rings, EXT_ARG waits). Cached.
bool UringTransportSupported();

struct MeshTransport {
  std::unique_ptr<Transport> transport;
  TransportBackend active = TransportBackend::kSocket;  // what actually runs
};

// Builds the mesh transport for host `me`, honouring `requested` with
// fallback: a uring request on an unsupported kernel logs once and returns a
// SocketTransport (the DSM must come up either way — same contract as the
// userfaultfd-to-SIGSEGV fallback). Takes ownership of the fds.
MeshTransport MakeMeshTransport(TransportBackend requested, HostId me,
                                std::vector<int> fds_by_peer);

}  // namespace millipage

#endif  // SRC_NET_TRANSPORT_FACTORY_H_
