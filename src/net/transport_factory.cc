#include "src/net/transport_factory.h"

#include <cstdlib>
#include <cstring>

#include "src/common/logging.h"
#include "src/net/socket_transport.h"
#include "src/net/uring_transport.h"

namespace millipage {

const char* TransportBackendName(TransportBackend backend) {
  switch (backend) {
    case TransportBackend::kSocket:
      return "socket";
    case TransportBackend::kUring:
      return "uring";
  }
  return "unknown";
}

TransportBackend TransportBackendFromEnv() {
  const char* env = std::getenv("MILLIPAGE_TRANSPORT");
  if (env != nullptr && (std::strcmp(env, "uring") == 0 || std::strcmp(env, "io_uring") == 0)) {
    return TransportBackend::kUring;
  }
  return TransportBackend::kSocket;
}

MeshTransport MakeMeshTransport(TransportBackend requested, HostId me,
                                std::vector<int> fds_by_peer) {
  MeshTransport out;
  if (requested == TransportBackend::kUring) {
    if (UringTransportSupported()) {
      Result<std::unique_ptr<UringTransport>> t =
          UringTransport::Create(me, std::move(fds_by_peer));
      if (t.ok()) {
        out.transport = std::move(*t);
        out.active = TransportBackend::kUring;
        return out;
      }
      // Create consumed the fds; this is a hard error, not a fallback case
      // (the probe said the kernel is fine). Surface loudly.
      MP_LOG(Error) << "uring transport init failed after positive probe: "
                    << t.status().ToString();
      out.transport = nullptr;
      return out;
    }
    static bool warned = false;
    if (!warned) {
      warned = true;
      MP_LOG(Warning) << "MILLIPAGE_TRANSPORT=uring requested but kernel lacks io_uring "
                      "multishot receive / buffer rings; falling back to socket transport";
    }
  }
  out.transport = std::make_unique<SocketTransport>(me, std::move(fds_by_peer));
  out.active = TransportBackend::kSocket;
  return out;
}

}  // namespace millipage
