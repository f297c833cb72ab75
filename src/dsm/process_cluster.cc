#include "src/dsm/process_cluster.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "src/common/logging.h"
#include "src/dsm/global_ptr.h"
#include "src/net/socket_transport.h"
#include "src/net/transport_factory.h"
#include "src/os/fault_handler.h"

namespace millipage {

namespace {

struct ChildFaultCtx {
  DsmNode* node = nullptr;
};

bool ChildFaultTrampoline(void* ctx, void* addr, bool is_write) {
  DsmNode* node = static_cast<ChildFaultCtx*>(ctx)->node;
  uint32_t view;
  uint64_t offset;
  if (!node->views().Resolve(addr, &view, &offset)) {
    return false;
  }
  return node->OnFault(view, offset, is_write);
}

[[noreturn]] void ChildMain(const DsmConfig& config, HostId me, std::vector<int> fds,
                            const std::function<void(DsmNode&, HostId)>& fn) {
  // The factory honours config.transport_backend with runtime fallback: a
  // uring request on a kernel without multishot receive still comes up on
  // the socket backend (mirroring the fault-backend fallback below).
  MeshTransport mesh_transport =
      MakeMeshTransport(config.transport_backend, me, std::move(fds));
  if (mesh_transport.transport == nullptr) {
    MP_LOG(Error) << "host " << me << ": transport init failed";
    _exit(2);
  }
  Transport& transport = *mesh_transport.transport;
  // Pin the backend BEFORE any view registers. A descriptor inherited from
  // the parent is bound to the parent's address space; Install opens this
  // process's own.
  MP_CHECK_OK(FaultHandler::Instance().Install(config.fault_backend));
  Result<std::unique_ptr<DsmNode>> node = DsmNode::Create(config, me, &transport);
  if (!node.ok()) {
    MP_LOG(Error) << "host " << me << ": " << node.status().ToString();
    _exit(2);
  }
  static ChildFaultCtx fault_ctx;
  fault_ctx.node = node->get();
  const int slot = FaultHandler::Instance().Register(&ChildFaultTrampoline, &fault_ctx);
  MP_CHECK(slot >= 0);
  (*node)->Start();

  SetCurrentNode(node->get());
  fn(**node, me);
  // Keep serving until every host is done with the protocol. A liveness
  // failure here (peer dead, release lost) means the cluster cannot finish:
  // report it and self-terminate with a distinct code so the parent (and
  // chaos tests) can tell detection-and-exit apart from a watchdog sweep.
  const Status barrier_st = (*node)->TryBarrier();
  SetCurrentNode(nullptr);
  if (!barrier_st.ok()) {
    MP_LOG(Error) << "host " << me << ": final barrier failed: " << barrier_st.ToString();
    (*node)->Stop();
    FaultHandler::Instance().Unregister(slot);
    std::fflush(nullptr);
    _exit(kLivenessExitCode);
  }
  // Past the final barrier every peer is done; their connections closing is
  // normal teardown, not a failure.
  (*node)->BeginShutdown();
  // Give fire-and-forget traffic (lock releases, final acks) a moment to
  // drain before the server thread goes away.
  ::usleep(20 * 1000);
  (*node)->Stop();
  FaultHandler::Instance().Unregister(slot);
  std::fflush(nullptr);  // _exit skips stdio flush
  _exit(0);
}

}  // namespace

Status RunForkedCluster(const DsmConfig& config,
                        const std::function<void(DsmNode&, HostId)>& fn,
                        uint64_t timeout_ms, std::vector<HostOutcome>* outcomes) {
  if (outcomes != nullptr) {
    outcomes->assign(config.num_hosts, HostOutcome{});
  }
  MP_ASSIGN_OR_RETURN(SocketMesh mesh, SocketMesh::Create(config.num_hosts));
  std::vector<pid_t> pids;
  pids.reserve(config.num_hosts);
  for (uint16_t h = 0; h < config.num_hosts; ++h) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      Status st = Status::Errno("fork");
      for (pid_t p : pids) {
        ::kill(p, SIGKILL);
      }
      return st;
    }
    if (pid == 0) {
      std::vector<int> row = mesh.TakeRow(h);
      ChildMain(config, h, std::move(row), fn);  // never returns
    }
    pids.push_back(pid);
  }
  mesh.CloseAll();

  // Watchdog wait: a host that dies mid-protocol leaves its peers blocked at
  // a barrier, so once any child fails (or the deadline passes) the rest are
  // killed and the run is reported as failed.
  Status result = Status::Ok();
  std::vector<bool> done(config.num_hosts, false);
  uint16_t remaining = config.num_hosts;
  const uint64_t deadline_ms = timeout_ms == 0 ? 120000 : timeout_ms;
  uint64_t waited_ms = 0;
  bool any_failed = false;
  while (remaining > 0) {
    bool reaped = false;
    for (uint16_t h = 0; h < config.num_hosts; ++h) {
      if (done[h]) {
        continue;
      }
      int wstatus = 0;
      const pid_t r = ::waitpid(pids[h], &wstatus, WNOHANG);
      if (r == 0) {
        continue;
      }
      done[h] = true;
      remaining--;
      reaped = true;
      if (outcomes != nullptr) {
        HostOutcome& o = (*outcomes)[h];
        o.exited = r > 0;
        o.signaled = r > 0 && WIFSIGNALED(wstatus);
        o.exit_code = (r > 0 && WIFEXITED(wstatus)) ? WEXITSTATUS(wstatus) : 0;
        o.term_signal = o.signaled ? WTERMSIG(wstatus) : 0;
        o.reaped_at_ms = waited_ms;
      }
      if (r < 0) {
        result = Status::Errno("waitpid");
        any_failed = true;
      } else if (WIFSIGNALED(wstatus)) {
        result = Status::Internal("host " + std::to_string(h) + " killed by signal " +
                                  std::to_string(WTERMSIG(wstatus)));
        any_failed = true;
      } else if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) != 0) {
        result = Status::Internal("host " + std::to_string(h) + " exited with status " +
                                  std::to_string(WEXITSTATUS(wstatus)));
        any_failed = true;
      }
    }
    if (remaining == 0) {
      break;
    }
    if (reaped) {
      continue;
    }
    // Give survivors a grace period after a failure; then sweep them.
    const uint64_t budget_ms = any_failed ? std::min<uint64_t>(deadline_ms, 2000) : deadline_ms;
    if (waited_ms >= budget_ms) {
      for (uint16_t h = 0; h < config.num_hosts; ++h) {
        if (!done[h]) {
          ::kill(pids[h], SIGKILL);
        }
      }
      if (result.ok()) {
        result = Status::Internal("forked cluster timed out after " +
                                  std::to_string(waited_ms) + " ms");
      }
      // Final blocking reap of the killed children.
      for (uint16_t h = 0; h < config.num_hosts; ++h) {
        if (!done[h]) {
          int wstatus = 0;
          const pid_t r = ::waitpid(pids[h], &wstatus, 0);
          if (outcomes != nullptr) {
            HostOutcome& o = (*outcomes)[h];
            o.exited = r > 0;
            o.signaled = r > 0 && WIFSIGNALED(wstatus);
            o.exit_code = (r > 0 && WIFEXITED(wstatus)) ? WEXITSTATUS(wstatus) : 0;
            o.term_signal = o.signaled ? WTERMSIG(wstatus) : 0;
            o.swept = true;
            o.reaped_at_ms = waited_ms;
          }
          done[h] = true;
          remaining--;
        }
      }
      break;
    }
    ::usleep(5000);
    waited_ms += 5;
  }
  return result;
}

}  // namespace millipage
