#include "src/check/sim_harness.h"

#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/dsm/node.h"
#include "src/net/sim_transport.h"
#include "src/os/fault_handler.h"
#include "src/os/protection.h"

namespace millipage {

namespace {

class SimRun {
 public:
  SimRun(uint64_t seed, const SimWorkload& w, std::vector<std::vector<SimOp>> script)
      : seed_(seed), workload_(w), script_(std::move(script)) {}

  SimResult Run();

 private:
  struct Worker {
    enum class State { kStartup, kIdle, kRunning, kDone, kFailed };

    std::thread thread;
    uint32_t next_op = 0;  // worker-thread only

    std::mutex mu;
    std::condition_variable cv;
    State state = State::kStartup;
    bool launch = false;
    bool exit_now = false;
    uint32_t slot = 0;  // wait slot, fixed once state leaves kStartup
    Status failure;
  };

  struct Region {
    uintptr_t base = 0;
    size_t len = 0;
    DsmNode* node = nullptr;
    uint32_t view = 0;
  };

  static bool FaultTrampoline(void* ctx, void* addr, bool is_write) {
    return static_cast<SimRun*>(ctx)->DispatchFault(addr, is_write);
  }

  bool DispatchFault(void* addr, bool is_write) {
    const auto a = reinterpret_cast<uintptr_t>(addr);
    for (const Region& r : regions_) {
      if (a >= r.base && a < r.base + r.len) {
        return r.node->OnFault(r.view, a - r.base, is_write);
      }
    }
    return false;  // not ours: fall through to the default handler
  }

  Status Setup();
  void WorkerMain(uint16_t h);
  bool ExecuteOp(uint16_t h, const SimOp& op, Status* failure);
  // Performs the cell access, pre-faulting through FaultService when host
  // death is enabled so a lost minipage surfaces as a skipped op instead of
  // an unservable SIGSEGV. Returns false (with *failure set) on a protocol
  // error other than loss.
  bool AccessCell(uint16_t h, uint32_t cell, bool is_write, Status* failure);
  // Blocks until worker h is in a stable state: idle/done/failed, or running
  // but provably parked in a wait slot. Returns the observed state.
  Worker::State AwaitStable(uint16_t h);
  void Teardown();

  const uint64_t seed_;
  const SimWorkload workload_;
  const std::vector<std::vector<SimOp>> script_;

  TraceSink trace_;
  std::unique_ptr<SimNet> net_;
  std::vector<std::unique_ptr<DsmNode>> nodes_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<Region> regions_;
  int fault_slot_ = -1;
  bool uffd_mode_ = false;  // views actually bound to the uffd backend

  // Written by the host-0 worker during kAlloc, read by every worker after
  // the first barrier (the barrier's semaphores order the accesses).
  std::vector<GlobalAddr> cell_addr_;
  std::vector<uint64_t> write_seq_;  // per host, worker-thread only
};

Status SimRun::Setup() {
  MP_CHECK(script_.size() == workload_.hosts) << "one script per host required";
  DsmConfig config;
  config.num_hosts = workload_.hosts;
  config.object_size = 1 << 20;
  config.num_views = std::max<uint32_t>(8, workload_.cells);
  // Wall-clock deadlines are the one nondeterministic input the harness
  // cannot schedule; disable them. Deadlocks are caught by the driver
  // instead (no deliverable message, every worker parked).
  config.request_timeout_ms = 0;
  config.sync_timeout_ms = 0;
  config.trace = &trace_;
  config.manager_policy = workload_.policy;
  config.batch_coherence = workload_.batch_coherence;
  config.fault_backend = workload_.backend;

  // Install the backend before any node exists: each ViewSet binds to the
  // backend active at creation (with runtime fallback to sigsegv).
  MP_RETURN_IF_ERROR(FaultHandler::Instance().Install(config.fault_backend));

  net_ = std::make_unique<SimNet>(workload_.hosts, seed_);
  nodes_.reserve(workload_.hosts);
  for (uint16_t h = 0; h < workload_.hosts; ++h) {
    MP_ASSIGN_OR_RETURN(std::unique_ptr<DsmNode> node,
                        DsmNode::Create(config, h, net_->endpoint(h)));
    nodes_.push_back(std::move(node));
  }
  for (auto& node : nodes_) {
    ViewSet& vs = node->views();
    for (uint32_t v = 0; v < vs.num_app_views(); ++v) {
      regions_.push_back(Region{reinterpret_cast<uintptr_t>(vs.app_base(v)),
                                vs.object_size(), node.get(), v});
    }
  }
  uffd_mode_ = !nodes_.empty() &&
               nodes_[0]->views().fault_backend() == FaultBackend::kUserfaultfd;
  fault_slot_ = FaultHandler::Instance().Register(&FaultTrampoline, this);
  if (fault_slot_ < 0) {
    return Status::Exhausted("no free fault-handler slots");
  }

  cell_addr_.resize(workload_.cells);
  write_seq_.assign(workload_.hosts, 0);
  workers_.reserve(workload_.hosts);
  for (uint16_t h = 0; h < workload_.hosts; ++h) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (uint16_t h = 0; h < workload_.hosts; ++h) {
    workers_[h]->thread = std::thread([this, h] { WorkerMain(h); });
  }
  return Status::Ok();
}

void SimRun::WorkerMain(uint16_t h) {
  Worker& w = *workers_[h];
  const uint32_t slot = nodes_[h]->ThreadSlot();
  {
    std::lock_guard<std::mutex> lock(w.mu);
    w.slot = slot;
    w.state = script_[h].empty() ? Worker::State::kDone : Worker::State::kIdle;
    w.cv.notify_all();
  }
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(w.mu);
      w.cv.wait(lock, [&w] { return w.launch || w.exit_now; });
      if (w.exit_now) {
        return;
      }
      // The driver already moved state to kRunning when it issued the
      // launch, so it can never see a stale kIdle and double-launch.
      w.launch = false;
    }
    const SimOp& op = script_[h][w.next_op];
    Status failure;
    const bool ok = ExecuteOp(h, op, &failure);
    w.next_op++;
    std::lock_guard<std::mutex> lock(w.mu);
    if (!ok) {
      w.failure = failure;
      w.state = Worker::State::kFailed;
      w.cv.notify_all();
      return;
    }
    w.state = w.next_op == script_[h].size() ? Worker::State::kDone : Worker::State::kIdle;
    w.cv.notify_all();
    if (w.state == Worker::State::kDone) {
      return;
    }
  }
}

bool SimRun::ExecuteOp(uint16_t h, const SimOp& op, Status* failure) {
  DsmNode& node = *nodes_[h];
  switch (op.kind) {
    case SimOpKind::kAlloc:
      for (uint32_t c = 0; c < workload_.cells; ++c) {
        Result<GlobalAddr> a = node.SharedMalloc(sizeof(uint64_t));
        if (!a.ok()) {
          *failure = a.status();
          return false;
        }
        cell_addr_[c] = *a;
        // One minipage per cell: close the aggregation chunk between cells.
        node.CloseChunk();
      }
      return true;
    case SimOpKind::kBarrier:
      if (Status st = node.TryBarrier(); !st.ok()) {
        *failure = st;
        return false;
      }
      return true;
    case SimOpKind::kRead:
      return AccessCell(h, op.cell, /*is_write=*/false, failure);
    case SimOpKind::kWrite:
      return AccessCell(h, op.cell, /*is_write=*/true, failure);
    case SimOpKind::kLockedRmw:
      if (Status st = node.TryLock(op.cell); !st.ok()) {
        *failure = st;
        return false;
      }
      if (!AccessCell(h, op.cell, /*is_write=*/false, failure) ||
          !AccessCell(h, op.cell, /*is_write=*/true, failure)) {
        node.Unlock(op.cell);
        return false;
      }
      node.Unlock(op.cell);
      return true;
  }
  return true;
}

bool SimRun::AccessCell(uint16_t h, uint32_t cell, bool is_write, Status* failure) {
  const GlobalAddr a = cell_addr_[cell];
  DsmNode& node = *nodes_[h];
  if (workload_.kill_one_host || uffd_mode_) {
    // With host death in play a fault can end in "minipage lost" — an error
    // the SIGSEGV path cannot absorb (the access itself is unservable). Call
    // the fault service explicitly first: on loss, skip the op without
    // recording an application event, so the coherence oracle never sees a
    // read of vanished data.
    //
    // Under the uffd backend the pre-fault is a determinism requirement: a
    // worker blocked inside a kernel minor/WP fault never reaches a wait
    // slot, so the driver could not tell "parked" from "wedged", and the
    // poller thread would race the seeded scheduler. Pre-faulting keeps
    // every pte present before the access, so no uffd event ever fires.
    const Protection p =
        node.views().GetVpageProtection(a.view, a.offset / PageSize());
    const bool sufficient =
        is_write ? p == Protection::kReadWrite : p != Protection::kNoAccess;
    if (!sufficient) {
      const Status st = node.FaultService(a.view, a.offset, is_write);
      if (st.code() == StatusCode::kNotFound) {
        return true;  // the cell died with its host: per-cell skip
      }
      if (!st.ok()) {
        *failure = st;
        return false;
      }
    }
  }
  auto* p = reinterpret_cast<volatile uint64_t*>(node.AppPtr(a));
  if (is_write) {
    // Unique nonzero values (host tag + per-host sequence) make the
    // coherence oracle's "which write did this read observe" unambiguous.
    const uint64_t v = (static_cast<uint64_t>(h + 1) << 32) | ++write_seq_[h];
    *p = v;  // may fault into the protocol
    trace_.Emit(TraceEventKind::kAppWrite, h, ~0u, a.Pack(), v, cell);
  } else {
    const uint64_t v = *p;  // may fault into the protocol
    trace_.Emit(TraceEventKind::kAppRead, h, ~0u, a.Pack(), v, cell);
  }
  return true;
}

SimRun::Worker::State SimRun::AwaitStable(uint16_t h) {
  Worker& w = *workers_[h];
  for (;;) {
    Worker::State st;
    uint32_t slot;
    {
      std::lock_guard<std::mutex> lock(w.mu);
      st = w.state;
      slot = w.slot;
    }
    if (st != Worker::State::kRunning && st != Worker::State::kStartup) {
      return st;
    }
    if (st == Worker::State::kRunning && nodes_[h]->WaiterBlocked(slot)) {
      return Worker::State::kRunning;  // parked in a wait slot: stable
    }
    ::usleep(20);
  }
}

SimResult SimRun::Run() {
  SimResult res;
  if (Status st = Setup(); !st.ok()) {
    res.status = st;
    Teardown();
    return res;
  }
  // The driver's own choices (launch vs deliver, which host) draw from a
  // stream independent of the fabric's latency draws.
  Rng drv(seed_ * 0x9e3779b97f4a7c15ULL + 1);
  // Host-death injection: seeded victim and step, fired once the victim's
  // worker is between ops (a worker parked mid-op would be stranded on an
  // access that can never complete).
  const bool kill_enabled = workload_.kill_one_host && workload_.hosts > 1;
  HostId victim = 0;
  uint64_t kill_step = 0;
  bool killed = false;
  if (kill_enabled) {
    MP_CHECK(workload_.policy == ManagerPolicy::kSharded)
        << "kill_one_host needs sharded managers (centralized death is sticky)";
    victim = static_cast<HostId>(1 + seed_ % (workload_.hosts - 1));
    Rng kill_rng(seed_ ^ 0x6b696c6cULL);
    kill_step = kill_rng.Below(300);
  }
  constexpr uint64_t kMaxSteps = 2'000'000;
  for (;;) {
    std::vector<uint16_t> launchable;
    size_t done = 0;
    size_t parked = 0;
    bool victim_between_ops = false;
    Status failure;
    for (uint16_t h = 0; h < workload_.hosts; ++h) {
      switch (AwaitStable(h)) {
        case Worker::State::kIdle:
          if (killed && h == victim) {
            done++;  // dead host: the rest of its script never runs
          } else {
            launchable.push_back(h);
          }
          if (h == victim) {
            victim_between_ops = true;
          }
          break;
        case Worker::State::kDone:
          done++;
          if (h == victim) {
            victim_between_ops = true;
          }
          break;
        case Worker::State::kRunning:
          parked++;
          break;
        case Worker::State::kFailed:
          if (failure.ok()) {
            std::lock_guard<std::mutex> lock(workers_[h]->mu);
            failure = workers_[h]->failure;
          }
          break;
        case Worker::State::kStartup:
          MP_LOG(Fatal) << "worker still starting after AwaitStable";
          break;
      }
    }
    if (!failure.ok()) {
      res.status = failure;
      // Other workers may still be parked in wait slots mid-op; without an
      // abort they would never return to their launch loop and Teardown's
      // join would hang the whole process.
      for (auto& node : nodes_) {
        node->AbortWaiters(Status::Unavailable("sim run aborted: a worker failed"));
      }
      break;
    }
    // The seeded step picks the kill point; a run too short to reach it
    // still kills at the end, so every kill_one_host run exercises recovery.
    const bool run_finishing =
        launchable.empty() && parked == 0 && net_->pending() == 0;
    if (kill_enabled && !killed && victim_between_ops &&
        (res.steps >= kill_step || run_finishing)) {
      // The kill: the fabric silences the victim (in-flight datagrams die
      // with it), then each survivor's detector verdict is injected and its
      // recovery run synchronously, in host order — one deterministic
      // recovery schedule per seed. Survivor workers parked on requests to
      // the dead host are kicked by the epoch bump and re-send.
      net_->KillHost(victim);
      for (uint16_t s = 0; s < workload_.hosts; ++s) {
        if (s == victim) {
          continue;
        }
        nodes_[s]->InjectPeerDeath(victim);
        nodes_[s]->ProcessPendingDeaths();
      }
      killed = true;
      res.killed = true;
      res.killed_host = victim;
      res.kill_virtual_us = net_->now_us();
      res.steps++;
      continue;  // re-evaluate worker stability under the new membership
    }
    const bool deliverable = net_->pending() > 0;
    const size_t n_candidates = launchable.size() + (deliverable ? 1 : 0);
    if (n_candidates == 0) {
      if (parked > 0) {
        fprintf(stderr,
                "[sim] DEADLOCK seed=%llu step=%llu: %zu worker(s) parked, no "
                "deliverable message\n",
                (unsigned long long)seed_, (unsigned long long)res.steps, parked);
        for (auto& node : nodes_) {
          fprintf(stderr, "[sim]   %s\n", node->LivenessReport().c_str());
          node->AbortWaiters(Status::Unavailable("simulated schedule deadlocked"));
        }
        res.status = Status::Unavailable("deadlock: workers parked with no message");
      }
      break;  // done == hosts: success
    }
    if (res.steps >= kMaxSteps) {
      res.status = Status::Exhausted("livelock: driver step budget exhausted");
      for (auto& node : nodes_) {
        node->AbortWaiters(Status::Exhausted("simulated schedule livelocked"));
      }
      break;
    }
    const size_t pick = n_candidates == 1 ? 0 : drv.Below(n_candidates);
    if (pick < launchable.size()) {
      Worker& w = *workers_[launchable[pick]];
      std::lock_guard<std::mutex> lock(w.mu);
      w.launch = true;
      w.state = Worker::State::kRunning;
      w.cv.notify_all();
    } else {
      HostId dst = 0;
      MP_CHECK(net_->ScheduleNext(&dst));
      nodes_[dst]->PumpOne();
    }
    res.steps++;
  }
  res.virtual_us = net_->now_us();
  if (killed) {
    for (uint16_t h = 0; h < workload_.hosts; ++h) {
      if (h != victim) {
        res.minipages_lost += nodes_[h]->minipages_lost();
      }
    }
  }
  for (auto& node : nodes_) {
    const HostCounters c = node->counters();
    res.batch_frames += c.batch_frames_sent;
    res.batch_records += c.batch_records_sent;
  }
  Teardown();
  res.history = trace_.Snapshot();
  return res;
}

void SimRun::Teardown() {
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->exit_now = true;
      w->cv.notify_all();
    }
    if (w->thread.joinable()) {
      w->thread.join();
    }
  }
  workers_.clear();
  if (fault_slot_ >= 0) {
    FaultHandler::Instance().Unregister(fault_slot_);
    fault_slot_ = -1;
  }
  nodes_.clear();
  net_.reset();
}

}  // namespace

std::vector<std::vector<SimOp>> GenerateScript(uint64_t seed, const SimWorkload& w) {
  Rng rng(seed);
  std::vector<std::vector<SimOp>> script(w.hosts);
  // Allocation runs alone on host 0, then a barrier publishes the layout
  // before any host touches shared memory.
  script[0].push_back(SimOp{SimOpKind::kAlloc, 0});
  for (uint16_t h = 0; h < w.hosts; ++h) {
    script[h].push_back(SimOp{SimOpKind::kBarrier, 0});
  }
  for (uint32_t round = 0; round < w.rounds; ++round) {
    for (uint16_t h = 0; h < w.hosts; ++h) {
      for (uint32_t i = 0; i < w.ops_per_round; ++i) {
        SimOp op;
        op.cell = static_cast<uint32_t>(rng.Below(w.cells));
        const uint64_t die = rng.Below(10);
        if (w.use_locks && die == 0) {
          op.kind = SimOpKind::kLockedRmw;
        } else if (die < 5) {
          op.kind = SimOpKind::kRead;
        } else {
          op.kind = SimOpKind::kWrite;
        }
        script[h].push_back(op);
      }
    }
    for (uint16_t h = 0; h < w.hosts; ++h) {
      script[h].push_back(SimOp{SimOpKind::kBarrier, 0});
    }
  }
  return script;
}

SimResult RunScript(uint64_t seed, const SimWorkload& workload,
                    const std::vector<std::vector<SimOp>>& script) {
  SimRun run(seed, workload, script);
  return run.Run();
}

SimResult RunSim(uint64_t seed, const SimWorkload& workload) {
  return RunScript(seed, workload, GenerateScript(seed, workload));
}

}  // namespace millipage
