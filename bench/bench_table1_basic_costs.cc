// Table 1 reproduction: cost of the basic operations of the millipage DSM
// protocol, measured on the live primitives. Paper numbers are from a
// 300 MHz Pentium II + Myrinet/FastMessages under Windows NT; absolute
// values on modern hardware differ, the *ordering* (header messages and
// protection changes are cheap, data messages scale with size) must hold.

#include <atomic>

#include "bench/bench_util.h"
#include "src/common/logging.h"
#include "src/multiview/allocator.h"
#include "src/multiview/minipage.h"
#include "src/multiview/view_set.h"
#include "src/net/inproc_transport.h"
#include "src/net/socket_transport.h"
#include "src/os/fault_handler.h"
#include "src/os/page.h"

namespace millipage {
namespace {

// Prints the console row and mirrors it into the JSON report.
void Row(BenchReporter& reporter, const std::string& label, double us, int iters,
         const char* paper) {
  PrintRow(label, us, paper);
  reporter.AddUs(label, "", us, static_cast<uint64_t>(iters));
}

// --- access fault: full SIGSEGV round trip with a minimal handler ---------

struct FaultBenchCtx {
  Mapping* mapping = nullptr;
};

bool FlipProtection(void* ctx_raw, void* addr, bool) {
  auto* ctx = static_cast<FaultBenchCtx*>(ctx_raw);
  if (!ctx->mapping->Contains(addr)) {
    return false;
  }
  return ctx->mapping->ProtectAll(Protection::kReadWrite).ok();
}

double MeasureAccessFaultUs(int iters) {
  MP_CHECK_OK(FaultHandler::Instance().Install(FaultBackend::kSigsegv));
  auto m = Mapping::MapAnonymous(PageSize(), Protection::kNoAccess);
  MP_CHECK(m.ok());
  FaultBenchCtx ctx;
  ctx.mapping = &*m;
  const int slot = FaultHandler::Instance().Register(&FlipProtection, &ctx);
  MP_CHECK(slot >= 0);
  volatile int* p = reinterpret_cast<volatile int*>(m->base());
  const double us = MeasureUs(
      [&] {
        MP_CHECK_OK(m->ProtectAll(Protection::kNoAccess));
        (void)*p;  // faults; handler re-enables access
      },
      iters);
  FaultHandler::Instance().Unregister(slot);
  // Subtract the mprotect the loop body adds on top of the fault itself.
  const double protect_us =
      MeasureUs([&] { MP_CHECK_OK(m->ProtectAll(Protection::kNoAccess)); }, iters);
  return us - protect_us;
}

// --- messaging costs -------------------------------------------------------

template <typename MakePair>
void MeasureMessaging(BenchReporter& reporter, int iters, const char* tag, MakePair make) {
  auto pair = make();
  Transport& a = *pair.first;
  Transport& b = *pair.second;
  std::vector<std::byte> buf(4096);
  const PayloadSink sink = [&buf](const MsgHeader&) { return buf.data(); };

  auto round_trip = [&](size_t payload) {
    MsgHeader h;
    h.set_type(MsgType::kReadReply);
    MP_CHECK_OK(a.Send(1, h, payload > 0 ? buf.data() : nullptr, payload));
    MsgHeader got;
    auto polled = b.Poll(1, &got, sink, 1000000);
    MP_CHECK(polled.ok() && *polled);
  };

  Row(reporter, std::string(tag) + " header message send/recv (32 bytes)",
      MeasureUs([&] { round_trip(0); }, iters), iters, "12");
  Row(reporter, std::string(tag) + " data message send/recv (0.5 KB)",
      MeasureUs([&] { round_trip(512); }, iters), iters, "22");
  Row(reporter, std::string(tag) + " data message send/recv (1 KB)",
      MeasureUs([&] { round_trip(1024); }, iters), iters, "34");
  Row(reporter, std::string(tag) + " data message send/recv (4 KB)",
      MeasureUs([&] { round_trip(4096); }, iters), iters, "90");
}

}  // namespace
}  // namespace millipage

int main(int argc, char** argv) {
  using namespace millipage;
  const BenchEnv env = BenchEnv::Parse(argc, argv);
  BenchReporter reporter("bench_table1_basic_costs", env);
  PrintHeader("Table 1: cost of basic operations in millipage");

  const int fault_iters = env.Scaled(2000, 100);
  Row(reporter, "access fault (SIGSEGV round trip)", MeasureAccessFaultUs(fault_iters),
      fault_iters, "26");

  // Protection operations on a view set (shadow get, mprotect set).
  auto vs = ViewSet::Create(64 * PageSize(), 8);
  MP_CHECK(vs.ok());
  Minipage mp;
  mp.view = 3;
  mp.offset = 5 * PageSize() + 128;
  mp.length = 256;
  const int get_iters = env.Scaled(100000, 2000);
  Row(reporter, "get protection (shadow table)",
      MeasureUs([&] { (void)(*vs)->GetProtection(mp); }, get_iters), get_iters, "7");
  std::atomic<int> flip{0};
  const int set_iters = env.Scaled(20000, 1000);
  Row(reporter, "set protection (mprotect one vpage)",
      MeasureUs(
          [&] {
            const Protection p = (flip.fetch_add(1) & 1) ? Protection::kReadOnly
                                                         : Protection::kReadWrite;
            MP_CHECK_OK((*vs)->SetProtection(mp, p));
          },
          set_iters),
      set_iters, "12");

  const int msg_iters = env.Scaled(3000, 200);
  {
    auto shared = std::make_shared<InProcTransport>(2);
    MeasureMessaging(reporter, msg_iters, "in-proc:",
                     [&] { return std::make_pair(shared, shared); });
  }
  {
    auto mesh = SocketMesh::Create(2);
    MP_CHECK(mesh.ok());
    std::vector<int> row0 = std::move(mesh->fds[0]);
    std::vector<int> row1 = std::move(mesh->fds[1]);
    mesh->fds.clear();
    auto t0 = std::make_shared<SocketTransport>(0, std::move(row0));
    auto t1 = std::make_shared<SocketTransport>(1, std::move(row1));
    MeasureMessaging(reporter, msg_iters, "socket: ",
                     [&] { return std::make_pair(t0, t1); });
  }

  // MPT lookup at realistic table sizes.
  for (const size_t minipages : {1000UL, env.smoke() ? 10000UL : 100000UL}) {
    MinipageTable mpt;
    MinipageAllocator alloc(&mpt, minipages * 512, 16);
    for (size_t i = 0; i < minipages; ++i) {
      MP_CHECK(alloc.Allocate(256).ok());
    }
    uint64_t probe = 0;
    const int lookup_iters = env.Scaled(100000, 5000);
    const double us = MeasureUs(
        [&] {
          const Minipage* found =
              mpt.Lookup(static_cast<uint32_t>(probe % 16), (probe * 7919) % (minipages * 256));
          (void)found;
          probe++;
        },
        lookup_iters);
    Row(reporter, "minipage translation (MPT, " + std::to_string(minipages) + " entries)", us,
        lookup_iters, "7");
  }

  // The socket rows above ran through the instrumented transport; attach the
  // process-global snapshot so the JSON shows the net.* distributions too.
  reporter.AttachMetrics(MetricsRegistry::Global().Snapshot());

  PrintNote("shape check: header < data(0.5K) < data(1K) < data(4K); get < set protection");
  return reporter.Finish();
}
