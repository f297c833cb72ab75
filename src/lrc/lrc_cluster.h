// In-process cluster for the LRC protocol: the in-process deployment
// (InProcCluster, src/dsm/cluster.h) over LrcNode. Every host has its own
// memory object/views/protections; application threads take real SIGSEGV
// faults; minipage masters live at their home hosts and diffs flow at
// synchronization points.

#ifndef SRC_LRC_LRC_CLUSTER_H_
#define SRC_LRC_LRC_CLUSTER_H_

#include "src/dsm/cluster.h"
#include "src/lrc/lrc_node.h"

namespace millipage {

using LrcCluster = InProcCluster<LrcNode>;
extern template class InProcCluster<LrcNode>;

// Thread-bound current LRC host (independent of the millipage binding).
LrcNode* CurrentLrcNode();

// Typed shared pointer resolving through the current LRC host.
template <typename T>
class LrcPtr {
 public:
  LrcPtr() = default;
  explicit LrcPtr(GlobalAddr a) : addr_(a) {}

  GlobalAddr addr() const { return addr_; }
  T* get() const { return reinterpret_cast<T*>(CurrentLrcNode()->AppPtr(addr_)); }
  T& operator*() const { return *get(); }
  T* operator->() const { return get(); }
  T& operator[](size_t i) const { return get()[i]; }

 private:
  GlobalAddr addr_{};
};

template <typename T>
LrcPtr<T> LrcAlloc(size_t count = 1) {
  Result<GlobalAddr> a = CurrentLrcNode()->SharedMalloc(count * sizeof(T));
  MP_CHECK(a.ok()) << a.status().ToString();
  return LrcPtr<T>(*a);
}

}  // namespace millipage

#endif  // SRC_LRC_LRC_CLUSTER_H_
