#include "src/dsm/cluster.h"

namespace millipage {

void SetCurrentNode(DsmNode* node) { tls_current_node<DsmNode> = node; }

DsmNode* CurrentNode() {
  MP_CHECK(tls_current_node<DsmNode> != nullptr)
      << "no DSM host bound to this thread (use RunParallel/RunOnManager)";
  return tls_current_node<DsmNode>;
}

template class InProcCluster<DsmNode>;

}  // namespace millipage
