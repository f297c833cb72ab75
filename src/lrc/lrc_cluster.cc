#include "src/lrc/lrc_cluster.h"

namespace millipage {

LrcNode* CurrentLrcNode() {
  MP_CHECK(tls_current_node<LrcNode> != nullptr) << "no LRC host bound to this thread";
  return tls_current_node<LrcNode>;
}

template class InProcCluster<LrcNode>;

}  // namespace millipage
