#include "batch.h"
#include "workloads.h"

namespace perfbench {

Report RunBatchLcs16(const RunArgs& args) {
  return RunBatchWorkload(zaatar::MakeLcsApp(16), PcpParams{}, 8, args);
}

}  // namespace perfbench
