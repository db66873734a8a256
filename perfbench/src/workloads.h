// The workload entry points main.cc dispatches to. Each runs for about
// args.seconds and returns the end-to-end metrics, or with args.trace the
// per-layer metrics, of its workload.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <string>

#include "bench.h"

namespace perfbench {

// lcs m=16 over F128, paper parameters (rho=8, rho_lin=20), beta=8.
Report RunBatchLcs16(const RunArgs& args);

// Tenant threads of serve-lcs8. Each proves with PolyWorkers() = 1 thread,
// so tenants times workers stays within the host's cores.
inline constexpr size_t kServeTenants = 2;

// A zaatar-serve daemon (default light parameters) proving lcs/8 for
// kServeTenants closed-loop tenants. `daemon` is the zaatar-serve binary to
// launch, listening on the AF_UNIX path `socket`.
Report RunServeLcs8(const RunArgs& args, const std::string& daemon,
                    const std::string& socket);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
