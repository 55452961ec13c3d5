#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "ledger.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  // Length of the measured phase.
  double seconds = 10.0;
  // Per-layer run: queries carry TkLusQuery::trace and the ledger gets the
  // layer metrics; otherwise the end-to-end metrics.
  bool trace = false;
  // Corpus-size multiplier; 1 is the benchmark, the self-check shrinks it.
  double scale = 1.0;
  // How many times set-up is repeated (setup_s is their median).
  int setup_reps = 3;
  // Parent of every engine working directory the run creates.
  std::string work_dir;
};

// Runs one workload end to end and records its metrics, context and
// answer checks into `ledger`. Returns false for an unknown workload name.
bool RunWorkload(const RunConfig& config, Ledger* ledger);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
