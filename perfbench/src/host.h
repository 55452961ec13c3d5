#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

// Host facts printed with every result, so numbers from different machines
// are never compared by accident.

#include <string>

#include "ledger.h"

namespace perfbench {

// Online CPUs as the scheduler reports them.
int OnlineCpus();

// Spin-loop calibration: the same fixed amount of arithmetic is run on one
// thread and then on `threads` threads at once; effective cores is
// threads * t(1) / t(threads). On a host whose CPUs are shared or
// throttled this reads well below OnlineCpus().
double EffectiveCores(int threads);

// Resident set now and its peak, in MiB (from /proc/self/status).
double RssMb();
double PeakRssMb();

// Filesystem type of `path` (ext4, xfs, tmpfs, overlay, ...).
std::string FilesystemOf(const std::string& path);

// nproc, compiler, build type, flush policy and filesystem of the working
// directory, as context entries.
void RecordHostContext(const std::string& work_dir, Ledger* ledger);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
