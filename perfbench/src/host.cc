#include "host.h"

#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

// A dependent chain the compiler cannot fold or vectorize away.
uint64_t Spin(uint64_t iterations) {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double TimeSpinners(int threads, uint64_t iterations) {
  std::vector<uint64_t> sinks(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  const Clock::time_point start = Clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back(
        [&sinks, t, iterations] { sinks[static_cast<size_t>(t)] = Spin(iterations); });
  }
  for (std::thread& w : workers) w.join();
  const double seconds = SecondsSince(start);
  uint64_t folded = 0;
  for (const uint64_t s : sinks) folded ^= s;
  if (folded == 42) std::fprintf(stderr, " ");  // keep the result live
  return seconds;
}

double ProcStatusMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::stod(line.substr(len + 1)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace

int OnlineCpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double EffectiveCores(int threads) {
  constexpr uint64_t kIterations = 40'000'000;
  // Best of three for each side: calibration wants the host's capacity,
  // not a momentary stall.
  double one = 1e9;
  double many = 1e9;
  for (int round = 0; round < 3; ++round) {
    one = std::min(one, TimeSpinners(1, kIterations));
    many = std::min(many, TimeSpinners(threads, kIterations));
  }
  return many > 0 ? static_cast<double>(threads) * one / many : 0.0;
}

double RssMb() { return ProcStatusMb("VmRSS"); }
double PeakRssMb() { return ProcStatusMb("VmHWM"); }

std::string FilesystemOf(const std::string& path) {
  struct statfs fs = {};
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlay";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(fs.f_type));
      return buf;
    }
  }
}

void RecordHostContext(const std::string& work_dir, Ledger* ledger) {
  ledger->Context("host.nproc", OnlineCpus());
  ledger->Context("host.compiler", __VERSION__);
  ledger->Context("host.build_type", PERFBENCH_BUILD_TYPE);
  ledger->Context("host.filesystem", FilesystemOf(work_dir));
  ledger->Context("flush_policy", "fsync before ack");
}

}  // namespace perfbench
