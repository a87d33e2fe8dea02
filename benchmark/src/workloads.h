// The benchmark's three workloads. Each builds its inputs from the seed,
// sets the system up (timed, several times), drives it for the requested
// number of seconds, checks every answer against an exact reference, and
// returns either the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).

#ifndef ALAE_BENCHMARK_SRC_WORKLOADS_H_
#define ALAE_BENCHMARK_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "benchmark/src/ledger.h"

namespace alae {
namespace ledger {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct RunResult {
  bool correct = true;
  std::string mismatch;         // first wrong answer, when !correct
  OpCounts ops;                 // every timed-phase operation
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
  std::vector<std::string> notes;  // human-readable context for stderr
};

// "long_dna", "short_wire", "live_rw".
const std::vector<std::string>& WorkloadNames();

// Runs one workload. `ok` is false (and the result meaningless) when the
// name is unknown or the system could not be set up.
RunResult RunWorkload(const RunOptions& options, bool* ok);

}  // namespace ledger
}  // namespace alae

#endif  // ALAE_BENCHMARK_SRC_WORKLOADS_H_
