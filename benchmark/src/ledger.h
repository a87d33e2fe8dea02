// The benchmark's own arithmetic, kept apart from the workloads so its
// rules are unit-tested: the tail-percentile rule, failure accounting,
// span self time and coverage, the answer digest the correctness gate
// compares, and parsing of the scheduler's rendered span trees.

#ifndef ALAE_BENCHMARK_SRC_LEDGER_H_
#define ALAE_BENCHMARK_SRC_LEDGER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/align/result.h"
#include "src/api/status.h"
#include "src/obs/trace.h"

namespace alae {
namespace ledger {

// Median of `samples` (mean of the two middle values for an even count);
// 0 for an empty sample.
double Median(std::vector<double> samples);

// The tail figure the benchmark reports: the highest percentile that still
// has at least `kMinBeyond` samples strictly above its rank, capped at the
// 99th. With n samples the percentile is min(0.99, (n - 10) / n) and the
// value is the nearest-rank sample there, so the sample count never has to
// hit a fixed ladder step and the figure moves smoothly with n.
struct Tail {
  static constexpr size_t kMinBeyond = 10;
  double percentile = 0;  // in [0, 99]; 0 when there are too few samples
  double value = 0;       // the sample at that rank (max when too few)
  size_t beyond = 0;      // samples ranked above it
  size_t samples = 0;
};
Tail TailOf(std::vector<double> samples);

// Operation accounting for failed_frac: every operation attempted ends
// ok, failed, or refused (shed with kResourceExhausted); failed and
// refused both count against the run.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;

  void Record(const api::Status& status);
  void Merge(const OpCounts& o);
  uint64_t not_ok() const { return failed + refused; }
  double FailedFrac() const;
};

// Half-open nanosecond interval.
struct Interval {
  int64_t begin = 0;
  int64_t end = 0;
};

// Length of the union of `intervals` clipped to `window`.
int64_t CoveredNanos(std::vector<Interval> intervals, Interval window);

// Self time of every span in a trace: its duration minus the part of its
// interval that its direct children cover (children may overlap each
// other — parallel slice executes — and are counted once). Indexed like
// `spans`.
std::vector<int64_t> SelfNanos(const std::vector<obs::TraceSpan>& spans);

// One line of obs::Trace::Render(): nesting depth, span name, duration.
struct RenderedSpan {
  int depth = 0;
  std::string name;
  double micros = 0;
};
// Parses a rendered span tree (the slow-query log's format). Lines that
// do not match `<indent><name>: <float>us` are skipped.
std::vector<RenderedSpan> ParseRendered(const std::string& rendered);

// Correctness gate. A served answer is kept as its hit count and a 64-bit
// digest of every hit's end pair and score in delivery order, so the
// benchmark's own memory does not grow with the number of requests it
// serves (which would make peak RSS track throughput).
struct Answer {
  uint64_t hits = 0;
  uint64_t digest = 0;

  static Answer Of(const std::vector<AlignmentHit>& hits);
  bool operator==(const Answer& o) const = default;
};

// Empty when the answers match, otherwise a one-line description.
std::string CompareAnswers(const Answer& served, const Answer& reference);

}  // namespace ledger
}  // namespace alae

#endif  // ALAE_BENCHMARK_SRC_LEDGER_H_
