#include "benchmark/src/ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace alae {
namespace ledger {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail TailOf(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  if (n <= Tail::kMinBeyond) {
    tail.value = samples.back();
    return tail;
  }
  const double p = std::min(
      0.99, static_cast<double>(n - Tail::kMinBeyond) / static_cast<double>(n));
  // Nearest rank ceil(p*n), 1-based; the epsilon keeps (n-10)/n*n from
  // rounding up past n-10.
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n - Tail::kMinBeyond);
  tail.percentile = 100.0 * p;
  tail.value = samples[rank - 1];
  tail.beyond = n - rank;
  return tail;
}

void OpCounts::Record(const api::Status& status) {
  ++attempted;
  if (status.ok()) {
    ++ok;
  } else if (status.code() == api::StatusCode::kResourceExhausted) {
    ++refused;
  } else {
    ++failed;
  }
}

void OpCounts::Merge(const OpCounts& o) {
  attempted += o.attempted;
  ok += o.ok;
  failed += o.failed;
  refused += o.refused;
}

double OpCounts::FailedFrac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(not_ok()) /
                              static_cast<double>(attempted);
}

int64_t CoveredNanos(std::vector<Interval> intervals, Interval window) {
  for (Interval& iv : intervals) {
    iv.begin = std::max(iv.begin, window.begin);
    iv.end = std::min(iv.end, window.end);
  }
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  int64_t covered = 0;
  int64_t reach = window.begin;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.begin) continue;
    const int64_t from = std::max(iv.begin, reach);
    if (iv.end > from) {
      covered += iv.end - from;
      reach = iv.end;
    }
  }
  return covered;
}

std::vector<int64_t> SelfNanos(const std::vector<obs::TraceSpan>& spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < spans.size() &&
        static_cast<size_t>(parent) != i) {
      children[parent].push_back({spans[i].start_ns, spans[i].end_ns});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Interval own{spans[i].start_ns, spans[i].end_ns};
    self[i] = std::max<int64_t>(0, own.end - own.begin) -
              CoveredNanos(children[i], own);
  }
  return self;
}

std::vector<RenderedSpan> ParseRendered(const std::string& rendered) {
  std::vector<RenderedSpan> out;
  std::istringstream lines(rendered);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t indent = line.find_first_not_of(' ');
    const size_t colon = line.rfind(": ");
    if (indent == std::string::npos || colon == std::string::npos ||
        colon <= indent || line.size() < colon + 4 ||
        line.compare(line.size() - 2, 2, "us") != 0) {
      continue;
    }
    const std::string number = line.substr(colon + 2, line.size() - colon - 4);
    char* end = nullptr;
    const double micros = std::strtod(number.c_str(), &end);
    if (end == number.c_str() || *end != '\0') continue;
    out.push_back({static_cast<int>(indent / 2),
                   line.substr(indent, colon - indent), micros});
  }
  return out;
}

Answer Answer::Of(const std::vector<AlignmentHit>& hits) {
  // SplitMix64 finaliser chained over the fields; one flipped bit in any
  // hit changes the digest.
  auto mix = [](uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  Answer answer;
  answer.hits = hits.size();
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const AlignmentHit& hit : hits) {
    h = mix(h ^ static_cast<uint64_t>(hit.text_end));
    h = mix(h ^ static_cast<uint64_t>(hit.query_end));
    h = mix(h ^ static_cast<uint64_t>(static_cast<uint32_t>(hit.score)));
  }
  answer.digest = h;
  return answer;
}

std::string CompareAnswers(const Answer& served, const Answer& reference) {
  if (served == reference) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "served %llu hits (digest %016llx), reference %llu hits "
                "(digest %016llx)",
                static_cast<unsigned long long>(served.hits),
                static_cast<unsigned long long>(served.digest),
                static_cast<unsigned long long>(reference.hits),
                static_cast<unsigned long long>(reference.digest));
  return buf;
}

}  // namespace ledger
}  // namespace alae
