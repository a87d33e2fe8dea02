#include "benchmark/src/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "src/api/api.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/service.h"
#include "src/sim/generator.h"
#include "src/sim/workload.h"
#include "src/stats/karlin.h"
#include "src/util/timer.h"

namespace alae {
namespace ledger {
namespace {

using Clock = std::chrono::steady_clock;

// Pool workers match the four cores of the box the benchmark was sized on;
// load comes from at most four generator threads (and four connections).
// Every other knob is the library default, or serve_main's where the
// library has none.
constexpr int kWorkers = 4;
constexpr int kLoadThreads = 4;
constexpr int kSetupRepeats = 5;
constexpr double kEValue = 10.0;         // the paper's default E (§7)
constexpr int32_t kShortThreshold = 20;  // serve_main --threshold default
constexpr int kShards = 8;
constexpr int64_t kShardedText = 2'000'000;
constexpr int64_t kLiveBase = 1 << 20;

// live_rw's open-loop rates (per second) and document size.
constexpr double kReadRate = 100;
constexpr double kAppendRate = 4;
constexpr double kDeleteRate = 1;
constexpr int64_t kDocLength = 4000;
constexpr size_t kLivePool = 1024;  // > the 256-entry response cache

double Seconds(int64_t nanos) { return static_cast<double>(nanos) * 1e-9; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Runs fn(0..n-1) on kLoadThreads threads.
void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kLoadThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

// Sleeps until `due` seconds after `start`.
void SleepUntil(Clock::time_point start, double due) {
  std::this_thread::sleep_until(
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(due)));
}

double SinceSeconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Inputs. Everything below is a pure function of the seed.
// ---------------------------------------------------------------------------

uint64_t Stream(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream;
}

// DNA text with planted repeat families (the repository's standard
// genomic stand-in, ~15% repeats).
Sequence MakeText(uint64_t seed, int64_t n) {
  WorkloadSpec spec;
  spec.text_length = n;
  spec.num_queries = 0;
  spec.seed = seed;
  return BuildWorkload(spec).text;
}

api::SearchRequest Request(Sequence query, int32_t threshold) {
  api::SearchRequest request;
  request.query = std::move(query);
  request.threshold = threshold;
  return request;
}

// long_dna query lengths: 1-2.5 kbp (the default 4096 overlap holds
// Theorem 1's span up to ~2.7 kbp).
constexpr int64_t kLongMin = 1000, kLongMax = 2500;

// One long query: homologous (half the query copied from the text at 30%
// divergence, 1% indels) or random, threshold from E=10.
api::SearchRequest LongQuery(SequenceGenerator* gen, const Sequence& text,
                             int64_t m, bool homologous) {
  Sequence query = homologous
                       ? gen->HomologousQuery(text, m, 0.5, 0.30, 0.01)
                       : gen->Random(m, text.alphabet());
  const int32_t threshold = KarlinStats::EValueToThreshold(
      kEValue, m, static_cast<int64_t>(text.size()), ScoringScheme::Default(),
      text.sigma());
  return Request(std::move(query), threshold);
}

// Warm-up: the shortest and longest length, which between them carry
// every threshold (and so every q-gram length) the timed queries use.
std::vector<api::SearchRequest> LongWarmup(uint64_t seed, const Sequence& text) {
  SequenceGenerator gen(seed);
  std::vector<api::SearchRequest> out;
  out.push_back(LongQuery(&gen, text, kLongMin, true));
  out.push_back(LongQuery(&gen, text, kLongMax, false));
  return out;
}

// Timed queries, in blocks of eight that hold one length from each eighth
// of the range, homologous and random alternating, so any prefix the
// timed phase consumes keeps an even mix and the latency median moves
// smoothly with the length distribution.
std::vector<api::SearchRequest> LongQueries(uint64_t seed, const Sequence& text,
                                            size_t count) {
  constexpr int64_t kBlock = 8, kStep = (kLongMax - kLongMin) / kBlock;
  SequenceGenerator gen(seed);
  Rng& rng = gen.rng();
  std::vector<api::SearchRequest> out;
  while (out.size() < count) {
    std::vector<int64_t> lengths(kBlock);
    for (int64_t j = 0; j < kBlock; ++j) {
      lengths[j] = kLongMin + kStep * j + rng.Range(0, kStep - 1);
    }
    for (size_t i = lengths.size() - 1; i > 0; --i) {
      std::swap(lengths[i], lengths[rng.Below(i + 1)]);
    }
    for (int64_t j = 0; j < kBlock; ++j) {
      out.push_back(LongQuery(&gen, text, lengths[j], j % 2 == 0));
    }
  }
  out.resize(count);
  return out;
}

// Short queries: 64-150 bp. 80% follow serve_main's sampled-query model
// (70% of the query copied from the text in 50 bp segments at 15%
// divergence and 2% indels), so they return hits; 20% are random and
// return none.
std::vector<api::SearchRequest> ShortQueries(uint64_t seed,
                                             const Sequence& text,
                                             size_t count) {
  SequenceGenerator gen(seed);
  std::vector<api::SearchRequest> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const int64_t m = gen.rng().Range(64, 150);
    Sequence query = gen.rng().Bernoulli(0.2)
                         ? gen.Random(m, text.alphabet())
                         : gen.HomologousQuery(text, m, 0.7, 0.15, 0.02);
    out.push_back(Request(std::move(query), kShortThreshold));
  }
  return out;
}

service::SchedulerOptions Scheduling(obs::MetricsRegistry* registry) {
  service::SchedulerOptions options;
  options.threads = kWorkers;
  options.registry = registry;
  return options;
}

service::ShardedCorpusOptions EightShards(int64_t n) {
  service::ShardedCorpusOptions options;  // default overlap
  options.shard_size = n / kShards + 2 * options.overlap + 1;
  return options;
}

// Runs `setup` kSetupRepeats times (tearing down between runs, untimed)
// and returns the median duration; the last setup stays live.
double TimeSetup(const std::function<void()>& teardown,
                 const std::function<bool()>& setup, bool* ok) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    teardown();
    Timer timer;
    if (!setup()) {
      *ok = false;
      return 0;
    }
    seconds.push_back(timer.ElapsedSeconds());
  }
  return Median(seconds);
}

// ---------------------------------------------------------------------------
// Correctness gate and the paper's ratios.
// ---------------------------------------------------------------------------

struct Served {
  const api::SearchRequest* request;  // into the workload's query list
  Answer answer;
};

struct Reference {
  bool correct = true;
  std::string mismatch;
  std::vector<api::EngineStats> stats;  // BWT-SW, per served query
};

// Recomputes every served answer with BWT-SW on the unsharded text.
Reference CheckAgainstBwtSw(const api::Aligner& bwtsw,
                            const std::vector<Served>& served) {
  Reference ref;
  ref.stats.resize(served.size());
  std::mutex mu;
  size_t first_bad = served.size();
  ParallelFor(served.size(), [&](size_t i) {
    api::StatusOr<api::SearchResponse> answer =
        bwtsw.Search(*served[i].request);
    std::string diff =
        answer.ok() ? CompareAnswers(served[i].answer, Answer::Of(answer->hits))
                    : "reference failed: " + answer.status().ToString();
    if (answer.ok()) ref.stats[i] = answer->stats;
    if (!diff.empty()) {
      std::lock_guard<std::mutex> lock(mu);
      if (i < first_bad) {
        first_bad = i;
        ref.mismatch = "query " + std::to_string(i) + " (m=" +
                       std::to_string(served[i].request->query.size()) +
                       "): " + diff;
      }
    }
  });
  ref.correct = first_bad == served.size();
  return ref;
}

// Per-layer engine figures from direct calls below the service: the
// request's plan compiled on slice 0's aligner and executed on every
// slice's aligner in turn, plus ALAE vs BWT-SW on the unsharded text.
struct CoreLedger {
  size_t requests = 0;
  double engine_s = 0;
  DpCounters counters;
  uint64_t anchors = 0;
  double alae_s = 0;
  double bwtsw_s = 0;
  DpCounters alae_unsharded;
  DpCounters bwtsw_unsharded;
};

CoreLedger ProbeCore(const service::CorpusSource& source,
                     const api::Aligner& alae_unsharded,
                     const std::vector<Served>& served, const Reference& ref,
                     double budget_s) {
  CoreLedger core;
  const service::CorpusView view = source.Snapshot();
  std::vector<const api::Aligner*> aligners;
  for (const service::ShardSlice& slice : view.slices) {
    api::StatusOr<const api::Aligner*> aligner = slice.aligner_for("alae");
    if (!aligner.ok()) return core;
    aligners.push_back(*aligner);
  }
  const api::HitSink discard = [](const AlignmentHit&) { return true; };
  Timer budget;
  for (const Served& s : served) {
    if (budget.ElapsedSeconds() > budget_s) break;
    api::StatusOr<std::unique_ptr<api::QueryPlan>> plan =
        aligners[0]->Compile(*s.request);
    if (!plan.ok()) break;
    for (const api::Aligner* aligner : aligners) {
      api::EngineStats stats;
      Timer timer;
      if (!aligner->Search(**plan, discard, &stats).ok()) break;
      core.engine_s += timer.ElapsedSeconds();
      core.counters.Merge(stats.counters);
      core.anchors += stats.anchors_considered;
    }
    ++core.requests;
  }
  // The same queries through both exact engines at the same parallelism:
  // BWT-SW's runs are the correctness reference's.
  std::mutex mu;
  ParallelFor(core.requests, [&](size_t i) {
    api::EngineStats stats;
    if (!alae_unsharded.Search(*served[i].request, discard, &stats).ok()) return;
    std::lock_guard<std::mutex> lock(mu);
    core.alae_s += stats.seconds;
    core.alae_unsharded.Merge(stats.counters);
    core.bwtsw_s += ref.stats[i].seconds;
    core.bwtsw_unsharded.Merge(ref.stats[i].counters);
  });
  return core;
}

// ---------------------------------------------------------------------------
// Span ledger.
// ---------------------------------------------------------------------------

struct SpanLedger {
  size_t traces = 0;
  double admit_s = 0, compile_s = 0, queue_s = 0, execute_s = 0,
         execute_critical_s = 0, merge_s = 0, serialize_s = 0,
         search_self_s = 0, tasks = 0;
  // Wall time the stage spans cover, and the client-side wall it is
  // measured against (plus, on the wire, the net layer's share).
  double covered_s = 0;
  size_t clients = 0;
  double client_s = 0;
  double net_overhead_s = 0;

  // A caller-owned trace with full intervals: the client span
  // [client_begin, client_end) wraps the scheduler's span tree.
  void AddTrace(const obs::Trace& trace, int64_t client_begin,
                int64_t client_end) {
    const std::vector<obs::TraceSpan> spans = trace.Spans();
    const std::vector<int64_t> self = SelfNanos(spans);
    std::vector<Interval> stages;
    double critical = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const obs::TraceSpan& span = spans[i];
      const double d = Seconds(span.end_ns - span.start_ns);
      if (span.name == "search") {
        search_self_s += Seconds(self[i]);
        continue;
      }
      stages.push_back({span.start_ns, span.end_ns});
      if (span.name == "admit") admit_s += d;
      if (span.name == "compile") compile_s += d;
      if (span.name == "queue") queue_s += d;
      if (span.name == "merge") merge_s += d;
      if (span.name == "execute") {
        execute_s += d;
        critical = std::max(critical, d);
        tasks += 1;
      }
    }
    execute_critical_s += critical;
    covered_s += Seconds(CoveredNanos(stages, {client_begin, client_end}));
    ++traces;
    ++clients;
    client_s += Seconds(client_end - client_begin);
  }

  // A tree rendered by the scheduler's sampler (durations only): stage
  // coverage is the sequential critical path admit -> compile -> queue ->
  // slowest execute, capped at the search span.
  void AddRendered(const std::vector<RenderedSpan>& spans) {
    double search = 0, stage = 0, critical = 0;
    for (const RenderedSpan& span : spans) {
      const double d = span.micros * 1e-6;
      if (span.depth == 0 && span.name == "search") search = d;
      if (span.name == "serialize") serialize_s += d;
      if (span.depth != 1) continue;
      if (span.name == "admit") admit_s += d;
      if (span.name == "compile") compile_s += d;
      if (span.name == "queue") queue_s += d;
      if (span.name == "merge") merge_s += d;
      if (span.name == "admit" || span.name == "compile" ||
          span.name == "queue" || span.name == "merge") {
        stage += d;
      }
      if (span.name == "execute") {
        execute_s += d;
        critical = std::max(critical, d);
        tasks += 1;
      }
    }
    execute_critical_s += critical;
    const double cover = std::min(search, stage + critical);
    covered_s += cover;
    search_self_s += search - cover;
    ++traces;
  }

  void Merge(const SpanLedger& o) {
    traces += o.traces;
    admit_s += o.admit_s;
    compile_s += o.compile_s;
    queue_s += o.queue_s;
    execute_s += o.execute_s;
    execute_critical_s += o.execute_critical_s;
    merge_s += o.merge_s;
    serialize_s += o.serialize_s;
    search_self_s += o.search_self_s;
    tasks += o.tasks;
    covered_s += o.covered_s;
    clients += o.clients;
    client_s += o.client_s;
    net_overhead_s += o.net_overhead_s;
  }

  double UnattributedFrac() const {
    if (traces == 0 || clients == 0 || client_s <= 0) return 0;
    const double per_client = client_s / static_cast<double>(clients);
    const double attributed = covered_s / static_cast<double>(traces) +
                              net_overhead_s / static_cast<double>(clients);
    return 1.0 - attributed / per_client;
  }
};

// Everything the traced run reports; absent layers stay 0.
struct Layers {
  SpanLedger spans;
  CoreLedger core;
  double phase_wall_s = 0;
  double traced_share = 0;  // of the timed phase's requests or wall time
  double net_overhead_ms = 0;
  double bytes_out_per_req = 0;
  double response_hit_ratio = 0;
  double fragment_hit_ratio = 0;
  double shed_frac = 0;
  double compactions = 0;
  double compaction_s = 0;
  double compaction_pause_ms = 0;
  double deltas_mean = 0;
  double tombstone_filtered_per_req = 0;
  double append_p50_ms = 0;
  double append_tail_ms = 0;
  double lateness_tail_ms = 0;
  double trace_overhead_frac = 0;
};

double PerTrace(const SpanLedger& s, double total_s) {
  return s.traces == 0 ? 0 : 1e3 * total_s / static_cast<double>(s.traces);
}

std::vector<Metric> PerLayerMetrics(const Layers& l) {
  const SpanLedger& s = l.spans;
  const CoreLedger& c = l.core;
  const double reqs = static_cast<double>(c.requests);
  auto per_req = [&](double v) { return Ratio(v, reqs); };
  const double cost = static_cast<double>(c.counters.ComputationCost());
  const uint64_t fork_candidates = c.counters.forks_opened +
                                   c.counters.forks_skipped_domination +
                                   c.counters.forks_skipped_bitset;
  return {
      {"net.overhead_ms", "ms", l.net_overhead_ms},
      {"net.bytes_out_per_req", "B", l.bytes_out_per_req},
      {"net.serialize_ms", "ms", PerTrace(s, s.serialize_s)},
      {"service.admit_ms", "ms", PerTrace(s, s.admit_s)},
      {"service.queue_ms", "ms", PerTrace(s, s.queue_s)},
      {"service.execute_ms", "ms", PerTrace(s, s.execute_s)},
      {"service.execute_critical_ms", "ms", PerTrace(s, s.execute_critical_s)},
      {"service.merge_ms", "ms", PerTrace(s, s.merge_s)},
      {"service.search_self_ms", "ms", PerTrace(s, s.search_self_s)},
      {"service.tasks_per_req", "count",
       Ratio(s.tasks, static_cast<double>(s.traces))},
      {"service.pool.busy_frac", "ratio",
       Ratio(s.execute_s, l.phase_wall_s * kWorkers * l.traced_share)},
      {"service.shed_frac", "ratio", l.shed_frac},
      {"api.compile_ms", "ms", PerTrace(s, s.compile_s)},
      {"service.cache.response_hit_ratio", "ratio", l.response_hit_ratio},
      {"service.cache.fragment_hit_ratio", "ratio", l.fragment_hit_ratio},
      {"service.live.compactions", "count", l.compactions},
      {"service.live.compaction_s", "s", l.compaction_s},
      {"service.live.compaction_pause_ms", "ms", l.compaction_pause_ms},
      {"service.live.deltas_mean", "count", l.deltas_mean},
      {"service.live.tombstone_filtered_per_req", "count",
       l.tombstone_filtered_per_req},
      {"service.live.append_p50_ms", "ms", l.append_p50_ms},
      {"service.live.append_tail_ms", "ms", l.append_tail_ms},
      {"load.lateness_tail_ms", "ms", l.lateness_tail_ms},
      {"core.engine_ms", "ms", 1e3 * per_req(c.engine_s)},
      {"core.trie_nodes_per_req", "count",
       per_req(static_cast<double>(c.counters.trie_nodes_visited))},
      {"core.forks_per_req", "count",
       per_req(static_cast<double>(c.counters.forks_opened))},
      {"core.anchors_per_req", "count",
       per_req(static_cast<double>(c.anchors))},
      {"core.domination_skip_ratio", "ratio",
       Ratio(static_cast<double>(c.counters.forks_skipped_domination),
             static_cast<double>(fork_candidates))},
      {"core.reuse_ratio", "ratio",
       Ratio(static_cast<double>(c.alae_unsharded.reused),
             static_cast<double>(c.alae_unsharded.Accessed()))},
      {"core.filter_ratio", "ratio",
       Ratio(static_cast<double>(c.alae_unsharded.Calculated()),
             static_cast<double>(c.bwtsw_unsharded.Calculated()))},
      {"core.cost_ratio_vs_bwtsw", "ratio",
       Ratio(static_cast<double>(c.alae_unsharded.ComputationCost()),
             static_cast<double>(c.bwtsw_unsharded.ComputationCost()))},
      {"core.speedup_vs_bwtsw", "ratio", Ratio(c.bwtsw_s, c.alae_s)},
      {"align.cells_per_req", "count",
       per_req(static_cast<double>(c.counters.Calculated()))},
      {"align.cost_per_req", "count", per_req(cost)},
      {"align.ns_per_cost", "ns", Ratio(c.engine_s * 1e9, cost)},
      {"index.fm_extends_per_req", "count",
       per_req(static_cast<double>(c.counters.fm_extends))},
      {"index.fm_extend_alls_per_req", "count",
       per_req(static_cast<double>(c.counters.fm_extend_alls))},
      {"index.fm_lf_steps_per_req", "count",
       per_req(static_cast<double>(c.counters.fm_lf_steps))},
      {"index.fm_text_steps_per_req", "count",
       per_req(static_cast<double>(c.counters.fm_text_steps))},
      {"trace.unattributed_frac", "ratio", s.UnattributedFrac()},
      {"trace_overhead_frac", "ratio", l.trace_overhead_frac},
  };
}

// What the untraced run reports. Latencies in seconds.
struct EndToEnd {
  double setup_s = 0;
  std::vector<double> latencies;
  double index_bpc = 0;
  double peak_rss_mb = 0;
};

std::vector<Metric> EndToEndMetrics(const EndToEnd& e, double wall_s,
                                    std::vector<std::string>* notes) {
  const Tail tail = TailOf(e.latencies);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "latency_tail_ms is p%.2f: %zu of %zu samples beyond it",
                tail.percentile, tail.beyond, tail.samples);
  notes->push_back(buf);
  return {
      {"setup_s", "s", e.setup_s},
      {"latency_p50_ms", "ms", 1e3 * Median(e.latencies)},
      {"latency_tail_ms", "ms", 1e3 * tail.value},
      {"throughput_qps", "1/s",
       Ratio(static_cast<double>(e.latencies.size()), wall_s)},
      {"index_bytes_per_char", "B", e.index_bpc},
      {"peak_rss_mb", "MiB", e.peak_rss_mb},
  };
}

uint64_t CounterValue(obs::MetricsRegistry& registry, const std::string& name) {
  return registry.GetCounter(name)->Value();
}

// Scheduler cache and shed figures from a private registry, as deltas
// from `before` (a snapshot taken when the timed phase began).
struct SchedulerCounters {
  uint64_t response_hits = 0, response_misses = 0, fragment_hits = 0,
           fragment_misses = 0, sheds = 0, bytes_out = 0;

  static SchedulerCounters Read(obs::MetricsRegistry& r) {
    SchedulerCounters c;
    c.response_hits = CounterValue(r, "alae_scheduler_response_cache_hits_total");
    c.response_misses =
        CounterValue(r, "alae_scheduler_response_cache_misses_total");
    c.fragment_hits = CounterValue(r, "alae_scheduler_fragment_cache_hits_total");
    c.fragment_misses =
        CounterValue(r, "alae_scheduler_fragment_cache_misses_total");
    c.sheds = CounterValue(r, "alae_scheduler_shed_total");
    c.bytes_out = CounterValue(r, "alae_net_bytes_out_total");
    return c;
  }
  void Add(const SchedulerCounters& o) {
    response_hits += o.response_hits;
    response_misses += o.response_misses;
    fragment_hits += o.fragment_hits;
    fragment_misses += o.fragment_misses;
    sheds += o.sheds;
    bytes_out += o.bytes_out;
  }
  SchedulerCounters Minus(const SchedulerCounters& o) const {
    return {response_hits - o.response_hits, response_misses - o.response_misses,
            fragment_hits - o.fragment_hits, fragment_misses - o.fragment_misses,
            sheds - o.sheds, bytes_out - o.bytes_out};
  }
  void AddTo(Layers* l, uint64_t requests) const {
    l->response_hit_ratio =
        Ratio(static_cast<double>(response_hits),
              static_cast<double>(response_hits + response_misses));
    l->fragment_hit_ratio =
        Ratio(static_cast<double>(fragment_hits),
              static_cast<double>(fragment_hits + fragment_misses));
    l->shed_frac = Ratio(static_cast<double>(sheds),
                         static_cast<double>(requests));
    l->bytes_out_per_req = Ratio(static_cast<double>(bytes_out),
                                 static_cast<double>(requests));
  }
};

double TraceOverhead(const std::vector<double>& traced,
                     const std::vector<double>& untraced) {
  const double base = Median(untraced);
  return base > 0 ? Median(traced) / base - 1.0 : 0.0;
}

// Common tail of every workload, run once the timed phase is over and peak
// RSS has been read: builds the reference over the final unsharded text,
// checks every served answer, probes the core layer (traced run), and
// fills in the metrics the run reports.
void Finish(const Sequence& text, const service::CorpusSource& source,
            const std::vector<Served>& served, const RunOptions& options,
            const EndToEnd& e2e, Layers* layers, RunResult* result) {
  api::AlignerRegistry reference(text);
  api::StatusOr<std::unique_ptr<api::Aligner>> bwtsw =
      reference.Create("bwt-sw");
  api::StatusOr<std::unique_ptr<api::Aligner>> alae = reference.Create("alae");
  if (!bwtsw.ok() || !alae.ok()) {
    result->correct = false;
    result->mismatch = "cannot build the reference aligners";
    return;
  }
  Reference ref = CheckAgainstBwtSw(**bwtsw, served);
  result->correct = ref.correct;
  result->mismatch = ref.mismatch;
  result->notes.push_back("checked " + std::to_string(served.size()) +
                          " answers against bwt-sw on the unsharded text");
  if (options.trace) {
    layers->core =
        ProbeCore(source, **alae, served, ref, options.seconds / 2);
    result->notes.push_back("core probe over " +
                            std::to_string(layers->core.requests) + " queries");
    result->metrics = PerLayerMetrics(*layers);
  } else {
    result->metrics =
        EndToEndMetrics(e2e, layers->phase_wall_s, &result->notes);
  }
}

// ---------------------------------------------------------------------------
// long_dna: one closed-loop client, in-process buffered Search.
// ---------------------------------------------------------------------------

RunResult RunLongDna(const RunOptions& options, bool* ok) {
  RunResult result;
  const Sequence text = MakeText(Stream(options.seed, 0), kShardedText);
  const std::vector<api::SearchRequest> warm =
      LongWarmup(Stream(options.seed, 1), text);
  const std::vector<api::SearchRequest> timed = LongQueries(
      Stream(options.seed, 2), text,
      static_cast<size_t>(std::ceil(options.seconds * 40)) + 8);

  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<service::ShardedCorpus> corpus;
  std::unique_ptr<service::QueryScheduler> scheduler;
  const double setup_s = TimeSetup(
      [&] {
        scheduler.reset();
        corpus.reset();
        registry = std::make_unique<obs::MetricsRegistry>();
      },
      [&] {
        auto built = service::ShardedCorpus::Build(text, EightShards(kShardedText));
        if (!built.ok()) return false;
        corpus = std::move(built).value();
        scheduler = std::make_unique<service::QueryScheduler>(
            *corpus, Scheduling(registry.get()));
        for (const api::SearchRequest& request : warm) {
          if (!scheduler->Search("alae", request).ok()) return false;
        }
        return true;
      },
      ok);
  if (!*ok) return result;

  Layers layers;
  const SchedulerCounters before = SchedulerCounters::Read(*registry);
  std::vector<double> latencies, traced, untraced;
  std::vector<Served> served;
  const Clock::time_point start = Clock::now();
  size_t i = 0;
  for (; i < timed.size() && SinceSeconds(start) < options.seconds; ++i) {
    api::SearchRequest request = timed[i];
    obs::Trace trace;
    // Pairs alternate, so traced and untraced requests see the same
    // homologous/random mix (which alternates request by request).
    const bool traced_request = options.trace && i % 4 >= 2;
    if (traced_request) request.trace = &trace;
    const int64_t begin = obs::Trace::NowNanos();
    api::StatusOr<api::SearchResponse> response =
        scheduler->Search("alae", request);
    const int64_t end = obs::Trace::NowNanos();
    result.ops.Record(response.status());
    if (!response.ok()) continue;
    const double latency = Seconds(end - begin);
    latencies.push_back(latency);
    (traced_request ? traced : untraced).push_back(latency);
    if (traced_request) layers.spans.AddTrace(trace, begin, end);
    served.push_back({&timed[i], Answer::Of(response->hits)});
  }
  layers.phase_wall_s = SinceSeconds(start);
  if (i == timed.size()) {
    result.notes.push_back("query pool exhausted before the time ran out");
  }
  SchedulerCounters::Read(*registry).Minus(before).AddTo(&layers,
                                                         result.ops.attempted);
  layers.trace_overhead_frac = TraceOverhead(traced, untraced);
  layers.traced_share = Ratio(static_cast<double>(traced.size()),
                              static_cast<double>(latencies.size()));
  const double peak_rss = PeakRssMb();
  const double index_bpc = static_cast<double>(corpus->IndexBytes()) /
                           static_cast<double>(text.size());

  Finish(text, *corpus, served, options,
         {setup_s, std::move(latencies), index_bpc, peak_rss}, &layers,
         &result);
  return result;
}

// ---------------------------------------------------------------------------
// short_wire: four closed-loop connections through NetServer.
// ---------------------------------------------------------------------------

// One scheduler + server pair over a shared corpus; members are destroyed
// server first, registry last.
struct WireStack {
  obs::MetricsRegistry registry;
  std::unique_ptr<service::QueryScheduler> scheduler;
  std::unique_ptr<net::NetServer> server;
};

bool StartWire(const service::ShardedCorpus& corpus, double sample_rate,
               std::function<void(const std::string&)> slow_sink,
               WireStack* stack) {
  service::SchedulerOptions options = Scheduling(&stack->registry);
  if (sample_rate > 0) {
    // Every request sampled; the 1 ms floor is the slow log's smallest
    // threshold, so sub-millisecond requests go unlogged.
    options.trace_sample_rate = sample_rate;
    options.slow_query_ms = 1;
    options.slow_query_sink = std::move(slow_sink);
  }
  stack->scheduler =
      std::make_unique<service::QueryScheduler>(corpus, std::move(options));
  stack->server = std::make_unique<net::NetServer>(stack->scheduler.get());
  return stack->server->Start().ok();
}

net::WireRequest ToWire(const api::SearchRequest& request, uint32_t id) {
  net::WireRequest wire;
  wire.request_id = id;
  wire.backend = "alae";
  wire.scheme = request.scheme;
  wire.threshold = request.threshold;
  wire.query = request.query.ToString();
  return wire;
}

bool WarmWire(int port, const std::vector<api::SearchRequest>& warm) {
  net::NetClient client;
  if (!client.Connect("127.0.0.1", port).ok()) return false;
  for (size_t i = 0; i < warm.size(); ++i) {
    auto response = client.Call(ToWire(warm[i], static_cast<uint32_t>(i + 1)));
    if (!response.ok() || response->status.code != net::WireCode::kOk) {
      return false;
    }
  }
  return true;
}

RunResult RunShortWire(const RunOptions& options, bool* ok) {
  RunResult result;
  const Sequence text = MakeText(Stream(options.seed, 0), kShardedText);
  const std::vector<api::SearchRequest> warm =
      ShortQueries(Stream(options.seed, 1), text, 8);
  const std::vector<api::SearchRequest> pool = ShortQueries(
      Stream(options.seed, 2), text,
      static_cast<size_t>(std::ceil(options.seconds * 1000)));

  std::unique_ptr<service::ShardedCorpus> corpus;
  std::unique_ptr<WireStack> plain;
  const double setup_s = TimeSetup(
      [&] {
        plain.reset();
        corpus.reset();
      },
      [&] {
        auto built = service::ShardedCorpus::Build(text, EightShards(kShardedText));
        if (!built.ok()) return false;
        corpus = std::move(built).value();
        plain = std::make_unique<WireStack>();
        return StartWire(*corpus, 0, nullptr, plain.get()) &&
               WarmWire(plain->server->port(), warm);
      },
      ok);
  if (!*ok) return result;

  // The traced run alternates half-second blocks between this server and
  // an identical one whose scheduler samples every request, so the trace
  // overhead is measured inside one run.
  std::mutex rendered_mu;
  std::vector<std::string> rendered;
  std::unique_ptr<WireStack> sampled;
  if (options.trace) {
    sampled = std::make_unique<WireStack>();
    if (!StartWire(*corpus, 1.0,
                   [&](const std::string& tree) {
                     std::lock_guard<std::mutex> lock(rendered_mu);
                     rendered.push_back(tree);
                   },
                   sampled.get()) ||
        !WarmWire(sampled->server->port(), warm)) {
      *ok = false;
      return result;
    }
    std::lock_guard<std::mutex> lock(rendered_mu);
    rendered.clear();
  }
  constexpr double kBlockSeconds = 0.5;

  struct ClientLog {
    OpCounts ops;
    std::vector<double> latencies, traced, untraced;
    double traced_overhead_s = 0;
    std::vector<Served> answers;
  };
  std::vector<ClientLog> logs(kLoadThreads);
  std::atomic<size_t> next{0};
  const SchedulerCounters before_plain =
      SchedulerCounters::Read(plain->registry);
  const SchedulerCounters before_sampled =
      sampled ? SchedulerCounters::Read(sampled->registry) : SchedulerCounters{};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int t = 0; t < kLoadThreads; ++t) {
    clients.emplace_back([&, t] {
      ClientLog& log = logs[t];
      net::NetClient client;
      int connected_to = -1;
      for (;;) {
        const double now = SinceSeconds(start);
        if (now >= options.seconds) break;
        const int stack =
            sampled ? static_cast<int>(now / kBlockSeconds) % 2 : 0;
        if (stack != connected_to) {
          client.Close();
          const int port = (stack == 1 ? sampled : plain)->server->port();
          if (!client.Connect("127.0.0.1", port).ok()) {
            log.ops.Record(api::Status::Internal("connect failed"));
            break;
          }
          connected_to = stack;
        }
        const size_t i = next++;
        if (i >= pool.size()) break;
        const int64_t begin = obs::Trace::NowNanos();
        auto response = client.Call(ToWire(pool[i], static_cast<uint32_t>(i + 1)));
        const int64_t end = obs::Trace::NowNanos();
        if (!response.ok()) {
          log.ops.Record(response.status());
          connected_to = -1;  // reconnect
          continue;
        }
        const net::WireStatus& status = response->status;
        log.ops.Record(status.code == net::WireCode::kOk
                           ? api::Status::Ok()
                           : api::Status(net::ApiCodeFor(status.code),
                                         status.message));
        if (status.code != net::WireCode::kOk) continue;
        const double latency = Seconds(end - begin);
        log.latencies.push_back(latency);
        (stack == 1 ? log.traced : log.untraced).push_back(latency);
        if (stack == 1) {
          log.traced_overhead_s +=
              latency - static_cast<double>(status.stats.engine_micros) * 1e-6;
        }
        log.answers.push_back({&pool[i], Answer::Of(response->hits)});
      }
    });
  }
  for (std::thread& c : clients) c.join();

  Layers layers;
  layers.phase_wall_s = SinceSeconds(start);
  std::vector<double> latencies, traced, untraced;
  std::vector<Served> served;
  double traced_overhead_s = 0;
  for (ClientLog& log : logs) {
    result.ops.Merge(log.ops);
    latencies.insert(latencies.end(), log.latencies.begin(),
                     log.latencies.end());
    traced.insert(traced.end(), log.traced.begin(), log.traced.end());
    untraced.insert(untraced.end(), log.untraced.begin(), log.untraced.end());
    traced_overhead_s += log.traced_overhead_s;
    served.insert(served.end(), log.answers.begin(), log.answers.end());
  }
  if (next.load() >= pool.size()) {
    result.notes.push_back("query pool exhausted before the time ran out");
  }
  SchedulerCounters counters = SchedulerCounters::Read(plain->registry)
                                   .Minus(before_plain);
  if (sampled) {
    counters.Add(
        SchedulerCounters::Read(sampled->registry).Minus(before_sampled));
    std::lock_guard<std::mutex> lock(rendered_mu);
    for (const std::string& tree : rendered) {
      layers.spans.AddRendered(ParseRendered(tree));
    }
    result.notes.push_back(std::to_string(rendered.size()) + " of " +
                           std::to_string(traced.size()) +
                           " sampled requests reached the 1 ms slow log");
  }
  counters.AddTo(&layers, result.ops.attempted);
  layers.spans.clients = traced.size();
  layers.spans.client_s = std::accumulate(traced.begin(), traced.end(), 0.0);
  layers.spans.net_overhead_s = traced_overhead_s;
  layers.net_overhead_ms =
      traced.empty() ? 0 : 1e3 * traced_overhead_s / static_cast<double>(traced.size());
  layers.trace_overhead_frac = TraceOverhead(traced, untraced);
  {
    // Time spent in the odd (sampled) blocks of [0, wall).
    const double wall = layers.phase_wall_s;
    const double blocks = std::floor(wall / kBlockSeconds);
    const double odd_time = std::floor(blocks / 2) * kBlockSeconds +
                            (std::fmod(blocks, 2) == 1
                                 ? wall - blocks * kBlockSeconds
                                 : 0);
    layers.traced_share = Ratio(odd_time, wall);
  }
  const double peak_rss = PeakRssMb();
  const double index_bpc = static_cast<double>(corpus->IndexBytes()) /
                           static_cast<double>(text.size());
  sampled.reset();
  plain.reset();

  Finish(text, *corpus, served, options,
         {setup_s, std::move(latencies), index_bpc, peak_rss}, &layers,
         &result);
  return result;
}

// ---------------------------------------------------------------------------
// live_rw: open-loop reads and writes on a LiveCorpus.
// ---------------------------------------------------------------------------

// Zipf(1) over [0, n): rank k drawn with weight 1/(k+1).
std::vector<size_t> ZipfDraws(uint64_t seed, size_t n, size_t count) {
  std::vector<double> cdf(n);
  double sum = 0;
  for (size_t k = 0; k < n; ++k) cdf[k] = sum += 1.0 / static_cast<double>(k + 1);
  Rng rng(seed);
  std::vector<size_t> draws(count);
  for (size_t& d : draws) {
    const double u = rng.NextDouble() * sum;
    d = static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) -
                            cdf.begin());
    d = std::min(d, n - 1);
  }
  return draws;
}

RunResult RunLiveRw(const RunOptions& options, bool* ok) {
  RunResult result;
  const Sequence text = MakeText(Stream(options.seed, 0), kLiveBase);
  const std::vector<api::SearchRequest> warm =
      ShortQueries(Stream(options.seed, 1), text, 8);
  std::vector<Sequence> docs;
  Sequence doc_text(std::vector<Symbol>{}, text.alphabet());
  {
    SequenceGenerator gen(Stream(options.seed, 4));
    const size_t appends =
        static_cast<size_t>(std::ceil(options.seconds * kAppendRate));
    for (size_t i = 0; i < appends; ++i) {
      docs.push_back(gen.Random(kDocLength, text.alphabet()));
      doc_text.Append(docs.back());
    }
  }
  // A quarter of the pool is sampled from the documents the writer will
  // append, so reads find hits in delta shards and deleted documents'
  // tombstones filter some of them; shuffled so both kinds spread over
  // the popularity ranks.
  std::vector<api::SearchRequest> pool =
      ShortQueries(Stream(options.seed, 2), text, kLivePool * 3 / 4);
  for (api::SearchRequest& request :
       ShortQueries(Stream(options.seed, 5), doc_text, kLivePool / 4)) {
    pool.push_back(std::move(request));
  }
  {
    Rng rng(Stream(options.seed, 6));
    for (size_t i = pool.size() - 1; i > 0; --i) {
      std::swap(pool[i], pool[rng.Below(i + 1)]);
    }
  }
  const size_t reads = static_cast<size_t>(std::ceil(options.seconds * kReadRate));
  const std::vector<size_t> draws =
      ZipfDraws(Stream(options.seed, 3), pool.size(), reads);

  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<service::LiveCorpus> live;
  std::unique_ptr<service::QueryScheduler> scheduler;
  const double setup_s = TimeSetup(
      [&] {
        scheduler.reset();
        live.reset();
        registry = std::make_unique<obs::MetricsRegistry>();
      },
      [&] {
        service::LiveCorpusOptions live_options;
        live_options.registry = registry.get();
        auto built = service::LiveCorpus::Build(text, live_options);
        if (!built.ok()) return false;
        live = std::move(built).value();
        service::SchedulerOptions scheduling = Scheduling(registry.get());
        scheduling.shard_cache_capacity = 256;  // serve_main's default
        scheduler = std::make_unique<service::QueryScheduler>(*live,
                                                              scheduling);
        for (const api::SearchRequest& request : warm) {
          if (!scheduler->Search("alae", request).ok()) return false;
        }
        return true;
      },
      ok);
  if (!*ok) return result;

  obs::Histogram* compaction_h =
      registry->GetHistogram("alae_live_compaction_seconds");
  obs::Histogram* pause_h =
      registry->GetHistogram("alae_live_compaction_pause_seconds");
  const SchedulerCounters before = SchedulerCounters::Read(*registry);
  const Clock::time_point start = Clock::now();

  // Writer: appends every 1/kAppendRate s, deletes the oldest live
  // appended document every 1/kDeleteRate s (offset by half a period).
  OpCounts write_ops;
  std::vector<double> append_latencies, write_lateness;
  std::thread writer([&] {
    std::deque<uint64_t> alive;
    size_t appended = 0, deleted = 0;
    for (;;) {
      const double append_due = static_cast<double>(appended) / kAppendRate;
      const double delete_due = (static_cast<double>(deleted) + 0.5) / kDeleteRate;
      const bool is_append = appended < docs.size() && append_due <= delete_due;
      const double due = is_append ? append_due : delete_due;
      if (due >= options.seconds) break;
      SleepUntil(start, due);
      write_lateness.push_back(SinceSeconds(start) - due);
      if (is_append) {
        api::StatusOr<uint64_t> id = live->AppendDocument(docs[appended++]);
        write_ops.Record(id.status());
        append_latencies.push_back(SinceSeconds(start) - due);
        if (id.ok()) alive.push_back(*id);
      } else {
        ++deleted;
        if (alive.empty()) continue;
        write_ops.Record(live->DeleteDocument(alive.front()));
        alive.pop_front();
      }
    }
  });

  // Readers: arrival k is due at k/kReadRate s and served by thread k % 4.
  struct ReaderLog {
    OpCounts ops;
    std::vector<double> latencies, lateness, traced, untraced;
    SpanLedger spans;
    uint64_t responses = 0, deltas = 0, tombstone_filtered = 0;
  };
  std::vector<ReaderLog> logs(kLoadThreads);
  std::vector<std::thread> readers;
  for (int t = 0; t < kLoadThreads; ++t) {
    readers.emplace_back([&, t] {
      ReaderLog& log = logs[t];
      for (size_t k = static_cast<size_t>(t); k < draws.size();
           k += kLoadThreads) {
        const double due = static_cast<double>(k) / kReadRate;
        if (due >= options.seconds) break;
        SleepUntil(start, due);
        log.lateness.push_back(SinceSeconds(start) - due);
        api::SearchRequest request = pool[draws[k]];
        obs::Trace trace;
        const bool traced_request = options.trace && k % 2 == 1;
        if (traced_request) request.trace = &trace;
        const int64_t begin = obs::Trace::NowNanos();
        api::StatusOr<api::SearchResponse> response =
            scheduler->Search("alae", request);
        const int64_t end = obs::Trace::NowNanos();
        log.ops.Record(response.status());
        if (!response.ok()) continue;
        const double latency = SinceSeconds(start) - due;
        log.latencies.push_back(latency);
        (traced_request ? log.traced : log.untraced).push_back(latency);
        if (traced_request) log.spans.AddTrace(trace, begin, end);
        ++log.responses;
        log.deltas += response->stats.delta_shards;
        log.tombstone_filtered += response->stats.tombstone_filtered;
      }
    });
  }
  for (std::thread& r : readers) r.join();
  writer.join();

  Layers layers;
  layers.phase_wall_s = SinceSeconds(start);
  std::vector<double> latencies, lateness = write_lateness, traced, untraced;
  uint64_t responses = 0, deltas = 0, tombstone_filtered = 0;
  for (ReaderLog& log : logs) {
    result.ops.Merge(log.ops);
    latencies.insert(latencies.end(), log.latencies.begin(), log.latencies.end());
    lateness.insert(lateness.end(), log.lateness.begin(), log.lateness.end());
    traced.insert(traced.end(), log.traced.begin(), log.traced.end());
    untraced.insert(untraced.end(), log.untraced.begin(), log.untraced.end());
    layers.spans.Merge(log.spans);
    responses += log.responses;
    deltas += log.deltas;
    tombstone_filtered += log.tombstone_filtered;
  }
  const uint64_t read_requests = result.ops.attempted;
  result.ops.Merge(write_ops);
  SchedulerCounters::Read(*registry).Minus(before).AddTo(&layers, read_requests);
  const obs::Histogram::Snapshot compactions = compaction_h->Snap();
  const obs::Histogram::Snapshot pauses = pause_h->Snap();
  layers.compactions = static_cast<double>(compactions.count);
  layers.compaction_s =
      Ratio(compactions.sum, static_cast<double>(compactions.count));
  layers.compaction_pause_ms =
      1e3 * Ratio(pauses.sum, static_cast<double>(pauses.count));
  layers.deltas_mean = Ratio(static_cast<double>(deltas),
                             static_cast<double>(responses));
  layers.tombstone_filtered_per_req = Ratio(
      static_cast<double>(tombstone_filtered), static_cast<double>(responses));
  layers.append_p50_ms = 1e3 * Median(append_latencies);
  layers.append_tail_ms = 1e3 * TailOf(append_latencies).value;
  layers.lateness_tail_ms = 1e3 * TailOf(lateness).value;
  layers.trace_overhead_frac = TraceOverhead(traced, untraced);
  layers.traced_share = Ratio(static_cast<double>(traced.size()),
                              static_cast<double>(latencies.size()));
  {
    const Tail append_tail = TailOf(append_latencies);
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "writes: append p50 %.3f ms, p%.2f %.3f ms (%zu appends); "
                  "%.0f compactions; generator lateness tail %.3f ms",
                  1e3 * Median(append_latencies), append_tail.percentile,
                  1e3 * append_tail.value, append_tail.samples,
                  layers.compactions, layers.lateness_tail_ms);
    result.notes.push_back(buf);
  }

  // Quiesce: writer stopped; fold everything into one base, then replay
  // each distinct query against it.
  if (api::Status compacted = live->Compact(); !compacted.ok()) {
    *ok = false;
    return result;
  }
  std::vector<size_t> distinct = draws;  // every draw was issued
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  std::vector<Served> served(distinct.size());
  std::atomic<bool> replay_ok{true};
  ParallelFor(distinct.size(), [&](size_t i) {
    served[i].request = &pool[distinct[i]];
    api::StatusOr<api::SearchResponse> response =
        scheduler->Search("alae", *served[i].request);
    if (!response.ok()) {
      replay_ok = false;
      return;
    }
    served[i].answer = Answer::Of(response->hits);
  });
  if (!replay_ok) {
    result.correct = false;
    result.mismatch = "a replayed query failed after the final compaction";
    return result;
  }
  const double peak_rss = PeakRssMb();
  const double index_bpc = static_cast<double>(live->IndexBytes()) /
                           static_cast<double>(live->text_size());
  const std::shared_ptr<const service::ShardedCorpus> base = live->base();
  Finish(base->text(), *live, served, options,
         {setup_s, std::move(latencies), index_bpc, peak_rss}, &layers,
         &result);
  return result;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"long_dna", "short_wire",
                                                 "live_rw"};
  return names;
}

RunResult RunWorkload(const RunOptions& options, bool* ok) {
  *ok = true;
  if (options.workload == "long_dna") return RunLongDna(options, ok);
  if (options.workload == "short_wire") return RunShortWire(options, ok);
  if (options.workload == "live_rw") return RunLiveRw(options, ok);
  *ok = false;
  return {};
}

}  // namespace ledger
}  // namespace alae
