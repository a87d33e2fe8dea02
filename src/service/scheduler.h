#ifndef ALAE_SERVICE_SCHEDULER_H_
#define ALAE_SERVICE_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/api/api.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/service/corpus_view.h"
#include "src/service/result_cache.h"
#include "src/service/thread_pool.h"
#include "src/util/cancel.h"

namespace alae {
namespace service {

class StreamMerger;

struct SchedulerOptions {
  // Worker threads; <= 0 picks hardware concurrency.
  int threads = 0;

  // Bounded shard-task queue. When a request's fan-out does not fit the
  // queue's remaining capacity the request is rejected whole with
  // kResourceExhausted — admission is all-or-nothing, so an overloaded
  // service sheds entire requests instead of half-running them.
  size_t queue_capacity = 1024;

  // LRU result-cache entries; 0 disables caching.
  size_t cache_capacity = 256;

  // Shard-local fragment cache: raw per-slice hit lists keyed by (slice
  // content, plan fingerprint) — deliberately NOT by epoch, so base-shard
  // fragments survive the epoch bumps of live-corpus mutations and only
  // die when the slice content itself is replaced (compaction swaps in a
  // new base). Load-bearing for live corpora, where every append/delete
  // invalidates the whole-response cache above; 0 disables the tier.
  size_t shard_cache_capacity = 0;

  // Default deadline imposed on every query (0 = none). Each query runs
  // under a scheduler-owned token that carries this deadline AND observes
  // the request's own cancel token, so whichever fires first wins; a
  // caller-supplied sooner deadline is unaffected.
  int64_t default_deadline_ms = 0;

  // --- Observability ---

  // Routes scheduler, pool and engine counters into the metrics registry
  // (`registry`, or the process-wide MetricsRegistry::Default() when
  // null). `false` skips every metric update — the uninstrumented
  // baseline the bench overhead gate (service/obs/off) measures against.
  bool enable_metrics = true;
  obs::MetricsRegistry* registry = nullptr;

  // Request tracing: this fraction of requests that do NOT carry their
  // own SearchRequest::trace get a scheduler-owned Trace recording the
  // admission / compile / queue-wait / per-slice execute / merge stages.
  // The sampling sequence is deterministic in trace_seed. Sampled traces
  // whose wall time reaches slow_query_ms are rendered as span trees
  // into the slow-query log (kept in a small ring, and forwarded to
  // slow_query_sink when set). 0 disables sampling / the slow log.
  double trace_sample_rate = 0.0;
  uint64_t trace_seed = 0x9e3779b97f4a7c15ull;
  int64_t slow_query_ms = 0;
  std::function<void(const std::string&)> slow_query_sink;
};

// The multi-tenant front door of the sharded query service: snapshots the
// corpus source once per call, compiles each request into a QueryPlan
// once (slice 0's aligner; plans are index-independent), fans the work
// across the snapshot's slices — base shards plus any live-corpus delta
// shards — as pool tasks that share the plan, merges the per-slice
// streams through a StreamMerger with ownership and tombstone filtering,
// and answers repeats from two cache tiers: the epoch-keyed
// whole-response LRU and the content-keyed shard-fragment LRU.
//
// Search, SearchBatch and SearchStream are one pipeline: a buffered call
// is a batch whose queries collect their merged hits, a stream is a batch
// of one whose hits go to the caller's sink. The only per-call choice is
// the execution step — a buffered query on the built-in ALAE backend runs
// as ONE task doing the fused union-trie walk (less total work), while a
// streamed query runs one task per slice (hits reach the sink while
// slices still run, and max_hits short-circuits the rest).
//
// Thread-safe: any number of client threads may call Search/SearchBatch
// concurrently; they share the worker pool and the caches. Mutating a
// LiveCorpus source concurrently is safe (each call works off its own
// snapshot). Destroying the scheduler while calls are in flight is safe:
// the destructor runs Shutdown(), which cancels every in-flight query
// (they return kCancelled), waits them out, and drains the pool.
//
// Deadlines and cancellation: a request's CancelToken (and the scheduler's
// default_deadline_ms) bound each query cooperatively — engines poll every
// ~4k work units, queued-but-unstarted shard tasks for an expired request
// fast-fail without running, and the outcome is kDeadlineExceeded /
// kCancelled, or — with request.allow_partial — an Ok response carrying
// the hits gathered so far, flagged truncated_by_deadline. Partial
// responses are never stored in either cache tier.
class QueryScheduler {
 public:
  explicit QueryScheduler(const CorpusSource& source,
                          SchedulerOptions options = {});

  ~QueryScheduler();

  // Graceful shutdown: refuses new batches (kCancelled), cancels the
  // tokens of every in-flight query, waits for those batches to return to
  // their callers, then closes and joins the pool. Idempotent; safe to
  // call while clients are still issuing Search calls.
  void Shutdown();

  // One query against every slice of the current snapshot. Failure modes
  // beyond the facade's request validation: kInvalidArgument when the
  // query's worst-case alignment span does not fit the corpus overlap
  // (the sharded answer would not be bit-exact), kNotFound for unknown
  // backends, and kResourceExhausted when the task queue cannot take the
  // fan-out — callers should back off and retry.
  api::StatusOr<api::SearchResponse> Search(std::string_view backend,
                                            const api::SearchRequest& request);

  // Batch form: every query is admitted, compiled and fanned out in one
  // call (in queue-sized waves). Outcomes come back in input order, each
  // with its own Status — one bad query never takes down its neighbours
  // (same contract as MultiQueryDriver::RunEach).
  std::vector<api::QueryOutcome> SearchBatch(
      std::string_view backend,
      const std::vector<api::SearchRequest>& requests);

  // Streaming form, built for the socket front-end: hits reach `sink` in
  // global (text_end, query_end) order *while slice engines are still
  // running*, instead of materialising in a response. On success the
  // returned stats describe the whole stream (hits_emitted, truncated when
  // the cap fired). Semantics match Search bit-for-bit: the emitted
  // sequence is exactly Search(...).hits for the same request — including
  // the max_hits prefix — and both cache tiers are shared (a cached
  // response is replayed to the sink; a completed stream populates the
  // cache for later Search calls and vice versa).
  //
  // Short-circuit: once max_hits hits have been emitted (or the sink
  // returns false), a cap token fires and every still-running slice aborts
  // at its next cancellation poll, so a small max_hits costs a fraction of
  // the full answer. Streaming always runs one task per slice (never the
  // fused ALAE walk, which delivers nothing until every slice is done).
  //
  // The sink runs under the merger's lock on pool worker threads: keep it
  // fast, never call back into the scheduler from it.
  api::StatusOr<api::EngineStats> SearchStream(std::string_view backend,
                                               const api::SearchRequest& request,
                                               const api::HitSink& sink);

  const CorpusSource& source() const { return source_; }
  ThreadPool& pool() { return pool_; }
  const ResultCache& cache() const { return cache_; }
  const ResultCache& shard_cache() const { return shard_cache_; }

  // The registry scheduler metrics land in (resolved even when
  // enable_metrics is false, so a front-end can still scrape it) and the
  // tracer behind sampling + the slow-query log. The front-end uses the
  // tracer to sample its own request-scoped traces so it can append
  // serialize spans the scheduler never sees.
  obs::MetricsRegistry& registry() const { return *registry_; }
  obs::Tracer& tracer() { return tracer_; }

 private:
  // Registry-backed instruments, resolved once at construction. All null
  // when the options disable metrics — every hot-path update is a single
  // null check away from free.
  struct Instruments {
    obs::Counter* requests_search = nullptr;
    obs::Counter* requests_stream = nullptr;
    obs::Counter* sheds = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* response_cache_hits = nullptr;
    obs::Counter* response_cache_misses = nullptr;
    obs::Counter* fragment_cache_hits = nullptr;
    obs::Counter* fragment_cache_misses = nullptr;
    obs::Counter* fused_queries = nullptr;
    obs::Counter* dp_cells = nullptr;
    obs::Counter* fm_extends = nullptr;
    obs::Counter* trie_nodes = nullptr;
    obs::Counter* forks_opened = nullptr;
    obs::Gauge* pool_queue_depth = nullptr;
    obs::Counter* pool_rejects = nullptr;
    obs::Histogram* latency = nullptr;
  };
  static Instruments MakeInstruments(const SchedulerOptions& options,
                                     obs::MetricsRegistry* registry);

  // Folds one finished outcome into the instruments: error-class counters
  // for failures; latency, cache-tier and engine DpCounters for answers.
  void RecordResult(const api::Status& status, const api::EngineStats* stats);

  // One request's state through the pipeline (defined in scheduler.cc).
  struct Query;

  // The pipeline behind all three entry points: trace sampling, lifecycle
  // registration, admission, compile, fan-out, merge, caching and metrics.
  // `sink` is SearchStream's (null for buffered calls): when set, the one
  // request's hits stream to it and its outcome carries stats only.
  std::vector<api::QueryOutcome> Run(
      std::string_view backend, std::span<const api::SearchRequest> requests,
      const api::HitSink* sink);

  // Run's body between lifecycle registration and deregistration, against
  // the call's snapshot `view`; fills `outcomes` (pre-sized to the
  // requests).
  void Execute(std::string_view backend,
               std::span<const api::SearchRequest> requests,
               const api::HitSink* sink, const CorpusView& view,
               std::vector<Query>& queries,
               std::vector<api::QueryOutcome>& outcomes);

  // Executes one compiled query against one slice: fragment-cache lookup
  // (replayed into the merger on a hit), else the engine run publishing
  // each hit as it is produced; the raw slice-local hits become the
  // fragment only when the run finished uncut. Closes the slice and turns
  // a cap-token abort into success. `trace`/`root` (nullable / -1) hang
  // an "execute" span under the request's root span.
  api::Status RunSliceQuery(const CorpusView& view, size_t slice,
                            const api::Aligner* aligner,
                            const api::QueryPlan& plan, StreamMerger* merger,
                            obs::Trace* trace, int root);

  // Executes one compiled query against every slice inside one pool task:
  // the fused ALAE walk when the plan supports it (all-or-nothing against
  // the fragment cache; each slice's sorted hits are published, stored as
  // its fragment and the slice closed), else a serial per-slice loop.
  api::Status RunFusedQuery(const CorpusView& view, const api::QueryPlan& plan,
                            const std::vector<const api::Aligner*>& aligners,
                            StreamMerger* merger, obs::Trace* trace, int root);

  const CorpusSource& source_;
  const int64_t default_deadline_ms_;
  obs::MetricsRegistry* const registry_;  // never null (Default() fallback)
  const Instruments inst_;
  obs::Tracer tracer_;
  ResultCache cache_;
  ResultCache shard_cache_;

  // Shutdown lifecycle. Every call registers under lifecycle_mu_ (refused
  // once shutdown_ is set) and registers its queries' effective cancel
  // tokens in inflight_ so Shutdown can fire them all; the call
  // deregisters before returning and signals lifecycle_cv_.
  std::mutex lifecycle_mu_;
  std::condition_variable lifecycle_cv_;
  bool shutdown_ = false;
  size_t active_batches_ = 0;
  std::unordered_set<CancelToken*> inflight_;

  ThreadPool pool_;  // declared last: workers must die before the caches
};

}  // namespace service
}  // namespace alae

#endif  // ALAE_SERVICE_SCHEDULER_H_
