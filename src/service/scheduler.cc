#include "src/service/scheduler.h"

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "src/api/backends.h"
#include "src/core/alae.h"
#include "src/service/hit_merger.h"
#include "src/util/timer.h"

namespace alae {
namespace service {
namespace {

// Completion latch for one wave's fan-out. Callers
// always Wait before returning, so tasks may safely reference caller-stack
// state through this.
class TaskGroup {
 public:
  explicit TaskGroup(size_t pending) : pending_(pending) {}

  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_;
};

// First-error slot shared by a query's slice tasks.
class ErrorSlot {
 public:
  void Record(api::Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (status_.ok()) status_ = std::move(status);
  }

  api::Status Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }

 private:
  std::mutex mu_;
  api::Status status_;
};

api::Status SliceError(size_t slice, const api::Status& status) {
  return api::Status(status.code(),
                     "slice " + std::to_string(slice) + ": " +
                         status.message());
}

// Publishes one slice's slice-local hits (sorted) until the merger is
// satisfied, then closes the slice with `stats`.
void PublishSlice(StreamMerger* merger, size_t slice,
                  const std::vector<AlignmentHit>& hits,
                  const api::EngineStats& stats) {
  for (const AlignmentHit& hit : hits) {
    if (!merger->Publish(slice, hit)) break;
  }
  merger->Close(slice, stats);
}

}  // namespace

struct QueryScheduler::Query {
  obs::Trace* trace = nullptr;  // caller-supplied or sampled; may be null
  std::unique_ptr<obs::Trace> sampled;
  int root = -1;  // the "search" span
  // Scheduler-owned effective token: observes the request's token (if
  // any), carries the default deadline, is fired by Shutdown through
  // inflight_, and is the cap token the merger fires once the stream is
  // satisfied. Engaged for queries that reach compilation.
  std::optional<CancelToken> token;
  std::string key;  // response-cache key
  std::unique_ptr<api::QueryPlan> plan;
  std::optional<StreamMerger> merger;
  ErrorSlot error;
};

QueryScheduler::QueryScheduler(const CorpusSource& source,
                               SchedulerOptions options)
    : source_(source),
      default_deadline_ms_(options.default_deadline_ms),
      registry_(options.registry != nullptr ? options.registry
                                            : &obs::MetricsRegistry::Default()),
      inst_(MakeInstruments(options, registry_)),
      tracer_(obs::TracerOptions{options.trace_sample_rate, options.trace_seed,
                                 options.slow_query_ms * 1'000'000,
                                 /*keep_slow=*/8, options.slow_query_sink}),
      cache_(options.cache_capacity),
      shard_cache_(options.shard_cache_capacity),
      pool_(options.threads, options.queue_capacity,
            PoolMetrics{inst_.pool_queue_depth, inst_.pool_rejects}) {}

QueryScheduler::Instruments QueryScheduler::MakeInstruments(
    const SchedulerOptions& options, obs::MetricsRegistry* registry) {
  Instruments inst;
  if (!options.enable_metrics) return inst;
  obs::MetricsRegistry& r = *registry;
  inst.requests_search =
      r.GetCounter("alae_scheduler_requests_total{verb=\"search\"}");
  inst.requests_stream =
      r.GetCounter("alae_scheduler_requests_total{verb=\"stream\"}");
  inst.sheds = r.GetCounter("alae_scheduler_shed_total");
  inst.cancelled = r.GetCounter("alae_scheduler_cancelled_total");
  inst.deadline_exceeded = r.GetCounter("alae_scheduler_deadline_exceeded_total");
  inst.errors = r.GetCounter("alae_scheduler_errors_total");
  inst.response_cache_hits =
      r.GetCounter("alae_scheduler_response_cache_hits_total");
  inst.response_cache_misses =
      r.GetCounter("alae_scheduler_response_cache_misses_total");
  inst.fragment_cache_hits =
      r.GetCounter("alae_scheduler_fragment_cache_hits_total");
  inst.fragment_cache_misses =
      r.GetCounter("alae_scheduler_fragment_cache_misses_total");
  inst.fused_queries = r.GetCounter("alae_scheduler_fused_queries_total");
  inst.dp_cells = r.GetCounter("alae_engine_dp_cells_total");
  inst.fm_extends = r.GetCounter("alae_engine_fm_extends_total");
  inst.trie_nodes = r.GetCounter("alae_engine_trie_nodes_total");
  inst.forks_opened = r.GetCounter("alae_engine_forks_opened_total");
  inst.pool_queue_depth = r.GetGauge("alae_pool_queue_depth");
  inst.pool_rejects = r.GetCounter("alae_pool_admission_rejects_total");
  inst.latency = r.GetHistogram("alae_scheduler_search_seconds");
  return inst;
}

void QueryScheduler::RecordResult(const api::Status& status,
                                  const api::EngineStats* stats) {
  if (inst_.latency == nullptr) return;  // metrics disabled
  if (!status.ok()) {
    switch (status.code()) {
      case api::StatusCode::kResourceExhausted:
        inst_.sheds->Add();
        break;
      case api::StatusCode::kCancelled:
        inst_.cancelled->Add();
        break;
      case api::StatusCode::kDeadlineExceeded:
        inst_.deadline_exceeded->Add();
        break;
      default:
        inst_.errors->Add();
        break;
    }
    return;
  }
  if (stats == nullptr) return;
  inst_.latency->Observe(stats->seconds);
  if (stats->cache_hits > 0) inst_.response_cache_hits->Add(stats->cache_hits);
  if (stats->cache_misses > 0) {
    inst_.response_cache_misses->Add(stats->cache_misses);
  }
  if (stats->shard_cache_hits > 0) {
    inst_.fragment_cache_hits->Add(stats->shard_cache_hits);
  }
  if (stats->shard_cache_misses > 0) {
    inst_.fragment_cache_misses->Add(stats->shard_cache_misses);
  }
  const DpCounters& c = stats->counters;
  if (const uint64_t cells = c.Calculated(); cells > 0) {
    inst_.dp_cells->Add(cells);
  }
  if (c.fm_extends + c.fm_extend_alls > 0) {
    inst_.fm_extends->Add(c.fm_extends + c.fm_extend_alls);
  }
  if (c.trie_nodes_visited > 0) inst_.trie_nodes->Add(c.trie_nodes_visited);
  if (c.forks_opened > 0) inst_.forks_opened->Add(c.forks_opened);
}

QueryScheduler::~QueryScheduler() { Shutdown(); }

void QueryScheduler::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(lifecycle_mu_);
    shutdown_ = true;
    // Fire every in-flight query's effective token: running engine loops
    // bail at their next poll, queued-but-unstarted tasks fast-fail, and
    // each call returns kCancelled to its caller.
    for (CancelToken* token : inflight_) token->Cancel();
    lifecycle_cv_.wait(lock, [this] { return active_batches_ == 0; });
  }
  // With every call gone nothing submits anymore; close and join.
  pool_.Shutdown();
}

api::StatusOr<api::SearchResponse> QueryScheduler::Search(
    std::string_view backend, const api::SearchRequest& request) {
  std::vector<api::QueryOutcome> outcomes =
      Run(backend, {&request, 1}, nullptr);
  if (!outcomes[0].ok()) return outcomes[0].status;
  return std::move(outcomes[0].response);
}

std::vector<api::QueryOutcome> QueryScheduler::SearchBatch(
    std::string_view backend,
    const std::vector<api::SearchRequest>& requests) {
  return Run(backend, requests, nullptr);
}

api::StatusOr<api::EngineStats> QueryScheduler::SearchStream(
    std::string_view backend, const api::SearchRequest& request,
    const api::HitSink& sink) {
  std::vector<api::QueryOutcome> outcomes = Run(backend, {&request, 1}, &sink);
  if (!outcomes[0].ok()) return outcomes[0].status;
  return outcomes[0].response.stats;
}

std::vector<api::QueryOutcome> QueryScheduler::Run(
    std::string_view backend, std::span<const api::SearchRequest> requests,
    const api::HitSink* sink) {
  std::vector<api::QueryOutcome> outcomes(requests.size());
  if (requests.empty()) return outcomes;
  if (obs::Counter* verb =
          sink != nullptr ? inst_.requests_stream : inst_.requests_search) {
    verb->Add(requests.size());
  }
  // Per-query traces: caller-supplied (the caller finishes those — the net
  // front-end appends serialize spans after the scheduler is done), else
  // sampled from the tracer and offered to the slow-query log below.
  // Declared ahead of the queries: their mergers hold a reference to it.
  CorpusView view;
  std::vector<Query> queries(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    Query& q = queries[i];
    q.trace = requests[i].trace;
    if (q.trace == nullptr) {
      q.sampled = tracer_.MaybeSample();
      q.trace = q.sampled.get();
    }
    if (q.trace != nullptr) q.root = q.trace->BeginSpan("search");
  }

  // Lifecycle registration: a call admitted here is guaranteed to finish
  // (Shutdown waits for it); a call arriving after Shutdown began is
  // refused whole.
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!shutdown_) {
      ++active_batches_;
      admitted = true;
    }
  }
  if (admitted) {
    // One snapshot serves the whole call: a concurrent live-corpus mutation
    // or compaction swaps state for *later* calls, while this one keeps
    // reading the slices (and indexes) the snapshot pinned.
    view = source_.Snapshot();
    Execute(backend, requests, sink, view, queries, outcomes);
  } else {
    for (api::QueryOutcome& o : outcomes) {
      o.status = api::Status::Cancelled("scheduler is shut down");
    }
  }

  for (size_t i = 0; i < requests.size(); ++i) {
    Query& q = queries[i];
    if (q.trace != nullptr) q.trace->EndSpan(q.root);
    tracer_.Finish(std::move(q.sampled));
    RecordResult(outcomes[i].status, &outcomes[i].response.stats);
  }
  // Deregister last: once active_batches_ drops, a waiting Shutdown (and
  // the destructor behind it) may proceed.
  if (admitted) {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    for (Query& q : queries) {
      if (q.token) inflight_.erase(&*q.token);
    }
    --active_batches_;
    lifecycle_cv_.notify_all();
  }
  return outcomes;
}

void QueryScheduler::Execute(std::string_view backend,
                             std::span<const api::SearchRequest> requests,
                             const api::HitSink* sink,
                             const CorpusView& view,
                             std::vector<Query>& queries,
                             std::vector<api::QueryOutcome>& outcomes) {
  Timer timer;
  const size_t slices = view.slices.size();

  std::vector<const api::Aligner*> aligners;
  aligners.reserve(slices);
  for (size_t s = 0; s < slices; ++s) {
    api::StatusOr<const api::Aligner*> aligner =
        view.slices[s].aligner_for(backend);
    if (!aligner.ok()) {
      for (api::QueryOutcome& o : outcomes) o.status = aligner.status();
      return;
    }
    aligners.push_back(*aligner);
  }

  // Per-query admission: validation, span check, then the cache — all
  // before compilation, so a cache hit never pays the query-side
  // precompute it exists to avoid (the request-shaped cache key is byte
  // identical to the plan-based one). Only cache misses compile, ONCE
  // per query (slice 0's aligner; plans are index-independent), with
  // max_hits zeroed — slices must compute their full owned answer (a
  // per-slice cap could starve owned hits out of the merge); the global
  // cap is applied by the StreamMerger and preserved in the cache key.
  // `live` collects the indexes that actually need engine work.
  std::vector<size_t> live;
  for (size_t i = 0; i < requests.size(); ++i) {
    const api::SearchRequest& request = requests[i];
    Query& q = queries[i];
    api::QueryOutcome& outcome = outcomes[i];
    // Admission span: validation, span check and the cache lookup. Ends
    // where compilation starts; the scope exit covers every `continue`.
    obs::ScopedSpan admit_span(q.trace, "admit", q.root);
    if (api::Status status = aligners[0]->Validate(request); !status.ok()) {
      outcome.status = status;
      continue;
    }
    // Fast-fail before the pool (or even the cache) is touched: an
    // already-expired request costs the service nothing.
    if (request.cancel != nullptr) {
      switch (request.cancel->ExpiredWhy()) {
        case CancelToken::Why::kCancelled:
          outcome.status =
              api::Status::Cancelled("request cancelled before admission");
          continue;
        case CancelToken::Why::kDeadline:
          if (!request.allow_partial) {
            outcome.status = api::Status::DeadlineExceeded(
                "deadline expired before admission");
            continue;
          }
          outcome.response.stats.truncated = true;
          outcome.response.stats.truncated_by_deadline = true;
          outcome.response.stats.seconds = timer.ElapsedSeconds();
          continue;
        case CancelToken::Why::kNone:
          break;
      }
    }
    if (api::Status status = view.ValidateSpan(backend, request);
        !status.ok()) {
      outcome.status = status;
      continue;
    }
    q.key = ResultCache::KeyFor(backend, request, view.epoch);
    if (cache_.Lookup(q.key, &outcome.response)) {
      // A stream replays the cached (already sorted, already capped)
      // answer through its sink — streams and buffered calls share this
      // cache both ways.
      if (sink != nullptr) {
        for (const AlignmentHit& hit : outcome.response.hits) {
          if (!(*sink)(hit)) break;
        }
      }
      outcome.response.stats.cache_hits = 1;
      outcome.response.stats.cache_misses = 0;
      outcome.response.stats.seconds = timer.ElapsedSeconds();
      continue;
    }
    // Compile against the effective token (replacing the caller's in the
    // plan): engines under this plan observe caller cancellation AND the
    // scheduler's default deadline AND a scheduler Shutdown AND the
    // merger's cap, whichever fires first. Neither token nor allow_partial
    // is fingerprinted, so cache keys are unaffected.
    admit_span.End();
    obs::ScopedSpan compile_span(q.trace, "compile", q.root);
    q.token.emplace(request.cancel);
    if (default_deadline_ms_ > 0) {
      q.token->SetDeadlineAfter(
          std::chrono::milliseconds(default_deadline_ms_));
    }
    api::SearchRequest uncapped = request;
    uncapped.max_hits = 0;
    uncapped.cancel = &*q.token;
    api::StatusOr<std::unique_ptr<api::QueryPlan>> plan =
        aligners[0]->Compile(std::move(uncapped));
    if (!plan.ok()) {
      outcome.status = plan.status();
      q.token.reset();
      continue;
    }
    q.plan = std::move(*plan);
    // RequiredSpan is the tombstone guard (and BLAST window) for this
    // query; also the value ValidateSpan just checked against the overlap.
    q.merger.emplace(view, RequiredSpan(backend, request), request.max_hits,
                     sink != nullptr ? *sink : api::HitSink(), &*q.token);
    live.push_back(i);
  }
  if (live.empty()) return;
  {
    // Register the effective tokens; if Shutdown won the race since this
    // call was admitted, its cancel sweep missed them — fire them here so
    // the call still winds down promptly.
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    for (size_t i : live) {
      inflight_.insert(&*queries[i].token);
      if (shutdown_) queries[i].token->Cancel();
    }
  }

  // Fan out. A buffered query on the built-in ALAE backend is ONE task
  // running the fused union-trie walk (all slices share the query's fork
  // DP); every other query — streamed, or another backend — is one task
  // per slice.
  const bool fused = sink == nullptr && aligners[0]->name() == "alae";
  const size_t tasks_per_query = fused ? 1 : slices;
  if (fused && inst_.fused_queries != nullptr) {
    inst_.fused_queries->Add(live.size());
  }
  // A batch's full fan-out may legitimately exceed the queue bound, and a
  // single all-or-nothing submit would then reject it forever no matter
  // how idle the pool is. Split the live queries into waves whose task
  // count fits the queue, admit each wave all-or-nothing, and wait between
  // waves; a wave shed by *competing* traffic marks only its own queries
  // kResourceExhausted (retrying those can genuinely succeed later).
  const size_t wave_queries =
      std::min(live.size(), pool_.queue_capacity() / tasks_per_query);
  if (wave_queries == 0) {
    // The queue cannot hold even one query's fan-out: a configuration
    // misfit, not transient load.
    api::Status misfit = api::Status::ResourceExhausted(
        "one query fans out into " + std::to_string(tasks_per_query) +
        " slice tasks but the service queue holds only " +
        std::to_string(pool_.queue_capacity()) +
        "; raise queue_capacity to at least the slice count");
    for (size_t i : live) outcomes[i].status = misfit;
    return;
  }
  for (size_t wave = 0; wave < live.size(); wave += wave_queries) {
    const size_t wave_end = std::min(live.size(), wave + wave_queries);
    const size_t num_tasks = tasks_per_query * (wave_end - wave);
    TaskGroup done(num_tasks);
    // Queue-wait accounting for traced queries: stamped just before the
    // wave submits, read by the task that starts running the query (slice
    // 0's — per-slice waits overlap and would double-book the tree).
    int64_t submit_ns = 0;
    std::vector<std::function<void()>> tasks;
    tasks.reserve(num_tasks);
    for (size_t k = wave; k < wave_end; ++k) {
      Query* q = &queries[live[k]];
      for (size_t s = 0; s < tasks_per_query; ++s) {
        tasks.push_back([this, s, fused, q, &view, &aligners, &done,
                         &submit_ns] {
          if (s == 0 && q->trace != nullptr) {
            q->trace->AddSpan("queue", submit_ns, obs::Trace::NowNanos(),
                              q->root);
          }
          api::Status status =
              fused ? RunFusedQuery(view, *q->plan, aligners, &*q->merger,
                                    q->trace, q->root)
                    : RunSliceQuery(view, s, aligners[s], *q->plan,
                                    &*q->merger, q->trace, q->root);
          if (!status.ok()) q->error.Record(std::move(status));
          done.Done();
        });
      }
    }
    submit_ns = obs::Trace::NowNanos();
    if (!pool_.TrySubmitBatch(std::move(tasks))) {
      // A shutdown closes admission too; report that truthfully rather
      // than as transient overload someone might retry against.
      api::Status refused =
          pool_.IsShutdown()
              ? api::Status::Cancelled("scheduler is shutting down")
              : api::Status::ResourceExhausted(
                    "service queue is full (" +
                    std::to_string(pool_.QueueDepth()) + "/" +
                    std::to_string(pool_.queue_capacity()) +
                    " tasks queued, this wave needs " +
                    std::to_string(num_tasks) + "); retry with backoff");
      for (size_t k = wave; k < wave_end; ++k) {
        queries[live[k]].error.Record(refused);
      }
      continue;
    }
    done.Wait();
  }

  for (size_t i : live) {
    Query& q = queries[i];
    if (api::Status status = q.error.Take(); !status.ok()) {
      outcomes[i].status = status;
      continue;
    }
    obs::ScopedSpan merge_span(q.trace, "merge", q.root);
    api::SearchResponse& response = outcomes[i].response;
    response.stats = q.merger->TakeStats();
    response.hits = q.merger->emitted();
    merge_span.End();
    response.stats.delta_shards = view.NumDeltaSlices();
    response.stats.compactions = view.compactions;
    // Cache the computed payload without this call's cache or compile
    // accounting — a later hit reports its own counters and compiled
    // nothing. A deadline-truncated partial is NOT the answer this key
    // stands for (caching it would serve missing hits until the epoch
    // turns); neither is a prefix the *sink* chose to cut (the key carries
    // max_hits, not the sink's stopping point). A genuine max_hits cap IS
    // the keyed answer.
    if (!response.stats.truncated_by_deadline && !q.merger->sink_stopped()) {
      cache_.Insert(q.key, response);
    }
    response.stats.plan_compile_ns = q.plan->compile_ns();
    response.stats.cache_misses = 1;
    response.stats.seconds = timer.ElapsedSeconds();
  }
}

api::Status QueryScheduler::RunSliceQuery(const CorpusView& view, size_t slice,
                                          const api::Aligner* aligner,
                                          const api::QueryPlan& plan,
                                          StreamMerger* merger,
                                          obs::Trace* trace, int root) {
  obs::ScopedSpan execute_span(trace, "execute", root);
  const bool frag = shard_cache_.capacity() > 0;
  std::string fkey;
  api::SearchResponse fragment;
  api::EngineStats stats;
  if (frag) {
    fkey = ResultCache::FragmentKeyFor(view.slices[slice].content_key, plan);
    if (shard_cache_.Lookup(fkey, &fragment)) {
      stats.shard_cache_hits = 1;
      PublishSlice(merger, slice, fragment.hits, stats);
      return api::Status::Ok();
    }
  }
  // Fragments are the raw slice-local stream — ownership cuts and
  // tombstones are applied at reuse time, so a fragment stays valid for
  // as long as the slice *content* does, however the frontier moves.
  api::Status status = aligner->Search(
      plan,
      [&](const AlignmentHit& hit) {
        if (frag) fragment.hits.push_back(hit);
        return merger->Publish(slice, hit);
      },
      &stats);
  // Only an uncut run is the slice's whole answer: the cap, a stopped
  // sink or a deadline truncation (all of which flag `truncated` or fail
  // the run) leave a prefix that would serve missing hits forever.
  if (frag && status.ok() && !stats.truncated) {
    shard_cache_.Insert(fkey, fragment);
  }
  if (frag) stats.shard_cache_misses = 1;  // Search overwrote `stats`
  // Close unconditionally (exactly once per slice): even a failed slice
  // merged its stats and must unblock buffered successors — the overall
  // request fails through the error slot, not through a stalled merge.
  merger->Close(slice, stats);
  if (!status.ok()) {
    if (merger->cap_satisfied() &&
        (status.code() == api::StatusCode::kCancelled ||
         status.code() == api::StatusCode::kDeadlineExceeded)) {
      // The cap token aborted this slice because the stream is already
      // satisfied: that is the short-circuit working, not a failure.
      return api::Status::Ok();
    }
    return SliceError(slice, status);
  }
  return api::Status::Ok();
}

api::Status QueryScheduler::RunFusedQuery(
    const CorpusView& view, const api::QueryPlan& plan,
    const std::vector<const api::Aligner*>& aligners, StreamMerger* merger,
    obs::Trace* trace, int root) {
  const size_t slices = view.slices.size();
  // The fused walk needs the typed ALAE plan and cannot host the
  // (single-index, test-only) bitset filter; everything else — including
  // plans from a custom backend registered under the "alae" name — runs
  // the per-slice loop below, serially inside this one task (which opens
  // its own per-slice execute spans, so none is opened here).
  const auto* compiled = dynamic_cast<const api::AlaePlan*>(&plan);
  if (compiled == nullptr || plan.request().alae.bitset_global_filter) {
    for (size_t s = 0; s < slices; ++s) {
      if (api::Status status =
              RunSliceQuery(view, s, aligners[s], plan, merger, trace, root);
          !status.ok()) {
        return status;
      }
    }
    return api::Status::Ok();
  }

  obs::ScopedSpan execute_span(trace, "execute", root);
  const bool frag = shard_cache_.capacity() > 0;
  std::vector<std::string> fkeys;
  if (frag) {
    // All-or-nothing against the fragment cache: the fused walk computes
    // every slice in one pass, so one missing fragment means running the
    // walk anyway — partial reuse would save nothing.
    fkeys.reserve(slices);
    std::vector<api::SearchResponse> fragments(slices);
    bool all_cached = true;
    for (size_t s = 0; s < slices; ++s) {
      fkeys.push_back(
          ResultCache::FragmentKeyFor(view.slices[s].content_key, plan));
      if (all_cached && !shard_cache_.Lookup(fkeys[s], &fragments[s])) {
        all_cached = false;
      }
    }
    if (all_cached) {
      api::EngineStats stats;
      stats.shard_cache_hits = 1;
      for (size_t s = 0; s < slices; ++s) {
        PublishSlice(merger, s, fragments[s].hits, stats);
      }
      return api::Status::Ok();
    }
  }

  std::vector<const AlaeIndex*> indexes;
  indexes.reserve(slices);
  for (size_t s = 0; s < slices; ++s) {
    indexes.push_back(&view.slices[s].registry->index());
  }
  // An already-expired token skips the walk (an empty partial answer).
  const CancelToken* cancel = plan.request().cancel;
  Timer timer;
  AlaeRunStats run;
  std::vector<ResultCollector> per_slice(slices);
  if (cancel == nullptr || !cancel->Expired()) {
    Alae::RunSharded(compiled->core(), indexes, &per_slice, &run, cancel);
  }
  api::EngineStats walk_stats;
  walk_stats.seconds = timer.ElapsedSeconds();
  walk_stats.counters = run.counters;
  walk_stats.anchors_considered = run.anchors_considered;
  walk_stats.grams_searched = run.grams_searched;
  walk_stats.plan_reuses = 1;
  // The fused walk bypasses Aligner::Search, so the cancellation status
  // conversion that layer normally performs happens here instead. It
  // precedes publishing: the merger's cap fires the same token.
  bool partial = false;
  if (cancel != nullptr) {
    switch (cancel->ExpiredWhy()) {
      case CancelToken::Why::kCancelled:
        return api::Status::Cancelled("request cancelled during execution");
      case CancelToken::Why::kDeadline:
        if (!plan.request().allow_partial) {
          return api::Status::DeadlineExceeded("deadline expired mid-search");
        }
        partial = true;
        walk_stats.truncated = true;
        walk_stats.truncated_by_deadline = true;
        break;
      case CancelToken::Why::kNone:
        break;
    }
  }
  for (size_t s = 0; s < slices; ++s) {
    api::SearchResponse fragment;
    fragment.hits = per_slice[s].Sorted();
    // The fused walk's counters cover all slices; attribute them once.
    api::EngineStats stats = s == 0 ? walk_stats : api::EngineStats{};
    // An aborted walk left every slice's fragment incomplete — publish
    // them (they are a correct subset) but never cache them.
    if (frag && !partial) {
      shard_cache_.Insert(fkeys[s], fragment);
      stats.shard_cache_misses = 1;
    }
    PublishSlice(merger, s, fragment.hits, stats);
  }
  return api::Status::Ok();
}

}  // namespace service
}  // namespace alae
