// InferenceRouter — the sharded front door (docs/SERVING.md "Sharding
// & admission"). N independent InferenceService shards, each with its
// own worker pool, batcher, circuit breakers, and (by default) its own
// frozen model replicas, sit behind one submit() that decides
//
//   submit ──▶ p2c candidate pick ──▶ admission ──▶ shard.submit
//                                        │
//                                        └─▶ shed: ShedError /
//                                            DeadlineExceededError,
//                                            future fails *now*
//
// Routing is power-of-two-choices: two candidate shards are drawn from
// a deterministic splitmix64 stream and the one with the smaller
// estimated wait (queued work × per-item cost EWMA ÷ drain width) gets
// the request. Admission (serve/admission.hpp) enforces bounded
// per-shard queues, priority-class headroom, and early deadline
// rejection — a request the fleet cannot plausibly finish in time
// fails before it consumes queue space, so clients degrade (e.g.
// CongestionPenalty's analytic path) instead of timing out late.
//
// Model replication: each shard gets its own clone_frozen() replica of
// every model set routed through it, so batcher buckets and circuit
// breakers key per (shard, model set, kind)
// — a model broken on one shard trips only that shard's breaker.
//
// Thread-safety: submit() from any number of threads. The router mutex
// guards admission state and the replica map; it is NEVER held across
// shard.submit() (which can block on pool backpressure) or inside the
// shards' completion hooks' callers — the hook itself takes the router
// mutex from worker threads, which is safe because the service invokes
// it with no service lock held (serve/service.hpp CompletionHook).
#pragma once

#include <array>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <vector>

#include "laco/congestion_penalty.hpp"
#include "obs/metrics.hpp"
#include "serve/admission.hpp"
#include "serve/service.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace laco::serve {

struct RouterConfig {
  int num_shards = 2;
  /// Per-shard service configuration. `shard.on_complete` is replaced
  /// by the router's own accounting hook; `shard.deadline_ms` doubles
  /// as the admission deadline (0 = no deadline, admission checks only
  /// queue bounds).
  ServiceConfig shard;
  AdmissionConfig admission;
  /// Give each shard its own clone_frozen() model replica (see above).
  /// Disable only in tests that assert on shared pointer identity.
  bool replicate_models = true;
  std::uint64_t p2c_seed = 0x10ad;  ///< candidate-pick stream seed

  /// Clamps num_shards ≥ 1 and validates the nested configs.
  RouterConfig validated() const;
};

struct RouterCounters {
  std::uint64_t requests = 0;        ///< submit() calls
  std::uint64_t admitted = 0;        ///< handed to a shard
  std::uint64_t shed = 0;            ///< rejected at admission (both kinds)
  std::uint64_t shed_queue_full = 0; ///< rejected: class/queue capacity
  std::uint64_t shed_deadline = 0;   ///< rejected: deadline unmeetable
  std::uint64_t completed = 0;       ///< admitted requests whose promise resolved
  std::array<std::uint64_t, kNumPriorities> admitted_by_class{};
  std::array<std::uint64_t, kNumPriorities> shed_by_class{};
  std::uint64_t replicated_model_sets = 0;  ///< distinct sets cloned per-shard
};

/// Registry mirrors under "serve.router." / "serve.shard.<i>." —
/// docs/OBSERVABILITY.md. Same pattern as ServiceMetrics: lock-free
/// counters/gauges updated alongside RouterCounters, readable without
/// the router mutex.
struct RouterMetrics {
  RouterMetrics(obs::MetricRegistry& registry, int num_shards);

  obs::Counter& requests;
  obs::Counter& admitted;
  obs::Counter& shed;
  obs::Counter& shed_queue_full;
  obs::Counter& shed_deadline;
  obs::Counter& completed;
  std::array<obs::Counter*, kNumPriorities> admitted_by_class;
  std::array<obs::Counter*, kNumPriorities> shed_by_class;
  obs::Histogram& est_wait_ms;  ///< admission-time wait estimate of the chosen shard
  std::vector<obs::Gauge*> shard_queued;  ///< serve.shard.<i>.queued
};

class InferenceRouter {
 public:
  explicit InferenceRouter(RouterConfig config = {});
  /// Drains every shard (their own destructors stop pools/flushers).
  ~InferenceRouter();

  InferenceRouter(const InferenceRouter&) = delete;
  InferenceRouter& operator=(const InferenceRouter&) = delete;

  /// Routes one inference request. The future ALWAYS resolves: with the
  /// output tensor, with a shard-side error (serve/errors.hpp), or —
  /// when admission sheds the request — with ShedError (queue full) or
  /// DeadlineExceededError (deadline unmeetable), set before the
  /// request touches any shard.
  std::future<nn::Tensor> submit(std::shared_ptr<const LacoModels> models, ModelKind kind,
                                 nn::Tensor input,  // analyze-ok(tensor-by-value): sink, moved into the shard
                                 Priority priority = Priority::kBatch)
      LACO_EXCLUDES(mutex_);

  /// Blocks until every admitted request has completed.
  void drain() LACO_EXCLUDES(mutex_);

  RouterCounters counters() const LACO_EXCLUDES(mutex_);
  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Shard introspection (counters, breaker state, latency snapshots).
  InferenceService& shard(int i) { return *shards_.at(static_cast<std::size_t>(i)); }
  const InferenceService& shard(int i) const { return *shards_.at(static_cast<std::size_t>(i)); }
  /// Admitted-but-uncompleted requests on shard `i` right now.
  std::size_t shard_queued(int i) const LACO_EXCLUDES(mutex_);
  /// Shard `i`'s current per-item cost EWMA (ms).
  double shard_cost_estimate_ms(int i) const LACO_EXCLUDES(mutex_);

  /// Latency (ms) of admitted requests across all shards (merged
  /// per-shard reservoirs; use serve::percentile for p50/p99).
  std::vector<double> latency_snapshot_ms() const;

  /// The model set shard `i` actually serves for `models` (its replica,
  /// or `models` itself when replication is off / not yet routed).
  std::shared_ptr<const LacoModels> replica(const std::shared_ptr<const LacoModels>& models,
                                            int i) const LACO_EXCLUDES(mutex_);

  const RouterConfig& config() const { return config_; }

 private:
  /// Completion callback installed on shard `i` (runs on its worker or
  /// submitting thread, no service lock held).
  void on_shard_complete(int i, const CompletionInfo& info) LACO_EXCLUDES(mutex_);
  /// Shard's replica for this model set, cloning on first sight.
  std::shared_ptr<const LacoModels> replica_locked(
      const std::shared_ptr<const LacoModels>& models, int i) LACO_REQUIRES(mutex_);

  RouterConfig config_;
  RouterMetrics metrics_;
  std::vector<std::unique_ptr<InferenceService>> shards_;
  mutable Mutex mutex_;
  std::vector<ShardAdmission> admissions_ LACO_GUARDED_BY(mutex_);
  RouterCounters counters_ LACO_GUARDED_BY(mutex_);
  /// replicas_[source set] → one replica per shard ([0] = source).
  std::map<const LacoModels*, std::vector<std::shared_ptr<const LacoModels>>> replicas_
      LACO_GUARDED_BY(mutex_);
  std::uint64_t pick_counter_ LACO_GUARDED_BY(mutex_) = 0;  ///< p2c stream position
};

/// A CongestionPenalty remote-forward closure backed by `router`: f's
/// pre-assembled input goes in as a kCongestion request at `priority`
/// and the call blocks on the result. Throws whatever the future holds
/// (ShedError, DeadlineExceededError, CircuitOpenError, model errors) —
/// the penalty catches and falls back to its local path
/// (laco/congestion_penalty.hpp RemoteCongestionForward).
RemoteCongestionForward make_penalty_remote(InferenceRouter& router,
                                            std::shared_ptr<const LacoModels> models,
                                            Priority priority = Priority::kInteractive);

}  // namespace laco::serve
