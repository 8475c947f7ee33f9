// The repository benchmark binary (see README.md next to this file).
// It runs one workload repeatedly for a fixed wall-clock budget, each
// job on a freshly built context (designs, model set, placer, service,
// kernel pool), and reports medians over the jobs. With --trace 1 it
// alternates untraced and traced jobs: the untraced ones give the
// reference job time, the traced ones record spans around every call
// the benchmark makes into a library module and read the counters the
// library already keeps.
//
// The last line of standard output is the result object run.py relays:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "laco/congestion_penalty.hpp"
#include "laco/model_zoo.hpp"
#include "laco/pipeline.hpp"
#include "netlist/ispd2015_suite.hpp"
#include "nn/kernel_pool.hpp"
#include "nn/layers.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "placer/detailed_placer.hpp"
#include "placer/legalizer.hpp"
#include "router/global_router.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"
#include "train/congestion_trainer.hpp"
#include "train/dataset.hpp"
#include "train/lookahead_trainer.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace laco::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// CPU time of every thread of the process.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile_or_zero(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : serve::percentile(v, p);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool same_weights(const nn::Module& a, const nn::Module& b) {
  const std::vector<nn::Tensor> pa = a.parameters();
  const std::vector<nn::Tensor> pb = b.parameters();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const std::vector<float>& x = pa[i].data();
    const std::vector<float>& y = pb[i].data();
    if (x.size() != y.size() || std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Tracing: spans around the benchmark's own calls into library modules,
// recorded into a private obs::TraceRecorder (the library's internal
// spans report into the global recorder, which stays off). Every span
// of one job carries the category "job:<n>", so the job is its shared
// identifier. Spans stay in memory until the run ends.

class Tracer {
 public:
  explicit Tracer(bool available) {
    if (available) recorder_.start();
  }
  bool on() const { return on_; }
  void begin_job(int job) {
    category_ = "job:" + std::to_string(job);
    on_ = recorder_.enabled();
  }
  void end_job() { on_ = false; }
  void record(const char* name, Clock::time_point begin, Clock::time_point end) {
    recorder_.record(name, category_, begin, end);
  }
  const obs::TraceRecorder& recorder() const { return recorder_; }

 private:
  obs::TraceRecorder recorder_;
  std::string category_;
  bool on_ = false;
};

/// RAII span; costs nothing but a branch while the tracer is off.
class Span {
 public:
  Span(Tracer& tracer, const char* name) : tracer_(tracer.on() ? &tracer : nullptr), name_(name) {
    if (tracer_ != nullptr) begin_ = Clock::now();
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->record(name_, begin_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  Clock::time_point begin_;
};

struct LayerRow {
  std::uint64_t calls = 0;
  double busy_s = 0.0;
  double self_s = 0.0;
};

/// Per-span-name calls, busy time, and self time (busy minus the time
/// covered by directly nested spans on the same thread).
std::map<std::string, LayerRow> layer_table(const std::vector<obs::TraceEvent>& events) {
  std::vector<const obs::TraceEvent*> order;
  order.reserve(events.size());
  for (const obs::TraceEvent& e : events) order.push_back(&e);
  std::sort(order.begin(), order.end(), [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
    if (a->tid != b->tid) return a->tid < b->tid;
    if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
    return a->dur_us > b->dur_us;  // parents before children starting together
  });
  std::vector<double> child_us(order.size(), 0.0);
  std::vector<std::size_t> stack;
  int tid = -1;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const obs::TraceEvent& e = *order[i];
    if (e.tid != tid) {
      stack.clear();
      tid = e.tid;
    }
    while (!stack.empty()) {
      const obs::TraceEvent& top = *order[stack.back()];
      if (e.ts_us >= top.ts_us + top.dur_us) {
        stack.pop_back();
      } else {
        break;
      }
    }
    if (!stack.empty()) child_us[stack.back()] += e.dur_us;
    stack.push_back(i);
  }
  std::map<std::string, LayerRow> table;
  for (std::size_t i = 0; i < order.size(); ++i) {
    LayerRow& row = table[order[i]->name];
    ++row.calls;
    row.busy_s += order[i]->dur_us * 1e-6;
    row.self_s += std::max(0.0, order[i]->dur_us - child_us[i]) * 1e-6;
  }
  return table;
}

// ---------------------------------------------------------------------------
// Metric plumbing.

/// Every per-layer metric the benchmark reports (BENCHMARK.json's
/// per_layer list). A traced run reports all of them on every workload;
/// a layer the workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"laco.penalty.calls", "count"},
        {"laco.penalty.busy_s", "s"},
        {"laco.penalty.p50_ms", "ms"},
        {"laco.penalty.p99_ms", "ms"},
        {"laco.penalty.fallback_frac", "frac"},
        {"phase.feature_gathering_s", "s"},
        {"phase.cell_flow_s", "s"},
        {"phase.lookahead_model_s", "s"},
        {"phase.congestion_model_s", "s"},
        {"phase.penalty_backward_s", "s"},
    };
    for (const char* op : {"conv2d", "conv2d_bwd", "conv_transpose2d", "conv_transpose2d_bwd",
                           "group_norm", "group_norm_bwd"}) {
      m.emplace_back(std::string("nn.op.") + op + ".calls", "count");
      m.emplace_back(std::string("nn.op.") + op + ".s", "s");
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"nn.pool.cpu_per_wall", "ratio"},
        {"placer.gp_self_s", "s"},
        {"placer.iterations", "count"},
        {"placer.legalize_s", "s"},
        {"placer.detailed_s", "s"},
        {"phase.density_s", "s"},
        {"phase.wirelength_s", "s"},
        {"router.route_s", "s"},
        {"router.segments", "count"},
        {"router.reroute_frac", "frac"},
        {"serve.wait_ms_p50", "ms"},
        {"serve.wait_ms_p99", "ms"},
        {"serve.exec_ms_p50", "ms"},
        {"serve.mean_batch", "count"},
        {"plan.executions", "count"},
        {"plan.cache.hit_ratio", "frac"},
        {"plan.compile_ms", "ms"},
        {"train.collect_s", "s"},
        {"train.g_s", "s"},
        {"train.f_s", "s"},
        {"train.samples_per_s", "1/s"},
        {"train.g_final_loss", "loss"},
        {"train.f_final_loss", "loss"},
        {"setup.design_s", "s"},
        {"setup.models_s", "s"},
        {"trace.overhead_frac", "frac"},
        {"hpwl", "um"},
        {"wcs_h", "score"},
        {"wcs_v", "score"},
        {"routed_wl", "um"},
        {"latency_p50_ms", "ms"},
        {"latency_p99_ms", "ms"},
        {"pred_nrms", "nrms"},
        {"pred_ssim", "ssim"},
        {"failed_frac", "frac"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return metrics;
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"setup_s", "s"}, {"job_s", "s"}, {"job_cpu_s", "s"}, {"peak_rss_mb", "MB"}};
  return metrics;
}

/// Per-job values keyed by metric name; the run reports each key's
/// median over the traced jobs.
using Values = std::map<std::string, double>;

/// Registry counter deltas over one interval.
class CounterWindow {
 public:
  CounterWindow() : before_(obs::MetricRegistry::global().snapshot()) {}
  void close() { after_ = obs::MetricRegistry::global().snapshot(); }
  double counter(const std::string& name) const {
    return static_cast<double>(value(after_.counters, name) - value(before_.counters, name));
  }
  /// (sample count, sum) of a histogram over the window.
  std::pair<double, double> histogram(const std::string& name) const {
    const auto a = after_.histograms.find(name);
    const auto b = before_.histograms.find(name);
    if (a == after_.histograms.end()) return {0.0, 0.0};
    double n = static_cast<double>(a->second.total);
    double sum = a->second.sum;
    if (b != before_.histograms.end()) {
      n -= static_cast<double>(b->second.total);
      sum -= b->second.sum;
    }
    return {n, sum};
  }

 private:
  static std::uint64_t value(const std::map<std::string, std::uint64_t>& m,
                             const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0 : it->second;
  }
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

void add_nn_ops(const CounterWindow& w, Values& v) {
  for (const char* op : {"conv2d", "conv2d_bwd", "conv_transpose2d", "conv_transpose2d_bwd",
                         "group_norm", "group_norm_bwd"}) {
    const std::string base = std::string("nn.op.") + op;
    v[base + ".calls"] = w.counter(base + ".calls");
    v[base + ".s"] = w.counter(base + ".ns") * 1e-9;
  }
}

void add_plan(const CounterWindow& w, Values& v) {
  v["plan.executions"] = w.counter("plan.executions");
  const double hits = w.counter("plan.cache.hits");
  const double lookups = hits + w.counter("plan.cache.misses");
  v["plan.cache.hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
  const auto [n, sum] = w.histogram("plan.compile_ms");
  v["plan.compile_ms"] = n > 0 ? sum / n : 0.0;
}

// ---------------------------------------------------------------------------
// Workloads. Each job gets a fresh context from setup(); run() is the
// timed job; check() verifies outputs outside the timed region.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string models_dir = "perfbench/models";
  std::string report_path;
  std::string trace_path;
  std::string commit = "unknown";
  /// Self-test hook: breaks one output on purpose so a correctness
  /// check must fire (legality | serve_output | quality | loss |
  /// train_fork), or gives a valid edge value it must accept (wcs_zero).
  std::string fault;
  /// Only time the extra set-ups and print their median (set-up probe).
  bool setup_only = false;
  /// Set-up medians measured by earlier probe processes of this run.
  std::vector<double> setup_medians;
};

struct JobReport {
  std::vector<double> quality;  ///< deterministic outputs, bit-compared across jobs
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  Values layer;  ///< per-layer values (traced jobs)

  void fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }
};

struct SetupTimes {
  double design_s = 0.0;
  double models_s = 0.0;
};

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Starts the shared kernel pool with `n` threads. The pool is
/// process-wide and created by its first parallel call, so the first
/// set-up of a run pays for it and later ones find it running.
void start_kernel_pool(int n) {
  static int started = 0;
  if (started == n) return;
  nn::set_kernel_threads(n);
  nn::parallel_tiles(static_cast<std::size_t>(n), [](std::size_t) {});
  started = n;
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual void setup(bool traced, SetupTimes& times) = 0;
  virtual void run(Tracer& tracer, JobReport& report) = 0;
  virtual void check(JobReport& report) = 0;
  virtual void teardown() = 0;
  /// Pooled per-layer samples (percentiles over every traced job).
  virtual void add_pooled(Values& /*out*/) const {}
  virtual obs::Json settings() const = 0;
  /// Quality lines for the log and the report: (name, value).
  virtual std::vector<std::pair<std::string, double>> quality_named(
      const std::vector<double>& q) const = 0;
};

// --- laco_place / dreamplace_place ------------------------------------------

struct PlacementSpec {
  std::vector<std::string> designs;
  double scale = 0.004;
  bool laco = true;  ///< Cell-flow+KL penalty every iteration; else plain DREAMPlace
  int iterations = 160;
  int kernel_threads = 1;
};

class PlacementWorkload : public Workload {
 public:
  PlacementWorkload(const char* name, PlacementSpec spec, const Options& opt)
      : name_(name), spec_(std::move(spec)), opt_(opt) {
    PipelineConfig pc = default_pipeline_config();
    Pipeline pipeline(pc);
    placer_opts_ = pc.trace.placer;
    placer_opts_.min_iterations = spec_.iterations;  // fixed budget, no early stop
    placer_opts_.max_iterations = spec_.iterations;
    placer_opts_.stall_window = 0;
    placer_opts_.seed = static_cast<unsigned>(opt_.seed * 2654435761u + 7u);
    router_ = pc.trace.router;
    penalty_ = pipeline.penalty_config();
    penalty_.apply_every = 1;  // every iteration, as bench_fig8_runtime runs it
  }

  const char* name() const override { return name_; }

  void setup(bool /*traced*/, SetupTimes& times) override {
    jobs_.clear();
    auto t = Clock::now();
    for (const std::string& d : spec_.designs) {
      auto job = std::make_unique<DesignJob>();
      // The suite's fixed instances (generator seed offset 0, as
      // bench_fig8_runtime places them); --seed drives the placer's seed.
      // Seed-jittered pci_bridge32_a instances hit a legalizer defect
      // (README.md, "Known defect").
      job->design = make_ispd2015_analog(d, spec_.scale);
      jobs_.push_back(std::move(job));
    }
    times.design_s = seconds_since(t);
    t = Clock::now();
    if (spec_.laco) models_ = load_models(opt_.models_dir);
    times.models_s = seconds_since(t);
    start_kernel_pool(spec_.kernel_threads);
    for (auto& job : jobs_) {
      DesignJob* j = job.get();
      j->placer = std::make_unique<GlobalPlacer>(j->design, placer_opts_);
      j->placer->set_runtime_breakdown(&j->breakdown);
      if (!spec_.laco) continue;
      j->penalty = std::make_unique<CongestionPenalty>(penalty_, models_);
      j->penalty->set_runtime_breakdown(&j->breakdown);
      j->placer->set_penalty_hook([this, j](const Design& d, int it, std::vector<double>& gx,
                                            std::vector<double>& gy) {
        if (tracer_ == nullptr || !tracer_->on()) return (*j->penalty)(d, it, gx, gy);
        const std::uint64_t before = j->penalty->stats().applications;
        const auto begin = Clock::now();
        const double loss = (*j->penalty)(d, it, gx, gy);
        const auto end = Clock::now();
        const bool applied = j->penalty->stats().applications != before;
        tracer_->record(applied ? "laco.penalty" : "laco.history", begin, end);
        if (applied) {
          penalty_ms_.push_back(std::chrono::duration<double, std::milli>(end - begin).count());
        }
        return loss;
      });
    }
  }

  void run(Tracer& tracer, JobReport& report) override {
    tracer_ = &tracer;
    double hpwl = 0.0, wcs_h = 0.0, wcs_v = 0.0, routed = 0.0;
    double iterations = 0.0, segments = 0.0, rerouted = 0.0;
    for (auto& job : jobs_) {
      ++report.attempted;
      PlacementResult placed;
      {
        Span s(tracer, "placer.run");
        placed = job->placer->run();
      }
      {
        Span s(tracer, "placer.legalize");
        legalize(job->design);
      }
      {
        Span s(tracer, "placer.detailed");
        detailed_place(job->design);
      }
      if (opt_.fault == "legality" && job == jobs_.front()) {
        // Stack the first two movable cells on top of each other.
        const auto& movable = job->design.movable_cells();
        job->design.cell(movable[1]).x = job->design.cell(movable[0]).x;
        job->design.cell(movable[1]).y = job->design.cell(movable[0]).y;
      }
      {
        Span s(tracer, "placer.legality_check");
        job->violations = count_legality_violations(job->design);
      }
      hpwl += job->design.hpwl();
      RoutingResult routing;
      {
        Span s(tracer, "router.route");
        routing = route_design(job->design, router_);
      }
      wcs_h += routing.wcs_h;
      wcs_v += routing.wcs_v;
      routed += routing.routed_wirelength;
      iterations += placed.iterations;
      segments += static_cast<double>(routing.segments);
      rerouted += static_cast<double>(routing.rerouted_segments);
      job->iterations = placed.iterations;
    }
    const double n = static_cast<double>(jobs_.size());
    report.quality = {hpwl, wcs_h / n, wcs_v / n, routed};
    if (opt_.fault == "wcs_zero") {
      // An overflow-free placement: WCS reads exactly 0, a valid result.
      report.quality[1] = 0.0;
      report.quality[2] = 0.0;
    }
    report.layer["placer.iterations"] = iterations;
    report.layer["router.segments"] = segments;
    report.layer["router.reroute_frac"] = segments > 0 ? rerouted / segments : 0.0;
    RuntimeBreakdown phases;
    for (auto& job : jobs_) {
      for (const auto& [phase, s, frac] : job->breakdown.table()) phases.add(phase, s);
    }
    report.layer["phase.feature_gathering_s"] = phases.seconds("feature gathering");
    report.layer["phase.cell_flow_s"] = phases.seconds("cell flow");
    report.layer["phase.lookahead_model_s"] = phases.seconds("look-ahead model");
    report.layer["phase.congestion_model_s"] = phases.seconds("congestion model");
    report.layer["phase.penalty_backward_s"] = phases.seconds("penalty backward");
    report.layer["phase.density_s"] = phases.seconds("placement: density");
    report.layer["phase.wirelength_s"] = phases.seconds("placement: wirelength");
    tracer_ = nullptr;
  }

  void check(JobReport& report) override {
    double applications = 0.0, fallbacks = 0.0;
    for (auto& job : jobs_) {
      if (job->violations != 0) {
        report.fail(job->design.name() + ": " + std::to_string(job->violations) +
                    " legality violations after evaluation");
      }
      if (job->iterations != spec_.iterations) {
        report.fail(job->design.name() + ": ran " + std::to_string(job->iterations) +
                    " iterations, budget is " + std::to_string(spec_.iterations));
      }
      if (!job->penalty) continue;
      const PenaltyStats& st = job->penalty->stats();
      report.attempted += st.applications;
      report.failed += st.analytic_fallbacks;  // a fallback is a failed application
      if (st.analytic_fallbacks > 0) {
        report.errors.push_back(job->design.name() + ": " +
                                std::to_string(st.analytic_fallbacks) + " analytic fallbacks");
      }
      if (st.applications == 0) report.fail(job->design.name() + ": penalty never applied");
      applications += static_cast<double>(st.applications);
      fallbacks += static_cast<double>(st.analytic_fallbacks);
    }
    report.layer["laco.penalty.fallback_frac"] = applications > 0 ? fallbacks / applications : 0.0;
    // WCS is 0 when nothing overflows (paper Eq. 18), so only the
    // wirelengths must be positive.
    for (double q : report.quality) {
      if (!std::isfinite(q)) report.fail("non-finite quality metric");
    }
    if (report.quality.size() == 4 && !(report.quality[0] > 0.0 && report.quality[3] > 0.0)) {
      report.fail("non-positive hpwl or routed_wl");
    }
  }

  void teardown() override { jobs_.clear(); }

  void add_pooled(Values& out) const override {
    out["laco.penalty.p50_ms"] = percentile_or_zero(penalty_ms_, 50.0);
    out["laco.penalty.p99_ms"] = percentile_or_zero(penalty_ms_, 99.0);
  }

  obs::Json settings() const override {
    obs::Json s = obs::Json::object();
    obs::Json designs = obs::Json::array();
    for (const std::string& d : spec_.designs) designs.push_back(obs::Json(d));
    s["designs"] = designs;
    s["scale"] = spec_.scale;
    s["scheme"] = spec_.laco ? "Cell-flow+KL (penalty every iteration)" : "DREAMPlace (no penalty)";
    s["iterations"] = spec_.iterations;
    s["kernel_threads"] = spec_.kernel_threads;
    s["service_workers"] = 0;
    s["penalty_samples"] = static_cast<double>(penalty_ms_.size());
    return s;
  }

  std::vector<std::pair<std::string, double>> quality_named(
      const std::vector<double>& q) const override {
    return {{"hpwl", q[0]}, {"wcs_h", q[1]}, {"wcs_v", q[2]}, {"routed_wl", q[3]}};
  }

 private:
  struct DesignJob {
    Design design;
    RuntimeBreakdown breakdown;
    std::unique_ptr<GlobalPlacer> placer;
    std::unique_ptr<CongestionPenalty> penalty;
    std::size_t violations = 0;
    int iterations = 0;
  };

  const char* name_;
  PlacementSpec spec_;
  const Options& opt_;
  GlobalPlacerOptions placer_opts_;
  GlobalRouterConfig router_;
  PenaltyConfig penalty_;
  LacoModels models_;
  std::vector<std::unique_ptr<DesignJob>> jobs_;
  Tracer* tracer_ = nullptr;
  std::vector<double> penalty_ms_;  ///< applied-penalty call latencies, traced jobs
};

// --- serve_predict ----------------------------------------------------------

struct ServeSpec {
  int requests = 384;  ///< per job
  int checked = 8;     ///< requests per job re-run through the eager forward
  int grid = 64;
};

class ServeWorkload : public Workload {
 public:
  ServeWorkload(ServeSpec spec, const Options& opt) : spec_(spec), opt_(opt) {
    // Generator thread + service workers (kernel pool inline) <= nproc.
    workers_ = std::max(1, hardware_threads() - 1);
    // Enough outstanding requests for every worker to fill a whole
    // batch, each slot with its own input.
    in_flight_ = workers_ * serve::BatcherConfig{}.max_batch;
  }

  const char* name() const override { return "serve_predict"; }

  void setup(bool traced, SetupTimes& times) override {
    auto t = Clock::now();
    registry_ = std::make_unique<serve::ModelRegistry>();
    models_ = registry_->get(opt_.models_dir);
    times.models_s = seconds_since(t);
    t = Clock::now();
    cin_ = models_->congestion->config().in_channels;
    Rng rng(opt_.seed * 0x9e3779b97f4a7c15ull + 11);
    inputs_.clear();
    for (int i = 0; i < in_flight_; ++i) {
      // Dense uniform [0, 1) values, as bench/bench_serve_scale.cpp sends.
      std::vector<float> values(static_cast<std::size_t>(cin_) * spec_.grid * spec_.grid);
      for (float& x : values) x = static_cast<float>(rng.uniform());
      inputs_.push_back(
          nn::Tensor::from_data({1, cin_, spec_.grid, spec_.grid}, std::move(values)));
    }
    times.design_s = seconds_since(t);
    start_kernel_pool(1);
    serve::ServiceConfig cfg;
    cfg.num_threads = workers_;
    if (traced) {
      cfg.on_complete = [this](const serve::CompletionInfo& info) {
        std::lock_guard<std::mutex> lock(samples_mutex_);
        latency_ms_.push_back(info.latency_ms);
        exec_ms_.push_back(info.exec_ms_per_item);
        wait_ms_.push_back(info.latency_ms - info.exec_ms_per_item);
      };
    }
    service_ = std::make_unique<serve::InferenceService>(cfg);
    // Warm-up: one full batch compiles the batch-shaped plan, so the
    // timed job sees only steady-state executions.
    std::vector<std::future<nn::Tensor>> warm;
    for (int i = 0; i < cfg.batcher.max_batch; ++i) {
      warm.push_back(service_->submit(models_, serve::ModelKind::kCongestion,
                                      inputs_[static_cast<std::size_t>(i) % inputs_.size()]));
    }
    for (auto& f : warm) f.get();
    service_->drain();
    warm_counters_ = service_->counters();
    if (traced) {
      std::lock_guard<std::mutex> lock(samples_mutex_);
      const std::size_t n = warm.size();
      for (std::vector<double>* v : {&latency_ms_, &exec_ms_, &wait_ms_}) v->resize(v->size() - n);
    }
  }

  void run(Tracer& tracer, JobReport& report) override {
    outputs_.assign(static_cast<std::size_t>(spec_.requests), nn::Tensor());
    std::deque<std::pair<int, std::future<nn::Tensor>>> pending;
    int next = 0;
    auto submit_next = [&] {
      Span s(tracer, "serve.submit");
      const auto& input = inputs_[static_cast<std::size_t>(next) % inputs_.size()];
      pending.emplace_back(next, service_->submit(models_, serve::ModelKind::kCongestion, input));
      ++next;
    };
    while (next < spec_.requests && next < in_flight_) submit_next();
    while (!pending.empty()) {
      auto [index, future] = std::move(pending.front());
      pending.pop_front();
      ++report.attempted;
      try {
        Span s(tracer, "serve.wait");
        outputs_[static_cast<std::size_t>(index)] = future.get();
      } catch (const std::exception& e) {
        report.fail(std::string("request failed: ") + e.what());
      }
      if (next < spec_.requests) submit_next();
    }
    service_->drain();
    const serve::ServiceCounters c = service_->counters();
    const double batches = static_cast<double>(c.batches - warm_counters_.batches);
    const double items = static_cast<double>(c.batched_items - warm_counters_.batched_items);
    report.layer["serve.mean_batch"] = batches > 0 ? items / batches : 0.0;
  }

  void check(JobReport& report) override {
    nn::NoGradGuard guard;
    std::uint64_t checksum = 1469598103934665603ull;
    for (const nn::Tensor& out : outputs_) {
      if (!out.defined()) continue;
      for (float x : out.data()) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &x, sizeof(bits));
        checksum = (checksum ^ bits) * 1099511628211ull;
      }
    }
    if (opt_.fault == "serve_output" && outputs_[0].defined()) {
      outputs_[0].data()[0] = std::nextafter(outputs_[0].data()[0], 1e30f);
    }
    const int stride = std::max(1, spec_.requests / spec_.checked);
    for (int i = 0; i < spec_.requests; i += stride) {
      const nn::Tensor& got = outputs_[static_cast<std::size_t>(i)];
      const nn::Tensor want =
          models_->congestion->forward(inputs_[static_cast<std::size_t>(i) % inputs_.size()]);
      if (!got.defined() || got.shape() != want.shape() ||
          std::memcmp(got.data().data(), want.data().data(), want.data().size() * sizeof(float)) !=
              0) {
        report.fail("request " + std::to_string(i) +
                    ": served output differs from the eager CongestionFcn::forward");
      }
    }
    // Low 52 bits keep the checksum exact as a double.
    report.quality = {static_cast<double>(checksum & ((1ull << 52) - 1))};
  }

  void teardown() override {
    service_.reset();
    outputs_.clear();
    models_.reset();
    registry_.reset();
  }

  void add_pooled(Values& out) const override {
    std::lock_guard<std::mutex> lock(samples_mutex_);
    out["latency_p50_ms"] = percentile_or_zero(latency_ms_, 50.0);
    out["latency_p99_ms"] = percentile_or_zero(latency_ms_, 99.0);
    out["serve.wait_ms_p50"] = percentile_or_zero(wait_ms_, 50.0);
    out["serve.wait_ms_p99"] = percentile_or_zero(wait_ms_, 99.0);
    out["serve.exec_ms_p50"] = percentile_or_zero(exec_ms_, 50.0);
  }

  obs::Json settings() const override {
    obs::Json s = obs::Json::object();
    s["loop"] = "closed";
    s["requests_per_job"] = spec_.requests;
    s["in_flight"] = in_flight_;
    s["input_shape"] = "[1, " + std::to_string(cin_) + ", " + std::to_string(spec_.grid) + ", " +
                       std::to_string(spec_.grid) + "]";
    s["kernel_threads"] = 1;
    s["service_workers"] = workers_;
    s["generator_threads"] = 1;
    s["max_batch"] = serve::BatcherConfig{}.max_batch;
    std::lock_guard<std::mutex> lock(samples_mutex_);
    s["latency_samples"] = static_cast<double>(latency_ms_.size());
    return s;
  }

  std::vector<std::pair<std::string, double>> quality_named(
      const std::vector<double>& q) const override {
    return {{"output_checksum", q[0]}};
  }

 private:
  ServeSpec spec_;
  const Options& opt_;
  int workers_ = 1;
  int in_flight_ = 1;
  int cin_ = 0;  ///< f's input channels, from the loaded model set
  std::unique_ptr<serve::ModelRegistry> registry_;
  std::shared_ptr<const LacoModels> models_;
  std::vector<nn::Tensor> inputs_;
  std::vector<nn::Tensor> outputs_;
  std::unique_ptr<serve::InferenceService> service_;
  serve::ServiceCounters warm_counters_;
  mutable std::mutex samples_mutex_;
  std::vector<double> latency_ms_, exec_ms_, wait_ms_;
};

// --- train_fg ---------------------------------------------------------------

struct TrainSpec {
  std::vector<std::string> designs;
  double scale = 0.004;
  int iterations = 160;  ///< per collected trace (fixed budget)
  int g_epochs = 2;
  int f_epochs = 2;
  int kernel_threads = 1;
};

class TrainWorkload : public Workload {
 public:
  TrainWorkload(TrainSpec spec, const Options& opt) : spec_(std::move(spec)), opt_(opt) {
    config_ = default_pipeline_config();
    config_.scale = spec_.scale;
    config_.runs_per_design = 1;
    config_.trace.placer.min_iterations = spec_.iterations;
    config_.trace.placer.max_iterations = spec_.iterations;
    config_.trace.placer.stall_window = 0;
    config_.lookahead_trainer.epochs = spec_.g_epochs;
    config_.congestion_trainer.epochs = spec_.f_epochs;
  }

  const char* name() const override { return "train_fg"; }

  void setup(bool /*traced*/, SetupTimes& times) override {
    auto t = Clock::now();
    designs_.clear();
    for (const std::string& d : spec_.designs) {
      designs_.push_back(make_ispd2015_analog(d, spec_.scale, opt_.seed));
    }
    times.design_s = seconds_since(t);
    times.models_s = 0.0;  // the job trains its models from scratch
    pipeline_ = std::make_unique<Pipeline>(config_);
    start_kernel_pool(spec_.kernel_threads);
  }

  // run() repeats Pipeline::train_models step by step so it can time g
  // and f apart. check() trains once per run through train_models itself
  // and requires the same weights, so the copy cannot drift from it.
  void run(Tracer& tracer, JobReport& report) override {
    const LacoScheme scheme = LacoScheme::kCellFlowKL;
    std::vector<PlacementTrace>& traces = traces_;
    traces.clear();
    auto t = Clock::now();
    {
      Span s(tracer, "train.collect");
      for (std::size_t i = 0; i < designs_.size(); ++i) {
        TraceCollectionConfig cfg = config_.trace;
        cfg.placer.seed = static_cast<unsigned>(opt_.seed * 977u + i + 1u);
        Span c(tracer, "train.collect_trace");
        traces.push_back(collect_trace(designs_[i], cfg));
      }
    }
    const double collect_s = seconds_since(t);
    LacoModels models;
    models.scheme = scheme;
    {
      Span s(tracer, "train.fit_scale");
      models.scale_hi = fit_congestion_scale(traces);
      models.scale_lo = fit_lookahead_scale(traces);
    }
    LookAheadConfig gc = config_.lookahead_model;
    gc.channels_per_frame = g_channels(scheme);
    gc.with_vae = traits_of(scheme).uses_vae;
    nn::reset_init_seed(0x5eed + static_cast<unsigned>(scheme));
    models.lookahead = std::make_shared<LookAheadModel>(gc);
    std::vector<LookAheadSample> g_samples;
    {
      Span s(tracer, "train.g_samples");
      g_samples = build_lookahead_samples(traces, gc.frames);
    }
    t = Clock::now();
    {
      Span s(tracer, "train.g");
      g_history_ = train_lookahead(*models.lookahead, g_samples, models.scale_lo,
                                   config_.lookahead_trainer);
    }
    const double g_s = seconds_since(t);
    CongestionFcnConfig fc = config_.congestion_model;
    fc.in_channels = f_in_channels(scheme);
    nn::reset_init_seed(0xf00d + static_cast<unsigned>(scheme));
    models.congestion = std::make_shared<CongestionFcn>(fc);
    std::vector<CongestionSample> f_samples;
    {
      Span s(tracer, "train.f_samples");
      f_samples = pipeline_->build_f_samples(scheme, models, traces);
    }
    t = Clock::now();
    {
      Span s(tracer, "train.f");
      f_history_ = train_congestion(*models.congestion, f_samples, config_.congestion_trainer);
    }
    const double f_s = seconds_since(t);
    models_ = models;
    PredictionQuality q;
    {
      Span s(tracer, "train.evaluate");
      q = pipeline_->evaluate_prediction(models, traces);
    }
    report.attempted += traces.size() + g_history_.epoch_losses.size() +
                        f_history_.epoch_losses.size();
    report.quality = {q.nrms, q.ssim, g_history_.final_loss(), f_history_.final_loss()};
    const double samples = static_cast<double>(g_samples.size()) * spec_.g_epochs +
                           static_cast<double>(f_samples.size()) * spec_.f_epochs;
    report.layer["train.collect_s"] = collect_s;
    report.layer["train.g_s"] = g_s;
    report.layer["train.f_s"] = f_s;
    report.layer["train.samples_per_s"] = g_s + f_s > 0 ? samples / (g_s + f_s) : 0.0;
    report.layer["train.g_final_loss"] = g_history_.final_loss();
    report.layer["train.f_final_loss"] = f_history_.final_loss();
    sample_counts_ = {static_cast<double>(g_samples.size()), static_cast<double>(f_samples.size())};
  }

  void check(JobReport& report) override {
    if (opt_.fault == "loss" && !f_history_.epoch_losses.empty()) {
      f_history_.epoch_losses.back() = std::nan("");
    }
    for (const TrainHistory* h : {&g_history_, &f_history_}) {
      const char* which = h == &g_history_ ? "g" : "f";
      const int want = h == &g_history_ ? spec_.g_epochs : spec_.f_epochs;
      if (static_cast<int>(h->epoch_losses.size()) != want) {
        report.fail(std::string(which) + ": trained " + std::to_string(h->epoch_losses.size()) +
                    " epochs, expected " + std::to_string(want));
      }
      for (double loss : h->epoch_losses) {
        if (!std::isfinite(loss)) report.fail(std::string(which) + ": non-finite epoch loss");
      }
    }
    for (double q : report.quality) {
      if (!std::isfinite(q)) report.fail("non-finite prediction metric");
    }
    if (!pipeline_checked_ && models_.congestion && models_.lookahead) {
      pipeline_checked_ = true;
      if (opt_.fault == "train_fork") {
        float& w = models_.congestion->parameters().front().data()[0];
        w = std::nextafter(w, 1e30f);
      }
      const LacoModels want = pipeline_->train_models(models_.scheme, traces_);
      if (!same_weights(*want.lookahead, *models_.lookahead) ||
          !same_weights(*want.congestion, *models_.congestion)) {
        report.fail("trained weights differ from Pipeline::train_models on the same traces");
      }
    }
  }

  void teardown() override {
    designs_.clear();
    pipeline_.reset();
    traces_.clear();
    models_ = LacoModels();
  }

  obs::Json settings() const override {
    obs::Json s = obs::Json::object();
    obs::Json designs = obs::Json::array();
    for (const std::string& d : spec_.designs) designs.push_back(obs::Json(d));
    s["designs"] = designs;
    s["scale"] = spec_.scale;
    s["scheme"] = "Cell-flow+KL";
    s["trace_iterations"] = spec_.iterations;
    s["g_epochs"] = spec_.g_epochs;
    s["f_epochs"] = spec_.f_epochs;
    s["g_samples"] = sample_counts_.empty() ? 0.0 : sample_counts_[0];
    s["f_samples"] = sample_counts_.empty() ? 0.0 : sample_counts_[1];
    s["kernel_threads"] = spec_.kernel_threads;
    s["service_workers"] = 0;
    return s;
  }

  std::vector<std::pair<std::string, double>> quality_named(
      const std::vector<double>& q) const override {
    return {{"pred_nrms", q[0]}, {"pred_ssim", q[1]}, {"g_final_loss", q[2]},
            {"f_final_loss", q[3]}};
  }

 private:
  TrainSpec spec_;
  const Options& opt_;
  PipelineConfig config_;
  std::vector<Design> designs_;
  std::unique_ptr<Pipeline> pipeline_;
  TrainHistory g_history_, f_history_;
  std::vector<double> sample_counts_;
  std::vector<PlacementTrace> traces_;  ///< the job's traces, kept for check()
  LacoModels models_;                   ///< the job's trained models
  bool pipeline_checked_ = false;       ///< train_models compared once per run
};

std::unique_ptr<Workload> make_workload(const Options& opt) {
  const int nproc = hardware_threads();
  if (opt.workload == "laco_place") {
    PlacementSpec s;
    s.designs = {"des_perf_1", "fft_1", "pci_bridge32_a"};
    s.scale = 0.004;
    s.laco = true;
    s.iterations = 120;
    s.kernel_threads = nproc;
    return std::make_unique<PlacementWorkload>("laco_place", s, opt);
  }
  if (opt.workload == "dreamplace_place") {
    PlacementSpec s;
    s.designs = {"des_perf_1"};
    s.scale = 0.05;
    s.laco = false;
    s.iterations = 160;
    s.kernel_threads = 1;
    return std::make_unique<PlacementWorkload>("dreamplace_place", s, opt);
  }
  if (opt.workload == "serve_predict") return std::make_unique<ServeWorkload>(ServeSpec{}, opt);
  if (opt.workload == "train_fg") {
    TrainSpec s;
    s.designs = {"des_perf_1", "fft_1", "fft_2"};
    s.g_epochs = 3;
    s.f_epochs = 3;
    s.kernel_threads = nproc;
    return std::make_unique<TrainWorkload>(s, opt);
  }
  return nullptr;
}

// ---------------------------------------------------------------------------

int usage() {
  std::cerr << "usage: laco_perfbench --workload "
               "<laco_place|dreamplace_place|serve_predict|train_fg> --seed N --seconds S "
               "--trace 0|1 [--models DIR] [--report FILE] [--trace-out FILE] [--commit ID]\n"
               "       [--setup-only 1] [--setup-medians S,S,...]\n"
               "       [--inject-fault legality|serve_output|quality|loss|train_fork|wcs_zero]\n";
  return 2;
}

std::string fmt(double v, int precision = 4) {
  std::ostringstream o;
  o << std::fixed << std::setprecision(precision) << v;
  return o.str();
}

int run(const Options& opt) {
  set_log_level(LogLevel::kWarn);
  std::unique_ptr<Workload> workload = make_workload(opt);
  if (!workload) return usage();

  constexpr int kMinJobs = 3;
  constexpr int kMaxJobs = 500;
  constexpr int kExtraSetups = 20;
  constexpr double kExtraSetupBudgetS = 1.5;
  Tracer tracer(opt.trace);
  std::vector<double> setup_s, job_cpu_s, untraced_job_s, traced_job_s;
  std::vector<double> design_s, models_s;
  std::map<std::string, std::vector<double>> layer_samples;
  std::vector<double> reference_quality;
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  std::vector<std::string> errors;

  const auto start = Clock::now();
  auto timed_setup = [&](bool traced) {
    SetupTimes times;
    const auto begin = Clock::now();
    workload->setup(traced, times);
    setup_s.push_back(seconds_since(begin));
    design_s.push_back(times.design_s);
    models_s.push_back(times.models_s);
  };
  // Set-up is short next to a job: besides the set-up each job pays,
  // time a few extra ones (torn down unused) for a steadier median.
  try {
    for (int i = 0; i < kExtraSetups && seconds_since(start) < kExtraSetupBudgetS; ++i) {
      timed_setup(false);
      workload->teardown();
    }
  } catch (const std::exception& e) {
    std::cerr << "setup failed: " << e.what() << '\n';
    return 1;
  }
  if (opt.setup_only) {
    obs::Json probe = obs::Json::object();
    probe["setup_s"] = median(setup_s);
    std::cout << probe.dump() << std::endl;
    return 0;
  }

  // Start another job only while it is expected to end inside the
  // budget, so a run lasts about --seconds whatever the job length.
  std::vector<double> round_s;
  int jobs = 0;
  while (jobs < kMaxJobs &&
         (jobs < kMinJobs || seconds_since(start) + median(round_s) <= opt.seconds)) {
    const auto round_begin = Clock::now();
    const bool traced = opt.trace && jobs % 2 == 1;
    JobReport report;
    CounterWindow setup_window;
    try {
      timed_setup(traced);
    } catch (const std::exception& e) {
      std::cerr << "setup failed: " << e.what() << '\n';
      return 1;
    }

    CounterWindow job_window;
    if (traced) tracer.begin_job(jobs);
    const double cpu0 = cpu_seconds();
    const auto job_begin = Clock::now();
    try {
      Span root(tracer, workload->name());
      workload->run(tracer, report);
    } catch (const std::exception& e) {
      report.attempted = std::max<std::uint64_t>(report.attempted, 1);
      report.fail(std::string("job threw: ") + e.what());
    }
    const double wall = seconds_since(job_begin);
    const double cpu = cpu_seconds() - cpu0;
    tracer.end_job();
    job_window.close();
    setup_window.close();

    workload->check(report);
    workload->teardown();

    if (opt.fault == "quality" && jobs == 1 && !report.quality.empty()) {
      report.quality[0] = std::nextafter(report.quality[0], 1e300);
    }
    if (reference_quality.empty()) {
      reference_quality = report.quality;
    } else if (!bitwise_equal(reference_quality, report.quality)) {
      report.fail("quality metrics differ from the first job of the same seed");
    }
    attempted += report.attempted;
    failed += report.failed;
    if (report.failed > 0) correct = false;
    for (const std::string& e : report.errors) {
      if (errors.size() < 20) errors.push_back("job " + std::to_string(jobs) + ": " + e);
    }

    if (!traced) {
      untraced_job_s.push_back(wall);
      job_cpu_s.push_back(cpu);
    } else {
      traced_job_s.push_back(wall);
      Values& v = report.layer;
      add_nn_ops(job_window, v);
      add_plan(setup_window, v);
      v["nn.pool.cpu_per_wall"] = wall > 0 ? cpu / wall : 0.0;
      for (const auto& [k, x] : v) layer_samples[k].push_back(x);
    }
    std::cout << workload->name() << " job " << jobs << (traced ? " (traced)" : "")
              << ": setup " << fmt(setup_s.back()) << " s, job " << fmt(wall) << " s, cpu "
              << fmt(cpu) << " s\n";
    round_s.push_back(seconds_since(round_begin));
    ++jobs;
  }

  const auto quality = reference_quality.empty()
                           ? std::vector<std::pair<std::string, double>>{}
                           : workload->quality_named(reference_quality);

  // Per-layer table from the traced jobs' spans.
  std::map<std::string, LayerRow> table;
  const double traced_jobs = static_cast<double>(traced_job_s.size());
  if (opt.trace) {
    table = layer_table(tracer.recorder().events());
    // Busy and self times are per traced job, so shares use the mean.
    double job_mean = 0.0;
    for (double x : traced_job_s) job_mean += x / traced_jobs;
    std::cout << "\nper-layer spans (per traced job, " << traced_job_s.size()
              << " jobs; share of their mean job_s " << fmt(job_mean) << " s)\n";
    std::cout << std::left << std::setw(24) << "span" << std::right << std::setw(10) << "calls"
              << std::setw(12) << "busy_s" << std::setw(12) << "self_s" << std::setw(9)
              << "share" << '\n';
    for (const auto& [name, row] : table) {
      const double busy = row.busy_s / traced_jobs;
      std::cout << std::left << std::setw(24) << name << std::right << std::setw(10)
                << fmt(static_cast<double>(row.calls) / traced_jobs, 1) << std::setw(12)
                << fmt(busy) << std::setw(12) << fmt(row.self_s / traced_jobs) << std::setw(8)
                << fmt(job_mean > 0 ? 100.0 * busy / job_mean : 0.0, 1) << "%\n";
    }
  }

  obs::Json metrics = obs::Json::object();
  auto put = [&metrics](const std::string& name, double value, const std::string& unit) {
    obs::Json m = obs::Json::object();
    m["value"] = value;
    m["unit"] = unit;
    metrics[name] = std::move(m);
  };
  // A process tends to keep one set-up speed for its whole life, so
  // setup_s is the mean of per-process medians: this run's and those of
  // the probe processes run.py started before it.
  std::vector<double> process_setup_s = opt.setup_medians;
  process_setup_s.push_back(median(setup_s));
  double setup_mean = 0.0;
  for (double x : process_setup_s) setup_mean += x / static_cast<double>(process_setup_s.size());
  if (!opt.trace) {
    const std::map<std::string, double> e2e = {{"setup_s", setup_mean},
                                               {"job_s", median(untraced_job_s)},
                                               {"job_cpu_s", median(job_cpu_s)},
                                               {"peak_rss_mb", peak_rss_mb()}};
    for (const auto& [name, unit] : end_to_end_metrics()) put(name, e2e.at(name), unit);
  } else {
    Values v;
    for (const auto& [k, samples] : layer_samples) v[k] = median(samples);
    workload->add_pooled(v);
    // Span totals over the traced jobs, per job.
    auto per_job = [&](const char* span, auto LayerRow::*field) {
      const auto it = table.find(span);
      if (it == table.end() || traced_jobs == 0) return 0.0;
      return static_cast<double>(it->second.*field) / traced_jobs;
    };
    v["laco.penalty.calls"] = per_job("laco.penalty", &LayerRow::calls);
    v["laco.penalty.busy_s"] = per_job("laco.penalty", &LayerRow::busy_s);
    v["placer.gp_self_s"] = per_job("placer.run", &LayerRow::self_s);
    v["placer.legalize_s"] = per_job("placer.legalize", &LayerRow::busy_s);
    v["placer.detailed_s"] = per_job("placer.detailed", &LayerRow::busy_s);
    v["router.route_s"] = per_job("router.route", &LayerRow::busy_s);
    v["setup.design_s"] = median(design_s);
    v["setup.models_s"] = median(models_s);
    const double untraced = median(untraced_job_s);
    v["trace.overhead_frac"] = untraced > 0 ? median(traced_job_s) / untraced - 1.0 : 0.0;
    for (const auto& [name, value] : quality) v[name] = value;
    v["failed_frac"] = attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
    for (const auto& [name, unit] : per_layer_metrics()) {
      const auto it = v.find(name);
      put(name, it == v.end() ? 0.0 : it->second, unit);
    }
  }

  // Settings and quality go into the log and the report, not the result.
  obs::Json settings = workload->settings();
  settings["workload"] = opt.workload;
  settings["seed"] = static_cast<double>(opt.seed);
  settings["seconds"] = opt.seconds;
  settings["trace"] = opt.trace;
  settings["nproc"] = hardware_threads();
  settings["build_type"] = PERFBENCH_BUILD_TYPE;
  settings["compiler"] = PERFBENCH_COMPILER;
  settings["git_commit"] = opt.commit;
  settings["jobs"] = jobs;
  settings["setup_processes"] = static_cast<double>(process_setup_s.size());
  settings["attempted"] = static_cast<double>(attempted);
  settings["failed"] = static_cast<double>(failed);
  std::cout << "\nsettings: " << settings.dump() << '\n';
  std::cout << "quality (bit-identical across the " << jobs << " jobs):";
  for (const auto& [name, value] : quality) std::cout << ' ' << name << '=' << value;
  std::cout << "\nfailed_frac: " << failed << '/' << attempted << '\n';
  for (const std::string& e : errors) std::cout << "FAILED CHECK: " << e << '\n';

  if (!opt.report_path.empty()) {
    obs::Json report = obs::Json::object();
    report["settings"] = settings;
    obs::Json q = obs::Json::object();
    for (const auto& [name, value] : quality) q[name] = value;
    report["quality"] = q;
    report["metrics"] = metrics;
    obs::Json samples = obs::Json::object();
    for (const auto& [name, values] :
         std::map<std::string, const std::vector<double>*>{{"setup_s", &setup_s},
                                                           {"setup_process_medians",
                                                            &process_setup_s},
                                                           {"job_s", &untraced_job_s},
                                                           {"traced_job_s", &traced_job_s},
                                                           {"job_cpu_s", &job_cpu_s}}) {
      obs::Json arr = obs::Json::array();
      for (double x : *values) arr.push_back(obs::Json(x));
      samples[name] = arr;
    }
    report["samples"] = samples;
    obs::Json spans = obs::Json::object();
    for (const auto& [name, row] : table) {
      obs::Json r = obs::Json::object();
      r["calls"] = static_cast<double>(row.calls);
      r["busy_s"] = row.busy_s;
      r["self_s"] = row.self_s;
      spans[name] = r;
    }
    report["spans"] = spans;
    obs::Json failed_checks = obs::Json::array();
    for (const std::string& e : errors) failed_checks.push_back(obs::Json(e));
    report["failed_checks"] = failed_checks;
    std::ofstream out(opt.report_path);
    out << report.dump(2) << '\n';
  }
  if (opt.trace && !opt.trace_path.empty() &&
      !tracer.recorder().write_chrome_trace(opt.trace_path)) {
    std::cerr << "cannot write " << opt.trace_path << '\n';
  }

  obs::Json result = obs::Json::object();
  result["correct"] = correct;
  result["attempted"] = static_cast<double>(attempted);
  result["failed"] = static_cast<double>(failed);
  result["metrics"] = metrics;
  std::cout << result.dump() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace laco::perfbench

int main(int argc, char** argv) {
  using laco::perfbench::Options;
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (i + 1 >= argc) return laco::perfbench::usage();
      const std::string value = argv[++i];
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else if (key == "--models") {
        opt.models_dir = value;
      } else if (key == "--report") {
        opt.report_path = value;
      } else if (key == "--trace-out") {
        opt.trace_path = value;
      } else if (key == "--commit") {
        opt.commit = value;
      } else if (key == "--inject-fault") {
        opt.fault = value;
      } else if (key == "--setup-only") {
        opt.setup_only = value == "1";
      } else if (key == "--setup-medians") {
        std::istringstream list(value);
        for (std::string item; std::getline(list, item, ',');) {
          opt.setup_medians.push_back(std::stod(item));
        }
      } else {
        return laco::perfbench::usage();
      }
    }
  } catch (const std::exception&) {
    return laco::perfbench::usage();
  }
  return laco::perfbench::run(opt);
}
