// serve_bench: the repository's serving benchmark. Generates
// wikisynth-S, serves it through the real SearchService + HttpServer
// (epoll reactor) on loopback, drives one named workload with an open-loop
// arrival schedule, checks every answer, and prints one JSON result line.
//
//   serve_bench --workload hot_zipf|cold_tail --seed N --seconds S
//               --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// untraced, then again with spans recorded by the benchmark (client request
// roots, route-wrapper children, setup steps), replays the executed queries
// through the benchmark's own SearchEngine, diffs /metrics scrapes, and
// prints the per-layer metrics plus the tracing overhead.
//
// One run: the write probe (durable updates on a fresh data dir, quiesce,
// WAL tail, unclean stop), then rounds of a reference-rate slice, one
// capacity step, one recovery of the probe's data dir and one more setup,
// then the check of every answer against a sequential engine.
//
// Exit codes: 0 ok, 1 wrong answer or failed durability check, 2 bad
// arguments, 3 the run is invalid (the generator itself fell behind or the
// server could not start).
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/timer.h"
#include "core/engine.h"
#include "live/compactor.h"
#include "live/snapshot_manager.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "server/http_client.h"
#include "server/http_server.h"
#include "server/search_service.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using wikisearch::EngineKind;
using wikisearch::KbHandle;
using wikisearch::SearchEngine;
using wikisearch::SearchOptions;
using wikisearch::SearchResult;
using wikisearch::WallTimer;
namespace live = wikisearch::live;
namespace server = wikisearch::server;

// ---------------------------------------------------------------------------
// Workload definitions. Thread counts are fixed: the generator thread, the
// reactor thread and an engine budget of two threads (a query runs on its
// handler thread plus granted workers) together use nproc = 4 cores.
// hot_zipf grants one thread per query, so a cache hit on the second
// handler never waits for a core behind a miss's worker; cold_tail grants
// up to two, so a lone query runs on both.

struct Spec {
  std::string name;
  std::string why;
  int top_k = 10;
  int max_threads_per_query = 1;
  double ref_rate = 0.0;      // /search per second at the reference rate
  double ref_share = 0.4;     // share of --seconds at the reference rate
  double limit_ms = 0.0;      // capacity: latency limit on a step's p95
  double cap_start = 0.0;     // first offered rate of the capacity search
  double cap_step_s = 1.0;    // duration of one capacity step
  double warm_s = 0.0;        // unmeasured warm-up at the reference rate
};

// CPU the load generator runs on (empty: not pinned), and every CPU the
// process may use (for the reference checks, which run with the server
// idle); both set once in main.
std::vector<int> g_generator_cpus;
std::vector<int> g_all_cpus;

constexpr int kReactorThreads = 1;
constexpr int kHandlerThreads = 2;
constexpr int kEngineThreadBudget = 2;
constexpr int kConnections = 4;
constexpr size_t kHotPool = 1000;
constexpr size_t kTailBatches = 4;     // WAL tail replayed by recovery
constexpr size_t kSampledQueries = 24;  // durability / quiesce checks
// The tail percentile reported at the reference rate. cold_tail's
// reference phase sees ~105 searches, exactly 15% of them split queries
// that cost ~100x a coherent one: p90 lies inside the split class with ten
// samples beyond it.
constexpr double kTailPct = 0.90;
// The percentile a capacity step is limited on.
constexpr double kStepPct = 0.95;
// The write probe posts 80 updates: p75 has twenty samples beyond it (with
// 40, its spread across seeds reached the bound).
constexpr double kUpdateTailPct = 0.75;
constexpr size_t kProbeUpdates = 80;
// cold_tail's queries cost 1-300 ms each and a run's reference phase sees
// only ~15 split queries, so its query sequences are fixed like the KB (all
// distinct, generated from these seeds); --seed varies the arrival
// schedule. The reference-rate slices draw from a stream of their own, so
// they always see the same prefix of it, with exactly 3 split queries in
// every 20, however many queries the capacity steps between them use.
// With seed-dependent queries the tail's spread across seeds was ~30%;
// with one stream shared by both phases, p90 fell on the class boundary in
// some runs (20 ms instead of ~150 ms).
constexpr uint64_t kColdQuerySeed = 2017;            // reference-rate slices
constexpr uint64_t kColdCapacityQuerySeed = 2018;  // everything else
constexpr double kRamp = 1.3;          // capacity ramp factor per step
constexpr int kMinSteps = 6;
constexpr double kMaxFailPct = 0.1;    // failed /search share a step allows
constexpr double kDrainS = 30.0;     // unanswered this long after due: failed
// Latency a failed /search counts with, so that a fast error (a 429, a
// refused connection) can never lower a percentile.
constexpr double kFailedMs = kDrainS * 1e3;
constexpr double kMaxLateMs = 20.0;  // generator lateness p99 of a valid run

std::optional<Spec> SpecFor(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "hot_zipf") {
    s.why =
        "1,000 coherent queries drawn by Zipf popularity, so the response "
        "and context caches hit on the head: reactor, caches, render and "
        "obs dominate";
    s.top_k = 10;
    s.ref_rate = 250;
    s.limit_ms = 50;
    s.cap_start = 1500;
    s.cap_step_s = 1.5;
    s.warm_s = 1.0;
  } else if (name == "cold_tail") {
    s.why =
        "every query distinct and 15% split across two communities, so no "
        "cache can hit and bottom-up and top-down do almost all the work";
    s.top_k = 20;
    s.max_threads_per_query = 2;
    // Low enough that queries rarely overlap, so a lone query gets both
    // engine threads and the reference-rate latencies are the queries' own
    // costs rather than queueing behind split queries (at 15/s, p75 was
    // already 70 ms of queueing and p90/p95 moved with each seed's bursts).
    s.ref_rate = 6;
    s.ref_share = 0.7;
    s.limit_ms = 1000;
    s.cap_start = 50;
    s.cap_step_s = 1.5;
  } else {
    return std::nullopt;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Answer fingerprints: the served body minus its "stats" object (timings),
// so a 200 body is compared with the reference on keywords, dropped
// keywords and every answer byte.

struct BodyCheck {
  bool parsed = false;
  bool degraded = false;
  uint64_t hash = 0;
  double engine_ms = -1.0;  // stats.total_ms
};

BodyCheck CheckBody(const std::string& body) {
  BodyCheck c;
  const size_t stats = body.find("\"stats\":");
  const size_t answers = body.find("\"answers\":", stats);
  if (stats == std::string::npos || answers == std::string::npos) return c;
  c.parsed = true;
  const std::string_view st(body.data() + stats, answers - stats);
  c.degraded = st.find("\"degraded\":true") != std::string_view::npos ||
               st.find("\"timed_out\":true") != std::string_view::npos;
  const size_t tm = st.find("\"total_ms\":");
  if (tm != std::string_view::npos) {
    c.engine_ms = std::atof(std::string(st.substr(tm + 11, 32)).c_str());
  }
  c.hash = Fnv1a(body.data(), stats);
  c.hash = Fnv1a(body.data() + answers, body.size() - answers, c.hash);
  return c;
}

SearchOptions ReferenceOptions(int top_k) {
  SearchOptions o;
  o.engine = EngineKind::kSequential;
  o.threads = 1;
  o.top_k = top_k;
  o.record_metrics = false;
  return o;
}

SearchOptions ServingOptions(const Spec& spec) {
  SearchOptions o;
  o.engine = EngineKind::kCpuParallel;
  o.threads = spec.max_threads_per_query;
  o.top_k = spec.top_k;
  return o;
}

/// Reference fingerprints of `texts` from a sequential single-thread engine,
/// computed on `threads` threads.
std::vector<uint64_t> ReferenceHashes(const SearchEngine& engine,
                                      const KbHandle& kb,
                                      const std::vector<std::string>& texts,
                                      int top_k, int threads) {
  std::vector<uint64_t> out(texts.size(), 0);
  std::atomic<size_t> next{0};
  auto work = [&] {
    PinThread(g_all_cpus);
    const SearchOptions opts = ReferenceOptions(top_k);
    for (size_t i = next++; i < texts.size(); i = next++) {
      auto r = engine.Search(kb, texts[i], opts);
      if (!r.ok()) continue;  // 0 never matches a served fingerprint
      out[i] = CheckBody(server::SearchResultToJson(kb.graph, *r)).hash;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  return out;
}

// ---------------------------------------------------------------------------
// Process measurements.

const Clock::time_point g_process_start = Clock::now();

/// Progress line on stderr, stamped with seconds since the program started.
void Progress(const std::string& what) {
  std::fprintf(stderr, "[%7.2f s] %s\n", SecondsSince(g_process_start),
               what.c_str());
}

double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

/// Milliseconds a fixed integer loop takes on each of `threads` threads
/// at once (the slowest thread). Recorded in the envelope, not a metric:
/// on a shared virtual machine the host's speed, and above all its
/// parallel capacity, wanders by up to 2x over minutes, and every figure
/// of a run moves with it.
double HostProbeMs(int threads) {
  auto loop = [] {
    WallTimer t;
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < 20'000'000; ++i) sink = sink + i * i;
    return t.ElapsedMs();
  };
  std::vector<double> ms(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  for (int i = 1; i < threads; ++i) pool.emplace_back([&, i] { ms[i] = loop(); });
  ms[0] = loop();
  for (auto& t : pool) t.join();
  return *std::max_element(ms.begin(), ms.end());
}

/// Revision under test, passed in by run.py (the checkout may not be a git
/// repository).
std::string GitSha() {
  const char* env = std::getenv("PERFBENCH_GIT_SHA");
  return env != nullptr && *env != '\0' ? env : "unknown";
}

/// Keeps every CPU out of its idle state for the life of the run: one
/// SCHED_IDLE thread per CPU spins, and any runnable thread of the program
/// preempts it at once. On a virtual machine a halted vCPU takes a
/// hypervisor exit to wake, which made sub-millisecond latencies depend on
/// host load (hot_zipf's p50 ranged 0.2-1.4 ms across runs without this).
/// The same as booting with idle=poll; a thread that cannot get SCHED_IDLE
/// exits instead of competing with the program.
///
/// So the figures are those of a machine that never idles its CPUs: a
/// deployment that does pays the wake-up latency on top, mostly visible in
/// sub-millisecond latencies (hot_zipf's search_p50_ms). On SMT or
/// overcommitted hosts the spinners also share core resources with the
/// threads measured. The envelope records the setting ("environment").
class IdlePoller {
 public:
  explicit IdlePoller(const std::vector<int>& cpus) {
    for (int cpu : cpus) {
      threads_.emplace_back([this, cpu] {
        PinThread({cpu});
        sched_param p{};
        if (sched_setscheduler(0, SCHED_IDLE, &p) != 0) return;
        while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
      });
    }
  }
  ~IdlePoller() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  IdlePoller(const IdlePoller&) = delete;
  IdlePoller& operator=(const IdlePoller&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// One serving deployment: static (graph/index owned here) or durable live.

struct Deployment {
  std::unique_ptr<Kb> kb;  // static mode
  std::unique_ptr<live::SnapshotManager> manager;
  std::unique_ptr<live::Compactor> compactor;
  std::unique_ptr<server::SearchService> service;
  std::unique_ptr<server::HttpServer> http;
  live::SnapshotManager::RecoveryInfo recovery;

  ~Deployment() { Stop(); }
  /// Graceful for the server; the manager is dropped without
  /// ShutdownDurable, so a durable directory is left as after a crash.
  void Stop() {
    if (http) http->Stop();
    if (compactor) compactor->Stop();
    http.reset();
    service.reset();
    compactor.reset();
    manager.reset();
  }
};

struct SetupTimes {
  KbTimes kb;
  double serve_s = 0.0;  // service (+ OpenDurable) + server start
  double total_s = 0.0;  // start to first request accepted
};

// Wrappers installed over the service's routes in traced runs: each records
// a span named after the route, child of the client's request span.
struct Tracer {
  SpanLog* log = nullptr;
  live::SnapshotManager* manager = nullptr;  // for overlay depth samples
  std::mutex mu;
  std::vector<size_t> overlay_depths;  // guarded by mu
};

uint64_t RequestId(const server::HttpRequest& r) {
  auto it = r.headers.find("x-request-id");
  return it == r.headers.end() ? 0 : std::strtoull(it->second.c_str(),
                                                   nullptr, 10);
}

bool StartServer(const Spec& spec, Deployment* d, Tracer* tracer) {
  d->service->SetThreadBudget(kEngineThreadBudget,
                              spec.max_threads_per_query);
  d->service->SetMaxConcurrency(kEngineThreadBudget);
  d->http = std::make_unique<server::HttpServer>();
  d->http->SetReactorThreads(kReactorThreads);
  d->http->SetHandlerThreads(kHandlerThreads);
  d->service->RegisterRoutes(d->http.get());
  if (tracer != nullptr) {
    server::SearchService* svc = d->service.get();
    d->http->Route("/search", [svc, tracer](const server::HttpRequest& r) {
      Span s{"service.search", tracer->log->NextId(), RequestId(r),
             tracer->log->Now(), 0.0};
      server::HttpResponse resp = svc->HandleSearch(r);
      s.end_s = tracer->log->Now();
      tracer->log->Add(std::move(s));
      return resp;
    });
    if (d->manager) {
      d->http->Route("/update", [svc, tracer](const server::HttpRequest& r) {
        Span s{"service.update", tracer->log->NextId(), RequestId(r),
               tracer->log->Now(), 0.0};
        server::HttpResponse resp = svc->HandleUpdate(r);
        s.end_s = tracer->log->Now();
        const size_t depth = tracer->manager->overlay_depth();
        tracer->log->Add(std::move(s));
        std::lock_guard<std::mutex> lock(tracer->mu);
        tracer->overlay_depths.push_back(depth);
        return resp;
      });
    }
  }
  if (!d->http->Start(0).ok()) return false;
  // Setup ends when the server has accepted and answered a request.
  auto h = server::HttpGet(d->http->port(), "/healthz");
  return h.ok() && h->status == 200;
}

live::SnapshotManager::DurabilityOptions Durability(const std::string& dir) {
  live::SnapshotManager::DurabilityOptions d;
  d.data_dir = dir;
  d.fsync_policy = live::FsyncPolicy::kAlways;
  return d;
}

/// Builds and starts a deployment from scratch; static unless `data_dir`
/// is set (durable live mode on a fresh directory).
std::unique_ptr<Deployment> SetUp(const Spec& spec, const std::string& data_dir,
                                  Tracer* tracer, SetupTimes* t) {
  WallTimer total;
  auto d = std::make_unique<Deployment>();
  auto kb = std::make_unique<Kb>(BuildKb(&t->kb));
  WallTimer serve;
  const SearchOptions opts = ServingOptions(spec);
  if (data_dir.empty()) {
    d->kb = std::move(kb);
    d->service = std::make_unique<server::SearchService>(
        &d->kb->gen.graph, &d->kb->index, opts);
  } else {
    auto opened = live::SnapshotManager::OpenDurable(
        std::move(kb->gen.graph), std::move(kb->index), {},
        Durability(data_dir), &d->recovery);
    if (!opened.ok()) return nullptr;
    d->manager = std::move(*opened);
    d->compactor = std::make_unique<live::Compactor>(d->manager.get());
    d->service =
        std::make_unique<server::SearchService>(d->manager.get(), opts);
    d->compactor->Start();
    if (tracer != nullptr) tracer->manager = d->manager.get();
  }
  if (!StartServer(spec, d.get(), tracer)) return nullptr;
  t->serve_s = serve.ElapsedMs() / 1e3;
  t->total_s = total.ElapsedMs() / 1e3;
  return d;
}

/// Reopens a durable directory after an unclean stop; `recovery_s` runs
/// until the recovered service answers a /search.
std::unique_ptr<Deployment> Recover(const Spec& spec, const std::string& dir,
                                    const std::string& probe_query,
                                    Tracer* tracer, double* recovery_s) {
  WallTimer total;
  auto d = std::make_unique<Deployment>();
  auto opened = live::SnapshotManager::OpenDurable(
      wikisearch::KnowledgeGraph(), wikisearch::InvertedIndex(), {},
      Durability(dir), &d->recovery);
  if (!opened.ok()) return nullptr;
  d->manager = std::move(*opened);
  d->compactor = std::make_unique<live::Compactor>(d->manager.get());
  d->service = std::make_unique<server::SearchService>(
      d->manager.get(), ServingOptions(spec));
  d->compactor->Start();
  if (tracer != nullptr) tracer->manager = d->manager.get();
  if (!StartServer(spec, d.get(), tracer)) return nullptr;
  auto r = server::HttpGet(d->http->port(),
                           "/search?q=" + UrlEncode(probe_query) +
                               "&k=" + std::to_string(spec.top_k));
  if (!r.ok() || r->status != 200) return nullptr;
  *recovery_s = total.ElapsedMs() / 1e3;
  return d;
}

// ---------------------------------------------------------------------------
// Request accounting.

struct Tally {
  size_t search_attempted = 0;
  size_t search_failed = 0;
  size_t update_attempted = 0;
  size_t update_failed = 0;
  // /search requests of the reference-rate phase (search_fail_pct).
  size_t reference_attempted = 0;
  size_t reference_failed = 0;
  // Failure classes of /search.
  size_t non200 = 0;
  size_t conn_error = 0;
  size_t degraded = 0;
  size_t wrong = 0;
};

struct SearchSample {
  uint32_t query = 0;
  uint64_t hash = 0;
  bool reference_phase = false;
};

/// State of one run of a workload (untraced or traced).
struct Run {
  const Spec* spec = nullptr;
  std::unique_ptr<SpanLog> spans;
  Tracer tracer;

  std::vector<Query> queries;          // request item -> query
  std::unordered_set<std::string> cold_seen;  // shared by both streams
  std::unique_ptr<ColdStream> cold, cold_reference;
  wikisearch::ZipfSampler* zipf = nullptr;
  std::vector<uint32_t> hot_index;     // pool index -> queries index
  std::unique_ptr<UpdateStream> updates;
  std::vector<std::string> update_bodies;
  std::vector<bool> update_compact;  // POST /update?compact=1

  Tally tally;
  bool in_reference_phase = false;
  std::vector<SearchSample> to_verify;  // static KB: checked post hoc
  uint64_t last_acked_seq = 0;
  uint64_t next_rid = 1;
  wikisearch::Rng rng{0};

  // Results.
  std::vector<double> search_ms;   // reference-rate phase
  std::vector<double> update_ms;   // churn or write probe
  std::vector<double> late_ms;     // reference-rate phase
  size_t backlog_peak = 0;
  struct Step {
    double rate, p95_ms, fail_pct;
    size_t requests, backlog_end;
    bool aborted, pass;
  };
  std::vector<Step> steps;
  double capacity_qps = 0.0;
  std::vector<std::string> sampled;       // write probe's checked queries
  std::vector<uint64_t> served_before;    // their answers before the stop
  std::vector<double> recovery_runs_s;
  uint64_t replayed_batches = 0;
  std::vector<double> recovery_ms_engine;  // OpenDurable's own timing
  std::vector<SetupTimes> setups;
  std::vector<double> probe1_ms, probe2_ms;  // HostProbeMs(1), (2) per round
  // Traced-run observations.
  std::vector<double> transport_ms, handler_ms, wait_ms;
  std::set<uint64_t> bodies_seen;
  std::vector<uint32_t> executed_queries;
  std::vector<uint32_t> requested;  // query of every /search sent
};

uint32_t AddQuery(Run* run, Query q) {
  run->queries.push_back(std::move(q));
  return static_cast<uint32_t>(run->queries.size() - 1);
}

/// Query for the next /search arrival of this workload.
uint32_t NextSearchItem(Run* run) {
  if (run->cold) {
    ColdStream* stream =
        run->in_reference_phase ? run->cold_reference.get() : run->cold.get();
    return AddQuery(run, stream->Next());
  }
  return run->hot_index[run->zipf->Sample(run->rng)];
}

uint32_t NextUpdateItem(Run* run) {
  run->update_bodies.push_back(run->updates->Next());
  run->update_compact.push_back(false);
  return static_cast<uint32_t>(run->update_bodies.size() - 1);
}

/// Open-loop schedule of `seconds`: Poisson /search arrivals at `rate`.
/// With `counted`, exactly rate x seconds (rounded) of them, so every run's
/// reference phase sends the same number of requests (and on cold_tail the
/// same queries) and only their arrival times depend on --seed.
std::vector<Arrival> Schedule(Run* run, double rate, double seconds,
                              bool counted = false) {
  const std::vector<double> times =
      counted ? CountedArrivals(static_cast<size_t>(std::llround(rate * seconds)),
                                seconds, run->rng())
              : PoissonArrivals(rate, seconds, run->rng());
  std::vector<Arrival> s;
  for (double t : times) s.push_back(Arrival{t, false, NextSearchItem(run)});
  return s;
}

struct PhaseResult {
  PhaseStats stats;
  std::vector<double> search_ms, update_ms;
  size_t searches = 0, search_failures = 0;
};

/// Runs one schedule against `d`, accounting every request.
PhaseResult RunPhase(Run* run, Deployment* d, LoadGen* gen,
                     const std::vector<Arrival>& sched, size_t max_backlog) {
  const int top_k = run->spec->top_k;
  std::vector<uint64_t> rids(sched.size());
  for (auto& r : rids) r = run->next_rid++;
  auto build = [&](const Arrival& a, uint32_t i) {
    const std::string rid = std::to_string(rids[i]);
    if (a.update) {
      const std::string& body = run->update_bodies[a.item];
      return std::string(run->update_compact[a.item] ? "POST /update?compact=1"
                                                     : "POST /update") +
             " HTTP/1.1\r\nHost: bench\r\nX-Request-Id: " + rid +
             "\r\nContent-Type: application/json\r\nContent-Length: " +
             std::to_string(body.size()) + "\r\n\r\n" + body;
    }
    return "GET /search?q=" + UrlEncode(run->queries[a.item].text) +
           "&k=" + std::to_string(top_k) +
           " HTTP/1.1\r\nHost: bench\r\nX-Request-Id: " + rid + "\r\n\r\n";
  };
  const double phase_start = run->spans ? run->spans->Now() : 0.0;
  std::vector<Completion> done;
  PhaseResult pr;
  pr.stats = gen->Run(sched, build, &done, kDrainS, max_backlog);

  std::unordered_map<uint64_t, const Span*> handler_by_rid;
  std::vector<Span> handler_spans;
  if (run->spans) {
    handler_spans = run->spans->Named("service.search");
    for (const Span& s : handler_spans) handler_by_rid[s.parent] = &s;
  }
  for (const Completion& c : done) {
    const Arrival& a = sched[c.arrival];
    const uint64_t rid = rids[c.arrival];
    if (run->spans) {
      run->spans->Add(Span{a.update ? "client.update" : "client.search", rid,
                           0, phase_start + c.due_s, phase_start + c.done_s});
    }
    if (a.update) {
      ++run->tally.update_attempted;
      bool ok = c.status == 200 &&
                c.body.find("\"durable\":true") != std::string::npos;
      const size_t at = c.body.find("\"seq\":");
      if (ok && at != std::string::npos) {
        run->last_acked_seq = std::max<uint64_t>(
            run->last_acked_seq, std::strtoull(c.body.c_str() + at + 6,
                                               nullptr, 10));
      } else {
        ok = false;
      }
      if (!ok) {
        ++run->tally.update_failed;
        std::fprintf(stderr, "update failed: status %d: %.200s\n", c.status,
                     c.body.c_str());
      }
      pr.update_ms.push_back(ok ? c.latency_ms() : kFailedMs);
      continue;
    }
    ++run->tally.search_attempted;
    run->requested.push_back(a.item);
    ++pr.searches;
    bool failed = true;
    if (c.status == 0) {
      ++run->tally.conn_error;
    } else if (c.status != 200) {
      ++run->tally.non200;
    } else {
      const BodyCheck bc = CheckBody(c.body);
      if (!bc.parsed) {
        ++run->tally.wrong;
      } else if (bc.degraded) {
        ++run->tally.degraded;
      } else {
        failed = false;
        if (!d->manager) {
          run->to_verify.push_back({a.item, bc.hash, run->in_reference_phase});
        }
        if (run->spans) {
          // A body with timing digits never seen before came from a fresh
          // engine execution; a repeat is a cached (or shared) answer.
          const bool fresh =
              run->bodies_seen.insert(Fnv1a(c.body.data(), c.body.size()))
                  .second;
          auto it = handler_by_rid.find(rid);
          if (it != handler_by_rid.end()) {
            const double h = it->second->ms();
            run->handler_ms.push_back(h);
            run->transport_ms.push_back((c.done_s - c.sent_s) * 1e3 - h);
            if (fresh && bc.engine_ms >= 0) {
              run->wait_ms.push_back(h - bc.engine_ms);
              run->executed_queries.push_back(a.item);
            }
          }
        }
      }
    }
    pr.search_ms.push_back(failed ? kFailedMs : c.latency_ms());
    if (run->in_reference_phase) ++run->tally.reference_attempted;
    if (failed) {
      ++run->tally.search_failed;
      ++pr.search_failures;
      if (run->in_reference_phase) ++run->tally.reference_failed;
    }
  }
  return pr;
}

/// Where p95 crosses `limit` as the offered rate rises: a monotone
/// (pool-adjacent-violators) fit of p95 over every step, so one noisy step
/// cannot move the answer alone, interpolated log-linearly between the two
/// fitted points around the crossing. A step that failed on errors or on
/// backlog counts as twice the limit.
double CrossingRate(std::vector<Run::Step> steps, double limit) {
  std::sort(steps.begin(), steps.end(),
            [](const Run::Step& a, const Run::Step& b) { return a.rate < b.rate; });
  struct Block {
    double sum;
    size_t n;
    double mean() const { return sum / static_cast<double>(n); }
  };
  std::vector<Block> blocks;
  std::vector<size_t> block_of;
  for (const Run::Step& s : steps) {
    const bool hard_fail = s.aborted || s.fail_pct > kMaxFailPct;
    blocks.push_back({hard_fail ? std::max(s.p95_ms, 2 * limit) : s.p95_ms, 1});
    while (blocks.size() > 1 &&
           blocks[blocks.size() - 2].mean() > blocks.back().mean()) {
      blocks[blocks.size() - 2].sum += blocks.back().sum;
      blocks[blocks.size() - 2].n += blocks.back().n;
      blocks.pop_back();
    }
  }
  std::vector<double> fit;
  for (const Block& b : blocks) fit.insert(fit.end(), b.n, b.mean());
  for (size_t k = 0; k < fit.size(); ++k) {
    if (fit[k] <= limit) continue;
    if (k == 0) return steps[0].rate * limit / fit[0];
    const double f = (limit - fit[k - 1]) / (fit[k] - fit[k - 1]);
    return steps[k - 1].rate * std::pow(steps[k].rate / steps[k - 1].rate, f);
  }
  return steps.back().rate;  // never crossed: a lower bound
}

/// Capacity search: ramp the offered rate by kRamp until two consecutive
/// steps fail, then bisect (geometrically) between the last passing and
/// the first failing rate with the remaining steps; the result is
/// CrossingRate over all steps. Step() runs one step, so the caller can
/// interleave the steps with other work.
class CapacitySearch {
 public:
  CapacitySearch(Run* run, double budget_s)
      : run_(run),
        steps_(std::max(kMinSteps,
                        static_cast<int>(
                            std::floor(budget_s / run->spec->cap_step_s)))),
        rate_(run->spec->cap_start) {}

  int steps() const { return steps_; }
  double Result() const {
    return CrossingRate(run_->steps, run_->spec->limit_ms);
  }

  void Step(Deployment* d, LoadGen* gen) {
    const Spec& spec = *run_->spec;
    auto sched = Schedule(run_, rate_, spec.cap_step_s);
    // The backlog has grown once it holds more requests than arrive within
    // the latency limit: every request behind it would miss the limit.
    const size_t max_backlog = std::max<size_t>(
        64, static_cast<size_t>(rate_ * spec.limit_ms / 1e3));
    PhaseResult pr = RunPhase(run_, d, gen, sched, max_backlog);
    Run::Step s{};
    s.rate = rate_;
    s.requests = pr.searches;
    s.p95_ms = Percentile(pr.search_ms, kStepPct);
    s.fail_pct = pr.searches ? 100.0 * pr.search_failures / pr.searches : 0;
    s.backlog_end = pr.stats.backlog_at_end;
    s.aborted = pr.stats.aborted;
    s.pass = !s.aborted && s.fail_pct <= kMaxFailPct &&
             s.p95_ms <= spec.limit_ms;
    run_->steps.push_back(s);
    if (ramping_) {
      if (s.pass) {
        lo_ = rate_;
        first_fail_ = 0;
        rate_ *= kRamp;
      } else if (lo_ == 0) {
        rate_ /= kRamp;  // even the first rate fails: walk down
      } else if (first_fail_ == 0) {
        first_fail_ = rate_;  // one failure may be noise: try one step higher
        rate_ *= kRamp;
      } else {
        ramping_ = false;
        hi_ = first_fail_;
        rate_ = std::sqrt(lo_ * hi_);
      }
    } else {
      (s.pass ? lo_ : hi_) = rate_;
      rate_ = std::sqrt(lo_ * hi_);
    }
  }

 private:
  Run* run_;
  int steps_;
  double rate_, lo_ = 0, hi_ = 0, first_fail_ = 0;
  bool ramping_ = true;
};

// ---------------------------------------------------------------------------
// Live episodes: quiesce, compare, WAL tail, unclean stop, recovery.

std::string SearchTarget(const Run& run, const std::string& text) {
  return "/search?q=" + UrlEncode(text) + "&k=" +
         std::to_string(run.spec->top_k);
}

/// Fingerprints of the sampled queries as served by `d` right now; a
/// failed request yields 0.
std::vector<uint64_t> ServedHashes(const Run& run, Deployment* d,
                                   const std::vector<std::string>& texts) {
  std::vector<uint64_t> out;
  server::HttpConnection conn;
  if (!conn.Connect(d->http->port()).ok()) return std::vector<uint64_t>(texts.size(), 0);
  for (const auto& t : texts) {
    auto r = conn.Get(SearchTarget(run, t));
    const bool ok = r.ok() && r->status == 200;
    const BodyCheck bc = ok ? CheckBody(r->body) : BodyCheck();
    out.push_back(bc.parsed && !bc.degraded ? bc.hash : 0);
  }
  return out;
}

/// Compares the served answers of `texts` with a sequential engine over the
/// currently pinned live state. Each mismatch is a wrong /search answer.
std::vector<uint64_t> QuiesceCheck(Run* run, Deployment* d,
                                   const std::vector<std::string>& texts) {
  SearchEngine ref{SearchOptions()};
  const KbHandle kb = d->manager->PinHandle();
  const std::vector<uint64_t> want =
      ReferenceHashes(ref, kb, texts, run->spec->top_k, 4);
  const std::vector<uint64_t> got = ServedHashes(*run, d, texts);
  for (size_t i = 0; i < texts.size(); ++i) {
    ++run->tally.search_attempted;
    if (got[i] == 0 || got[i] != want[i]) {
      ++run->tally.search_failed;
      ++run->tally.wrong;
      std::fprintf(stderr, "query \"%s\" differs from the reference\n",
                   texts[i].c_str());
    }
  }
  return got;
}

/// Posts update `item` and waits for its durable acknowledgement; returns
/// its latency.
double PostUpdate(Run* run, Deployment* d, LoadGen* gen, uint32_t item) {
  PhaseResult pr = RunPhase(run, d, gen, {Arrival{0.0, true, item}}, 0);
  return pr.update_ms.empty() ? 0.0 : pr.update_ms[0];
}

/// Queries whose answers the write probe checks: coherent only, since a
/// split query costs ~100x more and every recovery serves them all.
std::vector<std::string> SampledQueries(Run* run) {
  std::vector<std::string> out;
  for (size_t i = 0; out.size() < kSampledQueries; ++i) {
    const Query q = run->cold ? run->cold->Next()
                              : run->queries[run->hot_index[i]];
    if (!q.split) out.push_back(q.text);
  }
  return out;
}

/// Ends the write probe's live episode: stop the compactor, compact, check
/// the sampled answers against the reference, append the WAL tail, record
/// the served answers, and stop uncleanly (no ShutdownDurable, so no CLEAN
/// marker).
void PrepareRecovery(Run* run, std::unique_ptr<Deployment>* d,
                     std::unique_ptr<LoadGen>* gen) {
  Deployment* dep = d->get();
  // Quiesce: the background compactor finishes its fold and stops, and
  // ?compact=1 folds synchronously, so the WAL tail recovery replays is
  // exactly the kTailBatches posted below.
  dep->compactor->Stop();
  const uint32_t compact = NextUpdateItem(run);
  run->update_compact[compact] = true;
  PostUpdate(run, dep, gen->get(), compact);

  run->sampled = SampledQueries(run);
  QuiesceCheck(run, dep, run->sampled);
  for (size_t i = 0; i < kTailBatches; ++i) {
    PostUpdate(run, dep, gen->get(), NextUpdateItem(run));
  }
  run->served_before = QuiesceCheck(run, dep, run->sampled);
  gen->reset();
  dep->Stop();
  d->reset();
}

/// One recovery of the write probe's directory, timed until the recovered
/// service answers a /search, then checked: every acknowledged batch
/// survived and nothing else (recovered WAL seq == last acknowledged seq),
/// and the sampled queries answer as before the stop. It ends with another
/// unclean stop, so each recovery replays the same WAL tail (the tail is
/// below the compactor's threshold: no fold runs in between).
bool RecoverOnce(Run* run, const std::string& dir) {
  double secs = 0.0;
  std::unique_ptr<Deployment> d =
      Recover(*run->spec, dir, run->sampled[0],
              run->spans ? &run->tracer : nullptr, &secs);
  if (!d) return false;
  run->recovery_runs_s.push_back(secs);
  run->replayed_batches = d->recovery.replayed_batches;
  run->recovery_ms_engine.push_back(d->recovery.recovery_ms);
  ++run->tally.update_attempted;
  if (d->manager->wal_last_seq() != run->last_acked_seq) {
    ++run->tally.update_failed;
    std::fprintf(stderr, "recovered WAL seq %llu != last acknowledged %llu\n",
                 static_cast<unsigned long long>(d->manager->wal_last_seq()),
                 static_cast<unsigned long long>(run->last_acked_seq));
  }
  const std::vector<uint64_t> after = ServedHashes(*run, d.get(), run->sampled);
  for (size_t q = 0; q < run->sampled.size(); ++q) {
    ++run->tally.update_attempted;
    if (after[q] == 0 || after[q] != run->served_before[q]) {
      ++run->tally.update_failed;
      std::fprintf(stderr, "query \"%s\" answers differently after recovery\n",
                   run->sampled[q].c_str());
    }
  }
  d->Stop();  // unclean again
  return true;
}

// ---------------------------------------------------------------------------
// /metrics scrapes.

struct Scrape {
  std::string text;
  double ms = 0.0;
  double Get(const std::string& metric) const {
    return wikisearch::obs::FindMetricValue(text, metric).value_or(0.0);
  }
};

Scrape ScrapeMetrics(Deployment* d) {
  Scrape s;
  WallTimer t;
  auto r = server::HttpGet(d->http->port(), "/metrics");
  s.ms = t.ElapsedMs();
  if (r.ok()) s.text = std::move(r->body);
  return s;
}

// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool valid = true;
  std::string invalid_reason;
  bool correct = true;
  size_t attempted = 0, failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::string envelope;  // JSON object
};

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + Num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

/// Runs the workload once; `traced` records spans and computes layers.
/// `reference` maps a query to its reference answer fingerprint on `own`.
Outcome RunWorkload(const Spec& spec, const Kb& own, uint64_t seed,
                    double seconds, bool traced, const std::string& work_dir,
                    const std::string& trace_path,
                    std::unordered_map<std::string, uint64_t>* reference) {
  Outcome out;
  Run run;
  run.spec = &spec;
  run.rng.Reseed(seed * 0x9e3779b97f4a7c15ULL + 17);
  if (traced) {
    run.spans = std::make_unique<SpanLog>(Clock::now());
    run.tracer.log = run.spans.get();
  }
  Tracer* tracer = traced ? &run.tracer : nullptr;

  // Inputs.
  std::unique_ptr<wikisearch::ZipfSampler> zipf;
  if (spec.name == "cold_tail") {
    run.cold_reference =
        std::make_unique<ColdStream>(own, kColdQuerySeed, &run.cold_seen);
    run.cold = std::make_unique<ColdStream>(own, kColdCapacityQuerySeed,
                                            &run.cold_seen);
  } else {
    for (Query& q : HotPool(own, kHotPool, seed)) {
      run.hot_index.push_back(AddQuery(&run, std::move(q)));
    }
    zipf = std::make_unique<wikisearch::ZipfSampler>(kHotPool, 1.0);
    run.zipf = zipf.get();
  }
  run.updates = std::make_unique<UpdateStream>(own.gen.graph, seed);

  // One setup from scratch, timed and recorded with its steps.
  auto timed_setup = [&]() -> std::unique_ptr<Deployment> {
    SetupTimes t;
    const double start = run.spans ? run.spans->Now() : 0.0;
    std::unique_ptr<Deployment> dep = SetUp(spec, std::string(), tracer, &t);
    if (!dep) return nullptr;
    if (run.spans) {
      double at = start;
      for (auto [name, secs] :
           {std::pair<const char*, double>{"setup.generate", t.kb.generate_s},
            {"setup.weights", t.kb.weights_s},
            {"setup.index", t.kb.index_s},
            {"setup.serve", t.serve_s}}) {
        run.spans->Add(Span{name, run.spans->NextId(), 0, at, at + secs});
        at += secs;
      }
    }
    run.setups.push_back(t);
    return dep;
  };
  auto invalid = [&](const std::string& why) {
    out.valid = false;
    out.invalid_reason = why;
    return out;
  };

  // The write probe first: back-to-back durable updates on a fresh live
  // deployment with no reads, then quiesce, WAL tail and an unclean stop.
  const std::string probe_dir = work_dir + "/probe";
  fs::remove_all(probe_dir);
  SetupTimes probe_times;
  std::unique_ptr<Deployment> probe =
      SetUp(spec, probe_dir, tracer, &probe_times);
  if (!probe) return invalid("write-probe setup failed");
  auto probe_gen =
      std::make_unique<LoadGen>(probe->http->port(), 1, g_generator_cpus);
  const Scrape live_before = ScrapeMetrics(probe.get());
  for (size_t i = 0; i < kProbeUpdates; ++i) {
    run.update_ms.push_back(
        PostUpdate(&run, probe.get(), probe_gen.get(), NextUpdateItem(&run)));
  }
  const Scrape live_after = ScrapeMetrics(probe.get());
  const live::SnapshotManager& lm = *probe->manager;
  const double compactions = static_cast<double>(lm.compactions());
  const double wal_fsyncs = static_cast<double>(lm.wal_fsyncs());
  const double wal_bytes = static_cast<double>(lm.wal_bytes());
  const double updates_applied = static_cast<double>(lm.updates_applied());
  const double mutations = static_cast<double>(lm.mutations_applied());
  PrepareRecovery(&run, &probe, &probe_gen);
  Progress(spec.name + ": write probe done");

  std::unique_ptr<Deployment> d = timed_setup();
  if (!d) return invalid("server setup failed");
  auto gen_owner = std::make_unique<LoadGen>(d->http->port(), kConnections,
                                             g_generator_cpus);
  LoadGen* gen = gen_owner.get();
  Scrape before = ScrapeMetrics(d.get());
  const uint64_t acc0 = d->http->accepted_connections();
  const uint64_t reuse0 = d->http->keepalive_reuse();
  const uint64_t served0 = d->http->requests_served();
  const uint64_t disc0 = d->http->discarded_responses();
  const uint64_t qc_hits0 = d->service->cache().hits();
  const uint64_t qc_miss0 = d->service->cache().misses();

  // Warm-up (caches fill, pools grow), then rounds of: a slice of the
  // reference-rate phase, one capacity step, one recovery of the probe's
  // directory and one more setup. The host's speed wanders by up to 2x
  // over seconds to minutes, so each median and percentile is drawn from
  // the whole run rather than from one stretch of it.
  if (spec.warm_s > 0) {
    RunPhase(&run, d.get(), gen, Schedule(&run, spec.ref_rate, spec.warm_s),
             0);
  }
  const double ref_s = spec.ref_share * seconds;
  CapacitySearch capacity(&run, seconds - ref_s);
  double measure_wall_s = 0.0;  // under load: reference slices + steps
  for (int round = 0; round < capacity.steps(); ++round) {
    const Clock::time_point load_start = Clock::now();
    run.in_reference_phase = true;
    PhaseResult pr =
        RunPhase(&run, d.get(), gen,
                 Schedule(&run, spec.ref_rate, ref_s / capacity.steps(),
                          /*counted=*/true),
                 0);
    run.in_reference_phase = false;
    run.search_ms.insert(run.search_ms.end(), pr.search_ms.begin(),
                         pr.search_ms.end());
    run.late_ms.insert(run.late_ms.end(), pr.stats.late_ms.begin(),
                       pr.stats.late_ms.end());
    run.backlog_peak = std::max(run.backlog_peak, pr.stats.backlog_peak);
    capacity.Step(d.get(), gen);
    measure_wall_s += SecondsSince(load_start);
    run.probe1_ms.push_back(HostProbeMs(1));
    run.probe2_ms.push_back(HostProbeMs(2));
    if (!RecoverOnce(&run, probe_dir)) return invalid("recovery failed");
    if (!timed_setup()) return invalid("server setup failed");
  }
  run.capacity_qps = capacity.Result();
  fs::remove_all(probe_dir);
  Progress(std::to_string(capacity.steps()) + " rounds done: " +
           std::to_string(run.search_ms.size()) +
           " reference-rate searches");
  const Scrape after = ScrapeMetrics(d.get());
  auto delta = [](uint64_t now, uint64_t then) {
    return static_cast<double>(now - then);
  };
  const double qc_hits = delta(d->service->cache().hits(), qc_hits0);
  const double qc_miss = delta(d->service->cache().misses(), qc_miss0);
  const double qc_entries = static_cast<double>(d->service->cache().size());
  const double accepted = delta(d->http->accepted_connections(), acc0);
  const double reuse = delta(d->http->keepalive_reuse(), reuse0);
  const double served = delta(d->http->requests_served(), served0);
  const double discarded = delta(d->http->discarded_responses(), disc0);
  std::vector<double> scrape_ms{before.ms, after.ms};
  for (int i = 0; i < 3; ++i) scrape_ms.push_back(ScrapeMetrics(d.get()).ms);

  // Every 200 body against the sequential reference. Each query's reference
  // is computed once per process (--trace 1 runs the same inputs twice).
  {
    std::vector<std::string> texts;
    for (const auto& s : run.to_verify) {
      const std::string& text = run.queries[s.query].text;
      if (reference->emplace(text, 0).second) texts.push_back(text);
    }
    SearchEngine ref(&own.gen.graph, &own.index);
    KbHandle kb;
    kb.graph = wikisearch::GraphView(own.gen.graph);
    kb.index = wikisearch::IndexView(own.index);
    const std::vector<uint64_t> want =
        ReferenceHashes(ref, kb, texts, spec.top_k, 4);
    for (size_t i = 0; i < texts.size(); ++i) (*reference)[texts[i]] = want[i];
    for (const auto& s : run.to_verify) {
      if (s.hash != reference->at(run.queries[s.query].text)) {
        ++run.tally.wrong;
        ++run.tally.search_failed;
        if (s.reference_phase) ++run.tally.reference_failed;
        std::fprintf(stderr, "query \"%s\" differs from the reference\n",
                     run.queries[s.query].text.c_str());
      }
    }
  }

  Progress("answers checked against the reference");

  // Engine replay of executed queries (traced only): phase timings, stats,
  // render time and the cost of metric recording.
  struct Replay {
    wikisearch::PhaseTimings t;
    double levels = 0, frontier_work = 0, centrals = 0, extracted = 0,
           pruned = 0, render_ms = 0, record_on_ms = 0, record_off_ms = 0;
    size_t n = 0;
  } rp;
  auto replay = [&](const SearchEngine& engine, const KbHandle& kb) {
    std::vector<uint32_t> qs = run.executed_queries;
    std::sort(qs.begin(), qs.end());
    qs.erase(std::unique(qs.begin(), qs.end()), qs.end());
    wikisearch::Rng pick(seed ^ 0x5eed);
    std::shuffle(qs.begin(), qs.end(), pick);
    qs.resize(std::min<size_t>(qs.size(), spec.name == "cold_tail" ? 40 : 200));
    wikisearch::obs::MetricRegistry registry;
    for (size_t i = 0; i < qs.size(); ++i) {
      SearchOptions on = ServingOptions(spec);
      on.metrics = &registry;
      SearchOptions off = on;
      off.record_metrics = false;
      const std::string& text = run.queries[qs[i]].text;
      // Alternate which of the pair runs first, so warm-up favours neither.
      const bool on_first = i % 2 == 0;
      WallTimer t1;
      auto first = engine.Search(kb, text, on_first ? on : off);
      const double first_ms = t1.ElapsedMs();
      WallTimer t2;
      auto r = engine.Search(kb, text, on_first ? off : on);
      const double second_ms = t2.ElapsedMs();
      if (!first.ok() || !r.ok()) continue;
      const double on_ms = on_first ? first_ms : second_ms;
      const double off_ms = on_first ? second_ms : first_ms;
      WallTimer rt;
      const std::string body = server::SearchResultToJson(kb.graph, *r);
      rp.render_ms += rt.ElapsedMs();
      rp.t += r->timings;
      rp.levels += r->stats.levels;
      rp.frontier_work += static_cast<double>(r->stats.total_frontier_work);
      rp.centrals += static_cast<double>(r->stats.num_centrals);
      rp.extracted += static_cast<double>(r->stats.candidates_extracted);
      rp.pruned += static_cast<double>(r->stats.candidates_pruned);
      rp.record_on_ms += on_ms;
      rp.record_off_ms += off_ms;
      ++rp.n;
    }
  };
  if (traced) {
    SearchEngine engine(&own.gen.graph, &own.index);
    KbHandle kb;
    kb.graph = wikisearch::GraphView(own.gen.graph);
    kb.index = wikisearch::IndexView(own.index);
    replay(engine, kb);
  }

  gen_owner.reset();
  d.reset();

  // ---- end-to-end metrics ----
  std::vector<double> setup_total, gen_s, w_s, ix_s, serve_s;
  for (const auto& s : run.setups) {
    setup_total.push_back(s.total_s);
    gen_s.push_back(s.kb.generate_s);
    w_s.push_back(s.kb.weights_s);
    ix_s.push_back(s.kb.index_s);
    serve_s.push_back(s.serve_s);
  }
  out.e2e = {
      {"setup_s", Median(setup_total), "s"},
      {"search_p50_ms", Median(run.search_ms), "ms"},
      {"search_p90_ms", Percentile(run.search_ms, kTailPct), "ms"},
      {"search_capacity_qps", run.capacity_qps, "1/s"},
      {"update_p50_ms", Median(run.update_ms), "ms"},
      {"update_p75_ms", Percentile(run.update_ms, kUpdateTailPct), "ms"},
      {"recovery_s", Median(run.recovery_runs_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };

  const double late_p99 = Percentile(run.late_ms, 0.99);
  if (late_p99 > kMaxLateMs) {
    out.valid = false;
    out.invalid_reason = "generator fell behind its schedule (late p99 " +
                         Num(late_p99) + " ms)";
  }

  // ---- per-layer metrics (traced run) ----
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto pct = [&](size_t a, size_t b) {
    return 100.0 * ratio(static_cast<double>(a), static_cast<double>(b));
  };
  auto diff = [](const Scrape& a, const Scrape& b, const char* m) {
    return b.Get(m) - a.Get(m);
  };
  const double ctx_h = diff(before, after, "ws_context_cache_hits_total");
  const double ctx_m = diff(before, after, "ws_context_cache_misses_total");
  if (traced) {
    const double execs =
        diff(before, after, "ws_server_engine_executions_total");
    const double shared =
        diff(before, after, "ws_server_single_flight_shared_total");
    const double pool_busy_ms =
        diff(before, after, "ws_pool_busy_micros_total") / 1e3;
    const double n = std::max<double>(1.0, static_cast<double>(rp.n));
    std::vector<double> apply_ms;
    for (const Span& s : run.spans->Named("service.update")) {
      apply_ms.push_back(s.ms());
    }
    size_t overlay_peak = 0;
    for (size_t v : run.tracer.overlay_depths) {
      overlay_peak = std::max(overlay_peak, v);
    }
    auto hist_mean = [&](const std::string& name) {
      return ratio(diff(live_before, live_after, (name + "_sum").c_str()),
                   diff(live_before, live_after, (name + "_count").c_str()));
    };
    out.layers = {
        {"server.transport_ms.p50", Median(run.transport_ms), "ms"},
        {"server.transport_ms.p99", Percentile(run.transport_ms, 0.99), "ms"},
        {"server.keepalive_reuse_ratio", ratio(reuse, served), "ratio"},
        {"server.accepted_connections", accepted, "count"},
        {"server.discarded_responses", discarded, "count"},
        {"service.handler_ms.p50", Median(run.handler_ms), "ms"},
        {"service.handler_ms.p99", Percentile(run.handler_ms, 0.99), "ms"},
        {"service.render_ms", rp.render_ms / n, "ms"},
        {"query_cache.hit_ratio", ratio(qc_hits, qc_hits + qc_miss), "ratio"},
        {"query_cache.entries", qc_entries, "count"},
        {"scheduler.wait_ms.p50", Median(run.wait_ms), "ms"},
        {"scheduler.wait_ms.p99", Percentile(run.wait_ms, 0.99), "ms"},
        {"scheduler.shared_ratio", ratio(shared, execs + shared), "ratio"},
        {"scheduler.executions", execs, "count"},
        {"scheduler.shed", diff(before, after, "ws_server_shed_total"),
         "count"},
        {"scheduler.queue_hwm", after.Get("ws_server_queue_high_water_mark"),
         "count"},
        {"scheduler.batch_epochs", diff(before, after, "ws_batch_epochs_total"),
         "count"},
        {"scheduler.batch_merged",
         diff(before, after, "ws_batch_merged_queries"), "count"},
        {"context_cache.hit_ratio", ratio(ctx_h, ctx_h + ctx_m), "ratio"},
        {"bottom_up.init_ms", rp.t.init_ms / n, "ms"},
        {"bottom_up.enqueue_ms", rp.t.enqueue_ms / n, "ms"},
        {"bottom_up.identify_ms", rp.t.identify_ms / n, "ms"},
        {"bottom_up.expansion_ms", rp.t.expansion_ms / n, "ms"},
        {"bottom_up.levels", rp.levels / n, "count"},
        {"bottom_up.frontier_work", rp.frontier_work / n, "count"},
        {"bottom_up.expansion_ns_per_frontier_node",
         ratio(rp.t.expansion_ms * 1e6, rp.frontier_work), "ns"},
        {"top_down.ms", rp.t.topdown_ms / n, "ms"},
        {"top_down.centrals", rp.centrals / n, "count"},
        {"top_down.extracted", rp.extracted / n, "count"},
        {"top_down.pruned", rp.pruned / n, "count"},
        {"top_down.prune_ratio", ratio(rp.pruned, rp.centrals), "ratio"},
        {"top_down.ms_per_extracted", ratio(rp.t.topdown_ms, rp.extracted),
         "ms"},
        {"pool.jobs", diff(before, after, "ws_pool_jobs_total"), "count"},
        {"pool.busy_ms", pool_busy_ms, "ms"},
        {"pool.utilization",
         ratio(pool_busy_ms, measure_wall_s * 1e3 * kEngineThreadBudget),
         "ratio"},
        {"obs.record_ms", (rp.record_on_ms - rp.record_off_ms) / n, "ms"},
        {"obs.scrape_ms", Median(scrape_ms), "ms"},
        {"live.apply_ms.p50", Median(apply_ms), "ms"},
        {"live.apply_ms.p90", Percentile(apply_ms, 0.9), "ms"},
        {"live.fold_ms", hist_mean("ws_live_fold_ms"), "ms"},
        {"live.publish_ms", hist_mean("ws_live_publish_ms"), "ms"},
        {"live.compactions", compactions, "count"},
        {"live.overlay_batches_peak", static_cast<double>(overlay_peak),
         "count"},
        {"wal.fsyncs_per_update", ratio(wal_fsyncs, updates_applied), "count"},
        {"wal.bytes_per_mutation", ratio(wal_bytes, mutations), "bytes"},
        {"recovery.replayed_batches",
         static_cast<double>(run.replayed_batches), "count"},
        {"recovery.ms_per_batch",
         ratio(Median(run.recovery_ms_engine),
               static_cast<double>(run.replayed_batches)),
         "ms"},
        {"setup.generate_s", Median(gen_s), "s"},
        {"setup.weights_s", Median(w_s), "s"},
        {"setup.index_s", Median(ix_s), "s"},
        {"setup.serve_s", Median(serve_s), "s"},
        {"search_fail_pct",
         pct(run.tally.reference_failed, run.tally.reference_attempted), "%"},
        {"update_fail_pct",
         pct(run.tally.update_failed, run.tally.update_attempted), "%"},
        {"gen.late_p99_ms", late_p99, "ms"},
        {"gen.backlog_peak", static_cast<double>(run.backlog_peak), "count"},
    };
    if (!trace_path.empty() && !run.spans->WriteChromeJson(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    }
  }

  // ---- accounting and envelope ----
  const Tally& tl = run.tally;
  out.attempted = tl.search_attempted + tl.update_attempted;
  out.failed = tl.search_failed + tl.update_failed;
  out.correct = tl.wrong == 0 && tl.update_failed == 0;

  // Workload properties over the /search requests actually sent.
  size_t split = 0;
  std::map<int, size_t> knum;
  std::set<uint32_t> distinct(run.requested.begin(), run.requested.end());
  for (uint32_t q : run.requested) {
    split += run.queries[q].split ? 1 : 0;
    ++knum[run.queries[q].knum];
  }
  const double n_requested = static_cast<double>(run.requested.size());
  std::string e = "{";
  auto kv = [&](const std::string& k, const std::string& v) {
    if (e.size() > 1) e += ", ";
    e += "\"" + k + "\": " + v;
  };
  auto str = [](const std::string& s) { return "\"" + s + "\""; };
  kv("workload", str(spec.name));
  kv("why", str(spec.why));
  kv("seed", std::to_string(seed));
  kv("seconds", Num(seconds));
  kv("traced", traced ? "true" : "false");
  kv("git_sha", str(GitSha()));
  kv("nproc", std::to_string(std::thread::hardware_concurrency()));
  kv("dataset", "{\"name\": \"wikisynth-S\", \"nodes\": " +
                    std::to_string(own.gen.graph.num_nodes()) +
                    ", \"triples\": " +
                    std::to_string(own.gen.graph.num_triples()) + "}");
  kv("server", "{\"reactor_threads\": " + std::to_string(kReactorThreads) +
                   ", \"handler_threads\": " +
                   std::to_string(kHandlerThreads) +
                   ", \"engine_thread_budget\": " +
                   std::to_string(kEngineThreadBudget) +
                   ", \"max_threads_per_query\": " +
                   std::to_string(spec.max_threads_per_query) +
                   ", \"engine\": \"cpu\", \"top_k\": " +
                   std::to_string(spec.top_k) +
                   ", \"query_cache\": 256, \"context_cache\": 256}");
  kv("load", "{\"generator_threads\": 1, \"connections\": " +
                 std::to_string(kConnections) + ", \"arrivals\": \"poisson\"}");
  kv("fsync_policy", str("always"));
  auto range = [](const std::vector<double>& v) {
    if (v.empty()) return std::string("null");
    return "[" + Num(*std::min_element(v.begin(), v.end())) + ", " +
           Num(Median(v)) + ", " + Num(*std::max_element(v.begin(), v.end())) +
           "]";
  };
  kv("environment",
     "{\"idle_poll_spinners\": true, \"generator_cpus\": " +
         std::to_string(g_generator_cpus.size()) + ", \"program_cpus\": " +
         std::to_string(g_all_cpus.size() - g_generator_cpus.size()) +
         ", \"host_probe_ms_min_median_max\": {\"one_thread\": " +
         range(run.probe1_ms) + ", \"two_threads\": " + range(run.probe2_ms) +
         "}}");
  kv("offered_rates", "{\"reference_qps\": " + Num(spec.ref_rate) +
                          ", \"capacity_start_qps\": " + Num(spec.cap_start) +
                          ", \"capacity_step_s\": " + Num(spec.cap_step_s) +
                          ", \"latency_limit_p95_ms\": " + Num(spec.limit_ms) +
                          "}");
  std::string steps = "[";
  for (const auto& s : run.steps) {
    if (steps.size() > 1) steps += ", ";
    steps += "{\"rate\": " + Num(s.rate) + ", \"requests\": " +
             std::to_string(s.requests) + ", \"p95_ms\": " + Num(s.p95_ms) +
             ", \"fail_pct\": " + Num(s.fail_pct) + ", \"backlog_end\": " +
             std::to_string(s.backlog_end) + ", \"aborted\": " +
             (s.aborted ? "true" : "false") + ", \"pass\": " +
             (s.pass ? "true" : "false") + "}";
  }
  kv("capacity_steps", steps + "]");
  std::string qs = "{";
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    if (qs.size() > 1) qs += ", ";
    qs += "\"p" + Num(p * 100) + "\": " + Num(Percentile(run.search_ms, p));
  }
  kv("search_ms_quantiles", qs + "}");
  kv("samples", "{\"search\": " + std::to_string(run.search_ms.size()) +
                    ", \"update\": " + std::to_string(run.update_ms.size()) +
                    ", \"search_tail_percentile\": 90}");
  std::string kh = "{";
  for (const auto& [k, c] : knum) {
    if (kh.size() > 1) kh += ", ";
    kh += "\"" + std::to_string(k) + "\": " + std::to_string(c);
  }
  kv("properties",
     "{\"searches\": " + std::to_string(run.requested.size()) +
         ", \"repeat_share\": " +
         Num(n_requested > 0 ? 1.0 - distinct.size() / n_requested : 0.0) +
         ", \"split_share\": " + Num(n_requested > 0 ? split / n_requested : 0.0) +
         ", \"knum_histogram\": " + kh + "}" +
         ", \"query_cache_hit_ratio\": " +
         Num(ratio(qc_hits, qc_hits + qc_miss)) +
         ", \"context_cache_hit_ratio\": " + Num(ratio(ctx_h, ctx_h + ctx_m)) +
         "}");
  kv("failures", "{\"non200\": " + std::to_string(tl.non200) +
                     ", \"connection\": " + std::to_string(tl.conn_error) +
                     ", \"degraded\": " + std::to_string(tl.degraded) +
                     ", \"wrong\": " + std::to_string(tl.wrong) +
                     ", \"search_attempted\": " +
                     std::to_string(tl.search_attempted) +
                     ", \"search_failed\": " +
                     std::to_string(tl.search_failed) +
                     ", \"update_attempted\": " +
                     std::to_string(tl.update_attempted) +
                     ", \"update_failed\": " +
                     std::to_string(tl.update_failed) +
                     ", \"reference_phase_attempted\": " +
                     std::to_string(tl.reference_attempted) +
                     ", \"reference_phase_failed\": " +
                     std::to_string(tl.reference_failed) + "}");
  kv("generator", "{\"late_p99_ms\": " + Num(late_p99) +
                      ", \"backlog_peak\": " +
                      std::to_string(run.backlog_peak) + "}");
  kv("recovery", "{\"replayed_batches\": " +
                     std::to_string(run.replayed_batches) +
                     ", \"last_acked_seq\": " +
                     std::to_string(run.last_acked_seq) + "}");
  out.envelope = e + "}";
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, out_dir = ".bench_build/perfbench-out";
  uint64_t seed = 1;
  double seconds = 20;
  int trace = 0;
  for (int i = 1; i < argc; i += 2) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return 2;
    }
    const char* v = argv[i + 1];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(v);
    } else if (a == "--trace") {
      trace = std::atoi(v);
    } else if (a == "--out-dir") {
      out_dir = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  const std::optional<Spec> spec = SpecFor(workload);
  if (!spec || seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload "
                 "hot_zipf|cold_tail --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  const std::string work_dir =
      out_dir + "/run-" + std::to_string(::getpid());
  std::error_code ec;
  fs::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", work_dir.c_str());
    return 3;
  }
  // The generator owns the first CPU; the program (server, engine,
  // compactor, reference checks) gets the rest, which it inherits from
  // this thread. Placement left to the scheduler made hot_zipf's p50 switch
  // between ~0.09 and ~0.14 ms from run to run.
  const std::vector<int> cpus = AllowedCpus();
  g_all_cpus = cpus;
  const IdlePoller idle_poller(cpus);
  if (cpus.size() >= 2) {
    g_generator_cpus = {cpus[0]};
    PinThread(std::vector<int>(cpus.begin() + 1, cpus.end()));
  }
  KbTimes ignored;
  const Kb own = BuildKb(&ignored);

  const std::string tag = out_dir + "/" + spec->name + "-seed" +
                          std::to_string(seed) + "-trace" +
                          std::to_string(trace);
  std::vector<Outcome> runs;
  std::unordered_map<std::string, uint64_t> reference;
  runs.push_back(RunWorkload(*spec, own, seed, seconds, false, work_dir, "",
                             &reference));
  if (trace == 1 && runs[0].valid) {
    runs.push_back(RunWorkload(*spec, own, seed, seconds, true, work_dir,
                               tag + "-spans.json", &reference));
  }
  fs::remove_all(work_dir, ec);

  bool correct = true;
  size_t attempted = 0, failed = 0;
  std::string envelopes = "[";
  for (const Outcome& o : runs) {
    if (!o.valid) {
      std::fprintf(stderr, "invalid run: %s\n", o.invalid_reason.c_str());
      return 3;
    }
    correct = correct && o.correct;
    attempted += o.attempted;
    failed += o.failed;
    if (envelopes.size() > 1) envelopes += ", ";
    envelopes += o.envelope;
  }
  envelopes += "]";
  std::vector<Metric> metrics = runs[0].e2e;
  if (trace == 1) {
    // Tracing overhead: the traced run's end-to-end metrics minus the
    // untraced run's, then every per-layer metric of the traced run. Both
    // runs share one process, whose VmHWM never falls, so peak_rss_mb has
    // no overhead figure.
    metrics = {};
    for (size_t i = 0; i < runs[0].e2e.size(); ++i) {
      if (runs[0].e2e[i].name == "peak_rss_mb") continue;
      metrics.push_back({"trace.overhead." + runs[0].e2e[i].name,
                         runs[1].e2e[i].value - runs[0].e2e[i].value,
                         runs[0].e2e[i].unit});
    }
    metrics.insert(metrics.end(), runs[1].layers.begin(),
                   runs[1].layers.end());
  }
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + MetricsJson(metrics) + "}";
  if (std::FILE* f = std::fopen((tag + ".json").c_str(), "w")) {
    std::fprintf(f, "{\"envelope\": %s, \"result\": %s}\n", envelopes.c_str(),
                 result.c_str());
    std::fclose(f);
  }
  std::printf("{\"envelope\": %s}\n%s\n", envelopes.c_str(), result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
