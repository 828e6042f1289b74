// The repository's benchmark driver: runs one named workload against the
// qvt library, checks every answer with the oracle in oracle.cc, and prints
// one JSON result line. See README.md for the workloads and metrics.
//
//   qvt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--workdir <dir>] [--scale full|small]
//                 [--plant far|deleted]

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/pq.h"
#include "cluster/srtree_chunker.h"
#include "core/batch_searcher.h"
#include "core/chunk_index.h"
#include "core/search_method.h"
#include "descriptor/generator.h"
#include "descriptor/range_analysis.h"
#include "descriptor/workload.h"
#include "dynamic/dynamic_index.h"
#include "geometry/kernels.h"
#include "layer_calls.h"
#include "oracle.h"
#include "storage/page.h"
#include "storage/pq_file.h"
#include "trace.h"
#include "util/env.h"
#include "util/parallel_for.h"
#include "util/random.h"

extern char** environ;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using qvt::Neighbor;

constexpr size_t kK = 10;

const Clock::time_point g_process_start = Clock::now();

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}


// ---------------------------------------------------------------------------
// Arguments, knobs and host record.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
  bool small = false;
  std::string plant;
};

/// Workload sizes. `full` is what the benchmark measures; `small` is the
/// seconds-long configuration the self-test runs.
struct Scale {
  size_t images = 2000;  ///< ~100 descriptors each: ~200k rows
  size_t modes = 190;
  size_t chunk_size = 250;
  size_t pool = 1000;        ///< distinct queries per run, cycled
  size_t dq_budget = 8;      ///< StopRule::MaxChunks budget
  size_t pq_batch = 8;
  size_t pq_rerank = 128;
  size_t pq_train_rows = 65536;
  size_t batch_sample = 64;  ///< batch answers re-asked one by one
  size_t trace_sample = 200;
  size_t dyn_rows = 16384;   ///< inserts per cycle, sampled from the rows
  size_t dyn_query_every = 16;
  size_t dyn_delete_every = 8;
  size_t dyn_delete_lag = 512;
  size_t dyn_exact_queries = 64;
  size_t dyn_buffer = 1024;
  size_t dyn_scale_factor = 4;
  size_t dyn_budget = 8;

  static Scale Small() {
    Scale s;
    s.images = 100;
    s.modes = 10;
    s.pool = 100;
    s.pq_train_rows = 4096;
    s.batch_sample = 16;
    s.trace_sample = 20;
    s.dyn_rows = 4096;
    s.dyn_query_every = 64;
    s.dyn_delete_lag = 256;
    s.dyn_exact_queries = 16;
    s.dyn_buffer = 256;
    return s;
  }
};

/// Thread counts and other knobs pinned for every run instead of being
/// inherited from defaults or the environment.
struct Knobs {
  size_t nproc = 1;
  size_t build_threads = 1;
  size_t pq_train_threads = 1;
  size_t prefetch_depth = 4;
  size_t prefetch_io_threads = 1;
  size_t batch_threads = 1;
  size_t oracle_threads = 1;
  std::vector<std::string> cleared_env;

  qvt::PrefetcherOptions Prefetch() const {
    qvt::PrefetcherOptions options;
    options.depth = prefetch_depth;
    options.io_threads = prefetch_io_threads;
    return options;
  }
};

size_t CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Removes every QVT_* variable before the library reads any of them, so
/// each knob below is the value measured, never an inherited override.
std::vector<std::string> ClearQvtEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "QVT_", 4) != 0) continue;
    const char* eq = std::strchr(*e, '=');
    names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  return names;
}

/// Index builds (set-up and dynamic merges) run on one thread:
/// `dynamic_mixed` writes from one thread, and a parallel build's time
/// follows whichever core the host lends last, which made ingest rates
/// swing by 10-20% between runs. PQ training alone, the set-up heavy step,
/// runs on up to 4 threads.
Knobs PinKnobs() {
  Knobs knobs;
  knobs.cleared_env = ClearQvtEnvironment();
  knobs.nproc = CpuCount();
  knobs.build_threads = 1;
  knobs.pq_train_threads = std::min<size_t>(knobs.nproc, 4);
  knobs.prefetch_io_threads =
      std::clamp<size_t>(knobs.nproc > 1 ? knobs.nproc - 1 : 1, 1, 2);
  knobs.batch_threads = std::min<size_t>(knobs.nproc, 4);
  knobs.oracle_threads = knobs.nproc;
  qvt::SetBuildThreads(knobs.build_threads);
  return knobs;
}

void PrintHost(const Args& args, const Knobs& knobs) {
  std::string cleared;
  for (const std::string& name : knobs.cleared_env) {
    cleared += (cleared.empty() ? "\"" : ",\"") + name + "\"";
  }
  std::printf(
      "# host {\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%zu,"
      "\"backend\":\"%s\",\"build_threads\":%zu,\"pq_train_threads\":%zu,"
      "\"prefetch_depth\":%zu,"
      "\"prefetch_io_threads\":%zu,\"batch_threads\":%zu,"
      "\"oracle_threads\":%zu,\"open_mode\":\"mmap\",\"shared_scan\":true,"
      "\"scale\":\"%s\",\"cleared_env\":[%s]}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      knobs.nproc,
      qvt::kernels::BackendName(qvt::kernels::ActiveBackend()),
      knobs.build_threads, knobs.pq_train_threads, knobs.prefetch_depth,
      knobs.prefetch_io_threads,
      knobs.batch_threads, knobs.oracle_threads,
      args.small ? "small" : "full", cleared.c_str());
}

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operation ledger. `failed` counts operations that returned an error or
/// whose answer failed a check; `wrong` counts the latter alone and makes
/// the run's `correct` false.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  int reported = 0;

  void Error(const char* what, const qvt::Status& status) {
    ++failed;
    if (reported++ < 5) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
                   status.ToString().c_str());
    }
  }
  void Wrong(uint64_t ops, const std::string& why) {
    failed += ops;
    wrong += ops;
    if (reported++ < 5) std::fprintf(stderr, "perfbench: check: %s\n",
                                     why.c_str());
  }
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Every end-to-end metric, in BENCHMARK.json order.
struct EndToEnd {
  double setup_s = 0;
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double recall = 0;
  double peak_rss_mb = 0;

  std::vector<Metric> Metrics() const {
    return {{"setup_s", setup_s, "s"},
            {"qps", qps, "queries/s"},
            {"latency_p50_us", p50_us, "us"},
            {"latency_p99_us", p99_us, "us"},
            {"recall_at_10", recall, "fraction"},
            {"peak_rss_mb", peak_rss_mb, "MB"}};
  }
};

/// Every per-layer metric. A layer the workload does not run reads 0.
struct PerLayer {
  std::map<std::string, double> v;
  std::vector<Metric> Metrics() const {
    static const std::pair<const char*, const char*> kNames[] = {
        {"plan.us_per_query", "us"},
        {"plan.share", "fraction"},
        {"fetch.us_per_chunk", "us"},
        {"fetch.chunks_per_query", "chunks"},
        {"fetch.bytes_per_query", "bytes"},
        {"fetch.share", "fraction"},
        {"cache.hit_rate", "fraction"},
        {"cache.evictions_per_query", "chunks"},
        {"prefetch.used_per_issued", "fraction"},
        {"scan.us_per_chunk", "us"},
        {"scan.rows_per_s", "rows/s"},
        {"scan.rows_per_query", "rows"},
        {"scan.share", "fraction"},
        {"adc.us_per_query", "us"},
        {"adc.rows_per_s", "rows/s"},
        {"rerank.us_per_query", "us"},
        {"rerank.chunks_per_query", "chunks"},
        {"shared.attachments_per_fetch", "queries"},
        {"dyn.ingest_rows_per_s", "rows/s"},
        {"dyn.insert_us_p50", "us"},
        {"dyn.merge_ms_per_event", "ms"},
        {"dyn.build_share_of_ingest", "fraction"},
        {"dyn.write_amp", "rows/row"},
        {"dyn.shards_per_query", "shards"},
        {"dyn.tombstones_per_query", "rows"},
        {"dyn.compact_s", "s"},
        {"build.generate_s", "s"},
        {"build.chunking_s", "s"},
        {"build.index_write_s", "s"},
        {"build.pq_train_s", "s"},
        {"open.ms", "ms"},
        {"model.ms_p50", "ms"},
        {"trace.overhead_share", "fraction"},
    };
    std::vector<Metric> out;
    for (const auto& [name, unit] : kNames) {
      const auto it = v.find(name);
      out.push_back({name, it == v.end() ? 0.0 : it->second, unit});
    }
    return out;
  }
};

void PrintResult(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += ledger.wrong == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted);
  line += ", \"failed\": " + std::to_string(ledger.failed);
  line += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ", i ? ", " : "",
                  metrics[i].name.c_str(), value);
    line += buf;
    line += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// Spans written per traced run; the totals use every span recorded.
constexpr size_t kMaxSpansWritten = 20000;

// ---------------------------------------------------------------------------
// Set-up shared by the static workloads.

struct StaticSetup {
  qvt::Collection collection;
  qvt::ChunkingResult chunking;
  std::optional<qvt::ChunkIndex> index;
};

/// The collection is the benchmark's fixed corpus: the generator's default
/// seed, whatever --seed says. Across collections the cost of an exact
/// query moves by ~10%, which would swamp the run-to-run comparison;
/// --seed draws the queries, the PQ training sample and the dynamic
/// schedule instead.
qvt::GeneratorConfig GeneratorFor(size_t images, size_t modes) {
  qvt::GeneratorConfig config;
  config.seed = 42;
  config.num_images = images;
  config.descriptors_per_image = 100;
  config.num_modes = modes;
  return config;
}

/// Generates the collection and builds + opens its SR-tree chunk index,
/// recording each phase in `layers`.
qvt::Status BuildStatic(const Scale& scale, const std::string& dir,
                        StaticSetup* setup, PerLayer* layers) {
  auto t = Clock::now();
  setup->collection = qvt::GenerateCollection(
      GeneratorFor(scale.images, scale.modes));
  layers->v["build.generate_s"] = SecondsSince(t);

  t = Clock::now();
  qvt::SrTreeChunker chunker(scale.chunk_size);
  QVT_ASSIGN_OR_RETURN(setup->chunking, chunker.FormChunks(setup->collection));
  layers->v["build.chunking_s"] = SecondsSince(t);

  const auto paths = qvt::ChunkIndexPaths::ForBase(dir + "/index");
  t = Clock::now();
  {
    QVT_ASSIGN_OR_RETURN(qvt::ChunkIndex built,
                         qvt::ChunkIndex::Build(setup->collection,
                                                setup->chunking,
                                                qvt::Env::Posix(), paths));
  }
  layers->v["build.index_write_s"] = SecondsSince(t);

  t = Clock::now();
  QVT_ASSIGN_OR_RETURN(
      qvt::ChunkIndex index,
      qvt::ChunkIndex::Open(qvt::Env::Posix(), paths,
                            setup->collection.dim(), qvt::IndexOpenMode::kMmap));
  setup->index.emplace(std::move(index));
  layers->v["open.ms"] = SecondsSince(t) * 1e3;
  return qvt::Status::OK();
}

uint64_t TotalPages(const qvt::ChunkIndex& index) {
  uint64_t pages = 0;
  for (const qvt::ChunkLocation& loc : index.locations()) pages += loc.num_pages;
  return pages;
}

// ---------------------------------------------------------------------------
// Answer book: the first answer to each pool query, later repeats compared
// against it, and the oracle run over the pool once timing has ended.

struct AnswerBook {
  std::vector<std::vector<Neighbor>> first;
  std::vector<uint8_t> answered;
  std::vector<uint64_t> ops;  ///< operations that returned this answer

  explicit AnswerBook(size_t pool)
      : first(pool), answered(pool, 0), ops(pool, 0) {}

  void Record(size_t i, std::vector<Neighbor> answer, Ledger* ledger) {
    ++ops[i];
    if (!answered[i]) {
      first[i] = std::move(answer);
      answered[i] = 1;
    } else if (!SameNeighbors(first[i], answer)) {
      ledger->Wrong(1, "repeated query " + std::to_string(i) +
                           " returned a different answer");
    }
  }
};

/// Plants a wrong answer: the answer's nearest neighbour is replaced by a
/// far row, reported at that row's true distance.
void PlantFar(const qvt::Collection& collection,
              std::span<const float> query, std::vector<Neighbor>* answer) {
  if (answer->empty()) return;
  const uint32_t far_id = static_cast<uint32_t>(
      ((*answer)[0].id + collection.size() / 2) % collection.size());
  (*answer)[0] = {far_id, OracleDistance(collection.Vector(far_id), query)};
}

/// Checks every answered pool query against the brute force; returns the
/// mean recall over them.
double CheckBook(const qvt::Collection& collection, const qvt::Workload& pool,
                 const AnswerBook& book, AnswerMode mode, const Knobs& knobs,
                 Ledger* ledger) {
  std::vector<size_t> which;
  std::vector<std::span<const float>> queries;
  for (size_t i = 0; i < book.first.size(); ++i) {
    if (!book.answered[i]) continue;
    which.push_back(i);
    queries.push_back(pool.Query(i));
  }
  const auto truth =
      BruteForceMany(collection, {}, queries, kK, knobs.oracle_threads);
  double recall = 0.0;
  for (size_t j = 0; j < which.size(); ++j) {
    const size_t i = which[j];
    const std::string why = CheckAnswer(collection, {}, queries[j],
                                        book.first[i], truth[j], kK, mode);
    if (!why.empty()) {
      ledger->Wrong(book.ops[i], "pool query " + std::to_string(i) + ": " + why);
    }
    recall += RecallAt(book.first[i], truth[j]);
  }
  return which.empty() ? 0.0 : recall / static_cast<double>(which.size());
}

// ---------------------------------------------------------------------------
// Traced re-composition: alternates passes over a sample of pool queries
// with spans on and off; the spans come from the "on" passes, and the gap
// between the two kinds of pass is the tracing overhead.

struct TracedPhase {
  Tracer tracer;
  LayerCounts on_counts;
  uint64_t on_queries = 0;
  double on_s = 0.0;
  uint64_t off_queries = 0;
  double off_s = 0.0;

  double Overhead() const {
    if (on_queries == 0 || off_queries == 0) return 0.0;
    return Ratio(on_s / static_cast<double>(on_queries),
                 off_s / static_cast<double>(off_queries)) - 1.0;
  }
};

/// `query(i, tracer, out, counts)` re-composes pool query i.
template <typename QueryFn>
void RunTraced(const AnswerBook& book, size_t sample, double seconds,
               QueryFn&& query, TracedPhase* phase, Ledger* ledger) {
  std::vector<size_t> ids;
  for (size_t i = 0; i < book.first.size() && ids.size() < sample; ++i) {
    if (book.answered[i]) ids.push_back(i);
  }
  if (ids.empty()) return;
  const auto start = Clock::now();
  std::vector<Neighbor> out;
  Tracer off;  // never enabled
  do {
    for (int on = 1; on >= 0; --on) {
      phase->tracer.enabled = on != 0;
      LayerCounts scratch_counts;
      const auto t = Clock::now();
      for (const size_t i : ids) {
        ++ledger->attempted;
        phase->tracer.BeginRequest(i);
        const qvt::Status status =
            query(i, on ? phase->tracer : off, &out,
                  on ? &phase->on_counts : &scratch_counts);
        if (!status.ok()) {
          ledger->Error("traced query", status);
        } else if (!SameNeighbors(out, book.first[i])) {
          ledger->Wrong(1, "traced re-composition of pool query " +
                               std::to_string(i) +
                               " differs from SearchMethod::Search");
        }
      }
      (on ? phase->on_s : phase->off_s) += SecondsSince(t);
      (on ? phase->on_queries : phase->off_queries) += ids.size();
    }
  } while (SecondsSince(start) < seconds);
  phase->tracer.enabled = false;
}

void LayerTimes(const TracedPhase& phase, PerLayer* layers) {
  const auto totals = phase.tracer.Totals();
  auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const SpanTotals query = get("query");
  const SpanTotals plan = get("plan");
  const SpanTotals fetch = get("fetch");
  const SpanTotals scan = get("scan");
  const SpanTotals adc = get("adc");
  const SpanTotals rerank = get("rerank");
  const double nq = static_cast<double>(query.count);
  if (plan.count > 0) {
    layers->v["plan.us_per_query"] = Ratio(plan.self_us, nq);
    layers->v["plan.share"] = Ratio(plan.self_us, query.inclusive_us);
  }
  layers->v["fetch.us_per_chunk"] =
      Ratio(fetch.self_us, static_cast<double>(fetch.count));
  layers->v["fetch.share"] = Ratio(fetch.self_us, query.inclusive_us);
  layers->v["scan.us_per_chunk"] =
      Ratio(scan.self_us, static_cast<double>(scan.count));
  layers->v["scan.share"] = Ratio(scan.self_us, query.inclusive_us);
  layers->v["scan.rows_per_s"] =
      Ratio(static_cast<double>(phase.on_counts.rows_scanned),
            scan.self_us / 1e6);
  if (adc.count > 0) {
    layers->v["adc.us_per_query"] = Ratio(adc.self_us, nq);
    layers->v["adc.rows_per_s"] =
        Ratio(static_cast<double>(phase.on_counts.adc_rows),
              adc.self_us / 1e6);
    layers->v["rerank.us_per_query"] = Ratio(rerank.inclusive_us, nq);
  }
  layers->v["trace.overhead_share"] = phase.Overhead();
}

void WriteSpans(const Args& args, const Tracer& tracer) {
  const std::string path = args.workdir + "/../traces/" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".jsonl";
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  if (!tracer.Write(path, kMaxSpansWritten)) {
    std::fprintf(stderr, "perfbench: could not write spans to %s\n",
                 path.c_str());
  }
}

/// Telemetry-derived counters shared by the chunked workloads.
void CounterLayers(const qvt::QueryTelemetry& totals, uint64_t queries,
                   PerLayer* layers) {
  const double nq = static_cast<double>(queries);
  layers->v["fetch.chunks_per_query"] =
      Ratio(static_cast<double>(totals.chunks_read), nq);
  layers->v["fetch.bytes_per_query"] =
      Ratio(static_cast<double>(totals.bytes_read), nq);
  layers->v["scan.rows_per_query"] =
      Ratio(static_cast<double>(totals.descriptors_scanned), nq);
  layers->v["prefetch.used_per_issued"] =
      Ratio(static_cast<double>(totals.prefetch.used),
            static_cast<double>(totals.prefetch.issued));
}

void CacheLayers(const qvt::ChunkCacheStats& before,
                 const qvt::ChunkCacheStats& after, uint64_t queries,
                 PerLayer* layers) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  layers->v["cache.hit_rate"] = Ratio(hits, hits + misses);
  layers->v["cache.evictions_per_query"] =
      Ratio(static_cast<double>(after.evictions - before.evictions),
            static_cast<double>(queries));
}

// ---------------------------------------------------------------------------
// dq_small_budget and sq_exact: one closed-loop client through
// SearchMethod::Search on the registered `chunked` method.

int RunChunked(const Args& args, const Scale& scale, const Knobs& knobs,
               bool space_queries) {
  Ledger ledger;
  PerLayer layers;
  EndToEnd e2e;
  const std::string dir = args.workdir;
  StaticSetup setup;
  if (const qvt::Status s = BuildStatic(scale, dir, &setup, &layers);
      !s.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  const qvt::ChunkIndex& index = *setup.index;

  qvt::Rng rng = qvt::Rng::Stream(args.seed, 1);
  const qvt::Workload pool =
      space_queries
          ? qvt::MakeSpaceQueries(
                qvt::ComputeTrimmedRanges(setup.collection), scale.pool, &rng)
          : qvt::MakeDatasetQueries(setup.collection, scale.pool, &rng);
  const qvt::StopRule stop = space_queries
                                 ? qvt::StopRule::Exact()
                                 : qvt::StopRule::MaxChunks(scale.dq_budget);

  // sq_exact: a cache of about half the chunk file, smaller than the
  // working set of an exact query; dq_small_budget runs without one.
  std::unique_ptr<qvt::ChunkCache> cache;
  if (space_queries) {
    cache = std::make_unique<qvt::ChunkCache>(TotalPages(index) / 2);
  }
  qvt::MethodContext context;
  context.collection = &setup.collection;
  context.index = &index;
  context.cache = cache.get();
  context.prefetch = knobs.Prefetch();
  auto method = qvt::MethodRegistry::Global().Create("chunked", context);
  if (!method.ok() || !(*method)->Prepare().ok()) {
    std::fprintf(stderr, "perfbench: cannot create the chunked method\n");
    return 1;
  }
  e2e.setup_s = SecondsSince(g_process_start);

  // --- timed closed loop --------------------------------------------------
  const double loop_seconds = args.trace ? args.seconds / 2 : args.seconds;
  AnswerBook book(pool.num_queries());
  std::vector<double> latency_us;
  std::vector<double> model_us;
  qvt::QueryTelemetry totals;
  const qvt::ChunkCacheStats cache_before =
      cache ? cache->Stats() : qvt::ChunkCacheStats{};
  const auto loop_start = Clock::now();
  size_t next = 0;
  do {
    const size_t i = next++ % pool.num_queries();
    ++ledger.attempted;
    const auto t = Clock::now();
    auto result = (*method)->Search(pool.Query(i), kK, stop);
    latency_us.push_back(SecondsSince(t) * 1e6);
    if (!result.ok()) {
      ledger.Error("Search", result.status());
      continue;
    }
    model_us.push_back(static_cast<double>(result->telemetry.model_micros));
    totals += result->telemetry;
    if (stop.kind == qvt::StopRule::Kind::kMaxChunks &&
        result->telemetry.chunks_read !=
            std::min(stop.max_chunks, index.num_chunks())) {
      ledger.Wrong(1, "MaxChunks(" + std::to_string(stop.max_chunks) +
                          ") read " +
                          std::to_string(result->telemetry.chunks_read) +
                          " chunks");
    }
    book.Record(i, std::move(result->neighbors), &ledger);
  } while (SecondsSince(loop_start) < loop_seconds);
  const double busy_s = SecondsSince(loop_start);
  const qvt::ChunkCacheStats cache_after =
      cache ? cache->Stats() : qvt::ChunkCacheStats{};
  e2e.peak_rss_mb = PeakRssMb();
  const uint64_t queries = latency_us.size();
  e2e.qps = Ratio(static_cast<double>(queries), busy_s);
  e2e.p50_us = Percentile(latency_us, 0.50);
  e2e.p99_us = Percentile(latency_us, 0.99);
  layers.v["model.ms_p50"] = Percentile(model_us, 0.50) / 1e3;
  CounterLayers(totals, queries, &layers);
  CacheLayers(cache_before, cache_after, queries, &layers);

  if (args.trace) {
    ChunkedRecomposer recomposer(&index, cache.get());
    TracedPhase phase;
    RunTraced(
        book, scale.trace_sample, args.seconds / 2,
        [&](size_t i, Tracer& tracer, std::vector<Neighbor>* out,
            LayerCounts* counts) {
          return recomposer.Query(pool.Query(i), kK, stop, tracer, out,
                                  counts);
        },
        &phase, &ledger);
    LayerTimes(phase, &layers);
    WriteSpans(args, phase.tracer);
  }

  if (args.plant == "far") {
    const size_t i = std::find(book.answered.begin(), book.answered.end(), 1) -
                     book.answered.begin();
    PlantFar(setup.collection, pool.Query(i), &book.first[i]);
  }
  e2e.recall = CheckBook(setup.collection, pool, book,
                         space_queries ? AnswerMode::kExact
                                       : AnswerMode::kBudgeted,
                         knobs, &ledger);
  PrintResult(ledger, args.trace ? layers.Metrics() : e2e.Metrics());
  return 0;
}

// ---------------------------------------------------------------------------
// pq_batch: BatchSearcher::SearchAll, chunk-major, over the `pq` method with
// exact chunk-file rerank and a warm cache holding the whole chunk file.

int RunPqBatch(const Args& args, const Scale& scale, const Knobs& knobs) {
  Ledger ledger;
  PerLayer layers;
  EndToEnd e2e;
  const std::string dir = args.workdir;
  StaticSetup setup;
  if (const qvt::Status s = BuildStatic(scale, dir, &setup, &layers);
      !s.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  const qvt::ChunkIndex& index = *setup.index;
  const qvt::Collection& collection = setup.collection;

  // PQ codebooks are trained on a seeded sample of the rows (the usual
  // practice; training on all 200k rows would dominate every run), then
  // every row is encoded and the codes written for the method to open.
  auto t = Clock::now();
  qvt::PqConfig pq_config;
  qvt::Rng train_rng = qvt::Rng::Stream(args.seed, 2);
  std::vector<size_t> train_rows;
  for (const uint32_t p : train_rng.SampleWithoutReplacement(
           static_cast<uint32_t>(collection.size()),
           static_cast<uint32_t>(
               std::min(scale.pq_train_rows, collection.size())))) {
    train_rows.push_back(p);
  }
  std::sort(train_rows.begin(), train_rows.end());
  qvt::SetBuildThreads(knobs.pq_train_threads);
  auto codebook = qvt::TrainPq(collection.Subset(train_rows), pq_config);
  if (!codebook.ok()) {
    std::fprintf(stderr, "perfbench: TrainPq: %s\n",
                 codebook.status().ToString().c_str());
    return 1;
  }
  auto codes = qvt::PqEncode(collection, *codebook);
  qvt::SetBuildThreads(knobs.build_threads);
  const std::string pq_path = dir + "/codes.pqc";
  if (!codes.ok() ||
      !qvt::WritePqFile(qvt::Env::Posix(), pq_path, codebook->dim,
                        codebook->m, codebook->ksub, codebook->centroids,
                        *codes, collection.Ids())
           .ok()) {
    std::fprintf(stderr, "perfbench: PQ encode/write failed\n");
    return 1;
  }
  layers.v["build.pq_train_s"] = SecondsSince(t);

  qvt::ChunkCache cache(TotalPages(index));
  qvt::MethodContext context;
  context.collection = &collection;
  context.index = &index;
  context.cache = &cache;
  context.prefetch = knobs.Prefetch();
  context.env = qvt::Env::Posix();
  t = Clock::now();
  auto method = qvt::MethodRegistry::Global().Create(
      "pq", context,
      "file=" + pq_path + ",rerank=" + std::to_string(scale.pq_rerank));
  if (!method.ok() || !(*method)->Prepare().ok()) {
    std::fprintf(stderr, "perfbench: cannot create the pq method\n");
    return 1;
  }
  layers.v["open.ms"] += SecondsSince(t) * 1e3;
  // Warm the cache with every chunk so the timed loop runs from memory.
  for (size_t c = 0; c < index.num_chunks(); ++c) {
    std::shared_ptr<const qvt::ChunkData> ref;
    bool hit = false;
    const qvt::Status s = cache.GetOrLoad(
        c, index.location(c).num_pages,
        [&](qvt::ChunkData* out) { return index.ReadChunk(c, out); }, &ref,
        &hit);
    if (!s.ok()) {
      std::fprintf(stderr, "perfbench: cache warm-up: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }
  qvt::Rng rng = qvt::Rng::Stream(args.seed, 1);
  const size_t pool_size = scale.pool / scale.pq_batch * scale.pq_batch;
  const qvt::Workload pool =
      qvt::MakeDatasetQueries(collection, pool_size, &rng);
  std::vector<qvt::Workload> batches(pool_size / scale.pq_batch);
  for (size_t b = 0; b < batches.size(); ++b) {
    batches[b].name = "DQ";
    batches[b].dim = pool.dim;
    const auto first = pool.queries.begin() +
                       static_cast<std::ptrdiff_t>(b * scale.pq_batch * pool.dim);
    batches[b].queries.assign(
        first, first + static_cast<std::ptrdiff_t>(scale.pq_batch * pool.dim));
  }
  const qvt::BatchSearcher batcher(method->get(), knobs.batch_threads,
                                   /*shared_scan=*/true);
  e2e.setup_s = SecondsSince(g_process_start);

  // --- timed closed loop: one request is one batch ------------------------
  const double loop_seconds = args.trace ? args.seconds / 2 : args.seconds;
  AnswerBook book(pool_size);
  std::vector<double> latency_us;
  std::vector<double> model_us;
  qvt::QueryTelemetry totals;
  qvt::SharedScanStats shared;
  const qvt::ChunkCacheStats cache_before = cache.Stats();
  const qvt::DiskCostModelConfig model;
  const auto loop_start = Clock::now();
  size_t next = 0;
  uint64_t queries = 0;
  do {
    const size_t b = next++ % batches.size();
    ++ledger.attempted;
    const auto tb = Clock::now();
    auto result = batcher.SearchAll(batches[b], kK, qvt::StopRule::Exact());
    latency_us.push_back(SecondsSince(tb) * 1e6);
    if (!result.ok()) {
      ledger.Error("SearchAll", result.status());
      continue;
    }
    queries += result->results.size();
    totals += result->totals;
    shared += result->shared;
    // PqMethod does not charge the 2005 disk model, so the benchmark
    // charges the batch's read ledger: one positioning plus the page
    // transfers per rerank chunk, as uncached reads (§5.4).
    model_us.push_back(
        static_cast<double>(result->totals.chunks_read) *
            static_cast<double>(model.seek_micros) +
        static_cast<double>(result->totals.bytes_read / qvt::kPageSize) *
            static_cast<double>(model.transfer_micros_per_page));
    for (size_t j = 0; j < result->results.size(); ++j) {
      book.Record(b * scale.pq_batch + j,
                  std::move(result->results[j].neighbors), &ledger);
    }
  } while (SecondsSince(loop_start) < loop_seconds);
  const double busy_s = SecondsSince(loop_start);
  const qvt::ChunkCacheStats cache_after = cache.Stats();
  e2e.peak_rss_mb = PeakRssMb();
  e2e.qps = Ratio(static_cast<double>(queries), busy_s);
  e2e.p50_us = Percentile(latency_us, 0.50);
  e2e.p99_us = Percentile(latency_us, 0.99);
  layers.v["model.ms_p50"] = Percentile(model_us, 0.50) / 1e3;
  CounterLayers(totals, queries, &layers);
  layers.v["prefetch.used_per_issued"] =
      Ratio(static_cast<double>(shared.prefetch.used),
            static_cast<double>(shared.prefetch.issued));
  CacheLayers(cache_before, cache_after, queries, &layers);
  layers.v["rerank.chunks_per_query"] =
      layers.v["fetch.chunks_per_query"];
  layers.v["shared.attachments_per_fetch"] =
      Ratio(static_cast<double>(shared.chunk_attachments),
            static_cast<double>(shared.chunk_fetches));

  // Chunk-major answers must equal per-query Search answers.
  for (size_t i = 0; i < std::min(scale.batch_sample, pool_size); ++i) {
    if (!book.answered[i]) continue;
    ++ledger.attempted;
    auto one = (*method)->Search(pool.Query(i), kK, qvt::StopRule::Exact());
    if (!one.ok()) {
      ledger.Error("Search", one.status());
    } else if (!SameNeighbors(one->neighbors, book.first[i])) {
      ledger.Wrong(1, "batch answer of pool query " + std::to_string(i) +
                          " differs from its per-query Search answer");
    }
  }

  if (args.trace) {
    std::vector<uint32_t> chunk_of_row(collection.size(), 0);
    for (size_t c = 0; c < setup.chunking.chunks.size(); ++c) {
      for (const size_t pos : setup.chunking.chunks[c]) {
        chunk_of_row[collection.Id(pos)] = static_cast<uint32_t>(c);
      }
    }
    PqRecomposer recomposer(
        &index, &cache,
        {codebook->centroids, *codes, codebook->m, codebook->ksub,
         collection.size()},
        std::move(chunk_of_row), scale.pq_rerank);
    TracedPhase phase;
    RunTraced(
        book, scale.trace_sample, args.seconds / 2,
        [&](size_t i, Tracer& tracer, std::vector<Neighbor>* out,
            LayerCounts* counts) {
          return recomposer.Query(pool.Query(i), kK, tracer, out, counts);
        },
        &phase, &ledger);
    LayerTimes(phase, &layers);
    WriteSpans(args, phase.tracer);
  }

  if (args.plant == "far") PlantFar(collection, pool.Query(0), &book.first[0]);
  e2e.recall =
      CheckBook(collection, pool, book, AnswerMode::kBudgeted, knobs, &ledger);
  PrintResult(ledger, args.trace ? layers.Metrics() : e2e.Metrics());
  return 0;
}

// ---------------------------------------------------------------------------
// dynamic_mixed: one thread interleaving inserts, deletes and budgeted
// queries on a DynamicIndex over `chunked`, in identical cycles that each
// start from an empty index and end with Compact() and an exact pass.

/// The fixed operation schedule of one cycle.
struct DynamicSchedule {
  std::vector<uint32_t> insert_order;  ///< collection positions
  /// After insert n (1-based), delete the row inserted at delete_of[n].
  std::vector<int64_t> delete_of;
  /// After insert n, query with the vector of this inserted row.
  std::vector<int64_t> query_row;
  std::vector<uint32_t> exact_rows;  ///< exact pass after Compact()
};

struct DynQuery {
  size_t inserted = 0;  ///< rows inserted when the query ran
  uint32_t row = 0;     ///< collection position of the query vector
  bool exact = false;   ///< exact-pass query (after Compact())
  std::vector<Neighbor> answer;
};

/// Everything one cycle measured.
struct CycleResult {
  std::vector<double> insert_us;
  std::vector<double> query_us;
  std::vector<double> model_us;
  std::vector<DynQuery> queries;  ///< budgeted, then exact pass
  qvt::QueryTelemetry totals;
  qvt::DynamicStats stats;  ///< writer ledger before Compact()
  double compact_s = 0.0;
  double wall_s = 0.0;
};

DynamicSchedule MakeSchedule(const Scale& scale, size_t rows, uint64_t seed) {
  DynamicSchedule s;
  qvt::Rng rng = qvt::Rng::Stream(seed, 3);
  s.insert_order = rng.Permutation(static_cast<uint32_t>(rows));
  const size_t n = std::min(scale.dyn_rows, rows);
  s.insert_order.resize(n);
  s.delete_of.assign(n + 1, -1);
  s.query_row.assign(n + 1, -1);
  for (size_t i = 1; i <= n; ++i) {
    if (i % scale.dyn_delete_every == 0 && i > scale.dyn_delete_lag) {
      s.delete_of[i] = static_cast<int64_t>(i - 1 - scale.dyn_delete_lag);
    }
    if (i % scale.dyn_query_every == 0) {
      s.query_row[i] = s.insert_order[rng.Uniform(i)];
    }
  }
  for (size_t q = 0; q < scale.dyn_exact_queries; ++q) {
    s.exact_rows.push_back(s.insert_order[rng.Uniform(n)]);
  }
  return s;
}

qvt::Status RunCycle(const Scale& scale, const Knobs& knobs,
                     const qvt::Collection& collection,
                     const DynamicSchedule& schedule, const std::string& base,
                     Tracer& tracer, CycleResult* out, Ledger* ledger) {
  const auto cycle_start = Clock::now();
  SpanScope cycle_span(tracer, "cycle");
  qvt::DynamicOptions options;
  options.method = "chunked";
  options.dim = collection.dim();
  options.extension.buffer_capacity = scale.dyn_buffer;
  options.extension.scale_factor = scale.dyn_scale_factor;
  options.extension.policy = qvt::MergePolicy::kTiering;
  options.target_chunk_size = scale.chunk_size;
  options.prefetch = knobs.Prefetch();
  options.open_mode = qvt::IndexOpenMode::kMmap;
  QVT_ASSIGN_OR_RETURN(
      std::unique_ptr<qvt::DynamicIndex> index,
      qvt::DynamicIndex::Create(qvt::Env::Posix(), base, options));
  const qvt::StopRule budget = qvt::StopRule::MaxChunks(scale.dyn_budget);
  auto query = [&](uint32_t row, size_t inserted, const qvt::StopRule& stop,
                   bool timed) {
    ++ledger->attempted;
    const auto t = Clock::now();
    SpanScope span(tracer, "dyn.query");
    auto result = index->Search(collection.Vector(row), kK, stop);
    if (timed) out->query_us.push_back(SecondsSince(t) * 1e6);
    if (!result.ok()) {
      ledger->Error("DynamicIndex::Search", result.status());
      return;
    }
    if (timed) {
      out->model_us.push_back(
          static_cast<double>(result->telemetry.model_micros));
      out->totals += result->telemetry;
    }
    out->queries.push_back({inserted, row, !timed,
                            std::move(result->neighbors)});
  };

  const size_t n = schedule.insert_order.size();
  for (size_t i = 1; i <= n; ++i) {
    const uint32_t pos = schedule.insert_order[i - 1];
    ++ledger->attempted;
    {
      const auto t = Clock::now();
      SpanScope span(tracer, "dyn.insert");
      const qvt::Status s = index->Insert(collection.Id(pos),
                                          collection.Vector(pos),
                                          collection.Image(pos));
      out->insert_us.push_back(SecondsSince(t) * 1e6);
      if (!s.ok()) ledger->Error("Insert", s);
    }
    if (schedule.delete_of[i] >= 0) {
      ++ledger->attempted;
      SpanScope span(tracer, "dyn.delete");
      const qvt::Status s = index->Delete(collection.Id(
          schedule.insert_order[static_cast<size_t>(schedule.delete_of[i])]));
      if (!s.ok()) ledger->Error("Delete", s);
    }
    if (schedule.query_row[i] >= 0) {
      query(static_cast<uint32_t>(schedule.query_row[i]), i, budget, true);
    }
  }
  out->stats = index->Stats();
  ++ledger->attempted;
  {
    const auto t = Clock::now();
    SpanScope span(tracer, "dyn.compact");
    const qvt::Status s = index->Compact();
    out->compact_s = SecondsSince(t);
    if (!s.ok()) ledger->Error("Compact", s);
  }
  size_t deletes = 0;
  for (const int64_t d : schedule.delete_of) deletes += d >= 0 ? 1 : 0;
  ++ledger->attempted;
  if (index->live_rows() != n - deletes) {
    ledger->Wrong(1, "live_rows() " + std::to_string(index->live_rows()) +
                         " after Compact(), model holds " +
                         std::to_string(n - deletes));
  }
  for (const uint32_t row : schedule.exact_rows) {
    query(row, n, qvt::StopRule::Exact(), false);
  }
  index.reset();
  std::error_code ec;
  std::filesystem::remove_all(std::filesystem::path(base).parent_path(), ec);
  out->wall_s = SecondsSince(cycle_start);
  return qvt::Status::OK();
}

int RunDynamic(const Args& args, const Scale& scale, const Knobs& knobs) {
  Ledger ledger;
  PerLayer layers;
  EndToEnd e2e;
  auto t = Clock::now();
  const qvt::Collection collection = qvt::GenerateCollection(
      GeneratorFor(scale.images, scale.modes));
  layers.v["build.generate_s"] = SecondsSince(t);
  const DynamicSchedule schedule =
      MakeSchedule(scale, collection.size(), args.seed);
  e2e.setup_s = SecondsSince(g_process_start);

  const double loop_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<CycleResult> cycles;
  Tracer untraced;
  const auto loop_start = Clock::now();
  do {
    CycleResult cycle;
    const std::string base =
        args.workdir + "/cycle" + std::to_string(cycles.size()) + "/dyn";
    std::filesystem::create_directories(
        std::filesystem::path(base).parent_path());
    if (const qvt::Status s = RunCycle(scale, knobs, collection, schedule,
                                       base, untraced, &cycle, &ledger);
        !s.ok()) {
      ledger.Error("DynamicIndex::Create", s);
      break;
    }
    cycles.push_back(std::move(cycle));
  } while (SecondsSince(loop_start) < loop_seconds);
  e2e.peak_rss_mb = PeakRssMb();
  if (cycles.empty()) return 1;
  std::fprintf(stderr, "perfbench: %zu cycles\n", cycles.size());

  // Aggregate over cycles.
  std::vector<double> insert_us, query_us, model_us, cycle_ingest;
  qvt::QueryTelemetry totals;
  double insert_s = 0, build_s = 0, merge_s = 0, compact_s = 0;
  std::vector<double> cycle_wall_s;
  uint64_t events = 0, rows_written = 0, inserts = 0;
  for (const CycleResult& c : cycles) {
    insert_us.insert(insert_us.end(), c.insert_us.begin(), c.insert_us.end());
    query_us.insert(query_us.end(), c.query_us.begin(), c.query_us.end());
    model_us.insert(model_us.end(), c.model_us.begin(), c.model_us.end());
    totals += c.totals;
    double cycle_insert_s = 0;
    for (const double us : c.insert_us) cycle_insert_s += us / 1e6;
    insert_s += cycle_insert_s;
    cycle_ingest.push_back(
        Ratio(static_cast<double>(c.insert_us.size()), cycle_insert_s));
    build_s += static_cast<double>(c.stats.build_wall_micros) / 1e6;
    for (const qvt::MergeEvent& e : c.stats.events) {
      merge_s += static_cast<double>(e.wall_micros) / 1e6;
      rows_written += e.rows_out;
      ++events;
    }
    inserts += c.insert_us.size();
    compact_s += c.compact_s;
    cycle_wall_s.push_back(c.wall_s);
  }
  double query_s = 0;
  for (const double us : query_us) query_s += us / 1e6;
  const double nq = static_cast<double>(query_us.size());
  e2e.qps = Ratio(nq, query_s);
  e2e.p50_us = Percentile(query_us, 0.50);
  e2e.p99_us = Percentile(query_us, 0.99);
  layers.v["model.ms_p50"] = Percentile(model_us, 0.50) / 1e3;
  // Median over cycles, so a burst of host contention over one cycle's
  // merges does not decide the run's figure.
  layers.v["dyn.ingest_rows_per_s"] = Percentile(cycle_ingest, 0.5);
  CounterLayers(totals, query_us.size(), &layers);
  layers.v["dyn.insert_us_p50"] = Percentile(insert_us, 0.50);
  layers.v["dyn.merge_ms_per_event"] =
      Ratio(merge_s * 1e3, static_cast<double>(events));
  layers.v["dyn.build_share_of_ingest"] = Ratio(build_s, insert_s);
  layers.v["dyn.write_amp"] = Ratio(static_cast<double>(rows_written),
                                    static_cast<double>(inserts));
  layers.v["dyn.shards_per_query"] =
      Ratio(static_cast<double>(totals.shards_searched), nq);
  layers.v["dyn.tombstones_per_query"] =
      Ratio(static_cast<double>(totals.tombstones_filtered), nq);
  layers.v["dyn.compact_s"] =
      compact_s / static_cast<double>(cycles.size());

  // Every cycle runs the same schedule, so its answers must repeat cycle
  // 0's exactly; cycle 0 is then checked against the brute force.
  const std::vector<DynQuery>& reference = cycles[0].queries;
  for (size_t c = 1; c < cycles.size(); ++c) {
    const std::vector<DynQuery>& qs = cycles[c].queries;
    for (size_t j = 0; j < std::min(qs.size(), reference.size()); ++j) {
      if (!SameNeighbors(qs[j].answer, reference[j].answer)) {
        ledger.Wrong(1, "cycle " + std::to_string(c) + " query " +
                            std::to_string(j) + " differs from cycle 0");
      }
    }
  }

  if (args.trace) {
    // One more cycle with a span around every operation; its wall time
    // against the untraced cycles' median (the first cycle runs cold) is
    // the tracing overhead.
    Tracer tracer;
    tracer.enabled = true;
    CycleResult traced;
    const std::string base = args.workdir + "/traced/dyn";
    std::filesystem::create_directories(
        std::filesystem::path(base).parent_path());
    if (const qvt::Status s = RunCycle(scale, knobs, collection, schedule,
                                       base, tracer, &traced, &ledger);
        !s.ok()) {
      ledger.Error("DynamicIndex::Create", s);
    } else {
      layers.v["trace.overhead_share"] =
          Ratio(traced.wall_s, Percentile(cycle_wall_s, 0.5)) - 1.0;
    }
    WriteSpans(args, tracer);
  }

  // Oracle: replay the schedule into a live-set model and brute-force each
  // cycle-0 query over the rows live at that moment.
  std::vector<uint8_t> live(collection.size(), 0);
  std::vector<std::vector<uint8_t>> masks;
  std::vector<std::span<const float>> vectors;
  size_t applied = 0;
  for (const DynQuery& q : reference) {
    for (; applied < q.inserted; ++applied) {
      const size_t i = applied + 1;
      live[schedule.insert_order[applied]] = 1;
      if (schedule.delete_of[i] >= 0) {
        live[schedule.insert_order[static_cast<size_t>(
            schedule.delete_of[i])]] = 0;
      }
    }
    masks.push_back(live);
    vectors.push_back(collection.Vector(q.row));
  }
  std::vector<DynQuery> checked = reference;
  if (args.plant == "far" && !checked.empty()) {
    PlantFar(collection, vectors[0], &checked[0].answer);
  }
  if (args.plant == "deleted") {
    // The first deleted row, reported at its true distance, in the first
    // answer given after its delete.
    const auto first =
        std::find_if(schedule.delete_of.begin(), schedule.delete_of.end(),
                     [](int64_t d) { return d >= 0; });
    const size_t at = first - schedule.delete_of.begin();
    for (size_t j = 0; first != schedule.delete_of.end() && j < checked.size();
         ++j) {
      if (checked[j].inserted < at || checked[j].answer.empty()) continue;
      const uint32_t victim =
          schedule.insert_order[static_cast<size_t>(*first)];
      checked[j].answer.back() = {
          victim, OracleDistance(collection.Vector(victim), vectors[j])};
      break;
    }
  }
  const auto truth =
      BruteForceMany(collection, masks, vectors, kK, knobs.oracle_threads);
  double recall = 0.0;
  size_t budgeted = 0;
  for (size_t j = 0; j < checked.size(); ++j) {
    const bool exact = checked[j].exact;
    const std::string why =
        CheckAnswer(collection, masks[j], vectors[j], checked[j].answer,
                    truth[j], kK,
                    exact ? AnswerMode::kExact : AnswerMode::kBudgeted);
    if (!why.empty()) {
      ledger.Wrong(cycles.size(), "dynamic query " + std::to_string(j) +
                                      ": " + why);
    }
    if (!exact) {
      recall += RecallAt(checked[j].answer, truth[j]);
      ++budgeted;
    }
  }
  e2e.recall = Ratio(recall, static_cast<double>(budgeted));
  PrintResult(ledger, args.trace ? layers.Metrics() : e2e.Metrics());
  return 0;
}

// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--scale") {
      if (value != "full" && value != "small") return false;
      args->small = value == "small";
    } else if (flag == "--plant") {
      if (value != "far" && value != "deleted") return false;
      args->plant = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: qvt_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>] "
                 "[--scale full|small] [--plant far|deleted]\n");
    return 2;
  }
  using RunFn = int (*)(const Args&, const Scale&, const Knobs&);
  static const std::map<std::string, RunFn> kWorkloads = {
      {"dq_small_budget",
       [](const Args& a, const Scale& s, const Knobs& k) {
         return RunChunked(a, s, k, /*space_queries=*/false);
       }},
      {"sq_exact",
       [](const Args& a, const Scale& s, const Knobs& k) {
         return RunChunked(a, s, k, /*space_queries=*/true);
       }},
      {"pq_batch", RunPqBatch},
      {"dynamic_mixed", RunDynamic},
  };
  const auto run = kWorkloads.find(args.workload);
  if (run == kWorkloads.end()) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const Knobs knobs = PinKnobs();
  const Scale scale = args.small ? Scale::Small() : Scale();
  if (args.plant == "deleted" && args.workload != "dynamic_mixed") {
    std::fprintf(stderr, "perfbench: --plant deleted needs dynamic_mixed\n");
    return 2;
  }
  args.workdir += "/" + args.workload + "-" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", args.workdir.c_str());
    return 1;
  }
  PrintHost(args, knobs);
  std::fflush(stdout);
  const int rc = run->second(args, scale, knobs);
  std::filesystem::remove_all(args.workdir, ec);
  return rc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
