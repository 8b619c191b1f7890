// castream_perfbench: the measuring binary behind perfbench/run.py.
//
//   castream_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      [--trace-out FILE]
//
// Drives the library only through its public calls (ShardedDriver / Writer /
// Query, AnySummary, Serialize / Deserialize, SnapshotReducer, ShardPublisher
// / PublishFreshSnapshots, QueryServed) and times each layer from outside, at
// those calls. One run repeats identical trials of one workload until
// --seconds have passed and prints a single JSON object on stdout:
// the end-to-end metrics (--trace 0) or the per-layer metrics derived from
// span self times (--trace 1), the operation tally, the run context and the
// sample counts. perfbench/run.py builds this binary and turns that object
// into the benchmark's result line. Workloads, metrics and the layer map are
// described in perfbench/README.md.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "bench/workload.h"
#include "src/core/any_summary.h"
#include "src/core/exact_correlated.h"
#include "src/driver/sharded_driver.h"
#include "src/hash/hash_family.h"
#include "src/service/client.h"
#include "src/service/publisher.h"
#include "src/service/reducer.h"

#ifndef CASTREAM_PERFBENCH_BUILD_TYPE
#define CASTREAM_PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

namespace {

using namespace castream;
using Clock = std::chrono::steady_clock;
using Driver = ShardedDriver<AnySummary>;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workload parameters. Everything a run does is fixed here; only the stream
// seed comes from the command line.
// ---------------------------------------------------------------------------

constexpr uint64_t kYMax = (uint64_t{1} << 20) - 1;
constexpr uint64_t kUniformXRange = (uint64_t{1} << 24) - 1;
constexpr const char* kKind = "f2";
constexpr uint64_t kSummarySeed = 42;
constexpr uint64_t kWorkerSplitSeed = 0x5e1f5e1fULL;
constexpr size_t kWriterChunk = 4096;     // tuples per traced Writer span
constexpr int kSetupsPerTrial = 4;        // set-up samples per trial
constexpr int kLadderSize = 8;            // cutoffs y_max * k / 8
constexpr int kWarmupTrials = 2;         // unsampled trials per run
constexpr int kMinTrials = 3;
constexpr auto kServedTimeout = std::chrono::milliseconds(10000);

enum class Shape { kF2Uniform, kF2Served };

struct WorkloadSpec {
  const char* name;
  Shape shape;
  uint32_t shards;            // per driver
  uint32_t workers;           // drivers (f2_served: publishing workers)
  size_t ingest_tuples;       // per trial, before the serve rounds
  int serve_rounds;           // per trial
  size_t round_chunk;         // tuples per worker per round
  int query_every;            // rounds from one QueryServed group to the next
  int queries_per_group;      // QueryServed calls in a group
  int timed_queries;          // blocking queries on the final state
  int runnable_threads;       // most threads that can run at once
  int connections;            // most sockets open at once
};

// The two workloads, both F2 with writer coalescing off. runnable_threads
// counts the producing thread and the shard ingest threads; reducer
// connection threads only run while the harness thread waits on them.
//
// Every QueryServed opens a TCP connection, and each closed one holds a
// loopback port in TIME_WAIT for a minute. Tens of thousands of them (one
// query per few hundred microseconds) made every served figure of the next
// run up to twice as slow. So each workload keeps to
// about 50 connections a second: queries come in a group every query_every
// rounds, while the publishers reuse their one connection.
constexpr WorkloadSpec kWorkloads[] = {
    {.name = "f2_uniform_ingest", .shape = Shape::kF2Uniform, .shards = 2,
     .workers = 1, .ingest_tuples = 1000000, .serve_rounds = 80,
     .round_chunk = 1024, .query_every = 20, .queries_per_group = 1,
     .timed_queries = 1000, .runnable_threads = 3, .connections = 2},
    {.name = "f2_served", .shape = Shape::kF2Served, .shards = 1,
     .workers = 2, .ingest_tuples = 0, .serve_rounds = 120,
     .round_chunk = 1024, .query_every = 30, .queries_per_group = 10,
     .timed_queries = 0, .runnable_threads = 3, .connections = 3},
};

SummaryOptions MakeSummaryOptions() {
  SummaryOptions o;
  o.delta = 0.05;
  o.y_max = kYMax;
  // F2 blobs are the largest kind on the wire. eps 0.5 keeps the merged
  // root under half a MB serialized, inside one core's L2 cache; at eps 0.25
  // (about 4 MB) query and publish times moved by a quarter between runs on
  // a shared host.
  o.eps = 0.5;
  return o;
}

ShardedDriverOptions DriverOptionsFor(const WorkloadSpec& w) {
  ShardedDriverOptions d;
  d.shards = w.shards;
  d.batch_size = 1024;
  d.queue_capacity = 8;
  d.snapshot_interval_batches = 8;
  d.writer_coalesce_slots = 0;  // coalescing off
  return d;
}

std::vector<uint64_t> Ladder() {
  std::vector<uint64_t> cutoffs;
  for (int k = 1; k <= kLadderSize; ++k) {
    cutoffs.push_back((kYMax + 1) / kLadderSize * k - 1);
  }
  return cutoffs;
}

// ---------------------------------------------------------------------------
// Small statistics and process helpers.
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1] of the samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Quantile q over all of a run's latency samples, given per trial.
double PooledQuantile(const std::vector<std::vector<double>>& by_trial,
                      double q) {
  std::vector<double> all;
  for (const std::vector<double>& trial : by_trial) {
    all.insert(all.end(), trial.begin(), trial.end());
  }
  return Quantile(std::move(all), q);
}

/// The mean over trials of each trial's quantile q. Every trial builds its
/// systems under test afresh, and their memory layout moves a trial's
/// latencies as a whole (same-seed trials of one run fall into a fast and a
/// slow group). The quantile of the pooled samples then jumps with the share
/// of fast trials; the mean over trials moves smoothly with it, and a stall
/// that hits only some trials still moves it in proportion.
double MeanTrialQuantile(const std::vector<std::vector<double>>& by_trial,
                         double q) {
  double sum = 0;
  size_t n = 0;
  for (const std::vector<double>& trial : by_trial) {
    if (trial.empty()) continue;
    sum += Quantile(trial, q);
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

/// The median over blocks of consecutive trials, each just large enough to
/// leave ten samples beyond q, of the blocks' quantile q. Reported beside
/// PooledQuantile: the two differ when a slow stretch hits only some blocks.
double BlockQuantile(const std::vector<std::vector<double>>& by_trial,
                     double q) {
  const size_t min_block = static_cast<size_t>(std::ceil(10.0 / (1.0 - q)));
  std::vector<double> block, quantiles;
  for (const std::vector<double>& trial : by_trial) {
    block.insert(block.end(), trial.begin(), trial.end());
    if (block.size() >= min_block) {
      quantiles.push_back(Quantile(block, q));
      block.clear();
    }
  }
  return quantiles.empty() ? Quantile(block, q) : Median(quantiles);
}

size_t Count(const std::vector<std::vector<double>>& by_trial) {
  size_t n = 0;
  for (const std::vector<double>& trial : by_trial) n += trial.size();
  return n;
}

/// A /proc/self/status field in kB (VmRSS, VmHWM), or -1.
double ProcStatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0 && line.size() > klen &&
        line[klen] == ':') {
      return std::strtod(line.c_str() + klen + 1, nullptr);
    }
  }
  return -1.0;
}

/// Resets the kernel's RSS high-water mark to the current RSS.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

/// Runs f with stdout pointed at stderr: bench/workload.h logs a
/// `# workload ...` line per stream, which must not enter the result stream.
template <typename F>
auto WithStdoutOnStderr(F&& f) {
  std::fflush(stdout);
  const int saved = ::dup(STDOUT_FILENO);
  ::dup2(STDERR_FILENO, STDOUT_FILENO);
  auto result = f();
  std::fflush(stdout);
  ::dup2(saved, STDOUT_FILENO);
  ::close(saved);
  return result;
}

/// Pins the calling thread to the CPU it runs on, for the guard's lifetime.
/// Threads it starts meanwhile inherit the one-CPU mask and keep it. On one
/// CPU a hand-off between threads (harness to reducer connection thread,
/// harness to shard thread) is a context switch; across CPUs it is a wake-up
/// of an idle virtual CPU, whose cost is the host's and moved the served
/// query latency by half between runs.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    cpu_ = ::sched_getcpu();
    if (cpu_ < 0 || ::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      cpu_ = -1;
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) != 0) cpu_ = -1;
  }
  ~PinToOneCpu() {
    if (cpu_ >= 0) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

  /// False when the pinning failed; the serve phase then runs unpinned.
  bool pinned() const { return cpu_ >= 0; }

 private:
  int cpu_ = -1;
  cpu_set_t saved_;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ---------------------------------------------------------------------------
// Tracer: spans recorded by the harness around each call into a layer. Kept
// in memory, written out at exit; per-layer numbers are span self times.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  struct SpanRecord {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  // index into spans_, -1 for a root span
    int64_t child_ns = 0;
  };

  /// RAII span; a no-op while the tracer is off.
  class Span {
   public:
    Span(Tracer& t, const char* name) : tracer_(t) {
      if (!t.on_.load(std::memory_order_relaxed)) return;
      id_ = t.Open(name);
    }
    ~Span() {
      if (id_ >= 0) tracer_.Close(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int64_t id_ = -1;
  };

  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }

  /// Self time (duration minus children) summed per span name, in ns, and
  /// the span count per name.
  void SelfTimes(std::map<std::string, double>* self_ns,
                 std::map<std::string, uint64_t>* count) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& s : spans_) {
      (*self_ns)[s.name] +=
          static_cast<double>(s.end_ns - s.start_ns - s.child_ns);
      ++(*count)[s.name];
    }
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  bool WriteJsonLines(const std::string& path) const {
    std::ofstream out(path);
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  int64_t Open(const char* name) {
    const int64_t start = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(SpanRecord{name, start, start, current_, 0});
    current_ = static_cast<int64_t>(spans_.size()) - 1;
    return current_;
  }

  void Close(int64_t id) {
    const int64_t end = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord& s = spans_[static_cast<size_t>(id)];
    s.end_ns = end;
    if (s.parent >= 0) {
      spans_[static_cast<size_t>(s.parent)].child_ns += end - s.start_ns;
    }
    current_ = s.parent;
  }

  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  // The calling thread's open span: the parent of the next span it opens.
  static thread_local int64_t current_;
};

thread_local int64_t Tracer::current_ = -1;

// ---------------------------------------------------------------------------
// Operation tally: every timed or checked operation counts as attempted;
// errors, answers outside the eps bound, rejected or duplicate publishes and
// publisher reconnects count as failed.
// ---------------------------------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

// ---------------------------------------------------------------------------
// Systems under test.
// ---------------------------------------------------------------------------

/// One ShardedDriver with the single producing thread's Writer.
struct DriverSut {
  std::unique_ptr<Driver> driver;
  std::optional<Driver::Writer> writer;  // declared after: destroyed first

  DriverSut(const WorkloadSpec& w, const SummaryOptions& so) {
    driver = std::make_unique<Driver>(DriverOptionsFor(w), [so] {
      return MakeSummary(kKind, so, kSummarySeed).value();
    });
    writer.emplace(*driver);
  }
};

/// Accumulators for the per-layer metrics, across a run's trials.
struct LayerCounters {
  uint64_t backlog_max = 0;
  uint64_t coalesce_in = 0;
  uint64_t coalesce_out = 0;
  uint64_t coalesce_evictions = 0;
  uint64_t snapshot_publishes = 0;
  uint64_t driver_queries = 0;
  uint64_t driver_merges = 0;
  uint64_t reconnects = 0;
  // service: per publish pass, pass time minus its replayed io/probe costs.
  std::vector<double> publish_residual_ns;
  std::vector<double> answer_remerge_ns;
  std::vector<double> answer_cached_ns;
  std::vector<double> query_residual_ns;
  std::vector<double> blob_bytes;
};

/// Everything one run measures, across trials.
struct RunSamples {
  std::vector<double> setup_s;
  std::vector<double> ingest_tps;
  // Latency samples, one vector per trial.
  std::vector<std::vector<double>> query_us;
  std::vector<std::vector<double>> publish_ms;
  std::vector<double> state_bytes;
  // Trace overhead: per-trial work time, traced and untraced.
  std::vector<double> work_traced_s;
  std::vector<double> work_plain_s;
  int trials = 0;
  int traced_trials = 0;
  int unpinned_trials = 0;  // serve phase left on all CPUs (pinning failed)
  LayerCounters layers;
};

/// Answers to check against the exact oracle once the run is over.
struct PendingCheck {
  int oracle;  // 0: the ingest stream; 1: the serve rounds' stream
  uint64_t cutoff;
  double estimate;
  std::string what;
};

struct RunContext {
  const WorkloadSpec& w;
  SummaryOptions so;
  Tracer& tracer;
  Tally& tally;
  RunSamples& samples;
  std::vector<PendingCheck>& checks;
  std::vector<uint64_t> ladder = Ladder();
};

/// Samples the driver backlog: tuples handed to the writer that no shard has
/// ingested yet.
void Backlog(RunContext& rc, DriverSut& sut, uint64_t handed) {
  if (!rc.tracer.on()) return;
  const uint64_t processed = sut.driver->tuples_processed();
  if (handed > processed) {
    rc.samples.layers.backlog_max =
        std::max(rc.samples.layers.backlog_max, handed - processed);
  }
}

/// Span names of the driver calls. The driver.* per-layer metrics describe
/// a workload's main phase; f2_uniform_ingest's serve rounds record under
/// serve.* instead.
struct DriverSpans {
  const char* insert;
  const char* drain;
  bool backlog;  // sample driver.backlog_max_tuples
};
constexpr DriverSpans kMainPhase{"driver.writer_insert", "driver.drain", true};
constexpr DriverSpans kServePhase{"serve.writer_insert", "serve.drain", false};

/// Inserts `tuples` through the SUT's Writer in spans of kWriterChunk.
/// Returns the running count of tuples handed to the writer.
uint64_t WriteAll(RunContext& rc, DriverSut& sut, std::span<const Tuple> tuples,
                  uint64_t handed, const DriverSpans& spans) {
  for (size_t i = 0; i < tuples.size(); i += kWriterChunk) {
    const size_t n = std::min(kWriterChunk, tuples.size() - i);
    {
      Tracer::Span span(rc.tracer, spans.insert);
      for (size_t j = i; j < i + n; ++j) sut.writer->Insert(tuples[j]);
    }
    handed += n;
    if (spans.backlog) Backlog(rc, sut, handed);
  }
  return handed;
}

void Drain(RunContext& rc, DriverSut& sut, const DriverSpans& spans) {
  Tracer::Span span(rc.tracer, spans.drain);
  sut.writer->Flush();
  sut.driver->WaitIdle();
}

/// Builds the SUT kSetupsPerTrial times, recording each set-up time; keeps
/// the last one.
std::unique_ptr<DriverSut> SetUpDriverSut(RunContext& rc) {
  std::unique_ptr<DriverSut> sut;
  for (int i = 0; i < kSetupsPerTrial; ++i) {
    sut.reset();
    const int64_t t0 = NowNs();
    {
      Tracer::Span span(rc.tracer, "driver.setup");
      sut = std::make_unique<DriverSut>(rc.w, rc.so);
    }
    rc.samples.setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return sut;
}

// ---------------------------------------------------------------------------
// The serve round shared by every workload: ingest a chunk into each worker,
// publish its snapshots, read the result back through the service.
// ---------------------------------------------------------------------------

struct ServedWorker {
  DriverSut* sut;
  service::ShardPublisher* publisher;
  uint32_t worker_id;
};

bool CoversEpochs(const service::ServedAnswer& answer, uint32_t worker,
                  const std::vector<uint64_t>& epochs) {
  for (uint32_t s = 0; s < epochs.size(); ++s) {
    bool found = false;
    for (const service::EpochEntry& e : answer.epochs) {
      if (e.worker == worker && e.shard == s && e.epoch >= epochs[s]) {
        found = true;
      }
    }
    if (!found) return false;
  }
  return true;
}

/// Replays the reducer's admission work on every shard blob the pass just
/// shipped (traced runs only): serialize, decode, probe merge. Returns the
/// replayed time in ns.
double ReplayAdmission(RunContext& rc, Driver& driver) {
  LayerCounters& lc = rc.samples.layers;
  double total_ns = 0;
  for (uint32_t s = 0; s < driver.shard_count(); ++s) {
    std::string blob;
    uint64_t epoch = 0;
    const int64_t t0 = NowNs();
    Status st;
    {
      Tracer::Span span(rc.tracer, "io.serialize");
      st = driver.SerializeShardSnapshot(s, &blob, &epoch);
    }
    rc.tally.Op(st.ok(), "replay serialize: " + st.ToString());
    std::optional<AnySummary> decoded;
    {
      Tracer::Span span(rc.tracer, "io.deserialize");
      auto d = AnySummary::Deserialize(
          std::as_bytes(std::span(blob.data(), blob.size())));
      if (d.ok()) decoded.emplace(std::move(d).value());
    }
    rc.tally.Op(decoded.has_value(), "replay deserialize failed");
    Status merged = Status::Internal("not decoded");
    if (decoded) {
      Tracer::Span span(rc.tracer, "core.probe_merge");
      AnySummary probe = MakeSummary(kKind, rc.so, kSummarySeed).value();
      merged = probe.MergeFrom(*decoded);
    }
    rc.tally.Op(merged.ok(), "replay probe merge: " + merged.ToString());
    lc.blob_bytes.push_back(static_cast<double>(blob.size()));
    total_ns += static_cast<double>(NowNs() - t0);
  }
  return total_ns;
}

/// One serve round; round r ends with a QueryServed group when r + 1 is a
/// multiple of query_every. Returns the round's work time in ns (trace-only
/// replay work excluded) and adds the tuples it ingested to *tuples.
double ServeRound(RunContext& rc, std::vector<ServedWorker>& workers,
                  const std::vector<std::span<const Tuple>>& chunks,
                  service::SnapshotReducer& reducer, int r, uint64_t* handed,
                  uint64_t* tuples) {
  Tracer::Span round(rc.tracer, "serve.round");
  const int64_t t0 = NowNs();
  double extra_ns = 0;
  const DriverSpans& spans =
      rc.w.shape == Shape::kF2Served ? kMainPhase : kServePhase;
  for (size_t i = 0; i < workers.size(); ++i) {
    handed[i] = WriteAll(rc, *workers[i].sut, chunks[i], handed[i], spans);
    *tuples += chunks[i].size();
  }
  for (ServedWorker& w : workers) Drain(rc, *w.sut, spans);
  for (ServedWorker& w : workers) {
    Tracer::Span span(rc.tracer, "driver.publish_snapshots");
    w.sut->driver->PublishSnapshots();
  }
  std::vector<std::vector<uint64_t>> expected;
  for (ServedWorker& w : workers) {
    expected.push_back(w.sut->driver->ShardEpochs());
    const int64_t p0 = NowNs();
    Status st;
    {
      Tracer::Span span(rc.tracer, "service.publish");
      st = service::PublishFreshSnapshots(*w.publisher, *w.sut->driver);
    }
    const double pass_ns = static_cast<double>(NowNs() - p0);
    rc.samples.publish_ms.back().push_back(pass_ns * 1e-6);
    rc.tally.Op(st.ok(), "publish: " + st.ToString());
    if (rc.tracer.on()) {
      const int64_t r0 = NowNs();
      const double replayed = ReplayAdmission(rc, *w.sut->driver);
      extra_ns += static_cast<double>(NowNs() - r0);
      rc.samples.layers.publish_residual_ns.push_back(pass_ns - replayed);
    }
  }
  if ((r + 1) % rc.w.query_every != 0) {
    return static_cast<double>(NowNs() - t0) - extra_ns;
  }
  const uint64_t cutoff_seed = 7 + static_cast<uint64_t>(r);
  if (rc.tracer.on()) {
    // The in-process handler: the first call after a publish re-merges the
    // table, the repeat hits the memo.
    const int64_t a0 = NowNs();
    for (int k = 0; k < 2; ++k) {
      const int64_t q0 = NowNs();
      {
        Tracer::Span span(rc.tracer, "service.answer");
        service::ServedAnswer a = reducer.Answer(cutoff_seed % (kYMax + 1));
        rc.tally.Op(a.status.ok(), "answer: " + a.status.ToString());
      }
      const double ns = static_cast<double>(NowNs() - q0);
      (k == 0 ? rc.samples.layers.answer_remerge_ns
              : rc.samples.layers.answer_cached_ns)
          .push_back(ns);
    }
    extra_ns += static_cast<double>(NowNs() - a0);
  }
  bench::CutoffWalk walk{cutoff_seed};
  for (int q = 0; q < rc.w.queries_per_group; ++q) {
    const int64_t q0 = NowNs();
    Result<service::ServedAnswer> answer =
        Status::Unavailable("not attempted");
    {
      Tracer::Span span(rc.tracer, "service.query_served");
      answer = service::QueryServed("127.0.0.1", reducer.port(),
                                    walk.Next(kYMax + 1), kServedTimeout);
    }
    const double ns = static_cast<double>(NowNs() - q0);
    if (rc.w.shape == Shape::kF2Served) {
      rc.samples.query_us.back().push_back(ns * 1e-3);
    }
    if (rc.tracer.on() && !rc.samples.layers.answer_cached_ns.empty()) {
      rc.samples.layers.query_residual_ns.push_back(
          ns - rc.samples.layers.answer_cached_ns.back());
    }
    bool ok = answer.ok() && answer.value().status.ok();
    for (size_t i = 0; ok && i < workers.size(); ++i) {
      ok = CoversEpochs(answer.value(), workers[i].worker_id, expected[i]);
    }
    rc.tally.Op(ok, answer.ok() ? "served query: " +
                                      answer.value().status.ToString() +
                                      " (or epochs not covered)"
                                : "served query: " +
                                      answer.status().ToString());
  }
  return static_cast<double>(NowNs() - t0) - extra_ns;
}

/// Served answers at the cutoff ladder, queued for the oracle check.
void CheckServedLadder(RunContext& rc, uint16_t port, int oracle,
                       const char* what) {
  for (uint64_t c : rc.ladder) {
    auto answer = service::QueryServed("127.0.0.1", port, c, kServedTimeout);
    const bool ok = answer.ok() && answer.value().status.ok();
    rc.tally.Op(ok, std::string(what) + ": served ladder query failed");
    if (ok) {
      rc.checks.push_back(
          PendingCheck{oracle, c, answer.value().estimate, what});
    }
  }
}

Result<std::unique_ptr<service::SnapshotReducer>> StartReducer(
    RunContext& rc) {
  service::ReducerOptions ro;
  ro.kind = kKind;
  ro.summary = rc.so;
  ro.summary_seed = kSummarySeed;
  ro.port = 0;
  // Only bounds how long Shutdown waits for the accept thread; an incoming
  // connection wakes the poll at once, so no timed path sees it.
  ro.accept_poll = std::chrono::milliseconds(20);
  return service::SnapshotReducer::Start(ro);
}

service::PublisherOptions PublisherOptionsFor(uint16_t port, uint32_t worker) {
  service::PublisherOptions po;
  po.port = port;
  po.worker_id = worker;
  return po;
}

void CountReducer(RunContext& rc, service::SnapshotReducer& reducer,
                  std::map<std::string, uint64_t>* service_counts) {
  const uint64_t dup = reducer.publishes_duplicate();
  const uint64_t rej = reducer.publishes_rejected();
  const uint64_t bad = reducer.frames_bad();
  (*service_counts)["accepted"] += reducer.publishes_accepted();
  (*service_counts)["duplicate"] += dup;
  (*service_counts)["rejected"] += rej;
  (*service_counts)["bad_frames"] += bad;
  for (uint64_t i = 0; i < dup; ++i) rc.tally.Fail("duplicate publish");
  for (uint64_t i = 0; i < rej; ++i) rc.tally.Fail("rejected publish");
  for (uint64_t i = 0; i < bad; ++i) rc.tally.Fail("bad frame at reducer");
}

void CountReconnects(RunContext& rc, const service::ShardPublisher& p) {
  const uint64_t reconnects = p.generation() > 0 ? p.generation() - 1 : 0;
  rc.samples.layers.reconnects += reconnects;
  for (uint64_t i = 0; i < reconnects; ++i) {
    rc.tally.Fail("publisher reconnect (a backoff sleep was timed)");
  }
}

void CountDriver(RunContext& rc, DriverSut& sut) {
  LayerCounters& lc = rc.samples.layers;
  // A disabled coalescer counts nothing; the ratio then reads 1.0.
  const HotKeyBuffer& hk = sut.writer->coalescer();
  lc.coalesce_in += hk.tuples_in();
  lc.coalesce_out += hk.tuples_out();
  lc.coalesce_evictions += hk.evictions();
  for (uint64_t e : sut.driver->ShardEpochs()) lc.snapshot_publishes += e;
  lc.driver_merges += sut.driver->shard_merges_performed();
}

// ---------------------------------------------------------------------------
// Trials.
// ---------------------------------------------------------------------------

struct Streams {
  std::vector<Tuple> ingest;               // f2_uniform_ingest
  std::vector<Tuple> serve;                // rounds' tuples, in order
  // f2_served: per worker, per round, its slice of the round's tuples.
  std::vector<std::vector<std::vector<Tuple>>> per_worker_round;
};

Streams MakeStreams(const WorkloadSpec& w, uint64_t seed) {
  Streams s;
  const size_t serve_n = static_cast<size_t>(w.serve_rounds) *
                         w.round_chunk * w.workers;
  std::vector<Tuple> all = WithStdoutOnStderr([&] {
    return bench::MakeUniformStream(w.ingest_tuples + serve_n, kUniformXRange,
                                    kYMax, seed);
  });
  s.ingest.assign(all.begin(), all.begin() + w.ingest_tuples);
  s.serve.assign(all.begin() + w.ingest_tuples, all.end());
  if (w.shape == Shape::kF2Served) {
    // Workers own disjoint key sets, as a key-partitioned deployment would.
    s.per_worker_round.assign(w.workers, {});
    for (auto& rounds : s.per_worker_round) rounds.resize(w.serve_rounds);
    const size_t per_round = w.round_chunk * w.workers;
    for (size_t i = 0; i < s.serve.size(); ++i) {
      const uint32_t worker = static_cast<uint32_t>(
          MixHash64(s.serve[i].x, kWorkerSplitSeed) % w.workers);
      s.per_worker_round[worker][i / per_round].push_back(s.serve[i]);
    }
  }
  return s;
}

/// f2_uniform_ingest: set up, ingest the fixed stream, final blocking query,
/// ladder, timed blocking queries, then serve rounds through a reducer of the
/// trial's own.
void IngestTrial(RunContext& rc, const Streams& streams,
                 std::map<std::string, uint64_t>* service_counts,
                 std::unique_ptr<DriverSut>* keep) {
  RunSamples& rs = rc.samples;
  std::unique_ptr<DriverSut> sut = SetUpDriverSut(rc);
  Driver& driver = *sut->driver;

  const int64_t t0 = NowNs();
  WriteAll(rc, *sut, streams.ingest, 0, kMainPhase);
  Drain(rc, *sut, kMainPhase);
  Result<QueryAnswer> final_answer = Status::Unavailable("not attempted");
  {
    Tracer::Span span(rc.tracer, "driver.query");
    final_answer = driver.Query(rc.ladder.back(), QueryOptions{});
  }
  const int64_t t1 = NowNs();

  const double ingest_s = static_cast<double>(t1 - t0) * 1e-9;
  rs.ingest_tps.push_back(static_cast<double>(streams.ingest.size()) /
                          ingest_s);
  (rc.tracer.on() ? rs.work_traced_s : rs.work_plain_s).push_back(ingest_s);
  rc.tally.Op(final_answer.ok(), "final blocking query failed");
  uint64_t driver_queries = 1;

  // The final state: its size, and the blocking ladder checked against the
  // oracle over the ingest stream.
  {
    auto root = driver.Summarize();
    std::string blob;
    const bool ok = root.ok() && root.value()->Serialize(&blob).ok();
    rc.tally.Op(ok, "final summary did not serialize");
    rs.state_bytes.push_back(static_cast<double>(blob.size()));
  }
  for (uint64_t c : rc.ladder) {
    Result<QueryAnswer> a = Status::Unavailable("not attempted");
    {
      Tracer::Span span(rc.tracer, "driver.query");
      a = driver.Query(c, QueryOptions{});
    }
    ++driver_queries;
    rc.tally.Op(a.ok(), "ladder query failed");
    if (a.ok()) {
      rc.checks.push_back(
          PendingCheck{0, c, a.value().estimate, "ingest ladder"});
    }
  }
  // The query latency: blocking queries on the final state at a walk of
  // cutoffs.
  bench::CutoffWalk walk;
  for (int q = 0; q < rc.w.timed_queries; ++q) {
    const int64_t q0 = NowNs();
    Result<QueryAnswer> a = Status::Unavailable("not attempted");
    {
      Tracer::Span span(rc.tracer, "driver.query");
      a = driver.Query(walk.Next(kYMax + 1), QueryOptions{});
    }
    rs.query_us.back().push_back(static_cast<double>(NowNs() - q0) * 1e-3);
    ++driver_queries;
    rc.tally.Op(a.ok(), "blocking query failed");
  }
  rs.layers.driver_queries += driver_queries;

  CountDriver(rc, *sut);

  // Serve rounds on a fresh driver of the same configuration, through a
  // reducer of its own: the publish path at the same blob sizes as
  // f2_served, not at the size of the whole ingest stream's summary. On one
  // CPU, as in f2_served.
  sut.reset();
  PinToOneCpu pin;
  if (!pin.pinned()) ++rc.samples.unpinned_trials;
  sut = std::make_unique<DriverSut>(rc.w, rc.so);
  auto started = StartReducer(rc);
  rc.tally.Op(started.ok(), "reducer start: " + started.status().ToString());
  if (started.ok()) {
    std::unique_ptr<service::SnapshotReducer> reducer =
        std::move(started).value();
    auto publisher = std::make_unique<service::ShardPublisher>(
        PublisherOptionsFor(reducer->port(), 0));
    std::vector<ServedWorker> workers{{sut.get(), publisher.get(), 0}};
    uint64_t served_handed = 0, tuples = 0;
    for (int r = 0; r < rc.w.serve_rounds; ++r) {
      const std::span<const Tuple> chunk(
          streams.serve.data() + static_cast<size_t>(r) * rc.w.round_chunk,
          rc.w.round_chunk);
      ServeRound(rc, workers, {chunk}, *reducer, r, &served_handed, &tuples);
    }
    CheckServedLadder(rc, reducer->port(), 1, "served ladder");
    CountReconnects(rc, *publisher);
    publisher.reset();
    CountReducer(rc, *reducer, service_counts);
  }
  *keep = std::move(sut);
}

/// f2_served: reducer + workers + first answered query as the set-up, then
/// closed-loop serve rounds.
void ServedTrial(RunContext& rc, const Streams& streams,
                 std::map<std::string, uint64_t>* service_counts,
                 std::vector<std::unique_ptr<DriverSut>>* keep) {
  RunSamples& rs = rc.samples;
  const WorkloadSpec& w = rc.w;
  PinToOneCpu pin;  // the whole served system on one CPU
  if (!pin.pinned()) ++rs.unpinned_trials;
  std::unique_ptr<service::SnapshotReducer> reducer;
  std::vector<std::unique_ptr<DriverSut>> suts;
  std::vector<std::unique_ptr<service::ShardPublisher>> publishers;
  for (int i = 0; i < kSetupsPerTrial; ++i) {
    publishers.clear();
    suts.clear();
    if (reducer) {
      CountReducer(rc, *reducer, service_counts);
      reducer.reset();
    }
    const int64_t t0 = NowNs();
    bool ok = true;
    {
      Tracer::Span span(rc.tracer, "service.setup");
      auto started = StartReducer(rc);
      ok = started.ok();
      if (ok) {
        reducer = std::move(started).value();
        for (uint32_t k = 0; k < w.workers; ++k) {
          suts.push_back(std::make_unique<DriverSut>(w, rc.so));
          publishers.push_back(std::make_unique<service::ShardPublisher>(
              PublisherOptionsFor(reducer->port(), k)));
        }
        auto first = service::QueryServed("127.0.0.1", reducer->port(),
                                          kYMax, kServedTimeout);
        ok = first.ok() && first.value().status.ok();
      }
    }
    rs.setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    rc.tally.Op(ok, "served set-up failed");
    if (!ok) return;
  }

  std::vector<ServedWorker> workers;
  for (uint32_t k = 0; k < w.workers; ++k) {
    workers.push_back({suts[k].get(), publishers[k].get(), k});
  }
  std::vector<uint64_t> handed(w.workers, 0);
  uint64_t tuples = 0;
  double work_ns = 0;
  for (int r = 0; r < w.serve_rounds; ++r) {
    std::vector<std::span<const Tuple>> chunks;
    for (uint32_t k = 0; k < w.workers; ++k) {
      chunks.emplace_back(streams.per_worker_round[k][r]);
    }
    work_ns +=
        ServeRound(rc, workers, chunks, *reducer, r, handed.data(), &tuples);
  }
  rs.ingest_tps.push_back(static_cast<double>(tuples) / (work_ns * 1e-9));
  (rc.tracer.on() ? rs.work_traced_s : rs.work_plain_s)
      .push_back(work_ns * 1e-9);
  uint64_t round_bytes = 0;
  for (const service::SlotStats& slot : reducer->Stats().slots) {
    round_bytes += slot.bytes;
  }
  rs.state_bytes.push_back(static_cast<double>(round_bytes));
  CheckServedLadder(rc, reducer->port(), 1, "served ladder");
  for (auto& p : publishers) CountReconnects(rc, *p);
  for (auto& s : suts) CountDriver(rc, *s);
  publishers.clear();
  CountReducer(rc, *reducer, service_counts);
  reducer.reset();
  *keep = std::move(suts);
}

// ---------------------------------------------------------------------------
// Per-layer replay of the core layer (traced runs): each shard's sub-stream
// on one thread.
// ---------------------------------------------------------------------------

/// Returns the merged summary's SizeBytes.
size_t ReplayCore(RunContext& rc,
                  const std::vector<std::vector<Tuple>>& shard_streams) {
  const size_t batch = DriverOptionsFor(rc.w).batch_size;
  std::vector<AnySummary> shards;
  for (const auto& stream : shard_streams) {
    AnySummary s = MakeSummary(kKind, rc.so, kSummarySeed).value();
    {
      Tracer::Span span(rc.tracer, "core.insert_batch");
      for (size_t i = 0; i < stream.size(); i += batch) {
        s.InsertBatch(std::span<const Tuple>(
            stream.data() + i, std::min(batch, stream.size() - i)));
      }
    }
    AnySummary one = MakeSummary(kKind, rc.so, kSummarySeed).value();
    {
      Tracer::Span span(rc.tracer, "core.insert_one");
      for (const Tuple& t : stream) one.Insert(t.x, t.y);
    }
    {
      Tracer::Span span(rc.tracer, "core.clone");
      AnySummary copy = s.Clone();
      (void)copy;
    }
    shards.push_back(std::move(s));
  }
  AnySummary merged = MakeSummary(kKind, rc.so, kSummarySeed).value();
  for (const AnySummary& s : shards) {
    Tracer::Span span(rc.tracer, "core.merge");
    rc.tally.Op(merged.MergeFrom(s).ok(), "replay merge failed");
  }
  for (uint64_t c : rc.ladder) {
    Tracer::Span span(rc.tracer, "core.query");
    rc.tally.Op(merged.Query(c).ok(), "replay query failed");
  }
  return merged.SizeBytes();
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

bool WithinEps(double estimate, double exact, double eps) {
  if (!std::isfinite(estimate)) return false;
  if (exact == 0) return estimate == 0;
  return std::abs(estimate - exact) <= eps * exact;
}

int Usage() {
  std::fprintf(stderr,
               "usage: castream_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, trace_out;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") workload_name = v;
    else if (flag == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") trace = std::atoi(v);
    else if (flag == "--trace-out") trace_out = v;
    else return Usage();
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload_name == w.name) spec = &w;
  }
  if (spec == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  const WorkloadSpec& w = *spec;

#ifndef NDEBUG
  std::fprintf(stderr,
               "castream_perfbench: refusing to report numbers from a build "
               "with assertions on (build type %s); build Release\n",
               CASTREAM_PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  if (std::string(CASTREAM_PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "castream_perfbench: refusing to report numbers from a %s "
                 "build; build Release\n",
                 CASTREAM_PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const unsigned nproc = std::thread::hardware_concurrency();
  if (w.runnable_threads > static_cast<int>(nproc) ||
      w.connections > static_cast<int>(nproc)) {
    std::fprintf(stderr,
                 "castream_perfbench: %s needs %d runnable threads and %d "
                 "connections; this machine has %u CPUs\n",
                 w.name, w.runnable_threads, w.connections, nproc);
    return 3;
  }

  Tracer tracer;
  Tally tally;
  RunSamples samples;
  std::vector<PendingCheck> checks;
  // The first kWarmupTrials trials are not sampled; trial 0 gives
  // peak_rss_mb.
  RunSamples warmup;
  RunContext warm_rc{w, MakeSummaryOptions(), tracer, tally, warmup, checks};
  RunContext rc{w, MakeSummaryOptions(), tracer, tally, samples, checks};

  // Inputs first, outside every timed region.
  const Streams streams = MakeStreams(w, seed);
  const double rss_base_kb = ProcStatusKb("VmRSS");
  const bool peak_reset = ResetPeakRss();
  double peak_rss_mb = 0;

  std::map<std::string, uint64_t> service_counts;

  std::unique_ptr<DriverSut> last_sut;
  std::vector<std::unique_ptr<DriverSut>> last_served;
  const int64_t run_start = NowNs();
  const int min_trials = trace == 1 ? 4 : kMinTrials;
  for (int trial = 0; trial < kWarmupTrials || samples.trials < min_trials ||
                      static_cast<double>(NowNs() - run_start) * 1e-9 <
                          seconds;
       ++trial) {
    // Traced runs alternate traced and plain trials; the gap between the two
    // is the tracing overhead.
    const bool warm = trial < kWarmupTrials;
    const bool traced = trace == 1 && !warm && trial % 2 == 0;
    RunContext& trc = warm ? warm_rc : rc;
    last_sut.reset();
    last_served.clear();
    trc.samples.query_us.emplace_back();
    trc.samples.publish_ms.emplace_back();
    tracer.set_on(traced);
    if (w.shape == Shape::kF2Served) {
      ServedTrial(trc, streams, &service_counts, &last_served);
    } else {
      IngestTrial(trc, streams, &service_counts, &last_sut);
    }
    tracer.set_on(false);
    if (trial == 0) {
      // Peak RSS of the system under test: the first trial's high-water
      // mark over the RSS after stream generation, read before any exact
      // oracle exists.
      const double peak_kb =
          peak_reset ? ProcStatusKb("VmHWM") : ProcStatusKb("VmRSS");
      peak_rss_mb = (peak_kb - rss_base_kb) / 1024.0;
    }
    if (warm) continue;
    ++samples.trials;
    if (traced) ++samples.traced_trials;
  }
  const double run_s = static_cast<double>(NowNs() - run_start) * 1e-9;

  // Core-layer replay (traced runs only), on the last trial's partition.
  std::map<std::string, double> self_ns;
  std::map<std::string, uint64_t> span_count;
  double core_size_bytes = 0;
  if (trace == 1) {
    tracer.set_on(true);
    std::vector<std::vector<Tuple>> shard_streams;
    if (w.shape == Shape::kF2Served) {
      for (const auto& rounds : streams.per_worker_round) {
        shard_streams.emplace_back();
        for (const auto& chunk : rounds) {
          shard_streams.back().insert(shard_streams.back().end(),
                                      chunk.begin(), chunk.end());
        }
      }
    } else {
      shard_streams.resize(w.shards);
      for (const Tuple& t : streams.ingest) {
        shard_streams[last_sut->driver->ShardOf(t.x)].push_back(t);
      }
    }
    core_size_bytes = static_cast<double>(ReplayCore(rc, shard_streams));
    tracer.set_on(false);
    tracer.SelfTimes(&self_ns, &span_count);
  }
  last_sut.reset();
  last_served.clear();

  // Exact oracles and the eps check, outside every timed region.
  {
    ExactCorrelatedAggregate ingest(AggregateKind::kF2),
        serve(AggregateKind::kF2);
    for (const Tuple& t : streams.ingest) ingest.Insert(t.x, t.y);
    for (const Tuple& t : streams.serve) serve.Insert(t.x, t.y);
    const ExactCorrelatedAggregate* oracles[] = {&ingest, &serve};
    std::map<std::pair<int, uint64_t>, double> exact;
    for (const PendingCheck& c : checks) {
      auto key = std::make_pair(c.oracle, c.cutoff);
      if (!exact.count(key)) exact[key] = oracles[c.oracle]->Query(c.cutoff);
      const double e = exact[key];
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s: c=%llu estimate %.6g exact %.6g",
                    c.what.c_str(), static_cast<unsigned long long>(c.cutoff),
                    c.estimate, e);
      tally.Op(WithinEps(c.estimate, e, rc.so.eps), buf);
    }
  }

  // Metrics.
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = {
        {"setup_s", Median(samples.setup_s), "s"},
        {"ingest_tps", Median(samples.ingest_tps), "1/s"},
        {"query_p50_us", MeanTrialQuantile(samples.query_us, 0.50), "us"},
        {"query_p99_us", PooledQuantile(samples.query_us, 0.99), "us"},
        {"publish_p50_ms", MeanTrialQuantile(samples.publish_ms, 0.50), "ms"},
        {"publish_p95_ms", PooledQuantile(samples.publish_ms, 0.95), "ms"},
        {"state_bytes", Median(samples.state_bytes), "bytes"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    const LayerCounters& lc = samples.layers;
    const double traced = std::max(1, samples.traced_trials);
    auto self_s = [&](const char* name) { return self_ns[name] * 1e-9; };
    auto mean_of = [&](const char* name) {
      return span_count[name] ? self_ns[name] / span_count[name] : 0.0;
    };
    auto mean = [](const std::vector<double>& v) {
      double s = 0;
      for (double x : v) s += x;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    // The core replay covers the ingest stream, or f2_served's rounds.
    const double replay_tuples = static_cast<double>(
        w.shape == Shape::kF2Served ? streams.serve.size()
                                    : streams.ingest.size());
    const double trials = std::max(1, samples.trials);
    metrics = {
        {"driver.writer_busy_s", self_s("driver.writer_insert") / traced, "s"},
        {"driver.backlog_max_tuples", static_cast<double>(lc.backlog_max),
         "tuples"},
        {"driver.drain_s", self_s("driver.drain") / traced, "s"},
        {"driver.coalesce_ratio",
         lc.coalesce_out ? static_cast<double>(lc.coalesce_in) /
                               static_cast<double>(lc.coalesce_out)
                         : 1.0,
         "ratio"},
        {"driver.coalesce_evictions",
         static_cast<double>(lc.coalesce_evictions) / trials, "count"},
        {"driver.snapshot_publishes",
         static_cast<double>(lc.snapshot_publishes) / trials, "count"},
        {"driver.merges_per_query",
         lc.driver_queries ? static_cast<double>(lc.driver_merges) /
                                 static_cast<double>(lc.driver_queries)
                           : 0.0,
         "count"},
        {"core.insert_ns_per_tuple",
         self_ns["core.insert_batch"] / replay_tuples,
         "ns"},
        {"core.insert_one_ns_per_tuple",
         self_ns["core.insert_one"] / replay_tuples,
         "ns"},
        {"core.clone_ms", mean_of("core.clone") * 1e-6, "ms"},
        {"core.merge_ms", mean_of("core.merge") * 1e-6, "ms"},
        {"core.probe_merge_ms", mean_of("core.probe_merge") * 1e-6, "ms"},
        {"core.query_us", mean_of("core.query") * 1e-3, "us"},
        {"core.size_bytes", core_size_bytes, "bytes"},
        {"io.serialize_ms", mean_of("io.serialize") * 1e-6, "ms"},
        {"io.deserialize_ms", mean_of("io.deserialize") * 1e-6, "ms"},
        {"io.blob_bytes", mean(lc.blob_bytes), "bytes"},
        {"service.publish_residual_ms", mean(lc.publish_residual_ns) * 1e-6,
         "ms"},
        {"service.answer_remerge_us", mean(lc.answer_remerge_ns) * 1e-3, "us"},
        {"service.answer_cached_us", mean(lc.answer_cached_ns) * 1e-3, "us"},
        {"service.query_residual_us", mean(lc.query_residual_ns) * 1e-3, "us"},
        {"service.accepted", static_cast<double>(service_counts["accepted"]),
         "count"},
        {"service.duplicate", static_cast<double>(service_counts["duplicate"]),
         "count"},
        {"service.rejected", static_cast<double>(service_counts["rejected"]),
         "count"},
        {"service.bad_frames",
         static_cast<double>(service_counts["bad_frames"]), "count"},
        {"service.reconnects", static_cast<double>(lc.reconnects), "count"},
        {"trace.overhead_ratio",
         Median(samples.work_plain_s) > 0
             ? Median(samples.work_traced_s) / Median(samples.work_plain_s)
             : 0.0,
         "ratio"},
    };
    if (!trace_out.empty() && !tracer.WriteJsonLines(trace_out)) {
      std::fprintf(stderr, "castream_perfbench: cannot write %s\n",
                   trace_out.c_str());
      return 1;
    }
  }

  std::ostringstream out;
  out << "{\"workload\":\"" << w.name << "\",\"seed\":" << seed
      << ",\"trace\":" << trace << ",\"correct\":"
      << (tally.failed == 0 ? "true" : "false")
      << ",\"attempted\":" << tally.attempted << ",\"failed\":" << tally.failed
      << ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? "," : "") << "\"" << metrics[i].name << "\":{\"value\":"
        << Num(metrics[i].value) << ",\"unit\":\"" << metrics[i].unit << "\"}";
  }
  out << "},\"context\":{\"nproc\":" << nproc << ",\"compiler\":\""
      << JsonEscape(kCompiler) << "\",\"build_type\":\""
      << CASTREAM_PERFBENCH_BUILD_TYPE << "\",\"seed\":" << seed
      << ",\"runnable_threads\":" << w.runnable_threads
      << ",\"connections\":" << w.connections << ",\"shards_per_driver\":"
      << w.shards << ",\"drivers\":" << w.workers << ",\"trials\":"
      << samples.trials << ",\"traced_trials\":" << samples.traced_trials
      << ",\"unpinned_trials\":" << samples.unpinned_trials
      << ",\"run_s\":" << Num(run_s) << ",\"peak_rss_source\":\""
      << (peak_reset ? "VmHWM" : "VmRSS after the first trial") << "\"}"
      << ",\"samples\":{\"setup\":" << samples.setup_s.size()
      << ",\"ingest\":" << samples.ingest_tps.size()
      << ",\"query\":" << Count(samples.query_us)
      << ",\"publish\":" << Count(samples.publish_ms)
      << ",\"query_p99_block_median_us\":"
      << Num(BlockQuantile(samples.query_us, 0.99))
      << ",\"publish_p95_block_median_ms\":"
      << Num(BlockQuantile(samples.publish_ms, 0.95))
      << ",\"spans\":" << tracer.size() << "},\"errors\":[";
  for (size_t i = 0; i < tally.errors.size(); ++i) {
    out << (i ? "," : "") << "\"" << JsonEscape(tally.errors[i]) << "\"";
  }
  out << "]}\n";
  std::fputs(out.str().c_str(), stdout);
  return 0;
}
