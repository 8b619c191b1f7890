// castream_served — the continuous aggregation service, end to end.
//
// Where castream_shardctl ships blobs through *files* in one batch round,
// this binary keeps the pipeline running: worker processes ingest their
// partition of the stream and publish epoch-tagged shard snapshots over
// TCP on a cadence, an always-on reducer process folds them into its
// snapshot table, and query clients get merged answers at any moment —
// each answer carrying the epoch vector it was computed from (the
// staleness bound).
//
//   castream_served reduce --kind f2 --port-file /tmp/port &
//   castream_served worker --kind f2 --workers 2 --worker 0 --port $PORT
//   castream_served worker --kind f2 --workers 2 --worker 1 --port $PORT
//   castream_served query  --port $PORT            # at any time
//   castream_served oracle --kind f2 --workers 2   # ground truth
//
// The demo stream is deterministic from --stream-seed, and the reducer
// folds its (worker, shard) table, in key order, through the
// deterministic MergeCache engine, so `oracle` — the same split, serial
// ingest, and the same merge-tree fold done in one process with no
// wire — must print the *identical* cutoff ladder (bit-for-bit, %.17g)
// once every worker's final snapshots have landed. ci/served_demo.sh
// drives exactly that, plus the failure drills: killed and restarted
// workers (session tags make re-publishes replace the dead incarnation),
// a killed and restarted reducer (publishers reconnect with backoff and
// re-offer everything; idempotence makes the overlap free), and garbage
// bytes on the socket (the checked decoder rejects; serving continues).
//
// The worker split is by x-hash under kWorkerSplitSeed — deliberately a
// different seed than the ShardedDriver's in-process shard split, so the
// two partition layers are decorrelated (a worker's shards each see a
// uniform slice of the worker's x-values, not a degenerate subset).
#include <csignal>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/any_summary.h"
#include "src/driver/sharded_driver.h"
#include "src/hash/hash_family.h"
#include "src/io/decoder.h"
#include "src/service/client.h"
#include "src/service/publisher.h"
#include "src/service/reducer.h"
#include "src/service/relay.h"
#include "src/stream/generators.h"
#include "src/stream/types.h"

namespace {

using namespace castream;

// Worker-level split of the logical stream. Must differ from
// ShardedDriverOptions::shard_seed (the within-worker split) so the two
// hash partitions are independent.
constexpr uint64_t kWorkerSplitSeed = 0x9e3779b97f4a7c15ULL;

struct Args {
  std::string mode;
  std::string kind = "f2";
  uint32_t workers = 2;
  uint32_t worker = 0;
  uint32_t driver_shards = 2;
  uint64_t summary_seed = 42;
  uint64_t stream_seed = 7;
  uint64_t count = 60000;
  uint64_t x_domain = 2000;
  uint64_t y_max = 65535;
  uint64_t publish_every = 5000;  // tuples between publish ticks
  uint64_t throttle_us = 0;       // optional ingest slowdown per tick
  uint16_t port = 0;
  std::string port_file;
  bool log = false;
  // relay mode: --port is the parent's port; these are the relay's own.
  uint32_t relay_id = 0;
  uint16_t listen_port = 0;
  uint64_t poll_ms = 50;
  uint64_t min_republish_ms = 0;
  // oracle mode: optional "child>parent,..." spec for the tier-grouped
  // fold (the reducer-tree ground truth); empty keeps the flat fold.
  std::string topology;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  castream_served reduce --kind K [--port P] [--port-file F] [--log]\n"
      "                         [--seed S] [config flags]\n"
      "  castream_served worker --kind K --workers N --worker I --port P\n"
      "                         [--driver-shards S] [--publish-every T]\n"
      "                         [--throttle-us U] [stream flags]\n"
      "  castream_served query  --port P [--y-max Y]\n"
      "  castream_served relay  --kind K --port PARENT --relay-id I\n"
      "                         [--listen-port L] [--port-file F]\n"
      "                         [--poll-ms M] [--min-republish-ms R]\n"
      "                         [--log] [--seed S] [config flags]\n"
      "  castream_served oracle --kind K --workers N [--driver-shards S]\n"
      "                         [--topology 'c>p,...'] [stream flags]\n"
      "kinds: %s\n"
      "All processes of one run must agree on --kind, --seed, and the\n"
      "stream flags; `oracle` then prints the exact ladder `query` must\n"
      "show once the workers' final snapshots have landed. With\n"
      "--topology the oracle replays the reducer tree's tier-grouped\n"
      "fold instead of the flat one; reduce and relay dump their table\n"
      "on SIGUSR1.\n",
      SummaryRegistry::KindNamesForDisplay(" | ").c_str());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&](uint64_t* out) {
      if (i + 1 >= argc) return false;
      *out = std::strtoull(argv[++i], nullptr, 10);
      return true;
    };
    uint64_t v = 0;
    if (flag == "--log") {
      args->log = true;
    } else if (flag == "--kind" && i + 1 < argc) {
      args->kind = argv[++i];
    } else if (flag == "--port-file" && i + 1 < argc) {
      args->port_file = argv[++i];
    } else if (flag == "--port") {
      if (!next(&v) || v > 65535) return false;
      args->port = static_cast<uint16_t>(v);
    } else if (flag == "--workers") {
      if (!next(&v) || v == 0) return false;
      args->workers = static_cast<uint32_t>(v);
    } else if (flag == "--worker") {
      if (!next(&v)) return false;
      args->worker = static_cast<uint32_t>(v);
    } else if (flag == "--driver-shards") {
      if (!next(&v) || v == 0) return false;
      args->driver_shards = static_cast<uint32_t>(v);
    } else if (flag == "--seed") {
      if (!next(&args->summary_seed)) return false;
    } else if (flag == "--stream-seed") {
      if (!next(&args->stream_seed)) return false;
    } else if (flag == "--count") {
      if (!next(&args->count)) return false;
    } else if (flag == "--x-domain") {
      if (!next(&args->x_domain)) return false;
    } else if (flag == "--y-max") {
      if (!next(&args->y_max)) return false;
    } else if (flag == "--publish-every") {
      if (!next(&args->publish_every) || args->publish_every == 0)
        return false;
    } else if (flag == "--throttle-us") {
      if (!next(&args->throttle_us)) return false;
    } else if (flag == "--relay-id") {
      if (!next(&v)) return false;
      args->relay_id = static_cast<uint32_t>(v);
    } else if (flag == "--listen-port") {
      if (!next(&v) || v > 65535) return false;
      args->listen_port = static_cast<uint16_t>(v);
    } else if (flag == "--poll-ms") {
      if (!next(&args->poll_ms) || args->poll_ms == 0) return false;
    } else if (flag == "--min-republish-ms") {
      if (!next(&args->min_republish_ms)) return false;
    } else if (flag == "--topology" && i + 1 < argc) {
      args->topology = argv[++i];
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

// Identical to castream_shardctl's configuration: one family of runs.
SummaryOptions OptionsFor(const Args& args) {
  SummaryOptions opts;
  opts.eps = 0.25;
  opts.delta = 0.1;
  opts.y_max = args.y_max;
  opts.f_max_hint = 1e9;
  opts.x_domain = args.x_domain;
  opts.phi_eps = 0.05;
  return opts;
}

uint32_t WorkerOf(uint64_t x, uint32_t workers) {
  return static_cast<uint32_t>(MixHash64(x, kWorkerSplitSeed) % workers);
}

std::vector<uint64_t> CutoffLadder(uint64_t y_max) {
  std::vector<uint64_t> cutoffs{0, 1};
  for (uint64_t c = 2; c < y_max; c *= 4) cutoffs.push_back(c - 1);
  cutoffs.push_back(y_max / 2);
  cutoffs.push_back(y_max);
  return cutoffs;
}

// The ladder line format shared by `query` and `oracle`: %.17g
// round-trips doubles exactly, so a textual diff of the two outputs IS
// the bit-for-bit check.
void PrintLadderLine(uint64_t cutoff, const Result<double>& q) {
  if (q.ok()) {
    std::printf("cutoff %10" PRIu64 "  estimate %.17g\n", cutoff, q.value());
  } else {
    std::printf("cutoff %10" PRIu64 "  %s\n", cutoff,
                q.status().ToString().c_str());
  }
}

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

volatile std::sig_atomic_t g_stats = 0;
void OnStatsSignal(int) { g_stats = 1; }

// Dump the reducer's table to stderr (stdout stays ladder-only for the
// oracle diff). Called from the serve loop when SIGUSR1 set the flag —
// the handler itself only flips a sig_atomic_t.
void PrintStats(const char* who, service::SnapshotReducer& reducer) {
  const service::ReducerStats st = reducer.Stats();
  std::fprintf(stderr,
               "%s stats: version=%" PRIu64 " slots=%zu accepted=%" PRIu64
               " duplicate=%" PRIu64 " rejected=%" PRIu64 " bad_frames=%"
               PRIu64 " queries=%" PRIu64 "\n",
               who, st.table_version, st.slots.size(), st.accepted,
               st.duplicate, st.rejected, st.bad_frames, st.queries);
  for (const service::SlotStats& s : st.slots) {
    std::fprintf(stderr,
                 "  slot %u/%u session=%" PRIu64 " epoch=%" PRIu64
                 " pub_seq=%" PRIu64 " bytes=%" PRIu64 " downstream=%" PRIu64
                 "\n",
                 s.worker, s.shard, s.session, s.epoch, s.pub_seq, s.bytes,
                 s.downstream_entries);
  }
}

// Write-then-rename so a reader polling for the file never sees a
// partially-written port number.
bool WritePortFile(const std::string& path, uint16_t port) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << port << "\n";
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "cannot move %s into place\n", tmp.c_str());
    return false;
  }
  return true;
}

int RunReduce(const Args& args) {
  service::ReducerOptions ropts;
  ropts.kind = args.kind;
  ropts.summary = OptionsFor(args);
  ropts.summary_seed = args.summary_seed;
  ropts.port = args.port;
  ropts.log = args.log;
  auto started = service::SnapshotReducer::Start(ropts);
  if (!started.ok()) {
    std::fprintf(stderr, "reduce: %s\n", started.status().ToString().c_str());
    return 1;
  }
  auto reducer = std::move(started).value();
  std::printf("reducer serving kind %s on 127.0.0.1:%u\n", args.kind.c_str(),
              reducer->port());
  std::fflush(stdout);
  if (!args.port_file.empty() &&
      !WritePortFile(args.port_file, reducer->port())) {
    return 1;
  }
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGUSR1, OnStatsSignal);
  while (!g_stop) {
    if (g_stats) {
      g_stats = 0;
      PrintStats("reducer", *reducer);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  reducer->Shutdown();  // graceful: drains in-flight frames, then joins
  std::printf("reducer drained: accepted %" PRIu64 ", duplicate %" PRIu64
              ", rejected %" PRIu64 ", bad frames %" PRIu64 ", queries %"
              PRIu64 "\n",
              reducer->publishes_accepted(), reducer->publishes_duplicate(),
              reducer->publishes_rejected(), reducer->frames_bad(),
              reducer->queries_served());
  return 0;
}

// A mid-tier node: reducer facing downstream (serving publishes AND
// queries on its own port), republish loop facing the parent at --port.
// SIGTERM is the drain: downstream connections finish, then the final
// merged table is flushed upstream — must succeed, since after this
// process exits nothing else holds its subtree's data.
int RunRelay(const Args& args) {
  if (args.port == 0) {
    Usage();
    return 2;
  }
  service::RelayOptions ropts;
  ropts.reducer.kind = args.kind;
  ropts.reducer.summary = OptionsFor(args);
  ropts.reducer.summary_seed = args.summary_seed;
  ropts.reducer.port = args.listen_port;
  ropts.reducer.log = args.log;
  ropts.upstream.port = args.port;
  ropts.upstream.worker_id = args.relay_id;
  // The republish loop retries every poll tick anyway; keep one offer's
  // stall short so a parent restart never wedges the downstream face.
  ropts.upstream.connect_attempts = 4;
  ropts.poll_interval = std::chrono::milliseconds(args.poll_ms);
  ropts.min_republish_interval =
      std::chrono::milliseconds(args.min_republish_ms);
  auto started = service::RelayNode::Start(ropts);
  if (!started.ok()) {
    std::fprintf(stderr, "relay: %s\n", started.status().ToString().c_str());
    return 1;
  }
  auto relay = std::move(started).value();
  std::printf("relay %u serving kind %s on 127.0.0.1:%u, upstream %u\n",
              args.relay_id, args.kind.c_str(), relay->port(), args.port);
  std::fflush(stdout);
  if (!args.port_file.empty() &&
      !WritePortFile(args.port_file, relay->port())) {
    return 1;
  }
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);
  std::signal(SIGUSR1, OnStatsSignal);
  while (!g_stop) {
    if (g_stats) {
      g_stats = 0;
      PrintStats("relay", relay->reducer());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  Status flushed = relay->Shutdown();
  if (!flushed.ok()) {
    std::fprintf(stderr, "relay %u: final upstream flush failed: %s\n",
                 args.relay_id, flushed.ToString().c_str());
    return 1;
  }
  std::printf("relay %u drained: accepted %" PRIu64 ", republished %" PRIu64
              " (pub_seq %" PRIu64 "), queries %" PRIu64 "\n",
              args.relay_id, relay->reducer().publishes_accepted(),
              relay->republishes(), relay->pub_seq(),
              relay->reducer().queries_served());
  return 0;
}

int RunWorker(const Args& args) {
  if (args.worker >= args.workers || args.port == 0) {
    Usage();
    return 2;
  }
  if (auto probe =
          MakeSummary(args.kind, OptionsFor(args), args.summary_seed);
      !probe.ok()) {
    std::fprintf(stderr, "worker: %s\n", probe.status().ToString().c_str());
    return 1;
  }
  ShardedDriverOptions dopts;
  dopts.shards = args.driver_shards;
  dopts.batch_size = 512;
  ShardedDriver<AnySummary> driver(dopts, [&args] {
    auto summary = MakeSummary(args.kind, OptionsFor(args), args.summary_seed);
    return std::move(summary).value();
  });

  service::PublisherOptions popts;
  popts.port = args.port;
  popts.worker_id = args.worker;
  // Mid-stream publish ticks should fail fast when the reducer is down
  // (ingest keeps going; the next tick retries); the backoff curve below
  // caps one tick's stall at ~3 seconds.
  popts.connect_attempts = 6;
  service::ShardPublisher publisher(popts);

  UniformGenerator gen(args.x_domain, args.y_max, args.stream_seed);
  uint64_t taken = 0;
  uint64_t since_publish = 0;
  uint64_t published_ticks = 0;
  uint64_t failed_ticks = 0;
  for (uint64_t i = 0; i < args.count; ++i) {
    const Tuple t = gen.Next();
    if (WorkerOf(t.x, args.workers) != args.worker) continue;
    driver.Insert(t);
    ++taken;
    if (++since_publish >= args.publish_every) {
      since_publish = 0;
      driver.Flush();
      driver.PublishSnapshots();
      Status st = service::PublishFreshSnapshots(publisher, driver,
                                                 /*rounds=*/2);
      if (st.ok()) {
        ++published_ticks;
      } else if (st.code() == Status::Code::kUnavailable) {
        // Reducer down or restarting: keep ingesting, retry next tick.
        ++failed_ticks;
        std::fprintf(stderr, "worker %u: publish tick deferred: %s\n",
                     args.worker, st.ToString().c_str());
      } else {
        std::fprintf(stderr, "worker %u: %s\n", args.worker,
                     st.ToString().c_str());
        return 1;
      }
      if (args.throttle_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(args.throttle_us));
      }
    }
  }

  // The final publish is the correctness edge: it must land completely on
  // one live reducer incarnation, surviving a reducer restart if one is in
  // progress — generous rounds, each with full backoff.
  driver.Flush();
  driver.PublishSnapshots();
  if (Status st = service::PublishFreshSnapshots(publisher, driver,
                                                 /*rounds=*/16);
      !st.ok()) {
    std::fprintf(stderr, "worker %u: final publish failed: %s\n", args.worker,
                 st.ToString().c_str());
    return 1;
  }
  std::printf("worker %u/%u: ingested %" PRIu64 " tuples, %" PRIu64
              " publish ticks (%" PRIu64 " deferred), session %" PRIu64
              ", final epochs complete\n",
              args.worker, args.workers, taken, published_ticks, failed_ticks,
              publisher.session());
  return 0;
}

int RunQuery(const Args& args) {
  if (args.port == 0) {
    Usage();
    return 2;
  }
  for (uint64_t c : CutoffLadder(args.y_max)) {
    auto reply = service::QueryServed("127.0.0.1", args.port, c);
    if (!reply.ok()) {
      std::fprintf(stderr, "query: transport: %s\n",
                   reply.status().ToString().c_str());
      return 1;
    }
    const service::ServedAnswer& answer = reply.value();
    if (answer.status.ok()) {
      PrintLadderLine(c, Result<double>(answer.estimate));
    } else {
      PrintLadderLine(c, Result<double>(answer.status));
    }
    // The staleness bound, kept off stdout so the oracle diff sees only
    // the ladder.
    std::fprintf(stderr, "epochs[");
    for (const service::EpochEntry& e : answer.epochs) {
      std::fprintf(stderr, " %u/%u@%" PRIu64, e.worker, e.shard, e.epoch);
    }
    std::fprintf(stderr, " ]\n");
  }
  return 0;
}

// Ground truth: the same (worker, shard) split, serial ingest in arrival
// order, and the same merge engine the reducer runs — everything the
// fleet does, in one process, with no wire. InsertBatch equals serial
// inserts exactly and the MergeCache fold is deterministic, so any
// textual deviation from `query` (after final publishes) is a service
// bug. Two details make the replay exact: the fold goes through
// MergeCache, the reducer's merge tree (tree shape affects
// bucket-closing timing, so a plain serial fold would not be
// bit-identical), and slots that received zero tuples are excluded — a
// worker never publishes an epoch-0 shard, so such slots have no table
// entry at the reducer and must not widen the oracle's tree either.
int RunOracle(const Args& args) {
  const size_t slots = size_t{args.workers} * args.driver_shards;
  const uint64_t driver_shard_seed = ShardedDriverOptions{}.shard_seed;
  std::vector<AnySummary> parts;
  parts.reserve(slots);
  for (size_t i = 0; i < slots; ++i) {
    auto made = MakeSummary(args.kind, OptionsFor(args), args.summary_seed);
    if (!made.ok()) {
      std::fprintf(stderr, "oracle: %s\n", made.status().ToString().c_str());
      return 1;
    }
    parts.push_back(std::move(made).value());
  }
  std::vector<std::vector<Tuple>> buffers(slots);
  for (auto& buf : buffers) buf.reserve(1024);
  std::vector<uint64_t> tuples_per_slot(slots, 0);
  UniformGenerator gen(args.x_domain, args.y_max, args.stream_seed);
  for (uint64_t i = 0; i < args.count; ++i) {
    const Tuple t = gen.Next();
    const uint32_t w = WorkerOf(t.x, args.workers);
    const uint32_t s = static_cast<uint32_t>(
        MixHash64(t.x, driver_shard_seed) % args.driver_shards);
    const size_t slot = size_t{w} * args.driver_shards + s;
    auto& buf = buffers[slot];
    buf.push_back(t);
    ++tuples_per_slot[slot];
    if (buf.size() == buf.capacity()) {
      parts[slot].InsertBatch(buf);
      buf.clear();
    }
  }
  for (size_t i = 0; i < slots; ++i) parts[i].InsertBatch(buffers[i]);

  auto factory = [&args] {
    return MakeSummary(args.kind, OptionsFor(args), args.summary_seed)
        .value();
  };
  std::vector<std::shared_ptr<const AnySummary>> part_ptrs;
  part_ptrs.reserve(slots);
  for (size_t i = 0; i < slots; ++i) {
    part_ptrs.push_back(
        std::make_shared<const AnySummary>(std::move(parts[i])));
  }

  std::shared_ptr<const AnySummary> merged_root;
  if (args.topology.empty()) {
    // Fold the published (nonempty) slots, in (worker, shard) key order,
    // through the reducer's engine.
    std::vector<std::shared_ptr<const AnySummary>> snaps;
    std::vector<uint64_t> seqs;
    for (size_t i = 0; i < slots; ++i) {
      if (tuples_per_slot[i] == 0) continue;
      snaps.push_back(part_ptrs[i]);
      seqs.push_back(seqs.size() + 1);
    }
    MergeCache<AnySummary> cache(factory);
    auto merged = cache.Merge(snaps, seqs);
    if (!merged.ok()) {
      std::fprintf(stderr, "oracle: merging %zu slots: %s\n", snaps.size(),
                   merged.status().ToString().c_str());
      return 1;
    }
    merged_root = merged.value();
  } else {
    // Tier-grouped fold: replay the reducer tree node by node. Each relay
    // folds its children's slots, in (worker, shard) key order, through a
    // fresh MergeCache, and hands its root upstream *through
    // serialization* — exactly the wire path — so the final ladder is the
    // bit-for-bit target for a query at the tree root.
    auto parsed = service::TopologyConfig::Parse(args.topology);
    if (!parsed.ok()) {
      std::fprintf(stderr, "oracle: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    const service::TopologyConfig topo = std::move(parsed).value();
    const std::vector<uint32_t> leaves = topo.Leaves();
    bool leaves_ok = leaves.size() == args.workers;
    for (size_t i = 0; leaves_ok && i < leaves.size(); ++i) {
      leaves_ok = leaves[i] == i;
    }
    if (!leaves_ok) {
      std::fprintf(stderr,
                   "oracle: topology leaves must be exactly workers "
                   "0..%u\n", args.workers - 1);
      return 1;
    }
    // Returns null for a subtree that ingested nothing: a relay with an
    // empty table never publishes, so its parent has no slot for it.
    std::function<Result<std::shared_ptr<const AnySummary>>(uint32_t)>
        fold_node = [&](uint32_t node)
        -> Result<std::shared_ptr<const AnySummary>> {
      std::vector<std::shared_ptr<const AnySummary>> snaps;
      std::vector<uint64_t> seqs;
      for (uint32_t child : topo.ChildrenOf(node)) {
        if (topo.IsLeaf(child)) {
          for (uint32_t s = 0; s < args.driver_shards; ++s) {
            const size_t slot = size_t{child} * args.driver_shards + s;
            if (tuples_per_slot[slot] == 0) continue;
            snaps.push_back(part_ptrs[slot]);
            seqs.push_back(seqs.size() + 1);
          }
        } else {
          CASTREAM_ASSIGN_OR_RETURN(std::shared_ptr<const AnySummary> sub,
                                    fold_node(child));
          if (sub == nullptr) continue;
          std::string blob;
          CASTREAM_RETURN_NOT_OK(sub->Serialize(&blob));
          CASTREAM_ASSIGN_OR_RETURN(
              AnySummary reloaded,
              AnySummary::Deserialize(io::BytesOf(blob)));
          snaps.push_back(
              std::make_shared<const AnySummary>(std::move(reloaded)));
          seqs.push_back(seqs.size() + 1);
        }
      }
      if (snaps.empty()) return std::shared_ptr<const AnySummary>();
      MergeCache<AnySummary> cache(factory);
      return cache.Merge(snaps, seqs);
    };
    auto folded = fold_node(topo.root());
    if (!folded.ok()) {
      std::fprintf(stderr, "oracle: topology fold: %s\n",
                   folded.status().ToString().c_str());
      return 1;
    }
    merged_root = folded.value();
    if (merged_root == nullptr) {
      // Nothing ever published anywhere: the root answers as a fresh
      // summary (the defined zero-stream state).
      merged_root = std::make_shared<const AnySummary>(factory());
    }
  }
  for (uint64_t c : CutoffLadder(args.y_max)) {
    PrintLadderLine(c, merged_root->Query(c));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (args.mode == "reduce") return RunReduce(args);
  if (args.mode == "relay") return RunRelay(args);
  if (args.mode == "worker") return RunWorker(args);
  if (args.mode == "query") return RunQuery(args);
  if (args.mode == "oracle") return RunOracle(args);
  Usage();
  return 2;
}
