// In-process integration tests of the continuous aggregation service:
// reducer + publisher + query client over real loopback sockets, pinned
// against the in-process driver oracle. The cross-process version of these
// checks lives in ci/served_demo.sh; here everything runs in one binary so
// the suite can assert on reducer counters and drive restarts precisely.
// Runs under the `concurrency` label: the reducer is thread-per-connection
// and the TSan job must see those paths.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/any_summary.h"
#include "src/driver/sharded_driver.h"
#include "src/io/decoder.h"
#include "src/net/frame.h"
#include "src/net/socket.h"
#include "src/service/client.h"
#include "src/service/protocol.h"
#include "src/service/publisher.h"
#include "src/service/reducer.h"
#include "src/service/relay.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::TestRng;

SummaryOptions ServiceOptions() {
  SummaryOptions opts;
  opts.eps = 0.25;
  opts.delta = 0.1;
  opts.y_max = 4095;
  opts.f_max_hint = 1e6;
  opts.x_domain = 512;
  opts.phi_eps = 0.1;
  return opts;
}

constexpr uint64_t kSeed = 42;

service::ReducerOptions ReducerOpts(const char* kind, uint16_t port = 0) {
  service::ReducerOptions ropts;
  ropts.kind = kind;
  ropts.summary = ServiceOptions();
  ropts.summary_seed = kSeed;
  ropts.port = port;
  return ropts;
}

std::vector<Tuple> DemoStream(size_t n, uint64_t rng_seed = 11) {
  Xoshiro256 rng = TestRng(rng_seed);
  std::vector<Tuple> stream;
  stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    stream.push_back(Tuple{rng.NextBounded(512), rng.NextBounded(4096)});
  }
  return stream;
}

std::unique_ptr<ShardedDriver<AnySummary>> MakeDriver(const char* kind,
                                                      uint32_t shards) {
  ShardedDriverOptions dopts;
  dopts.shards = shards;
  dopts.batch_size = 256;
  std::string kind_name = kind;
  return std::make_unique<ShardedDriver<AnySummary>>(
      dopts, [kind_name] {
        auto made = MakeSummary(kind_name, ServiceOptions(), kSeed);
        return std::move(made).value();
      });
}

service::PublisherOptions FastPublisher(uint16_t port, uint32_t worker = 0) {
  service::PublisherOptions popts;
  popts.port = port;
  popts.worker_id = worker;
  popts.initial_backoff = std::chrono::milliseconds(5);
  popts.max_backoff = std::chrono::milliseconds(100);
  return popts;
}

TEST(ServiceTest, PublishedAnswersEqualDriverOracleExactly) {
  for (const char* kind : {"f2", "f0", "rarity", "hh"}) {
    auto started = service::SnapshotReducer::Start(ReducerOpts(kind));
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    auto reducer = std::move(started).value();

    auto driver = MakeDriver(kind, /*shards=*/3);
    const auto stream = DemoStream(6000);
    driver->InsertBatch(stream);
    // Summarize flushes, publishes, and tree-merges the shard
    // snapshots; the reducer runs the same MergeCache engine over its
    // (worker, shard) table, which for one worker holds the same leaves in
    // the same order — identical tree shape, so equality must be
    // bit-for-bit.
    auto oracle = driver->Summarize();
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    service::ShardPublisher publisher(FastPublisher(reducer->port()));
    ASSERT_TRUE(
        service::PublishFreshSnapshots(publisher, *driver).ok());

    for (uint64_t cutoff : {uint64_t{0}, uint64_t{63}, uint64_t{2047},
                            uint64_t{4095}}) {
      auto reply =
          service::QueryServed("127.0.0.1", reducer->port(), cutoff);
      ASSERT_TRUE(reply.ok()) << kind << ": " << reply.status().ToString();
      const auto want = oracle.value()->Query(cutoff);
      ASSERT_EQ(reply.value().status.ok(), want.ok()) << kind;
      if (want.ok()) {
        EXPECT_EQ(reply.value().estimate, want.value())
            << kind << " cutoff " << cutoff << ": served answer diverged "
            << "from the in-process merge";
      }
      // The epoch vector covers every published slot and names worker 0.
      ASSERT_EQ(reply.value().epochs.size(), 3u) << kind;
      for (const auto& e : reply.value().epochs) {
        EXPECT_EQ(e.worker, 0u);
        EXPECT_GT(e.epoch, 0u);
      }
    }
    EXPECT_EQ(reducer->publishes_rejected(), 0u);
    EXPECT_GE(reducer->publishes_accepted(), 3u);
  }
}

TEST(ServiceTest, EmptyTableAnswersAsFreshSummary) {
  auto started = service::SnapshotReducer::Start(ReducerOpts("f2"));
  ASSERT_TRUE(started.ok());
  auto reducer = std::move(started).value();
  auto reply = service::QueryServed("127.0.0.1", reducer->port(), 100);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_TRUE(reply.value().epochs.empty());
  auto fresh = MakeSummary("f2", ServiceOptions(), kSeed);
  ASSERT_TRUE(fresh.ok());
  const auto want = fresh.value().Query(100);
  ASSERT_EQ(reply.value().status.ok(), want.ok());
  if (want.ok()) {
    EXPECT_EQ(reply.value().estimate, want.value());
  }
}

// Raw-frame test of the session/epoch idempotence rules: replays are
// duplicates, older sessions are stale echoes, newer sessions replace.
TEST(ServiceTest, SessionEpochRulesAtTheFrameLevel) {
  auto started = service::SnapshotReducer::Start(ReducerOpts("f2"));
  ASSERT_TRUE(started.ok());
  auto reducer = std::move(started).value();

  auto made = MakeSummary("f2", ServiceOptions(), kSeed);
  ASSERT_TRUE(made.ok());
  AnySummary summary = std::move(made).value();
  summary.InsertBatch(DemoStream(500));
  std::string blob;
  ASSERT_TRUE(summary.Serialize(&blob).ok());

  auto connected = net::TcpConnect("127.0.0.1", reducer->port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  net::Socket socket = std::move(connected).value();
  ASSERT_TRUE(socket.SetReadTimeout(std::chrono::milliseconds(5000)).ok());

  auto publish = [&](uint64_t session, uint64_t epoch) -> net::AckCode {
    net::FrameHeader header;
    header.type = net::FrameType::kPublish;
    header.worker = 7;
    header.shard = 0;
    header.session = session;
    header.epoch = epoch;
    EXPECT_TRUE(net::WriteFrame(socket, header, blob).ok());
    auto reply = net::ReadFrame(socket);
    EXPECT_TRUE(reply.ok() && reply.value().has_value());
    EXPECT_EQ(reply.value()->header.type, net::FrameType::kPublishAck);
    net::AckCode code = net::AckCode::kRejected;
    uint64_t stored = 0;
    EXPECT_TRUE(
        service::DecodeAck(io::BytesOf(reply.value()->payload), &code,
                           &stored)
            .ok());
    return code;
  };

  EXPECT_EQ(publish(123, 1), net::AckCode::kAccepted);
  EXPECT_EQ(publish(123, 1), net::AckCode::kDuplicate);  // exact replay
  EXPECT_EQ(publish(123, 2), net::AckCode::kAccepted);   // epoch advance
  EXPECT_EQ(publish(123, 1), net::AckCode::kDuplicate);  // regression
  EXPECT_EQ(publish(122, 9), net::AckCode::kDuplicate);  // older session
  EXPECT_EQ(publish(124, 1), net::AckCode::kAccepted);   // restarted worker
  EXPECT_EQ(reducer->publishes_accepted(), 3u);
  EXPECT_EQ(reducer->publishes_duplicate(), 3u);
}

TEST(ServiceTest, HostileBlobIsRejectedAndServingContinues) {
  auto started = service::SnapshotReducer::Start(ReducerOpts("f2"));
  ASSERT_TRUE(started.ok());
  auto reducer = std::move(started).value();

  auto connected = net::TcpConnect("127.0.0.1", reducer->port());
  ASSERT_TRUE(connected.ok());
  net::Socket socket = std::move(connected).value();
  ASSERT_TRUE(socket.SetReadTimeout(std::chrono::milliseconds(5000)).ok());
  net::FrameHeader header;
  header.type = net::FrameType::kPublish;
  header.worker = 0;
  header.shard = 0;
  header.session = 1;
  header.epoch = 1;
  const std::string garbage(200, '\x5a');
  ASSERT_TRUE(net::WriteFrame(socket, header, garbage).ok());
  auto reply = net::ReadFrame(socket);
  ASSERT_TRUE(reply.ok() && reply.value().has_value());
  net::AckCode code = net::AckCode::kAccepted;
  uint64_t stored = 0;
  ASSERT_TRUE(service::DecodeAck(io::BytesOf(reply.value()->payload), &code,
                                 &stored)
                  .ok());
  EXPECT_EQ(code, net::AckCode::kRejected);
  EXPECT_EQ(reducer->publishes_rejected(), 1u);
  EXPECT_EQ(reducer->publishes_accepted(), 0u);

  // The rejection is the publisher's problem only: the same connection
  // still serves, and so do new ones.
  auto after = service::QueryServed("127.0.0.1", reducer->port(), 10);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after.value().epochs.empty());
}

TEST(ServiceTest, GarbageFramesDropOnlyThatConnection) {
  auto started = service::SnapshotReducer::Start(ReducerOpts("f2"));
  ASSERT_TRUE(started.ok());
  auto reducer = std::move(started).value();

  auto connected = net::TcpConnect("127.0.0.1", reducer->port());
  ASSERT_TRUE(connected.ok());
  net::Socket socket = std::move(connected).value();
  const std::string junk(64, '\x00');  // magic mismatch
  ASSERT_TRUE(net::WriteFull(socket, io::BytesOf(junk)).ok());
  // The reducer drops the connection; the read sees EOF (or a reset,
  // depending on timing) — never a hang.
  ASSERT_TRUE(socket.SetReadTimeout(std::chrono::milliseconds(5000)).ok());
  auto reply = net::ReadFrame(socket);
  EXPECT_TRUE(!reply.ok() || !reply.value().has_value());

  auto after = service::QueryServed("127.0.0.1", reducer->port(), 10);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GE(reducer->frames_bad(), 1u);
}

TEST(ServiceTest, ReducerRestartOnSamePortAndRepublish) {
  auto driver = MakeDriver("f0", /*shards=*/2);
  driver->InsertBatch(DemoStream(4000));
  auto oracle = driver->Summarize();
  ASSERT_TRUE(oracle.ok());

  uint16_t port = 0;
  service::ShardPublisher publisher(FastPublisher(0));
  {
    auto started = service::SnapshotReducer::Start(ReducerOpts("f0"));
    ASSERT_TRUE(started.ok());
    auto reducer = std::move(started).value();
    port = reducer->port();
    service::ShardPublisher first(FastPublisher(port));
    ASSERT_TRUE(service::PublishFreshSnapshots(first, *driver).ok());
    auto mid = service::QueryServed("127.0.0.1", port, 4095);
    ASSERT_TRUE(mid.ok());
    reducer->Shutdown();
    // first publisher dies with its socket here — the restart below gets
    // a fresh incarnation on the same port.
  }
  auto restarted = service::SnapshotReducer::Start(ReducerOpts("f0", port));
  ASSERT_TRUE(restarted.ok())
      << "rebind on the drained port: " << restarted.status().ToString();
  auto reducer = std::move(restarted).value();
  ASSERT_EQ(reducer->port(), port);
  // Fresh table answers as empty until the worker re-publishes.
  auto empty = service::QueryServed("127.0.0.1", port, 4095);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().epochs.empty());

  service::ShardPublisher second(FastPublisher(port));
  ASSERT_TRUE(service::PublishFreshSnapshots(second, *driver).ok());
  auto reply = service::QueryServed("127.0.0.1", port, 4095);
  ASSERT_TRUE(reply.ok());
  const auto want = oracle.value()->Query(4095);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(reply.value().status.ok());
  EXPECT_EQ(reply.value().estimate, want.value())
      << "post-restart republish must reconstruct the exact answer";
  EXPECT_EQ(reply.value().epochs.size(), 2u);
}

TEST(ServiceTest, PublisherSurvivesReducerRestartOnOneConnection) {
  // The same ShardPublisher object rides across a reducer restart: its
  // stale socket fails, it reconnects with backoff, clears its acked set,
  // and re-offers everything.
  auto driver = MakeDriver("f2", /*shards=*/2);
  driver->InsertBatch(DemoStream(3000));
  auto oracle = driver->Summarize();
  ASSERT_TRUE(oracle.ok());

  auto started = service::SnapshotReducer::Start(ReducerOpts("f2"));
  ASSERT_TRUE(started.ok());
  auto reducer = std::move(started).value();
  const uint16_t port = reducer->port();

  service::ShardPublisher publisher(FastPublisher(port));
  ASSERT_TRUE(service::PublishFreshSnapshots(publisher, *driver).ok());
  const uint64_t gen_before = publisher.generation();

  reducer->Shutdown();
  auto restarted = service::SnapshotReducer::Start(ReducerOpts("f2", port));
  ASSERT_TRUE(restarted.ok());
  auto reducer2 = std::move(restarted).value();

  ASSERT_TRUE(service::PublishFreshSnapshots(publisher, *driver).ok());
  EXPECT_GT(publisher.generation(), gen_before)
      << "the publisher must have noticed the restart and reconnected";
  auto reply = service::QueryServed("127.0.0.1", port, 4095);
  ASSERT_TRUE(reply.ok());
  const auto want = oracle.value()->Query(4095);
  ASSERT_TRUE(want.ok() && reply.value().status.ok());
  EXPECT_EQ(reply.value().estimate, want.value());
}

TEST(ServiceTest, ConnectBackoffGivesUpWithUnavailable) {
  // Grab an ephemeral port and close it again: nothing listens there.
  uint16_t dead_port = 0;
  {
    auto probe = net::Listener::Bind(0);
    ASSERT_TRUE(probe.ok());
    dead_port = probe.value().port();
  }
  service::PublisherOptions popts = FastPublisher(dead_port);
  popts.connect_attempts = 3;
  service::ShardPublisher publisher(popts);
  Status st = publisher.Publish(0, 1, "irrelevant");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kUnavailable) << st.ToString();
  EXPECT_FALSE(publisher.connected());
}

TEST(ServiceTest, EpochZeroPublishIsAnError) {
  service::ShardPublisher publisher(FastPublisher(1));
  Status st = publisher.Publish(0, 0, "blob");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
}

TEST(ServiceTest, OversizePublishIsRefusedBeforeSending) {
  // The reducer drops any frame whose header declares more than
  // kMaxPayloadBytes. The sender must refuse such a blob itself, loudly and
  // without retrying: sent anyway, it would reconnect-loop into a
  // retryable Unavailable and never land.
  auto started = service::SnapshotReducer::Start(ReducerOpts("f2"));
  ASSERT_TRUE(started.ok());
  auto reducer = std::move(started).value();

  service::ShardPublisher publisher(FastPublisher(reducer->port()));
  const std::string blob(net::kMaxPayloadBytes + 1, '\x5a');
  Status st = publisher.Publish(0, 1, blob);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
  EXPECT_EQ(publisher.generation(), 1u);  // one connect, no reconnect
  EXPECT_EQ(reducer->frames_bad(), 0u);   // nothing reached the wire
  EXPECT_EQ(reducer->publishes_accepted(), 0u);
}

TEST(ServiceTest, OversizeRefusalKeepsTheConnection) {
  // The frame-cap refusal writes nothing, so the connection is still in
  // sync: the publish after it must go out on the same connection.
  auto started = service::SnapshotReducer::Start(ReducerOpts("f2"));
  ASSERT_TRUE(started.ok());
  auto reducer = std::move(started).value();

  auto made = MakeSummary("f2", ServiceOptions(), kSeed);
  ASSERT_TRUE(made.ok());
  AnySummary summary = std::move(made).value();
  summary.InsertBatch(DemoStream(500));
  std::string blob;
  ASSERT_TRUE(summary.Serialize(&blob).ok());

  service::ShardPublisher publisher(FastPublisher(reducer->port()));
  ASSERT_TRUE(publisher.Publish(0, 1, blob).ok());
  EXPECT_TRUE(publisher.connected());
  const std::string oversize(net::kMaxPayloadBytes + 1, '\x5a');
  Status st = publisher.Publish(0, 2, oversize);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
  EXPECT_TRUE(publisher.connected());
  ASSERT_TRUE(publisher.Publish(0, 3, blob).ok());
  EXPECT_TRUE(publisher.connected());
  EXPECT_EQ(publisher.generation(), 1u);  // no reconnect
  EXPECT_EQ(reducer->publishes_accepted(), 2u);
  EXPECT_EQ(reducer->frames_bad(), 0u);
}

TEST(ServiceTest, JitteredBackoffRepeatsAndStaysInRange) {
  const std::chrono::milliseconds base(100);
  Xoshiro256 rng(7);
  EXPECT_EQ(service::JitteredBackoff(base, 0.0, rng), base);
  for (double jitter : {service::kBackoffJitter, 0.5, 1.0}) {
    Xoshiro256 a(7), b(7);
    for (int i = 0; i < 1000; ++i) {
      const auto step = service::JitteredBackoff(base, jitter, a);
      EXPECT_EQ(step, service::JitteredBackoff(base, jitter, b)) << i;
      EXPECT_GT(static_cast<double>(step.count()),
                static_cast<double>(base.count()) * (1.0 - jitter))
          << "jitter " << jitter << " step " << i;
      EXPECT_LE(step, base) << "jitter " << jitter << " step " << i;
    }
  }
}

TEST(ServiceTest, MismatchedSeedIsRejectedAtTheDoor) {
  // A worker configured with a different hash seed produces blobs that
  // cannot merge with the reducer's family; the probe-merge at publish
  // time must reject them instead of poisoning the table.
  auto started = service::SnapshotReducer::Start(ReducerOpts("f2"));
  ASSERT_TRUE(started.ok());
  auto reducer = std::move(started).value();

  auto made = MakeSummary("f2", ServiceOptions(), kSeed + 1);
  ASSERT_TRUE(made.ok());
  AnySummary summary = std::move(made).value();
  summary.InsertBatch(DemoStream(500));
  std::string blob;
  ASSERT_TRUE(summary.Serialize(&blob).ok());

  service::ShardPublisher publisher(FastPublisher(reducer->port()));
  Status st = publisher.Publish(0, 1, blob);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kPreconditionFailed) << st.ToString();
  EXPECT_EQ(reducer->publishes_rejected(), 1u);
  EXPECT_EQ(reducer->publishes_accepted(), 0u);
}

TEST(ServiceTest, ShutdownIsIdempotentAndQueriesAfterwardsFailFast) {
  auto started = service::SnapshotReducer::Start(ReducerOpts("f2"));
  ASSERT_TRUE(started.ok());
  auto reducer = std::move(started).value();
  const uint16_t port = reducer->port();
  reducer->Shutdown();
  reducer->Shutdown();  // second call is a no-op
  auto reply = service::QueryServed("127.0.0.1", port, 10,
                                    std::chrono::milliseconds(2000));
  EXPECT_FALSE(reply.ok());
}

// ---------------------------------------------------------------------------
// Relay tier: topology validation, tree answers, restarts, and the
// epoch-vector annex.

service::RelayOptions RelayOpts(const char* kind, uint16_t upstream_port,
                                uint32_t relay_id) {
  service::RelayOptions ropts;
  ropts.reducer = ReducerOpts(kind);
  ropts.upstream = FastPublisher(upstream_port, relay_id);
  ropts.poll_interval = std::chrono::milliseconds(5);
  return ropts;
}

TEST(RelayTest, TopologyParseAcceptsTheDemoTree) {
  auto parsed = service::TopologyConfig::Parse("0>4,1>4,2>5,3>5,4>6,5>6");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const service::TopologyConfig topo = std::move(parsed).value();
  EXPECT_EQ(topo.root(), 6u);
  EXPECT_EQ(topo.nodes(), (std::vector<uint32_t>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(topo.Leaves(), (std::vector<uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(topo.ChildrenOf(4), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(topo.ChildrenOf(6), (std::vector<uint32_t>{4, 5}));
  EXPECT_TRUE(topo.ChildrenOf(0).empty());
  EXPECT_TRUE(topo.IsLeaf(2));
  EXPECT_FALSE(topo.IsLeaf(4));
  EXPECT_FALSE(topo.IsLeaf(6));
  auto parent = topo.ParentOf(5);
  ASSERT_TRUE(parent.ok());
  EXPECT_EQ(parent.value(), 6u);
  EXPECT_FALSE(topo.ParentOf(6).ok());  // the root has none
}

TEST(RelayTest, TopologyParseRejectsNonTrees) {
  const std::string_view bad_specs[] = {
      "",                    // empty
      "0>0",                 // self-edge
      "0>1,1>0",             // two-node cycle: no root
      "4>5,5>6,6>4,1>2",     // cycle, plus an edge making a second "root"
      "0>6,1>2,2>3,3>1",     // cycle in a side component off the tree
      "0>1,2>3",             // forest: two roots
      "0>1,0>2",             // node 0 with two parents
      "0>1,junk",            // malformed edge
      "a>1",                 // non-numeric id
      "0>1,,2>1",            // empty edge
  };
  for (std::string_view spec : bad_specs) {
    auto parsed = service::TopologyConfig::Parse(spec);
    EXPECT_FALSE(parsed.ok()) << "spec '" << spec << "' should not parse";
  }
  // Fan-in cap of 64 children under one parent.
  auto star = [](uint32_t children) {
    std::string spec;
    for (uint32_t c = 0; c < children; ++c) {
      if (c > 0) spec += ',';
      spec += std::to_string(c) + ">1000";
    }
    return spec;
  };
  EXPECT_TRUE(service::TopologyConfig::Parse(star(64)).ok());
  EXPECT_FALSE(service::TopologyConfig::Parse(star(65)).ok());
}

// One worker's shards through a relay into a root: the root's answer must
// equal the driver's in-process tree merge bit-for-bit (the relay's table
// holds the same leaves in the same order, the blob round-trip is
// bit-stable, and the root's single-slot table is the identity fold), and
// the root's epoch vector must name the worker's shards — not the relay.
TEST(RelayTest, RelayChainAnswersMatchDriverMergeBitForBit) {
  for (const char* kind : {"f2", "f0", "rarity", "hh"}) {
    auto root_started = service::SnapshotReducer::Start(ReducerOpts(kind));
    ASSERT_TRUE(root_started.ok());
    auto root = std::move(root_started).value();
    auto relay_started =
        service::RelayNode::Start(RelayOpts(kind, root->port(), 9));
    ASSERT_TRUE(relay_started.ok()) << relay_started.status().ToString();
    auto relay = std::move(relay_started).value();

    auto driver = MakeDriver(kind, /*shards=*/3);
    driver->InsertBatch(DemoStream(5000));
    auto oracle = driver->Summarize();
    ASSERT_TRUE(oracle.ok());

    service::ShardPublisher publisher(FastPublisher(relay->port()));
    ASSERT_TRUE(service::PublishFreshSnapshots(publisher, *driver).ok());
    // Mid-tier query: the relay is a full reducer.
    auto mid = service::QueryServed("127.0.0.1", relay->port(), 2047);
    ASSERT_TRUE(mid.ok()) << kind;
    EXPECT_EQ(mid.value().epochs.size(), 3u) << kind;
    // Drain: the must-succeed flush lands the final table at the root.
    ASSERT_TRUE(relay->Shutdown().ok()) << kind;
    EXPECT_GE(relay->republishes(), 1u) << kind;

    for (uint64_t cutoff : {uint64_t{0}, uint64_t{63}, uint64_t{2047},
                            uint64_t{4095}}) {
      auto reply = service::QueryServed("127.0.0.1", root->port(), cutoff);
      ASSERT_TRUE(reply.ok()) << kind;
      const auto want = oracle.value()->Query(cutoff);
      ASSERT_EQ(reply.value().status.ok(), want.ok()) << kind;
      if (want.ok()) {
        EXPECT_EQ(reply.value().estimate, want.value())
            << kind << " cutoff " << cutoff
            << ": relayed answer diverged from the in-process merge";
      }
      // Epoch-vector concatenation: three leaf entries for worker 0,
      // none for relay id 9.
      ASSERT_EQ(reply.value().epochs.size(), 3u) << kind;
      for (const auto& e : reply.value().epochs) {
        EXPECT_EQ(e.worker, 0u) << kind;
        EXPECT_GT(e.epoch, 0u) << kind;
      }
    }
    // The root's slot for the relay carries the annex.
    const service::ReducerStats stats = root->Stats();
    ASSERT_EQ(stats.slots.size(), 1u) << kind;
    EXPECT_EQ(stats.slots[0].worker, 9u) << kind;
    EXPECT_EQ(stats.slots[0].downstream_entries, 3u) << kind;
  }
}

// A relay whose parent refuses its table (here: a root of a different
// seed) offers that table once, counts the refusal, and waits for the
// table to change instead of re-sending the same bytes every poll tick.
TEST(RelayTest, RefusedTableIsNotResentUntilItChanges) {
  service::ReducerOptions root_opts = ReducerOpts("f2");
  root_opts.summary_seed = kSeed + 1;
  auto root_started = service::SnapshotReducer::Start(root_opts);
  ASSERT_TRUE(root_started.ok());
  auto root = std::move(root_started).value();
  auto relay_started =
      service::RelayNode::Start(RelayOpts("f2", root->port(), 9));
  ASSERT_TRUE(relay_started.ok());
  auto relay = std::move(relay_started).value();

  auto driver = MakeDriver("f2", /*shards=*/1);
  driver->InsertBatch(DemoStream(1000));
  driver->Flush();
  driver->PublishSnapshots();
  service::ShardPublisher publisher(FastPublisher(relay->port()));
  ASSERT_TRUE(service::PublishFreshSnapshots(publisher, *driver).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (relay->upstream_refusals() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // 20+ more poll ticks of 5 ms with an unchanged table.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(relay->upstream_refusals(), 1u);
  EXPECT_EQ(root->publishes_rejected(), 1u);
  EXPECT_EQ(root->publishes_accepted(), 0u);
  EXPECT_EQ(relay->Shutdown().code(), Status::Code::kPreconditionFailed);
}

// Relay restart epoch rules: a restarted relay's pub_seq starts over at 1,
// but its fresh (larger) wall-clock session tag makes the parent replace
// the dead incarnation's slot instead of dropping the publish as a stale
// epoch.
TEST(RelayTest, RestartedRelayReplacesItsSlotAtTheRoot) {
  auto root_started = service::SnapshotReducer::Start(ReducerOpts("f2"));
  ASSERT_TRUE(root_started.ok());
  auto root = std::move(root_started).value();

  auto driver = MakeDriver("f2", /*shards=*/2);
  driver->InsertBatch(DemoStream(2000));
  driver->Flush();
  driver->PublishSnapshots();  // snapshots must exist for the shipping pass

  uint64_t first_session = 0;
  uint64_t first_epoch = 0;
  {
    auto relay_started =
        service::RelayNode::Start(RelayOpts("f2", root->port(), 4));
    ASSERT_TRUE(relay_started.ok());
    auto relay = std::move(relay_started).value();
    service::ShardPublisher publisher(FastPublisher(relay->port()));
    ASSERT_TRUE(service::PublishFreshSnapshots(publisher, *driver).ok());
    ASSERT_TRUE(relay->Shutdown().ok());
    const service::ReducerStats stats = root->Stats();
    ASSERT_EQ(stats.slots.size(), 1u);
    first_session = stats.slots[0].session;
    first_epoch = stats.slots[0].epoch;
    EXPECT_GE(first_epoch, 1u);
  }

  // Second incarnation, same relay id: more data, epoch counter reset.
  driver->InsertBatch(DemoStream(2000, /*rng_seed=*/12));
  driver->Flush();
  driver->PublishSnapshots();
  auto relay_started =
      service::RelayNode::Start(RelayOpts("f2", root->port(), 4));
  ASSERT_TRUE(relay_started.ok());
  auto relay = std::move(relay_started).value();
  service::ShardPublisher publisher(FastPublisher(relay->port()));
  ASSERT_TRUE(service::PublishFreshSnapshots(publisher, *driver).ok());
  ASSERT_TRUE(relay->Shutdown().ok());

  const service::ReducerStats stats = root->Stats();
  ASSERT_EQ(stats.slots.size(), 1u);
  EXPECT_GT(stats.slots[0].session, first_session)
      << "the restarted relay must present a newer session tag";
  EXPECT_EQ(stats.slots[0].epoch, relay->pub_seq())
      << "the slot must hold the NEW incarnation's pub_seq (restarted "
      << "at 1), not a continuation of the dead one's";
  EXPECT_GE(first_epoch, 1u)
      << "sanity: the first incarnation published at least once";
  EXPECT_GE(root->publishes_accepted(), 2u)
      << "the newer session must be accepted despite the epoch reset";
}

// The relay's answer and a flat single reducer's answer estimate the same
// quantity: for every summary kind, both must land within the summary's
// accuracy band of exact ground truth (answer-equivalence — tree grouping
// is an implementation detail of mergeable summaries, the paper's Lemma 1
// shape).
TEST(RelayTest, TreeAndFlatReducersAnswerEquivalentForAllKinds) {
  struct KindCase {
    const char* name;
    double (*truth)(const std::vector<Tuple>& stream, uint64_t c);
    double (*tolerance)(double truth);
  };
  static constexpr auto f2_truth = [](const std::vector<Tuple>& stream,
                                      uint64_t c) {
    std::vector<uint64_t> xs;
    for (const Tuple& t : stream) {
      if (t.y <= c) xs.push_back(t.x);
    }
    return test::ExactFk(xs, 2.0);
  };
  static constexpr auto distinct_truth = [](const std::vector<Tuple>& stream,
                                            uint64_t c) {
    test::F0Oracle oracle;
    for (const Tuple& t : stream) oracle.Insert(t.x, t.y);
    return oracle.Distinct(c);
  };
  static constexpr auto rarity_truth = [](const std::vector<Tuple>& stream,
                                          uint64_t c) {
    test::F0Oracle oracle;
    for (const Tuple& t : stream) oracle.Insert(t.x, t.y);
    return oracle.Rarity(c);
  };
  static constexpr auto relative_band = [](double truth) {
    return 2.0 * 0.25 * truth + 10.0;
  };
  static constexpr auto additive_band = [](double) { return 0.25; };
  const KindCase kind_cases[] = {
      {"f2", f2_truth, relative_band},
      {"f0", distinct_truth, relative_band},
      {"rarity", rarity_truth, additive_band},
      {"hh", f2_truth, relative_band},  // the hh scalar query backs F2
  };

  constexpr uint32_t kWorkers = 4;
  for (const KindCase& kind : kind_cases) {
    SCOPED_TRACE(kind.name);
    EXPECT_TRUE(test::TrialsWithin(6, 0.2, [&](int trial) {
      const auto stream =
          DemoStream(4000, /*rng_seed=*/900 + static_cast<uint64_t>(trial));

      // Flat: all four workers publish straight into one reducer.
      auto flat_started =
          service::SnapshotReducer::Start(ReducerOpts(kind.name));
      if (!flat_started.ok()) return false;
      auto flat = std::move(flat_started).value();
      // Tree: workers 0-1 into relay 4, workers 2-3 into relay 5, relays
      // into the root (the demo topology, in-process).
      auto root_started =
          service::SnapshotReducer::Start(ReducerOpts(kind.name));
      if (!root_started.ok()) return false;
      auto root = std::move(root_started).value();
      auto r4_started =
          service::RelayNode::Start(RelayOpts(kind.name, root->port(), 4));
      auto r5_started =
          service::RelayNode::Start(RelayOpts(kind.name, root->port(), 5));
      if (!r4_started.ok() || !r5_started.ok()) return false;
      auto r4 = std::move(r4_started).value();
      auto r5 = std::move(r5_started).value();

      for (uint32_t w = 0; w < kWorkers; ++w) {
        auto driver = MakeDriver(kind.name, /*shards=*/2);
        std::vector<Tuple> part;
        for (const Tuple& t : stream) {
          if (t.x % kWorkers == w) part.push_back(t);
        }
        driver->InsertBatch(part);
        driver->Flush();
        driver->PublishSnapshots();
        const uint16_t relay_port = (w < 2) ? r4->port() : r5->port();
        service::ShardPublisher to_flat(FastPublisher(flat->port(), w));
        service::ShardPublisher to_relay(FastPublisher(relay_port, w));
        if (!service::PublishFreshSnapshots(to_flat, *driver).ok()) {
          return false;
        }
        if (!service::PublishFreshSnapshots(to_relay, *driver).ok()) {
          return false;
        }
      }
      if (!r4->Shutdown().ok() || !r5->Shutdown().ok()) return false;

      for (uint64_t c : {uint64_t{1023}, uint64_t{2047}, uint64_t{4095}}) {
        auto flat_reply = service::QueryServed("127.0.0.1", flat->port(), c);
        auto tree_reply = service::QueryServed("127.0.0.1", root->port(), c);
        if (!flat_reply.ok() || !tree_reply.ok()) return false;
        if (!flat_reply.value().status.ok() ||
            !tree_reply.value().status.ok()) {
          return false;
        }
        // The tree answer's staleness vector names all 8 leaf slots.
        if (tree_reply.value().epochs.size() != 8u) return false;
        const double truth = kind.truth(stream, c);
        const double band = kind.tolerance(truth);
        if (std::abs(flat_reply.value().estimate - truth) > band) {
          return false;
        }
        if (std::abs(tree_reply.value().estimate - truth) > band) {
          return false;
        }
      }
      return true;
    }));
  }
}

// The annex path at the frame level: a publish payload carrying an
// epoch-vector annex substitutes those entries in answers, and hostile
// annex bytes are rejected at the door without touching the table.
TEST(RelayTest, AnnexSubstitutesEpochsAndHostileAnnexIsRejected) {
  auto started = service::SnapshotReducer::Start(ReducerOpts("f2"));
  ASSERT_TRUE(started.ok());
  auto reducer = std::move(started).value();

  auto made = MakeSummary("f2", ServiceOptions(), kSeed);
  ASSERT_TRUE(made.ok());
  AnySummary summary = std::move(made).value();
  summary.InsertBatch(DemoStream(500));
  std::string payload;
  ASSERT_TRUE(summary.Serialize(&payload).ok());
  const std::vector<service::EpochEntry> downstream{
      {10, 0, 5}, {10, 1, 5}, {11, 0, 7}};
  service::EncodeEpochAnnex(downstream, &payload);

  auto connected = net::TcpConnect("127.0.0.1", reducer->port());
  ASSERT_TRUE(connected.ok());
  net::Socket socket = std::move(connected).value();
  ASSERT_TRUE(socket.SetReadTimeout(std::chrono::milliseconds(5000)).ok());
  auto publish = [&](const std::string& bytes,
                     uint64_t epoch) -> net::AckCode {
    net::FrameHeader header;
    header.type = net::FrameType::kPublish;
    header.worker = 4;
    header.shard = 0;
    header.session = 1;
    header.epoch = epoch;
    EXPECT_TRUE(net::WriteFrame(socket, header, bytes).ok());
    auto reply = net::ReadFrame(socket);
    EXPECT_TRUE(reply.ok() && reply.value().has_value());
    net::AckCode code = net::AckCode::kRejected;
    uint64_t stored = 0;
    EXPECT_TRUE(service::DecodeAck(io::BytesOf(reply.value()->payload),
                                   &code, &stored)
                    .ok());
    return code;
  };

  ASSERT_EQ(publish(payload, 1), net::AckCode::kAccepted);
  auto reply = service::QueryServed("127.0.0.1", reducer->port(), 2047);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply.value().epochs.size(), 3u);
  for (size_t i = 0; i < downstream.size(); ++i) {
    EXPECT_EQ(reply.value().epochs[i].worker, downstream[i].worker);
    EXPECT_EQ(reply.value().epochs[i].shard, downstream[i].shard);
    EXPECT_EQ(reply.value().epochs[i].epoch, downstream[i].epoch);
  }
  const service::ReducerStats stats = reducer->Stats();
  ASSERT_EQ(stats.slots.size(), 1u);
  EXPECT_EQ(stats.slots[0].downstream_entries, 3u);
  EXPECT_EQ(stats.slots[0].bytes, payload.size());

  // Hostile annexes: a flipped annex magic, a truncated annex, and
  // trailing garbage after a valid annex must all be rejected.
  std::string blob;
  ASSERT_TRUE(summary.Serialize(&blob).ok());
  std::string bad_magic = blob;
  service::EncodeEpochAnnex(downstream, &bad_magic);
  bad_magic[blob.size()] ^= 0x01;  // corrupt the annex magic's first byte
  EXPECT_EQ(publish(bad_magic, 2), net::AckCode::kRejected);
  std::string truncated = blob;
  service::EncodeEpochAnnex(downstream, &truncated);
  truncated.resize(truncated.size() - 3);
  EXPECT_EQ(publish(truncated, 2), net::AckCode::kRejected);
  std::string trailing = blob;
  service::EncodeEpochAnnex(downstream, &trailing);
  trailing += "JUNK";
  EXPECT_EQ(publish(trailing, 2), net::AckCode::kRejected);
  EXPECT_EQ(reducer->publishes_rejected(), 3u);
  // The good slot is untouched: the same query still answers with the
  // original annex.
  auto after = service::QueryServed("127.0.0.1", reducer->port(), 2047);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().epochs.size(), 3u);
}

}  // namespace
}  // namespace castream
