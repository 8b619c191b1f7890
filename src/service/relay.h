// Relay tier of the continuous aggregation service: multi-level reducer
// trees.
//
// A flat reducer's fan-in is bounded by one process's accept/merge
// capacity. A RelayNode lifts that bound by composition: it runs an
// ordinary SnapshotReducer facing its downstream publishers (workers or
// other relays) and republishes its merged table upstream as an ordinary
// (worker, shard) publish — so reducers stack into trees of arbitrary
// depth with no new wire protocol:
//
//   worker 0 ─┐
//   worker 1 ─┼─▶ relay 4 ─┐
//   worker 2 ─┐            ├─▶ root 6 ◀── queries (full tree answer)
//   worker 3 ─┼─▶ relay 5 ─┘      ▲
//     queries ─┴──────────────────┴── queries also served at every tier
//
// Soundness is exactly the mergeable-summary property the paper's
// correlated aggregates are built on: merge order and grouping are
// implementation details, so folding workers through any tree of
// intermediate merges yields the same (eps, delta) answer as one flat
// merge. Every node folds with the same deterministic merge tree, so the
// root's answers are bit-for-bit those of a tier-grouped tree fold in one
// process (what ci/relay_demo.sh pins against `castream_served oracle`).
//
// The upstream publish reuses every existing invariant:
//   - identity: the relay's node id as the frame's worker, shard 0;
//   - epoch: a relay-local pub_seq, bumped only when the merged table
//     actually changed (publish-on-change), strictly monotone within a
//     session as the frame rules require;
//   - session: the ShardPublisher's wall-clock tag, so a restarted relay
//     (fresh pub_seq starting at 1) replaces its dead incarnation at the
//     parent instead of being dropped as a stale echo;
//   - staleness: the publish payload carries the epoch-vector annex
//     (src/service/protocol.h) naming the leaf publications the blob was
//     merged from, so the root's answers still report per-worker epochs.
//
// Restart recovery needs no state: a killed relay comes back with a newer
// session and republishes; a killed parent is re-offered everything by its
// children's publish loops (the publisher's dead-peer probe clears the
// acked map on reconnect, and the reducer's idempotence makes over-
// offering free).
#ifndef CASTREAM_SERVICE_RELAY_H_
#define CASTREAM_SERVICE_RELAY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/service/publisher.h"
#include "src/service/reducer.h"

namespace castream::service {

/// \brief A reducer-tree topology parsed from a "child>parent" edge list,
/// e.g. "0>4,1>4,2>5,3>5,4>6,5>6" (4 workers, 2 relays, 1 root). Node ids
/// are the frame-level worker ids, shared across tiers — leaves are
/// workers, internal nodes are relays, the unique sink is the root.
/// Parse() rejects anything that is not a single-rooted tree: duplicate
/// parents, cycles, forests, and fan-in beyond kMaxFanIn.
class TopologyConfig {
 public:
  /// \brief Cap on the children of any single node (a relay's accept
  /// capacity is the bound the tree exists to respect; exceeding it at one
  /// node defeats it).
  static constexpr size_t kMaxFanIn = 64;

  /// \brief Parses and validates the edge spec.
  static Result<TopologyConfig> Parse(std::string_view spec);

  uint32_t root() const { return root_; }

  /// \brief All node ids, ascending.
  const std::vector<uint32_t>& nodes() const { return nodes_; }

  /// \brief Children of `node`, ascending; empty for leaves. The oracle
  /// folds subtrees in exactly this order.
  std::vector<uint32_t> ChildrenOf(uint32_t node) const;

  /// \brief Leaves (= workers), ascending.
  std::vector<uint32_t> Leaves() const;

  /// \brief True for nodes with a parent and no children (= workers).
  bool IsLeaf(uint32_t node) const {
    return parents_.count(node) != 0 && children_of_.count(node) == 0;
  }

  /// \brief Parent of `node`; the root has none.
  Result<uint32_t> ParentOf(uint32_t node) const;

 private:
  uint32_t root_ = 0;
  std::vector<uint32_t> nodes_;
  std::map<uint32_t, uint32_t> parents_;            // child -> parent
  std::map<uint32_t, std::set<uint32_t>> children_of_;  // parent -> children
};

struct RelayOptions {
  /// Downstream face: the reducer workers/child-relays publish into and
  /// clients may query (mid-tier queries are first-class).
  ReducerOptions reducer;
  /// Upstream face: host/port of the parent reducer; `worker_id` is this
  /// relay's node id in the topology.
  PublisherOptions upstream;
  /// How often the republish loop wakes to check the table version and
  /// probe the upstream connection.
  std::chrono::milliseconds poll_interval{50};
  /// Throttle: at most one payload rebuild + pub_seq bump per interval,
  /// however fast downstream publishes land. 0 republishes on every
  /// changed poll tick.
  std::chrono::milliseconds min_republish_interval{0};
};

/// \brief One mid-tier node of a reducer tree: an embedded SnapshotReducer
/// plus a republish loop that offers the merged table upstream whenever it
/// changes. Start() brings up both; Shutdown() drains downstream first,
/// then must-succeed-flushes the final table upstream.
class RelayNode {
 public:
  static Result<std::unique_ptr<RelayNode>> Start(const RelayOptions& options);

  ~RelayNode();

  RelayNode(const RelayNode&) = delete;
  RelayNode& operator=(const RelayNode&) = delete;

  /// \brief The downstream listen port (what children and clients dial).
  uint16_t port() const { return reducer_->port(); }

  /// \brief The embedded reducer — mid-tier queries and Stats() go here.
  SnapshotReducer& reducer() { return *reducer_; }

  /// \brief Graceful drain, in dependency order: the reducer drains its
  /// downstream connections (so every in-flight child publish lands), the
  /// republish loop stops, then the final merged table is flushed upstream
  /// with up to kFlushRounds passes while the parent is unavailable.
  /// Returns the flush outcome — the post-condition "the parent holds
  /// everything this subtree ever accepted" — and OK for a relay whose
  /// table stayed empty (nothing was ever published, nothing is owed).
  /// A table the parent refused is not re-sent: its refusal is the
  /// outcome. Idempotent.
  Status Shutdown();

  /// Publish passes the final drain flush may take before giving up (each
  /// pass itself retries with the publisher's jittered backoff).
  static constexpr int kFlushRounds = 16;

  // Observability.
  uint64_t republishes() const { return republishes_.load(); }
  uint64_t pub_seq() const { return pub_seq_.load(); }
  /// Payloads the parent refused with PreconditionFailed (a configuration
  /// mismatch). Each is offered once; the relay waits for its table to
  /// change before offering again.
  uint64_t upstream_refusals() const { return upstream_refusals_.load(); }

 private:
  RelayNode(const RelayOptions& options,
            std::unique_ptr<SnapshotReducer> reducer);

  void Loop();
  /// \brief One publish pass: rebuild the payload if the table changed
  /// (subject to the throttle unless `force`), then offer it upstream.
  Status OfferUpstream(bool force);

  RelayOptions options_;
  std::unique_ptr<SnapshotReducer> reducer_;
  ShardPublisher publisher_;
  std::thread loop_thread_;
  std::atomic<bool> loop_stop_{false};
  std::atomic<bool> shut_down_{false};
  Status final_flush_;

  // Republish state, owned by the loop thread (and by Shutdown after the
  // loop is joined): the serialized payload, the table version it
  // reflects, and the throttle clock.
  std::string payload_;
  uint64_t published_version_ = 0;
  uint64_t acked_seq_ = 0;  // last pub_seq the parent acked (republish count)
  uint64_t refused_seq_ = 0;  // last pub_seq the parent refused
  Status refusal_;            // ... and the refusal it returned
  std::chrono::steady_clock::time_point last_build_{};
  std::atomic<uint64_t> pub_seq_{0};
  std::atomic<uint64_t> republishes_{0};
  std::atomic<uint64_t> upstream_refusals_{0};
};

}  // namespace castream::service

#endif  // CASTREAM_SERVICE_RELAY_H_
