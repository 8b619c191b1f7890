#include "src/service/relay.h"

#include <charconv>
#include <utility>

#include "src/service/protocol.h"

namespace castream::service {

namespace {

Status ParseNodeId(std::string_view text, uint32_t* id) {
  if (text.empty()) {
    return Status::InvalidArgument("topology: empty node id");
  }
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *id);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument("topology: node id is not a u32: '" +
                                   std::string(text) + "'");
  }
  return Status::OK();
}

}  // namespace

Result<TopologyConfig> TopologyConfig::Parse(std::string_view spec) {
  TopologyConfig topo;
  if (spec.empty()) {
    return Status::InvalidArgument("topology: empty spec");
  }
  std::set<uint32_t> node_set;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t comma = spec.find(',', pos);
    const size_t end = (comma == std::string_view::npos) ? spec.size() : comma;
    std::string_view edge = spec.substr(pos, end - pos);
    pos = end + 1;
    const size_t arrow = edge.find('>');
    if (arrow == std::string_view::npos) {
      return Status::InvalidArgument(
          "topology: edge '" + std::string(edge) + "' is not 'child>parent'");
    }
    uint32_t child = 0, parent = 0;
    CASTREAM_RETURN_NOT_OK(ParseNodeId(edge.substr(0, arrow), &child));
    CASTREAM_RETURN_NOT_OK(ParseNodeId(edge.substr(arrow + 1), &parent));
    if (child == parent) {
      return Status::InvalidArgument(
          "topology: node " + std::to_string(child) +
          " is its own parent (a one-node cycle)");
    }
    if (!topo.parents_.emplace(child, parent).second) {
      return Status::InvalidArgument(
          "topology: node " + std::to_string(child) +
          " has two parents — edges must form a tree");
    }
    topo.children_of_[parent].insert(child);
    node_set.insert(child);
    node_set.insert(parent);
  }
  topo.nodes_.assign(node_set.begin(), node_set.end());
  // Exactly one node may lack a parent: the root. Zero such nodes means
  // the edges close a cycle; more than one means a forest.
  std::vector<uint32_t> roots;
  for (uint32_t node : topo.nodes_) {
    if (topo.parents_.count(node) == 0) roots.push_back(node);
  }
  if (roots.empty()) {
    return Status::InvalidArgument(
        "topology: every node has a parent — the edges form a cycle");
  }
  if (roots.size() > 1) {
    return Status::InvalidArgument(
        "topology: " + std::to_string(roots.size()) +
        " roots (nodes " + std::to_string(roots[0]) + " and " +
        std::to_string(roots[1]) + " both lack parents) — not one tree");
  }
  topo.root_ = roots[0];
  // Every parent chain must reach the root within |nodes| steps; a chain
  // that does not has walked into a cycle disconnected from the root.
  for (uint32_t node : topo.nodes_) {
    uint32_t cursor = node;
    size_t steps = 0;
    while (cursor != topo.root_) {
      auto it = topo.parents_.find(cursor);
      if (it == topo.parents_.end() || ++steps > topo.nodes_.size()) {
        return Status::InvalidArgument(
            "topology: node " + std::to_string(node) +
            " never reaches the root — a cycle off the main tree");
      }
      cursor = it->second;
    }
  }
  for (const auto& [parent, children] : topo.children_of_) {
    if (children.size() > kMaxFanIn) {
      return Status::InvalidArgument(
          "topology: node " + std::to_string(parent) + " has " +
          std::to_string(children.size()) + " children, over the fan-in "
          "cap of " + std::to_string(kMaxFanIn));
    }
  }
  return topo;
}

std::vector<uint32_t> TopologyConfig::ChildrenOf(uint32_t node) const {
  auto it = children_of_.find(node);
  if (it == children_of_.end()) return {};
  return std::vector<uint32_t>(it->second.begin(), it->second.end());
}

std::vector<uint32_t> TopologyConfig::Leaves() const {
  std::vector<uint32_t> leaves;
  for (uint32_t node : nodes_) {
    if (IsLeaf(node)) leaves.push_back(node);
  }
  return leaves;
}

Result<uint32_t> TopologyConfig::ParentOf(uint32_t node) const {
  auto it = parents_.find(node);
  if (it == parents_.end()) {
    return Status::InvalidArgument("topology: node " + std::to_string(node) +
                                   " has no parent");
  }
  return it->second;
}

Result<std::unique_ptr<RelayNode>> RelayNode::Start(
    const RelayOptions& options) {
  CASTREAM_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotReducer> reducer,
                            SnapshotReducer::Start(options.reducer));
  std::unique_ptr<RelayNode> relay(
      new RelayNode(options, std::move(reducer)));
  relay->loop_thread_ = std::thread([r = relay.get()] { r->Loop(); });
  return relay;
}

RelayNode::RelayNode(const RelayOptions& options,
                     std::unique_ptr<SnapshotReducer> reducer)
    : options_(options),
      reducer_(std::move(reducer)),
      publisher_(options.upstream) {}

RelayNode::~RelayNode() { (void)Shutdown(); }

void RelayNode::Loop() {
  while (!loop_stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(options_.poll_interval);
    // Offer every tick, changed or not: on a live connection the
    // publisher's acked map makes an unchanged offer a cheap no-op, and
    // after a parent restart the dead-peer probe turns the same call into
    // reconnect-and-republish — the recovery path. Transport failures are
    // retried next tick; the table is never lost. A refusal is counted
    // inside OfferUpstream and not retried until the table changes.
    (void)OfferUpstream(/*force=*/false);
  }
}

Status RelayNode::OfferUpstream(bool force) {
  const uint64_t version = reducer_->table_version();
  if (version != published_version_) {
    const auto now = std::chrono::steady_clock::now();
    if (force ||
        last_build_ == std::chrono::steady_clock::time_point{} ||
        now - last_build_ >= options_.min_republish_interval) {
      CASTREAM_ASSIGN_OR_RETURN(MergedTable table, reducer_->MergedRoot());
      if (table.slot_count > 0) {
        // Payload = serialized merge-tree root, then the epoch-vector
        // annex naming the leaf publications it covers.
        std::string fresh;
        CASTREAM_RETURN_NOT_OK(table.root->Serialize(&fresh));
        EncodeEpochAnnex(table.epochs, &fresh);
        payload_ = std::move(fresh);
        // pub_seq bumps only here — on an actual content change — keeping
        // within-session epochs strictly monotone and duplicates free.
        pub_seq_.fetch_add(1, std::memory_order_relaxed);
        last_build_ = now;
      }
      published_version_ = table.version;
    }
  }
  // An empty table never publishes: the defined zero state upstream is an
  // absent slot, not a fresh-summary blob claiming epoch 1.
  if (payload_.empty()) return Status::OK();
  const uint64_t seq = pub_seq_.load(std::memory_order_relaxed);
  // The parent refuses the same bytes again: wait for a new payload.
  if (seq == refused_seq_) return refusal_;
  Status st = publisher_.Publish(/*shard=*/0, seq, payload_);
  if (st.code() == Status::Code::kPreconditionFailed) {
    refused_seq_ = seq;
    refusal_ = st;
    upstream_refusals_.fetch_add(1, std::memory_order_relaxed);
  }
  CASTREAM_RETURN_NOT_OK(st);
  if (acked_seq_ != seq) {
    acked_seq_ = seq;
    republishes_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status RelayNode::Shutdown() {
  if (shut_down_.exchange(true)) return final_flush_;
  // Drain order matters: the reducer drains first so every in-flight
  // downstream publish is decoded and folded, then the loop stops, then
  // the final table — now provably complete — is flushed upstream.
  reducer_->Shutdown();
  loop_stop_.store(true, std::memory_order_relaxed);
  if (loop_thread_.joinable()) loop_thread_.join();
  Status st = Status::OK();
  for (int round = 0; round < kFlushRounds; ++round) {
    st = OfferUpstream(/*force=*/true);
    // Unavailable: the parent may itself be mid-restart. Publish already
    // slept through its jittered backoff curve; just take another pass.
    // Any other error (a refusal) cannot change by retrying.
    if (st.code() != Status::Code::kUnavailable) break;
  }
  final_flush_ = st;
  return final_flush_;
}

}  // namespace castream::service
