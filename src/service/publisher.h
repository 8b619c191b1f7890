// Worker-side publisher: ships epoch-tagged shard snapshots to the
// reducer, surviving reducer restarts.
//
// One ShardPublisher per worker process (single-threaded use — drive it
// from the thread that owns the publish cadence). It lazily connects, and
// on any transport failure drops the connection and retries with
// exponential backoff; every reconnect bumps a generation counter and
// forgets which epochs were acked, because the peer may be a freshly
// restarted reducer with an empty table — everything must be offered
// again (the reducer's idempotence makes over-offering free).
//
// The session tag is picked once per publisher (wall-clock nanoseconds):
// a restarted worker gets a larger tag, so its re-published snapshots
// replace the dead incarnation's at the reducer regardless of epoch
// numbering. See src/net/frame.h for the exact rules.
#ifndef CASTREAM_SERVICE_PUBLISHER_H_
#define CASTREAM_SERVICE_PUBLISHER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "src/common/random.h"
#include "src/common/status.h"
#include "src/driver/sharded_driver.h"
#include "src/net/frame.h"
#include "src/net/socket.h"

namespace castream::service {

struct PublisherOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// This worker's id in the reducer's (worker, shard) key space.
  uint32_t worker_id = 0;
  /// Connect attempts per EnsureConnected call before giving up with
  /// Unavailable (the caller's cadence loop decides whether to keep
  /// trying). With the default backoff curve, 10 attempts spread over
  /// roughly 12 seconds — generously longer than a reducer restart.
  int connect_attempts = 10;
  std::chrono::milliseconds initial_backoff{50};
  std::chrono::milliseconds max_backoff{2000};
  /// Bound on waiting for a publish ack; a wedged reducer fails the
  /// publish (Unavailable) instead of wedging the worker.
  std::chrono::milliseconds ack_timeout{10000};
};

/// \brief Random jitter on the reconnect backoff: each sleep is scaled by a
/// uniform factor in (1 - kBackoffJitter, 1], drawn from an rng seeded by
/// the publisher's session tag. A reducer restart disconnects its whole
/// fan-in at the same instant; without jitter every publisher's doubling
/// schedule stays phase-locked and the reconnect attempts arrive as
/// synchronized bursts, and distinct session tags decorrelate a fleet of
/// workers started together. The exponential envelope (doubling from
/// initial_backoff, capped at max_backoff) is unchanged — jitter only ever
/// shortens a sleep.
inline constexpr double kBackoffJitter = 0.25;

/// \brief One jittered backoff step: `base` scaled by a uniform factor in
/// (1 - jitter, 1] drawn from `rng` (jitter clamped to [0, 1]). Pure but
/// for the rng state, so a fixed seed repeats the whole schedule.
std::chrono::milliseconds JitteredBackoff(std::chrono::milliseconds base,
                                          double jitter, Xoshiro256& rng);

class ShardPublisher {
 public:
  explicit ShardPublisher(const PublisherOptions& options);

  ShardPublisher(const ShardPublisher&) = delete;
  ShardPublisher& operator=(const ShardPublisher&) = delete;

  uint64_t session() const { return session_; }

  /// \brief Bumped on every (re)connect. A caller that saw the generation
  /// hold still across a pass of Publish calls knows every ack it
  /// collected came from one reducer incarnation — the loop condition
  /// PublishFreshSnapshots uses.
  uint64_t generation() const { return generation_; }

  bool connected() const { return socket_.valid(); }

  /// \brief Publishes one epoch-tagged blob, connecting (with backoff) as
  /// needed. Already-acked epochs for the shard are skipped (idempotence
  /// starts at the sender). Returns:
  ///   OK                  — acked (accepted or duplicate) or skipped
  ///   InvalidArgument     — the blob exceeds the frame cap
  ///                         (net::kMaxPayloadBytes); never sent
  ///   Unavailable         — transport kept failing; retry next cadence
  ///   PreconditionFailed  — reducer rejected the blob; re-sending the
  ///                         same bytes cannot help (config mismatch)
  [[nodiscard]] Status Publish(uint32_t shard, uint64_t epoch,
                               std::string_view blob);

 private:
  Status EnsureConnected();
  void Disconnect();

  PublisherOptions options_;
  uint64_t session_;
  Xoshiro256 backoff_rng_;
  net::Socket socket_;
  uint64_t generation_ = 0;
  // Highest epoch acked per shard on the *current* connection generation;
  // cleared on reconnect (the new peer may know nothing).
  std::map<uint32_t, uint64_t> acked_;
};

/// \brief Publishes every published-snapshot shard of `driver` whose epoch
/// advanced, repeating the pass until one completes entirely on a single
/// connection generation — the post-condition "the reducer (whichever
/// incarnation is alive now) holds every shard at at least these epochs".
/// Unavailable if the reducer stayed unreachable across `rounds` passes.
template <typename Summary>
[[nodiscard]] Status PublishFreshSnapshots(ShardPublisher& publisher,
                                           ShardedDriver<Summary>& driver,
                                           int rounds = 8) {
  for (int round = 0; round < rounds; ++round) {
    const uint64_t generation = publisher.generation();
    bool transport_failed = false;
    for (uint32_t s = 0; s < driver.shard_count(); ++s) {
      std::string blob;
      uint64_t epoch = 0;
      CASTREAM_RETURN_NOT_OK(
          driver.SerializeShardSnapshot(s, &blob, &epoch));
      if (epoch == 0) continue;  // never published: nothing to ship
      Status st = publisher.Publish(s, epoch, blob);
      if (st.code() == Status::Code::kUnavailable) {
        transport_failed = true;
        break;
      }
      CASTREAM_RETURN_NOT_OK(st);
    }
    // A reconnect mid-pass means earlier shards may have been acked by a
    // reducer that no longer exists; only a pass with a stable generation
    // proves the full set landed on one live incarnation.
    if (!transport_failed && publisher.generation() == generation) {
      return Status::OK();
    }
  }
  return Status::Unavailable(
      "PublishFreshSnapshots: no complete pass landed on a single reducer "
      "incarnation");
}

}  // namespace castream::service

#endif  // CASTREAM_SERVICE_PUBLISHER_H_
