#include "src/service/publisher.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "src/io/decoder.h"
#include "src/service/protocol.h"

namespace castream::service {

namespace {

uint64_t WallClockNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::chrono::milliseconds JitteredBackoff(std::chrono::milliseconds base,
                                          double jitter, Xoshiro256& rng) {
  const double j = std::clamp(jitter, 0.0, 1.0);
  const double factor = 1.0 - j * rng.NextDouble();  // uniform (1-j, 1]
  // Rounding up keeps the whole-millisecond result inside (base*(1-j), base].
  return std::chrono::milliseconds(static_cast<int64_t>(
      std::ceil(static_cast<double>(base.count()) * factor)));
}

ShardPublisher::ShardPublisher(const PublisherOptions& options)
    : options_(options),
      session_(WallClockNanos()),
      backoff_rng_(session_) {}

void ShardPublisher::Disconnect() {
  socket_.Close();
  acked_.clear();
}

Status ShardPublisher::EnsureConnected() {
  // A restarted reducer leaves this end holding a dead socket AND a stale
  // acked_ map — and the map would otherwise skip exactly the writes that
  // would expose the dead peer, so the probe must come before any
  // "already acked" reasoning, not after a failed send.
  if (socket_.valid() && socket_.LooksDisconnected()) Disconnect();
  if (socket_.valid()) return Status::OK();
  std::chrono::milliseconds backoff = options_.initial_backoff;
  Status last = Status::Unavailable("never attempted");
  for (int attempt = 0; attempt < options_.connect_attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          JitteredBackoff(backoff, kBackoffJitter, backoff_rng_));
      backoff = std::min(backoff * 2, options_.max_backoff);
    }
    auto connected = net::TcpConnect(options_.host, options_.port);
    if (connected.ok()) {
      socket_ = std::move(connected).value();
      CASTREAM_RETURN_NOT_OK(socket_.SetReadTimeout(options_.ack_timeout));
      ++generation_;
      acked_.clear();
      return Status::OK();
    }
    if (connected.status().code() != Status::Code::kUnavailable) {
      return connected.status();  // bad address etc.: retrying cannot help
    }
    last = connected.status();
  }
  return last;
}

Status ShardPublisher::Publish(uint32_t shard, uint64_t epoch,
                               std::string_view blob) {
  if (epoch == 0) {
    return Status::InvalidArgument(
        "ShardPublisher::Publish: epoch 0 is the never-published sentinel");
  }
  // One transport retry: a stale connection (reducer restarted since the
  // last publish) fails the first send/recv, reconnects, and the second
  // iteration re-offers. More than one reconnect inside a single Publish
  // means the reducer is flapping — report Unavailable and let the
  // caller's cadence decide.
  for (int attempt = 0; attempt < 2; ++attempt) {
    CASTREAM_RETURN_NOT_OK(EnsureConnected());
    if (auto it = acked_.find(shard);
        it != acked_.end() && it->second >= epoch) {
      return Status::OK();  // this incarnation already holds it
    }
    net::FrameHeader header;
    header.type = net::FrameType::kPublish;
    header.worker = options_.worker_id;
    header.shard = shard;
    header.session = session_;
    header.epoch = epoch;
    Status transport = net::WriteFrame(socket_, header, blob);
    // WriteFrame's only InvalidArgument is the frame-cap refusal, which
    // wrote nothing: the connection is still in sync, so keep it.
    if (transport.code() == Status::Code::kInvalidArgument) return transport;
    net::AckCode code = net::AckCode::kRejected;
    uint64_t stored_epoch = 0;
    if (transport.ok()) {
      auto reply = net::ReadFrame(socket_);
      if (!reply.ok()) {
        transport = reply.status();
      } else if (!reply.value().has_value()) {
        transport = Status::Unavailable(
            "publish: reducer closed the connection before acking");
      } else if (reply.value()->header.type != net::FrameType::kPublishAck) {
        return Status::InvalidArgument(
            "publish: reducer sent a non-ack frame in reply");
      } else {
        CASTREAM_RETURN_NOT_OK(DecodeAck(
            io::BytesOf(reply.value()->payload), &code, &stored_epoch));
      }
    }
    if (!transport.ok()) {
      Disconnect();
      if (transport.code() == Status::Code::kUnavailable) continue;
      return transport;  // framing/protocol corruption: not retryable
    }
    if (code == net::AckCode::kRejected) {
      return Status::PreconditionFailed(
          "publish: reducer rejected the blob (kind/config mismatch or "
          "corrupt bytes)");
    }
    // Accepted, or duplicate (an equal-or-newer publication already
    // landed): either way this incarnation holds >= epoch.
    uint64_t& high = acked_[shard];
    high = std::max({high, epoch, stored_epoch});
    return Status::OK();
  }
  return Status::Unavailable(
      "publish: transport failed twice (reducer restarting or gone)");
}

}  // namespace castream::service
