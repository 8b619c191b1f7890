// The session frame of the continuous aggregation service.
//
// A frame is a fixed 40-byte header followed by a length-prefixed payload:
//
//   u32 magic      'C' 'A' 'S' 'F'
//   u32 type       FrameType below
//   u32 worker     publishing worker id (0 for query traffic)
//   u32 shard      shard id within the worker (0 for query traffic)
//   u64 session    worker incarnation tag (see below; 0 for query traffic)
//   u64 epoch      shard snapshot epoch (ShardedDriver::shard_epoch)
//   u64 length     payload bytes following the header
//
// Publish payloads are verbatim `SerializeShard` blobs — the src/io CAST
// envelope, reused unchanged, so the reducer decodes them with the same
// checked Decoder (and the same hostile-blob guarantees) as blobs read
// from disk. All header integers are little-endian via io::Encoder, so a
// gcc worker feeds a clang reducer byte-identically.
//
// The (worker, shard, session, epoch) quadruple makes publication
// idempotent and restart-safe: within one session, epochs are strictly
// monotone (a replayed or re-sent epoch is a no-op); a *restarted* worker
// picks a fresh, larger session tag and its snapshots replace the dead
// incarnation's regardless of epoch numbering (the restarted process
// re-ingests its partition from the source, so its epoch counter restarts
// too). Frames from a session older than the stored one are stale echoes
// and are dropped.
//
// Header decoding goes through the checked io::Decoder and rejects bad
// magic, unknown types, and payload lengths above kMaxPayloadBytes before
// any allocation sized by them happens — a hostile peer cannot make the
// reducer reserve gigabytes with a 40-byte header.
#ifndef CASTREAM_NET_FRAME_H_
#define CASTREAM_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/net/socket.h"

namespace castream::net {

inline constexpr uint32_t kFrameMagic = 0x46534143u;  // "CASF" little-endian
inline constexpr size_t kFrameHeaderBytes = 40;

/// \brief Hard cap on a single frame's payload. Generously above any real
/// summary blob (the demo blobs are ~100KB); its job is bounding what a
/// corrupt or hostile length field can make the receiver allocate.
inline constexpr uint64_t kMaxPayloadBytes = uint64_t{64} << 20;

enum class FrameType : uint32_t {
  /// worker -> reducer: payload is an epoch-tagged SerializeShard blob.
  kPublish = 1,
  /// reducer -> worker: payload is { u8 AckCode, u64 stored_epoch }.
  kPublishAck = 2,
  /// client -> reducer: payload is { u64 cutoff }.
  kQuery = 3,
  /// reducer -> client: payload is { u8 ok, u64 estimate_bits | u32 code,
  /// u32 n, n * { u32 worker, u32 shard, u64 epoch } } — the answer plus
  /// the epoch vector it was computed from (the staleness bound).
  kQueryReply = 4,
};

/// \brief Publish outcome, first payload byte of every kPublishAck.
enum class AckCode : uint8_t {
  kAccepted = 0,
  /// Same (worker, shard, session, epoch) — or older — than what the
  /// reducer already holds: an idempotent no-op, not an error.
  kDuplicate = 1,
  /// The blob failed decode/merge validation; the publisher must treat
  /// this as fatal for the blob (re-sending the same bytes cannot help).
  kRejected = 2,
};

struct FrameHeader {
  FrameType type = FrameType::kPublish;
  uint32_t worker = 0;
  uint32_t shard = 0;
  uint64_t session = 0;
  uint64_t epoch = 0;
  uint64_t payload_bytes = 0;
};

/// \brief Appends the 40-byte wire header.
void EncodeFrameHeader(const FrameHeader& header, std::string* out);

/// \brief Decodes and validates a wire header: magic, known type, payload
/// cap. InvalidArgument on any violation (the connection carrying it is
/// unrecoverable — framing is lost).
[[nodiscard]] Status DecodeFrameHeader(std::span<const std::byte> bytes,
                                       FrameHeader* header);

struct Frame {
  FrameHeader header;
  std::string payload;
};

/// \brief Writes header + payload as one frame. `payload.size()` overrides
/// whatever header.payload_bytes says — the two can't disagree on the wire.
/// A payload over kMaxPayloadBytes is InvalidArgument, and nothing is
/// written.
[[nodiscard]] Status WriteFrame(Socket& socket, FrameHeader header,
                                std::string_view payload);

/// \brief Reads one whole frame. Returns nullopt on clean EOF *between*
/// frames; a partial header/payload or an invalid header is a loud error.
[[nodiscard]] Result<std::optional<Frame>> ReadFrame(Socket& socket);

}  // namespace castream::net

#endif  // CASTREAM_NET_FRAME_H_
