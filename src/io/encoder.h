// Binary wire-format writer for durable summaries (the Unified Summary API).
//
// Every multi-byte integer is written little-endian on every host, so blobs
// are identical across compilers and architectures (the CI cross-reads
// gcc-written blobs in the clang build). On a little-endian host the native
// bytes already are the wire bytes, so values and int64 spans are appended
// as one block copy; other hosts assemble the same bytes one at a time.
//
// Doubles never appear on the wire: every format in src/ serializes integer
// state and recomputes derived floating-point values on decode, which is
// what makes Deserialize(Serialize(s)) answer queries bit-for-bit like s.
#ifndef CASTREAM_IO_ENCODER_H_
#define CASTREAM_IO_ENCODER_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

namespace castream::io {

/// \brief Appends little-endian fixed-width values to a caller-owned string.
///
/// Encoding cannot fail (short of std::bad_alloc), so the writer API returns
/// void; all error handling lives on the Decoder side.
class Encoder {
 public:
  explicit Encoder(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) { PutLittleEndian(v); }

  void PutU64(uint64_t v) { PutLittleEndian(v); }

  /// \brief Two's-complement little-endian, matching Decoder::ReadI64.
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  /// \brief The same bytes as PutI64 over each element in order, appended
  /// as one block on little-endian hosts (dense counter matrices).
  void PutI64Span(std::span<const int64_t> values) {
    if constexpr (std::endian::native == std::endian::little) {
      out_->append(reinterpret_cast<const char*>(values.data()),
                   values.size_bytes());
    } else {
      for (int64_t v : values) PutI64(v);
    }
  }

  /// \brief Signed 32-bit value (node indices, -1 sentinels).
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }

  void PutBytes(std::span<const std::byte> bytes) {
    out_->append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }

  /// \brief Current size of the output; offsets from here feed PatchU64.
  size_t size() const { return out_->size(); }

  /// \brief Overwrites 8 bytes at `offset` with v (little-endian). Used to
  /// back-patch the envelope's body-length field once the body is encoded.
  void PatchU64(size_t offset, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      (*out_)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  }

 private:
  template <typename T>
  void PutLittleEndian(T v) {
    char buf[sizeof(T)];
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(buf, &v, sizeof(T));
    } else {
      for (size_t i = 0; i < sizeof(T); ++i) {
        buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
      }
    }
    out_->append(buf, sizeof(T));
  }

  std::string* out_;
};

}  // namespace castream::io

#endif  // CASTREAM_IO_ENCODER_H_
