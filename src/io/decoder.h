// Checked binary reader for the summary wire format (see encoder.h).
//
// Integers are read as little-endian on every host: a little-endian host
// copies them (and whole int64 spans) straight out of the payload, other
// hosts assemble them one byte at a time.
//
// Every read validates remaining length before it copies anything and
// returns Status instead of crashing: a truncated, bit-flipped, or
// adversarial blob must surface InvalidArgument from Deserialize, never UB
// or an allocation explosion. Count fields are therefore read through
// ReadCount, which caps the declared element count by the bytes actually
// remaining — a 4-byte count can claim 2^32 entries, but it cannot make the
// decoder reserve more memory than the blob could possibly back.
#ifndef CASTREAM_IO_DECODER_H_
#define CASTREAM_IO_DECODER_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "src/common/status.h"

namespace castream::io {

/// \brief Sequential little-endian reader over a borrowed byte span.
class Decoder {
 public:
  explicit Decoder(std::span<const std::byte> bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }
  bool Done() const { return pos_ == bytes_.size(); }

  [[nodiscard]] Status ReadU8(uint8_t* v) {
    if (remaining() < 1) return Truncated("u8");
    *v = static_cast<uint8_t>(bytes_[pos_++]);
    return Status::OK();
  }

  [[nodiscard]] Status ReadU32(uint32_t* v) {
    if (remaining() < 4) return Truncated("u32");
    *v = LoadLittleEndian<uint32_t>(pos_);
    pos_ += 4;
    return Status::OK();
  }

  [[nodiscard]] Status ReadU64(uint64_t* v) {
    if (remaining() < 8) return Truncated("u64");
    *v = LoadLittleEndian<uint64_t>(pos_);
    pos_ += 8;
    return Status::OK();
  }

  [[nodiscard]] Status ReadI64(int64_t* v) {
    uint64_t u = 0;
    CASTREAM_RETURN_NOT_OK(ReadU64(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }

  [[nodiscard]] Status ReadI32(int32_t* v) {
    uint32_t u = 0;
    CASTREAM_RETURN_NOT_OK(ReadU32(&u));
    *v = static_cast<int32_t>(u);
    return Status::OK();
  }

  /// \brief Fills `out` with out.size() values as ReadI64 would read them,
  /// copied as one block on little-endian hosts. A payload too short for
  /// the whole span fails before anything is read or consumed.
  [[nodiscard]] Status ReadI64Span(std::span<int64_t> out) {
    if (remaining() / sizeof(int64_t) < out.size()) return Truncated("i64s");
    if (out.empty()) return Status::OK();
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out.data(), bytes_.data() + pos_, out.size_bytes());
    } else {
      for (size_t i = 0; i < out.size(); ++i) {
        out[i] = static_cast<int64_t>(
            LoadLittleEndian<uint64_t>(pos_ + i * sizeof(int64_t)));
      }
    }
    pos_ += out.size_bytes();
    return Status::OK();
  }

  /// \brief Reads a u32 element count and caps it by the bytes remaining:
  /// each element will consume at least `min_bytes_each` (>= 1), so a count
  /// exceeding remaining()/min_bytes_each proves the blob corrupt before any
  /// allocation sized by it happens.
  ///
  /// `min_bytes_each == 0` is treated as 1, never as "no cap": the whole
  /// point of this method is that a 4-byte count field cannot drive an
  /// allocation larger than the payload could possibly back, and a zero
  /// divisor would disable exactly that guarantee. Callers should still
  /// pass their true per-element floor — a tighter floor rejects corrupt
  /// blobs earlier — but a careless 0 degrades to the weakest cap, not to
  /// an unchecked count.
  [[nodiscard]] Status ReadCount(uint32_t* count, size_t min_bytes_each) {
    uint32_t n = 0;
    CASTREAM_RETURN_NOT_OK(ReadU32(&n));
    if (min_bytes_each == 0) min_bytes_each = 1;
    if (n > remaining() / min_bytes_each) {
      return Status::InvalidArgument(
          "decode: declared element count exceeds the bytes remaining in "
          "the payload (truncated or corrupt blob)");
    }
    *count = n;
    return Status::OK();
  }

  /// \brief Borrows the next n bytes without copying.
  [[nodiscard]] Status ReadBytes(size_t n, std::span<const std::byte>* out) {
    if (remaining() < n) return Truncated("bytes");
    *out = bytes_.subspan(pos_, n);
    pos_ += n;
    return Status::OK();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::InvalidArgument(
        std::string("decode: payload truncated while reading ") + what);
  }

  // The caller has checked that sizeof(T) bytes remain at `at`.
  template <typename T>
  T LoadLittleEndian(size_t at) const {
    T out = 0;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&out, bytes_.data() + at, sizeof(T));
    } else {
      for (size_t i = 0; i < sizeof(T); ++i) {
        out |= static_cast<T>(static_cast<uint8_t>(bytes_[at + i])) << (8 * i);
      }
    }
    return out;
  }

  std::span<const std::byte> bytes_;
  size_t pos_ = 0;
};

/// \brief Convenience view of a serialized string as the byte span
/// Deserialize expects.
inline std::span<const std::byte> BytesOf(const std::string& s) {
  return std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(s.data()), s.size());
}

}  // namespace castream::io

#endif  // CASTREAM_IO_DECODER_H_
