// Contiguous depth x width counter storage of the linear sketches, plus the
// wrapping arithmetic every counter and sum-of-squares update goes through.
// Its users: AmsF2Sketch, which is also the CountSketch (one signed-counter
// structure read by two estimators), and CountMinSketch.
//
// Counters are a linear map of the input taken mod 2^64. An honest stream
// never wraps, so the results equal plain int64 arithmetic; a hostile blob
// can decode counters near the int64 limits, and the next merge or update
// must wrap rather than overflow (signed overflow is undefined behaviour).
#ifndef CASTREAM_SKETCH_COUNTER_MATRIX_H_
#define CASTREAM_SKETCH_COUNTER_MATRIX_H_

#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

namespace castream {

/// \brief a + b, wrapping mod 2^64.
inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// \brief a * b, wrapping mod 2^64.
inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

/// \brief (c + delta)^2 - c^2 = 2*c*delta + delta^2, wrapping: what adding
/// `delta` to a counter holding `c` adds to its row's sum of squares. It
/// keeps incremental sums equal to a recomputation, both mod 2^64.
inline int64_t SquareGrowth(int64_t c, int64_t delta) {
  const uint64_t uc = static_cast<uint64_t>(c);
  const uint64_t ud = static_cast<uint64_t>(delta);
  return static_cast<int64_t>(2 * uc * ud + ud * ud);
}

/// \brief Row-major matrix of int64 counters for linear sketches.
class CounterMatrix {
 public:
  CounterMatrix(uint32_t depth, uint32_t width)
      : depth_(depth), width_(width),
        cells_(static_cast<size_t>(depth) * width, 0) {}

  int64_t at(uint32_t row, uint32_t col) const {
    return cells_[static_cast<size_t>(row) * width_ + col];
  }

  /// \brief Adds `delta` to one cell and returns the *previous* value (the
  /// previous value lets callers maintain incremental sums of squares).
  int64_t AddAndReturnOld(uint32_t row, uint32_t col, int64_t delta) {
    int64_t& cell = cells_[static_cast<size_t>(row) * width_ + col];
    int64_t old = cell;
    cell = WrapAdd(old, delta);
    return old;
  }

  /// \brief Cell-wise addition; dimensions must match (checked by caller).
  void AddFrom(const CounterMatrix& other) {
    for (size_t i = 0; i < cells_.size(); ++i) {
      cells_[i] = WrapAdd(cells_[i], other.cells_[i]);
    }
  }

  /// \brief All depth x width cells in row-major order, for the cell codec.
  std::span<const int64_t> cells() const { return cells_; }
  std::span<int64_t> cells() { return cells_; }

  uint32_t depth() const { return depth_; }
  uint32_t width() const { return width_; }

  /// \brief Number of stored counters (the "tuples stored" unit used by the
  /// paper's space plots).
  size_t CounterCount() const { return cells_.size(); }
  size_t SizeBytes() const { return cells_.size() * sizeof(int64_t); }

  /// \brief Sum of squares of one row, computed from scratch.
  int64_t RowSumSquares(uint32_t row) const {
    const int64_t* p = &cells_[static_cast<size_t>(row) * width_];
    int64_t ss = 0;
    for (uint32_t c = 0; c < width_; ++c) ss = WrapAdd(ss, WrapMul(p[c], p[c]));
    return ss;
  }

 private:
  uint32_t depth_;
  uint32_t width_;
  std::vector<int64_t> cells_;
};

}  // namespace castream

#endif  // CASTREAM_SKETCH_COUNTER_MATRIX_H_
