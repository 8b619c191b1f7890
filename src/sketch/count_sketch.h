// CountSketch (Charikar-Chen-Farach-Colton [8]): per-item frequency
// estimation with additive error ~sqrt(F2/width). Used by the correlated
// F2-heavy-hitters structure of Section 3.3, where every dyadic bucket
// carries a CountSketch alongside its AMS sketch, and by FkSketch.
//
// With single-counter rows a CountSketch is the same data structure as the
// AMS sketch, so the type is AmsF2Sketch (ams_f2.h): its
// EstimateFrequency(x) is the CountSketch point query, and its Estimate()
// gives the F2 noise scale of those answers. What this header adds is the
// factory: CountSketch dimensioning, and a wire format without the AMS net
// count.
#ifndef CASTREAM_SKETCH_COUNT_SKETCH_H_
#define CASTREAM_SKETCH_COUNT_SKETCH_H_

#include <cstdint>

#include "src/common/result.h"
#include "src/io/decoder.h"
#include "src/io/encoder.h"
#include "src/sketch/ams_f2.h"
#include "src/sketch/sketch_params.h"

namespace castream {

using CountSketch = AmsF2Sketch;

/// \brief Factory of CountSketches. Its blobs (inside every 'hh' blob) hold
/// the cells alone, so a sketch it decodes reports NetCount() == 0.
class CountSketchFactory : public SignedCounterFamily<CountSketchFactory> {
 public:
  CountSketchFactory(SketchDims dims, uint64_t seed)
      : SignedCounterFamily(dims, seed) {}

  CountSketchFactory(double eps, double delta, uint64_t seed)
      : CountSketchFactory(CountSketchDimsFor(eps, delta), seed) {}

  void EncodeSketch(io::Encoder& enc, const CountSketch& sketch) const {
    EncodeCells(enc, sketch);
  }
  [[nodiscard]] Result<CountSketch> DecodeSketch(io::Decoder& dec) const {
    return DecodeCells(dec, /*net_count=*/0);
  }
};

}  // namespace castream

#endif  // CASTREAM_SKETCH_COUNT_SKETCH_H_
