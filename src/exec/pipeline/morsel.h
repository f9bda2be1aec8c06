#ifndef AUTOCAT_EXEC_PIPELINE_MORSEL_H_
#define AUTOCAT_EXEC_PIPELINE_MORSEL_H_

#include <cstddef>

#include "storage/columnar.h"

namespace autocat {

/// The scan work unit: a fixed-width span of base rows. 2048 rows is
/// the WHERE-kernel chunk width (masks and survivor arrays fit on the
/// stack, see exec/kernels.cc), so a morsel and a kernel chunk are the
/// same thing, and `CompiledPredicate::Filter` keys its per-chunk shards
/// by morsel index.
inline constexpr size_t kMorselRows = 2048;

// Zone-map entries (storage/columnar.h) are keyed by the same row span:
// zone z of a column describes exactly the rows of morsel z, so the zone
// prover indexes `Column::zones` with the morsel index directly.
static_assert(kMorselRows == kZoneRows,
              "morsel width and zone-map width must match");

/// Number of morsels covering an `n`-row relation.
inline size_t NumMorsels(size_t n) {
  return (n + kMorselRows - 1) / kMorselRows;
}

}  // namespace autocat

#endif  // AUTOCAT_EXEC_PIPELINE_MORSEL_H_
