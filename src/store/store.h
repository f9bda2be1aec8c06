#ifndef AUTOCAT_STORE_STORE_H_
#define AUTOCAT_STORE_STORE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/executor.h"
#include "storage/columnar.h"
#include "storage/table.h"
#include "store/buffer_manager.h"
#include "store/format.h"

namespace autocat {

/// A read-only view of a segment store file: the file is mapped once,
/// the catalog parsed and validated, and each table exposed as a
/// column-backed `Table` over the arrays `ColumnarTable::Build` would
/// derive from its rows: null bitmaps, values and codes are zero-copy
/// spans into the mapping, dictionaries and zones are read, and posting
/// lists are derived at OpenTable (string columns in parallel). The
/// mapping is shared: every opened table keeps it alive, so the store
/// object itself may be dropped.
///
/// All validation that protects the kernels happens here, at open —
/// dictionary order, code ranges, bitmap sizes and popcounts, region
/// sizes, zone valid counts — so query-time reads can be unchecked
/// spans. Rank codes and zone extrema are trusted as written.
class SegmentStore {
 public:
  /// Maps and validates `path`. Corrupt files return kParseError;
  /// truncated mappings never fault (every region is bounds-checked
  /// through the BufferManager).
  static Result<SegmentStore> Open(const std::string& path);

  std::vector<std::string> TableNames() const;
  const StoreCatalog& catalog() const { return catalog_; }
  const BufferManager& buffers() const { return *buffers_; }

  /// Opens one table as a column-backed Table (see Table::FromColumnar).
  Result<Table> OpenTable(const std::string& name) const;

 private:
  SegmentStore() = default;

  std::shared_ptr<const MappedFile> file_;
  std::shared_ptr<BufferManager> buffers_;
  StoreCatalog catalog_;
};

/// Opens the store at `path` and registers every table it holds into
/// `db` (column-backed, zero-copy). Fails without modifying `db` on a
/// corrupt store or a name collision.
Status AttachStoreTables(const std::string& path, Database* db);

}  // namespace autocat

#endif  // AUTOCAT_STORE_STORE_H_
