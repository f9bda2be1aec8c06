#ifndef AUTOCAT_TOOLS_LINT_H_
#define AUTOCAT_TOOLS_LINT_H_

#include <set>
#include <string>
#include <vector>

/// Repo-specific lint rules for the autocat tree (see DESIGN.md,
/// "Correctness tooling"). The rules are deliberately textual: they are a
/// greppable backstop behind the compiler-level enforcement
/// ([[nodiscard]], AUTOCAT_WERROR), not a C++ front-end. Each rule can be
/// suppressed on a specific line with `// autocat-lint: allow(<rule>)`.
namespace autocat::lint {

/// One rule violation. `line` is 1-based; 0 means the whole file.
struct LintIssue {
  std::string file;
  size_t line = 0;
  std::string rule;
  std::string message;

  /// "file:line: [rule] message" (line omitted when 0).
  std::string ToString() const;
};

/// Rule `include-guard`: a header's #ifndef/#define guard must be derived
/// from its repo-relative path — `AUTOCAT_<PATH>_H_` with the leading
/// `src/` stripped, uppercased, and `/` and `.` mapped to `_` (e.g.
/// src/core/category.h -> AUTOCAT_CORE_CATEGORY_H_). Returns the guard
/// expected for `rel_path`.
std::string ExpectedIncludeGuard(const std::string& rel_path);

/// Checks rule `include-guard` on a header's `content`.
std::vector<LintIssue> CheckIncludeGuard(const std::string& rel_path,
                                         const std::string& content);

/// Rule `banned-call`: `assert(`, `abort(`, `std::rand`, `rand(`, and
/// `srand(` may appear only under src/common — everything else must use
/// AUTOCAT_CHECK* (which prints file/line and values) and common/random.h
/// (seeded, reproducible). Comment and string contents are ignored.
std::vector<LintIssue> CheckBannedCalls(const std::string& rel_path,
                                        const std::string& content);

/// Rule `raw-thread`: `std::thread`, `std::jthread`, and `#include
/// <thread>` may appear only in src/common/thread_pool.{h,cc} — every
/// other layer must go through ThreadPool / ParallelFor, which carry the
/// determinism and Status-error contracts raw threads lack. Comment and
/// string contents are ignored.
std::vector<LintIssue> CheckRawThread(const std::string& rel_path,
                                      const std::string& content);

/// Rule `unordered-container`: `std::unordered_map`, `std::unordered_set`
/// (and their multi variants), and `#include <unordered_map|set>` may not
/// appear under src/serve/ — the serving layer's cache keys, metrics JSON,
/// and response payloads must not depend on hash-iteration order, which
/// varies across standard libraries and would break the deterministic
/// snapshot guarantees. Use std::map / std::set. Comment and string
/// contents are ignored.
std::vector<LintIssue> CheckUnorderedContainer(const std::string& rel_path,
                                               const std::string& content);

/// Rule `raw-mmap`: the raw file-mapping syscalls — `mmap(`, `munmap(`,
/// `msync(`, `ftruncate(`, and POSIX `open(` — may appear only under
/// src/store/, where MappedFile owns the fd/mapping lifecycle (bounds,
/// grow-remap, cleanup-on-error). Everywhere else must go through
/// MappedFile / BufferManager (store/mapped_file.h) or iostreams. The
/// match is word-bounded and call-shaped: member opens (`f.open(`,
/// `f->open(`), `fopen(`, `is_open(`, and capitalized `Open(` methods do
/// not count. Comment and string contents are ignored.
std::vector<LintIssue> CheckRawMmap(const std::string& rel_path,
                                    const std::string& content);

/// Rule `raw-simd`: raw vector intrinsics — the intrinsics headers
/// (`<immintrin.h>` and friends), the `__m128/__m256/__m512` register
/// types, and call-shaped `_mm*_`/`_mm256_`/`_mm512_` intrinsics — may
/// appear nowhere. Every filter leaf has one scalar implementation
/// (exec/kernels.cc), no TU is compiled for a wider ISA, and intrinsics
/// would target the baseline one (or fail to compile on other arches).
/// The match is word-bounded on the left, so `x__m256` or
/// `my_mm256_helper(` never count. Comment and string contents are
/// ignored.
std::vector<LintIssue> CheckRawSimd(const std::string& rel_path,
                                    const std::string& content);

/// Rule `direct-parallel-for`: a direct `ParallelFor(` call under
/// src/exec/ or src/serve/ outside the one sanctioned TU,
/// src/exec/pipeline/scheduler.cc. Operator and serving code must drive
/// parallel work through the morsel scheduler (RunMorselPipeline), which
/// owns grain choice and the chunk-ordered-merge determinism contract —
/// a stray ParallelFor reintroduces the per-stage barriers the pipeline
/// removed. The match is word-bounded and call-shaped, so
/// `RunParallelFor(` and mentions in comments or strings do not count.
/// Other layers (core/, workload/, store/) keep their direct calls.
std::vector<LintIssue> CheckDirectParallelFor(const std::string& rel_path,
                                              const std::string& content);

/// Harvests names of functions declared to return `Status` or
/// `Result<...>` from a header's `content` (declaration-at-line-start
/// heuristic), for use with CheckDroppedStatus.
std::set<std::string> CollectStatusFunctions(const std::string& content);

/// Rule `dropped-status`: flags single-line expression statements that
/// call a function from `status_functions` and visibly discard the
/// returned Status/Result (no assignment, return, branch condition, test
/// macro, or (void) cast on the line). Heuristic by design — the
/// [[nodiscard]] attributes are the sound enforcement.
std::vector<LintIssue> CheckDroppedStatus(
    const std::string& rel_path, const std::string& content,
    const std::set<std::string>& status_functions);

/// True for files under the concurrency-annotated tree (src/serve/,
/// src/exec/, src/common/), where the capability-annotation rules below
/// apply. Everything else (sql/, core/, storage/, workload/, tools/) is
/// single-threaded by design and exempt.
bool InConcurrencyScope(const std::string& rel_path);

/// Rule `unannotated-sync`: in the annotated tree, raw `std::mutex` /
/// `std::shared_mutex` / `std::condition_variable` (and their timed /
/// recursive variants, plus the matching #includes) are banned — use the
/// capability-annotated wrappers in common/mutex.h, which the clang
/// thread-safety analysis understands. `std::atomic` members are allowed
/// but must carry an `// atomic-order:` comment (same line or the comment
/// block directly above) documenting the memory-order protocol.
/// common/mutex.h itself, which implements the wrappers, is exempt.
std::vector<LintIssue> CheckUnannotatedSync(const std::string& rel_path,
                                            const std::string& content);

/// Rule `manual-lock`: `.lock()` / `.unlock()` (and the try_ / _shared
/// variants) outside common/mutex.h — locking in the annotated tree is
/// RAII-only (MutexLock / ReaderLock / WriterLock), so a lock can never
/// leak past a scope and the acquire/release annotations stay paired.
std::vector<LintIssue> CheckManualLock(const std::string& rel_path,
                                       const std::string& content);

/// Rule `atomic-order`: atomic member-function calls (`.load(`,
/// `.store(`, `.fetch_*`, `.exchange(`, `.compare_exchange_*`) whose
/// argument list carries no explicit `std::memory_order` — the default
/// seq_cst hides the intended protocol and costs fences the documented
/// orders avoid. Every atomic access must spell its order.
std::vector<LintIssue> CheckAtomicOrder(const std::string& rel_path,
                                        const std::string& content);

/// Parses a declared lock order file: one lock token per line, outermost
/// first; blank lines and `#` comments ignored; whitespace inside a token
/// removed (so `shard . mu` == `shard.mu`).
std::vector<std::string> ParseLockOrder(const std::string& content);

/// Rule `lock-order`: tracks RAII guard constructions through each
/// function body (by brace depth) and flags an acquisition of a lock
/// token that `declared_order` places *before* a token already held —
/// a lexical inversion of the declared order (tools/lock_order.txt).
/// Tokens not in `declared_order` are ignored; the check is per-file and
/// lexical, the clang analysis (ACQUIRED_BEFORE) is the semantic layer.
std::vector<LintIssue> CheckLockOrder(
    const std::string& rel_path, const std::string& content,
    const std::vector<std::string>& declared_order);

/// Harvests field names declared with AUTOCAT_GUARDED_BY(...) on the
/// same line (the repo convention), for use with CheckGuardedRead.
std::set<std::string> CollectGuardedFields(const std::string& content);

/// Rule `guarded-read`: an occurrence of a guarded field (member-access
/// `x.field` / `x->field`, or any bare `field_`-style name) on a line
/// that is neither inside a live RAII guard scope nor inside a function
/// annotated AUTOCAT_REQUIRES / AUTOCAT_ACQUIRE / AUTOCAT_RELEASE /
/// AUTOCAT_NO_THREAD_SAFETY_ANALYSIS. `guarded_fields` is pair-scoped:
/// LintFiles harvests it from the file's own .h/.cc pair only, so field
/// names stay local to the component that declared them. Depth-0 lines
/// (signatures, constructor init lists) are exempt.
std::vector<LintIssue> CheckGuardedRead(
    const std::string& rel_path, const std::string& content,
    const std::set<std::string>& guarded_fields);

/// Strips `//` and `/*...*/` comments and string/char literal contents
/// from one line of code, preserving column positions with spaces.
/// `in_block_comment` carries /*...*/ state across lines.
std::string StripCommentsAndStrings(const std::string& line,
                                    bool* in_block_comment);

/// True when `line` carries an `// autocat-lint: allow(<rule>)`
/// suppression for `rule`.
bool IsSuppressed(const std::string& line, const std::string& rule);

/// Cross-file state the rules need, assembled by LintFiles' first pass
/// (or by hand in tests): Status/Result function names for
/// dropped-status, the declared lock order for lock-order, and the
/// guarded fields of the file's own .h/.cc pair for guarded-read.
struct LintContext {
  std::set<std::string> status_functions;
  std::vector<std::string> lock_order;
  std::set<std::string> guarded_fields;
};

/// Runs every applicable rule over one file's content. `rel_path` decides
/// which rules apply (headers get include-guard; src/common is exempt
/// from banned-call; the concurrency rules cover src/serve, src/exec,
/// and src/common).
std::vector<LintIssue> LintFileContent(const std::string& rel_path,
                                       const std::string& content,
                                       const LintContext& context);

/// Loads `root`-relative `files`, harvests Status/Result declarations
/// from every header and guarded fields per .h/.cc pair, lints each file
/// against `lock_order`, and appends issues. Returns false when any file
/// cannot be read.
bool LintFiles(const std::string& root, const std::vector<std::string>& files,
               const std::vector<std::string>& lock_order,
               std::vector<LintIssue>* issues);

}  // namespace autocat::lint

#endif  // AUTOCAT_TOOLS_LINT_H_
