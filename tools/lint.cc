#include "tools/lint.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <utility>

namespace autocat::lint {

namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string line;
  std::istringstream in(content);
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

// True when raw line `i` (or the contiguous comment block directly above
// it) carries an `atomic-order:` comment documenting the protocol.
bool HasAtomicOrderComment(const std::vector<std::string>& lines, size_t i) {
  if (lines[i].find("atomic-order:") != std::string::npos) {
    return true;
  }
  for (size_t j = i; j-- > 0;) {
    const std::string t = Trim(lines[j]);
    const bool is_comment = StartsWith(t, "//") || StartsWith(t, "/*") ||
                            StartsWith(t, "*");
    if (!is_comment) {
      break;
    }
    if (t.find("atomic-order:") != std::string::npos) {
      return true;
    }
  }
  return false;
}

// Matches a RAII guard construction and captures its lock argument list:
// `MutexLock lock(mu_);`, `const WriterLock l(state_mu_);`,
// `std::lock_guard<std::mutex> g(m);`, `std::scoped_lock l(a, b);`.
const std::regex& GuardCtorRegex() {
  static const std::regex kGuard(
      R"(\b(?:MutexLock|WriterLock|ReaderLock|std::lock_guard\s*<[^<>]*>|std::unique_lock\s*<[^<>]*>|std::shared_lock\s*<[^<>]*>|std::scoped_lock(?:\s*<[^<>]*>)?)\s+[A-Za-z_]\w*\s*\(([^()]*)\))");
  return kGuard;
}

// Normalizes one lock-argument token: whitespace removed, leading `&` and
// `this->` stripped, so `this->mu_` and `mu_` compare equal.
std::string NormalizeLockToken(const std::string& raw) {
  std::string t;
  t.reserve(raw.size());
  for (char c : raw) {
    if (c != ' ' && c != '\t') {
      t += c;
    }
  }
  while (!t.empty() && (t.front() == '&' || t.front() == '*')) {
    t.erase(t.begin());
  }
  if (StartsWith(t, "this->")) {
    t = t.substr(6);
  }
  return t;
}

// Brace-nesting tracker that does not count namespace braces, so
// function signatures, constructor init lists, and other file-scope lines
// sit at depth 0 however deeply the namespaces nest.
struct BraceState {
  int depth = 0;             // non-namespace brace depth
  std::vector<char> kinds;   // 'n' = namespace brace, 'b' = other

  // Advances over code[0, upto); pass npos to process the whole line.
  void Advance(const std::string& code, size_t upto = std::string::npos) {
    static const std::regex kNamespaceTail(
        R"((^|[^\w])namespace(\s+[A-Za-z_]\w*)?\s*$)");
    const size_t end = std::min(upto, code.size());
    for (size_t i = 0; i < end; ++i) {
      if (code[i] == '{') {
        const std::string prefix = code.substr(0, i);
        const bool ns = std::regex_search(prefix, kNamespaceTail);
        kinds.push_back(ns ? 'n' : 'b');
        if (!ns) {
          ++depth;
        }
      } else if (code[i] == '}') {
        char kind = 'b';
        if (!kinds.empty()) {
          kind = kinds.back();
          kinds.pop_back();
        }
        if (kind == 'b' && depth > 0) {
          --depth;
        }
      }
    }
  }

  // Depth at column `col` of `code`, without mutating this state.
  int DepthAt(const std::string& code, size_t col) const {
    BraceState copy = *this;
    copy.Advance(code, col);
    return copy.depth;
  }
};

// Splits a guard's argument list into normalized lock tokens (scoped_lock
// takes several; adopt/defer tags are filtered by the declared-order
// membership test downstream).
std::vector<std::string> SplitLockArgs(const std::string& args) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : args) {
    if (c == ',') {
      tokens.push_back(NormalizeLockToken(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!Trim(current).empty()) {
    tokens.push_back(NormalizeLockToken(current));
  }
  return tokens;
}

}  // namespace

std::string LintIssue::ToString() const {
  std::string out = file;
  if (line > 0) {
    out += ":" + std::to_string(line);
  }
  out += ": [" + rule + "] " + message;
  return out;
}

bool IsSuppressed(const std::string& line, const std::string& rule) {
  return line.find("autocat-lint: allow(" + rule + ")") != std::string::npos;
}

std::string StripCommentsAndStrings(const std::string& line,
                                    bool* in_block_comment) {
  std::string out(line.size(), ' ');
  char in_quote = '\0';
  for (size_t i = 0; i < line.size(); ++i) {
    if (*in_block_comment) {
      if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
        *in_block_comment = false;
        ++i;
      }
      continue;
    }
    if (in_quote != '\0') {
      if (line[i] == '\\') {
        ++i;  // skip the escaped character
      } else if (line[i] == in_quote) {
        in_quote = '\0';
      }
      continue;
    }
    if (line[i] == '"' || line[i] == '\'') {
      in_quote = line[i];
      continue;
    }
    if (line[i] == '/' && i + 1 < line.size()) {
      if (line[i + 1] == '/') {
        break;  // rest of the line is a comment
      }
      if (line[i + 1] == '*') {
        *in_block_comment = true;
        ++i;
        continue;
      }
    }
    out[i] = line[i];
  }
  return out;
}

std::string ExpectedIncludeGuard(const std::string& rel_path) {
  std::string path = rel_path;
  if (StartsWith(path, "src/")) {
    path = path.substr(4);
  }
  std::string guard = "AUTOCAT_";
  for (char c : path) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      guard += static_cast<char>(
          std::toupper(static_cast<unsigned char>(c)));
    } else {
      guard += '_';
    }
  }
  guard += '_';
  return guard;
}

std::vector<LintIssue> CheckIncludeGuard(const std::string& rel_path,
                                         const std::string& content) {
  std::vector<LintIssue> issues;
  const std::string expected = ExpectedIncludeGuard(rel_path);
  const std::vector<std::string> lines = SplitLines(content);
  std::string ifndef_guard;
  size_t ifndef_line = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    static const std::regex kIfndef(R"(^\s*#ifndef\s+([A-Za-z0-9_]+)\s*$)");
    if (std::regex_match(lines[i], m, kIfndef)) {
      ifndef_guard = m[1];
      ifndef_line = i + 1;
      break;
    }
    // Anything other than blank lines and comments before the guard means
    // the file is not guard-first; tolerate those, stop at real code.
  }
  if (ifndef_guard.empty()) {
    issues.push_back(LintIssue{rel_path, 0, "include-guard",
                               "header has no #ifndef include guard "
                               "(expected " + expected + ")"});
    return issues;
  }
  if (ifndef_guard != expected) {
    issues.push_back(LintIssue{
        rel_path, ifndef_line, "include-guard",
        "guard '" + ifndef_guard + "' does not match path (expected '" +
            expected + "')"});
    return issues;
  }
  // The matching #define must directly follow.
  if (ifndef_line >= lines.size() ||
      !std::regex_match(lines[ifndef_line],
                        std::regex(R"(^\s*#define\s+)" + expected +
                                   R"(\s*$)"))) {
    issues.push_back(LintIssue{rel_path, ifndef_line + 1, "include-guard",
                               "#ifndef " + expected +
                                   " is not followed by its #define"});
  }
  return issues;
}

std::vector<LintIssue> CheckBannedCalls(const std::string& rel_path,
                                        const std::string& content) {
  std::vector<LintIssue> issues;
  if (StartsWith(rel_path, "src/common/")) {
    return issues;  // the common layer implements the sanctioned wrappers
  }
  static const std::regex kBanned(
      R"((^|[^A-Za-z0-9_:])((?:std::)?(?:assert|abort|rand|srand))\s*\()");
  const std::vector<std::string> lines = SplitLines(content);
  bool in_block_comment = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string code = StripCommentsAndStrings(lines[i],
                                                     &in_block_comment);
    if (IsSuppressed(lines[i], "banned-call")) {
      continue;
    }
    std::smatch m;
    if (std::regex_search(code, m, kBanned)) {
      issues.push_back(LintIssue{
          rel_path, i + 1, "banned-call",
          "call to '" + m[2].str() +
              "' outside src/common; use AUTOCAT_CHECK* / common/random.h"});
    }
  }
  return issues;
}

std::vector<LintIssue> CheckRawThread(const std::string& rel_path,
                                      const std::string& content) {
  std::vector<LintIssue> issues;
  if (StartsWith(rel_path, "src/common/thread_pool.")) {
    return issues;  // the one sanctioned home of raw threads
  }
  static const std::regex kRawThread(
      R"(^\s*#\s*include\s*<thread>|std::j?thread\b)");
  const std::vector<std::string> lines = SplitLines(content);
  bool in_block_comment = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string code = StripCommentsAndStrings(lines[i],
                                                     &in_block_comment);
    if (IsSuppressed(lines[i], "raw-thread")) {
      continue;
    }
    if (std::regex_search(code, kRawThread)) {
      issues.push_back(LintIssue{
          rel_path, i + 1, "raw-thread",
          "raw std::thread use outside src/common/thread_pool.*; use "
          "ThreadPool / ParallelFor (common/thread_pool.h)"});
    }
  }
  return issues;
}

std::vector<LintIssue> CheckRawMmap(const std::string& rel_path,
                                    const std::string& content) {
  std::vector<LintIssue> issues;
  if (StartsWith(rel_path, "src/store/")) {
    return issues;  // MappedFile/BufferManager own the mapping lifecycle
  }
  // Call-shaped and word-bounded: the preceding character may not be an
  // identifier character, `.`, `>` (member access), or `:` (namespace
  // qualification other than the leading `::` the group itself eats), so
  // `f.open(`, `f->open(`, `fopen(`, and `is_open(` never match while
  // `open(`, `::open(`, and `mmap(` do.
  static const std::regex kRawMmap(
      R"((^|[^A-Za-z0-9_.>:])((?:::)?(?:mmap|munmap|msync|ftruncate|open))\s*\()");
  const std::vector<std::string> lines = SplitLines(content);
  bool in_block_comment = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string code = StripCommentsAndStrings(lines[i],
                                                     &in_block_comment);
    if (IsSuppressed(lines[i], "raw-mmap")) {
      continue;
    }
    std::smatch m;
    if (std::regex_search(code, m, kRawMmap)) {
      issues.push_back(LintIssue{
          rel_path, i + 1, "raw-mmap",
          "raw '" + m[2].str() +
              "' call outside src/store/; the open/ftruncate/mmap "
              "lifecycle lives behind MappedFile / BufferManager "
              "(store/mapped_file.h)"});
    }
  }
  return issues;
}

std::vector<LintIssue> CheckRawSimd(const std::string& rel_path,
                                    const std::string& content) {
  std::vector<LintIssue> issues;
  // Any of: the intrinsics header, a vector register type (__m128/256/512
  // with any element suffix), or a call-shaped _mm[256|512]_* intrinsic.
  // Word-bounded on the left so identifiers like `x__m256` or
  // `my_mm256_helper(` never match.
  static const std::regex kRawSimd(
      R"(^\s*#\s*include\s*<(?:immintrin|x86intrin|emmintrin|smmintrin|avx2?intrin)\.h>|(^|[^A-Za-z0-9_])(__m(?:128|256|512)[a-z]*\b|_mm(?:256|512)?_[A-Za-z0-9_]+\s*\())");
  const std::vector<std::string> lines = SplitLines(content);
  bool in_block_comment = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string code = StripCommentsAndStrings(lines[i],
                                                     &in_block_comment);
    if (IsSuppressed(lines[i], "raw-simd")) {
      continue;
    }
    if (std::regex_search(code, kRawSimd)) {
      issues.push_back(LintIssue{
          rel_path, i + 1, "raw-simd",
          "raw SIMD intrinsic; the filter has one scalar implementation "
          "per leaf and no vector kernels, so intrinsics are allowed "
          "nowhere"});
    }
  }
  return issues;
}

std::vector<LintIssue> CheckDirectParallelFor(const std::string& rel_path,
                                              const std::string& content) {
  std::vector<LintIssue> issues;
  if (!StartsWith(rel_path, "src/exec/") &&
      !StartsWith(rel_path, "src/serve/")) {
    return issues;  // other layers keep their direct ParallelFor calls
  }
  if (rel_path == "src/exec/pipeline/scheduler.cc") {
    return issues;  // the one sanctioned dispatch point
  }
  // Word-bounded and call-shaped: `RunParallelFor(`, `pool.ParallelFor(`,
  // and `ThreadPool::ParallelFor(` do not match (preceding identifier
  // character, `.`, `>`, or `:` outside the qualifier the group itself
  // eats); the free-function call — bare, `::`-, or
  // `autocat::`-qualified — does.
  static const std::regex kDirectParallelFor(
      R"((^|[^A-Za-z0-9_.>:])((?:::|autocat::)?ParallelFor)\s*\()");
  const std::vector<std::string> lines = SplitLines(content);
  bool in_block_comment = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string code = StripCommentsAndStrings(lines[i],
                                                     &in_block_comment);
    if (IsSuppressed(lines[i], "direct-parallel-for")) {
      continue;
    }
    if (std::regex_search(code, kDirectParallelFor)) {
      issues.push_back(LintIssue{
          rel_path, i + 1, "direct-parallel-for",
          "direct ParallelFor call outside "
          "src/exec/pipeline/scheduler.cc; exec/serve code drives "
          "parallel work through the morsel scheduler "
          "(RunMorselPipeline)"});
    }
  }
  return issues;
}

std::vector<LintIssue> CheckUnorderedContainer(const std::string& rel_path,
                                               const std::string& content) {
  std::vector<LintIssue> issues;
  if (!StartsWith(rel_path, "src/serve/")) {
    return issues;  // the determinism requirement is the serving layer's
  }
  static const std::regex kUnordered(
      R"(^\s*#\s*include\s*<unordered_(?:map|set)>|std::unordered_(?:multi)?(?:map|set)\b)");
  const std::vector<std::string> lines = SplitLines(content);
  bool in_block_comment = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string code = StripCommentsAndStrings(lines[i],
                                                     &in_block_comment);
    if (IsSuppressed(lines[i], "unordered-container")) {
      continue;
    }
    if (std::regex_search(code, kUnordered)) {
      issues.push_back(LintIssue{
          rel_path, i + 1, "unordered-container",
          "hash-ordered container in src/serve/; cache keys and metrics "
          "snapshots must be iteration-order deterministic — use std::map "
          "/ std::set"});
    }
  }
  return issues;
}

std::set<std::string> CollectStatusFunctions(const std::string& content) {
  std::set<std::string> names;
  // Declarations whose return type opens the line: `Status Foo(`,
  // `Result<...> Foo(`, optionally static/virtual/inline-qualified.
  static const std::regex kDecl(
      R"(^\s*(?:static\s+|virtual\s+|inline\s+)*(?:Status|Result<.*>)\s+([A-Za-z_][A-Za-z0-9_]*)\()");
  bool in_block_comment = false;
  for (const std::string& line : SplitLines(content)) {
    const std::string code = StripCommentsAndStrings(line,
                                                     &in_block_comment);
    std::smatch m;
    if (std::regex_search(code, m, kDecl)) {
      names.insert(m[1]);
    }
  }
  return names;
}

std::vector<LintIssue> CheckDroppedStatus(
    const std::string& rel_path, const std::string& content,
    const std::set<std::string>& status_functions) {
  std::vector<LintIssue> issues;
  const std::vector<std::string> lines = SplitLines(content);
  bool in_block_comment = false;
  // A bare call statement: optional receiver, a known name, arguments,
  // then `;` — all on one line.
  static const std::regex kCallStmt(
      R"(^\s*(?:[A-Za-z_][A-Za-z0-9_]*(?:\.|->))?([A-Za-z_][A-Za-z0-9_]*)\(.*\)\s*;\s*$)");
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string code = StripCommentsAndStrings(lines[i],
                                                     &in_block_comment);
    if (IsSuppressed(lines[i], "dropped-status")) {
      continue;
    }
    std::smatch m;
    if (!std::regex_match(code, m, kCallStmt)) {
      continue;
    }
    // A continuation line of a multi-line expression (e.g. the last
    // argument of AUTOCAT_ASSIGN_OR_RETURN(..., Foo(x)); ) can look like
    // a bare call but closes parens opened on earlier lines; a genuine
    // single-statement call balances its parentheses on its own line.
    const auto opens = std::count(code.begin(), code.end(), '(');
    const auto closes = std::count(code.begin(), code.end(), ')');
    if (opens != closes) {
      continue;
    }
    const std::string name = m[1];
    if (status_functions.count(name) == 0) {
      continue;
    }
    // Anything that consumes the value disqualifies the match; the regex
    // above already excludes `x = Foo();`, `return Foo();`, `if (Foo())`
    // because they don't start with the call. Declarations like
    // `Status s;` don't match the call shape either.
    issues.push_back(LintIssue{
        rel_path, i + 1, "dropped-status",
        "return value of '" + name +
            "' (Status/Result) is discarded; check it or cast to (void)"});
  }
  return issues;
}

bool InConcurrencyScope(const std::string& rel_path) {
  return StartsWith(rel_path, "src/serve/") ||
         StartsWith(rel_path, "src/exec/") ||
         StartsWith(rel_path, "src/common/");
}

std::vector<LintIssue> CheckUnannotatedSync(const std::string& rel_path,
                                            const std::string& content) {
  std::vector<LintIssue> issues;
  if (!InConcurrencyScope(rel_path) || rel_path == "src/common/mutex.h") {
    return issues;  // mutex.h implements the sanctioned wrappers
  }
  static const std::regex kRawSync(
      R"(^\s*#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>|std::(?:recursive_timed_mutex|recursive_mutex|shared_timed_mutex|timed_mutex|shared_mutex|mutex)\b|std::condition_variable(?:_any)?\b)");
  static const std::regex kAtomicDecl(R"(std::atomic(?:\s*<|_flag\b))");
  const std::vector<std::string> lines = SplitLines(content);
  bool in_block_comment = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string code = StripCommentsAndStrings(lines[i],
                                                     &in_block_comment);
    if (IsSuppressed(lines[i], "unannotated-sync")) {
      continue;
    }
    if (std::regex_search(code, kRawSync)) {
      issues.push_back(LintIssue{
          rel_path, i + 1, "unannotated-sync",
          "raw std synchronization primitive in the annotated tree; use "
          "the capability-annotated Mutex / SharedMutex / CondVar "
          "(common/mutex.h)"});
    }
    if (std::regex_search(code, kAtomicDecl) &&
        !HasAtomicOrderComment(lines, i)) {
      issues.push_back(LintIssue{
          rel_path, i + 1, "unannotated-sync",
          "std::atomic without an `// atomic-order:` comment documenting "
          "the memory-order protocol (same line or the block above)"});
    }
  }
  return issues;
}

std::vector<LintIssue> CheckManualLock(const std::string& rel_path,
                                       const std::string& content) {
  std::vector<LintIssue> issues;
  if (!InConcurrencyScope(rel_path) || rel_path == "src/common/mutex.h") {
    return issues;  // mutex.h wraps the native calls inside the RAII types
  }
  static const std::regex kManual(
      R"((?:\.|->)\s*(?:try_lock_shared|lock_shared|unlock_shared|try_lock|unlock|lock)\s*\(\s*\))");
  const std::vector<std::string> lines = SplitLines(content);
  bool in_block_comment = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string code = StripCommentsAndStrings(lines[i],
                                                     &in_block_comment);
    if (IsSuppressed(lines[i], "manual-lock")) {
      continue;
    }
    for (auto it = std::sregex_iterator(code.begin(), code.end(), kManual);
         it != std::sregex_iterator(); ++it) {
      issues.push_back(LintIssue{
          rel_path, i + 1, "manual-lock",
          "manual lock()/unlock() call; locking is RAII-only — use "
          "MutexLock / ReaderLock / WriterLock (common/mutex.h)"});
    }
  }
  return issues;
}

std::vector<LintIssue> CheckAtomicOrder(const std::string& rel_path,
                                        const std::string& content) {
  std::vector<LintIssue> issues;
  if (!InConcurrencyScope(rel_path)) {
    return issues;
  }
  static const std::regex kAtomicOp(
      R"((?:\.|->)\s*(?:compare_exchange_weak|compare_exchange_strong|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|exchange|load|store)\s*\()");
  const std::vector<std::string> lines = SplitLines(content);
  std::vector<std::string> code(lines.size());
  bool in_block_comment = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    code[i] = StripCommentsAndStrings(lines[i], &in_block_comment);
  }
  for (size_t i = 0; i < code.size(); ++i) {
    if (IsSuppressed(lines[i], "atomic-order")) {
      continue;
    }
    for (auto it = std::sregex_iterator(code[i].begin(), code[i].end(),
                                        kAtomicOp);
         it != std::sregex_iterator(); ++it) {
      // Collect the argument list from the opening paren, balancing
      // parentheses across at most four continuation lines.
      std::string args;
      int balance = 0;
      bool closed = false;
      size_t row = i;
      size_t col = static_cast<size_t>(it->position()) + it->length() - 1;
      for (size_t spanned = 0; spanned < 5 && !closed; ++spanned, ++row) {
        if (row >= code.size()) {
          break;
        }
        const std::string& text = code[row];
        for (size_t c = (row == i) ? col : 0; c < text.size(); ++c) {
          if (text[c] == '(') {
            ++balance;
          } else if (text[c] == ')') {
            if (--balance == 0) {
              closed = true;
              break;
            }
          }
          if (balance > 0) {
            args += text[c];
          }
        }
      }
      if (args.find("memory_order") == std::string::npos) {
        issues.push_back(LintIssue{
            rel_path, i + 1, "atomic-order",
            "atomic operation without an explicit std::memory_order "
            "argument; the default seq_cst hides the protocol — spell "
            "the order (see the member's atomic-order: comment)"});
      }
    }
  }
  return issues;
}

std::vector<std::string> ParseLockOrder(const std::string& content) {
  std::vector<std::string> order;
  for (const std::string& line : SplitLines(content)) {
    std::string t = Trim(line);
    const size_t hash = t.find('#');
    if (hash != std::string::npos) {
      t = Trim(t.substr(0, hash));
    }
    if (t.empty()) {
      continue;
    }
    order.push_back(NormalizeLockToken(t));
  }
  return order;
}

std::vector<LintIssue> CheckLockOrder(
    const std::string& rel_path, const std::string& content,
    const std::vector<std::string>& declared_order) {
  std::vector<LintIssue> issues;
  if (declared_order.empty()) {
    return issues;
  }
  auto rank = [&declared_order](const std::string& token) -> int {
    for (size_t i = 0; i < declared_order.size(); ++i) {
      if (declared_order[i] == token) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  const std::vector<std::string> lines = SplitLines(content);
  bool in_block_comment = false;
  BraceState braces;
  // Guards currently in scope: (lock token, brace depth of the block the
  // guard lives in). Popped when the block closes.
  std::vector<std::pair<std::string, int>> held;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string code = StripCommentsAndStrings(lines[i],
                                                     &in_block_comment);
    const bool suppressed = IsSuppressed(lines[i], "lock-order");
    for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                        GuardCtorRegex());
         it != std::sregex_iterator(); ++it) {
      // Depth where this guard is constructed: the running depth plus the
      // braces opened earlier on this line.
      const int at =
          braces.DepthAt(code, static_cast<size_t>(it->position()));
      for (const std::string& token : SplitLockArgs((*it)[1].str())) {
        const int new_rank = rank(token);
        if (new_rank < 0) {
          continue;  // not a declared lock (adopt tags, unknown locals)
        }
        if (!suppressed) {
          for (const auto& [held_token, held_depth] : held) {
            (void)held_depth;
            const int held_rank = rank(held_token);
            if (held_rank > new_rank) {
              issues.push_back(LintIssue{
                  rel_path, i + 1, "lock-order",
                  "acquires '" + token + "' while '" + held_token +
                      "' is held, inverting the declared order "
                      "(tools/lock_order.txt puts '" + token + "' first)"});
            }
          }
        }
        held.emplace_back(token, at);
      }
    }
    braces.Advance(code);
    while (!held.empty() && held.back().second > braces.depth) {
      held.pop_back();
    }
  }
  return issues;
}

std::set<std::string> CollectGuardedFields(const std::string& content) {
  std::set<std::string> fields;
  static const std::regex kGuardedDecl(
      R"(([A-Za-z_]\w*)\s+AUTOCAT_GUARDED_BY\s*\()");
  bool in_block_comment = false;
  for (const std::string& line : SplitLines(content)) {
    const std::string code = StripCommentsAndStrings(line,
                                                     &in_block_comment);
    if (StartsWith(Trim(code), "#")) {
      continue;  // the macro definitions themselves
    }
    std::smatch m;
    if (std::regex_search(code, m, kGuardedDecl)) {
      fields.insert(m[1]);
    }
  }
  return fields;
}

std::vector<LintIssue> CheckGuardedRead(
    const std::string& rel_path, const std::string& content,
    const std::set<std::string>& guarded_fields) {
  std::vector<LintIssue> issues;
  if (!InConcurrencyScope(rel_path) || guarded_fields.empty()) {
    return issues;
  }
  // An annotation that proves the lock is held for the whole function
  // body it opens (REQUIRES and ACQUIRE in their exclusive and _SHARED
  // forms; RELEASE-annotated functions hold the lock on entry).
  static const std::regex kProtection(
      R"(AUTOCAT_(?:REQUIRES(?:_SHARED)?|ACQUIRE(?:_SHARED)?|RELEASE|ASSERT_CAPABILITY|NO_THREAD_SAFETY_ANALYSIS)\b)");
  const std::vector<std::string> lines = SplitLines(content);
  bool in_block_comment = false;
  BraceState braces;
  // Brace depths of blocks protected by a live RAII guard or an
  // annotated function body; non-empty == the current line is protected.
  std::vector<int> protected_depths;
  // A protection annotation was seen on a signature line that has not
  // opened its body yet (multi-line signatures).
  bool pending_protection = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string code = StripCommentsAndStrings(lines[i],
                                                     &in_block_comment);
    const int depth = braces.depth;
    const int depth_after = braces.DepthAt(code, std::string::npos);
    const bool has_protection = std::regex_search(code, kProtection);
    const bool has_guard_ctor = std::regex_search(code, GuardCtorRegex());
    const bool declares = code.find("AUTOCAT_GUARDED_BY") !=
                          std::string::npos;
    const bool exempt = has_protection || has_guard_ctor || declares ||
                        depth == 0 ||
                        StartsWith(Trim(code), "#") ||
                        IsSuppressed(lines[i], "guarded-read");
    if (!exempt && protected_depths.empty()) {
      for (const std::string& field : guarded_fields) {
        const std::regex kField("\\b" + field + "\\b");
        bool flagged = false;
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            kField);
             it != std::sregex_iterator() && !flagged; ++it) {
          const size_t pos = static_cast<size_t>(it->position());
          size_t j = pos;
          while (j > 0 && (code[j - 1] == ' ' || code[j - 1] == '\t')) {
            --j;
          }
          const bool member_access =
              (j > 0 && code[j - 1] == '.') ||
              (j > 1 && code[j - 2] == '-' && code[j - 1] == '>');
          if (member_access || (!field.empty() && field.back() == '_')) {
            issues.push_back(LintIssue{
                rel_path, i + 1, "guarded-read",
                "guarded field '" + field + "' accessed outside a RAII "
                "guard scope or AUTOCAT_REQUIRES-annotated function"});
            flagged = true;
          }
        }
      }
    }
    // Track protection scopes: an annotated signature that opens its
    // body on this (or a later) line protects everything until the body
    // closes; a RAII guard protects the rest of its block.
    if (has_protection || pending_protection) {
      if (depth_after > depth) {
        protected_depths.push_back(depth_after);
        pending_protection = false;
      } else if (code.find(';') != std::string::npos) {
        pending_protection = false;  // a declaration, not a definition
      } else {
        pending_protection = true;  // signature continues on next line
      }
    }
    if (has_guard_ctor) {
      std::smatch m;
      int at = depth;
      if (std::regex_search(code, m, GuardCtorRegex())) {
        at = braces.DepthAt(code, static_cast<size_t>(m.position()));
      }
      protected_depths.push_back(std::max(at, depth_after));
    }
    braces.Advance(code);
    while (!protected_depths.empty() &&
           protected_depths.back() > braces.depth) {
      protected_depths.pop_back();
    }
  }
  return issues;
}

std::vector<LintIssue> LintFileContent(const std::string& rel_path,
                                       const std::string& content,
                                       const LintContext& context) {
  std::vector<LintIssue> issues;
  auto append = [&issues](std::vector<LintIssue> more) {
    issues.insert(issues.end(), more.begin(), more.end());
  };
  if (EndsWith(rel_path, ".h")) {
    append(CheckIncludeGuard(rel_path, content));
  }
  append(CheckBannedCalls(rel_path, content));
  append(CheckRawMmap(rel_path, content));
  append(CheckRawSimd(rel_path, content));
  append(CheckDirectParallelFor(rel_path, content));
  append(CheckRawThread(rel_path, content));
  append(CheckUnorderedContainer(rel_path, content));
  append(CheckDroppedStatus(rel_path, content, context.status_functions));
  append(CheckUnannotatedSync(rel_path, content));
  append(CheckManualLock(rel_path, content));
  append(CheckAtomicOrder(rel_path, content));
  append(CheckLockOrder(rel_path, content, context.lock_order));
  append(CheckGuardedRead(rel_path, content, context.guarded_fields));
  return issues;
}

namespace {

// `src/serve/cache.cc` -> `src/serve/cache`, pairing a .h with its .cc
// for the guarded-field harvest.
std::string PairStem(const std::string& rel_path) {
  const size_t dot = rel_path.find_last_of('.');
  const size_t slash = rel_path.find_last_of('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return rel_path;
  }
  return rel_path.substr(0, dot);
}

}  // namespace

bool LintFiles(const std::string& root, const std::vector<std::string>& files,
               const std::vector<std::string>& lock_order,
               std::vector<LintIssue>* issues) {
  std::vector<std::pair<std::string, std::string>> loaded;
  loaded.reserve(files.size());
  for (const std::string& rel : files) {
    std::ifstream in(root + "/" + rel);
    if (!in) {
      issues->push_back(
          LintIssue{rel, 0, "io", "cannot read file under root " + root});
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    loaded.emplace_back(rel, buffer.str());
  }
  // Pass 1: harvest Status/Result-returning declarations from headers and
  // guarded fields per .h/.cc pair.
  LintContext context;
  context.lock_order = lock_order;
  std::map<std::string, std::set<std::string>> guarded_by_stem;
  for (const auto& [rel, content] : loaded) {
    if (EndsWith(rel, ".h")) {
      for (const std::string& name : CollectStatusFunctions(content)) {
        context.status_functions.insert(name);
      }
    }
    if (InConcurrencyScope(rel)) {
      std::set<std::string>& fields = guarded_by_stem[PairStem(rel)];
      for (const std::string& f : CollectGuardedFields(content)) {
        fields.insert(f);
      }
    }
  }
  // Pass 2: lint every file against its pair's guarded fields.
  for (const auto& [rel, content] : loaded) {
    const auto it = guarded_by_stem.find(PairStem(rel));
    context.guarded_fields = it == guarded_by_stem.end()
                                 ? std::set<std::string>{}
                                 : it->second;
    auto file_issues = LintFileContent(rel, content, context);
    issues->insert(issues->end(), file_issues.begin(), file_issues.end());
  }
  return true;
}

}  // namespace autocat::lint
