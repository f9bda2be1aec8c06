// Unit tests for each autocat_lint rule (tools/lint.h): expected-guard
// derivation, banned-call detection with comment/string/suppression
// handling, Status/Result declaration harvesting, dropped-return
// detection, and end-to-end runs over the fixture trees in
// tests/lint_fixtures (pass/ must lint clean, fail/ must trip every
// rule).

#include "tools/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace autocat::lint {
namespace {

bool HasRule(const std::vector<LintIssue>& issues, const std::string& rule) {
  return std::any_of(issues.begin(), issues.end(),
                     [&](const LintIssue& i) { return i.rule == rule; });
}

TEST(IncludeGuardRuleTest, ExpectedGuardDerivation) {
  EXPECT_EQ(ExpectedIncludeGuard("src/core/category.h"),
            "AUTOCAT_CORE_CATEGORY_H_");
  EXPECT_EQ(ExpectedIncludeGuard("src/autocat.h"), "AUTOCAT_AUTOCAT_H_");
  EXPECT_EQ(ExpectedIncludeGuard("tools/lint.h"), "AUTOCAT_TOOLS_LINT_H_");
  EXPECT_EQ(ExpectedIncludeGuard("tests/test_util.h"),
            "AUTOCAT_TESTS_TEST_UTIL_H_");
}

TEST(IncludeGuardRuleTest, AcceptsMatchingGuard) {
  const std::string content =
      "#ifndef AUTOCAT_CORE_FOO_H_\n"
      "#define AUTOCAT_CORE_FOO_H_\n"
      "#endif\n";
  EXPECT_TRUE(CheckIncludeGuard("src/core/foo.h", content).empty());
}

TEST(IncludeGuardRuleTest, RejectsMismatchedGuard) {
  const std::string content =
      "#ifndef WRONG_GUARD_H_\n"
      "#define WRONG_GUARD_H_\n"
      "#endif\n";
  const auto issues = CheckIncludeGuard("src/core/foo.h", content);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "include-guard");
  EXPECT_NE(issues[0].message.find("AUTOCAT_CORE_FOO_H_"),
            std::string::npos);
}

TEST(IncludeGuardRuleTest, RejectsMissingGuard) {
  EXPECT_FALSE(CheckIncludeGuard("src/core/foo.h", "int x;\n").empty());
}

TEST(IncludeGuardRuleTest, RejectsGuardWithoutDefine) {
  const std::string content =
      "#ifndef AUTOCAT_CORE_FOO_H_\n"
      "int x;\n"
      "#endif\n";
  const auto issues = CheckIncludeGuard("src/core/foo.h", content);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("#define"), std::string::npos);
}

TEST(BannedCallRuleTest, FlagsAssertAbortRand) {
  const std::string content =
      "void f() {\n"
      "  assert(true);\n"
      "  std::abort();\n"
      "  int x = rand();\n"
      "  srand(42);\n"
      "}\n";
  const auto issues = CheckBannedCalls("src/core/foo.cc", content);
  EXPECT_EQ(issues.size(), 4u);
}

TEST(BannedCallRuleTest, ExemptsCommonLayer) {
  EXPECT_TRUE(
      CheckBannedCalls("src/common/check.cc", "std::abort();\n").empty());
}

TEST(BannedCallRuleTest, IgnoresCommentsAndStrings) {
  const std::string content =
      "// abort() in a line comment\n"
      "/* assert(x) in a block comment */\n"
      "const char* s = \"srand(1)\";\n"
      "/* multi-line\n"
      "   rand() still inside\n"
      "*/\n";
  EXPECT_TRUE(CheckBannedCalls("src/core/foo.cc", content).empty());
}

TEST(BannedCallRuleTest, DoesNotFlagIdentifierSuffixes) {
  const std::string content =
      "my_assert(x);\n"
      "Random rng = MakeRandom(7);\n"
      "controller.abort_requested();\n";
  EXPECT_TRUE(CheckBannedCalls("src/core/foo.cc", content).empty());
}

TEST(BannedCallRuleTest, SuppressionCommentIsHonored) {
  const std::string content =
      "std::abort();  // autocat-lint: allow(banned-call)\n";
  EXPECT_TRUE(CheckBannedCalls("src/core/foo.cc", content).empty());
}

TEST(RawMmapRuleTest, FlagsRawSyscallsOutsideStore) {
  const std::string content =
      "int fd = open(path, O_RDWR);\n"
      "ftruncate(fd, 4096);\n"
      "void* base = mmap(nullptr, n, prot, flags, fd, 0);\n"
      "msync(base, n, MS_SYNC);\n"
      "munmap(base, n);\n"
      "::open(path, O_RDONLY);\n";
  const auto issues = CheckRawMmap("src/exec/foo.cc", content);
  EXPECT_EQ(issues.size(), 6u);
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].rule, "raw-mmap");
  EXPECT_NE(issues[0].message.find("MappedFile"), std::string::npos);
}

TEST(RawMmapRuleTest, ExemptsOnlyTheStoreTree) {
  const std::string content = "void* base = mmap(0, n, 0, 0, fd, 0);\n";
  EXPECT_TRUE(CheckRawMmap("src/store/mapped_file.cc", content).empty());
  EXPECT_TRUE(CheckRawMmap("src/store/store.cc", content).empty());
  EXPECT_FALSE(CheckRawMmap("src/storage/table.cc", content).empty());
  EXPECT_FALSE(CheckRawMmap("tools/loadgen.cc", content).empty());
}

TEST(RawMmapRuleTest, DoesNotFlagMemberOpensOrLookalikes) {
  const std::string content =
      "stream.open(path);\n"
      "file->open(path);\n"
      "if (stream.is_open()) {\n"
      "FILE* f = fopen(path, \"r\");\n"
      "auto file = MappedFile::Open(path);\n"
      "freopen(path, \"r\", stdin);\n"
      "reopen(path);\n"
      "my::open(path);\n";
  EXPECT_TRUE(CheckRawMmap("src/exec/foo.cc", content).empty());
}

TEST(RawMmapRuleTest, IgnoresCommentsStringsAndSuppressions) {
  const std::string content =
      "// mmap( the file lazily\n"
      "/* ftruncate( grows it */\n"
      "const char* s = \"open(2)\";\n"
      "void* b = mmap(0, n, 0, 0, fd, 0);  "
      "// autocat-lint: allow(raw-mmap)\n";
  EXPECT_TRUE(CheckRawMmap("src/exec/foo.cc", content).empty());
}

TEST(RawSimdRuleTest, FlagsIntrinsicsOutsideKernelTu) {
  const std::string content =
      "#include <immintrin.h>\n"
      "__m256i x = _mm256_setzero_si256();\n"
      "__m128d lo = _mm_setzero_pd();\n"
      "auto g = _mm512_set1_epi64(0);\n";
  const auto issues = CheckRawSimd("src/exec/kernels.cc", content);
  EXPECT_EQ(issues.size(), 4u);
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].rule, "raw-simd");
  EXPECT_NE(issues[0].message.find("allowed nowhere"), std::string::npos);
}

// No path is exempt: the former vector-kernel TU is flagged like any
// other.
TEST(RawSimdRuleTest, ExemptsNoPath) {
  const std::string content = "__m256i x = _mm256_setzero_si256();\n";
  EXPECT_FALSE(CheckRawSimd("src/exec/simd_kernels.cc", content).empty());
  EXPECT_FALSE(CheckRawSimd("src/exec/simd_kernels.h", content).empty());
  EXPECT_FALSE(CheckRawSimd("src/exec/kernels.cc", content).empty());
  EXPECT_FALSE(CheckRawSimd("src/exec/cold_path.cc", content).empty());
  EXPECT_FALSE(CheckRawSimd("src/serve/service.cc", content).empty());
  EXPECT_FALSE(CheckRawSimd("tools/bench_exec.cc", content).empty());
}

TEST(RawSimdRuleTest, DoesNotFlagLookalikes) {
  const std::string content =
      "int x__m256 = 0;\n"
      "my_mm256_helper(x__m256);\n"
      "double simd_mm = 0.0;\n"
      "#include \"exec/simd_kernels.h\"\n";
  EXPECT_TRUE(CheckRawSimd("src/exec/foo.cc", content).empty());
}

TEST(RawSimdRuleTest, IgnoresCommentsStringsAndSuppressions) {
  const std::string content =
      "// __m256i lanes hold four codes\n"
      "/* _mm256_cmpeq_epi64( compares them */\n"
      "const char* s = \"_mm256_setzero_si256()\";\n"
      "__m256i x = _mm256_setzero_si256();  "
      "// autocat-lint: allow(raw-simd)\n";
  EXPECT_TRUE(CheckRawSimd("src/exec/foo.cc", content).empty());
}

TEST(DirectParallelForRuleTest, FlagsDirectCallsInExecAndServe) {
  const std::string content =
      "Status s = ParallelFor(options, 0, n, 1, fn);\n"
      "return autocat::ParallelFor(options, 0, n, 1, fn);\n"
      "AUTOCAT_RETURN_IF_ERROR(::ParallelFor(options, 0, n, 1, fn));\n";
  const auto issues = CheckDirectParallelFor("src/exec/kernels.cc", content);
  EXPECT_EQ(issues.size(), 3u);
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].rule, "direct-parallel-for");
  EXPECT_NE(issues[0].message.find("morsel scheduler"), std::string::npos);
  EXPECT_EQ(
      CheckDirectParallelFor("src/serve/service.cc", content).size(), 3u);
}

TEST(DirectParallelForRuleTest, ExemptsSchedulerTuAndOtherLayers) {
  const std::string content =
      "Status s = ParallelFor(options, 0, n, 1, fn);\n";
  EXPECT_TRUE(
      CheckDirectParallelFor("src/exec/pipeline/scheduler.cc", content)
          .empty());
  // Layers outside exec/serve keep their direct calls.
  EXPECT_TRUE(
      CheckDirectParallelFor("src/core/enumerate.cc", content).empty());
  EXPECT_TRUE(
      CheckDirectParallelFor("src/store/store.cc", content).empty());
  EXPECT_TRUE(
      CheckDirectParallelFor("src/common/thread_pool.cc", content).empty());
  // The scheduler's header and sibling TUs are not exempt.
  EXPECT_FALSE(
      CheckDirectParallelFor("src/exec/pipeline/cold_path.cc", content)
          .empty());
}

TEST(DirectParallelForRuleTest, DoesNotFlagMemberCallsOrLookalikes) {
  const std::string content =
      "Status s = pool.ParallelFor(0, n, 1, fn);\n"
      "Status t = ThreadPool::Shared().ParallelFor(0, n, 1, fn);\n"
      "Status u = ThreadPool::ParallelFor(0, n, 1, fn);\n"
      "Status v = RunParallelFor(0, n);\n"
      "// ParallelFor( in a comment\n"
      "const char* s2 = \"ParallelFor(\";\n"
      "Status w = ParallelFor(options, 0, n, 1, fn);  "
      "// autocat-lint: allow(direct-parallel-for)\n";
  EXPECT_TRUE(
      CheckDirectParallelFor("src/exec/kernels.cc", content).empty());
}

TEST(RawThreadRuleTest, FlagsThreadUsesOutsideThreadPool) {
  const std::string content =
      "#include <thread>\n"
      "std::thread t([] {});\n"
      "std::jthread j([] {});\n";
  EXPECT_EQ(CheckRawThread("src/core/foo.cc", content).size(), 3u);
  EXPECT_EQ(CheckRawThread("src/core/foo.cc", content)[0].rule,
            "raw-thread");
}

TEST(RawThreadRuleTest, ExemptsOnlyTheThreadPoolFiles) {
  EXPECT_TRUE(
      CheckRawThread("src/common/thread_pool.cc", "std::thread t;\n")
          .empty());
  EXPECT_TRUE(
      CheckRawThread("src/common/thread_pool.h", "#include <thread>\n")
          .empty());
  // The rest of src/common is not exempt (unlike banned-call).
  EXPECT_FALSE(
      CheckRawThread("src/common/random.cc", "std::thread t;\n").empty());
}

TEST(RawThreadRuleTest, IgnoresCommentsStringsAndSuppressions) {
  const std::string content =
      "// std::thread in a line comment\n"
      "/* std::jthread in a block comment */\n"
      "const char* s = \"std::thread\";\n"
      "std::thread t;  // autocat-lint: allow(raw-thread)\n";
  EXPECT_TRUE(CheckRawThread("src/core/foo.cc", content).empty());
}

TEST(RawThreadRuleTest, DoesNotFlagIdentifierLookalikes) {
  const std::string content =
      "my::thread_helper h;\n"
      "int thread_count = pool.threads();\n";
  EXPECT_TRUE(CheckRawThread("src/core/foo.cc", content).empty());
}

TEST(DroppedStatusRuleTest, CollectsStatusAndResultDeclarations) {
  const std::string header =
      "Status Flush(int fd);\n"
      "  static Status Open(const std::string& path);\n"
      "Result<std::vector<int>> ParseAll(std::string_view text);\n"
      "void NotCollected();\n"
      "int AlsoNotCollected();\n";
  const auto names = CollectStatusFunctions(header);
  EXPECT_EQ(names.count("Flush"), 1u);
  EXPECT_EQ(names.count("Open"), 1u);
  EXPECT_EQ(names.count("ParseAll"), 1u);
  EXPECT_EQ(names.count("NotCollected"), 0u);
  EXPECT_EQ(names.count("AlsoNotCollected"), 0u);
}

TEST(DroppedStatusRuleTest, FlagsBareCallStatement) {
  const auto issues = CheckDroppedStatus(
      "src/core/foo.cc", "  Flush(3);\n  writer.Flush(4);\n", {"Flush"});
  EXPECT_EQ(issues.size(), 2u);
  EXPECT_EQ(issues[0].rule, "dropped-status");
}

TEST(DroppedStatusRuleTest, AcceptsConsumedReturns) {
  const std::string content =
      "Status s = Flush(3);\n"
      "return Flush(4);\n"
      "if (!Flush(5).ok()) {\n"
      "AUTOCAT_RETURN_IF_ERROR(Flush(6));\n"
      "EXPECT_TRUE(Flush(7).ok());\n"
      "(void)Flush(8);\n";
  EXPECT_TRUE(
      CheckDroppedStatus("src/core/foo.cc", content, {"Flush"}).empty());
}

TEST(DroppedStatusRuleTest, SuppressionCommentIsHonored) {
  const std::string content =
      "Flush(3);  // autocat-lint: allow(dropped-status)\n";
  EXPECT_TRUE(
      CheckDroppedStatus("src/core/foo.cc", content, {"Flush"}).empty());
}

TEST(DroppedStatusRuleTest, UnknownNamesAreIgnored) {
  EXPECT_TRUE(
      CheckDroppedStatus("src/core/foo.cc", "DoStuff();\n", {"Flush"})
          .empty());
}

TEST(UnorderedContainerRuleTest, FlagsUnorderedContainersInServe) {
  const std::string content =
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> m;\n"
      "std::unordered_set<int> s;\n"
      "std::unordered_multimap<int, int> mm;\n";
  const auto issues = CheckUnorderedContainer("src/serve/cache.cc", content);
  EXPECT_EQ(issues.size(), 4u);
  EXPECT_TRUE(HasRule(issues, "unordered-container"));
}

TEST(UnorderedContainerRuleTest, OnlyAppliesToServe) {
  const std::string content = "std::unordered_map<int, int> m;\n";
  EXPECT_TRUE(CheckUnorderedContainer("src/core/foo.cc", content).empty());
  EXPECT_TRUE(CheckUnorderedContainer("tools/foo.cc", content).empty());
  EXPECT_EQ(CheckUnorderedContainer("src/serve/foo.cc", content).size(),
            1u);
}

TEST(UnorderedContainerRuleTest, IgnoresCommentsStringsAndSuppressions) {
  EXPECT_TRUE(CheckUnorderedContainer("src/serve/foo.cc",
                                      "// std::unordered_map is banned\n")
                  .empty());
  EXPECT_TRUE(CheckUnorderedContainer(
                  "src/serve/foo.cc",
                  "const char* s = \"std::unordered_set\";\n")
                  .empty());
  EXPECT_TRUE(
      CheckUnorderedContainer(
          "src/serve/foo.cc",
          "std::unordered_map<int, int> m;  "
          "// autocat-lint: allow(unordered-container)\n")
          .empty());
}

TEST(UnorderedContainerRuleTest, AcceptsOrderedContainers) {
  EXPECT_TRUE(CheckUnorderedContainer(
                  "src/serve/foo.cc",
                  "std::map<int, int> m;\nstd::set<int> s;\n")
                  .empty());
}

TEST(UnannotatedSyncRuleTest, FlagsRawPrimitivesAndIncludes) {
  const std::string content =
      "#include <mutex>\n"
      "#include <shared_mutex>\n"
      "#include <condition_variable>\n"
      "std::mutex m;\n"
      "std::shared_mutex rw;\n"
      "std::condition_variable cv;\n"
      "std::recursive_mutex rm;\n";
  const auto issues = CheckUnannotatedSync("src/serve/foo.cc", content);
  EXPECT_EQ(issues.size(), 7u);
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].rule, "unannotated-sync");
  EXPECT_NE(issues[0].message.find("common/mutex.h"), std::string::npos);
}

TEST(UnannotatedSyncRuleTest, AtomicNeedsOrderComment) {
  // Undocumented atomic: flagged.
  EXPECT_EQ(CheckUnannotatedSync("src/serve/foo.cc",
                                 "std::atomic<int> n{0};\n")
                .size(),
            1u);
  // Same-line and block-above comments both document the protocol.
  EXPECT_TRUE(CheckUnannotatedSync(
                  "src/serve/foo.cc",
                  "std::atomic<int> n{0};  // atomic-order: relaxed\n")
                  .empty());
  EXPECT_TRUE(CheckUnannotatedSync(
                  "src/serve/foo.cc",
                  "// atomic-order: release/acquire — pairs with load\n"
                  "// in the worker loop.\n"
                  "std::atomic<bool> done{false};\n")
                  .empty());
  // A non-comment line breaks the block-above association.
  EXPECT_EQ(CheckUnannotatedSync(
                "src/serve/foo.cc",
                "// atomic-order: relaxed\n"
                "int unrelated = 0;\n"
                "std::atomic<int> n{0};\n")
                .size(),
            1u);
}

TEST(UnannotatedSyncRuleTest, ScopeAndSuppression) {
  const std::string content = "std::mutex m;\n";
  // Outside the annotated tree the rule does not apply.
  EXPECT_TRUE(CheckUnannotatedSync("src/core/foo.cc", content).empty());
  EXPECT_TRUE(CheckUnannotatedSync("tools/foo.cc", content).empty());
  // mutex.h implements the wrappers and is exempt.
  EXPECT_TRUE(CheckUnannotatedSync("src/common/mutex.h", content).empty());
  // The rest of src/common is in scope.
  EXPECT_EQ(CheckUnannotatedSync("src/common/foo.cc", content).size(), 1u);
  EXPECT_TRUE(CheckUnannotatedSync(
                  "src/serve/foo.cc",
                  "std::mutex m;  // autocat-lint: allow(unannotated-sync)\n")
                  .empty());
}

TEST(ManualLockRuleTest, FlagsManualCallsOutsideMutexHeader) {
  const std::string content =
      "mu.lock();\n"
      "mu.unlock();\n"
      "rw->lock_shared();\n"
      "rw->unlock_shared();\n"
      "mu.try_lock();\n";
  const auto issues = CheckManualLock("src/serve/foo.cc", content);
  EXPECT_EQ(issues.size(), 5u);
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].rule, "manual-lock");
  EXPECT_NE(issues[0].message.find("RAII"), std::string::npos);
  EXPECT_TRUE(CheckManualLock("src/common/mutex.h", content).empty());
  EXPECT_TRUE(CheckManualLock("src/core/foo.cc", content).empty());
}

TEST(ManualLockRuleTest, IgnoresCommentsStringsAndSuppressions) {
  const std::string content =
      "// mu.lock() in a comment\n"
      "const char* s = \"mu.unlock()\";\n"
      "mu.lock();  // autocat-lint: allow(manual-lock)\n"
      "csv.unlocked();\n";
  EXPECT_TRUE(CheckManualLock("src/serve/foo.cc", content).empty());
}

TEST(AtomicOrderRuleTest, FlagsDefaultSeqCstCalls) {
  const std::string content =
      "n.load();\n"
      "n.store(1);\n"
      "n.fetch_add(2);\n"
      "n.exchange(3);\n";
  const auto issues = CheckAtomicOrder("src/serve/foo.cc", content);
  EXPECT_EQ(issues.size(), 4u);
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].rule, "atomic-order");
  EXPECT_NE(issues[0].message.find("std::memory_order"), std::string::npos);
}

TEST(AtomicOrderRuleTest, AcceptsExplicitOrders) {
  const std::string content =
      "n.load(std::memory_order_acquire);\n"
      "n.store(1, std::memory_order_release);\n"
      "n.fetch_add(2, std::memory_order_relaxed);\n"
      // The order may land on a continuation line.
      "n.compare_exchange_strong(expected, 5,\n"
      "                          std::memory_order_acq_rel,\n"
      "                          std::memory_order_acquire);\n";
  EXPECT_TRUE(CheckAtomicOrder("src/serve/foo.cc", content).empty());
}

TEST(AtomicOrderRuleTest, ScopeAndSuppression) {
  EXPECT_TRUE(CheckAtomicOrder("src/core/foo.cc", "n.load();\n").empty());
  EXPECT_TRUE(CheckAtomicOrder(
                  "src/serve/foo.cc",
                  "n.load();  // autocat-lint: allow(atomic-order)\n")
                  .empty());
}

TEST(LockOrderRuleTest, ParsesOrderFile) {
  const std::string content =
      "# outermost first\n"
      "state_mu_\n"
      "\n"
      "shard.mu   # shard locks\n"
      "  mu_  \n";
  const auto order = ParseLockOrder(content);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "state_mu_");
  EXPECT_EQ(order[1], "shard.mu");
  EXPECT_EQ(order[2], "mu_");
}

TEST(LockOrderRuleTest, FlagsInversionAgainstDeclaredOrder) {
  const std::vector<std::string> order = {"state_mu_", "shard.mu"};
  const std::string inverted =
      "void f() {\n"
      "  MutexLock shard_lock(shard.mu);\n"
      "  WriterLock state_lock(state_mu_);\n"
      "}\n";
  const auto issues = CheckLockOrder("src/serve/foo.cc", inverted, order);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "lock-order");
  EXPECT_EQ(issues[0].line, 3u);
  EXPECT_NE(issues[0].message.find("'state_mu_' while 'shard.mu'"),
            std::string::npos);
}

TEST(LockOrderRuleTest, AcceptsDeclaredOrderAndScopedRelease) {
  const std::vector<std::string> order = {"state_mu_", "shard.mu"};
  const std::string ordered =
      "void f() {\n"
      "  WriterLock state_lock(state_mu_);\n"
      "  MutexLock shard_lock(shard.mu);\n"
      "}\n"
      // Sequential (non-nested) acquisitions in any order are fine: the
      // first guard's block closes before the second opens.
      "void g() {\n"
      "  { MutexLock shard_lock(shard.mu); }\n"
      "  WriterLock state_lock(state_mu_);\n"
      "}\n";
  EXPECT_TRUE(CheckLockOrder("src/serve/foo.cc", ordered, order).empty());
}

TEST(LockOrderRuleTest, UnknownTokensAndSuppressionsIgnored) {
  const std::vector<std::string> order = {"state_mu_", "shard.mu"};
  const std::string content =
      "void f() {\n"
      "  MutexLock a(local_mu);\n"
      "  WriterLock b(state_mu_);\n"
      "  MutexLock c(shard.mu);\n"
      "  WriterLock d(state_mu_);  // autocat-lint: allow(lock-order)\n"
      "}\n";
  EXPECT_TRUE(CheckLockOrder("src/serve/foo.cc", content, order).empty());
}

TEST(GuardedReadRuleTest, CollectsGuardedFields) {
  const std::string content =
      "int depth_ AUTOCAT_GUARDED_BY(mu) = 0;\n"
      "std::map<int, int> index AUTOCAT_GUARDED_BY(mu);\n"
      "#define AUTOCAT_GUARDED_BY(x) __attribute__((guarded_by(x)))\n"
      "int plain = 0;\n";
  const auto fields = CollectGuardedFields(content);
  EXPECT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields.count("depth_"), 1u);
  EXPECT_EQ(fields.count("index"), 1u);
}

TEST(GuardedReadRuleTest, FlagsUnprotectedAccess) {
  const std::string content =
      "struct Q {\n"
      "  int depth_ AUTOCAT_GUARDED_BY(mu) = 0;\n"
      "};\n"
      "int Peek(const Q& q) {\n"
      "  return q.depth_;\n"
      "}\n";
  const auto issues =
      CheckGuardedRead("src/serve/foo.cc", content, {"depth_"});
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].rule, "guarded-read");
  EXPECT_EQ(issues[0].line, 5u);
  EXPECT_NE(issues[0].message.find("'depth_'"), std::string::npos);
}

TEST(GuardedReadRuleTest, GuardScopeEndsWithItsBlock) {
  const std::string content =
      "void Reset(Q& q) {\n"
      "  {\n"
      "    MutexLock lock(q.mu);\n"
      "    q.depth_ = 0;\n"
      "  }\n"
      "  q.depth_ = 1;\n"
      "}\n";
  const auto issues =
      CheckGuardedRead("src/serve/foo.cc", content, {"depth_"});
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].line, 6u);
}

TEST(GuardedReadRuleTest, AnnotatedFunctionsAreProtected) {
  const std::string content =
      "int PeekLocked(const Q& q) AUTOCAT_REQUIRES(q.mu) {\n"
      "  return q.depth_;\n"
      "}\n"
      // A multi-line signature: the annotation lands before the body
      // opens on a later line.
      "int PeekLocked2(const Q& q)\n"
      "    AUTOCAT_REQUIRES(q.mu)\n"
      "{\n"
      "  return q.depth_;\n"
      "}\n"
      // A shared (reader) requirement protects the body too.
      "int PeekShared(const Q& q) AUTOCAT_REQUIRES_SHARED(q.mu) {\n"
      "  return q.depth_;\n"
      "}\n";
  EXPECT_TRUE(
      CheckGuardedRead("src/serve/foo.cc", content, {"depth_"}).empty());
}

TEST(GuardedReadRuleTest, PlainLocalNamesDoNotCount) {
  // A bare name without a trailing underscore only counts as a guarded
  // access through . or -> (locals may shadow short field names).
  const std::string content =
      "void f() {\n"
      "  int bytes = 0;\n"
      "  bytes += 1;\n"
      "}\n";
  EXPECT_TRUE(
      CheckGuardedRead("src/serve/foo.cc", content, {"bytes"}).empty());
  const std::string member =
      "void f(Shard& shard) {\n"
      "  shard.bytes += 1;\n"
      "}\n";
  EXPECT_EQ(
      CheckGuardedRead("src/serve/foo.cc", member, {"bytes"}).size(), 1u);
}

TEST(GuardedReadRuleTest, FileScopeAndSuppressionExempt) {
  // Constructor init lists and signatures sit at brace depth zero (the
  // namespace does not count) and are exempt.
  const std::string content =
      "namespace autocat {\n"
      "Service::Service(Database db)\n"
      "    : db_(std::move(db)),\n"
      "      workload_(Workload{}) {\n"
      "}\n"
      "}  // namespace autocat\n";
  EXPECT_TRUE(
      CheckGuardedRead("src/serve/foo.cc", content, {"db_", "workload_"})
          .empty());
  EXPECT_TRUE(CheckGuardedRead(
                  "src/serve/foo.cc",
                  "void f() {\n"
                  "  db_.Reset();  // autocat-lint: allow(guarded-read)\n"
                  "}\n",
                  {"db_"})
                  .empty());
}

TEST(LintFixtureTest, PassTreeLintsClean) {
  std::vector<LintIssue> issues;
  const std::string root =
      std::string(AUTOCAT_LINT_FIXTURE_DIR) + "/pass";
  const std::vector<std::string> lock_order = {"state_mu_", "columnar_mu_",
                                               "shard.mu", "mu_"};
  ASSERT_TRUE(LintFiles(root,
                        {"src/widget/widget.h", "src/widget/widget.cc",
                         "src/widget/file_io.cc",
                         "src/exec/pipeline/scheduler.cc",
                         "src/serve/ordered.cc",
                         "src/serve/annotated_sync.h",
                         "src/serve/raii_lock.cc",
                         "src/serve/guarded_ok.cc"},
                        lock_order, &issues));
  for (const auto& issue : issues) {
    ADD_FAILURE() << issue.ToString();
  }
}

TEST(LintFixtureTest, FailTreeTripsEveryRule) {
  std::vector<LintIssue> issues;
  const std::string root =
      std::string(AUTOCAT_LINT_FIXTURE_DIR) + "/fail";
  // The fixture's dropped.cc calls functions declared in the pass tree's
  // header; hand the checker that header's declarations by linting it
  // from the fail root via a relative path.
  const std::vector<std::string> lock_order = {"state_mu_", "columnar_mu_",
                                               "shard.mu", "mu_"};
  ASSERT_TRUE(LintFiles(root,
                        {"src/broken/wrong_guard.h", "src/broken/banned.cc",
                         "src/broken/dropped.cc",
                         "src/broken/raw_thread.cc",
                         "src/broken/raw_mmap.cc",
                         "src/exec/direct_parallel_for.cc",
                         "src/exec/raw_simd.cc",
                         "src/serve/unordered.cc",
                         "src/serve/unannotated_sync.cc",
                         "src/serve/manual_lock.cc",
                         "src/serve/atomic_default.cc",
                         "src/serve/lock_inversion.cc",
                         "src/serve/guarded_leak.cc",
                         "../pass/src/widget/widget.h"},
                        lock_order, &issues));
  EXPECT_TRUE(HasRule(issues, "include-guard"));
  EXPECT_TRUE(HasRule(issues, "banned-call"));
  EXPECT_TRUE(HasRule(issues, "dropped-status"));
  EXPECT_TRUE(HasRule(issues, "raw-thread"));
  EXPECT_TRUE(HasRule(issues, "raw-mmap"));
  EXPECT_TRUE(HasRule(issues, "raw-simd"));
  EXPECT_TRUE(HasRule(issues, "direct-parallel-for"));
  EXPECT_TRUE(HasRule(issues, "unordered-container"));
  EXPECT_TRUE(HasRule(issues, "unannotated-sync"));
  EXPECT_TRUE(HasRule(issues, "manual-lock"));
  EXPECT_TRUE(HasRule(issues, "atomic-order"));
  EXPECT_TRUE(HasRule(issues, "lock-order"));
  EXPECT_TRUE(HasRule(issues, "guarded-read"));
  // banned.cc carries exactly three banned calls.
  const auto banned =
      std::count_if(issues.begin(), issues.end(), [](const LintIssue& i) {
        return i.rule == "banned-call";
      });
  EXPECT_EQ(banned, 3);
  // dropped.cc drops exactly two Status returns.
  const auto dropped =
      std::count_if(issues.begin(), issues.end(), [](const LintIssue& i) {
        return i.rule == "dropped-status";
      });
  EXPECT_EQ(dropped, 2);
  // raw_thread.cc carries exactly two raw-thread uses.
  const auto raw =
      std::count_if(issues.begin(), issues.end(), [](const LintIssue& i) {
        return i.rule == "raw-thread";
      });
  EXPECT_EQ(raw, 2);
  // raw_mmap.cc carries exactly four raw syscalls (the suppressed msync
  // and the member/prefixed lookalikes don't count).
  const auto mmapped =
      std::count_if(issues.begin(), issues.end(), [](const LintIssue& i) {
        return i.rule == "raw-mmap";
      });
  EXPECT_EQ(mmapped, 4);
  // exec/direct_parallel_for.cc carries exactly three direct dispatches
  // (the member/prefixed lookalikes and the suppressed call don't count).
  const auto direct_pf =
      std::count_if(issues.begin(), issues.end(), [](const LintIssue& i) {
        return i.rule == "direct-parallel-for";
      });
  EXPECT_EQ(direct_pf, 3);
  // serve/unordered.cc carries exactly three hash-container uses (the
  // suppressed one and the comment/string mentions don't count).
  const auto unordered =
      std::count_if(issues.begin(), issues.end(), [](const LintIssue& i) {
        return i.rule == "unordered-container";
      });
  EXPECT_EQ(unordered, 3);
  const auto count_rule = [&issues](const std::string& rule) {
    return std::count_if(issues.begin(), issues.end(),
                         [&rule](const LintIssue& i) {
                           return i.rule == rule;
                         });
  };
  // serve/unannotated_sync.cc: the include, three raw types, and one
  // undocumented atomic (the suppressed and documented ones don't count).
  EXPECT_EQ(count_rule("unannotated-sync"), 5);
  // serve/manual_lock.cc: four manual calls (one suppressed).
  EXPECT_EQ(count_rule("manual-lock"), 4);
  // serve/atomic_default.cc: four defaulted-order operations.
  EXPECT_EQ(count_rule("atomic-order"), 4);
  // serve/lock_inversion.cc: one inversion (the ordered nesting is fine).
  EXPECT_EQ(count_rule("lock-order"), 1);
  // serve/guarded_leak.cc: the bare read and the post-guard write.
  EXPECT_EQ(count_rule("guarded-read"), 2);
  // exec/raw_simd.cc: the include, two register declarations, and one
  // intrinsic call (the suppressed call and the lookalikes don't count).
  EXPECT_EQ(count_rule("raw-simd"), 4);
}

}  // namespace
}  // namespace autocat::lint
