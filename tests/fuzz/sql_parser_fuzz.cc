// libFuzzer harness for the SQL front end: lexer -> parser -> selection
// normalization -> canonical-SQL round trip.
//
// The harness asserts behavioral properties, not just "no crash":
//   1. Tokenize/ParseQuery never crash and only ever reject input through
//      Status (no exceptions, no aborts, bounded recursion).
//   2. Canonicalization (profile -> ToSqlWhere -> re-parse -> profile) is
//      idempotent: the first pass may lose information the canonical text
//      cannot carry (float-literal precision, OR-hulls that collapse to an
//      unbounded range and are omitted from the WHERE text), but a second
//      pass must reach a fixed point — and the canonical text must always
//      re-parse and re-normalize without error.
//   3. The profile compiler is total and exact (stage 5): over a fixed
//      table seeded with hostile cells, every selection profile compiles
//      and filters exactly like MatchesRow.
//
// Built as a libFuzzer target (autocat_sql_fuzzer) only when the compiler
// supports -fsanitize=fuzzer (clang); in every configuration the same
// entry point links against tests/fuzz/fuzz_replay_main.cc into
// autocat_fuzz_replay, which replays tests/fuzz/corpus under plain ctest.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string_view>
#include <vector>

#include "common/thread_pool.h"
#include "exec/kernels.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/selection.h"
#include "storage/columnar.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace {

using autocat::AttributeCondition;
using autocat::ColumnDef;
using autocat::ColumnKind;
using autocat::ColumnarTable;
using autocat::CompiledPredicate;
using autocat::ParallelOptions;
using autocat::Schema;
using autocat::SelectionProfile;
using autocat::Table;
using autocat::Value;
using autocat::ValueType;

// The homes schema of the paper's running example: a realistic mix of
// categorical and numeric attributes for profiles to normalize against.
const Schema& FuzzSchema() {
  static const Schema* schema = [] {
    auto result = Schema::Create({
        ColumnDef("neighborhood", ValueType::kString,
                  ColumnKind::kCategorical),
        ColumnDef("city", ValueType::kString, ColumnKind::kCategorical),
        ColumnDef("propertytype", ValueType::kString,
                  ColumnKind::kCategorical),
        ColumnDef("price", ValueType::kDouble, ColumnKind::kNumeric),
        ColumnDef("bedroomcount", ValueType::kInt64, ColumnKind::kNumeric),
        ColumnDef("bathcount", ValueType::kDouble, ColumnKind::kNumeric),
        ColumnDef("squarefootage", ValueType::kDouble, ColumnKind::kNumeric),
        ColumnDef("yearbuilt", ValueType::kInt64, ColumnKind::kNumeric),
    });
    if (!result.ok()) {
      std::fprintf(stderr, "fuzz schema construction failed: %s\n",
                   result.status().ToString().c_str());
      std::abort();  // autocat-lint: allow(banned-call) — harness setup
    }
    return new Schema(std::move(result).value());
  }();
  return *schema;
}

// Small fixed homes table with hostile cells (NULLs, NaN, signed zeros,
// int64 extremes, 2^53 + 1) for the stage-5 filter-equivalence check.
const Table& FuzzTable() {
  static const Table* table = [] {
    auto* t = new Table(FuzzSchema());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const int64_t i64max = std::numeric_limits<int64_t>::max();
    const int64_t i64min = std::numeric_limits<int64_t>::min();
    const struct {
      Value cells[8];
    } rows[] = {
        {{Value("Redmond"), Value("Seattle"), Value("Single Family"),
          Value(210000.0), Value(3), Value(2.5), Value(1800.0),
          Value(1984)}},
        {{Value("Bellevue"), Value("Bellevue"), Value("Condo"),
          Value(250000.0), Value(2), Value(1.0), Value(900.0),
          Value(2005)}},
        {{Value("Seattle"), Value("Seattle"), Value("Townhome"),
          Value(180000.0), Value(4), Value(2.0), Value(2100.0),
          Value(1999)}},
        {{Value("Kirkland"), Value("Seattle"), Value("Condo"), Value(),
          Value(5), Value(3.0), Value(2600.0), Value(2015)}},
        {{Value(), Value("Redmond"), Value("Single Family"), Value(nan),
          Value(1), Value(1.5), Value(700.0), Value(1970)}},
        {{Value("Ballard"), Value(), Value(), Value(-0.0), Value(0),
          Value(0.25), Value(320.0), Value(int64_t{9007199254740993})}},
        {{Value("Queen Anne"), Value("Seattle"), Value("Condo"),
          Value(0.0), Value(i64max), Value(4.0), Value(5200.0),
          Value(2020)}},
        {{Value(""), Value("Bellevue"), Value("Townhome"), Value(1e308),
          Value(i64min), Value(2.25), Value(4100.0), Value(1900)}},
        {{Value("Redmond"), Value("Seattle"), Value("Single Family"),
          Value(), Value(), Value(), Value(), Value()}},
    };
    for (const auto& row : rows) {
      auto status = t->AppendRow({row.cells[0], row.cells[1], row.cells[2],
                                  row.cells[3], row.cells[4], row.cells[5],
                                  row.cells[6], row.cells[7]});
      if (!status.ok()) {
        std::fprintf(stderr, "fuzz table construction failed: %s\n",
                     status.ToString().c_str());
        std::abort();  // autocat-lint: allow(banned-call) — harness setup
      }
    }
    return t;
  }();
  return *table;
}

const std::shared_ptr<const ColumnarTable>& FuzzShadow() {
  static const auto* shadow = new std::shared_ptr<const ColumnarTable>(
      std::make_shared<const ColumnarTable>(
          ColumnarTable::Build(FuzzTable())));
  return *shadow;
}

void FailRoundTrip(std::string_view stage, std::string_view detail,
                   std::string_view input) {
  std::fprintf(stderr,
               "sql round-trip violation at %s: %.*s\ninput was: %.*s\n",
               std::string(stage).c_str(),
               static_cast<int>(detail.size()), detail.data(),
               static_cast<int>(input.size()), input.data());
  std::abort();  // autocat-lint: allow(banned-call) — fuzzer failure path
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view sql(reinterpret_cast<const char*>(data), size);

  // Stage 1: lexing. Must return tokens or a Status, never crash.
  auto tokens = autocat::Tokenize(sql);
  if (!tokens.ok()) {
    return 0;
  }

  // Stage 2: parsing. Recursion must stay bounded on adversarial nesting.
  auto query = autocat::ParseQuery(sql);
  if (!query.ok()) {
    return 0;
  }

  // Stage 3: selection normalization against the homes schema. Unknown
  // columns and unsupported shapes surface as Status; anything else must
  // produce a profile.
  auto profile = SelectionProfile::FromQuery(query.value(), FuzzSchema());
  if (!profile.ok()) {
    return 0;
  }

  // Stage 5: the compiled profile kernels over the fixed hostile table.
  // MatchesRow never errors and the profile compiler is total, so every
  // profile compiles and selects exactly the rows MatchesRow keeps.
  const Table& table = FuzzTable();
  auto compiled = CompiledPredicate::CompileProfile(
      profile.value(), FuzzSchema(), FuzzShadow());
  if (!compiled.ok()) {
    FailRoundTrip("profile kernel compile failed",
                  compiled.status().ToString(), sql);
  }
  std::vector<uint32_t> matched;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (profile.value().MatchesRow(table.row(r), FuzzSchema())) {
      matched.push_back(static_cast<uint32_t>(r));
    }
  }
  ParallelOptions parallel;
  parallel.threads = 1;
  auto selection = compiled.value().Filter(parallel);
  if (!selection.ok() || selection.value() != matched) {
    FailRoundTrip("profile kernel selection != MatchesRow",
                  selection.ok() ? "selection mismatch"
                                 : selection.status().ToString(),
                  sql);
  }

  // Stage 4: canonical SQL text must re-parse and re-normalize cleanly,
  // and a second canonicalization pass must be a fixed point.
  const std::string where = profile.value().ToSqlWhere();
  if (where.empty()) {
    return 0;  // no conditions survived normalization
  }
  auto reparsed = autocat::ParseExpression(where);
  if (!reparsed.ok()) {
    FailRoundTrip("reparse", reparsed.status().ToString(), where);
  }
  auto reprofile =
      SelectionProfile::FromExpr(*reparsed.value(), FuzzSchema());
  if (!reprofile.ok()) {
    FailRoundTrip("renormalize", reprofile.status().ToString(), where);
  }
  const std::string where2 = reprofile.value().ToSqlWhere();
  if (where2.empty()) {
    return 0;  // everything collapsed away on the second pass
  }
  auto reparsed2 = autocat::ParseExpression(where2);
  if (!reparsed2.ok()) {
    FailRoundTrip("reparse2", reparsed2.status().ToString(), where2);
  }
  auto reprofile2 =
      SelectionProfile::FromExpr(*reparsed2.value(), FuzzSchema());
  if (!reprofile2.ok()) {
    FailRoundTrip("renormalize2", reprofile2.status().ToString(), where2);
  }
  const std::string second = reprofile.value().ToString();
  const std::string third = reprofile2.value().ToString();
  if (second != third) {
    FailRoundTrip("canonicalization not idempotent",
                  second + " != " + third, sql);
  }
  return 0;
}
