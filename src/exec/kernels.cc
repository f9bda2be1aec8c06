#include "exec/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "exec/pipeline/morsel.h"
#include "exec/pipeline/scheduler.h"
#include "exec/simd_kernels.h"

namespace autocat {

namespace {

using Node = CompiledPredicate::Node;
using Column = ColumnarTable::Column;

Node ConstNode(bool value) {
  Node node;
  node.kind = value ? Node::Kind::kConstTrue : Node::Kind::kConstFalse;
  return node;
}

Node LeafNode(std::function<void(size_t, size_t, uint8_t*)> fn) {
  Node node;
  node.kind = Node::Kind::kLeaf;
  node.leaf = std::move(fn);
  return node;
}

Status NotCovered(const std::string& what) {
  return Status::NotSupported("predicate not covered by columnar kernels: " +
                              what);
}

// Comparison class of Value::Compare: numerics are one class, strings
// another (NULL literals are handled before classification).
int ClassOf(const Value& v) { return v.is_numeric() ? 1 : 2; }

int ClassOfColumn(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 1;
    case ValueType::kString:
      return 2;
    case ValueType::kNull:
      return 0;
  }
  return 0;
}

// Encodes a comparison op as a truth table over the three-way result
// c in {-1, 0, 1}: bit (c + 1) set <=> the op accepts c. The three-way
// compare in every kernel is Cmp3 below, which matches Value::Compare
// exactly: NaN operands yield c == 0 — "equal" — just as on the row path.
uint8_t OpTruthTable(ComparisonOp op) {
  switch (op) {
    case ComparisonOp::kEq:
      return 0b010;
    case ComparisonOp::kNotEq:
      return 0b101;
    case ComparisonOp::kLess:
      return 0b001;
    case ComparisonOp::kLessEq:
      return 0b011;
    case ComparisonOp::kGreater:
      return 0b100;
    case ComparisonOp::kGreaterEq:
      return 0b110;
  }
  return 0;
}

// ---- branchless helpers ----------------------------------------------
//
// The per-row loops below avoid data-dependent branches: on ~random data
// every short-circuit `&&` and every `?:` three-way compare mispredicts,
// which costs an order of magnitude more than the arithmetic it saves.
// Leaves also capture raw array pointers (stable for the lifetime of the
// shared shadow) rather than the Column*, so the `uint8_t* mask` stores —
// which may alias anything — cannot force the compiler to reload the
// vector data pointers on every iteration.

// Three-way compare, branch-free: (a > b) - (a < b) is -1/0/1, with NaN
// operands yielding 0 ("equal") exactly like Value::Compare.
template <typename T>
int Cmp3(T a, T b) {
  return static_cast<int>(a > b) - static_cast<int>(a < b);
}

// Exact membership in a sorted vector: small sets scan linearly (branch
// free, vectorizable); larger ones binary-search.
bool MemberOf(const std::vector<int64_t>& v, int64_t a) {
  if (v.size() > 16) {
    return std::binary_search(v.begin(), v.end(), a);
  }
  bool found = false;
  for (const int64_t x : v) {
    found |= (a == x);
  }
  return found;
}

bool MemberOf(const std::vector<double>& v, double a) {
  if (v.size() > 16) {
    return std::binary_search(v.begin(), v.end(), a);
  }
  bool found = false;
  for (const double x : v) {
    found |= (a == x);
  }
  return found;
}

// ---- zone proving + SIMD plumbing ------------------------------------

using ZV = CompiledPredicate::ZoneVerdict;
using ZoneFn = std::function<ZV(size_t)>;
using SimdFill = std::function<bool(size_t begin, size_t end,
                                    uint64_t* bits)>;

double DoubleFromBits(uint64_t bits) {
  double d = 0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// Expands a row-per-bit verdict bitmap into the 0/1 byte-mask protocol of
// the leaf kernels: 8 bits become 8 bytes per step via the multiply
// spread (replicate the byte into every lane, isolate one bit per lane,
// saturate it down to 0/1).
void ExpandBits(const uint64_t* bits, size_t n, uint8_t* mask) {
  size_t j = 0;
  for (size_t w = 0; j < n; ++w) {
    uint64_t word = bits[w];
    for (int byte = 0; byte < 8 && j < n; ++byte, word >>= 8) {
      uint64_t m = (word & 0xff) * 0x0101010101010101ULL;
      m &= 0x8040201008040201ULL;
      m = ((m + 0x7f7f7f7f7f7f7f7fULL) >> 7) & 0x0101010101010101ULL;
      if (n - j >= 8) {
        std::memcpy(mask + j, &m, 8);
        j += 8;
      } else {
        std::memcpy(mask + j, &m, n - j);
        j = n;
      }
    }
  }
}

// Truth-table bits reachable by a Cmp3 result in [cmin, cmax]. The
// three-way compare against a fixed literal is monotone non-decreasing in
// the cell value, so the verdicts of a zone's cells lie between the
// verdicts of its extrema — the reachable set is exactly this interval
// (and a superset is sound for both all-fail and all-pass anyway).
uint8_t PossibleBits(int cmin, int cmax) {
  uint8_t possible = 0;
  for (int c = cmin; c <= cmax; ++c) {
    possible |= static_cast<uint8_t>(1 << (c + 1));
  }
  return possible;
}

// all-fail when no reachable class is accepted; all-pass when every
// reachable class is accepted; otherwise unprovable.
ZV TableZoneVerdict(uint8_t possible, uint8_t table) {
  if ((table & possible) == 0) {
    return ZV::kAllFail;
  }
  if ((possible & static_cast<uint8_t>(~table) & 0b111) == 0) {
    return ZV::kAllPass;
  }
  return ZV::kMixed;
}

// Wraps a per-row predicate (null handling excluded) into a leaf that
// masks NULL rows off with the null bitmap — or skips the bitmap
// entirely when the column has no NULLs. The predicate is evaluated
// unconditionally: NULL slots hold in-range defaults (0 / 0.0 / code 0,
// see ColumnarTable::Build), so the loads are safe and the `&` keeps the
// result exact.
//
// When `simd_fill` is provided the leaf first offers the span to the
// vector kernel. Morsel dispatch always starts chunks on a multiple of
// kMorselRows (a multiple of 64), so the verdict words line up with the
// null-bitmap words and the NULL mask is a word-wise ANDNOT instead of a
// per-row bit probe. The kernel either produces bit-identical verdicts
// or declines (no AVX2, test override), in which case the scalar loop
// runs — the mask is the same either way.
template <typename Pred>
Node MaskedLeafSimd(const Column* col, Pred pred, SimdFill simd_fill) {
  Node node;
  if (col->null_count == 0) {
    node = LeafNode([pred, simd_fill](size_t begin, size_t end,
                                      uint8_t* mask) {
      if (simd_fill && (begin & 63) == 0 && end - begin <= kMorselRows) {
        uint64_t bits[kMorselRows / 64];
        if (simd_fill(begin, end, bits)) {
          ExpandBits(bits, end - begin, mask);
          return;
        }
      }
      for (size_t r = begin; r < end; ++r) {
        mask[r - begin] = static_cast<uint8_t>(pred(r));
      }
    });
    node.row_pred = pred;
    node.simd = static_cast<bool>(simd_fill);
    return node;
  }
  const uint64_t* null_words = col->null_words.data();
  node = LeafNode([null_words, pred, simd_fill](size_t begin, size_t end,
                                                uint8_t* mask) {
    if (simd_fill && (begin & 63) == 0 && end - begin <= kMorselRows) {
      uint64_t bits[kMorselRows / 64];
      if (simd_fill(begin, end, bits)) {
        const size_t words = (end - begin + 63) / 64;
        for (size_t w = 0; w < words; ++w) {
          bits[w] &= ~null_words[(begin >> 6) + w];
        }
        ExpandBits(bits, end - begin, mask);
        return;
      }
    }
    for (size_t r = begin; r < end; ++r) {
      const auto not_null =
          static_cast<uint8_t>(~(null_words[r >> 6] >> (r & 63)) & 1);
      mask[r - begin] = static_cast<uint8_t>(not_null & pred(r));
    }
  });
  node.row_pred = [null_words, pred](size_t r) {
    return ((~(null_words[r >> 6] >> (r & 63)) & 1) != 0) && pred(r);
  };
  node.simd = static_cast<bool>(simd_fill);
  return node;
}

template <typename Pred>
Node MaskedLeaf(const Column* col, Pred pred) {
  return MaskedLeafSimd(col, std::move(pred), SimdFill());
}

// Wraps an extrema-level prover `zp` — a verdict about a zone's non-NULL,
// non-NaN cells, derived from its ZoneEntry — into the per-morsel zone fn
// of a MaskedLeaf, restoring the cells the extrema do not describe: NULL
// rows always fail a masked leaf, so all-pass additionally requires a
// NULL-free zone (all-NULL zones fail outright); NaN cells get the leaf's
// compile-time constant verdict `nan_pass`, so a has_nan zone keeps
// all-pass only when NaN passes too, and all-fail only when NaN fails.
// An all-NaN zone retains zeroed extrema — still sound, because `zp`'s
// claim then quantifies over zero cells and only the NaN/NULL
// adjustments decide the verdict.
template <typename ZP>
ZoneFn MaskedZone(const Column* col, bool nan_pass, ZP zp) {
  if (col->zones.empty()) {
    return nullptr;
  }
  const ZoneEntry* zones = col->zones.data();
  const size_t num_zones = col->zones.size();
  return [zones, num_zones, nan_pass, zp](size_t m) {
    if (m >= num_zones) {
      return ZV::kMixed;
    }
    const ZoneEntry& z = zones[m];
    if (z.valid_count == 0) {
      return ZV::kAllFail;
    }
    ZV v = zp(z);
    if (z.has_nan && ((v == ZV::kAllPass && !nan_pass) ||
                      (v == ZV::kAllFail && nan_pass))) {
      v = ZV::kMixed;
    }
    if (v == ZV::kAllPass && z.valid_count != z.row_count) {
      v = ZV::kMixed;
    }
    return v;
  };
}

// Zone prover for dictionary-code accept tables: prefix sums turn "how
// many accepted codes lie in [min_code, max_code]" into O(1) per zone.
// The dictionary is sorted, so the code extrema bound the zone's codes
// exactly; a full interval of accepted codes proves all-pass, an empty
// one all-fail.
ZoneFn DictZone(const Column* col, const std::vector<uint8_t>& accept) {
  if (col->zones.empty()) {
    return nullptr;
  }
  auto prefix =
      std::make_shared<std::vector<uint32_t>>(col->dict.size() + 1, 0);
  for (size_t c = 0; c < col->dict.size(); ++c) {
    (*prefix)[c + 1] = (*prefix)[c] + accept[c];
  }
  return MaskedZone(
      col, /*nan_pass=*/false,
      [prefix, n = col->dict.size()](const ZoneEntry& z) {
        const uint64_t lo = z.min_bits;
        const uint64_t hi = z.max_bits;
        if (hi >= n || lo > hi) {
          return ZV::kMixed;  // defensive: never trust corrupt extrema
        }
        const uint32_t hits = (*prefix)[hi + 1] - (*prefix)[lo];
        if (hits == 0) {
          return ZV::kAllFail;
        }
        if (hits == hi - lo + 1) {
          return ZV::kAllPass;
        }
        return ZV::kMixed;
      });
}

// Widens a compiled uint8 accept table once (the gather kernel reads full
// 32-bit lanes) and binds the AcceptCodes SIMD fill for `col`'s codes.
SimdFill DictSimd(const Column* col, const std::vector<uint8_t>& accept) {
  auto accept32 = std::make_shared<std::vector<uint32_t>>(accept.begin(),
                                                          accept.end());
  return [codes = col->codes.data(), accept32](size_t begin, size_t end,
                                               uint64_t* bits) {
    return simd::AcceptCodes(codes + begin, end - begin, accept32->data(),
                             accept32->size(), bits);
  };
}

// A dictionary-code membership leaf: row r passes iff accept[codes[r]].
// `accept` has one entry per dictionary code plus a trailing 0, so data()
// stays valid for an empty dictionary (NULL rows carry code 0 and are
// masked). Every string predicate reduces to this shape because the
// dictionary is sorted: its verdict depends only on the code.
Node DictLeaf(const Column* col, std::vector<uint8_t> accept) {
  ZoneFn zone = DictZone(col, accept);
  SimdFill fill = DictSimd(col, accept);
  Node node = MaskedLeafSimd(col,
                             [codes = col->codes.data(),
                              accept = std::move(accept)](size_t r) {
                               return accept[codes[r]] != 0;
                             },
                             std::move(fill));
  node.zone = std::move(zone);
  return node;
}

// ---- comparison kernels ----------------------------------------------

Node NumericCompareLeaf(const Column* col, const Value& lit, uint8_t table) {
  if (col->type == ValueType::kInt64 && lit.is_int64()) {
    // Both int64: Value::Compare compares exactly, with no double
    // round-trip (distinguishes 2^53 + 1 from 2^53).
    const int64_t b = lit.int64_value();
    const int64_t* vals = col->i64.data();
    Node node = MaskedLeafSimd(
        col,
        [vals, b, table](size_t r) {
          return ((table >> (Cmp3(vals[r], b) + 1)) & 1) != 0;
        },
        [vals, b, table](size_t begin, size_t end, uint64_t* bits) {
          return simd::CompareI64(vals + begin, end - begin, b, table,
                                  bits);
        });
    node.zone = MaskedZone(
        col, /*nan_pass=*/false, [b, table](const ZoneEntry& z) {
          const int cmin = Cmp3(static_cast<int64_t>(z.min_bits), b);
          const int cmax = Cmp3(static_cast<int64_t>(z.max_bits), b);
          return TableZoneVerdict(PossibleBits(cmin, cmax), table);
        });
    return node;
  }
  if (col->type == ValueType::kInt64) {
    // int64 cell vs double literal: mixed numerics widen via AsDouble.
    // Scalar only (AVX2 has no packed int64->double conversion), but the
    // cast is monotone, so the zone prover still applies to the widened
    // extrema.
    const double b = lit.double_value();
    Node node = MaskedLeaf(col, [vals = col->i64.data(), b,
                                 table](size_t r) {
      return ((table >> (Cmp3(static_cast<double>(vals[r]), b) + 1)) & 1) !=
             0;
    });
    node.zone = MaskedZone(
        col, /*nan_pass=*/false, [b, table](const ZoneEntry& z) {
          const int cmin = Cmp3(
              static_cast<double>(static_cast<int64_t>(z.min_bits)), b);
          const int cmax = Cmp3(
              static_cast<double>(static_cast<int64_t>(z.max_bits)), b);
          return TableZoneVerdict(PossibleBits(cmin, cmax), table);
        });
    return node;
  }
  const double b = lit.AsDouble();
  const double* vals = col->f64.data();
  Node node = MaskedLeafSimd(
      col,
      [vals, b, table](size_t r) {
        return ((table >> (Cmp3(vals[r], b) + 1)) & 1) != 0;
      },
      [vals, b, table](size_t begin, size_t end, uint64_t* bits) {
        return simd::CompareF64(vals + begin, end - begin, b, table, bits);
      });
  // NaN cells land on c == 0, the bit the literal's truth table accepts
  // or rejects uniformly; a NaN literal pins every comparison (extrema
  // included) to c == 0, so the possible-bits interval stays exact.
  node.zone = MaskedZone(
      col, /*nan_pass=*/((table >> 1) & 1) != 0,
      [b, table](const ZoneEntry& z) {
        const int cmin = Cmp3(DoubleFromBits(z.min_bits), b);
        const int cmax = Cmp3(DoubleFromBits(z.max_bits), b);
        return TableZoneVerdict(PossibleBits(cmin, cmax), table);
      });
  return node;
}

Node StringCompareLeaf(const Column* col, const std::string& s,
                       uint8_t table) {
  // p = first dictionary code with dict[code] >= s. Because the dictionary
  // is sorted, cell < s <=> code < p; when s is present, cell == s <=>
  // code == p; when absent, no cell equals s (c never 0 below).
  const auto it = std::lower_bound(col->dict.begin(), col->dict.end(), s);
  const uint32_t p = static_cast<uint32_t>(it - col->dict.begin());
  const bool present = it != col->dict.end() && *it == s;
  std::vector<uint8_t> accept(col->dict.size() + 1, 0);
  for (uint32_t code = 0; code < col->dict.size(); ++code) {
    const int c = present ? Cmp3(code, p) : (code < p ? -1 : 1);
    accept[code] = static_cast<uint8_t>((table >> (c + 1)) & 1);
  }
  return DictLeaf(col, std::move(accept));
}

Result<Node> CompileComparison(const ComparisonExpr& cmp,
                               const Schema& schema,
                               const ColumnarTable& ct) {
  const auto col_idx = schema.ColumnIndex(cmp.column());
  if (!col_idx.ok()) {
    // Unknown column: the row path errors per evaluated row (so a zero-row
    // table does NOT error). Refusing reproduces both outcomes.
    return NotCovered("unknown column '" + cmp.column() + "'");
  }
  const Column& col = ct.column(col_idx.value());
  const Value& lit = cmp.literal();
  if (lit.is_null()) {
    return ConstNode(false);  // comparison with NULL never matches
  }
  const int cc = ClassOfColumn(col.type);
  if (cc != ClassOf(lit)) {
    if (col.null_count == ct.num_rows()) {
      // Every cell NULL: the row path returns false before the
      // string-vs-numeric comparability check can error.
      return ConstNode(false);
    }
    // The row path errors on the first non-NULL cell — but only if
    // evaluation reaches it (AND/OR short-circuit): data-dependent, so
    // fall back rather than approximate.
    return NotCovered("class mismatch on column '" + cmp.column() + "'");
  }
  const uint8_t table = OpTruthTable(cmp.op());
  if (cc == 2) {
    return StringCompareLeaf(&col, lit.string_value(), table);
  }
  return NumericCompareLeaf(&col, lit, table);
}

// ---- IN (...) kernels ------------------------------------------------

// Files one numeric IN-list literal or value-set member: an int64 member
// of an int64 column stays exact in `vi`; any other widens to double in
// `vd`. A NaN member compares "equal" to every numeric cell under
// Value::Compare, so it sets `match_all` instead.
void AddNumericMember(const Column& col, const Value& v,
                      std::vector<int64_t>* vi, std::vector<double>* vd,
                      bool* match_all) {
  if (col.type == ValueType::kInt64 && v.is_int64()) {
    vi->push_back(v.int64_value());
    return;
  }
  const double d = v.AsDouble();
  if (std::isnan(d)) {
    *match_all = true;
  } else {
    vd->push_back(d);
  }
}

// Numeric membership leaf shared by IN lists and profile value sets: a
// non-NULL cell is found when `match_all` is set or it equals a member of
// `vi` (exactly) or `vd` (widened); `negated` (NOT IN) flips the verdict.
// On a double column `vi` is empty, and a NaN cell is found iff
// `any_numeric` (it compares "equal" to the first numeric member).
Node NumericMemberLeaf(const Column* col, std::vector<int64_t> vi,
                       std::vector<double> vd, bool match_all,
                       bool any_numeric, bool negated) {
  std::sort(vi.begin(), vi.end());
  std::sort(vd.begin(), vd.end());
  if (col->type == ValueType::kInt64) {
    // Zone prover: a match-all member is a uniform verdict; a constant
    // zone evaluates the membership once; a zone whose value range misses
    // every member (both lists sorted) proves no match. Overlap proves
    // nothing — membership inside the range stays kMixed.
    ZoneFn zone = MaskedZone(
        col, /*nan_pass=*/false,
        [vi, vd, match_all, negated](const ZoneEntry& z) {
          const int64_t zmin = static_cast<int64_t>(z.min_bits);
          const int64_t zmax = static_cast<int64_t>(z.max_bits);
          if (match_all) {
            return negated ? ZV::kAllFail : ZV::kAllPass;
          }
          if (zmin == zmax) {
            const bool found =
                MemberOf(vi, zmin) ||
                (!vd.empty() && MemberOf(vd, static_cast<double>(zmin)));
            return found != negated ? ZV::kAllPass : ZV::kAllFail;
          }
          const bool vi_overlap =
              !vi.empty() && vi.back() >= zmin && vi.front() <= zmax;
          const bool vd_overlap = !vd.empty() &&
                                  vd.back() >= static_cast<double>(zmin) &&
                                  vd.front() <= static_cast<double>(zmax);
          if (!vi_overlap && !vd_overlap) {
            return negated ? ZV::kAllPass : ZV::kAllFail;
          }
          return ZV::kMixed;
        });
    Node node = MaskedLeaf(col, [vals = col->i64.data(), vi = std::move(vi),
                                 vd = std::move(vd), match_all,
                                 negated](size_t r) {
      const int64_t a = vals[r];
      const bool found =
          match_all || MemberOf(vi, a) ||
          (!vd.empty() && MemberOf(vd, static_cast<double>(a)));
      return found != negated;
    });
    node.zone = std::move(zone);
    return node;
  }
  // nan_pass: a NaN cell matches iff there is a numeric member, then
  // negation flips. A bit-constant zone (min_bits == max_bits) evaluates
  // once — sound even across ±0.0, which compare equal everywhere the
  // predicate looks.
  ZoneFn zone = MaskedZone(
      col, /*nan_pass=*/any_numeric != negated,
      [vd, match_all, negated](const ZoneEntry& z) {
        const double zmin = DoubleFromBits(z.min_bits);
        const double zmax = DoubleFromBits(z.max_bits);
        if (match_all) {
          return negated ? ZV::kAllFail : ZV::kAllPass;
        }
        if (z.min_bits == z.max_bits) {
          return MemberOf(vd, zmin) != negated ? ZV::kAllPass
                                               : ZV::kAllFail;
        }
        if (vd.empty() || vd.back() < zmin || vd.front() > zmax) {
          return negated ? ZV::kAllPass : ZV::kAllFail;
        }
        return ZV::kMixed;
      });
  Node node = MaskedLeaf(col, [vals = col->f64.data(), vd = std::move(vd),
                               match_all, any_numeric, negated](size_t r) {
    const double a = vals[r];
    const bool found =
        std::isnan(a) ? any_numeric : (match_all || MemberOf(vd, a));
    return found != negated;
  });
  node.zone = std::move(zone);
  return node;
}

Result<Node> CompileInList(const InListExpr& in, const Schema& schema,
                           const ColumnarTable& ct) {
  const auto col_idx = schema.ColumnIndex(in.column());
  if (!col_idx.ok()) {
    return NotCovered("unknown column '" + in.column() + "'");
  }
  const Column& col = ct.column(col_idx.value());
  const int cc = ClassOfColumn(col.type);
  if (cc == 0 || col.null_count == ct.num_rows()) {
    // NULL cells return false *before* negation applies.
    return ConstNode(false);
  }
  for (const Value& v : in.values()) {
    if (!v.is_null() && ClassOf(v) != cc) {
      // Row path: error on the first cell that actually reaches this
      // literal (the scan breaks as soon as an earlier literal matches).
      return NotCovered("class mismatch in IN list on '" + in.column() +
                        "'");
    }
  }
  const bool negated = in.negated();
  if (cc == 2) {
    // NOT IN flips the bits up front so the loop stays a plain lookup.
    std::vector<uint8_t> member(col.dict.size() + 1, 0);
    for (const Value& v : in.values()) {
      if (v.is_null()) {
        continue;
      }
      const auto it = std::lower_bound(col.dict.begin(), col.dict.end(),
                                       v.string_value());
      if (it != col.dict.end() && *it == v.string_value()) {
        member[static_cast<size_t>(it - col.dict.begin())] = 1;
      }
    }
    if (negated) {
      for (size_t code = 0; code < col.dict.size(); ++code) {
        member[code] ^= 1;
      }
    }
    return DictLeaf(&col, std::move(member));
  }
  // Numeric column: int64 literals stay exact for int64 columns.
  bool match_all = false;
  bool any_numeric = false;
  std::vector<int64_t> vi;
  std::vector<double> vd;
  for (const Value& v : in.values()) {
    if (!v.is_null()) {
      any_numeric = true;
      AddNumericMember(col, v, &vi, &vd, &match_all);
    }
  }
  return NumericMemberLeaf(&col, std::move(vi), std::move(vd), match_all,
                           any_numeric, negated);
}

// ---- BETWEEN kernels -------------------------------------------------

// One BETWEEN endpoint: int64 endpoints compare exactly against int64
// cells; everything else widens to double (Value::Compare semantics).
struct NumBound {
  bool is_int = false;
  int64_t i = 0;
  double d = 0;
};

NumBound MakeBound(const Value& v) {
  NumBound b;
  if (v.is_int64()) {
    b.is_int = true;
    b.i = v.int64_value();
    b.d = static_cast<double>(v.int64_value());
  } else {
    b.d = v.double_value();
  }
  return b;
}

Result<Node> CompileBetween(const BetweenExpr& bt, const Schema& schema,
                            const ColumnarTable& ct) {
  const auto col_idx = schema.ColumnIndex(bt.column());
  if (!col_idx.ok()) {
    return NotCovered("unknown column '" + bt.column() + "'");
  }
  const Column& col = ct.column(col_idx.value());
  if (bt.lo().is_null() || bt.hi().is_null()) {
    // Row path returns false (before negation) for every row.
    return ConstNode(false);
  }
  const int cc = ClassOfColumn(col.type);
  if (cc == 0 || col.null_count == ct.num_rows()) {
    return ConstNode(false);  // NULL cells return false before negation
  }
  if (ClassOf(bt.lo()) != cc || ClassOf(bt.hi()) != cc) {
    return NotCovered("class mismatch in BETWEEN on '" + bt.column() + "'");
  }
  const bool negated = bt.negated();
  if (cc == 2) {
    // inside <=> lo <= cell <= hi <=> lb(lo) <= code < ub(hi); the verdict
    // depends only on the code, so precompute it per code.
    const auto lo_it = std::lower_bound(col.dict.begin(), col.dict.end(),
                                        bt.lo().string_value());
    const auto hi_it = std::upper_bound(col.dict.begin(), col.dict.end(),
                                        bt.hi().string_value());
    const uint32_t lo_code = static_cast<uint32_t>(lo_it - col.dict.begin());
    const uint32_t hi_code = static_cast<uint32_t>(hi_it - col.dict.begin());
    std::vector<uint8_t> accept(col.dict.size() + 1, 0);
    for (uint32_t code = 0; code < col.dict.size(); ++code) {
      const bool inside = code >= lo_code && code < hi_code;
      accept[code] = static_cast<uint8_t>(inside != negated);
    }
    return DictLeaf(&col, std::move(accept));
  }
  const NumBound lo = MakeBound(bt.lo());
  const NumBound hi = MakeBound(bt.hi());
  if (col.type == ValueType::kInt64) {
    Node node = MaskedLeaf(&col, [vals = col.i64.data(), lo, hi,
                                  negated](size_t r) {
      const int64_t a = vals[r];
      const int c1 = lo.is_int ? Cmp3(a, lo.i)
                               : Cmp3(static_cast<double>(a), lo.d);
      const int c2 = hi.is_int ? Cmp3(a, hi.i)
                               : Cmp3(static_cast<double>(a), hi.d);
      const bool inside = (c1 >= 0) & (c2 <= 0);
      return inside != negated;
    });
    // Interval membership is provable from extrema alone: both endpoints
    // inside means every cell inside (the per-bound compare is monotone
    // in the cell, NaN bounds included — a NaN bound compares c == 0 for
    // every cell, which is exactly what the row kernel computes).
    node.zone = MaskedZone(
        &col, /*nan_pass=*/false, [lo, hi, negated](const ZoneEntry& z) {
          const int64_t zmin = static_cast<int64_t>(z.min_bits);
          const int64_t zmax = static_cast<int64_t>(z.max_bits);
          const auto c_lo = [&lo](int64_t a) {
            return lo.is_int ? Cmp3(a, lo.i)
                             : Cmp3(static_cast<double>(a), lo.d);
          };
          const auto c_hi = [&hi](int64_t a) {
            return hi.is_int ? Cmp3(a, hi.i)
                             : Cmp3(static_cast<double>(a), hi.d);
          };
          if (c_lo(zmin) >= 0 && c_hi(zmax) <= 0) {
            return negated ? ZV::kAllFail : ZV::kAllPass;
          }
          if (c_lo(zmax) < 0 || c_hi(zmin) > 0) {
            return negated ? ZV::kAllPass : ZV::kAllFail;
          }
          return ZV::kMixed;
        });
    return node;
  }
  const double* fvals = col.f64.data();
  // The non-negated form is exactly RangeF64's inclusive-inclusive test,
  // NaN semantics included (a NaN cell — and a NaN bound — compares
  // "equal", putting the row inside). Negation inverts the mask, which
  // the bit kernel does not model, so NOT BETWEEN stays scalar.
  SimdFill fill;
  if (!negated) {
    fill = [fvals, lo, hi](size_t begin, size_t end, uint64_t* bits) {
      return simd::RangeF64(fvals + begin, end - begin, lo.d,
                            /*lo_inclusive=*/true, hi.d,
                            /*hi_inclusive=*/true, bits);
    };
  }
  Node node = MaskedLeafSimd(&col,
                             [vals = fvals, lo, hi, negated](size_t r) {
                               const double a = vals[r];
                               const bool inside = (Cmp3(a, lo.d) >= 0) &
                                                   (Cmp3(a, hi.d) <= 0);
                               return inside != negated;
                             },
                             std::move(fill));
  node.zone = MaskedZone(
      &col, /*nan_pass=*/!negated, [lo, hi, negated](const ZoneEntry& z) {
        const double zmin = DoubleFromBits(z.min_bits);
        const double zmax = DoubleFromBits(z.max_bits);
        if (Cmp3(zmin, lo.d) >= 0 && Cmp3(zmax, hi.d) <= 0) {
          return negated ? ZV::kAllFail : ZV::kAllPass;
        }
        if (Cmp3(zmax, lo.d) < 0 || Cmp3(zmin, hi.d) > 0) {
          return negated ? ZV::kAllPass : ZV::kAllFail;
        }
        return ZV::kMixed;
      });
  return node;
}

// ---- IS NULL / logical -----------------------------------------------

Result<Node> CompileIsNull(const IsNullExpr& expr, const Schema& schema,
                           const ColumnarTable& ct) {
  const auto col_idx = schema.ColumnIndex(expr.column());
  if (!col_idx.ok()) {
    return NotCovered("unknown column '" + expr.column() + "'");
  }
  const Column& col = ct.column(col_idx.value());
  const bool negated = expr.negated();
  // Uniform bitmaps fold to constants (the common no-NULL case skips the
  // per-row loop entirely); IS [NOT] NULL never errors on the row path,
  // so the fold is exact under AND/OR short-circuit too.
  if (col.null_count == 0) {
    return ConstNode(negated);
  }
  if (col.null_count == ct.num_rows()) {
    return ConstNode(!negated);
  }
  const auto flip = static_cast<uint64_t>(negated ? 1 : 0);
  const uint64_t* null_words = col.null_words.data();
  Node node = LeafNode([null_words, flip](size_t begin, size_t end,
                                          uint8_t* mask) {
    for (size_t r = begin; r < end; ++r) {
      mask[r - begin] = static_cast<uint8_t>(
          ((null_words[r >> 6] >> (r & 63)) & 1) ^ flip);
    }
  });
  node.row_pred = [null_words, flip](size_t r) {
    return (((null_words[r >> 6] >> (r & 63)) & 1) ^ flip) != 0;
  };
  // The zone counts decide IS [NOT] NULL exactly — no extrema involved.
  if (!col.zones.empty()) {
    node.zone = [zones = col.zones.data(), nz = col.zones.size(),
                 negated](size_t m) {
      if (m >= nz) {
        return CompiledPredicate::ZoneVerdict::kMixed;
      }
      const ZoneEntry& z = zones[m];
      const uint32_t matching =
          negated ? z.valid_count : z.row_count - z.valid_count;
      if (matching == 0) {
        return CompiledPredicate::ZoneVerdict::kAllFail;
      }
      if (matching == z.row_count) {
        return CompiledPredicate::ZoneVerdict::kAllPass;
      }
      return CompiledPredicate::ZoneVerdict::kMixed;
    };
  }
  return node;
}

Result<Node> CompileExpr(const Expr& expr, const Schema& schema,
                         const ColumnarTable& ct);

Result<Node> CompileLogical(const LogicalExpr& expr, const Schema& schema,
                            const ColumnarTable& ct) {
  const bool is_and = expr.op() == LogicalExpr::Op::kAnd;
  std::vector<Node> kids;
  for (const auto& child : expr.children()) {
    AUTOCAT_ASSIGN_OR_RETURN(Node node, CompileExpr(*child, schema, ct));
    if (is_and) {
      if (node.kind == Node::Kind::kConstFalse) {
        // Constant-false conjunct: the row path short-circuits every row
        // before reaching later children, so their (possibly
        // uncompilable) semantics can never be observed.
        return ConstNode(false);
      }
      if (node.kind == Node::Kind::kConstTrue) {
        continue;
      }
    } else {
      if (node.kind == Node::Kind::kConstTrue) {
        return ConstNode(true);
      }
      if (node.kind == Node::Kind::kConstFalse) {
        continue;
      }
    }
    kids.push_back(std::move(node));
  }
  if (kids.empty()) {
    return ConstNode(is_and);
  }
  if (kids.size() == 1) {
    return std::move(kids.front());
  }
  Node out;
  out.kind = is_and ? Node::Kind::kAnd : Node::Kind::kOr;
  out.children = std::move(kids);
  return out;
}

Result<Node> CompileExpr(const Expr& expr, const Schema& schema,
                         const ColumnarTable& ct) {
  switch (expr.kind()) {
    case ExprKind::kComparison:
      return CompileComparison(static_cast<const ComparisonExpr&>(expr),
                               schema, ct);
    case ExprKind::kInList:
      return CompileInList(static_cast<const InListExpr&>(expr), schema,
                           ct);
    case ExprKind::kBetween:
      return CompileBetween(static_cast<const BetweenExpr&>(expr), schema,
                            ct);
    case ExprKind::kIsNull:
      return CompileIsNull(static_cast<const IsNullExpr&>(expr), schema,
                           ct);
    case ExprKind::kLogical:
      return CompileLogical(static_cast<const LogicalExpr&>(expr), schema,
                            ct);
  }
  return NotCovered("unknown expression kind");
}

// ---- profile conditions ----------------------------------------------

Node CompileCondition(const AttributeCondition& cond, const Column& col) {
  const int cc = ClassOfColumn(col.type);
  if (cond.is_range()) {
    if (cc != 1) {
      // Matches(): non-numeric cells never satisfy a range; NULL never
      // matches. (A NaN cell, however, satisfies *every* range — the
      // literal Contains() translation below preserves that.)
      return ConstNode(false);
    }
    const NumericRange range = cond.range;
    // Extrema prove ranges directly: out_lo is non-increasing and out_hi
    // non-decreasing in the cell, so the zone is all-inside iff its min
    // clears the low bound and its max clears the high bound, and
    // all-outside iff its max is below the range or its min above. NaN
    // cells are inside every range (nan_pass).
    const auto range_zone = [range](double zmin, double zmax) {
      const auto out_lo = [range](double x) {
        return ((x < range.lo) |
                ((x == range.lo) & !range.lo_inclusive)) != 0;
      };
      const auto out_hi = [range](double x) {
        return ((x > range.hi) |
                ((x == range.hi) & !range.hi_inclusive)) != 0;
      };
      if (!out_lo(zmin) && !out_hi(zmax)) {
        return ZV::kAllPass;
      }
      if (out_lo(zmax) || out_hi(zmin)) {
        return ZV::kAllFail;
      }
      return ZV::kMixed;
    };
    if (col.type == ValueType::kInt64) {
      Node node = MaskedLeaf(&col, [vals = col.i64.data(),
                                    range](size_t r) {
        const double x = static_cast<double>(vals[r]);
        const bool out_lo =
            (x < range.lo) | ((x == range.lo) & !range.lo_inclusive);
        const bool out_hi =
            (x > range.hi) | ((x == range.hi) & !range.hi_inclusive);
        return !(out_lo | out_hi);
      });
      node.zone = MaskedZone(
          &col, /*nan_pass=*/true, [range_zone](const ZoneEntry& z) {
            return range_zone(
                static_cast<double>(static_cast<int64_t>(z.min_bits)),
                static_cast<double>(static_cast<int64_t>(z.max_bits)));
          });
      return node;
    }
    const double* fvals = col.f64.data();
    Node node = MaskedLeafSimd(
        &col,
        [vals = fvals, range](size_t r) {
          const double x = vals[r];
          const bool out_lo =
              (x < range.lo) | ((x == range.lo) & !range.lo_inclusive);
          const bool out_hi =
              (x > range.hi) | ((x == range.hi) & !range.hi_inclusive);
          return !(out_lo | out_hi);
        },
        [fvals, range](size_t begin, size_t end, uint64_t* bits) {
          return simd::RangeF64(fvals + begin, end - begin, range.lo,
                                range.lo_inclusive, range.hi,
                                range.hi_inclusive, bits);
        });
    node.zone = MaskedZone(
        &col, /*nan_pass=*/true, [range_zone](const ZoneEntry& z) {
          return range_zone(DoubleFromBits(z.min_bits),
                            DoubleFromBits(z.max_bits));
        });
    return node;
  }
  // Value set: only members of the column's comparison class can be equal
  // to a cell; mixed-class members are simply never matched by the
  // std::set<Value>::count tree walk (classes order totally), so they are
  // dropped here. A NaN member compares "equal" to every numeric, so the
  // set keeps one only when it holds no other numeric member, and count()
  // then matches every non-NULL numeric cell: the IN list's match-all
  // literal.
  if (cc == 0) {
    return ConstNode(false);
  }
  if (cc == 2) {
    std::vector<uint8_t> member(col.dict.size() + 1, 0);
    bool any = false;
    for (const Value& v : cond.values) {
      if (!v.is_string()) {
        continue;
      }
      const auto it = std::lower_bound(col.dict.begin(), col.dict.end(),
                                       v.string_value());
      if (it != col.dict.end() && *it == v.string_value()) {
        member[static_cast<size_t>(it - col.dict.begin())] = 1;
        any = true;
      }
    }
    if (!any) {
      return ConstNode(false);
    }
    return DictLeaf(&col, std::move(member));
  }
  bool match_all = false;
  bool any_numeric = false;
  std::vector<int64_t> vi;
  std::vector<double> vd;
  for (const Value& v : cond.values) {
    if (v.is_numeric()) {
      any_numeric = true;
      AddNumericMember(col, v, &vi, &vd, &match_all);
    }
  }
  if (!any_numeric) {
    return ConstNode(false);
  }
  return NumericMemberLeaf(&col, std::move(vi), std::move(vd), match_all,
                           any_numeric, /*negated=*/false);
}

// ---- evaluation ------------------------------------------------------

// A kernel chunk and a pipeline morsel are the same unit, so survivors
// flow from AppendMorselSurvivors straight into the pipeline sinks.
constexpr size_t kChunkRows = kMorselRows;

void EvalNode(const Node& node, size_t begin, size_t end, uint8_t* mask);

// All-leaf conjunction (the CompileProfile shape): evaluate the first
// child densely, then test later children only on the rows still alive,
// compacting the survivor list as it shrinks. The final mask is
// bit-identical to the dense merge in EvalNode: compiled leaves are
// exact and error-free, so evaluation order cannot be observed. Kept out
// of EvalNode so the survivor array is not stacked once per recursion
// level.
void EvalAndOfLeaves(const Node& node, size_t begin, size_t end,
                     uint8_t* mask) {
  const size_t n = end - begin;
  EvalNode(node.children.front(), begin, end, mask);
  uint32_t idx[kChunkRows];  // surviving offsets within the chunk
  size_t count = 0;
  for (size_t j = 0; j < n; ++j) {
    idx[count] = static_cast<uint32_t>(j);
    count += mask[j];
  }
  for (size_t i = 1; i < node.children.size() && count > 0; ++i) {
    const auto& pred = node.children[i].row_pred;
    size_t kept = 0;
    for (size_t k = 0; k < count; ++k) {
      const uint32_t j = idx[k];
      idx[kept] = j;
      kept += static_cast<size_t>(pred(begin + j));
    }
    count = kept;
  }
  std::fill_n(mask, n, uint8_t{0});
  for (size_t k = 0; k < count; ++k) {
    mask[idx[k]] = 1;
  }
}

void EvalNode(const Node& node, size_t begin, size_t end, uint8_t* mask) {
  const size_t n = end - begin;
  switch (node.kind) {
    case Node::Kind::kConstFalse:
      std::fill_n(mask, n, uint8_t{0});
      return;
    case Node::Kind::kConstTrue:
      std::fill_n(mask, n, uint8_t{1});
      return;
    case Node::Kind::kLeaf:
      node.leaf(begin, end, mask);
      return;
    case Node::Kind::kAnd:
    case Node::Kind::kOr: {
      if (node.kind == Node::Kind::kAnd && n <= kChunkRows &&
          std::all_of(node.children.begin(), node.children.end(),
                      [](const Node& c) {
                        return static_cast<bool>(c.row_pred);
                      })) {
        EvalAndOfLeaves(node, begin, end, mask);
        return;
      }
      EvalNode(node.children.front(), begin, end, mask);
      std::vector<uint8_t> tmp(n);
      const bool is_and = node.kind == Node::Kind::kAnd;
      for (size_t i = 1; i < node.children.size(); ++i) {
        EvalNode(node.children[i], begin, end, tmp.data());
        if (is_and) {
          for (size_t j = 0; j < n; ++j) {
            mask[j] &= tmp[j];
          }
        } else {
          for (size_t j = 0; j < n; ++j) {
            mask[j] |= tmp[j];
          }
        }
      }
      return;
    }
  }
}

// Composes leaf zone verdicts over the tree. AND: one all-fail child
// zeroes the conjunction, all-all-pass keeps every row; OR is the dual.
// A leaf without a prover (or a morsel outside its zone map) is simply
// unprovable — kMixed is always safe, so composition refuses rather than
// approximates and the verdict never contradicts EvalNode.
ZV NodeVerdict(const Node& node, size_t m) {
  switch (node.kind) {
    case Node::Kind::kConstFalse:
      return ZV::kAllFail;
    case Node::Kind::kConstTrue:
      return ZV::kAllPass;
    case Node::Kind::kLeaf:
      return node.zone ? node.zone(m) : ZV::kMixed;
    case Node::Kind::kAnd: {
      bool all_pass = true;
      for (const Node& child : node.children) {
        const ZV v = NodeVerdict(child, m);
        if (v == ZV::kAllFail) {
          return ZV::kAllFail;
        }
        all_pass &= (v == ZV::kAllPass);
      }
      return all_pass ? ZV::kAllPass : ZV::kMixed;
    }
    case Node::Kind::kOr: {
      bool all_fail = true;
      for (const Node& child : node.children) {
        const ZV v = NodeVerdict(child, m);
        if (v == ZV::kAllPass) {
          return ZV::kAllPass;
        }
        all_fail &= (v == ZV::kAllFail);
      }
      return all_fail ? ZV::kAllFail : ZV::kMixed;
    }
  }
  return ZV::kMixed;
}

bool TreeUsesSimd(const Node& node) {
  if (node.simd) {
    return true;
  }
  for (const Node& child : node.children) {
    if (TreeUsesSimd(child)) {
      return true;
    }
  }
  return false;
}

}  // namespace

CompiledPredicate::CompiledPredicate(
    std::shared_ptr<const ColumnarTable> columnar, Node root)
    : columnar_(std::move(columnar)),
      root_(std::move(root)),
      uses_simd_(TreeUsesSimd(root_)) {}

Result<CompiledPredicate> CompiledPredicate::Compile(
    const Expr& expr, const Schema& schema,
    std::shared_ptr<const ColumnarTable> columnar) {
  if (columnar == nullptr) {
    return Status::NotSupported("no columnar shadow");
  }
  AUTOCAT_ASSIGN_OR_RETURN(Node root, CompileExpr(expr, schema, *columnar));
  return CompiledPredicate(std::move(columnar), std::move(root));
}

Result<CompiledPredicate> CompiledPredicate::CompileProfile(
    const SelectionProfile& profile, const Schema& schema,
    std::shared_ptr<const ColumnarTable> columnar) {
  if (columnar == nullptr) {
    return Status::InvalidArgument("no columnar shadow");
  }
  std::vector<Node> kids;
  bool const_false = false;
  for (const auto& [attr, cond] : profile.conditions()) {
    const auto col_idx = schema.ColumnIndex(attr);
    if (!col_idx.ok()) {
      // MatchesRow: an unknown attribute makes every row non-matching.
      const_false = true;
      break;
    }
    Node node = CompileCondition(cond, columnar->column(col_idx.value()));
    if (node.kind == Node::Kind::kConstFalse) {
      const_false = true;
      break;
    }
    if (node.kind != Node::Kind::kConstTrue) {
      kids.push_back(std::move(node));
    }
  }
  Node root;
  if (const_false) {
    root = ConstNode(false);
  } else if (kids.empty()) {
    root = ConstNode(true);
  } else if (kids.size() == 1) {
    root = std::move(kids.front());
  } else {
    root.kind = Node::Kind::kAnd;
    root.children = std::move(kids);
  }
  return CompiledPredicate(std::move(columnar), std::move(root));
}

size_t CompiledPredicate::num_morsels() const {
  return NumMorsels(num_rows());
}

CompiledPredicate::ZoneVerdict CompiledPredicate::MorselVerdict(
    size_t m) const {
  return NodeVerdict(root_, m);
}

void CompiledPredicate::AppendMorselSurvivors(
    size_t m, std::vector<uint32_t>* out) const {
  const size_t n = num_rows();
  const size_t begin = m * kChunkRows;
  const size_t end = std::min(n, begin + kChunkRows);
  if (begin >= end) {
    return;
  }
  switch (NodeVerdict(root_, m)) {
    case ZoneVerdict::kAllFail:
      return;  // proven empty: no cell is touched
    case ZoneVerdict::kAllPass: {
      // Proven full: dense append, no per-row evaluation.
      for (size_t r = begin; r < end; ++r) {
        out->push_back(static_cast<uint32_t>(r));
      }
      return;
    }
    case ZoneVerdict::kMixed:
      break;
  }
  uint8_t mask[kChunkRows];
  EvalNode(root_, begin, end, mask);
  for (size_t r = begin; r < end; ++r) {
    if (mask[r - begin] != 0) {
      out->push_back(static_cast<uint32_t>(r));
    }
  }
}

Result<std::vector<uint32_t>> CompiledPredicate::Filter(
    const ParallelOptions& parallel) const {
  const size_t n = num_rows();
  std::vector<uint32_t> out;
  if (n == 0) {
    return out;
  }
  const size_t chunks = num_morsels();
  if (parallel.ResolvedThreads() <= 1 || chunks <= 1) {
    // Sequential fast path: identical chunking, appended in chunk order.
    for (size_t chunk = 0; chunk < chunks; ++chunk) {
      AppendMorselSurvivors(chunk, &out);
    }
    return out;
  }
  // Per-chunk shards merged in chunk order: bit-identical to the
  // sequential path at any thread count. Dispatch goes through the morsel
  // scheduler — the sole ParallelFor site for the exec/serve layers.
  std::vector<std::vector<uint32_t>> shards(chunks);
  AUTOCAT_RETURN_IF_ERROR(MorselScheduler::Run(
      parallel, chunks, [&](size_t chunk) -> Status {
        AppendMorselSurvivors(chunk, &shards[chunk]);
        return Status::OK();
      }));
  size_t total = 0;
  for (const auto& shard : shards) {
    total += shard.size();
  }
  out.reserve(total);
  for (const auto& shard : shards) {
    out.insert(out.end(), shard.begin(), shard.end());
  }
  return out;
}

}  // namespace autocat
