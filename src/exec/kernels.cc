#include "exec/kernels.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "exec/pipeline/morsel.h"
#include "exec/pipeline/scheduler.h"

namespace autocat {

struct PredicateLeaf {
  /// Writes the condition's 0/1 verdict for base rows [begin, end) (at
  /// most one morsel) into `mask`.
  std::function<void(size_t begin, size_t end, uint8_t* mask)> fill;
  /// Single-row form of `fill` (same verdict for every row, including
  /// the null mask). Lets a conjunction evaluate its first leaf densely
  /// and test later leaves only on surviving rows.
  std::function<bool(size_t row)> row_pred;
  /// Optional zone prover: a per-morsel verdict derived from the
  /// column's zone map, never contradicting `fill`. Missing means every
  /// morsel is unprovable (kMixed).
  std::function<CompiledPredicate::ZoneVerdict(size_t m)> zone;
  /// Dictionary leaves over a column with posting lists: that column and
  /// the accepted codes, whose lists together hold exactly the rows the
  /// leaf passes (NULL rows are in no list), and the lists' total length.
  const ColumnarTable::Column* postings = nullptr;
  std::vector<uint32_t> accepted_codes;
  size_t candidates = 0;
};

namespace {

using Leaf = PredicateLeaf;
using Column = ColumnarTable::Column;

// Comparison class of a column's cells under Value::Compare: numerics are
// one class, strings another; 0 for an untyped column.
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

// ---- branchless helpers ----------------------------------------------
//
// The per-row loops below avoid data-dependent branches: on ~random data
// every short-circuit `&&` or `||` mispredicts, which costs an order of
// magnitude more than the arithmetic it saves.
// Leaves also capture raw array pointers (stable for the lifetime of the
// shared shadow) rather than the Column*, so the `uint8_t* mask` stores —
// which may alias anything — cannot force the compiler to reload the
// vector data pointers on every iteration.

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

// ---- zone proving ----------------------------------------------------

using ZV = CompiledPredicate::ZoneVerdict;
using ZoneFn = std::function<ZV(size_t)>;

double DoubleFromBits(uint64_t bits) {
  double d = 0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

// Wraps a per-row predicate (null handling excluded) into a leaf that
// masks NULL rows off with the null bitmap — or skips the bitmap
// entirely when the column has no NULLs. The predicate is evaluated
// unconditionally: NULL slots hold in-range defaults (0 / 0.0 / code 0,
// see ColumnarTable::Build), so the loads are safe and the `&` keeps the
// result exact. This `fill`/`row_pred` pair is every leaf's one
// implementation (DESIGN.md §15).
template <typename Pred>
Leaf MaskedLeaf(const Column* col, Pred pred) {
  Leaf leaf;
  if (col->null_count == 0) {
    leaf.fill = [pred](size_t begin, size_t end, uint8_t* mask) {
      for (size_t r = begin; r < end; ++r) {
        mask[r - begin] = static_cast<uint8_t>(pred(r));
      }
    };
    leaf.row_pred = pred;
    return leaf;
  }
  const uint64_t* null_words = col->null_words.data();
  leaf.fill = [null_words, pred](size_t begin, size_t end, uint8_t* mask) {
    for (size_t r = begin; r < end; ++r) {
      const auto not_null =
          static_cast<uint8_t>(~(null_words[r >> 6] >> (r & 63)) & 1);
      mask[r - begin] = static_cast<uint8_t>(not_null & pred(r));
    }
  };
  leaf.row_pred = [null_words, pred](size_t r) {
    return ((~(null_words[r >> 6] >> (r & 63)) & 1) != 0) && pred(r);
  };
  return leaf;
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

// A dictionary-code membership leaf: row r passes iff accept[codes[r]].
// `accept` has one entry per dictionary code plus a trailing 0, so data()
// stays valid for an empty dictionary (NULL rows carry code 0 and are
// masked). A string value set reduces to this shape: its verdict depends
// only on the code. On a column with posting lists the leaf also records
// its accepted codes, the candidate source's raw material.
Leaf DictLeaf(const Column* col, const std::vector<uint8_t>& accept) {
  Leaf leaf = MaskedLeaf(col, [codes = col->codes.data(), accept](size_t r) {
    return accept[codes[r]] != 0;
  });
  leaf.zone = DictZone(col, accept);
  if (!col->posting_offsets.empty()) {
    leaf.postings = col;
    for (size_t c = 0; c < col->dict.size(); ++c) {
      if (accept[c] != 0) {
        leaf.accepted_codes.push_back(static_cast<uint32_t>(c));
        leaf.candidates +=
            col->posting_offsets[c + 1] - col->posting_offsets[c];
      }
    }
  }
  return leaf;
}

// ---- value-set kernels ---------------------------------------------

// Files one numeric value-set member: an int64 member
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

// Numeric value-set leaf: a non-NULL cell is found when `match_all` is
// set or it equals a member of `vi` (exactly) or `vd` (widened). The set
// holds at least one numeric member, so on a double column (where `vi` is
// empty) a NaN cell is always found: it compares "equal" to that member.
Leaf NumericMemberLeaf(const Column* col, std::vector<int64_t> vi,
                       std::vector<double> vd, bool match_all) {
  std::sort(vi.begin(), vi.end());
  std::sort(vd.begin(), vd.end());
  if (col->type == ValueType::kInt64) {
    // Zone prover: a match-all member is a uniform verdict; a constant
    // zone evaluates the membership once; a zone whose value range misses
    // every member (both lists sorted) proves no match. Overlap proves
    // nothing — membership inside the range stays kMixed.
    ZoneFn zone = MaskedZone(
        col, /*nan_pass=*/false, [vi, vd, match_all](const ZoneEntry& z) {
          const int64_t zmin = static_cast<int64_t>(z.min_bits);
          const int64_t zmax = static_cast<int64_t>(z.max_bits);
          if (match_all) {
            return ZV::kAllPass;
          }
          if (zmin == zmax) {
            const bool found =
                MemberOf(vi, zmin) ||
                (!vd.empty() && MemberOf(vd, static_cast<double>(zmin)));
            return found ? ZV::kAllPass : ZV::kAllFail;
          }
          const bool vi_overlap =
              !vi.empty() && vi.back() >= zmin && vi.front() <= zmax;
          const bool vd_overlap = !vd.empty() &&
                                  vd.back() >= static_cast<double>(zmin) &&
                                  vd.front() <= static_cast<double>(zmax);
          if (!vi_overlap && !vd_overlap) {
            return ZV::kAllFail;
          }
          return ZV::kMixed;
        });
    Leaf leaf = MaskedLeaf(col, [vals = col->i64.data(), vi = std::move(vi),
                                 vd = std::move(vd), match_all](size_t r) {
      const int64_t a = vals[r];
      return match_all || MemberOf(vi, a) ||
             (!vd.empty() && MemberOf(vd, static_cast<double>(a)));
    });
    leaf.zone = std::move(zone);
    return leaf;
  }
  // NaN cells pass (nan_pass). A bit-constant zone (min_bits == max_bits)
  // evaluates once — sound even across ±0.0, which compare equal
  // everywhere the predicate looks.
  ZoneFn zone = MaskedZone(
      col, /*nan_pass=*/true, [vd, match_all](const ZoneEntry& z) {
        const double zmin = DoubleFromBits(z.min_bits);
        const double zmax = DoubleFromBits(z.max_bits);
        if (match_all) {
          return ZV::kAllPass;
        }
        if (z.min_bits == z.max_bits) {
          return MemberOf(vd, zmin) ? ZV::kAllPass : ZV::kAllFail;
        }
        if (vd.empty() || vd.back() < zmin || vd.front() > zmax) {
          return ZV::kAllFail;
        }
        return ZV::kMixed;
      });
  Leaf leaf = MaskedLeaf(col, [vals = col->f64.data(), vd = std::move(vd),
                               match_all](size_t r) {
    const double a = vals[r];
    return std::isnan(a) || match_all || MemberOf(vd, a);
  });
  leaf.zone = std::move(zone);
  return leaf;
}

// ---- profile conditions ----------------------------------------------

// Compiles one profile condition; nullopt when no row can match it.
std::optional<Leaf> CompileCondition(const AttributeCondition& cond,
                                     const Column& col) {
  const int cc = ClassOfColumn(col.type);
  if (cond.is_range()) {
    if (cc != 1) {
      // Matches(): non-numeric cells never satisfy a range; NULL never
      // matches. (A NaN cell, however, satisfies *every* range — the
      // literal Contains() translation below preserves that.)
      return std::nullopt;
    }
    const NumericRange range = cond.range;
    // Branch-free bound tests; every ordered comparison with NaN is false,
    // so a NaN cell is out of neither bound.
    const auto out_lo = [range](double x) {
      return ((x < range.lo) | ((x == range.lo) & !range.lo_inclusive)) != 0;
    };
    const auto out_hi = [range](double x) {
      return ((x > range.hi) | ((x == range.hi) & !range.hi_inclusive)) != 0;
    };
    // Extrema prove ranges directly: out_lo is non-increasing and out_hi
    // non-decreasing in the cell, so the zone is all-inside iff its min
    // clears the low bound and its max clears the high bound, and
    // all-outside iff its max is below the range or its min above. NaN
    // cells are inside every range (nan_pass).
    const auto range_zone = [out_lo, out_hi](double zmin, double zmax) {
      if (!out_lo(zmin) && !out_hi(zmax)) {
        return ZV::kAllPass;
      }
      if (out_lo(zmax) || out_hi(zmin)) {
        return ZV::kAllFail;
      }
      return ZV::kMixed;
    };
    if (col.type == ValueType::kInt64) {
      Leaf leaf = MaskedLeaf(
          &col, [vals = col.i64.data(), out_lo, out_hi](size_t r) {
            const double x = static_cast<double>(vals[r]);
            return !(out_lo(x) | out_hi(x));
          });
      leaf.zone = MaskedZone(
          &col, /*nan_pass=*/true, [range_zone](const ZoneEntry& z) {
            return range_zone(
                static_cast<double>(static_cast<int64_t>(z.min_bits)),
                static_cast<double>(static_cast<int64_t>(z.max_bits)));
          });
      return leaf;
    }
    Leaf leaf = MaskedLeaf(
        &col, [vals = col.f64.data(), out_lo, out_hi](size_t r) {
          return !(out_lo(vals[r]) | out_hi(vals[r]));
        });
    leaf.zone = MaskedZone(
        &col, /*nan_pass=*/true, [range_zone](const ZoneEntry& z) {
          return range_zone(DoubleFromBits(z.min_bits),
                            DoubleFromBits(z.max_bits));
        });
    return leaf;
  }
  // Value set: only members of the column's comparison class can be equal
  // to a cell; mixed-class members are simply never matched by the
  // std::set<Value>::count tree walk (classes order totally), so they are
  // dropped here. A NaN member compares "equal" to every numeric, so the
  // set keeps one only when it holds no other numeric member, and count()
  // then matches every non-NULL numeric cell: a match-all member.
  if (cc == 0) {
    return std::nullopt;
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
      return std::nullopt;
    }
    return DictLeaf(&col, member);
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
    return std::nullopt;
  }
  return NumericMemberLeaf(&col, std::move(vi), std::move(vd), match_all);
}

// ---- evaluation ------------------------------------------------------

// A kernel chunk and a morsel are the same unit, so the zone prover's
// per-morsel verdicts apply to whole chunks.
constexpr size_t kChunkRows = kMorselRows;

// Evaluates a non-empty conjunction over base rows [begin, end) (at most
// one chunk, starting on a multiple of 64) into `idx`, the ascending
// offsets of the surviving rows within the chunk, and returns their
// count. The survivor list starts from the candidate source: the set bits
// of `candidates` (the first leaf's accept set as a bitmap over base
// rows, so that leaf is not evaluated again) or else the first leaf's
// dense `fill`. Later leaves run only on the rows still alive,
// compacting the list as it shrinks. Compiled leaves are exact and
// error-free, so evaluation order cannot be observed.
size_t EvalAndOfLeaves(const std::vector<Leaf>& leaves,
                       const uint64_t* candidates, size_t begin, size_t end,
                       uint32_t* idx) {
  const size_t n = end - begin;
  size_t count = 0;
  if (candidates != nullptr) {
    // Bits past the last base row are never set, so the tail word of the
    // last chunk needs no mask.
    for (size_t w = 0; w * 64 < n; ++w) {
      for (uint64_t word = candidates[(begin >> 6) + w]; word != 0;
           word &= word - 1) {
        idx[count++] =
            static_cast<uint32_t>(w * 64 + std::countr_zero(word));
      }
    }
  } else {
    uint8_t mask[kChunkRows];
    leaves.front().fill(begin, end, mask);
    for (size_t j = 0; j < n; ++j) {
      idx[count] = static_cast<uint32_t>(j);
      count += mask[j];
    }
  }
  for (size_t i = 1; i < leaves.size() && count > 0; ++i) {
    const auto& pred = leaves[i].row_pred;
    size_t kept = 0;
    for (size_t k = 0; k < count; ++k) {
      const uint32_t j = idx[k];
      idx[kept] = j;
      kept += static_cast<size_t>(pred(begin + j));
    }
    count = kept;
  }
  return count;
}

// Test and benchmark override of the candidate-source rule.
// atomic-order: seq_cst loads and stores; a standalone flag guarding no
// other data, and every rule yields the same output.
std::atomic<CompiledPredicate::CandidateSource> g_candidate_source{
    CompiledPredicate::CandidateSource::kCutoff};

// Picks the filter's candidate source: the dictionary leaf whose posting
// union names the fewest rows, if that is at most n / kPostingCutoffDivisor
// rows. That leaf moves to the front of the conjunction (order is
// unobservable, see EvalAndOfLeaves) and its union comes back as a bitmap
// over base rows; an empty bitmap means the dense scan. The union is the
// leaf's exact accept set: each list holds the rows of one accepted code
// and NULL rows are in none, just as the masked leaf fails them.
std::vector<uint64_t> TakeCandidateSource(std::vector<Leaf>* leaves,
                                          size_t n) {
  using Source = CompiledPredicate::CandidateSource;
  const Source mode = g_candidate_source.load(std::memory_order_seq_cst);
  auto best = leaves->end();
  for (auto it = leaves->begin(); it != leaves->end(); ++it) {
    if (it->postings != nullptr &&
        (best == leaves->end() || it->candidates < best->candidates)) {
      best = it;
    }
  }
  if (best == leaves->end() || mode == Source::kDense ||
      (mode == Source::kCutoff &&
       best->candidates * CompiledPredicate::kPostingCutoffDivisor > n)) {
    return {};
  }
  std::rotate(leaves->begin(), best, best + 1);
  const Leaf& source = leaves->front();
  const std::vector<uint32_t>& offsets = source.postings->posting_offsets;
  const uint32_t* rows = source.postings->posting_rows.data();
  std::vector<uint64_t> bits((n + 63) / 64, 0);
  for (const uint32_t code : source.accepted_codes) {
    for (uint32_t k = offsets[code]; k < offsets[code + 1]; ++k) {
      bits[rows[k] >> 6] |= uint64_t{1} << (rows[k] & 63);
    }
  }
  return bits;
}

}  // namespace

void CompiledPredicate::ForceCandidateSourceForTest(CandidateSource source) {
  g_candidate_source.store(source, std::memory_order_seq_cst);
}

CompiledPredicate::CompiledPredicate(
    std::shared_ptr<const ColumnarTable> columnar, std::vector<Leaf> leaves,
    bool never_matches)
    : columnar_(std::move(columnar)),
      leaves_(std::move(leaves)),
      never_matches_(never_matches),
      candidates_(TakeCandidateSource(&leaves_, num_rows())) {}

CompiledPredicate::CompiledPredicate(CompiledPredicate&&) noexcept = default;
CompiledPredicate& CompiledPredicate::operator=(CompiledPredicate&&) noexcept =
    default;
CompiledPredicate::~CompiledPredicate() = default;

Result<CompiledPredicate> CompiledPredicate::CompileProfile(
    const SelectionProfile& profile, const Schema& schema,
    std::shared_ptr<const ColumnarTable> columnar) {
  if (columnar == nullptr) {
    return Status::InvalidArgument("no columnar shadow");
  }
  std::vector<Leaf> leaves;
  for (const auto& [attr, cond] : profile.conditions()) {
    const auto col_idx = schema.ColumnIndex(attr);
    // MatchesRow: an unknown attribute makes every row non-matching.
    std::optional<Leaf> leaf =
        col_idx.ok()
            ? CompileCondition(cond, columnar->column(col_idx.value()))
            : std::nullopt;
    if (!leaf.has_value()) {
      return CompiledPredicate(std::move(columnar), {},
                               /*never_matches=*/true);
    }
    leaves.push_back(std::move(*leaf));
  }
  return CompiledPredicate(std::move(columnar), std::move(leaves),
                           /*never_matches=*/false);
}

size_t CompiledPredicate::num_morsels() const {
  return NumMorsels(num_rows());
}

// A leaf without a prover (or a morsel outside its zone map) is simply
// unprovable — kMixed is always safe, so composition refuses rather than
// approximates and the verdict never contradicts evaluation.
CompiledPredicate::ZoneVerdict CompiledPredicate::MorselVerdict(
    size_t m) const {
  if (never_matches_) {
    return ZoneVerdict::kAllFail;
  }
  bool all_pass = true;
  for (const Leaf& leaf : leaves_) {
    const ZoneVerdict v = leaf.zone ? leaf.zone(m) : ZoneVerdict::kMixed;
    if (v == ZoneVerdict::kAllFail) {
      return ZoneVerdict::kAllFail;
    }
    all_pass &= (v == ZoneVerdict::kAllPass);
  }
  return all_pass ? ZoneVerdict::kAllPass : ZoneVerdict::kMixed;
}

// Mirrors AppendMorselSurvivors' dispatch: zone-proven morsels touch no
// cell, and a mixed morsel examines either its candidate rows or all of
// its rows through the first leaf's fill.
CompiledPredicate::MorselWork CompiledPredicate::PlanMorsel(size_t m) const {
  MorselWork work;
  work.verdict = MorselVerdict(m);
  const size_t begin = m * kChunkRows;
  const size_t end = std::min(num_rows(), begin + kChunkRows);
  if (work.verdict != ZoneVerdict::kMixed || begin >= end) {
    return work;
  }
  if (candidates_.empty()) {
    work.rows_examined = end - begin;
    return work;
  }
  for (size_t w = begin >> 6; w << 6 < end; ++w) {
    work.rows_examined += static_cast<size_t>(std::popcount(candidates_[w]));
  }
  return work;
}

void CompiledPredicate::AppendMorselSurvivors(
    size_t m, std::vector<uint32_t>* out) const {
  const size_t n = num_rows();
  const size_t begin = m * kChunkRows;
  const size_t end = std::min(n, begin + kChunkRows);
  if (begin >= end) {
    return;
  }
  // kMixed implies at least one leaf: never-matches is kAllFail and an
  // empty conjunction kAllPass.
  switch (MorselVerdict(m)) {
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
  uint32_t idx[kChunkRows];
  const size_t count = EvalAndOfLeaves(
      leaves_, candidates_.empty() ? nullptr : candidates_.data(), begin,
      end, idx);
  const size_t base = out->size();
  out->resize(base + count);
  for (size_t k = 0; k < count; ++k) {
    (*out)[base + k] = static_cast<uint32_t>(begin + idx[k]);
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
