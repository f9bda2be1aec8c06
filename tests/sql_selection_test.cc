// Tests for NumericRange, AttributeCondition, and SelectionProfile
// normalization (Section 4.2's representation of workload conditions).

#include "sql/selection.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sql/parser.h"

namespace autocat {
namespace {

Schema HomesSchema() {
  auto schema = Schema::Create({
      ColumnDef("neighborhood", ValueType::kString,
                ColumnKind::kCategorical),
      ColumnDef("price", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("bedroomcount", ValueType::kInt64, ColumnKind::kNumeric),
      ColumnDef("propertytype", ValueType::kString,
                ColumnKind::kCategorical),
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

Result<SelectionProfile> ProfileOf(const std::string& where) {
  auto expr = ParseExpression(where);
  if (!expr.ok()) {
    return expr.status();
  }
  return SelectionProfile::FromExpr(*expr.value(), HomesSchema());
}

// ----------------------------------------------------------- NumericRange

TEST(NumericRangeTest, DefaultIsUnbounded) {
  const NumericRange r;
  EXPECT_FALSE(r.IsEmpty());
  EXPECT_FALSE(r.IsBounded());
  EXPECT_TRUE(r.Contains(-1e18));
  EXPECT_TRUE(r.Contains(1e18));
}

TEST(NumericRangeTest, ContainsRespectsInclusivity) {
  NumericRange r;
  r.lo = 10;
  r.hi = 20;
  r.lo_inclusive = true;
  r.hi_inclusive = false;
  EXPECT_TRUE(r.Contains(10));
  EXPECT_TRUE(r.Contains(19.999));
  EXPECT_FALSE(r.Contains(20));
  EXPECT_FALSE(r.Contains(9.999));
}

// NaN fails every comparison, so it lies inside no range: open,
// closed, half-open, point or unbounded. A range condition therefore
// drops a NaN cell, as it drops a NULL one.
TEST(NumericRangeTest, ContainsNaN) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    double lo;
    double hi;
    bool lo_inclusive;
    bool hi_inclusive;
  } kRanges[] = {
      {-inf, inf, true, true},  // unbounded
      {0, 10, false, false},    // open
      {0, 10, true, true},      // closed
      {0, 10, true, false},     // half-open
      {-inf, 0, true, false},   // price < 0
      {0, inf, false, true},    // price > 0
      {7, 7, true, true},       // point
  };
  for (const auto& k : kRanges) {
    NumericRange r;
    r.lo = k.lo;
    r.hi = k.hi;
    r.lo_inclusive = k.lo_inclusive;
    r.hi_inclusive = k.hi_inclusive;
    EXPECT_FALSE(r.Contains(nan)) << r.ToString();
    EXPECT_FALSE(AttributeCondition::Range(r).Matches(Value(nan)))
        << r.ToString();
  }
}

TEST(NumericRangeTest, EmptyDetection) {
  NumericRange r;
  r.lo = 5;
  r.hi = 4;
  EXPECT_TRUE(r.IsEmpty());
  r.hi = 5;
  EXPECT_FALSE(r.IsEmpty());
  r.hi_inclusive = false;
  EXPECT_TRUE(r.IsEmpty());  // [5, 5) is empty
}

TEST(NumericRangeTest, OverlapsClosed) {
  NumericRange r;
  r.lo = 10;
  r.hi = 20;
  EXPECT_TRUE(r.OverlapsClosed(15, 25));
  EXPECT_TRUE(r.OverlapsClosed(0, 10));    // touches at 10
  EXPECT_TRUE(r.OverlapsClosed(20, 30));   // touches at 20
  EXPECT_FALSE(r.OverlapsClosed(21, 30));
  EXPECT_FALSE(r.OverlapsClosed(0, 9));
  EXPECT_FALSE(r.OverlapsClosed(30, 20));  // inverted interval
  r.hi_inclusive = false;
  EXPECT_FALSE(r.OverlapsClosed(20, 30));  // [10,20) does not reach 20
}

TEST(NumericRangeTest, Intersect) {
  NumericRange a;
  a.lo = 0;
  a.hi = 10;
  NumericRange b;
  b.lo = 5;
  b.hi = 15;
  const NumericRange both = a.Intersect(b);
  EXPECT_DOUBLE_EQ(both.lo, 5);
  EXPECT_DOUBLE_EQ(both.hi, 10);
  NumericRange disjoint;
  disjoint.lo = 20;
  disjoint.hi = 30;
  EXPECT_TRUE(a.Intersect(disjoint).IsEmpty());
}

TEST(NumericRangeTest, IntersectInclusivityAtSharedEndpoint) {
  NumericRange a;
  a.lo = 0;
  a.hi = 10;
  a.hi_inclusive = true;
  NumericRange b;
  b.lo = 0;
  b.hi = 10;
  b.hi_inclusive = false;
  EXPECT_FALSE(a.Intersect(b).hi_inclusive);
}

TEST(NumericRangeTest, Hull) {
  NumericRange a;
  a.lo = 0;
  a.hi = 5;
  NumericRange b;
  b.lo = 10;
  b.hi = 20;
  const NumericRange hull = a.Hull(b);
  EXPECT_DOUBLE_EQ(hull.lo, 0);
  EXPECT_DOUBLE_EQ(hull.hi, 20);
}

TEST(NumericRangeTest, ToStringShapes) {
  NumericRange r;
  r.lo = 200000;
  r.hi = 300000;
  EXPECT_EQ(r.ToString(), "[200K, 300K]");
  NumericRange open;
  open.hi = 1000000;
  open.hi_inclusive = false;
  EXPECT_EQ(open.ToString(), "[-inf, 1M)");
}

// ---------------------------------------------------- AttributeCondition

TEST(AttributeConditionTest, ValueSetMatches) {
  const auto cond = AttributeCondition::ValueSet({Value("a"), Value("b")});
  EXPECT_TRUE(cond.Matches(Value("a")));
  EXPECT_FALSE(cond.Matches(Value("c")));
  EXPECT_FALSE(cond.Matches(Value()));
  EXPECT_FALSE(cond.IsEmpty());
  EXPECT_TRUE(AttributeCondition::ValueSet({}).IsEmpty());
}

TEST(AttributeConditionTest, RangeMatches) {
  NumericRange r;
  r.lo = 1;
  r.hi = 5;
  const auto cond = AttributeCondition::Range(r);
  EXPECT_TRUE(cond.Matches(Value(3)));
  EXPECT_TRUE(cond.Matches(Value(3.5)));
  EXPECT_FALSE(cond.Matches(Value(6)));
  EXPECT_FALSE(cond.Matches(Value("3")));
  EXPECT_FALSE(cond.Matches(Value()));
}

TEST(AttributeConditionTest, OverlapsClosedInterval) {
  NumericRange r;
  r.lo = 10;
  r.hi = 20;
  EXPECT_TRUE(AttributeCondition::Range(r).OverlapsClosedInterval(15, 30));
  EXPECT_FALSE(AttributeCondition::Range(r).OverlapsClosedInterval(21, 30));
  // A numeric value set also overlaps intervals.
  const auto set = AttributeCondition::ValueSet({Value(3), Value(7)});
  EXPECT_TRUE(set.OverlapsClosedInterval(5, 8));
  EXPECT_FALSE(set.OverlapsClosedInterval(4, 6));
}

TEST(AttributeConditionTest, OverlapsValueSet) {
  const auto set = AttributeCondition::ValueSet({Value("a"), Value("b")});
  EXPECT_TRUE(set.OverlapsValueSet({Value("b"), Value("z")}));
  EXPECT_FALSE(set.OverlapsValueSet({Value("x")}));
  NumericRange r;
  r.lo = 1;
  r.hi = 5;
  EXPECT_TRUE(AttributeCondition::Range(r).OverlapsValueSet({Value(2)}));
  EXPECT_FALSE(AttributeCondition::Range(r).OverlapsValueSet({Value(9)}));
}

// ------------------------------------------------------ SelectionProfile

TEST(SelectionProfileTest, InListBecomesValueSet) {
  const auto profile = ProfileOf("neighborhood IN ('Redmond', 'Bellevue')");
  ASSERT_TRUE(profile.ok());
  const AttributeCondition* cond = profile->Find("neighborhood");
  ASSERT_NE(cond, nullptr);
  EXPECT_TRUE(cond->is_value_set());
  EXPECT_EQ(cond->values.size(), 2u);
}

TEST(SelectionProfileTest, EqualityOnCategoricalBecomesSingleton) {
  const auto profile = ProfileOf("propertytype = 'Condo'");
  ASSERT_TRUE(profile.ok());
  const AttributeCondition* cond = profile->Find("propertytype");
  ASSERT_NE(cond, nullptr);
  EXPECT_EQ(cond->values.size(), 1u);
  EXPECT_TRUE(cond->Matches(Value("Condo")));
}

TEST(SelectionProfileTest, BetweenBecomesClosedRange) {
  const auto profile = ProfileOf("price BETWEEN 200000 AND 300000");
  ASSERT_TRUE(profile.ok());
  const AttributeCondition* cond = profile->Find("price");
  ASSERT_NE(cond, nullptr);
  ASSERT_TRUE(cond->is_range());
  EXPECT_DOUBLE_EQ(cond->range.lo, 200000);
  EXPECT_DOUBLE_EQ(cond->range.hi, 300000);
  EXPECT_TRUE(cond->range.lo_inclusive);
  EXPECT_TRUE(cond->range.hi_inclusive);
}

TEST(SelectionProfileTest, HalfRanges) {
  const auto lt = ProfileOf("price < 1000000");
  ASSERT_TRUE(lt.ok());
  EXPECT_FALSE(lt->Find("price")->range.hi_inclusive);
  EXPECT_FALSE(std::isfinite(lt->Find("price")->range.lo));

  const auto ge = ProfileOf("price >= 100000");
  ASSERT_TRUE(ge.ok());
  EXPECT_TRUE(ge->Find("price")->range.lo_inclusive);
}

TEST(SelectionProfileTest, EqualityOnNumericBecomesPointRange) {
  const auto profile = ProfileOf("bedroomcount = 3");
  ASSERT_TRUE(profile.ok());
  const AttributeCondition* cond = profile->Find("bedroomcount");
  ASSERT_TRUE(cond->is_range());
  EXPECT_DOUBLE_EQ(cond->range.lo, 3);
  EXPECT_DOUBLE_EQ(cond->range.hi, 3);
  EXPECT_TRUE(cond->Matches(Value(3)));
  EXPECT_FALSE(cond->Matches(Value(4)));
}

TEST(SelectionProfileTest, AndIntersectsSameAttribute) {
  const auto profile = ProfileOf("price >= 100 AND price <= 200");
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->num_conditions(), 1u);
  const NumericRange& r = profile->Find("price")->range;
  EXPECT_DOUBLE_EQ(r.lo, 100);
  EXPECT_DOUBLE_EQ(r.hi, 200);
}

TEST(SelectionProfileTest, AndIntersectsValueSets) {
  const auto profile = ProfileOf(
      "neighborhood IN ('a', 'b', 'c') AND neighborhood IN ('b', 'c', "
      "'d')");
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->Find("neighborhood")->values.size(), 2u);
}

TEST(SelectionProfileTest, AndAcrossAttributes) {
  const auto profile = ProfileOf(
      "neighborhood = 'Redmond' AND price BETWEEN 1 AND 2 AND "
      "bedroomcount >= 3");
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->num_conditions(), 3u);
  EXPECT_TRUE(profile->Constrains("price"));
  EXPECT_TRUE(profile->Constrains("PRICE"));  // case-insensitive
  EXPECT_FALSE(profile->Constrains("propertytype"));
}

TEST(SelectionProfileTest, OrOnOneAttributeUnions) {
  const auto profile = ProfileOf(
      "neighborhood = 'Redmond' OR neighborhood = 'Bellevue'");
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->Find("neighborhood")->values.size(), 2u);
}

TEST(SelectionProfileTest, OrOfRangesTakesHull) {
  const auto profile = ProfileOf(
      "price BETWEEN 100 AND 200 OR price BETWEEN 500 AND 600");
  ASSERT_TRUE(profile.ok());
  const NumericRange& r = profile->Find("price")->range;
  EXPECT_DOUBLE_EQ(r.lo, 100);
  EXPECT_DOUBLE_EQ(r.hi, 600);
}

TEST(SelectionProfileTest, UnsupportedForms) {
  EXPECT_FALSE(ProfileOf("price <> 5").ok());
  EXPECT_FALSE(ProfileOf("neighborhood NOT IN ('a')").ok());
  EXPECT_FALSE(ProfileOf("price NOT BETWEEN 1 AND 2").ok());
  EXPECT_FALSE(ProfileOf("price IS NULL").ok());
  EXPECT_FALSE(
      ProfileOf("neighborhood = 'a' OR price BETWEEN 1 AND 2").ok());
  EXPECT_FALSE(ProfileOf("neighborhood BETWEEN 'a' AND 'b'").ok());
  EXPECT_FALSE(ProfileOf("neighborhood < 'a'").ok());
  EXPECT_FALSE(ProfileOf("bogus_column = 1").ok());
}

TEST(SelectionProfileTest, MixedSetAndRangeOnOneAttributeIntersects) {
  const auto profile =
      ProfileOf("bedroomcount IN (2, 3, 6) AND bedroomcount <= 4");
  ASSERT_TRUE(profile.ok());
  const AttributeCondition* cond = profile->Find("bedroomcount");
  ASSERT_TRUE(cond->is_value_set());
  EXPECT_EQ(cond->values.size(), 2u);
  EXPECT_TRUE(cond->Matches(Value(2)));
  EXPECT_FALSE(cond->Matches(Value(6)));
}

TEST(SelectionProfileTest, MatchesRow) {
  const Schema schema = HomesSchema();
  const auto profile = ProfileOf(
      "neighborhood = 'Redmond' AND price BETWEEN 100000 AND 200000");
  ASSERT_TRUE(profile.ok());
  const Row hit = {Value("Redmond"), Value(150000), Value(3),
                   Value("Condo")};
  const Row miss_price = {Value("Redmond"), Value(250000), Value(3),
                          Value("Condo")};
  const Row miss_nb = {Value("Seattle"), Value(150000), Value(3),
                       Value("Condo")};
  const Row null_nb = {Value(), Value(150000), Value(3), Value("Condo")};
  EXPECT_TRUE(profile->MatchesRow(hit, schema));
  EXPECT_FALSE(profile->MatchesRow(miss_price, schema));
  EXPECT_FALSE(profile->MatchesRow(miss_nb, schema));
  EXPECT_FALSE(profile->MatchesRow(null_nb, schema));
}

TEST(SelectionProfileTest, EmptyProfileMatchesEverything) {
  const SelectionProfile profile;
  EXPECT_TRUE(profile.empty());
  EXPECT_TRUE(profile.MatchesRow({Value(), Value(), Value(), Value()},
                                 HomesSchema()));
}

TEST(SelectionProfileTest, SetRemoveFind) {
  SelectionProfile profile;
  profile.Set("Price", AttributeCondition::ValueSet({Value(1)}));
  EXPECT_TRUE(profile.Constrains("price"));
  profile.Remove("PRICE");
  EXPECT_FALSE(profile.Constrains("price"));
  EXPECT_EQ(profile.Find("price"), nullptr);
}

TEST(SelectionProfileTest, ToSqlWhereRoundTripsThroughParser) {
  const char* kInputs[] = {
      "neighborhood IN ('Redmond', 'Bellevue') AND price BETWEEN 100000 "
      "AND 200000",
      "price <= 500000 AND bedroomcount BETWEEN 3 AND 4",
      "propertytype = 'Condo'",
  };
  for (const char* input : kInputs) {
    const auto profile = ProfileOf(input);
    ASSERT_TRUE(profile.ok()) << input;
    const std::string where = profile->ToSqlWhere();
    const auto reparsed = ProfileOf(where);
    ASSERT_TRUE(reparsed.ok()) << where;
    EXPECT_EQ(reparsed->ToString(), profile->ToString()) << where;
  }
}

TEST(SelectionProfileTest, FromQueryWithoutWhereIsEmpty) {
  const auto query = ParseQuery("SELECT * FROM homes");
  ASSERT_TRUE(query.ok());
  const auto profile =
      SelectionProfile::FromQuery(query.value(), HomesSchema());
  ASSERT_TRUE(profile.ok());
  EXPECT_TRUE(profile->empty());
}

}  // namespace
}  // namespace autocat
