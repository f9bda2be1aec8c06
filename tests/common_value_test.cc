#include "common/value.h"

#include <gtest/gtest.h>

#include <ostream>

namespace autocat {
namespace {

TEST(ValueTest, DefaultIsNull) {
  const Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, TypedConstruction) {
  EXPECT_TRUE(Value(int64_t{5}).is_int64());
  EXPECT_TRUE(Value(5).is_int64());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("abc").is_string());
  EXPECT_TRUE(Value(std::string("abc")).is_string());
  EXPECT_TRUE(Value(std::string_view("abc")).is_string());
}

TEST(ValueTest, NumericPredicate) {
  EXPECT_TRUE(Value(1).is_numeric());
  EXPECT_TRUE(Value(1.0).is_numeric());
  EXPECT_FALSE(Value("1").is_numeric());
  EXPECT_FALSE(Value().is_numeric());
}

TEST(ValueTest, AsDoubleWidensInt) {
  EXPECT_DOUBLE_EQ(Value(7).AsDouble(), 7.0);
  EXPECT_DOUBLE_EQ(Value(7.5).AsDouble(), 7.5);
}

TEST(ValueTest, CrossTypeNumericEquality) {
  EXPECT_EQ(Value(3), Value(3.0));
  EXPECT_NE(Value(3), Value(3.5));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(3).Hash(), Value(3.0).Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
}

TEST(ValueTest, TotalOrderAcrossClasses) {
  // NULL < numeric < string.
  EXPECT_LT(Value(), Value(-1000));
  EXPECT_LT(Value(1000000), Value("a"));
  EXPECT_LT(Value(), Value(""));
}

TEST(ValueTest, NumericOrdering) {
  EXPECT_LT(Value(1), Value(2));
  EXPECT_LT(Value(1.5), Value(2));
  EXPECT_GT(Value(2.5), Value(2));
  EXPECT_LE(Value(2), Value(2.0));
  EXPECT_GE(Value(2), Value(2.0));
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value("apple"), Value("banana"));
  EXPECT_GT(Value("b"), Value("apple"));
}

TEST(ValueTest, NullEqualsOnlyNull) {
  EXPECT_EQ(Value(), Value());
  EXPECT_NE(Value(), Value(0));
  EXPECT_NE(Value(), Value(""));
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value(-3).ToString(), "-3");
  EXPECT_EQ(Value(250000.0).ToString(), "250000");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value("hi").ToString(), "hi");
}

TEST(ValueTest, ToSqlLiteralQuotesStrings) {
  EXPECT_EQ(Value("abc").ToSqlLiteral(), "'abc'");
  EXPECT_EQ(Value("O'Hare").ToSqlLiteral(), "'O''Hare'");
  EXPECT_EQ(Value(12).ToSqlLiteral(), "12");
  EXPECT_EQ(Value().ToSqlLiteral(), "NULL");
}

TEST(ValueParseTest, ParsesIntegers) {
  const auto v = Value::ParseNumeric("123");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_int64());
  EXPECT_EQ(v->int64_value(), 123);
}

TEST(ValueParseTest, ParsesNegative) {
  const auto v = Value::ParseNumeric("-45");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int64_value(), -45);
}

TEST(ValueParseTest, ParsesDoubles) {
  const auto v = Value::ParseNumeric("2.75");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_double());
  EXPECT_DOUBLE_EQ(v->double_value(), 2.75);
}

TEST(ValueParseTest, ParsesScientific) {
  const auto v = Value::ParseNumeric("1e6");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->AsDouble(), 1e6);
}

TEST(ValueParseTest, ParsesNullKeyword) {
  const auto v = Value::ParseNumeric("NULL");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
  EXPECT_TRUE(Value::ParseNumeric("null")->is_null());
}

TEST(ValueParseTest, TrimsWhitespace) {
  const auto v = Value::ParseNumeric("  42  ");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int64_value(), 42);
}

TEST(ValueParseTest, RejectsGarbage) {
  EXPECT_FALSE(Value::ParseNumeric("abc").ok());
  EXPECT_FALSE(Value::ParseNumeric("12x").ok());
  EXPECT_FALSE(Value::ParseNumeric("").ok());
  EXPECT_FALSE(Value::ParseNumeric("  ").ok());
  EXPECT_FALSE(Value::ParseNumeric("1.2.3").ok());
}

TEST(ValueTest, ValueHashFunctorUsableInUnorderedContainers) {
  ValueHash hasher;
  EXPECT_EQ(hasher(Value(5)), Value(5).Hash());
}

struct LabeledValuePair {
  const char* label;
  Value a;
  Value b;
};

// Makes the ctest case name the label. Without it gtest prints the pair
// as raw object bytes, which hold uninitialised storage or a heap address
// for some values, so the case names would change from build to build.
void PrintTo(const LabeledValuePair& pair, std::ostream* os) {
  *os << pair.label;
}

class LabeledValueCompareSymmetryTest
    : public ::testing::TestWithParam<LabeledValuePair> {};

TEST_P(LabeledValueCompareSymmetryTest, CompareIsAntisymmetric) {
  const LabeledValuePair& pair = GetParam();
  EXPECT_EQ(pair.a.Compare(pair.b), -pair.b.Compare(pair.a));
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, LabeledValueCompareSymmetryTest,
    ::testing::Values(
        LabeledValuePair{"IntVsInt", Value(1), Value(2)},
        LabeledValuePair{"IntVsEqualDouble", Value(1), Value(1.0)},
        LabeledValuePair{"IntVsString", Value(3), Value("3")},
        LabeledValuePair{"DoubleVsInt", Value(-1.5), Value(-1)},
        LabeledValuePair{"StringVsString", Value("a"), Value("b")},
        LabeledValuePair{"NullVsInt", Value(), Value(3)},
        LabeledValuePair{"NullVsString", Value(), Value("x")}));

}  // namespace
}  // namespace autocat
