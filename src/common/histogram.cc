#include "common/histogram.h"

#include <algorithm>
#include <cstdio>

#include "common/check.h"

namespace autocat {

namespace {

// Fixed-precision rendering so snapshots and JSON are byte-stable across
// platforms (std::to_string-style locale surprises excluded by %f).
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      counts_(upper_bounds_.size() + 1, 0) {
  AUTOCAT_CHECK(!upper_bounds_.empty());
  for (size_t i = 1; i < upper_bounds_.size(); ++i) {
    AUTOCAT_CHECK_LT(upper_bounds_[i - 1], upper_bounds_[i]);
  }
}

Histogram Histogram::LatencyMs() {
  std::vector<double> bounds;
  double b = 0.01;
  for (int i = 0; i < 23; ++i) {
    bounds.push_back(b);
    b *= 2;
  }
  return Histogram(std::move(bounds));
}

void Histogram::Add(double v) {
  const auto it = std::lower_bound(upper_bounds_.begin(),
                                   upper_bounds_.end(), v);
  ++counts_[static_cast<size_t>(it - upper_bounds_.begin())];
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

void Histogram::Merge(const Histogram& other) {
  AUTOCAT_CHECK(upper_bounds_ == other.upper_bounds_);
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::PercentileEstimate(double p) const {
  if (count_ == 0) {
    return 0;
  }
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  size_t seen = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) {
      continue;
    }
    const size_t next = seen + counts_[i];
    if (static_cast<double>(next) >= target) {
      if (i == upper_bounds_.size()) {
        return max_;  // overflow bucket: the bound is open-ended
      }
      const double lo = i == 0 ? std::min(min_, upper_bounds_[0])
                               : upper_bounds_[i - 1];
      const double hi = upper_bounds_[i];
      const double frac =
          (target - static_cast<double>(seen)) /
          static_cast<double>(counts_[i]);
      // A bucket's bounds may lie outside the observed range; no sample
      // does, so neither may the estimate.
      return std::clamp(lo + (hi - lo) * std::clamp(frac, 0.0, 1.0), min_,
                        max_);
    }
    seen = next;
  }
  return max_;
}

std::string Histogram::ToJson() const {
  std::string out = "{\"count\":" + std::to_string(count_);
  out += ",\"mean\":" + FormatDouble(mean());
  out += ",\"min\":" + FormatDouble(min());
  out += ",\"max\":" + FormatDouble(max());
  out += ",\"p50\":" + FormatDouble(PercentileEstimate(50));
  out += ",\"p90\":" + FormatDouble(PercentileEstimate(90));
  out += ",\"p99\":" + FormatDouble(PercentileEstimate(99));
  out += "}";
  return out;
}

}  // namespace autocat
