#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/export.h"
#include "serve/signature.h"

namespace perfbench {

namespace {

[[noreturn]] void BadParam(const std::string& name, const std::string& why) {
  std::fprintf(stderr, "perfbench: parameter '%s' %s\n", name.c_str(),
               why.c_str());
  std::exit(2);
}

double ParseNumber(const std::string& name, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(value)) {
    BadParam(name, "is not a number: '" + text + "'");
  }
  return value;
}

}  // namespace

const std::string& Params::Str(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    BadParam(name, "is missing");
  }
  return it->second;
}

double Params::Num(const std::string& name) const {
  return ParseNumber(name, Str(name));
}

size_t Params::Size(const std::string& name) const {
  const double value = Num(name);
  if (value < 0 || value != std::floor(value)) {
    BadParam(name, "is not a whole number");
  }
  return static_cast<size_t>(value);
}

std::vector<double> Params::NumList(const std::string& name) const {
  std::vector<double> out;
  std::stringstream in(Str(name));
  std::string item;
  while (std::getline(in, item, ',')) {
    out.push_back(ParseNumber(name, item));
  }
  if (out.empty()) {
    BadParam(name, "is an empty list");
  }
  return out;
}

Fingerprint FingerprintOf(const autocat::CachedCategorization& payload) {
  return Fingerprint{payload.result_rows(),
                     autocat::SignatureHash(autocat::TreeToJson(payload.tree()))};
}

CoreRotation::CoreRotation() {
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) {
    return;  // Leave the thread where it is.
  }
  for (int core = 0; core < CPU_SETSIZE; ++core) {
    if (CPU_ISSET(core, &original_)) {
      cores_.push_back(core);
    }
  }
}

CoreRotation::~CoreRotation() {
  if (!cores_.empty()) {
    sched_setaffinity(0, sizeof(original_), &original_);
  }
}

void CoreRotation::Next() {
  if (cores_.size() < 2) {
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cores_[next_], &one);
  next_ = (next_ + 1) % cores_.size();
  sched_setaffinity(0, sizeof(one), &one);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

}  // namespace perfbench
