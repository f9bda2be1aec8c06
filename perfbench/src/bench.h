// Shared types of the serving benchmark: workload parameters, response
// fingerprints, the span recorder of the traced run, and sample statistics.
#ifndef AUTOCAT_PERFBENCH_SRC_BENCH_H_
#define AUTOCAT_PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <sched.h>

#include "serve/cache.h"

namespace perfbench {

/// Workload parameters, passed as `--name=value` flags (perfbench/run.py
/// reads them from perfbench/workloads.json). Every lookup is required:
/// a missing or malformed value aborts the run before any timing.
class Params {
 public:
  void Set(const std::string& name, const std::string& value) {
    values_[name] = value;
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  const std::string& Str(const std::string& name) const;
  double Num(const std::string& name) const;
  size_t Size(const std::string& name) const;
  std::vector<double> NumList(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

/// What the output check compares: the result row count and a hash of the
/// category tree's JSON rendering.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t tree = 0;
  bool operator==(const Fingerprint& o) const {
    return rows == o.rows && tree == o.tree;
  }
};

Fingerprint FingerprintOf(const autocat::CachedCategorization& payload);

/// Seconds on the steady clock since an arbitrary process-wide origin.
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Moves the calling thread to the next, in turn, of the cores the process
/// may run on at each Next(), and restores the thread's affinity when
/// destroyed. On a shared host the cores' speeds differ and drift apart by
/// a fifth or more, each on its own, so a single client that stayed on the
/// core the scheduler left it on would measure that core. Moving before
/// every request measures all of them alike, and starts every request
/// with its data out of the core's private caches, as in a server whose
/// requests land on any core. A thread started inside the scope would
/// inherit the pin, so start none there.
class CoreRotation {
 public:
  CoreRotation();
  ~CoreRotation();
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void Next();

 private:
  cpu_set_t original_;
  std::vector<int> cores_;
  size_t next_ = 0;
};

/// One timed call into a layer. Spans of one request share `request`;
/// `parent` is the index of the enclosing span (-1 for a root).
struct Span {
  const char* name = "";
  int64_t request = -1;
  int parent = -1;
  double start_s = 0;
  double end_s = 0;
  double duration_s() const { return end_s - start_s; }
};

/// In-memory span recorder for the single-threaded traced replay. Spans
/// are appended as they open and closed in LIFO order, so the open stack
/// gives every span its parent.
class Tracer {
 public:
  int Open(const char* name, int64_t request) {
    Span span;
    span.name = name;
    span.request = request;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start_s = NowS();
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void Close(int index) {
    spans_[static_cast<size_t>(index)].end_s = NowS();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span on construction and closes it on destruction; a null
/// tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int64_t request)
      : tracer_(tracer),
        index_(tracer == nullptr ? -1 : tracer->Open(name, request)) {}
  ~SpanScope() {
    if (tracer_ != nullptr) {
      tracer_->Close(index_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Linear-interpolation percentile (p in [0, 100]) of raw samples; 0 for
/// an empty sample.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

}  // namespace perfbench

#endif  // AUTOCAT_PERFBENCH_SRC_BENCH_H_
