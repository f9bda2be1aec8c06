#include "mirror.h"

#include <utility>

#include "common/string_util.h"
#include "exec/kernels.h"
#include "exec/pipeline/cold_path.h"
#include "exec/pipeline/morsel.h"
#include "inputs.h"
#include "serve/signature.h"
#include "sql/parser.h"
#include "storage/columnar.h"

namespace perfbench {

using autocat::Result;
using autocat::Status;

Mirror::Mirror(const autocat::Workload* log,
               const autocat::ServiceOptions& options, Tracer* tracer)
    : log_(log),
      stats_options_(options.stats),
      signature_(options.signature),
      categorizer_options_(options.categorizer),
      tracer_(tracer),
      cache_(options.cache) {
  // The service's own defaults: signatures snap to the split-point grid,
  // and each tree is built sequentially.
  if (signature_.bucket_widths.empty()) {
    signature_.bucket_widths = stats_options_.split_intervals;
  }
  if (categorizer_options_.parallel.threads == 0) {
    categorizer_options_.parallel.threads = 1;
  }
}

void Mirror::SetTable(autocat::Table table) {
  db_.PutTable(kTableName, std::move(table));
  stats_.reset();
  shadow_fresh_ = true;
  cache_.BumpEpoch();
}

Status Mirror::Prepare() {
  AUTOCAT_ASSIGN_OR_RETURN(const autocat::Table* table,
                           db_.GetTable(kTableName));
  autocat::ParallelOptions sequential;
  sequential.threads = 1;
  AUTOCAT_ASSIGN_OR_RETURN(
      autocat::WorkloadStats built,
      autocat::WorkloadStats::Build(*log_, table->schema(), stats_options_,
                                    sequential));
  stats_ = std::make_shared<const autocat::WorkloadStats>(std::move(built));
  shadow_fresh_ = false;
  return db_.ColumnarFor(kTableName).status();
}

Result<Served> Mirror::Serve(const std::string& sql, int64_t request,
                             bool use_cache, ColdCounters* counters) {
  const SpanScope root(tracer_, "replay", request);
  autocat::SelectQuery query;
  {
    const SpanScope span(tracer_, "sql.parse", request);
    AUTOCAT_ASSIGN_OR_RETURN(query, autocat::ParseQuery(sql));
  }
  const std::string table_key = autocat::ToLower(query.table_name);
  AUTOCAT_ASSIGN_OR_RETURN(const autocat::Table* table,
                           db_.GetTable(table_key));
  autocat::CanonicalQuery canonical;
  {
    const SpanScope span(tracer_, "signature.canonicalize", request);
    AUTOCAT_ASSIGN_OR_RETURN(
        canonical,
        autocat::CanonicalizeQuery(query, table->schema(), signature_));
  }
  Served served;
  served.key_hash = canonical.hash;
  if (use_cache) {
    const SpanScope span(tracer_, "cache.get", request);
    served.payload = cache_.Get(canonical.key, canonical.hash);
  }
  if (served.payload != nullptr) {
    served.hit = true;
    return served;
  }

  if (stats_ == nullptr) {
    const SpanScope span(tracer_, "stats.build", request);
    autocat::ParallelOptions sequential;
    sequential.threads = 1;
    AUTOCAT_ASSIGN_OR_RETURN(
        autocat::WorkloadStats built,
        autocat::WorkloadStats::Build(*log_, table->schema(), stats_options_,
                                      sequential));
    stats_ = std::make_shared<const autocat::WorkloadStats>(std::move(built));
    if (counters != nullptr) {
      ++counters->stats_builds;
    }
  }
  const uint64_t observed_epoch = cache_.epoch();
  const autocat::CostBasedCategorizer categorizer(stats_.get(),
                                                  categorizer_options_);

  std::shared_ptr<const autocat::ColumnarTable> shadow;
  {
    const SpanScope span(tracer_, "columnar.for", request);
    const double start = NowS();
    AUTOCAT_ASSIGN_OR_RETURN(shadow, db_.ColumnarFor(table_key));
    // Prepare clears the flag, so the parallel cache-off replay never
    // writes it.
    if (shadow_fresh_) {
      if (counters != nullptr) {
        counters->columnar_first_ms.push_back(1e3 * (NowS() - start));
        counters->columnar_builds += table->has_rows() ? 1 : 0;
      }
      shadow_fresh_ = false;
    }
  }
  Result<autocat::CompiledPredicate> compiled =
      Status::Internal("not compiled");
  {
    const SpanScope span(tracer_, "kernels.compile", request);
    compiled = autocat::CompiledPredicate::CompileProfile(
        canonical.profile, table->schema(), shadow);
  }
  if (!compiled.ok()) {
    return Status::NotSupported("kernels refused '" + sql +
                                "': " + compiled.status().ToString());
  }

  const std::vector<std::string> retained =
      categorizer.RetainedAttributes(table->schema());
  autocat::ColdPipelineOptions pipe_options;
  pipe_options.parallel.threads = 1;
  pipe_options.stats_attributes = &retained;
  Result<autocat::ColdPipelineResult> piped =
      Status::Internal("not executed");
  {
    const SpanScope span(tracer_, "pipeline.run", request);
    piped = autocat::RunColdPipeline(compiled.value(), *table, shadow.get(),
                                     canonical.columns, pipe_options);
  }
  AUTOCAT_RETURN_IF_ERROR(piped.status());
  autocat::ColdPipelineResult& pipe = piped.value();
  if (counters != nullptr) {
    const autocat::ColdPipelineTimings& t = pipe.timings;
    ++counters->cold;
    counters->filter_ms += t.filter_ms;
    counters->gather_ms += t.project_ms;
    counters->attr_index_ms += t.stats_ms;
    counters->morsels += t.morsels;
    counters->morsels_pruned += t.morsels_pruned;
    counters->morsels_all_pass += t.morsels_all_pass;
    counters->morsels_simd += t.simd_morsels;
    const size_t n = table->num_rows();
    for (size_t m = 0; m < compiled.value().num_morsels(); ++m) {
      if (compiled.value().MorselVerdict(m) !=
          autocat::CompiledPredicate::ZoneVerdict::kAllFail) {
        const size_t begin = m * autocat::kMorselRows;
        counters->rows_examined +=
            std::min(n, begin + autocat::kMorselRows) - begin;
      }
    }
    counters->rows_out += pipe.result.num_rows();
  }

  AUTOCAT_ASSIGN_OR_RETURN(
      const autocat::TableView view,
      autocat::TableView::Create(*table, shadow, std::move(pipe.selection),
                                 canonical.columns));
  const autocat::ResultAttributeIndex attr_index = std::move(pipe.attr_index);
  const auto build_tree =
      [&](const autocat::Table& owned) -> Result<autocat::CategoryTree> {
    const SpanScope span(tracer_, "core.categorize", request);
    return categorizer.Categorize(view, owned, &canonical.profile,
                                  &attr_index);
  };
  {
    const SpanScope span(tracer_, "payload.build", request);
    AUTOCAT_ASSIGN_OR_RETURN(
        served.payload,
        autocat::CachedCategorization::Build(std::move(pipe.result),
                                             pipe.result_bytes, build_tree));
  }
  if (counters != nullptr) {
    counters->tree_nodes += served.payload->tree().num_nodes();
  }
  if (use_cache) {
    const SpanScope span(tracer_, "cache.insert", request);
    cache_.Insert(canonical.key, canonical.hash, served.payload,
                  observed_epoch);
  }
  return served;
}

}  // namespace perfbench
