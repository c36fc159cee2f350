#include "obs/observability.h"

#include <map>
#include <string_view>

#include "obs/critical_path.h"

namespace taureau::obs {

bool Observability::EnableScale(const ScaleConfig& config) {
  if (config.stream && !tracer.SetStoreMode(Tracer::StoreMode::kStream)) {
    return false;
  }
  flame_ = std::make_unique<FlameProfile>();
  slo_ = std::make_unique<SloEngine>();
  for (const SloObjective& o : config.objectives) slo_->AddObjective(o);
  pipeline_ = std::make_unique<SamplingPipeline>(config.sampler, flame_.get(),
                                                 slo_.get());
  tracer.SetSink(pipeline_.get());
  return true;
}

std::string Observability::ExportAll() const {
  // Every section after the trace section is small: render those first, so
  // that the export is sized once and the retained traces, which dominate
  // it, are rendered straight into it.
  std::string rest = "== metrics ==\n" + registry.ExportText();
  rest += "== critical-path ==\n";
  if (flame_) {
    rest += FormatRootAggregates(flame_->by_root());
  } else {
    // Retain mode without the scale layer: aggregate every finished root
    // through the same exact attribution the flame aggregator uses.
    std::map<std::string, RootAggregate> by_root;
    TraceAttributor attributor;
    Breakdown breakdown;
    for (uint64_t root_id : tracer.Roots()) {
      const Span* root = tracer.Find(root_id);
      if (root == nullptr || !root->ended()) continue;
      if (!attributor.Attribute(tracer.spans(), root_id, &breakdown, {})
               .ok()) {
        continue;
      }
      RootAggregate& agg = by_root[root->name];
      ++agg.count;
      agg.breakdown.Accumulate(breakdown);
    }
    rest += FormatRootAggregates(by_root);
  }
  if (pipeline_) {
    rest += "== sampler ==\n" + pipeline_->ExportSummaryText();
  }
  if (flame_) {
    rest += "== flame ==\n" + flame_->ExportText();
    // Per-tenant breakdown, present only when root spans carried tenant
    // attributes — tenant-free worlds keep the pre-dimensional layout.
    if (!flame_->by_tenant().empty()) {
      rest += "== tenants ==\n" + flame_->ExportTenantsText();
    }
  }
  if (slo_) {
    rest += "== slo ==\n" + slo_->ExportText();
  }

  constexpr std::string_view kTraceHeader = "== trace ==\n";
  std::string out;
  if (tracer.store_mode() == Tracer::StoreMode::kStream && pipeline_) {
    out.reserve(kTraceHeader.size() + pipeline_->ExportTextBound() +
                rest.size());
    out += kTraceHeader;
    pipeline_->AppendExportText(&out);
  } else {
    const std::string spans = tracer.ExportText();
    out.reserve(kTraceHeader.size() + spans.size() + rest.size());
    out += kTraceHeader;
    out += spans;
  }
  out += rest;
  return out;
}

}  // namespace taureau::obs
