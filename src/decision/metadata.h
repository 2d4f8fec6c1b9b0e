// Per-term metadata consumed by the retrieval-order optimization
// (Sec. III-A): retrieval cost, latency, success probability, and data
// validity interval.
#pragma once

#include <functional>
#include <type_traits>
#include <unordered_map>

#include "common/ids.h"
#include "common/sim_time.h"

namespace dde::decision {

/// Metadata about resolving one label.
struct LabelMeta {
  /// Retrieval cost of the evidence needed (e.g. object bytes).
  double cost = 1.0;
  /// Estimated retrieval latency (activation to availability).
  SimTime latency = SimTime::millis(1);
  /// Probability the label evaluates to true.
  double p_true = 0.5;
  /// Validity interval of the evidence.
  SimTime validity = SimTime::seconds(60);
};

/// Metadata lookup: label → metadata. Implementations may be a map, a
/// model, or a live estimate. Owning; see MetaRef for the planner's
/// parameter type.
using MetaFn = std::function<LabelMeta(LabelId)>;

/// Non-owning reference to a metadata lookup: anything callable as
/// `LabelMeta(LabelId)`, a MetaFn included. The planner and the orderings
/// take this instead of `const MetaFn&`, so passing a lambda allocates
/// nothing and each lookup is one indirect call. The callable must outlive
/// the reference, so bind a MetaRef only as a function parameter.
class MetaRef {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, MetaRef> &&
             std::is_invocable_r_v<LabelMeta, const F&, LabelId>)
  MetaRef(const F& fn) noexcept  // implicit: binds at the call site
      : fn_(&fn), call_([](const void* f, LabelId label) -> LabelMeta {
          return (*static_cast<const F*>(f))(label);
        }) {}

  LabelMeta operator()(LabelId label) const { return call_(fn_, label); }

 private:
  const void* fn_;
  LabelMeta (*call_)(const void*, LabelId);
};

/// Convenience map-backed MetaFn.
class MetaTable {
 public:
  void set(LabelId label, LabelMeta meta) { table_[label] = meta; }

  [[nodiscard]] LabelMeta get(LabelId label) const {
    auto it = table_.find(label);
    return it == table_.end() ? LabelMeta{} : it->second;
  }

  /// Bind as a MetaFn (copies the table's shared state by reference; keep
  /// the MetaTable alive while the MetaFn is in use).
  [[nodiscard]] MetaFn fn() const {
    return [this](LabelId label) { return get(label); };
  }

 private:
  std::unordered_map<LabelId, LabelMeta> table_;
};

}  // namespace dde::decision
