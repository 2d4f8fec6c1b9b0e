// Strong identifier types used across the decision-driven execution library.
//
// Each id is a distinct C++ type so that a NodeId cannot be accidentally
// passed where a QueryId is expected (Core Guidelines I.4: make interfaces
// precisely and strongly typed).
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

#include "common/contracts.h"

namespace dde {

/// CRTP base for strongly-typed integer identifiers.
///
/// Provides ordering, equality, hashing support and streaming. The derived
/// type is only a tag; all ids share the same underlying representation.
template <typename Tag>
class StrongId {
 public:
  using underlying_type = std::uint64_t;

  /// Sentinel for "no id". Default-constructed ids are invalid.
  static constexpr underlying_type kInvalid = ~underlying_type{0};

  constexpr StrongId() noexcept = default;
  constexpr explicit StrongId(underlying_type value) noexcept : value_(value) {}

  [[nodiscard]] constexpr underlying_type value() const noexcept { return value_; }
  [[nodiscard]] constexpr bool valid() const noexcept { return value_ != kInvalid; }

  constexpr auto operator<=>(const StrongId&) const noexcept = default;

  friend std::ostream& operator<<(std::ostream& os, const StrongId& id) {
    if (!id.valid()) return os << "<invalid>";
    return os << id.value_;
  }

 private:
  underlying_type value_ = kInvalid;
};

struct NodeIdTag {};
struct LinkIdTag {};
struct QueryIdTag {};
struct ObjectIdTag {};
struct LabelIdTag {};
struct SourceIdTag {};
struct AnnotatorIdTag {};
struct SegmentIdTag {};
struct MessageIdTag {};

/// Identifies a node in the simulated network.
using NodeId = StrongId<NodeIdTag>;
/// Identifies a directed link in the simulated network.
using LinkId = StrongId<LinkIdTag>;
/// Identifies a decision query.
using QueryId = StrongId<QueryIdTag>;
/// Identifies an evidence (data) object.
using ObjectId = StrongId<ObjectIdTag>;
/// Identifies a label (named Boolean variable over world state).
using LabelId = StrongId<LabelIdTag>;
/// Identifies a data source (sensor).
using SourceId = StrongId<SourceIdTag>;
/// Identifies an annotator (predicate evaluator).
using AnnotatorId = StrongId<AnnotatorIdTag>;
/// Identifies a road segment in the world model.
using SegmentId = StrongId<SegmentIdTag>;
/// Identifies a network message.
using MessageId = StrongId<MessageIdTag>;

/// Run-wide unique id for the `counter`-th item `node` issued (queries,
/// replica groups, invalidation notices): the node in the high 32 bits, the
/// counter in the low 32. Ids from one node ascend in issue order, and
/// `id >> 32` recovers the node. Aborts if either field overflows, so two
/// nodes' ids can never alias.
[[nodiscard]] inline std::uint64_t pack_node_counter(NodeId node,
                                                     std::uint64_t counter) {
  constexpr std::uint64_t kField = 0xFFFF'FFFFULL;
  DDE_CHECK(node.value() <= kField && counter <= kField,
            "pack_node_counter: node id or counter exceeds 32 bits");
  return (node.value() << 32) | counter;
}

}  // namespace dde

namespace std {
template <typename Tag>
struct hash<dde::StrongId<Tag>> {
  size_t operator()(const dde::StrongId<Tag>& id) const noexcept {
    return std::hash<typename dde::StrongId<Tag>::underlying_type>{}(id.value());
  }
};
}  // namespace std
