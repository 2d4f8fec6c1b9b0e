// Athena wire messages (Sec. VI).
//
// Seven message kinds flow between nodes, always hop-by-hop:
//   * QueryAnnounce — the Boolean expression of a query, sent to the
//     origin's neighbors so they can prefetch (Query_Recv step iv).
//   * ObjectRequest — an interest in a source's evidence object, recorded
//     in interest tables along the path (Request_Send / Request_Recv).
//   * ObjectReply — the evidence object travelling back, cached along the
//     way (Data_Send / Data_Recv). Also used for prefetch pushes.
//   * LabelShare / LabelReply — evaluated label values propagated into the
//     network (Sec. VI-D) and served in place of objects when trusted.
//   * Invalidation — an external event voided prior observations; flooded.
//   * RecoveryHello — a restarted node's one-hop re-announcement.
//
// A packet's payload is always one `Message`. Each type names its
// estimated wire size in bytes (kBytes) and the AthenaMetrics counter its
// bytes are billed to (kBilledTo); AthenaNode::send_msg reads both from the
// type. Object replies weigh the object's bytes instead and are billed to
// push_bytes or object_bytes.
//
// Payloads that travel unchanged hop by hop are shared, not copied: an
// object reply holds the capture's ObjectRef, and label shares and replies
// hold a LabelBatch, so forwarding one bumps a reference count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "athena/metrics.h"
#include "common/ids.h"
#include "common/sim_time.h"
#include "decision/label.h"
#include "world/evidence.h"

namespace dde::athena {

/// An immutable batch of label values, shared by every hop and copy of the
/// message carrying it. A default batch is empty.
class LabelBatch {
 public:
  LabelBatch() = default;
  // Implicit, so a message can be built from a vector or a brace list.
  LabelBatch(std::vector<decision::LabelValue> values)
      : values_(std::make_shared<const std::vector<decision::LabelValue>>(
            std::move(values))) {}
  LabelBatch(std::initializer_list<decision::LabelValue> values)
      : LabelBatch(std::vector<decision::LabelValue>(values)) {}

  [[nodiscard]] std::span<const decision::LabelValue> view() const noexcept {
    if (!values_) return {};
    return {values_->data(), values_->size()};
  }
  [[nodiscard]] const decision::LabelValue* begin() const noexcept {
    return view().data();
  }
  [[nodiscard]] const decision::LabelValue* end() const noexcept {
    return view().data() + view().size();
  }

 private:
  std::shared_ptr<const std::vector<decision::LabelValue>> values_;
};

/// A query's footprint announced to neighbors for prefetching.
struct QueryAnnounce {
  static constexpr std::uint64_t kBytes = 400;
  static constexpr auto kBilledTo = &AthenaMetrics::announce_bytes;
  QueryId query;
  NodeId origin;
  SimTime deadline_abs;
  std::vector<LabelId> labels;  ///< all labels the decision may need
};

/// An interest in the evidence object of `source`, to resolve `labels`.
struct ObjectRequest {
  static constexpr std::uint64_t kBytes = 150;
  static constexpr auto kBilledTo = &AthenaMetrics::request_bytes;
  QueryId query;
  NodeId origin;                ///< query source node
  SourceId source;
  std::vector<LabelId> labels;  ///< labels this request should resolve
  bool accept_labels = false;   ///< cached label values acceptable (lvfl)
  /// Network priority of this request and of the data it pulls back
  /// (Sec. V-C criticality).
  int priority = 0;
  /// Multipath replica group: all parallel copies of one logical request
  /// carry the same nonzero group and receivers keep only the first copy.
  /// 0 = not replicated (the default single-path behaviour).
  std::uint64_t replica_group = 0;
};

/// An evidence object travelling back toward requesters.
struct ObjectReply {
  world::ObjectRef object;  ///< never null
  NodeId origin;       ///< for prefetch pushes: node to push toward
  bool prefetch_push = false;
  /// Multipath replica group of the reply fan-out (see ObjectRequest);
  /// replies reuse the group of the request they answer, so copies born at
  /// different serving nodes still deduplicate.
  std::uint64_t replica_group = 0;
  /// Network priority (mirrors the pulling request's priority so replica
  /// copies keep their queue precedence on alternate paths).
  int priority = 0;
};

/// Evaluated label values shared back into the network toward the data
/// source (lvfl), cached at every hop.
struct LabelShare {
  static constexpr std::uint64_t kBytes = 200;
  static constexpr auto kBilledTo = &AthenaMetrics::label_bytes;
  LabelBatch values;
  NodeId toward;  ///< host node of the producing source
};

/// An invalidation notice (Sec. II-A): an external event voided prior
/// observations of these labels. Flooded network-wide; every node purges
/// the labels (and objects evidencing them) from caches and re-opens
/// affected decisions.
struct Invalidation {
  static constexpr std::uint64_t kBytes = 200;
  static constexpr auto kBilledTo = &AthenaMetrics::label_bytes;
  std::uint64_t id = 0;  ///< flood-dedup identifier
  std::vector<LabelId> labels;
  int ttl = 0;
};

/// Label values served from a cache in place of an object.
struct LabelReply {
  static constexpr std::uint64_t kBytes = 200;
  static constexpr auto kBilledTo = &AthenaMetrics::label_bytes;
  LabelBatch values;
  NodeId origin;     ///< requester the reply travels to
  SourceId source;   ///< the source whose request this answers
};

/// Restart re-announcement (crash recovery): a node that lost its soft
/// state (cold/warm restart) tells each neighbor, so they purge
/// aggregation markers routed through it and re-issue live interests
/// upstream instead of waiting out stale leases. One hop, never flooded.
struct RecoveryHello {
  static constexpr std::uint64_t kBytes = 120;
  static constexpr auto kBilledTo = &AthenaMetrics::control_bytes;
  NodeId node;           ///< the restarted node
  SimTime restarted_at;  ///< when it came back up
};

/// Every message a node sends or receives.
using Message = std::variant<QueryAnnounce, ObjectRequest, ObjectReply,
                             LabelShare, LabelReply, Invalidation,
                             RecoveryHello>;

}  // namespace dde::athena
