// An Athena node (Sec. VI): the decision-driven execution prototype.
//
// Each node can originate decision queries (Query_Init), reacts to queries
// propagated by neighbors by prefetching (Query_Recv), forwards object
// interests hop-by-hop while recording them in an interest table
// (Request_Send/Request_Recv), returns and caches evidence objects
// (Data_Send/Data_Recv), and — with label sharing enabled — propagates
// evaluated labels back toward sources, serving future interests from
// label caches (Sec. VI-D).
//
// Annotation is restricted to the query source node, as in the paper's
// implementation: evidence objects travel all the way to the originator,
// which evaluates the predicates (here, by reading the simulated object's
// ground-truth readings).
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "athena/config.h"
#include "athena/directory.h"
#include "athena/forwarder.h"
#include "athena/messages.h"
#include "athena/metrics.h"
#include "athena/store.h"
#include "common/arena.h"
#include "common/flat_hash.h"
#include "decision/expression.h"
#include "decision/planner.h"
#include "fault/restart_policy.h"
#include "net/network.h"
#include "obs/trace.h"
#include "world/sensor_field.h"

namespace dde::athena {

/// How a locally-originated query ended.
enum class Outcome : std::uint8_t {
  kDecided,  ///< resolved before its deadline
  kExpired,  ///< its deadline passed unresolved
  /// Deliberately dropped by overload protection — shed as
  /// deadline-infeasible or rejected by admission control — rather than
  /// failing its deadline with work in flight.
  kShed,
  /// Died with its node: a non-ghost crash dropped it to the terminal
  /// failed_crash outcome (never counted as a deadline failure).
  kCrashed,
};

/// Outcome record of one locally-originated query, handed to the retire
/// hook when the query ends.
struct QueryRecord {
  QueryId id;
  int priority = 0;
  Outcome outcome = Outcome::kExpired;
  SimTime issued_at;
  SimTime finished_at;
  /// Index of the chosen course of action, if one was found viable.
  std::optional<std::size_t> chosen_action;
  /// Objects requested by this query (refetches included).
  std::uint64_t requests_sent = 0;

  [[nodiscard]] bool success() const noexcept {
    return outcome == Outcome::kDecided;
  }
};

class AthenaNode {
 public:
  /// All nodes of a run share `field` (the deployed sensors), `directory`,
  /// and `metrics`. The node registers itself as `id`'s packet handler.
  AthenaNode(NodeId id, net::Network& net, const Directory& directory,
             world::SensorField& field, const AthenaConfig& config,
             AthenaMetrics& metrics);

  AthenaNode(const AthenaNode&) = delete;
  AthenaNode& operator=(const AthenaNode&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return id_; }

  /// Issue a decision query at this node (Query_Init). Label metadata and
  /// candidate sources are resolved through the directory. The query fails
  /// automatically if unresolved at `relative_deadline` from now.
  /// `priority` > 0 marks a critical query (Sec. V-C): all its traffic
  /// preempts lower classes at every link queue.
  QueryId query_init(decision::DnfExpr expr, SimTime relative_deadline,
                     int priority = 0);

  /// Number of queries issued here that are still unresolved.
  [[nodiscard]] std::size_t active_queries() const noexcept {
    return queries_.size() - retire_pending_.size();
  }

  /// Flood an invalidation notice for `labels` (Sec. II-A: an external
  /// event voided prior observations). Every node purges the labels from
  /// its caches and re-opens affected decisions; this node purges
  /// immediately.
  void broadcast_invalidation(const std::vector<LabelId>& labels);

  /// Restrict which annotators' shared label values this node accepts
  /// (Sec. III-B trust): by default, any annotator is trusted when label
  /// sharing is on. The node's own annotations are always trusted.
  void set_trusted_annotators(std::unordered_set<AnnotatorId> trusted) {
    trusted_annotators_ = std::move(trusted);
  }

  /// Whether a label signed by `annotator` is acceptable to this node.
  [[nodiscard]] bool trusts(AnnotatorId annotator) const {
    if (annotator == AnnotatorId{id_.value()}) return true;  // own labels
    if (!config_.label_sharing()) return false;
    if (!trusted_annotators_) return true;
    return trusted_annotators_->contains(annotator);
  }

  // --- crash/restart semantics (fault::FaultInjector node hook) ----------
  /// The node's process died. Under the default ghost policy this is a
  /// no-op (today's behaviour: protocol state survives outages intact).
  /// Otherwise every in-flight local query drops to the terminal
  /// failed_crash outcome and volatile tables are wiped — cold loses
  /// everything, warm keeps caches and corroboration beliefs. Monotonic id
  /// counters always survive. Called with the node already marked down,
  /// so nothing here can transmit.
  void on_crash(fault::RestartPolicy policy);
  /// The node came back up. Non-ghost restarts count in
  /// AthenaMetrics::node_restarts and — when crash_recovery is on — send a
  /// one-hop RecoveryHello to each neighbor so the network re-learns what
  /// the crash forgot (see handle(NodeId, const RecoveryHello&)).
  void on_restart(fault::RestartPolicy policy);
  /// Completed non-ghost restarts of this node (state generation).
  [[nodiscard]] std::uint64_t restart_epoch() const noexcept {
    return restart_epoch_;
  }

  /// Attach a structured trace sink (pass nullptr to detach). The node
  /// emits query-lifecycle events into it: issue → plan → interest →
  /// fetch/retry/failover → object_rx/label_settle → decide/expire/shed.
  /// Observation only — emission never schedules events, samples RNG, or
  /// alters protocol state, so the trajectory is bit-for-bit identical
  /// with and without a sink.
  void set_trace_sink(obs::TraceSink* sink) noexcept { trace_sink_ = sink; }

  /// Called once per locally-originated query when it ends — decided,
  /// expired, shed, crashed, or rejected by admission control — with its
  /// record and the expression it was issued with. Observation only, like
  /// the trace sink: the hook must not schedule events, draw shared RNG or
  /// call back into the node.
  using RetireHook =
      std::function<void(const QueryRecord&, const decision::DnfExpr&)>;
  void set_retire_hook(RetireHook hook) { retire_hook_ = std::move(hook); }

  [[nodiscard]] const cache::CacheStats& object_cache_stats() const noexcept {
    return store_.objects().stats();
  }
  [[nodiscard]] const cache::CacheStats& label_cache_stats() const noexcept {
    return store_.labels().stats();
  }

  // --- cache inspection (observation only: no stats or LRU effects) ------
  /// The fresh object cached for `source`, or null.
  [[nodiscard]] world::ObjectRef cached_object(SourceId source) const {
    const world::ObjectRef* obj = store_.objects().peek(source, net_.now());
    return obj != nullptr ? *obj : nullptr;
  }
  /// The fresh value cached for `label`, or nullptr. Valid until the node
  /// next handles an event.
  [[nodiscard]] const decision::LabelValue* cached_label(LabelId label) const {
    return store_.labels().peek(label, net_.now());
  }

  // --- state residency (observability + leak tests) ----------------------
  /// Interest-table entries currently held. Expired entries count until
  /// the GC sweep or an access to the same source prunes them.
  [[nodiscard]] std::size_t interest_entries() const {
    return forwarder_.interest_entries();
  }
  /// Outstanding interest-aggregation markers.
  [[nodiscard]] std::size_t forwarded_entries() const noexcept {
    return forwarder_.forwarded_entries();
  }
  /// Dedup entries (invalidation notices, replica copies and ingested
  /// objects) currently held. Expired entries count until the GC sweep
  /// drops them.
  [[nodiscard]] std::size_t dedup_entries() const noexcept {
    return invalidations_seen_.size() + replicas_seen_.size() +
           store_.ingested_entries();
  }
  /// Query-table entries: unresolved queries plus those finished since the
  /// last drain (see drain_retired()).
  [[nodiscard]] std::size_t query_entries() const noexcept {
    return queries_.size();
  }

 private:
  // --- query state -------------------------------------------------------
  /// One source a query has asked: its retry and corroboration state.
  struct SourceAttempt {
    SourceId source;
    SimTime last_request;  ///< when the query last sent it a request
    /// Expiry of the request in flight to it; empty while none is.
    std::optional<SimTime> in_flight;
    std::uint32_t requests = 0;  ///< requests the query sent it
    /// Given up on after max_source_attempts unanswered requests: source
    /// selection avoids it unless nothing else covers a label, and
    /// corroboration never rotates back to it.
    bool exhausted = false;
  };

  struct QueryState {
    QueryId id;
    decision::DnfExpr expr;
    /// Distinct labels the expr mentions, ascending (binary-searched).
    std::vector<LabelId> labels;
    SimTime issued_at;
    SimTime deadline_abs;
    decision::Assignment assignment;
    Directory::Selection selection;
    /// Planner metadata per label, parallel to `labels` and filled lazily
    /// by label_meta(). It is a pure function of `selection` and the
    /// routes, so failover() clears it and label_meta() clears it when the
    /// routes epoch moves on. Sized to `labels` on first fill, so a query
    /// pays only for the labels it mentions.
    std::vector<std::optional<decision::LabelMeta>> meta;
    std::uint64_t meta_epoch = 0;  ///< routes epoch `meta` was filled under
    /// assignment.version() when `expr` was last found unresolved (the
    /// maximum, which no version reaches, before the first check).
    std::uint64_t unresolved_version =
        std::numeric_limits<std::uint64_t>::max();
    int priority = 0;
    /// Every source this query has asked, in first-request order.
    SmallVec<SourceAttempt, 4> asked;
    bool finished = false;

    /// `s`'s record, or nullptr if this query never asked it.
    [[nodiscard]] const SourceAttempt* find_asked(SourceId s) const {
      for (const SourceAttempt& a : asked) {
        if (a.source == s) return &a;
      }
      return nullptr;
    }
    [[nodiscard]] SourceAttempt* find_asked(SourceId s) {
      return const_cast<SourceAttempt*>(std::as_const(*this).find_asked(s));
    }
    /// Whether any request of this query is in flight.
    [[nodiscard]] bool awaiting_reply() const {
      return std::any_of(asked.begin(), asked.end(),
                         [](const SourceAttempt& a) {
                           return a.in_flight.has_value();
                         });
    }
    /// Settle the request in flight to `s`; false if none was.
    bool settle(SourceId s) {
      SourceAttempt* a = find_asked(s);
      if (a == nullptr || !a->in_flight) return false;
      a->in_flight.reset();
      return true;
    }
  };

  /// One queued prefetch push (Sec. VI-A: background-only): the object of
  /// a hosted `source`, pushed toward the announcing query's `origin`.
  struct PrefetchItem {
    SourceId source;
    NodeId origin;
    SimTime deadline_abs;
  };

  // --- message handlers: one per Message alternative ----------------------
  /// Dispatch a packet's Message to its handler (aborts on any other
  /// payload).
  void on_packet(const net::Packet& pkt);
  void handle(NodeId from, const QueryAnnounce& a);
  void handle(NodeId from, const ObjectRequest& r);
  void handle(NodeId from, const ObjectReply& r);
  void handle(NodeId from, const LabelShare& s);
  void handle(NodeId from, const LabelReply& r);
  void handle(NodeId from, const Invalidation& inv);
  /// Recovery protocol, neighbor side: a restarted node announced that it
  /// lost its soft state. Purge aggregation markers whose upstream path
  /// runs through it (their interest-table copy died with the crash) and
  /// re-issue the first live downstream interest upstream, so waiting
  /// queries recover in one hop-trip instead of waiting out marker leases.
  void handle(NodeId from, const RecoveryHello& hello);
  /// Local purge for an invalidation's labels (caches, beliefs, active
  /// assignments), then re-plan affected queries.
  void apply_invalidation(const std::vector<LabelId>& labels);

  // --- query engine (origin side) ----------------------------------------
  void advance(QueryState& q);
  /// Resolve `label` from local caches; true if new knowledge was applied.
  bool try_local(QueryState& q, LabelId label);
  void issue_request(QueryState& q, SourceId source,
                     std::vector<LabelId> labels);
  /// Retry exhaustion on one of q's sources: re-run source selection with
  /// the exhausted set excluded, counting each label whose designated
  /// source actually changed as a failover.
  void failover(QueryState& q);
  /// Advance every unfinished query, in issue order.
  void advance_active();
  /// Apply label values to every active query's assignment. Each value is
  /// accepted only if this node trusts its annotator and it is fresher
  /// than what the assignment already holds.
  void apply_labels_to_queries(std::span<const decision::LabelValue> values);
  void finish(QueryState& q, Outcome outcome);
  /// True if even the quickest remaining retrieval for `order`'s labels
  /// provably misses q's deadline (lower-bound latency estimates, so a
  /// `true` is conservative). Locally-hosted evidence is always feasible.
  [[nodiscard]] bool deadline_infeasible(const QueryState& q,
                                         const std::vector<LabelId>& order,
                                         SimTime now) const;

  // --- forwarding / serving ----------------------------------------------
  void forward_request(const ObjectRequest& r);
  /// Put `values` through the store's one label put path, and mark the
  /// labels it cached for the forwarder's serve walk. Returns those values.
  std::vector<decision::LabelValue> cache_labels(
      std::span<const decision::LabelValue> values, SimTime now);
  /// Answer with cached label values in place of the object (lvfl, Sec.
  /// VI-D) if every one of `labels` is cached fresh; false otherwise.
  bool reply_with_labels(NodeId to, const std::vector<LabelId>& labels,
                         NodeId origin, SourceId source, int priority);
  // --- multipath redundancy (Sec. V-C over lossy links) -------------------
  /// A fresh replica-group id, unique across this run's nodes.
  [[nodiscard]] std::uint64_t new_replica_group();
  /// First sight of a replica-group copy? (true when the message is
  /// untagged). `kind` disambiguates the request (0) and reply (1) legs of
  /// one group.
  [[nodiscard]] bool replica_first_copy(std::uint64_t group, int kind);
  /// Send replica copies of a group-tagged ObjectRequest or ObjectReply
  /// via alternate downhill first hops toward `dest` (no-op when multipath
  /// is off, the message is untagged, or `dest` is this node).
  template <typename Msg>
  void replicate(const Msg& m, NodeId primary_next, NodeId dest);
  void deliver_object(const world::EvidenceObject& obj);
  void pump_prefetch();
  /// Whether the first link toward `origin` is congested past the
  /// configured prefetch watermark (false when throttling is off).
  [[nodiscard]] bool prefetch_congested(NodeId origin) const;
  /// Send one hop to `next`. The wire size and the AthenaMetrics byte
  /// counter it is billed to follow from the message type (messages.h).
  void send_msg(NodeId next, Message msg, int priority = 0);
  /// Send one hop along the route toward `dest`; false (nothing sent) if
  /// `dest` is unreachable or this node.
  bool send_toward(NodeId dest, Message msg, int priority = 0);
  /// Send to every neighbor except `except`.
  void send_to_neighbors(const Message& msg, int priority,
                         NodeId except = NodeId{});

  // --- state garbage collection ------------------------------------------
  /// Arm the background sweep if droppable state exists and none is armed.
  void schedule_gc();
  /// Drop expired interest/aggregation/dedup entries, then re-arm.
  void run_gc();

  [[nodiscard]] bool hosts(SourceId source) const {
    return directory_.host(source) == id_;
  }

  /// Planner metadata for `label` from its designated source (or, if none
  /// is designated, its first covering source), memoized in `q.meta`.
  [[nodiscard]] decision::LabelMeta label_meta(QueryState& q,
                                               LabelId label) const;

  /// State of `qid` for a scheduled callback that wakes it: drains the
  /// retired queries, then returns the query if it is still unfinished,
  /// else nullptr.
  [[nodiscard]] QueryState* live_query(QueryId qid);
  /// Erase the state of queries finished since the last drain.
  /// Deferred (not done inside finish()) because deliver_object/advance
  /// recursion may still hold references to the finishing QueryState;
  /// entry points that are never reached mid-dispatch call this first.
  void drain_retired();

  /// Emit one lifecycle event into the attached sink (no-op when detached).
  void trace(obs::EventKind kind, QueryId query, std::uint64_t subject = 0,
             std::uint64_t bytes = 0, double value = 0.0);

  /// Source to ask next for `label` under corroboration: the covering
  /// source least-recently asked by this query (and not asked within its
  /// own validity window, so a fresh capture exists). Invalid id if every
  /// source was asked too recently; in that case `earliest_retry` (if
  /// given) is lowered to the soonest time a source becomes eligible.
  [[nodiscard]] SourceId next_corroborating_source(
      const QueryState& q, LabelId label,
      SimTime* earliest_retry = nullptr) const;

  NodeId id_;
  net::Network& net_;
  const Directory& directory_;
  AthenaConfig config_;
  AthenaMetrics& metrics_;
  obs::TraceSink* trace_sink_ = nullptr;
  RetireHook retire_hook_;

  /// In-flight query state, by id. Map nodes never move, so a QueryState&
  /// stays valid while other queries come and go. Query ids ascend in
  /// issue order, so every walk over the map visits queries in the order
  /// they were issued. finish() defers the id to `retire_pending_`, and
  /// drain_retired() (called at every non-reentrant entry point, never
  /// mid-dispatch) erases the entry, so the map never changes during a
  /// walk.
  std::map<QueryId, QueryState> queries_;
  std::vector<QueryId> retire_pending_;
  std::uint64_t next_query_ = 0;

  Store store_;
  Forwarder forwarder_;

  std::optional<std::unordered_set<AnnotatorId>> trusted_annotators_;

  std::deque<PrefetchItem> prefetch_queue_;
  /// (origin,source) keys already pushed; the values are unused.
  /// Announces travel one hop, so every origin is a neighbour and the set
  /// holds at most degree x hosted sources keys.
  FlatU64Map<std::uint8_t> prefetch_seen_;
  /// Invalidation flood dedup: notice id → expiry (now + kDedupTtl at
  /// first sight). Swept by the GC.
  FlatU64Map<SimTime> invalidations_seen_;
  /// Locally-originated invalidation notices (keeps flood ids unique even
  /// as dedup entries expire).
  std::uint64_t next_invalidation_ = 0;
  /// Replica-group dedup (multipath redundancy): group leg → expiry (120 s
  /// after the first copy; a live entry is not refreshed by later copies).
  /// Swept by the GC; single-path runs never fill it.
  FlatU64Map<SimTime> replicas_seen_;
  /// Locally-assigned replica groups (keeps group ids unique per node;
  /// combined with the node id for run-wide uniqueness).
  std::uint64_t next_replica_group_ = 0;
  /// Completed non-ghost restarts (bumped in on_restart); survives crashes
  /// by design.
  std::uint64_t restart_epoch_ = 0;
  bool pump_scheduled_ = false;
  bool gc_scheduled_ = false;
};

}  // namespace dde::athena
