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

#include <deque>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "athena/config.h"
#include "athena/directory.h"
#include "athena/messages.h"
#include "athena/metrics.h"
#include "cache/ttl_cache.h"
#include "common/arena.h"
#include "common/flat_hash.h"
#include "decision/expression.h"
#include "decision/planner.h"
#include "fault/restart_policy.h"
#include "fusion/belief.h"
#include "net/multipath.h"
#include "net/network.h"
#include "obs/trace.h"
#include "world/sensor_field.h"

namespace dde::athena {

/// Outcome record of one locally-originated query.
struct QueryRecord {
  QueryId id;
  int priority = 0;
  bool success = false;
  SimTime issued_at;
  SimTime finished_at;
  /// Index of the chosen course of action, if one was found viable.
  std::optional<std::size_t> chosen_action;
  /// Objects requested by this query (refetches included).
  std::uint64_t requests_sent = 0;
  /// The query was deliberately dropped by overload protection — shed as
  /// deadline-infeasible or rejected by admission control — rather than
  /// failing its deadline with work in flight.
  bool shed = false;
  /// The query died with its node: a non-ghost crash dropped it to the
  /// terminal failed_crash outcome (never counted as a deadline failure).
  bool crashed = false;
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
    return queries_.size() - finished_count_;
  }

  /// Outcomes of locally-originated queries (completed and active).
  [[nodiscard]] const std::vector<QueryRecord>& records() const noexcept {
    return records_;
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
    if (!config_.label_sharing) return false;
    if (!trusted_annotators_) return true;
    return trusted_annotators_->contains(annotator);
  }

  // --- crash/restart semantics (fault::FaultInjector node hook) ----------
  /// The node's process died. Under the default ghost policy this is a
  /// no-op (today's behaviour: protocol state survives outages intact).
  /// Otherwise every in-flight local query drops to the terminal
  /// failed_crash outcome and volatile tables are wiped — cold loses
  /// everything, warm keeps caches and corroboration beliefs. Monotonic id
  /// counters and finished outcome records always survive (measurement
  /// artifacts, not node state). Called with the node already marked down,
  /// so nothing here can transmit.
  void on_crash(fault::RestartPolicy policy);
  /// The node came back up. Non-ghost restarts count in
  /// AthenaMetrics::node_restarts and — when crash_recovery is on — send a
  /// one-hop RecoveryHello to each neighbor so the network re-learns what
  /// the crash forgot (see handle_recovery_hello).
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

  [[nodiscard]] const cache::CacheStats& object_cache_stats() const noexcept {
    return object_cache_.stats();
  }
  [[nodiscard]] const cache::CacheStats& label_cache_stats() const noexcept {
    return label_cache_.stats();
  }

  // --- state residency (observability + leak tests) ----------------------
  /// Interest-table entries currently held (expired ones included until
  /// the next sweep or matching access).
  [[nodiscard]] std::size_t interest_entries() const {
    std::size_t n = 0;
    interest_table_.for_each(
        [&n](std::uint64_t, const auto& entries) { n += entries.size(); });
    return n;
  }
  /// Outstanding interest-aggregation markers.
  [[nodiscard]] std::size_t forwarded_entries() const noexcept {
    return forwarded_.size();
  }
  /// Flood-dedup entries (query announces + invalidations) currently held.
  [[nodiscard]] std::size_t dedup_entries() const noexcept {
    return announces_seen_.size() + invalidations_seen_.size();
  }

 private:
  // --- query state -------------------------------------------------------
  struct QueryState {
    QueryId id;
    decision::DnfExpr expr;
    SmallSet<LabelId, 8> label_set;  ///< labels the expr mentions
    SimTime issued_at;
    SimTime deadline_abs;
    decision::Assignment assignment;
    Directory::Selection selection;
    /// Planner metadata per label, filled lazily by label_meta(). It is a
    /// pure function of `selection` and the routes, so failover() clears it
    /// and label_meta() clears it when the routes epoch moves on. Entries
    /// live on the heap: every node's query pool holds a chunk of mostly
    /// idle slots, and inline entries would make each of them resident.
    std::vector<std::pair<LabelId, decision::LabelMeta>> meta;
    std::uint64_t meta_epoch = 0;  ///< routes epoch `meta` was filled under
    int priority = 0;
    /// source → expiry of the outstanding request to it.
    SmallMap<SourceId, SimTime, 4> outstanding;
    SmallMap<SourceId, std::uint32_t, 4> request_counts;
    /// Sources this query gave up on after max_source_attempts unanswered
    /// requests; selection avoids them unless nothing else covers a label.
    /// (Stays unordered_set: Directory::select_sources takes it by pointer.)
    std::unordered_set<SourceId> exhausted;
    /// source → time of the last request this query sent it (used to
    /// rotate across sources when corroborating noisy evidence).
    SmallMap<SourceId, SimTime, 4> last_request;
    std::size_t record_index = 0;
    bool finished = false;
  };

  /// One interest-table entry (Sec. VI-B).
  struct Interest {
    NodeId from;          ///< neighbor the request came from (invalid = local)
    QueryId query;
    NodeId origin;
    std::vector<LabelId> labels;
    bool prefetch = false;
    bool accept_labels = false;
    int priority = 0;
    SimTime expires;
  };

  /// One queued prefetch action (Sec. VI-A: background-only).
  struct PrefetchItem {
    bool push = false;  ///< push an object we have vs. request one hop out
    SourceId source;
    QueryId query;
    NodeId origin;
    SimTime deadline_abs;
  };

  enum class MsgKind { kRequest, kObject, kAnnounce, kLabel, kControl };

  // --- message handlers ---------------------------------------------------
  void on_packet(const net::Packet& pkt);
  void handle_announce(NodeId from, const QueryAnnounce& a);
  void handle_request(NodeId from, const ObjectRequest& r);
  void handle_reply(NodeId from, const ObjectReply& r);
  void handle_label_share(NodeId from, const LabelShare& s);
  void handle_label_reply(NodeId from, const LabelReply& r);
  void handle_invalidation(NodeId from, const Invalidation& inv);
  /// Recovery protocol, neighbor side: a restarted node announced that it
  /// lost its soft state. Purge aggregation markers whose upstream path
  /// runs through it (their interest-table copy died with the crash) and
  /// re-issue the first live downstream interest upstream, so waiting
  /// queries recover in one hop-trip instead of waiting out marker leases.
  void handle_recovery_hello(const RecoveryHello& hello);
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
  void apply_object_to_queries(const world::EvidenceObject& obj);
  /// Apply label values to every active query's assignment. Each value is
  /// accepted only if this node trusts its annotator and it is fresher
  /// than what the assignment already holds.
  void apply_labels_to_queries(const std::vector<decision::LabelValue>& values);
  void finish(QueryState& q, bool success, bool shed = false,
              bool crashed = false);
  /// True if even the quickest remaining retrieval for `order`'s labels
  /// provably misses q's deadline (lower-bound latency estimates, so a
  /// `true` is conservative). Locally-hosted evidence is always feasible.
  [[nodiscard]] bool deadline_infeasible(const QueryState& q,
                                         const std::vector<LabelId>& order,
                                         SimTime now) const;
  void share_labels(const std::vector<decision::LabelValue>& values,
                    SourceId produced_by);

  // --- forwarding / serving ----------------------------------------------
  /// Serve a request from local state if possible; returns true if fully
  /// served (no forwarding needed).
  bool serve_request_locally(const ObjectRequest& r, NodeId reply_to);
  void forward_request(const ObjectRequest& r);
  void reply_with_object(const world::EvidenceObject& obj, NodeId to,
                         QueryId query, NodeId origin, bool prefetch_push,
                         int priority = 0, std::uint64_t replica_group = 0);
  // --- multipath redundancy (Sec. V-C over lossy links) -------------------
  /// A fresh replica-group id, unique across this run's nodes.
  [[nodiscard]] std::uint64_t new_replica_group();
  /// Group for a reply answering `r`: the request's own group, or a fresh
  /// one when this node fans out a critical reply to an untagged request.
  /// 0 when multipath is off (no reply fan-out).
  [[nodiscard]] std::uint64_t reply_group_for(const ObjectRequest& r);
  /// First sight of a replica-group copy? (true when dedup is off or the
  /// message is untagged). `kind` disambiguates the request (0) and reply
  /// (1) legs of one group.
  [[nodiscard]] bool replica_first_copy(std::uint64_t group, int kind);
  /// Send replica copies of a group-tagged request via alternate downhill
  /// first hops toward `dest` (no-op when multipath is off or untagged).
  void replicate_request(const ObjectRequest& r, NodeId primary_next,
                         NodeId dest);
  /// Same for a reply fanned out toward the requester/origin.
  void replicate_reply(const ObjectReply& r, NodeId primary_next,
                       NodeId dest);
  void deliver_object(const world::EvidenceObject& obj);
  void pump_prefetch();
  /// Whether the link toward `item`'s next hop is congested past the
  /// configured prefetch watermark (false when throttling is off).
  [[nodiscard]] bool prefetch_congested(const PrefetchItem& item) const;
  void send_msg(NodeId next, std::uint64_t bytes, std::any payload,
                MsgKind kind, int priority = 0);

  // --- state garbage collection ------------------------------------------
  /// Arm the background sweep if droppable state exists and none is armed.
  void schedule_gc();
  /// Drop expired interest/aggregation/dedup entries, then re-arm.
  void run_gc();

  /// Fresh object for `source` from cache, or — if this node hosts the
  /// sensor — a fresh sample. nullopt otherwise.
  [[nodiscard]] std::optional<world::EvidenceObject> local_object(
      SourceId source);

  [[nodiscard]] bool hosts(SourceId source) const {
    return directory_.host(source) == id_;
  }

  /// Planner metadata for `label` from its designated source (or, if none
  /// is designated, its first covering source), memoized in `q.meta`.
  [[nodiscard]] decision::LabelMeta label_meta(QueryState& q,
                                               LabelId label) const;

  /// Live state for `qid`, or nullptr if unknown or already retired.
  [[nodiscard]] QueryState* lookup_query(QueryId qid);
  /// Destroy pooled state for queries finished since the last drain.
  /// Deferred (not done inside finish()) because deliver_object/advance
  /// recursion may still hold references to the finishing QueryState;
  /// entry points that are never reached mid-dispatch call this first.
  void drain_retired();
  /// Record (origin,source) in the bounded prefetch-dedup set; true if it
  /// was new. At capacity the oldest key is evicted first.
  bool prefetch_mark_seen(std::uint64_t key);

  /// Emit one lifecycle event into the attached sink (no-op when detached).
  void trace(obs::EventKind kind, QueryId query, std::uint64_t subject = 0,
             std::uint64_t bytes = 0, double value = 0.0);

  /// Annotate an object into label values (origin-side annotator).
  [[nodiscard]] std::vector<decision::LabelValue> annotate(
      const world::EvidenceObject& obj) const;

  /// Noisy-sensor path (Sec. IV-B): fold the object's readings into the
  /// per-label Bayesian beliefs and return values for labels whose
  /// confidence now meets config_.corroboration_confidence.
  [[nodiscard]] std::vector<decision::LabelValue> corroborate(
      const world::EvidenceObject& obj);

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
  world::SensorField& field_;
  AthenaConfig config_;
  AthenaMetrics& metrics_;
  obs::TraceSink* trace_sink_ = nullptr;

  /// In-flight query state lives in a slot pool; `queries_` maps the id to
  /// its pool slot. Entries are never removed from `queries_` (the map's
  /// iteration order — order-pinned at several trajectory sites — depends
  /// only on key insertion history), but a finished query's slot is
  /// recycled: finish() defers the id to `retire_pending_`, and
  /// drain_retired() (called at every non-reentrant entry point, never
  /// mid-dispatch) destroys the pooled state and leaves the sentinel
  /// `kRetiredSlot` behind.
  std::unordered_map<QueryId, std::uint32_t> queries_;
  Pool<QueryState> query_pool_;
  std::vector<QueryId> retire_pending_;
  static constexpr std::uint32_t kRetiredSlot = Pool<QueryState>::kNullSlot;
  std::size_t finished_count_ = 0;
  std::vector<QueryRecord> records_;
  std::uint64_t next_query_ = 0;

  cache::TtlCache<SourceId, world::EvidenceObject> object_cache_;
  cache::TtlCache<LabelId, decision::LabelValue> label_cache_;

  /// source.value() → interests waiting on that source. Flat table; all
  /// hot lookups (request bookkeeping, reply fan-out, GC) probe it
  /// directly.
  FlatU64Map<SmallVec<Interest, 2>> interest_table_;
  /// Order facade for interest_table_: mirrors its key set through the
  /// same insert/erase history the table sees. The serve walk in
  /// handle_label_share is trajectory-pinned to the iteration order of
  /// the pre-flat std::unordered_map, and a std::unordered_set fed the
  /// identical key history reproduces that order exactly (same hashtable,
  /// same hash, same rehash schedule). Only key churn touches it; every
  /// per-entry operation stays on the flat table.
  std::unordered_set<SourceId> interest_order_;
  /// source.value() → expiry of the upstream forward we already sent
  /// (dedup).
  FlatU64Map<SimTime> forwarded_;

  std::optional<std::unordered_set<AnnotatorId>> trusted_annotators_;

  /// Per-label corroboration state (only used when the corroboration
  /// confidence is enabled). Observations expire with their objects: the
  /// window ends at the earliest expiry among counted observations.
  struct BeliefEntry {
    fusion::LabelBelief belief;
    SimTime window_expires = SimTime::max();
    std::unordered_set<ObjectId> observed;
  };
  std::unordered_map<LabelId, BeliefEntry> beliefs_;
  /// Object ids already annotated/corroborated at this node. Re-delivering
  /// an ingested object is a no-op for knowledge (it still settles
  /// outstanding requests) — this also bounds the try_local/deliver_object
  /// recursion when corroboration leaves labels undecided.
  std::unordered_set<ObjectId> ingested_;

  std::deque<PrefetchItem> prefetch_queue_;
  /// (origin,source) keys already pushed. Bounded at
  /// config_.prefetch_dedup_capacity by oldest-first eviction
  /// (`prefetch_seen_fifo_` records insertion order) — forgetting only the
  /// stalest keys, each of which risks no more than a redundant re-push.
  FlatU64Set prefetch_seen_;
  std::deque<std::uint64_t> prefetch_seen_fifo_;
  /// Announce flood dedup: query id → entry expiry (the query's deadline;
  /// post-deadline duplicates are discarded either way, so expiry changes
  /// nothing observable). Swept by the GC.
  FlatU64Map<SimTime> announces_seen_;
  /// Invalidation flood dedup: notice id → expiry (now + dedup_ttl at
  /// first sight). Swept by the GC.
  FlatU64Map<SimTime> invalidations_seen_;
  /// Locally-originated invalidation notices (keeps flood ids unique even
  /// as dedup entries expire).
  std::uint64_t next_invalidation_ = 0;
  /// Replica-group dedup (multipath redundancy). Constructed lazily on the
  /// first tagged message so single-path runs carry no extra state.
  std::optional<net::DedupTable> replica_dedup_;
  /// Locally-assigned replica groups (keeps group ids unique per node;
  /// combined with the node id for run-wide uniqueness).
  std::uint64_t next_replica_group_ = 0;
  /// Completed non-ghost restarts (bumped in on_restart). Carried in
  /// RecoveryHello as the state generation; survives crashes by design.
  std::uint64_t restart_epoch_ = 0;
  bool pump_scheduled_ = false;
  bool gc_scheduled_ = false;
};

}  // namespace dde::athena
