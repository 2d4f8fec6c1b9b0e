#include "athena/node.h"

#include <algorithm>
#include <any>
#include <cmath>
#include <type_traits>
#include <variant>

#include "common/contracts.h"
#include "net/multipath.h"

namespace dde::athena {
namespace {

constexpr SimTime kPrefetchInterval = SimTime::millis(200);  ///< pump rate
/// Pump re-check period while prefetch_congested() holds the pump.
constexpr SimTime kPrefetchThrottleInterval = SimTime::millis(800);
/// Period of the background sweep that drops expired interest-table,
/// aggregation-marker and dedup entries (they are also purged
/// opportunistically on access; the sweep bounds what access never
/// touches).
constexpr SimTime kStateGcInterval = SimTime::seconds(60);
/// How long a replica copy is remembered after the first one arrived.
constexpr SimTime kReplicaDedupTtl = SimTime::seconds(120);

/// Dedup key for (origin, source) prefetch actions: once a source's object
/// was pushed toward an origin, further queries from the same origin are
/// served by the caches that push populated. Aborts if either id exceeds
/// 32 bits, so two pairs can never alias.
std::uint64_t prefetch_key(NodeId origin, SourceId s) {
  return pack_node_counter(origin, s.value());
}

}  // namespace

void AthenaNode::trace(obs::EventKind kind, QueryId query,
                       std::uint64_t subject, std::uint64_t bytes,
                       double value) {
  if (trace_sink_ == nullptr) return;
  trace_sink_->emit(obs::Event{kind, net_.now(), id_.value(), query.value(),
                               subject, bytes, value});
}

AthenaNode::AthenaNode(NodeId id, net::Network& net, const Directory& directory,
                       world::SensorField& field, const AthenaConfig& config,
                       AthenaMetrics& metrics)
    : id_(id),
      net_(net),
      directory_(directory),
      config_(config),
      metrics_(metrics),
      store_(id, config, field, metrics),
      forwarder_(directory, config) {
  net_.set_handler(id_, [this](NodeId, const net::Packet& pkt) {
    on_packet(pkt);
  });
}

// ---------------------------------------------------------------------------
// Query origination (Query_Init)
// ---------------------------------------------------------------------------

QueryId AthenaNode::query_init(decision::DnfExpr expr,
                               SimTime relative_deadline, int priority) {
  drain_retired();
  const SimTime now = net_.now();
  const QueryId qid{pack_node_counter(id_, next_query_++)};

  // Admission control (overload protection): when this node is already
  // carrying admission_max_active unresolved queries, a new low-priority
  // query is rejected outright — no announce, no requests, no deadline
  // watchdog — and recorded as shed so the load it would have offered is
  // visible in the metrics. Critical queries are always admitted.
  if (config_.admission_max_active > 0 && priority <= 0 &&
      active_queries() >= config_.admission_max_active) {
    ++metrics_.queries_issued;
    ++metrics_.queries_rejected;
    trace(obs::EventKind::kQueryIssue, qid, 0, 0,
          (now + relative_deadline).to_seconds());
    trace(obs::EventKind::kQueryReject, qid);
    if (retire_hook_) {
      retire_hook_(QueryRecord{qid, priority, Outcome::kShed, now, now,
                               std::nullopt, 0},
                   expr);
    }
    return qid;
  }

  QueryState q;
  q.id = qid;
  q.expr = std::move(expr);
  q.issued_at = now;
  q.deadline_abs = now + relative_deadline;
  std::vector<LabelId> labels = q.expr.all_labels(q.labels);
  q.selection =
      directory_.select_sources(q.labels, id_, config_.source_selection());
  q.priority = priority;
  ++metrics_.queries_issued;
  trace(obs::EventKind::kQueryIssue, qid, labels.size(), 0,
        q.deadline_abs.to_seconds());

  // Announce the query's footprint to neighbors so they can prefetch
  // (Query_Recv step iv).
  if (config_.prefetch) {
    send_to_neighbors(
        QueryAnnounce{qid, id_, q.deadline_abs, std::move(labels)}, priority);
  }

  // Deadline watchdog.
  net_.simulator().schedule_at(q.deadline_abs, [this, qid] {
    if (QueryState* state = live_query(qid)) finish(*state, Outcome::kExpired);
  });

  auto [it, inserted] = queries_.emplace(qid, std::move(q));
  DDE_CHECK(inserted, "issue_query: duplicate QueryId would corrupt the "
                      "query table");
  advance(it->second);
  return qid;
}

AthenaNode::QueryState* AthenaNode::live_query(QueryId qid) {
  // Every query finished before now is retired by the drain, so an entry
  // still in the table is unfinished.
  drain_retired();
  auto it = queries_.find(qid);
  if (it == queries_.end()) return nullptr;
  return &it->second;
}

void AthenaNode::drain_retired() {
  for (const QueryId qid : retire_pending_) {
    auto it = queries_.find(qid);
    DDE_CHECK(it != queries_.end(), "drain_retired: query retired twice");
    queries_.erase(it);
  }
  retire_pending_.clear();
}

// ---------------------------------------------------------------------------
// The origin-side query engine
// ---------------------------------------------------------------------------

decision::LabelMeta AthenaNode::label_meta(QueryState& q,
                                           LabelId label) const {
  const std::uint64_t epoch = directory_.topology().routes_epoch();
  if (q.meta_epoch != epoch) {
    q.meta.clear();  // rerouted: hop counts may have changed
    q.meta_epoch = epoch;
  }
  const std::size_t pos = decision::lower_index(q.labels, label);
  DDE_CHECK(pos < q.labels.size() && q.labels[pos] == label,
            "label_meta: label is not in the query's expression");
  if (q.meta.empty()) q.meta.resize(q.labels.size());
  auto& memo = q.meta[pos];
  if (memo) return *memo;
  SourceId source = q.selection.designated_source(label);
  if (!source.valid()) {
    if (const auto& srcs = directory_.sources_for(label); !srcs.empty()) {
      source = srcs.front();
    }
  }
  memo = source.valid() ? directory_.meta(label, source, id_)
                        : decision::LabelMeta{};
  return *memo;
}

SourceId AthenaNode::next_corroborating_source(const QueryState& q,
                                               LabelId label,
                                               SimTime* earliest_retry) const {
  const SimTime now = net_.now();
  SourceId best;
  SimTime best_last = SimTime::max();
  double best_cost = 0.0;
  for (SourceId s : directory_.sources_for(label)) {
    const SourceAttempt* asked = q.find_asked(s);
    if (asked != nullptr && asked->exhausted) continue;  // failed over
    const SimTime last = asked != nullptr
                             ? asked->last_request
                             : SimTime::zero() - SimTime::seconds(1e9);
    // A repeat request within the sensor's validity window would return
    // the same capture — no new information.
    const SimTime eligible_at = last + directory_.validity(s);
    if (eligible_at > now) {
      if (earliest_retry) *earliest_retry = std::min(*earliest_retry, eligible_at);
      continue;
    }
    const double cost = directory_.retrieval_cost(s, id_);
    if (!best.valid() || last < best_last ||
        (last == best_last && cost < best_cost)) {
      best = s;
      best_last = last;
      best_cost = cost;
    }
  }
  return best;
}

void AthenaNode::apply_labels_to_queries(
    std::span<const decision::LabelValue> values) {
  // Issue order: each fill emits a kLabelSettle trace event.
  for (auto& [qid, q] : queries_) {
    if (q.finished) continue;
    for (const auto& v : values) {
      if (!std::binary_search(q.labels.begin(), q.labels.end(), v.label)) {
        continue;
      }
      if (!trusts(v.annotator)) continue;
      // Never replace fresher knowledge with an older evaluation.
      const auto* cur = q.assignment.record(v.label);
      if (cur && cur->expires_at() >= v.expires_at()) continue;
      q.assignment.set(v);
      trace(obs::EventKind::kLabelSettle, qid, v.label.value(), 0,
            v.evaluated_at.to_seconds());
    }
  }
}

void AthenaNode::deliver_object(const world::EvidenceObject& obj) {
  const SimTime now = net_.now();
  // Annotate a first arrival (the origin is the evaluator, Sec. VI-C).
  // Its fresh values update assignments, and those that improve on the
  // label cache are cached and shared.
  if (const auto values = store_.ingest(obj, now)) {
    schedule_gc();
    std::vector<decision::LabelValue> fresher = cache_labels(*values, now);
    apply_labels_to_queries(*values);

    // Share newly evaluated labels back into the network (Sec. VI-D).
    if (config_.label_sharing() && !fresher.empty()) {
      const NodeId toward = directory_.host(obj.source);
      send_toward(toward, LabelShare{std::move(fresher), toward});
    }
  }

  // The reply (fresh or stale, new or repeated) settles the outstanding
  // request.
  for (auto& [qid, q] : queries_) {
    if (q.settle(obj.source)) {
      trace(obs::EventKind::kObjectRx, qid, obj.source.value(), obj.bytes);
    }
  }

  // Progress every query that may have been unblocked.
  advance_active();
}

void AthenaNode::advance_active() {
  // advance() may finish queries but never erases map entries (only
  // drain_retired() does, and never mid-dispatch), so the walk is stable.
  for (auto& [qid, q] : queries_) advance(q);
}

bool AthenaNode::try_local(QueryState& q, LabelId label) {
  const SimTime now = net_.now();

  // 1. Label cache: a fresh value signed by a trusted annotator settles
  //    the label outright (Sec. VI-D trust model).
  if (const auto* v = store_.labels().peek(label, now)) {
    if (trusts(v->annotator)) {
      q.assignment.set(*v);
      trace(obs::EventKind::kLabelSettle, q.id, v->label.value(), 0,
            v->evaluated_at.to_seconds());
      return true;
    }
  }

  // 2. Object cache (or a locally hosted sensor): a fresh object covering
  //    this label can be annotated on the spot. Already-ingested captures
  //    carry no new information and are skipped. Under corroboration one
  //    object may not decide the label, so every local source is consulted.
  for (SourceId s : directory_.sources_for(label)) {
    const bool cached = store_.objects().peek(s, now) != nullptr;
    if (!cached && !hosts(s)) continue;
    auto obj = store_.local_object(s, hosts(s), now);
    if (!obj) continue;
    if (store_.ingested(obj->id)) continue;
    if (cached) ++metrics_.object_cache_hits;
    deliver_object(*obj);
    // deliver_object() applied the annotation to q's assignment.
    if (q.assignment.value_at(label, now) != Tristate::kUnknown) return true;
  }
  return false;
}

void AthenaNode::advance(QueryState& q) {
  if (q.finished) return;
  const SimTime now = net_.now();
  if (now > q.deadline_abs) {
    finish(q, Outcome::kExpired);
    return;
  }
  const auto meta = [this, &q](LabelId label) { return label_meta(q, label); };
  // Buffers for every plan of this call. Per call rather than per node:
  // advance() re-enters itself through try_local(), and a per-node scratch
  // would keep a few KB resident at each of a run's nodes.
  decision::PlanScratch scratch;
  // Keep resolving from local knowledge until we must touch the network.
  for (int guard = 0; guard < 1000; ++guard) {
    if (config_.sequential() && q.awaiting_reply()) {
      // One request in flight per query, and shedding needs none in
      // flight, so a plan here would only feed the kPlan trace. Unless a
      // sink wants that trace, skip the check when the assignment has not
      // changed since the query was last found unresolved: expiry only
      // removes knowledge, and Kleene logic cannot go from unknown to
      // known when knowledge is removed.
      if (trace_sink_ == nullptr &&
          q.assignment.version() == q.unresolved_version) {
        return;
      }
      if (q.expr.resolved(q.assignment, now)) {
        finish(q, Outcome::kDecided);
        return;
      }
      q.unresolved_version = q.assignment.version();
      // Every policy plans exactly the relevant labels; trace their count.
      if (trace_sink_ != nullptr) {
        trace(obs::EventKind::kPlan, q.id,
              q.expr.relevant_labels(q.assignment, now).size());
      }
      return;
    }
    const auto order = decision::plan_retrieval_order(
        q.expr, q.assignment, now, meta, config_.order(), q.deadline_abs,
        scratch);
    if (order.empty()) {  // empty exactly when the query is resolved
      finish(q, Outcome::kDecided);
      return;
    }
    q.unresolved_version = q.assignment.version();
    trace(obs::EventKind::kPlan, q.id, order.size());

    // Deadline-infeasibility shedding (overload protection): if nothing is
    // in flight and even the quickest possible retrieval can no longer
    // return in time, abort now — freeing the bandwidth the doomed fetches
    // would have burned — and account the query as shed, not failed.
    if (config_.shed_infeasible && !q.awaiting_reply() &&
        deadline_infeasible(q, order, now)) {
      finish(q, Outcome::kShed);
      return;
    }

    if (config_.sequential()) {
      bool progressed = false;  // local knowledge settled a label: re-plan
      SimTime corroboration_retry = SimTime::max();
      for (LabelId l : order) {
        if (try_local(q, l)) {
          progressed = true;
          break;
        }
        SourceId source;
        if (config_.corroboration_confidence > 0.5) {
          // Rotate across covering sources to gather fresh corroborating
          // observations; skip the label if none has a new capture yet.
          source = next_corroborating_source(q, l, &corroboration_retry);
        } else {
          source = q.selection.designated_source(l);
        }
        if (!source.valid()) continue;  // uncovered (or nothing new yet)
        if (hosts(source)) {
          // A locally hosted source not caught by try_local (possible under
          // corroboration when its fresh capture was already counted);
          // requesting it over the network is meaningless — but a NEW
          // capture becomes available once the current one expires, so
          // schedule the retry for then.
          if (const auto* cached = store_.objects().peek(source, now)) {
            corroboration_retry =
                std::min(corroboration_retry, (*cached)->expires_at());
          }
          continue;
        }
        // Request the chosen source; ask it for every still-relevant label
        // it covers (one object can settle several predicates).
        std::vector<LabelId> want;
        for (LabelId cov : directory_.labels_of(source)) {
          if (std::find(order.begin(), order.end(), cov) != order.end()) {
            want.push_back(cov);
          }
        }
        issue_request(q, source, std::move(want));
        return;
      }
      if (progressed) continue;
      // Corroboration may be blocked until some sensor produces a fresh
      // capture; wake up then instead of sleeping to the deadline.
      if (corroboration_retry != SimTime::max() &&
          corroboration_retry < q.deadline_abs) {
        const QueryId qid = q.id;
        net_.simulator().schedule_at(
            corroboration_retry + SimTime::millis(1), [this, qid] {
              if (QueryState* state = live_query(qid)) advance(*state);
            });
      }
      return;
    } else {
      // Batch (cmp / slt): request every selected source that still has a
      // relevant label, all at once.
      for (LabelId l : order) try_local(q, l);
      const auto fresh_order = decision::plan_retrieval_order(
          q.expr, q.assignment, now, meta, config_.order(), q.deadline_abs,
          scratch);
      if (fresh_order.empty()) {  // resolved from local knowledge
        finish(q, Outcome::kDecided);
        return;
      }
      for (std::size_t i = 0; i < q.selection.requests.size(); ++i) {
        const SourceId source = q.selection.requests[i].first;
        if (const SourceAttempt* a = q.find_asked(source);
            a != nullptr && a->in_flight) {
          continue;
        }
        // Locally hosted evidence was already consumed by try_local; a
        // network request to ourselves would be meaningless (reachable
        // only in exotic configs, e.g. batch issue + corroboration).
        if (hosts(source)) continue;
        std::vector<LabelId> want;
        for (LabelId l : q.selection.requested(i)) {
          if (std::find(fresh_order.begin(), fresh_order.end(), l) !=
              fresh_order.end()) {
            want.push_back(l);
          }
        }
        if (want.empty()) continue;
        issue_request(q, source, std::move(want));
      }
      // Batch requests are all issued; nothing further until replies.
      return;
    }
  }
}

void AthenaNode::issue_request(QueryState& q, SourceId source,
                               std::vector<LabelId> labels) {
  const SimTime now = net_.now();
  // Locally hosted sources are handled by try_local; requesting one over
  // the network would deadlock the query on its own node.
  DDE_CHECK(!hosts(source),
            "issue_request: source is hosted locally (try_local must "
            "handle it)");

  SourceAttempt* asked = q.find_asked(source);
  if (asked == nullptr) {
    q.asked.push_back(SourceAttempt{});
    asked = &q.asked.back();
    asked->source = source;
  }
  const std::uint32_t count = ++asked->requests;
  asked->last_request = now;
  ++metrics_.object_requests;
  if (count > 1) ++metrics_.refetches;
  trace(obs::EventKind::kFetch, q.id, source.value(), ObjectRequest::kBytes,
        static_cast<double>(count));

  // Adaptive timeout: three times the directory's round-trip estimate for
  // this source, floored generously (queueing is not in the estimate) and
  // capped by the configured maximum. Small objects on short paths recover
  // from loss in seconds instead of waiting out the worst-case timeout. The
  // cap wins over the floor when request_timeout is below 8 s.
  const SimTime est = directory_.retrieval_latency(source, id_);
  SimTime timeout = config_.request_timeout;
  if (est != SimTime::max()) {
    timeout = std::min(std::max(3 * est, SimTime::seconds(8)),
                       config_.request_timeout);
  }
  // Exponential backoff across attempts to the same source (fault
  // recovery): a source behind a downed link is probed at a geometrically
  // decaying rate instead of a fixed-period hammer, still capped by the
  // configured maximum.
  if (config_.retry_backoff > 1.0 && count > 1) {
    const double factor =
        std::pow(config_.retry_backoff, static_cast<double>(count - 1));
    timeout = std::min(SimTime::seconds(timeout.to_seconds() * factor),
                       config_.request_timeout);
  }
  asked->in_flight = now + timeout;

  // Re-issue watchdog: if no reply settles this request in time, clear it
  // so the planner can retry — backed off against the same source, or
  // failed over to an alternate one once this source's attempts are spent.
  net_.simulator().schedule_after(
      timeout + SimTime::micros(1), [this, qid = q.id, source] {
        QueryState* state = live_query(qid);
        if (state == nullptr) return;
        QueryState& q2 = *state;
        SourceAttempt* a = q2.find_asked(source);
        if (a != nullptr && a->in_flight && *a->in_flight <= net_.now()) {
          a->in_flight.reset();
          ++metrics_.retries;
          trace(obs::EventKind::kRetry, qid, source.value());
          if (config_.max_source_attempts > 0 &&
              a->requests >= config_.max_source_attempts && !a->exhausted) {
            a->exhausted = true;
            failover(q2);
          }
          advance(q2);
        }
      });

  // Accept cached labels on the first attempt only: a retry means the label
  // answer was unusable (e.g. expired in transit), so insist on the object.
  ObjectRequest r{q.id, id_, source, std::move(labels),
                  config_.label_sharing() && count == 1, q.priority};
  // Multipath redundancy (Sec. V-C): critical requests are replicated over
  // alternate downhill first hops, tagged with a replica group so the
  // copies deduplicate downstream. Non-critical traffic stays single-path.
  if (config_.multipath_redundancy > 1 && r.priority > 0) {
    r.replica_group = new_replica_group();
  }

  // Local interest entry so the returning object is delivered to us.
  forwarder_.bookmark(NodeId{}, r, now);
  schedule_gc();
  forward_request(r);
  const NodeId dest = directory_.host(r.source);
  if (const auto next = net_.next_hop(id_, dest)) replicate(r, *next, dest);
}

bool AthenaNode::deadline_infeasible(const QueryState& q,
                                     const std::vector<LabelId>& order,
                                     SimTime now) const {
  // The query needs at least one more retrieval to make progress. The
  // directory's latency estimate excludes queueing, so it lower-bounds the
  // real retrieval time: if even the cheapest estimate over every
  // still-needed label and covering source misses the deadline, no
  // retrieval issued now can help.
  SimTime cheapest = SimTime::max();
  for (LabelId l : order) {
    for (SourceId s : directory_.sources_for(l)) {
      if (hosts(s)) return false;  // local evidence is always in time
      const SimTime est = directory_.retrieval_latency(s, id_);
      if (est < cheapest) cheapest = est;
    }
  }
  return cheapest != SimTime::max() && now + cheapest > q.deadline_abs;
}

void AthenaNode::failover(QueryState& q) {
  std::vector<SourceId> exhausted;
  for (const SourceAttempt& a : q.asked) {
    if (a.exhausted) exhausted.push_back(a.source);
  }
  std::sort(exhausted.begin(), exhausted.end());
  Directory::Selection fresh = directory_.select_sources(
      q.labels, id_, config_.source_selection(), exhausted);
  std::uint64_t moved = 0;
  for (const auto& [label, source] : fresh.designated) {
    if (q.selection.designated_source(label) != source) {
      ++metrics_.failovers;
      ++moved;
    }
  }
  q.selection = std::move(fresh);
  q.meta.clear();
  trace(obs::EventKind::kFailover, q.id, moved);
}

void AthenaNode::finish(QueryState& q, Outcome outcome) {
  if (q.finished) return;
  q.finished = true;
  const SimTime now = net_.now();

  QueryRecord rec{q.id, q.priority, outcome, q.issued_at, now,
                  std::nullopt, 0};
  for (const SourceAttempt& a : q.asked) rec.requests_sent += a.requests;
  switch (outcome) {
    case Outcome::kDecided:
      rec.chosen_action = q.expr.chosen_action(q.assignment, now);
      ++metrics_.queries_resolved;
      metrics_.total_resolution_latency_s += (now - q.issued_at).to_seconds();
      trace(obs::EventKind::kDecide, q.id,
            rec.chosen_action ? *rec.chosen_action : 0, 0,
            (now - q.issued_at).to_seconds());
      break;
    case Outcome::kExpired:
      ++metrics_.queries_failed;
      trace(obs::EventKind::kExpire, q.id);
      break;
    case Outcome::kShed:
      ++metrics_.queries_shed;
      trace(obs::EventKind::kShed, q.id);
      break;
    case Outcome::kCrashed:
      // Terminal failed_crash: the query died with its node. Kept out of
      // queries_failed so deadline-miss rates stay attributable to the
      // protocol, not the fault schedule.
      ++metrics_.queries_failed_crash;
      trace(obs::EventKind::kCrashDrop, q.id);
      break;
  }
  for (SourceAttempt& a : q.asked) a.in_flight.reset();
  if (retire_hook_) retire_hook_(rec, q.expr);
  // The state is erased at the next drain_retired() entry point —
  // never here, because callers up the stack (deliver_object/advance
  // recursion) may still hold a reference to q.
  retire_pending_.push_back(q.id);
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

void AthenaNode::on_packet(const net::Packet& pkt) {
  drain_retired();
  const auto* msg = std::any_cast<Message>(&pkt.payload);
  DDE_CHECK(msg != nullptr, "on_packet: payload is not an athena::Message");
  std::visit([&](const auto& m) { handle(pkt.src, m); }, *msg);
}

void AthenaNode::handle(NodeId /*from*/, const QueryAnnounce& a) {
  // Announces travel one hop, so no node hears the same one twice and
  // none needs deduplicating.
  if (net_.now() >= a.deadline_abs) return;
  if (!config_.prefetch || a.origin == id_) return;

  // Enqueue background prefetch work (Query_Recv / Sec. VI-A): a node that
  // hosts a sensor relevant to the announced decision pushes its object
  // toward the origin (Fig. 1: node C pushes u), so the data is already
  // cached en route when the fetch request comes. Restricted to hosted
  // sensors — blanket cache pushes flood the network with redundant copies.
  // Each (origin, source) pair is pushed at most once.
  for (LabelId label : a.labels) {
    for (SourceId s : directory_.sources_for(label)) {
      if (!hosts(s)) continue;
      if (!prefetch_seen_.insert_if_absent(prefetch_key(a.origin, s), 0)) {
        continue;
      }
      prefetch_queue_.push_back(
          PrefetchItem{s, a.origin, a.deadline_abs});
    }
  }
  if (!prefetch_queue_.empty() && !pump_scheduled_) {
    pump_scheduled_ = true;
    net_.simulator().schedule_after(kPrefetchInterval,
                                    [this] { pump_prefetch(); });
  }
}

void AthenaNode::handle(NodeId from, const ObjectRequest& r) {
  const SimTime now = net_.now();

  // Multipath: only the first copy of a replicated request is processed;
  // later copies converging on this node are suppressed.
  if (!replica_first_copy(r.replica_group, /*kind=*/0)) {
    ++metrics_.replica_duplicates;
    return;
  }

  // Label-cache service (lvfl): if every requested label is covered by a
  // fresh cached label, answer with labels instead of the object —
  // orders-of-magnitude cheaper (Sec. VI-D).
  if (r.accept_labels && reply_with_labels(from, r.labels, r.origin,
                                           r.source, r.priority)) {
    return;
  }

  // Object service from cache or a hosted sensor.
  if (world::ObjectRef obj =
          store_.local_object(r.source, hosts(r.source), now)) {
    if (!hosts(r.source)) ++metrics_.object_cache_hits;
    // A critical reply to an untagged request fans out under a fresh group.
    const std::uint64_t group =
        r.replica_group == 0 && config_.multipath_redundancy > 1 &&
                r.priority > 0
            ? new_replica_group()
            : r.replica_group;
    const ObjectReply reply{std::move(obj), r.origin,
                            /*prefetch_push=*/false, group, r.priority};
    send_msg(from, reply, r.priority);
    replicate(reply, from, r.origin);
    return;
  }

  // Miss: bookmark the interest and forward toward the source. The
  // label-share serve walk relies on the source covering every label of
  // the interest: a put of any of them then marks this source for recheck.
  DDE_CHECK(std::all_of(r.labels.begin(), r.labels.end(),
                        [&](LabelId l) {
                          const auto& srcs = directory_.sources_for(l);
                          return std::find(srcs.begin(), srcs.end(),
                                           r.source) != srcs.end();
                        }),
            "handle(ObjectRequest): the source does not cover every label "
            "of the interest");
  forwarder_.bookmark(from, r, now);
  trace(obs::EventKind::kInterest, r.query, r.source.value());
  schedule_gc();
  forward_request(r);
}

void AthenaNode::forward_request(const ObjectRequest& r) {
  const NodeId dest = directory_.host(r.source);
  const auto next = net_.next_hop(id_, dest);
  if (!next || *next == id_) return;  // unreachable or we are the host

  // Interest aggregation: if an equivalent upstream request is already in
  // flight, the pending reply will serve this interest too.
  if (forwarder_.aggregate(r.source, net_.now())) {
    ++metrics_.interest_aggregations;
    return;
  }
  schedule_gc();
  send_msg(*next, r, r.priority);
}

std::uint64_t AthenaNode::new_replica_group() {
  // Node-local counter packed with the node id: unique across a run's nodes
  // without shared state. Pre-increment keeps 0 free for "untagged".
  return pack_node_counter(id_, ++next_replica_group_);
}

bool AthenaNode::replica_first_copy(std::uint64_t group, int kind) {
  if (group == 0) return true;  // untagged: single-path traffic
  // One key space for both legs of a group: requests on even, replies on
  // odd, so a reply reusing its request's group still deduplicates.
  DDE_CHECK(group < (std::uint64_t{1} << 63),
            "replica_first_copy: group id too large to key both legs");
  const SimTime now = net_.now();
  // A new entry reads as expired (time zero), so absent and expired keys
  // are both accepted; a live entry marks a duplicate and is not refreshed.
  SimTime& expires = replicas_seen_.find_or_insert(
      group * 2 + static_cast<std::uint64_t>(kind));
  if (expires > now) return false;
  expires = now + kReplicaDedupTtl;
  schedule_gc();
  return true;
}

template <typename Msg>
void AthenaNode::replicate(const Msg& m, NodeId primary_next, NodeId dest) {
  if (config_.multipath_redundancy <= 1 || m.replica_group == 0) return;
  if (dest == id_) return;  // the requester is this node; nothing to fan out
  for (NodeId alt : net::alternate_next_hops(net_.topology(), id_, dest,
                                             config_.multipath_redundancy - 1,
                                             {primary_next})) {
    ++metrics_.replica_copies;
    send_msg(alt, m, m.priority);
  }
}

void AthenaNode::handle(NodeId /*from*/, const ObjectReply& r) {
  const SimTime now = net_.now();
  const world::EvidenceObject& obj = *r.object;

  // Multipath: drop later copies of a replicated reply before caching so
  // each node processes (and forwards) a group's reply exactly once.
  if (!replica_first_copy(r.replica_group, /*kind=*/1)) {
    ++metrics_.replica_duplicates;
    return;
  }

  // Cache along the way (Sec. VI-C), then serve all pending interests for
  // this source.
  store_.put_object(r.object, now);
  const SmallVec<Interest, 1> consumers = forwarder_.take(obj.source);
  bool delivered_locally = false;
  bool forwarded_any = false;
  SmallVec<NodeId, 4> sent_to;
  for (const Interest& e : consumers) {
    if (e.expires <= now) continue;
    if (!e.from.valid()) {
      delivered_locally = true;
    } else if (std::find(sent_to.begin(), sent_to.end(), e.from) ==
               sent_to.end()) {
      sent_to.push_back(e.from);
      // A background push yields to every foreground class at link queues.
      send_msg(e.from,
               ObjectReply{r.object, e.origin, r.prefetch_push,
                           r.replica_group, e.priority},
               r.prefetch_push ? -1 : e.priority);
      forwarded_any = true;
    }
  }

  // A prefetch push keeps moving toward the query origin even without
  // interests (Fig. 1: the source pushes u all the way to the requester).
  if (r.prefetch_push && !forwarded_any && r.origin != id_) {
    send_toward(r.origin,
                ObjectReply{r.object, r.origin, true, 0, -1}, -1);
  }

  // A replica copy travelling an alternate path crosses nodes that never
  // bookmarked an interest; keep it moving toward the query origin so the
  // redundant path stays end-to-end.
  if (r.replica_group != 0 && !r.prefetch_push && !forwarded_any &&
      !delivered_locally && r.origin != id_) {
    send_toward(r.origin, r, r.priority);  // r is not a push (checked above)
  }

  if (delivered_locally || (r.prefetch_push && r.origin == id_)) {
    deliver_object(obj);
  }
}

void AthenaNode::handle(NodeId /*from*/, const LabelShare& s) {
  const SimTime now = net_.now();
  // Cache fresher label values along the path (Sec. VI-D). Local queries
  // may be waiting on exactly these labels.
  const std::vector<decision::LabelValue> fresher =
      cache_labels(s.values.view(), now);
  if (!fresher.empty()) {
    apply_labels_to_queries(fresher);
    advance_active();
  }

  // Serve pending label-accepting interests that are now fully covered.
  // The marks include puts by LabelReplies passing through and by local
  // deliveries since the last share; the walk itself puts nothing.
  forwarder_.serve_marked(now, [&](SourceId source, const Interest& e) {
    return e.accept_labels && e.from.valid() &&
           reply_with_labels(e.from, e.labels, e.origin, source, e.priority);
  });

  // Keep propagating toward the data source's host.
  send_toward(s.toward, s);
}

void AthenaNode::handle(NodeId /*from*/, const LabelReply& r) {
  // The upstream interest this node forwarded (if any) was consumed by a
  // label answer; a later object request for the same source must be
  // forwarded anew rather than aggregated into the finished one.
  forwarder_.unmark(r.source);
  cache_labels(r.values.view(), net_.now());
  if (r.origin == id_) {
    apply_labels_to_queries(r.values.view());
    for (auto& [qid, q] : queries_) q.settle(r.source);
    advance_active();
  } else {
    send_toward(r.origin, r);
  }
}

std::vector<decision::LabelValue> AthenaNode::cache_labels(
    std::span<const decision::LabelValue> values, SimTime now) {
  std::vector<decision::LabelValue> cached = store_.put_labels(values, now);
  forwarder_.mark_recheck(cached);
  return cached;
}

bool AthenaNode::reply_with_labels(NodeId to,
                                   const std::vector<LabelId>& labels,
                                   NodeId origin, SourceId source,
                                   int priority) {
  std::vector<decision::LabelValue> vals =
      store_.fresh_labels(labels, net_.now());
  if (vals.empty()) return false;
  ++metrics_.label_cache_hits;
  send_msg(to, LabelReply{std::move(vals), origin, source}, priority);
  return true;
}

void AthenaNode::broadcast_invalidation(const std::vector<LabelId>& labels) {
  drain_retired();
  Invalidation inv;
  // Flood-unique id packed like query ids (invalidations have their own
  // dedup table). A local counter (not the dedup-set size) keeps ids unique
  // as entries expire.
  inv.id = pack_node_counter(id_, next_invalidation_++);
  inv.labels = labels;
  inv.ttl = 64;  // network-wide
  invalidations_seen_.insert_if_absent(inv.id, net_.now() + kDedupTtl);
  schedule_gc();
  apply_invalidation(labels);
  send_to_neighbors(inv, /*priority=*/1);
}

void AthenaNode::handle(NodeId from, const Invalidation& inv) {
  if (!invalidations_seen_.insert_if_absent(inv.id, net_.now() + kDedupTtl)) {
    return;
  }
  schedule_gc();
  if (inv.ttl > 0) {
    Invalidation next = inv;
    next.ttl = inv.ttl - 1;
    send_to_neighbors(next, /*priority=*/1, from);
  }
  apply_invalidation(inv.labels);
}

void AthenaNode::apply_invalidation(const std::vector<LabelId>& labels) {
  store_.invalidate(labels);
  // Re-open affected decisions, in issue order.
  std::vector<QueryState*> affected;
  for (auto& [qid, q] : queries_) {
    if (q.finished) continue;
    bool touched = false;
    for (LabelId l : labels) {
      if (std::binary_search(q.labels.begin(), q.labels.end(), l)) {
        q.assignment.invalidate(l);
        touched = true;
      }
    }
    if (touched) affected.push_back(&q);
  }
  for (QueryState* q : affected) advance(*q);
}

// ---------------------------------------------------------------------------
// Prefetching (background queue, Sec. VI-A)
// ---------------------------------------------------------------------------

bool AthenaNode::prefetch_congested(NodeId origin) const {
  if (config_.prefetch_watermark == 0) return false;
  const auto next = net_.next_hop(id_, origin);
  if (!next || *next == id_) return false;
  const auto link = net_.topology().link_between(id_, *next);
  if (!link) return false;
  return net_.queue_length(*link) > config_.prefetch_watermark;
}

void AthenaNode::pump_prefetch() {
  drain_retired();
  pump_scheduled_ = false;
  if (prefetch_queue_.empty()) return;
  const SimTime now = net_.now();
  SimTime next_pump = kPrefetchInterval;
  if (prefetch_congested(prefetch_queue_.front().origin)) {
    // Backpressure (overload protection): while the first hop of the head
    // item sits above the congestion watermark, hold the whole pump — the
    // background traffic would only deepen the queue it is observing — and
    // re-check at the throttle interval.
    ++metrics_.prefetch_throttled;
    next_pump = kPrefetchThrottleInterval;
  } else {
    const PrefetchItem item = prefetch_queue_.front();
    prefetch_queue_.pop_front();
    auto obj = now < item.deadline_abs
                   ? store_.local_object(item.source, hosts(item.source), now)
                   : nullptr;
    if (obj && send_toward(item.origin,
                           ObjectReply{std::move(obj), item.origin,
                                       /*prefetch_push=*/true, 0, -1},
                           /*priority=*/-1)) {
      ++metrics_.prefetch_pushes;
    }
  }
  if (!prefetch_queue_.empty()) {
    pump_scheduled_ = true;
    net_.simulator().schedule_after(next_pump, [this] { pump_prefetch(); });
  }
}

// ---------------------------------------------------------------------------
// Crash/restart semantics (fault::FaultInjector node hook)
// ---------------------------------------------------------------------------
//
// Ghost — the pre-restart-semantics behaviour and the default — never
// reaches these bodies: an outage only silences the node's links while all
// protocol state survives. Cold and warm model a real process death: the
// crash drops every in-flight local query to the terminal failed_crash
// outcome and wipes the soft state a restart could not recover from disk.
// Monotonic id counters (query, invalidation, replica group) survive on
// purpose — they are what keeps post-restart identifiers unique. Each
// dropped query is reported to the retire hook as crashed. Pending pump/GC
// callbacks are left armed: they are written to no-op against empty tables
// and re-arm only when state exists.

void AthenaNode::on_crash(fault::RestartPolicy policy) {
  if (policy == fault::RestartPolicy::kGhost) return;

  // In-flight local queries die with the process: their watchdogs, partial
  // assignments, and outstanding requests are gone, so no future arrival
  // could ever resolve them.
  drain_retired();
  std::uint64_t dropped = 0;
  for (auto& [qid, q] : queries_) {
    if (q.finished) continue;
    finish(q, Outcome::kCrashed);
    ++dropped;
  }

  // Volatile protocol tables are lost under every non-ghost policy; only
  // cold also loses the store.
  forwarder_.clear();
  invalidations_seen_.clear();
  prefetch_queue_.clear();
  prefetch_seen_.clear();
  replicas_seen_.clear();
  store_.on_crash(policy);
  trace(obs::EventKind::kNodeCrash, QueryId{0}, dropped);
}

void AthenaNode::on_restart(fault::RestartPolicy policy) {
  if (policy == fault::RestartPolicy::kGhost) return;
  ++restart_epoch_;
  ++metrics_.node_restarts;
  trace(obs::EventKind::kNodeRestart, QueryId{0}, restart_epoch_);
  if (!config_.crash_recovery) return;

  // Recovery protocol, restarted side: re-announce to every neighbor that
  // this node's soft state is gone. One hop only — the damage a crash does
  // to other nodes' tables is confined to entries whose next hop is this
  // node, so neighbors are exactly the audience.
  const RecoveryHello hello{id_, net_.now()};
  send_to_neighbors(hello, /*priority=*/1);
}

void AthenaNode::handle(NodeId /*from*/, const RecoveryHello& hello) {
  if (!config_.crash_recovery) return;
  const SimTime now = net_.now();
  ++metrics_.recovery_hellos;
  const double lag_s = (now - hello.restarted_at).to_seconds();
  metrics_.total_recovery_lag_s += lag_s;
  trace(obs::EventKind::kRecoveryHello, QueryId{0}, hello.node.value(), 0,
        lag_s);

  // Every aggregation marker whose upstream path (re)runs through the
  // restarted node is a dangling promise: the interest-table entry backing
  // it died in the crash, so the reply it waits for will never route back.
  // Purge the marker and re-issue the first live downstream interest
  // upstream — the lease-stamped entries a crashed hop orphaned recover in
  // one hop-trip instead of a full downstream retry timeout.
  const auto routed_via_hello = [&](SourceId s) {
    const auto next = net_.next_hop(id_, directory_.host(s));
    return next && *next == hello.node;
  };
  metrics_.recovery_marker_purges += forwarder_.purge_markers(
      now, routed_via_hello, [this](SourceId s, const Interest& live) {
        forward_request(ObjectRequest{live.query, live.origin, s, live.labels,
                                      live.accept_labels, live.priority});
        ++metrics_.recovery_reissues;
      });
}

// ---------------------------------------------------------------------------
// State garbage collection
// ---------------------------------------------------------------------------
//
// Interest-table and aggregation entries are purged opportunistically on
// matching-source access; entries for sources that never reply again would
// linger forever without this sweep. It arms itself only while droppable
// state exists, so an idle node schedules nothing and a drained simulation
// terminates.

void AthenaNode::schedule_gc() {
  if (gc_scheduled_) return;
  if (forwarder_.empty() && invalidations_seen_.empty() &&
      replicas_seen_.empty() && store_.ingested_entries() == 0) {
    return;
  }
  gc_scheduled_ = true;
  net_.simulator().schedule_after(kStateGcInterval, [this] { run_gc(); });
}

void AthenaNode::run_gc() {
  gc_scheduled_ = false;
  const SimTime now = net_.now();
  forwarder_.sweep(now);
  store_.sweep(now);
  const auto expired = [now](std::uint64_t, SimTime t) { return t <= now; };
  invalidations_seen_.erase_if(expired);
  replicas_seen_.erase_if(expired);
  schedule_gc();
}

bool AthenaNode::send_toward(NodeId dest, Message msg, int priority) {
  const auto next = net_.next_hop(id_, dest);
  if (!next || *next == id_) return false;
  send_msg(*next, std::move(msg), priority);
  return true;
}

void AthenaNode::send_to_neighbors(const Message& msg, int priority,
                                   NodeId except) {
  for (NodeId nb : net_.topology().neighbors(id_)) {
    if (nb != except) send_msg(nb, msg, priority);
  }
}

void AthenaNode::send_msg(NodeId next, Message msg, int priority) {
  using Bill = std::pair<std::uint64_t, std::uint64_t AthenaMetrics::*>;
  const auto [bytes, counter] = std::visit(
      [this]<typename T>(const T& m) {
        if constexpr (std::is_same_v<T, ObjectReply>) {
          ++metrics_.object_reply_hops;
          return Bill{m.object->bytes, m.prefetch_push
                                          ? &AthenaMetrics::push_bytes
                                          : &AthenaMetrics::object_bytes};
        } else {
          return Bill{T::kBytes, T::kBilledTo};
        }
      },
      msg);
  metrics_.*counter += bytes;
  net::Packet pkt;
  pkt.src = id_;
  pkt.dst = next;
  pkt.bytes = bytes;
  pkt.priority = priority;
  pkt.payload = std::move(msg);
  net_.send(id_, next, std::move(pkt));
}

}  // namespace dde::athena
