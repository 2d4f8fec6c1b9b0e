#include "athena/node.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"
#include "common/log.h"

namespace dde::athena {
namespace {

/// Dedup key for (origin, source) prefetch actions: once a source's object
/// was pushed toward an origin, further queries from the same origin are
/// served by the caches that push populated.
std::uint64_t prefetch_key(NodeId origin, SourceId s) noexcept {
  return origin.value() * 1000003ULL + s.value();
}

/// Keys of an unordered map/set in ascending order. Iterating hash tables
/// directly would make trace emission and event scheduling depend on the
/// standard library's bucket layout; every order-sensitive walk in this file
/// goes through a sorted key vector instead.
template <typename Container>
std::vector<typename Container::key_type> sorted_keys(const Container& c) {
  std::vector<typename Container::key_type> keys;
  keys.reserve(c.size());
  for (const auto& entry : c) {  // lint: ordered-fold — keys sorted below
    if constexpr (requires { entry.first; }) {
      keys.push_back(entry.first);
    } else {
      keys.push_back(entry);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
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
      field_(field),
      config_(config),
      metrics_(metrics),
      object_cache_(config.object_cache_capacity),
      label_cache_(config.label_cache_capacity) {
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
  // Globally unique query ids: node id in the high digits.
  const QueryId qid{id_.value() * 1000000ULL + next_query_++};

  // Admission control (overload protection): when this node is already
  // carrying admission_max_active unresolved queries, a new low-priority
  // query is rejected outright — no announce, no requests, no deadline
  // watchdog — and recorded as shed so the load it would have offered is
  // visible in the metrics. Critical queries are always admitted.
  if (config_.admission_max_active > 0 && priority <= 0 &&
      active_queries() >= config_.admission_max_active) {
    records_.push_back(
        QueryRecord{qid, priority, false, now, now, std::nullopt, 0, true});
    ++metrics_.queries_issued;
    ++metrics_.queries_rejected;
    trace(obs::EventKind::kQueryIssue, qid, 0, 0,
          (now + relative_deadline).to_seconds());
    trace(obs::EventKind::kQueryReject, qid);
    return qid;
  }

  QueryState q;
  q.id = qid;
  q.expr = std::move(expr);
  q.issued_at = now;
  q.deadline_abs = now + relative_deadline;
  const auto labels = q.expr.all_labels();
  for (const LabelId l : labels) q.label_set.insert(l);
  q.selection = directory_.select_sources(labels, id_, config_.source_selection);
  q.priority = priority;
  q.record_index = records_.size();

  records_.push_back(QueryRecord{qid, priority, false, now, SimTime::max(),
                                 std::nullopt, 0, false});
  ++metrics_.queries_issued;
  trace(obs::EventKind::kQueryIssue, qid, labels.size(), 0,
        q.deadline_abs.to_seconds());

  // Announce the query's footprint to neighbors so they can prefetch
  // (Query_Recv step iv).
  announces_seen_.insert_if_absent(qid.value(), q.deadline_abs);
  schedule_gc();
  if (config_.prefetch && config_.announce_ttl > 0) {
    QueryAnnounce a{qid, id_, q.deadline_abs, labels, config_.announce_ttl - 1};
    for (NodeId nb : net_.topology().neighbors(id_)) {
      send_msg(nb, config_.announce_bytes, a, MsgKind::kAnnounce, priority);
    }
  }

  // Deadline watchdog.
  net_.simulator().schedule_at(q.deadline_abs, [this, qid] {
    drain_retired();
    QueryState* state = lookup_query(qid);
    if (state != nullptr && !state->finished) {
      finish(*state, /*success=*/false);
    }
  });

  const std::uint32_t slot = query_pool_.create(std::move(q));
  auto [it, inserted] = queries_.emplace(qid, slot);
  DDE_CHECK(inserted, "issue_query: duplicate QueryId would corrupt the "
                      "query table");
  advance(query_pool_.at(slot));
  return qid;
}

AthenaNode::QueryState* AthenaNode::lookup_query(QueryId qid) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || it->second == kRetiredSlot) return nullptr;
  return &query_pool_.at(it->second);
}

void AthenaNode::drain_retired() {
  for (const QueryId qid : retire_pending_) {
    auto it = queries_.find(qid);
    if (it == queries_.end() || it->second == kRetiredSlot) continue;
    query_pool_.destroy(it->second);
    it->second = kRetiredSlot;
  }
  retire_pending_.clear();
}

bool AthenaNode::prefetch_mark_seen(std::uint64_t key) {
  if (prefetch_seen_.contains(key)) return false;
  const std::size_t cap = std::max<std::size_t>(config_.prefetch_dedup_capacity, 1);
  while (prefetch_seen_.size() >= cap && !prefetch_seen_fifo_.empty()) {
    prefetch_seen_.erase(prefetch_seen_fifo_.front());
    prefetch_seen_fifo_.pop_front();
  }
  prefetch_seen_.insert(key);
  prefetch_seen_fifo_.push_back(key);
  return true;
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
  for (const auto& [known, m] : q.meta) {
    if (known == label) return m;
  }
  SourceId source;
  if (auto it = q.selection.designated.find(label);
      it != q.selection.designated.end()) {
    source = it->second;
  } else if (const auto& srcs = directory_.sources_for(label); !srcs.empty()) {
    source = srcs.front();
  }
  const decision::LabelMeta m = source.valid()
                                    ? directory_.meta(label, source, id_)
                                    : decision::LabelMeta{};
  if (q.meta.empty()) q.meta.reserve(q.label_set.size());
  q.meta.emplace_back(label, m);
  return m;
}

std::vector<decision::LabelValue> AthenaNode::annotate(
    const world::EvidenceObject& obj) const {
  std::vector<decision::LabelValue> values;
  values.reserve(obj.readings.size());
  // Sorted segment order: the values vector feeds label-share payloads and
  // per-query settle traces, so its order must not depend on hash layout.
  for (const auto segment : sorted_keys(obj.readings)) {
    const bool viable = obj.readings.at(segment);
    decision::LabelValue v;
    v.label = LabelId{segment.value()};
    v.value = to_tristate(viable);
    v.evaluated_at = obj.captured_at;
    v.validity = obj.validity;
    v.annotator = AnnotatorId{id_.value()};
    v.evidence = {obj.id};
    values.push_back(std::move(v));
  }
  return values;
}

std::vector<decision::LabelValue> AthenaNode::corroborate(
    const world::EvidenceObject& obj) {
  const SimTime now = net_.now();
  std::vector<decision::LabelValue> decided;
  if (!obj.fresh_at(now)) return decided;  // expired observations are void
  // Sorted segment order: decided labels flow into shares and settle traces.
  for (const auto segment : sorted_keys(obj.readings)) {
    const bool reading = obj.readings.at(segment);
    const LabelId label{segment.value()};
    auto& entry = beliefs_[label];
    if (now >= entry.window_expires) entry = BeliefEntry{};  // window over
    if (!entry.observed.insert(obj.id).second) continue;  // already counted
    // Clamp into the informative range; a reliability at or below 0.5
    // carries no information.
    const double r = std::clamp(obj.reliability, 0.5, 0.999);
    entry.belief.observe(reading, r);
    entry.window_expires = std::min(entry.window_expires, obj.expires_at());
    const Tristate verdict =
        entry.belief.decided(config_.corroboration_confidence);
    if (verdict == Tristate::kUnknown) continue;
    decision::LabelValue v;
    v.label = label;
    v.value = verdict;
    v.evaluated_at = now;
    v.validity = entry.window_expires - now;
    v.annotator = AnnotatorId{id_.value()};
    v.evidence = sorted_keys(entry.observed);
    decided.push_back(std::move(v));
  }
  return decided;
}

SourceId AthenaNode::next_corroborating_source(const QueryState& q,
                                               LabelId label,
                                               SimTime* earliest_retry) const {
  const SimTime now = net_.now();
  SourceId best;
  SimTime best_last = SimTime::max();
  double best_cost = 0.0;
  for (SourceId s : directory_.sources_for(label)) {
    if (q.exhausted.contains(s)) continue;  // failed over away from it
    SimTime last = SimTime::zero() - SimTime::seconds(1e9);
    if (const SimTime* t = q.last_request.find(s)) last = *t;
    // A repeat request within the sensor's validity window would return
    // the same capture — no new information.
    const SimTime eligible_at = last + directory_.sensor(s).validity;
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
    const std::vector<decision::LabelValue>& values) {
  // Sorted query order: each fill emits a kLabelSettle trace event.
  for (const QueryId qid : sorted_keys(queries_)) {
    QueryState* state = lookup_query(qid);
    if (state == nullptr || state->finished) continue;
    QueryState& q = *state;
    for (const auto& v : values) {
      if (!q.label_set.contains(v.label)) continue;
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
  // Bound the dedup set on very long runs; losing old entries only risks
  // re-annotating an already-expired capture, never incorrectness.
  if (ingested_.size() > 200000) ingested_.clear();
  const bool first_ingest = ingested_.insert(obj.id).second;
  if (first_ingest && !obj.fresh_at(now)) ++metrics_.stale_arrivals;

  if (first_ingest) {
    // Annotate (the origin is the evaluator, Sec. VI-C). With noisy
    // sensors, readings feed per-label Bayesian beliefs and only decided
    // labels emerge (Sec. IV-B); otherwise a single reading decides. Stale
    // values are dropped; fresh ones update assignments, and those that
    // improve on the label cache are cached and shared.
    std::vector<decision::LabelValue> values =
        config_.corroboration_confidence > 0.5 ? corroborate(obj)
                                               : annotate(obj);
    std::erase_if(values, [now](const decision::LabelValue& v) {
      return v.expires_at() <= now;
    });
    std::vector<decision::LabelValue> fresher;
    for (const auto& v : values) {
      const auto* existing = label_cache_.peek(v.label, now);
      if (existing && existing->expires_at() >= v.expires_at()) continue;
      label_cache_.put(v.label, v, v.expires_at(), now);
      fresher.push_back(v);
    }
    apply_labels_to_queries(values);

    // Share newly evaluated labels back into the network (Sec. VI-D).
    if (config_.label_sharing && !fresher.empty()) {
      share_labels(fresher, obj.source);
    }
  }

  // The reply (fresh or stale, new or repeated) settles the outstanding
  // request.
  // lint: ordered-fold — order-pinned site (docs/STATIC_ANALYSIS.md): hash
  // order is fixed for a given stdlib + seed-deterministic insertion history,
  // and reordering the advance() calls below changes replay trajectories
  // against the bench baseline.
  for (auto& [qid, slot] : queries_) {
    if (slot == kRetiredSlot) continue;
    QueryState& q = query_pool_.at(slot);
    if (q.outstanding.erase(obj.source)) {
      trace(obs::EventKind::kObjectRx, qid, obj.source.value(), obj.bytes);
    }
  }

  // Progress every query that may have been unblocked.
  std::vector<QueryId> ids;
  ids.reserve(queries_.size());
  // lint: ordered-fold — order-pinned site, see above.
  for (auto& [qid, slot] : queries_) {
    if (slot != kRetiredSlot && !query_pool_.at(slot).finished) {
      ids.push_back(qid);
    }
  }
  for (QueryId qid : ids) {
    QueryState* state = lookup_query(qid);
    if (state != nullptr) advance(*state);
  }
}

bool AthenaNode::try_local(QueryState& q, LabelId label) {
  const SimTime now = net_.now();

  // 1. Label cache: a fresh value signed by a trusted annotator settles
  //    the label outright (Sec. VI-D trust model).
  if (const auto* v = label_cache_.peek(label, now)) {
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
    const bool cached = object_cache_.peek(s, now) != nullptr;
    if (!cached && !hosts(s)) continue;
    auto obj = local_object(s);
    if (!obj) continue;
    if (ingested_.contains(obj->id)) continue;
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
    finish(q, false);
    return;
  }
  // Keep resolving from local knowledge until we must touch the network.
  for (int guard = 0; guard < 1000; ++guard) {
    if (q.expr.resolved(q.assignment, now)) {
      finish(q, true);
      return;
    }
    if (config_.sequential && !q.outstanding.empty()) {
      // One request in flight per query, and shedding needs none in
      // flight, so a plan here would only feed the kPlan trace. Every
      // policy plans exactly the relevant labels; trace their count.
      if (trace_sink_ != nullptr) {
        trace(obs::EventKind::kPlan, q.id,
              q.expr.relevant_labels(q.assignment, now).size());
      }
      return;
    }
    const decision::MetaFn meta = [this, &q](LabelId label) {
      return label_meta(q, label);
    };
    const auto order = decision::plan_retrieval_order(
        q.expr, q.assignment, now, meta, config_.order, q.deadline_abs);
    if (order.empty()) return;  // nothing actionable (uncovered labels)
    trace(obs::EventKind::kPlan, q.id, order.size());

    // Deadline-infeasibility shedding (overload protection): if nothing is
    // in flight and even the quickest possible retrieval can no longer
    // return in time, abort now — freeing the bandwidth the doomed fetches
    // would have burned — and account the query as shed, not failed.
    if (config_.shed_infeasible && q.outstanding.empty() &&
        deadline_infeasible(q, order, now)) {
      finish(q, /*success=*/false, /*shed=*/true);
      return;
    }

    bool progressed = false;
    if (config_.sequential) {
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
        } else if (const auto it = q.selection.designated.find(l);
                   it != q.selection.designated.end()) {
          source = it->second;
        }
        if (!source.valid()) continue;  // uncovered (or nothing new yet)
        if (hosts(source)) {
          // A locally hosted source not caught by try_local (possible under
          // corroboration when its fresh capture was already counted);
          // requesting it over the network is meaningless — but a NEW
          // capture becomes available once the current one expires, so
          // schedule the retry for then.
          if (const auto* cached = object_cache_.peek(source, net_.now())) {
            corroboration_retry =
                std::min(corroboration_retry, cached->expires_at());
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
      if (!progressed) {
        // Corroboration may be blocked until some sensor produces a fresh
        // capture; wake up then instead of sleeping to the deadline.
        if (corroboration_retry != SimTime::max() &&
            corroboration_retry < q.deadline_abs) {
          const QueryId qid = q.id;
          net_.simulator().schedule_at(
              corroboration_retry + SimTime::millis(1), [this, qid] {
                drain_retired();
                QueryState* state = lookup_query(qid);
                if (state != nullptr && !state->finished) {
                  advance(*state);
                }
              });
        }
        return;
      }
    } else {
      // Batch (cmp / slt): request every selected source that still has a
      // relevant label, all at once.
      for (LabelId l : order) {
        if (try_local(q, l)) progressed = true;
      }
      if (q.expr.resolved(q.assignment, now)) continue;  // loop re-checks
      const auto fresh_order = decision::plan_retrieval_order(
          q.expr, q.assignment, now, meta, config_.order, q.deadline_abs);
      for (const auto& [source, labels] : q.selection.requests) {
        if (q.outstanding.contains(source)) continue;
        // Locally hosted evidence was already consumed by try_local; a
        // network request to ourselves would be meaningless (reachable
        // only in exotic configs, e.g. batch issue + corroboration).
        if (hosts(source)) continue;
        std::vector<LabelId> want;
        for (LabelId l : labels) {
          if (std::find(fresh_order.begin(), fresh_order.end(), l) !=
              fresh_order.end()) {
            want.push_back(l);
          }
        }
        if (want.empty()) continue;
        issue_request(q, source, std::move(want));
        progressed = true;
      }
      if (!progressed) return;
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

  auto& count = q.request_counts.ref(source);
  ++count;
  q.last_request.set(source, now);
  ++metrics_.object_requests;
  if (count > 1) ++metrics_.refetches;
  ++records_[q.record_index].requests_sent;
  trace(obs::EventKind::kFetch, q.id, source.value(), config_.request_bytes,
        static_cast<double>(count));

  // Adaptive timeout: three times the directory's round-trip estimate for
  // this source, floored generously (queueing is not in the estimate) and
  // capped by the configured maximum. Small objects on short paths recover
  // from loss in seconds instead of waiting out the worst-case timeout.
  const SimTime est = directory_.retrieval_latency(source, id_);
  SimTime timeout = config_.request_timeout;
  if (est != SimTime::max()) {
    timeout = std::clamp(3 * est, SimTime::seconds(8),
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
  q.outstanding.set(source, now + timeout);

  // Re-issue watchdog: if no reply settles this request in time, clear it
  // so the planner can retry — backed off against the same source, or
  // failed over to an alternate one once this source's attempts are spent.
  net_.simulator().schedule_after(
      timeout + SimTime::micros(1), [this, qid = q.id, source] {
        drain_retired();
        QueryState* state = lookup_query(qid);
        if (state == nullptr || state->finished) return;
        QueryState& q2 = *state;
        const SimTime* o = q2.outstanding.find(source);
        if (o != nullptr && *o <= net_.now()) {
          q2.outstanding.erase(source);
          ++metrics_.retries;
          trace(obs::EventKind::kRetry, qid, source.value());
          if (config_.max_source_attempts > 0 &&
              q2.request_counts.ref(source) >= config_.max_source_attempts &&
              q2.exhausted.insert(source).second) {
            failover(q2);
          }
          advance(q2);
        }
      });

  ObjectRequest r;
  r.query = q.id;
  r.origin = id_;
  r.source = source;
  r.labels = std::move(labels);
  r.prefetch = false;
  // Accept cached labels on the first attempt only: a retry means the label
  // answer was unusable (e.g. expired in transit), so insist on the object.
  r.accept_labels = config_.label_sharing && count == 1;
  r.deadline_abs = q.deadline_abs;
  r.priority = q.priority;

  // Local interest entry so the returning object is delivered to us.
  interest_order_.insert(source);
  interest_table_.find_or_insert(source.value())
      .push_back(Interest{NodeId{}, q.id, id_, r.labels, false,
                          r.accept_labels, q.priority,
                          now + config_.interest_ttl});
  schedule_gc();

  // Multipath redundancy (Sec. V-C): critical requests are replicated over
  // alternate downhill first hops, tagged with a replica group so the
  // copies deduplicate downstream. Non-critical traffic stays single-path.
  if (config_.multipath_redundancy > 1 && r.priority > 0) {
    r.replica_group = new_replica_group();
    const NodeId dest = directory_.host(r.source);
    const auto next = net_.next_hop(id_, dest);
    forward_request(r);
    if (next && *next != id_) replicate_request(r, *next, dest);
    return;
  }
  forward_request(r);
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
  // Deterministic label order (label_set is unordered).
  std::vector<LabelId> labels(q.label_set.begin(), q.label_set.end());
  std::sort(labels.begin(), labels.end());
  Directory::Selection fresh = directory_.select_sources(
      labels, id_, config_.source_selection, &q.exhausted);
  std::uint64_t moved = 0;
  // lint: ordered-fold — pure count of changed designations, commutative.
  for (const auto& [label, source] : fresh.designated) {
    const auto prev = q.selection.designated.find(label);
    if (prev == q.selection.designated.end() || prev->second != source) {
      ++metrics_.failovers;
      ++moved;
    }
  }
  q.selection = std::move(fresh);
  q.meta.clear();
  trace(obs::EventKind::kFailover, q.id, moved);
}

void AthenaNode::finish(QueryState& q, bool success, bool shed,
                        bool crashed) {
  if (q.finished) return;
  q.finished = true;
  ++finished_count_;
  const SimTime now = net_.now();

  QueryRecord& rec = records_[q.record_index];
  rec.success = success;
  rec.finished_at = now;
  if (success) {
    rec.chosen_action = q.expr.chosen_action(q.assignment, now);
    ++metrics_.queries_resolved;
    metrics_.total_resolution_latency_s += (now - q.issued_at).to_seconds();
    trace(obs::EventKind::kDecide, q.id,
          rec.chosen_action ? *rec.chosen_action : 0, 0,
          (now - q.issued_at).to_seconds());
  } else if (crashed) {
    // Terminal failed_crash: the query died with its node. Kept out of
    // queries_failed so deadline-miss rates stay attributable to the
    // protocol, not the fault schedule.
    rec.crashed = true;
    ++metrics_.queries_failed_crash;
    trace(obs::EventKind::kCrashDrop, q.id);
  } else if (shed) {
    rec.shed = true;
    ++metrics_.queries_shed;
    trace(obs::EventKind::kShed, q.id);
  } else {
    ++metrics_.queries_failed;
    trace(obs::EventKind::kExpire, q.id);
  }
  q.outstanding.clear();
  // The pooled state is recycled at the next drain_retired() entry point —
  // never here, because callers up the stack (deliver_object/advance
  // recursion) may still hold a reference to q.
  retire_pending_.push_back(q.id);
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

void AthenaNode::on_packet(const net::Packet& pkt) {
  drain_retired();
  if (const auto* a = std::any_cast<QueryAnnounce>(&pkt.payload)) {
    handle_announce(pkt.src, *a);
  } else if (const auto* r = std::any_cast<ObjectRequest>(&pkt.payload)) {
    handle_request(pkt.src, *r);
  } else if (const auto* d = std::any_cast<ObjectReply>(&pkt.payload)) {
    handle_reply(pkt.src, *d);
  } else if (const auto* s = std::any_cast<LabelShare>(&pkt.payload)) {
    handle_label_share(pkt.src, *s);
  } else if (const auto* l = std::any_cast<LabelReply>(&pkt.payload)) {
    handle_label_reply(pkt.src, *l);
  } else if (const auto* inv = std::any_cast<Invalidation>(&pkt.payload)) {
    handle_invalidation(pkt.src, *inv);
  } else if (const auto* h = std::any_cast<RecoveryHello>(&pkt.payload)) {
    handle_recovery_hello(*h);
  }
}

void AthenaNode::handle_announce(NodeId from, const QueryAnnounce& a) {
  // Dedup entries expire with the query deadline (post-deadline duplicates
  // are discarded just below either way) and are swept by the GC.
  if (!announces_seen_.insert_if_absent(a.query.value(), a.deadline_abs)) {
    return;
  }
  schedule_gc();
  const SimTime now = net_.now();
  if (now >= a.deadline_abs) return;

  // Re-flood within the TTL radius.
  if (a.ttl > 0) {
    QueryAnnounce next = a;
    next.ttl = a.ttl - 1;
    for (NodeId nb : net_.topology().neighbors(id_)) {
      if (nb != from) send_msg(nb, config_.announce_bytes, next, MsgKind::kAnnounce);
    }
  }

  if (!config_.prefetch || a.origin == id_) return;

  // Enqueue background prefetch work (Query_Recv / Sec. VI-A): a node that
  // hosts a sensor relevant to the announced decision pushes its object
  // toward the origin (Fig. 1: node C pushes u), so the data is already
  // cached en route when the fetch request comes. Restricted to hosted
  // sensors — blanket cache pushes flood the network with redundant copies.
  // The push-dedup set is bounded (config_.prefetch_dedup_capacity) by
  // oldest-first eviction inside prefetch_mark_seen: losing the stalest
  // entries only risks one redundant background push per (origin, source)
  // pair, never incorrectness — and, unlike the wholesale clear() this
  // replaces, an overflow no longer forgets every in-flight key at once.
  for (LabelId label : a.labels) {
    for (SourceId s : directory_.sources_for(label)) {
      if (!hosts(s)) continue;
      if (!prefetch_mark_seen(prefetch_key(a.origin, s))) continue;
      prefetch_queue_.push_back(
          PrefetchItem{true, s, a.query, a.origin, a.deadline_abs});
    }
  }
  if (!prefetch_queue_.empty() && !pump_scheduled_) {
    pump_scheduled_ = true;
    net_.simulator().schedule_after(config_.prefetch_interval,
                                    [this] { pump_prefetch(); });
  }
}

void AthenaNode::handle_request(NodeId from, const ObjectRequest& r) {
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
  if (r.accept_labels) {
    std::vector<decision::LabelValue> vals;
    bool all = true;
    for (LabelId l : r.labels) {
      const auto* v = label_cache_.peek(l, now);
      if (v == nullptr) {
        all = false;
        break;
      }
      vals.push_back(*v);
    }
    if (all && !vals.empty()) {
      ++metrics_.label_cache_hits;
      LabelReply reply{std::move(vals), r.query, r.origin, r.source};
      send_msg(from, config_.label_bytes, reply, MsgKind::kLabel, r.priority);
      return;
    }
  }

  // Object service from cache or a hosted sensor.
  if (auto obj = local_object(r.source)) {
    if (!hosts(r.source)) ++metrics_.object_cache_hits;
    const std::uint64_t group = reply_group_for(r);
    reply_with_object(*obj, from, r.query, r.origin, /*prefetch_push=*/false,
                      r.priority, group);
    replicate_reply(ObjectReply{*obj, r.query, r.origin, false, group,
                                r.priority},
                    from, r.origin);
    return;
  }

  // Semantic object substitution (Sec. V-A): a cached object from a
  // *different* source whose field of view covers every requested label is
  // an exact answer for this request — the equivalent of substituting
  // camera2 for camera1 when both see the same scene.
  if (config_.substitute_equivalent_objects && !r.labels.empty()) {
    for (SourceId candidate : directory_.sources_for(r.labels.front())) {
      if (candidate == r.source) continue;
      const auto* cached = object_cache_.peek(candidate, now);
      if (cached == nullptr) continue;
      const bool covers_all = std::all_of(
          r.labels.begin(), r.labels.end(), [&](LabelId l) {
            return cached->readings.contains(SegmentId{l.value()});
          });
      if (!covers_all) continue;
      ++metrics_.substitutions;
      const std::uint64_t group = reply_group_for(r);
      reply_with_object(*cached, from, r.query, r.origin,
                        /*prefetch_push=*/false, r.priority, group);
      replicate_reply(ObjectReply{*cached, r.query, r.origin, false, group,
                                  r.priority},
                      from, r.origin);
      return;
    }
  }

  // Miss: prefetch requests are never forwarded (Sec. VI-B).
  if (r.prefetch) return;

  // Bookmark the interest and forward toward the source.
  interest_order_.insert(r.source);
  auto& entries = interest_table_.find_or_insert(r.source.value());
  entries.remove_if([now](const Interest& e) { return e.expires <= now; });
  entries.push_back(Interest{from, r.query, r.origin, r.labels, r.prefetch,
                             r.accept_labels, r.priority,
                             now + config_.interest_ttl});
  trace(obs::EventKind::kInterest, r.query, r.source.value());
  schedule_gc();
  forward_request(r);
}

void AthenaNode::forward_request(const ObjectRequest& r) {
  const SimTime now = net_.now();
  const NodeId dest = directory_.host(r.source);
  const auto next = net_.next_hop(id_, dest);
  if (!next || *next == id_) return;  // unreachable or we are the host

  // Interest aggregation: if an equivalent upstream request is already in
  // flight, the pending reply will serve this interest too.
  if (const SimTime* lease_until = forwarded_.find(r.source.value());
      lease_until != nullptr && *lease_until > now) {
    ++metrics_.interest_aggregations;
    return;
  }
  // The marker lease defaults to the full request timeout; a configured
  // recovery_lease caps it so markers whose upstream copy could die with a
  // crashed hop expire early (crash recovery; no-op at zero, the default).
  SimTime lease = config_.request_timeout;
  if (config_.recovery_lease > SimTime::zero() &&
      config_.recovery_lease < lease) {
    lease = config_.recovery_lease;
  }
  forwarded_.find_or_insert(r.source.value()) = now + lease;
  schedule_gc();
  send_msg(*next, config_.request_bytes, r, MsgKind::kRequest, r.priority);
}

std::uint64_t AthenaNode::new_replica_group() {
  // Node-local counter spread by node id: unique across a run's nodes
  // without shared state (a node exhausting 10^6 groups would collide, far
  // beyond any run here).
  return id_.value() * 1000000 + ++next_replica_group_;
}

std::uint64_t AthenaNode::reply_group_for(const ObjectRequest& r) {
  if (config_.multipath_redundancy <= 1 || r.priority <= 0) {
    return r.replica_group;
  }
  return r.replica_group != 0 ? r.replica_group : new_replica_group();
}

bool AthenaNode::replica_first_copy(std::uint64_t group, int kind) {
  if (group == 0) return true;  // untagged: single-path traffic
  if (!replica_dedup_) {
    replica_dedup_.emplace(config_.replica_dedup_capacity,
                           config_.replica_dedup_ttl);
  }
  // One key space for both legs of a group: requests on even, replies on
  // odd, so a reply reusing its request's group still deduplicates.
  return replica_dedup_->accept(group * 2 + static_cast<std::uint64_t>(kind),
                                net_.now());
}

void AthenaNode::replicate_request(const ObjectRequest& r, NodeId primary_next,
                                   NodeId dest) {
  if (config_.multipath_redundancy <= 1 || r.replica_group == 0) return;
  for (NodeId alt : net::alternate_next_hops(net_.topology(), id_, dest,
                                             config_.multipath_redundancy - 1,
                                             {primary_next})) {
    ++metrics_.replica_copies;
    send_msg(alt, config_.request_bytes, r, MsgKind::kRequest, r.priority);
  }
}

void AthenaNode::replicate_reply(const ObjectReply& r, NodeId primary_next,
                                 NodeId dest) {
  if (config_.multipath_redundancy <= 1 || r.replica_group == 0) return;
  if (dest == id_) return;  // the requester is this node; nothing to fan out
  for (NodeId alt : net::alternate_next_hops(net_.topology(), id_, dest,
                                             config_.multipath_redundancy - 1,
                                             {primary_next})) {
    ++metrics_.replica_copies;
    ++metrics_.object_reply_hops;
    send_msg(alt, r.object.bytes, r, MsgKind::kObject, r.priority);
  }
}

void AthenaNode::reply_with_object(const world::EvidenceObject& obj,
                                   NodeId to, QueryId query, NodeId origin,
                                   bool prefetch_push, int priority,
                                   std::uint64_t replica_group) {
  ObjectReply reply{obj, query, origin, prefetch_push, replica_group,
                    priority};
  ++metrics_.object_reply_hops;
  if (prefetch_push) {
    // Background traffic: yields to every foreground class at link queues.
    metrics_.push_bytes += obj.bytes;
    net::Packet pkt;
    pkt.src = id_;
    pkt.dst = to;
    pkt.bytes = obj.bytes;
    pkt.priority = -1;
    pkt.payload = std::move(reply);
    net_.send(id_, to, std::move(pkt));
    return;
  }
  send_msg(to, obj.bytes, std::move(reply), MsgKind::kObject, priority);
}

void AthenaNode::handle_reply(NodeId from, const ObjectReply& r) {
  (void)from;
  const SimTime now = net_.now();
  const world::EvidenceObject& obj = r.object;

  // Multipath: drop later copies of a replicated reply before caching so
  // each node processes (and forwards) a group's reply exactly once.
  if (!replica_first_copy(r.replica_group, /*kind=*/1)) {
    ++metrics_.replica_duplicates;
    return;
  }

  // Cache along the way (Sec. VI-C).
  if (obj.fresh_at(now)) {
    object_cache_.put(obj.source, obj, obj.expires_at(), now);
  }
  forwarded_.erase(obj.source.value());

  // Serve all pending interests for this source.
  std::vector<Interest> consumers;
  if (auto* entries = interest_table_.find(obj.source.value())) {
    consumers.reserve(entries->size());
    for (Interest& e : *entries) consumers.push_back(std::move(e));
    interest_table_.erase(obj.source.value());
    interest_order_.erase(obj.source);
  }
  bool delivered_locally = false;
  bool forwarded_any = false;
  SmallSet<NodeId, 4> sent_to;
  for (const Interest& e : consumers) {
    if (e.expires <= now) continue;
    if (!e.from.valid()) {
      delivered_locally = true;
    } else if (sent_to.insert(e.from)) {
      reply_with_object(obj, e.from, e.query, e.origin, r.prefetch_push,
                        e.priority, r.replica_group);
      forwarded_any = true;
    }
  }

  // A prefetch push keeps moving toward the query origin even without
  // interests (Fig. 1: the source pushes u all the way to the requester).
  if (r.prefetch_push && !forwarded_any && r.origin != id_) {
    if (const auto next = net_.next_hop(id_, r.origin);
        next && *next != id_) {
      reply_with_object(obj, *next, r.query, r.origin, true, -1);
    }
  }

  // A replica copy travelling an alternate path crosses nodes that never
  // bookmarked an interest; keep it moving toward the query origin so the
  // redundant path stays end-to-end.
  if (r.replica_group != 0 && !r.prefetch_push && !forwarded_any &&
      !delivered_locally && r.origin != id_) {
    if (const auto next = net_.next_hop(id_, r.origin);
        next && *next != id_) {
      reply_with_object(obj, *next, r.query, r.origin, false, r.priority,
                        r.replica_group);
    }
  }

  if (delivered_locally || (r.prefetch_push && r.origin == id_)) {
    deliver_object(obj);
  }
}

void AthenaNode::handle_label_share(NodeId from, const LabelShare& s) {
  (void)from;
  const SimTime now = net_.now();
  // Cache fresher label values along the path (Sec. VI-D).
  std::vector<decision::LabelValue> fresher;
  for (const auto& v : s.values) {
    const auto* existing = label_cache_.peek(v.label, now);
    if (existing && existing->expires_at() >= v.expires_at()) continue;
    if (v.expires_at() > now) {
      label_cache_.put(v.label, v, v.expires_at(), now);
      fresher.push_back(v);
    }
  }

  // Local queries may be waiting on exactly these labels.
  if (!fresher.empty()) {
    apply_labels_to_queries(fresher);
    std::vector<QueryId> ids;
    // lint: ordered-fold — order-pinned site (docs/STATIC_ANALYSIS.md):
    // advance() order below is part of the replayed trajectory.
    for (auto& [qid, slot] : queries_) {
      if (slot != kRetiredSlot && !query_pool_.at(slot).finished) {
        ids.push_back(qid);
      }
    }
    for (QueryId qid : ids) {
      QueryState* state = lookup_query(qid);
      if (state != nullptr) advance(*state);
    }
  }

  // Serve pending label-accepting interests that are now fully covered.
  // lint: ordered-fold — order-pinned site (docs/STATIC_ANALYSIS.md): reply
  // send order below is part of the replayed trajectory; interest_order_
  // reproduces the pre-flat table's iteration order (see node.h).
  for (const SourceId source : interest_order_) {
    auto* entries = interest_table_.find(source.value());
    if (entries == nullptr) continue;
    SmallVec<Interest, 2> keep;
    for (Interest& e : *entries) {
      if (e.expires <= now) continue;
      bool all = e.accept_labels && e.from.valid() && !e.labels.empty();
      std::vector<decision::LabelValue> vals;
      if (all) {
        for (LabelId l : e.labels) {
          const auto* v = label_cache_.peek(l, now);
          if (v == nullptr) {
            all = false;
            break;
          }
          vals.push_back(*v);
        }
      }
      if (all) {
        ++metrics_.label_cache_hits;
        LabelReply reply{std::move(vals), e.query, e.origin, source};
        send_msg(e.from, config_.label_bytes, reply, MsgKind::kLabel,
                 e.priority);
      } else {
        keep.push_back(std::move(e));
      }
    }
    *entries = std::move(keep);
  }

  // Keep propagating toward the data source's host.
  if (s.toward != id_) {
    if (const auto next = net_.next_hop(id_, s.toward); next && *next != id_) {
      send_msg(*next, config_.label_bytes, s, MsgKind::kLabel);
    }
  }
}

void AthenaNode::handle_label_reply(NodeId from, const LabelReply& r) {
  (void)from;
  const SimTime now = net_.now();
  // The upstream interest this node forwarded (if any) was consumed by a
  // label answer; a later object request for the same source must be
  // forwarded anew rather than aggregated into the finished one.
  forwarded_.erase(r.source.value());
  for (const auto& v : r.values) {
    const auto* existing = label_cache_.peek(v.label, now);
    if (existing && existing->expires_at() >= v.expires_at()) continue;
    if (v.expires_at() > now) label_cache_.put(v.label, v, v.expires_at(), now);
  }
  if (r.origin == id_) {
    apply_labels_to_queries(r.values);
    // lint: ordered-fold — independent per-query erase, no output emitted.
    for (auto& [qid, slot] : queries_) {
      if (slot != kRetiredSlot) query_pool_.at(slot).outstanding.erase(r.source);
    }
    std::vector<QueryId> ids;
    // lint: ordered-fold — order-pinned site (docs/STATIC_ANALYSIS.md):
    // advance() order below is part of the replayed trajectory.
    for (auto& [qid, slot] : queries_) {
      if (slot != kRetiredSlot && !query_pool_.at(slot).finished) {
        ids.push_back(qid);
      }
    }
    for (QueryId qid : ids) {
      QueryState* state = lookup_query(qid);
      if (state != nullptr) advance(*state);
    }
  } else if (const auto next = net_.next_hop(id_, r.origin);
             next && *next != id_) {
    send_msg(*next, config_.label_bytes, r, MsgKind::kLabel);
  }
}

void AthenaNode::share_labels(const std::vector<decision::LabelValue>& values,
                              SourceId produced_by) {
  const NodeId toward = directory_.host(produced_by);
  if (toward == id_) return;
  if (const auto next = net_.next_hop(id_, toward); next && *next != id_) {
    send_msg(*next, config_.label_bytes, LabelShare{values, toward},
             MsgKind::kLabel);
  }
}

void AthenaNode::broadcast_invalidation(const std::vector<LabelId>& labels) {
  drain_retired();
  Invalidation inv;
  // Flood-unique id: node id in the high digits, like query ids. A local
  // counter (not the dedup-set size) keeps ids unique as entries expire.
  inv.id = id_.value() * 1000000ULL + 900000ULL + next_invalidation_++;
  inv.labels = labels;
  inv.issued_at = net_.now();
  inv.ttl = 64;  // network-wide
  invalidations_seen_.insert_if_absent(inv.id, net_.now() + config_.dedup_ttl);
  schedule_gc();
  apply_invalidation(labels);
  for (NodeId nb : net_.topology().neighbors(id_)) {
    send_msg(nb, config_.label_bytes, inv, MsgKind::kLabel, /*priority=*/1);
  }
}

void AthenaNode::handle_invalidation(NodeId from, const Invalidation& inv) {
  if (!invalidations_seen_.insert_if_absent(inv.id,
                                            net_.now() + config_.dedup_ttl)) {
    return;
  }
  schedule_gc();
  if (inv.ttl > 0) {
    Invalidation next = inv;
    next.ttl = inv.ttl - 1;
    for (NodeId nb : net_.topology().neighbors(id_)) {
      if (nb != from) {
        send_msg(nb, config_.label_bytes, next, MsgKind::kLabel, 1);
      }
    }
  }
  if (config_.honor_invalidations) apply_invalidation(inv.labels);
}

void AthenaNode::apply_invalidation(const std::vector<LabelId>& labels) {
  const std::unordered_set<LabelId> set(labels.begin(), labels.end());
  for (LabelId l : labels) {
    label_cache_.erase_key(l);
    beliefs_.erase(l);
  }
  // Objects whose readings evidence any invalidated label are void too.
  object_cache_.erase_if([&](SourceId, const world::EvidenceObject& obj) {
    // lint: ordered-fold — pure any-of over readings, commutative.
    for (const auto& [segment, value] : obj.readings) {
      if (set.contains(LabelId{segment.value()})) return true;
    }
    return false;
  });
  // Re-open affected decisions.
  std::vector<QueryId> affected;
  // lint: ordered-fold — order-pinned site (docs/STATIC_ANALYSIS.md):
  // advance() order below is part of the replayed trajectory.
  for (auto& [qid, slot] : queries_) {
    if (slot == kRetiredSlot) continue;
    QueryState& q = query_pool_.at(slot);
    if (q.finished) continue;
    bool touched = false;
    for (LabelId l : labels) {
      if (q.label_set.contains(l)) {
        q.assignment.invalidate(l);
        touched = true;
      }
    }
    if (touched) affected.push_back(qid);
  }
  for (QueryId qid : affected) {
    QueryState* state = lookup_query(qid);
    if (state != nullptr) advance(*state);
  }
}

// ---------------------------------------------------------------------------
// Prefetching (background queue, Sec. VI-A)
// ---------------------------------------------------------------------------

bool AthenaNode::prefetch_congested(const PrefetchItem& item) const {
  if (config_.prefetch_watermark == 0) return false;
  const NodeId toward =
      item.push ? item.origin : directory_.host(item.source);
  const auto next = net_.next_hop(id_, toward);
  if (!next || *next == id_) return false;
  const auto link = net_.topology().link_between(id_, *next);
  if (!link) return false;
  return net_.queue_length(*link) > config_.prefetch_watermark;
}

void AthenaNode::pump_prefetch() {
  drain_retired();
  pump_scheduled_ = false;
  const SimTime now = net_.now();
  // Backpressure (overload protection): while the first hop of the head
  // item sits above the congestion watermark, hold the whole pump — the
  // background traffic would only deepen the queue it is observing — and
  // re-check at the throttle interval.
  if (!prefetch_queue_.empty() && prefetch_congested(prefetch_queue_.front())) {
    ++metrics_.prefetch_throttled;
    pump_scheduled_ = true;
    net_.simulator().schedule_after(config_.prefetch_throttle_interval,
                                    [this] { pump_prefetch(); });
    return;
  }
  if (!prefetch_queue_.empty()) {
    PrefetchItem item = prefetch_queue_.front();
    prefetch_queue_.pop_front();
    if (now < item.deadline_abs) {
      if (item.push) {
        if (auto obj = local_object(item.source)) {
          if (const auto next = net_.next_hop(id_, item.origin);
              next && *next != id_) {
            ++metrics_.prefetch_pushes;
            reply_with_object(*obj, *next, item.query, item.origin,
                              /*prefetch_push=*/true, /*priority=*/-1);
          }
        }
      } else {
        ObjectRequest r;
        r.query = item.query;
        r.origin = item.origin;
        r.source = item.source;
        r.labels = directory_.labels_of(item.source);
        r.prefetch = true;
        r.accept_labels = false;
        r.deadline_abs = item.deadline_abs;
        r.priority = -1;
        if (const auto next =
                net_.next_hop(id_, directory_.host(item.source));
            next && *next != id_) {
          send_msg(*next, config_.request_bytes, r, MsgKind::kRequest, -1);
        }
      }
    }
  }
  if (!prefetch_queue_.empty()) {
    pump_scheduled_ = true;
    net_.simulator().schedule_after(config_.prefetch_interval,
                                    [this] { pump_prefetch(); });
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
// purpose — they are what keeps post-restart identifiers unique — and the
// records_ vector survives because it is the experiment's measurement log,
// not node state. Pending pump/GC callbacks are left armed: they are
// written to no-op against empty tables and re-arm only when state exists.

void AthenaNode::on_crash(fault::RestartPolicy policy) {
  if (policy == fault::RestartPolicy::kGhost) return;

  // In-flight local queries die with the process: their watchdogs, partial
  // assignments, and outstanding requests are gone, so no future arrival
  // could ever resolve them.
  drain_retired();
  std::uint64_t dropped = 0;
  for (QueryId qid : sorted_keys(queries_)) {
    QueryState* state = lookup_query(qid);
    if (state == nullptr || state->finished) continue;
    finish(*state, /*success=*/false, /*shed=*/false, /*crashed=*/true);
    ++dropped;
  }

  // Volatile protocol tables are lost under every non-ghost policy.
  interest_table_.clear();
  interest_order_.clear();
  forwarded_.clear();
  announces_seen_.clear();
  invalidations_seen_.clear();
  prefetch_queue_.clear();
  prefetch_seen_.clear();
  prefetch_seen_fifo_.clear();
  replica_dedup_.reset();
  if (policy == fault::RestartPolicy::kCold) {
    // Cold also loses what warm restarts recover from local storage:
    // cached objects/labels, corroboration beliefs, and the ingest log.
    object_cache_.clear();
    label_cache_.clear();
    beliefs_.clear();
    ingested_.clear();
  }
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
  const RecoveryHello hello{id_, restart_epoch_, net_.now()};
  for (NodeId nb : net_.topology().neighbors(id_)) {
    send_msg(nb, config_.hello_bytes, hello, MsgKind::kControl, /*priority=*/1);
  }
}

void AthenaNode::handle_recovery_hello(const RecoveryHello& hello) {
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
  // Purge the marker and re-issue the first live, foreground downstream
  // interest upstream — the lease-stamped entries a crashed hop orphaned
  // recover in one hop-trip instead of a full downstream retry timeout.
  for (const std::uint64_t source_key : forwarded_.sorted_keys()) {
    if (forwarded_.find(source_key) == nullptr) continue;
    const SourceId s{source_key};
    const NodeId dest = directory_.host(s);
    const auto next = net_.next_hop(id_, dest);
    if (!next || *next != hello.node) continue;
    forwarded_.erase(source_key);
    ++metrics_.recovery_marker_purges;

    const auto* entries = interest_table_.find(source_key);
    if (entries == nullptr) continue;
    const Interest* live = nullptr;
    for (const Interest& e : *entries) {
      if (e.expires > now && !e.prefetch) {
        live = &e;
        break;
      }
    }
    if (live == nullptr) continue;
    ObjectRequest r;
    r.query = live->query;
    r.origin = live->origin;
    r.source = s;
    r.labels = live->labels;
    r.prefetch = false;
    r.accept_labels = live->accept_labels;
    r.deadline_abs = live->expires;
    r.priority = live->priority;
    forward_request(r);
    ++metrics_.recovery_reissues;
  }
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
  if (interest_table_.empty() && forwarded_.empty() &&
      announces_seen_.empty() && invalidations_seen_.empty()) {
    return;
  }
  gc_scheduled_ = true;
  net_.simulator().schedule_after(config_.state_gc_interval,
                                  [this] { run_gc(); });
}

void AthenaNode::run_gc() {
  gc_scheduled_ = false;
  const SimTime now = net_.now();
  interest_table_.erase_if(
      [now, this](std::uint64_t key, SmallVec<Interest, 2>& entries) {
        entries.remove_if([now](const Interest& e) { return e.expires <= now; });
        if (!entries.empty()) return false;
        interest_order_.erase(SourceId{key});
        return true;
      });
  forwarded_.erase_if([now](std::uint64_t, SimTime t) { return t <= now; });
  announces_seen_.erase_if(
      [now](std::uint64_t, SimTime t) { return t <= now; });
  invalidations_seen_.erase_if(
      [now](std::uint64_t, SimTime t) { return t <= now; });
  // Expensive interest-table sweep (DDE_INVARIANTS builds only): GC must
  // leave no empty per-source list and no expired entry behind.
  DDE_INVARIANT(
      ([&] {
        bool ok = true;
        interest_table_.for_each(
            [&](std::uint64_t, const SmallVec<Interest, 2>& entries) {
              if (entries.empty()) ok = false;
              for (const Interest& e : entries) {
                if (e.expires <= now) ok = false;
              }
            });
        return ok;
      }()),
      "run_gc: interest table retained an empty list or expired entry");
  schedule_gc();
}

// ---------------------------------------------------------------------------
// Local object service
// ---------------------------------------------------------------------------

std::optional<world::EvidenceObject> AthenaNode::local_object(SourceId source) {
  const SimTime now = net_.now();
  if (const auto* obj = object_cache_.peek(source, now)) return *obj;
  if (hosts(source)) {
    world::EvidenceObject obj = field_.sample(source, now);
    ++metrics_.sensor_samples;
    object_cache_.put(source, obj, obj.expires_at(), now);
    return obj;
  }
  return std::nullopt;
}

void AthenaNode::send_msg(NodeId next, std::uint64_t bytes, std::any payload,
                          MsgKind kind, int priority) {
  switch (kind) {
    case MsgKind::kRequest: metrics_.request_bytes += bytes; break;
    case MsgKind::kObject: metrics_.object_bytes += bytes; break;
    case MsgKind::kAnnounce: metrics_.announce_bytes += bytes; break;
    case MsgKind::kLabel: metrics_.label_bytes += bytes; break;
    case MsgKind::kControl: metrics_.control_bytes += bytes; break;
  }
  net::Packet pkt;
  pkt.src = id_;
  pkt.dst = next;
  pkt.bytes = bytes;
  pkt.priority = priority;
  pkt.payload = std::move(payload);
  net_.send(id_, next, std::move(pkt));
}

}  // namespace dde::athena
