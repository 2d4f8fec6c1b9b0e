// Structured trace sink: one stream for every observability event in a run.
//
// Protocol and network layers emit flat, schema-stable events describing the
// query lifecycle (issue → plan → interest → fetch/retry/failover →
// decide/expire/shed) and per-hop packet movement (send/deliver). The sink
// fans each event out to up to three consumers:
//
//   1. an in-memory ring buffer (bounded; for tests and tools),
//   2. a JSONL writer (one event per line, stable field order),
//   3. the derived-telemetry engine, which computes per-decision
//      distributions — age-upon-decision, slack-at-decision,
//      bytes-per-decision — in the sink, not in the protocol.
//
// Emission is opt-in per node/network (a null sink pointer costs one branch)
// and the sink never schedules events or touches RNG streams, so attaching
// one is observation only: the simulated trajectory is bit-for-bit the same
// with and without it.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/sim_time.h"
#include "common/thread_annotations.h"
#include "obs/histogram.h"

namespace dde::obs {

/// Every event kind the layer knows. Stable names (see to_string) form the
/// JSONL schema; append new kinds at the end, never reorder.
enum class EventKind : std::uint8_t {
  kQueryIssue,   ///< origin issued a query; subject = #labels mentioned,
                 ///< value = absolute deadline (s)
  kQueryReject,  ///< admission control rejected the query at issue
  kPlan,         ///< origin computed a retrieval order; subject = its length
  kInterest,     ///< a node bookmarked a forwarded interest; subject = source
  kFetch,        ///< origin issued an object request; subject = source,
                 ///< bytes = request size, value = attempt count
  kRetry,        ///< request watchdog fired, request re-eligible; subject = source
  kFailover,     ///< selection re-ran after retry exhaustion; subject = #labels moved
  kObjectRx,     ///< an object settled this query's outstanding request;
                 ///< subject = source, bytes = object size
  kLabelSettle,  ///< a label value entered the assignment; value = evaluated_at (s)
  kDecide,       ///< query resolved; subject = chosen action, value = latency (s)
  kExpire,       ///< deadline passed unresolved
  kShed,         ///< overload protection dropped the query deliberately
  kHopSend,      ///< packet enqueued on a link; subject = receiving node
  kHopDeliver,   ///< packet handed to the receiving node; subject = receiver
  kNodeCrash,    ///< node lost volatile state (cold/warm restart policy);
                 ///< subject = in-flight local queries dropped
  kNodeRestart,  ///< node came back and re-announced; subject = restart epoch
  kCrashDrop,    ///< in-flight local query dropped to failed_crash
  kRecoveryHello,///< neighbor processed a restart hello; subject = restarted
                 ///< node, value = restart→processing lag (s)
};

[[nodiscard]] const char* to_string(EventKind kind) noexcept;

/// One flat trace event. Field meaning is kind-specific (see EventKind);
/// unused fields stay zero. Flat on purpose: every event serializes to the
/// same JSONL columns, so consumers never need per-kind parsers.
struct Event {
  EventKind kind = EventKind::kQueryIssue;
  SimTime at;                 ///< simulated time of the event
  std::uint64_t node = 0;     ///< emitting node id
  std::uint64_t query = 0;    ///< query id (0 = not query-scoped)
  std::uint64_t subject = 0;  ///< kind-specific id (source, label, peer...)
  std::uint64_t bytes = 0;    ///< kind-specific byte volume
  double value = 0.0;         ///< kind-specific scalar (seconds, mostly)
};

/// Per-decision distributions derived from the event stream.
struct DecisionTelemetry {
  /// decide_time − oldest evaluated_at among the labels the origin settled
  /// for this query: how stale the weakest evidence backing the decision
  /// was at the moment it was made.
  Histogram age_upon_decision_s{time_buckets_s()};
  /// absolute deadline − decide_time: how close to the wire the decision
  /// landed.
  Histogram slack_at_decision_s{time_buckets_s()};
  /// Request + delivered-object bytes attributed to the query at its
  /// origin, counted once (not per hop).
  Histogram bytes_per_decision{byte_buckets()};

  void merge(const DecisionTelemetry& other) {
    age_upon_decision_s.merge(other.age_upon_decision_s);
    slack_at_decision_s.merge(other.slack_at_decision_s);
    bytes_per_decision.merge(other.bytes_per_decision);
  }
};

/// Single-owner by design: each sink is attached to one simulator run
/// (one shard under the PDES plan) and is confined, never locked. Mutable
/// state is DDE_GUARDED_BY(owner_); public accessors claim the capability
/// with owner_.assert_held() at zero cost, so -Wthread-safety tracks every
/// access that must acquire a real shard capability once cross-shard
/// merging lands. See common/mutex.h for the SingleOwner story.
class TraceSink {
 public:
  struct Options {
    /// Keep the most recent this-many events in memory (0 = no ring).
    std::size_t ring_capacity = 0;
    /// Write every event as a JSONL line here (nullptr = off). The stream
    /// must outlive the sink.
    std::ostream* jsonl = nullptr;
    /// Compute per-decision derived telemetry.
    bool derive = true;
  };

  TraceSink() : TraceSink(Options{}) {}
  explicit TraceSink(Options opts) : opts_(opts) {}

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Ingest one event (hot path; cheap unless JSONL is on).
  void emit(const Event& ev);

  /// Total events emitted into this sink.
  [[nodiscard]] std::uint64_t emitted() const noexcept {
    owner_.assert_held();
    return emitted_;
  }

  /// Events per kind (index by static_cast<size_t>(kind)).
  [[nodiscard]] const std::vector<std::uint64_t>& kind_counts() const noexcept {
    owner_.assert_held();
    return kind_counts_;
  }

  /// Snapshot of the ring, oldest first. Empty when ring_capacity == 0.
  [[nodiscard]] std::vector<Event> ring_snapshot() const {
    owner_.assert_held();
    return {ring_.begin(), ring_.end()};
  }

  [[nodiscard]] const DecisionTelemetry& decision_telemetry() const noexcept {
    owner_.assert_held();
    return telemetry_;
  }

  /// Serialize one event as a single JSONL line (no trailing newline).
  /// Field order and formatting are stable — this IS the wire schema:
  /// {"t":<s>,"kind":"<name>","node":N,"query":N,"subject":N,"bytes":N,"value":<num>}
  [[nodiscard]] static std::string to_jsonl(const Event& ev);

 private:
  void derive(const Event& ev) DDE_REQUIRES(owner_);

  /// Origin-side bookkeeping for one in-flight query.
  struct Track {
    double deadline_s = 0.0;
    std::uint64_t bytes = 0;
    /// label → latest evaluated_at (s); small, queries mention few labels.
    std::vector<std::pair<std::uint64_t, double>> evidence;
  };

  common::SingleOwner owner_;
  Options opts_;
  std::uint64_t emitted_ DDE_GUARDED_BY(owner_) = 0;
  std::vector<std::uint64_t> kind_counts_ DDE_GUARDED_BY(owner_) =
      std::vector<std::uint64_t>(24, 0);
  std::deque<Event> ring_ DDE_GUARDED_BY(owner_);
  DecisionTelemetry telemetry_ DDE_GUARDED_BY(owner_);
  std::unordered_map<std::uint64_t, Track> tracks_ DDE_GUARDED_BY(owner_);
};

}  // namespace dde::obs
