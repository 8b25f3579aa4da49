// Directive events — a virtual-time timeline of what every rank's directives
// did (posts, transfers, synchronization waits, collectives, faults and
// retransmissions), recorded into cid::obs.
//
// Each event becomes one obs span plus its derived per-site cid.* counters
// and histograms. There is no second store: CID_TRACE_OUT, `cidt trace`,
// tune and tests read the events back through obs (obs::spans(),
// obs::write_chrome_json). Because timing is virtual and deterministic, two
// runs of the same program record identical events.
//
// Recording is off unless obs is enabled. Executors gate event construction
// on obs::enabled(), one relaxed atomic load.
#pragma once

#include <cstdint>
#include <string_view>

#include "simnet/machine_model.hpp"

namespace cid::core {

enum class TraceEventKind : std::uint8_t {
  P2PDirective,        ///< one comm_p2p execution (span)
  RegionDirective,     ///< one comm_parameters region (span)
  CollectiveDirective, ///< one comm_collective execution (span)
  Synchronization,     ///< a flush: waitall / shmem waits / fences (span)
  Overlap,             ///< the user's overlapped computation block (span)
  FaultInjected,       ///< the fault layer dropped/delayed/duplicated/stalled
  Retransmit,          ///< reliability layer re-sent a transfer attempt
  Timeout,             ///< a virtual-time retransmission/receive timer fired
};

/// The obs span category of `kind` ("comm_p2p", "sync", "fault", ...).
std::string_view trace_event_kind_name(TraceEventKind kind) noexcept;

struct TraceEvent {
  TraceEventKind kind;
  int rank;
  simnet::SimTime begin;  ///< virtual seconds
  simnet::SimTime end;
  std::string_view site;  ///< directive site (file:line) or event label
  std::uint64_t bytes;    ///< payload injected during the span (senders)
  std::uint64_t messages; ///< messages injected during the span
};

namespace detail {
/// Record `event` into cid::obs: its span and the per-kind cid.* counters
/// and histograms derived from it. A no-op while obs is disabled.
void record_trace_event(const TraceEvent& event);
}  // namespace detail

}  // namespace cid::core
