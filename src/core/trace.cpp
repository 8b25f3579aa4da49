#include "core/trace.hpp"

#include <string>

#include "obs/obs.hpp"

namespace cid::core {

std::string_view trace_event_kind_name(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::P2PDirective: return "comm_p2p";
    case TraceEventKind::RegionDirective: return "comm_parameters";
    case TraceEventKind::CollectiveDirective: return "comm_collective";
    case TraceEventKind::Synchronization: return "sync";
    case TraceEventKind::Overlap: return "overlap";
    case TraceEventKind::FaultInjected: return "fault";
    case TraceEventKind::Retransmit: return "retransmit";
    case TraceEventKind::Timeout: return "timeout";
  }
  return "event";
}

namespace detail {
/// Besides the span, derive the per-(metric, site, rank) counters and
/// virtual-time latency histograms obs publishes for every directive event.
/// Latencies are the virtual span duration in seconds; the faults/reliability
/// kinds are point events, so only their occurrence counters matter.
void record_trace_event(const TraceEvent& event) {
  if (!obs::enabled()) return;
  const std::string_view cat = trace_event_kind_name(event.kind);
  obs::span({event.rank, std::string(cat), std::string(event.site),
             event.begin, event.end, event.bytes, event.messages});
  const double duration = event.end - event.begin;
  switch (event.kind) {
    case TraceEventKind::P2PDirective:
      obs::count("cid.p2p.bytes_sent", event.site, event.rank, event.bytes);
      obs::count("cid.p2p.messages", event.site, event.rank, event.messages);
      obs::observe("cid.p2p.virtual_seconds", event.site, event.rank,
                   duration);
      break;
    case TraceEventKind::RegionDirective:
      obs::count("cid.region.executions", event.site, event.rank);
      obs::count("cid.region.bytes_sent", event.site, event.rank, event.bytes);
      obs::observe("cid.region.virtual_seconds", event.site, event.rank,
                   duration);
      break;
    case TraceEventKind::CollectiveDirective:
      obs::count("cid.collective.executions", event.site, event.rank);
      obs::count("cid.collective.bytes_sent", event.site, event.rank,
                 event.bytes);
      obs::observe("cid.collective.virtual_seconds", event.site, event.rank,
                   duration);
      break;
    case TraceEventKind::Synchronization:
      obs::count("cid.sync.flushes", event.site, event.rank);
      obs::observe("cid.sync.virtual_seconds", event.site, event.rank,
                   duration);
      break;
    case TraceEventKind::Overlap:
      obs::observe("cid.overlap.virtual_seconds", event.site, event.rank,
                   duration);
      break;
    case TraceEventKind::FaultInjected:
      obs::count("cid.faults.injected", event.site, event.rank);
      break;
    case TraceEventKind::Retransmit:
      obs::count("cid.reliability.retransmits", event.site, event.rank);
      obs::count("cid.reliability.retransmit_bytes", event.site, event.rank,
                 event.bytes);
      break;
    case TraceEventKind::Timeout:
      obs::count("cid.reliability.timeouts", event.site, event.rank);
      break;
  }
}
}  // namespace detail

}  // namespace cid::core
