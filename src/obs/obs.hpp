// cid::obs — the unified observability layer.
//
// A process-global instrumentation substrate that every subsystem above
// simnet can feed without knowing who exports the data:
//
//   span(...)     a virtual-time phase on one rank's track (region, sync,
//                 overlap, retransmit, ...) — becomes one Chrome trace-event
//                 "X" slice in the Perfetto export;
//   count(...)    a per-(metric, site, rank) counter increment;
//   observe(...)  a per-(metric, site, rank) histogram sample.
//
// Everything is gated on enabled(): one relaxed atomic load when off, so
// instrumented hot paths cost nothing in normal runs. Recording never
// touches a virtual clock — enabling export cannot perturb virtual-time
// results (pinned by the golden fingerprints in tests/property_test.cpp).
//
// Layering: obs depends only on cid_common + cid_simnet, so cid_rt, cid_mpi,
// cid_shmem, cid_core and cid_faults may all call it directly. Obs is the
// only recorder: directive, sync, overlap, fault and retransmit events reach
// it through core::detail::record_trace_event (core/trace.cpp), and tests
// read them back with spans().
//
// Exporting:
//   write_chrome_json(out)   Perfetto-loadable trace-event JSON (one thread
//                            track per rank, metrics embedded as
//                            "cidMetrics") — see docs/OBSERVABILITY.md;
//   CID_TRACE_OUT=<path>     environment switch (see obs/autotrace.hpp):
//                            every rt::run records and writes <path> with
//                            zero code changes in the program.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace cid::obs {

/// Global gate. Off by default; autotrace (CID_TRACE_OUT) or tests turn it
/// on. Instrumentation sites must check this before building event payloads.
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// One virtual-time phase on one rank's track.
struct Span {
  int rank = 0;
  std::string cat;   ///< phase kind: "comm_p2p", "sync", "retransmit", ...
  std::string name;  ///< directive site or event label
  double begin = 0.0;  ///< virtual seconds
  double end = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;

  bool operator==(const Span&) const = default;
};

/// Record a span (no-op when disabled).
void span(Span s);

/// Counter / histogram probes (no-ops when disabled). `site` may be a
/// directive site ("file:line") or a subsystem label; rank -1 means the
/// value is not rank-attributed.
void count(std::string_view metric, std::string_view site, int rank,
           std::uint64_t delta = 1);
void observe(std::string_view metric, std::string_view site, int rank,
             double value);

/// All recorded spans, sorted by (rank, begin, end, cat, name, bytes,
/// messages) — a total order over every serialized field, so a deterministic
/// run exports byte-identical JSON regardless of thread interleaving.
std::vector<Span> spans();

/// Drop all recorded spans and metrics.
void clear();

/// Chrome trace-event JSON (object form): {"traceEvents": [...],
/// "cidMetrics": {...}}. One metadata-named thread track per rank; span
/// timestamps are virtual microseconds. Loadable by Perfetto / about:tracing.
void write_chrome_json(std::ostream& out);

}  // namespace cid::obs
