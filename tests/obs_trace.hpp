// Test helpers for reading directive events back from cid::obs, the one
// recorder: a scope that turns recording on, the directive spans of a run in
// the order the fingerprints were captured in, and their rendering as the
// bare trace-event array those fingerprints hash.
#pragma once

#include <algorithm>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/trace.hpp"
#include "obs/obs.hpp"

/// Enable obs recording for one scope, from a clean recorder; restore the
/// disabled default even on assertion failure.
struct ObsRecordingScope {
  ObsRecordingScope() {
    cid::obs::clear();
    cid::obs::set_enabled(true);
  }
  ~ObsRecordingScope() {
    cid::obs::set_enabled(false);
    cid::obs::clear();
  }
  ObsRecordingScope(const ObsRecordingScope&) = delete;
  ObsRecordingScope& operator=(const ObsRecordingScope&) = delete;
};

/// The TraceEventKind whose category is `cat`, or -1 for a span another
/// layer recorded ("coll", "wall").
inline int directive_kind_of(std::string_view cat) {
  using cid::core::TraceEventKind;
  constexpr int kLast = static_cast<int>(TraceEventKind::Timeout);
  for (int kind = 0; kind <= kLast; ++kind) {
    if (cid::core::trace_event_kind_name(
            static_cast<TraceEventKind>(kind)) == cat) {
      return kind;
    }
  }
  return -1;
}

/// The recorded directive events (the eight TraceEventKind categories),
/// ordered by (rank, begin, end, kind, site, bytes, messages).
inline std::vector<cid::obs::Span> directive_spans() {
  std::vector<cid::obs::Span> out;
  for (auto& span : cid::obs::spans()) {
    if (directive_kind_of(span.cat) >= 0) out.push_back(std::move(span));
  }
  std::sort(out.begin(), out.end(),
            [](const cid::obs::Span& a, const cid::obs::Span& b) {
              if (a.rank != b.rank) return a.rank < b.rank;
              if (a.begin != b.begin) return a.begin < b.begin;
              if (a.end != b.end) return a.end < b.end;
              const int ka = directive_kind_of(a.cat);
              const int kb = directive_kind_of(b.cat);
              if (ka != kb) return ka < kb;
              if (a.name != b.name) return a.name < b.name;
              if (a.bytes != b.bytes) return a.bytes < b.bytes;
              return a.messages < b.messages;
            });
  return out;
}

/// Number of `spans` in category `kind`.
inline int count_kind(const std::vector<cid::obs::Span>& spans,
                      cid::core::TraceEventKind kind) {
  return static_cast<int>(
      std::count_if(spans.begin(), spans.end(), [&](const auto& span) {
        return span.cat == cid::core::trace_event_kind_name(kind);
      }));
}

/// `spans` as a bare Chrome trace-event array, with default-precision
/// numbers: the format the HotPathGolden trace hash was captured over.
inline void write_directive_array(std::ostream& out,
                                  const std::vector<cid::obs::Span>& spans) {
  const auto quoted = [](const std::string& text) {
    std::string q = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') {
        q += '\\';
        q += c;
      } else if (c == '\n') {
        q += "\\n";
      } else {
        q += c;
      }
    }
    return q + '"';
  };
  out << "[\n";
  bool first = true;
  for (const auto& span : spans) {
    if (!first) out << ",\n";
    first = false;
    out << R"({"name":)" << quoted(span.cat + " " + span.name)
        << R"(,"cat":")" << span.cat << '"' << R"(,"ph":"X","pid":0,"tid":)"
        << span.rank << R"(,"ts":)" << span.begin * 1e6 << R"(,"dur":)"
        << (span.end - span.begin) * 1e6 << R"(,"args":{"bytes":)"
        << span.bytes << R"(,"messages":)" << span.messages << "}}";
  }
  out << "\n]\n";
}
