// cid::tune profiles — the persistent record of what cid::obs measured at
// each directive site, and the sole input to every tuning decision.
//
// A profile is a map from a site key (the repo-relative "path:line" that
// core interns; the build maps the source root away, so profiles survive
// checkout moves) to one SiteProfile of
// aggregated observations: message-size statistics, whether every rank's
// buffers sat in the symmetric heap, measured pack-copy rates, and observed
// reliability round-trip quantiles. Profiles are harvested from the
// cid::obs::MetricsRegistry at the end of a CID_TUNE=record run and
// persisted as JSON via CID_TUNE_PROFILE, so later runs warm-start
// (see docs/TUNING.md for the schema and the decision tables).
//
// Determinism: harvesting reads the registry's key-ordered snapshots and
// serialization walks a std::map, so the same run produces byte-identical
// profile files; decisions are pure functions of (profile, machine model).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace cid::tune {

/// Aggregated observations for one directive site, across all ranks of the
/// recorded run(s).
struct SiteProfile {
  std::uint64_t messages = 0;  ///< logical messages sent from this site
  std::uint64_t bytes = 0;     ///< logical payload bytes sent
  double min_bytes = 0.0;      ///< smallest observed message payload
  double mean_bytes = 0.0;
  double max_bytes = 0.0;
  /// True when every executing rank found every listed rbuf in the
  /// symmetric heap (a requirement for the SHMEM lowering) and the run kept
  /// all ranks in one process.
  bool symmetric_ok = false;
  /// Measured host copy rates for non-contiguous layouts (wall nanoseconds
  /// per byte; 0 = never calibrated). `plan` drives the compiled pack-plan
  /// gather, `flat` a single whole-extent memcpy.
  double plan_ns_per_byte = 0.0;
  double flat_ns_per_byte = 0.0;
  /// Observed reliability ack round-trips (virtual seconds; 0 = no data).
  double rtt_p50 = 0.0;
  double rtt_p99 = 0.0;
  /// Observed wall-clock round-trip p99 (seconds; real-loss transports).
  double wall_rtt_p99 = 0.0;
  /// Smallest configured reliability timeout seen at this site (virtual
  /// seconds), the denominator for the derived CID_NET_TIMEOUT_SCALE.
  double min_timeout = 0.0;
  /// Collective directive observations (CID_TUNE=record probes in
  /// core/collective.cpp). `coll_*_bytes` are PER-BLOCK payload bytes — the
  /// unit the algorithm selector (tune/coll.hpp) decides on. Pattern counts
  /// record how often each directive pattern executed at this site.
  std::uint64_t coll_calls = 0;    ///< collective invocations observed
  double coll_mean_bytes = 0.0;    ///< mean per-block payload bytes
  double coll_max_bytes = 0.0;     ///< largest per-block payload bytes
  double coll_group = 0.0;         ///< mean executing-group size (ranks)
  std::uint64_t coll_o2m = 0;      ///< OneToMany (bcast-shaped) calls
  std::uint64_t coll_m2o = 0;      ///< ManyToOne (gather-shaped) calls
  std::uint64_t coll_a2a = 0;      ///< AllToAll calls

  bool operator==(const SiteProfile&) const = default;
};

struct Profile {
  std::map<std::string, SiteProfile, std::less<>> sites;  ///< site -> profile

  bool empty() const noexcept { return sites.empty(); }

  /// Lookup by the exact site key.
  const SiteProfile* find(std::string_view site) const;

  /// Deterministic JSON serialization (schema in docs/TUNING.md).
  std::string to_json() const;

  /// Parse a profile document previously produced by to_json().
  static Result<Profile> parse(std::string_view json_text);

  /// Merge the metric rows of a finished record run into this profile
  /// (replacing any previous data for sites the run touched).
  void harvest(const obs::MetricsRegistry& registry);
};

/// Quantile estimate from a log2-bucketed histogram: the upper bound of the
/// first bucket whose cumulative count reaches q * total. Coarse (a factor
/// of 2) but deterministic across hosts, which the decision layer needs.
double histogram_quantile(const obs::Histogram& histogram, double q);

}  // namespace cid::tune
