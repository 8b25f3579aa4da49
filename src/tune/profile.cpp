#include "tune/profile.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

#include "obs/trace_read.hpp"

namespace cid::tune {

namespace {

/// Metric names the harvester consumes. The cid.p2p.* pair comes from the
/// core trace forwarder; the cid.tune.* and reliability RTT series are the
/// record-mode probes in core/region.cpp and core/reliability.cpp.
constexpr std::string_view kBytesSent = "cid.p2p.bytes_sent";
constexpr std::string_view kMessages = "cid.p2p.messages";
constexpr std::string_view kMsgBytes = "cid.tune.msg_bytes";
constexpr std::string_view kSymOk = "cid.tune.sym_ok";
constexpr std::string_view kSymFail = "cid.tune.sym_fail";
constexpr std::string_view kPlanRate = "cid.tune.plan_ns_per_byte";
constexpr std::string_view kFlatRate = "cid.tune.flat_ns_per_byte";
constexpr std::string_view kCollBlock = "cid.tune.coll_block_bytes";
constexpr std::string_view kCollGroup = "cid.tune.coll_group";
constexpr std::string_view kCollO2M = "cid.tune.coll_o2m";
constexpr std::string_view kCollM2O = "cid.tune.coll_m2o";
constexpr std::string_view kCollA2A = "cid.tune.coll_a2a";
constexpr std::string_view kRtt = "cid.reliability.rtt_seconds";
constexpr std::string_view kWallRtt = "cid.reliability.wall_rtt_seconds";
constexpr std::string_view kTimeout = "cid.reliability.timeout_seconds";

/// Cross-rank accumulation of one histogram series.
struct HistAccum {
  std::array<std::uint64_t, obs::Histogram::kBucketCount> buckets{};
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void merge(const obs::Histogram& h) {
    if (h.count() == 0) return;
    for (int i = 0; i < obs::Histogram::kBucketCount; ++i) {
      buckets[static_cast<std::size_t>(i)] +=
          h.buckets()[static_cast<std::size_t>(i)];
    }
    min = count == 0 ? h.min() : std::min(min, h.min());
    max = count == 0 ? h.max() : std::max(max, h.max());
    count += h.count();
    sum += h.sum();
  }

  double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  double quantile(double q) const noexcept {
    if (count == 0) return 0.0;
    const double want = q * static_cast<double>(count);
    std::uint64_t cumulative = 0;
    for (int i = 0; i < obs::Histogram::kBucketCount; ++i) {
      cumulative += buckets[static_cast<std::size_t>(i)];
      if (static_cast<double>(cumulative) >= want) {
        return obs::Histogram::bucket_upper_bound(i);
      }
    }
    return obs::Histogram::bucket_upper_bound(obs::Histogram::kBucketCount -
                                              1);
  }
};

void write_number(std::string& out, double value) {
  char buffer[64];
  // %.17g round-trips doubles exactly; trim to the shortest representation
  // the parser reproduces so files stay human-readable.
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

double number_or(const obs::Json& site, std::string_view key,
                 double fallback) {
  const obs::Json* value = site.find(key);
  return value != nullptr && value->kind == obs::Json::Kind::Number
             ? value->number
             : fallback;
}

}  // namespace

double histogram_quantile(const obs::Histogram& histogram, double q) {
  HistAccum accum;
  accum.merge(histogram);
  return accum.quantile(q);
}

const SiteProfile* Profile::find(std::string_view site) const {
  auto it = sites.find(site);
  return it == sites.end() ? nullptr : &it->second;
}

std::string Profile::to_json() const {
  std::string out = "{\n  \"tune_profile\": 1,\n  \"sites\": {";
  bool first = true;
  for (const auto& [site, p] : sites) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + site + "\": {";
    out += "\"messages\": " + std::to_string(p.messages);
    out += ", \"bytes\": " + std::to_string(p.bytes);
    out += ", \"min_bytes\": ";
    write_number(out, p.min_bytes);
    out += ", \"mean_bytes\": ";
    write_number(out, p.mean_bytes);
    out += ", \"max_bytes\": ";
    write_number(out, p.max_bytes);
    out += std::string(", \"symmetric_ok\": ") +
           (p.symmetric_ok ? "true" : "false");
    out += ", \"plan_ns_per_byte\": ";
    write_number(out, p.plan_ns_per_byte);
    out += ", \"flat_ns_per_byte\": ";
    write_number(out, p.flat_ns_per_byte);
    out += ", \"rtt_p50\": ";
    write_number(out, p.rtt_p50);
    out += ", \"rtt_p99\": ";
    write_number(out, p.rtt_p99);
    out += ", \"wall_rtt_p99\": ";
    write_number(out, p.wall_rtt_p99);
    out += ", \"min_timeout\": ";
    write_number(out, p.min_timeout);
    out += ", \"coll_calls\": " + std::to_string(p.coll_calls);
    out += ", \"coll_mean_bytes\": ";
    write_number(out, p.coll_mean_bytes);
    out += ", \"coll_max_bytes\": ";
    write_number(out, p.coll_max_bytes);
    out += ", \"coll_group\": ";
    write_number(out, p.coll_group);
    out += ", \"coll_o2m\": " + std::to_string(p.coll_o2m);
    out += ", \"coll_m2o\": " + std::to_string(p.coll_m2o);
    out += ", \"coll_a2a\": " + std::to_string(p.coll_a2a);
    out += "}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

Result<Profile> Profile::parse(std::string_view json_text) {
  auto parsed = obs::parse_json(json_text);
  if (!parsed.is_ok()) return parsed.status();
  const obs::Json& root = parsed.value();
  if (root.kind != obs::Json::Kind::Object ||
      root.find("tune_profile") == nullptr) {
    return Status(ErrorCode::InvalidArgument,
                  "not a tune profile (missing \"tune_profile\" marker)");
  }
  Profile profile;
  const obs::Json* sites = root.find("sites");
  if (sites == nullptr) return profile;
  if (sites->kind != obs::Json::Kind::Object) {
    return Status(ErrorCode::InvalidArgument,
                  "tune profile \"sites\" must be an object");
  }
  for (const auto& [site, value] : sites->object) {
    if (value.kind != obs::Json::Kind::Object) {
      return Status(ErrorCode::InvalidArgument,
                    "tune profile site '" + site + "' must be an object");
    }
    SiteProfile p;
    p.messages = static_cast<std::uint64_t>(number_or(value, "messages", 0));
    p.bytes = static_cast<std::uint64_t>(number_or(value, "bytes", 0));
    p.min_bytes = number_or(value, "min_bytes", 0);
    p.mean_bytes = number_or(value, "mean_bytes", 0);
    p.max_bytes = number_or(value, "max_bytes", 0);
    const obs::Json* sym = value.find("symmetric_ok");
    p.symmetric_ok = sym != nullptr && sym->kind == obs::Json::Kind::Bool &&
                     sym->boolean;
    p.plan_ns_per_byte = number_or(value, "plan_ns_per_byte", 0);
    p.flat_ns_per_byte = number_or(value, "flat_ns_per_byte", 0);
    p.rtt_p50 = number_or(value, "rtt_p50", 0);
    p.rtt_p99 = number_or(value, "rtt_p99", 0);
    p.wall_rtt_p99 = number_or(value, "wall_rtt_p99", 0);
    p.min_timeout = number_or(value, "min_timeout", 0);
    p.coll_calls =
        static_cast<std::uint64_t>(number_or(value, "coll_calls", 0));
    p.coll_mean_bytes = number_or(value, "coll_mean_bytes", 0);
    p.coll_max_bytes = number_or(value, "coll_max_bytes", 0);
    p.coll_group = number_or(value, "coll_group", 0);
    p.coll_o2m = static_cast<std::uint64_t>(number_or(value, "coll_o2m", 0));
    p.coll_m2o = static_cast<std::uint64_t>(number_or(value, "coll_m2o", 0));
    p.coll_a2a = static_cast<std::uint64_t>(number_or(value, "coll_a2a", 0));
    profile.sites[site] = p;
  }
  return profile;
}

void Profile::harvest(const obs::MetricsRegistry& registry) {
  struct SiteAccum {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
    std::uint64_t sym_ok = 0;
    std::uint64_t sym_fail = 0;
    std::uint64_t coll_o2m = 0;
    std::uint64_t coll_m2o = 0;
    std::uint64_t coll_a2a = 0;
    HistAccum coll_block;
    HistAccum coll_group;
    HistAccum msg_bytes;
    HistAccum plan_rate;
    HistAccum flat_rate;
    HistAccum rtt;
    HistAccum wall_rtt;
    HistAccum timeout;
  };
  std::map<std::string, SiteAccum> accums;

  for (const auto& row : registry.counters()) {
    const std::string& site = row.key.site;
    if (row.key.metric == kMessages) {
      accums[site].messages += row.value;
    } else if (row.key.metric == kBytesSent) {
      accums[site].bytes += row.value;
    } else if (row.key.metric == kSymOk) {
      accums[site].sym_ok += row.value;
    } else if (row.key.metric == kSymFail) {
      accums[site].sym_fail += row.value;
    } else if (row.key.metric == kCollO2M) {
      accums[site].coll_o2m += row.value;
    } else if (row.key.metric == kCollM2O) {
      accums[site].coll_m2o += row.value;
    } else if (row.key.metric == kCollA2A) {
      accums[site].coll_a2a += row.value;
    }
  }
  for (const auto& row : registry.histograms()) {
    const std::string& site = row.key.site;
    if (row.key.metric == kMsgBytes) {
      accums[site].msg_bytes.merge(row.histogram);
    } else if (row.key.metric == kCollBlock) {
      accums[site].coll_block.merge(row.histogram);
    } else if (row.key.metric == kCollGroup) {
      accums[site].coll_group.merge(row.histogram);
    } else if (row.key.metric == kPlanRate) {
      accums[site].plan_rate.merge(row.histogram);
    } else if (row.key.metric == kFlatRate) {
      accums[site].flat_rate.merge(row.histogram);
    } else if (row.key.metric == kRtt) {
      accums[site].rtt.merge(row.histogram);
    } else if (row.key.metric == kWallRtt) {
      accums[site].wall_rtt.merge(row.histogram);
    } else if (row.key.metric == kTimeout) {
      accums[site].timeout.merge(row.histogram);
    }
  }

  for (const auto& [site, a] : accums) {
    // Only directive sites with observed traffic get profile rows; registry
    // rows from subsystem labels ("world", "rt") carry no site to tune.
    if (a.messages == 0 && a.msg_bytes.count == 0 && a.rtt.count == 0 &&
        a.coll_block.count == 0) {
      continue;
    }
    SiteProfile p;
    p.messages = a.messages;
    p.bytes = a.bytes;
    p.min_bytes = a.msg_bytes.min;
    p.mean_bytes = a.msg_bytes.mean();
    p.max_bytes = a.msg_bytes.max;
    if (p.mean_bytes == 0.0 && a.messages > 0) {
      p.mean_bytes =
          static_cast<double>(a.bytes) / static_cast<double>(a.messages);
    }
    p.symmetric_ok = a.sym_ok > 0 && a.sym_fail == 0;
    p.plan_ns_per_byte = a.plan_rate.mean();
    p.flat_ns_per_byte = a.flat_rate.mean();
    p.rtt_p50 = a.rtt.quantile(0.50);
    p.rtt_p99 = a.rtt.quantile(0.99);
    p.wall_rtt_p99 = a.wall_rtt.quantile(0.99);
    p.min_timeout = a.timeout.count == 0 ? 0.0 : a.timeout.min;
    p.coll_calls = a.coll_block.count;
    p.coll_mean_bytes = a.coll_block.mean();
    p.coll_max_bytes = a.coll_block.max;
    p.coll_group = a.coll_group.mean();
    p.coll_o2m = a.coll_o2m;
    p.coll_m2o = a.coll_m2o;
    p.coll_a2a = a.coll_a2a;
    sites[site] = p;
  }
}

}  // namespace cid::tune
