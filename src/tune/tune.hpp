// cid::tune — the adaptive layer that closes the loop from measurements
// back into lowering decisions (ROADMAP "Adaptive runtime").
//
//   translate -> analyze -> run -> observe -> TUNE -> (feeds the next run)
//
// Modes, selected by the CID_TUNE environment variable at every rt::run:
//
//   off     (default, or unset) — zero behavior change. No probe fires, no
//           decision is consulted; the dispatch paths are byte-identical to
//           the untuned runtime (pinned by golden fingerprints).
//   record  — enables cid::obs recording for the run, arms the extra tune
//           probes (message sizes, symmetry checks, pack-rate calibration,
//           reliability RTTs), and at the end of the run harvests the
//           metrics registry into the in-memory profile; if CID_TUNE_PROFILE
//           names a file the profile is (re)written there.
//   on      — loads CID_TUNE_PROFILE (if set; otherwise keeps the profile a
//           same-process record run left in memory) and lets the decision
//           functions below steer dispatch: target(auto) resolution,
//           small-message aggregation, pack-plan vs flat-copy, reliability
//           timeout derivation. Every decision is a pure function of
//           (profile, machine model, static facts), so tuned runs stay
//           deterministic and SPMD-consistent across ranks.
//
// Layering: tune sits directly above obs (cid_common + cid_simnet +
// cid_obs); cid_rt, cid_net and cid_core link it. See docs/TUNING.md for
// the decision tables and docs/ARCHITECTURE.md for the layer DAG.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "simnet/machine_model.hpp"
#include "tune/coll.hpp"
#include "tune/profile.hpp"

namespace cid::tune {

enum class Mode { Off, Record, On };

/// The lowering the target(auto) policy can pick. Mirrors core::Target but
/// lives here so tune stays below core in the layer DAG; core maps it back.
enum class Lowering { Mpi2Side, Mpi1Side, Shmem };

std::string_view lowering_name(Lowering lowering) noexcept;

/// Static facts about a directive site that the profile cannot know — they
/// come from the current run, but are identical on every rank.
struct SiteFacts {
  bool reliability = false;    ///< reliability clause present
  bool single_process = false; ///< all ranks share this OS process
};

/// One explained decision (what `cidt tune explain` prints).
struct Choice {
  Lowering lowering = Lowering::Mpi2Side;
  std::string reason;
};

// ---------------------------------------------------------------------------
// Decision functions: pure, deterministic, SPMD-consistent.
// ---------------------------------------------------------------------------

/// Resolve target(auto) for a site from its observed size profile and the
/// machine model's per-message cost tables. `profile` may be null (site
/// never recorded): falls back to MPI two-sided, the static default.
Choice auto_target(const SiteProfile* profile,
                   const simnet::MachineModel& model, const SiteFacts& facts);

/// Sub-threshold sends within a region are batched into one wire envelope
/// per destination. The threshold tracks the eager threshold: messages at
/// or below a quarter of it are dominated by per-envelope overheads.
std::size_t aggregation_threshold(const simnet::MachineModel& model) noexcept;

/// True when a message of `payload_bytes` from a site with this profile
/// should join the per-destination aggregation buffer.
bool should_aggregate(const SiteProfile* profile, std::size_t payload_bytes,
                      const simnet::MachineModel& model) noexcept;

/// Pack-plan vs flat-copy for a non-contiguous layout: send the whole
/// extent as flat bytes when the measured copy-rate crossover says the
/// single memcpy beats the per-run gather and the layout is dense enough
/// that the extra wire bytes stay bounded (extent <= 2x payload).
bool use_flat_copy(const SiteProfile* profile, std::size_t payload_per_elem,
                   std::size_t extent_per_elem) noexcept;

/// Derived reliability timeout: never longer than the clause value, pulled
/// down to 4x the observed ack RTT p99 when the profile has data. Identical
/// on sender and receiver (both evaluate the same profile + clause).
double tuned_timeout(const SiteProfile* profile,
                     double clause_timeout) noexcept;

// ---------------------------------------------------------------------------
// The process-global tuner.
// ---------------------------------------------------------------------------

class Tuner {
 public:
  static Tuner& global();

  /// Called at the start of every rt::run: re-reads CID_TUNE /
  /// CID_TUNE_PROFILE, loads the profile file in `on` mode, and in `record`
  /// mode clears the metrics registry and enables obs recording.
  void prepare();

  /// Called at the end of every rt::run: in `record` mode harvests the
  /// registry into the profile and persists it to CID_TUNE_PROFILE.
  void finish();

  Mode mode() const noexcept { return mode_; }
  bool recording() const noexcept { return mode_ == Mode::Record; }
  bool active() const noexcept { return mode_ == Mode::On; }

  const Profile& profile() const noexcept { return profile_; }
  void set_profile(Profile profile) { profile_ = std::move(profile); }

  /// Profile row for a site key; null when unknown.
  const SiteProfile* site(std::string_view site_key) const {
    return profile_.find(site_key);
  }

  /// max over sites of 4 * wall_rtt_p99 / min_timeout — the wall-clock
  /// multiplier that makes every site's real-loss deadline cover its
  /// observed wall RTT. Empty when no site recorded wall RTTs.
  std::optional<double> derived_timeout_scale() const;

  /// CID_COLL operator override for one collective, parsed once per rt::run
  /// by prepare() (the engine hot path reads this without env access or
  /// locking). Empty when the collective has no override. Works in every
  /// CID_TUNE mode — it is an operator knob, not a profile decision.
  std::optional<CollAlgo> coll_override(CollOp op) const noexcept {
    return coll_overrides_[static_cast<std::size_t>(op)];
  }

 private:
  Mode mode_ = Mode::Off;
  Profile profile_;
  CollOverrides coll_overrides_{};
  bool obs_was_enabled_ = false;  ///< restore after a record run
};

/// Cheap global gates for probe sites (one indirection, no env access).
inline bool recording() noexcept { return Tuner::global().recording(); }
inline bool active() noexcept { return Tuner::global().active(); }

}  // namespace cid::tune
