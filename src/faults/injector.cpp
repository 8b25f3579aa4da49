#include "faults/injector.hpp"

#include <cstring>
#include <string>

#include "core/trace.hpp"
#include "obs/obs.hpp"
#include "rt/envelope.hpp"

namespace cid::faults {

namespace {

/// splitmix64 finalizer step (same shape as FaultPlan's key mixer).
std::uint64_t mix(std::uint64_t h, std::uint64_t value) noexcept {
  h += 0x9e3779b97f4a7c15ULL * (value + 1);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Content hash identifying an internal-channel protocol message: context,
/// tag (transfer id) and the payload prefix (attempt number + message kind)
/// distinguish every data/ack/nack/fin instance of a transfer.
std::uint64_t internal_salt(const rt::Envelope& envelope) noexcept {
  std::uint64_t prefix = 0;
  const std::size_t take =
      envelope.payload.size() < 8 ? envelope.payload.size() : 8;
  if (take > 0) std::memcpy(&prefix, envelope.payload.data(), take);
  std::uint64_t h = mix(0x17e41a1ULL, 0);
  h = mix(h, static_cast<std::uint64_t>(envelope.context));
  h = mix(h, static_cast<std::uint64_t>(envelope.tag));
  h = mix(h, static_cast<std::uint64_t>(envelope.payload.size()));
  h = mix(h, prefix);
  // Tag internal salts so they cannot collide with small counter values.
  return h | (1ULL << 63);
}

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, int nranks)
    : plan_(plan), nranks_(nranks) {
  CID_REQUIRE(nranks > 0, ErrorCode::InvalidArgument,
              "FaultInjector requires nranks >= 1");
  // Atomics are neither copyable nor movable, so size the vector in place.
  edge_seq_ = std::vector<std::atomic<std::uint64_t>>(
      static_cast<std::size_t>(nranks) * static_cast<std::size_t>(nranks));
}

rt::DeliveryVerdict FaultInjector::on_deliver(const rt::Envelope& envelope,
                                              int dest_rank) {
  rt::DeliveryVerdict verdict;
  const int src = envelope.src;
  if (src < 0 || src >= nranks_ || dest_rank < 0 || dest_rank >= nranks_) {
    return verdict;
  }
  messages_.fetch_add(1, std::memory_order_relaxed);

  const bool internal = envelope.channel == rt::Channel::Internal;
  if (internal && !plan_.spec().fault_internal) return verdict;
  std::uint64_t salt;
  if (internal) {
    salt = internal_salt(envelope);
  } else {
    auto& seq = edge_seq_[static_cast<std::size_t>(src) *
                              static_cast<std::size_t>(nranks_) +
                          static_cast<std::size_t>(dest_rank)];
    salt = seq.fetch_add(1, std::memory_order_relaxed);
  }

  const FaultKind fate = plan_.decide(src, dest_rank, salt);
  const FaultSpec& spec = plan_.spec();
  switch (fate) {
    case FaultKind::None:
      return verdict;
    case FaultKind::Drop:
      verdict.drop = true;
      drops_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::Duplicate:
      verdict.duplicate = true;
      verdict.duplicate_delay = spec.duplicate_delay;
      duplicates_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::Delay:
      verdict.delay = spec.delay;
      delays_.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::Stall:
      verdict.sender_stall = spec.stall;
      stalls_.fetch_add(1, std::memory_order_relaxed);
      break;
  }

  if (obs::enabled()) {
    // Timestamps derive from the envelope alone (not the sender's clock,
    // which during a reliability flush depends on arrival interleaving),
    // keeping the trace byte-identical across runs.
    const std::string label = std::string(fault_kind_name(fate)) + " -> " +
                              std::to_string(dest_rank);
    core::detail::record_trace_event(core::TraceEvent{
        core::TraceEventKind::FaultInjected,
        src,
        envelope.available_at,
        envelope.available_at + verdict.delay + verdict.sender_stall +
            (verdict.duplicate ? verdict.duplicate_delay : 0.0),
        label,
        envelope.payload.size(),
        1,
    });
    // Per-kind occurrence counter keyed by the victim sender, alongside the
    // site-grained cid.faults.injected counter derived from the trace event.
    obs::count("faults.injected", fault_kind_name(fate), src);
  }
  return verdict;
}

FaultStats FaultInjector::stats() const {
  FaultStats out;
  out.messages = messages_.load(std::memory_order_relaxed);
  out.drops = drops_.load(std::memory_order_relaxed);
  out.duplicates = duplicates_.load(std::memory_order_relaxed);
  out.delays = delays_.load(std::memory_order_relaxed);
  out.stalls = stalls_.load(std::memory_order_relaxed);
  return out;
}

FaultRun run_with_faults(int nranks, const simnet::MachineModel& model,
                         const FaultPlan& plan, const rt::RankFn& fn) {
  auto injector = std::make_shared<FaultInjector>(plan, nranks);
  rt::RunOptions options;
  options.interceptor = injector;
  FaultRun out;
  out.result = rt::run(nranks, model, fn, options);
  out.stats = injector->stats();
  return out;
}

}  // namespace cid::faults
