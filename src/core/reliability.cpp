#include "core/reliability.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <tuple>

#include "core/exec_state.hpp"
#include "core/trace.hpp"
#include "net/backend.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"
#include "rt/envelope.hpp"
#include "rt/mailbox.hpp"
#include "tune/tune.hpp"

namespace cid::core {

std::string DeliveryReport::to_string() const {
  if (lost.empty()) return "all reliable transfers delivered";
  std::ostringstream out;
  out << lost.size() << " undelivered pair(s):";
  for (const auto& pair : lost) {
    out << "\n  " << pair.site << " pair " << pair.pair_index
        << (pair.sender_side ? " -> rank " : " <- rank ") << pair.peer
        << " (transfer " << pair.transfer_id << ", " << pair.attempts
        << " attempts)";
  }
  return out.str();
}

const DeliveryReport& delivery_report() {
  return detail::ExecState::mine().delivery_report;
}

void reset_delivery_report() {
  detail::ExecState::mine().delivery_report.lost.clear();
}

namespace detail {
namespace {

constexpr std::uint8_t kCtlAck = 1;
constexpr std::uint8_t kCtlNack = 2;
constexpr std::size_t kAttemptHeaderBytes = sizeof(std::uint32_t);

std::uint32_t read_attempt(cid::ByteSpan payload) {
  std::uint32_t attempt = 0;
  std::memcpy(&attempt, payload.data(), sizeof(attempt));
  return attempt;
}

cid::ByteBuffer make_ctl_payload(std::uint32_t attempt, std::uint8_t kind) {
  cid::ByteBuffer payload(kAttemptHeaderBytes + 1);
  std::memcpy(payload.data(), &attempt, sizeof(attempt));
  payload[kAttemptHeaderBytes] = static_cast<std::byte>(kind);
  return payload;
}

cid::ByteBuffer make_data_payload(std::uint32_t attempt, cid::ByteSpan wire) {
  cid::ByteBuffer payload(kAttemptHeaderBytes + wire.size());
  std::memcpy(payload.data(), &attempt, sizeof(attempt));
  std::copy(wire.begin(), wire.end(), payload.begin() + kAttemptHeaderBytes);
  return payload;
}

/// Sender-side progress for one transfer. `t` is the transfer's own virtual
/// timeline: timers and retransmissions advance it, never the rank clock,
/// so the epoch's timing is independent of host dispatch order.
struct SendProgress {
  ReliableSend* op = nullptr;
  int attempt = 0;                        ///< attempt currently in flight
  simnet::SimTime attempt_sent_at = 0.0;  ///< its injection-complete time
  simnet::SimTime t = 0.0;
  double wall_sent_at = 0.0;  ///< wall clock of the attempt (real-loss path)
  bool done = false;  ///< acked or abandoned (FIN sent either way)
};

/// Receiver-side progress for one transfer. `next_attempt` counts DATA
/// arrivals (clean or tombstone): per-source FIFO delivery plus the
/// stop-and-wait sender make the k-th arrival attempt k, which is how a
/// payload-less tombstone is attributed to an attempt number.
struct RecvProgress {
  ReliableRecv* op = nullptr;
  int next_attempt = 0;
  bool delivered = false;
  bool gave_up = false;
  bool finished = false;  ///< FIN seen
  simnet::SimTime t = 0.0;
};

}  // namespace

void run_reliable_epoch(ExecState& state, PendingOps& ops) {
  auto& ctx = rt::current_ctx();
  const auto& costs = ctx.model().mpi_two_sided;
  const int self = ctx.rank();
  const bool trace = obs::enabled();

  std::vector<SendProgress> sends;
  sends.reserve(ops.reliable_sends.size());
  for (auto& op : ops.reliable_sends) {
    SendProgress sp;
    sp.op = &op;
    sp.attempt_sent_at = op.sent_at;
    sp.t = op.local_complete_at;
    sends.push_back(sp);
  }
  std::vector<RecvProgress> recvs;
  recvs.reserve(ops.reliable_recvs.size());
  for (auto& op : ops.reliable_recvs) {
    RecvProgress rp;
    rp.op = &op;
    rp.t = op.posted_at;
    recvs.push_back(rp);
  }

  // The consolidated completion call, charged exactly as the plain lowering's
  // waitall would be: the success path of the protocol costs the same as the
  // unprotected one (acks, nacks and fins ride the NIC for free).
  const auto retiring = static_cast<simnet::SimTime>(sends.size() +
                                                     recvs.size());
  ++state.stats.waitalls;
  state.stats.requests_retired +=
      static_cast<std::uint64_t>(sends.size() + recvs.size());
  ctx.charge_compute(costs.waitall_base + costs.waitall_per_request * retiring);

  // NIC-offloaded protocol message: no CPU charge, one latency to the peer.
  const auto emit = [&](int dest, int tag, int context,
                        cid::ByteBuffer payload, simnet::SimTime when) {
    rt::Envelope envelope;
    envelope.src = self;
    envelope.tag = tag;
    envelope.channel = rt::Channel::Internal;
    envelope.context = context;
    envelope.payload = rt::Payload(std::move(payload));
    envelope.available_at = when + costs.latency;
    ctx.world().deliver(dest, std::move(envelope));
  };

  // One key set covering both roles: a ctl message for an open send, or a
  // data/fin message for an open receive. Waiting on the union is what lets
  // a rank answer its peers' transfers while blocked on its own. Every key
  // is exact (src and tag pinned) and tombstone-transparent, so the epoch
  // loop sees losses as well as payloads; rebuilt per iteration as transfers
  // close.
  const auto relevant_keys = [&] {
    std::vector<rt::MatchKey> keys;
    keys.reserve(sends.size() + 2 * recvs.size());
    for (const SendProgress& sp : sends) {
      if (sp.done) continue;
      keys.push_back({rt::Channel::Internal, kReliableCtlCtx, sp.op->dest,
                      sp.op->transfer_id, rt::FaultFilter::Any});
    }
    for (const RecvProgress& rp : recvs) {
      if (rp.finished) continue;
      keys.push_back({rt::Channel::Internal, kReliableDataCtx, rp.op->src,
                      rp.op->transfer_id, rt::FaultFilter::Any});
      keys.push_back({rt::Channel::Internal, kReliableFinCtx, rp.op->src,
                      rp.op->transfer_id, rt::FaultFilter::Any});
    }
    return keys;
  };

  const auto open = [&] {
    return std::any_of(sends.begin(), sends.end(),
                       [](const SendProgress& sp) { return !sp.done; }) ||
           std::any_of(recvs.begin(), recvs.end(),
                       [](const RecvProgress& rp) { return !rp.finished; });
  };

  // On real-loss transports (tcp) a dropped message leaves no tombstone:
  // the sender detects loss by the *absence* of an ack within a wall-clock
  // deadline instead of by deterministic tombstone evidence. Virtual
  // timeouts map to wall seconds via CID_NET_TIMEOUT_SCALE.
  const bool real_loss = ctx.world().transport()->real_loss();
  const double wall_scale = real_loss ? net::timeout_scale_from_env() : 0.0;
  if (real_loss) {
    const double now = net::wall_seconds();
    for (SendProgress& sp : sends) sp.wall_sent_at = now;
  }
  const auto virtual_deadline = [](const SendProgress& sp) {
    return sp.attempt_sent_at + sp.op->timeout * std::ldexp(1.0, sp.attempt);
  };
  const auto wall_deadline = [&](const SendProgress& sp) {
    return sp.wall_sent_at +
           sp.op->timeout * std::ldexp(1.0, sp.attempt) * wall_scale;
  };

  // The retransmission timer fired for `sp` at virtual time `fired`:
  // abandon the transfer past max_retries, otherwise re-inject the payload
  // as the next attempt. Shared by the tombstone/nack path (sim, thread)
  // and the wall-clock timeout path (tcp).
  const auto fire_send_timeout = [&](SendProgress& sp, simnet::SimTime fired) {
    ++state.stats.timeouts;
    if (trace) {
      record_trace_event({TraceEventKind::Timeout, self, sp.attempt_sent_at,
                          fired, *sp.op->site, 0, 0});
    }
    sp.t = std::max(sp.t, fired);
    if (sp.attempt >= sp.op->max_retries) {
      sp.done = true;
      ++state.stats.undelivered_pairs;
      state.delivery_report.lost.push_back(
          {*sp.op->site, sp.op->pair_index, sp.op->dest, sp.op->transfer_id,
           /*sender_side=*/true, sp.attempt + 1});
      emit(sp.op->dest, sp.op->transfer_id, kReliableFinCtx, {}, sp.t);
      return;
    }
    ++sp.attempt;
    // payload holds the prefixed attempt-0 buffer; the wire bytes follow
    // the attempt header.
    const cid::ByteSpan wire =
        sp.op->payload.span().subspan(kAttemptHeaderBytes);
    const std::size_t bytes = wire.size();
    const simnet::SimTime injection_start = sp.t;
    sp.t += costs.send_overhead + costs.per_message_gap +
            static_cast<simnet::SimTime>(bytes) /
                costs.injection_bytes_per_second;
    const simnet::SimTime delivery =
        std::max(costs.delivery_time(injection_start, bytes),
                 sp.t + costs.latency);
    rt::Envelope data;
    data.src = self;
    data.tag = sp.op->transfer_id;
    data.channel = rt::Channel::Internal;
    data.context = kReliableDataCtx;
    data.payload = rt::Payload(
        make_data_payload(static_cast<std::uint32_t>(sp.attempt), wire));
    data.available_at = delivery;
    ctx.world().deliver(sp.op->dest, std::move(data));
    sp.attempt_sent_at = sp.t;
    sp.wall_sent_at = net::wall_seconds();
    if (bytes > costs.eager_threshold_bytes) sp.t = delivery;
    ++state.stats.retransmits;
    if (trace) {
      record_trace_event({TraceEventKind::Retransmit, self, injection_start,
                          delivery, *sp.op->site, bytes, 1});
    }
  };

  while (open()) {
    const std::vector<rt::MatchKey> keys = relevant_keys();
    std::optional<rt::Envelope> extracted;
    if (real_loss) {
      // Earliest ack deadline among the in-flight sends bounds the wait.
      double earliest = std::numeric_limits<double>::infinity();
      for (const SendProgress& sp : sends) {
        if (!sp.done) earliest = std::min(earliest, wall_deadline(sp));
      }
      if (std::isfinite(earliest)) {
        extracted = ctx.mailbox().wait_extract_for(
            keys, earliest - net::wall_seconds());
        if (!extracted) {
          const double now = net::wall_seconds();
          for (SendProgress& sp : sends) {
            if (!sp.done && now >= wall_deadline(sp)) {
              fire_send_timeout(sp, virtual_deadline(sp));
            }
          }
          continue;
        }
      } else {
        // Only receives are open; the senders drive all the timers.
        extracted = ctx.mailbox().wait_extract(keys);
      }
    } else {
      extracted = ctx.mailbox().wait_extract(keys);
    }
    rt::Envelope e = std::move(*extracted);

    if (e.context == kReliableCtlCtx) {
      auto it = std::find_if(sends.begin(), sends.end(),
                             [&](const SendProgress& sp) {
                               return !sp.done && e.src == sp.op->dest &&
                                      e.tag == sp.op->transfer_id;
                             });
      CID_ASSERT(it != sends.end(), "reliable ctl lost its transfer");
      SendProgress& sp = *it;
      if (!e.faulted) {
        const std::uint32_t attempt = read_attempt(e.payload.span());
        if (attempt != static_cast<std::uint32_t>(sp.attempt)) {
          continue;  // stale duplicate of an earlier attempt's response
        }
        const auto kind =
            static_cast<std::uint8_t>(e.payload[kAttemptHeaderBytes]);
        if (kind == kCtlAck) {
          // Delivered. The sender's time was settled when the payload left
          // the NIC (local_complete_at / the last retransmission); the ack
          // only closes the protocol state.
          if (tune::recording()) {
            // Clean round trip: injection-complete to ack arrival. Feeds the
            // rtt quantiles that tighten the retransmission timeout.
            obs::observe("cid.reliability.rtt_seconds", *sp.op->site, self,
                         e.available_at - sp.attempt_sent_at);
            if (real_loss) {
              obs::observe("cid.reliability.wall_rtt_seconds", *sp.op->site,
                           self, net::wall_seconds() - sp.wall_sent_at);
            }
          }
          sp.done = true;
          emit(sp.op->dest, sp.op->transfer_id, kReliableFinCtx, {}, sp.t);
          continue;
        }
      }
      // A nack for the current attempt, or a tombstoned response: the
      // retransmission timer fires. Loss can only be observed once its
      // evidence has arrived, hence the max with the tombstone/nack time.
      fire_send_timeout(sp, std::max(e.available_at, virtual_deadline(sp)));
      continue;
    }

    auto it = std::find_if(recvs.begin(), recvs.end(),
                           [&](const RecvProgress& rp) {
                             return !rp.finished && e.src == rp.op->src &&
                                    e.tag == rp.op->transfer_id;
                           });
    CID_ASSERT(it != recvs.end(), "reliable data lost its transfer");
    RecvProgress& rp = *it;

    if (e.context == kReliableFinCtx) {
      rp.finished = true;
      if (!rp.delivered && !rp.gave_up) {
        // The sender abandoned the transfer before this side saw the final
        // loss (e.g. its own evidence arrived first). Record it here too.
        rp.gave_up = true;
        ++state.stats.undelivered_pairs;
        state.delivery_report.lost.push_back(
            {*rp.op->site, rp.op->pair_index, rp.op->src, rp.op->transfer_id,
             /*sender_side=*/false, rp.next_attempt});
      }
      continue;
    }

    if (e.faulted) {
      // This attempt's payload was lost; its tombstone is the deterministic
      // observation of that loss. Negative-acknowledge so the sender's
      // backoff timer can fire.
      rp.t = std::max(rp.t, e.available_at);
      const auto attempt = static_cast<std::uint32_t>(rp.next_attempt);
      emit(rp.op->src, rp.op->transfer_id, kReliableCtlCtx,
           make_ctl_payload(attempt, kCtlNack), rp.t);
      if (rp.next_attempt >= rp.op->max_retries && !rp.delivered &&
          !rp.gave_up) {
        rp.gave_up = true;
        ++state.stats.undelivered_pairs;
        state.delivery_report.lost.push_back(
            {*rp.op->site, rp.op->pair_index, rp.op->src, rp.op->transfer_id,
             /*sender_side=*/false, rp.next_attempt + 1});
      }
      ++rp.next_attempt;
      continue;
    }

    const std::uint32_t attempt = read_attempt(e.payload.span());
    if (!real_loss) {
      if (attempt < static_cast<std::uint32_t>(rp.next_attempt)) {
        // A fault-duplicated copy of an attempt that was already answered.
        ++state.stats.duplicates_suppressed;
        continue;
      }
      CID_ASSERT(attempt == static_cast<std::uint32_t>(rp.next_attempt),
                 "reliable data attempt from the future");
    }
    // Under real loss attempt numbers may skip (a lost DATA is simply never
    // seen) or regress (a late copy overtaken by a retransmission); every
    // arrival is answered with its own attempt number and the sender
    // ignores acks of superseded attempts.
    rp.t = std::max(rp.t, e.available_at);
    if (!rp.delivered) {
      const cid::ByteSpan wire(e.payload.data() + kAttemptHeaderBytes,
                               e.payload.size() - kAttemptHeaderBytes);
      const Status scattered =
          rp.op->dtype.scatter(wire, rp.op->buf, rp.op->count);
      CID_REQUIRE(scattered.is_ok(), ErrorCode::RuntimeFault,
                  scattered.to_string());
      if (!rp.op->dtype.is_contiguous()) {
        // Same unpack walk the plain engine charges on delivery.
        ctx.charge_compute(static_cast<simnet::SimTime>(wire.size()) /
                           ctx.model().host.datatype_pack_bytes_per_second);
      }
      rp.delivered = true;
    } else {
      // A retransmission of a payload we already have (its ack was lost).
      ++state.stats.duplicates_suppressed;
    }
    // (Re-)acknowledge; the sender keeps retransmitting until an ack of the
    // current attempt gets through, so every DATA arrival is answered.
    emit(rp.op->src, rp.op->transfer_id, kReliableCtlCtx,
         make_ctl_payload(attempt, kCtlAck), rp.t);
    rp.next_attempt = real_loss
                          ? std::max(rp.next_attempt,
                                     static_cast<int>(attempt) + 1)
                          : rp.next_attempt + 1;
  }

  // Losses were recorded in arrival order, which depends on host scheduling
  // across sources; canonicalize so the report is run-to-run identical.
  std::sort(state.delivery_report.lost.begin(),
            state.delivery_report.lost.end(),
            [](const LostPair& a, const LostPair& b) {
              return std::tie(a.site, a.pair_index, a.peer, a.transfer_id,
                              a.sender_side) <
                     std::tie(b.site, b.pair_index, b.peer, b.transfer_id,
                              b.sender_side);
            });

  // The rank clock advances once, to the latest transfer timeline — the
  // moment this rank's synchronization point is truly over.
  simnet::SimTime final_t = ctx.clock().now();
  for (const auto& sp : sends) final_t = std::max(final_t, sp.t);
  for (const auto& rp : recvs) final_t = std::max(final_t, rp.t);
  ctx.clock().advance_to(final_t);

  // Best-effort drain of protocol leftovers (fault-duplicated acks/fins
  // whose first copy already closed the transfer). They could never match a
  // later transfer — ids are monotonic per ordered pair — so this only keeps
  // the mailbox tidy.
  std::vector<rt::MatchKey> drain_keys;
  drain_keys.reserve(sends.size() + 2 * recvs.size());
  for (const SendProgress& sp : sends) {
    drain_keys.push_back({rt::Channel::Internal, kReliableCtlCtx, sp.op->dest,
                          sp.op->transfer_id, rt::FaultFilter::Any});
  }
  for (const RecvProgress& rp : recvs) {
    drain_keys.push_back({rt::Channel::Internal, kReliableDataCtx, rp.op->src,
                          rp.op->transfer_id, rt::FaultFilter::Any});
    drain_keys.push_back({rt::Channel::Internal, kReliableFinCtx, rp.op->src,
                          rp.op->transfer_id, rt::FaultFilter::Any});
  }
  while (ctx.mailbox().try_extract(drain_keys)) {
  }

  // The epoch is the reliable lowering's flush: persistent slots can be
  // restarted by the next region execution.
  for (auto& [site, slots] : state.reliable_slots) {
    slots.send_used = 0;
    slots.recv_used = 0;
  }

  ops.reliable_sends.clear();
  ops.reliable_recvs.clear();
}

}  // namespace detail

}  // namespace cid::core
