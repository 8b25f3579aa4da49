// miniMPI requests and the per-rank progress engine.
//
// Matching rules follow MPI: a receive matches (source, tag, communicator)
// with wildcards kAnySource / kAnyTag; posted receives are satisfied in post
// order; messages from one source on one (comm, tag) never overtake each
// other (guaranteed by the arrival-ordered mailbox scan).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/datatype.hpp"
#include "rt/runtime.hpp"

namespace cid::mpi {

/// Completion information of a receive (MPI_Status subset).
struct RecvStatus {
  int source = kAnySource;  ///< comm rank of the sender
  int tag = kAnyTag;
  std::size_t count = 0;  ///< elements actually received
};

namespace detail {

enum class ReqKind : std::uint8_t {
  Send,
  Recv,
  PersistentSend,
  PersistentRecv,
};

struct RequestImpl {
  ReqKind kind = ReqKind::Send;
  bool active = false;    ///< persistent requests: started and not yet waited
  bool complete = false;
  simnet::SimTime complete_at = 0.0;
  /// Host cost of unpacking a non-contiguous delivery, owed by the call
  /// that retires the request (not by whichever progress call matched the
  /// message, which depends on host ordering).
  simnet::SimTime unpack_cost = 0.0;
  RecvStatus status;

  // Receive-side fields (Recv / PersistentRecv).
  void* recv_buf = nullptr;
  std::size_t recv_capacity = 0;  ///< max elements
  Datatype dtype = Datatype::basic(BasicType::Byte);
  int match_source = kAnySource;  ///< comm rank or kAnySource
  int match_tag = kAnyTag;
  Comm comm = Comm{};

  // Persistent-send fields.
  const void* send_buf = nullptr;
  std::size_t send_count = 0;
  int dest = -1;
  int send_tag = 0;

  std::uint64_t post_order = 0;  ///< engine-assigned, for ordered matching
};

}  // namespace detail

/// Value-semantic request handle (shared, like MPI_Request copies).
class Request {
 public:
  Request() = default;

  bool valid() const noexcept { return impl_ != nullptr; }
  bool complete() const noexcept { return impl_ && impl_->complete; }

  /// Completion info; meaningful for receive requests after completion.
  const RecvStatus& status() const {
    CID_REQUIRE(valid(), ErrorCode::InvalidArgument,
                "status() on invalid Request");
    return impl_->status;
  }

 private:
  friend class Engine;
  friend struct RequestAccess;
  explicit Request(std::shared_ptr<detail::RequestImpl> impl)
      : impl_(std::move(impl)) {}
  std::shared_ptr<detail::RequestImpl> impl_;
};

/// Internal accessor used by the p2p implementation.
struct RequestAccess {
  static std::shared_ptr<detail::RequestImpl>& impl(Request& r) {
    return r.impl_;
  }
  static const std::shared_ptr<detail::RequestImpl>& impl(const Request& r) {
    return r.impl_;
  }
  static Request wrap(std::shared_ptr<detail::RequestImpl> impl) {
    return Request(std::move(impl));
  }
};

/// Per-rank progress engine: owns the posted-receive list and the matching
/// logic. One per rank, fetched from the World registry; only ever touched
/// from its own rank's thread.
class Engine {
 public:
  /// Engine of the calling rank.
  static Engine& mine();

  /// Register a posted (active, incomplete) receive.
  void post_recv(const std::shared_ptr<detail::RequestImpl>& request);

  /// Try to complete posted receives from the mailbox without blocking.
  void progress(rt::RankCtx& ctx);

  /// Block until `request` completes (progressing all posted receives in
  /// posted order along the way).
  void wait_complete(rt::RankCtx& ctx,
                     const std::shared_ptr<detail::RequestImpl>& request);

  /// Like wait_complete, but with a virtual-time deadline. Returns true when
  /// the request completed with complete_at <= deadline. Returns false when
  /// a tombstone for the request's message arrived (the message was dropped
  /// by the fault layer) or the message arrived only after the deadline; in
  /// both cases the clock is advanced to the deadline and, if the request
  /// never completed, it is cancelled (removed from the posted list).
  bool wait_complete_for(rt::RankCtx& ctx,
                         const std::shared_ptr<detail::RequestImpl>& request,
                         simnet::SimTime deadline);

  /// Block until a message that can complete at least one posted incomplete
  /// receive is available, then progress. Used by waitany/waitsome.
  void wait_any_progress(rt::RankCtx& ctx);

  /// Next window id for this rank's collective window-creation sequence.
  int next_window_id() noexcept { return next_window_id_++; }

 private:
  /// Complete `request` with the payload of `envelope` (scatter + status +
  /// completion time).
  void deliver(rt::RankCtx& ctx, detail::RequestImpl& request,
               const rt::Envelope& envelope);

  /// First incomplete posted receive (in post order) that `envelope`
  /// matches, or null.
  detail::RequestImpl* first_match(const rt::Envelope& envelope) const;

  /// Mailbox residual admitting envelopes that first_match() accepts: the
  /// membership and ordering check that MatchKeys alone cannot express.
  rt::Mailbox::Residual posted_residual() const;

  /// Rebuild keys_ (one key per incomplete posted receive, in post order)
  /// and keys_need_residual_.
  void build_keys(int nranks);

  std::vector<std::shared_ptr<detail::RequestImpl>> posted_;
  /// Mailbox keys of the incomplete posted receives, reused across calls.
  std::vector<rt::MatchKey> keys_;
  /// True when some key cannot skip posted_residual() (see request.cpp).
  bool keys_need_residual_ = false;
  std::uint64_t next_post_order_ = 0;
  int next_window_id_ = 0;
};

}  // namespace cid::mpi
