#include "mpi/p2p.hpp"

#include <algorithm>
#include <array>

#include "rt/envelope.hpp"
#include "rt/sched.hpp"

namespace cid::mpi {

namespace {

using detail::ReqKind;
using detail::RequestImpl;

const simnet::PathCosts& path(const rt::RankCtx& ctx) {
  return ctx.model().mpi_two_sided;
}

void validate_send_args(const Comm& comm, const void* buf, int dest,
                        const Datatype& dtype) {
  CID_REQUIRE(comm.valid(), ErrorCode::InvalidArgument,
              "send on invalid communicator");
  CID_REQUIRE(buf != nullptr, ErrorCode::InvalidArgument,
              "send buffer is null");
  CID_REQUIRE(dest >= 0 && dest < comm.size(), ErrorCode::InvalidArgument,
              "send destination rank out of range");
  CID_REQUIRE(dtype.committed(), ErrorCode::InvalidArgument,
              "send datatype not committed");
}

void validate_recv_args(const Comm& comm, const void* buf, int source,
                        const Datatype& dtype) {
  CID_REQUIRE(comm.valid(), ErrorCode::InvalidArgument,
              "recv on invalid communicator");
  CID_REQUIRE(buf != nullptr, ErrorCode::InvalidArgument,
              "recv buffer is null");
  CID_REQUIRE(source == kAnySource || (source >= 0 && source < comm.size()),
              ErrorCode::InvalidArgument, "recv source rank out of range");
  CID_REQUIRE(dtype.committed(), ErrorCode::InvalidArgument,
              "recv datatype not committed");
}

/// Shared injection path for isend and persistent-send start.
void inject(rt::RankCtx& ctx, RequestImpl& request, const void* buf,
            std::size_t count, const Datatype& dtype, const Comm& comm,
            int dest, int tag, simnet::SimTime injection_overhead) {
  const auto& costs = path(ctx);
  if (!dtype.is_contiguous()) {
    // The engine gathers the derived layout into the wire buffer.
    ctx.charge_compute(
        static_cast<simnet::SimTime>(dtype.payload_size() * count) /
        ctx.model().host.datatype_pack_bytes_per_second);
  }
  ByteBuffer payload = dtype.gather(buf, count);
  const std::size_t bytes = payload.size();

  const simnet::SimTime injection_start = ctx.clock().now();
  ctx.charge_compute(injection_overhead + costs.per_message_gap +
                     static_cast<simnet::SimTime>(bytes) /
                         costs.injection_bytes_per_second);
  // Delivery: wire pipeline from injection start, but never before the last
  // byte left the sender.
  const simnet::SimTime delivery =
      std::max(costs.delivery_time(injection_start, bytes),
               ctx.clock().now() + costs.latency);

  rt::Envelope envelope;
  envelope.src = ctx.rank();  // world rank
  envelope.tag = tag;
  envelope.channel = rt::Channel::MpiPointToPoint;
  envelope.context = comm.context();
  // Wrap once; fault-layer duplicates and retransmissions alias these bytes.
  envelope.payload = rt::Payload(std::move(payload));
  envelope.available_at = delivery;
  // Through the world's delivery seam so an installed fault interceptor can
  // drop / delay / duplicate the message.
  ctx.world().deliver(comm.world_rank(dest), std::move(envelope));

  request.complete = true;
  request.active = false;
  // Eager sends complete locally at injection; rendezvous sends cannot
  // complete before the receiver shows up, approximated by delivery time.
  request.complete_at = (bytes > costs.eager_threshold_bytes)
                            ? delivery
                            : ctx.clock().now();
}

std::shared_ptr<RequestImpl> make_recv_impl(const Comm& comm, void* buf,
                                            std::size_t capacity,
                                            const Datatype& dtype, int source,
                                            int tag, ReqKind kind) {
  auto impl = std::make_shared<RequestImpl>();
  impl->kind = kind;
  impl->recv_buf = buf;
  impl->recv_capacity = capacity;
  impl->dtype = dtype;
  impl->match_source = source;
  impl->match_tag = tag;
  impl->comm = comm;
  return impl;
}

/// Pay the unpack cost a delivery left on `request`. Every retiring call
/// does so before its advance_to, so the clock does not depend on which
/// progress call happened to match the message.
void charge_unpack(rt::RankCtx& ctx, RequestImpl& request) {
  ctx.charge_compute(request.unpack_cost);
  request.unpack_cost = 0.0;
}

/// Finish one completed request on the calling rank: advance the clock to
/// the message availability time and deactivate.
void finalize(rt::RankCtx& ctx, RequestImpl& request) {
  charge_unpack(ctx, request);
  ctx.clock().advance_to(request.complete_at);
  request.active = false;
}

}  // namespace

Request isend(const Comm& comm, const void* buf, std::size_t count,
              const Datatype& dtype, int dest, int tag) {
  auto& ctx = rt::current_ctx();
  validate_send_args(comm, buf, dest, dtype);
  auto impl = std::make_shared<RequestImpl>();
  impl->kind = ReqKind::Send;
  inject(ctx, *impl, buf, count, dtype, comm, dest, tag,
         path(ctx).send_overhead);
  return RequestAccess::wrap(std::move(impl));
}

Request irecv(const Comm& comm, void* buf, std::size_t capacity,
              const Datatype& dtype, int source, int tag) {
  auto& ctx = rt::current_ctx();
  validate_recv_args(comm, buf, source, dtype);
  ctx.charge_compute(path(ctx).recv_overhead);
  auto impl =
      make_recv_impl(comm, buf, capacity, dtype, source, tag, ReqKind::Recv);
  impl->active = true;
  auto& engine = Engine::mine();
  engine.post_recv(impl);
  engine.progress(ctx);  // cheap opportunistic match
  return RequestAccess::wrap(std::move(impl));
}

void send(const Comm& comm, const void* buf, std::size_t count,
          const Datatype& dtype, int dest, int tag) {
  auto& ctx = rt::current_ctx();
  validate_send_args(comm, buf, dest, dtype);
  RequestImpl impl;
  impl.kind = ReqKind::Send;
  inject(ctx, impl, buf, count, dtype, comm, dest, tag,
         path(ctx).send_overhead);
  // Blocking send returns when the buffer is reusable; no wait-call charge.
  ctx.clock().advance_to(impl.complete_at);
}

RecvStatus recv(const Comm& comm, void* buf, std::size_t capacity,
                const Datatype& dtype, int source, int tag) {
  auto& ctx = rt::current_ctx();
  validate_recv_args(comm, buf, source, dtype);
  ctx.charge_compute(path(ctx).recv_overhead);
  auto impl =
      make_recv_impl(comm, buf, capacity, dtype, source, tag, ReqKind::Recv);
  impl->active = true;
  auto& engine = Engine::mine();
  engine.post_recv(impl);
  engine.wait_complete(ctx, impl);
  finalize(ctx, *impl);
  return impl->status;
}

RecvStatus wait(Request& request) {
  auto& ctx = rt::current_ctx();
  auto& impl = RequestAccess::impl(request);
  CID_REQUIRE(impl != nullptr, ErrorCode::InvalidArgument,
              "wait() on invalid Request");
  ctx.charge_compute(path(ctx).wait_single);
  Engine::mine().wait_complete(ctx, impl);
  finalize(ctx, *impl);
  return impl->status;
}

bool wait_for(Request& request, simnet::SimTime timeout) {
  auto& ctx = rt::current_ctx();
  auto& impl = RequestAccess::impl(request);
  CID_REQUIRE(impl != nullptr, ErrorCode::InvalidArgument,
              "wait_for() on invalid Request");
  CID_REQUIRE(timeout >= 0.0, ErrorCode::InvalidArgument,
              "wait_for() timeout must be non-negative");
  ctx.charge_compute(path(ctx).wait_single);
  const simnet::SimTime deadline = ctx.clock().now() + timeout;
  if (!Engine::mine().wait_complete_for(ctx, impl, deadline)) return false;
  finalize(ctx, *impl);
  return true;
}

void waitall(std::span<Request> requests) {
  auto& ctx = rt::current_ctx();
  const auto& costs = path(ctx);
  ctx.charge_compute(costs.waitall_base +
                     costs.waitall_per_request *
                         static_cast<simnet::SimTime>(requests.size()));
  auto& engine = Engine::mine();
  simnet::SimTime latest = ctx.clock().now();
  for (auto& request : requests) {
    auto& impl = RequestAccess::impl(request);
    if (!impl) continue;  // MPI_REQUEST_NULL entries are permitted
    engine.wait_complete(ctx, impl);
    charge_unpack(ctx, *impl);
    latest = std::max(latest, impl->complete_at);
    impl->active = false;
  }
  ctx.clock().advance_to(latest);
}

bool test(Request& request) {
  auto& ctx = rt::current_ctx();
  auto& impl = RequestAccess::impl(request);
  CID_REQUIRE(impl != nullptr, ErrorCode::InvalidArgument,
              "test() on invalid Request");
  ctx.charge_compute(path(ctx).waitall_per_request);  // cheap poll
  Engine::mine().progress(ctx);
  if (!impl->complete) {
    // Callers poll test() in a loop; under the pooled scheduler the rank
    // must yield its worker or the peer it is polling for never runs.
    rt::sched::yield();
    return false;
  }
  finalize(ctx, *impl);
  return true;
}

int waitany(std::span<Request> requests) {
  auto& ctx = rt::current_ctx();
  ctx.charge_compute(path(ctx).wait_single);
  auto& engine = Engine::mine();
  bool any_valid = false;
  for (;;) {
    engine.progress(ctx);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      auto& impl = RequestAccess::impl(requests[i]);
      if (!impl) continue;
      any_valid = true;
      if (impl->complete) {
        finalize(ctx, *impl);
        // Like MPI_Waitany: the completed slot becomes MPI_REQUEST_NULL so
        // the next call does not return it again.
        requests[i] = Request{};
        return static_cast<int>(i);
      }
    }
    if (!any_valid) return -1;
    // Send requests complete at creation, so every incomplete entry is a
    // posted receive; block until the engine can progress one.
    engine.wait_any_progress(ctx);
  }
}

int waitsome(std::span<Request> requests, std::vector<int>& ready) {
  auto& ctx = rt::current_ctx();
  const auto& costs = path(ctx);
  ctx.charge_compute(costs.waitall_base);
  auto& engine = Engine::mine();
  const std::size_t before = ready.size();
  for (;;) {
    engine.progress(ctx);
    simnet::SimTime latest = ctx.clock().now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      auto& impl = RequestAccess::impl(requests[i]);
      if (impl && impl->complete) {
        charge_unpack(ctx, *impl);
        latest = std::max(latest, impl->complete_at);
        impl->active = false;
        ready.push_back(static_cast<int>(i));
        requests[i] = Request{};  // MPI_REQUEST_NULL, like MPI_Waitsome
      }
    }
    if (ready.size() > before) {
      ctx.clock().advance_to(latest);
      return static_cast<int>(ready.size() - before);
    }
    bool any_valid = false;
    for (auto& request : requests) {
      if (RequestAccess::impl(request)) any_valid = true;
    }
    if (!any_valid) return 0;
    engine.wait_any_progress(ctx);
  }
}

Request send_init(const Comm& comm, const void* buf, std::size_t count,
                  const Datatype& dtype, int dest, int tag) {
  auto& ctx = rt::current_ctx();
  validate_send_args(comm, buf, dest, dtype);
  ctx.charge_compute(path(ctx).persistent_setup);
  auto impl = std::make_shared<RequestImpl>();
  impl->kind = ReqKind::PersistentSend;
  impl->send_buf = buf;
  impl->send_count = count;
  impl->dtype = dtype;
  impl->dest = dest;
  impl->send_tag = tag;
  impl->comm = comm;
  return RequestAccess::wrap(std::move(impl));
}

Request recv_init(const Comm& comm, void* buf, std::size_t capacity,
                  const Datatype& dtype, int source, int tag) {
  auto& ctx = rt::current_ctx();
  validate_recv_args(comm, buf, source, dtype);
  ctx.charge_compute(path(ctx).persistent_setup);
  auto impl = make_recv_impl(comm, buf, capacity, dtype, source, tag,
                             ReqKind::PersistentRecv);
  return RequestAccess::wrap(std::move(impl));
}

void start(Request& request) {
  auto& ctx = rt::current_ctx();
  auto& impl = RequestAccess::impl(request);
  CID_REQUIRE(impl != nullptr, ErrorCode::InvalidArgument,
              "start() on invalid Request");
  CID_REQUIRE(!impl->active, ErrorCode::InvalidArgument,
              "start() on an already-active persistent request");
  const auto& costs = path(ctx);
  switch (impl->kind) {
    case ReqKind::PersistentSend:
      impl->complete = false;
      inject(ctx, *impl, impl->send_buf, impl->send_count, impl->dtype,
             impl->comm, impl->dest, impl->send_tag,
             costs.persistent_send_overhead);
      break;
    case ReqKind::PersistentRecv: {
      // A restart without a wait still owes the previous delivery's unpack.
      charge_unpack(ctx, *impl);
      ctx.charge_compute(costs.persistent_recv_overhead);
      impl->complete = false;
      impl->active = true;
      auto& engine = Engine::mine();
      engine.post_recv(impl);
      engine.progress(ctx);
      break;
    }
    default:
      throw CidError(ErrorCode::InvalidArgument,
                     "start() on a non-persistent request");
  }
}

void startall(std::span<Request> requests) {
  for (auto& request : requests) start(request);
}

RecvStatus sendrecv(const Comm& comm, const void* send_buf,
                    std::size_t send_count, const Datatype& send_type,
                    int dest, int send_tag, void* recv_buf,
                    std::size_t recv_capacity, const Datatype& recv_type,
                    int source, int recv_tag) {
  Request recv_req =
      irecv(comm, recv_buf, recv_capacity, recv_type, source, recv_tag);
  Request send_req =
      isend(comm, send_buf, send_count, send_type, dest, send_tag);
  // Complete both with one aggregate call (no per-request wait charges).
  std::array<Request, 2> both{recv_req, send_req};
  waitall(both);
  return recv_req.status();
}

namespace {
/// Probe key: a clean message matching (comm, source, tag). Tombstones are
/// invisible to plain MPI (FaultFilter::Clean); communicator membership of
/// wildcard sources is checked by membership_residual.
rt::MatchKey probe_key(const Comm& comm, int source, int tag) {
  rt::MatchKey key;
  key.channel = rt::Channel::MpiPointToPoint;
  key.context = comm.context();
  key.src = source == kAnySource ? rt::kMatchAny : comm.world_rank(source);
  key.tag = tag == kAnyTag ? rt::kMatchAny : tag;
  return key;
}

rt::Mailbox::Residual membership_residual(const Comm& comm) {
  return [&comm](const rt::Envelope& e) { return comm.is_member(e.src); };
}

RecvStatus status_from_header(const Comm& comm,
                              const rt::Mailbox::Header& header,
                              const Datatype& dtype) {
  RecvStatus status;
  status.source = comm.comm_rank_of_world(header.src);
  status.tag = header.tag;
  status.count = dtype.payload_size() > 0
                     ? header.payload_bytes / dtype.payload_size()
                     : 0;
  return status;
}
}  // namespace

RecvStatus probe(const Comm& comm, int source, int tag,
                 const Datatype& dtype) {
  auto& ctx = rt::current_ctx();
  CID_REQUIRE(comm.valid(), ErrorCode::InvalidArgument,
              "probe on invalid communicator");
  ctx.charge_compute(path(ctx).wait_single);
  const rt::MatchKey key = probe_key(comm, source, tag);
  const rt::Mailbox::Residual residual = membership_residual(comm);
  ctx.mailbox().wait_present(std::span<const rt::MatchKey>(&key, 1),
                             &residual);
  auto header = ctx.mailbox().peek(key, &residual);
  CID_ASSERT(header.has_value(), "probe lost the message it waited for");
  ctx.clock().advance_to(header->available_at);
  return status_from_header(comm, *header, dtype);
}

bool iprobe(const Comm& comm, int source, int tag, const Datatype& dtype,
            RecvStatus* status) {
  auto& ctx = rt::current_ctx();
  CID_REQUIRE(comm.valid(), ErrorCode::InvalidArgument,
              "iprobe on invalid communicator");
  ctx.charge_compute(path(ctx).waitall_per_request);  // cheap poll
  const rt::Mailbox::Residual residual = membership_residual(comm);
  auto header = ctx.mailbox().peek(probe_key(comm, source, tag), &residual);
  if (!header) {
    rt::sched::yield();  // let the polled-for peer run (see mpi::test)
    return false;
  }
  ctx.clock().advance_to(header->available_at);
  if (status != nullptr) *status = status_from_header(comm, *header, dtype);
  return true;
}

void rebind_send(Request& request, const void* buf, std::size_t count) {
  auto& impl = RequestAccess::impl(request);
  CID_REQUIRE(impl != nullptr && impl->kind == ReqKind::PersistentSend,
              ErrorCode::InvalidArgument,
              "rebind_send() requires a persistent send request");
  CID_REQUIRE(!impl->active, ErrorCode::InvalidArgument,
              "rebind_send() on an active request");
  CID_REQUIRE(buf != nullptr, ErrorCode::InvalidArgument,
              "rebind_send() buffer is null");
  impl->send_buf = buf;
  impl->send_count = count;
}

void rebind_recv(Request& request, void* buf, std::size_t capacity) {
  auto& impl = RequestAccess::impl(request);
  CID_REQUIRE(impl != nullptr && impl->kind == ReqKind::PersistentRecv,
              ErrorCode::InvalidArgument,
              "rebind_recv() requires a persistent recv request");
  CID_REQUIRE(!impl->active, ErrorCode::InvalidArgument,
              "rebind_recv() on an active request");
  CID_REQUIRE(buf != nullptr, ErrorCode::InvalidArgument,
              "rebind_recv() buffer is null");
  impl->recv_buf = buf;
  impl->recv_capacity = capacity;
}

}  // namespace cid::mpi
