#include "core/collective.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "core/exec_state.hpp"
#include "core/trace.hpp"
#include "mpi/coll.hpp"
#include "mpi/mpi.hpp"
#include "obs/obs.hpp"
#include "shmem/shmem.hpp"
#include "tune/tune.hpp"

namespace cid::core {

namespace detail {
namespace {

std::size_t resolve_count(const Clauses& clauses, const Env& env,
                          Pattern pattern, int group_size) {
  if (clauses.count_clause().present()) {
    const ExprValue value = eval_clause(clauses.count_clause(), env, "count");
    CID_REQUIRE(value > 0, ErrorCode::InvalidClause,
                "count clause must evaluate to a positive value");
    return static_cast<std::size_t>(value);
  }
  // Inference: the per-block count derived from the smallest array extent,
  // divided by the group size where the buffer holds one block per member.
  std::size_t smallest = SIZE_MAX;
  auto extent_blocks = [&](const BufferRef& buffer, bool per_member) {
    if (!buffer.has_extent) return;
    const std::size_t divisor =
        per_member ? static_cast<std::size_t>(group_size) : 1;
    if (buffer.extent_count >= divisor && divisor > 0) {
      smallest = std::min(smallest, buffer.extent_count / divisor);
    }
  };
  const BufferRef& s = clauses.sbuf_list().front();
  const BufferRef& r = clauses.rbuf_list().front();
  switch (pattern) {
    case Pattern::OneToMany:
      extent_blocks(s, false);
      extent_blocks(r, false);
      break;
    case Pattern::ManyToOne:
      extent_blocks(s, false);
      extent_blocks(r, true);
      break;
    case Pattern::AllToAll:
      extent_blocks(s, true);
      extent_blocks(r, true);
      break;
  }
  CID_REQUIRE(smallest != SIZE_MAX && smallest > 0, ErrorCode::InvalidClause,
              "count omitted and no usable array extent on the buffers");
  return smallest;
}

mpi::Datatype datatype_for_buffer(ExecState& state, const BufferRef& buffer) {
  if (buffer.is_composite()) return state.datatype_for(*buffer.layout);
  return mpi::Datatype::basic(buffer.basic);
}

void require_capacity(const BufferRef& buffer, std::size_t needed,
                      const char* what) {
  CID_REQUIRE(!buffer.has_extent || buffer.extent_count >= needed,
              ErrorCode::InvalidClause,
              std::string(what) + " buffer '" + buffer.name + "' holds " +
                  std::to_string(buffer.extent_count) + " elements, needs " +
                  std::to_string(needed));
}

void lower_mpi(ExecState& state, const mpi::Comm& comm, Pattern pattern,
               int root, std::size_t count, const BufferRef& sbuf,
               const BufferRef& rbuf,
               std::optional<mpi::coll::CollAlgo> hint) {
  const mpi::Datatype dtype = datatype_for_buffer(state, sbuf);
  switch (pattern) {
    case Pattern::OneToMany:
      require_capacity(rbuf, count, "ONE_TO_MANY rbuf");
      if (comm.rank() == root) {
        std::memcpy(rbuf.data, sbuf.data, count * dtype.extent());
      }
      mpi::coll::bcast(comm, rbuf.data, count, dtype, root, hint);
      return;
    case Pattern::ManyToOne:
      require_capacity(sbuf, count, "MANY_TO_ONE sbuf");
      if (comm.rank() == root) {
        require_capacity(rbuf,
                         count * static_cast<std::size_t>(comm.size()),
                         "MANY_TO_ONE rbuf");
      }
      mpi::coll::gather(comm, sbuf.data, count, dtype,
                        comm.rank() == root ? rbuf.data : nullptr, root,
                        hint);
      return;
    case Pattern::AllToAll: {
      const std::size_t total =
          count * static_cast<std::size_t>(comm.size());
      require_capacity(sbuf, total, "ALL_TO_ALL sbuf");
      require_capacity(rbuf, total, "ALL_TO_ALL rbuf");
      mpi::coll::alltoall(comm, sbuf.data, count, dtype, rbuf.data, hint);
      return;
    }
  }
}

/// The CollOp the MPI lowering of `pattern` dispatches through.
tune::CollOp coll_op_for(Pattern pattern) {
  switch (pattern) {
    case Pattern::OneToMany: return tune::CollOp::Bcast;
    case Pattern::ManyToOne: return tune::CollOp::Gather;
    case Pattern::AllToAll: return tune::CollOp::Alltoall;
  }
  return tune::CollOp::Bcast;
}

void lower_shmem(ExecState& state, const SiteKey& site, const mpi::Comm& comm,
                 Pattern pattern, int root, std::size_t count,
                 const BufferRef& sbuf, const BufferRef& rbuf) {
  auto& ctx = rt::current_ctx();
  const int me_world = ctx.rank();
  const int me = comm.rank();
  const int size = comm.size();
  const std::size_t block = count * sbuf.element_size;

  CID_REQUIRE(shmem::is_symmetric(rbuf.data), ErrorCode::InvalidClause,
              "SHMEM collective target requires a symmetric rbuf");

  // Key-coordinated allocation: members of the group get the same offset
  // regardless of which ranks participate or in what order. Two slot banks:
  // data publications and consumption acks (see ShmemCollectiveSite).
  const std::size_t npes = static_cast<std::size_t>(ctx.nranks());
  auto& coll = state.shmem_collectives[&site];
  if (coll.flags == nullptr) {
    coll.flags = shmem::shared_flags("cid.coll." + site, 2 * npes);
  }
  const bool first_round = coll.executions++ == 0;

  auto put_block = [&](const void* src, void* dest_sym, int dest_world) {
    shmem::putmem(dest_sym, src, block, dest_world);
    ++state.stats.shmem_puts;
    state.stats.shmem_bytes += block;
  };
  auto publish = [&](int dest_world) {
    shmem::put_value64(&coll.flags[me_world], ++coll.sent_to[dest_world],
                       dest_world);
  };
  auto await = [&](int src_world) {
    shmem::wait_until(&coll.flags[src_world], shmem::Cmp::Ge,
                      ++coll.expected_from[src_world]);
  };
  // Deferred consumption acks: entering the site again proves the previous
  // round's buffers were consumed; writers wait for that before overwriting.
  auto publish_ack = [&](int dest_world) {
    shmem::put_value64(&coll.flags[npes + me_world],
                       ++coll.acks_sent_to[dest_world], dest_world);
  };
  auto await_ack = [&](int src_world) {
    shmem::wait_until(&coll.flags[npes + src_world], shmem::Cmp::Ge,
                      ++coll.acks_expected_from[src_world]);
  };
  auto* rbuf_bytes = static_cast<std::byte*>(rbuf.data);
  const auto* sbuf_bytes = static_cast<const std::byte*>(sbuf.data);

  switch (pattern) {
    case Pattern::OneToMany: {
      require_capacity(rbuf, count, "ONE_TO_MANY rbuf");
      if (me == root) {
        if (!first_round) {
          for (int m = 0; m < size; ++m) {
            if (m != me) await_ack(comm.world_rank(m));
          }
        }
        std::memcpy(rbuf.data, sbuf.data, block);
        for (int m = 0; m < size; ++m) {
          if (m == me) continue;
          put_block(sbuf.data, rbuf.data, comm.world_rank(m));
        }
        shmem::fence();
        for (int m = 0; m < size; ++m) {
          if (m == me) continue;
          publish(comm.world_rank(m));
        }
        shmem::quiet();
      } else {
        if (!first_round) publish_ack(comm.world_rank(root));
        await(comm.world_rank(root));
      }
      return;
    }
    case Pattern::ManyToOne: {
      require_capacity(sbuf, count, "MANY_TO_ONE sbuf");
      const int root_world = comm.world_rank(root);
      if (me == root) {
        require_capacity(rbuf, count * static_cast<std::size_t>(size),
                         "MANY_TO_ONE rbuf");
        if (!first_round) {
          for (int m = 0; m < size; ++m) {
            if (m != me) publish_ack(comm.world_rank(m));
          }
        }
        std::memcpy(rbuf_bytes + static_cast<std::size_t>(me) * block,
                    sbuf.data, block);
        for (int m = 0; m < size; ++m) {
          if (m == me) continue;
          await(comm.world_rank(m));
        }
      } else {
        if (!first_round) await_ack(root_world);
        // My block lands at my group-rank offset in the root's rbuf; the
        // root's rbuf is symmetric, so my own rbuf pointer addresses it.
        put_block(sbuf.data,
                  rbuf_bytes + static_cast<std::size_t>(me) * block,
                  root_world);
        shmem::fence();
        publish(root_world);
        shmem::quiet();
      }
      return;
    }
    case Pattern::AllToAll: {
      const std::size_t total = count * static_cast<std::size_t>(size);
      require_capacity(sbuf, total, "ALL_TO_ALL sbuf");
      require_capacity(rbuf, total, "ALL_TO_ALL rbuf");
      if (!first_round) {
        for (int m = 0; m < size; ++m) {
          if (m != me) publish_ack(comm.world_rank(m));
        }
        for (int m = 0; m < size; ++m) {
          if (m != me) await_ack(comm.world_rank(m));
        }
      }
      std::memcpy(rbuf_bytes + static_cast<std::size_t>(me) * block,
                  sbuf_bytes + static_cast<std::size_t>(me) * block, block);
      for (int m = 0; m < size; ++m) {
        if (m == me) continue;
        put_block(sbuf_bytes + static_cast<std::size_t>(m) * block,
                  rbuf_bytes + static_cast<std::size_t>(me) * block,
                  comm.world_rank(m));
      }
      shmem::fence();
      for (int m = 0; m < size; ++m) {
        if (m == me) continue;
        publish(comm.world_rank(m));
      }
      for (int m = 0; m < size; ++m) {
        if (m == me) continue;
        await(comm.world_rank(m));
      }
      shmem::quiet();
      return;
    }
  }
}

}  // namespace
}  // namespace detail

void comm_collective(const Clauses& clauses, std::source_location site_loc) {
  using namespace detail;
  CID_REQUIRE(rt::in_spmd_region(), ErrorCode::RuntimeFault,
              "comm_collective outside an SPMD region");
  auto& ctx = rt::current_ctx();
  auto& state = ExecState::mine();

  const simnet::SimTime trace_begin = ctx.clock().now();
  ++state.stats.collective_directives;
  const Status valid = clauses.validate_for_collective();
  if (!valid.is_ok()) throw CidError(valid.code(), valid.message());

  // Collectives are synchronizing: complete pending point-to-point work
  // first so buffer reuse across the directive stays ordered. All ranks
  // reach the directive (SPMD), so the full flush (including collective
  // window fences) is safe here.
  state.flush(state.pending);

  const Env env = make_env(ClauseView(clauses));
  const Pattern pattern = *clauses.pattern_clause();
  const Target target = clauses.target_clause().value_or(Target::Mpi2Side);
  CID_REQUIRE(target != Target::Mpi1Side, ErrorCode::UnsupportedTarget,
              "comm_collective does not support TARGET_COMM_MPI_1SIDE");

  // Group formation (cached per site; re-split collectively on change).
  const ExprValue color =
      clauses.group_clause().present()
          ? eval_clause(clauses.group_clause(), env, "group")
          : 0;
  const SiteKey& site = site_key(site_loc);

  auto& cache = state.group_comms[&site];
  if (!cache.valid || cache.color != color) {
    cache.comm = mpi::Comm::world().split(
        color < 0 ? -1 : static_cast<int>(color), ctx.rank());
    cache.color = color;
    cache.valid = true;
  }
  if (!cache.comm.valid()) return;  // excluded by a negative group value
  const mpi::Comm& comm = cache.comm;

  int root = 0;
  if (pattern != Pattern::AllToAll) {
    const ExprValue value = eval_clause(clauses.root_clause(), env, "root");
    CID_REQUIRE(value >= 0 && value < comm.size(), ErrorCode::InvalidClause,
                "root clause evaluates to out-of-range group rank " +
                    std::to_string(value));
    root = static_cast<int>(value);
  }

  const std::size_t count =
      resolve_count(clauses, env, pattern, comm.size());
  const BufferRef& sbuf = clauses.sbuf_list().front();
  const BufferRef& rbuf = clauses.rbuf_list().front();

  // cid::tune integration. Record mode harvests the site's collective shape
  // (per-block bytes, group size, pattern mix) into the profile; under
  // CID_TUNE=on a recorded profile re-evaluates the algorithm chooser with
  // the OBSERVED size distribution, and the resulting hint steers the
  // engine (still below any CID_COLL operator override).
  const std::size_t block_bytes = count * sbuf.element_size;
  std::optional<mpi::coll::CollAlgo> hint;
  if (tune::recording()) {
    obs::observe("cid.tune.coll_block_bytes", site, ctx.rank(),
                 static_cast<double>(block_bytes));
    obs::observe("cid.tune.coll_group", site, ctx.rank(),
                 static_cast<double>(comm.size()));
    const char* pattern_metric = pattern == Pattern::OneToMany
                                     ? "cid.tune.coll_o2m"
                                     : pattern == Pattern::ManyToOne
                                           ? "cid.tune.coll_m2o"
                                           : "cid.tune.coll_a2a";
    obs::count(pattern_metric, site, ctx.rank());
  } else if (tune::active()) {
    const tune::SiteProfile* profile = tune::Tuner::global().site(site);
    if (profile != nullptr && profile->coll_calls > 0) {
      const tune::CollOp op = coll_op_for(pattern);
      const tune::CollShape shape{
          block_bytes,
          op == tune::CollOp::Bcast
              ? block_bytes
              : block_bytes * static_cast<std::size_t>(comm.size()),
          comm.size()};
      hint = tune::choose_collective(op, shape, ctx.model(), profile).algo;
    }
  }

  if (target == Target::Mpi2Side) {
    lower_mpi(state, comm, pattern, root, count, sbuf, rbuf, hint);
  } else {
    lower_shmem(state, site, comm, pattern, root, count, sbuf, rbuf);
  }

  if (obs::enabled()) {
    detail::record_trace_event({TraceEventKind::CollectiveDirective,
                                ctx.rank(), trace_begin, ctx.clock().now(),
                                site, 0, 0});
  }
}

}  // namespace cid::core
