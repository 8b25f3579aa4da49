#include "mpi/comm.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/error.hpp"
#include "net/transport.hpp"

namespace cid::mpi {

struct Comm::Group {
  int context = 0;
  int size = 0;
  /// Comm rank r is world rank r for every member (world, and any split
  /// that reproduces it, such as a dup). Identity groups keep no tables, so
  /// both directions of the rank mapping are a bounds check.
  bool identity = true;
  std::vector<int> members;  ///< members[comm_rank] = world rank; non-identity
  /// Inverse of `members`: (world rank, comm rank) sorted by world rank.
  /// Sized to the group, not the world, so a P-way split costs O(P) total.
  std::vector<std::pair<int, int>> by_world;

  /// Group over `members` (comm rank order), with its inverse built once.
  static std::shared_ptr<const Group> make(int context,
                                           std::vector<int> members) {
    auto group = std::make_shared<Group>();
    group->context = context;
    group->size = static_cast<int>(members.size());
    for (int r = 0; r < group->size; ++r) {
      if (members[r] != r) group->identity = false;
    }
    if (!group->identity) {
      group->by_world.reserve(members.size());
      for (int r = 0; r < group->size; ++r) {
        group->by_world.emplace_back(members[r], r);
      }
      std::sort(group->by_world.begin(), group->by_world.end());
      group->members = std::move(members);
    }
    return group;
  }

  int world_of(int comm_rank) const noexcept {
    return identity ? comm_rank : members[comm_rank];
  }

  int comm_of(int world_rank) const noexcept {
    if (identity) {
      return world_rank >= 0 && world_rank < size ? world_rank : -1;
    }
    const auto it = std::ranges::lower_bound(
        by_world, world_rank, {}, &std::pair<int, int>::first);
    return it != by_world.end() && it->first == world_rank ? it->second : -1;
  }
};

namespace {

/// Collective bookkeeping shared by every communicator in one World.
struct CommRegistry {
  int next_context = 1;

  struct SplitOp {
    struct Entry {
      int color;
      int key;
      int parent_rank;
      int world_rank;
    };
    std::vector<Entry> entries;
    bool done = false;
    int fetched = 0;
    std::map<int, std::shared_ptr<const Comm::Group>> result_by_world_rank;
  };
  // Keyed by (parent context, per-parent split call index).
  std::map<std::pair<int, std::uint64_t>, SplitOp> splits;
  // Per (parent context, world rank): how many splits this rank started.
  std::map<std::pair<int, int>, std::uint64_t> split_calls;

  struct GroupBarrier {
    int arrived = 0;
    std::uint64_t generation = 0;
    simnet::SimTime max_clock = 0.0;
  };
  std::map<int, GroupBarrier> barriers;  // keyed by context
};
// Note: all registry state is protected by World::global_mutex() so waits can
// use World::wait_global() and be woken by poison().

std::shared_ptr<CommRegistry> registry(rt::World& world) {
  return world.shared_object<CommRegistry>("mpi.comm.registry");
}

}  // namespace

Comm Comm::world() {
  // The World builds its identity group once; each rank caches the handle in
  // a local slot, so later calls skip the registry mutex and string lookup.
  static constexpr char kKey = 0;
  auto& ctx = rt::current_ctx();
  auto& slot = ctx.local_slot(&kKey);
  if (!slot) {
    Group identity;  // context 0, no tables
    identity.size = ctx.nranks();
    slot = std::make_shared<Comm>(Comm(ctx.world().shared_object<const Group>(
        "mpi.comm.world", std::move(identity))));
  }
  return *static_cast<const Comm*>(slot.get());
}

int Comm::rank() const {
  CID_REQUIRE(valid(), ErrorCode::InvalidArgument, "rank() on invalid Comm");
  const int me = rt::current_ctx().rank();
  const int comm_rank = comm_rank_of_world(me);
  CID_REQUIRE(comm_rank >= 0, ErrorCode::RuntimeFault,
              "calling rank is not a member of this communicator");
  return comm_rank;
}

int Comm::size() const noexcept { return group_ ? group_->size : 0; }

int Comm::context() const noexcept { return group_ ? group_->context : -1; }

int Comm::world_rank(int comm_rank) const {
  CID_REQUIRE(valid(), ErrorCode::InvalidArgument,
              "world_rank() on invalid Comm");
  CID_REQUIRE(comm_rank >= 0 && comm_rank < size(), ErrorCode::InvalidArgument,
              "comm rank out of range");
  return group_->world_of(comm_rank);
}

int Comm::comm_rank_of_world(int world_rank) const noexcept {
  return group_ ? group_->comm_of(world_rank) : -1;
}

bool Comm::is_identity() const noexcept { return group_ && group_->identity; }

Comm Comm::split(int color, int key) const {
  CID_REQUIRE(valid(), ErrorCode::InvalidArgument, "split() on invalid Comm");
  auto& ctx = rt::current_ctx();
  auto& world = ctx.world();
  // The split negotiation lives in the in-process registry; members hosted
  // by another process could never contribute their (color, key).
  world.require_single_process("Comm::split");
  auto reg = registry(world);

  const int me = ctx.rank();
  const int my_parent_rank = rank();
  const int members = size();

  std::unique_lock<std::mutex> lock(world.global_mutex());
  const std::uint64_t call_index =
      reg->split_calls[{group_->context, me}]++;
  const auto op_key = std::make_pair(group_->context, call_index);
  auto& op = reg->splits[op_key];
  op.entries.push_back({color, key, my_parent_rank, me});

  if (static_cast<int>(op.entries.size()) == members) {
    // Last arrival resolves the split for everyone, deterministically.
    std::sort(op.entries.begin(), op.entries.end(),
              [](const auto& a, const auto& b) {
                return std::tuple(a.color, a.key, a.parent_rank) <
                       std::tuple(b.color, b.key, b.parent_rank);
              });
    for (std::size_t i = 0; i < op.entries.size();) {
      const int current_color = op.entries[i].color;
      std::size_t j = i;
      while (j < op.entries.size() && op.entries[j].color == current_color) {
        ++j;
      }
      if (current_color >= 0) {
        std::vector<int> members;
        members.reserve(j - i);
        for (std::size_t k = i; k < j; ++k) {
          members.push_back(op.entries[k].world_rank);
        }
        auto group = Group::make(reg->next_context++, std::move(members));
        for (std::size_t k = i; k < j; ++k) {
          op.result_by_world_rank[op.entries[k].world_rank] = group;
        }
      } else {
        for (std::size_t k = i; k < j; ++k) {
          op.result_by_world_rank[op.entries[k].world_rank] = nullptr;
        }
      }
      i = j;
    }
    op.done = true;
    world.notify_global();
  } else {
    world.wait_global(lock, [&] { return op.done; });
  }

  auto result = op.result_by_world_rank.at(me);
  if (++op.fetched == members) reg->splits.erase(op_key);
  lock.unlock();
  return Comm(std::move(result));
}

void Comm::barrier() const {
  CID_REQUIRE(valid(), ErrorCode::InvalidArgument, "barrier() on invalid Comm");
  auto& ctx = rt::current_ctx();
  auto& world = ctx.world();
  const int members = size();
  const int me = ctx.rank();
  CID_REQUIRE(is_member(me), ErrorCode::RuntimeFault,
              "barrier() caller is not a member");
  const simnet::SimTime cost = world.model().barrier_cost(members);

  if (!world.single_process()) {
    if (members == world.nranks()) {
      // Full-world barrier: same max-reduce + cost arithmetic, and the
      // world barrier knows how to synchronize across processes.
      world.barrier(me, cost);
      return;
    }
    for (int r = 0; r < members; ++r) {
      CID_REQUIRE(world.rank_is_local(group_->world_of(r)),
                  ErrorCode::UnsupportedTarget,
                  "sub-communicator barrier spans processes; only "
                  "process-local sub-groups are supported on the tcp "
                  "transport");
    }
  }

  auto reg = registry(world);
  std::unique_lock<std::mutex> lock(world.global_mutex());
  auto& bar = reg->barriers[group_->context];
  bar.max_clock = std::max(bar.max_clock, ctx.clock().now());
  if (++bar.arrived == members) {
    const simnet::SimTime release = bar.max_clock + cost;
    for (int r = 0; r < members; ++r) {
      world.clock(group_->world_of(r)).reset(release);
    }
    bar.arrived = 0;
    bar.max_clock = 0.0;
    ++bar.generation;
    world.notify_global();
    return;
  }
  const std::uint64_t my_generation = bar.generation;
  world.wait_global(lock, [&] { return bar.generation != my_generation; });
}

}  // namespace cid::mpi
