// The SHMEM symmetric heap: every PE allocates the same sequence of blocks at
// identical offsets, so a local pointer identifies the corresponding remote
// object on any PE (the property the paper's sbuf/rbuf clauses rely on when
// the directive targets SHMEM).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "rt/runtime.hpp"
#include "simnet/machine_model.hpp"

namespace cid::shmem {

/// Per-World heap state; all PEs share one instance via the World registry.
/// The PEs' blocks are one anonymous private mapping of npes x capacity
/// bytes, PE `pe` at offset pe x capacity. Its pages come from the kernel as
/// zero pages on first touch, so every fresh block reads 0 and a PE that
/// touches little of its heap costs little memory.
class SymmetricHeap {
 public:
  /// `capacity` is rounded up to the block alignment (16 bytes).
  SymmetricHeap(int npes, std::size_t capacity);
  ~SymmetricHeap();
  SymmetricHeap(const SymmetricHeap&) = delete;
  SymmetricHeap& operator=(const SymmetricHeap&) = delete;

  /// Collective bump allocation: every PE must call with the same size in the
  /// same order. Returns the calling PE's local block.
  void* allocate(int pe, std::size_t bytes);

  /// Key-coordinated allocation for runtime-internal symmetric objects
  /// (directive completion flags): the first caller of a key fixes its
  /// offset in a World-shared table, so every PE gets the same offset
  /// REGARDLESS of call order — and PEs that never touch the key need not
  /// call at all. Carved from the top of the heap, growing down.
  void* shared_allocate(int pe, const std::string& key, std::size_t bytes);

  /// Translate a local symmetric address to the same offset on `target_pe`.
  /// Throws when `local` is not inside the calling PE's heap.
  std::byte* translate(int pe, const void* local, int target_pe,
                       std::size_t bytes) const;

  bool contains(int pe, const void* ptr) const noexcept;

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t allocated(int pe) const;

  // --- virtual-time bookkeeping for puts --------------------------------
  /// Record a put delivered to `target_pe` at `delivery` injected by `pe`
  /// whose wire completes at `delivery`.
  void record_put(int pe, int target_pe, simnet::SimTime delivery);
  /// Latest delivery time of any put targeting `pe` (epoch so far).
  simnet::SimTime incoming_max(int pe) const;
  /// Reset the incoming mark of `pe` (consumed at a barrier).
  void reset_incoming(int pe);
  /// Latest wire-completion time of puts injected by `pe` (for quiet()).
  simnet::SimTime outgoing_max(int pe) const;

  /// Ordering floor for `pe`'s subsequent puts: fence() raises it to the
  /// PE's outgoing max so a post-fence flag put is never delivered (in
  /// virtual time) before the data puts it publishes.
  void raise_fence_floor(int pe);
  simnet::SimTime fence_floor(int pe) const;

  // --- flag-word write history ------------------------------------------
  // Every put_value64 appends (value, delivery) to the target word's
  // history, in the writer's program order. wait_until() consumes the first
  // entry that satisfies its comparison and advances the waiter's clock to
  // THAT write's delivery time — not to a racy "latest delivery so far"
  // mark, which would make virtual time depend on how far ahead the sender
  // happens to be in host wall time. Deterministic as long as each flag
  // word has a single writer (the directive runtime's per-source flag slots
  // guarantee this).
  /// Append a write of `value` to the word at `word` on `target_pe`.
  void record_word_write(int target_pe, const void* word, std::uint64_t value,
                         simnet::SimTime delivery);
  /// Pop history up to and including the first write satisfying
  /// `satisfied`, returning its delivery time; nullopt (and no change) when
  /// no recorded write satisfies it — the wait was met by older local state.
  std::optional<simnet::SimTime> consume_word_write(
      int pe, const void* word,
      const std::function<bool(std::uint64_t)>& satisfied);

  /// Default capacity per PE unless overridden before first use.
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  /// Override the per-PE capacity used when a World's heap is first created
  /// (call before the SPMD region, or before any symmetric allocation).
  static void set_default_capacity(std::size_t bytes) noexcept;
  static std::size_t default_capacity() noexcept;

  /// Fetch (or lazily create) the heap of the current World.
  static SymmetricHeap& of_world(rt::RankCtx& ctx);

 private:
  struct WordWrite {
    std::uint64_t value;
    simnet::SimTime delivery;
  };

  struct PeState {
    std::size_t allocated = 0;
    simnet::SimTime incoming_max = 0.0;
    simnet::SimTime outgoing_max = 0.0;
    simnet::SimTime fence_floor = 0.0;
    /// Unconsumed remote writes per flag word (offset into this PE's block).
    std::map<std::size_t, std::deque<WordWrite>> word_writes;
  };

  /// PE `pe`'s block. `pe` must be in [0, npes).
  std::byte* base(int pe) const noexcept {
    return mapping_ + static_cast<std::size_t>(pe) * capacity_;
  }
  /// Offset of `p` inside PE `pe`'s block; `p` must lie in that block.
  std::size_t offset_in(int pe, const void* p) const noexcept {
    return static_cast<std::size_t>(static_cast<const std::byte*>(p) -
                                    base(pe));
  }
  int checked_pe(int pe) const;

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::size_t map_bytes_;
  std::byte* mapping_;  ///< immutable after construction; read without lock
  std::vector<PeState> pes_;
  /// Allocation sizes observed from PE 0's sequence, used to detect
  /// asymmetric allocation bugs on other PEs.
  std::vector<std::size_t> allocation_log_;
  std::vector<std::size_t> calls_per_pe_;
  /// Key-coordinated internal allocations (offsets from the heap top).
  std::map<std::string, std::size_t> shared_offsets_;
  std::size_t shared_used_ = 0;
};

}  // namespace cid::shmem
