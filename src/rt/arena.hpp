// Recycling allocator for message payload buffers and their refcount nodes.
//
// Every send gathers wire bytes into a ByteBuffer and wraps it in a
// rt::Payload; at O(10k) ranks that is millions of malloc/free round trips
// per simulated step, all of roughly the same few sizes. The arena keeps
// released buffers in power-of-two size-class bins and hands their capacity
// back to the next acquire, so steady-state traffic — including
// fault-layer duplicates and reliability retransmits, which alias and then
// release the same buffers — runs without touching the system allocator.
// Payload's intrusive refcount nodes recycle through a companion freelist.
//
// Two tiers: each thread keeps a small front (bins for the small classes
// and a node cache, bounded by kFrontBinBytes each) in front of the locked
// global bins. A warm thread acquires and releases without a lock or a
// shared read-modify-write; it spills half a front bin to the global bins
// when one fills and refills a small batch when one runs dry, one lock per
// batch. A thread's front drains into the global bins when the thread
// exits, so a buffer released on one thread still serves acquires on
// another.
//
// Recycling only reuses memory, never values: an acquired buffer is resized
// (and value-initialized) to the requested length exactly like a fresh
// ByteBuffer, so virtual-time results are unaffected.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace cid::rt {

/// Counters for one arena, exact over every thread (live or exited).
/// Reuse/miss ratios depend on wall-clock interleaving — informational,
/// never part of deterministic output.
struct ArenaStats {
  std::uint64_t acquires = 0;        ///< buffers handed out
  std::uint64_t reuses = 0;          ///< ... served from a bin
  std::uint64_t releases = 0;        ///< buffers returned
  std::uint64_t retained = 0;        ///< ... kept for reuse
  std::uint64_t node_acquires = 0;   ///< refcount nodes handed out
  std::uint64_t node_reuses = 0;     ///< ... served from the freelist
  std::uint64_t retained_bytes = 0;  ///< capacity parked in all bins
};

/// Payload's intrusive control block: refcount + the owned bytes. Lives on
/// the arena's node freelist between uses.
struct PayloadNode {
  std::atomic<long> refs{1};
  ByteBuffer bytes;
};

class PayloadArena {
 public:
  /// The process-wide arena. Leaked on purpose (like the obs singletons) so
  /// payloads released during static teardown stay safe.
  static PayloadArena& global();

  /// A buffer of exactly `size` bytes, value-initialized, with capacity
  /// recycled from the matching bin when available.
  ByteBuffer acquire(std::size_t size);

  /// Return a buffer's capacity to its bin (dropped when the bin is at its
  /// retention cap or the buffer is oversized).
  void release(ByteBuffer&& buffer);

  /// A refcount node with refs == 1 and empty bytes.
  PayloadNode* acquire_node();

  /// Recycle a node whose refcount hit zero; its bytes go through
  /// release().
  void release_node(PayloadNode* node);

  ArenaStats stats() const;

 private:
  PayloadArena() = default;

  // Bins cover 64 B .. 1 MiB in power-of-two classes; anything larger is
  // not worth parking (kMaxBinnedBytes) and falls through to the system
  // allocator.
  static constexpr std::size_t kMinBinBytes = 64;
  static constexpr std::size_t kMaxBinnedBytes = std::size_t{1} << 20;
  static constexpr int kBinCount = 15;  // 2^6 .. 2^20
  /// Per-bin retention cap: bounds idle memory at kBinCount * 16 MiB.
  static constexpr std::size_t kMaxRetainedPerBin = std::size_t{16} << 20;
  static constexpr std::size_t kMaxFreeNodes = 1 << 16;
  /// Class bytes one thread's front holds per size class (a class's depth
  /// is kFrontBinBytes / class size), and node bytes in its node cache.
  /// Only classes of at most a quarter of it (64 B .. 4 KiB) have a front
  /// bin; larger buffers go straight to the global bins. A thread that
  /// mostly releases keeps this much per class until it exits.
  static constexpr std::size_t kFrontBinBytes = std::size_t{16} << 10;
  static constexpr int kFrontBins = 7;  // 2^6 .. 2^12
  static constexpr std::size_t kFrontNodes =
      kFrontBinBytes / sizeof(PayloadNode);
  /// Most buffers (or nodes) one refill moves from the global tier. Small,
  /// because a thread that runs briefly (one short rt::run) hands every
  /// refilled item back at exit; steady traffic still takes one lock per
  /// kFrontBatch acquires.
  static constexpr std::size_t kFrontBatch = 32;
  static constexpr std::size_t front_depth(int bin_idx) noexcept {
    return kFrontBinBytes / (kMinBinBytes << bin_idx);
  }

  static int bin_index(std::size_t bytes) noexcept;

  struct Bin {
    std::mutex mutex;
    std::vector<ByteBuffer> free;
    std::size_t free_bytes = 0;
  };

  /// Event counts. A front's counters are written only by its own thread
  /// (load + store, no read-modify-write) and read by stats().
  struct Counters {
    std::atomic<std::uint64_t> acquires{0};
    std::atomic<std::uint64_t> reuses{0};
    std::atomic<std::uint64_t> releases{0};
    std::atomic<std::uint64_t> retained{0};
    std::atomic<std::uint64_t> node_acquires{0};
    std::atomic<std::uint64_t> node_reuses{0};
  };

  /// One thread's front (defined in arena.cpp).
  struct Front;
  /// The calling thread's front, and whether it was already torn down.
  /// Trivially destructible, so they stay readable during thread exit;
  /// touched only by the out-of-line functions in arena.cpp, none of which
  /// yields a fiber.
  static thread_local Front* thread_front_;
  static thread_local bool thread_front_gone_;
  /// The calling thread's front, created on first use; null once the
  /// thread's front has been torn down at thread exit.
  Front* front();
  /// Count one event: on the front when there is one, else (after the
  /// front's teardown) on retired_.
  void count(Front* front, std::atomic<std::uint64_t> Counters::*counter);

  /// Move `buffers` into a global bin (one lock) while it stays under its
  /// cap; returns how many it kept. The caller frees the rest.
  std::size_t park(int bin_idx, std::span<ByteBuffer> buffers);
  /// Pop a buffer from a global bin.
  bool take(int bin_idx, ByteBuffer& out);
  /// Move the oldest `count` buffers of a front bin to its global bin (one
  /// lock); those past the cap are freed.
  void spill(Front& front, int bin_idx, std::size_t count);
  /// Move up to kFrontBatch buffers, and at most half a front bin's
  /// depth, from the global bin (one lock).
  void refill(Front& front, int bin_idx);
  /// Return nodes to the global freelist (one lock); past its cap they
  /// are deleted.
  void park_nodes(std::span<PayloadNode* const> nodes);

  Bin bins_[kBinCount];
  std::mutex nodes_mutex_;
  std::vector<PayloadNode*> free_nodes_;

  /// Guards fronts_ and the fold of an exiting front into retired_.
  mutable std::mutex fronts_mutex_;
  std::vector<const Front*> fronts_;
  /// Counts of exited fronts, and of calls made after a thread's front was
  /// torn down.
  Counters retired_;
};

}  // namespace cid::rt
