// Per-rank mailbox: a mutex+condvar guarded arrival store with structured,
// indexed matching.
//
// Every queued envelope lives in one recycled node that sits on two
// seq-ordered doubly linked lists: its (channel, context) bucket's arrival
// list and that bucket's per-(src, tag) FIFO. Matching is expressed as a
// MatchKey — exact values or wildcards for src/tag plus a fault-tombstone
// filter — so:
//
//  - the common exact-match extract is a hash lookup + FIFO-head check, and
//    every extraction is an O(1) unlink from both lists;
//  - wildcard keys walk their bucket's arrival list once per search, testing
//    all of that bucket's wildcard keys per node, never unrelated
//    channels/contexts;
//  - MPI's non-overtaking guarantee holds by construction: both lists are
//    seq-ordered, and multi-key searches always return the lowest-seq match
//    across keys;
//  - blocking waits resume from a seq watermark after each wakeup (only
//    newly arrived envelopes are examined — a rejected envelope is never
//    rescanned within one wait, since keys are fixed for the call);
//  - push() wakes a waiter only when the new envelope can match one of its
//    registered keys; a push nobody could want costs no syscall;
//  - steady-state traffic allocates nothing: nodes recycle through a
//    per-mailbox freelist, FIFO ends live in an open-addressing table, and
//    a bucket stays in place when it drains.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "rt/envelope.hpp"
#include "rt/sched.hpp"

namespace cid::rt {

/// Wildcard value for MatchKey::src / MatchKey::tag. Distinct from -1, which
/// is a legal envelope src/tag value.
inline constexpr int kMatchAny = std::numeric_limits<int>::min();

/// What a key does with fault-layer tombstones (Envelope::faulted).
enum class FaultFilter : std::uint8_t {
  Clean,    ///< match only intact envelopes (plain MPI matching)
  Faulted,  ///< match only tombstones (timeout detection)
  Any,      ///< match both (reliability protocol traffic)
};

/// One structured matching pattern. channel/context are always exact (they
/// select the bucket); src/tag may be kMatchAny.
struct MatchKey {
  Channel channel = Channel::MpiPointToPoint;
  int context = 0;
  int src = kMatchAny;
  int tag = kMatchAny;
  FaultFilter faults = FaultFilter::Clean;

  bool admits(const Envelope& e) const noexcept {
    if (e.channel != channel || e.context != context) return false;
    if (src != kMatchAny && e.src != src) return false;
    if (tag != kMatchAny && e.tag != tag) return false;
    switch (faults) {
      case FaultFilter::Clean:
        return !e.faulted;
      case FaultFilter::Faulted:
        return e.faulted;
      case FaultFilter::Any:
        return true;
    }
    return false;
  }

  bool exact() const noexcept { return src != kMatchAny && tag != kMatchAny; }
};

class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;
  ~Mailbox();

  /// Optional refinement evaluated on key-admitted candidates only (e.g.
  /// communicator-membership checks). Must be deterministic for the duration
  /// of one call: a candidate it rejects is not re-examined within that call.
  using Residual = std::function<bool(const Envelope&)>;

  /// Deliver an envelope (called from the sending rank's thread). An
  /// aggregate (Channel::Internal, agg::kContext — see rt/agg.hpp) is split
  /// here into its per-message sub-envelopes under one lock acquisition, in
  /// append order, so seq-based non-overtaking matches the unbatched path.
  void push(Envelope envelope);

  /// Remove and return the lowest-seq envelope admitted by any key (and the
  /// residual, when given); blocks until one arrives. Throws
  /// CidError(RuntimeFault) if the world gets poisoned while waiting.
  Envelope wait_extract(std::span<const MatchKey> keys,
                        const Residual* residual = nullptr);
  Envelope wait_extract(const MatchKey& key,
                        const Residual* residual = nullptr) {
    return wait_extract(std::span<const MatchKey>(&key, 1), residual);
  }

  /// Timed variant for wall-clock transports: block at most `seconds` of
  /// real time; nullopt on timeout. Real-loss transports (tcp) deliver
  /// nothing at all for a lost message, so reliability protocols cannot
  /// wait on a tombstone — they wait on the clock instead.
  std::optional<Envelope> wait_extract_for(std::span<const MatchKey> keys,
                                           double seconds,
                                           const Residual* residual = nullptr);

  /// Non-blocking variant.
  std::optional<Envelope> try_extract(std::span<const MatchKey> keys,
                                      const Residual* residual = nullptr);
  std::optional<Envelope> try_extract(const MatchKey& key,
                                      const Residual* residual = nullptr) {
    return try_extract(std::span<const MatchKey>(&key, 1), residual);
  }

  /// Block until an admitted envelope is present, without removing it.
  void wait_present(std::span<const MatchKey> keys,
                    const Residual* residual = nullptr);

  /// True if an admitted envelope is queued (does not remove it).
  bool probe(const MatchKey& key, const Residual* residual = nullptr);

  /// Header of the first admitted queued envelope (no payload copy, no
  /// removal): {src, tag, payload bytes, available_at}.
  struct Header {
    int src = -1;
    int tag = 0;
    std::size_t payload_bytes = 0;
    simnet::SimTime available_at = 0.0;
  };
  std::optional<Header> peek(const MatchKey& key,
                             const Residual* residual = nullptr);

  /// Number of queued envelopes (diagnostics).
  std::size_t size() const;

  // ---- Schedule-exploration hooks (cid::explore) -------------------------
  //
  // A model-checking session makes the one visible source of nondeterminism
  // — which envelope a wildcard (non-exact) key matches — a controlled
  // decision: envelopes stay invisible to non-exact keys until the session's
  // gate admits them, and every successful extraction is reported through a
  // tap so the session can maintain its happens-before trace. Exact keys are
  // never gated (their match is already deterministic by non-overtaking and
  // post order). Both hooks are strictly inert when unset: the matching
  // logic, wakeups and floor watermark behave byte-identically to the
  // ungated mailbox, which is what keeps the golden fingerprints valid.

  /// True when the gated envelope may be matched by a non-exact key.
  using WildcardGate = std::function<bool(const Envelope&)>;
  /// Observes every extracted envelope, called under the mailbox lock; must
  /// not call back into this mailbox.
  using ExtractTap = std::function<void(const Envelope&)>;

  /// Install (or clear, with nullptrs) the exploration hooks. Install
  /// before ranks start; not thread-safe against concurrent operations.
  void set_explore_hooks(WildcardGate gate, ExtractTap tap);

  /// A queued envelope admitted by some blocked waiter's non-exact key but
  /// currently held back by the wildcard gate: the candidate set of one
  /// schedule decision.
  struct HeldCandidate {
    std::uint64_t uid = 0;  ///< Envelope::explore_uid
    int src = -1;
    int tag = 0;
    int context = 0;
  };
  /// Gate-held candidates visible to currently registered blocked waiters,
  /// deduplicated, in uid order. Empty when no session is installed.
  std::vector<HeldCandidate> held_candidates() const;

  /// Wake all waiters so they can observe the poisoned world and unwind.
  void interrupt_all();

  void set_poison_check(std::function<bool()> check) {
    poisoned_ = std::move(check);
  }

 private:
  struct Bucket;

  /// One queued envelope, linked into its bucket's arrival list and its
  /// (src, tag) FIFO; both lists are ordered by seq.
  struct Node {
    Envelope envelope;
    Bucket* bucket = nullptr;
    Node* prev = nullptr;  ///< arrival list
    Node* next = nullptr;
    Node* fifo_prev = nullptr;  ///< (src, tag) FIFO
    Node* fifo_next = nullptr;
  };

  /// Ends of one (src, tag) FIFO.
  struct Fifo {
    Node* head = nullptr;
    Node* tail = nullptr;
  };

  /// (src, tag) -> FIFO ends. Open addressing with linear probing and
  /// backward-shift erase, so inserting and erasing entries allocates
  /// nothing once the table has grown to the bucket's working set. A slot
  /// is free when its FIFO is empty; an entry is erased as its FIFO empties.
  class FifoIndex {
   public:
    Fifo* find(std::uint64_t id) noexcept;
    /// The entry for `id`, inserted empty when absent.
    Fifo& at(std::uint64_t id);
    void erase(std::uint64_t id) noexcept;

   private:
    struct Slot {
      std::uint64_t id = 0;
      Fifo fifo;
    };
    std::size_t home(std::uint64_t id) const noexcept;
    void grow();
    std::vector<Slot> slots_;
    std::size_t used_ = 0;
  };

  /// Arrival store of one (channel, context). Kept when it drains, so a
  /// refill reuses its FIFO table.
  struct Bucket {
    Node* head = nullptr;  ///< lowest seq
    Node* tail = nullptr;  ///< highest seq: pushes append here
    FifoIndex fifos;
    /// Search that last walked this bucket for wildcard keys (see find_any).
    std::uint64_t walked_by = 0;
  };

  /// A registered blocking waiter, used by push() for targeted wakeups.
  struct Waiter {
    std::span<const MatchKey> keys;
  };

  static std::uint64_t bucket_id(Channel channel, int context) noexcept {
    return (static_cast<std::uint64_t>(channel) << 32) |
           static_cast<std::uint32_t>(context);
  }
  static std::uint64_t exact_id(int src, int tag) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  /// Lowest-seq envelope with seq >= floor admitted by any key (and the
  /// residual), or null. Exact keys take their FIFO; each bucket that
  /// wildcard keys name is walked once, testing all of its wildcard keys
  /// per node, and every walk stops at the best seq found so far.
  Node* find_any(std::span<const MatchKey> keys, const Residual* residual,
                 std::uint64_t floor);

  /// Queue one envelope (lock held); true when a waiter's key admits it.
  bool enqueue(Envelope&& envelope);

  /// Unlink the found envelope from both lists, recycle its node and return
  /// the envelope.
  Envelope extract(Node* node);

  /// Split an aggregate envelope into per-message sub-envelopes (one lock
  /// acquisition, one wakeup). Faulted aggregates fan out into faulted,
  /// payload-less tombstones — one per logical message.
  void push_aggregate(Envelope envelope);

  void throw_if_poisoned() const;

  /// Blocking search shared by wait_extract and wait_present: run
  /// find_any, advancing the floor watermark past everything already
  /// examined, and sleep between attempts. Returns the match.
  Node* wait_match(std::unique_lock<std::mutex>& lock,
                   std::span<const MatchKey> keys, const Residual* residual);

  mutable std::mutex mutex_;
  /// Scheduler-aware: a fiber waiting here parks instead of blocking its
  /// worker thread (see rt/sched.hpp).
  sched::WaitCv arrived_;
  std::unordered_map<std::uint64_t, Bucket> buckets_;
  /// Recycled nodes (linked through Node::next).
  Node* free_nodes_ = nullptr;
  /// Stamp of the current find_any call, for Bucket::walked_by.
  std::uint64_t searches_ = 0;
  std::vector<const Waiter*> waiters_;
  std::uint64_t next_seq_ = 0;
  std::size_t size_ = 0;
  std::function<bool()> poisoned_;
  WildcardGate wildcard_gate_;
  ExtractTap extract_tap_;
};

}  // namespace cid::rt
