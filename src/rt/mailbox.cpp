#include "rt/mailbox.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.hpp"
#include "rt/agg.hpp"

namespace cid::rt {

namespace {

/// First node of a seq-ordered list with seq >= floor. Arrivals append at
/// the tail and a blocked wait's floor sits just below the newest ones, so
/// the search walks back from the tail.
template <typename Node>
Node* first_at_or_after(Node* head, Node* tail, std::uint64_t floor,
                        Node* Node::*prev) noexcept {
  if (floor == 0) return head;
  Node* first = nullptr;
  for (Node* node = tail; node != nullptr && node->envelope.seq >= floor;
       node = node->*prev) {
    first = node;
  }
  return first;
}

}  // namespace

Mailbox::~Mailbox() {
  for (auto& [id, bucket] : buckets_) {
    (void)id;
    for (Node* node = bucket.head; node != nullptr;) {
      delete std::exchange(node, node->next);
    }
  }
  while (free_nodes_ != nullptr) {
    delete std::exchange(free_nodes_, free_nodes_->next);
  }
}

std::size_t Mailbox::FifoIndex::home(std::uint64_t id) const noexcept {
  // Fibonacci hashing spreads ids that differ only in a few src/tag bits.
  const std::uint64_t mixed = id * 0x9E3779B97F4A7C15ull;
  return static_cast<std::size_t>(mixed ^ (mixed >> 32)) &
         (slots_.size() - 1);
}

Mailbox::Fifo* Mailbox::FifoIndex::find(std::uint64_t id) noexcept {
  if (slots_.empty()) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(id);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.fifo.head == nullptr) return nullptr;
    if (slot.id == id) return &slot.fifo;
  }
}

Mailbox::Fifo& Mailbox::FifoIndex::at(std::uint64_t id) {
  if (Fifo* fifo = find(id)) return *fifo;
  if ((used_ + 1) * 2 > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(id);
  while (slots_[i].fifo.head != nullptr) i = (i + 1) & mask;
  slots_[i].id = id;
  ++used_;
  return slots_[i].fifo;  // the caller links a node in before any other call
}

void Mailbox::FifoIndex::erase(std::uint64_t id) noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = home(id);
  while (slots_[hole].id != id || slots_[hole].fifo.head == nullptr) {
    hole = (hole + 1) & mask;
  }
  // Backward shift: pull later entries of the probe run into the hole when
  // their home does not lie cyclically in (hole, j].
  for (std::size_t j = (hole + 1) & mask; slots_[j].fifo.head != nullptr;
       j = (j + 1) & mask) {
    const std::size_t k = home(slots_[j].id);
    const bool movable =
        j > hole ? (k <= hole || k > j) : (k <= hole && k > j);
    if (movable) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].fifo = Fifo{};
  --used_;
}

void Mailbox::FifoIndex::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.fifo.head == nullptr) continue;
    std::size_t i = home(slot.id);
    while (slots_[i].fifo.head != nullptr) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

void Mailbox::push(Envelope envelope) {
  if (envelope.channel == Channel::Internal &&
      envelope.context == agg::kContext) {
    push_aggregate(std::move(envelope));
    return;
  }
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    wake = enqueue(std::move(envelope));
  }
  if (wake) arrived_.notify_all();
}

bool Mailbox::enqueue(Envelope&& envelope) {
  envelope.seq = next_seq_++;
  bool wake = false;
  for (const Waiter* waiter : waiters_) {
    for (const MatchKey& key : waiter->keys) {
      if (key.admits(envelope)) {
        wake = true;
        break;
      }
    }
    if (wake) break;
  }
  Node* node = free_nodes_ != nullptr
                   ? std::exchange(free_nodes_, free_nodes_->next)
                   : new Node;
  Bucket& bucket = buckets_[bucket_id(envelope.channel, envelope.context)];
  Fifo& fifo = bucket.fifos.at(exact_id(envelope.src, envelope.tag));
  node->envelope = std::move(envelope);
  node->bucket = &bucket;
  node->prev = bucket.tail;
  node->next = nullptr;
  (bucket.tail != nullptr ? bucket.tail->next : bucket.head) = node;
  bucket.tail = node;
  node->fifo_prev = fifo.tail;
  node->fifo_next = nullptr;
  (fifo.tail != nullptr ? fifo.tail->fifo_next : fifo.head) = node;
  fifo.tail = node;
  ++size_;
  return wake;
}

void Mailbox::push_aggregate(Envelope envelope) {
  // Decode outside the lock: only the count/header words are read here, the
  // payload bytes are copied per-sub under the lock below.
  std::vector<agg::Sub> subs;
  const ByteSpan wire = envelope.payload.span();
  CID_REQUIRE(agg::decode(wire, /*headers_only=*/envelope.faulted, subs),
              ErrorCode::RuntimeFault, "malformed aggregate envelope");
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const agg::Sub& sub : subs) {
      Envelope e;
      e.src = envelope.src;
      e.tag = sub.tag;
      e.channel = Channel::MpiPointToPoint;
      e.context = sub.context;
      e.available_at = envelope.available_at;
      e.faulted = envelope.faulted;
      if (!envelope.faulted) {
        e.payload = Payload::copy_of(wire.subspan(sub.offset, sub.bytes));
      }
      wake = enqueue(std::move(e)) || wake;
    }
  }
  if (wake) arrived_.notify_all();
}

Mailbox::Node* Mailbox::find_any(std::span<const MatchKey> keys,
                                 const Residual* residual,
                                 std::uint64_t floor) {
  // Lowest seq across all keys, so multi-key extraction reproduces the
  // arrival-order semantics of a single scan over the whole queue. Every
  // walk stops at the best candidate so far: nothing past it can win.
  Node* best = nullptr;
  const auto can_win = [&best](const Node* node) {
    return best == nullptr || node->envelope.seq < best->envelope.seq;
  };
  const auto accepts = [residual](const Envelope& e) {
    return residual == nullptr || (*residual)(e);
  };
  bool wildcards = false;
  for (const MatchKey& key : keys) {
    if (!key.exact()) {
      wildcards = true;
      continue;
    }
    const auto bucket = buckets_.find(bucket_id(key.channel, key.context));
    if (bucket == buckets_.end()) continue;
    const Fifo* fifo = bucket->second.fifos.find(exact_id(key.src, key.tag));
    if (fifo == nullptr) continue;
    for (Node* node =
             first_at_or_after(fifo->head, fifo->tail, floor, &Node::fifo_prev);
         node != nullptr && can_win(node); node = node->fifo_next) {
      if (key.admits(node->envelope) && accepts(node->envelope)) {
        best = node;
        break;
      }
    }
  }
  if (!wildcards) return best;
  // One walk per bucket: the first wildcard key naming a bucket walks it and
  // tests that key and every later wildcard key on each node (earlier
  // wildcard keys name other buckets, or this one would be walked already).
  const std::uint64_t search = ++searches_;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].exact()) continue;
    const auto found =
        buckets_.find(bucket_id(keys[i].channel, keys[i].context));
    if (found == buckets_.end() || found->second.walked_by == search) continue;
    Bucket& bucket = found->second;
    bucket.walked_by = search;
    for (Node* node =
             first_at_or_after(bucket.head, bucket.tail, floor, &Node::prev);
         node != nullptr && can_win(node); node = node->next) {
      const Envelope& e = node->envelope;
      if (wildcard_gate_ && !wildcard_gate_(e)) continue;
      bool admitted = false;
      for (std::size_t j = i; j < keys.size() && !admitted; ++j) {
        admitted = !keys[j].exact() && keys[j].admits(e);
      }
      if (admitted && accepts(e)) {
        best = node;
        break;
      }
    }
  }
  return best;
}

Envelope Mailbox::extract(Node* node) {
  Bucket& bucket = *node->bucket;
  (node->prev != nullptr ? node->prev->next : bucket.head) = node->next;
  (node->next != nullptr ? node->next->prev : bucket.tail) = node->prev;
  if (node->fifo_prev == nullptr || node->fifo_next == nullptr) {
    const std::uint64_t id = exact_id(node->envelope.src, node->envelope.tag);
    if (node->fifo_prev == nullptr && node->fifo_next == nullptr) {
      bucket.fifos.erase(id);
    } else {
      Fifo* fifo = bucket.fifos.find(id);
      if (node->fifo_prev == nullptr) fifo->head = node->fifo_next;
      if (node->fifo_next == nullptr) fifo->tail = node->fifo_prev;
    }
  }
  if (node->fifo_prev != nullptr) node->fifo_prev->fifo_next = node->fifo_next;
  if (node->fifo_next != nullptr) node->fifo_next->fifo_prev = node->fifo_prev;
  Envelope out = std::move(node->envelope);
  node->next = std::exchange(free_nodes_, node);
  --size_;
  if (extract_tap_) extract_tap_(out);
  return out;
}

void Mailbox::throw_if_poisoned() const {
  if (poisoned_ && poisoned_()) {
    throw CidError(ErrorCode::RuntimeFault,
                   "SPMD world poisoned while waiting for a message");
  }
}

Mailbox::Node* Mailbox::wait_match(std::unique_lock<std::mutex>& lock,
                                   std::span<const MatchKey> keys,
                                   const Residual* residual) {
  std::uint64_t floor = 0;
  for (;;) {
    if (Node* found = find_any(keys, residual, floor)) return found;
    // Everything below next_seq_ was examined with these keys and can be
    // skipped on the next pass — unless a wildcard gate is installed, in
    // which case a rejected envelope may be *released* later and must be
    // rescanned (exploration mailboxes are tiny, so the lost watermark is
    // cheap).
    if (!wildcard_gate_) floor = next_seq_;
    throw_if_poisoned();
    Waiter waiter{keys};
    waiters_.push_back(&waiter);
    arrived_.wait(lock);
    waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &waiter));
  }
}

Envelope Mailbox::wait_extract(std::span<const MatchKey> keys,
                               const Residual* residual) {
  std::unique_lock<std::mutex> lock(mutex_);
  return extract(wait_match(lock, keys, residual));
}

std::optional<Envelope> Mailbox::wait_extract_for(
    std::span<const MatchKey> keys, double seconds,
    const Residual* residual) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::max(seconds, 0.0)));
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t floor = 0;
  for (;;) {
    if (Node* found = find_any(keys, residual, floor)) return extract(found);
    if (!wildcard_gate_) floor = next_seq_;  // see wait_match
    throw_if_poisoned();
    Waiter waiter{keys};
    waiters_.push_back(&waiter);
    const bool notified = arrived_.wait_until(lock, deadline);
    waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &waiter));
    if (!notified) {
      throw_if_poisoned();
      // An arrival can race the timeout: scan once more before giving up.
      if (Node* found = find_any(keys, residual, floor)) {
        return extract(found);
      }
      return std::nullopt;
    }
  }
}

std::optional<Envelope> Mailbox::try_extract(std::span<const MatchKey> keys,
                                             const Residual* residual) {
  std::lock_guard<std::mutex> lock(mutex_);
  Node* found = find_any(keys, residual, /*floor=*/0);
  if (found == nullptr) return std::nullopt;
  return extract(found);
}

void Mailbox::wait_present(std::span<const MatchKey> keys,
                           const Residual* residual) {
  std::unique_lock<std::mutex> lock(mutex_);
  wait_match(lock, keys, residual);
}

bool Mailbox::probe(const MatchKey& key, const Residual* residual) {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_any(std::span<const MatchKey>(&key, 1), residual,
                  /*floor=*/0) != nullptr;
}

std::optional<Mailbox::Header> Mailbox::peek(const MatchKey& key,
                                             const Residual* residual) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Node* found =
      find_any(std::span<const MatchKey>(&key, 1), residual, /*floor=*/0);
  if (found == nullptr) return std::nullopt;
  const Envelope& e = found->envelope;
  return Header{e.src, e.tag, e.payload.size(), e.available_at};
}

std::size_t Mailbox::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

void Mailbox::set_explore_hooks(WildcardGate gate, ExtractTap tap) {
  std::lock_guard<std::mutex> lock(mutex_);
  wildcard_gate_ = std::move(gate);
  extract_tap_ = std::move(tap);
}

std::vector<Mailbox::HeldCandidate> Mailbox::held_candidates() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<HeldCandidate> held;
  if (!wildcard_gate_) return held;
  for (const Waiter* waiter : waiters_) {
    for (const MatchKey& key : waiter->keys) {
      if (key.exact()) continue;
      const auto bucket = buckets_.find(bucket_id(key.channel, key.context));
      if (bucket == buckets_.end()) continue;
      for (const Node* node = bucket->second.head; node != nullptr;
           node = node->next) {
        const Envelope& envelope = node->envelope;
        if (!key.admits(envelope) || wildcard_gate_(envelope)) continue;
        held.push_back({envelope.explore_uid, envelope.src, envelope.tag,
                        envelope.context});
      }
    }
  }
  std::sort(held.begin(), held.end(),
            [](const HeldCandidate& a, const HeldCandidate& b) {
              return a.uid < b.uid;
            });
  held.erase(std::unique(held.begin(), held.end(),
                         [](const HeldCandidate& a, const HeldCandidate& b) {
                           return a.uid == b.uid;
                         }),
             held.end());
  return held;
}

void Mailbox::interrupt_all() {
  // Pair with waiters, which hold mutex_ from their poison check until they
  // are registered on the cv: the bracket keeps the poison store from
  // landing between the two, which would make this notify a no-op.
  { std::lock_guard<std::mutex> lock(mutex_); }
  arrived_.notify_all();
}

}  // namespace cid::rt
