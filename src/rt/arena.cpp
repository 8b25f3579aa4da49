#include "rt/arena.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <utility>

namespace cid::rt {

struct PayloadArena::Front {
  explicit Front(PayloadArena& owner) : arena(owner) {
    std::lock_guard<std::mutex> lock(arena.fronts_mutex_);
    arena.fronts_.push_back(this);
    thread_front_ = this;
  }
  Front(const Front&) = delete;
  Front& operator=(const Front&) = delete;

  /// Thread exit: drain into the global bins and fold the counters into
  /// retired_. From here on this thread's calls go straight to the global
  /// bins, so the drain below cannot push back into the bin it empties.
  ~Front() {
    thread_front_ = nullptr;
    thread_front_gone_ = true;
    std::lock_guard<std::mutex> lock(arena.fronts_mutex_);
    for (int b = 0; b < kFrontBins; ++b) arena.spill(*this, b, bins[b].size());
    arena.park_nodes(nodes);
    nodes.clear();
    for (auto member : {&Counters::acquires, &Counters::reuses,
                        &Counters::releases, &Counters::retained,
                        &Counters::node_acquires, &Counters::node_reuses}) {
      (arena.retired_.*member)
          .fetch_add((counters.*member).load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    arena.fronts_.erase(
        std::find(arena.fronts_.begin(), arena.fronts_.end(), this));
  }

  void add_parked(std::size_t bytes) {
    parked.store(parked.load(std::memory_order_relaxed) + bytes,
                 std::memory_order_relaxed);
  }
  void remove_parked(std::size_t bytes) {
    parked.store(parked.load(std::memory_order_relaxed) - bytes,
                 std::memory_order_relaxed);
  }

  PayloadArena& arena;
  std::vector<ByteBuffer> bins[kFrontBins];
  std::vector<PayloadNode*> nodes;
  Counters counters;
  /// Capacity parked in `bins`, for stats(); written only by the owner.
  std::atomic<std::uint64_t> parked{0};
};

thread_local PayloadArena::Front* PayloadArena::thread_front_ = nullptr;
thread_local bool PayloadArena::thread_front_gone_ = false;

PayloadArena& PayloadArena::global() {
  static PayloadArena* arena = new PayloadArena();  // leaked by design
  return *arena;
}

int PayloadArena::bin_index(std::size_t bytes) noexcept {
  if (bytes > kMaxBinnedBytes) return -1;
  const std::size_t clamped = bytes < kMinBinBytes ? kMinBinBytes : bytes;
  // Index of the smallest power-of-two class holding `clamped` bytes.
  const int log2 = std::bit_width(clamped - 1);
  return log2 - 6;  // class 2^6 -> bin 0
}

PayloadArena::Front* PayloadArena::front() {
  if (thread_front_ != nullptr) return thread_front_;
  if (thread_front_gone_) return nullptr;
  // Only the global arena exists (the constructor is private), so one front
  // per thread serves it.
  thread_local Front owned(*this);
  return thread_front_;
}

void PayloadArena::count(Front* front,
                         std::atomic<std::uint64_t> Counters::*counter) {
  if (front != nullptr) {
    auto& mine = front->counters.*counter;
    mine.store(mine.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  } else {
    (retired_.*counter).fetch_add(1, std::memory_order_relaxed);
  }
}

std::size_t PayloadArena::park(int bin_idx, std::span<ByteBuffer> buffers) {
  std::size_t kept = 0;
  Bin& bin = bins_[bin_idx];
  std::lock_guard<std::mutex> lock(bin.mutex);
  for (ByteBuffer& buffer : buffers) {
    if (bin.free_bytes + buffer.capacity() > kMaxRetainedPerBin) continue;
    bin.free_bytes += buffer.capacity();
    bin.free.push_back(std::move(buffer));
    ++kept;
  }
  return kept;
}

bool PayloadArena::take(int bin_idx, ByteBuffer& out) {
  Bin& bin = bins_[bin_idx];
  std::lock_guard<std::mutex> lock(bin.mutex);
  if (bin.free.empty()) return false;
  out = std::move(bin.free.back());
  bin.free.pop_back();
  bin.free_bytes -= out.capacity();
  return true;
}

void PayloadArena::spill(Front& front, int bin_idx, std::size_t count) {
  auto& local = front.bins[bin_idx];
  const std::span<ByteBuffer> oldest(local.data(), count);
  std::size_t bytes = 0;
  for (const ByteBuffer& buffer : oldest) bytes += buffer.capacity();
  park(bin_idx, oldest);
  // Frees what the cap turned away.
  local.erase(local.begin(),
              local.begin() + static_cast<std::ptrdiff_t>(count));
  front.remove_parked(bytes);
}

void PayloadArena::refill(Front& front, int bin_idx) {
  auto& local = front.bins[bin_idx];
  std::size_t moved = 0;
  {
    Bin& bin = bins_[bin_idx];
    std::lock_guard<std::mutex> lock(bin.mutex);
    const std::size_t batch = std::min(kFrontBatch, front_depth(bin_idx) / 2);
    for (std::size_t n = 0; n < batch && !bin.free.empty(); ++n) {
      moved += bin.free.back().capacity();
      local.push_back(std::move(bin.free.back()));
      bin.free.pop_back();
    }
    bin.free_bytes -= moved;
  }
  front.add_parked(moved);
}

void PayloadArena::park_nodes(std::span<PayloadNode* const> nodes) {
  auto next = nodes.begin();
  {
    std::lock_guard<std::mutex> lock(nodes_mutex_);
    const std::size_t room = kMaxFreeNodes - free_nodes_.size();
    const std::size_t kept = std::min(room, nodes.size());
    free_nodes_.insert(free_nodes_.end(), next, next + kept);
    next += static_cast<std::ptrdiff_t>(kept);
  }
  for (; next != nodes.end(); ++next) delete *next;
}

ByteBuffer PayloadArena::acquire(std::size_t size) {
  Front* const front = this->front();
  count(front, &Counters::acquires);
  const int bin_idx = bin_index(size);
  if (bin_idx < 0) return ByteBuffer(size);
  ByteBuffer buffer;
  if (front != nullptr && bin_idx < kFrontBins) {
    auto& local = front->bins[bin_idx];
    if (local.empty()) refill(*front, bin_idx);
    if (local.empty()) return ByteBuffer(size);
    buffer = std::move(local.back());
    local.pop_back();
    front->remove_parked(buffer.capacity());
  } else if (!take(bin_idx, buffer)) {
    return ByteBuffer(size);
  }
  count(front, &Counters::reuses);
  buffer.clear();
  buffer.resize(size);  // value-initialized, same as a fresh buffer
  return buffer;
}

void PayloadArena::release(ByteBuffer&& buffer) {
  Front* const front = this->front();
  count(front, &Counters::releases);
  const std::size_t capacity = buffer.capacity();
  if (capacity == 0) return;
  const int bin_idx = bin_index(capacity);
  if (bin_idx < 0) return;  // oversized: let the allocator have it back
  if (front != nullptr && bin_idx < kFrontBins) {
    auto& local = front->bins[bin_idx];
    if (local.size() >= front_depth(bin_idx)) {
      spill(*front, bin_idx, local.size() / 2);
    }
    local.push_back(std::move(buffer));
    front->add_parked(capacity);
  } else if (park(bin_idx, std::span<ByteBuffer>(&buffer, 1)) == 0) {
    return;
  }
  count(front, &Counters::retained);
}

PayloadNode* PayloadArena::acquire_node() {
  Front* const front = this->front();
  count(front, &Counters::node_acquires);
  PayloadNode* node = nullptr;
  if (front != nullptr) {
    auto& local = front->nodes;
    if (local.empty()) {
      std::lock_guard<std::mutex> lock(nodes_mutex_);
      const std::size_t batch = std::min(kFrontBatch, free_nodes_.size());
      local.insert(local.end(), free_nodes_.end() - batch, free_nodes_.end());
      free_nodes_.resize(free_nodes_.size() - batch);
    }
    if (!local.empty()) {
      node = local.back();
      local.pop_back();
    }
  } else {
    std::lock_guard<std::mutex> lock(nodes_mutex_);
    if (!free_nodes_.empty()) {
      node = free_nodes_.back();
      free_nodes_.pop_back();
    }
  }
  if (node == nullptr) return new PayloadNode();
  count(front, &Counters::node_reuses);
  node->refs.store(1, std::memory_order_relaxed);
  return node;
}

void PayloadArena::release_node(PayloadNode* node) {
  release(std::move(node->bytes));
  node->bytes = ByteBuffer();
  Front* const front = this->front();
  if (front == nullptr) {
    park_nodes(std::span<PayloadNode* const>(&node, 1));
    return;
  }
  auto& local = front->nodes;
  if (local.size() >= kFrontNodes) {
    const auto half =
        local.begin() + static_cast<std::ptrdiff_t>(kFrontNodes / 2);
    park_nodes(std::span<PayloadNode* const>(local.begin(), half));
    local.erase(local.begin(), half);
  }
  local.push_back(node);
}

ArenaStats PayloadArena::stats() const {
  ArenaStats s;
  std::uint64_t parked = 0;
  std::lock_guard<std::mutex> fronts_lock(fronts_mutex_);
  const auto add = [&s](const Counters& c) {
    s.acquires += c.acquires.load(std::memory_order_relaxed);
    s.reuses += c.reuses.load(std::memory_order_relaxed);
    s.releases += c.releases.load(std::memory_order_relaxed);
    s.retained += c.retained.load(std::memory_order_relaxed);
    s.node_acquires += c.node_acquires.load(std::memory_order_relaxed);
    s.node_reuses += c.node_reuses.load(std::memory_order_relaxed);
  };
  add(retired_);
  for (const Front* front : fronts_) {
    add(front->counters);
    parked += front->parked.load(std::memory_order_relaxed);
  }
  for (const Bin& bin : bins_) {
    std::lock_guard<std::mutex> lock(const_cast<Bin&>(bin).mutex);
    parked += bin.free_bytes;
  }
  s.retained_bytes = parked;
  return s;
}

}  // namespace cid::rt
