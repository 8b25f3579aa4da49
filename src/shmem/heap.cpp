#include "shmem/heap.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>

#include "common/error.hpp"

namespace cid::shmem {

namespace {
constexpr std::size_t kAlignment = 16;

std::size_t align_up(std::size_t value) {
  return (value + kAlignment - 1) & ~(kAlignment - 1);
}
}  // namespace

SymmetricHeap::SymmetricHeap(int npes, std::size_t capacity)
    : capacity_(align_up(capacity)),
      map_bytes_(static_cast<std::size_t>(npes) * capacity_),
      mapping_(nullptr),
      pes_(npes),
      calls_per_pe_(npes, 0) {
  CID_REQUIRE(npes > 0 && capacity > 0, ErrorCode::InvalidArgument,
              "symmetric heap needs at least one PE and a nonzero capacity");
  // Zero pages from the kernel: synchronization flags handed out by the
  // directive layer must read 0 before the first remote put, without any
  // racy local initialization after allocation. No page is touched here,
  // so a PE pays only for the pages it uses. MAP_NORESERVE: the heap is
  // sized for the worst case, not committed up front.
  void* mapping = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  CID_REQUIRE(mapping != MAP_FAILED, ErrorCode::RuntimeFault,
              "symmetric heap mmap of " + std::to_string(map_bytes_) +
                  " bytes failed");
  mapping_ = static_cast<std::byte*>(mapping);
}

SymmetricHeap::~SymmetricHeap() { ::munmap(mapping_, map_bytes_); }

int SymmetricHeap::checked_pe(int pe) const {
  CID_REQUIRE(pe >= 0 && static_cast<std::size_t>(pe) < pes_.size(),
              ErrorCode::InvalidArgument,
              "PE " + std::to_string(pe) + " is outside the symmetric heap");
  return pe;
}

void* SymmetricHeap::allocate(int pe, std::size_t bytes) {
  CID_REQUIRE(bytes > 0, ErrorCode::InvalidArgument,
              "shmem allocation of zero bytes");
  std::lock_guard<std::mutex> lock(mutex_);
  auto& state = pes_.at(pe);
  const std::size_t call_index = calls_per_pe_.at(pe)++;
  if (call_index < allocation_log_.size()) {
    CID_REQUIRE(allocation_log_[call_index] == bytes, ErrorCode::RuntimeFault,
                "asymmetric shmem allocation: PE " + std::to_string(pe) +
                    " requested " + std::to_string(bytes) + " bytes, another "
                    "PE requested " +
                    std::to_string(allocation_log_[call_index]) +
                    " at the same allocation index");
  } else {
    CID_REQUIRE(call_index == allocation_log_.size(), ErrorCode::RuntimeFault,
                "shmem allocation sequence out of order");
    allocation_log_.push_back(bytes);
  }
  const std::size_t offset = state.allocated;
  const std::size_t padded = align_up(bytes);
  CID_REQUIRE(offset + padded <= capacity_ - shared_used_,
              ErrorCode::RuntimeFault,
              "symmetric heap exhausted (capacity " +
                  std::to_string(capacity_) + " bytes)");
  state.allocated = offset + padded;
  return base(pe) + offset;
}

void* SymmetricHeap::shared_allocate(int pe, const std::string& key,
                                     std::size_t bytes) {
  CID_REQUIRE(bytes > 0, ErrorCode::InvalidArgument,
              "shmem shared allocation of zero bytes");
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = shared_offsets_.find(key);
  if (it == shared_offsets_.end()) {
    const std::size_t padded = align_up(bytes);
    shared_used_ += padded;
    CID_REQUIRE(shared_used_ <= capacity_, ErrorCode::RuntimeFault,
                "symmetric heap shared arena exhausted");
    const std::size_t offset = capacity_ - shared_used_;
    // The down-growing internal arena must not collide with user blocks.
    for (const auto& state : pes_) {
      CID_REQUIRE(state.allocated <= offset, ErrorCode::RuntimeFault,
                  "symmetric heap exhausted (user + internal allocations "
                  "collide)");
    }
    it = shared_offsets_.emplace(key, offset).first;
  }
  return base(checked_pe(pe)) + it->second;
}

bool SymmetricHeap::contains(int pe, const void* ptr) const noexcept {
  const auto* p = static_cast<const std::byte*>(ptr);
  return p >= base(pe) && p < base(pe) + capacity_;
}

std::byte* SymmetricHeap::translate(int pe, const void* local, int target_pe,
                                    std::size_t bytes) const {
  // The mapping never moves, so no lock: this reads nothing mutable.
  const auto* p = static_cast<const std::byte*>(local);
  const std::byte* mine = base(checked_pe(pe));
  CID_REQUIRE(p >= mine && bytes <= capacity_ &&
                  p <= mine + (capacity_ - bytes),
              ErrorCode::InvalidArgument,
              "address is not a symmetric heap object of this PE");
  return base(checked_pe(target_pe)) + offset_in(pe, p);
}

std::size_t SymmetricHeap::allocated(int pe) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pes_.at(pe).allocated;
}

void SymmetricHeap::record_put(int pe, int target_pe,
                               simnet::SimTime delivery) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& target = pes_.at(target_pe);
  target.incoming_max = std::max(target.incoming_max, delivery);
  auto& source = pes_.at(pe);
  source.outgoing_max = std::max(source.outgoing_max, delivery);
}

simnet::SimTime SymmetricHeap::incoming_max(int pe) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pes_.at(pe).incoming_max;
}

void SymmetricHeap::reset_incoming(int pe) {
  std::lock_guard<std::mutex> lock(mutex_);
  pes_.at(pe).incoming_max = 0.0;
}

void SymmetricHeap::raise_fence_floor(int pe) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& state = pes_.at(pe);
  state.fence_floor = std::max(state.fence_floor, state.outgoing_max);
}

simnet::SimTime SymmetricHeap::fence_floor(int pe) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pes_.at(pe).fence_floor;
}

void SymmetricHeap::record_word_write(int target_pe, const void* word,
                                      std::uint64_t value,
                                      simnet::SimTime delivery) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& target = pes_.at(target_pe);
  target.word_writes[offset_in(target_pe, word)].push_back({value, delivery});
}

std::optional<simnet::SimTime> SymmetricHeap::consume_word_write(
    int pe, const void* word,
    const std::function<bool(std::uint64_t)>& satisfied) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& state = pes_.at(pe);
  auto it = state.word_writes.find(offset_in(pe, word));
  if (it == state.word_writes.end()) return std::nullopt;
  auto& history = it->second;
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (satisfied(history[i].value)) {
      const simnet::SimTime delivery = history[i].delivery;
      history.erase(history.begin(),
                    history.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      if (history.empty()) state.word_writes.erase(it);
      return delivery;
    }
  }
  return std::nullopt;
}

simnet::SimTime SymmetricHeap::outgoing_max(int pe) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pes_.at(pe).outgoing_max;
}

namespace {
std::atomic<std::size_t> g_default_capacity{SymmetricHeap::kDefaultCapacity};
}  // namespace

void SymmetricHeap::set_default_capacity(std::size_t bytes) noexcept {
  g_default_capacity.store(bytes);
}

std::size_t SymmetricHeap::default_capacity() noexcept {
  return g_default_capacity.load();
}

SymmetricHeap& SymmetricHeap::of_world(rt::RankCtx& ctx) {
  // The symmetric heap is one in-process allocation every rank addresses
  // directly; ranks in other OS processes cannot map it.
  ctx.world().require_single_process("the shmem symmetric heap");
  auto heap = ctx.world().shared_object<SymmetricHeap>(
      "shmem.heap", ctx.nranks(), default_capacity());
  return *heap;
}

}  // namespace cid::shmem
