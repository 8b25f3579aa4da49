// miniSHMEM: the OpenSHMEM-style one-sided API the directive's
// TARGET_COMM_SHMEM lowering generates. PEs are the ranks of the surrounding
// SPMD region; buffers handed to put/get must live in the symmetric heap
// (shmem::malloc_sym), matching the allocation requirement the paper states
// for SHMEM-targeted sbuf/rbuf clauses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "shmem/heap.hpp"

namespace cid::shmem {

int my_pe();
int n_pes();

/// Collective symmetric allocation (every PE, same sizes, same order). The
/// block reads 0: the heap's zero pages from the kernel, never reused.
void* malloc_sym(std::size_t bytes);

/// Typed symmetric allocation of `count` elements of T.
template <typename T>
T* malloc_of(std::size_t count) {
  return static_cast<T*>(malloc_sym(count * sizeof(T)));
}

/// True when `ptr` is a symmetric-heap address on the calling PE (what the
/// directive layer uses to validate SHMEM-targeted buffers).
bool is_symmetric(const void* ptr);

/// Runtime-internal: key-coordinated symmetric allocation of `count` 64-bit
/// flag words. Every PE asking for the same key gets the same heap offset,
/// independent of call order, and PEs that never ask need not participate —
/// unlike malloc_sym's collective ordering discipline. Reads 0 until written:
/// zero pages from the kernel.
std::uint64_t* shared_flags(const std::string& key, std::size_t count);

/// shmem_putmem: copy `bytes` from local `source` into `dest` (a symmetric
/// address) on PE `pe`. Returns after local injection; remote completion is
/// observed via quiet()/barrier_all()/wait_until().
void putmem(void* dest, const void* source, std::size_t bytes, int pe);

/// Size-named puts, mirroring SHMEM's type-size call selection (the compiler
/// picks the one matching the buffer's element size — paper Section III-A).
void put8(void* dest, const void* source, std::size_t count, int pe);
void put16(void* dest, const void* source, std::size_t count, int pe);
void put32(void* dest, const void* source, std::size_t count, int pe);
void put64(void* dest, const void* source, std::size_t count, int pe);

/// Typed put of `count` elements.
template <typename T>
void put(T* dest, const T* source, std::size_t count, int pe) {
  putmem(dest, source, count * sizeof(T), pe);
}

/// 8-byte single-value put with release semantics — safe to use as a
/// completion flag observed by wait_until() on the target PE.
void put_value64(std::uint64_t* dest, std::uint64_t value, int pe);

/// shmem_getmem: blocking copy of `bytes` from `source` on PE `pe` into the
/// local `dest` (round-trip latency charged).
void getmem(void* dest, const void* source, std::size_t bytes, int pe);

/// shmem_fence: order my puts per destination (cheap; our transport already
/// delivers in order, the call charges the API cost).
void fence();

/// shmem_quiet: block until all my outgoing puts are complete on their
/// targets.
void quiet();

/// shmem_barrier_all: quiet + world barrier + incoming completion.
void barrier_all();

/// shmem_broadcast64-style broadcast: `root` PE's `source` (count 64-bit
/// words) lands in every PE's `dest` (symmetric). Collective over all PEs;
/// includes completion (every PE returns with the data in place).
void broadcast64(void* dest, const void* source, std::size_t count,
                 int root);

/// shmem_collect64-style gather-to-all: each PE contributes `count` 64-bit
/// words; `dest` (symmetric, n_pes*count words) receives every PE's block in
/// PE order on every PE.
void fcollect64(void* dest, const void* source, std::size_t count);

/// Comparison operator for wait_until.
enum class Cmp { Eq, Ne, Gt, Ge, Lt, Le };

/// shmem_wait_until on a 64-bit symmetric flag word written remotely with
/// put_value64. Blocks, then advances this PE's clock past the delivery time
/// of the satisfying put.
void wait_until(const std::uint64_t* ivar, Cmp cmp, std::uint64_t value);

/// wait_until with a virtual-time deadline of now + `timeout`. Returns true
/// when the condition held (clock advanced past the satisfying put, like
/// wait_until). Returns false — clock advanced to the deadline — when an
/// incoming put lands with a delivery time past the deadline while the
/// condition is still false. Deadlines are event-driven: only incoming
/// traffic can carry virtual time past the deadline, so with no incoming
/// puts at all this blocks like wait_until (absence of an event is
/// unobservable in virtual time).
bool wait_until_for(const std::uint64_t* ivar, Cmp cmp, std::uint64_t value,
                    simnet::SimTime timeout);

}  // namespace cid::shmem
