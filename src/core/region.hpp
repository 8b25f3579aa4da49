// The embedded (runtime) form of the communication directives.
//
// Pragma form (paper Listing 3):            Embedded form:
//   #pragma comm_parameters \                 cid::core::comm_parameters(
//       sender(rank-1) receiver(rank+1) \         Clauses()
//       sendwhen(rank%2==0) \                         .sender("rank-1")
//       receivewhen(rank%2==1) \                      .receiver("rank+1")
//       count(size) max_comm_iter(n) \                .sendwhen("rank%2==0")
//       place_sync(END_PARAM_REGION) \                .receivewhen("rank%2==1")
//   {                                                 .count("size").let("size", size)
//     for (p = 0; p < n; p++)                         .max_comm_iter(n)
//       #pragma comm_p2p sbuf(&buf1[p]) \             .place_sync(SyncPlacement::EndParamRegion),
//           rbuf(&buf2[p])                        [&](Region& region) {
//       { }                                           for (p = 0; p < n; p++)
//                                                       region.p2p(Clauses()
//   }                                                      .sbuf(buf(&buf1[p])).rbuf(buf(&buf2[p])));
//                                                   });
//
// Semantics implemented (see DESIGN.md §5): clause inheritance, participation
// guards, count inference, automatic datatype handling with per-scope reuse,
// target retargeting (MPI 2-sided / MPI 1-sided / SHMEM), consolidated
// synchronization with place_sync control, and communication/computation
// overlap via the optional block argument of p2p().
#pragma once

#include <source_location>

#include "common/function_ref.hpp"
#include "core/clauses.hpp"

namespace cid::core {

namespace detail {
class RegionImpl;
}

/// Handle to an open comm_parameters region, passed to the region body.
class Region {
 public:
  /// Execute one comm_p2p directive (clauses inherit from the region). The
  /// optional overlap block runs while the transfers are in flight, before
  /// any synchronization (paper Listing 7).
  void p2p(const Clauses& clauses, FunctionRef<void()> overlap = {},
           std::source_location site = std::source_location::current());

 private:
  friend void comm_parameters(const Clauses&, FunctionRef<void(Region&)>,
                              std::source_location);
  explicit Region(detail::RegionImpl& impl) : impl_(&impl) {}
  detail::RegionImpl* impl_;
};

/// Execute a comm_parameters region: clause assertions apply to every p2p
/// inside `body`; synchronization is consolidated per place_sync (default:
/// END_PARAM_REGION).
void comm_parameters(
    const Clauses& clauses, FunctionRef<void(Region&)> body,
    std::source_location site = std::source_location::current());

/// Standalone comm_p2p (no enclosing region): transfers are synchronized at
/// the end of the directive, after the optional overlap block.
void comm_p2p(const Clauses& clauses, FunctionRef<void()> overlap = {},
              std::source_location site = std::source_location::current());

/// Complete any synchronization deferred across regions by place_sync
/// (BEGIN_NEXT_PARAM_REGION / END_ADJ_PARAM_REGIONS) when no further region
/// follows.
void comm_flush();

}  // namespace cid::core
