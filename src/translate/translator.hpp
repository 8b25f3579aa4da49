// Source-to-source translation of the communication directives: the role
// Open64 plays in the paper. The translator consumes C/C++ source containing
// #pragma comm_parameters / #pragma comm_p2p and emits source in which every
// directive has been replaced by the message passing calls of the selected
// target library (miniMPI two-sided, miniMPI one-sided, or miniSHMEM), with
// clause inheritance resolved statically, count inference emitted as
// array-extent expressions, automatic datatype handling, and consolidated
// synchronization per place_sync.
//
// Scope, matching the paper's structured-region design: a directive must be
// followed by a statement or a brace-delimited block (the overlap region for
// comm_p2p, the clause scope for comm_parameters). Pragma lines may be
// continued with trailing backslashes. Adjacent comm_parameters regions for
// BEGIN_NEXT_PARAM_REGION / END_ADJ_PARAM_REGIONS must be lexical siblings.
#pragma once

#include <string>
#include <string_view>

#include "common/error.hpp"
#include "core/clauses.hpp"

namespace cid::translate {

struct Options {
  /// Target used when a directive has no target clause.
  core::Target default_target = core::Target::Mpi2Side;
  /// Expression for the communicator in generated MPI calls.
  std::string comm_expr = "::cid::mpi::Comm::world()";
  /// Message tag used by generated point-to-point calls.
  int tag = 2000;
  /// Emit explanatory comments in the generated code.
  bool annotate = true;
};

/// Statistics of one translation.
struct Summary {
  int p2p_directives = 0;
  int parameter_regions = 0;
  int consolidated_syncs = 0;
  /// Regions carrying a reliability clause, lowered through the embedded
  /// runtime API (the protocol is a runtime service, not a call pattern).
  int reliable_regions = 0;
};

struct Translation {
  std::string source;
  Summary summary;
};

/// Translate a whole source buffer. Fails with a "line N: " message on the
/// first scan issue (malformed pragma, structural problem, broken static
/// clause rule) and on the translator's own rules for a comm_collective.
Result<Translation> translate_source(std::string_view source,
                                     const Options& options = {});

}  // namespace cid::translate
