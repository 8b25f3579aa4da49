// Tests for the clause model: builder, inheritance (merge), validation
// rules, pragma parsing and clause construction from parsed pragmas.
#include <gtest/gtest.h>

#include "core/buffer.hpp"
#include "core/clauses.hpp"
#include "core/pragma.hpp"
#include "core/type_layout.hpp"

namespace {

using namespace cid::core;

// --- test fixtures for reflection ------------------------------------------

struct GoodScalars {
  int jmt;
  int jws;
  double xstart;
  double rmt;
  char header[80];
  double evec[3];
  int nspin;
};

struct HasPointer {
  int n;
  double* data;
};

struct Inner {
  int a;
};
struct HasNested {
  int n;
  Inner inner;
};

}  // namespace

CID_REFLECT_STRUCT(GoodScalars, jmt, jws, xstart, rmt, header, evec, nspin)
CID_REFLECT_STRUCT(HasPointer, n, data)
CID_REFLECT_STRUCT(HasNested, n, inner)

namespace {

TEST(TypeLayout, ReflectsFieldsWithOffsets) {
  const TypeLayout& layout = TypeLayoutOf<GoodScalars>::get();
  EXPECT_EQ(layout.name, "GoodScalars");
  EXPECT_EQ(layout.extent, sizeof(GoodScalars));
  ASSERT_EQ(layout.fields.size(), 7u);
  EXPECT_EQ(layout.fields[0].name, "jmt");
  EXPECT_EQ(layout.fields[0].offset, offsetof(GoodScalars, jmt));
  EXPECT_EQ(layout.fields[4].name, "header");
  EXPECT_EQ(layout.fields[4].count, 80u);
  EXPECT_EQ(layout.fields[4].type, cid::mpi::BasicType::Char);
  EXPECT_EQ(layout.fields[5].count, 3u);
  EXPECT_EQ(layout.fields[5].type, cid::mpi::BasicType::Double);
  EXPECT_TRUE(layout.validate().is_ok());
}

TEST(TypeLayout, PayloadSumsFieldBlocks) {
  const TypeLayout& layout = TypeLayoutOf<GoodScalars>::get();
  EXPECT_EQ(layout.payload_size(),
            2 * sizeof(int) + 2 * sizeof(double) + 80 + 3 * sizeof(double) +
                sizeof(int));
}

TEST(TypeLayout, ToDatatypeCommitsDerivedType) {
  auto datatype = TypeLayoutOf<GoodScalars>::get().to_datatype();
  ASSERT_TRUE(datatype.is_ok()) << datatype.status().to_string();
  EXPECT_TRUE(datatype.value().committed());
  EXPECT_EQ(datatype.value().extent(), sizeof(GoodScalars));
}

TEST(TypeLayout, PointerFieldRejected) {
  const auto status = TypeLayoutOf<HasPointer>::get().validate();
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), cid::ErrorCode::TypeError);
  EXPECT_NE(status.message().find("pointer"), std::string::npos);
}

TEST(TypeLayout, NestedCompositeRejected) {
  const auto status = TypeLayoutOf<HasNested>::get().validate();
  EXPECT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("nested"), std::string::npos);
}

// --- buffers ----------------------------------------------------------------

TEST(Buffer, ArrayCarriesExtent) {
  double data[12] = {};
  BufferRef b = buf(data, "data");
  EXPECT_TRUE(b.has_extent);
  EXPECT_EQ(b.extent_count, 12u);
  EXPECT_EQ(b.element_size, sizeof(double));
  EXPECT_EQ(b.name, "data");
  EXPECT_FALSE(b.is_composite());
}

TEST(Buffer, PointerHasNoExtent) {
  double data[4] = {};
  BufferRef b = buf(&data[0]);
  EXPECT_FALSE(b.has_extent);
}

TEST(Buffer, VectorAndMatrix) {
  std::vector<int> v(7);
  BufferRef bv = buf(v);
  EXPECT_EQ(bv.extent_count, 7u);

  cid::Matrix<double> m(3, 4);
  BufferRef bm = buf(m);
  EXPECT_EQ(bm.extent_count, 12u);
  EXPECT_EQ(bm.data, m.data());
}

TEST(Buffer, ReflectedStruct) {
  GoodScalars s{};
  BufferRef b = buf(s);
  EXPECT_TRUE(b.is_composite());
  EXPECT_EQ(b.extent_count, 1u);
  EXPECT_EQ(b.element_size, sizeof(GoodScalars));
  EXPECT_EQ(b.layout, &TypeLayoutOf<GoodScalars>::get());
}

// --- clause builder / merge / validation ------------------------------------

TEST(Clauses, RequiredClausesValidation) {
  double a[4] = {};
  double b[4] = {};
  Clauses complete;
  complete.sender("rank-1").receiver("rank+1").sbuf(buf(a)).rbuf(buf(b));
  EXPECT_TRUE(complete.validate_for_p2p().is_ok());

  Clauses no_sender;
  no_sender.receiver("rank+1").sbuf(buf(a)).rbuf(buf(b));
  EXPECT_FALSE(no_sender.validate_for_p2p().is_ok());

  Clauses no_buffers;
  no_buffers.sender("rank-1").receiver("rank+1");
  EXPECT_FALSE(no_buffers.validate_for_p2p().is_ok());
}

TEST(Clauses, SendwhenRequiresReceivewhen) {
  double a[4] = {};
  double b[4] = {};
  Clauses only_send;
  only_send.sender(0).receiver(1).sbuf(buf(a)).rbuf(buf(b)).sendwhen(
      "rank==0");
  const auto status = only_send.validate_for_p2p();
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), cid::ErrorCode::InvalidClause);

  only_send.receivewhen("rank==1");
  EXPECT_TRUE(only_send.validate_for_p2p().is_ok());
}

TEST(Clauses, BufferListLengthsMustMatch) {
  double a[4] = {};
  double b[4] = {};
  double c[4] = {};
  Clauses mismatched;
  mismatched.sender(0).receiver(1).sbuf({buf(a), buf(b)}).rbuf(buf(c));
  EXPECT_FALSE(mismatched.validate_for_p2p().is_ok());
}

TEST(Clauses, BufferPairTypesMustMatch) {
  double a[4] = {};
  int b[4] = {};
  Clauses mismatched;
  mismatched.sender(0).receiver(1).sbuf(buf(a)).rbuf(buf(b));
  EXPECT_FALSE(mismatched.validate_for_p2p().is_ok());
}

TEST(Clauses, ParamsOnlyClausesRejectedOnP2PSite) {
  Clauses with_sync;
  with_sync.place_sync(SyncPlacement::EndParamRegion);
  EXPECT_FALSE(with_sync.validate_p2p_site().is_ok());

  Clauses with_iter;
  with_iter.max_comm_iter(4);
  EXPECT_FALSE(with_iter.validate_p2p_site().is_ok());

  Clauses plain;
  plain.sender(0);
  EXPECT_TRUE(plain.validate_p2p_site().is_ok());
}

TEST(Clauses, MergeInheritsAbsentClauses) {
  double a[4] = {};
  double b[4] = {};
  Clauses region;
  region.sender("rank-1").receiver("rank+1").sendwhen("rank%2==0")
      .receivewhen("rank%2==1").count(3).target(Target::Shmem);
  Clauses site;
  site.sbuf(buf(a)).rbuf(buf(b));

  const Clauses merged = Clauses::merged(region, site);
  EXPECT_TRUE(merged.validate_for_p2p().is_ok());
  EXPECT_EQ(merged.sender_clause().describe(), "(rank-1)");
  EXPECT_EQ(merged.target_clause(), Target::Shmem);
  EXPECT_EQ(merged.sbuf_list().size(), 1u);
}

TEST(Clauses, MergeP2PClausesWin) {
  Clauses region;
  region.count(3).target(Target::Shmem);
  Clauses site;
  site.count(9).target(Target::Mpi2Side);
  const Clauses merged = Clauses::merged(region, site);
  EXPECT_EQ(merged.target_clause(), Target::Mpi2Side);
  Env env;
  EXPECT_EQ(merged.count_clause().eval(env).value(), 9);
}

TEST(Clauses, CallableClause) {
  int captured = 5;
  Clauses c;
  c.count([&]() -> ExprValue { return captured * 2; });
  Env env;
  EXPECT_EQ(c.count_clause().eval(env).value(), 10);
  captured = 6;
  EXPECT_EQ(c.count_clause().eval(env).value(), 12);
}

TEST(Clauses, StringClauseWithBinding) {
  Clauses c;
  c.count("size*2").let("size", 21);
  Env env;
  for (const auto& [name, value] : c.bindings()) env.bind(name, value);
  EXPECT_EQ(c.count_clause().eval(env).value(), 42);
}

TEST(Clauses, BrokenStringClauseReportsAtEval) {
  Clauses c;
  c.count("size +* 2");
  EXPECT_TRUE(c.count_clause().present());
  Env env;
  EXPECT_FALSE(c.count_clause().eval(env).is_ok());
}

// Clause texts are parsed once per thread and then served from a cache; a
// hit must be indistinguishable from a fresh parse.
TEST(Clauses, SameTextBuiltTwiceAgrees) {
  const ClauseExpr first("(rank+1)%nprocs");
  const ClauseExpr second(std::string("(rank+1)%nprocs"));
  EXPECT_EQ(first.describe(), second.describe());
  Env env;
  env.bind("rank", 5);
  env.bind("nprocs", 6);
  EXPECT_EQ(first.eval(env).value(), 0);
  EXPECT_EQ(second.eval(env).value(), 0);
}

TEST(Clauses, BrokenTextReportsPinnedErrorOnMissAndHit) {
  const char* const kText = "nprocs +* ) 7";  // used by no other test
  const std::string kMessage =
      "expected a number, variable or '(' at position 8 in expression "
      "'nprocs +* ) 7'";
  for (int build = 0; build < 2; ++build) {
    const ClauseExpr clause(kText);
    EXPECT_TRUE(clause.present());
    const auto value = clause.eval(Env{});
    ASSERT_FALSE(value.is_ok());
    EXPECT_EQ(value.status().code(), cid::ErrorCode::ParseError);
    EXPECT_EQ(value.status().message(), kMessage) << "build " << build;
    EXPECT_EQ(clause.describe(), "<parse error: " + kMessage + ">");
  }
}

TEST(Clauses, TextsPastTheCacheBoundStillParse) {
  Env env;
  env.bind("rank", 3);
  for (std::size_t i = 0; i <= ClauseExpr::kParseCacheEntries; ++i) {
    const ClauseExpr clause("rank*1000000+" + std::to_string(i));
    ASSERT_EQ(clause.eval(env).value(), 3000000 + static_cast<ExprValue>(i));
  }
  const ClauseExpr late("rank*7 - 1");
  EXPECT_EQ(late.describe(), ClauseExpr("rank*7 - 1").describe());
  EXPECT_EQ(late.eval(env).value(), 20);
  EXPECT_FALSE(ClauseExpr("rank +").eval(env).is_ok());
}

TEST(Clauses, EnvBindOverwritesExistingName) {
  Env env;
  env.bind("k", 1);
  env.bind("rank", 4);
  env.bind("k", 2);
  EXPECT_EQ(env.lookup("k").value(), 2);
  EXPECT_EQ(env.lookup("rank").value(), 4);
  EXPECT_FALSE(env.lookup("missing").is_ok());
}

TEST(Clauses, KeywordRoundTrip) {
  for (Target t : {Target::Mpi2Side, Target::Mpi1Side, Target::Shmem}) {
    auto parsed = parse_target_keyword(target_keyword(t));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), t);
  }
  for (SyncPlacement p :
       {SyncPlacement::EndParamRegion, SyncPlacement::BeginNextParamRegion,
        SyncPlacement::EndAdjParamRegions}) {
    auto parsed = parse_sync_placement_keyword(sync_placement_keyword(p));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), p);
  }
  EXPECT_FALSE(parse_target_keyword("TARGET_COMM_PVM").is_ok());
  EXPECT_FALSE(parse_sync_placement_keyword("WHENEVER").is_ok());
}

// --- pragma parsing ----------------------------------------------------------

TEST(Pragma, ParsesListing1) {
  auto parsed = parse_pragma(
      "#pragma comm_p2p sender(prev) receiver(next) sbuf(buf1) rbuf(buf2)");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().kind, DirectiveKind::CommP2P);
  ASSERT_EQ(parsed.value().clauses.size(), 4u);
  EXPECT_EQ(parsed.value().find("sender")->args[0], "prev");
  EXPECT_EQ(parsed.value().find("rbuf")->args[0], "buf2");
}

TEST(Pragma, ParsesListing2WithGuards) {
  auto parsed = parse_pragma(
      "#pragma comm_p2p sbuf(buf1) rbuf(buf2) sender(rank-1) receiver(rank+1) "
      "sendwhen(rank%2==0) receivewhen(rank%2==1)");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().find("sendwhen")->args[0], "rank%2==0");
}

TEST(Pragma, ParsesListing3CommParameters) {
  auto parsed = parse_pragma(
      "#pragma comm_parameters sender(rank-1) receiver(rank+1) "
      "sendwhen(rank%2==0) receivewhen(rank%2==1) count(size) "
      "max_comm_iter(n) place_sync(END_PARAM_REGION)");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().kind, DirectiveKind::CommParameters);
  EXPECT_EQ(parsed.value().find("place_sync")->args[0], "END_PARAM_REGION");
  EXPECT_EQ(parsed.value().find("max_comm_iter")->args[0], "n");
}

TEST(Pragma, ParsesBufferLists) {
  auto parsed = parse_pragma(
      "#pragma comm_p2p sbuf(ec,nc,lc,kc) rbuf(ec,nc,lc,kc) count(size2)");
  ASSERT_TRUE(parsed.is_ok());
  const auto* sbuf = parsed.value().find("sbuf");
  ASSERT_NE(sbuf, nullptr);
  EXPECT_EQ(sbuf->args,
            (std::vector<std::string>{"ec", "nc", "lc", "kc"}));
}

TEST(Pragma, ParsesAddressOfExpressions) {
  auto parsed = parse_pragma(
      "#pragma comm_p2p sbuf(&ev[3*send_p]) rbuf(&local.atom[p].evec[0])");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().find("sbuf")->args[0], "&ev[3*send_p]");
  EXPECT_EQ(parsed.value().find("rbuf")->args[0], "&local.atom[p].evec[0]");
}

TEST(Pragma, NestedParensInArgs) {
  auto parsed =
      parse_pragma("#pragma comm_p2p count(f(a,b)) sbuf(x) rbuf(y)");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().find("count")->args[0], "f(a,b)");
}

TEST(Pragma, BareFormWithoutHashPragma) {
  auto parsed = parse_pragma("comm_p2p sbuf(a) rbuf(b)");
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().kind, DirectiveKind::CommP2P);
}

TEST(Pragma, Rejections) {
  EXPECT_FALSE(parse_pragma("#pragma omp parallel").is_ok());
  EXPECT_FALSE(parse_pragma("#pragma comm_p2p bogus(1)").is_ok());
  EXPECT_FALSE(parse_pragma("#pragma comm_p2p sender(a) sender(b)").is_ok());
  EXPECT_FALSE(parse_pragma("#pragma comm_p2p sender").is_ok());
  EXPECT_FALSE(parse_pragma("#pragma comm_p2p sender(a").is_ok());
  EXPECT_FALSE(parse_pragma("#pragma comm_p2p sender()").is_ok());
  EXPECT_FALSE(parse_pragma("#pragma comm_p2p sender(a,b)").is_ok());
  // comm_parameters-only clauses on a p2p:
  EXPECT_FALSE(
      parse_pragma("#pragma comm_p2p place_sync(END_PARAM_REGION)").is_ok());
  EXPECT_FALSE(parse_pragma("#pragma comm_p2p max_comm_iter(3)").is_ok());
  // unpaired guards:
  EXPECT_FALSE(parse_pragma("#pragma comm_p2p sendwhen(rank==0)").is_ok());
}

// The exact rejection messages are part of the tool surface: `cidt check`
// forwards them verbatim as CID-P001 diagnostics, so changing them breaks
// golden output downstream.
TEST(Pragma, RejectionMessagesArePinned) {
  auto message = [](std::string_view text) {
    auto parsed = parse_pragma(text);
    EXPECT_FALSE(parsed.is_ok()) << text;
    return parsed.status().message();
  };
  EXPECT_EQ(message("#pragma comm_p2p sender(a) sender(b)"),
            "duplicate clause 'sender'");
  EXPECT_EQ(message("#pragma comm_p2p bogus(1)"), "unknown clause 'bogus'");
  EXPECT_EQ(message("#pragma comm_p2p sbuf()"),
            "empty argument in clause 'sbuf'");
  EXPECT_EQ(message("#pragma comm_p2p sbuf(a, , b)"),
            "empty argument in clause 'sbuf'");
  EXPECT_EQ(message("#pragma comm_p2p sender"),
            "clause 'sender' expects '('");
  EXPECT_EQ(message("#pragma comm_p2p sender(a"),
            "unbalanced parentheses in clause 'sender'");
  EXPECT_EQ(message("#pragma comm_p2p sender(a,b)"),
            "clause 'sender' has 2 arguments, expected 1");
  EXPECT_EQ(message("#pragma comm_p2p place_sync(END_PARAM_REGION)"),
            "place_sync may only be used with comm_parameters");
  EXPECT_EQ(message("#pragma comm_p2p sendwhen(rank==0)"),
            "sendwhen and receivewhen must both be present or both be "
            "omitted");
  EXPECT_EQ(message("#pragma omp parallel"),
            "expected 'comm_parameters', 'comm_p2p' or 'comm_collective', "
            "got 'omp parallel'");
}

TEST(Pragma, ClauseOffsetsPointAtClauseNames) {
  const std::string_view text =
      "#pragma comm_p2p sender(rank-1) receiver(rank+1) sbuf(a) rbuf(b)";
  auto parsed = parse_pragma(text);
  ASSERT_TRUE(parsed.is_ok());
  for (const auto& clause : parsed.value().clauses) {
    ASSERT_LT(clause.offset, text.size());
    EXPECT_EQ(text.substr(clause.offset, clause.name.size()), clause.name);
  }
}

}  // namespace
