//===- GoldenTest.cpp - Pinned jobs=1 outputs of Algorithm 1 --------------===//
//
// Part of leapfrog-cc, a C++ reproduction of "Leapfrog: Certified Equivalence
// for Protocol Parsers" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// A golden fence around the single-threaded checker. Every registry study
// and every corpus pair is decided at jobs=1 under four schedules —
// GoalBatch ∈ {1, 8} × Chunk ∈ {0, 3} — with the iteration budgets the
// scheduler battery runs, and the outputs are compared against a table
// recorded from an independent reference implementation of the loop:
// the decision counters, the query and physical round-trip counts, the
// frontier peak, the failure text, and an FNV-1a 64 hash of the
// serialized relation certificate.
//
// Unlike the differential batteries, which compare the engine against
// itself under other knobs, this table cannot drift with the engine: a
// change that moves any pinned number — including SmtQueries and
// SolverStats::RoundTrips, which the differentials deliberately leave
// free — fails here. Regenerating the table is a deliberate act:
//
//   LEAPFROG_GOLDEN_DUMP=1 ./build/GoldenTest > rows.txt
//
// prints every row in the initializer syntax below (the comparisons are
// skipped in that mode).
//
//===----------------------------------------------------------------------===//

#include "core/CertificateIo.h"
#include "core/Checker.h"
#include "frontend/Elaborate.h"
#include "frontend/Text.h"
#include "parsers/CaseStudies.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace leapfrog;
using namespace leapfrog::core;

namespace {

struct GoldenRow {
  const char *Case;
  size_t GoalBatch;
  size_t Chunk;
  size_t Iterations;
  size_t Extends;
  size_t Skips;
  size_t SmtQueries;
  uint64_t RoundTrips;
  size_t PeakFrontier;
  size_t FinalConjuncts;
  uint64_t CertHash;
  const char *FailureReason;
};

// clang-format off
const GoldenRow Golden[] = {
#include "GoldenRows.inc"
};
// clang-format on

uint64_t fnv1a64(const std::string &Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string corpusDir() {
  const char *Env = std::getenv("LEAPFROG_CORPUS_DIR");
  return Env && *Env ? Env : "";
}

bool dumping() {
  const char *Env = std::getenv("LEAPFROG_GOLDEN_DUMP");
  return Env && *Env;
}

/// Must match tools/corpus-gen.cpp, which names the twin files.
std::string slugify(const std::string &Name) {
  std::string Slug;
  for (char C : Name) {
    if (std::isalnum(static_cast<unsigned char>(C)))
      Slug += char(std::tolower(static_cast<unsigned char>(C)));
    else if (!Slug.empty() && Slug.back() != '_')
      Slug += '_';
  }
  while (!Slug.empty() && Slug.back() == '_')
    Slug.pop_back();
  return Slug;
}

frontend::ElaborationResult loadLfp(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream Ss;
  Ss << In.rdbuf();
  frontend::TextParseResult Parsed = frontend::parseSurface(Ss.str());
  for (const std::string &E : Parsed.Errors)
    ADD_FAILURE() << Path << ":" << E;
  frontend::ElaborationResult Elab = frontend::elaborate(Parsed.Program);
  for (const std::string &E : Elab.Errors)
    ADD_FAILURE() << Path << ": " << E;
  return Elab;
}

/// One fenced input: a registry study ("registry/<slug>") or a corpus
/// file pair ("corpus/<name>"), with its iteration budget.
struct GoldenCase {
  std::string Name;
  size_t MaxIterations;
  // Registry studies carry their automata; corpus cases name files.
  int StudyIdx = -1;
  std::string LeftFile, RightFile;
};

std::vector<GoldenCase> goldenCases() {
  std::vector<GoldenCase> Cases;
  std::vector<parsers::CaseStudy> Studies = parsers::allCaseStudies();
  for (size_t I = 0; I < Studies.size(); ++I)
    Cases.push_back(
        {"registry/" + slugify(Studies[I].Name), 300, int(I), "", ""});
  for (const parsers::CaseStudy &S : Studies) {
    std::string Slug = slugify(S.Name);
    Cases.push_back({"corpus/" + Slug, 300, -1, Slug + "_left.lfp",
                     Slug + "_right.lfp"});
  }
  for (const char *Stem :
       {"ipv6_chain", "vlan_qinq", "tunnel", "quic_varint", "tlv_fanin"}) {
    std::string S(Stem);
    Cases.push_back({"corpus/" + S + "_opt", 20000, -1, S + ".lfp",
                     S + "_opt.lfp"});
    Cases.push_back({"corpus/" + S + "_bug", 20000, -1, S + ".lfp",
                     S + "_bug.lfp"});
  }
  return Cases;
}

const GoldenRow *findRow(const std::string &Case, size_t GoalBatch,
                         size_t Chunk) {
  for (const GoldenRow &Row : Golden)
    if (Case == Row.Case && Row.GoalBatch == GoalBatch && Row.Chunk == Chunk)
      return &Row;
  return nullptr;
}

class GoldenFence : public ::testing::TestWithParam<size_t> {};

TEST_P(GoldenFence, Jobs1OutputsMatchRecordedReference) {
  std::vector<GoldenCase> Cases = goldenCases();
  ASSERT_LT(GetParam(), Cases.size());
  const GoldenCase &C = Cases[GetParam()];

  p4a::Automaton Left, Right;
  std::string LeftStart, RightStart;
  if (C.StudyIdx >= 0) {
    parsers::CaseStudy S = parsers::allCaseStudies()[C.StudyIdx];
    Left = S.Left;
    Right = S.Right;
    LeftStart = S.LeftStart;
    RightStart = S.RightStart;
  } else {
    std::string Dir = corpusDir();
    if (Dir.empty())
      GTEST_SKIP() << "LEAPFROG_CORPUS_DIR not set (run under ctest)";
    frontend::ElaborationResult L = loadLfp(Dir + "/" + C.LeftFile);
    frontend::ElaborationResult R = loadLfp(Dir + "/" + C.RightFile);
    ASSERT_TRUE(L.ok() && R.ok());
    Left = L.Aut;
    Right = R.Aut;
    LeftStart = L.Entry;
    RightStart = R.Entry;
  }

  for (size_t GoalBatch : {1u, 8u}) {
    for (size_t Chunk : {0u, 3u}) {
      SCOPED_TRACE(C.Name + " goal-batch=" + std::to_string(GoalBatch) +
                   " chunk=" + std::to_string(Chunk));
      smt::BitBlastSolver Solver;
      CheckOptions O;
      O.Solver = &Solver;
      O.Jobs = 1;
      O.MaxIterations = C.MaxIterations;
      O.GoalBatch = GoalBatch;
      O.Chunk = Chunk;
      CheckResult Res =
          checkLanguageEquivalence(Left, LeftStart, Right, RightStart, O);
      uint64_t CertHash = fnv1a64(
          serializeCertificate(Left, Right, Res.Certificate, nullptr, ""));
      const CheckStats &St = Res.Stats;

      if (dumping()) {
        std::printf("    {\"%s\", %zu, %zu, %zu, %zu, %zu, %zu, %" PRIu64
                    ", %zu, %zu, 0x%016" PRIx64 "ull,\n     R\"lf(%s)lf\"},\n",
                    C.Name.c_str(), GoalBatch, Chunk, St.Iterations,
                    St.Extends, St.Skips, St.SmtQueries,
                    Solver.stats().RoundTrips, St.PeakFrontier,
                    St.FinalConjuncts, CertHash, Res.FailureReason.c_str());
        continue;
      }

      const GoldenRow *Row = findRow(C.Name, GoalBatch, Chunk);
      ASSERT_NE(Row, nullptr) << "no golden row recorded";
      EXPECT_EQ(St.Iterations, Row->Iterations);
      EXPECT_EQ(St.Extends, Row->Extends);
      EXPECT_EQ(St.Skips, Row->Skips);
      EXPECT_EQ(St.SmtQueries, Row->SmtQueries);
      EXPECT_EQ(Solver.stats().RoundTrips, Row->RoundTrips);
      EXPECT_EQ(St.PeakFrontier, Row->PeakFrontier);
      EXPECT_EQ(St.FinalConjuncts, Row->FinalConjuncts);
      EXPECT_EQ(CertHash, Row->CertHash) << "certificate relation differs";
      EXPECT_EQ(Res.FailureReason, Row->FailureReason);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, GoldenFence,
                         ::testing::Range<size_t>(0, goldenCases().size()),
                         [](const ::testing::TestParamInfo<size_t> &Info) {
                           std::string Name = goldenCases()[Info.param].Name;
                           for (char &Ch : Name)
                             if (!std::isalnum(static_cast<unsigned char>(Ch)))
                               Ch = '_';
                           return Name;
                         });

} // namespace
