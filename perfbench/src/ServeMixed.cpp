//===- ServeMixed.cpp - The serve-mixed workload --------------------------===//
//
// Part of leapfrog-cc's benchmark (perfbench/). Not linked into the library.
//
//===----------------------------------------------------------------------===//
//
// The leapfrog-serve user (CI translation validation): an in-process
// serve::Server with two certified lanes, driven by two closed-loop client
// threads through Server::handleLine. Each client's stream is generated
// from (seed, client) and mixes
//
//  * small corpus pairs with known verdicts — the protocol _opt/_bug
//    triples and the Utility twins;
//  * generateProgram + renameStates twins (equivalent by construction),
//    new to the server, from a fixed per-client sequence (kTwinBase);
//  * repeats of the client's own earlier check lines (cache hits);
//  * cert fetches for the client's own earlier equivalent checks, each
//    returned certificate verified with cert::verifyCertificate.
//
// The program only ever sees the generated lines; a cert line's key is the
// certificate_key the server returned for that earlier check. The window
// runs in rounds: untimed, each client verifies the certificates it
// fetched and generates its next kBatch requests; timed, the clients send
// them, until one client has sent all of its. Only the timed phases count
// toward the window, so the stream's generation and the client's
// certificate checks are not part of throughput_rps. After the window the
// three Applicability pairs are submitted two at a time, one per lane
// (kPairPhase), which gives wall_s and pair_s.* in this configuration.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Common.h"

#include "cert/CertVerify.h"
#include "core/Engine.h"
#include "frontend/Elaborate.h"
#include "frontend/Generate.h"
#include "frontend/Text.h"
#include "serve/Json.h"
#include "serve/Server.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <thread>
#include <unordered_set>

using namespace leapfrog;
using serve::Json;

namespace perfbench {
namespace {

constexpr size_t kClients = 2;
constexpr size_t kLanes = 2;
/// Budget sent with every stream check; the largest small pair needs 198.
constexpr uint64_t kStreamIterations = 20000;
/// Budget for the Applicability pairs after the window.
constexpr uint64_t kPairIterations = 50000;
/// The pair phase: the Applicability pairs (indices into
/// kApplicabilityPairs) each client sends after the window, in order, one
/// lane each. Service Provider (~4 s certified) goes three times, so its
/// time averages three moments of a noisy machine, and all three fit
/// inside VLP (~14 s) on the other lane, so each is decided next to VLP;
/// Enterprise (~10 s) follows, mostly alone. A schedule in which a
/// submission ran alone or side by side depending on how long the others
/// took spread Service Provider's time by 0.24 over ten runs.
const std::vector<size_t> kPairPhase[kClients] = {{0, 0, 0, 1}, {2}};
/// Check lines of client 0 replayed through the front end alone.
constexpr size_t kFrontendSamples = 200;
/// Requests a client generates ahead of each timed phase.
constexpr size_t kBatch = 500;
/// peak_rss_mb is read when the window has served this many requests. The
/// unbounded cache grows with every miss, so a reading at the window's
/// end would follow the machine's speed (211 to 266 MB over ten runs on
/// a 4-core VM); at a fixed count it follows the stream. On that VM every
/// run served more than 15 000 requests in 8 s.
constexpr size_t kRssAfterRequests = 10000;

/// The traffic mix, in percent of a client's requests. No source in the
/// repository documents a leapfrog-serve traffic mix, so these shares are
/// the benchmark's assumptions (perfbench/README.md gives the reason for
/// each); together they set the cache-hit ratio.
///
/// Cert fetches: a CI job archives the certificate of some of its
/// equivalent verdicts; the share keeps the window's verifications in the
/// thousands, enough for a steady cert.verify_us.
constexpr uint64_t kCertShare = 12;
/// Repeats of the client's own earlier check lines: re-runs of a CI job
/// over unchanged parsers; hits and misses both stay in the thousands.
constexpr uint64_t kRepeatShare = 20;
/// Small corpus pairs: hand-written parser rewrites next to generated
/// ones; each of the 13 pairs recurs (a hit from its second draw on).
constexpr uint64_t kCorpusShare = 15;
// The rest (53%) are generated twins new to the server, every one a miss:
// the compiler-emitted translations translation validation exists for.

struct SmallPair {
  const char *Left;
  const char *Right;
  bool Equivalent;
};

/// Known verdicts: CorpusTest (protocol triples) and bench_corpus (Utility
/// twins under the plain language-equivalence spec).
const SmallPair kSmall[] = {
    {"ipv6_chain.lfp", "ipv6_chain_opt.lfp", true},
    {"ipv6_chain.lfp", "ipv6_chain_bug.lfp", false},
    {"vlan_qinq.lfp", "vlan_qinq_opt.lfp", true},
    {"vlan_qinq.lfp", "vlan_qinq_bug.lfp", false},
    {"tunnel.lfp", "tunnel_opt.lfp", true},
    {"tunnel.lfp", "tunnel_bug.lfp", false},
    {"quic_varint.lfp", "quic_varint_opt.lfp", true},
    {"quic_varint.lfp", "quic_varint_bug.lfp", false},
    {"tlv_fanin.lfp", "tlv_fanin_opt.lfp", true},
    {"tlv_fanin.lfp", "tlv_fanin_bug.lfp", false},
    {"state_rearrangement_left.lfp", "state_rearrangement_right.lfp", true},
    {"header_initialization_left.lfp", "header_initialization_right.lfp",
     true},
    {"speculative_loop_left.lfp", "speculative_loop_right.lfp", true},
};
/// The kSmall entry set-up's warm-up check uses (State Rearrangement).
constexpr size_t kWarmUpPair = 10;



uint64_t splitMix(uint64_t &State) {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

std::string checkLine(const std::string &Id, const std::string &Left,
                      const std::string &Right, uint64_t MaxIterations) {
  Json Options = Json::object();
  Options.set("max_iterations", Json::unsignedInt(MaxIterations));
  Json Req = Json::object();
  Req.set("op", Json::str("check"));
  Req.set("id", Json::str(Id));
  Req.set("left", Json::str(Left));
  Req.set("right", Json::str(Right));
  Req.set("options", Options);
  return Req.serialize();
}

/// The corpus texts the stream draws from, read once.
struct Corpus {
  std::vector<std::pair<std::string, std::string>> Small; ///< Per kSmall.
  /// Per kApplicabilityPairs.
  std::vector<std::pair<std::string, std::string>> Big;
};

bool loadCorpus(const std::string &Dir, Corpus &C) {
  for (const SmallPair &P : kSmall) {
    std::pair<std::string, std::string> T;
    if (!readFile(Dir + "/" + P.Left, T.first) ||
        !readFile(Dir + "/" + P.Right, T.second))
      return false;
    C.Small.push_back(std::move(T));
  }
  for (const char *Pair : kApplicabilityPairs) {
    std::string Stem = Pair;
    std::pair<std::string, std::string> T;
    if (!readFile(Dir + "/" + Stem + "_left.lfp", T.first) ||
        !readFile(Dir + "/" + Stem + "_right.lfp", T.second))
      return false;
    C.Big.push_back(std::move(T));
  }
  return true;
}

/// True when \p P's elaborated state graph has no cycle. The stream's
/// twins are loop-free: their checks stay in the millisecond range,
/// while about 1% of looping generated twins need seconds to an unknown
/// bound (see perfbench/README.md), which a closed-loop window cannot
/// hold. Loops stay covered by the corpus pairs.
bool loopFree(const frontend::SurfaceProgram &P) {
  frontend::ElaborationResult E = frontend::elaborate(P);
  if (!E.ok())
    return false;
  const p4a::Automaton &A = E.Aut;
  enum Color : char { White, Grey, Black };
  std::vector<Color> Seen(A.numStates(), White);
  // Iterative DFS: (state, next successor index).
  std::vector<std::pair<p4a::StateId, size_t>> Stack;
  auto Successors = [&](p4a::StateId Id) {
    const p4a::Transition &T = A.state(Id).Tz;
    std::vector<p4a::StateRef> Out;
    if (T.IsGoto)
      Out.push_back(T.GotoTarget);
    for (const p4a::SelectCase &C : T.Cases)
      Out.push_back(C.Target);
    return Out;
  };
  for (p4a::StateId Root = 0; Root < A.numStates(); ++Root) {
    if (Seen[Root] != White)
      continue;
    Seen[Root] = Grey;
    Stack.push_back({Root, 0});
    while (!Stack.empty()) {
      std::vector<p4a::StateRef> Next = Successors(Stack.back().first);
      size_t &K = Stack.back().second;
      if (K == Next.size()) {
        Seen[Stack.back().first] = Black;
        Stack.pop_back();
        continue;
      }
      p4a::StateRef S = Next[K++];
      if (!S.isNormal())
        continue;
      if (Seen[S.Id] == Grey)
        return false;
      if (Seen[S.Id] == White) {
        Seen[S.Id] = Grey;
        Stack.push_back({S.Id, 0});
      }
    }
  }
  return true;
}

/// One generated request.
struct Item {
  enum class Kind { Twin, Corpus, Repeat, Cert } K = Kind::Twin;
  /// The check line; for a cert fetch only its request id, since the
  /// line is made when it is sent (Stream::certLine).
  std::string Line;
  bool ExpectEquivalent = true; ///< Check lines only.
  uint64_t Draw = 0;            ///< Cert fetches only: picks the key.
};

/// Where every run's twin sequences start. A twin's check cost is
/// heavy-tailed: about one loop-free twin in several thousand takes over
/// a second, certified. Twins drawn from --seed made throughput_rps a
/// draw over how many of those fell in a window (1900 to 2600 rps on a
/// 4-core VM over five seeds), so each client decides the same twins in
/// the same order in every run, and the seed sets the traffic around
/// them: which requests are repeats, corpus pairs or cert fetches, and
/// their picks.
constexpr uint64_t kTwinBase = 0x5EED7714u;

/// One client's seeded request stream.
class Stream {
public:
  Stream(uint64_t Seed, size_t Client, const Corpus &C)
      : State(Seed * 0x100000001B3ull ^ (uint64_t(Client + 1) << 56)),
        TwinState(kTwinBase ^ (uint64_t(Client + 1) << 56)), Client(Client),
        C(C) {}

  /// The next request. A cert fetch is only drawn once an equivalent
  /// check precedes it in the stream; its key is chosen when it is sent
  /// (certLine), from the keys the responses so far returned.
  Item next() {
    std::string Id = "c" + std::to_string(Client) + "-" +
                     std::to_string(Index++);
    uint64_t Roll = splitMix(State) % 100;
    Item It;
    if (Roll < kCertShare && EquivalentChecks > 0) {
      It.K = Item::Kind::Cert;
      It.Draw = splitMix(State);
      It.Line = Id;
      return It;
    }
    if (Roll < kCertShare + kRepeatShare && !Checks.empty()) {
      It = Checks[splitMix(State) % Checks.size()];
      It.K = Item::Kind::Repeat;
      return It;
    }
    if (Roll < kCertShare + kRepeatShare + kCorpusShare) {
      size_t P = splitMix(State) % C.Small.size();
      It.K = Item::Kind::Corpus;
      It.ExpectEquivalent = kSmall[P].Equivalent;
      It.Line = checkLine(Id, C.Small[P].first, C.Small[P].second,
                          kStreamIterations);
    } else {
      frontend::SurfaceProgram P;
      do
        P = frontend::generateProgram(splitMix(TwinState));
      while (!loopFree(P));
      It.K = Item::Kind::Twin;
      It.Line = checkLine(Id, frontend::printSurface(P),
                          frontend::printSurface(
                              frontend::renameStates(P, "_twin")),
                          kStreamIterations);
    }
    EquivalentChecks += It.ExpectEquivalent;
    Checks.push_back(It);
    return It;
  }

  /// The cert line for \p It, whose Line holds the request id; sets
  /// \p Key. False when no response has returned a key yet (only
  /// possible when every earlier equivalent check failed).
  bool certLine(const Item &It, std::string &Line, std::string &Key) const {
    if (Keys.empty())
      return false;
    Key = Keys[It.Draw % Keys.size()];
    Json Req = Json::object();
    Req.set("op", Json::str("cert"));
    Req.set("id", Json::str(It.Line));
    Req.set("key", Json::str(Key));
    Line = Req.serialize();
    return true;
  }

  /// Records the certificate key of an equivalent check response.
  void learnKey(const std::string &Key) {
    if (KnownKeys.insert(Key).second)
      Keys.push_back(Key);
  }

private:
  uint64_t State;     ///< Seeded: the kind of each request and its picks.
  uint64_t TwinState; ///< Fixed: the client's sequence of twins.
  size_t Client;
  const Corpus &C;
  size_t Index = 0;
  size_t EquivalentChecks = 0;
  std::vector<Item> Checks;
  std::vector<std::string> Keys;
  std::unordered_set<std::string> KnownKeys;
};

/// What one client saw in one window.
struct ClientLog {
  std::vector<double> LatencyMs;
  std::vector<double> HitUs, MissUs, VerifyUs;
  std::vector<double> CertBytes;
  /// Per request: the deterministic part of the response (verdict and
  /// search counters), for the passivity comparison.
  std::vector<std::string> Outcomes;
  /// The first kFrontendSamples check lines, for the front-end replay.
  std::vector<std::string> CheckLines;
  /// Fetched certificates not verified yet: (key, certificate).
  std::vector<std::pair<std::string, std::string>> Fetched;
  size_t Checks = 0, Hits = 0, Shared = 0;
  size_t Iterations = 0, Extends = 0, Skips = 0, FinalConjuncts = 0,
         PeakFrontier = 0, FormulaNodes = 0, SmtQueries = 0;
  double GenerateSeconds = 0, VerifySeconds = 0;
  std::vector<std::string> Failures;
};

/// Sends \p It and checks the response; returns the latency in seconds.
/// A fetched certificate is kept in Log.Fetched for verifyFetched.
double serveOne(serve::Server &Srv, const Item &It, Stream *S,
                ClientLog &Log) {
  std::string Line, Key;
  if (It.K == Item::Kind::Cert && !(S && S->certLine(It, Line, Key))) {
    Log.Failures.push_back("no certificate key to fetch for " + It.Line);
    Log.Outcomes.push_back("error");
    return 0;
  }
  SteadyClock::time_point Start = SteadyClock::now();
  std::string Resp;
  {
    obs::ScopedSpan Span("bench.serve.handle_line", "bench");
    Resp = Srv.handleLine(It.K == Item::Kind::Cert ? Line : It.Line);
  }
  double Seconds = secondsSince(Start);
  Log.LatencyMs.push_back(Seconds * 1e3);

  Json R;
  std::string Err;
  if (!Json::parse(Resp, R, &Err) || !R.getBool("ok", false)) {
    Log.Failures.push_back("request failed: " + Resp.substr(0, 300));
    Log.Outcomes.push_back("error");
    return Seconds;
  }
  if (It.K == Item::Kind::Cert) {
    Log.Fetched.emplace_back(Key, R.get("certificate").asString());
    Log.Outcomes.push_back("cert " + Key);
    return Seconds;
  }

  ++Log.Checks;
  const std::string &Verdict = R.get("verdict").asString();
  const std::string &Cache = R.get("cache").asString();
  const Json &St = R.get("stats");
  if (Cache == "hit") {
    ++Log.Hits;
    Log.HitUs.push_back(Seconds * 1e6);
  } else if (Cache == "shared") {
    ++Log.Shared;
  } else {
    Log.MissUs.push_back(Seconds * 1e6);
    Log.Iterations += St.getUnsigned("iterations", 0);
    Log.Extends += St.getUnsigned("extends", 0);
    Log.Skips += St.getUnsigned("skips", 0);
    Log.FinalConjuncts += St.getUnsigned("final_conjuncts", 0);
    Log.PeakFrontier =
        std::max<size_t>(Log.PeakFrontier, St.getUnsigned("peak_frontier", 0));
    Log.FormulaNodes += St.getUnsigned("formula_nodes", 0);
    Log.SmtQueries += St.getUnsigned("smt_queries", 0);
  }
  std::string Expected =
      It.ExpectEquivalent ? "equivalent" : "not_equivalent";
  if (Verdict != Expected)
    Log.Failures.push_back("expected " + Expected + ", got " + Verdict +
                           " for " + It.Line.substr(0, 120));
  else if (It.ExpectEquivalent && S)
    S->learnKey(R.get("certificate_key").asString());
  Log.Outcomes.push_back(Verdict + " " +
                         std::to_string(St.getUnsigned("iterations", 0)) + " " +
                         std::to_string(St.getUnsigned("extends", 0)) + " " +
                         std::to_string(St.getUnsigned("skips", 0)) + " " +
                         std::to_string(St.getUnsigned("smt_queries", 0)));
  return Seconds;
}

/// Verifies the certificates fetched since the last call, each against the
/// key it was fetched under.
void verifyFetched(ClientLog &Log) {
  SteadyClock::time_point Start = SteadyClock::now();
  for (const auto &KT : Log.Fetched) {
    cert::VerifyOptions VO;
    VO.ExpectFingerprintHex = KT.first;
    SteadyClock::time_point VStart = SteadyClock::now();
    cert::VerifyResult V;
    {
      obs::ScopedSpan Span("bench.cert.verify", "bench");
      V = cert::verifyCertificate(KT.second, VO);
    }
    Log.VerifyUs.push_back(secondsSince(VStart) * 1e6);
    Log.CertBytes.push_back(double(KT.second.size()));
    if (!V.Ok)
      Log.Failures.push_back("certificate " + KT.first +
                             " rejected: " + V.Diagnostic);
  }
  Log.Fetched.clear();
  Log.VerifySeconds += secondsSince(Start);
}

serve::ServiceConfig serviceConfig() {
  serve::ServiceConfig Config;
  Config.Engine.Certify = true;
  Config.Engine.Jobs = 1;
  Config.Lanes = kLanes;
  return Config;
}

std::unique_ptr<serve::Server> makeServer() {
  std::string Err;
  std::unique_ptr<serve::Server> Srv =
      serve::Server::create(serviceConfig(), &Err);
  if (!Srv)
    std::fprintf(stderr, "perfbench: server: %s\n", Err.c_str());
  return Srv;
}

/// One timed window: rounds of untimed generation and timed sending, until
/// the timed phases add up to the run's seconds.
struct Window {
  std::vector<ClientLog> Logs;
  double Seconds = 0; ///< Σ timed phases.
  size_t Rounds = 0;
  /// Peak RSS once kRssAfterRequests were served; 0 if they never were.
  double PeakRssMb = 0;
};

Window runWindow(serve::Server &Srv, const Corpus &C, const RunOptions &O) {
  Window W;
  W.Logs.resize(kClients);
  std::vector<Stream> Streams;
  std::vector<std::deque<Item>> Queues(kClients);
  std::atomic<size_t> Served{0};
  for (size_t Id = 0; Id < kClients; ++Id)
    Streams.emplace_back(O.Seed, Id, C);
  auto EachClient = [](const std::function<void(size_t)> &F) {
    std::vector<std::thread> Threads;
    for (size_t Id = 0; Id < kClients; ++Id)
      Threads.emplace_back([&F, Id] {
        obs::nameCurrentThread("client-" + std::to_string(Id));
        F(Id);
      });
    for (std::thread &T : Threads)
      T.join();
  };

  while (W.Seconds < O.Seconds) {
    // Untimed: check the last phase's certificates, refill the queues.
    EachClient([&](size_t Id) {
      ClientLog &Log = W.Logs[Id];
      verifyFetched(Log);
      SteadyClock::time_point Start = SteadyClock::now();
      while (Queues[Id].size() < kBatch) {
        Queues[Id].push_back(Streams[Id].next());
        const Item &It = Queues[Id].back();
        if ((It.K == Item::Kind::Twin || It.K == Item::Kind::Corpus) &&
            Log.CheckLines.size() < kFrontendSamples)
          Log.CheckLines.push_back(It.Line);
      }
      Log.GenerateSeconds += secondsSince(Start);
    });

    // Timed: send until one client's queue is empty or time is up.
    std::atomic<bool> Stop{false};
    SteadyClock::time_point Start = SteadyClock::now();
    SteadyClock::time_point Deadline =
        Start + std::chrono::microseconds(
                    int64_t((O.Seconds - W.Seconds) * 1e6) + 1);
    EachClient([&](size_t Id) {
      std::deque<Item> &Q = Queues[Id];
      while (!Stop.load(std::memory_order_relaxed)) {
        if (Q.empty() || SteadyClock::now() >= Deadline) {
          Stop = true;
          break;
        }
        serveOne(Srv, Q.front(), &Streams[Id], W.Logs[Id]);
        Q.pop_front();
        if (++Served == kRssAfterRequests)
          W.PeakRssMb = peakRssMb();
      }
    });
    W.Seconds += secondsSince(Start);
    ++W.Rounds;
  }
  EachClient([&](size_t Id) { verifyFetched(W.Logs[Id]); });
  return W;
}

template <typename F> std::vector<double> gather(const Window &W, F Field) {
  std::vector<double> Out;
  for (const ClientLog &L : W.Logs) {
    const std::vector<double> &V = Field(L);
    Out.insert(Out.end(), V.begin(), V.end());
  }
  return Out;
}

size_t requests(const Window &W) {
  size_t N = 0;
  for (const ClientLog &L : W.Logs)
    N += L.LatencyMs.size();
  return N;
}

void reportFailures(const Window &W, Report &Rep) {
  for (const ClientLog &L : W.Logs) {
    Rep.attempt(L.LatencyMs.size());
    for (const std::string &F : L.Failures)
      Rep.fail(F);
  }
}

} // namespace

int runServeMixed(const RunOptions &O, Report &Rep) {
  std::fprintf(stderr, "perfbench: serve-mixed, %zu clients x %zu lanes, "
                       "seed %llu\n",
               kClients, kLanes, (unsigned long long)O.Seed);
  // Set-up: read the corpus, start a fresh certified two-lane server,
  // warm it with one check; Reps times into SetupSeconds, the last one is
  // kept in KeepC and KeepSrv.
  std::vector<double> SetupSeconds;
  auto SetUpTimes = [&](int Reps, Corpus &KeepC,
                        std::unique_ptr<serve::Server> &KeepSrv) {
    for (int I = 0; I < Reps; ++I) {
      KeepSrv.reset();
      KeepC = Corpus();
      SteadyClock::time_point Start = SteadyClock::now();
      if (!loadCorpus(O.CorpusDir, KeepC)) {
        std::fprintf(stderr, "perfbench: cannot read the corpus in %s\n",
                     O.CorpusDir.c_str());
        return false;
      }
      KeepSrv = makeServer();
      if (!KeepSrv)
        return false;
      // One certified check warms the service path. Its budget differs
      // from the stream's, so no stream line hits its cache entry.
      Item Warm;
      Warm.K = Item::Kind::Corpus;
      Warm.Line = checkLine("warm-up", KeepC.Small[kWarmUpPair].first,
                            KeepC.Small[kWarmUpPair].second,
                            kStreamIterations + 1);
      ClientLog WarmLog;
      serveOne(*KeepSrv, Warm, nullptr, WarmLog);
      if (!WarmLog.Failures.empty()) {
        std::fprintf(stderr, "perfbench: warm-up: %s\n",
                     WarmLog.Failures[0].c_str());
        return false;
      }
      SetupSeconds.push_back(secondsSince(Start));
    }
    return true;
  };
  Corpus C;
  std::unique_ptr<serve::Server> Srv;
  if (!SetUpTimes(kSetupReps / 2, C, Srv))
    return 1;

  auto Field = [](std::vector<double> ClientLog::*M) {
    return [M](const ClientLog &L) -> const std::vector<double> & {
      return L.*M;
    };
  };
  Window W = runWindow(*Srv, C, O);
  reportFailures(W, Rep);
  // The serve stream's own peak, before the Applicability pairs below.
  double PeakRss = W.PeakRssMb;
  if (PeakRss == 0) {
    std::fprintf(stderr, "perfbench: the window served fewer than %zu "
                         "requests; peak_rss_mb is read at its end\n",
                 kRssAfterRequests);
    PeakRss = peakRssMb();
  }
  std::vector<double> Lat = gather(W, Field(&ClientLog::LatencyMs));
  size_t N = Lat.size();
  double GenS = 0, VerifyS = 0;
  for (const ClientLog &L : W.Logs) {
    GenS += L.GenerateSeconds;
    VerifyS += L.VerifySeconds;
  }
  std::fprintf(stderr,
               "perfbench: %zu requests in %.3f s of timed phases (%zu "
               "rounds); latency p50 %.3f ms, p99 %.3f ms over %zu samples "
               "(%zu beyond p99); untimed, across clients: stream "
               "generation %.3f s, certificate checks %.3f s\n",
               N, W.Seconds, W.Rounds, percentile(Lat, 0.5),
               percentile(Lat, 0.99), N,
               N - size_t(std::ceil(0.99 * double(N))), GenS, VerifyS);

  if (!O.Trace) {
    // The Applicability pairs through the same server after the window,
    // kPairPhase[Id] by client Id on its own thread, so both lanes work;
    // each pair timed by the mean of its submissions. Each submission of a
    // pair goes under its own budget (its own cache key), so every one is
    // a miss.
    std::vector<std::vector<double>> Seconds(kNumApplicabilityPairs);
    std::vector<std::vector<Item>> PairItems(kClients);
    for (size_t Id = 0; Id < kClients; ++Id)
      for (size_t P : kPairPhase[Id]) {
        Item It;
        It.K = Item::Kind::Corpus;
        It.Line = checkLine(std::string("pair-") + kApplicabilityPairs[P],
                            C.Big[P].first, C.Big[P].second,
                            kPairIterations + Seconds[P].size());
        Seconds[P].push_back(0);
        PairItems[Id].push_back(std::move(It));
      }
    std::vector<ClientLog> PairLogs(kClients);
    std::vector<std::thread> Threads;
    for (size_t Id = 0; Id < kClients; ++Id)
      Threads.emplace_back([&, Id] {
        for (const Item &It : PairItems[Id])
          serveOne(*Srv, It, nullptr, PairLogs[Id]);
      });
    for (std::thread &T : Threads)
      T.join();
    std::vector<size_t> Seen(kNumApplicabilityPairs, 0);
    for (size_t Id = 0; Id < kClients; ++Id) {
      Rep.attempt(PairLogs[Id].LatencyMs.size());
      for (const std::string &F : PairLogs[Id].Failures)
        Rep.fail(F);
      for (size_t K = 0; K < kPairPhase[Id].size(); ++K) {
        size_t P = kPairPhase[Id][K];
        Seconds[P][Seen[P]++] = PairLogs[Id].LatencyMs[K] / 1e3;
      }
    }
    std::vector<double> PairSeconds;
    double PairWall = 0;
    for (const std::vector<double> &S : Seconds) {
      PairSeconds.push_back(mean(S));
      PairWall += PairSeconds.back();
    }

    // The other half of the set-ups, at the end of the run.
    {
      Corpus LateC;
      std::unique_ptr<serve::Server> LateSrv;
      if (!SetUpTimes(kSetupReps - kSetupReps / 2, LateC, LateSrv))
        return 1;
    }

    Rep.metric("setup_s",
               *std::min_element(SetupSeconds.begin(), SetupSeconds.end()),
               "s");
    Rep.metric("wall_s", PairWall, "s");
    for (size_t P = 0; P < kNumApplicabilityPairs; ++P)
      Rep.metric(std::string("pair_s.") + kApplicabilityPairs[P],
                 PairSeconds[P], "s");
    Rep.metric("throughput_rps", double(N) / W.Seconds, "1/s");
    Rep.metric("latency_ms.p50", percentile(Lat, 0.50), "ms");
    Rep.metric("latency_ms.p99", percentile(Lat, 0.99), "ms");
    Rep.metric("peak_rss_mb", PeakRss, "MB");
    return 0;
  }

  // ---- Traced run: the same stream again on a fresh server, traced. ----
  Srv = makeServer();
  if (!Srv)
    return 1;
  obs::TraceSink Sink;
  obs::setTraceSink(&Sink);
  Window T = runWindow(*Srv, C, O);
  obs::setTraceSink(nullptr);
  reportFailures(T, Rep);
  SpanTotals Spans = spanTotals(
      Sink, O.TraceDir.empty() ? "" : O.TraceDir + "/serve-mixed.json", 0);

  // Passivity: every request both windows sent got the same answer.
  for (size_t Id = 0; Id < kClients; ++Id) {
    const ClientLog &A = W.Logs[Id], &B = T.Logs[Id];
    size_t Common = std::min(A.Outcomes.size(), B.Outcomes.size());
    bool Same = std::equal(A.Outcomes.begin(), A.Outcomes.begin() + Common,
                           B.Outcomes.begin());
    Rep.gate(Same, "client " + std::to_string(Id) +
                       ": traced answers differ from untraced (passivity)");
  }

  // Front end alone, replayed on client 0's first check lines.
  double FrontendUs = 0;
  {
    const std::vector<std::string> &Lines = W.Logs[0].CheckLines;
    size_t Samples = std::min(kFrontendSamples, Lines.size());
    SteadyClock::time_point Start = SteadyClock::now();
    for (size_t K = 0; K < Samples; ++K) {
      Json Req;
      std::string Err;
      Json::parse(Lines[K], Req, &Err);
      core::CheckRequest Out;
      std::vector<std::string> Errors;
      core::checkRequestFromSurface(Req.get("left").asString(),
                                    Req.get("right").asString(),
                                    core::CheckOptions(), Out, Errors);
    }
    FrontendUs = Samples ? secondsSince(Start) * 1e6 / double(Samples) : 0;
  }

  size_t Checks = 0, Hits = 0, Shared = 0, Iterations = 0, Extends = 0,
         Skips = 0, Conjuncts = 0, Peak = 0, Nodes = 0, Queries = 0;
  for (const ClientLog &L : W.Logs) {
    Checks += L.Checks;
    Hits += L.Hits;
    Shared += L.Shared;
    Iterations += L.Iterations;
    Extends += L.Extends;
    Skips += L.Skips;
    Conjuncts += L.FinalConjuncts;
    Peak = std::max(Peak, L.PeakFrontier);
    Nodes += L.FormulaNodes;
    Queries += L.SmtQueries;
  }
  std::vector<double> TLat = gather(T, Field(&ClientLog::LatencyMs));

  // Layer table over the traced window: self times on the client
  // threads partition Σ handleLine exactly.
  double HandleS = Spans.seconds("bench.serve.handle_line");
  double CheckRunS = Spans.seconds("check.run");
  double SolverS = 0;
  std::vector<LayerRow> Rows;
  for (const auto &KV : Spans.Self) {
    const std::string &Name = KV.first;
    if (Name == "bench.cert.verify")
      continue; // Client-side, outside handleLine.
    if (Name.rfind("solver.", 0) == 0)
      SolverS += KV.second;
    std::string Layer =
        Name == "bench.serve.handle_line" ? "serve: wire + frontend"
        : Name == "serve.request"         ? "serve: cache, admission, cert"
        : Name == "check.run"             ? "core: check.run"
        : Name.rfind("solver.", 0) == 0   ? "smt: " + Name
                                          : "other: " + Name;
    Rows.push_back({Layer + " (self)", KV.second});
  }
  double Unattributed = printLayerTable(
      "serve-mixed, Σ handleLine over " + std::to_string(requests(T)) +
          " traced requests",
      HandleS, Rows);
  std::fprintf(stderr, "  (front end alone, replayed: %.1f us per check)\n",
               FrontendUs);

  Rep.metric("core.self_s", CheckRunS - SolverS, "s");
  Rep.metric("core.self_share",
             CheckRunS > 0 ? (CheckRunS - SolverS) / CheckRunS : 0, "ratio");
  Rep.metric("core.iterations", double(Iterations), "count");
  Rep.metric("core.extends", double(Extends), "count");
  Rep.metric("core.skips", double(Skips), "count");
  Rep.metric("core.final_conjuncts", double(Conjuncts), "count");
  Rep.metric("core.peak_frontier", double(Peak), "count");
  Rep.metric("core.formula_nodes", double(Nodes), "count");
  Rep.metric("smt.premise_s", Spans.seconds("solver.blast_premise"), "s");
  Rep.metric("smt.query_s", Spans.seconds("solver.query"), "s");
  Rep.metric("smt.queries", double(Queries), "count");
  Rep.metric("serve.cache_hit_ratio",
             Checks ? double(Hits) / double(Checks) : 0, "ratio");
  Rep.metric("serve.coalesced", double(Shared), "count");
  Rep.metric("serve.hit_us.p50",
             percentile(gather(W, Field(&ClientLog::HitUs)), 0.5), "us");
  Rep.metric("serve.miss_us.p50",
             percentile(gather(W, Field(&ClientLog::MissUs)), 0.5), "us");
  Rep.metric("serve.wire_us",
             requests(T) ? (HandleS - Spans.seconds("serve.request")) * 1e6 /
                               double(requests(T))
                         : 0,
             "us");
  Rep.metric("serve.latency_samples", double(N), "count");
  Rep.metric("cert.verify_us",
             percentile(gather(W, Field(&ClientLog::VerifyUs)), 0.5), "us");
  Rep.metric("cert.bytes", mean(gather(W, Field(&ClientLog::CertBytes))),
             "bytes");
  Rep.metric("frontend.us_per_check", FrontendUs, "us");
  Rep.metric("layer.unattributed_share",
             HandleS > 0 ? Unattributed / HandleS : 0, "ratio");
  double P50 = percentile(Lat, 0.5);
  Rep.metric("trace.overhead_share",
             P50 > 0 ? (percentile(TLat, 0.5) - P50) / P50 : 0, "ratio");
  return 0;
}

} // namespace perfbench
