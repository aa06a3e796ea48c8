// Fault-injection and budget tests for the BuildCorpus graceful-degradation
// ladder: each rung (exact -> stratified -> Monte-Carlo -> CNF proxy ->
// skip) must engage deterministically, BuildStats must account for every
// sampled tuple, and a starved build must still terminate with a valid
// corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "corpus/corpus.h"
#include "corpus/io.h"
#include "datasets/imdb.h"
#include "provenance/circuit.h"
#include "provenance/compiler.h"
#include "shapley/shapley.h"

namespace lshap {
namespace {

CorpusConfig SmallConfig() {
  CorpusConfig cfg;
  cfg.seed = 3;
  cfg.num_base_queries = 10;
  cfg.max_outputs_per_query = 8;
  cfg.query_gen.max_tables = 3;
  // Keep the fallback rung fast; agreement quality is tested elsewhere.
  cfg.mc_fallback_samples = 300;
  return cfg;
}

size_t TotalContributions(const Corpus& c) {
  size_t n = 0;
  for (const auto& e : c.entries) n += e.contributions.size();
  return n;
}

void ExpectValidSplit(const Corpus& c) {
  std::set<size_t> all;
  for (size_t i : c.train_idx) all.insert(i);
  for (size_t i : c.dev_idx) all.insert(i);
  for (size_t i : c.test_idx) all.insert(i);
  EXPECT_EQ(all.size(), c.entries.size());
  EXPECT_EQ(c.train_idx.size() + c.dev_idx.size() + c.test_idx.size(),
            c.entries.size());
}

// Every build must satisfy the no-silent-loss invariant: each sampled tuple
// lands on exactly one rung, and tuples without ground truth leave a skip
// record.
void ExpectLadderAccounting(const Corpus& c) {
  const BuildStats& s = c.stats;
  EXPECT_EQ(TotalContributions(c),
            s.exact + s.stratified + s.monte_carlo + s.cnf_proxy);
  EXPECT_EQ(s.attempted(), TotalContributions(c) + s.skipped);
}

class CorpusBudgetTest : public ::testing::Test {
 protected:
  CorpusBudgetTest() : data_(MakeImdbDatabase({})), pool_(4) {}

  Corpus Build(const CorpusConfig& cfg) {
    return BuildCorpus(*data_.db, data_.graph, cfg, pool_);
  }

  GeneratedDb data_;
  ThreadPool pool_;
};

TEST_F(CorpusBudgetTest, UnbudgetedBuildUsesOnlyExactRung) {
  const Corpus c = Build(SmallConfig());
  EXPECT_GT(c.stats.exact, 0u);
  EXPECT_EQ(c.stats.monte_carlo, 0u);
  EXPECT_EQ(c.stats.cnf_proxy, 0u);
  // The only possible skips are syntactic pre-filter drops.
  size_t prefiltered = 0;
  auto it = c.stats.budget_trips.find(kSiteCorpusPrefilter);
  if (it != c.stats.budget_trips.end()) prefiltered = it->second;
  EXPECT_EQ(c.stats.skipped, prefiltered);
  EXPECT_GT(c.stats.wall_seconds, 0.0);
  ExpectLadderAccounting(c);
  ExpectValidSplit(c);
}

TEST_F(CorpusBudgetTest, CompilerExhaustionDegradesEveryTupleToMonteCarlo) {
  const Corpus baseline = Build(SmallConfig());

  FaultInjector fault;
  fault.FailWithProbability(kSiteCompilerExpand, 1.0);
  CorpusConfig cfg = SmallConfig();
  cfg.fault_injector = &fault;
  const Corpus degraded = Build(cfg);

  // BuildCorpus completed (we are here, no abort) and every tuple that the
  // baseline computed exactly fell to the Monte-Carlo rung instead.
  EXPECT_EQ(degraded.stats.exact, 0u);
  EXPECT_EQ(degraded.stats.monte_carlo, baseline.stats.exact);
  EXPECT_EQ(degraded.stats.attempted(), baseline.stats.attempted());
  EXPECT_EQ(degraded.stats.budget_trips.at(kSiteCompilerExpand),
            baseline.stats.exact);
  ExpectLadderAccounting(degraded);
  ExpectValidSplit(degraded);

  // The Monte-Carlo ground truth is still a valid Shapley distribution.
  for (const auto& e : degraded.entries) {
    for (const auto& contrib : e.contributions) {
      double sum = 0.0;
      for (const auto& [f, v] : contrib.shapley) sum += v;
      EXPECT_NEAR(sum, 1.0, 1e-6);
    }
  }
}

TEST_F(CorpusBudgetTest, DoubleFaultFallsToCnfProxy) {
  const Corpus baseline = Build(SmallConfig());

  FaultInjector fault;
  fault.FailWithProbability(kSiteCompilerExpand, 1.0);
  fault.FailWithProbability(kSiteShapleyMcSample, 1.0);
  CorpusConfig cfg = SmallConfig();
  cfg.fault_injector = &fault;
  const Corpus degraded = Build(cfg);

  EXPECT_EQ(degraded.stats.exact, 0u);
  EXPECT_EQ(degraded.stats.monte_carlo, 0u);
  EXPECT_EQ(degraded.stats.cnf_proxy, baseline.stats.exact);
  EXPECT_EQ(degraded.stats.attempted(), baseline.stats.attempted());
  ExpectLadderAccounting(degraded);
  ExpectValidSplit(degraded);
}

TEST_F(CorpusBudgetTest, TripleFaultSkipsEverythingWithoutAborting) {
  const Corpus baseline = Build(SmallConfig());

  FaultInjector fault;
  fault.FailWithProbability(kSiteCompilerExpand, 1.0);
  fault.FailWithProbability(kSiteShapleyMcSample, 1.0);
  fault.FailWithProbability(kSiteCnfProxy, 1.0);
  CorpusConfig cfg = SmallConfig();
  cfg.fault_injector = &fault;
  const Corpus degraded = Build(cfg);

  // All rungs tripped for every tuple: nothing computed, everything skipped,
  // and the accounting proves no tuple was silently lost.
  EXPECT_EQ(TotalContributions(degraded), 0u);
  EXPECT_TRUE(degraded.entries.empty());
  EXPECT_EQ(degraded.stats.skipped, degraded.stats.attempted());
  EXPECT_EQ(degraded.stats.attempted(), baseline.stats.attempted());
  ExpectLadderAccounting(degraded);
  ExpectValidSplit(degraded);
}

TEST_F(CorpusBudgetTest, SingleFaultDegradesExactlyOneTupleDeterministically) {
  // A single-threaded pool makes the site hit counter deterministic, so the
  // k-th Shannon expansion belongs to the same tuple on every run.
  ThreadPool serial_pool(1);
  auto build_with_fault = [&]() {
    FaultInjector fault;
    fault.FailAt(kSiteCompilerExpand, 40);
    CorpusConfig cfg = SmallConfig();
    cfg.fault_injector = &fault;
    return BuildCorpus(*data_.db, data_.graph, cfg, serial_pool);
  };
  const Corpus a = build_with_fault();
  const Corpus b = build_with_fault();

  EXPECT_EQ(a.stats.monte_carlo, 1u);
  EXPECT_EQ(a.stats.monte_carlo, b.stats.monte_carlo);
  EXPECT_EQ(a.stats.exact, b.stats.exact);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t e = 0; e < a.entries.size(); ++e) {
    ASSERT_EQ(a.entries[e].contributions.size(),
              b.entries[e].contributions.size());
    for (size_t i = 0; i < a.entries[e].contributions.size(); ++i) {
      // Identical values fact by fact — including the MC-degraded tuple,
      // whose sampler is seeded by job index, not by thread timing.
      const auto& ca = a.entries[e].contributions[i].shapley;
      const auto& cb = b.entries[e].contributions[i].shapley;
      ASSERT_EQ(ca.size(), cb.size());
      for (const auto& [f, v] : ca) EXPECT_DOUBLE_EQ(cb.at(f), v);
    }
  }
}

TEST_F(CorpusBudgetTest, TinyNodeBudgetStillYieldsValidCorpus) {
  CorpusConfig cfg = SmallConfig();
  cfg.max_circuit_nodes = 1;  // every exact compile trips immediately
  const Corpus c = Build(cfg);

  EXPECT_EQ(c.stats.exact, 0u);
  EXPECT_GT(c.stats.monte_carlo, 0u);
  EXPECT_FALSE(c.entries.empty());
  ExpectLadderAccounting(c);
  ExpectValidSplit(c);
  EXPECT_GT(c.train_idx.size(), 0u);
}

TEST_F(CorpusBudgetTest, ExpiredBuildDeadlineSkipsRemainingTuples) {
  const Corpus baseline = Build(SmallConfig());

  CorpusConfig cfg = SmallConfig();
  cfg.build_deadline_seconds = 1e-9;  // expired before the wave starts
  const Corpus c = Build(cfg);

  // The build still terminates, produces an (empty but valid) corpus, and
  // records every unprocessed tuple as a deadline skip.
  EXPECT_EQ(c.stats.exact, 0u);
  EXPECT_EQ(c.stats.skipped, c.stats.attempted());
  EXPECT_EQ(c.stats.attempted(), baseline.stats.attempted());
  EXPECT_GT(c.stats.budget_trips.at(kSiteCorpusBuildDeadline), 0u);
  ExpectLadderAccounting(c);
  ExpectValidSplit(c);
}

TEST_F(CorpusBudgetTest, BuildStatsRoundTripThroughCorpusIo) {
  FaultInjector fault;
  fault.FailWithProbability(kSiteCompilerExpand, 1.0);
  CorpusConfig cfg = SmallConfig();
  cfg.fault_injector = &fault;
  const Corpus c = Build(cfg);

  const std::string path =
      ::testing::TempDir() + "/corpus_budget_test.lshap";
  ASSERT_TRUE(SaveCorpus(c, path).ok());
  auto loaded = LoadCorpus(data_.db.get(), path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->stats.exact, c.stats.exact);
  EXPECT_EQ(loaded->stats.monte_carlo, c.stats.monte_carlo);
  EXPECT_EQ(loaded->stats.cnf_proxy, c.stats.cnf_proxy);
  EXPECT_EQ(loaded->stats.skipped, c.stats.skipped);
  EXPECT_NEAR(loaded->stats.wall_seconds, c.stats.wall_seconds, 1e-5);
  EXPECT_EQ(loaded->stats.budget_trips, c.stats.budget_trips);
}

// --- The stratified rung (stratified_fallback_samples > 0). ---

TEST_F(CorpusBudgetTest, StratifiedRungCatchesTuplesExactDrops) {
  CorpusConfig mc_cfg = SmallConfig();
  mc_cfg.max_circuit_nodes = 1;  // force every tuple off the exact rung
  const Corpus mc = Build(mc_cfg);

  CorpusConfig cfg = mc_cfg;
  cfg.stratified_fallback_samples = 64;
  const Corpus c = Build(cfg);

  // Every tuple the rung-off build degraded to Monte-Carlo lands on the
  // stratified rung instead, and the rung counts still sum to the total.
  EXPECT_EQ(c.stats.exact, 0u);
  EXPECT_EQ(c.stats.stratified, mc.stats.monte_carlo);
  EXPECT_EQ(c.stats.monte_carlo, 0u);
  EXPECT_EQ(c.stats.attempted(), mc.stats.attempted());
  ExpectLadderAccounting(c);
  ExpectValidSplit(c);

  // Stratified ground truth is still a (approximately efficient) Shapley
  // distribution over each tuple's lineage.
  for (const auto& e : c.entries) {
    for (const auto& contrib : e.contributions) {
      double sum = 0.0;
      for (const auto& [f, v] : contrib.shapley) sum += v;
      EXPECT_NEAR(sum, 1.0, 0.35);
    }
  }
}

TEST_F(CorpusBudgetTest, RungOffDefaultsLeaveTextOutputUnchanged) {
  // stratified_fallback_samples = 0 is the historical configuration: the
  // text serialization must carry no trace of the new rung, so pre-rung
  // builds reproduce their output bit for bit.
  const Corpus c = Build(SmallConfig());
  EXPECT_EQ(c.stats.stratified, 0u);
  const std::string path = ::testing::TempDir() + "/corpus_rung_off.lshap";
  ASSERT_TRUE(SaveCorpus(c, path).ok());
  std::ifstream in(path);
  const std::string contents((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_EQ(contents.find("strat:"), std::string::npos);
}

TEST_F(CorpusBudgetTest, StratifiedStatsRoundTripThroughTextIo) {
  CorpusConfig cfg = SmallConfig();
  cfg.max_circuit_nodes = 1;
  cfg.stratified_fallback_samples = 64;
  const Corpus c = Build(cfg);
  ASSERT_GT(c.stats.stratified, 0u);

  const std::string path = ::testing::TempDir() + "/corpus_strat.lshap";
  ASSERT_TRUE(SaveCorpus(c, path).ok());
  auto loaded = LoadCorpus(data_.db.get(), path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->stats.stratified, c.stats.stratified);
  EXPECT_EQ(loaded->stats.exact, c.stats.exact);
  EXPECT_EQ(loaded->stats.monte_carlo, c.stats.monte_carlo);
  EXPECT_EQ(loaded->stats.skipped, c.stats.skipped);
}

// --- Sharded builds (num_shards > 1). ---

void ExpectSameCorpusContent(const Corpus& a, const Corpus& b) {
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t e = 0; e < a.entries.size(); ++e) {
    EXPECT_EQ(a.entries[e].query.id, b.entries[e].query.id);
    EXPECT_EQ(a.entries[e].query.ToSql(), b.entries[e].query.ToSql());
    ASSERT_EQ(a.entries[e].all_outputs, b.entries[e].all_outputs);
    ASSERT_EQ(a.entries[e].contributions.size(),
              b.entries[e].contributions.size());
    for (size_t i = 0; i < a.entries[e].contributions.size(); ++i) {
      const auto& ca = a.entries[e].contributions[i];
      const auto& cb = b.entries[e].contributions[i];
      EXPECT_EQ(ca.tuple, cb.tuple);
      ASSERT_EQ(ca.shapley.size(), cb.shapley.size());
      for (const auto& [f, v] : ca.shapley) {
        ASSERT_TRUE(cb.shapley.count(f));
        EXPECT_DOUBLE_EQ(cb.shapley.at(f), v);
      }
    }
  }
  EXPECT_EQ(a.train_idx, b.train_idx);
  EXPECT_EQ(a.dev_idx, b.dev_idx);
  EXPECT_EQ(a.test_idx, b.test_idx);
}

void ExpectPerShardStatsMergeToTotals(const BuildStats& s,
                                      size_t num_shards) {
  ASSERT_EQ(s.per_shard.size(), num_shards);
  size_t exact = 0, strat = 0, mc = 0, cnf = 0, skipped = 0;
  std::map<std::string, size_t> trips;
  for (const ShardBuildStats& ss : s.per_shard) {
    exact += ss.exact;
    strat += ss.stratified;
    mc += ss.monte_carlo;
    cnf += ss.cnf_proxy;
    skipped += ss.skipped;
    for (const auto& [site, n] : ss.budget_trips) trips[site] += n;
  }
  EXPECT_EQ(exact, s.exact);
  EXPECT_EQ(strat, s.stratified);
  EXPECT_EQ(mc, s.monte_carlo);
  EXPECT_EQ(cnf, s.cnf_proxy);
  EXPECT_EQ(skipped, s.skipped);
  EXPECT_EQ(trips, s.budget_trips);
}

// The determinism contract of DESIGN.md §10.4: the merged corpus is a pure
// function of the config — identical for every shard count.
TEST_F(CorpusBudgetTest, ShardedBuildIsShardCountInvariant) {
  const Corpus k1 = Build(SmallConfig());
  for (size_t k : {2u, 8u}) {
    CorpusConfig cfg = SmallConfig();
    cfg.num_shards = k;
    const Corpus ck = Build(cfg);
    ExpectSameCorpusContent(k1, ck);
    EXPECT_EQ(ck.stats.exact, k1.stats.exact);
    EXPECT_EQ(ck.stats.monte_carlo, k1.stats.monte_carlo);
    EXPECT_EQ(ck.stats.cnf_proxy, k1.stats.cnf_proxy);
    EXPECT_EQ(ck.stats.skipped, k1.stats.skipped);
    EXPECT_EQ(ck.stats.budget_trips, k1.stats.budget_trips);
    ExpectPerShardStatsMergeToTotals(ck.stats, k);
    ExpectLadderAccounting(ck);
    ExpectValidSplit(ck);
  }
}

TEST_F(CorpusBudgetTest, ShardedBuildIsThreadCountInvariant) {
  CorpusConfig cfg = SmallConfig();
  cfg.num_shards = 8;
  ThreadPool serial(1);
  const Corpus a = BuildCorpus(*data_.db, data_.graph, cfg, serial);
  const Corpus b = Build(cfg);
  ExpectSameCorpusContent(a, b);
  EXPECT_EQ(a.stats.budget_trips, b.stats.budget_trips);
}

// Degradation rungs engage per job, so they too must be independent of the
// shard count (the MC sampler is seeded by global job index).
TEST_F(CorpusBudgetTest, ShardedBuildMatchesUnderDegradation) {
  CorpusConfig cfg = SmallConfig();
  cfg.max_circuit_nodes = 1;  // every exact compile trips to Monte-Carlo
  const Corpus k1 = Build(cfg);
  CorpusConfig cfg4 = cfg;
  cfg4.num_shards = 4;
  const Corpus k4 = Build(cfg4);
  EXPECT_GT(k4.stats.monte_carlo, 0u);
  ExpectSameCorpusContent(k1, k4);
  EXPECT_EQ(k4.stats.budget_trips, k1.stats.budget_trips);
  ExpectPerShardStatsMergeToTotals(k4.stats, 4);
}

// The stratified rung is seeded by global job index exactly like the MC
// rung, so the merged corpus must stay a pure function of the config —
// identical for every shard count and thread count.
TEST_F(CorpusBudgetTest, StratifiedRungIsShardAndThreadCountInvariant) {
  CorpusConfig cfg = SmallConfig();
  cfg.max_circuit_nodes = 1;  // every tuple lands on the stratified rung
  cfg.stratified_fallback_samples = 64;
  const Corpus k1 = Build(cfg);
  EXPECT_GT(k1.stats.stratified, 0u);
  for (size_t k : {2u, 8u}) {
    CorpusConfig cfgk = cfg;
    cfgk.num_shards = k;
    const Corpus ck = Build(cfgk);
    ExpectSameCorpusContent(k1, ck);
    EXPECT_EQ(ck.stats.stratified, k1.stats.stratified);
    EXPECT_EQ(ck.stats.budget_trips, k1.stats.budget_trips);
    ExpectPerShardStatsMergeToTotals(ck.stats, k);
    ExpectLadderAccounting(ck);
  }
  ThreadPool serial(1);
  CorpusConfig cfg8 = cfg;
  cfg8.num_shards = 8;
  const Corpus serial8 = BuildCorpus(*data_.db, data_.graph, cfg8, serial);
  const Corpus pooled8 = Build(cfg8);
  ExpectSameCorpusContent(serial8, pooled8);
  EXPECT_EQ(serial8.stats.stratified, pooled8.stats.stratified);
}

TEST_F(CorpusBudgetTest, StratifiedStatsRoundTripThroughBinaryShards) {
  const std::string path =
      ::testing::TempDir() + "/corpus_strat_shards.lshapc";
  CorpusConfig cfg = SmallConfig();
  cfg.max_circuit_nodes = 1;
  cfg.stratified_fallback_samples = 64;
  cfg.num_shards = 2;
  auto stats = BuildCorpusToShards(*data_.db, data_.graph, cfg, pool_, path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_GT(stats->stratified, 0u);

  auto loaded = LoadCorpusShards(data_.db.get(), path);
  for (size_t s = 0; s < 2; ++s) {
    std::remove((path + (s == 0 ? ".shard000" : ".shard001")).c_str());
  }
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->stats.stratified, stats->stratified);
  ExpectPerShardStatsMergeToTotals(loaded->stats, 2);

  // The binary path agrees tuple for tuple with the in-memory build.
  CorpusConfig mem_cfg = cfg;
  mem_cfg.num_shards = 1;
  const Corpus mem = BuildCorpus(*data_.db, data_.graph, mem_cfg, pool_);
  ExpectSameCorpusContent(mem, *loaded);
}

TEST_F(CorpusBudgetTest, BuildToShardsMatchesInMemoryBuild) {
  const std::string path =
      ::testing::TempDir() + "/corpus_budget_shards.lshapc";
  CorpusConfig cfg = SmallConfig();
  cfg.num_shards = 2;
  auto stats = BuildCorpusToShards(*data_.db, data_.graph, cfg, pool_, path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  auto loaded = LoadCorpusShards(data_.db.get(), path);
  for (size_t s = 0; s < 2; ++s) {
    std::remove((path + (s == 0 ? ".shard000" : ".shard001")).c_str());
  }
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const Corpus mem = Build(SmallConfig());
  ExpectSameCorpusContent(mem, *loaded);
  EXPECT_EQ(loaded->stats.exact, mem.stats.exact);
  EXPECT_EQ(loaded->stats.budget_trips, mem.stats.budget_trips);
  ExpectPerShardStatsMergeToTotals(loaded->stats, 2);
}


// --- Zero-sample Monte-Carlo rung. ---

// mc_fallback_samples = 0 removes the Monte-Carlo rung from the ladder: a
// tuple the exact rung drops goes straight to the CNF proxy instead of
// receiving a 0/0 estimate.
TEST_F(CorpusBudgetTest, ZeroMcSamplesFallsThroughToCnfProxy) {
  CorpusConfig cfg = SmallConfig();
  cfg.max_circuit_nodes = 1;  // every exact compile trips
  cfg.mc_fallback_samples = 0;
  const Corpus c = Build(cfg);

  EXPECT_EQ(c.stats.exact, 0u);
  EXPECT_EQ(c.stats.monte_carlo, 0u);
  EXPECT_GT(c.stats.cnf_proxy, 0u);
  ExpectLadderAccounting(c);
  ExpectValidSplit(c);
  for (const auto& e : c.entries) {
    for (const auto& contrib : e.contributions) {
      for (const auto& [f, v] : contrib.shapley) {
        EXPECT_FALSE(std::isnan(v)) << "fact " << f;
      }
    }
  }
}

// --- Recorded pins of the ladder's output. ---

// FNV-1a over little-endian 64-bit words and strings.
struct Fnv1a {
  uint64_t h = 0xcbf29ce484222325ull;
  void Byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void Word(uint64_t w) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(w >> (8 * i)));
  }
  void Str(const std::string& s) {
    Word(s.size());
    for (unsigned char c : s) Byte(c);
  }
};

// Every contribution's (fact id, value bits) in entry order, facts sorted
// by id, then the rung counts and the trip map.
uint64_t LadderPin(const Corpus& c) {
  Fnv1a f;
  for (const auto& e : c.entries) {
    for (const auto& contrib : e.contributions) {
      std::vector<std::pair<FactId, double>> items(contrib.shapley.begin(),
                                                   contrib.shapley.end());
      std::sort(items.begin(), items.end());
      f.Word(items.size());
      for (const auto& [fact, v] : items) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        f.Word(fact);
        f.Word(bits);
      }
    }
  }
  const BuildStats& s = c.stats;
  for (size_t n : {s.exact, s.stratified, s.monte_carlo, s.cnf_proxy,
                   s.skipped}) {
    f.Word(n);
  }
  for (const auto& [site, n] : s.budget_trips) {
    f.Str(site);
    f.Word(n);
  }
  return f.h;
}

// A node cap that some tuples' circuits fit under and others do not, so
// one build exercises the exact rung and the rung below it.
constexpr size_t kPinNodeCap = 40;

// The rung each build is meant to engage, and its pin as recorded before
// the estimator ladder was extracted into shapley/ladder.h. A changed rung
// seed, stratum or fall-through order moves these.
TEST_F(CorpusBudgetTest, LadderOutputMatchesRecordedPins) {
  struct PinCase {
    const char* name;
    uint64_t pin;
  };
  const PinCase cases[] = {
      {"exact+stratified", 11498807486450374627ull},
      {"exact+monte_carlo", 17650140085748458515ull},
      {"cnf_proxy", 6891842260897727846ull},
      {"skip", 15973783479643027512ull},
  };
  auto config_for = [&](size_t i, FaultInjector& fault) {
    CorpusConfig cfg = SmallConfig();
    switch (i) {
      case 0:
        cfg.max_circuit_nodes = kPinNodeCap;
        cfg.stratified_fallback_samples = 64;
        break;
      case 1:
        cfg.max_circuit_nodes = kPinNodeCap;
        break;
      case 3:
        fault.FailWithProbability(kSiteCnfProxy, 1.0);
        [[fallthrough]];
      case 2:
        fault.FailWithProbability(kSiteCompilerExpand, 1.0);
        fault.FailWithProbability(kSiteShapleyMcSample, 1.0);
        cfg.fault_injector = &fault;
        break;
    }
    return cfg;
  };
  ThreadPool serial(1);
  for (ThreadPool* pool : {&serial, &pool_}) {
    for (size_t i = 0; i < 4; ++i) {
      FaultInjector fault;
      const Corpus c =
          BuildCorpus(*data_.db, data_.graph, config_for(i, fault), *pool);
      switch (i) {
        case 0:
          EXPECT_GT(c.stats.exact, 0u);
          EXPECT_GT(c.stats.stratified, 0u);
          break;
        case 1:
          EXPECT_GT(c.stats.exact, 0u);
          EXPECT_GT(c.stats.monte_carlo, 0u);
          break;
        case 2:
          EXPECT_GT(c.stats.cnf_proxy, 0u);
          EXPECT_EQ(c.stats.cnf_proxy + c.stats.skipped, c.stats.attempted());
          break;
        case 3:
          EXPECT_EQ(c.stats.skipped, c.stats.attempted());
          break;
      }
      ExpectLadderAccounting(c);
      EXPECT_EQ(LadderPin(c), cases[i].pin)
          << cases[i].name << " at " << pool->num_threads() << " threads";
    }
  }
}

// A build whose jobs mix cheap exact tuples with expensive stratified ones,
// so a wave that reorders its jobs (heaviest first) has something to
// reorder. Every shard and thread count must give the corpus, rung counts
// and trip map recorded for it before the waves were reordered.
TEST_F(CorpusBudgetTest, MixedCostWaveIsShardAndThreadCountInvariant) {
  constexpr uint64_t kRecordedPin = 292314846065919204ull;
  CorpusConfig cfg = SmallConfig();
  cfg.num_base_queries = 16;
  // About one tuple in nine misses this cap and takes the stratified rung.
  cfg.max_circuit_nodes = 12;
  cfg.stratified_fallback_samples = 64;
  ThreadPool serial(1);
  const Corpus reference = BuildCorpus(*data_.db, data_.graph, cfg, serial);
  EXPECT_GT(reference.stats.exact, 0u);
  EXPECT_GT(reference.stats.stratified, 0u);
  EXPECT_EQ(LadderPin(reference), kRecordedPin);
  for (ThreadPool* pool : {&serial, &pool_}) {
    for (size_t k : {1u, 3u}) {
      CorpusConfig cfgk = cfg;
      cfgk.num_shards = k;
      const Corpus c = BuildCorpus(*data_.db, data_.graph, cfgk, *pool);
      ExpectSameCorpusContent(reference, c);
      EXPECT_EQ(c.stats.exact, reference.stats.exact);
      EXPECT_EQ(c.stats.stratified, reference.stats.stratified);
      EXPECT_EQ(c.stats.monte_carlo, reference.stats.monte_carlo);
      EXPECT_EQ(c.stats.cnf_proxy, reference.stats.cnf_proxy);
      EXPECT_EQ(c.stats.skipped, reference.stats.skipped);
      EXPECT_EQ(c.stats.budget_trips, reference.stats.budget_trips);
      ExpectPerShardStatsMergeToTotals(c.stats, k);
      ExpectLadderAccounting(c);
      EXPECT_EQ(LadderPin(c), kRecordedPin)
          << "K=" << k << " at " << pool->num_threads() << " threads";
    }
  }
}

// Shards 1..K-1 are evaluated inside the previous shard's
// corpus.ground_truth span, yet their time lands under corpus.build (where
// the benches read it), with the evaluator's spans below it; every ladder
// rung that ran is timed.
TEST_F(CorpusBudgetTest, ShardedBuildKeepsEvaluationUnderBuildSpan) {
  MetricsRegistry registry;
  CorpusConfig cfg = SmallConfig();
  cfg.num_shards = 3;
  cfg.max_circuit_nodes = 12;
  cfg.stratified_fallback_samples = 64;
  cfg.metrics = &registry;
  const Corpus c = Build(cfg);
  EXPECT_EQ(registry.SpanAt({"corpus.build"}).count, 1u);
  EXPECT_EQ(registry.SpanAt({"corpus.build", "corpus.evaluate_log"}).count,
            3u);
  EXPECT_EQ(registry.SpanAt({"corpus.build", "corpus.ground_truth"}).count,
            3u);
  EXPECT_EQ(registry
                .SpanAt({"corpus.build", "corpus.ground_truth",
                         "corpus.evaluate_log"})
                .count,
            0u);
  EXPECT_EQ(registry
                .SpanAt({"corpus.build", "corpus.evaluate_log", "eval.query"})
                .count,
            registry.CounterValue("eval.queries"));
  auto observed = [&](const char* rung) {
    uint64_t n = 0;
    for (uint64_t b :
         registry.HistogramBuckets(std::string("corpus.rung_us.") + rung)) {
      n += b;
    }
    return n;
  };
  // Every job runs the exact rung; those it trips go on to stratified.
  const uint64_t jobs = registry.CounterValue("corpus.ground_truth_jobs");
  EXPECT_EQ(observed("exact"), jobs);
  EXPECT_EQ(observed("stratified"), jobs - c.stats.exact);
  EXPECT_GT(c.stats.stratified, 0u);
  EXPECT_EQ(observed("monte_carlo"), 0u);
}

// BinomialRow answers from a per-thread cache in front of one shared table;
// threads asking for interleaved sizes at once must each get the row a
// serial computation gives, bit for bit.
TEST(BinomialRowTest, ConcurrentInterleavedRowsMatchSerialComputation) {
  constexpr size_t kThreads = 8;
  // Sizes no other test in this binary asks for, so the rows are computed
  // under contention rather than found cached.
  constexpr size_t kFirst = 1000, kCount = 64;
  auto serial_row = [](size_t m) {
    CountVec row(m + 1);
    row[0] = 1.0L;
    for (size_t k = 1; k <= m; ++k) {
      row[k] = row[k - 1] * static_cast<long double>(m - k + 1) /
               static_cast<long double>(k);
    }
    return row;
  };
  std::vector<std::vector<const CountVec*>> got(
      kThreads, std::vector<const CountVec*>(kCount, nullptr));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Thread t starts t rows in and wraps around, twice, so every size
      // is requested by several threads at once and again once cached.
      for (size_t i = 0; i < 2 * kCount; ++i) {
        const size_t r = (t * 7 + i) % kCount;
        got[t][r] = &BinomialRow(kFirst + r);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t r = 0; r < kCount; ++r) {
    const CountVec want = serial_row(kFirst + r);
    for (size_t t = 0; t < kThreads; ++t) {
      ASSERT_NE(got[t][r], nullptr);
      // One shared row object per size, whichever thread computed it.
      EXPECT_EQ(got[t][r], got[0][r]) << "m=" << kFirst + r;
      // Element-wise ==, not memcmp: a long double carries padding bytes.
      EXPECT_TRUE(*got[t][r] == want) << "m=" << kFirst + r << " thread " << t;
    }
  }
}

}  // namespace
}  // namespace lshap
