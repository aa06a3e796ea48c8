#ifndef LSHAP_PERFBENCH_WORKLOADS_H_
#define LSHAP_PERFBENCH_WORKLOADS_H_

// The frozen definition of every workload: sizes, rates, limits and the
// recorded values its correctness checks compare against. Both sides of a
// comparison must run identical values, so a change here is a change of
// the benchmark, never part of a change that claims a gain.

#include <cstddef>
#include <cstdint>

#include "datasets/imdb.h"
#include "learnshapley/trainer.h"

namespace lshap {
namespace perfbench {

// --seed picks one of this many input variants (seed % kInputVariants), so
// every input a run can be asked for has recorded reference values.
inline constexpr uint64_t kInputVariants = 16;
// train and serve set up this many times before the measured part, and
// setup_s is the median (dbshap_build sets up once per rep instead).
inline constexpr int kSetupRepeats = 5;
// Measured reps run until --seconds have passed, but never fewer than this.
inline constexpr size_t kMinReps = 3;

// ---- dbshap_build -------------------------------------------------------
// IMDB at 8x the default row counts; the variant picks the database seed.
// Rep k of a run builds over variant (seed + k) % kInputVariants.
inline ImdbConfig BuildDbConfig(uint64_t variant) {
  ImdbConfig cfg;
  cfg.seed = 7 + variant;
  cfg.num_companies *= 8;
  cfg.num_actors *= 8;
  cfg.num_movies *= 8;
  cfg.num_roles *= 8;
  return cfg;
}
inline constexpr uint64_t kBuildLogSeed = 1;
inline constexpr size_t kBuildBaseQueries = 64;
inline constexpr size_t kBuildMaxOutputsPerQuery = 48;
// Circuit-node cap of the exact rung: about 1-2% of sampled tuples compile
// to larger circuits and take the stratified rung instead.
inline constexpr uint64_t kBuildMaxCircuitNodes = 160;
inline constexpr size_t kBuildStratifiedSamples = 64;
inline constexpr size_t kBuildShards = 4;
inline constexpr size_t kSimilarityTuplesForRank = 12;
// CorpusFingerprint of the corpus built over each database of the family.
// The build is deterministic at any thread or shard count, so these change
// only when the corpus itself changes.
inline constexpr uint64_t kBuildFingerprints[kInputVariants] = {
    0x7db0002d380009fdULL, 0xbfe2a5b4160bcf28ULL,
    0x26140c23532b9e53ULL, 0xcdb28aaa66f247c6ULL,
    0xcbeafb1a48b1f83dULL, 0x99a5bd0a1db3976fULL,
    0x63386e7720fb8c9cULL, 0x4d04706419156b54ULL,
    0x6cd43cff26cdd832ULL, 0x30e75719e133b28fULL,
    0x0f0192a3323b3044ULL, 0x78cf9b780b4345b1ULL,
    0x5165a7df7ffe3da2ULL, 0x94f2b9805299314fULL,
    0x51e17641362e3e37ULL, 0x698b57d10941819aULL,
};

// ---- train --------------------------------------------------------------
// The standard IMDB workbench: default database, 34 base queries.
inline constexpr uint64_t kTrainCorpusSeed = 101;
inline constexpr size_t kTrainBaseQueries = 34;
inline constexpr size_t kTrainMaxOutputsPerQuery = 24;
inline constexpr uint64_t kTrainSeedBase = 600;  // + input variant
inline TrainConfig TrainWorkloadConfig(uint64_t variant) {
  return TrainConfig()
      .WithModelSize(TrainConfig::ModelSize::kBase)
      .WithPretrainEpochs(2)
      .WithPretrainPairsPerEpoch(256)
      .WithFinetuneEpochs(2)
      .WithFinetuneSamplesPerEpoch(1024)
      .WithSeed(kTrainSeedBase + variant);
}
// Test NDCG@10 recorded for each input variant (training seed). A run
// fails when its NDCG@10 falls more than kTrainNdcgTolerance below the
// recorded value, which catches a speed-up that costs ranking quality.
inline constexpr double kTrainNdcgRecorded[kInputVariants] = {
    0.9266, 0.8882, 0.8728, 0.8872,
    0.7700, 0.8409, 0.8894, 0.7680,
    0.8132, 0.9120, 0.9141, 0.8834,
    0.8115, 0.8364, 0.8413, 0.8350,
};
inline constexpr double kTrainNdcgTolerance = 0.05;

// ---- serve --------------------------------------------------------------
// One database of the dbshap_build family and one key pool serve every
// seed; the seed picks the request sequence. The key pool holds (query,
// tuple) keys with lineage <= kServeMaxLineage, twice the service's cache.
inline constexpr uint64_t kServeDbVariant = 0;
inline constexpr size_t kServeMaxLineage = 64;
inline constexpr size_t kServeCacheEntries = 4096;
inline constexpr size_t kServePoolSize = 2 * kServeCacheEntries;
inline constexpr size_t kServeKeysPerQuery = 32;
// Queries generated and evaluated to fill the pool (a fixed number, so the
// pool does not depend on the seed).
inline constexpr size_t kServePoolQueries = 1200;
// Popularity drifts by one rank every this many requests.
inline constexpr uint64_t kServeDriftRequests = 16;
inline constexpr uint64_t kServePoolSeed = 300;
inline constexpr uint64_t kServeModelSeed = 77;
inline constexpr size_t kServeWorkers = 2;
// Open-loop arrival rates (requests per second), fixed so both sides of a
// comparison see the same load: nominal is under half of the measured
// capacity (about 130 req/s), overload about 1.5x.
inline constexpr double kServeNominalRps = 50.0;
inline constexpr double kServeOverloadRps = 200.0;
// The service's admission estimate of one request's cost per worker (about
// the mean request cost over kServeWorkers on the reference machine), so a
// request whose deadline the queue ahead of it would exceed is rejected up
// front instead of timing out in the queue.
inline constexpr double kServeEstRequestSeconds = 0.012;
// The model rung is only tried with at least this much deadline left.
inline constexpr double kServeEstModelSeconds = 0.020;
// The measuring time is cut into this many windows, each a nominal then
// an overload stretch, so both loads see the whole run's conditions.
inline constexpr size_t kServeWindows = 5;
// Share of each window given to the nominal stretch.
inline constexpr double kServeNominalShare = 0.68;
// The latency limit, applied as the overload phase's request deadline.
inline constexpr double kServeLatencyLimitMs = 50.0;
// Nominal-phase snapshot republish interval.
inline constexpr double kServeRepublishSeconds = 0.25;

}  // namespace perfbench
}  // namespace lshap

#endif  // LSHAP_PERFBENCH_WORKLOADS_H_
