// Inputs of the serving benchmark, all derived from --seed: the wikisynth-S
// knowledge base (fixed generator seed, so every run serves the same KB),
// the hot_zipf query pool, the cold_tail query stream and the write
// probe's update batches.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "gen/wikigen.h"
#include "text/inverted_index.h"

namespace perfbench {

/// wikisynth-S, weighted (Eq. 2), with its sampled average distance and its
/// inverted index.
struct Kb {
  wikisearch::gen::GeneratedKb gen;
  wikisearch::InvertedIndex index;
};

struct KbTimes {
  double generate_s = 0.0;  // gen::Generate
  double weights_s = 0.0;   // AttachNodeWeights + AttachAverageDistance
  double index_s = 0.0;     // InvertedIndex::Build
};

Kb BuildKb(KbTimes* times);

struct Query {
  std::string text;  // keywords joined by spaces (the /search q value)
  int knum = 0;
  bool split = false;  // keywords drawn from two communities
};

/// hot_zipf: `n` distinct coherent queries (Knum 2-4, from
/// gen::MakeEfficiencyWorkload), index = popularity rank.
std::vector<Query> HotPool(const Kb& kb, size_t n, uint64_t seed);

/// cold_tail: an endless stream of distinct queries, ~85% coherent at Knum
/// 4-10 and ~15% split across two communities at Knum 4-8. Streams that
/// share `seen` never emit the same keyword set.
class ColdStream {
 public:
  ColdStream(const Kb& kb, uint64_t seed,
             std::unordered_set<std::string>* seen);
  Query Next();

 private:
  const Kb& kb_;
  wikisearch::Rng rng_;
  std::unordered_set<std::string>* seen_;  // sorted keyword sets emitted
  uint64_t emitted_ = 0;
  std::set<uint64_t> split_slots_;  // positions of split queries in a block
};

/// Write probe: seeded /update batches of 1-4 ops — adds that reference
/// existing nodes, removes of triples an earlier batch added, text ops.
class UpdateStream {
 public:
  UpdateStream(const wikisearch::KnowledgeGraph& base, uint64_t seed);
  /// JSON body of the next batch.
  std::string Next();

 private:
  std::string RandomNode();

  const wikisearch::KnowledgeGraph& base_;
  uint64_t seed_;
  wikisearch::Rng rng_;
  uint64_t batches_ = 0;
  uint64_t fresh_ = 0;
  struct Triple {
    std::string s, p, o;
  };
  std::vector<Triple> removable_;  // added by earlier batches, still present
};

}  // namespace perfbench
