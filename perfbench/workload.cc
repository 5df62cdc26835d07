#include "workload.h"

#include <algorithm>

#include "common/json.h"
#include "common/timer.h"
#include "core/node_weight.h"
#include "gen/workload.h"
#include "graph/distance_sampler.h"

namespace perfbench {

using wikisearch::WallTimer;

namespace {

std::string SetKey(std::vector<std::string> kws) {
  std::sort(kws.begin(), kws.end());
  std::string key;
  for (const auto& k : kws) key += k + ' ';
  return key;
}

std::string Join(const std::vector<std::string>& kws) {
  std::string out;
  for (const auto& k : kws) {
    if (!out.empty()) out += ' ';
    out += k;
  }
  return out;
}

std::vector<std::string> CoherentTerms(const Kb& kb, size_t knum,
                                       uint64_t seed) {
  return wikisearch::gen::MakeEfficiencyWorkload(kb.gen, kb.index, knum, 1,
                                                 seed)[0]
      .keywords;
}

/// `count` distinct indexed terms of community `c` not already in `have`.
void CommunityTerms(const Kb& kb, size_t c, size_t count,
                    wikisearch::Rng& rng, std::vector<std::string>* have) {
  std::vector<std::string> terms;
  for (const auto& t : kb.gen.meta.community_terms[c]) {
    if (!kb.index.Lookup(t).empty() &&
        std::find(have->begin(), have->end(), t) == have->end()) {
      terms.push_back(t);
    }
  }
  for (size_t i = 0; i < count && !terms.empty(); ++i) {
    const size_t j = rng.Uniform(terms.size());
    have->push_back(terms[j]);
    terms.erase(terms.begin() + static_cast<long>(j));
  }
}

}  // namespace

Kb BuildKb(KbTimes* times) {
  Kb kb;
  WallTimer t;
  kb.gen = wikisearch::gen::Generate(wikisearch::gen::SmallConfig());
  times->generate_s = t.ElapsedMs() / 1e3;
  t.Restart();
  wikisearch::AttachNodeWeights(&kb.gen.graph);
  wikisearch::AttachAverageDistance(&kb.gen.graph);
  times->weights_s = t.ElapsedMs() / 1e3;
  t.Restart();
  kb.index = wikisearch::InvertedIndex::Build(kb.gen.graph);
  times->index_s = t.ElapsedMs() / 1e3;
  return kb;
}

std::vector<Query> HotPool(const Kb& kb, size_t n, uint64_t seed) {
  wikisearch::Rng rng(seed);
  std::unordered_set<std::string> seen;
  std::vector<Query> pool;
  while (pool.size() < n) {
    const size_t knum = 2 + pool.size() % 3;
    std::vector<std::string> kws = CoherentTerms(kb, knum, rng());
    if (!seen.insert(SetKey(kws)).second) continue;
    pool.push_back(Query{Join(kws), static_cast<int>(knum), false});
  }
  // Popularity rank must not correlate with Knum.
  std::shuffle(pool.begin(), pool.end(), rng);
  return pool;
}

ColdStream::ColdStream(const Kb& kb, uint64_t seed,
                       std::unordered_set<std::string>* seen)
    : kb_(kb), rng_(seed), seen_(seen) {}

Query ColdStream::Next() {
  const size_t ncomm = kb_.gen.meta.num_communities;
  while (true) {
    Query q;
    std::vector<std::string> kws;
    // Exactly 3 of every 20 queries are split, at seeded positions, so each
    // capacity step sees the same class mix.
    if (emitted_ % 20 == 0) {
      split_slots_.clear();
      while (split_slots_.size() < 3) split_slots_.insert(rng_.Uniform(20));
    }
    if (split_slots_.count(emitted_ % 20) != 0) {
      // The paper's Q4/Q6/Q7 shape: most keywords from one community, a
      // pair (three at Knum 8) from another.
      q.split = true;
      q.knum = static_cast<int>(rng_.UniformRange(4, 8));
      const size_t minority = q.knum >= 8 ? 3 : 2;
      const size_t a = rng_.Uniform(ncomm);
      const size_t b = (a + 1 + rng_.Uniform(ncomm - 1)) % ncomm;
      CommunityTerms(kb_, a, static_cast<size_t>(q.knum) - minority, rng_,
                     &kws);
      CommunityTerms(kb_, b, minority, rng_, &kws);
      if (kws.size() != static_cast<size_t>(q.knum)) continue;
    } else {
      q.knum = static_cast<int>(rng_.UniformRange(4, 10));
      kws = CoherentTerms(kb_, static_cast<size_t>(q.knum), rng_());
    }
    if (!seen_->insert(SetKey(kws)).second) continue;
    q.text = Join(kws);
    ++emitted_;
    return q;
  }
}

UpdateStream::UpdateStream(const wikisearch::KnowledgeGraph& base,
                           uint64_t seed)
    : base_(base), seed_(seed), rng_(seed ^ 0x75bda7eULL) {}

std::string UpdateStream::RandomNode() {
  return base_.NodeName(
      static_cast<wikisearch::NodeId>(rng_.Uniform(base_.num_nodes())));
}

std::string UpdateStream::Next() {
  const size_t batch = batches_++;
  const size_t n = 1 + rng_.Uniform(4);
  std::vector<Triple> add, remove;
  std::vector<std::pair<std::string, std::string>> text;
  for (size_t i = 0; i < n; ++i) {
    const double r = rng_.UniformDouble();
    if (r < 0.25 && !removable_.empty()) {
      const size_t j = rng_.Uniform(removable_.size());
      remove.push_back(removable_[j]);
      removable_.erase(removable_.begin() + static_cast<long>(j));
    } else if (r < 0.5) {
      text.emplace_back(RandomNode(),
                        "pbnote " + std::to_string(seed_) + " " +
                            std::to_string(batch));
    } else {
      Triple t;
      t.s = rng_.Bernoulli(0.5) ? "pbnode " + std::to_string(seed_) + "x" +
                                      std::to_string(fresh_++)
                                : RandomNode();
      t.p = "pbrel" + std::to_string(rng_.Uniform(8));
      t.o = RandomNode();
      add.push_back(std::move(t));
    }
  }
  wikisearch::JsonWriter w;
  w.BeginObject();
  auto triples = [&](const char* key, const std::vector<Triple>& ts) {
    if (ts.empty()) return;
    w.Key(key);
    w.BeginArray();
    for (const Triple& t : ts) {
      w.BeginArray();
      w.String(t.s);
      w.String(t.p);
      w.String(t.o);
      w.EndArray();
    }
    w.EndArray();
  };
  triples("add", add);
  triples("remove", remove);
  if (!text.empty()) {
    w.Key("text");
    w.BeginArray();
    for (const auto& [node, body] : text) {
      w.BeginArray();
      w.String(node);
      w.String(body);
      w.EndArray();
    }
    w.EndArray();
  }
  w.EndObject();
  // Adds become removable only for later batches, which apply after this
  // one (the write probe posts each batch alone and waits for its answer).
  removable_.insert(removable_.end(), add.begin(), add.end());
  return std::move(w).Take();
}

}  // namespace perfbench
