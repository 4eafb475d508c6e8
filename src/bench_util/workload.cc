#include "bench_util/workload.h"

#include <cstdlib>

namespace fdb {

namespace {

// Draws K non-redundant equalities over [0..num_attrs) and appends them to
// the query (mirrors GenerateWorkload's policy).
void DrawEqualities(Query* q, int num_attrs, int k, Rng& rng) {
  AttrSet universe = AttrSet::FirstN(static_cast<AttrId>(num_attrs));
  FDB_CHECK_MSG(k < num_attrs,
                "cannot draw K non-redundant equalities with K >= A");
  while (static_cast<int>(q->equalities.size()) < k) {
    AttrId a = static_cast<AttrId>(rng.Uniform(0, num_attrs - 1));
    AttrId b = static_cast<AttrId>(rng.Uniform(0, num_attrs - 1));
    if (a == b) continue;
    auto classes = EqualityClasses(universe, q->equalities);
    AttrSet ca, cb;
    for (const AttrSet& c : classes) {
      if (c.Contains(a)) ca = c;
      if (c.Contains(b)) cb = c;
    }
    if (ca == cb) continue;
    q->equalities.emplace_back(a, b);
  }
}

void FillRelation(Relation* rel, size_t rows, int64_t domain,
                  Distribution dist, double zipf_alpha, Rng& rng) {
  std::vector<Value> tuple(rel->arity());
  rel->Reserve(rows);
  if (dist == Distribution::kZipf) {
    ZipfSampler zipf(domain, zipf_alpha);
    for (size_t i = 0; i < rows; ++i) {
      for (Value& v : tuple) v = zipf.Sample(rng);
      rel->AddTuple(tuple);
    }
  } else {
    for (size_t i = 0; i < rows; ++i) {
      for (Value& v : tuple) v = rng.Uniform(1, domain);
      rel->AddTuple(tuple);
    }
  }
}

}  // namespace

BenchInstance MakeBenchInstance(const WorkloadSpec& spec) {
  BenchInstance inst;
  inst.spec = spec;
  inst.db = std::make_unique<Database>();
  Rng rng(spec.seed);

  std::vector<int> counts = DistributeAttrs(spec.num_attrs, spec.num_rels);
  AttrId next = 0;
  for (int r = 0; r < spec.num_rels; ++r) {
    std::vector<std::string> cols;
    for (int i = 0; i < counts[static_cast<size_t>(r)]; ++i) {
      cols.push_back("a" + std::to_string(next++));
    }
    RelId rid = inst.db->CreateRelation("r" + std::to_string(r), cols);
    FillRelation(&inst.db->relation(rid), spec.tuples_per_rel, spec.domain,
                 spec.dist, spec.zipf_alpha, rng);
    inst.query.rels.push_back(rid);
  }
  DrawEqualities(&inst.query, spec.num_attrs, spec.num_equalities, rng);
  return inst;
}

BenchInstance MakeHeterogeneousInstance(
    const std::vector<int>& arities, const std::vector<size_t>& sizes,
    int64_t domain, Distribution dist, double zipf_alpha, int num_equalities,
    uint64_t seed) {
  FDB_CHECK(arities.size() == sizes.size());
  BenchInstance inst;
  inst.db = std::make_unique<Database>();
  Rng rng(seed);

  int num_attrs = 0;
  for (size_t r = 0; r < arities.size(); ++r) {
    std::vector<std::string> cols;
    for (int i = 0; i < arities[r]; ++i) {
      cols.push_back("a" + std::to_string(num_attrs++));
    }
    RelId rid =
        inst.db->CreateRelation("r" + std::to_string(r), cols);
    FillRelation(&inst.db->relation(rid), sizes[r], domain, dist, zipf_alpha,
                 rng);
    inst.query.rels.push_back(rid);
  }
  DrawEqualities(&inst.query, num_attrs, num_equalities, rng);

  inst.spec.num_rels = static_cast<int>(arities.size());
  inst.spec.num_attrs = num_attrs;
  inst.spec.domain = domain;
  inst.spec.dist = dist;
  inst.spec.zipf_alpha = zipf_alpha;
  inst.spec.num_equalities = num_equalities;
  inst.spec.seed = seed;
  return inst;
}

BenchInstance MakeKeyForeignKeyChain(size_t customers, size_t orders,
                                     size_t lineitems, uint64_t seed) {
  BenchInstance inst;
  inst.db = std::make_unique<Database>();
  Rng rng(seed);
  RelId c = inst.db->CreateRelation("Customer", {"ck", "cnation"});
  RelId o = inst.db->CreateRelation("Orders", {"ok", "o_ck", "opri"});
  RelId l = inst.db->CreateRelation("Lineitem", {"lk", "l_ok", "qty"});
  Relation& rc = inst.db->relation(c);
  for (size_t i = 1; i <= customers; ++i) {
    rc.AddTuple({static_cast<Value>(i), rng.Uniform(1, 25)});
  }
  Relation& ro = inst.db->relation(o);
  for (size_t i = 1; i <= orders; ++i) {
    ro.AddTuple({static_cast<Value>(i),
                 rng.Uniform(1, static_cast<int64_t>(customers)),
                 rng.Uniform(1, 5)});
  }
  Relation& rl = inst.db->relation(l);
  for (size_t i = 1; i <= lineitems; ++i) {
    rl.AddTuple({static_cast<Value>(i),
                 rng.Uniform(1, static_cast<int64_t>(orders)),
                 rng.Uniform(1, 50)});
  }
  inst.query.rels = {c, o, l};
  inst.query.equalities = {{inst.db->Attr("ck"), inst.db->Attr("o_ck")},
                           {inst.db->Attr("ok"), inst.db->Attr("l_ok")}};
  return inst;
}

BenchInstance MakeManyToManyStar(size_t n, int64_t b_domain, uint64_t seed) {
  BenchInstance inst;
  inst.db = std::make_unique<Database>();
  Rng rng(seed);
  RelId s = inst.db->CreateRelation("S", {"sa", "sb"});
  RelId t = inst.db->CreateRelation("T", {"tb", "tc"});
  for (size_t i = 1; i <= n; ++i) {
    inst.db->relation(s).AddTuple(
        {static_cast<Value>(i), rng.Uniform(1, b_domain)});
    inst.db->relation(t).AddTuple(
        {rng.Uniform(1, b_domain), static_cast<Value>(i)});
  }
  inst.query.rels = {s, t};
  inst.query.equalities = {{inst.db->Attr("sb"), inst.db->Attr("tb")}};
  return inst;
}

double BenchScale() {
  const char* s = std::getenv("FDB_BENCH_SCALE");
  if (s == nullptr) return 1.0;
  double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

double BenchTimeout() {
  const char* s = std::getenv("FDB_BENCH_TIMEOUT");
  if (s == nullptr) return 10.0;
  double v = std::atof(s);
  return v > 0 ? v : 10.0;
}

}  // namespace fdb
