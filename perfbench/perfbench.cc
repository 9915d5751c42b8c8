// End-to-end benchmark of the tpset engine: three workloads, each one
// process, measured from outside the engine through its public API.
//
//   perfbench --workload <query-cold|query-parallel|stream-retain>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the same
// workload first untraced and then traced (timing calls into each module's
// public functions), and reports the per-layer metrics plus the tracing
// overhead (traced minus untraced latency median). The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; earlier "#" lines record
// provenance, shape and the tail percentiles used. Any output-check
// mismatch prints correct=false and exits 1. See perfbench/README.md for
// the workloads, why each was chosen and what every metric means.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/random.h"
#include "datagen/stream.h"
#include "datagen/synthetic.h"
#include "incremental/continuous_query.h"
#include "lawa/columnar_advancer.h"
#include "lawa/set_ops.h"
#include "lineage/eval.h"
#include "parallel/parallel_set_op.h"
#include "query/analyzer.h"
#include "query/executor.h"
#include "query/parser.h"
#include "relation/snapshot.h"

using namespace tpset;

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(*r);
}

void Check(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

std::size_t HostCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// VmHWM of this process in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

// ---- Sample statistics ------------------------------------------------------

// The highest percentile that still has at least ten samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};

struct Samples {
  std::vector<double> v;

  void Add(double x) { v.push_back(x); }
  double Mean() const {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  }
  double Median() const {
    if (v.empty()) return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
  }
  Tail TailOf() const {
    Tail t;
    t.samples = v.size();
    if (v.empty()) return t;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    const std::size_t k = n > 10 ? n - 11 : n - 1;
    t.value = s[k];
    t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
    return t;
  }
};

// ---- Result reporting -------------------------------------------------------

struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::tuple<std::string, double, std::string>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& [n, v, u] : metrics) {
      if (n == name) {
        v = value;
        u = unit;
        return;
      }
    }
    metrics.emplace_back(name, value, unit);
  }

  void Mismatch(const std::string& what) {
    std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
    correct = false;
  }

  int Print() const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value, unit] : metrics) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", name.c_str(), value, unit.c_str());
      out += buf;
      first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }
};

void NoteTail(const char* what, const Tail& t) {
  std::printf("# tail %s: p%.2f of %zu samples = %.4f ms\n", what, t.percentile,
              t.samples, t.value);
}

// Every per-layer metric, with its unit. A workload leaves at 0 the layers
// it does not run (README.md, "Per-layer metrics").
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"query.parse_ms", "ms"},
    {"query.execute_ms", "ms"},
    {"lawa.sweep_ms", "ms"},
    {"lawa.setop_ms", "ms"},
    {"lawa.windows", "count"},
    {"lawa.output_tuples", "count"},
    {"lineage.concat_ms", "ms"},
    {"lineage.nodes_added", "count"},
    {"lineage.nodes_per_output", "nodes/tuple"},
    {"lineage.valuate_readonce_ms", "ms"},
    {"lineage.valuate_exact_ms", "ms"},
    {"lineage.arena_nodes_end", "count"},
    {"parallel.threads", "count"},
    {"parallel.split_ms", "ms"},
    {"parallel.advance_ms", "ms"},
    {"parallel.apply_ms", "ms"},
    {"parallel.morsels_run", "count"},
    {"parallel.morsels_stolen", "count"},
    {"parallel.facts_split", "count"},
    {"parallel.execute_1t_ms", "ms"},
    {"parallel.execute_nt_ms", "ms"},
    {"parallel.speedup", "x"},
    {"storage.snapshot_ms", "ms"},
    {"storage.fold_ms", "ms"},
    {"storage.scan_ms", "ms"},
    {"storage.retain_ms", "ms"},
    {"storage.runs_max", "count"},
    {"storage.compaction_debt_max", "count"},
    {"storage.resident_tuples_max", "count"},
    {"incremental.append_ms", "ms"},
    {"incremental.to_first_delivery_ms", "ms"},
    {"incremental.delivery_span_ms", "ms"},
    {"incremental.delta_rows_out", "rows/epoch"},
    {"incremental.append_busy_share", "share"},
    {"stream.generator_late_ms", "ms"},
    {"stream.backlog_max", "epochs"},
    {"trace.untraced_p50_ms", "ms"},
    {"trace.traced_p50_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.overhead_share", "share"},
};

void SetLayer(Report* rep, const std::string& name, double value) {
  for (const auto& [n, unit] : kLayerMetrics) {
    if (name == n) {
      rep->Set(name, value, unit);
      return;
    }
  }
  Die("unknown per-layer metric " + name);
}

// Tracing overhead: the traced part's latency median against the untraced
// part's.
void SetOverhead(Report* rep, double untraced_p50, double traced_p50) {
  SetLayer(rep, "trace.untraced_p50_ms", untraced_p50);
  SetLayer(rep, "trace.traced_p50_ms", traced_p50);
  SetLayer(rep, "trace.overhead_ms", traced_p50 - untraced_p50);
  SetLayer(rep, "trace.overhead_share", (traced_p50 - untraced_p50) / untraced_p50);
}

// ---- Output comparison ------------------------------------------------------

// (fact, interval, probability) of every result tuple, in (fact, start, end)
// order — the representation two executions over different arenas share.
struct Row {
  FactId fact;
  TimePoint start;
  TimePoint end;
  double p;
};

std::vector<Row> RowsOf(const TpRelation& rel, ProbabilityMethod method,
                        TimePoint clip = kNoWatermark) {
  std::vector<Row> rows;
  rows.reserve(rel.size());
  for (std::size_t i = 0; i < rel.size(); ++i) {
    const TpTuple& t = rel[i];
    if (clip != kNoWatermark && t.t.end <= clip) continue;
    const TimePoint start = clip == kNoWatermark ? t.t.start : std::max(t.t.start, clip);
    rows.push_back({t.fact, start, t.t.end, rel.TupleProbability(i, method)});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(a.fact, a.start, a.end) < std::tie(b.fact, b.start, b.end);
  });
  return rows;
}

// Empty string when equal, else a description of the first difference.
std::string CompareRows(const std::vector<Row>& got, const std::vector<Row>& want) {
  if (got.size() != want.size()) {
    return "size " + std::to_string(got.size()) + " vs " + std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Row& a = got[i];
    const Row& b = want[i];
    if (a.fact != b.fact || a.start != b.start || a.end != b.end ||
        std::fabs(a.p - b.p) > 1e-9) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "row %zu: (f%u [%lld,%lld) p=%.12g) vs (f%u [%lld,%lld) p=%.12g)",
                    i, a.fact, static_cast<long long>(a.start),
                    static_cast<long long>(a.end), a.p, b.fact,
                    static_cast<long long>(b.start), static_cast<long long>(b.end), b.p);
      return buf;
    }
  }
  return "";
}

using RelationMap = std::map<std::string, const TpRelation*>;

// The Defs. 1-3 oracle over a whole query tree.
TpRelation ReferenceQuery(const QueryNode& q, const RelationMap& rels) {
  if (q.kind == QueryNode::Kind::kRelation) return *rels.at(q.relation_name);
  return ReferenceSetOp(q.op, ReferenceQuery(*q.left, rels),
                        ReferenceQuery(*q.right, rels));
}

bool HoldsIn(const QueryNode& q, const std::map<std::string, bool>& world) {
  if (q.kind == QueryNode::Kind::kRelation) return world.at(q.relation_name);
  const bool l = HoldsIn(*q.left, world);
  const bool r = HoldsIn(*q.right, world);
  switch (q.op) {
    case SetOpKind::kUnion:
      return l || r;
    case SetOpKind::kIntersect:
      return l && r;
    case SetOpKind::kExcept:
      return l && !r;
  }
  return false;
}

// Probability that fact f is in the query result at time t, by enumerating
// possible worlds: a duplicate-free base relation has at most one tuple of
// f valid at t, so each relation contributes one independent variable. Does
// not touch the lineage arena, so it also checks the Table I concatenation.
double WorldsProbability(const QueryNode& q, const RelationMap& rels, FactId f,
                         TimePoint t) {
  std::vector<std::pair<std::string, double>> vars;  // relation, p (0 if absent)
  for (const auto& [name, rel] : rels) {
    double p = 0.0;
    for (std::size_t i = 0; i < rel->size(); ++i) {
      const TpTuple& tup = (*rel)[i];
      if (tup.fact == f && tup.t.start <= t && t < tup.t.end) {
        p = rel->TupleProbability(i);
      }
    }
    vars.emplace_back(name, p);
  }
  double total = 0.0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << vars.size()); ++mask) {
    std::map<std::string, bool> world;
    double pw = 1.0;
    for (std::size_t v = 0; v < vars.size(); ++v) {
      const bool present = (mask >> v) & 1;
      world[vars[v].first] = present;
      pw *= present ? vars[v].second : 1.0 - vars[v].second;
    }
    if (HoldsIn(q, world)) total += pw;
  }
  return total;
}

// ---- Query workloads --------------------------------------------------------

struct QueryText {
  std::string text;
  ProbabilityMethod method;  // RecommendedMethod of the parsed query
};

std::vector<QueryText> MakeMix(const std::vector<std::string>& texts) {
  std::vector<QueryText> mix;
  for (const std::string& t : texts) {
    QueryPtr q = Unwrap(ParseQuery(t), "parse mix query");
    mix.push_back({t, RecommendedMethod(*q)});
  }
  return mix;
}

// One generated catalog in a fresh context: relations a, b, c registered
// with a fresh executor. `rels` keeps the generated copies (same context)
// for the traced run's leaf-level decomposition and the oracle.
struct Catalog {
  std::shared_ptr<TpContext> ctx;
  std::unique_ptr<QueryExecutor> exec;
  std::vector<TpRelation> rels;  // a, b, c

  const TpRelation& Rel(const std::string& name) const {
    return rels.at(static_cast<std::size_t>(name[0] - 'a'));
  }
};

struct QueryWorkload {
  std::string name;
  bool skewed = false;  // zipf catalog (query-parallel) vs Table III (query-cold)
  std::size_t tuples = 100000;
  std::size_t facts = 100;
  std::size_t threads = 1;
  std::vector<QueryText> mix;
};

// Every relation of the catalog is generated from one shared per-fact
// offset vector, so all three overlap pairwise. A `c` from a second
// GenerateSyntheticPair call would get offsets of its own and never meet
// `a` or `b`, and `(a | b) - c` would measure nothing.
//
// query-cold: the paper's synthetic generator with the Table III 0.4
// preset (a: lengths <= 50, b and c: lengths <= 10, gaps stretched so all
// three span one horizon), chains staggered over the timeline.
// query-parallel: zipf(1.2)-weighted per-fact tuple counts, every chain
// starting near time 0 (shared zero offsets), lengths <= 3 / 9 / 6.
Catalog BuildCatalog(const QueryWorkload& w, std::size_t tuples, std::size_t facts,
                     std::uint64_t seed) {
  Catalog cat;
  cat.ctx = std::make_shared<TpContext>();
  Rng rng(seed);
  if (!w.skewed) {
    const SyntheticPairSpec preset = TableIIIPreset(0.4);
    const TimePoint gap = preset.max_time_distance;
    auto pitch = [](TimePoint len, TimePoint g) {
      return (static_cast<double>(len) + 1.0) / 2.0 + static_cast<double>(g) / 2.0;
    };
    const double pitch_a = pitch(preset.max_interval_length_r, gap);
    const TimePoint len_b = preset.max_interval_length_s;
    const TimePoint gap_b = static_cast<TimePoint>(
        2.0 * (pitch_a - (static_cast<double>(len_b) + 1.0) / 2.0));
    const TimePoint range = static_cast<TimePoint>(pitch_a * static_cast<double>(tuples));
    const TimePoint chain = static_cast<TimePoint>(
        pitch_a * static_cast<double>(tuples) / static_cast<double>(facts));
    std::vector<TimePoint> offsets(facts);
    for (TimePoint& o : offsets) o = rng.Uniform(0, std::max<TimePoint>(0, range - chain));
    const struct {
      const char* name;
      TimePoint len;
      TimePoint gap;
    } shapes[] = {
        {"a", preset.max_interval_length_r, gap}, {"b", len_b, gap_b}, {"c", len_b, gap_b}};
    for (const auto& sh : shapes) {
      SyntheticSpec spec;
      spec.num_tuples = tuples;
      spec.num_facts = facts;
      spec.max_interval_length = sh.len;
      spec.max_time_distance = sh.gap;
      cat.rels.push_back(GenerateSynthetic(cat.ctx, spec, sh.name, &rng, &offsets));
    }
  } else {
    SkewedPairSpec spec;
    spec.num_tuples = tuples;
    spec.num_facts = facts;
    spec.zipf_s = 1.2;
    const std::vector<std::size_t> counts = SkewedFactCounts(spec);
    std::vector<FactId> ids;
    for (std::size_t f = 0; f < facts; ++f) {
      ids.push_back(cat.ctx->facts().Intern({Value(static_cast<std::int64_t>(f))}));
    }
    const std::pair<const char*, TimePoint> shapes[] = {{"a", 3}, {"b", 9}, {"c", 6}};
    for (const auto& [name, max_len] : shapes) {
      TpRelation rel(cat.ctx, Schema::SingleInt("fact"), name);
      for (std::size_t f = 0; f < facts; ++f) {
        TimePoint cursor = 0;
        for (std::size_t i = 0; i < counts[f]; ++i) {
          const TimePoint start = cursor + rng.Uniform(0, spec.max_time_distance);
          const TimePoint end = start + rng.Uniform(1, max_len);
          rel.AddBaseFast(ids[f], Interval(start, end), 0.1 + 0.8 * rng.NextDouble());
          cursor = end;
        }
      }
      rel.SortFactTime();
      cat.rels.push_back(std::move(rel));
    }
  }
  cat.exec = std::make_unique<QueryExecutor>(cat.ctx);
  for (const TpRelation& rel : cat.rels) Check(cat.exec->Register(rel), "register");
  return cat;
}

ExecOptions OptionsFor(const QueryWorkload& w) {
  ExecOptions opt;
  opt.num_threads = w.threads;
  return opt;
}

std::uint64_t RoundSeed(std::uint64_t seed, std::size_t round) {
  return seed * 0x9E3779B97F4A7C15ULL + 0x51ED27ULL * (round + 1);
}

// Each query shape against the oracle on a small catalog built by the same
// generator, executed with the workload's own options: tuples and intervals
// from the Defs. 1-3 reference evaluator, probabilities from possible worlds.
void CheckAgainstOracle(const QueryWorkload& w, std::uint64_t seed, Report* rep) {
  Catalog cat = BuildCatalog(w, 240, 4, seed ^ 0x0AC1E5ULL);
  RelationMap rels;
  for (const TpRelation& r : cat.rels) rels[r.name()] = &r;
  for (const QueryText& q : w.mix) {
    QueryPtr ast = Unwrap(ParseQuery(q.text), "parse");
    TpRelation got = Unwrap(cat.exec->Execute(q.text, OptionsFor(w)), "execute");
    // The reference's own probabilities are replaced by possible-worlds ones.
    std::vector<Row> want = RowsOf(ReferenceQuery(*ast, rels), ProbabilityMethod::kReadOnce);
    if (want.empty()) rep->Mismatch("oracle result of `" + q.text + "` is empty");
    for (Row& row : want) row.p = WorldsProbability(*ast, rels, row.fact, row.start);
    const std::string diff = CompareRows(RowsOf(got, ProbabilityMethod::kExact), want);
    if (!diff.empty()) rep->Mismatch("`" + q.text + "` vs Defs. 1-3 oracle: " + diff);
  }
}

struct QueryRun {
  Samples op_ms;    // query text -> tuples with all probabilities
  Samples read_ms;  // the valuation part: result tuples -> probabilities
  Samples setup_s;  // per-round catalog build
  double query_wall_ms = 0.0;
  std::size_t completed = 0;
  double checksum = 0.0;
};

// Valuates every tuple of `res`; returns the probability sum.
double Valuate(const TpRelation& res, ProbabilityMethod method) {
  double sum = 0.0;
  for (std::size_t i = 0; i < res.size(); ++i) sum += res.TupleProbability(i, method);
  return sum;
}

struct LayerAcc {
  Samples parse, execute, val_ro, val_exact;
  Samples sweep, setop, windows, outputs;
  Samples split, advance, apply, morsels, stolen, split_facts;
  Samples exec_1t;
  double nodes_added = 0.0, result_tuples = 0.0;
  std::size_t rounds = 0;
};

// Timed query mix on `cat`. With `layers`, each query is split into
// ParseQuery / Execute / valuation calls and the arena growth is recorded.
void RunMix(const QueryWorkload& w, Catalog& cat, QueryRun* run, Report* rep,
            LayerAcc* layers, std::vector<std::vector<Row>>* keep) {
  const ExecOptions opt = OptionsFor(w);
  for (std::size_t qi = 0; qi < w.mix.size(); ++qi) {
    const QueryText& q = w.mix[qi];
    ++rep->attempted;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point t_exec0 = t0;
    std::size_t nodes0 = 0;
    Result<TpRelation> res = [&]() -> Result<TpRelation> {
      if (layers == nullptr) return cat.exec->Execute(q.text, opt);
      Result<QueryPtr> ast = ParseQuery(q.text);
      t_exec0 = Clock::now();
      if (!ast.ok()) return ast.status();
      nodes0 = cat.ctx->lineage().size();
      return cat.exec->Execute(**ast, opt);
    }();
    const Clock::time_point t1 = Clock::now();
    if (!res.ok()) {
      ++rep->failed;
      std::fprintf(stderr, "perfbench: `%s` failed: %s\n", q.text.c_str(),
                   res.status().ToString().c_str());
      continue;
    }
    run->checksum += Valuate(*res, q.method);
    const Clock::time_point t2 = Clock::now();
    run->op_ms.Add(MsBetween(t0, t2));
    run->read_ms.Add(MsBetween(t1, t2));
    run->query_wall_ms += MsBetween(t0, t2);
    ++run->completed;
    if (layers != nullptr) {
      layers->parse.Add(MsBetween(t0, t_exec0));
      layers->execute.Add(MsBetween(t_exec0, t1));
      (q.method == ProbabilityMethod::kExact ? layers->val_exact : layers->val_ro)
          .Add(MsBetween(t1, t2));
      layers->nodes_added += static_cast<double>(cat.ctx->lineage().size() - nodes0);
      layers->result_tuples += static_cast<double>(res->size());
    }
    if (keep != nullptr) (*keep)[qi] = RowsOf(*res, q.method);
  }
}

// The distinct leaf set operations of the mix (relation op relation).
std::vector<std::tuple<SetOpKind, std::string, std::string>> LeafOps(
    const std::vector<QueryText>& mix) {
  std::vector<std::tuple<SetOpKind, std::string, std::string>> leaves;
  auto walk = [&](auto&& self, const QueryNode& n) -> void {
    if (n.kind == QueryNode::Kind::kRelation) return;
    if (n.left->kind == QueryNode::Kind::kRelation &&
        n.right->kind == QueryNode::Kind::kRelation) {
      auto leaf = std::make_tuple(n.op, n.left->relation_name, n.right->relation_name);
      if (std::find(leaves.begin(), leaves.end(), leaf) == leaves.end()) {
        leaves.push_back(leaf);
      }
      return;
    }
    self(self, *n.left);
    self(self, *n.right);
  };
  for (const QueryText& q : mix) walk(walk, *Unwrap(ParseQuery(q.text), "parse"));
  return leaves;
}

// Leaf-level decomposition on a cold arena (a catalog no query has touched;
// distinct leaf operations intern disjoint formulas). Sequential: sweep
// only (columnar kernel, counting callback) vs the whole LawaSetOp.
// Parallel: ComputeTimed on the executor's own algorithm instance.
void DecomposeLeaves(const QueryWorkload& w, Catalog& cat, LayerAcc* layers) {
  for (const auto& [op, l, r] : LeafOps(w.mix)) {
    const TpRelation& rr = cat.Rel(l);
    const TpRelation& ss = cat.Rel(r);
    LawaStats stats;
    if (w.threads <= 1) {
      (void)rr.columnar();
      (void)ss.columnar();
      std::size_t emitted = 0;
      const Clock::time_point t0 = Clock::now();
      ColumnarAdvancer adv(rr.columnar(), ss.columnar());
      adv.Sweep(op, [&](const LineageAwareWindow&) { ++emitted; });
      const Clock::time_point t1 = Clock::now();
      TpRelation out = LawaSetOp(op, rr, ss, SortMode::kComparison, &stats);
      const Clock::time_point t2 = Clock::now();
      if (out.size() != emitted) Die("sweep/LawaSetOp output count mismatch");
      layers->sweep.Add(MsBetween(t0, t1));
      layers->setop.Add(MsBetween(t1, t2));
    } else {
      const ParallelSetOpAlgorithm* algo = cat.exec->ParallelAlgoFor(OptionsFor(w));
      PhaseTimings phases;
      TpRelation out = algo->ComputeTimed(op, rr, ss, &phases, &stats);
      layers->split.Add(phases.split_ms);
      layers->advance.Add(phases.advance_ms);
      layers->apply.Add(phases.apply_ms);
      layers->morsels.Add(static_cast<double>(stats.morsels_run));
      layers->stolen.Add(static_cast<double>(stats.morsels_stolen));
      layers->split_facts.Add(static_cast<double>(stats.facts_split));
    }
    layers->windows.Add(static_cast<double>(stats.windows_produced));
    layers->outputs.Add(static_cast<double>(stats.output_tuples));
  }
}

// Sequential Execute of the mix on a fresh catalog: the 1-thread side of
// parallel.speedup.
void RunSequentialExecutes(const QueryWorkload& w, Catalog& cat, LayerAcc* layers) {
  for (const QueryText& q : w.mix) {
    const Clock::time_point t0 = Clock::now();
    Result<TpRelation> res = cat.exec->Execute(q.text, ExecOptions{});
    layers->exec_1t.Add(MsBetween(t0, Clock::now()));
    if (!res.ok()) Die("sequential execute: " + res.status().ToString());
  }
}

// Closed loop, one client: every round builds a fresh catalog (outside the
// latency timer) and runs the mix once.
QueryRun QueryLoop(const QueryWorkload& w, std::uint64_t seed, double seconds,
                   Report* rep, LayerAcc* layers) {
  QueryRun run;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (std::size_t round = 0; round == 0 || Clock::now() < deadline; ++round) {
    const std::uint64_t rs = RoundSeed(seed, round);
    std::vector<std::vector<Row>> kept(w.mix.size());
    const bool check_parallel = round == 0 && w.threads > 1;
    {
      const Clock::time_point t0 = Clock::now();
      Catalog cat = BuildCatalog(w, w.tuples, w.facts, rs);
      run.setup_s.Add(MsBetween(t0, Clock::now()) / 1000.0);
      RunMix(w, cat, &run, rep, layers, check_parallel ? &kept : nullptr);
    }
    if (check_parallel) {
      // The parallel results of this round equal a sequential execution of
      // the same catalog, in (fact, interval, probability).
      Catalog seq = BuildCatalog(w, w.tuples, w.facts, rs);
      for (std::size_t qi = 0; qi < w.mix.size(); ++qi) {
        Result<TpRelation> res = seq.exec->Execute(w.mix[qi].text, ExecOptions{});
        if (!res.ok()) Die("sequential execute: " + res.status().ToString());
        const std::string diff = CompareRows(kept[qi], RowsOf(*res, w.mix[qi].method));
        if (!diff.empty()) {
          rep->Mismatch("`" + w.mix[qi].text + "` parallel vs sequential: " + diff);
        }
      }
    }
    if (layers != nullptr) {
      ++layers->rounds;
      if (w.threads > 1) {
        Catalog seq = BuildCatalog(w, w.tuples, w.facts, rs);
        RunSequentialExecutes(w, seq, layers);
      }
      Catalog cold = BuildCatalog(w, w.tuples, w.facts, rs);
      DecomposeLeaves(w, cold, layers);
    }
  }
  return run;
}

void ReportQueryEndToEnd(const QueryRun& run, Report* rep) {
  const Tail op_tail = run.op_ms.TailOf();
  const Tail read_tail = run.read_ms.TailOf();
  NoteTail("query", op_tail);
  NoteTail("read (valuation)", read_tail);
  rep->Set("ops_per_s", 1000.0 * static_cast<double>(run.completed) / run.query_wall_ms,
           "ops/s");
  rep->Set("latency_p50_ms", run.op_ms.Median(), "ms");
  rep->Set("latency_tail_ms", op_tail.value, "ms");
  rep->Set("read_p50_ms", run.read_ms.Median(), "ms");
  rep->Set("read_tail_ms", read_tail.value, "ms");
}

void RunQueryWorkload(const QueryWorkload& w, std::uint64_t seed, double seconds,
                      bool trace, Report* rep) {
  std::printf("# shape: %s tuples/relation=%zu facts=%zu threads=%zu seed=%llu "
              "mix=%zu queries, fresh catalog per round\n",
              w.name.c_str(), w.tuples, w.facts, w.threads,
              static_cast<unsigned long long>(seed), w.mix.size());
  CheckAgainstOracle(w, seed, rep);
  if (!trace) {
    QueryRun run = QueryLoop(w, seed, seconds, rep, nullptr);
    ReportQueryEndToEnd(run, rep);
    rep->Set("setup_s", run.setup_s.Median(), "s");
    std::printf("# checksum %.6f over %zu queries\n", run.checksum, run.completed);
    return;
  }
  QueryRun plain = QueryLoop(w, seed, seconds / 2, rep, nullptr);
  LayerAcc L;
  QueryRun traced = QueryLoop(w, seed, seconds / 2, rep, &L);
  SetLayer(rep, "query.parse_ms", L.parse.Mean());
  SetLayer(rep, "query.execute_ms", L.execute.Mean());
  SetLayer(rep, "lineage.valuate_readonce_ms", L.val_ro.Mean());
  SetLayer(rep, "lineage.valuate_exact_ms", L.val_exact.Mean());
  SetLayer(rep, "lineage.nodes_added", L.nodes_added / static_cast<double>(L.rounds));
  SetLayer(rep, "lineage.nodes_per_output",
           L.result_tuples > 0 ? L.nodes_added / L.result_tuples : 0.0);
  SetLayer(rep, "lawa.windows", L.windows.Mean());
  SetLayer(rep, "lawa.output_tuples", L.outputs.Mean());
  if (w.threads <= 1) {
    SetLayer(rep, "lawa.sweep_ms", L.sweep.Mean());
    SetLayer(rep, "lawa.setop_ms", L.setop.Mean());
    SetLayer(rep, "lineage.concat_ms", L.setop.Mean() - L.sweep.Mean());
  } else {
    SetLayer(rep, "parallel.threads", static_cast<double>(w.threads));
    SetLayer(rep, "parallel.split_ms", L.split.Mean());
    SetLayer(rep, "parallel.advance_ms", L.advance.Mean());
    SetLayer(rep, "parallel.apply_ms", L.apply.Mean());
    SetLayer(rep, "parallel.morsels_run", L.morsels.Mean());
    SetLayer(rep, "parallel.morsels_stolen", L.stolen.Mean());
    SetLayer(rep, "parallel.facts_split", L.split_facts.Mean());
    SetLayer(rep, "parallel.execute_1t_ms", L.exec_1t.Mean());
    SetLayer(rep, "parallel.execute_nt_ms", L.execute.Mean());
    SetLayer(rep, "parallel.speedup", L.exec_1t.Mean() / L.execute.Mean());
  }
  SetOverhead(rep, plain.op_ms.Median(), traced.op_ms.Median());
}

// ---- stream-retain ----------------------------------------------------------

// Open loop: one producer appends kBatchRows-row batches alternating r and
// s at kEpochsPerSecond, retaining every kRetainEvery epochs; a reader
// thread scans pinned snapshots in a closed loop. The rate is a little under
// half the saturated capacity measured on a 4-CPU x86-64 host (53-56
// epochs/s with the reader running), so a healthy engine keeps up with room
// for retention and compaction spikes.
constexpr std::size_t kStreamTuples = 100000;
constexpr std::size_t kStreamFacts = 1000;
constexpr std::size_t kBatchRows = 1000;
constexpr double kEpochsPerSecond = 25.0;
constexpr std::size_t kRetainEvery = 10;
constexpr std::size_t kWarmupEpochs = 20;
// A run is this many sessions, each on a fresh executor. Each session's
// arena crosses one rehash of the lineage consing index (near 1.5M nodes),
// so every session carries that stall; pooling the sessions' samples keeps
// latency_tail_ms from resting on one stall's backlog.
constexpr std::size_t kSessions = 3;
// The reader's think time between passes: about 550 passes in a 30 s run,
// so read_tail_ms lands near p98, where slow reads lie close together,
// rather than at p99.5, where a few host hiccups decide it.
constexpr auto kReadPause = std::chrono::milliseconds(50);
// Retention keeps this much event time below the slowest fact's frontier
// (about half the seeded per-fact span of 100 tuples x ~7 time units).
constexpr TimePoint kRetainHorizon = 350;

const std::pair<const char*, const char*> kStreamQueries[] = {
    {"diff", "r - s"}, {"union", "r | s"}, {"inter", "r & s"}};

// Delivery bookkeeping of the epoch in flight. Callbacks fire on the
// producer thread inside Append, so no synchronization is needed.
struct EpochDelivery {
  bool any = false;
  Clock::time_point first, last;
  std::size_t rows = 0;
};

struct StreamSetup {
  std::shared_ptr<TpContext> ctx;
  std::unique_ptr<QueryExecutor> exec;
  std::vector<TimePoint> cursors[2];
  std::vector<ContinuousQuery*> cqs;
  // Per subscriber: its result at subscription, then every delta received.
  std::vector<TpRelation> initial;
  std::vector<std::vector<EpochDelta>> deltas;
  EpochDelivery delivery;
  double prob_sum = 0.0;
};

std::unique_ptr<StreamSetup> BuildStream(Rng* rng) {
  auto st = std::make_unique<StreamSetup>();
  st->ctx = std::make_shared<TpContext>();
  st->exec = std::make_unique<QueryExecutor>(st->ctx);
  const char* names[] = {"r", "s"};
  for (int side = 0; side < 2; ++side) {
    st->cursors[side].assign(kStreamFacts, 0);
    TpRelation rel(st->ctx, Schema::SingleInt("fact"), names[side]);
    SeedFactChains(&rel, kStreamTuples, &st->cursors[side], rng);
    Check(st->exec->Register(rel), "register");
  }
  for (const auto& [name, text] : kStreamQueries) {
    st->cqs.push_back(Unwrap(st->exec->RegisterContinuous(name, text), "register continuous"));
  }
  return st;
}

// Subscribes one callback per continuous query: read-once valuation of every
// inserted tuple plus a copy of the delta for the end-of-run fold check.
void Subscribe(StreamSetup* st) {
  st->deltas.resize(st->cqs.size());
  for (std::size_t i = 0; i < st->cqs.size(); ++i) {
    st->initial.push_back(st->cqs[i]->Current());
    st->cqs[i]->Subscribe([st, i](const EpochDelta& d) {
      EpochDelivery& dl = st->delivery;
      if (!dl.any) {
        dl.any = true;
        dl.first = Clock::now();
      }
      for (const TpTuple& t : d.delta.inserted) {
        st->prob_sum += ProbabilityReadOnce(st->ctx->lineage(), t.lineage, st->ctx->vars());
      }
      dl.rows += d.delta.inserted.size() + d.delta.retracted.size();
      st->deltas[i].push_back(d);
      dl.last = Clock::now();
    });
  }
}

struct StreamRun {
  Samples delivery_ms, read_ms;
  double delivered_window_ms = 0.0;
  std::size_t delivered = 0;
  // Per-layer.
  Samples append_ms, first_ms, span_ms, rows_out, late_ms, retain_ms;
  Samples snapshot_ms, scan_ms, fold_ms;
  std::size_t backlog_max = 0, runs_max = 0, debt_max = 0, resident_max = 0;
  double append_busy_ms = 0.0, run_ms = 0.0;
  std::size_t arena_added = 0, arena_end = 0;
  std::uint64_t scan_checksum = 0;  // written by the reader only
};

std::size_t ReaderLoop(const StreamSetup& st, const std::atomic<bool>& stop, bool trace,
                       StreamRun* run, std::size_t* failed) {
  const StoredRelation* stored_r = Unwrap(st.exec->FindStored("r"), "find r");
  const StoredRelation* stored_s = Unwrap(st.exec->FindStored("s"), "find s");
  std::size_t reads = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(kReadPause);
    ++reads;
    const Clock::time_point t0 = Clock::now();
    Result<StorageSnapshot> r = st.exec->SnapshotRelation("r");
    Result<StorageSnapshot> s = st.exec->SnapshotRelation("s");
    const Clock::time_point t1 = Clock::now();
    if (!r.ok() || !s.ok()) {
      ++*failed;
      continue;
    }
    // Fact and interval columns only: the arena has no concurrency
    // contract with Append, so the reader never touches lineage.
    std::uint64_t acc = 0;
    auto scan = [&acc](const TpTuple& t) {
      acc += t.fact + static_cast<std::uint64_t>(t.t.start) +
             static_cast<std::uint64_t>(t.t.end);
    };
    r->ForEachTuple(scan);
    s->ForEachTuple(scan);
    const Clock::time_point t2 = Clock::now();
    run->scan_checksum += acc;
    run->read_ms.Add(MsBetween(t0, t2));
    if (trace) {
      run->snapshot_ms.Add(MsBetween(t0, t1));
      run->scan_ms.Add(MsBetween(t1, t2));
      run->runs_max = std::max({run->runs_max, r->run_count(), s->run_count()});
      run->resident_max = std::max(run->resident_max, r->size() + s->size());
      run->debt_max = std::max(
          {run->debt_max, stored_r->compaction_debt(), stored_s->compaction_debt()});
      if (reads % 8 == 0) {
        const Clock::time_point f0 = Clock::now();
        (void)stored_r->FoldedView();
        run->fold_ms.Add(MsBetween(f0, Clock::now()));
      }
    }
  }
  return reads;
}

bool KeyLess(const TpTuple& a, const TpTuple& b) {
  return std::tie(a.fact, a.t.start, a.t.end, a.lineage) <
         std::tie(b.fact, b.t.start, b.t.end, b.lineage);
}

// Clips to the open ray above `w` (no-op without a watermark): tuples
// ending at or below w vanish, straddlers start at w. Sorted.
std::vector<TpTuple> ClipAbove(const std::vector<TpTuple>& tuples, TimePoint w) {
  std::vector<TpTuple> out;
  for (TpTuple t : tuples) {
    if (w != kNoWatermark) {
      if (t.t.end <= w) continue;
      t.t.start = std::max(t.t.start, w);
    }
    out.push_back(t);
  }
  std::sort(out.begin(), out.end(), KeyLess);
  return out;
}

// End-of-session checks: each subscriber's folded delta stream equals
// Current(), and Current() equals a from-scratch Execute, both clipped above
// the query's effective retention watermark.
void CheckStream(StreamSetup* st, Report* rep) {
  for (std::size_t i = 0; i < st->cqs.size(); ++i) {
    ContinuousQuery* cq = st->cqs[i];
    const TimePoint w = cq->effective_watermark();
    std::vector<TpTuple> inserted = st->initial[i].tuples();
    std::vector<TpTuple> retracted;
    for (const EpochDelta& d : st->deltas[i]) {
      inserted.insert(inserted.end(), d.delta.inserted.begin(), d.delta.inserted.end());
      retracted.insert(retracted.end(), d.delta.retracted.begin(), d.delta.retracted.end());
    }
    std::sort(inserted.begin(), inserted.end(), KeyLess);
    std::sort(retracted.begin(), retracted.end(), KeyLess);
    std::vector<TpTuple> folded;
    std::set_difference(inserted.begin(), inserted.end(), retracted.begin(), retracted.end(),
                        std::back_inserter(folded), KeyLess);
    const TpRelation current = cq->Current();
    if (folded.size() + retracted.size() != inserted.size()) {
      rep->Mismatch(cq->name() + ": retraction of a tuple never delivered");
    } else if (ClipAbove(folded, w) != ClipAbove(current.tuples(), w)) {
      rep->Mismatch(cq->name() + ": folded subscriber deltas != Current()");
    }
    Result<TpRelation> scratch = st->exec->Execute(cq->text());
    if (!scratch.ok()) {
      rep->Mismatch(cq->name() + ": from-scratch Execute failed: " +
                    scratch.status().ToString());
      continue;
    }
    const std::string diff = CompareRows(RowsOf(current, ProbabilityMethod::kReadOnce, w),
                                         RowsOf(*scratch, ProbabilityMethod::kReadOnce, w));
    if (!diff.empty()) {
      rep->Mismatch(cq->name() + ": Current() vs from-scratch Execute above the watermark: " +
                    diff);
    }
  }
}

// One session: a fresh executor (its build timed into setup_s), warm-up
// epochs, `seconds` of open-loop epochs with the reader beside them, then
// the output checks. Samples and counters accumulate into `run`.
void StreamSession(std::uint64_t seed, double seconds, bool trace, Report* rep,
                   Samples* setup_s, StreamRun* run) {
  Rng rng(seed);
  const Clock::time_point t_setup = Clock::now();
  std::unique_ptr<StreamSetup> st = BuildStream(&rng);
  setup_s->Add(MsBetween(t_setup, Clock::now()) / 1000.0);
  Subscribe(st.get());
  const char* names[] = {"r", "s"};
  // Untimed warm-up epochs: the first appends create the executor's
  // background-compaction worker, and the first delta that reaches a fact
  // costs the continuous queries more than later ones (about 40 vs 15 ms
  // per epoch until most of the 1000 facts were touched). Both are
  // once-per-registration costs that would otherwise open every session
  // with a backlog.
  for (std::size_t e = 0; e < kWarmupEpochs; ++e) {
    const int side = static_cast<int>(e % 2);
    Unwrap(st->exec->Append(names[side], NextChainBatch(&st->cursors[side], kBatchRows, &rng)),
           "warm-up append");
  }

  const std::size_t arena_start = st->ctx->lineage().size();
  std::atomic<bool> stop{false};
  std::size_t read_failed = 0;
  std::size_t reads = 0;
  std::thread reader([&]() { reads = ReaderLoop(*st, stop, trace, run, &read_failed); });

  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kEpochsPerSecond));
  const std::size_t epochs =
      std::max<std::size_t>(1, static_cast<std::size_t>(seconds * kEpochsPerSecond));
  TimePoint watermark = kNoWatermark;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  Clock::time_point last_delivery = start;
  for (std::size_t e = 0; e < epochs; ++e) {
    const int side = static_cast<int>(e % 2);
    DeltaBatch batch = NextChainBatch(&st->cursors[side], kBatchRows, &rng);
    const Clock::time_point due = start + period * static_cast<long>(e);
    std::this_thread::sleep_until(due);
    const Clock::time_point a0 = Clock::now();
    const std::size_t due_count = static_cast<std::size_t>((a0 - start) / period) + 1;
    run->backlog_max = std::max(run->backlog_max, due_count - e);
    st->delivery = EpochDelivery{};
    ++rep->attempted;
    Result<EpochId> epoch = st->exec->Append(names[side], batch);
    const Clock::time_point a1 = Clock::now();
    if (!epoch.ok() || !st->delivery.any) {
      ++rep->failed;
      std::fprintf(stderr, "perfbench: append failed: %s\n",
                   epoch.ok() ? "no delivery" : epoch.status().ToString().c_str());
    } else {
      const EpochDelivery& dl = st->delivery;
      run->delivery_ms.Add(MsBetween(due, dl.last));
      last_delivery = dl.last;
      ++run->delivered;
      if (trace) {
        run->late_ms.Add(MsBetween(due, a0));
        run->append_ms.Add(MsBetween(a0, a1));
        run->first_ms.Add(MsBetween(a0, dl.first));
        run->span_ms.Add(MsBetween(dl.first, dl.last));
        run->rows_out.Add(static_cast<double>(dl.rows));
        run->append_busy_ms += MsBetween(a0, a1);
      }
    }
    if ((e + 1) % kRetainEvery == 0) {
      TimePoint frontier = std::numeric_limits<TimePoint>::max();
      for (const auto& cur : st->cursors) {
        frontier = std::min(frontier, *std::min_element(cur.begin(), cur.end()));
      }
      const TimePoint w = frontier - kRetainHorizon;
      if (w > 0 && (watermark == kNoWatermark || w > watermark)) {
        watermark = w;
        for (const char* name : names) {
          ++rep->attempted;
          const Clock::time_point r0 = Clock::now();
          Result<std::size_t> retired = st->exec->Retain(name, w);
          run->retain_ms.Add(MsBetween(r0, Clock::now()));
          if (!retired.ok()) {
            ++rep->failed;
            std::fprintf(stderr, "perfbench: retain failed: %s\n",
                         retired.status().ToString().c_str());
          }
        }
      }
    }
  }
  stop.store(true);
  reader.join();
  run->run_ms += MsBetween(start, Clock::now());
  run->delivered_window_ms += MsBetween(start, last_delivery);
  run->arena_end = st->ctx->lineage().size();
  run->arena_added += run->arena_end - arena_start;
  rep->attempted += reads;
  rep->failed += read_failed;
  std::printf("# session: %zu epochs, %zu reads, arena %zu nodes, watermark %lld, "
              "valuation checksum %.6f, scan checksum %llu\n",
              epochs, reads, run->arena_end, static_cast<long long>(watermark), st->prob_sum,
              static_cast<unsigned long long>(run->scan_checksum));
  CheckStream(st.get(), rep);
}

void RunStreamWorkload(std::uint64_t seed, double seconds, bool trace, Report* rep) {
  std::printf("# shape: stream-retain tuples/relation=%zu facts=%zu batch=%zu "
              "rate=%.1f epochs/s retain_every=%zu horizon=%lld seed=%llu sessions=%zu "
              "queries=3 sequential, threads: producer+reader+compaction\n",
              kStreamTuples, kStreamFacts, kBatchRows, kEpochsPerSecond, kRetainEvery,
              static_cast<long long>(kRetainHorizon), static_cast<unsigned long long>(seed),
              kSessions);
  Samples setup_s;
  StreamRun plain, traced;
  // Traced runs spend the first session untraced and the rest traced.
  for (std::size_t k = 0; k < kSessions; ++k) {
    const bool trace_session = trace && k > 0;
    StreamSession(RoundSeed(seed, k), seconds / kSessions, trace_session, rep, &setup_s,
                  trace_session ? &traced : &plain);
  }
  if (!trace) {
    const Tail dt = plain.delivery_ms.TailOf();
    const Tail rt = plain.read_ms.TailOf();
    NoteTail("delivery", dt);
    NoteTail("read", rt);
    rep->Set("ops_per_s",
             1000.0 * static_cast<double>(plain.delivered) / plain.delivered_window_ms,
             "ops/s");
    rep->Set("latency_p50_ms", plain.delivery_ms.Median(), "ms");
    rep->Set("latency_tail_ms", dt.value, "ms");
    rep->Set("read_p50_ms", plain.read_ms.Median(), "ms");
    rep->Set("read_tail_ms", rt.value, "ms");
    rep->Set("setup_s", setup_s.Median(), "s");
    return;
  }
  const StreamRun& run = traced;
  const Tail late = run.late_ms.TailOf();
  NoteTail("generator lateness", late);
  SetLayer(rep, "lineage.arena_nodes_end", static_cast<double>(run.arena_end));
  SetLayer(rep, "lineage.nodes_added",
           static_cast<double>(run.arena_added) /
               static_cast<double>(std::max<std::size_t>(1, run.delivered)));
  SetLayer(rep, "storage.snapshot_ms", run.snapshot_ms.Mean());
  SetLayer(rep, "storage.scan_ms", run.scan_ms.Mean());
  SetLayer(rep, "storage.fold_ms", run.fold_ms.Mean());
  SetLayer(rep, "storage.retain_ms", run.retain_ms.Mean());
  SetLayer(rep, "storage.runs_max", static_cast<double>(run.runs_max));
  SetLayer(rep, "storage.compaction_debt_max", static_cast<double>(run.debt_max));
  SetLayer(rep, "storage.resident_tuples_max", static_cast<double>(run.resident_max));
  SetLayer(rep, "incremental.append_ms", run.append_ms.Mean());
  SetLayer(rep, "incremental.to_first_delivery_ms", run.first_ms.Mean());
  SetLayer(rep, "incremental.delivery_span_ms", run.span_ms.Mean());
  SetLayer(rep, "incremental.delta_rows_out", run.rows_out.Mean());
  SetLayer(rep, "incremental.append_busy_share", run.append_busy_ms / run.run_ms);
  SetLayer(rep, "stream.generator_late_ms", late.value);
  SetLayer(rep, "stream.backlog_max", static_cast<double>(run.backlog_max));
  SetOverhead(rep, plain.delivery_ms.Median(), run.delivery_ms.Median());
}

// ---- Main -------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else {
      Die("unknown argument " + key);
    }
  }
  if (!have_workload || argc % 2 == 0 || a.seconds <= 0 || a.seconds > 120) {
    Die("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Report rep;

  QueryWorkload w;
  w.name = args.workload;
  std::size_t threads = 1;
  if (args.workload == "query-cold") {
    w.mix = MakeMix({"a | b", "a & b", "a - b", "(a | b) - c", "(a - b) | (a & c)"});
  } else if (args.workload == "query-parallel") {
    w.skewed = true;
    w.threads = threads = std::min<std::size_t>(4, HostCpus());
    w.mix = MakeMix({"a | b", "a & b", "a - b", "(a | b) - c"});
  } else if (args.workload == "stream-retain") {
    threads = 3;  // producer, reader, background compaction
  } else {
    Die("unknown workload " + args.workload);
  }
  std::string prov = bench::ProvenanceJson(threads, 0);
  std::replace(prov.begin(), prov.end(), '\n', ' ');
  std::printf("# provenance: %s\n", prov.c_str());
  if (w.mix.empty()) {
    RunStreamWorkload(args.seed, args.seconds, args.trace, &rep);
  } else {
    RunQueryWorkload(w, args.seed, args.seconds, args.trace, &rep);
  }

  if (args.trace) {
    Report layers;
    for (const auto& [name, unit] : kLayerMetrics) layers.Set(name, 0.0, unit);
    for (const auto& [name, value, unit] : rep.metrics) layers.Set(name, value, unit);
    rep.metrics = layers.metrics;
  } else {
    const double attempted = static_cast<double>(std::max<std::size_t>(1, rep.attempted));
    rep.Set("ok_share", (attempted - static_cast<double>(rep.failed)) / attempted,
            "ok/attempted");
    rep.Set("peak_rss_mb", PeakRssMb(), "MB");
  }
  return rep.Print();
}
