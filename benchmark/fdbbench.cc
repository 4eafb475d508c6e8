// fdbbench — the workload program of the repo benchmark (benchmark/README.md).
//
//   fdbbench --workload NAME --seed N --seconds S
//            [--trace] [--smoke] [--trace-out FILE]
//
// Runs one workload in this process and prints one JSON object on stdout:
// request counts, the metrics, diagnostics and provenance. benchmark/run.py
// builds this binary, starts one process per workload and picks the
// metrics BENCHMARK.json names.
//
// Inputs come from --seed alone. Every measured result is checked outside
// its timed interval against a reference answer from an independent path
// (a fresh single-threaded engine, the RDB baseline, the hash GROUP BY
// baseline); each mismatch counts as a failed request.
//
// Only libfdb's public API is used. The traced pass takes its per-layer
// times from the library's own QueryTrace spans: EXPLAIN ANALYZE through a
// QueryServer for the serve workloads, the traced Engine calls for the
// engine workloads. The one phase the library times as a whole, the
// enumerate sink, is split here by running its steps one at a time.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "api/engine.h"
#include "common/rng.h"
#include "common/timer.h"
#include "common/trace.h"
#include "core/aggregate.h"
#include "core/kernel.h"
#include "core/parallel_enumerate.h"
#include "rdb/rdb.h"
#include "serve/protocol.h"
#include "serve/query_server.h"

namespace fdb {
namespace {

using Clock = MonotonicClock;

// ---------------------------------------------------------------------------
// Command line

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;  // 1/20 data scale, same oracle
  std::string trace_out;

  double scale() const { return smoke ? 0.05 : 1.0; }
};

// setup_s and the set-up peak resident set are medians over this many
// set-ups per run.
constexpr int kSetups = 5;

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "fdbbench: " << why
            << "\nusage: fdbbench --workload NAME --seed N --seconds S "
               "[--trace] [--smoke] [--trace-out FILE]\n";
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage("missing value for " + a);
      return argv[++i];
    };
    auto number = [&](auto parse) {
      const std::string v = value();
      try {
        return parse(v);
      } catch (const std::exception&) {
        Usage("bad value for " + a + ": " + v);
      }
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = number([](const std::string& v) { return std::stoull(v); });
    } else if (a == "--seconds") {
      o.seconds = number([](const std::string& v) { return std::stod(v); });
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else if (a == "--trace") {
      o.trace = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      Usage("unknown argument " + a);
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  if (!(o.seconds > 0)) Usage("--seconds must be positive");
  return o;
}

// ---------------------------------------------------------------------------
// Small helpers

int Nproc() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// CPU seconds of every thread of this process: the clients, the server's
// workers and the shared enumeration pool.
double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Peak resident set of this process's address space since the last
// ResetPeakRss. VmHWM, not getrusage: ru_maxrss survives exec, so it would
// report the launching Python process's peak whenever that is larger.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile over raw samples: the value at rank ceil(p/100·n).
// `beyond` receives the number of samples ranked above it.
double Percentile(const std::vector<double>& sorted, double p, size_t* beyond) {
  const size_t n = sorted.size();
  if (n == 0) {
    *beyond = 0;
    return 0.0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  *beyond = n - rank;
  return sorted[rank - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

uint64_t Mix(uint64_t x) {  // splitmix64 finaliser
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t NameKey(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return Mix(h);
}

// Row count plus a hash over (attribute name, value) pairs that ignores row
// and column order, so a change of output order or column layout does not
// read as a wrong answer.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint FingerprintOf(const Relation& rel, const Catalog& catalog) {
  std::vector<uint64_t> keys;
  for (AttrId a : rel.schema()) keys.push_back(NameKey(catalog.attr(a).name));
  Fingerprint fp;
  fp.rows = rel.size();
  const size_t arity = rel.arity();
  const std::vector<Value>& data = rel.data();
  for (size_t r = 0; r < fp.rows; ++r) {
    uint64_t h = 0;
    for (size_t c = 0; c < arity; ++c) {
      h += Mix(keys[c] ^ Mix(static_cast<uint64_t>(data[r * arity + c])));
    }
    fp.hash += Mix(h);
  }
  return fp;
}

// Grouped tables compared canonically: rows sorted by key, every aggregate
// compared as an exact integer (all aggregates of the workloads are
// integral).
bool SameGroups(GroupedTable a, GroupedTable b) {
  if (a.group_schema != b.group_schema || a.specs != b.specs ||
      a.num_rows != b.num_rows) {
    return false;
  }
  a.SortByKey();
  b.SortByKey();
  if (a.keys != b.keys) return false;
  for (size_t i = 0; i < a.aggs.size(); ++i) {
    if (std::llround(a.aggs[i]) != std::llround(b.aggs[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Host speed and thread placement
//
// The shared virtual machines this benchmark runs on change speed by a
// fifth or more within minutes, and every task slows alike: over two
// minutes of one such host, f-tree search, grounding, std::sort and a pure
// integer loop each drifted by 19-23% while the ratio of any two, timed
// alternately, held within 4%. So each run times one fixed task, a sort
// that uses no library code, between its measurement slices, and scales
// its times to a host on which that task takes kReferenceMs.
//
// The vCPUs also differ from each other: in one minute, f-tree search ran
// 45% slower pinned to one vCPU than to another, and a busy thread tends
// to stay where it started, so a run would measure whichever vCPUs its
// threads landed on (serve-cold-ladder throughput of one seed differed by
// 30% between three processes). So between two slices each thread of the
// process is pinned to one CPU, the caller and the threads it starts to
// the first, the library's pool threads to the others, and the assignment
// rotates by one CPU per slice; the calibration sample is the mean over
// every allowed CPU. A run thus spends its time evenly on every CPU.

constexpr double kReferenceMs = 6.5;
constexpr double kSliceSeconds = 1.0;  // measured time between two samples

class Host {
 public:
  // The task sorts 16 copies of 8192 keys per CPU: small enough to stay
  // out of the peak resident set the workloads report.
  Host() : keys_(size_t{1} << 13), work_(keys_.size()) {
    Rng rng(0x5eed);
    for (int64_t& k : keys_) k = rng.Uniform(0, int64_t{1} << 40);
    cpu_set_t allowed;
    FDB_CHECK_MSG(sched_getaffinity(0, sizeof(allowed), &allowed) == 0, "sched_getaffinity");
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
  }

  /// Between two slices: one calibration sample, then every thread moves
  /// on by one CPU.
  void Between() {
    double total = 0;
    for (int cpu : cpus_) {
      Pin(0, cpu);
      Timer t;
      for (int i = 0; i < 16; ++i) {
        std::copy(keys_.begin(), keys_.end(), work_.begin());
        std::sort(work_.begin(), work_.end());
      }
      total += t.Seconds();
      FDB_CHECK_MSG(std::is_sorted(work_.begin(), work_.end()), "the calibration sort");
    }
    samples_.push_back(total / static_cast<double>(cpus_.size()));
    ++step_;
    std::vector<pid_t> others;
    for (const auto& task : std::filesystem::directory_iterator("/proc/self/task")) {
      const pid_t tid = static_cast<pid_t>(std::stol(task.path().filename().string()));
      if (tid != gettid()) others.push_back(tid);
    }
    std::sort(others.begin(), others.end());
    Pin(0, cpus_[step_ % cpus_.size()]);
    for (size_t k = 0; k < others.size(); ++k) {
      Pin(others[k], cpus_[(step_ + k + 1) % cpus_.size()]);
    }
  }

  /// Median time of the calibration task in this run.
  double ms() const { return 1e3 * Median(samples_); }
  /// Multiply a measured time by this to scale it to the reference host.
  double time_scale() const { return Ratio(kReferenceMs, ms()); }

 private:
  // A thread that has exited in the meantime is no error.
  static void Pin(pid_t tid, int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(tid, sizeof(one), &one);
  }

  std::vector<int64_t> keys_, work_;
  std::vector<int> cpus_;
  size_t step_ = 0;
  std::vector<double> samples_;
};

// ---------------------------------------------------------------------------
// Layer profile of the traced pass

// The benchmark's name for each span the library records. A span the
// library adds later keeps its own name: it still counts toward the
// traced time and coverage, it only has no share metric yet.
std::string LayerOf(const std::string& span) {
  static const std::map<std::string, std::string> kLayers = {
      {"normalize", "serve.normalize"},
      {"plan-cache-lookup", "serve.plan_cache_lookup"},
      {"parse", "sql.parse"},
      {"f-tree-search", "opt.ftree_search"},
      {"ground", "ground"},
      {"project", "project"},
      {"restructure-aggregate", "aggregate.collapse"},
      {"materialize-groups", "aggregate.materialize"},
      {"kernel-compile", "enumerate.kernel_compile"},
      {"morsel-plan", "enumerate.morsel_plan"},
      {"emit", "enumerate.emit"},
      {"concat", "materialize.concat"},
      {"sort-dedup", "materialize.sort_dedup"},
      {"render", "serve.render"}};
  const auto it = kLayers.find(span);
  return it != kLayers.end() ? it->second : span;
}

// Reads the span tree back from an EXPLAIN ANALYZE body (the format of
// QueryTrace::Render: one line per span, two spaces of indent per level,
// `time=` in us, ms or s, optional `rows=` and `bytes=`).
std::vector<QueryTrace::Span> ParseExplain(const std::string& body) {
  std::vector<QueryTrace::Span> spans;
  std::vector<int> open;  // index of the last span seen at each depth
  std::istringstream is(body);
  std::string line;
  while (std::getline(is, line)) {
    const size_t at = line.find("  time=");
    const size_t indent = line.find_first_not_of(' ');
    if (at == std::string::npos || indent == std::string::npos || indent > at) continue;
    QueryTrace::Span s;
    s.depth = static_cast<int>(indent / 2);
    s.name = line.substr(indent, at - indent);
    std::istringstream fields(line.substr(at + 2));
    std::string field;
    while (fields >> field) {
      const size_t eq = field.find('=');
      const std::string key = field.substr(0, eq), value = field.substr(eq + 1);
      if (key == "time") {
        const size_t unit = value.find_first_not_of("0123456789.");
        const std::string suffix = value.substr(unit);
        const double scale = suffix == "us" ? 1e-6 : suffix == "ms" ? 1e-3 : 1.0;
        s.seconds = std::stod(value.substr(0, unit)) * scale;
      } else if (key == "rows") {
        s.rows = std::stoull(value);
      } else if (key == "bytes") {
        s.bytes = std::stoull(value);
      }
    }
    open.resize(static_cast<size_t>(s.depth));
    s.parent = s.depth > 0 && !open.empty() ? open.back() : -1;
    open.push_back(static_cast<int>(spans.size()));
    spans.push_back(std::move(s));
  }
  return spans;
}

// Time and work per layer over the traced requests.
struct Profile {
  struct Layer {
    double seconds = 0;  // self time
    uint64_t calls = 0;
    double rows = 0, bytes = 0;
  };
  std::map<std::string, Layer> layers;
  double traced_s = 0;     // the traced requests, end to end
  double reference_s = 0;  // the same requests untraced
  double tuples = 0;       // emitted by the enumerate sink, before dedup
  double rows_out = 0;     // left after its sort/dedup
  double render_bytes = 0;
  uint64_t renders = 0;
  // Of the statements, from a side engine's Parse + OptimizeFlat.
  uint64_t statements = 0;
  double input_rows = 0, ftree_cost = 0;
  double lp_hits = 0, lp_solves = 0;
  // Every request's spans, for --trace-out.
  std::vector<std::vector<QueryTrace::Span>> requests;

  void Add(const std::string& layer, double seconds) {
    Layer& l = layers[layer];
    l.seconds += seconds;
    ++l.calls;
  }

  /// Adds the self time and payload of every span below the root to its
  /// layer, except the spans named in `skip` and their subtrees. Returns
  /// the summed time of the skipped spans.
  double AddSpans(const std::vector<QueryTrace::Span>& spans,
                  const std::set<std::string>& skip) {
    std::vector<double> children(spans.size(), 0.0);
    std::vector<bool> skipped(spans.size(), false);
    double skipped_s = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const QueryTrace::Span& s = spans[i];
      if (s.parent < 0) continue;
      const size_t parent = static_cast<size_t>(s.parent);
      children[parent] += s.seconds;
      skipped[i] = skipped[parent] || skip.count(s.name) > 0;
      if (skipped[i] && !skipped[parent]) skipped_s += s.seconds;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const QueryTrace::Span& s = spans[i];
      if (s.parent < 0 || skipped[i]) continue;
      Layer& l = layers[LayerOf(s.name)];
      l.seconds += s.seconds - children[i];
      ++l.calls;
      l.rows += static_cast<double>(s.rows);
      l.bytes += static_cast<double>(s.bytes);
    }
    return skipped_s;
  }

  void AddStatement(Engine& side, const std::string& sql) {
    const Query q = side.Parse(sql);
    for (const Relation* r : side.db().RelationPtrs(q.rels)) {
      input_rows += static_cast<double>(r->size());
    }
    ftree_cost = std::max(ftree_cost, side.OptimizeFlat(q).cost);
    ++statements;
    lp_hits = static_cast<double>(side.solver().hit_count());
    lp_solves = static_cast<double>(side.solver().solve_count());
  }

  double LayerSeconds() const {
    double total = 0;
    for (const auto& [name, l] : layers) total += l.seconds;
    return total;
  }
  const Layer& at(const std::string& name) const {
    static const Layer kNone;
    const auto it = layers.find(name);
    return it != layers.end() ? it->second : kNone;
  }

  void Write(const std::string& path, const std::string& workload) const {
    std::ofstream os(path);
    os << "{\"workload\": " << JsonString(workload) << ", \"spans\": [\n";
    bool first = true;
    for (size_t r = 0; r < requests.size(); ++r) {
      for (const QueryTrace::Span& s : requests[r]) {
        os << (first ? "  " : ",\n  ") << "{\"request\": " << r
           << ", \"name\": " << JsonString(s.name) << ", \"parent\": " << s.parent
           << ", \"seconds\": " << JsonNumber(s.seconds) << ", \"rows\": " << s.rows
           << ", \"bytes\": " << s.bytes << "}";
        first = false;
      }
    }
    os << "\n]}\n";
  }
};

// The enumerate sink of Engine::MaterializeResult with a kernel
// (EmitWithKernel in core/parallel_enumerate.cc), one step at a time: the
// library times the sink as one "enumerate" span, and its emit, concat and
// sort/dedup steps are what ROADMAP items 1 and 2 change. The steps are
// appended to `spans` below `parent`, as the spans the library would record.
Relation ReplaySink(const FRep& rep, const EnumKernel& kernel, int parent,
                    std::vector<QueryTrace::Span>& spans, Profile& p) {
  const ParallelEnumerator pe(rep, EnumerateOptions{}, /*visible_only=*/true);
  const size_t arity = kernel.schema().size();
  FDB_CHECK_MSG(!rep.empty() && arity > 0,
                "the sink replay covers non-empty results with visible attributes");
  auto step = [&](const char* name, const Timer& t) {
    QueryTrace::Span s;
    s.name = name;
    s.parent = parent;
    s.seconds = t.Seconds();
    p.Add(LayerOf(name), s.seconds);
    spans.push_back(std::move(s));
  };
  std::vector<std::vector<Value>> chunks(pe.num_chunks());
  Timer emit;
  pe.ForEachChunk([&](size_t c) {
    const Morsel& m = pe.plan().morsels[c];
    chunks[c].reserve(kernel.CountRows(rep, m.bounds) * arity);
    kernel.Emit(rep, m.bounds, &chunks[c]);
  });
  step("emit", emit);
  Timer concat;
  Relation out(kernel.schema());
  size_t total_values = 0;
  for (const std::vector<Value>& b : chunks) total_values += b.size();
  out.AdoptRows(std::move(chunks[0]));
  out.Reserve(total_values / arity);
  for (size_t c = 1; c < chunks.size(); ++c) out.AppendRows(chunks[c]);
  step("concat", concat);
  Timer sort;
  out.SortLex();
  step("sort-dedup", sort);
  p.tuples += static_cast<double>(total_values / arity);
  p.rows_out += static_cast<double>(out.size());
  return out;
}

// ---------------------------------------------------------------------------
// Workload data

constexpr int kLadderRels = 9;
constexpr int kLadderArity = 3;
constexpr int64_t kLadderRows = 60;
constexpr int64_t kLadderDomain = 20;

// exp7's ternary ladder (b_i = a_{i+1}, c_i = a_{i+2}). The seed permutes
// the value domain and the row order: every seed gives an isomorphic
// instance, so the work per request does not depend on the seed.
std::unique_ptr<Database> LadderDb(uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> perm(kLadderDomain);
  std::iota(perm.begin(), perm.end(), Value{0});
  rng.Shuffle(perm);
  auto db = std::make_unique<Database>();
  for (int i = 0; i < kLadderRels; ++i) {
    std::vector<std::string> cols;
    for (int c = 0; c < kLadderArity; ++c) {
      cols.push_back(std::string(1, static_cast<char>('a' + c)) + std::to_string(i));
    }
    Relation& rel = db->relation(db->CreateRelation("r" + std::to_string(i), cols));
    std::vector<int64_t> order(kLadderRows);
    std::iota(order.begin(), order.end(), int64_t{0});
    rng.Shuffle(order);
    std::vector<Value> row(kLadderArity);
    for (int64_t v : order) {
      for (int c = 0; c < kLadderArity; ++c) {
        row[static_cast<size_t>(c)] = perm[static_cast<size_t>((v * (7 + c) + i) % kLadderDomain)];
      }
      rel.AddTuple(row);
    }
  }
  return db;
}

// The ladder query plus an always-true predicate whose constant makes the
// normalised statement unique per tag: same answer, fresh plan-cache key.
std::string LadderSql(int64_t tag) {
  std::string sql = "SELECT * FROM ";
  for (int i = 0; i < kLadderRels; ++i) sql += (i ? ", r" : "r") + std::to_string(i);
  sql += " WHERE ";
  for (int i = 0; i + 1 < kLadderRels; ++i) {
    sql += (i ? " AND b" : "b") + std::to_string(i) + " = a" + std::to_string(i + 1);
  }
  for (int i = 0; i + 2 < kLadderRels; ++i) {
    sql += " AND c" + std::to_string(i) + " = a" + std::to_string(i + 2);
  }
  return sql + " AND a0 <= " + std::to_string(1'000'000'000 + tag);
}

// exp6's Customer <- Orders <- Lineitem chain.
std::unique_ptr<Database> ChainDb(uint64_t seed, size_t lineitems) {
  Rng rng(seed);
  auto db = std::make_unique<Database>();
  const RelId c = db->CreateRelation("Customer", {"ck", "cnation"});
  const RelId o = db->CreateRelation("Orders", {"ok", "o_ck", "opri"});
  const RelId l = db->CreateRelation("Lineitem", {"lk", "l_ok", "qty"});
  const int64_t customers = static_cast<int64_t>(lineitems / 10 + 1);
  const int64_t orders = static_cast<int64_t>(lineitems / 4 + 1);
  for (int64_t i = 1; i <= customers; ++i) {
    db->relation(c).AddTuple({i, rng.Uniform(1, 25)});
  }
  for (int64_t i = 1; i <= orders; ++i) {
    db->relation(o).AddTuple({i, rng.Uniform(1, customers), rng.Uniform(1, 5)});
  }
  for (int64_t i = 1; i <= static_cast<int64_t>(lineitems); ++i) {
    db->relation(l).AddTuple({i, rng.Uniform(1, orders), rng.Uniform(1, 50)});
  }
  return db;
}

constexpr const char* kChainJoin =
    " FROM Customer, Orders, Lineitem WHERE ck = o_ck AND ok = l_ok";

// exp6's many-to-many star S(sa, sb) |x| T(tb, tc) on a small b-domain.
std::unique_ptr<Database> StarDb(uint64_t seed, size_t n) {
  constexpr int64_t kBDomain = 32;
  Rng rng(seed);
  auto db = std::make_unique<Database>();
  const RelId s = db->CreateRelation("S", {"sa", "sb"});
  const RelId t = db->CreateRelation("T", {"tb", "tc"});
  for (int64_t i = 1; i <= static_cast<int64_t>(n); ++i) {
    db->relation(s).AddTuple({i, rng.Uniform(1, kBDomain)});
    db->relation(t).AddTuple({rng.Uniform(1, kBDomain), i});
  }
  return db;
}

size_t Scaled(size_t n, const Options& o) {
  return std::max<size_t>(1, static_cast<size_t>(static_cast<double>(n) * o.scale()));
}

// ---------------------------------------------------------------------------
// Measurement window results

struct Load {
  std::vector<double> latencies;  // seconds, one per attempted request
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Measured seconds: of the slices (serve), of the queries (engine, one
  // caller). Process CPU seconds over the same intervals.
  double wall = 0;
  double cpu = 0;
  // Serve counters over the window (zero for the engine workloads).
  double received = 0, coalesced = 0, lookups = 0, hits = 0, evictions = 0;
  double queue_wait_mean_s = 0, execute_mean_s = 0;  // per evaluation
};

// Sum and count of one latency histogram in a STATS exposition.
std::pair<double, double> HistogramSumCount(const std::string& expo,
                                            const std::string& name) {
  double sum = 0, count = 0;
  std::istringstream is(expo);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind(name + "_sum ", 0) == 0) sum = std::stod(line.substr(name.size() + 5));
    if (line.rfind(name + "_count ", 0) == 0) count = std::stod(line.substr(name.size() + 7));
  }
  return {sum, count};
}

// Seconds a latency histogram recorded between two STATS expositions.
double HistogramSeconds(const std::string& before, const std::string& after,
                        const std::string& name) {
  return HistogramSumCount(after, name).first - HistogramSumCount(before, name).first;
}

// Mean of a latency histogram between two STATS expositions.
double HistogramMean(const std::string& before, const std::string& after,
                     const std::string& name) {
  const double n = HistogramSumCount(after, name).second - HistogramSumCount(before, name).second;
  return Ratio(HistogramSeconds(before, after, name), n);
}

// ---------------------------------------------------------------------------
// Serve workloads: min(4, nproc) closed-loop clients against one QueryServer.

struct ServeRequest {
  std::string sql;
  size_t ref;  // index of the reference answer
};

constexpr const char* kExplain = "EXPLAIN ANALYZE ";

class ServeWorkload {
 public:
  ServeWorkload(std::string name, const Options& opts)
      : name_(std::move(name)), opts_(opts) {
    clients_ = std::min(4, Nproc());
    serve_.num_workers = clients_;
    if (name_ == "serve-cold-ladder") {
      // Every request parses and searches: the working set of distinct
      // statements is unbounded, so the 512-entry cache wraps and evicts.
      ladder_ = true;
      serve_.plan_cache_capacity = 512;
      warmup_per_client_ = 600 / static_cast<uint64_t>(clients_) + 1;
      reference_sqls_ = {LadderSql(-1)};
    } else {
      // 30 statements that all fit the 64-entry cache.
      serve_.plan_cache_capacity = 64;
      warmup_per_client_ = 8;
      const std::string spj = "SELECT ck, cnation, lk, qty" + std::string(kChainJoin);
      for (int k = 1; k <= 25; ++k) {
        reference_sqls_.push_back(spj + " AND cnation = " + std::to_string(k));
      }
      for (int p = 1; p <= 5; ++p) {
        reference_sqls_.push_back("SELECT cnation, COUNT(*), SUM(qty)" +
                                  std::string(kChainJoin) + " AND opri = " +
                                  std::to_string(p) + " GROUP BY cnation");
      }
    }
  }

  double tail_percentile() const { return 99; }
  int trace_count() const { return opts_.smoke ? 5 : 200; }

  /// Generate + load + server + warm-up: the timed set-up.
  void Setup() {
    server_.reset();
    db_.reset();
    db_ = ladder_ ? LadderDb(opts_.seed) : ChainDb(opts_.seed, Scaled(100000, opts_));
    server_ = std::make_unique<QueryServer>(db_.get(), serve_);
    if (!ladder_) {
      for (const std::string& sql : reference_sqls_) server_->Query(sql);
    }
    next_index_ = 0;
    RunClients(*server_, clients_, warmup_per_client_, std::nullopt);
  }

  /// Reference bodies from a fresh single-threaded engine.
  void BuildReferences() {
    EngineOptions eo;
    eo.enumerate.threads = 1;
    Engine engine(db_.get(), eo);
    bodies_.clear();
    for (const std::string& sql : reference_sqls_) {
      bodies_.push_back(RenderResult(*db_, engine.Execute(sql)));
    }
    ok_per_ref_.assign(bodies_.size(), 0);
  }

  /// The window, in slices of kSliceSeconds; Host::Between runs between
  /// two slices, while the clients are stopped.
  Load Measure(double seconds, Host& host) {
    const ServerStats before = server_->stats();
    const std::string expo_before = server_->MetricsExposition();
    Load load;
    for (double left = seconds; left > 0; left -= kSliceSeconds) {
      const double cpu0 = CpuSeconds();
      Timer wall;
      const Load slice = RunClients(*server_, clients_, 0,
                                    Clock::now() + ToDuration(std::min(left, kSliceSeconds)));
      load.wall += wall.Seconds();
      load.cpu += CpuSeconds() - cpu0;
      load.latencies.insert(load.latencies.end(), slice.latencies.begin(),
                            slice.latencies.end());
      load.attempted += slice.attempted;
      load.failed += slice.failed;
      host.Between();
    }
    const ServerStats after = server_->stats();
    const std::string expo_after = server_->MetricsExposition();
    load.received = static_cast<double>(after.received - before.received);
    load.coalesced = static_cast<double>(after.coalesced - before.coalesced);
    load.hits = static_cast<double>(after.plan_cache.hits - before.plan_cache.hits);
    load.lookups = load.hits + static_cast<double>(after.plan_cache.misses -
                                                   before.plan_cache.misses);
    load.evictions =
        static_cast<double>(after.plan_cache.evictions - before.plan_cache.evictions);
    load.queue_wait_mean_s =
        HistogramMean(expo_before, expo_after, "fdb_serve_queue_wait_seconds");
    load.execute_mean_s =
        HistogramMean(expo_before, expo_after, "fdb_serve_execute_seconds");
    return load;
  }

  /// Validates each reference answer against the baselines: SPJ answers by
  /// row count + hash against ExecuteRdb, aggregates against HashGroupBy.
  /// Requests answered from a reference that fails count as failed.
  void Validate(Load& load) {
    EngineOptions eo;
    eo.enumerate.threads = 1;
    Engine engine(db_.get(), eo);
    for (size_t k = 0; k < reference_sqls_.size(); ++k) {
      const std::string& sql = reference_sqls_[k];
      const Query q = engine.Parse(sql);
      FdbResult res = engine.Execute(sql);
      bool ok = RenderResult(*db_, res) == bodies_[k];
      if (q.IsAggregate()) {
        RdbResult flat = engine.ExecuteRdb(q.SpjCore());
        ok = ok && SameGroups(*res.aggregate,
                              HashGroupBy(flat.relation, q.group_by, q.aggregates));
      } else {
        ok = ok && FingerprintOf(engine.MaterializeResult(res), db_->catalog()) ==
                       FingerprintOf(engine.ExecuteRdb(q).relation, db_->catalog());
      }
      if (!ok) {
        std::cerr << "fdbbench: reference answer " << k << " of " << name_
                  << " disagrees with the baseline\n";
        load.failed += ok_per_ref_[k];
      }
    }
  }

  /// Traced pass: trace_count() requests sent one at a time to a fresh
  /// one-worker server, each once as EXPLAIN ANALYZE (the server's own span
  /// tree) and once plain (timed by the server's execute and render
  /// histograms), alternating which goes first. Warm-chain first sends
  /// each of its statements in both forms, unmeasured, so the measured
  /// requests hit the plan cache as they do in the window.
  void Trace(Profile& p, Load& load) {
    ServeOptions so = serve_;
    so.num_workers = 1;
    QueryServer server(db_.get(), so);
    if (!ladder_) {
      for (const std::string& sql : reference_sqls_) {
        server.Query(sql);
        server.Query(kExplain + sql);
      }
    }
    Engine side(db_.get(), serve_.engine);
    for (int j = 0; j < trace_count(); ++j) {
      const ServeRequest r = Request(kTraceClient, static_cast<uint64_t>(j));
      ServeResponse explained, plain;
      double execute_s = 0, render_s = 0;
      auto explain = [&] { explained = server.Query(kExplain + r.sql); };
      auto call = [&] {
        const std::string before = server.MetricsExposition();
        plain = server.Query(r.sql);
        const std::string after = server.MetricsExposition();
        execute_s = HistogramSeconds(before, after, "fdb_serve_execute_seconds");
        render_s = HistogramSeconds(before, after, "fdb_serve_render_seconds");
      };
      if (j % 2 == 0) {
        explain();
        call();
      } else {
        call();
        explain();
      }
      std::vector<QueryTrace::Span> spans = ParseExplain(explained.body);
      ++load.attempted;
      if (explained.status != ServeStatus::kOk || spans.empty() ||
          plain.status != ServeStatus::kOk || plain.body != bodies_[r.ref]) {
        ++load.failed;
        continue;
      }
      ++ok_per_ref_[r.ref];
      // The plain request runs no morsel plan and no enumeration: EXPLAIN
      // adds them to materialise its result.
      const double skipped = p.AddSpans(spans, {"morsel-plan", "enumerate"});
      p.Add("serve.render", render_s);
      QueryTrace::Span render;
      render.name = "render";
      render.parent = 0;
      render.seconds = render_s;
      spans.push_back(render);
      // Submit normalises before the execute histogram starts; the traced
      // request normalises again inside its root span.
      double normalize_s = 0;
      for (const QueryTrace::Span& s : spans) {
        if (s.name == "normalize") normalize_s += s.seconds;
      }
      p.traced_s += spans[0].seconds - skipped + render_s;
      p.reference_s += execute_s + normalize_s;
      p.render_bytes += static_cast<double>(plain.body.size());
      ++p.renders;
      p.AddStatement(side, r.sql);
      p.requests.push_back(std::move(spans));
    }
  }

 private:
  static constexpr int kTraceClient = 99;

  static Clock::duration ToDuration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  }

  ServeRequest Request(int client, uint64_t i) const {
    if (ladder_) {
      return {LadderSql(static_cast<int64_t>(client) * 100'000'000 +
                        static_cast<int64_t>(i)),
              0};
    }
    const uint64_t h = Mix(opts_.seed ^ Mix(static_cast<uint64_t>(client) ^ Mix(i)));
    const size_t k = static_cast<size_t>(h % reference_sqls_.size());
    return {reference_sqls_[k], k};
  }

  // Closed loop: each client sends its next request when the previous
  // reply arrives, until `per_client` requests (warm-up) or the deadline.
  // Replies are checked against the reference bodies, after the latency
  // timer stops, once references exist.
  Load RunClients(QueryServer& server, int clients, uint64_t per_client,
                  std::optional<Clock::time_point> deadline) {
    struct ClientLog {
      std::vector<double> lat;
      uint64_t failed = 0;
      std::vector<uint64_t> ok_per_ref;
    };
    std::vector<ClientLog> logs(static_cast<size_t>(clients));
    const bool check = !bodies_.empty();
    const uint64_t first = next_index_;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[static_cast<size_t>(c)];
        log.ok_per_ref.assign(bodies_.size(), 0);
        for (uint64_t i = first;; ++i) {
          if (deadline ? Clock::now() >= *deadline : i >= first + per_client) break;
          const ServeRequest r = Request(c, i);
          Timer t;
          const ServeResponse resp = server.Query(r.sql);
          log.lat.push_back(t.Seconds());
          if (!check) continue;
          if (resp.status == ServeStatus::kOk && resp.body == bodies_[r.ref]) {
            ++log.ok_per_ref[r.ref];
          } else {
            ++log.failed;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Load load;
    uint64_t max_index = first;
    for (const ClientLog& log : logs) {
      load.latencies.insert(load.latencies.end(), log.lat.begin(), log.lat.end());
      load.failed += log.failed;
      max_index = std::max<uint64_t>(max_index, first + log.lat.size());
      for (size_t k = 0; k < log.ok_per_ref.size(); ++k) ok_per_ref_[k] += log.ok_per_ref[k];
    }
    // Later windows continue each client's stream instead of repeating it,
    // so every cold-ladder request stays unique.
    next_index_ = max_index;
    load.attempted = load.latencies.size();
    return load;
  }

  std::string name_;
  const Options& opts_;
  bool ladder_ = false;
  int clients_ = 1;
  ServeOptions serve_;
  uint64_t warmup_per_client_ = 0;
  std::vector<std::string> reference_sqls_;
  std::vector<std::string> bodies_;
  std::vector<uint64_t> ok_per_ref_;
  uint64_t next_index_ = 0;
  std::unique_ptr<Database> db_;
  std::unique_ptr<QueryServer> server_;  // destroyed before db_
};

// ---------------------------------------------------------------------------
// Engine workloads: one caller, SQL -> Relation through Engine::Execute, a
// compiled enumeration kernel and Engine::MaterializeResult. The engine
// spreads enumeration over the shared pool itself.

class EngineWorkload {
 public:
  EngineWorkload(std::string name, const Options& opts)
      : name_(std::move(name)), opts_(opts) {
    star_ = name_ == "materialize-star";
    sql_ = star_ ? "SELECT * FROM S, T WHERE sb = tb"
                 : "SELECT *" + std::string(kChainJoin);
  }

  double tail_percentile() const { return 90; }
  int trace_count() const { return opts_.smoke ? 2 : 20; }

  void Setup() {
    engine_.reset();
    db_.reset();
    db_ = star_ ? StarDb(opts_.seed, Scaled(6000, opts_))
                : ChainDb(opts_.seed, Scaled(100000, opts_));
    engine_ = std::make_unique<Engine>(db_.get());
    for (int i = 0; i < 2; ++i) RunQuery();
  }

  void BuildReferences() {}

  /// Queries until their summed time reaches `seconds`; Host::Between runs
  /// after each kSliceSeconds of it.
  Load Measure(double seconds, Host& host) {
    Load load;
    double next_sample = kSliceSeconds;
    while (load.wall < seconds) {
      ++load.attempted;
      const double cpu0 = CpuSeconds();
      Timer t;
      std::optional<Relation> rel;
      try {
        rel.emplace(RunQuery());
      } catch (const std::exception& e) {
        std::cerr << "fdbbench: " << name_ << " query failed: " << e.what() << "\n";
      }
      const double s = t.Seconds();
      load.cpu += CpuSeconds() - cpu0;
      load.latencies.push_back(s);
      load.wall += s;
      if (rel.has_value()) {
        fingerprints_.push_back(FingerprintOf(*rel, db_->catalog()));
      } else {
        ++load.failed;
      }
      if (load.wall >= next_sample) {
        host.Between();
        next_sample += kSliceSeconds;
      }
    }
    return load;
  }

  /// Checks every recorded answer against ExecuteRdb's row count + hash.
  void Validate(Load& load) {
    const Fingerprint ref =
        FingerprintOf(engine_->ExecuteRdb(engine_->Parse(sql_)).relation, db_->catalog());
    for (const Fingerprint& fp : fingerprints_) {
      if (!(fp == ref)) ++load.failed;
    }
    fingerprints_.clear();
  }

  /// Traced pass: trace_count() queries, each run once with a QueryTrace
  /// passed to every call of the workload's path and once untraced,
  /// alternating which goes first; then the traced result's enumerate sink
  /// is replayed step by step. All three answers are checked.
  void Trace(Profile& p, Load& load) {
    Engine side(db_.get());
    for (int j = 0; j < trace_count(); ++j) {
      QueryTrace trace;
      FdbResult res{FRep{FTree{}}, FPlan{}, 0.0, 0.0, {}, {}};
      std::optional<EnumKernel> kernel;
      std::optional<Relation> traced, called;
      auto traced_run = [&] {
        QueryTrace::Scope root(&trace, "query");
        Query q;
        {
          QueryTrace::Scope s(&trace, "parse");
          q = engine_->Parse(sql_);
        }
        res = engine_->EvaluateFlat(q, nullptr, &trace);
        kernel.emplace(EnumKernel::Compile(res.rep.tree(), /*visible_only=*/true, &trace));
        traced.emplace(engine_->MaterializeResult(res, &*kernel, &trace));
      };
      auto call = [&] {
        Timer t;
        called.emplace(RunQuery());
        p.reference_s += t.Seconds();
      };
      if (j % 2 == 0) {
        traced_run();
        call();
      } else {
        call();
        traced_run();
      }
      std::vector<QueryTrace::Span> spans = trace.spans();
      p.AddSpans(spans, {"enumerate"});
      p.traced_s += trace.TotalSeconds();
      int enumerate = -1;
      for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name == "enumerate") enumerate = static_cast<int>(i);
      }
      const Relation replayed = ReplaySink(res.rep, *kernel, enumerate, spans, p);
      p.AddStatement(side, sql_);
      p.requests.push_back(std::move(spans));

      const Fingerprint fp = FingerprintOf(*called, db_->catalog());
      fingerprints_.push_back(fp);
      ++load.attempted;
      if (!(FingerprintOf(*traced, db_->catalog()) == fp) ||
          !(FingerprintOf(replayed, db_->catalog()) == fp)) {
        ++load.failed;
      }
    }
  }

 private:
  Relation RunQuery() {
    FdbResult res = engine_->Execute(sql_);
    const EnumKernel kernel = EnumKernel::Compile(res.rep.tree(), /*visible_only=*/true);
    return engine_->MaterializeResult(res, &kernel);
  }

  std::string name_;
  const Options& opts_;
  bool star_ = false;
  std::string sql_;
  std::vector<Fingerprint> fingerprints_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Engine> engine_;  // destroyed before db_
};

// ---------------------------------------------------------------------------
// One run

struct Summary {
  std::vector<Metric> metrics;
  std::vector<Metric> detail;  // diagnostics, not benchmark metrics
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Layers whose share of the traced time is reported, by benchmark name.
constexpr const char* kShareLayers[] = {
    "serve.normalize",      "serve.plan_cache_lookup", "sql.parse",
    "opt.ftree_search",     "ground",                  "project",
    "aggregate.collapse",   "aggregate.materialize",   "enumerate.kernel_compile",
    "enumerate.morsel_plan", "enumerate.emit",         "materialize.concat",
    "materialize.sort_dedup", "serve.render"};

template <typename W>
Summary RunWorkload(W& w, const Options& opts) {
  Summary out;
  Host host;
  // Peak memory is taken per set-up rather than over the window: with
  // concurrent clients the window's peak depends on which allocator arenas
  // each evaluation lands in, while the warm-up inside each set-up runs
  // the same statements.
  std::vector<double> setup_s, setup_rss;
  for (int k = 0; k < kSetups; ++k) {
    host.Between();
    ResetPeakRss();
    Timer t;
    w.Setup();
    setup_s.push_back(t.Seconds());
    setup_rss.push_back(PeakRssMb());
  }
  w.BuildReferences();
  Load load = w.Measure(opts.seconds, host);
  std::vector<double> sorted = load.latencies;
  std::sort(sorted.begin(), sorted.end());
  size_t beyond_p50 = 0, beyond_tail = 0;
  const double p50 = Percentile(sorted, 50, &beyond_p50);
  const double tail = Percentile(sorted, w.tail_percentile(), &beyond_tail);
  const double qps = Ratio(static_cast<double>(load.attempted), load.wall);
  const double client_mean =
      Ratio(std::accumulate(load.latencies.begin(), load.latencies.end(), 0.0),
            static_cast<double>(load.latencies.size()));
  const double scale = host.time_scale();
  out.metrics = {
      {"qps", qps / scale, "1/s"},
      {"latency_p50_ms", 1e3 * p50 * scale, "ms"},
      {"setup_s", Median(setup_s) * scale, "s"},
      {"demoted.latency_tail_ms", 1e3 * tail * scale, "ms"},
      {"demoted.peak_rss_mb", Median(setup_rss), "MB"},
      {"wall.qps", qps, "1/s"},
      {"wall.latency_p50_ms", 1e3 * p50, "ms"},
      {"wall.setup_s", Median(setup_s), "s"},
      {"host.calibration_ms", host.ms(), "ms"},
      {"cpu_util", Ratio(load.cpu, load.wall * Nproc()), "ratio"},
      {"serve.plan_cache.hit_rate", Ratio(load.hits, load.lookups), "ratio"},
      {"serve.plan_cache.evictions", load.evictions, "count"},
      {"serve.coalesced_frac", Ratio(load.coalesced, load.received), "ratio"},
      {"serve.queue_wait_pct", 100.0 * Ratio(load.queue_wait_mean_s, client_mean), "%"},
      {"serve.execute_pct", 100.0 * Ratio(load.execute_mean_s, client_mean), "%"},
  };

  if (opts.trace) {
    Profile p;
    w.Trace(p, load);
    if (!opts.trace_out.empty()) p.Write(opts.trace_out, opts.workload);
    const double layers = p.LayerSeconds();
    const Profile::Layer& ground = p.at("ground");
    const double statements = static_cast<double>(p.statements);
    const std::vector<Metric> traced = {
        {"trace.coverage_pct", 100.0 * Ratio(layers, p.reference_s), "%"},
        {"trace.overhead_pct", 100.0 * (Ratio(p.traced_s, p.reference_s) - 1.0), "%"},
        {"trace.request_us",
         1e6 * scale * Ratio(p.traced_s, static_cast<double>(p.requests.size())), "us"},
        {"ground.us", 1e6 * scale * Ratio(ground.seconds, static_cast<double>(ground.calls)), "us"},
        {"ground.rep_bytes", Ratio(ground.bytes, static_cast<double>(ground.calls)), "bytes"},
        {"ground.input_rows", Ratio(p.input_rows, statements), "rows"},
        {"opt.ftree_cost", p.ftree_cost, "exponent"},
        {"lp.edge_cover_hit_rate", Ratio(p.lp_hits, p.lp_hits + p.lp_solves), "ratio"},
        {"aggregate.groups",
         Ratio(p.at("aggregate.materialize").rows,
               static_cast<double>(p.at("aggregate.materialize").calls)), "count"},
        {"enumerate.morsels",
         Ratio(p.at("enumerate.morsel_plan").rows,
               static_cast<double>(p.at("enumerate.morsel_plan").calls)), "count"},
        {"enumerate.tuples", Ratio(p.tuples, static_cast<double>(p.at("enumerate.emit").calls)),
         "count"},
        {"materialize.useful_ratio", Ratio(p.rows_out, p.tuples), "ratio"},
        {"serve.render_bytes", Ratio(p.render_bytes, static_cast<double>(p.renders)), "bytes"},
    };
    out.metrics.insert(out.metrics.end(), traced.begin(), traced.end());
    for (const char* layer : kShareLayers) {
      out.metrics.push_back(
          {std::string("share.") + layer, 100.0 * Ratio(p.at(layer).seconds, layers), "%"});
    }
  }
  // The window's answers are checked after the traced pass so that the
  // reference bodies it counts against are validated too.
  w.Validate(load);
  out.attempted = load.attempted;
  out.failed = load.failed;
  out.detail.push_back({"p50_ms", 1e3 * p50, "ms"});
  out.detail.push_back({"tail_ms", 1e3 * tail, "ms"});
  out.detail.push_back({"max_ms", sorted.empty() ? 0.0 : 1e3 * sorted.back(), "ms"});
  out.detail.push_back({"beyond_p50", static_cast<double>(beyond_p50), "count"});
  out.detail.push_back({"beyond_tail", static_cast<double>(beyond_tail), "count"});
  return out;
}

}  // namespace
}  // namespace fdb

int main(int argc, char** argv) {
  using namespace fdb;
  const Options opts = ParseArgs(argc, argv);
  Summary s;
  try {
    if (opts.workload == "serve-cold-ladder" || opts.workload == "serve-warm-chain") {
      ServeWorkload w(opts.workload, opts);
      s = RunWorkload(w, opts);
    } else if (opts.workload == "materialize-star" || opts.workload == "materialize-chain") {
      EngineWorkload w(opts.workload, opts);
      s = RunWorkload(w, opts);
    } else {
      Usage("unknown workload " + opts.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "fdbbench: " << opts.workload << ": " << e.what() << "\n";
    return 1;
  }
  auto object = [](const std::vector<Metric>& ms) {
    std::string out = "{";
    for (size_t i = 0; i < ms.size(); ++i) {
      out += (i ? ", " : "") + JsonString(ms[i].name) + ": {\"value\": " +
             JsonNumber(ms[i].value) + ", \"unit\": " + JsonString(ms[i].unit) + "}";
    }
    return out + "}";
  };
  std::cout << "{\"workload\": " << JsonString(opts.workload)
            << ", \"attempted\": " << s.attempted << ", \"failed\": " << s.failed
            << ", \"metrics\": " << object(s.metrics) << ", \"detail\": " << object(s.detail)
            << ", \"provenance\": {\"compiler\": " << JsonString(FDBBENCH_COMPILER)
            << ", \"build_type\": " << JsonString(FDBBENCH_BUILD_TYPE)
            << ", \"nproc\": " << Nproc() << ", \"seed\": " << opts.seed
            << ", \"seconds\": " << JsonNumber(opts.seconds) << ", \"setups\": " << kSetups
            << ", \"scale\": " << JsonNumber(opts.scale()) << "}}" << std::endl;
  return 0;
}
