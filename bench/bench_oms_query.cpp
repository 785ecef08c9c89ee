// OMS query engine: does the secondary-index layer actually flatten
// find_one/objects_of/linked from O(total objects) to O(1)/O(result)?
//
// The workload is the shape every JCF name resolution takes: a store of
// N objects (a Named/Cell/Macro hierarchy so subclass fan-in is
// exercised), unique "name" attributes, a small "group" attribute with
// heavy duplication, and one hub object with ~sqrt(N) outgoing edges.
// For N in {1k, 10k, 100k} the report times the store's indexed queries
// (`indexed`) and bench-local naive scans answering the same queries
// from a (id, class, name, group) mirror built during setup plus the
// hub's adjacency list (`scan`, the pre-index cost shape):
//   * find_one by unique name      -- the create_named/find_named hot path,
//                                     fanned in over the Named subclass closure;
//   * find by duplicated group     -- O(result) vs O(N);
//   * objects_of on a selective class (Macro, 1% of the store) -- the
//     objects_of("Project")-among-everything shape JCF sweeps take;
//   * linked on the hub            -- edge-set probe vs O(degree) scan.
//
// The asymptotic claim to reproduce: indexed find_one latency is flat
// across 1k -> 100k while the scan grows ~linearly.
// scripts/run_benches.py gates on >= 10x at 100k (--check-index-speedup).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "jfm/oms/store.hpp"
#include "jfm/support/rng.hpp"

namespace {

using namespace jfm;
using oms::AttrValue;

constexpr std::size_t kSizes[] = {1000, 10000, 100000};

oms::Schema query_schema() {
  oms::Schema schema;
  auto must = [](support::Status st) {
    if (!st.ok()) std::abort();
  };
  must(schema.define_class({"Named", "", {{"name", oms::AttrType::text}}}));
  must(schema.define_class({"Cell", "Named", {{"group", oms::AttrType::integer}}}));
  must(schema.define_class({"Macro", "Cell", {}}));
  must(schema.define_relation({"edge", "Cell", "Cell", oms::Cardinality::many_to_many}));
  return schema;
}

/// What the store holds, mirrored for the naive scans.
struct Row {
  oms::ObjectId id;
  std::string cls;
  std::string name;
  std::int64_t group = 0;
};

struct QueryEnv {
  support::SimClock clock;
  oms::Store store;
  std::size_t size;
  oms::ObjectId hub;
  std::vector<oms::ObjectId> hub_targets;  ///< the hub's adjacency, in link order
  std::vector<Row> rows;

  explicit QueryEnv(std::size_t n) : store(query_schema(), &clock), size(n) {
    std::vector<oms::ObjectId> ids;
    ids.reserve(n);
    rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const char* cls = i % 100 == 0 ? "Macro" : "Cell";
      auto id = *store.create(cls);
      std::string name = "obj" + std::to_string(i);
      const auto group = static_cast<std::int64_t>(i % 64);
      if (!store.set(id, "name", AttrValue(name)).ok()) std::abort();
      if (!store.set(id, "group", AttrValue(group)).ok()) std::abort();
      ids.push_back(id);
      rows.push_back({id, cls, std::move(name), group});
    }
    // one hub with ~sqrt(N) fan-out so linked()'s O(degree) scan hurts
    hub = ids[0];
    std::size_t degree = 1;
    while (degree * degree < n) ++degree;
    for (std::size_t i = 1; i <= degree && i < n; ++i) {
      if (!store.link("edge", hub, ids[i]).ok()) std::abort();
      hub_targets.push_back(ids[i]);
    }
  }

  // -- naive scans: the same answers, O(N) / O(degree) per query -------
  /// Ids of the rows of `cls` (subclasses included) that `match`, in id order.
  template <typename Match>
  std::vector<oms::ObjectId> scan(std::string_view cls, Match&& match) const {
    std::vector<oms::ObjectId> out;
    for (const auto& row : rows) {
      if (store.schema().is_a(row.cls, cls) && match(row)) out.push_back(row.id);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  bool scan_linked(oms::ObjectId from, oms::ObjectId to) const {
    return from == hub && std::find(hub_targets.begin(), hub_targets.end(), to) !=
                              hub_targets.end();
  }
};

enum class Mode { indexed, scan };

const char* mode_name(Mode mode) { return mode == Mode::indexed ? "indexed" : "scan"; }

/// One find_one by unique name in either mode.
std::optional<oms::ObjectId> find_one_name(const QueryEnv& env, Mode mode,
                                           const std::string& name) {
  if (mode == Mode::indexed) return env.store.find_one("Named", "name", AttrValue(name));
  auto all = env.scan("Named", [&](const Row& row) { return row.name == name; });
  if (all.empty()) return std::nullopt;
  return all.front();
}

/// ns per call of `fn`, amortized over enough reps for a stable read.
template <typename Fn>
std::uint64_t time_ns_per_op(std::size_t reps, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < reps; ++i) fn(i);
  const auto end = std::chrono::steady_clock::now();
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count());
  return ns / (reps == 0 ? 1 : reps);
}

struct OpTimes {
  std::uint64_t find_one_ns = 0;
  std::uint64_t find_group_ns = 0;
  std::uint64_t objects_of_ns = 0;
  std::uint64_t linked_ns = 0;
};

OpTimes measure(const QueryEnv& env, Mode mode) {
  OpTimes t;
  support::Rng rng(1234);
  const std::size_t n = env.size;
  // the scan path is O(N) per query; keep rep counts size-aware so the
  // whole sweep stays interactive
  const bool indexed = mode == Mode::indexed;
  const std::size_t point_reps = indexed ? 20000 : std::max<std::size_t>(4, 2000000 / n);
  const std::size_t heavy_reps = std::max<std::size_t>(4, (indexed ? 400000 : 2000000) / n);

  std::size_t found = 0;
  t.find_one_ns = time_ns_per_op(point_reps, [&](std::size_t) {
    auto hit = find_one_name(env, mode, "obj" + std::to_string(rng.below(n)));
    if (hit.has_value()) ++found;
  });
  if (found != point_reps) std::abort();  // every probe must hit

  t.find_group_ns = time_ns_per_op(heavy_reps, [&](std::size_t i) {
    const auto group = static_cast<std::int64_t>(i % 64);
    auto rows = indexed ? env.store.find("Cell", "group", AttrValue(group))
                        : env.scan("Cell", [&](const Row& row) { return row.group == group; });
    if (rows.empty()) std::abort();
  });

  t.objects_of_ns = time_ns_per_op(std::max<std::size_t>(4, heavy_reps / 4), [&](std::size_t) {
    // 1% of the store
    auto rows = indexed ? env.store.objects_of("Macro")
                        : env.scan("Macro", [](const Row&) { return true; });
    if (rows.size() != n / 100) std::abort();
  });

  std::size_t linked_hits = 0;
  t.linked_ns = time_ns_per_op(point_reps, [&](std::size_t i) {
    // alternate present/absent probes against the hub's edge list
    const oms::ObjectId target = rng.pick(env.hub_targets);
    const oms::ObjectId from = i % 2 == 0 ? env.hub : target;
    const oms::ObjectId to = i % 2 == 0 ? target : env.hub;
    const bool hit = indexed ? env.store.linked("edge", from, to) : env.scan_linked(from, to);
    linked_hits += hit ? 1 : 0;
  });
  if (linked_hits != point_reps / 2) std::abort();
  return t;
}

void print_report() {
  benchutil::header("oms query engine: secondary indexes vs full scan");
  auto& registry = support::telemetry::Registry::global();
  char line[256];
  std::uint64_t indexed_100k_find_one = 0;
  std::uint64_t scan_100k_find_one = 0;
  for (std::size_t n : kSizes) {
    const QueryEnv env(n);
    for (Mode m : {Mode::indexed, Mode::scan}) {
      OpTimes t = measure(env, m);
      const char* mode = mode_name(m);
      std::snprintf(line, sizeof(line),
                    "n=%6zu %-11s  find_one %8llu ns  find(group) %8llu ns  "
                    "objects_of %8llu ns  linked %6llu ns",
                    n, mode, static_cast<unsigned long long>(t.find_one_ns),
                    static_cast<unsigned long long>(t.find_group_ns),
                    static_cast<unsigned long long>(t.objects_of_ns),
                    static_cast<unsigned long long>(t.linked_ns));
      benchutil::row(line);
      // machine-readable rows for scripts/run_benches.py
      for (const auto& [op, ns] :
           {std::pair<const char*, std::uint64_t>{"find_one", t.find_one_ns},
            {"find_group", t.find_group_ns},
            {"objects_of", t.objects_of_ns},
            {"linked", t.linked_ns}}) {
        std::printf("JFM_OMS_QUERY size=%zu mode=%s op=%s ns_per_op=%llu\n", n, mode, op,
                    static_cast<unsigned long long>(ns));
        registry
            .gauge("bench.oms_query.n" + std::to_string(n) + "." + mode + "." + op + ".ns")
            .set(static_cast<std::int64_t>(ns));
      }
      if (n == 100000 && m == Mode::indexed) indexed_100k_find_one = t.find_one_ns;
      if (n == 100000 && m == Mode::scan) scan_100k_find_one = t.find_one_ns;
    }
  }
  const double speedup = indexed_100k_find_one == 0
                             ? 0.0
                             : static_cast<double>(scan_100k_find_one) /
                                   static_cast<double>(indexed_100k_find_one);
  std::snprintf(line, sizeof(line),
                "100k find_one: indexed %llu ns vs scan %llu ns -> %.1fx",
                static_cast<unsigned long long>(indexed_100k_find_one),
                static_cast<unsigned long long>(scan_100k_find_one), speedup);
  benchutil::row(line);
  std::printf("JFM_OMS_QUERY_META sizes=%zu find_one_speedup_100k=%.3f\n",
              std::size(kSizes), speedup);
}

// -- google-benchmark micro-timings ----------------------------------------

void BM_FindOne(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const QueryEnv env(n);
  const Mode mode = state.range(1) != 0 ? Mode::indexed : Mode::scan;
  support::Rng rng(99);
  for (auto _ : state) {
    auto hit = find_one_name(env, mode, "obj" + std::to_string(rng.below(n)));
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_FindOne)
    ->Args({10000, 1})
    ->Args({10000, 0})
    ->Args({100000, 1})
    ->Unit(benchmark::kNanosecond);

void BM_LinkedHub(benchmark::State& state) {
  const QueryEnv env(10000);
  const bool indexed = state.range(0) != 0;
  support::Rng rng(7);
  for (auto _ : state) {
    const oms::ObjectId target = rng.pick(env.hub_targets);
    bool hit = indexed ? env.store.linked("edge", env.hub, target)
                       : env.scan_linked(env.hub, target);
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_LinkedHub)->Arg(1)->Arg(0)->Unit(benchmark::kNanosecond);

}  // namespace

JFM_BENCH_MAIN(print_report)
