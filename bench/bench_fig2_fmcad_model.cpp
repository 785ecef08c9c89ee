// Figure 2: the FMCAD information architecture. The report instantiates
// every entity of the figure (library, cell, view, cellview, cellview
// version, checkout status, configuration) and prints the census; the
// micro-benchmarks time the library operations. The single .meta file
// is a checkpoint plus an append-only journal (docs/file-formats.md), so
// a committed change costs one appended record -- flat in library size
// and history length -- while the generation counter and the stale-
// snapshot rejections of s3.1 are unchanged.

#include "bench_util.hpp"
#include "jfm/fmcad/session.hpp"

namespace {

using namespace jfm;

void print_report() {
  benchutil::header("Figure 2: FMCAD information architecture (instantiated)");
  benchutil::FmcadEnv env;
  auto& session = *env.session;
  env.make_cellview("alu", "schematic");
  env.make_cellview("alu", "layout");
  env.make_cellview("alu", "simulate");
  env.make_cellview("adder", "schematic");
  env.checkin({"alu", "schematic"}, "cvfile 1\ncellview alu schematic schematic\npayload\n");
  env.checkin({"alu", "schematic"}, "cvfile 1\ncellview alu schematic schematic\npayload\nx\n");
  env.checkin({"alu", "layout"}, "cvfile 1\ncellview alu layout layout\npayload\n");
  (void)session.create_config("golden");
  (void)session.set_config_member("golden", {"alu", "schematic"}, 2);
  (void)session.set_config_member("golden", {"alu", "layout"}, 1);
  (void)session.checkout({"adder", "schematic"});  // a live CheckOutStatus

  const auto& meta = env.library->meta();
  benchutil::row("Library: " + meta.library);
  benchutil::row("Cells: " + std::to_string(meta.cells.size()));
  benchutil::row("Views (w/ viewtypes): " + std::to_string(meta.views.size()));
  benchutil::row("Cellviews: " + std::to_string(meta.cellviews.size()));
  std::size_t versions = 0;
  std::size_t checkouts = 0;
  for (const auto& [key, record] : meta.cellviews) {
    versions += record.versions.size();
    if (record.checkout) ++checkouts;
  }
  benchutil::row("Cellview versions: " + std::to_string(versions));
  benchutil::row("Checked-out cellviews (locked flag): " + std::to_string(checkouts));
  benchutil::row("Configurations: " + std::to_string(meta.configs.size()));
  benchutil::row(".meta size: " + std::to_string(meta.serialize().size()) +
                 " bytes canonical (ONE file per library)");
  benchutil::row("library generation: " + std::to_string(meta.generation) +
                 " (every committed change bumps it and journals one record)");
}

// ---- library operation micro-benchmarks -----------------------------------

void BM_CreateCellAndCellview(benchmark::State& state) {
  benchutil::FmcadEnv env;
  std::uint64_t n = 0;
  for (auto _ : state) {
    const std::string cell = "c" + std::to_string(n++);
    (void)env.session->create_cell(cell);
    auto st = env.session->create_cellview({cell, "schematic"});
    benchmark::DoNotOptimize(st);
  }
}
BENCHMARK(BM_CreateCellAndCellview)->Unit(benchmark::kMicrosecond);

void BM_CheckoutCheckinCycle(benchmark::State& state) {
  benchutil::FmcadEnv env;
  env.make_cellview("alu", "schematic");
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    (void)env.session->checkout({"alu", "schematic"});
    (void)env.session->write_working({"alu", "schematic"}, payload);
    auto version = env.session->checkin({"alu", "schematic"});
    benchmark::DoNotOptimize(version);
  }
  state.counters["payload_bytes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_CheckoutCheckinCycle)->Arg(256)->Arg(4096)->Arg(65536)->Unit(benchmark::kMicrosecond);

// A committed metadata change appends one journal record to the single
// .meta; compaction rewrites it only once the journal outgrows the
// checkpoint, so the per-commit cost stays flat as the library grows.
void BM_MetaCommitVsLibrarySize(benchmark::State& state) {
  benchutil::FmcadEnv env;
  for (int c = 0; c < state.range(0); ++c) {
    const std::string cell = "c" + std::to_string(c);
    env.make_cellview(cell, "schematic");
  }
  std::uint64_t n = 0;
  for (auto _ : state) {
    auto st = env.session->create_config("cfg" + std::to_string(n++));
    benchmark::DoNotOptimize(st);
  }
  state.counters["cells"] = static_cast<double>(state.range(0));
  state.counters["meta_bytes"] =
      static_cast<double>(env.library->meta().serialize().size());
}
BENCHMARK(BM_MetaCommitVsLibrarySize)
    ->Arg(10)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1000)
    ->Unit(benchmark::kMicrosecond);

// One designer's checkout + checkin on a library that already carries
// 2000 versions of history (100 cellviews x 20 versions): two metadata
// commits and two session refreshes per iteration, none of which may
// depend on how much history the .meta describes.
void BM_CheckoutCheckinWithHistory(benchmark::State& state) {
  benchutil::FmcadEnv env;
  const int cells = 100;
  const int versions = static_cast<int>(state.range(0)) / cells;
  for (int c = 0; c < cells; ++c) env.make_cellview("c" + std::to_string(c), "schematic");
  for (int v = 0; v < versions; ++v) {
    for (int c = 0; c < cells; ++c) {
      env.checkin({"c" + std::to_string(c), "schematic"}, "v" + std::to_string(v));
    }
  }
  const fmcad::CellViewKey key{"c0", "schematic"};
  for (auto _ : state) {
    auto version = env.checkin(key, "payload");
    benchmark::DoNotOptimize(version);
  }
  state.counters["history_versions"] = static_cast<double>(cells * versions);
  state.counters["meta_bytes"] =
      static_cast<double>(env.library->meta().serialize().size());
}
BENCHMARK(BM_CheckoutCheckinWithHistory)->Arg(2000)->Unit(benchmark::kMicrosecond);

void BM_SessionRefresh(benchmark::State& state) {
  benchutil::FmcadEnv env;
  for (int c = 0; c < 100; ++c) env.make_cellview("c" + std::to_string(c), "schematic");
  fmcad::DesignerSession other(env.library, "bob");
  for (auto _ : state) {
    other.refresh();
    benchmark::DoNotOptimize(other.view().generation);
  }
}
BENCHMARK(BM_SessionRefresh)->Unit(benchmark::kMicrosecond);

void BM_NativeReadDefault(benchmark::State& state) {
  benchutil::FmcadEnv env;
  env.make_cellview("alu", "schematic");
  env.checkin({"alu", "schematic"}, std::string(static_cast<std::size_t>(state.range(0)), 'd'));
  for (auto _ : state) {
    auto content = env.session->read_default({"alu", "schematic"});
    benchmark::DoNotOptimize(content);
  }
  state.counters["bytes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_NativeReadDefault)->Arg(1024)->Arg(262144)->Unit(benchmark::kMicrosecond);

}  // namespace

JFM_BENCH_MAIN(print_report)
