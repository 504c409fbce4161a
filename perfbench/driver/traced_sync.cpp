// Traced mode, sync simulator: the workload's Runtime comes from
// make_cluster as on the scenario path; in the measured window each round
// is driven as Simulation::run_round drives it — rps().round(),
// topology().round(), polystyrene()->round(), network().advance_round(),
// in that order — with a span around each call, so the trajectory is the
// untraced run's (checked: run.py compares the trajectory digests).
#include <algorithm>
#include <cstdio>
#include <string>

#include "report.hpp"
#include "shape/shape.hpp"
#include "spans.hpp"

namespace perfbench {

using namespace poly;
using scenario::Stage;

int run_traced_sync(const std::string& path, const std::string& spans_out) {
  Tracer tracer(std::size_t{1} << 16);

  const Clock::time_point t0 = Clock::now();
  const scenario::ScenarioProgram p = compile_file(path);
  std::string err;
  const auto shape = shape::make_shape(p.shape_spec, &err);
  if (!shape) throw scenario::ProgramError(p.file, p.line_of("shape"), err);
  const std::size_t warmup = warmup_rounds(p);
  const Clock::time_point t_compiled = Clock::now();
  const auto rt = scenario::make_cluster(*shape, p.options);
  scenario::Simulation* sim = rt->sim();
  if (sim == nullptr)
    throw scenario::ProgramError(p.file, p.line_of("engine"),
                                 "trace-sync needs `engine sync`");
  const Clock::time_point t_built = Clock::now();

  std::size_t cadence = std::max<std::size_t>(1, p.measure_every);
  std::size_t since_measure = 0;
  std::size_t crashed_since_grow = 0;
  std::vector<scenario::RoundMetrics> measured;
  double alive_rounds = 0.0;
  Clock::time_point window_start{};

  auto step = [&] {
    if (rt->rounds_run() == warmup) {
      window_start = Clock::now();
      tracer.set_active(true);
    }
    if (tracer.active()) {
      { Scope s(tracer, Layer::kSyncRps); sim->rps().round(); }
      { Scope s(tracer, Layer::kSyncTopo); sim->topology().round(); }
      if (core::PolystyreneLayer* poly = sim->polystyrene()) {
        Scope s(tracer, Layer::kSyncPoly);
        poly->round();
      }
      { Scope s(tracer, Layer::kSyncAdvance); sim->network().advance_round(); }
      alive_rounds += static_cast<double>(rt->alive_count());
    } else {
      rt->run_round();
    }
    if (++since_measure >= cadence) {
      Scope s(tracer, Layer::kMeasure);
      since_measure = 0;
      measured.push_back(rt->measure());
    }
  };

  for (const Stage& s : p.timeline) {
    switch (s.kind) {
      case Stage::Kind::kRun:
        for (std::size_t r = 0; r < s.rounds; ++r) step();
        break;
      case Stage::Kind::kMeasureEvery:
        cadence = s.rounds;
        since_measure = 0;
        break;
      case Stage::Kind::kCrash: {
        if (s.selector != Stage::CrashSelector::kHalf)
          throw scenario::ProgramError(p.file, s.line,
                                       "traced sync run: only `crash half`");
        Scope sc(tracer, Layer::kVerb);
        crashed_since_grow += rt->crash_half();
        break;
      }
      case Stage::Kind::kGrow: {
        Scope sc(tracer, Layer::kVerb);
        rt->inject(s.grow_crashed ? crashed_since_grow : s.count);
        crashed_since_grow = 0;
        break;
      }
      default:
        throw scenario::ProgramError(p.file, s.line,
                                     "traced sync run: stage not supported");
    }
  }
  if (rt->rounds_run() > 0 && since_measure != 0) {
    Scope s(tracer, Layer::kMeasure);
    measured.push_back(rt->measure());
  }
  tracer.set_active(false);
  const Clock::time_point window_end = Clock::now();
  if (rt->rounds_run() <= warmup) {
    std::fprintf(stderr, "perfbench: no measured rounds\n");
    return 1;
  }

  Digest digest;
  for (const auto& m : measured) digest.add(m);
  const double window_s = seconds_between(window_start, window_end);
  const double rounds = static_cast<double>(rt->rounds_run() - warmup);
  auto per_round_s = [&](Layer l) {
    return static_cast<double>(tracer.totals(l).total_ns) * 1e-9 / rounds;
  };
  const auto meas = tracer.totals(Layer::kMeasure);

  Report rep;
  rep.text("mode", "trace-sync");
  rep.count("nodes", shape->size());
  rep.count("rounds", rt->rounds_run());
  rep.num("compile_s", seconds_between(t0, t_compiled));
  rep.num("construct_s", seconds_between(t_compiled, t_built));
  rep.num("warmup_s", seconds_between(t_built, window_start));
  rep.num("window_s", window_s);
  rep.num("alive_rounds", alive_rounds);
  rep.num("node_rounds_per_s", alive_rounds / window_s);
  rep.num("span_root_s", static_cast<double>(tracer.root_ns()) * 1e-9);
  rep.text("digest", digest.hex());
  rep.num("sync.rps_round_s", per_round_s(Layer::kSyncRps));
  rep.num("sync.topo_round_s", per_round_s(Layer::kSyncTopo));
  rep.num("sync.poly_round_s", per_round_s(Layer::kSyncPoly));
  rep.num("sync.advance_round_s", per_round_s(Layer::kSyncAdvance));
  rep.num("metrics.measure_s_per_call",
          meas.count > 0 ? static_cast<double>(meas.total_ns) * 1e-9 /
                               static_cast<double>(meas.count)
                         : 0.0);
  rep.num("self_s.sync_rps",
          static_cast<double>(tracer.totals(Layer::kSyncRps).self_ns) * 1e-9);
  rep.num("self_s.sync_topo",
          static_cast<double>(tracer.totals(Layer::kSyncTopo).self_ns) * 1e-9);
  rep.num("self_s.sync_poly",
          static_cast<double>(tracer.totals(Layer::kSyncPoly).self_ns) * 1e-9);
  rep.num("self_s.sync_advance",
          static_cast<double>(tracer.totals(Layer::kSyncAdvance).self_ns) *
              1e-9);
  rep.num("self_s.metrics", static_cast<double>(meas.self_ns) * 1e-9);
  rep.num("self_s.verbs",
          static_cast<double>(tracer.totals(Layer::kVerb).self_ns) * 1e-9);
  if (!tracer.write(spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
    return 1;
  }
  rep.print();
  return 0;
}

}  // namespace perfbench
