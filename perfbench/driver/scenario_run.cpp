// Untraced mode: one timeline on the scenario path (parse_program →
// make_cluster/Runtime via run_program_once), timed from outside through
// the per-round hook.  Prints the raw figures of one repetition; run.py
// turns repetitions into the end-to-end metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "report.hpp"
#include "shape/shape.hpp"

namespace perfbench {

using namespace poly;
using scenario::RoundMetrics;
using scenario::Stage;

std::size_t warmup_rounds(const scenario::ScenarioProgram& p) {
  for (const Stage& s : p.timeline) {
    if (s.kind == Stage::Kind::kMeasureEvery) continue;
    if (s.kind == Stage::Kind::kRun && s.rounds > 0) return s.rounds;
    break;
  }
  throw scenario::ProgramError(p.file, 0,
                               "benchmark timelines open with `run W` (the "
                               "warm-up) before any other stage");
}

scenario::ScenarioProgram compile_file(const std::string& path) {
  scenario::ScenarioProgram p = scenario::load_program(path);
  scenario::validate_for_mode(p, p.options.engine);
  return p;
}

namespace {

/// Median of [first, last) (the upper one of an even count); reorders it.
template <class It>
double median(It first, It last) {
  It mid = first + (last - first) / 2;
  std::nth_element(first, mid, last);
  return *mid;
}

}  // namespace

int run_scenario(const std::string& path) {
  // One probe before the clock starts, one after every round; probe time
  // is kept out of every interval below.
  MemoryProbe probe;
  std::vector<double> probe_s{probe.run()};
  const Clock::time_point t0 = Clock::now();
  const scenario::ScenarioProgram p = compile_file(path);
  std::string err;
  const auto shape = shape::make_shape(p.shape_spec, &err);
  if (!shape) throw scenario::ProgramError(p.file, p.line_of("shape"), err);
  const std::size_t warmup = warmup_rounds(p);

  // The hook runs after each round's measurement (when the cadence takes
  // one) and before the round's expects: it stamps the wall clock and the
  // alive count, then runs the probe.  Round r takes from the end of the
  // probe after round r-1 (from t0 for round 0) to the stamp after it.
  std::vector<double> round_all_s;
  std::vector<std::size_t> alive;
  round_all_s.reserve(p.total_rounds() + 1024);
  alive.reserve(p.total_rounds() + 1024);
  probe_s.reserve(p.total_rounds() + 1024);
  Clock::time_point resume = t0;
  const scenario::RoundHook hook = [&](scenario::Runtime& rt, std::size_t) {
    const Clock::time_point at = Clock::now();
    round_all_s.push_back(seconds_between(resume, at));
    alive.push_back(rt.alive_count());
    probe_s.push_back(probe.run());
    resume = Clock::now();
  };
  const scenario::ProgramRun run =
      scenario::run_program_once(*shape, p, p.options, hook);

  if (run.rounds_total <= warmup || alive.size() != run.rounds_total) {
    std::fprintf(stderr, "perfbench: %zu rounds run, warm-up is %zu\n",
                 run.rounds_total, warmup);
    return 1;
  }
  // Set-up (compile, construct, warm-up rounds) and window (the measured
  // rounds), each with the median of the probes taken during it.
  double setup_s = 0.0, window_s = 0.0, alive_rounds = 0.0;
  for (std::size_t r = 0; r < alive.size(); ++r) {
    (r < warmup ? setup_s : window_s) += round_all_s[r];
    if (r >= warmup) alive_rounds += static_cast<double>(alive[r]);
  }
  const double setup_probe_s =
      median(probe_s.begin(), probe_s.begin() + warmup + 1);
  const double window_probe_s =
      median(probe_s.begin() + warmup + 1, probe_s.end());

  // Measured rounds: the one closing the warm-up, then the window.
  const RoundMetrics* warm = nullptr;
  std::uint64_t inflight_high = 0;
  double msg_weighted = 0.0, msg_alive = 0.0;
  Digest digest;
  for (const RoundMetrics& m : run.rounds) {
    digest.add(m);
    inflight_high = std::max(inflight_high, m.requests_inflight);
    if (m.round + 1 == warmup) warm = &m;
    if (m.round >= warmup && !std::isnan(m.msg_paper)) {
      msg_weighted += m.msg_paper * static_cast<double>(m.alive);
      msg_alive += static_cast<double>(m.alive);
    }
  }
  const RoundMetrics& last = run.rounds.back();
  const bool sync = p.options.engine == scenario::EngineMode::kSync;
  if (!sync && warm == nullptr) {
    std::fprintf(stderr, "perfbench: round %zu (end of warm-up) was not "
                 "measured\n", warmup - 1);
    return 1;
  }
  const double msgs =
      sync ? (msg_alive > 0 ? msg_weighted / msg_alive : 0.0)
           : static_cast<double>(last.frames - warm->frames) / alive_rounds;

  // Traffic: rounds spent draining (the pairing run replaces `drain` with
  // exactly this many plain rounds) and the offered load.
  std::size_t scripted = 0;
  std::size_t rate = 0;
  std::size_t traffic_rounds = 0;
  bool traffic_on = false;
  for (const Stage& s : p.timeline) {
    if (s.kind == Stage::Kind::kRun) {
      scripted += s.rounds;
      if (traffic_on) traffic_rounds += s.rounds;
    }
    if (s.kind == Stage::Kind::kTraffic) {
      rate = s.count;
      traffic_on = s.count > 0;
    }
    if (s.kind == Stage::Kind::kDrain) traffic_on = false;
  }

  Report rep;
  rep.text("mode", "scenario");
  rep.text("engine", scenario::to_string(p.options.engine));
  rep.count("nodes", shape->size());
  rep.count("warmup_rounds", warmup);
  rep.count("rounds", run.rounds_total);
  rep.count("drain_rounds", run.rounds_total - scripted);
  rep.num("setup_s", setup_s);
  rep.num("setup_probe_s", setup_probe_s);
  rep.num("window_s", window_s);
  rep.num("window_probe_s", window_probe_s);
  rep.num("alive_rounds", alive_rounds);
  rep.num("node_rounds_per_s", alive_rounds / window_s);
  // The probe's buffer is resident throughout, so it adds exactly its
  // size to the high-water mark.
  rep.num("peak_rss_bytes", peak_rss_bytes() - MemoryProbe::bytes());
  rep.num("msgs_per_node_round", msgs);
  rep.num("reliability", run.reliability);
  rep.num("reshape_rounds", run.reshaping_rounds);
  rep.count("frames_rejected", last.frames_rejected);
  rep.count("requests_offered", rate * (traffic_rounds + 1));
  rep.count("requests_completed", last.requests);
  rep.count("requests_failed", last.requests_failed);
  rep.count("requests_inflight", last.requests_inflight);
  rep.count("requests_inflight_high", inflight_high);
  rep.num("mean_hops", last.mean_hops);
  rep.num("p50_latency_ms", last.p50_latency_ms);
  rep.num("p999_latency_ms", last.p999_latency_ms);
  rep.text("digest", digest.hex());
  rep.print();
  return 0;
}

}  // namespace perfbench
